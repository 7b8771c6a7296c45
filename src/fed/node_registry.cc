#include "src/fed/node_registry.h"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <utility>

#include "src/common/thread_name.h"

namespace flashps::fed {

namespace {

// Minimal scanner for the flat {"key":number,...} splices this registry
// reads back out of a node's MetricsJson. Searches within [from, to).
bool FindNumber(const std::string& json, size_t from, size_t to,
                const std::string& key, double* out) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = json.find(needle, from);
  if (pos == std::string::npos || pos >= to) {
    return false;
  }
  const char* start = json.c_str() + pos + needle.size();
  char* end = nullptr;
  const double value = std::strtod(start, &end);
  if (end == start) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace

std::string ToString(NodeHealth health) {
  switch (health) {
    case NodeHealth::kAlive:
      return "alive";
    case NodeHealth::kSuspect:
      return "suspect";
    case NodeHealth::kDead:
      return "dead";
  }
  return "?";
}

NodeRegistry::NodeRegistry(NodeRegistryOptions options)
    : options_(std::move(options)) {}

NodeRegistry::~NodeRegistry() { Stop(); }

int NodeRegistry::Join(const FedNode& node) {
  int index;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto state = std::make_unique<NodeState>();
    state->node = node;
    index = static_cast<int>(nodes_.size());
    nodes_.push_back(std::move(state));
  }
  // Synchronous join probe: loads the node's profile immediately so the
  // very first routed request can be mask-aware-scored. A node that is
  // not up yet simply stays suspect until a heartbeat reaches it.
  if (auto cb = ProbeNode(index)) {
    cb();
  }
  return index;
}

bool NodeRegistry::Leave(int index) {
  std::lock_guard<std::mutex> lock(mu_);
  if (index < 0 || index >= static_cast<int>(nodes_.size()) ||
      nodes_[static_cast<size_t>(index)]->left) {
    return false;
  }
  nodes_[static_cast<size_t>(index)]->left = true;
  return true;
}

void NodeRegistry::Start() {
  std::lock_guard<std::mutex> lock(probe_mu_);
  if (probing_) {
    return;
  }
  probing_ = true;
  probe_stop_ = false;
  probe_thread_ = std::thread([this] {
    SetThreadName("registry-probe");
    ProbeLoop();
  });
}

void NodeRegistry::Stop() {
  {
    std::lock_guard<std::mutex> lock(probe_mu_);
    if (!probing_) {
      return;
    }
    probe_stop_ = true;
  }
  probe_cv_.notify_all();
  if (probe_thread_.joinable()) {
    probe_thread_.join();
  }
  std::lock_guard<std::mutex> lock(probe_mu_);
  probing_ = false;
}

void NodeRegistry::ProbeLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(probe_mu_);
      if (probe_stop_) {
        return;
      }
    }
    ProbeOnce();
    std::unique_lock<std::mutex> lock(probe_mu_);
    probe_cv_.wait_for(lock, options_.probe_interval,
                       [this] { return probe_stop_; });
    if (probe_stop_) {
      return;
    }
  }
}

void NodeRegistry::ProbeOnce() {
  size_t n;
  {
    std::lock_guard<std::mutex> lock(mu_);
    n = nodes_.size();
  }
  for (size_t i = 0; i < n; ++i) {
    if (auto cb = ProbeNode(static_cast<int>(i))) {
      cb();
    }
  }
}

std::function<void()> NodeRegistry::ProbeNode(int index) {
  FedNode target;
  {
    std::lock_guard<std::mutex> lock(mu_);
    NodeState& state = *nodes_[static_cast<size_t>(index)];
    if (state.left) {
      return nullptr;
    }
    target = state.node;
  }

  // Fresh short-lived connection per probe: a heartbeat must measure the
  // node's frontier end to end (accept, auth, metrics), and a dead node
  // must not wedge a long-lived socket for every later probe.
  net::ClientOptions copts;
  copts.connect_attempts = 1;
  copts.connect_backoff = options_.connect_backoff;
  copts.default_timeout = options_.probe_timeout;
  copts.auth_token = options_.auth_token;
  net::Client client(target.host, target.port, copts);
  std::optional<std::string> metrics;
  if (client.Connect()) {
    metrics = client.QueryMetrics(options_.probe_timeout);
  }

  std::lock_guard<std::mutex> lock(mu_);
  NodeState& state = *nodes_[static_cast<size_t>(index)];
  if (state.left) {
    return nullptr;
  }
  if (metrics.has_value()) {
    ++state.probes_ok;
    state.missed = 0;
    state.last_metrics = *metrics;
    if (state.model == nullptr) {
      LoadProfile(state, *metrics);
    }
    if (state.health != NodeHealth::kAlive) {
      state.health = NodeHealth::kAlive;
      // Revival clears the dispatch breaker too: the failures it counted
      // belong to the outage the probe just ended.
      state.consecutive_dispatch_failures = 0;
      state.circuit_open_until = {};
      if (on_alive_) {
        auto cb = on_alive_;
        return [cb, index] { cb(index); };
      }
    }
    return nullptr;
  }
  ++state.probes_missed;
  ++state.missed;
  if (state.missed >= options_.dead_after &&
      state.health != NodeHealth::kDead) {
    state.health = NodeHealth::kDead;
    if (on_dead_) {
      auto cb = on_dead_;
      return [cb, index] { cb(index); };
    }
  } else if (state.missed >= options_.suspect_after &&
             state.health == NodeHealth::kAlive) {
    state.health = NodeHealth::kSuspect;
  }
  return nullptr;
}

bool NodeRegistry::LoadProfile(NodeState& state, const std::string& json) {
  const size_t obj = json.find("\"latency_model\":{");
  if (obj == std::string::npos) {
    return false;
  }
  const size_t end = json.find('}', obj);
  if (end == std::string::npos) {
    return false;
  }
  double compute_slope = 0.0, compute_intercept = 0.0, compute_r2 = 0.0;
  double load_slope = 0.0, load_intercept = 0.0, load_r2 = 0.0;
  if (!FindNumber(json, obj, end, "compute_slope", &compute_slope) ||
      !FindNumber(json, obj, end, "compute_intercept", &compute_intercept) ||
      !FindNumber(json, obj, end, "load_slope", &load_slope) ||
      !FindNumber(json, obj, end, "load_intercept", &load_intercept)) {
    return false;
  }
  FindNumber(json, obj, end, "compute_r2", &compute_r2);
  FindNumber(json, obj, end, "load_r2", &load_r2);
  double overhead = 0.0, workers = 1.0, max_batch = 4.0;
  FindNumber(json, obj, end, "per_request_overhead_s", &overhead);
  FindNumber(json, obj, end, "workers", &workers);
  FindNumber(json, obj, end, "max_batch", &max_batch);
  const bool node_mask_aware =
      json.find("\"mask_aware\":true", obj) != std::string::npos &&
      json.find("\"mask_aware\":true", obj) < end;
  const bool node_sparse =
      json.find("\"sparse_compute\":true", obj) != std::string::npos &&
      json.find("\"sparse_compute\":true", obj) < end;

  LinearFit compute_fit{compute_slope, compute_intercept, compute_r2};
  LinearFit load_fit{load_slope, load_intercept, load_r2};
  // Rebuild over the node's own compute path: its fitted line's x-axis is
  // gathered-path FLOPs when the node serves sparse_compute, so the local
  // cost model must use the same formulas when pricing requests for it.
  model::TimingConfig timing = options_.timing;
  timing.sparse_compute = node_mask_aware && node_sparse;
  sched::LatencyModel model = sched::LatencyModel::FromFits(
      timing,
      node_mask_aware ? model::ComputeMode::kMaskAwareY
                      : model::ComputeMode::kFull,
      compute_fit, load_fit);
  // Hybrid-resolution profile: the node's primary grid (flat numbers
  // inside latency_model) and its per-resolution whole-step fits (a
  // SEPARATE top-level array — this parser's flat-object scan stops at
  // the first '}', so the gateway never nests objects in latency_model).
  double grid_h = 0.0;
  double grid_w = 0.0;
  if (FindNumber(json, obj, end, "grid_h", &grid_h) &&
      FindNumber(json, obj, end, "grid_w", &grid_w)) {
    model.SetPrimaryGrid(static_cast<int>(grid_h), static_cast<int>(grid_w));
  }
  const size_t fits = json.find("\"resolution_fits\":[");
  if (fits != std::string::npos) {
    const size_t arr_end = json.find(']', fits);
    size_t pos = fits;
    while (arr_end != std::string::npos) {
      const size_t open = json.find('{', pos);
      if (open == std::string::npos || open > arr_end) {
        break;
      }
      const size_t close = json.find('}', open);
      if (close == std::string::npos || close > arr_end) {
        break;
      }
      double res_h = 0.0, res_w = 0.0, slope = 0.0, intercept = 0.0, r2 = 0.0;
      if (FindNumber(json, open, close, "grid_h", &res_h) &&
          FindNumber(json, open, close, "grid_w", &res_w) &&
          FindNumber(json, open, close, "slope", &slope) &&
          FindNumber(json, open, close, "intercept", &intercept)) {
        FindNumber(json, open, close, "r2", &r2);
        model.AddResolutionFit(static_cast<int>(res_h),
                               static_cast<int>(res_w),
                               LinearFit{slope, intercept, r2});
      }
      pos = close + 1;
    }
  }
  state.model = std::make_shared<const sched::LatencyModel>(std::move(model));
  state.sparse_compute = node_mask_aware && node_sparse;
  state.per_request_overhead_s = overhead;
  state.workers = std::max(1, static_cast<int>(workers));
  state.max_batch = std::max(1, static_cast<int>(max_batch));
  return true;
}

size_t NodeRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return nodes_.size();
}

NodeInfo NodeRegistry::Info(int index) const {
  std::lock_guard<std::mutex> lock(mu_);
  const NodeState& state = *nodes_.at(static_cast<size_t>(index));
  NodeInfo info;
  info.node = state.node;
  info.health = state.health;
  info.left = state.left;
  info.circuit_open =
      state.circuit_open_until > std::chrono::steady_clock::now();
  info.routable =
      !state.left && state.health != NodeHealth::kDead && !info.circuit_open;
  info.profile_loaded = state.model != nullptr;
  info.sparse_compute = state.sparse_compute;
  info.workers = state.workers;
  info.max_batch = state.max_batch;
  info.per_request_overhead_s = state.per_request_overhead_s;
  info.probes_ok = state.probes_ok;
  info.probes_missed = state.probes_missed;
  info.dispatched = state.dispatched;
  info.completed = state.completed;
  info.redispatched = state.redispatched;
  info.dispatch_failures = state.dispatch_failures;
  return info;
}

FedNode NodeRegistry::node(int index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return nodes_.at(static_cast<size_t>(index))->node;
}

NodeHealth NodeRegistry::health(int index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return nodes_.at(static_cast<size_t>(index))->health;
}

bool NodeRegistry::Routable(int index) const {
  std::lock_guard<std::mutex> lock(mu_);
  const NodeState& state = *nodes_.at(static_cast<size_t>(index));
  return !state.left && state.health != NodeHealth::kDead &&
         state.circuit_open_until <= std::chrono::steady_clock::now();
}

void NodeRegistry::NoteDispatchFailure(int index) {
  std::lock_guard<std::mutex> lock(mu_);
  NodeState& state = *nodes_.at(static_cast<size_t>(index));
  ++state.dispatch_failures;
  if (++state.consecutive_dispatch_failures >=
      options_.max_consecutive_dispatch_failures) {
    state.circuit_open_until =
        std::chrono::steady_clock::now() + options_.circuit_cooldown;
  }
}

void NodeRegistry::NoteDispatchSuccess(int index) {
  std::lock_guard<std::mutex> lock(mu_);
  NodeState& state = *nodes_.at(static_cast<size_t>(index));
  state.consecutive_dispatch_failures = 0;
  state.circuit_open_until = {};
}

void NodeRegistry::NoteDispatched(int index) {
  std::lock_guard<std::mutex> lock(mu_);
  ++nodes_.at(static_cast<size_t>(index))->dispatched;
}

void NodeRegistry::NoteCompleted(int index) {
  std::lock_guard<std::mutex> lock(mu_);
  ++nodes_.at(static_cast<size_t>(index))->completed;
}

void NodeRegistry::NoteRedispatched(int index) {
  std::lock_guard<std::mutex> lock(mu_);
  ++nodes_.at(static_cast<size_t>(index))->redispatched;
}

std::shared_ptr<const sched::LatencyModel> NodeRegistry::model(
    int index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return nodes_.at(static_cast<size_t>(index))->model;
}

double NodeRegistry::per_request_overhead_s(int index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return nodes_.at(static_cast<size_t>(index))->per_request_overhead_s;
}

int NodeRegistry::capacity(int index) const {
  std::lock_guard<std::mutex> lock(mu_);
  const NodeState& state = *nodes_.at(static_cast<size_t>(index));
  return state.workers * state.max_batch;
}

std::string NodeRegistry::last_metrics_json(int index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return nodes_.at(static_cast<size_t>(index))->last_metrics;
}

std::string NodeRegistry::MembersJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto now = std::chrono::steady_clock::now();
  std::string out = "[";
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const NodeState& state = *nodes_[i];
    if (i > 0) {
      out += ',';
    }
    out += "{\"id\":\"" + state.node.id() + "\"";
    out += ",\"health\":\"" + ToString(state.health) + "\"";
    out += ",\"left\":" + std::string(state.left ? "true" : "false");
    out += ",\"circuit_open\":" +
           std::string(state.circuit_open_until > now ? "true" : "false");
    out += ",\"profile_loaded\":" +
           std::string(state.model != nullptr ? "true" : "false");
    out += ",\"probes_ok\":" + std::to_string(state.probes_ok);
    out += ",\"probes_missed\":" + std::to_string(state.probes_missed);
    out += ",\"dispatched\":" + std::to_string(state.dispatched);
    out += ",\"completed\":" + std::to_string(state.completed);
    out += ",\"redispatched\":" + std::to_string(state.redispatched);
    out += ",\"dispatch_failures\":" + std::to_string(state.dispatch_failures);
    // The node's own last probed MetricsJson, spliced verbatim — one
    // rollup query reports the whole fleet's serving + cache counters.
    out += ",\"metrics\":" +
           (state.last_metrics.empty() ? std::string("null")
                                       : state.last_metrics);
    out += "}";
  }
  out += "]";
  return out;
}

}  // namespace flashps::fed
