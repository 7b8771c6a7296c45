#include "src/fed/fed_gateway.h"

#include <algorithm>
#include <utility>

#include "src/common/thread_name.h"

namespace flashps::fed {

namespace {

// An accepted submit's reply slot. The promise is always fulfilled with a
// value (node reply, or a synthesized failure status), never an
// exception, so Take() honors WireCompletion's no-throw contract. It is
// set before the ticket's notify_ready runs, so the future is ready by
// the time the server checks.
class FedCompletion : public net::WireCompletion {
 public:
  explicit FedCompletion(std::future<net::WireResponse> future)
      : future_(std::move(future)) {}

  bool Ready() override {
    return future_.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
  }

  net::WireResponse Take() override { return future_.get(); }

 private:
  std::future<net::WireResponse> future_;
};

NodeRegistryOptions MakeRegistryOptions(const FedGatewayOptions& options) {
  NodeRegistryOptions r = options.registry;
  if (r.auth_token.empty()) {
    r.auth_token = options.auth_token;
  }
  r.timing = options.timing;
  r.mask_aware = options.mask_aware;
  return r;
}

}  // namespace

FedGateway::FedGateway(FedGatewayOptions options)
    : options_(std::move(options)),
      registry_(MakeRegistryOptions(options_)),
      router_(options_.policy, options_.timing,
              options_.mask_aware ? model::ComputeMode::kMaskAwareY
                                  : model::ComputeMode::kFull,
              options_.default_overhead_s) {}

FedGateway::~FedGateway() { Stop(); }

int FedGateway::max_attempts() const {
  if (options_.max_attempts > 0) {
    return options_.max_attempts;
  }
  return 3 * std::max<int>(1, static_cast<int>(options_.nodes.size()));
}

void FedGateway::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  registry_.SetOnDead([this](int node) { OnNodeDead(node); });
  registry_.SetOnAlive([this](int node) { OnNodeAlive(node); });
  for (const FedNode& node : options_.nodes) {
    registry_.Join(node);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queues_.resize(registry_.size());
    inflight_.resize(registry_.size());
    queue_cv_ = std::vector<std::condition_variable>(registry_.size());
  }
  registry_.Start();
  const int conns = std::max(1, options_.connections_per_node);
  for (size_t i = 0; i < registry_.size(); ++i) {
    for (int c = 0; c < conns; ++c) {
      dispatchers_.emplace_back([this, i] {
        SetThreadName("fed-dispatch");
        DispatcherLoop(static_cast<int>(i));
      });
    }
  }
}

void FedGateway::StopAccepting() {
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = true;
}

bool FedGateway::Drain(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  return drained_cv_.wait_for(lock, timeout, [this] {
    if (!parked_.empty()) {
      return false;
    }
    for (const auto& q : queues_) {
      if (!q.empty()) {
        return false;
      }
    }
    for (const auto& m : inflight_) {
      if (!m.empty()) {
        return false;
      }
    }
    return true;
  });
}

void FedGateway::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
  }
  for (std::condition_variable& cv : queue_cv_) {
    cv.notify_all();
  }
  for (std::thread& t : dispatchers_) {
    if (t.joinable()) {
      t.join();
    }
  }
  dispatchers_.clear();
  registry_.Stop();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& q : queues_) {
      for (const TicketPtr& ticket : q) {
        FailTicketLocked(ticket);
      }
      q.clear();
    }
    for (const TicketPtr& ticket : parked_) {
      FailTicketLocked(ticket);
    }
    parked_.clear();
  }
  drained_cv_.notify_all();
}

net::WireSubmission FedGateway::Submit(net::WireRequest request) {
  auto ticket = std::make_shared<Ticket>();
  ticket->mask_ratio = request.request.mask.ratio();
  ticket->grid_h = request.request.mask.grid_h;
  ticket->grid_w = request.request.mask.grid_w;
  ticket->denoise_steps = request.denoise_steps;
  std::future<net::WireResponse> future;
  int node = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_ || draining_) {
      return net::WireSubmission{};  // kRejectedShutdown, no completion.
    }
    ticket->id = next_id_++;
    ticket->request = std::move(request);
    future = ticket->promise.get_future();
    ++submitted_;
    node = RouteTicketLocked(ticket, /*exclude=*/-1);
  }
  net::WireSubmission sub;
  sub.status = gateway::SubmitStatus::kAccepted;
  sub.worker_id = node;  // -1 while parked; the reply carries the truth.
  sub.completion = std::make_unique<FedCompletion>(std::move(future));
  return sub;
}

std::vector<NodeSnapshot> FedGateway::SnapshotLocked(int exclude) const {
  std::vector<NodeSnapshot> out(queues_.size());
  for (size_t i = 0; i < queues_.size(); ++i) {
    const int index = static_cast<int>(i);
    NodeSnapshot& snap = out[i];
    snap.node = index;
    snap.routable = index != exclude && registry_.Routable(index);
    snap.capacity = registry_.capacity(index);
    snap.model = registry_.model(index);
    snap.per_request_overhead_s = registry_.per_request_overhead_s(index);
    // Outstanding ratios are token-scaled against the node's profiled
    // primary grid, so mixed-resolution backlogs are priced comparably
    // (TokenScale is 1.0 without a profile or for primary-grid tickets).
    const auto effective_ratio = [&snap](const TicketPtr& t) {
      return snap.model == nullptr
                 ? t->mask_ratio
                 : t->mask_ratio * snap.model->TokenScale(t->grid_h, t->grid_w);
    };
    for (const TicketPtr& t : queues_[i]) {
      snap.outstanding_ratios.push_back(effective_ratio(t));
      snap.outstanding_steps.push_back(t->denoise_steps);
    }
    for (const auto& [id, t] : inflight_[i]) {
      (void)id;
      snap.outstanding_ratios.push_back(effective_ratio(t));
      snap.outstanding_steps.push_back(t->denoise_steps);
    }
  }
  return out;
}

int FedGateway::RouteTicketLocked(const TicketPtr& ticket, int exclude) {
  trace::Request request;
  request.id = ticket->id;
  request.template_id = ticket->request.request.template_id;
  request.mask_ratio = ticket->mask_ratio;
  request.grid_h = ticket->grid_h;
  request.grid_w = ticket->grid_w;
  request.denoise_steps = ticket->denoise_steps;
  const int node = router_.Route(request, SnapshotLocked(exclude));
  if (node < 0) {
    ticket->node = -1;
    parked_.push_back(ticket);
    return -1;
  }
  ticket->node = node;
  queues_[static_cast<size_t>(node)].push_back(ticket);
  queue_cv_[static_cast<size_t>(node)].notify_one();
  registry_.NoteDispatched(node);
  return node;
}

void FedGateway::FailTicketLocked(const TicketPtr& ticket) {
  net::WireResponse response;
  response.status =
      static_cast<uint8_t>(gateway::SubmitStatus::kRejectedShutdown);
  response.worker_id = -1;
  ++failed_;
  Resolve(ticket, response);
}

void FedGateway::Resolve(const TicketPtr& ticket,
                         const net::WireResponse& response) {
  ticket->promise.set_value(response);
  if (ticket->request.notify_ready) {
    ticket->request.notify_ready();
  }
  drained_cv_.notify_all();
}

void FedGateway::DispatcherLoop(int node) {
  const FedNode target = registry_.node(node);
  net::ClientOptions copts;
  copts.connect_attempts = 1;
  copts.connect_backoff = options_.registry.connect_backoff;
  copts.default_timeout = options_.call_timeout;
  copts.auth_token = options_.auth_token;
  net::Client client(target.host, target.port, copts);

  for (;;) {
    TicketPtr ticket;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_[static_cast<size_t>(node)].wait(lock, [&] {
        return stopped_ || !queues_[static_cast<size_t>(node)].empty();
      });
      if (stopped_) {
        return;  // Leftover queued tickets are failed by Stop().
      }
      ticket = queues_[static_cast<size_t>(node)].front();
      queues_[static_cast<size_t>(node)].pop_front();
      inflight_[static_cast<size_t>(node)][ticket->id] = ticket;
    }

    std::optional<net::WireResponse> reply;
    if (client.connected() || client.Connect()) {
      reply = client.Call(ticket->request, options_.call_timeout);
    }
    if (!reply.has_value() ||
        reply->status == static_cast<uint8_t>(
                             gateway::SubmitStatus::kRejectedShutdown)) {
      // Transport failure (connect refused, call timeout, or the node
      // died mid-call), or a node that is draining and turned the submit
      // away. Fail the ticket over to a sibling; determinism makes the
      // re-run bitwise identical, so the client never sees it.
      registry_.NoteDispatchFailure(node);
      {
        std::lock_guard<std::mutex> lock(mu_);
        inflight_[static_cast<size_t>(node)].erase(ticket->id);
        if (++ticket->attempts >= max_attempts()) {
          FailTicketLocked(ticket);
        } else {
          ++redispatched_;
          registry_.NoteRedispatched(node);
          RouteTicketLocked(ticket, /*exclude=*/node);
        }
      }
      continue;
    }

    registry_.NoteDispatchSuccess(node);
    const bool accepted =
        reply->status == static_cast<uint8_t>(gateway::SubmitStatus::kAccepted);
    if (accepted) {
      registry_.NoteCompleted(node);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      inflight_[static_cast<size_t>(node)].erase(ticket->id);
      net::WireResponse response = *reply;
      response.worker_id = node;  // Surface which NODE served it.
      if (accepted) {
        ++completed_;
      } else {
        ++rejected_by_node_;
      }
      Resolve(ticket, response);
    }
  }
}

void FedGateway::OnNodeDead(int node) {
  std::lock_guard<std::mutex> lock(mu_);
  if (node < 0 || node >= static_cast<int>(queues_.size())) {
    return;
  }
  // Re-route the dead node's whole queue at once. Its in-flight calls
  // resolve through their dispatchers' transport failures.
  std::deque<TicketPtr> orphans;
  orphans.swap(queues_[static_cast<size_t>(node)]);
  for (const TicketPtr& ticket : orphans) {
    ++redispatched_;
    registry_.NoteRedispatched(node);
    RouteTicketLocked(ticket, /*exclude=*/node);
  }
}

void FedGateway::OnNodeAlive(int node) {
  (void)node;
  std::lock_guard<std::mutex> lock(mu_);
  // Flush the parked queue; anything still unroutable parks again
  // (swap first, so a re-park cannot loop).
  std::deque<TicketPtr> parked;
  parked.swap(parked_);
  for (const TicketPtr& ticket : parked) {
    RouteTicketLocked(ticket, /*exclude=*/-1);
  }
}

FedGateway::Stats FedGateway::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.submitted = submitted_;
  s.completed = completed_;
  s.failed = failed_;
  s.redispatched = redispatched_;
  s.rejected_by_node = rejected_by_node_;
  s.parked = parked_.size();
  for (const auto& q : queues_) {
    s.outstanding += q.size();
  }
  for (const auto& m : inflight_) {
    s.outstanding += m.size();
  }
  return s;
}

std::string FedGateway::MetricsJson() {
  const Stats s = stats();
  std::string json = "{\"fed\":{";
  json += "\"nodes\":" + std::to_string(registry_.size());
  json += ",\"policy\":\"" + sched::ToString(options_.policy) + "\"";
  json += ",\"submitted\":" + std::to_string(s.submitted);
  json += ",\"completed\":" + std::to_string(s.completed);
  json += ",\"failed\":" + std::to_string(s.failed);
  json += ",\"redispatched\":" + std::to_string(s.redispatched);
  json += ",\"rejected_by_node\":" + std::to_string(s.rejected_by_node);
  json += ",\"parked\":" + std::to_string(s.parked);
  json += ",\"outstanding\":" + std::to_string(s.outstanding);
  json += "},\"members\":" + registry_.MembersJson() + "}";
  return json;
}

}  // namespace flashps::fed
