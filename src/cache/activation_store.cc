#include "src/cache/activation_store.h"

#include <sstream>

namespace flashps::cache {

std::shared_ptr<const model::ActivationRecord> ActivationStore::Acquire(
    const model::DiffusionModel& m, int template_id, bool record_kv) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      auto it = records_.find(template_id);
      if (it != records_.end() && (!record_kv || it->second->has_kv())) {
        ++local_hits_;
        return it->second;
      }
      if (!registering_.contains(template_id)) {
        break;
      }
      // One registration per template at a time; the one in flight may
      // already be what this caller needs.
      registered_.wait(lock);
    }
    registering_.insert(template_id);
  }
  auto record = std::make_shared<model::ActivationRecord>(
      m.Register(template_id, record_kv));
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++registrations_;
    records_[template_id] = record;
    registering_.erase(template_id);
  }
  registered_.notify_all();
  return record;
}

const model::ActivationRecord& ActivationStore::GetOrRegister(
    const model::DiffusionModel& m, int template_id, bool record_kv) {
  // The map retains its own reference, so the returned alias stays valid
  // for the store's lifetime (this store never evicts).
  return *Acquire(m, template_id, record_kv);
}

size_t ActivationStore::TotalBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const auto& [id, record] : records_) {
    total += record->TotalBytes();
  }
  return total;
}

std::string ActivationStore::MetricsJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\"kind\":\"local\",\"registrations\":" << registrations_
     << ",\"local_hits\":" << local_hits_
     << ",\"templates\":" << records_.size() << "}";
  return os.str();
}

}  // namespace flashps::cache
