#include "serve/batcher.hpp"

#include <cstddef>

#include "util/assert.hpp"

namespace drift::serve {

void AdmissionQueue::push(const QueuedRequest& request) {
  DRIFT_CHECK(queue_.empty() || queue_.back().arrival <= request.arrival,
              "admission queue requires arrival-ordered pushes");
  queue_.push_back(request);
}

std::vector<QueuedRequest> AdmissionQueue::pop_batch(std::int64_t now,
                                                     std::int64_t max_batch) {
  DRIFT_CHECK(!queue_.empty(), "pop_batch on an empty queue");
  DRIFT_CHECK(max_batch >= 1, "batch cap must be at least 1");
  const int tenant = queue_.front().tenant;
  const auto member = [&](const QueuedRequest& r) {
    return r.tenant == tenant && r.arrival <= now;
  };
  // Scan the eligible prefix: stop after the first entry that has not
  // arrived by `now` or once the batch is full.  Inside the scanned
  // prefix every arrived same-tenant entry is therefore a member.
  std::vector<QueuedRequest> batch;
  std::size_t scanned = 0;
  while (scanned < queue_.size()) {
    const QueuedRequest& r = queue_[scanned++];
    if (member(r)) batch.push_back(r);
    if (r.arrival > now ||
        static_cast<std::int64_t>(batch.size()) == max_batch) {
      break;
    }
  }
  // Close the gaps in place: slide the prefix's non-members back over
  // the members, keeping their order, then drop the freed front slots.
  std::size_t write = scanned;
  for (std::size_t read = scanned; read-- > 0;) {
    if (!member(queue_[read])) queue_[--write] = queue_[read];
  }
  queue_.erase(queue_.begin(),
               queue_.begin() + static_cast<std::ptrdiff_t>(write));
  return batch;
}

}  // namespace drift::serve
