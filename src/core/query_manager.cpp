#include "core/query_manager.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "simgpu/checker.hpp"

namespace algas::core {

namespace {
constexpr const char* kQueueKey = "query-manager";

std::size_t clamp_class(std::uint8_t priority) {
  return std::min<std::size_t>(priority, kPriorityClasses - 1);
}
}  // namespace

std::vector<PendingQuery> closed_loop_arrivals(std::size_t num_queries) {
  std::vector<PendingQuery> arrivals;
  arrivals.reserve(num_queries);
  for (std::size_t i = 0; i < num_queries; ++i) arrivals.push_back({i, 0.0});
  return arrivals;
}

const char* shed_policy_name(ShedPolicy p) {
  switch (p) {
    case ShedPolicy::kRejectNew: return "reject-new";
    case ShedPolicy::kDropOldest: return "drop-oldest";
  }
  return "invalid";
}

void QueryManager::push(PendingQuery q) {
  if (q.arrival_ns < last_arrival_) {
    if (check_) {
      std::ostringstream msg;
      msg << "query " << q.query_index << " pushed with arrival t="
          << q.arrival_ns << "ns after a query already arrived at t="
          << last_arrival_ << "ns (arrivals must be nondecreasing)";
      check_->fail("arrival-order", kQueueKey, q.arrival_ns, msg.str());
    }
    throw std::invalid_argument("arrivals must be nondecreasing");
  }
  if (check_) {
    check_->count_check();
    std::ostringstream what;
    what << "push q" << q.query_index << " arrival=" << q.arrival_ns << "ns";
    check_->record(kQueueKey, q.arrival_ns, what.str());
  }
  last_arrival_ = q.arrival_ns;
  // Clamp the stored field, not just the class index, so records downstream
  // (collector, shed accounting) report the class the query actually rode.
  q.priority = static_cast<std::uint8_t>(clamp_class(q.priority));
  classes_[q.priority].push_back(q);
  ++size_;
  ++total_;
}

std::optional<PendingQuery> QueryManager::admit(PendingQuery q,
                                                const AdmissionConfig& adm) {
  if (size_ < adm.capacity) {
    push(q);
    return std::nullopt;
  }
  if (adm.policy == ShedPolicy::kDropOldest) {
    // Victim: the oldest entry of the lowest nonempty class at or below the
    // newcomer's class — dropping stale work of equal-or-lower urgency to
    // admit fresh work. A queue full of strictly higher classes protects
    // itself: the newcomer is rejected instead.
    const std::size_t newcomer = clamp_class(q.priority);
    for (std::size_t cls = 0; cls <= newcomer; ++cls) {
      if (classes_[cls].empty()) continue;
      PendingQuery victim = classes_[cls].front();
      classes_[cls].pop_front();
      --size_;
      if (check_) {
        check_->count_check();
        std::ostringstream what;
        what << "shed q" << victim.query_index << " (drop-oldest, class "
             << cls << ") for q" << q.query_index;
        check_->record(kQueueKey, q.arrival_ns, what.str());
      }
      push(q);
      return victim;
    }
  }
  if (check_) {
    check_->count_check();
    std::ostringstream what;
    what << "shed q" << q.query_index << " (queue full at " << size_ << ")";
    check_->record(kQueueKey, q.arrival_ns, what.str());
  }
  return q;
}

std::optional<PendingQuery> QueryManager::pop_ready(SimTime now) {
  // Highest class whose oldest entry has arrived wins; pushes are globally
  // nondecreasing in arrival time, so a class front is that class's
  // earliest arrival and this scan cannot skip an arrived query.
  for (std::size_t cls = kPriorityClasses; cls-- > 0;) {
    auto& fifo = classes_[cls];
    if (fifo.empty() || fifo.front().arrival_ns > now) continue;
    PendingQuery q = fifo.front();
    fifo.pop_front();
    --size_;
    if (check_) {
      check_->count_check();
      if (q.arrival_ns > now) {
        std::ostringstream msg;
        msg << "pop_ready returned query " << q.query_index
            << " before its arrival (arrival t=" << q.arrival_ns
            << "ns, popped at t=" << now << "ns)";
        check_->fail("arrival-order", kQueueKey, now, msg.str());
      }
      std::ostringstream what;
      what << "pop q" << q.query_index << " at t=" << now << "ns";
      check_->record(kQueueKey, now, what.str());
    }
    return q;
  }
  return std::nullopt;
}

SimTime QueryManager::next_arrival() const {
  SimTime earliest = std::numeric_limits<SimTime>::infinity();
  for (const auto& fifo : classes_) {
    if (!fifo.empty()) earliest = std::min(earliest, fifo.front().arrival_ns);
  }
  return earliest;
}

}  // namespace algas::core
