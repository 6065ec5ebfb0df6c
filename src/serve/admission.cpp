#include "serve/admission.h"

namespace nesgx::serve {

Status
AdmissionController::submit(TenantId tenant, Bytes sealed)
{
    std::lock_guard<std::mutex> g(m_);
    std::deque<Request>& queue = queues_[tenant];
    if (queue.size() >= config_.maxQueueDepth) {
        ++rejected_;
        return Err::Backpressure;
    }
    Request req;
    req.id = nextId_++;
    req.tenant = tenant;
    req.enqueuedAt = machine_->clock().cycles();
    if (config_.deadlineCycles > 0) {
        req.deadline = req.enqueuedAt + config_.deadlineCycles;
    }
    req.sealed = std::move(sealed);
    queue.push_back(std::move(req));
    machine_->trace().publishLight(trace::EventKind::ServeEnqueue,
                                   trace::kNoCore, 0, tenant, queue.size());
    return Status::ok();
}

std::vector<Request>
AdmissionController::takeBatch(TenantId tenant, std::size_t max,
                               std::vector<Request>* shedOut)
{
    std::vector<Request> out;
    std::lock_guard<std::mutex> g(m_);
    auto it = queues_.find(tenant);
    if (it == queues_.end()) return out;
    std::deque<Request>& queue = it->second;
    const std::uint64_t now = machine_->clock().cycles();

    while (!queue.empty() && out.size() < max) {
        Request& head = queue.front();
        if (head.deadline != 0 && now > head.deadline) {
            // One event per shed request (arg1 = 1 keeps the counter
            // fold additive), and the request itself goes back to the
            // caller for a typed Err::Deadline completion — a batch
            // whose every entry expired must not vanish silently.
            ++shed_;
            machine_->trace().publishLight(trace::EventKind::ServeShed,
                                           trace::kNoCore, 0, tenant, 1);
            if (shedOut) shedOut->push_back(std::move(head));
        } else {
            out.push_back(std::move(head));
        }
        queue.pop_front();
    }
    return out;
}

std::vector<Request>
AdmissionController::purge(TenantId tenant)
{
    std::vector<Request> out;
    std::lock_guard<std::mutex> g(m_);
    auto it = queues_.find(tenant);
    if (it == queues_.end()) return out;
    out.reserve(it->second.size());
    for (Request& r : it->second) out.push_back(std::move(r));
    it->second.clear();
    return out;
}

std::size_t
AdmissionController::depth(TenantId tenant) const
{
    std::lock_guard<std::mutex> g(m_);
    auto it = queues_.find(tenant);
    return it == queues_.end() ? 0 : it->second.size();
}

std::size_t
AdmissionController::totalQueued() const
{
    std::lock_guard<std::mutex> g(m_);
    std::size_t total = 0;
    for (const auto& [id, queue] : queues_) total += queue.size();
    return total;
}

}  // namespace nesgx::serve
