#include "workloads.h"

#include "host.h"
#include "trace.h"

namespace perfbench {

OpClock::OpClock(bool traced, std::uint64_t op_id, bool whole_process)
    : traced_(traced),
      whole_process_(whole_process),
      start_ns_(now_ns()),
      cpu_start_ns_(cpu_ns(whole_process)) {
  if (traced_) {
    Tracer::instance().set_op(op_id);
    Tracer::instance().open(Layer::kOp, start_ns_);
  }
}

void OpClock::stop() {
  if (!running_) return;
  running_ = false;
  cpu_end_ns_ = cpu_ns(whole_process_);
  end_ns_ = now_ns();
  if (traced_) Tracer::instance().close(end_ns_);
}

double OpClock::seconds() const {
  return 1e-9 * static_cast<double>((running_ ? now_ns() : end_ns_) - start_ns_);
}

double OpClock::cpu_seconds() const {
  return 1e-9 * static_cast<double>(cpu_end_ns_ - cpu_start_ns_);
}

const std::vector<WorkloadEntry>& workloads() {
  static const std::vector<WorkloadEntry> all = {
      {"inject_sweep", make_inject_sweep, 0x40dcf0140b8d77e5ULL},
      {"deskew", make_deskew, 0x719ec3f19d53f33cULL},
      {"eye_stream", make_eye_stream, 0xf77d2f8f187cc986ULL},
      {"mc_campaign", make_mc_campaign, 0x5cd192de147fab3aULL},
  };
  return all;
}

const WorkloadEntry* find_workload(const std::string& name) {
  for (const WorkloadEntry& w : workloads())
    if (name == w.name) return &w;
  return nullptr;
}

}  // namespace perfbench
