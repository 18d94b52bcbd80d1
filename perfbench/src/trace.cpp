#include "trace.h"

#include <cstdio>

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kOp: return "op";
    case Layer::kSignalStream: return "signal.stream";
    case Layer::kJitterInjector: return "core.jitter_injector";
    case Layer::kCoarseDelay: return "core.coarse_delay";
    case Layer::kFineDelay: return "core.fine_delay";
    case Layer::kPipeline: return "core.pipeline";
    case Layer::kCalibration: return "core.calibration";
    case Layer::kDeskewPlan: return "core.deskew";
    case Layer::kMeasureJitter: return "measure.jitter";
    case Layer::kMeasureEye: return "measure.eye";
    case Layer::kMeasureHistogram: return "measure.histogram";
    case Layer::kAteCdr: return "ate.cdr";
    case Layer::kAteController: return "ate.controller";
    case Layer::kCampaignRun: return "campaign.run";
    case Layer::kCampaignStop: return "campaign.stop";
    case Layer::kCampaignResume: return "campaign.resume";
    case Layer::kCampaignUnit: return "campaign.unit";
    case Layer::kCount: break;
  }
  return "?";
}

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

Tracer::ThreadState& Tracer::local() {
  thread_local ThreadState* state = nullptr;
  thread_local std::uint64_t state_generation = 0;
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  if (!state || state_generation != gen) {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(std::make_unique<ThreadState>());
    state = threads_.back().get();
    state->id = static_cast<std::uint32_t>(threads_.size() - 1);
    state_generation = gen;
  }
  return *state;
}

void Tracer::set_op(std::uint64_t op) { local().op = op; }

void Tracer::open(Layer layer, std::int64_t t_ns) {
  ThreadState& ts = local();
  std::int32_t record = -1;
  if (records_kept_.fetch_add(1, std::memory_order_relaxed) < record_limit_)
    record = static_cast<std::int32_t>(ts.records.size());
  if (record >= 0) {
    Span s;
    s.layer = layer;
    s.parent = ts.stack.empty() ? -1 : ts.stack.back().record;
    s.thread = ts.id;
    s.op = ts.op;
    s.start_ns = t_ns;
    ts.records.push_back(s);
  } else {
    ++ts.dropped;
  }
  ts.stack.push_back(Open{layer, t_ns, 0, record});
}

void Tracer::close(std::int64_t t_ns, std::uint64_t samples) {
  ThreadState& ts = local();
  const Open o = ts.stack.back();
  ts.stack.pop_back();
  const std::int64_t d = t_ns - o.start_ns;
  LayerTotals& lt = ts.totals[static_cast<std::size_t>(o.layer)];
  lt.busy_ns += d;
  lt.self_ns += d - o.child_ns;
  ++lt.spans;
  lt.samples += samples;
  if (!ts.stack.empty()) ts.stack.back().child_ns += d;
  if (o.record >= 0) ts.records[static_cast<std::size_t>(o.record)].end_ns = t_ns;
}

void Tracer::add_detached(Layer layer, std::int64_t ns, std::uint64_t samples) {
  LayerTotals& lt = local().totals[static_cast<std::size_t>(layer)];
  lt.busy_ns += ns;
  lt.self_ns += ns;
  ++lt.spans;
  lt.samples += samples;
}

Totals Tracer::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  Totals sum{};
  for (const auto& ts : threads_)
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      sum[l].busy_ns += ts->totals[l].busy_ns;
      sum[l].self_ns += ts->totals[l].self_ns;
      sum[l].spans += ts->totals[l].spans;
      sum[l].samples += ts->totals[l].samples;
    }
  return sum;
}

std::size_t Tracer::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& ts : threads_) n += ts->records.size();
  return n;
}

std::size_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& ts : threads_) n += ts->dropped;
  return n;
}

bool Tracer::write_spans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "thread,index,parent,op,layer,start_ns,end_ns\n");
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& ts : threads_)
    for (std::size_t i = 0; i < ts->records.size(); ++i) {
      const Span& s = ts->records[i];
      std::fprintf(f, "%u,%zu,%d,%llu,%s,%lld,%lld\n", s.thread, i, s.parent,
                   static_cast<unsigned long long>(s.op), layer_name(s.layer),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  return std::fclose(f) == 0;
}

void Tracer::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  threads_.clear();
  records_kept_.store(0, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
}

std::vector<Span> Tracer::thread_records() { return local().records; }

std::size_t TimedSource::read(double* dst, std::size_t max_n) {
  ScopedSpan span(Layer::kSignalStream);
  const std::size_t n = src_->read(dst, max_n);
  span.set_samples(n);
  return n;
}

void TimedSink::begin(double t0_ps, double dt_ps, std::size_t total_n) {
  ScopedSpan span(layer_);
  sink_->begin(t0_ps, dt_ps, total_n);
}

void TimedSink::consume(const double* samples, std::size_t n) {
  ScopedSpan span(layer_, n);
  sink_->consume(samples, n);
}

void TimedSink::finish() {
  ScopedSpan span(layer_);
  sink_->finish();
}

}  // namespace perfbench
