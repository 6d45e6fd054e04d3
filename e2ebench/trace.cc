#include "trace.h"

#include <sys/resource.h>

#include <cstring>
#include <stdexcept>

namespace e2e {

namespace {

/// Spans the library opens itself around the functions the benchmark calls
/// directly; the benchmark adds no span of its own around these.
constexpr const char* kLibrarySpans[] = {
    "plan_cut_retiming", "verify_result", "measure_coverage", "analyze_circuit",
    "check_retiming_equivalence", "prove_cut_coverage"};

bool library_spans(const char* name) {
  for (const char* s : kLibrarySpans) {
    if (std::strcmp(s, name) == 0) return true;
  }
  return false;
}

std::size_t index(Layer layer) { return static_cast<std::size_t>(layer); }

}  // namespace

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

const char* layer_name(Layer layer) {
  constexpr const char* kNames[] = {"graph", "netlist", "flow",   "partition", "retiming",
                                    "sim",   "analyze", "sat",    "verify",    "core"};
  return kNames[index(layer)];
}

Tracer::CallScope::CallScope(Tracer& tracer, Layer layer, const char* span)
    : tracer_(tracer), layer_(layer), start_(merced::obs::alloc_stats()) {
  const auto [it, inserted] = tracer_.span_layer_.emplace(span, layer);
  if (!inserted && it->second != layer) {
    throw std::logic_error(std::string("span ") + span + " is used by two layers");
  }
  if (!library_spans(span)) own_span_.emplace(span);
}

Tracer::CallScope::~CallScope() {
  own_span_.reset();
  // The main thread waits inside the call, so everything allocated
  // meanwhile, on any thread, belongs to it.
  const merced::obs::AllocStats end = merced::obs::alloc_stats();
  LayerTotals& t = tracer_.totals_[index(layer_)];
  t.allocs += end.allocations - start_.allocations;
  t.alloc_bytes += end.bytes_allocated - start_.bytes_allocated;
}

double Tracer::counter(const std::string& name) const {
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0.0 : it->second;
}

void Tracer::finish() {
  events_ = merced::obs::span_events();
  // Steps run on the main thread only; its obs thread id is theirs.
  std::optional<std::uint32_t> main_tid;
  for (const merced::obs::SpanEvent& e : events_) {
    if (e.depth == 0 && step_names_.count(e.name)) main_tid = e.tid;
  }
  for (const merced::obs::SpanEvent& e : events_) {
    if (e.tid != main_tid || e.depth != 1) continue;
    const auto it = span_layer_.find(e.name);
    if (it == span_layer_.end()) {
      throw std::logic_error(std::string("span ") + e.name + " is not a layer call");
    }
    totals_[index(it->second)].seconds += static_cast<double>(e.dur_ns) * 1e-9;
  }
}

Tracer::LayerTotals Tracer::layer_totals(Layer layer) const { return totals_[index(layer)]; }

double Tracer::layer_call_seconds() const {
  double s = 0;
  for (const LayerTotals& t : totals_) s += t.seconds;
  return s;
}

double Tracer::span_seconds(const char* name) const {
  std::int64_t ns = 0;
  for (const merced::obs::SpanEvent& e : events_) {
    if (std::strcmp(e.name, name) == 0) ns += e.dur_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

}  // namespace e2e
