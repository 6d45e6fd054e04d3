// Per-layer bookkeeping for the traced replay, built on the library's
// observability layer (obs/obs.h).
//
// A traced step turns the obs collector on, so the library's own spans
// (saturate_network, make_group, assign_cbit, plan_cut_retiming,
// verify_result, measure_coverage, analyze_circuit, prove_cut_coverage,
// cross_check_untestable, check_retiming_equivalence) and counters are
// recorded. The benchmark adds only what the library does not give:
//
//   * a root span per step (one operation, or one prepare);
//   * an obs span named "<layer>.<call>" around each layer call that has no
//     library span of its own (CircuitGraph, find_sccs, RetimeGraph,
//     PpetSession, make_certificate, ...);
//   * the allocations made during each layer call (allocation hook);
//   * counts that no obs counter holds (nets, clusters, faults, bytes);
//   * an untraced twin of every step, for the tracing overhead.
//
// A layer call is a span directly under a step on the main thread; a
// layer's time is the sum of its calls. A disabled tracer runs everything
// once, untraced, at the cost of one branch per call.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "obs/resource.h"

namespace e2e {

/// Process user+system CPU seconds (all threads).
double process_cpu_seconds();

/// The src/ modules the benchmark calls into.
enum class Layer : std::uint8_t {
  kGraph, kNetlist, kFlow, kPartition, kRetiming, kSim, kAnalyze, kSat, kVerify, kCore, kCount
};
const char* layer_name(Layer layer);

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }
  /// True inside the traced half of a step: compiles go through the replay
  /// and layer calls are recorded.
  bool active() const noexcept { return enabled_ && merced::obs::enabled(); }

  /// Runs the step fn(), which returns whether it succeeded. With tracing
  /// on, fn runs twice: untraced (obs off, as the untraced driver runs it)
  /// and traced, under a root span `name`. Their wall times feed the
  /// overhead. The halves swap order from one step to the next, so neither
  /// gains on average from running second on warm caches. The result is
  /// true only if both halves succeeded.
  template <typename Fn>
  bool step(const char* name, Fn&& fn) {
    if (!enabled_) return fn();
    step_names_.emplace(name);
    auto untraced = [&] {
      const auto t0 = std::chrono::steady_clock::now();
      const bool ok = fn();
      untraced_s_ += seconds_since(t0);
      return ok;
    };
    auto traced = [&] {
      const auto t0 = std::chrono::steady_clock::now();
      bool ok = false;
      {
        const Collecting collecting;
        const merced::obs::Span span(name);
        ok = fn();
      }
      traced_s_ += seconds_since(t0);
      return ok;
    };
    const bool untraced_first = steps_++ % 2 == 0;
    const bool first_ok = untraced_first ? untraced() : traced();
    const bool second_ok = untraced_first ? traced() : untraced();
    return first_ok && second_ok;
  }

  /// Runs fn() as one call into `layer`, recorded under the span `span`.
  /// The benchmark opens that span itself unless the library already opens
  /// one of that name around the call.
  template <typename Fn>
  decltype(auto) call(Layer layer, const char* span, Fn&& fn) {
    if (!active()) return fn();
    const CallScope scope(*this, layer, span);
    return fn();
  }

  /// Adds to a count no obs counter holds. Recorded only while active().
  void count(const std::string& name, double value) {
    if (active()) counts_[name] += value;
  }
  double counter(const std::string& name) const;

  struct LayerTotals {
    double seconds = 0;
    std::uint64_t allocs = 0;
    std::uint64_t alloc_bytes = 0;
  };
  /// Reads the recorded spans; call once, after the last step.
  void finish();
  LayerTotals layer_totals(Layer layer) const;
  /// Σ durations of the layer calls of every layer.
  double layer_call_seconds() const;
  /// Σ durations of every span called `name`, on any thread and at any
  /// depth. Spans from pool workers add up thread time, not wall time.
  double span_seconds(const char* name) const;
  double traced_seconds() const noexcept { return traced_s_; }
  double untraced_seconds() const noexcept { return untraced_s_; }

 private:
  struct Collecting {
    Collecting() { merced::obs::enable(); }
    ~Collecting() { merced::obs::disable(); }
  };
  class CallScope {
   public:
    CallScope(Tracer& tracer, Layer layer, const char* span);
    ~CallScope();

   private:
    Tracer& tracer_;
    Layer layer_;
    merced::obs::AllocStats start_;
    std::optional<merced::obs::Span> own_span_;
  };

  static double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  }

  bool enabled_;
  std::size_t steps_ = 0;
  double traced_s_ = 0;
  double untraced_s_ = 0;
  std::map<std::string, Layer> span_layer_;  ///< span name -> layer of its calls
  std::set<std::string> step_names_;
  std::map<std::string, double> counts_;
  LayerTotals totals_[static_cast<std::size_t>(Layer::kCount)];
  std::vector<merced::obs::SpanEvent> events_;
};

}  // namespace e2e
