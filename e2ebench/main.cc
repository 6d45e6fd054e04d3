// merced_e2e — end-to-end compile benchmark driver (one closed-loop caller).
//
//   merced_e2e --workload <cold_suite|lk_sweep|signoff> [--seed N]
//              [--seconds S] [--scale full|tiny] [--trace-out FILE]
//
// Builds the workload's netlists, then runs whole passes of the workload
// back to back until --seconds have elapsed (at least one pass). Wall and
// CPU time are per pass, reported as medians. Every compile's result
// digest is printed on the first pass and must repeat on every later pass.
//
// setup_s is the median time to build the netlists. Besides the first
// build, the netlists are built kSetupBuilds more times between two
// operations, at most once a second, so the samples see the same host load
// as the timed work; that time is taken out of the pass's wall and CPU
// time.
//
// The binary built with the allocation hook (merced_e2e_traced) runs one
// pass in which every operation runs both untraced and through the traced
// replay of compile() (trace.h), and reports per-layer metrics instead;
// --trace-out writes the obs spans as a Chrome trace.
//
// The last stdout line is one JSON object: attempted/failed operations,
// the digests and the metrics, each with its unit. e2ebench/run.py turns
// it into the benchmark's result line.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "obs/resource.h"
#include "trace.h"
#include "workloads.h"

namespace {

using e2e::Layer;
using e2e::Tracer;
using merced::obs::Counter;
using merced::obs::counter_value;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

double count(Counter c) { return static_cast<double>(counter_value(c)); }

std::vector<Metric> layer_metrics(const Tracer& tr) {
  const double flow_s = tr.layer_totals(Layer::kFlow).seconds;
  const double flow_cpu = tr.counter("flow.cpu_s");
  const double trees = count(Counter::kFlowIterations);
  const double sweep_s = tr.span_seconds("measure_coverage");
  const double patterns = tr.counter("sim.fault_patterns");
  const double traced = tr.traced_seconds();
  const double untraced = tr.untraced_seconds();
  std::vector<Metric> m = {
      {"graph.s", tr.layer_totals(Layer::kGraph).seconds, "s"},
      {"graph.nets", tr.counter("graph.nets"), "count"},
      {"flow.s", flow_s, "s"},
      {"flow.trees", trees, "count"},
      {"flow.us_per_tree", ratio(flow_cpu * 1e6, trees), "us"},
      {"flow.cpu_per_wall", ratio(flow_cpu, flow_s), "ratio"},
      {"partition.make_group_s", tr.span_seconds("make_group"), "s"},
      {"partition.boundary_steps", count(Counter::kGroupBoundarySteps), "count"},
      {"partition.assign_cbit_s", tr.span_seconds("assign_cbit"), "s"},
      {"partition.merges", count(Counter::kCbitMerges), "count"},
      {"partition.clusters_in", tr.counter("partition.clusters_in"), "count"},
      {"retiming.s", tr.layer_totals(Layer::kRetiming).seconds, "s"},
      {"retiming.cut_nets", tr.counter("retiming.cut_nets"), "count"},
      {"retiming.neg_cycle_demotions", count(Counter::kRetimingNegCycleDemotions), "count"},
      {"retiming.aggregate_demotions", count(Counter::kRetimingAggregateDemotions), "count"},
      {"retiming.retimable_share",
       ratio(tr.counter("retiming.retimable"), tr.counter("retiming.cut_nets")), "ratio"},
      {"sim.sweep_s", sweep_s, "s"},
      {"sim.stations", tr.counter("sim.stations"), "count"},
      {"sim.fault_patterns", patterns, "count"},
      {"sim.ns_per_fault_pattern", ratio(sweep_s * 1e9, patterns), "ns"},
      {"sim.swept_share", ratio(tr.counter("sim.swept_faults"), tr.counter("sim.total_faults")),
       "ratio"},
      {"sim.steals", count(Counter::kSchedTasksStolen), "count"},
      {"analyze.s", tr.layer_totals(Layer::kAnalyze).seconds, "s"},
      {"analyze.collapse_ratio",
       ratio(tr.counter("analyze.collapsed"), tr.counter("analyze.total_faults")), "ratio"},
      {"sat.prove_s", tr.span_seconds("prove_cut_coverage"), "s"},
      {"sat.solves", count(Counter::kSatSolves), "count"},
      {"sat.conflicts", count(Counter::kSatConflicts), "count"},
      {"sat.cross_check_s", tr.span_seconds("sat.cross_check_untestable"), "s"},
      {"sat.equiv_s", tr.span_seconds("check_retiming_equivalence"), "s"},
      {"verify.s", tr.layer_totals(Layer::kVerify).seconds, "s"},
      {"core.session_s", tr.span_seconds("core.ppet_session"), "s"},
      {"core.cert_s", tr.span_seconds("core.make_certificate"), "s"},
      {"core.cert_bytes", tr.counter("core.cert_bytes"), "bytes"},
  };
  for (const Layer layer : {Layer::kGraph, Layer::kFlow, Layer::kPartition, Layer::kRetiming,
                            Layer::kSim, Layer::kAnalyze, Layer::kSat, Layer::kVerify,
                            Layer::kCore}) {
    const Tracer::LayerTotals t = tr.layer_totals(layer);
    const std::string name = e2e::layer_name(layer);
    m.push_back({name + ".allocs", static_cast<double>(t.allocs), "count"});
    m.push_back({name + ".alloc_mb", static_cast<double>(t.alloc_bytes) * 1e-6, "MB"});
  }
  m.push_back({"trace.wall_s", traced, "s"});
  m.push_back({"trace.accounted_share", ratio(tr.layer_call_seconds(), traced), "ratio"});
  m.push_back({"trace.overhead_s", traced - untraced, "s"});
  m.push_back({"trace.overhead_share", ratio(traced - untraced, untraced), "ratio"});
  return m;
}

int usage() {
  std::cerr << "usage: merced_e2e --workload <cold_suite|lk_sweep|signoff> [--seed N]\n"
               "                  [--seconds S] [--scale full|tiny] [--trace-out FILE]\n";
  return 2;
}

}  // namespace

#ifdef MERCED_E2E_TRACED
constexpr bool kTraced = true;
#else
constexpr bool kTraced = false;
#endif

/// Netlist builds per set-up sampling between two operations.
constexpr int kSetupBuilds = 3;

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool tiny = false;
  std::string trace_out;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string val = argv[++i];
      if (arg == "--workload") {
        workload = val;
      } else if (arg == "--seed") {
        seed = std::stoull(val);
      } else if (arg == "--seconds") {
        seconds = std::stod(val);
      } else if (arg == "--scale") {
        if (val != "full" && val != "tiny") return usage();
        tiny = val == "tiny";
      } else if (arg == "--trace-out") {
        trace_out = val;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  auto spec = e2e::find_workload(workload, tiny);
  if (!spec) return usage();
  spec->seed = seed;

  try {
    std::vector<double> setup_times;
    auto t0 = std::chrono::steady_clock::now();
    const std::vector<e2e::Circuit> circuits = e2e::load_circuits(*spec);
    setup_times.push_back(seconds_since(t0));

    // Set-up samples taken between operations, and their wall and CPU time.
    double probe_wall = 0, probe_cpu = 0;
    auto last_probe = std::chrono::steady_clock::now();
    std::function<void()> probe_setup;
    if (!kTraced) {
      probe_setup = [&] {
        if (seconds_since(last_probe) < 1.0) return;
        const double cpu0 = e2e::process_cpu_seconds();
        const auto p0 = std::chrono::steady_clock::now();
        for (int r = 0; r < kSetupBuilds; ++r) {
          const auto b0 = std::chrono::steady_clock::now();
          const std::vector<e2e::Circuit> rebuilt = e2e::load_circuits(*spec);
          setup_times.push_back(seconds_since(b0));
        }
        probe_wall += seconds_since(p0);
        probe_cpu += e2e::process_cpu_seconds() - cpu0;
        last_probe = std::chrono::steady_clock::now();
      };
    }

    Tracer tracer(kTraced);
    std::vector<double> walls, cpus;
    e2e::PassOutcome first;
    std::size_t attempted = 0, failed = 0;
    std::vector<std::string> failures;
    const auto run_start = std::chrono::steady_clock::now();
    do {
      probe_wall = probe_cpu = 0;
      const double cpu0 = e2e::process_cpu_seconds();
      t0 = std::chrono::steady_clock::now();
      e2e::PassOutcome pass = e2e::run_pass(*spec, circuits, tracer, probe_setup);
      walls.push_back(seconds_since(t0) - probe_wall);
      cpus.push_back(e2e::process_cpu_seconds() - cpu0 - probe_cpu);
      attempted += pass.attempted;
      failed += pass.failed;
      failures.insert(failures.end(), pass.failures.begin(), pass.failures.end());
      if (walls.size() == 1) {
        first = std::move(pass);
        continue;
      }
      // Every later pass must reproduce the first pass's results exactly.
      for (std::size_t i = 0; i < pass.compiles.size(); ++i) {
        if (i >= first.compiles.size() || pass.compiles[i].digest != first.compiles[i].digest) {
          ++failed;
          failures.push_back(pass.compiles[i].key + ": digest differs from the first pass");
        }
      }
    } while (!kTraced && seconds_since(run_start) < seconds);

    std::size_t nets_cut = 0, exact_retimable = 0;
    std::int64_t cbit_area = 0;
    for (const e2e::CompileRecord& c : first.compiles) {
      std::cout << "compile " << c.key << " digest=" << hex(c.digest)
                << " partitions=" << c.partitions << " nets_cut=" << c.nets_cut
                << " retimable=" << c.retimable << " multiplexed=" << c.multiplexed
                << " exact_retimable=" << c.exact_retimable
                << " exact_multiplexed=" << c.exact_multiplexed << " cbit_area=" << c.cbit_area
                << " chosen_start=" << c.chosen_start << "\n";
      nets_cut += c.nets_cut;
      exact_retimable += c.exact_retimable;
      cbit_area += c.cbit_area;
    }
    if (kTraced) {
      // The replay must reproduce the untraced compile() of every operation.
      for (std::size_t i = 0; i < first.compiles.size(); ++i) {
        const e2e::CompileRecord& replayed = first.compiles[i];
        const bool same = i < first.untraced_compiles.size() &&
                          first.untraced_compiles[i].digest == replayed.digest;
        std::cout << "replay " << replayed.key << " digest=" << hex(replayed.digest)
                  << (same ? " matches compile()" : " DIFFERS from compile()") << "\n";
        if (!same) {
          ++failed;
          failures.push_back(replayed.key + ": replay digest differs from compile()'s");
        }
      }
    }
    for (const std::string& f : failures) std::cout << "failure " << f << "\n";

    std::vector<Metric> metrics;
    if (kTraced) {
      tracer.finish();
      metrics = layer_metrics(tracer);
      if (!trace_out.empty()) {
        std::ofstream out(trace_out);
        if (!out) throw std::runtime_error("cannot write " + trace_out);
        merced::obs::write_chrome_trace(out);
      }
    } else {
      metrics = {
          {"wall_s", median(walls), "s"},
          {"cpu_s", median(cpus), "s"},
          {"setup_s", median(setup_times), "s"},
          {"peak_rss_mb", static_cast<double>(merced::obs::peak_rss_bytes()) * 1e-6, "MB"},
          {"cbit_area_units", static_cast<double>(cbit_area), "units"},
          {"nets_cut", static_cast<double>(nets_cut), "count"},
          {"retimable_cuts", static_cast<double>(exact_retimable), "count"},
          {"ok_share", 1.0 - ratio(static_cast<double>(failed), static_cast<double>(attempted)),
           "ratio"},
      };
    }

    std::ostringstream js;
    js << "{\"workload\":" << json_string(spec->name) << ",\"seed\":" << seed
       << ",\"passes\":" << walls.size() << ",\"setup_samples\":" << setup_times.size()
       << ",\"attempted\":" << attempted << ",\"failed\":" << failed << ",\"digests\":{";
    for (std::size_t i = 0; i < first.compiles.size(); ++i) {
      js << (i ? "," : "") << json_string(first.compiles[i].key) << ":"
         << json_string(hex(first.compiles[i].digest));
    }
    js << "},\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      js << (i ? "," : "") << json_string(metrics[i].name) << ":{\"value\":"
         << json_number(metrics[i].value) << ",\"unit\":" << json_string(metrics[i].unit)
         << "}";
    }
    js << "}}";
    std::cout << js.str() << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "merced_e2e: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
