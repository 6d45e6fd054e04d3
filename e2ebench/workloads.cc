#include "workloads.h"

#include <algorithm>
#include <exception>
#include <optional>
#include <utility>

#include "analyze/analyze.h"
#include "circuits/registry.h"
#include "core/certificate.h"
#include "core/merced.h"
#include "core/ppet_session.h"
#include "replay.h"
#include "sat/equivalence.h"
#include "sat/redundancy.h"

namespace e2e {

using namespace merced;

namespace {

/// Widest CUT the exhaustive sweep and the prover accept (2^22 patterns).
constexpr std::size_t kSweepCap = 22;

std::string key_of(const std::string& circuit, std::size_t lk) {
  return circuit + " lk=" + std::to_string(lk);
}

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ULL;
    }
  }
  template <typename T>
  void add_all(const std::vector<T>& values) {
    add(values.size());
    for (const T& v : values) add(static_cast<std::uint64_t>(v));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

CompileRecord make_record(const std::string& key, const MercedResult& r) {
  CompileRecord rec;
  rec.key = key;
  rec.partitions = r.partitions.count();
  rec.nets_cut = r.cuts.nets_cut;
  rec.retimable = r.area.retimable_cuts;
  rec.multiplexed = r.area.multiplexed_cuts;
  rec.exact_retimable = r.area.exact_retimable_cuts;
  rec.exact_multiplexed = r.area.exact_multiplexed_cuts;
  rec.chosen_start = r.chosen_start;
  rec.cbit_area = static_cast<std::int64_t>(r.area.cbit_area_with_retiming());

  Digest d;
  d.add(r.feasible);
  d.add_all(r.partitions.cluster_of);
  d.add_all(r.partition_inputs);
  d.add_all(r.cut_net_ids);
  d.add_all(r.retiming.rho);
  d.add_all(r.retiming.retimable);
  d.add_all(r.retiming.multiplexed);
  d.add(rec.retimable);
  d.add(rec.multiplexed);
  d.add(static_cast<std::uint64_t>(rec.cbit_area));
  d.add(rec.chosen_start);
  rec.digest = d.value();
  return rec;
}

MercedConfig config_for(const WorkloadSpec& spec, std::size_t lk) {
  MercedConfig c;
  c.lk = lk;
  c.multi_start = spec.starts;
  c.jobs = spec.jobs;
  c.flow.seed = derive_seed(c.flow.seed, spec.seed);
  return c;
}

class PassRunner {
 public:
  PassRunner(const WorkloadSpec& spec, Tracer& tracer, const std::function<void()>& after_op)
      : spec_(spec), tr_(tracer), after_op_(after_op) {}

  PassOutcome take() { return std::move(out_); }

  /// Runs one operation as a step; fn returns false after recording why it
  /// failed. A throw fails the operation too, without ending the pass.
  template <typename Fn>
  void op(const char* step, const std::string& label, Fn&& fn) {
    ++out_.attempted;
    const bool ok = tr_.step(step, [&] {
      try {
        return fn();
      } catch (const std::exception& e) {
        fail(label, std::string("exception: ") + e.what());
        return false;
      }
    });
    if (!ok) ++out_.failed;
    if (after_op_) after_op_();
  }

  void fail(const std::string& label, const std::string& why) {
    out_.failures.push_back(label + ": " + why);
  }

  /// compile(netlist, config), or its traced replay.
  MercedResult cold_compile(const Netlist& netlist, const MercedConfig& config) {
    if (!tr_.active()) return compile(netlist, config);
    const ReplayPrepared prepared = replay_prepare(netlist, config, tr_);
    return replay_compile(prepared, config, tr_);
  }

  /// Feasibility + verify_result gate; records the compile's digest.
  bool check_compile(const std::string& label, const Netlist& netlist,
                     const MercedResult& result, const MercedConfig& config) {
    bool ok = true;
    if (!result.feasible) {
      fail(label, "compile is infeasible");
      ok = false;
    }
    const verify::Report report = tr_.call(Layer::kVerify, "verify_result", [&] {
      return verify_result(netlist, result, config);
    });
    if (!report.clean()) {
      fail(label, "verify_result reports " + std::to_string(report.errors()) + " errors");
      ok = false;
    }
    const bool untraced_twin = tr_.enabled() && !tr_.active();
    (untraced_twin ? out_.untraced_compiles : out_.compiles)
        .push_back(make_record(label, result));
    return ok;
  }

  CircuitGraph build_graph(const Netlist& netlist) {
    CircuitGraph graph = tr_.call(Layer::kGraph, "graph.circuit_graph",
                                  [&] { return CircuitGraph(netlist); });
    tr_.count("graph.nets", static_cast<double>(graph.num_nets()));
    return graph;
  }

  std::vector<CoverageResult> sweep(const PpetSession& session) {
    std::vector<CoverageResult> cov = tr_.call(Layer::kSim, "measure_coverage", [&] {
      return session.measure_coverage(kSweepCap);
    });
    tr_.count("sim.stations", static_cast<double>(session.num_stations()));
    for (std::size_t s = 0; s < cov.size(); ++s) {
      const std::size_t swept =
          session.has_fault_plans() ? cov[s].swept_faults : cov[s].total_faults;
      tr_.count("sim.swept_faults", static_cast<double>(swept));
      tr_.count("sim.total_faults", static_cast<double>(cov[s].total_faults));
      tr_.count("sim.fault_patterns",
                static_cast<double>(swept) * static_cast<double>(session.station(s).cycles));
    }
    return cov;
  }

  void cold_suite(const std::vector<Circuit>& circuits) {
    for (const Circuit& c : circuits) {
      for (const std::size_t lk : spec_.lks) {
        const std::string label = key_of(c.name, lk);
        op("op.compile", label, [&] {
          const MercedConfig config = config_for(spec_, lk);
          const MercedResult result = cold_compile(c.netlist, config);
          const bool ok = check_compile(label, c.netlist, result, config);
          if (result.feasible && lk <= kSweepCap) {
            const CircuitGraph graph = build_graph(c.netlist);
            const PpetSession session = tr_.call(Layer::kCore, "core.ppet_session", [&] {
              return PpetSession(graph, result, /*psa_width=*/16, spec_.jobs);
            });
            sweep(session);
          }
          return ok;
        });
      }
    }
  }

  void lk_sweep(const std::vector<Circuit>& circuits) {
    for (const Circuit& c : circuits) {
      const MercedConfig base = config_for(spec_, spec_.lks.front());
      std::optional<PreparedCircuit> prepared;
      std::optional<ReplayPrepared> replayed;
      tr_.step("op.prepare", [&] {
        if (tr_.active()) {
          replayed.emplace(replay_prepare(c.netlist, base, tr_));
        } else {
          prepared.emplace(c.netlist, base.flow, base.multi_start, base.jobs);
        }
        return true;
      });
      for (const std::size_t lk : spec_.lks) {
        const std::string label = key_of(c.name, lk);
        op("op.compile", label, [&] {
          const MercedConfig config = config_for(spec_, lk);
          const MercedResult result = tr_.active() ? replay_compile(*replayed, config, tr_)
                                                   : compile(*prepared, config);
          return check_compile(label, c.netlist, result, config);
        });
      }
    }
  }

  void signoff(const std::vector<Circuit>& circuits) {
    for (const Circuit& c : circuits) {
      for (const std::size_t lk : spec_.lks) {
        signoff_one(c, lk);
      }
    }
  }

  void signoff_one(const Circuit& c, std::size_t lk) {
    const std::string label = key_of(c.name, lk);
    const MercedConfig config = config_for(spec_, lk);
    std::optional<MercedResult> result;
    std::optional<CircuitGraph> graph;
    std::optional<PpetSession> session;
    std::vector<CoverageResult> coverage;

    op("op.compile", label, [&] {
      // A traced step runs this twice; drop the session before what it
      // points into.
      session.reset();
      graph.reset();
      result.emplace(cold_compile(c.netlist, config));
      bool ok = check_compile(label, c.netlist, *result, config);
      if (!result->feasible) return false;

      graph.emplace(build_graph(c.netlist));
      const SccInfo sccs =
          tr_.call(Layer::kGraph, "graph.find_sccs", [&] { return find_sccs(*graph); });
      const analyze::CircuitAnalysis analysis =
          tr_.call(Layer::kAnalyze, "analyze_circuit", [&] {
            return analyze::analyze_circuit(*graph, result->partitions);
          });
      tr_.count("analyze.total_faults", static_cast<double>(analysis.total_faults()));
      tr_.count("analyze.collapsed",
                static_cast<double>(analysis.copied() + analysis.inferred()));

      tr_.call(Layer::kCore, "core.ppet_session",
               [&] { session.emplace(*graph, *result, /*psa_width=*/16, spec_.jobs); });
      tr_.call(Layer::kSim, "sim.set_fault_plans", [&] {
        std::vector<FaultPlan> plans;
        plans.reserve(session->num_stations());
        for (std::size_t s = 0; s < session->num_stations(); ++s) {
          plans.push_back(analysis.cuts[session->station(s).partition_index].plan);
        }
        session->set_fault_plans(std::move(plans));
      });
      coverage = sweep(*session);

      tr_.call(Layer::kSat, "sat.cross_check_untestable", [&] {
        for (std::size_t ci = 0; ci < result->partitions.count(); ++ci) {
          const analyze::CutAnalysis& cut = analysis.cuts[ci];
          if (cut.untestable == 0) continue;
          const ConeSimulator cone(*graph, result->partitions, ci);
          const std::vector<Fault> faults = cone.cluster_faults();
          const sat::UntestableCrossCheck cc =
              sat::cross_check_untestable(cone, faults, cut.untestable_fault);
          if (!cc.all_confirmed()) {
            fail(label, "cross_check_untestable: cluster " + std::to_string(ci) + " has " +
                            std::to_string(cc.disagreements.size()) + " refuted, " +
                            std::to_string(cc.unknown) + " unknown claims");
            ok = false;
          }
        }
      });

      const sat::EquivalenceResult eq =
          tr_.call(Layer::kSat, "check_retiming_equivalence", [&] {
            return sat::check_retiming_equivalence(*graph, result->retiming.rho);
          });
      if (!eq.equivalent()) {
        fail(label, "retiming equivalence not proved" +
                        (eq.error.empty() ? std::string() : ": " + eq.error));
        ok = false;
      }

      const std::string cert = tr_.call(Layer::kCore, "core.make_certificate", [&] {
        CertificateInfo info;
        info.tool = "merced_e2e";
        info.circuit = c.name;
        info.lk = lk;
        info.beta = config.beta;
        return make_certificate(c.netlist, *graph, sccs, *result, info);
      });
      tr_.count("core.cert_bytes", static_cast<double>(cert.size()));
      return ok;
    });

    if (!session || coverage.size() != session->num_stations()) return;
    sat::ProveOptions popt;
    popt.max_inputs = kSweepCap;
    popt.jobs = spec_.jobs;
    for (std::size_t s = 0; s < session->num_stations(); ++s) {
      const std::size_t ci = session->station(s).partition_index;
      const std::string station = label + " cluster=" + std::to_string(ci);
      op("op.prove", station, [&] {
        const sat::CutProof proof = tr_.call(Layer::kSat, "prove_cut_coverage", [&] {
          return sat::prove_cut_coverage(*graph, result->partitions, ci, popt);
        });
        bool ok = true;
        if (!proof.fully_explained()) {
          fail(station, "CutProof not fully explained (" + std::to_string(proof.unknown) +
                            " unknown, " + std::to_string(proof.inconsistent) +
                            " inconsistent)");
          ok = false;
        }
        if (proof.total_faults != coverage[s].total_faults ||
            proof.detected != coverage[s].detected) {
          fail(station, "collapsed sweep detected " + std::to_string(coverage[s].detected) +
                            "/" + std::to_string(coverage[s].total_faults) +
                            ", prover's sweep " + std::to_string(proof.detected) + "/" +
                            std::to_string(proof.total_faults));
          ok = false;
        }
        return ok;
      });
    }
  }

 private:
  const WorkloadSpec& spec_;
  Tracer& tr_;
  const std::function<void()>& after_op_;
  PassOutcome out_;
};

}  // namespace

std::optional<WorkloadSpec> find_workload(const std::string& name, bool tiny) {
  const std::vector<std::string> small = {"s27", "s510"};
  if (name == "cold_suite") {
    return WorkloadSpec{name,
                        tiny ? small
                             : std::vector<std::string>{"s1423", "s5378", "s9234", "s13207"},
                        {16, 24}, 1, 1};
  }
  if (name == "lk_sweep") {
    return WorkloadSpec{name, {tiny ? "s510" : "s9234.1"}, {8, 12, 16, 20, 24}, 1, 1};
  }
  if (name == "signoff") {
    // The tiny self-test proves at l_k 12 so it stays well under a second.
    return WorkloadSpec{name, tiny ? small : std::vector<std::string>{"s5378", "s9234"},
                        {tiny ? std::size_t{12} : std::size_t{22}}, 4, 2};
  }
  return std::nullopt;
}

std::vector<Circuit> load_circuits(const WorkloadSpec& spec) {
  std::vector<Circuit> out;
  for (const std::string& name : spec.circuits) out.push_back({name, load_benchmark(name)});
  return out;
}

PassOutcome run_pass(const WorkloadSpec& spec, const std::vector<Circuit>& circuits,
                     Tracer& tracer, const std::function<void()>& after_op) {
  PassRunner runner(spec, tracer, after_op);
  if (spec.name == "cold_suite") {
    runner.cold_suite(circuits);
  } else if (spec.name == "lk_sweep") {
    runner.lk_sweep(circuits);
  } else {
    runner.signoff(circuits);
  }
  return runner.take();
}

}  // namespace e2e
