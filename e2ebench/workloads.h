// The benchmark's three workloads and their correctness gate.
//
//   cold_suite  cold compile() of s1423, s5378, s9234, s13207 at l_k 16 and
//               24 (jobs 1, starts 1), each followed by verify_result and,
//               at l_k 16, a plain jobs-1 PpetSession::measure_coverage.
//   lk_sweep    one PreparedCircuit of s9234.1, then compile(prepared) at
//               l_k 8, 12, 16, 20, 24, each followed by verify_result.
//   signoff     s5378 and s9234 at l_k 22, starts 4, jobs 2: compile,
//               verify_result, analyze_circuit, collapsed measure_coverage
//               with the analysis fault plans, cross_check_untestable,
//               check_retiming_equivalence, make_certificate, then one
//               prove_cut_coverage per station.
//
// An operation is one compile (with everything that follows it on the same
// result) or, in signoff, one station proof. A failed check marks its
// operation failed and the pass goes on. With an enabled tracer every
// operation runs twice, once untraced and once traced (Tracer::step).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "netlist/netlist.h"
#include "trace.h"

namespace e2e {

struct WorkloadSpec {
  std::string name;
  std::vector<std::string> circuits;
  std::vector<std::size_t> lks;
  std::size_t starts = 1;
  std::size_t jobs = 1;
  /// Input seed. 0 reproduces the registry defaults; any other value
  /// reseeds every saturation with derive_seed(SaturateParams::seed, seed).
  /// The circuits stay the registry ones: redrawn circuits are not all
  /// feasible (see README.md), and a workload must not fail by its inputs.
  std::uint64_t seed = 0;
};

/// The workload called `name`; `tiny` swaps in s27/s510 for a quick
/// self-test of the whole harness. nullopt for an unknown name.
std::optional<WorkloadSpec> find_workload(const std::string& name, bool tiny);

struct Circuit {
  std::string name;
  merced::Netlist netlist;
};

/// Builds the workload's registry netlists (the ones the goldens pin).
std::vector<Circuit> load_circuits(const WorkloadSpec& spec);

/// What one compile produced, reduced to what a reader compares.
struct CompileRecord {
  std::string key;              ///< "<circuit> lk=<lk>"
  std::uint64_t digest = 0;     ///< partition, cuts, ρ, counts, CBIT area
  std::size_t partitions = 0;
  std::size_t nets_cut = 0;
  std::size_t retimable = 0;    ///< paper aggregate accounting
  std::size_t multiplexed = 0;
  std::size_t exact_retimable = 0;
  std::size_t exact_multiplexed = 0;
  std::size_t chosen_start = 0;
  std::int64_t cbit_area = 0;   ///< with retiming (Table 12)
};

struct PassOutcome {
  std::vector<CompileRecord> compiles;
  std::vector<CompileRecord> untraced_compiles;  ///< the untraced twins, when tracing
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  ///< "<operation>: <reason>"
};

/// Runs one pass of the workload. With an enabled tracer the traced half
/// of each operation compiles through the replay and makes every library
/// call a layer call. `after_op` runs after each operation.
PassOutcome run_pass(const WorkloadSpec& spec, const std::vector<Circuit>& circuits,
                     Tracer& tracer, const std::function<void()>& after_op);

}  // namespace e2e
