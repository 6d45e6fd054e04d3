#include "replay.h"

#include <algorithm>
#include <utility>

#include "netlist/stats.h"
#include "partition/assign_cbit.h"
#include "retiming/retime_graph.h"
#include "runtime/thread_pool.h"

namespace e2e {

using namespace merced;

ReplayPrepared replay_prepare(const Netlist& netlist, const MercedConfig& config,
                              Tracer& tracer) {
  CircuitGraph graph = tracer.call(Layer::kGraph, "graph.circuit_graph",
                                   [&] { return CircuitGraph(netlist); });
  tracer.count("graph.nets", static_cast<double>(graph.num_nets()));
  SccInfo sccs = tracer.call(Layer::kGraph, "graph.find_sccs", [&] { return find_sccs(graph); });

  const double cpu0 = process_cpu_seconds();
  std::vector<SaturationResult> saturations =
      tracer.call(Layer::kFlow, "flow.saturate_network_multistart", [&] {
        ThreadPool pool(std::min(resolve_jobs(config.jobs), config.multi_start));
        return saturate_network_multistart(graph, config.flow, config.multi_start, pool);
      });
  tracer.count("flow.cpu_s", process_cpu_seconds() - cpu0);
  return ReplayPrepared{&netlist, std::move(graph), std::move(sccs), std::move(saturations)};
}

namespace {

struct Candidate {
  bool feasible = true;
  AssignCbitResult assigned;
  std::vector<NetId> cut_net_ids;
  CutReport cuts;
  std::size_t max_iota = 0;
  std::size_t clusters_in = 0;  ///< Make_Group clusters fed to Assign_CBIT
};

// Same total order as compile(): feasible, fewest cut nets, fewest cut nets
// on SCCs, smallest worst-case ι; the caller keeps the lowest start on ties.
bool better(const Candidate& a, const Candidate& b) {
  if (a.feasible != b.feasible) return a.feasible;
  if (a.cuts.nets_cut != b.cuts.nets_cut) return a.cuts.nets_cut < b.cuts.nets_cut;
  if (a.cuts.cut_nets_on_scc != b.cuts.cut_nets_on_scc) {
    return a.cuts.cut_nets_on_scc < b.cuts.cut_nets_on_scc;
  }
  return a.max_iota < b.max_iota;
}

}  // namespace

MercedResult replay_compile(const ReplayPrepared& prepared, const MercedConfig& config,
                            Tracer& tracer) {
  const Netlist& netlist = *prepared.netlist;
  const CircuitGraph& graph = prepared.graph;
  const SccInfo& sccs = prepared.sccs;

  MercedResult r;
  r.stats = tracer.call(Layer::kNetlist, "netlist.compute_stats",
                        [&] { return compute_stats(netlist); });
  r.num_sccs = sccs.count();
  r.dffs_on_scc = static_cast<std::size_t>(sccs.total_dffs_on_scc());
  r.num_starts = prepared.saturations.size();

  MakeGroupParams mg;
  mg.lk = config.lk;
  mg.beta = config.beta;
  // make_group and assign_cbit open their own spans, on whichever thread
  // runs the start.
  std::vector<Candidate> candidates = tracer.call(Layer::kPartition, "partition.candidates", [&] {
    ThreadPool pool(std::min(resolve_jobs(config.jobs), prepared.saturations.size()));
    return parallel_map<Candidate>(pool, prepared.saturations.size(), [&](std::size_t k) {
      Candidate c;
      const MakeGroupResult groups = make_group(graph, sccs, prepared.saturations[k], mg);
      c.feasible = groups.feasible;
      c.clusters_in = groups.clustering.count();
      c.assigned = assign_cbit(graph, groups.clustering, config.lk);
      c.cut_net_ids = cut_nets(graph, c.assigned.partitions);
      c.cuts = make_cut_report(graph, c.assigned.partitions, sccs);
      for (std::size_t iota : c.assigned.input_counts) c.max_iota = std::max(c.max_iota, iota);
      return c;
    });
  });
  for (const Candidate& c : candidates) {
    tracer.count("partition.clusters_in", static_cast<double>(c.clusters_in));
  }

  std::size_t best = 0;
  for (std::size_t k = 1; k < candidates.size(); ++k) {
    if (better(candidates[k], candidates[best])) best = k;
  }
  Candidate& won = candidates[best];
  r.chosen_start = best;
  r.flow_iterations = prepared.saturations[best].iterations;
  r.feasible = won.feasible;
  r.partitions = std::move(won.assigned.partitions);
  r.partition_inputs = std::move(won.assigned.input_counts);
  r.cut_net_ids = std::move(won.cut_net_ids);
  r.cuts = won.cuts;

  const RetimeGraph rgraph = tracer.call(Layer::kRetiming, "retiming.retime_graph",
                                         [&] { return RetimeGraph(graph); });
  r.retiming = tracer.call(Layer::kRetiming, "plan_cut_retiming", [&] {
    return plan_cut_retiming(graph, rgraph, sccs, r.cut_net_ids, r.partitions);
  });
  tracer.count("retiming.cut_nets", static_cast<double>(r.cut_net_ids.size()));
  tracer.count("retiming.retimable", static_cast<double>(r.retiming.retimable.size()));

  r.area.circuit_area = r.stats.estimated_area;
  const std::size_t total_cuts = r.cut_net_ids.size();
  r.area.multiplexed_cuts = std::min(total_cuts, r.retiming.scc_aggregate_demotions);
  r.area.retimable_cuts = total_cuts - r.area.multiplexed_cuts;
  r.area.exact_retimable_cuts = r.retiming.retimable.size();
  r.area.exact_multiplexed_cuts = r.retiming.multiplexed.size();
  r.cbit_cost = assign_cbit_cost(r.partition_inputs);
  return r;
}

}  // namespace e2e
