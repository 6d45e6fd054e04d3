// Traced replay of merced::compile().
//
// Calls the same public functions compile() calls, in the same order and
// with the same thread pools, each as a layer call of the tracer:
//
//   CircuitGraph → find_sccs → saturate_network_multistart     (prepare)
//   compute_stats → per start: make_group + assign_cbit +
//   cut_nets/make_cut_report → deterministic winner → RetimeGraph →
//   plan_cut_retiming → area accounting                        (compile)
//
// The winner rule and the area arithmetic are restated from
// src/core/merced.cc. Every traced compile is paired with an untraced
// compile() of the same input, and a differing result digest fails the
// operation. That catches a replay whose output drifts from compile()'s,
// not one whose call sequence does: the per-layer figures follow the
// replay's calls, so a change to the order or set of calls inside
// compile() has to be mirrored here.
#pragma once

#include <vector>

#include "core/merced.h"
#include "trace.h"

namespace e2e {

/// The replay's counterpart of merced::PreparedCircuit.
struct ReplayPrepared {
  const merced::Netlist* netlist = nullptr;
  merced::CircuitGraph graph;
  merced::SccInfo sccs;
  std::vector<merced::SaturationResult> saturations;  ///< indexed by start
};

ReplayPrepared replay_prepare(const merced::Netlist& netlist,
                              const merced::MercedConfig& config, Tracer& tracer);

merced::MercedResult replay_compile(const ReplayPrepared& prepared,
                                    const merced::MercedConfig& config, Tracer& tracer);

}  // namespace e2e
