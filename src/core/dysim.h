// Dysim — Dynamic perception for seeding in target markets (Algorithm 1).
//
// Three phases per the paper:
//   TMI  — select nominees by MCP (Procedure 2), cluster them
//          (Procedure 3), identify target markets via MIOA regions, group
//          overlapping markets, and order each group by AE (Procedure 4) or
//          an alternative metric (Sec. VI-D).
//   DRE  — inside a market, repeatedly promote the not-yet-promoted item
//          with the highest Dynamic Reachability (Eq. 1).
//   TDSI — assign each nominee of that item the promotional timing with
//          the highest Substantial Influence (Eq. 2), searching only
//          [t̂, min(t̂+1, Σ_{i≤k} T_{τ_i})].
//
// Finally the result is the best of {assembled seed group, all nominees in
// the first promotion, their CR-greedy round placement, the single best
// candidate (e_max), a timing refinement of the leader} — the comparison
// that underpins the Theorem 5 guarantee. Those scores only pick the
// schedule; the reported σ̂ is the run owner's (api::MakeReportEngine).
//
// Ablations (Fig. 10): `use_target_markets = false` ("w/o TM") treats all
// nominees as one market spanning every user; `use_item_priority = false`
// ("w/o IP") skips DRE and promotes all of a market's items simultaneously
// at the market's start slot.
#ifndef IMDPP_CORE_DYSIM_H_
#define IMDPP_CORE_DYSIM_H_

#include <vector>

#include "cluster/nominee_clustering.h"
#include "cluster/target_market.h"
#include "core/market_order.h"
#include "core/nominee_selection.h"
#include "core/run_context.h"
#include "diffusion/monte_carlo.h"
#include "prep/prep.h"
#include "util/status.h"

namespace imdpp::core {

/// Dysim's own knobs. Sample counts, candidate pruning, the campaign, the
/// backend, the pool and the prep cache come from the run's RunContext.
struct DysimConfig {
  /// TMI clustering and target-market knobs (the `clustering` / `market`
  /// config keys).
  cluster::ClusteringConfig clustering;
  cluster::MarketPlanConfig market;
  MarketOrderMetric order = MarketOrderMetric::kAntagonisticExtent;

  /// Depth cap on the DR recursion (d_τ is additionally capped here).
  int dr_max_depth = 3;

  /// Ablation switches (Fig. 10).
  bool use_target_markets = true;
  bool use_item_priority = true;

  /// Theorem-5 guard + timing refinement (compare the assembled schedule
  /// against N_first, the best singleton, a CR-greedy placement, and a
  /// coordinate-ascent refinement; keep the best). The ablation study
  /// disables it so the TMI/DRE/TDSI differences stay visible.
  bool use_theorem5_guard = true;
};

struct DysimResult {
  SeedGroup seeds;
  double total_cost = 0.0;
  std::vector<Nominee> nominees;    ///< TMI output
  cluster::MarketPlan plan;         ///< diagnostics
  /// How the run ended: OkStatus() for a completed plan; the token's
  /// reason (kCancelled / kDeadlineExceeded / an injected error) when the
  /// run's cancel token fired, or the prep-acquisition error. A non-ok
  /// result carries whatever partial state existed at the stop.
  util::Status status;
};

/// TMI phase output (Procedure 2 + 3 + market identification), shared by
/// RunDysim and diagnostic tooling (`imdpp datasets --prep`). The plan is
/// *unordered* — OrderGroups is the caller's, because the PF metric needs
/// the run's engine.
struct TmiResult {
  std::vector<Nominee> candidates;  ///< the universe Procedure 2 ran over
  SelectionResult selection;
  std::vector<std::vector<Nominee>> clusters;
  cluster::MarketPlan plan;
};

/// Runs the TMI phase on `problem` over the run's candidate universe,
/// sourcing clustering distances, MIOA regions and relevance oracles from
/// `artifacts`.
TmiResult RunTmi(const Problem& problem,
                 const diffusion::SigmaBackend& engine, const RunContext& run,
                 const DysimConfig& config, prep::PrepArtifacts& artifacts);

/// Runs Dysim on `problem` (budget and T come from the problem) inside
/// `run`, which books the work of every engine and lease it takes.
DysimResult RunDysim(const Problem& problem, RunContext& run,
                     const DysimConfig& config = {});

}  // namespace imdpp::core

#endif  // IMDPP_CORE_DYSIM_H_
