// The simulation kernel's work record: what SimulateRounds did, counted
// per SimScratch arena and carried unchanged through every layer above it
// (a shard's tally, a sample loop's fold, the engine's totals, the
// backend's metrics). A counter is one member and one row of
// kKernelWorkFields; the row's util::metric name is what AddMetrics books,
// and the same table drives the record's arithmetic, so no layer names a
// counter again.
//
//   attempts_computed / attempts_replayed: promotion attempts (frontier
//     entry × out-edge) computed vs repeated from a base realization's log
//     (campaign_simulator.h, "Base replay").
//   attempts_bounded: computed attempts whose every coin fell at or above
//     its bound, so no Pact, Ppref or relevance was evaluated ("Coins
//     first"; a subset of attempts_computed).
//   weight_updates_computed / weight_updates_replayed: adopters' per-step
//     weight updates (Sec. V-A) run vs copied from a base log.
//   weight_pairs_computed: the (adopted, new) item pairs the computed
//     weight updates walked.
//   assoc_coins_drawn: association coins hashed, the coins-first pre-draws
//     included.
//   assoc_nets_table / assoc_nets_relnet: net relevances the association
//     sweep read from the start-perception table vs computed with RelNet.
//     On round-keyed coins each follows a drawn coin, so their sum is at
//     most assoc_coins_drawn.
#ifndef IMDPP_DIFFUSION_KERNEL_WORK_H_
#define IMDPP_DIFFUSION_KERNEL_WORK_H_

#include <cstdint>

#include "util/metrics.h"

namespace imdpp::diffusion {

struct KernelWork {
  int64_t attempts_computed = 0;
  int64_t attempts_replayed = 0;
  int64_t attempts_bounded = 0;
  int64_t weight_updates_computed = 0;
  int64_t weight_updates_replayed = 0;
  int64_t weight_pairs_computed = 0;
  int64_t assoc_coins_drawn = 0;
  int64_t assoc_nets_table = 0;
  int64_t assoc_nets_relnet = 0;

  KernelWork& operator+=(const KernelWork& other);
  KernelWork operator-(const KernelWork& other) const;
  /// Books every counter under its metric name (zeros included, so a
  /// run's metrics always list the whole record).
  void AddTo(util::MetricsSnapshot& out) const;
};

/// One row per counter: its metric name and its member.
struct KernelWorkField {
  const char* metric;
  int64_t KernelWork::*member;
};
inline constexpr KernelWorkField kKernelWorkFields[] = {
    {util::metric::kEvalAttemptsComputed, &KernelWork::attempts_computed},
    {util::metric::kEvalAttemptsReplayed, &KernelWork::attempts_replayed},
    {util::metric::kEvalAttemptsBounded, &KernelWork::attempts_bounded},
    {util::metric::kEvalWeightUpdatesComputed,
     &KernelWork::weight_updates_computed},
    {util::metric::kEvalWeightUpdatesReplayed,
     &KernelWork::weight_updates_replayed},
    {util::metric::kEvalWeightPairsComputed,
     &KernelWork::weight_pairs_computed},
    {util::metric::kEvalAssocCoinsDrawn, &KernelWork::assoc_coins_drawn},
    {util::metric::kEvalAssocNetsTable, &KernelWork::assoc_nets_table},
    {util::metric::kEvalAssocNetsRelnet, &KernelWork::assoc_nets_relnet},
};

inline KernelWork& KernelWork::operator+=(const KernelWork& other) {
  for (const KernelWorkField& f : kKernelWorkFields) {
    this->*f.member += other.*f.member;
  }
  return *this;
}

inline KernelWork KernelWork::operator-(const KernelWork& other) const {
  KernelWork out = *this;
  for (const KernelWorkField& f : kKernelWorkFields) {
    out.*f.member -= other.*f.member;
  }
  return out;
}

inline void KernelWork::AddTo(util::MetricsSnapshot& out) const {
  for (const KernelWorkField& f : kKernelWorkFields) {
    out.AddCounter(f.metric, this->*f.member);
  }
}

}  // namespace imdpp::diffusion

#endif  // IMDPP_DIFFUSION_KERNEL_WORK_H_
