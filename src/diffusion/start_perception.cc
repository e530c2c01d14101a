#include "diffusion/start_perception.h"

#include <algorithm>

#include "diffusion/problem.h"
#include "pin/personal_item_network.h"

namespace imdpp::diffusion {

StartPerceptionTable::StartPerceptionTable(const Problem& problem)
    : relevance_(problem.relevance), wmeta0_(problem.wmeta0) {
  const kg::RelevanceModel& rel = *problem.relevance;
  const int num_items = rel.NumItems();
  offsets_.reserve(static_cast<size_t>(num_items));
  for (kg::ItemId x = 0; x < num_items; ++x) {
    offsets_.push_back(stride_);
    stride_ += rel.ComplementItems(x).size();
  }
  // RelNet reads no perception parameter, so any params serve.
  const pin::PerceptionParams params;
  const pin::PersonalItemNetwork pin(rel, params);
  nets_.reserve(static_cast<size_t>(problem.NumUsers()) * stride_);
  for (graph::UserId u = 0; u < problem.NumUsers(); ++u) {
    const std::span<const float> wmeta = problem.Wmeta0(u);
    for (kg::ItemId x = 0; x < num_items; ++x) {
      for (kg::ItemId y : rel.ComplementItems(x)) {
        nets_.push_back(pin.RelNet(wmeta, x, y));
      }
    }
  }
}

bool StartPerceptionTable::BuiltFor(const Problem& problem) const {
  return relevance_ == problem.relevance &&
         std::ranges::equal(wmeta0_, problem.wmeta0);
}

std::shared_ptr<const StartPerceptionTable> StartPerceptionCache::Get(
    const Problem& problem) {
  util::MutexLock lock(mu_);
  if (table_ == nullptr || !table_->BuiltFor(problem)) {
    table_ = std::make_shared<const StartPerceptionTable>(problem);
  }
  return table_;
}

}  // namespace imdpp::diffusion
