// Per-user dynamic state inside one Monte-Carlo realization: the adoption
// set A(u, ζ_t) and the personal meta-graph weightings Wmeta(u, m, ζ_t).
// Everything else the paper treats as dynamic (personal item network,
// preferences, influence strengths, association probabilities) is *derived*
// from this state plus the static KG relevance, so it never needs to be
// materialized or invalidated.
#ifndef IMDPP_PIN_USER_STATE_H_
#define IMDPP_PIN_USER_STATE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "kg/types.h"
#include "util/check.h"

namespace imdpp::pin {

using kg::ItemId;

class UserState {
 public:
  UserState() = default;

  /// num_items sizes the adoption bitset; wmeta0 is the user's initial
  /// meta-graph weighting vector.
  UserState(int num_items, std::vector<float> wmeta0)
      : bits_((num_items + 63) / 64, 0), wmeta_(std::move(wmeta0)) {}

  bool Has(ItemId x) const {
    IMDPP_DCHECK(x >= 0);
    size_t w = static_cast<size_t>(x) >> 6;
    IMDPP_DCHECK(w < bits_.size());
    return (bits_[w] >> (x & 63)) & 1;
  }

  /// Adds x to the adoption set (keeps the sorted list in order).
  /// Returns false if already adopted.
  bool Add(ItemId x) {
    if (Has(x)) return false;
    bits_[static_cast<size_t>(x) >> 6] |= uint64_t{1} << (x & 63);
    adopted_.insert(std::upper_bound(adopted_.begin(), adopted_.end(), x), x);
    return true;
  }

  /// In-place reset to "adopted = `adopted` (sorted), weightings =
  /// wmeta0". Reuses the existing buffers (no frees/allocations when the
  /// shape is unchanged), which is what lets a simulation scratch arena
  /// recycle its per-user states across Monte-Carlo realizations.
  void ResetTo(int num_items, std::span<const ItemId> adopted,
               std::span<const float> wmeta0) {
    bits_.assign(static_cast<size_t>(num_items + 63) / 64, 0);
    for (ItemId x : adopted) {
      bits_[static_cast<size_t>(x) >> 6] |= uint64_t{1} << (x & 63);
    }
    adopted_.assign(adopted.begin(), adopted.end());
    wmeta_.assign(wmeta0.begin(), wmeta0.end());
  }

  /// Structural copy that reuses this state's buffers (vector::assign, so
  /// equal shapes copy without touching the allocator).
  void CopyFrom(const UserState& other) {
    bits_.assign(other.bits_.begin(), other.bits_.end());
    adopted_.assign(other.adopted_.begin(), other.adopted_.end());
    wmeta_.assign(other.wmeta_.begin(), other.wmeta_.end());
  }

  /// Whether the state is shaped for `num_items` items and `num_metas`
  /// meta-graph weights.
  bool HasShape(int num_items, int num_metas) const {
    return bits_.size() == static_cast<size_t>(num_items + 63) / 64 &&
           wmeta_.size() == static_cast<size_t>(num_metas);
  }

  /// Sorted adopted item ids.
  const std::vector<ItemId>& Adopted() const { return adopted_; }

  int NumAdopted() const { return static_cast<int>(adopted_.size()); }

  std::vector<float>& wmeta() { return wmeta_; }
  const std::vector<float>& wmeta() const { return wmeta_; }

 private:
  std::vector<uint64_t> bits_;
  std::vector<ItemId> adopted_;
  std::vector<float> wmeta_;
};

}  // namespace imdpp::pin

#endif  // IMDPP_PIN_USER_STATE_H_
