// The σ memo both backends ("mc", "ris") keep behind EnableSigmaMemo:
// identical input => identical estimate, so a hit returns the stored
// bits. Sigma() answers are keyed by seed vector, EvalMarket() answers by
// (market users, seed vector) in nested maps, so a market's user list is
// stored once and lookups build no key. Capacity 0 (the default) disables
// it; otherwise each map stops storing at `capacity` entries. The owner
// books hits and guards the memo with its mutex.
#ifndef IMDPP_DIFFUSION_SIGMA_MEMO_H_
#define IMDPP_DIFFUSION_SIGMA_MEMO_H_

#include <cstddef>
#include <map>
#include <vector>

#include "diffusion/seed.h"
#include "diffusion/sigma_backend.h"

namespace imdpp::diffusion {

class SigmaMemo {
 public:
  void set_capacity(size_t capacity) { capacity_ = capacity; }

  /// How many more Sigma() (`market` false) or EvalMarket() answers the
  /// memo will store: 0 when disabled or full.
  size_t Room(bool market) const {
    const size_t used = market ? market_entries_ : sigma_.size();
    return used < capacity_ ? capacity_ - used : 0;
  }

  /// The memoized Sigma() answer for `seeds`, or nullptr.
  const double* FindSigma(const SeedGroup& seeds) const {
    if (capacity_ == 0) return nullptr;
    auto it = sigma_.find(seeds);
    return it == sigma_.end() ? nullptr : &it->second;
  }
  void StoreSigma(const SeedGroup& seeds, double sigma) {
    if (sigma_.size() < capacity_) sigma_.emplace(seeds, sigma);
  }

  /// The memoized EvalMarket() answer for (`seeds`, `users`), or nullptr.
  const MarketEval* FindMarket(const SeedGroup& seeds,
                               const std::vector<UserId>& users) const {
    if (capacity_ == 0) return nullptr;
    auto market_it = market_.find(users);
    if (market_it == market_.end()) return nullptr;
    auto it = market_it->second.find(seeds);
    return it == market_it->second.end() ? nullptr : &it->second;
  }
  void StoreMarket(const SeedGroup& seeds, const std::vector<UserId>& users,
                   const MarketEval& eval) {
    if (market_entries_ >= capacity_) return;
    if (market_[users].emplace(seeds, eval).second) ++market_entries_;
  }

 private:
  size_t capacity_ = 0;
  std::map<SeedGroup, double> sigma_;
  std::map<std::vector<UserId>, std::map<SeedGroup, MarketEval>> market_;
  size_t market_entries_ = 0;
};

}  // namespace imdpp::diffusion

#endif  // IMDPP_DIFFUSION_SIGMA_MEMO_H_
