// Fig. 14 reproduction: sensitivity to the overlap threshold θ in TMI
// (markets sharing more than θ users join the same group G). The paper
// sweeps θ in the thousands (millions of users); scaled to our market
// sizes, the sweep is θ ∈ {0, 1, 2, 4, 8}.
#include <cstdio>

#include "bench/bench_common.h"

namespace imdpp::bench {
namespace {

void RunDataset(data::Dataset ds, TextTable& t,
                const std::vector<int>& thetas) {
  Effort effort;
  effort.selection_samples = 6;
  api::CampaignSession session(std::move(ds), MakeConfig(effort));
  std::vector<std::string> row{session.dataset().name};
  for (int theta : thetas) {
    session.SetProblem(400.0, 8);
    session.mutable_config().dysim.market.overlap_theta = theta;
    row.push_back(TextTable::Num(session.Run("dysim").sigma, 1));
  }
  t.AddRow(row);
}

}  // namespace
}  // namespace imdpp::bench

int main() {
  using namespace imdpp;
  using namespace imdpp::bench;
  std::printf("=== Fig. 14: sensitivity to theta (b=400, T=8) ===\n");
  const std::vector<int> thetas{0, 1, 2, 4, 8};
  TextTable t;
  std::vector<std::string> header{"dataset"};
  for (int th : thetas) header.push_back("theta=" + TextTable::Int(th));
  t.SetHeader(header);
  RunDataset(data::MakeYelpLike(0.4), t, thetas);
  RunDataset(data::MakeGowallaLike(0.4), t, thetas);
  RunDataset(data::MakeAmazonLike(0.4), t, thetas);
  RunDataset(data::MakeDoubanLike(0.3), t, thetas);
  std::printf("%s", t.Render().c_str());
  PrintShapeNote("Fig.14",
                 "interior sweet spot: very small theta over-fragments "
                 "promotional durations, very large theta lets overlapping "
                 "markets push substitutable items at common users; the "
                 "curve is shallow (paper reports mild sensitivity).");
  return 0;
}
