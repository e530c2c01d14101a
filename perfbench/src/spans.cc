#include "spans.h"

#include <string>
#include <vector>

#include "util/json.h"

namespace perfbench {

namespace util = imdpp::util;

namespace {

std::string_view FamilyOf(std::string_view name) {
  return name.substr(0, name.find('.'));
}

struct Open {
  std::string name;
  int64_t begin_us = 0;
  int64_t child_us = 0;
  bool outer = true;
};

struct Track {
  std::vector<Open> stack;
  std::map<std::string, int, std::less<>> open_families;
};

}  // namespace

util::StatusOr<SpanTable> SummarizeTrace(std::string_view trace_json) {
  util::Json doc;
  std::string error;
  if (!util::Json::Parse(trace_json, &doc, &error)) {
    return util::InvalidArgumentError("trace: " + error);
  }
  const util::Json* events = doc.Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return util::InvalidArgumentError("trace: no traceEvents array");
  }
  SpanTable table;
  std::map<int64_t, Track> tracks;
  for (const util::Json& e : events->elements()) {
    const util::Json* ph = e.Find("ph");
    if (ph == nullptr || !ph->is_string()) continue;
    const std::string& phase = ph->AsString();
    if (phase != "B" && phase != "E") continue;  // metadata
    const std::string& name = e.Find("name")->AsString();
    const int64_t ts = e.Find("ts")->AsInt();
    Track& track = tracks[e.Find("tid")->AsInt()];
    const std::string family(FamilyOf(name));
    if (phase == "B") {
      const bool outer = track.open_families[family] == 0;
      ++track.open_families[family];
      track.stack.push_back({name, ts, 0, outer});
      continue;
    }
    if (track.stack.empty() || track.stack.back().name != name) {
      return util::InvalidArgumentError("trace: unbalanced end of " + name);
    }
    const Open open = track.stack.back();
    track.stack.pop_back();
    --track.open_families[family];
    const int64_t duration = ts - open.begin_us;
    if (!track.stack.empty()) track.stack.back().child_us += duration;
    SpanTotals& totals = table[name];
    ++totals.count;
    totals.inclusive_s += duration * 1e-6;
    totals.self_s += (duration - open.child_us) * 1e-6;
    if (open.outer) totals.outer_s += duration * 1e-6;
  }
  for (const auto& [tid, track] : tracks) {
    if (!track.stack.empty()) {
      return util::InvalidArgumentError("trace: unclosed span " +
                                        track.stack.back().name);
    }
  }
  return table;
}

double FamilyOuterSeconds(const SpanTable& table, std::string_view family) {
  double total = 0.0;
  for (const auto& [name, totals] : table) {
    if (name.size() > family.size() && name.compare(0, family.size(), family) == 0 &&
        name[family.size()] == '.') {
      total += totals.outer_s;
    }
  }
  return total;
}

}  // namespace perfbench
