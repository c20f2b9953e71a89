#include "serve/streaming_metrics.h"

#include "util/json.h"

namespace flowsched {
namespace {

void AppendDistribution(std::string& out, const char* prefix,
                        const StreamingDistribution& d) {
  std::string key(prefix);
  const std::size_t base = key.size();
  auto field = [&](const char* suffix, double v) {
    key.resize(base);
    key += suffix;
    AppendJsonNumber(out, key.c_str(), v);
  };
  field("_count", static_cast<double>(d.total().count()));
  field("_mean", d.total().mean());
  field("_max", d.total().max());
  field("_p50", d.p50());
  field("_p95", d.p95());
  field("_p99", d.p99());
  field("_win_count", static_cast<double>(d.window().count()));
  field("_win_mean", d.window().mean());
  field("_win_max", d.window().max());
}

}  // namespace

void StreamingDistribution::Add(double x) {
  total_.Add(x);
  window_.Add(x);
  p50_.Add(x);
  p95_.Add(x);
  p99_.Add(x);
}

std::string StreamingMetrics::StatsLine(Round t, std::size_t backlog) {
  std::string out = "{";
  AppendJsonNumber(out, "round", static_cast<double>(t));
  AppendJsonNumber(out, "backlog", static_cast<double>(backlog));
  AppendDistribution(out, "resp", response_);
  AppendDistribution(out, "cct", cct_);
  out += '}';
  response_.ResetWindow();
  cct_.ResetWindow();
  return out;
}

}  // namespace flowsched
