#include "api/traffic_spec.h"

#include <limits>

#include "traffic/builtin_cdfs.h"
#include "traffic/size_cdf.h"

namespace flowsched {
namespace api_spec {
namespace {

bool Fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

}  // namespace

bool ReadTrafficSpec(SpecReader& r, TrafficConfig* config,
                     std::string* error) {
  config->num_inputs = config->num_outputs =
      static_cast<int>(r.GetInt("ports", 16));
  config->port_capacity = r.GetInt("cap", 1);
  config->load = r.Get("load", 0.9);
  config->unit = r.Get("unit", 0.0);
  config->min_width = static_cast<int>(r.GetInt("minwidth", 1));
  config->max_width = static_cast<int>(r.GetInt("width", 0));
  config->width_skew = r.Get("skew", 1.0);
  config->seed = static_cast<std::uint64_t>(r.GetInt("seed", 1));
  const long long rounds = r.GetInt("rounds", 10);
  r.Check(rounds >= 1 && rounds <= std::numeric_limits<int>::max(), "rounds",
          "in [1, 2^31 - 1]");
  config->num_rounds = static_cast<int>(rounds);

  const std::string dist = r.GetString("dist", "");
  const std::string file = r.GetString("file", "");
  if (!dist.empty() && !file.empty()) {
    return Fail(error, "cdf: give dist= or file=, not both");
  }
  std::string cdf_error;
  if (!file.empty()) {
    if (!SizeCdf::ParseFile(file, &config->cdf, &cdf_error)) {
      return Fail(error, cdf_error);
    }
  } else {
    const std::string name = dist.empty() ? "websearch" : dist;
    const char* text = BuiltinCdfText(name);
    if (text == nullptr) {
      std::string names;
      for (const std::string& n : BuiltinCdfNames()) {
        if (!names.empty()) names += ", ";
        names += n;
      }
      return Fail(error, "unknown dist \"" + name + "\" (builtins: " + names +
                             "; or pass file=<path>)");
    }
    // Builtins are sync-tested against the checked-in files; a parse
    // failure here is a build defect, but report it rather than abort.
    if (!SizeCdf::ParseText(text, &config->cdf, &cdf_error)) {
      return Fail(error, "builtin CDF " + name + ": " + cdf_error);
    }
  }

  if (config->num_inputs <= 0 || config->port_capacity < 1 ||
      config->load < 0.0 || config->unit < 0.0 || config->min_width < 1 ||
      config->max_width < 0 ||
      (config->max_width > 0 &&
       (config->max_width < config->min_width || config->width_skew <= 0.0 ||
        config->width_skew > 1.0))) {
    return Fail(error,
                "spec values out of range (need ports>0, cap>=1, load>=0, "
                "unit>=0, width=0 for untagged or width>=minwidth>=1 with "
                "0<skew<=1)");
  }
  return true;
}

}  // namespace api_spec
}  // namespace flowsched
