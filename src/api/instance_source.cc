#include "api/instance_source.h"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "api/spec_parser.h"
#include "api/traffic_spec.h"
#include "fabric/fabric_spec.h"
#include "model/trace_io.h"
#include "traffic/traffic_gen.h"
#include "workload/adversarial.h"
#include "workload/coflow_gen.h"
#include "workload/patterns.h"
#include "workload/poisson.h"

namespace flowsched {
namespace {

using api_spec::Spec;
using api_spec::SpecReader;
using api_spec::SplitSpec;

bool Fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

constexpr long long kMaxInt = std::numeric_limits<int>::max();
constexpr const char* kIntRange = "in [1, 2^31 - 1]";

// The keys the poisson and coflow generators share, value-checked: each
// out-of-range value is an error that names its key.
struct ArrivalKeys {
  long long ports = 0;
  Capacity cap = 0;
  double load = 0.0;
  long long rounds = 0;
  Capacity dmax = 0;
};

ArrivalKeys ReadArrivalKeys(SpecReader& r) {
  ArrivalKeys keys;
  keys.ports = r.GetInt("ports", 16);
  r.Check(keys.ports >= 1 && keys.ports <= kMaxInt, "ports", kIntRange);
  keys.cap = r.GetInt("cap", 1);
  r.Check(keys.cap >= 1, "cap", ">= 1");
  keys.load = r.Get("load", 1.0);
  r.Check(std::isfinite(keys.load) && keys.load >= 0.0, "load",
          "finite and >= 0");
  keys.rounds = r.GetInt("rounds", 10);
  r.Check(keys.rounds >= 1 && keys.rounds <= kMaxInt, "rounds", kIntRange);
  keys.dmax = r.GetInt("dmax", 1);
  r.Check(keys.dmax >= 1, "dmax", ">= 1");
  return keys;
}

// Reads (and thereby key- and value-checks) one generator spec;
// materializes the instance only when `generate` is set, so spec
// validation is free of generation cost. Both paths share every
// key read — the accepted-key set and value ranges cannot drift between
// validation and loading.
std::optional<Instance> Generate(const Spec& spec, std::string* error,
                                 bool generate) {
  SpecReader r(spec);
  std::optional<Instance> result;
  if (spec.generator == "poisson") {
    const PoissonConfig cfg = api_spec::ReadPoissonKeys(r);
    if (generate && r.ok()) result = GeneratePoisson(cfg);
  } else if (spec.generator == "coflow") {
    double load = 0.0;
    CoflowGenConfig cfg = api_spec::ReadCoflowKeys(r, &load);
    if (generate && r.ok()) {
      cfg.mean_coflows_per_round = api_spec::CoflowRate(cfg, load);
      result = GenerateCoflows(cfg);
    }
  } else if (spec.generator == "cdf") {
    // Realistic traffic: empirical flow sizes from a builtin datacenter
    // CDF (dist=websearch|fbhdp|alistorage) or an HPCC-format file=,
    // segmented into unit demands (traffic/traffic_gen.h). The CDF is
    // parsed even when only validating, so bad files fail fast.
    TrafficConfig cfg;
    std::string traffic_error;
    const bool traffic_ok =
        api_spec::ReadTrafficSpec(r, &cfg, &traffic_error);
    if (!traffic_ok) {
      r.CheckUnknown();
      Fail(error, r.ok() ? traffic_error
                         : traffic_error + "; " + r.error());
      return std::nullopt;
    }
    if (generate && r.ok()) result = GenerateTraffic(cfg);
  } else if (spec.generator == "shuffle") {
    const long long ports = r.GetInt("ports", 16);
    r.Check(ports >= 1 && ports <= kMaxInt, "ports", kIntRange);
    const long long wave = r.GetInt("wave", 4);
    r.Check(wave >= 1 && wave <= ports, "wave", "in [1, ports]");
    const long long waves = r.GetInt("waves", 3);
    r.Check(waves >= 1 && waves <= kMaxInt, "waves", kIntRange);
    const long long period = r.GetInt("period", 4);
    r.Check(period >= 1 && period <= kMaxInt, "period", kIntRange);
    if (generate && r.ok()) {
      result = ShuffleWaves(static_cast<int>(ports), static_cast<int>(wave),
                            static_cast<int>(waves), static_cast<int>(period));
    }
  } else if (spec.generator == "incast") {
    const long long ports = r.GetInt("ports", 16);
    r.Check(ports >= 1 && ports <= kMaxInt, "ports", kIntRange);
    const long long fanin = r.GetInt("fanin", ports - 1);
    r.Check(fanin >= 0 && fanin <= ports, "fanin", "in [0, ports]");
    const auto release = static_cast<Round>(r.GetInt("release", 0));
    if (generate && r.ok()) {
      const int n = static_cast<int>(ports);
      Instance instance(SwitchSpec::Uniform(n, n, 1), {});
      AddIncast(instance, /*sink=*/n - 1, static_cast<int>(fanin), release);
      result = std::move(instance);
    }
  } else if (spec.generator == "fig4a") {
    const long long phase = r.GetInt("phase", 6);
    r.Check(phase >= 1 && phase < kMaxInt, "phase", "in [1, 2^31 - 2]");
    const long long total = r.GetInt("total", 30);
    r.Check(total > phase && total <= kMaxInt, "total",
            "in [phase + 1, 2^31 - 1]");
    if (generate && r.ok()) {
      result = Fig4aInstance(static_cast<int>(phase), static_cast<int>(total));
    }
  } else if (spec.generator == "fig4b") {
    if (generate) result = Fig4bInstance();
  } else {
    Fail(error, "unknown generator \"" + spec.generator + "\"");
    return std::nullopt;
  }
  r.CheckUnknown();
  if (!r.ok()) {
    Fail(error, r.error());
    return std::nullopt;
  }
  if (!generate) return std::nullopt;
  if (auto verr = result->ValidationError()) {
    Fail(error, "generated instance invalid: " + *verr);
    return std::nullopt;
  }
  return result;
}

}  // namespace

namespace api_spec {

PoissonConfig ReadPoissonKeys(SpecReader& r) {
  const ArrivalKeys keys = ReadArrivalKeys(r);
  PoissonConfig cfg;
  cfg.num_inputs = cfg.num_outputs = static_cast<int>(keys.ports);
  cfg.port_capacity = keys.cap;
  cfg.mean_arrivals_per_round = keys.load * cfg.num_inputs;
  cfg.num_rounds = static_cast<int>(keys.rounds);
  cfg.max_demand = keys.dmax;
  cfg.seed = static_cast<std::uint64_t>(r.GetInt("seed", 1));
  return cfg;
}

CoflowGenConfig ReadCoflowKeys(SpecReader& r, double* load) {
  const ArrivalKeys keys = ReadArrivalKeys(r);
  *load = keys.load;
  CoflowGenConfig cfg;
  cfg.num_inputs = cfg.num_outputs = static_cast<int>(keys.ports);
  cfg.port_capacity = keys.cap;
  cfg.num_rounds = static_cast<int>(keys.rounds);
  const long long min_width = r.GetInt("minwidth", 1);
  const long long max_width = r.GetInt("width", 8);
  r.Check(min_width >= 1 && min_width <= kMaxInt, "minwidth", kIntRange);
  r.Check(max_width >= min_width && max_width <= kMaxInt, "width",
          "in [minwidth, 2^31 - 1]");
  cfg.min_width = static_cast<int>(min_width);
  cfg.max_width = static_cast<int>(max_width);
  cfg.width_skew = r.Get("skew", 1.0);
  r.Check(cfg.width_skew > 0.0 && cfg.width_skew <= 1.0, "skew",
          "in (0, 1]");
  cfg.max_demand = keys.dmax;
  cfg.seed = static_cast<std::uint64_t>(r.GetInt("seed", 1));
  return cfg;
}

double CoflowRate(const CoflowGenConfig& cfg, double load) {
  return load * cfg.num_inputs / MeanCoflowWidth(cfg);
}

}  // namespace api_spec

bool IsGeneratorSpec(const std::string& source) {
  const std::string name = source.substr(0, source.find(':'));
  return name == "poisson" || name == "coflow" || name == "cdf" ||
         name == "shuffle" || name == "incast" || name == "fig4a" ||
         name == "fig4b" || name == "fabric";
}

bool ValidateInstanceSpec(const std::string& source, std::string* error) {
  if (IsFabricSpec(source)) {
    FabricSpec fabric;
    if (!ParseFabricSpec(source, fabric, error)) return false;
    return ValidateInstanceSpec(fabric.inner, error);
  }
  if (!IsGeneratorSpec(source)) {
    // A source shaped like a generator spec — "name:key=value,..." with a
    // pathless name — that names no known generator is almost certainly a
    // typo'd generator name ("possion:ports=8"), not a file. Reject it now
    // with the name called out; genuine file paths (no '=' after the
    // colon, or path characters in the name) still defer to load time.
    const auto colon = source.find(':');
    if (colon != std::string::npos && colon > 0 &&
        source.find('=', colon) != std::string::npos) {
      const std::string name = source.substr(0, colon);
      if (name.find('/') == std::string::npos &&
          name.find('\\') == std::string::npos &&
          name.find('.') == std::string::npos) {
        return Fail(error, "unknown generator \"" + name +
                               "\" (and \"" + source +
                               "\" does not look like a file path)");
      }
    }
    return true;  // File paths check at load.
  }
  Spec spec;
  if (!SplitSpec(source, spec, error)) return false;
  std::string gen_error;
  Generate(spec, &gen_error, /*generate=*/false);
  if (!gen_error.empty()) return Fail(error, gen_error);
  return true;
}

std::optional<Instance> LoadInstance(const std::string& source,
                                     std::string* error) {
  if (IsFabricSpec(source)) {
    FabricSpec fabric;
    if (!ParseFabricSpec(source, fabric, error)) return std::nullopt;
    auto inner = LoadInstance(fabric.inner, error);
    if (!inner.has_value()) return std::nullopt;
    // The inner instance rides through unchanged (global port ids); the
    // stamp is what carries the topology to fabric.* solvers.
    inner->set_source(source);
    return inner;
  }
  if (IsGeneratorSpec(source)) {
    Spec spec;
    if (!SplitSpec(source, spec, error)) return std::nullopt;
    auto instance = Generate(spec, error, /*generate=*/true);
    if (instance.has_value()) instance->set_source(source);
    return instance;
  }
  std::ifstream in(source);
  if (!in) {
    Fail(error, "cannot open \"" + source +
                    "\" (not a file, and not a known generator spec)");
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();
  std::string parse_error;
  auto instance = LooksLikeCoflowTrace(content)
                      ? ReadCoflowTraceCsv(content, &parse_error)
                      : ReadInstanceCsv(content, &parse_error);
  if (!instance.has_value()) {
    Fail(error, source + ": " + parse_error);
    return std::nullopt;
  }
  instance->set_source(source);
  return instance;
}

}  // namespace flowsched
