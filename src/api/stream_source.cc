#include "api/stream_source.h"

#include <fstream>
#include <utility>

#include "api/instance_source.h"
#include "api/spec_parser.h"
#include "api/traffic_spec.h"
#include "serve/stream_sources.h"
#include "workload/coflow_gen.h"
#include "workload/poisson.h"

namespace flowsched {
namespace {

using api_spec::Spec;
using api_spec::SpecReader;
using api_spec::SplitSpec;

void Fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
}

// Owns the file stream a TraceStreamSource reads from; everything else
// forwards.
class FileTraceSource : public StreamingFlowSource {
 public:
  explicit FileTraceSource(const std::string& path)
      : in_(path), trace_(in_) {}

  const SwitchSpec& sw() const override { return trace_.sw(); }
  void ArrivalsInto(Round t, std::vector<Flow>* out) override {
    trace_.ArrivalsInto(t, out);
  }
  bool Exhausted(Round t) override { return trace_.Exhausted(t); }
  Round NextArrivalRound(Round t) override {
    return trace_.NextArrivalRound(t);
  }
  bool ok() const override { return trace_.ok(); }
  std::string error() const override { return trace_.error(); }

 private:
  std::ifstream in_;
  TraceStreamSource trace_;
};

// Takes `rounds=inf` out of the spec before SpecReader sees it (GetInt
// would reject "inf"); true when the stream is unbounded. A finite
// `rounds` stays for the shared key readers, which range-check it.
bool TakeUnboundedRounds(Spec& spec) {
  const auto it = spec.kv.find("rounds");
  if (it == spec.kv.end() || it->second != "inf") return false;
  spec.kv.erase(it);
  return true;
}

}  // namespace

std::unique_ptr<StreamingFlowSource> MakeStreamSource(
    const std::string& source, std::string* error) {
  if (!IsGeneratorSpec(source)) {
    std::ifstream probe(source);
    if (!probe) {
      Fail(error, "cannot open \"" + source +
                      "\" (not a file, and not a streamable generator spec)");
      return nullptr;
    }
    probe.close();
    auto trace = std::make_unique<FileTraceSource>(source);
    if (!trace->ok()) {
      Fail(error, source + ": " + trace->error());
      return nullptr;
    }
    return trace;
  }
  Spec spec;
  if (!SplitSpec(source, spec, error)) return nullptr;
  if (spec.generator != "poisson" && spec.generator != "coflow" &&
      spec.generator != "cdf") {
    Fail(error, "generator \"" + spec.generator +
                    "\" is batch-only; load it with LoadInstance and replay "
                    "through InstanceStreamSource");
    return nullptr;
  }
  const bool unbounded = TakeUnboundedRounds(spec);
  SpecReader r(spec);
  std::unique_ptr<StreamingFlowSource> result;
  // An unbounded stream needs arrivals, or the end-of-stream scan would
  // never terminate.
  const auto needs_load = [&](double rate) {
    if (!r.ok() || !unbounded || rate > 0.0) return false;
    Fail(error, "rounds=inf needs load > 0");
    return true;
  };
  if (spec.generator == "poisson") {
    PoissonConfig cfg = api_spec::ReadPoissonKeys(r);
    r.CheckUnknown();
    if (needs_load(cfg.mean_arrivals_per_round)) return nullptr;
    if (r.ok()) {
      const Round horizon = unbounded ? -1 : cfg.num_rounds;
      cfg.num_rounds = 1;  // Unused on the streaming path.
      result = std::make_unique<PoissonStreamSource>(cfg, horizon);
    }
  } else if (spec.generator == "coflow") {
    double load = 0.0;
    CoflowGenConfig cfg = api_spec::ReadCoflowKeys(r, &load);
    r.CheckUnknown();
    if (needs_load(load)) return nullptr;
    if (r.ok()) {
      const Round horizon = unbounded ? -1 : cfg.num_rounds;
      cfg.num_rounds = 1;  // Unused on the streaming path.
      cfg.mean_coflows_per_round = api_spec::CoflowRate(cfg, load);
      result = std::make_unique<CoflowStreamSource>(cfg, horizon);
    }
  } else {
    // cdf: shares key reading with the batch loader (api/traffic_spec.h),
    // so the two paths draw byte-identical finite workloads.
    TrafficConfig cfg;
    std::string traffic_error;
    const bool traffic_ok = api_spec::ReadTrafficSpec(r, &cfg, &traffic_error);
    r.CheckUnknown();
    if (!traffic_ok) {
      Fail(error, r.ok() ? traffic_error
                         : traffic_error + "; " + r.error());
      return nullptr;
    }
    if (needs_load(cfg.load)) return nullptr;
    if (r.ok()) {
      const Round horizon = unbounded ? -1 : cfg.num_rounds;
      cfg.num_rounds = 1;  // Unused on the streaming path.
      result = std::make_unique<TrafficStreamSource>(cfg, horizon);
    }
  }
  if (!r.ok()) {
    Fail(error, r.error());
    return nullptr;
  }
  return result;
}

}  // namespace flowsched
