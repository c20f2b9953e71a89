// Concrete StreamingFlowSource adapters for unmaterialized streams (the
// instance replayer, InstanceStreamSource, lives with the round engine in
// core/online/round_engine.h):
//
//   PoissonStreamSource    draws workload/poisson.h rounds on demand; with
//                          a negative horizon the stream never ends.
//   CoflowStreamSource     likewise for workload/coflow_gen.h.
//   TrafficStreamSource    likewise for traffic/traffic_gen.h (CDF-driven
//                          realistic workloads).
//   TraceStreamSource      reads instance-CSV rows line by line through
//                          model/trace_io.h's InstanceCsvReader; rows must
//                          be sorted by release (generator-written traces
//                          are), out-of-order rows are a stream error.
//
// Generator sources draw whole rounds in round order — the same RNG
// consumption as the batch generators — and buffer only the latest drawn,
// not-yet-emitted arrivals (at most one nonempty round ahead).
#ifndef FLOWSCHED_SERVE_STREAM_SOURCES_H_
#define FLOWSCHED_SERVE_STREAM_SOURCES_H_

#include <istream>
#include <vector>

#include "core/online/round_engine.h"
#include "model/trace_io.h"
#include "traffic/traffic_gen.h"
#include "util/rng.h"
#include "workload/coflow_gen.h"
#include "workload/poisson.h"

namespace flowsched {

// Shared draw-ahead machinery of the generator-backed sources. The horizon
// is the number of rounds the generator runs for; negative means unbounded
// (rounds=inf specs). Unbounded streams require a positive arrival rate —
// otherwise the draw-ahead scan for the next nonempty round would never
// terminate; MakeStreamSource enforces that.
class RoundGeneratorSource : public StreamingFlowSource {
 public:
  const SwitchSpec& sw() const override { return sw_; }
  void ArrivalsInto(Round t, std::vector<Flow>* out) override;
  bool Exhausted(Round t) override;
  Round NextArrivalRound(Round t) override;

 protected:
  RoundGeneratorSource(SwitchSpec sw, Round horizon)
      : sw_(std::move(sw)), horizon_(horizon) {}

  // Appends round t's arrivals (release = t) to *out.
  virtual void DrawRound(Round t, std::vector<Flow>* out) = 0;

 private:
  bool DrawingDone() const { return horizon_ >= 0 && next_draw_ >= horizon_; }
  void DrawThrough(Round t);
  void DrawUntilNonEmpty();

  SwitchSpec sw_;
  Round horizon_;
  Round next_draw_ = 0;
  std::vector<Flow> buffer_;  // Drawn, unemitted; releases non-decreasing.
};

class PoissonStreamSource : public RoundGeneratorSource {
 public:
  // `horizon` < 0 streams forever; config.num_rounds is ignored.
  PoissonStreamSource(const PoissonConfig& config, Round horizon);

 protected:
  void DrawRound(Round t, std::vector<Flow>* out) override;

 private:
  PoissonConfig config_;
  Rng rng_;
};

class CoflowStreamSource : public RoundGeneratorSource {
 public:
  CoflowStreamSource(const CoflowGenConfig& config, Round horizon);

 protected:
  void DrawRound(Round t, std::vector<Flow>* out) override;

 private:
  CoflowGenConfig config_;
  Rng rng_;
  CoflowId next_coflow_ = 0;
};

class TrafficStreamSource : public RoundGeneratorSource {
 public:
  // `config` must pass GenerateTraffic's validation; config.num_rounds is
  // ignored (the horizon rules).
  TrafficStreamSource(const TrafficConfig& config, Round horizon);

 protected:
  void DrawRound(Round t, std::vector<Flow>* out) override;

 private:
  TrafficConfig config_;
  Rng rng_;
  CoflowId next_coflow_ = 0;
};

// Streams instance-CSV rows from `in` (borrowed; must outlive the source)
// without materializing the file. Requires rows sorted by release; a
// malformed or out-of-order row flips ok() and ends the stream.
class TraceStreamSource : public StreamingFlowSource {
 public:
  explicit TraceStreamSource(std::istream& in);

  const SwitchSpec& sw() const override { return reader_.sw(); }
  void ArrivalsInto(Round t, std::vector<Flow>* out) override;
  bool Exhausted(Round /*t*/) override { return !have_lookahead_; }
  Round NextArrivalRound(Round t) override;
  bool ok() const override { return error_.empty(); }
  std::string error() const override { return error_; }

 private:
  void Pull();  // Advances the one-row lookahead.

  InstanceCsvReader reader_;
  Flow lookahead_;
  bool have_lookahead_ = false;
  std::string error_;
};

}  // namespace flowsched

#endif  // FLOWSCHED_SERVE_STREAM_SOURCES_H_
