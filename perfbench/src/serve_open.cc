// serve-open: an open-loop flowsched_serve session of coflow.sebf at 64
// ports, driven in-process through RunWireSession (serve/daemon.h).
//
// Round k's ARRIVE/TICK text is released at its due time t0 + k * slot by
// an input stream the session reads; the session asks for round k+1's text
// once round k's MATCH line is written, which is when round k counts as
// decided. Latency runs from the due time, so a round that overruns its
// slot also delays the rounds after it, and that delay is counted.
//
// Why in-process and not over --unix/--tcp: the socket transport's
// FdStreamBuf flushes replies only when its 4 KB buffer fills, so a
// client that sends ARRIVE+TICK and waits gets no MATCH until STOP (stdin
// mode works only because cin is tied to cout). Timing through a socket
// would measure that buffering, not the scheduler.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <istream>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "bench.h"
#include "coflow/coflow_metrics.h"
#include "coflow/coflow_policies.h"
#include "core/online/simulator.h"
#include "model/coflow.h"
#include "serve/daemon.h"
#include "serve/wire_protocol.h"

namespace perfbench {
namespace {

using flowsched::Instance;
using flowsched::StreamingSummary;

constexpr const char* kPolicy = "coflow.sebf";
// Nominal cadence: about twice the median decision time on the reference
// machine, so the session is about half busy.
constexpr double kNominalSlotS = 250e-6;
// The arrivals are kStreams independent streams of kStreamRounds rounds,
// one session each: the per-stream maximum response is heavy-tailed, and
// averaging many streams keeps max_response steady across seeds.
constexpr int kStreams = 24;
constexpr int kStreamRounds = 300;
// Nominal-cadence sweeps over all streams alternate with unpaced passes
// for the whole run (at least kMinSweeps of each), so that each round's
// latency and each stream's session time is a minimum over repetitions
// spread across the run (see MinAcross).
constexpr int kMinSweeps = 3;
// A max-rate probe replays the first kProbeStreams streams kProbeRepeats
// times at one cadence and takes per-round minima. The cadence is
// sustained when p99 latency stays within one slot and lateness does not
// grow: over each session's last tenth of rounds the mean queue wait
// stays within a slot. Ladder rung i is 1000 * 2^(i/16) rounds per second.
constexpr int kProbeStreams = 8;
constexpr int kProbeRepeats = 3;
constexpr int kLadderRungs = 97;
double LadderRate(int i) { return 1000.0 * std::exp2(i / 16.0); }
// Generator overshoot beyond this share of a slot makes a cadence moot:
// the session would no longer see the offered rate. (Smaller overshoots
// only add to the measured latency, which runs from the due time.)
constexpr double kMaxSendLagShare = 0.5;

// Stream j of a run draws its arrivals from seed * 100 + j + 1.
std::string Spec(const Args& args, int j) {
  return "coflow:ports=64,load=0.9,rounds=" + std::to_string(kStreamRounds) +
         ",width=8,skew=0.7,seed=" + std::to_string(args.seed * 100 + j + 1);
}

// Per-round wire text: round t's ARRIVE lines and its TICK; one STOP at
// the end. `rounds` covers the drain (from the batch reference run).
std::vector<std::string> WireChunks(const Instance& instance,
                                    flowsched::Round rounds, bool* ordered) {
  std::vector<std::string> chunks(static_cast<std::size_t>(rounds) + 1);
  int next = 0;
  *ordered = true;
  for (flowsched::Round t = 0; t < rounds; ++t) {
    std::string& text = chunks[t];
    for (; next < instance.num_flows() && instance.flow(next).release <= t;
         ++next) {
      const flowsched::Flow& f = instance.flow(next);
      if (f.release != t) *ordered = false;
      text += "ARRIVE " + std::to_string(f.id) + ' ' + std::to_string(f.src) +
              ' ' + std::to_string(f.dst) + ' ' + std::to_string(f.demand);
      if (f.coflow != flowsched::kNoCoflow) {
        text += ' ' + std::to_string(f.coflow);
      }
      text += '\n';
    }
    text += "TICK\n";
  }
  chunks.back() = "STOP\n";
  if (next != instance.num_flows()) *ordered = false;
  return chunks;
}

// Counts reply bytes and ERROR lines without keeping the text.
class ReplySink : public std::streambuf {
 public:
  ReplySink() : buf_(1 << 16) { setp(buf_.data(), buf_.data() + buf_.size()); }
  long long bytes() const { return flushed_ + (pptr() - pbase()); }
  long long errors() {
    Drain();
    return errors_;
  }

 protected:
  int_type overflow(int_type c) override {
    Drain();
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(c);
      pbump(1);
    }
    return traits_type::not_eof(c);
  }
  int sync() override {
    Drain();
    return 0;
  }

 private:
  void Drain() {
    for (const char* p = pbase(); p < pptr(); ++p) {
      if (at_line_start_ && *p == 'E') ++errors_;  // Only ERROR starts with E.
      at_line_start_ = *p == '\n';
    }
    flushed_ += pptr() - pbase();
    setp(buf_.data(), buf_.data() + buf_.size());
  }

  std::vector<char> buf_;
  long long flushed_ = 0;
  long long errors_ = 0;
  bool at_line_start_ = true;
};

// Per-round timing of one paced session.
struct Pacing {
  std::vector<double> latency_us;  // Decided minus due.
  std::vector<double> wait_us;     // Released to the session minus due.
  std::vector<double> lag_us;      // Generator overshoot when it waited.
  std::vector<double> service_us;  // Decided minus released.
};

// The open-loop input stream: hands out round k's text no earlier than
// its due time and records when the session comes back for more.
class PacedInput : public std::streambuf {
 public:
  PacedInput(const std::vector<std::string>& chunks, double slot_s,
             Pacing* pacing)
      : chunks_(chunks),
        rounds_(chunks.size() - 1),
        slot_(std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(slot_s))),
        pacing_(pacing) {}

  Clock::time_point Due(std::size_t k) const {
    return t0_ + slot_ * static_cast<Clock::rep>(k);
  }

 protected:
  int_type underflow() override {
    const Clock::time_point now = Clock::now();
    if (next_ == 0) t0_ = now;
    if (next_ > 0 && next_ <= rounds_) {
      const std::size_t k = next_ - 1;
      pacing_->latency_us.push_back(SecondsBetween(Due(k), now) * 1e6);
      pacing_->service_us.push_back(SecondsBetween(released_, now) * 1e6);
    }
    if (next_ >= chunks_.size()) return traits_type::eof();
    if (next_ < rounds_) {
      const Clock::time_point due = Due(next_);
      Clock::time_point released = now;
      if (now < due) {
        pacing_->lag_us.push_back(WaitUntil(due) * 1e6);
        released = Clock::now();
      }
      pacing_->wait_us.push_back(SecondsBetween(due, released) * 1e6);
      released_ = released;
    }
    char* text = const_cast<char*>(chunks_[next_].data());
    setg(text, text, text + chunks_[next_].size());
    ++next_;
    return traits_type::to_int_type(*gptr());
  }

 private:
  const std::vector<std::string>& chunks_;
  const std::size_t rounds_;
  const Clock::duration slot_;
  Pacing* pacing_;
  std::size_t next_ = 0;
  Clock::time_point t0_;
  Clock::time_point released_;
};

struct Reference {
  flowsched::SimulationResult batch;
  double total_cct = 0.0;
  long long coflows = 0;
};

Reference BatchReference(const Instance& instance) {
  Reference ref;
  auto policy = flowsched::MakeCoflowPolicy("sebf");
  ref.batch = flowsched::Simulate(instance, *policy);
  if (!ref.batch.truncated) {
    const flowsched::CoflowSet groups(ref.batch.realized);
    ref.total_cct = flowsched::ComputeCoflowMetrics(
                        ref.batch.realized, groups, ref.batch.schedule)
                        .total_cct;
    ref.coflows = groups.num_groups();
  }
  return ref;
}

flowsched::ServeOptions Options() {
  flowsched::ServeOptions options;
  options.policy = kPolicy;
  return options;
}

// One full session against the batch reference: every round is an
// operation; a session whose DONE disagrees with batch fails all of them.
void CheckSession(const StreamingSummary& s, long long errors,
                  const Reference& ref, const Instance& instance,
                  const std::string& what, Outcome& outcome) {
  const bool same =
      !s.source_error && !s.truncated && s.flows == instance.num_flows() &&
      s.arrived == instance.num_flows() && s.rounds == ref.batch.rounds &&
      s.total_response == ref.batch.metrics.total_response &&
      s.max_response == ref.batch.metrics.max_response &&
      s.coflows == ref.coflows && s.total_cct == ref.total_cct;
  outcome.Check(same, what + ": DONE aggregates equal batch Simulate");
  outcome.Ops(ref.batch.rounds, same ? errors : ref.batch.rounds,
              what + ": rounds served without ERROR");
}

StreamingSummary RunPaced(const flowsched::SwitchSpec& sw,
                          const std::vector<std::string>& chunks,
                          double slot_s, Pacing* pacing, long long* errors) {
  ReplySink sink;
  std::ostream out(&sink);
  PacedInput paced(chunks, slot_s, pacing);
  std::istream in(&paced);
  const StreamingSummary summary =
      flowsched::RunWireSession(sw, in, out, Options());
  *errors = sink.errors();
  return summary;
}

// One arrival stream with everything a session needs.
struct Stream {
  Instance instance;
  Reference ref;
  std::vector<std::string> chunks;  // Per round, then STOP.
  std::string text;                 // All chunks, for unpaced sessions.
};

// Generates the streams' arrivals, their batch references (which fix how
// many rounds a session ticks) and their wire text.
bool MakeStreams(const Args& args, std::vector<Stream>* streams,
                 Outcome& outcome, Tracer* tracer) {
  streams->resize(kStreams);
  for (int j = 0; j < kStreams; ++j) {
    Stream& st = (*streams)[j];
    {
      ScopedSpan span(tracer, "workload.generate");
      if (!LoadSpec(Spec(args, j), &st.instance, outcome)) return false;
    }
    {
      ScopedSpan span(tracer, "core.simulate.reference");
      st.ref = BatchReference(st.instance);
      if (!outcome.Check(!st.ref.batch.truncated,
                         "batch reference of " + Spec(args, j) + " drains")) {
        return false;
      }
    }
    bool ordered = false;
    st.chunks = WireChunks(st.instance, st.ref.batch.rounds, &ordered);
    if (!outcome.Check(ordered, "arrivals of " + Spec(args, j) +
                                    " come in release order")) {
      return false;
    }
    st.text.clear();
    for (const std::string& c : st.chunks) st.text += c;
  }
  return true;
}

// Paced sessions of `count` streams at one cadence; per-round figures are
// appended stream after stream. Returns the ERROR-free, DONE-correct
// verdict and books every round as an operation.
bool RunPacedStreams(const std::vector<Stream>& streams, int count,
                     double slot_s, bool check_done, Pacing* pacing,
                     std::vector<std::size_t>* session_ends,
                     const std::string& what, Outcome& outcome) {
  bool ok = true;
  for (int j = 0; j < count; ++j) {
    const Stream& st = streams[j];
    long long errors = 0;
    const StreamingSummary s =
        RunPaced(st.instance.sw(), st.chunks, slot_s, pacing, &errors);
    if (session_ends != nullptr) session_ends->push_back(pacing->wait_us.size());
    if (check_done) {
      CheckSession(s, errors, st.ref, st.instance, what, outcome);
    } else {
      const bool clean = !s.source_error && errors == 0;
      outcome.Ops(st.ref.batch.rounds, clean ? 0 : st.ref.batch.rounds,
                  what + ": rounds served without ERROR");
    }
    ok = ok && !s.source_error && errors == 0;
  }
  return ok;
}

// p99 latency within the slot, and no session's mean queue wait over its
// last tenth of rounds past a slot (lateness that grows would).
bool Sustains(const Pacing& p, const std::vector<std::size_t>& session_ends,
              double slot_us) {
  if (p.latency_us.empty()) return false;
  std::size_t begin = 0;
  for (std::size_t end : session_ends) {
    const std::size_t tail = end - std::max<std::size_t>((end - begin) / 10, 1);
    double wait = 0.0;
    for (std::size_t k = tail; k < end; ++k) wait += p.wait_us[k];
    if (wait > slot_us * static_cast<double>(end - tail)) return false;
    begin = end;
  }
  return Quantile(p.latency_us, 0.99) <= slot_us;
}

void RunUntraced(const Args& args, Outcome& outcome) {
  const Clock::time_point start = Clock::now();
  std::vector<Stream> streams;
  if (!MakeStreams(args, &streams, outcome, nullptr)) return;

  // Set-up: arrival generation plus the wire text, five times (the batch
  // references are correctness checks, not set-up).
  std::vector<double> setup_s;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (int j = 0; j < kStreams; ++j) {
      Stream& st = streams[j];
      if (!LoadSpec(Spec(args, j), &st.instance, outcome)) return;
      bool ordered = false;
      st.chunks = WireChunks(st.instance, st.ref.batch.rounds, &ordered);
    }
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
  }

  // Paced and unpaced repetitions. A nominal sweep runs every stream at
  // the nominal cadence; an unpaced pass feeds each stream's whole text at
  // once and times its session.
  std::vector<std::vector<double>> sweeps, services;
  std::vector<double> lag_us;
  const auto nominal_sweep = [&] {
    Pacing pacing;
    RunPacedStreams(streams, kStreams, kNominalSlotS, true, &pacing, nullptr,
                    "paced sweep " + std::to_string(sweeps.size()), outcome);
    sweeps.push_back(std::move(pacing.latency_us));
    services.push_back(std::move(pacing.service_us));
    lag_us.insert(lag_us.end(), pacing.lag_us.begin(), pacing.lag_us.end());
  };
  std::vector<std::vector<double>> session_s(kStreams);
  int passes = 0;
  const auto unpaced_pass = [&] {
    for (int j = 0; j < kStreams; ++j) {
      const Stream& st = streams[j];
      std::istringstream in(st.text);
      ReplySink sink;
      std::ostream out(&sink);
      const Clock::time_point t0 = Clock::now();
      const StreamingSummary s =
          flowsched::RunWireSession(st.instance.sw(), in, out, Options());
      session_s[j].push_back(SecondsBetween(t0, Clock::now()));
      CheckSession(s, sink.errors(), st.ref, st.instance,
                   "unpaced pass " + std::to_string(passes), outcome);
    }
    ++passes;
  };
  // Two sweeps and a pass before the max-rate search, so that its start
  // does not rest on one cold sweep.
  nominal_sweep();
  unpaced_pass();
  nominal_sweep();
  // Peak resident set after set-up and the first repetitions; later ones
  // only repeat the work.
  const double peak_rss_mb = PeakRssMb();

  // Highest sustainable cadence on the ladder: start at the rung whose
  // slot matches the p99 service time so far (per-round minima), then walk
  // up while sustained or down until sustained.
  const auto sustained_at = [&](int rung) {
    const double slot_s = 1.0 / LadderRate(rung);
    std::vector<std::vector<double>> latency, wait;
    std::vector<std::size_t> ends;
    bool clean = true;
    for (int rep = 0; rep < kProbeRepeats; ++rep) {
      Pacing pacing;
      ends.clear();
      clean = RunPacedStreams(streams, kProbeStreams, slot_s, false, &pacing,
                              &ends,
                              "max-rate probe at " +
                                  std::to_string(LadderRate(rung)) +
                                  " rounds/s",
                              outcome) &&
              clean;
      latency.push_back(std::move(pacing.latency_us));
      wait.push_back(std::move(pacing.wait_us));
    }
    Pacing best;
    best.latency_us = MinAcross(latency);
    best.wait_us = MinAcross(wait);
    return clean && Sustains(best, ends, slot_s * 1e6);
  };
  const double service_p99_us = Quantile(MinAcross(services), 0.99);
  int rung = std::clamp(
      static_cast<int>(std::floor(16.0 * std::log2(1e6 / service_p99_us / 1000.0))),
      0, kLadderRungs - 1);
  const int start_rung = rung;
  int probes = 0;
  const auto probe = [&](int r) {
    ++probes;
    return sustained_at(r);
  };
  if (probe(rung)) {
    while (rung + 1 < kLadderRungs && probe(rung + 1)) ++rung;
  } else {
    do {
      --rung;
    } while (rung >= 0 && !probe(rung));
  }
  outcome.Check(rung >= 0, "the lowest ladder rung is sustained");
  const double max_rate = LadderRate(std::max(rung, 0));

  // Unpaced passes and nominal sweeps alternate until the time is used up.
  for (;;) {
    const Clock::time_point t0 = Clock::now();
    unpaced_pass();
    nominal_sweep();
    const double pair_s = SecondsBetween(t0, Clock::now());
    if (passes >= kMinSweeps &&
        SecondsBetween(start, Clock::now()) + 1.2 * pair_s > args.seconds) {
      break;
    }
  }
  const std::vector<double> latency_us = MinAcross(sweeps);
  const double send_lag_p99 = Quantile(lag_us, 0.99);
  std::ostringstream lag_note;
  lag_note << "generator overshoot p99 " << send_lag_p99
           << " us within " << kMaxSendLagShare << " of the slot";
  outcome.Check(send_lag_p99 <= kMaxSendLagShare * kNominalSlotS * 1e6,
                lag_note.str());

  Quality quality;
  double solve_s = 0.0;
  long long rounds = 0;
  for (int j = 0; j < kStreams; ++j) {
    const Stream& st = streams[j];
    quality.Add(st.ref.batch.realized, st.ref.batch.schedule,
                st.ref.batch.metrics.total_response,
                st.ref.batch.metrics.max_response);
    solve_s += Min(session_s[j]);
    rounds += st.ref.batch.rounds;
  }
  outcome.Metric("setup_s", Median(setup_s), "s");
  outcome.Metric("solve_s", solve_s, "s");
  outcome.Metric("avg_response", quality.avg_response(), "rounds");
  outcome.Metric("max_response", quality.max_response(), "rounds");
  outcome.Metric("avg_cct", quality.avg_cct(), "rounds");
  outcome.Metric("decision_p50_us", Quantile(latency_us, 0.50), "us");
  outcome.Metric("decision_p99_us", Quantile(latency_us, 0.99), "us");
  outcome.Metric("max_rate_rps", max_rate, "1/s");
  outcome.Metric("peak_rss_mb", peak_rss_mb, "MB");
  std::cout << "# streams " << kStreams << ", rounds " << rounds
            << ", nominal slot " << kNominalSlotS * 1e6
            << " us, send lag p99 " << send_lag_p99 << " us, max-rate probes "
            << probes << " from rung " << start_rung << " to " << rung
            << ", nominal sweeps " << sweeps.size()
            << ", unpaced passes " << passes << '\n';
  CheckPinned(args,
              {{"avg_response", quality.avg_response()},
               {"max_response", quality.max_response()},
               {"avg_cct", quality.avg_cct()}},
              outcome);
}

// Replays the session loop of RunWireSession (ARRIVE/TICK/STOP only) so
// each layer can be timed: ParseWireLine, Inject, Step and, through the
// decorator, the policy inside Step.
struct ManualSession {
  double parse_s = 0.0;
  double inject_s = 0.0;
  double step_s = 0.0;
  double busy_s = 0.0;
  double live_flows = 0.0;  // Summed over rounds.
  long long reply_bytes = 0;
  long long errors = 0;
  Pacing pacing;
};

// Accumulates into *m across calls (one call per stream).
StreamingSummary RunManual(const flowsched::SwitchSpec& sw,
                           const std::vector<std::string>& chunks,
                           double slot_s, TracingPolicy& policy,
                           Tracer* tracer, ManualSession* session) {
  ManualSession& m = *session;
  ReplySink sink;
  std::ostream out(&sink);
  flowsched::StreamingOptions options;
  options.match_out = &out;
  flowsched::StreamingSimulator sim(sw, policy, options);
  const auto slot = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(slot_s));
  const Clock::time_point t0 = Clock::now();
  flowsched::WireCommand command;
  std::string error, line;
  for (std::size_t k = 0; k + 1 < chunks.size(); ++k) {
    const Clock::time_point due = t0 + slot * static_cast<Clock::rep>(k);
    Clock::time_point released = Clock::now();
    if (slot_s > 0.0 && released < due) {
      m.pacing.lag_us.push_back(WaitUntil(due) * 1e6);
      released = Clock::now();
    }
    m.pacing.wait_us.push_back(SecondsBetween(due, released) * 1e6);
    {
      ScopedSpan round(tracer, "serve.round");
      std::istringstream lines(chunks[k]);
      while (std::getline(lines, line)) {
        const Clock::time_point p0 = Clock::now();
        const bool parsed = flowsched::ParseWireLine(line, &command, &error);
        const Clock::time_point p1 = Clock::now();
        m.parse_s += SecondsBetween(p0, p1);
        if (!parsed) {
          ++m.errors;
        } else if (command.kind == flowsched::WireCommand::Kind::kArrive) {
          if (!sim.Inject(command.flow, &error)) ++m.errors;
          m.inject_s += SecondsBetween(p1, Clock::now());
        } else if (command.kind == flowsched::WireCommand::Kind::kTick) {
          ScopedSpan step(tracer, "serve.step");
          sim.Step();
          m.step_s += SecondsBetween(p1, Clock::now());
        }
      }
    }
    const Clock::time_point done = Clock::now();
    m.busy_s += SecondsBetween(released, done);
    m.pacing.latency_us.push_back(SecondsBetween(due, done) * 1e6);
    m.live_flows += static_cast<double>(sim.backlog_size());
  }
  m.reply_bytes += sink.bytes();
  m.errors += sink.errors();
  return sim.Summarize();
}

void RunTraced(const Args& args, Outcome& outcome) {
  Tracer tracer(args.workload + "-seed" + std::to_string(args.seed));
  std::vector<Stream> streams;
  if (!MakeStreams(args, &streams, outcome, &tracer)) return;

  // The untraced sessions, unpaced, as the overhead baseline.
  double untraced_s = 0.0;
  for (const Stream& st : streams) {
    std::istringstream in(st.text);
    ReplySink sink;
    std::ostream out(&sink);
    const Clock::time_point t0 = Clock::now();
    StreamingSummary s;
    {
      ScopedSpan span(&tracer, "serve.session.untraced");
      s = flowsched::RunWireSession(st.instance.sw(), in, out, Options());
    }
    untraced_s += SecondsBetween(t0, Clock::now());
    CheckSession(s, sink.errors(), st.ref, st.instance, "untraced session",
                 outcome);
  }

  // The traced sessions at the nominal cadence.
  ManualSession m;
  double select_ms = 0.0;
  long long calls = 0, pending = 0, picked = 0;
  for (const Stream& st : streams) {
    auto policy = flowsched::MakeCoflowPolicy("sebf");
    TracingPolicy traced(*policy, &tracer, nullptr, nullptr);
    StreamingSummary s;
    {
      ScopedSpan span(&tracer, "serve.session");
      s = RunManual(st.instance.sw(), st.chunks, kNominalSlotS, traced,
                    &tracer, &m);
    }
    CheckSession(s, 0, st.ref, st.instance, "traced session", outcome);
    select_ms += traced.select_ms();
    calls += traced.calls();
    pending += traced.pending_total();
    picked += traced.picked_total();
  }
  outcome.Check(m.errors == 0, "traced sessions served without ERROR");

  // The replay sessions: each round's backlog through the coflow stats.
  CoflowStatsReplay stats(&tracer);
  for (const Stream& st : streams) {
    auto policy = flowsched::MakeCoflowPolicy("sebf");
    CoflowStatsReplay stream_stats(&tracer);
    TracingPolicy observed(*policy, nullptr, &stream_stats, nullptr);
    ManualSession r;
    StreamingSummary s;
    {
      ScopedSpan span(&tracer, "bench.replay");
      s = RunManual(st.instance.sw(), st.chunks, 0.0, observed, nullptr, &r);
    }
    CheckSession(s, r.errors, st.ref, st.instance, "replay session", outcome);
    stats.rounds += stream_stats.rounds;
    stats.live_groups += stream_stats.live_groups;
  }

  const double rounds = static_cast<double>(m.pacing.latency_us.size());
  const double per_round_us = rounds > 0 ? 1e6 / rounds : 0.0;
  long long late = 0;
  for (double l : m.pacing.latency_us) late += l > kNominalSlotS * 1e6;
  double wait_sum = 0.0;
  for (double w : m.pacing.wait_us) wait_sum += w;
  const double select_us = select_ms * 1e3;
  outcome.Metric("workload.generate_ms", tracer.TotalMs("workload.generate"),
                 "ms");
  outcome.Metric("serve.parse_us", m.parse_s * per_round_us, "us");
  outcome.Metric("serve.inject_us", m.inject_s * per_round_us, "us");
  outcome.Metric("serve.step_us", m.step_s * per_round_us, "us");
  outcome.Metric("serve.select_us", select_us / rounds, "us");
  outcome.Metric("serve.step_self_us",
                 (m.step_s * 1e6 - select_us) / rounds, "us");
  outcome.Metric("serve.queue_wait_us", wait_sum / rounds, "us");
  outcome.Metric("serve.late_round_frac", late / rounds, "ratio");
  outcome.Metric("serve.live_flows", m.live_flows / rounds, "count");
  outcome.Metric("serve.retired_per_round", static_cast<double>(picked) / rounds,
                 "count");
  outcome.Metric("serve.reply_bytes_per_round",
                 static_cast<double>(m.reply_bytes) / rounds, "bytes");
  outcome.Metric("core.simulate_ms", m.step_s * 1e3, "ms");
  outcome.Metric("core.select_ms", select_ms, "ms");
  outcome.Metric("core.loop_self_ms", m.step_s * 1e3 - select_ms, "ms");
  outcome.Metric("core.rounds", static_cast<double>(calls), "count");
  const double per_call = calls > 0 ? 1.0 / static_cast<double>(calls) : 0.0;
  outcome.Metric("core.pending_per_round", pending * per_call, "count");
  outcome.Metric("core.picked_per_round", picked * per_call, "count");
  outcome.Metric("core.select_yield",
                 pending > 0 ? static_cast<double>(picked) / pending : 0.0,
                 "ratio");
  outcome.Metric("coflow.stats_update_ms",
                 tracer.TotalMs("coflow.stats_update"), "ms");
  outcome.Metric("coflow.live_groups",
                 stats.rounds > 0 ? static_cast<double>(stats.live_groups) /
                                        stats.rounds
                                  : 0.0,
                 "count");
  outcome.Metric("bench.send_lag_p99_us", Quantile(m.pacing.lag_us, 0.99),
                 "us");
  outcome.Metric("bench.trace_overhead_frac", m.busy_s / untraced_s - 1.0,
                 "ratio");
  ReportTrace(args, tracer, outcome);
}

}  // namespace

void RunServeOpen(const Args& args, Outcome& outcome) {
  if (args.trace) {
    RunTraced(args, outcome);
  } else {
    RunUntraced(args, outcome);
  }
}

}  // namespace perfbench
