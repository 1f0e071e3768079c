#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "gate.hpp"
#include "jobs.hpp"

namespace perfbench {

namespace {

/// Set-ups timed on their own before the timed runs, on top of the one
/// each timed run pays; setup_s is the median of all of them.
constexpr std::size_t kSetupRepeats = 5;

/// Timed runs an untraced invocation makes at the least.  Before them comes
/// one untimed run, gated like the others: the quality run.  peak_rss_mb is
/// read right after it, so the figure does not grow with the number of
/// timed runs.
constexpr std::size_t kMinTimedRuns = 2;

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return std::nan("");
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) {
    return std::nan("");
  }
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Rounds after the cold round 0 (its flush first-touches every buffer).
bool warm(std::size_t round) { return round >= 1; }

/// M·B samples per round over the wall time of rounds 1..K of one trainer
/// run — the schedule's K−1 one-bit rounds and one flush.  Round t runs
/// from the end of sync t−1 to the end of sync t: apply, compute phase,
/// sync.
double trainer_samples_per_s(const JobSpec& spec, const TrainerRun& run) {
  const std::size_t k = spec.flush_period;
  const double wall = run.calls[k].end - run.calls[0].end;
  return static_cast<double>(spec.workers * spec.batch * k) / wall;
}

/// The same over the socket ring.  A rank's round t runs from its first
/// transport call of round t to its first of round t+1: comm, apply, the
/// next local step.  The slowest rank's rounds 1..K set the wall.
double socket_samples_per_s(const JobSpec& spec, const SocketRun& run) {
  const std::size_t k = spec.flush_period;
  double wall = 0.0;
  for (const std::vector<double>& starts : run.round_starts) {
    wall = std::max(wall, starts[k + 1] - starts[1]);
  }
  return static_cast<double>(spec.workers * spec.batch * k) / wall;
}

/// The same over the serial replay, whose round t runs from its first
/// sampler call to the end of its apply.
double replay_samples_per_s(const JobSpec& spec, const ReplayRun& run) {
  const std::size_t k = spec.flush_period;
  const double wall = std::accumulate(run.round_seconds.begin() + 1,
                                      run.round_seconds.begin() + k + 1, 0.0);
  return static_cast<double>(spec.workers * spec.batch * k) / wall;
}

void fail_into(Outcome& out, const Gate& gate, const std::string& run) {
  for (const std::string& failure : gate.failures()) {
    out.failures.push_back(run + ": " + failure);
  }
}

/// One attempt: `body` runs and gates into a Gate of its own.  An
/// exception or a failed check counts the attempt as failed.
template <typename Body>
bool attempt(Outcome& out, const std::string& label, Body body) {
  ++out.attempted;
  Gate gate;
  try {
    body(gate);
  } catch (const std::exception& error) {
    gate.require(false, error.what());
  }
  if (!gate.ok()) {
    ++out.failed;
    fail_into(out, gate, label);
  }
  return gate.ok();
}

void check_trainer_run(Gate& gate, const JobSpec& spec, const TrainerRun& run,
                       std::size_t rounds) {
  gate.require(!run.result.diverged, "training diverged");
  gate.require(run.result.rounds_completed == rounds,
               "trainer completed " +
                   std::to_string(run.result.rounds_completed) + " of " +
                   std::to_string(rounds) + " rounds");
  gate.require(run.calls.size() == rounds,
               "strategy saw " + std::to_string(run.calls.size()) +
                   " synchronize calls");
  gate.require(!run.result.evals.empty() &&
                   std::isfinite(run.result.evals.back().test_loss),
               "no finite held-out loss");
  for (std::size_t t = 0; t < run.calls.size(); ++t) {
    gate.require(run.calls[t].full_precision == (t % spec.flush_period == 0),
                 "round " + std::to_string(t) + " has the wrong kind");
  }
}

/// Rank digests equal to each other and to `expected`, and the wire bytes
/// equal to their closed forms.
void check_socket_run(Gate& gate, const Job& job, const SocketRun& run,
                      std::uint64_t expected) {
  const JobSpec& spec = job.spec();
  gate.require(run.round_starts.size() == spec.workers,
               "round clocks for " + std::to_string(run.round_starts.size()) +
                   " ranks");
  for (const auto& starts : run.round_starts) {
    gate.require(starts.size() == spec.rounds,
                 "round clock saw " + std::to_string(starts.size()) +
                     " rounds");
  }
  std::vector<std::uint64_t> digests;
  for (const auto& rank : run.ranks) {
    digests.push_back(rank.param_digest);
    gate.require(rank.rounds.size() == spec.rounds, "rank report count");
  }
  if (!gate.ok()) {
    return;
  }
  check_digests(gate, digests, expected, "rank");
  check_socket_bytes(gate, round_payload_bytes(run), round_kinds(run),
                     run.transport_payload_bytes, spec.workers,
                     job.param_count());
}

/// Round t's measured comm time over the ranks, seconds.  A rank's comm
/// time includes waiting for peers still in their local step, so the
/// largest — the first rank to arrive — spans the whole collective as the
/// round sees it; the smallest — the last to arrive, which waits for no
/// one — is the collective's own cost.
struct CommRange {
  double fastest = std::numeric_limits<double>::max();
  double slowest = 0.0;
};

CommRange comm_range(const SocketRun& run, std::size_t round) {
  CommRange range;
  for (const auto& rank : run.ranks) {
    const double comm = rank.rounds[round].measured_comm_seconds;
    range.fastest = std::min(range.fastest, comm);
    range.slowest = std::max(range.slowest, comm);
  }
  return range;
}

void add(Outcome& out, const std::string& name, double value,
         const std::string& unit) {
  out.metrics.push_back({name, value, unit});
}

// --- untraced invocation: the end-to-end metrics -----------------------------

void end_to_end(const Job& job, const Options& options, Outcome& out) {
  const JobSpec& spec = job.spec();
  std::vector<double> setups;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    setups.push_back(time_trainer_setup(job));
  }

  // The untimed quality run: one flush period, so the held-out loss is
  // taken before the round-K flush, whose jump makes the loss right after
  // it swing widely across seeds.  It also warms the process up.
  double test_loss = 0.0;
  double rss_mb = 0.0;
  const bool quality_ok = attempt(out, "quality run", [&](Gate& gate) {
    const TrainerRun quality = run_trainer(job, spec.flush_period);
    check_trainer_run(gate, spec, quality, spec.flush_period);
    test_loss = quality.result.evals.back().test_loss;
    rss_mb = peak_rss_mb();
  });

  // The timed runs, until --seconds have passed and at least two.
  std::vector<double> rates;
  std::vector<double> one_bit_ms;
  std::vector<double> flush_ms;
  std::optional<TrainerRun> first;
  const double start = now_seconds();
  for (std::size_t i = 0;
       i < kMinTimedRuns || now_seconds() - start < options.seconds; ++i) {
    attempt(out, "run " + std::to_string(i), [&](Gate& gate) {
      TrainerRun run = run_trainer(job);
      check_trainer_run(gate, spec, run, spec.rounds);
      if (gate.ok() && first) {
        // Every timed run of one invocation computes the same thing.
        check_digests(gate, {&run.digest, 1}, first->digest, "run");
        gate.require(
            run.result.total_wire_bits == first->result.total_wire_bits,
            "priced wire bits differ between runs");
      }
      if (!gate.ok()) {
        return;
      }
      setups.push_back(run.setup_seconds);
      rates.push_back(trainer_samples_per_s(spec, run));
      for (std::size_t t = 1; t < run.calls.size(); ++t) {
        const TimedSync::Call& call = run.calls[t];
        (call.full_precision ? flush_ms : one_bit_ms)
            .push_back((call.end - call.start) * 1e3);
      }
      if (!first) {
        first = std::move(run);
      }
    });
  }
  if (!quality_ok || !first) {
    return;
  }
  // The median over runs, so a run caught in a burst of host noise does
  // not move samples_per_s.
  add(out, "samples_per_s", median(rates), "samples/s");
  add(out, "setup_s", median(setups), "s");
  add(out, "test_loss", test_loss, "nats");
  add(out, "wire_bytes_per_round",
      first->result.total_wire_bits / 8.0 / static_cast<double>(spec.rounds),
      "bytes/round");
  add(out, "peak_rss_mb", rss_mb, "MB");
  add(out, "comm_ms_p50", quantile(one_bit_ms, 0.5), "ms");
  add(out, "comm_ms_p90", quantile(one_bit_ms, 0.9), "ms");
  add(out, "flush_comm_ms_p50", quantile(flush_ms, 0.5), "ms");
}

// --- traced invocation: the per-layer metrics --------------------------------

/// Per-round sum of the durations of spans called `name`, in ms.
std::vector<double> per_round_ms(const std::vector<Span>& spans,
                                 const char* name, std::size_t rounds) {
  std::vector<double> sums(rounds, 0.0);
  for (const Span& span : spans) {
    if (std::string_view(span.name) == name && span.round < rounds) {
      sums[span.round] += (span.end - span.start) * 1e3;
    }
  }
  return sums;
}

/// Mean over warm rounds of `values`, optionally only of one round kind.
double warm_mean(const std::vector<double>& values,
                 const std::vector<bool>& full_precision,
                 std::optional<bool> kind = std::nullopt) {
  std::vector<double> picked;
  for (std::size_t t = 0; t < values.size(); ++t) {
    if (warm(t) && (!kind || full_precision[t] == *kind)) {
      picked.push_back(values[t]);
    }
  }
  return mean(picked);
}

void write_spans(const std::string& path, const TrainerRun& trainer,
                 const ReplayRun& replay, const SocketRun& sockets,
                 double epoch) {
  std::ofstream file(path);
  if (!file) {
    throw std::runtime_error("cannot write trace file " + path);
  }
  auto line = [&](const char* source, const Span& span) {
    file << "{\"source\":\"" << source << "\",\"layer\":\"" << span.name
         << "\",\"rank\":" << span.rank << ",\"round\":" << span.round
         << ",\"start_ms\":" << (span.start - epoch) * 1e3
         << ",\"end_ms\":" << (span.end - epoch) * 1e3
         << ",\"bytes\":" << span.bytes << "}\n";
  };
  for (std::size_t t = 0; t < trainer.calls.size(); ++t) {
    const TimedSync::Call& call = trainer.calls[t];
    if (t > 0) {
      line("trainer", {"sim.compute_phase", 0, t, trainer.calls[t - 1].end,
                       call.start, 0});
    }
    line("trainer", {"core.sync", 0, t, call.start, call.end, 0});
  }
  for (const Span& span : replay.spans) {
    line("replay", span);
  }
  for (const Span& span : sockets.spans) {
    line("socket", span);
  }
}

/// How much slower the traced twin of a run was, % of the untraced rate.
double overhead_pct(double untraced_rate, double traced_rate) {
  return (untraced_rate - traced_rate) / untraced_rate * 100.0;
}

/// One pass of a traced invocation; its spans go to `trace_out` unless
/// that is empty.
void traced_pass(const Job& job, const std::string& trace_out, double epoch,
                 Outcome& out) {
  const JobSpec& spec = job.spec();
  const std::size_t rounds = spec.rounds;

  // The trainer, whose only probe is the TimedSync every run has; the
  // serial replay and the socket ring each untraced and traced.  Each run
  // is gated on its own, and all must land on the trainer's digest.
  std::optional<TrainerRun> trainer;
  std::optional<ReplayRun> replay_plain;
  std::optional<ReplayRun> replay;
  std::optional<SocketRun> sockets_plain;
  std::optional<SocketRun> sockets;
  if (!attempt(out, "trainer run", [&](Gate& gate) {
        trainer = run_trainer(job);
        check_trainer_run(gate, spec, *trainer, rounds);
      })) {
    return;
  }
  const std::uint64_t digest = trainer->digest;
  attempt(out, "untraced serial replay", [&](Gate& gate) {
    replay_plain = run_replay(job, false);
    check_digests(gate, {&replay_plain->digest, 1}, digest, "replay");
  });
  attempt(out, "traced serial replay", [&](Gate& gate) {
    replay = run_replay(job, true);
    check_digests(gate, {&replay->digest, 1}, digest, "replay");
  });
  attempt(out, "untraced socket run", [&](Gate& gate) {
    sockets_plain = run_sockets(job, false, rounds);
    check_socket_run(gate, job, *sockets_plain, digest);
  });
  attempt(out, "traced socket run", [&](Gate& gate) {
    sockets = run_sockets(job, true, rounds);
    check_socket_run(gate, job, *sockets, digest);
  });
  if (out.failed > 0) {
    return;
  }
  if (!trace_out.empty()) {
    write_spans(trace_out, *trainer, *replay, *sockets, epoch);
  }

  // Serial replay: the compute phase split by layer, summed over workers.
  const std::vector<bool>& kind = replay->full_precision;
  const auto replay_mean = [&](const char* name) {
    return warm_mean(per_round_ms(replay->spans, name, rounds), kind);
  };
  const double data = replay_mean("data.batch");
  const double forward = replay_mean("nn.forward");
  const double backward = replay_mean("nn.backward");
  const double optimizer = replay_mean("nn.optimizer");
  const double apply = replay_mean("nn.apply");
  const double replay_sync = replay_mean("core.sync");
  const double replay_round = replay_mean("round");

  // The real trainer, timed through TimedSync.
  std::vector<double> round_ms(rounds, 0.0);
  std::vector<double> gap_ms(rounds, 0.0);
  std::vector<double> sync_ms(rounds, 0.0);
  std::vector<double> predicted_ms(rounds, 0.0);
  for (std::size_t t = 1; t < rounds; ++t) {
    const TimedSync::Call& call = trainer->calls[t];
    const TimedSync::Call& previous = trainer->calls[t - 1];
    round_ms[t] = (call.end - previous.end) * 1e3;
    gap_ms[t] = (call.start - previous.end) * 1e3;
    sync_ms[t] = (call.end - call.start) * 1e3;
    predicted_ms[t] = call.predicted_seconds * 1e3;
  }
  // The gap between two syncs holds the previous round's apply and this
  // round's compute phase; the replay measured the apply.
  const double compute_phase = warm_mean(gap_ms, kind) - apply;

  // The socket ring, per rank and round, from the traced transports.
  const std::size_t m = spec.workers;
  std::vector<std::vector<double>> send_ms(m, std::vector<double>(rounds));
  std::vector<std::vector<double>> recv_ms(m, std::vector<double>(rounds));
  double send_calls = 0.0;
  double recv_calls = 0.0;
  double payload = 0.0;
  for (const Span& span : sockets->spans) {
    const bool send = std::string_view(span.name) == "net.send";
    (send ? send_ms : recv_ms)[span.rank][span.round] +=
        (span.end - span.start) * 1e3;
    (send ? send_calls : recv_calls) += 1.0;
    payload += send ? static_cast<double>(span.bytes) : 0.0;
  }
  const auto rank_mean = [&](const std::vector<std::vector<double>>& per_rank) {
    std::vector<double> per_round(rounds, 0.0);
    for (std::size_t t = 0; t < rounds; ++t) {
      for (std::size_t r = 0; r < m; ++r) {
        per_round[t] += per_rank[r][t] / static_cast<double>(m);
      }
    }
    return per_round;
  };
  const std::vector<double> send_round = rank_mean(send_ms);
  const std::vector<double> recv_round = rank_mean(recv_ms);
  // Rank round wall = first transport call of round t+1 minus that of t.
  std::vector<double> local_step;
  std::vector<double> comm;
  std::vector<double> skew;
  for (std::size_t t = 1; t + 1 < rounds; ++t) {
    const CommRange range = comm_range(*sockets, t);
    skew.push_back((range.slowest - range.fastest) * 1e3);
  }
  for (std::size_t r = 0; r < m; ++r) {
    const std::vector<double>& starts = sockets->round_starts[r];
    for (std::size_t t = 1; t + 1 < rounds; ++t) {
      const double wall = (starts[t + 1] - starts[t]) * 1e3;
      const double measured =
          sockets->ranks[r].rounds[t].measured_comm_seconds * 1e3;
      local_step.push_back(wall - measured);
      comm.push_back(measured);
    }
  }
  // Measured over predicted comm of the collective's own cost: the last
  // rank to arrive, which waits for no one.
  std::vector<double> ratio;
  for (std::size_t t = 1; t < rounds; ++t) {
    if (kind[t]) {
      continue;
    }
    ratio.push_back(comm_range(*sockets, t).fastest /
                    sockets->ranks.front().rounds[t].predicted_comm_seconds);
  }

  add(out, "data.batch_ms", data, "ms");
  add(out, "nn.forward_ms", forward, "ms");
  add(out, "nn.backward_ms", backward, "ms");
  add(out, "nn.optimizer_ms", optimizer, "ms");
  add(out, "nn.apply_ms", apply, "ms");
  add(out, "core.sync_ms.one_bit", warm_mean(sync_ms, kind, false), "ms");
  add(out, "core.sync_ms.flush", warm_mean(sync_ms, kind, true), "ms");
  add(out, "sim.replay_round_ms", replay_round, "ms");
  add(out, "other_ms",
      replay_round -
          (data + forward + backward + optimizer + replay_sync + apply),
      "ms");
  add(out, "sim.round_ms", warm_mean(round_ms, kind), "ms");
  add(out, "sim.compute_phase_ms", compute_phase, "ms");
  add(out, "sim.compute_speedup",
      (data + forward + backward + optimizer) / compute_phase, "ratio");
  add(out, "collectives.predicted_comm_ms",
      warm_mean(predicted_ms, kind, false), "ms");
  add(out, "net.send_block_ms.one_bit", warm_mean(send_round, kind, false),
      "ms");
  add(out, "net.send_block_ms.flush", warm_mean(send_round, kind, true), "ms");
  add(out, "net.recv_wait_ms.one_bit", warm_mean(recv_round, kind, false),
      "ms");
  add(out, "net.recv_wait_ms.flush", warm_mean(recv_round, kind, true), "ms");
  add(out, "net.send_calls", send_calls / static_cast<double>(rounds),
      "count");
  add(out, "net.recv_calls", recv_calls / static_cast<double>(rounds),
      "count");
  add(out, "net.payload_bytes", payload / static_cast<double>(rounds),
      "bytes");
  add(out, "dist.local_step_ms", mean(local_step), "ms");
  add(out, "dist.comm_ms", mean(comm), "ms");
  add(out, "dist.comm_skew_ms", mean(skew), "ms");
  add(out, "dist.prediction_ratio", median(ratio), "ratio");
  add(out, "trace.untraced_samples_per_s",
      trainer_samples_per_s(spec, *trainer), "samples/s");
  add(out, "trace.replay_overhead_pct",
      overhead_pct(replay_samples_per_s(spec, *replay_plain),
                   replay_samples_per_s(spec, *replay)),
      "%");
  add(out, "trace.socket_overhead_pct",
      overhead_pct(socket_samples_per_s(spec, *sockets_plain),
                   socket_samples_per_s(spec, *sockets)),
      "%");
}

/// Traced passes repeat until --seconds have passed (at least one); each
/// per-layer metric is the median over the passes, and the spans of the
/// first pass are written out.
void traced(const Job& job, const Options& options, Outcome& out) {
  const double epoch = now_seconds();
  std::vector<Outcome> passes;
  while (passes.empty() || now_seconds() - epoch < options.seconds) {
    Outcome pass;
    traced_pass(job, passes.empty() ? options.trace_out : std::string(),
                epoch, pass);
    out.attempted += pass.attempted;
    out.failed += pass.failed;
    out.failures.insert(out.failures.end(), pass.failures.begin(),
                        pass.failures.end());
    if (pass.failed > 0) {
      return;
    }
    passes.push_back(std::move(pass));
  }
  for (std::size_t i = 0; i < passes.front().metrics.size(); ++i) {
    std::vector<double> values;
    for (const Outcome& pass : passes) {
      values.push_back(pass.metrics[i].value);
    }
    const Metric& metric = passes.front().metrics[i];
    add(out, metric.name, median(values), metric.unit);
  }
}

}  // namespace

Outcome run_benchmark(const Options& options) {
  const Job job(job_spec(options.workload, options.quick), options.seed);
  Outcome out;
  try {
    if (options.trace) {
      traced(job, options, out);
    } else {
      end_to_end(job, options, out);
    }
  } catch (const std::exception& error) {
    out.failures.push_back(error.what());
    out.attempted = std::max<std::size_t>(out.attempted, 1);
    out.failed = std::max<std::size_t>(out.failed, 1);
  }
  for (const Metric& metric : out.metrics) {
    if (!std::isfinite(metric.value)) {
      out.failures.push_back("metric " + metric.name + " is not finite");
    }
  }
  return out;
}

std::string outcome_json(const Outcome& outcome) {
  std::ostringstream json;
  json << "{\"correct\": " << (outcome.correct() ? "true" : "false")
       << ", \"attempted\": " << outcome.attempted
       << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  const char* separator = "";
  for (const Metric& metric : outcome.metrics) {
    if (!std::isfinite(metric.value)) {
      continue;  // JSON has no NaN; run_benchmark already failed the run
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    json << separator << "\"" << metric.name
         << "\": {\"value\": " << value << ", \"unit\": \"" << metric.unit
         << "\"}";
    separator = ", ";
  }
  json << "}}";
  return json.str();
}

}  // namespace perfbench
