// Benchmark-local probes around the program's public interfaces.
//
// Both are decorators: they forward every call to the real object and
// timestamp it, so the program under test runs unmodified.
//
//   TimedSync       a SyncStrategy that forwards synchronize() to the real
//                   strategy the trainer would have used.  Its call
//                   timestamps mark each round's sync phase and, by
//                   difference, the compute phase and the round boundaries.
//   TracedTransport a Transport that forwards to one SocketTransport and
//                   notes when the rank makes its first call of each round
//                   (the round the worker's tag encodes) — the socket
//                   ring's round clock.  Traced, it also records a span per
//                   send()/recv().
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/sync_strategy.hpp"
#include "net/transport.hpp"

namespace perfbench {

/// Seconds on the benchmark's one monotonic clock.
double now_seconds();

class TimedSync final : public marsit::SyncStrategy {
 public:
  struct Call {
    double start = 0.0;  // now_seconds() when synchronize() was entered
    double end = 0.0;
    bool full_precision = false;
    /// The α–β prediction the strategy priced for this round, seconds.
    double predicted_seconds = 0.0;
  };

  /// `inner` must outlive this decorator and is driven only through it.
  explicit TimedSync(marsit::SyncStrategy& inner);

  std::string name() const override { return inner_.name(); }
  std::size_t flush_period() const override { return inner_.flush_period(); }

  const std::vector<Call>& calls() const { return calls_; }

 private:
  marsit::SyncStepResult do_synchronize(const marsit::WorkerSpans& inputs,
                                        std::span<float> out) override;

  marsit::SyncStrategy& inner_;
  std::vector<Call> calls_;
};

/// One timed call into a layer, kept in memory until the run ends.
struct Span {
  const char* name = "";  // static string naming the layer call
  std::size_t rank = 0;
  std::size_t round = 0;
  double start = 0.0;
  double end = 0.0;
  std::uint64_t bytes = 0;
};

class TracedTransport final : public marsit::Transport {
 public:
  /// `inner` must outlive this decorator.  Without `record_spans` only the
  /// round clock runs.
  TracedTransport(marsit::Transport& inner, bool record_spans);

  std::size_t rank() const override { return inner_.rank(); }
  std::size_t world_size() const override { return inner_.world_size(); }

  void send(std::size_t peer, std::uint32_t tag,
            std::span<const std::uint8_t> payload) override;
  std::vector<std::uint8_t> recv(std::size_t peer,
                                 std::uint32_t tag) override;

  const std::vector<Span>& spans() const { return spans_; }
  /// round_starts()[t]: when this rank first called send() or recv() in
  /// round t.
  const std::vector<double>& round_starts() const { return round_starts_; }

 private:
  void record(const Span& span);

  marsit::Transport& inner_;
  bool record_spans_;
  std::vector<Span> spans_;
  std::vector<double> round_starts_;
};

/// The round a dist worker's message tag belongs to: run_marsit_worker
/// gives round t the four tag streams (t << 2) + {0..3}.
inline std::size_t round_of_tag(std::uint32_t tag) { return tag >> 2; }

}  // namespace perfbench
