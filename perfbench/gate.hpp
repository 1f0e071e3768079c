// The benchmark's correctness gate: pure checks over what a run produced.
//
// Every check appends a human-readable failure to a Gate instead of
// throwing, so one run reports all of its defects and the caller can count
// the run as failed against the runs attempted.  The checks take plain
// numbers, which lets the self-test feed them a wrong digest or an
// off-by-one byte count and see them refuse it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

class Gate {
 public:
  void require(bool condition, const std::string& failure);
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

/// Every digest in `digests` must equal `expected`; `what` names the source
/// of each digest ("rank", "run") in the failure message.
void check_digests(Gate& gate, std::span<const std::uint64_t> digests,
                   std::uint64_t expected, const char* what);

/// Payload bytes all M ranks put on the wire in one one-bit reduce-scatter
/// round: 2(M−1)·D sign bits, D padded to whole 64-bit words.
std::uint64_t one_bit_round_bytes(std::size_t workers, std::size_t dim);

/// Payload bytes of one full-precision flush round: the all-gather plane
/// hands every rank's D floats to the M−1 others, M(M−1)·D·4 bytes on the
/// ring and on the torus alike (row gather plus whole-row column bundles).
std::uint64_t flush_round_bytes(std::size_t workers, std::size_t dim);

/// The socket byte gate.  `round_bytes[t]` is round t's payload bytes
/// summed over ranks, `full_precision[t]` its kind, and
/// `transport_payload_bytes` the sum over ranks of the transports' own
/// payload_bytes_sent() counters for the whole run.  Each round must match
/// its closed form and the counters must match the rounds' total.
void check_socket_bytes(Gate& gate, std::span<const std::uint64_t> round_bytes,
                        const std::vector<bool>& full_precision,
                        std::uint64_t transport_payload_bytes,
                        std::size_t workers, std::size_t dim);

}  // namespace perfbench
