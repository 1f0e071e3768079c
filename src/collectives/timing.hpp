// α–β pricing vocabulary: wire formats, the CollectiveTiming a pricer
// returns, the parameter-server pricer and the pipelined composition.
//
// A pricer answers "how long does one synchronization of a D-element
// gradient take, and how many bits cross the wire" for a given *wire
// format*.  The wire format abstracts what a method transmits per hop:
// full-precision floats (PSGD), growing sign-sums (signSGD/EF/SSDM under
// MAR), constant one-bit vectors (Marsit), or compressed segments with a
// serial decompress-recompress stage (cascading compression).
//
// Ring, torus and tree rounds are priced by replaying their hop schedule
// (price_schedule in core/schedule.hpp), so each hop order is written once.
// The parameter server is priced here by hand: it models the paper's PS
// baseline, a dedicated server node and M pushes, not the runtime PS
// schedule, which puts the server on member 0 (DESIGN.md §5).
//
// The actual aggregation arithmetic runs separately on full vectors (see
// aggregators.hpp and src/core): elementwise aggregation is invariant to how
// a vector is chunked into segments, so values and timing can be computed
// independently without loss of fidelity.  DESIGN.md §5 records this
// decoupling.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "net/cost_model.hpp"
#include "net/network_sim.hpp"

namespace marsit {

/// What a synchronization method puts on the wire and what it costs to
/// produce.  All rates come from CostModel; WireFormat carries *per-element
/// seconds* so schedules stay independent of the model struct.
struct WireFormat {
  /// Bits of a reduce-phase message carrying `elements` elements aggregated
  /// from `contributions` workers.  For Marsit this is `elements` (constant);
  /// for sign-sums it grows with ⌈log2(c+1)⌉+1; floats are 32·elements.
  std::function<double(std::size_t elements, std::size_t contributions)>
      reduce_bits;

  /// Bits of a gather/broadcast-phase message of `elements` finalized
  /// elements.
  std::function<double(std::size_t elements)> gather_bits;

  /// Per-element seconds of processing that sits on the hop critical path
  /// (cascading compression's decompress-add-recompress).
  double serial_seconds_per_element = 0.0;

  /// Per-element seconds of processing that overlaps with the receive
  /// (Marsit's transient-vector generation + bit-wise combine: paper §4.1.1
  /// "reception and compression processes can take place in parallel").
  /// Counted in the compression phase but not on the critical path.
  double overlapped_seconds_per_element = 0.0;

  /// One-time per-element pack cost before the first send (sign packing).
  double initial_pack_seconds_per_element = 0.0;

  /// Per-element cost to decode the final aggregate at each worker.
  double final_unpack_seconds_per_element = 0.0;
};

// Ready-made wire formats ----------------------------------------------------

/// 32-bit float payloads, no compression cost (PSGD).
WireFormat full_precision_wire();

/// Sign-sum payloads with fixed-width ⌈log2(c+1)⌉+1 bits/element;
/// `scalars_per_message` extra floats ride along (SSDM's norms, EF's scales).
WireFormat sign_sum_wire(const CostModel& model,
                         std::size_t scalars_per_message = 0);

/// Sign-sum payloads recoded with Elias-γ.  `elias_bits_per_element(c)` must
/// return the measured average code length at contribution count c (the
/// aggregators record it from real data).
WireFormat sign_sum_elias_wire(
    const CostModel& model,
    std::function<double(std::size_t contributions)> elias_bits_per_element);

/// Marsit's constant one-bit payloads; combine overlaps with receive.
WireFormat marsit_wire(const CostModel& model);

/// Cascading compression: one-bit payload + a 32-bit norm per message, with
/// the full decompress-add-recompress on the critical path of every hop.
WireFormat cascading_wire(const CostModel& model);

// Pricers ---------------------------------------------------------------------

struct CollectiveTiming {
  /// Wall-clock (simulated) seconds from start to every worker holding the
  /// final aggregate.
  double completion_seconds = 0.0;
  /// Payload bits that crossed the wire, summed over all messages.
  double total_wire_bits = 0.0;
  /// Bits sent by one (representative) worker — the per-worker communication
  /// budget axis of Figure 4b.
  double bits_per_worker = 0.0;
  /// Compression work on one worker's critical path (initial pack, per-hop
  /// serial processing, final unpack) — included in completion_seconds, so
  /// `completion − serial` is the pure communication share.
  double serial_compression_seconds_per_worker = 0.0;
  /// Compression work hidden behind receives (Marsit's ⊙ combine) — NOT part
  /// of completion_seconds.
  double overlapped_compression_seconds_per_worker = 0.0;
  /// Payload bits burned by lost attempts (fault injection): retransmitted
  /// on top of total_wire_bits.  Zero without an attached FaultPlan.
  double retransmitted_wire_bits = 0.0;
  /// Lost-and-retried transmission attempts this collective.
  std::size_t retransmissions = 0;
  /// Sum-of-stages serial reference of a pipelined collective: what the
  /// same chunks would cost run strictly pack → transfer → fold, one chunk
  /// after another (measured fault-free on a scratch simulator).  0 when
  /// the collective was not pipelined; then completion_seconds IS the
  /// serial figure.  completion_seconds <= serial_completion_seconds on
  /// every fault-free pipelined round (DESIGN.md §12).
  double serial_completion_seconds = 0.0;
  /// Chunks the pipelined composition priced (0 = unpipelined).
  std::size_t pipeline_chunks = 0;

  /// Total per-worker compression seconds — the red bars of Figures 1a/5.
  double compression_seconds_per_worker() const {
    return serial_compression_seconds_per_worker +
           overlapped_compression_seconds_per_worker;
  }
  /// The serial round figure: the sum-of-stages reference when pipelined,
  /// completion itself otherwise.
  double serial_or_completion_seconds() const {
    return serial_completion_seconds > 0.0 ? serial_completion_seconds
                                           : completion_seconds;
  }
  /// Pure transfer share of the serial decomposition (what the blue bars
  /// show).  Uses the serial reference so the phase bars of a pipelined
  /// run still sum to the serial total, with the overlap reported
  /// separately (PhaseTimes::overlapped).
  double communication_seconds() const {
    const double value =
        serial_or_completion_seconds() - serial_compression_seconds_per_worker;
    return value > 0.0 ? value : 0.0;
  }
};

/// Per-chunk lane times of one pipelined collective, all collective-local
/// seconds (the installed trace session's time_offset places them
/// globally).  pack is the sender-side sign/stochastic packing, transfer
/// the chunk's whole sub-collective on the shared fabric, fold the
/// receiver-side unpack/apply.  Surfaced on SyncStepResult so fig5-style
/// plots can draw serial vs overlapped bars from one run.
struct ChunkStageTiming {
  std::size_t chunk = 0;
  std::size_t elements = 0;
  double pack_start = 0.0;
  double pack_end = 0.0;
  /// When the chunk's payload was handed to the fabric (the transfer lane
  /// may additionally wait for NICs still busy with earlier chunks; that
  /// wait is part of [transfer_start, transfer_end]).
  double transfer_start = 0.0;
  double transfer_end = 0.0;
  double fold_start = 0.0;
  double fold_end = 0.0;
};

/// Snapshot of the simulator's retransmission counters when a pricer
/// starts; record_into charges the collective what it burned since: the
/// retransmitted bits and retries, and under a corruption plan one CRC
/// footer per delivered message.
class RetransBaseline {
 public:
  explicit RetransBaseline(const NetworkSim& net);
  void record_into(CollectiveTiming& timing, const NetworkSim& net) const;

 private:
  double bytes_;
  std::size_t count_;
  std::size_t messages_;
};

/// Parameter server: M pushes serialized through the server ingress NIC,
/// aggregation, M broadcasts serialized through its egress NIC.  The network
/// must have been built with num_workers+1 nodes (last = server).
CollectiveTiming ps_allreduce_timing(std::size_t num_workers, std::size_t d,
                                     const WireFormat& wire, NetworkSim& net,
                                     double start_time = 0.0);

// Pipelined composition ------------------------------------------------------

/// One chunk's sub-collective: schedule a full collective for `elements`
/// elements on `net`, with every worker's (already packed) payload ready at
/// `start_time`.  The pipelined composition invokes it with a wire format
/// whose initial-pack and final-unpack rates are zeroed — those phases live
/// in the pack and fold lanes.  `chunk_index` is the chunk's position in the
/// ShardPlan grid so mixed-geometry chunk plans (e.g. a different topology
/// or schedule per chunk) are expressible; uniform callers ignore it.
using ChunkCollectiveFn = std::function<CollectiveTiming(
    std::size_t chunk_index, std::size_t elements, const WireFormat& wire,
    NetworkSim& net, double start_time)>;

/// Prices a d-element collective as a chunked three-lane pipeline
/// (DESIGN.md §12).  The chunk grid is ShardPlan(d, chunk_elements) — the
/// same grid the execution pipeline shards over.  Lanes:
///
///   pack:     one worker packs chunks in order;
///             pack_end(c) = max(pack_end(c−1), chunk_ready[c]) + pack·n_c
///   transfer: chunk c's whole sub-collective issued on the *shared* `net`
///             at pack_end(c) — NICs still draining chunk c−1 delay it
///             naturally, and the attached fault plan applies per
///             chunk-message (a retry stalls only that chunk's slot)
///   fold:     unpacks finished chunks in order;
///             fold_end(c) = max(transfer_end(c), fold_end(c−1)) + unpack·n_c
///
/// completion_seconds is fold_end(last) — the max-of-stages round time.
/// serial_completion_seconds is Σ_c (pack·n_c + T_serial(c) + unpack·n_c)
/// with T_serial measured fault-free on a scratch simulator: the strictly
/// sequential sum-of-stages reference over the same chunks (readiness gaps
/// from `chunk_ready` are excluded — callers modelling compute add it to
/// the serial figure themselves).  The serial reference is cached per chunk
/// *geometry* — element count plus the live run's observed hop count and
/// wire bits — so two same-size chunks scheduled over different topologies
/// each get their own measurement.
///
/// `chunk_ready` (optional, else all 0) gives per-chunk payload readiness —
/// e.g. per-bucket gradient availability — letting pack overlap compute.
/// Emits per-chunk "stage" trace spans on three lanes above the fabric-node
/// tracks when a trace session is installed.  Outputs of the round are
/// unaffected: this function only prices time.
CollectiveTiming pipelined_collective_timing(
    std::size_t d, std::size_t chunk_elements, const WireFormat& wire,
    NetworkSim& net, const ChunkCollectiveFn& collective,
    std::span<const double> chunk_ready = {},
    std::vector<ChunkStageTiming>* stages_out = nullptr);

}  // namespace marsit
