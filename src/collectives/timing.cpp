#include "collectives/timing.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "compress/sign_sum.hpp"
#include "net/crc32.hpp"
#include "obs/trace.hpp"
#include "parallel/shard.hpp"
#include "util/check.hpp"

namespace marsit {

namespace {

/// Emits a "phase" span on the schedule track when tracing is on.  Times
/// are collective-local; the installed session's time_offset places them on
/// the global simulated timeline (see obs/trace.hpp).
void trace_phase(const char* name, double local_start, double local_end) {
  if (obs::TraceSession* trace = obs::TraceSession::current()) {
    const double offset = trace->time_offset();
    trace->add_span(name, "phase", offset + local_start, offset + local_end,
                    /*track=*/0);
  }
}

double rate_to_seconds(double rate) {
  MARSIT_CHECK(rate > 0) << "cost-model rate must be positive";
  return 1.0 / rate;
}

}  // namespace

RetransBaseline::RetransBaseline(const NetworkSim& net)
    : bytes_(net.retransmitted_bytes()),
      count_(net.retransmissions()),
      messages_(net.total_messages()) {}

void RetransBaseline::record_into(CollectiveTiming& timing,
                                  const NetworkSim& net) const {
  timing.retransmitted_wire_bits = (net.retransmitted_bytes() - bytes_) * 8.0;
  timing.retransmissions = net.retransmissions() - count_;
  // Wire integrity under corruption faults appends a CRC32 footer to every
  // delivered message (network_sim.cpp charges it per attempt).  Pricers
  // sum payload bits only, so the footer of each *successful* delivery is
  // charged here, exactly once per message; retried attempts' footers
  // already live in retransmitted_wire_bits.
  const FaultPlan* plan = net.fault_plan();
  if (plan != nullptr && plan->corruption_rate > 0.0) {
    timing.total_wire_bits +=
        kCrcFooterBits * static_cast<double>(net.total_messages() - messages_);
  }
}

WireFormat full_precision_wire() {
  WireFormat wire;
  wire.reduce_bits = [](std::size_t elements, std::size_t) {
    return 32.0 * static_cast<double>(elements);
  };
  wire.gather_bits = [](std::size_t elements) {
    return 32.0 * static_cast<double>(elements);
  };
  return wire;
}

WireFormat sign_sum_wire(const CostModel& model,
                         std::size_t scalars_per_message) {
  WireFormat wire;
  const double extra = 32.0 * static_cast<double>(scalars_per_message);
  wire.reduce_bits = [extra](std::size_t elements,
                             std::size_t contributions) {
    return static_cast<double>(elements) *
               static_cast<double>(sign_sum_bits_per_element(contributions)) +
           extra;
  };
  wire.gather_bits = [extra](std::size_t elements) {
    // The gather phase broadcasts the final majority/mean decision as one
    // bit per element (the sums are no longer needed once finalized).
    return static_cast<double>(elements) + extra;
  };
  wire.initial_pack_seconds_per_element = rate_to_seconds(model.sign_pack_rate);
  // Integer accumulate per received element, off the critical path is not
  // possible for sums (the add must finish before forwarding), but it is
  // cheap; model it as serial.
  wire.serial_seconds_per_element = rate_to_seconds(model.sign_unpack_rate);
  wire.final_unpack_seconds_per_element =
      rate_to_seconds(model.sign_unpack_rate);
  return wire;
}

WireFormat sign_sum_elias_wire(
    const CostModel& model,
    std::function<double(std::size_t contributions)> elias_bits_per_element) {
  WireFormat wire;
  auto bits_fn = std::move(elias_bits_per_element);
  wire.reduce_bits = [bits_fn](std::size_t elements,
                               std::size_t contributions) {
    return static_cast<double>(elements) * bits_fn(contributions);
  };
  wire.gather_bits = [](std::size_t elements) {
    return static_cast<double>(elements);
  };
  wire.initial_pack_seconds_per_element = rate_to_seconds(model.sign_pack_rate);
  // Elias decode + integer add + Elias re-encode sits on the hop critical
  // path, like any transcoding step.
  wire.serial_seconds_per_element =
      2.0 * rate_to_seconds(model.elias_code_rate);
  wire.final_unpack_seconds_per_element =
      rate_to_seconds(model.sign_unpack_rate);
  return wire;
}

WireFormat marsit_wire(const CostModel& model) {
  WireFormat wire;
  wire.reduce_bits = [](std::size_t elements, std::size_t) {
    return static_cast<double>(elements);
  };
  wire.gather_bits = [](std::size_t elements) {
    return static_cast<double>(elements);
  };
  wire.initial_pack_seconds_per_element = rate_to_seconds(model.sign_pack_rate);
  // The ⊙ combine (transient Bernoulli word + three logical word ops)
  // overlaps with the receive — the paper's key pipelining claim.
  wire.overlapped_seconds_per_element =
      rate_to_seconds(model.one_bit_combine_rate);
  wire.final_unpack_seconds_per_element =
      rate_to_seconds(model.sign_unpack_rate);
  return wire;
}

WireFormat cascading_wire(const CostModel& model) {
  WireFormat wire;
  wire.reduce_bits = [](std::size_t elements, std::size_t) {
    return static_cast<double>(elements) + 32.0;  // sign bits + ℓ2 norm
  };
  wire.gather_bits = [](std::size_t elements) {
    return static_cast<double>(elements) + 32.0;
  };
  wire.initial_pack_seconds_per_element =
      rate_to_seconds(model.stochastic_sign_rate);
  // Decompress + add + renorm + stochastic recompress on every hop, fully
  // serial: the next hop cannot start until the recompressed segment exists.
  wire.serial_seconds_per_element =
      rate_to_seconds(model.cascade_recompress_rate);
  wire.final_unpack_seconds_per_element =
      rate_to_seconds(model.sign_unpack_rate);
  return wire;
}

CollectiveTiming ps_allreduce_timing(std::size_t num_workers, std::size_t d,
                                     const WireFormat& wire, NetworkSim& net,
                                     double start_time) {
  const std::size_t m = num_workers;
  MARSIT_CHECK(m >= 1) << "PS needs at least one worker";
  MARSIT_CHECK(net.num_nodes() >= m + 1)
      << "PS network needs num_workers+1 nodes";
  MARSIT_CHECK(d >= 1) << "empty gradient";

  const std::size_t server = m;  // by convention the last node
  const double dd = static_cast<double>(d);

  CollectiveTiming timing;
  const RetransBaseline retrans(net);

  // Push: every worker sends its whole (single-contribution) payload; the
  // server ingress NIC serializes them.
  double all_pushed = start_time;
  for (std::size_t w = 0; w < m; ++w) {
    const double ready =
        start_time + wire.initial_pack_seconds_per_element * dd;
    const double bits = wire.reduce_bits(d, 1);
    const double arrival =
        net.transfer_bits(w, server, bits, ready, /*server_endpoint=*/true);
    all_pushed = std::max(all_pushed, arrival);
    timing.total_wire_bits += bits;
  }

  trace_phase("push", start_time, all_pushed);

  // Server-side aggregation of M payloads.
  const double aggregated =
      all_pushed +
      wire.serial_seconds_per_element * dd * static_cast<double>(m);
  trace_phase("server aggregate", all_pushed, aggregated);

  // Broadcast: serialized through the server egress NIC.
  double last_arrival = aggregated;
  const double down_bits = wire.gather_bits(d);
  for (std::size_t w = 0; w < m; ++w) {
    const double arrival = net.transfer_bits(server, w, down_bits, aggregated,
                                             /*server_endpoint=*/true);
    last_arrival = std::max(last_arrival, arrival);
    timing.total_wire_bits += down_bits;
  }
  trace_phase("broadcast", aggregated, last_arrival);

  timing.completion_seconds =
      last_arrival + wire.final_unpack_seconds_per_element * dd - start_time;
  timing.bits_per_worker = timing.total_wire_bits / static_cast<double>(m);
  // PS workers pack the whole payload before pushing (no segment
  // pipelining) and unpack the broadcast at the end: all serial.
  timing.serial_compression_seconds_per_worker =
      wire.initial_pack_seconds_per_element * dd +
      wire.final_unpack_seconds_per_element * dd;
  retrans.record_into(timing, net);
  return timing;
}

namespace {

/// Temporarily uninstalls the trace session.  The pipelined composition's
/// serial-reference measurement replays every chunk on a scratch simulator;
/// without this guard those phantom schedules would emit phase/hop spans.
class TraceSuppressScope {
 public:
  TraceSuppressScope() : saved_(obs::TraceSession::current()) {
    obs::TraceSession::install(nullptr);
  }
  ~TraceSuppressScope() { obs::TraceSession::install(saved_); }
  TraceSuppressScope(const TraceSuppressScope&) = delete;
  TraceSuppressScope& operator=(const TraceSuppressScope&) = delete;

 private:
  obs::TraceSession* saved_;
};

/// Emits one pipeline-lane span ("stage" category).  Lane tracks sit above
/// the fabric-node tracks: 1 + num_nodes + lane.
void trace_stage(const char* name, std::size_t chunk, double local_start,
                 double local_end, std::size_t num_nodes, std::size_t lane) {
  if (obs::TraceSession* trace = obs::TraceSession::current()) {
    const double offset = trace->time_offset();
    trace->add_span(std::string(name) + " chunk " + std::to_string(chunk),
                    "stage", offset + local_start, offset + local_end,
                    static_cast<std::uint32_t>(1 + num_nodes + lane));
  }
}

}  // namespace

CollectiveTiming pipelined_collective_timing(
    std::size_t d, std::size_t chunk_elements, const WireFormat& wire,
    NetworkSim& net, const ChunkCollectiveFn& collective,
    std::span<const double> chunk_ready,
    std::vector<ChunkStageTiming>* stages_out) {
  const ShardPlan plan(d, chunk_elements);
  const std::size_t num_chunks = plan.num_chunks();
  MARSIT_CHECK(num_chunks >= 1) << "pipelined timing over an empty payload";
  MARSIT_CHECK(chunk_ready.empty() || chunk_ready.size() == num_chunks)
      << "chunk_ready carries " << chunk_ready.size() << " entries for "
      << num_chunks << " chunks";

  // Pack and fold live in their own lanes; the sub-collectives must not
  // charge them again.
  WireFormat wire_chunk = wire;
  wire_chunk.initial_pack_seconds_per_element = 0.0;
  wire_chunk.final_unpack_seconds_per_element = 0.0;

  // Serial reference: the same chunk on a fresh, fault-free fabric.  Cached
  // per chunk *geometry*, not per element count alone — a ChunkCollectiveFn
  // may dispatch different topologies/schedules by chunk index, and two
  // same-size chunks on different schedules must not share a serial time.
  // The key is the geometry fingerprint observed on the live run: element
  // count, hop (message) count, and wire bits, which together pin topology,
  // schedule shape, and payload width without callers having to declare
  // them.  For uniform plans this still collapses to at most two entries
  // (body and tail).
  NetworkSim scratch(net.num_nodes(), net.cost_model());
  using SerialKey = std::tuple<std::size_t, std::size_t, double>;
  std::map<SerialKey, double> serial_cache;
  const auto serial_transfer_seconds = [&](std::size_t chunk_index,
                                           std::size_t elements,
                                           std::size_t live_messages,
                                           double live_wire_bits) {
    const SerialKey key{elements, live_messages, live_wire_bits};
    const auto found = serial_cache.find(key);
    if (found != serial_cache.end()) {
      return found->second;
    }
    const TraceSuppressScope quiet;
    scratch.reset();
    const double seconds =
        collective(chunk_index, elements, wire_chunk, scratch, 0.0)
            .completion_seconds;
    serial_cache.emplace(key, seconds);
    return seconds;
  };

  const double pack_spe = wire.initial_pack_seconds_per_element;
  const double unpack_spe = wire.final_unpack_seconds_per_element;

  CollectiveTiming total;
  if (stages_out != nullptr) {
    stages_out->clear();
    stages_out->reserve(num_chunks);
  }
  double pack_cursor = 0.0;
  double fold_cursor = 0.0;
  double serial_total = 0.0;
  for (std::size_t c = 0; c < num_chunks; ++c) {
    const Shard shard = plan.chunk(c);
    const double n = static_cast<double>(shard.size());

    ChunkStageTiming stage;
    stage.chunk = c;
    stage.elements = shard.size();
    const double ready = chunk_ready.empty() ? 0.0 : chunk_ready[c];
    stage.pack_start = std::max(pack_cursor, ready);
    stage.pack_end = stage.pack_start + pack_spe * n;
    pack_cursor = stage.pack_end;

    // The shared simulator serializes this chunk behind whatever NIC time
    // earlier chunks still hold, and applies the attached fault plan per
    // chunk-message — a lost chunk-message's retry stalls only this slot.
    const std::size_t messages_before = net.total_messages();
    const CollectiveTiming t =
        collective(c, shard.size(), wire_chunk, net, stage.pack_end);
    const std::size_t chunk_messages = net.total_messages() - messages_before;
    stage.transfer_start = stage.pack_end;
    stage.transfer_end = stage.pack_end + t.completion_seconds;

    stage.fold_start = std::max(stage.transfer_end, fold_cursor);
    stage.fold_end = stage.fold_start + unpack_spe * n;
    fold_cursor = stage.fold_end;

    serial_total += pack_spe * n +
                    serial_transfer_seconds(c, shard.size(), chunk_messages,
                                            t.total_wire_bits) +
                    unpack_spe * n;

    total.total_wire_bits += t.total_wire_bits;
    total.bits_per_worker += t.bits_per_worker;
    total.retransmitted_wire_bits += t.retransmitted_wire_bits;
    total.retransmissions += t.retransmissions;
    // With pack/unpack zeroed in wire_chunk the sub-collective's serial
    // share is the per-hop processing only; the pack and fold lanes are
    // this worker's remaining critical-path compression work.
    total.serial_compression_seconds_per_worker +=
        pack_spe * n + t.serial_compression_seconds_per_worker +
        unpack_spe * n;
    total.overlapped_compression_seconds_per_worker +=
        t.overlapped_compression_seconds_per_worker;

    trace_stage("pack", c, stage.pack_start, stage.pack_end, net.num_nodes(),
                0);
    trace_stage("transfer", c, stage.transfer_start, stage.transfer_end,
                net.num_nodes(), 1);
    trace_stage("fold", c, stage.fold_start, stage.fold_end, net.num_nodes(),
                2);
    if (stages_out != nullptr) {
      stages_out->push_back(stage);
    }
  }

  total.completion_seconds = fold_cursor;
  total.serial_completion_seconds = serial_total;
  total.pipeline_chunks = num_chunks;
  return total;
}

}  // namespace marsit
