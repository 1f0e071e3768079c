#include "probes.hpp"

#include <chrono>

namespace perfbench {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

TimedSync::TimedSync(marsit::SyncStrategy& inner)
    : marsit::SyncStrategy(inner.config()), inner_(inner) {}

marsit::SyncStepResult TimedSync::do_synchronize(
    const marsit::WorkerSpans& inputs, std::span<float> out) {
  Call call;
  call.start = now_seconds();
  marsit::SyncStepResult result = inner_.synchronize(inputs, out);
  call.end = now_seconds();
  call.full_precision = result.full_precision;
  call.predicted_seconds = result.timing.completion_seconds;
  calls_.push_back(call);
  return result;
}

TracedTransport::TracedTransport(marsit::Transport& inner, bool record_spans)
    : inner_(inner), record_spans_(record_spans) {}

void TracedTransport::record(const Span& span) {
  if (round_starts_.size() <= span.round) {
    round_starts_.resize(span.round + 1, span.start);
  }
  if (record_spans_) {
    spans_.push_back(span);
  }
}

void TracedTransport::send(std::size_t peer, std::uint32_t tag,
                           std::span<const std::uint8_t> payload) {
  Span span{"net.send", inner_.rank(), round_of_tag(tag), now_seconds(), 0.0,
            payload.size()};
  inner_.send(peer, tag, payload);
  span.end = now_seconds();
  record(span);
}

std::vector<std::uint8_t> TracedTransport::recv(std::size_t peer,
                                                std::uint32_t tag) {
  Span span{"net.recv", inner_.rank(), round_of_tag(tag), now_seconds(), 0.0,
            0};
  std::vector<std::uint8_t> payload = inner_.recv(peer, tag);
  span.end = now_seconds();
  span.bytes = payload.size();
  record(span);
  return payload;
}

}  // namespace perfbench
