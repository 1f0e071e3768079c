#include "gate.hpp"

#include <sstream>

#include "compress/kernels.hpp"

namespace perfbench {

void Gate::require(bool condition, const std::string& failure) {
  if (!condition) {
    failures_.push_back(failure);
  }
}

void check_digests(Gate& gate, std::span<const std::uint64_t> digests,
                   std::uint64_t expected, const char* what) {
  gate.require(!digests.empty(), std::string("no ") + what + " digests");
  for (std::size_t i = 0; i < digests.size(); ++i) {
    std::ostringstream failure;
    failure << what << " " << i << " digest " << std::hex << digests[i]
            << " != expected " << expected;
    gate.require(digests[i] == expected, failure.str());
  }
}

std::uint64_t one_bit_round_bytes(std::size_t workers, std::size_t dim) {
  return 2 * (workers - 1) * marsit::kernels::words_for(dim) *
         sizeof(std::uint64_t);
}

std::uint64_t flush_round_bytes(std::size_t workers, std::size_t dim) {
  return workers * (workers - 1) * dim * sizeof(float);
}

void check_socket_bytes(Gate& gate, std::span<const std::uint64_t> round_bytes,
                        const std::vector<bool>& full_precision,
                        std::uint64_t transport_payload_bytes,
                        std::size_t workers, std::size_t dim) {
  gate.require(round_bytes.size() == full_precision.size(),
               "round byte list and round kinds differ in length");
  std::uint64_t expected_total = 0;
  for (std::size_t t = 0;
       t < round_bytes.size() && t < full_precision.size(); ++t) {
    const std::uint64_t expected = full_precision[t]
                                       ? flush_round_bytes(workers, dim)
                                       : one_bit_round_bytes(workers, dim);
    expected_total += expected;
    std::ostringstream failure;
    failure << "round " << t << (full_precision[t] ? " (flush)" : " (one-bit)")
            << " moved " << round_bytes[t] << " payload bytes, closed form "
            << expected;
    gate.require(round_bytes[t] == expected, failure.str());
  }
  std::ostringstream failure;
  failure << "transports counted " << transport_payload_bytes
          << " payload bytes, rounds total " << expected_total;
  gate.require(transport_payload_bytes == expected_total, failure.str());
}

}  // namespace perfbench
