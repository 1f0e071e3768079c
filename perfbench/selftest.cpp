// perfbench_selftest — the correctness gate must refuse wrong outputs.
//
// Runs the quick text workload's job once over real loopback sockets (a
// 2×2 torus) and once through the in-process trainer, checks that the gate
// accepts what they produced, and then that it rejects the same outputs
// with a wrong expected digest or a byte count off by one.  Exit status 0 iff every
// case behaves.  run.py --selftest runs this after the quick workloads.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "gate.hpp"
#include "jobs.hpp"
#include "util/logging.hpp"

namespace {

int failures = 0;

void expect(bool condition, const std::string& what) {
  std::cout << (condition ? "ok   " : "FAIL ") << what << "\n";
  if (!condition) {
    ++failures;
  }
}

struct Observed {
  std::vector<std::uint64_t> digests;
  std::vector<std::uint64_t> round_bytes;
  std::vector<bool> full_precision;
  std::uint64_t transport_bytes = 0;
};

Observed observe(const perfbench::SocketRun& run) {
  Observed seen;
  for (const auto& rank : run.ranks) {
    seen.digests.push_back(rank.param_digest);
  }
  seen.round_bytes = perfbench::round_payload_bytes(run);
  seen.full_precision = perfbench::round_kinds(run);
  seen.transport_bytes = run.transport_payload_bytes;
  return seen;
}

bool digests_pass(const Observed& seen, std::uint64_t expected) {
  perfbench::Gate gate;
  perfbench::check_digests(gate, seen.digests, expected, "rank");
  return gate.ok();
}

bool bytes_pass(const Observed& seen, const perfbench::Job& job) {
  perfbench::Gate gate;
  perfbench::check_socket_bytes(gate, seen.round_bytes, seen.full_precision,
                                seen.transport_bytes, job.spec().workers,
                                job.param_count());
  return gate.ok();
}

}  // namespace

int main() {
  marsit::set_log_level(marsit::LogLevel::kWarning);
  const perfbench::Job job(perfbench::job_spec("text_wide_torus", true), 1);
  const std::size_t rounds = job.spec().rounds;
  const perfbench::SocketRun run = perfbench::run_sockets(job, false, rounds);
  const perfbench::TrainerRun reference = perfbench::run_trainer(job);
  const Observed seen = observe(run);

  expect(digests_pass(seen, reference.digest),
         "rank digests equal the trainer's");
  expect(!digests_pass(seen, reference.digest ^ 1),
         "a wrong expected digest is rejected");
  Observed one_rank_off = seen;
  one_rank_off.digests.back() ^= 1;
  expect(!digests_pass(one_rank_off, reference.digest),
         "one disagreeing rank is rejected");

  expect(bytes_pass(seen, job), "byte counts equal their closed forms");
  Observed counter_up = seen;
  ++counter_up.transport_bytes;
  expect(!bytes_pass(counter_up, job),
         "transport byte counter + 1 is rejected");
  Observed counter_down = seen;
  --counter_down.transport_bytes;
  expect(!bytes_pass(counter_down, job),
         "transport byte counter - 1 is rejected");
  for (std::size_t t : {std::size_t{0}, std::size_t{1}}) {
    Observed round_up = seen;
    ++round_up.round_bytes[t];
    expect(!bytes_pass(round_up, job),
           std::string(seen.full_precision[t] ? "flush" : "one-bit") +
               " round bytes + 1 is rejected");
  }
  Observed wrong_kind = seen;
  wrong_kind.full_precision[1] = !wrong_kind.full_precision[1];
  expect(!bytes_pass(wrong_kind, job), "a mislabelled round is rejected");

  std::cout << (failures == 0 ? "selftest passed" : "selftest FAILED")
            << "\n";
  return failures == 0 ? 0 : 1;
}
