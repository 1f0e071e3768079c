// Figure 1a — Per-iteration time breakdown (computation / compression /
// communication) for training MNIST over AlexNet with 3 workers, comparing:
//
//   PSGD under PS, PSGD under RAR (all-reduce), SSDM under PS,
//   SSDM under MAR (growing sign-sums), and cascading compression.
//
// The paper's findings: RAR beats PS for full precision; SSDM-MAR's growing
// packages make it slower than its PS version; cascading compression's
// decompress-recompress dominates its iteration.
//
// This is a cost-model experiment (no training needed): we use the real
// AlexNet scale the paper trained (23M parameters — its Table 2 size) and
// the calibrated CostModel (net/cost_model.hpp).
#include "bench_util.hpp"
#include "collectives/timing.hpp"

using namespace marsit;
using namespace marsit::bench;

int main(int argc, char** argv) {
  quiet_logs();
  const std::size_t workers = 3;
  const std::size_t d = arg_override(argc, argv, "--params", 23u * 1000 * 1000);
  const CostModel model;

  // Computation: AlexNet forward+backward ≈ 6 flops/param/sample ×
  // reuse; use the standard ~3× forward estimate on a 16-sample batch.
  const double batch = 16.0;
  const double compute_flops = 6.0 * static_cast<double>(d) * batch;
  const double compute_seconds = model.compute_seconds(compute_flops);

  print_header(
      "Figure 1a: per-iteration time breakdown (MNIST/AlexNet, M=3)",
      {"RAR full-precision < PS full-precision; SSDM-MAR slower than "
       "SSDM-PS in transmission; cascading dominated by its "
       "decompression-compression period"});

  struct Row {
    std::string label;
    CollectiveTiming timing;
  };
  std::vector<Row> rows;

  {
    NetworkSim net(workers + 1, model);
    rows.push_back({"PSGD (PS)", ps_allreduce_timing(
                                     workers, d, full_precision_wire(), net)});
  }
  const auto ring = [&](const WireFormat& wire) {
    return price_allreduce(MarParadigm::kRing, workers, d, wire, model);
  };
  rows.push_back({"PSGD (RAR)", ring(full_precision_wire())});
  {
    NetworkSim net(workers + 1, model);
    WireFormat ssdm_ps;
    ssdm_ps.reduce_bits = [](std::size_t elements, std::size_t) {
      return static_cast<double>(elements) + 32.0;
    };
    ssdm_ps.gather_bits = [](std::size_t elements) {
      return static_cast<double>(elements) + 32.0;
    };
    ssdm_ps.initial_pack_seconds_per_element =
        1.0 / model.stochastic_sign_rate;
    ssdm_ps.final_unpack_seconds_per_element = 1.0 / model.sign_unpack_rate;
    rows.push_back({"SSDM (PS)",
                    ps_allreduce_timing(workers, d, ssdm_ps, net)});
  }
  rows.push_back({"SSDM (MAR)", ring(sign_sum_wire(model, 1))});
  rows.push_back({"Cascading (RAR)", ring(cascading_wire(model))});
  rows.push_back({"Marsit (RAR)", ring(marsit_wire(model))});

  TextTable table({"method", "compute", "compression", "communication",
                   "iteration total", "wire bits/worker"});
  for (const Row& row : rows) {
    table.add_row({row.label, format_duration(compute_seconds),
                   format_duration(row.timing.compression_seconds_per_worker()),
                   format_duration(row.timing.communication_seconds()),
                   format_duration(compute_seconds +
                                   row.timing.completion_seconds),
                   format_bytes(row.timing.bits_per_worker / 8.0)});
  }
  table.print(std::cout);

  // rows: PSGD (PS), PSGD (RAR), SSDM (PS), SSDM (MAR), Cascading, Marsit.
  const auto total = [&](std::size_t i) {
    return compute_seconds + rows[i].timing.completion_seconds;
  };
  const CollectiveTiming& cascading = rows[4].timing;
  bool marsit_smallest = true;
  for (std::size_t i = 0; i + 1 < rows.size(); ++i) {
    marsit_smallest = marsit_smallest && total(5) < total(i);
  }
  std::cout << "\n";
  ShapeCheck check;
  check.expect(total(1) < total(0), "PSGD-RAR total < PSGD-PS total");
  check.expect(rows[3].timing.communication_seconds() >
                   rows[2].timing.communication_seconds(),
               "SSDM-MAR transmission > SSDM-PS transmission");
  check.expect(cascading.compression_seconds_per_worker() >
                       cascading.communication_seconds() &&
                   cascading.compression_seconds_per_worker() >
                       compute_seconds,
               "cascading's compression bar dominates its iteration");
  check.expect(marsit_smallest, "Marsit has the smallest total");
  return check.exit_code();
}
