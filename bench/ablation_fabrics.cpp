// Fabric ablation — one synchronization of a 25M-parameter model across all
// four fabrics (ring, 2-D torus, binomial tree, parameter server) × three
// wire formats (float32, growing sign-sums, Marsit one-bit), at M = 32.
//
// The paper implements RAR and TAR and claims easy extension to
// segmented-ring and tree all-reduce; the weighted ⊙ operator indeed folds
// tree merges (tests/collectives_tree_test.cpp), and this bench quantifies
// when each fabric wins: the ring is bandwidth-optimal, the tree is
// latency-optimal, the torus sits between, and the PS serializes on its
// server NIC.
#include "bench_util.hpp"
#include "collectives/timing.hpp"

using namespace marsit;
using namespace marsit::bench;

int main(int argc, char** argv) {
  quiet_logs();
  const std::size_t m = 32;
  const std::size_t d = arg_override(argc, argv, "--params", 25u * 1000 * 1000);
  const CostModel model;

  print_header(
      "Fabric ablation: one synchronization at M=32, 25M parameters",
      {"ring bandwidth-optimal, tree latency-optimal, torus in between, PS "
       "server-bound; Marsit's 1-bit payloads help every fabric"});

  struct Format {
    std::string label;
    WireFormat wire;
  };
  const std::vector<Format> formats = {
      {"float32", full_precision_wire()},
      {"sign-sum", sign_sum_wire(model)},
      {"Marsit 1-bit", marsit_wire(model)},
  };

  // completion_seconds of one synchronization per (format, fabric).
  const auto ring = [&](std::size_t size, const WireFormat& wire) {
    return price_allreduce(MarParadigm::kRing, m, size, wire, model)
        .completion_seconds;
  };
  const auto torus = [&](std::size_t size, const WireFormat& wire) {
    return price_allreduce(MarParadigm::kTorus2d, m, size, wire, model, 8)
        .completion_seconds;
  };
  const auto tree = [&](std::size_t size, const WireFormat& wire) {
    return price_allreduce(MarParadigm::kTree, m, size, wire, model)
        .completion_seconds;
  };

  bool tree_loses_large = true;
  TextTable table({"wire format", "ring x32", "torus 4x8", "tree x32",
                   "PS x32"});
  for (const Format& format : formats) {
    NetworkSim ps_net(m + 1, model);
    const double ps =
        ps_allreduce_timing(m, d, format.wire, ps_net).completion_seconds;
    const double times[] = {ring(d, format.wire), torus(d, format.wire),
                            tree(d, format.wire)};
    table.add_row({format.label, format_duration(times[0]),
                   format_duration(times[1]), format_duration(times[2]),
                   format_duration(ps)});
    tree_loses_large =
        tree_loses_large && times[0] < times[2] && times[1] < times[2];
  }
  table.print(std::cout);

  // Latency-bound regime: small payload, same fabrics.
  std::cout << "\nlatency-bound regime (64k parameters):\n\n";
  TextTable small({"wire format", "ring x32", "torus 4x8", "tree x32"});
  const std::size_t small_d = 1 << 16;
  bool tree_wins_small = true;
  for (const Format& format : formats) {
    const double times[] = {ring(small_d, format.wire),
                            torus(small_d, format.wire),
                            tree(small_d, format.wire)};
    small.add_row({format.label, format_duration(times[0]),
                   format_duration(times[1]), format_duration(times[2])});
    // A float32 tree message is the whole 256 KB vector, which is
    // bandwidth-bound even here, so only the compressed formats are in the
    // latency-bound regime this table probes.
    if (format.label != "float32") {
      tree_wins_small = tree_wins_small && times[2] < times[0];
    }
  }
  small.print(std::cout);
  std::cout << "\n";
  ShapeCheck check;
  check.expect(tree_loses_large,
               "at 25M params the ring and torus beat the tree (bandwidth "
               "bound), in every wire format");
  check.expect(tree_wins_small,
               "at 64k params the tree's 2 log2(M) hops beat the ring's "
               "2(M-1) in the compressed wire formats");
  return check.exit_code();
}
