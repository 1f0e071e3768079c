// Example: the paper's NLP workload in miniature — binary sentiment
// classification over synthetic token sequences with a text classifier
// trained by Adam, synchronized with Marsit on a 2-D torus (TAR).
//
//   ./build/examples/sentiment_analysis [rounds] [--trace out.trace.json]
#include <cstdlib>
#include <iostream>

#include "core/sync_strategy.hpp"
#include "data/synthetic_sentiment.hpp"
#include "nn/models.hpp"
#include "obs/exporter.hpp"
#include "sim/trainer.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace marsit;
  set_log_level(LogLevel::kWarning);
  obs::ScopedTrace trace(argc, argv);

  const std::size_t rounds = argc > 1 && argv[1][0] != '-'
                                 ? static_cast<std::size_t>(std::atol(argv[1]))
                                 : 150;

  SyntheticSentiment sentiment;
  auto factory = [&sentiment] {
    return make_text_classifier(sentiment.vocab_size(), sentiment.seq_len(),
                                16, sentiment.num_classes());
  };
  {
    Sequential probe = factory();
    std::cout << "Task: binary sentiment over " << sentiment.seq_len()
              << "-token sequences, vocab " << sentiment.vocab_size() << "\n"
              << "Model: embedding + mean-pool classifier, "
              << probe.param_count() << " parameters, Adam optimizer\n"
              << "Workers: 2x2 torus (TAR), " << rounds << " rounds\n\n";
  }

  // Marsit on the torus vs full-precision PSGD on the torus.
  TextTable table({"method", "test acc", "sim time", "traffic",
                   "bits/elem"});
  for (const bool marsit : {false, true}) {
    SyncConfig sync_config;
    sync_config.num_workers = 4;
    sync_config.paradigm = MarParadigm::kTorus2d;
    sync_config.torus_rows = 2;
    sync_config.torus_cols = 2;
    sync_config.seed = 5;

    std::unique_ptr<SyncStrategy> strategy;
    if (marsit) {
      MethodOptions options;
      options.eta_s = 0.02f;  // the Adam local step size, eta_l below
      options.full_precision_period = 50;
      strategy = make_sync_strategy(SyncMethod::kMarsit, sync_config, options);
    } else {
      strategy = make_sync_strategy(SyncMethod::kPsgd, sync_config);
    }

    TrainerConfig config;
    config.batch_size_per_worker = 32;
    config.optimizer = OptimizerKind::kAdam;
    config.eta_l = 0.02f;
    config.rounds = rounds;
    config.eval_interval = rounds / 5;
    config.eval_samples = 512;
    config.seed = 6;

    DistributedTrainer trainer(sentiment, factory, *strategy, config);
    const TrainResult result = trainer.train();
    table.add_row({strategy->name(),
                   format_fixed(100.0 * result.final_test_accuracy, 1) + " %",
                   format_duration(result.sim_seconds),
                   format_bytes(result.total_wire_bits / 8.0),
                   format_fixed(result.mean_bits_per_element, 2)});
  }
  table.print(std::cout);
  std::cout << "\n(time and traffic are simulated; see DESIGN.md)\n";
  return 0;
}
