// The execution engine's two promises: (1) the pool is a correct, reusable
// parallel_for primitive, and (2) threading a federated round through it
// changes nothing — num_threads in {1, 2, 4} produce bitwise-identical
// metrics and weights because every client owns its RNG stream and every
// aggregation reduces in client-index order.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "fedpkd/core/distill.hpp"
#include "fedpkd/core/fedpkd.hpp"
#include "fedpkd/exec/thread_pool.hpp"
#include "fedpkd/fl/fedavg.hpp"
#include "fedpkd/fl/fedet.hpp"
#include "fedpkd/nn/model_zoo.hpp"
#include "fedpkd/tensor/ops.hpp"

namespace {

using namespace fedpkd;
using tensor::Rng;
using tensor::Tensor;

// ------------------------------------------------------------- ThreadPool ---

TEST(ThreadPool, EveryIndexExecutesExactlyOnce) {
  exec::ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<int> hits(kN, 0);  // chunks are disjoint, so plain ints suffice
  pool.run(kN, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ThreadPool, WorkerExceptionPropagatesToCaller) {
  exec::ThreadPool pool(4);
  EXPECT_THROW(
      pool.run(100,
               [&](std::size_t begin, std::size_t end) {
                 for (std::size_t i = begin; i < end; ++i) {
                   if (i == 57) throw std::runtime_error("chunk failed");
                 }
               }),
      std::runtime_error);

  // The failure must not poison the pool: the next run still works.
  std::atomic<int> total{0};
  pool.run(64, [&](std::size_t begin, std::size_t end) {
    total += static_cast<int>(end - begin);
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, CallerChunkExceptionPropagates) {
  exec::ThreadPool pool(2);
  // Index 0 always lands in the caller's own chunk.
  EXPECT_THROW(pool.run(10,
                        [&](std::size_t begin, std::size_t end) {
                          for (std::size_t i = begin; i < end; ++i) {
                            if (i == 0) throw std::invalid_argument("caller");
                          }
                        }),
               std::invalid_argument);
}

TEST(ThreadPool, ReusableAcrossRounds) {
  exec::ThreadPool pool(3);
  long long sum = 0;
  for (int round = 0; round < 200; ++round) {
    std::vector<long long> partial(64, 0);
    pool.run(64, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        partial[i] = static_cast<long long>(i);
      }
    });
    sum += std::accumulate(partial.begin(), partial.end(), 0LL);
  }
  EXPECT_EQ(sum, 200LL * (63 * 64 / 2));
}

TEST(ThreadPool, ZeroAndOneElementRangesDoNotDeadlock) {
  exec::ThreadPool pool(4);
  int calls = 0;
  pool.run(0, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.run(1, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 1u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  // A full-width outer split leaves each lane a nesting budget of 1, so the
  // inner parallel_for must run inline — visible as in_parallel_region() —
  // and still cover every index exactly once. Driven through a ThreadPool
  // directly so the behavior is pinned regardless of the machine's core
  // count (the global pool clamps to hardware_threads()).
  exec::ThreadPool pool(4);
  std::vector<int> hits(32, 0);
  pool.run(4, [&](std::size_t begin, std::size_t end) {
    for (std::size_t outer = begin; outer < end; ++outer) {
      EXPECT_TRUE(exec::ThreadPool::in_parallel_region());
      EXPECT_EQ(exec::ThreadPool::lane_budget(), 1u);
      exec::parallel_for(8, [&](std::size_t b, std::size_t e) {
        EXPECT_TRUE(exec::ThreadPool::in_parallel_region());
        for (std::size_t inner = b; inner < e; ++inner) {
          ++hits[outer * 8 + inner];
        }
      });
    }
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, NestedRunWithLeftoverBudgetFansOutWithoutOversubscribing) {
  // An outer split narrower than the pool leaves budget for nested fan-out:
  // with 4 lanes and an outer width of 2, each outer chunk may use 2 lanes.
  // The nested run must see that budget, split accordingly, and never exceed
  // the pool size in concurrently live lanes.
  exec::ThreadPool pool(4);
  std::vector<int> hits(2 * 64, 0);
  std::atomic<int> live{0};
  std::atomic<int> peak{0};
  pool.run(
      2,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t outer = begin; outer < end; ++outer) {
          EXPECT_EQ(exec::ThreadPool::lane_budget(), 2u);
          pool.run(64, [&](std::size_t b, std::size_t e) {
            const int now = ++live;
            int seen = peak.load();
            while (now > seen && !peak.compare_exchange_weak(seen, now)) {
            }
            for (std::size_t inner = b; inner < e; ++inner) {
              ++hits[outer * 64 + inner];
            }
            --live;
          });
        }
      },
      /*max_lanes=*/2);
  for (int h : hits) EXPECT_EQ(h, 1);
  EXPECT_LE(peak.load(), 4);
}

// --------------------------------------------------- Serial ≡ parallel ------

struct RunResult {
  fl::RunHistory history;
  std::vector<Tensor> client_weights;
  Tensor server_weights;  // empty if no server model
};

bool identical(const RunResult& a, const RunResult& b) {
  if (a.history.rounds.size() != b.history.rounds.size()) return false;
  for (std::size_t t = 0; t < a.history.rounds.size(); ++t) {
    const auto& ra = a.history.rounds[t];
    const auto& rb = b.history.rounds[t];
    if (ra.server_accuracy != rb.server_accuracy) return false;
    if (ra.client_accuracy != rb.client_accuracy) return false;
    if (ra.cumulative_bytes != rb.cumulative_bytes) return false;
  }
  for (std::size_t c = 0; c < a.client_weights.size(); ++c) {
    if (tensor::max_abs_difference(a.client_weights[c], b.client_weights[c]) !=
        0.0f) {
      return false;
    }
  }
  if (a.server_weights.numel() != b.server_weights.numel()) return false;
  if (a.server_weights.numel() > 0 &&
      tensor::max_abs_difference(a.server_weights, b.server_weights) != 0.0f) {
    return false;
  }
  return true;
}

/// Builds a fresh federation with `threads` lanes and runs `rounds` rounds of
/// the algorithm `make` constructs. Everything else is pinned to one seed.
template <typename MakeAlgo>
RunResult run_with_threads(std::size_t threads, const fl::PartitionSpec& spec,
                           MakeAlgo&& make, std::size_t rounds = 2) {
  data::SyntheticVision task(data::SyntheticVisionConfig::synth10(901));
  const auto bundle = task.make_bundle(320, 240, 160);

  fl::FederationConfig config;
  config.num_clients = 4;
  config.client_archs = {"resmlp11"};
  config.local_test_per_client = 40;
  config.seed = 902;
  config.num_threads = threads;
  auto fed = fl::build_federation(bundle, spec, config);

  auto algo = make(*fed);
  fl::RunOptions options;
  options.rounds = rounds;

  RunResult result;
  result.history = fl::run_federation(*algo, *fed, options);
  for (std::size_t vc = 0; vc < fed->num_clients(); ++vc) {
    fl::Client& client = fed->client(vc);
    result.client_weights.push_back(client.model.flat_weights());
  }
  if (nn::Classifier* server = algo->server_model()) {
    result.server_weights = server->flat_weights();
  }
  exec::set_num_threads(1);
  return result;
}

core::FedPkd::Options small_fedpkd_options() {
  core::FedPkd::Options options;
  options.local_epochs = 1;
  options.public_epochs = 1;
  options.server_epochs = 1;
  options.server_arch = "resmlp11";
  return options;
}

TEST(SerialParallelEquivalence, FedPkdRunIsBitwiseIdenticalAcrossThreads) {
  auto make = [](fl::Federation& fed) {
    return std::make_unique<core::FedPkd>(fed, small_fedpkd_options());
  };
  const auto spec = fl::PartitionSpec::dirichlet(0.3);
  const RunResult serial = run_with_threads(1, spec, make);
  const RunResult two = run_with_threads(2, spec, make);
  const RunResult four = run_with_threads(4, spec, make);
  EXPECT_TRUE(identical(serial, two));
  EXPECT_TRUE(identical(serial, four));
}

TEST(SerialParallelEquivalence,
     FedPkdSingleClassClientsAreBitwiseIdenticalAcrossThreads) {
  // class_split gives every class exactly one contributing client, driving
  // aggregate_prototypes through its single-contributor (copy) path each
  // round.
  auto make = [](fl::Federation& fed) {
    return std::make_unique<core::FedPkd>(fed, small_fedpkd_options());
  };
  const auto spec = fl::PartitionSpec::class_split();
  const RunResult serial = run_with_threads(1, spec, make);
  const RunResult two = run_with_threads(2, spec, make);
  const RunResult four = run_with_threads(4, spec, make);
  EXPECT_TRUE(identical(serial, two));
  EXPECT_TRUE(identical(serial, four));
}

TEST(SerialParallelEquivalence, FedAvgRunIsBitwiseIdenticalAcrossThreads) {
  auto make = [](fl::Federation& fed) {
    return std::make_unique<fl::FedAvg>(
        fed, fl::FedAvg::Options{.local_epochs = 1, .proximal_mu = {}});
  };
  const auto spec = fl::PartitionSpec::dirichlet(0.3);
  const RunResult serial = run_with_threads(1, spec, make);
  const RunResult two = run_with_threads(2, spec, make);
  const RunResult four = run_with_threads(4, spec, make);
  EXPECT_TRUE(identical(serial, two));
  EXPECT_TRUE(identical(serial, four));
}

TEST(SerialParallelEquivalence, ServerEnsembleDistillIsBitwiseIdentical) {
  Rng data_rng(903);
  const std::size_t n = 96, dim = 16, classes = 10;
  const Tensor inputs = Tensor::randn({n, dim}, data_rng);
  const Tensor teacher =
      tensor::softmax_rows(Tensor::randn({n, classes}, data_rng));
  const std::vector<int> pseudo = tensor::argmax_rows(teacher);

  Rng model_rng(904);
  nn::Classifier reference =
      nn::make_classifier("resmlp11", dim, classes, model_rng);

  core::PrototypeSet prototypes(classes, reference.feature_dim());
  Rng proto_rng(905);
  prototypes.matrix =
      Tensor::randn({classes, reference.feature_dim()}, proto_rng);
  // Leave one class absent so the masked row path runs under threads too.
  for (std::size_t j = 0; j + 1 < classes; ++j) {
    prototypes.present[j] = true;
    prototypes.support[j] = 1;
  }

  core::ServerDistillOptions options;
  options.delta = 0.5f;
  options.confidence_weighted = true;
  fl::TrainOptions train;
  train.epochs = 2;

  auto run = [&](std::size_t threads) {
    exec::set_num_threads(threads);
    nn::Classifier model = reference.clone();
    Rng rng(906);
    core::server_ensemble_distill(model, inputs, teacher, pseudo, prototypes,
                                  options, train, rng);
    exec::set_num_threads(1);
    return model.flat_weights();
  };

  const Tensor serial = run(1);
  const Tensor two = run(2);
  const Tensor four = run(4);
  EXPECT_EQ(tensor::max_abs_difference(serial, two), 0.0f);
  EXPECT_EQ(tensor::max_abs_difference(serial, four), 0.0f);
}

TEST(SerialParallelEquivalence, MatmulIsBitwiseIdenticalAcrossThreads) {
  Rng rng(907);
  const Tensor a = Tensor::randn({64, 48}, rng);
  const Tensor b = Tensor::randn({48, 56}, rng);
  const Tensor at = tensor::transpose(a);  // [48, 64]: matmul_transpose_a input
  const Tensor bt = tensor::transpose(b);  // [56, 48]: matmul_transpose_b input

  exec::set_num_threads(1);
  const Tensor serial = tensor::matmul(a, b);
  const Tensor serial_ta = tensor::matmul_transpose_a(at, b);
  const Tensor serial_tb = tensor::matmul_transpose_b(a, bt);

  for (std::size_t threads : {2u, 4u}) {
    exec::set_num_threads(threads);
    EXPECT_EQ(tensor::max_abs_difference(serial, tensor::matmul(a, b)), 0.0f);
    EXPECT_EQ(tensor::max_abs_difference(serial_ta,
                                         tensor::matmul_transpose_a(at, b)),
              0.0f);
    EXPECT_EQ(tensor::max_abs_difference(serial_tb,
                                         tensor::matmul_transpose_b(a, bt)),
              0.0f);
  }
  exec::set_num_threads(1);
}

TEST(SerialParallelEquivalence,
     OddShapeAndFusedMatmulsAreBitwiseIdenticalAcrossThreads) {
  // Shapes that are not multiples of the 6x8 / 6x16 register tiles or the
  // 16-wide packed B strips, plus the fused bias/accumulate forms, across
  // thread counts. Large enough that the flop-threshold gate actually fans
  // the work out.
  struct Case {
    std::size_t m, k, n;
  };
  for (const Case& s : {Case{33, 65, 17}, Case{61, 37, 130}, Case{5, 513, 9}}) {
    Rng rng(911 + s.m);
    const Tensor a = Tensor::randn({s.m, s.k}, rng);
    const Tensor b = Tensor::randn({s.k, s.n}, rng);
    const Tensor bias = Tensor::randn({s.n}, rng);
    const Tensor at = tensor::transpose(a);
    const Tensor bt = tensor::transpose(b);
    const Tensor acc_init = Tensor::randn({s.m, s.n}, rng);

    exec::set_num_threads(1);
    const Tensor serial = tensor::matmul(a, b);
    const Tensor serial_bias = tensor::matmul_bias(a, b, bias);
    const Tensor serial_tb = tensor::matmul_transpose_b(a, bt);
    Tensor serial_acc = acc_init;
    tensor::matmul_transpose_a_accumulate(at, b, serial_acc);

    for (std::size_t threads : {2u, 4u}) {
      exec::set_num_threads(threads);
      EXPECT_EQ(tensor::max_abs_difference(serial, tensor::matmul(a, b)), 0.0f)
          << "threads=" << threads << " m=" << s.m;
      EXPECT_EQ(tensor::max_abs_difference(serial_bias,
                                           tensor::matmul_bias(a, b, bias)),
                0.0f)
          << "threads=" << threads << " m=" << s.m;
      EXPECT_EQ(tensor::max_abs_difference(serial_tb,
                                           tensor::matmul_transpose_b(a, bt)),
                0.0f)
          << "threads=" << threads << " m=" << s.m;
      Tensor acc = acc_init;
      tensor::matmul_transpose_a_accumulate(at, b, acc);
      EXPECT_EQ(tensor::max_abs_difference(serial_acc, acc), 0.0f)
          << "threads=" << threads << " m=" << s.m;
    }
    exec::set_num_threads(1);
  }
}

TEST(SerialParallelEquivalence, FedEtRunIsBitwiseIdenticalAcrossThreads) {
  // FedET's round mixes in-place softmax on moved logits buffers and a shared
  // digest set across concurrently-digesting clients; none of it may depend
  // on thread count.
  auto make = [](fl::Federation& fed) {
    fl::FedEt::Options options;
    options.local_epochs = 1;
    options.server_epochs = 1;
    options.client_digest_epochs = 1;
    options.server_arch = "resmlp11";
    return std::make_unique<fl::FedEt>(fed, options);
  };
  const auto spec = fl::PartitionSpec::dirichlet(0.3);
  const RunResult serial = run_with_threads(1, spec, make);
  const RunResult two = run_with_threads(2, spec, make);
  const RunResult four = run_with_threads(4, spec, make);
  EXPECT_TRUE(identical(serial, two));
  EXPECT_TRUE(identical(serial, four));
}

}  // namespace
