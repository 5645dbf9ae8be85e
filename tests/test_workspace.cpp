// Two memory-reuse guarantees: (1) the per-thread Workspace arena hands out
// scratch without per-call heap traffic and rewinds cleanly, and (2) the
// Tensor allocation counter makes buffer reuse observable — which the final
// test uses to pin the Trainer hot loop's per-step allocation budget.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "fedpkd/data/synthetic_vision.hpp"
#include "fedpkd/exec/thread_pool.hpp"
#include "fedpkd/fl/client.hpp"
#include "fedpkd/fl/cohort.hpp"
#include "fedpkd/fl/trainer.hpp"
#include "fedpkd/nn/activation.hpp"
#include "fedpkd/nn/layer_norm.hpp"
#include "fedpkd/nn/model_zoo.hpp"
#include "fedpkd/nn/sequential.hpp"
#include "fedpkd/tensor/ops.hpp"
#include "fedpkd/tensor/tensor.hpp"
#include "fedpkd/tensor/workspace.hpp"

namespace {

using namespace fedpkd;
using tensor::Rng;
using tensor::Tensor;
using tensor::Workspace;

// --------------------------------------------------------------- Workspace ---

TEST(Workspace, TakeReturnsDisjointSpansAndCapacityIsSticky) {
  Workspace ws;
  const auto mark = ws.mark();
  auto a = ws.take(100);
  auto b = ws.take(200);
  EXPECT_EQ(a.size(), 100u);
  EXPECT_EQ(b.size(), 200u);
  // Disjoint: writing one span never shows up in the other.
  for (float& v : a) v = 1.0f;
  for (float& v : b) v = 2.0f;
  for (float v : a) EXPECT_EQ(v, 1.0f);

  const std::size_t grown = ws.capacity();
  EXPECT_GE(grown, 300u);
  ws.rewind(mark);
  // Rewinding releases the floats for reuse but keeps the capacity.
  EXPECT_EQ(ws.capacity(), grown);
  auto c = ws.take(100);
  EXPECT_EQ(c.data(), a.data());  // same storage handed out again
  EXPECT_EQ(ws.capacity(), grown);
}

TEST(Workspace, LargeRequestGetsItsOwnBlockWithoutInvalidatingOldSpans) {
  Workspace ws;
  auto small = ws.take(16);
  small[0] = 42.0f;
  // Far larger than any existing block: forces a new block; the earlier span
  // must stay valid because blocks never reallocate.
  auto big = ws.take(1 << 20);
  EXPECT_EQ(big.size(), std::size_t{1} << 20);
  EXPECT_EQ(small[0], 42.0f);
}

TEST(Workspace, ScopeRewindsOnDestruction) {
  Workspace ws;
  ws.take(64);
  const std::size_t before = ws.capacity();
  float* first_scratch = nullptr;
  {
    Workspace::Scope scope(ws);
    auto s = scope.take(1000);
    first_scratch = s.data();
    scope.take(500);
  }
  {
    Workspace::Scope scope(ws);
    auto s = scope.take(1000);
    // The scope's scratch was released, so the same storage comes back.
    EXPECT_EQ(s.data(), first_scratch);
  }
  EXPECT_GE(ws.capacity(), before);
}

TEST(Workspace, PerThreadInstancesAreIndependent) {
  Workspace* main_ws = &Workspace::per_thread();
  EXPECT_EQ(main_ws, &Workspace::per_thread());  // stable within a thread
  Workspace* other_ws = nullptr;
  std::thread t([&] { other_ws = &Workspace::per_thread(); });
  t.join();
  EXPECT_NE(other_ws, nullptr);
  EXPECT_NE(other_ws, main_ws);
}

// ---------------------------------------------------- Allocation counter ----

TEST(AllocationCounter, CountsFreshBuffersButNotCapacityReuse) {
  const auto base = Tensor::allocation_count();
  Tensor a({4, 8});
  EXPECT_EQ(Tensor::allocation_count(), base + 1);

  Tensor b = a;  // copy construction buys a new buffer
  EXPECT_EQ(Tensor::allocation_count(), base + 2);

  Tensor c = std::move(a);  // moves steal, never allocate
  EXPECT_EQ(Tensor::allocation_count(), base + 2);

  b = c;  // copy-assign into an equally-sized buffer reuses capacity
  EXPECT_EQ(Tensor::allocation_count(), base + 2);

  b.ensure_shape({2, 4});  // shrink: capacity suffices
  EXPECT_EQ(Tensor::allocation_count(), base + 2);
  b.ensure_shape({16, 16});  // growth beyond capacity is a real allocation
  EXPECT_EQ(Tensor::allocation_count(), base + 3);

  Tensor empty;  // shapeless default construction owns no buffer
  EXPECT_EQ(Tensor::allocation_count(), base + 3);
}

// -------------------------------------------- Trainer per-step allocations ---

/// Per-step Tensor allocations of `run`, measured by differencing a short and
/// a long run so one-time setup (model caches warming up, optimizer state)
/// cancels out and only the steady-state per-step cost remains.
template <typename Run>
double steady_state_allocs_per_step(Run&& run) {
  const auto before_short = Tensor::allocation_count();
  const std::size_t steps_short = run(2);
  const auto before_long = Tensor::allocation_count();
  const std::size_t steps_long = run(6);
  const auto after = Tensor::allocation_count();
  const double extra_allocs =
      static_cast<double>(after - before_long) -
      static_cast<double>(before_long - before_short);
  const double extra_steps =
      static_cast<double>(steps_long) - static_cast<double>(steps_short);
  return extra_allocs / extra_steps;
}

// The pre-optimization trainer measured 67–69 allocations per step on this
// exact workload (resmlp11, batch 32). The reuse work brought it to ≤30; the
// bound asserts the ≥50% reduction with a little slack so unrelated churn
// does not flake the suite.
constexpr double kPerStepBudget = 33.0;

TEST(TrainerAllocations, SupervisedStepStaysWithinBudget) {
  exec::set_num_threads(1);
  Rng data_rng(7);
  data::SyntheticVision task(data::SyntheticVisionConfig::synth10(7));
  const data::Dataset dataset = task.sample(256, data_rng);
  Rng model_rng(8);
  nn::Classifier model =
      nn::make_classifier("resmlp11", dataset.dim(), 10, model_rng);

  Rng train_rng(9);
  const double per_step = steady_state_allocs_per_step([&](std::size_t epochs) {
    fl::TrainOptions options;
    options.epochs = epochs;
    options.batch_size = 32;
    return fl::train_supervised(model, dataset, options, train_rng).steps;
  });
  EXPECT_LE(per_step, kPerStepBudget) << "per-step allocs: " << per_step;
}

TEST(TrainerAllocations, DistillStepStaysWithinBudget) {
  exec::set_num_threads(1);
  Rng data_rng(17);
  data::SyntheticVision task(data::SyntheticVisionConfig::synth10(17));
  const data::Dataset dataset = task.sample(256, data_rng);
  Rng model_rng(18);
  nn::Classifier model =
      nn::make_classifier("resmlp11", dataset.dim(), 10, model_rng);

  Rng teacher_rng(19);
  fl::DistillSet set;
  set.inputs = dataset.features;
  set.teacher_probs =
      tensor::softmax_rows(Tensor::randn({dataset.size(), 10}, teacher_rng));
  set.pseudo_labels = tensor::argmax_rows(set.teacher_probs);

  Rng train_rng(20);
  const double per_step = steady_state_allocs_per_step([&](std::size_t epochs) {
    fl::TrainOptions options;
    options.epochs = epochs;
    options.batch_size = 32;
    return fl::train_distill(model, set, /*gamma=*/0.7f, options, train_rng,
                             /*temperature=*/2.0f)
        .steps;
  });
  EXPECT_LE(per_step, kPerStepBudget) << "per-step allocs: " << per_step;
}

// ----------------------------------- nested parallelism arena isolation ---

/// Client-parallel sections nest matmul row-chunking, so one worker can hold
/// live outer scratch while other workers bump their own arenas for the
/// nested work. This drives exactly that shape on a real 4-thread pool
/// (bypassing the global clamp) and proves (a) outer spans survive the
/// nested fan-out byte-for-byte and (b) spans handed to different threads
/// never alias. Run under ASan, the canary writes also catch any
/// out-of-bounds bleed at block edges.
TEST(Workspace, NoCrossThreadArenaAliasingUnderNestedParallelism) {
  exec::ThreadPool pool(4);
  constexpr std::size_t kOuterFloats = 2048;
  constexpr std::size_t kInnerFloats = 1024;

  struct Range {
    std::thread::id thread;
    const float* begin;
    const float* end;
  };
  std::mutex mutex;
  std::vector<Range> ranges;
  const auto record = [&](std::span<float> s) {
    std::lock_guard<std::mutex> lock(mutex);
    ranges.push_back({std::this_thread::get_id(), s.data(), s.data() + s.size()});
  };

  std::atomic<int> clobbered{0};
  // Outer: two client-style lanes with leftover budget, so the nested run
  // below genuinely fans out to the remaining workers.
  pool.run(
      2,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t lane = begin; lane < end; ++lane) {
          Workspace& ws = Workspace::per_thread();
          Workspace::Scope scope(ws);
          std::span<float> mine = scope.take(kOuterFloats);
          record(mine);
          const float tag = 1.0f + static_cast<float>(lane);
          for (float& f : mine) f = tag;

          // Nested: row-chunk-style fan-out; every chunk bumps whichever
          // thread executes it and writes its own canary.
          pool.run(8, [&](std::size_t ib, std::size_t ie) {
            for (std::size_t i = ib; i < ie; ++i) {
              Workspace& nested_ws = Workspace::per_thread();
              Workspace::Scope nested_scope(nested_ws);
              std::span<float> scratch = nested_scope.take(kInnerFloats);
              record(scratch);
              const float nested_tag = -100.0f - static_cast<float>(i);
              for (float& f : scratch) f = nested_tag;
              for (const float f : scratch) {
                if (f != nested_tag) clobbered.fetch_add(1);
              }
            }
          });

          for (const float f : mine) {
            if (f != tag) clobbered.fetch_add(1);
          }
        }
      },
      /*max_lanes=*/2);

  EXPECT_EQ(clobbered.load(), 0) << "a nested chunk overwrote live scratch";
  // Spans observed on different threads come from different arenas and must
  // be pairwise disjoint, no matter when they were live.
  for (std::size_t a = 0; a < ranges.size(); ++a) {
    for (std::size_t b = a + 1; b < ranges.size(); ++b) {
      if (ranges[a].thread == ranges[b].thread) continue;
      const bool overlap = ranges[a].begin < ranges[b].end &&
                           ranges[b].begin < ranges[a].end;
      EXPECT_FALSE(overlap) << "cross-thread arena spans alias";
    }
  }
}

// ------------------------------------------ cohort stepping allocations ---

/// The batched cohort path must reach the same steady state as the trainer:
/// after one warm-up round, computing the cohort's public logits allocates no
/// Tensor buffers at all — and therefore cannot grow with cohort size.
TEST(CohortAllocations, SteadyStateIsAllocationFreeAtAnyCohortSize) {
  exec::set_num_threads(1);
  Rng data_rng(41);
  data::SyntheticVision task(data::SyntheticVisionConfig::synth10(41));
  const data::Dataset pub = task.sample(64, data_rng);
  const data::Dataset split = task.sample(32, data_rng);

  const auto make_clients = [&](std::size_t count) {
    auto clients = std::make_unique<std::vector<fl::Client>>();
    clients->reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      // Two architectures, so the stepper exercises grouped fusion.
      const std::string arch = i % 2 == 0 ? "resmlp11" : "resmlp20";
      Rng model_rng(100 + i);
      nn::Classifier model = nn::make_classifier(arch, pub.dim(), 10, model_rng);
      clients->emplace_back(static_cast<comm::NodeId>(i + 1),
                            fl::ClientConfig{.arch = arch}, std::move(model),
                            split, split, Rng(200 + i));
    }
    return clients;
  };

  fl::CohortStepper stepper;
  std::vector<Tensor> logits;
  const auto steady_allocs = [&](std::vector<fl::Client>& clients) {
    std::vector<fl::Client*> active;
    for (fl::Client& c : clients) active.push_back(&c);
    stepper.compute_public_logits(active, pub.features, logits);  // warm-up
    const auto before = Tensor::allocation_count();
    stepper.compute_public_logits(active, pub.features, logits);
    return Tensor::allocation_count() - before;
  };

  auto small = make_clients(4);
  auto large = make_clients(8);
  EXPECT_EQ(steady_allocs(*small), 0u);
  EXPECT_GE(stepper.fused_clients(), 4u);
  // Growing the cohort re-warms (wider fused buffers), then settles again:
  // per-round allocations do not scale with cohort size.
  EXPECT_EQ(steady_allocs(*large), 0u);
  EXPECT_GE(stepper.fused_clients(), 8u);

  // And the fused result is exactly what each client computes on its own.
  for (std::size_t i = 0; i < large->size(); ++i) {
    Tensor reference = fl::compute_logits((*large)[i].model, pub.features);
    EXPECT_EQ(tensor::max_abs_difference(logits[i], reference), 0.0f)
        << "cohort logits diverge from the per-client path for client " << i;
  }
}

/// The stepper row-tiles at 256 rows; a public set spanning several tiles
/// (including a ragged final one) must still be bitwise identical to the
/// per-client path — for fused groups AND the singleton fallback, which is
/// tiled the same way.
TEST(CohortAllocations, MultiTilePublicSetIsBitwiseIdentical) {
  exec::set_num_threads(1);
  Rng data_rng(43);
  data::SyntheticVision task(data::SyntheticVisionConfig::synth10(43));
  const data::Dataset pub = task.sample(600, data_rng);  // 256 + 256 + 88
  const data::Dataset split = task.sample(16, data_rng);

  // Two fusable pairs plus one singleton (falls back to tiled member path).
  const std::vector<std::string> archs = {"resmlp11", "resmlp20", "resmlp11",
                                          "resmlp20", "resmlp56"};
  std::vector<fl::Client> clients;
  clients.reserve(archs.size());
  for (std::size_t i = 0; i < archs.size(); ++i) {
    Rng model_rng(300 + i);
    nn::Classifier model =
        nn::make_classifier(archs[i], pub.dim(), 10, model_rng);
    clients.emplace_back(static_cast<comm::NodeId>(i + 1),
                         fl::ClientConfig{.arch = archs[i]}, std::move(model),
                         split, split, Rng(400 + i));
  }
  std::vector<fl::Client*> active;
  for (fl::Client& c : clients) active.push_back(&c);

  fl::CohortStepper stepper;
  std::vector<Tensor> logits;
  stepper.compute_public_logits(active, pub.features, logits);
  EXPECT_EQ(stepper.fused_clients(), 4u);

  for (std::size_t i = 0; i < clients.size(); ++i) {
    Tensor reference = fl::compute_logits(clients[i].model, pub.features);
    EXPECT_EQ(tensor::max_abs_difference(logits[i], reference), 0.0f)
        << "multi-tile cohort logits diverge for client " << i << " ("
        << archs[i] << ")";
  }
}

/// Stem fusion needs a Linear first layer in a Sequential body. A group of
/// same-architecture clients whose body starts with anything else runs the
/// per-member path instead, with the same bits.
TEST(CohortAllocations, BodyWithoutLinearStemIsNotFused) {
  exec::set_num_threads(1);
  Rng data_rng(45);
  data::SyntheticVision task(data::SyntheticVisionConfig::synth10(45));
  const data::Dataset pub = task.sample(40, data_rng);
  const data::Dataset split = task.sample(16, data_rng);

  std::vector<fl::Client> clients;
  clients.reserve(2);
  for (std::size_t i = 0; i < 2; ++i) {
    Rng model_rng(500 + i);
    auto body = std::make_unique<nn::Sequential>();
    body->add(std::make_unique<nn::LayerNorm>(pub.dim()));
    body->add(std::make_unique<nn::Linear>(pub.dim(), 16, model_rng));
    body->add(std::make_unique<nn::Relu>());
    nn::Classifier model("normed", std::move(body),
                         std::make_unique<nn::Linear>(16, 10, model_rng),
                         pub.dim());
    clients.emplace_back(static_cast<comm::NodeId>(i + 1),
                         fl::ClientConfig{.arch = "normed"}, std::move(model),
                         split, split, Rng(600 + i));
  }
  std::vector<fl::Client*> active;
  for (fl::Client& c : clients) active.push_back(&c);

  fl::CohortStepper stepper;
  std::vector<Tensor> logits;
  stepper.compute_public_logits(active, pub.features, logits);
  EXPECT_EQ(stepper.fused_clients(), 0u);
  for (std::size_t i = 0; i < clients.size(); ++i) {
    Tensor reference = fl::compute_logits(clients[i].model, pub.features);
    EXPECT_EQ(tensor::max_abs_difference(logits[i], reference), 0.0f)
        << "unfused cohort logits diverge for client " << i;
  }
}

}  // namespace
