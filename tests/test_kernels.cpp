// The blocked kernels' core promise: register/cache blocking regroups which
// output elements are in flight but never the per-element float operation
// sequence, so every blocked kernel is BITWISE equal to the retained naive
// reference — on tile-multiple shapes, ragged edges, degenerate dims, and
// inputs salted with exact zeros (which exercise the zero-skip predicate).

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "fedpkd/tensor/kernels.hpp"
#include "fedpkd/tensor/rng.hpp"

namespace {

using namespace fedpkd::tensor;

struct GemmShape {
  std::size_t m, k, n;
};

// Every variant runs 6-row tiles, 16 columns wide with AVX (8 with SSE), and
// k is never blocked. matmul / ta / bias / ta-acc pack 16-wide B strips once a
// chunk has two full row tiles and k >= 64; A·B^T packs its transposed B
// strips whenever a chunk has a full row tile and n >= 16. Everything else
// (row tail m % 6, column tail n % 16) takes the edge or per-element path.
// The list covers exact multiples, ragged remainders in every dimension, the
// m=1 / k=1 degenerate cases the training loop actually produces, long k, and
// the packed shapes of the resmlp layers (32 x 96 x 96, and 256 x 96 x 10).
const std::vector<GemmShape> kShapes = {
    {1, 1, 1},    {1, 5, 3},    {5, 17, 9},    {4, 8, 16},   {33, 33, 33},
    {64, 48, 56}, {7, 1, 19},   {1, 64, 64},   {13, 700, 5}, {32, 96, 96},
    {32, 48, 48}, {32, 80, 64}, {12, 64, 16},  {256, 96, 10}, {13, 67, 35},
};

std::vector<float> random_values(std::size_t count, std::uint64_t seed,
                                 bool inject_zeros) {
  Rng rng(seed);
  std::vector<float> values(count);
  for (std::size_t i = 0; i < count; ++i) {
    values[i] = static_cast<float>(rng.normal());
  }
  if (inject_zeros) {
    // Exact zeros at a fixed stride hit the zero-skip predicate in both
    // implementations.
    for (std::size_t i = 0; i < count; i += 3) values[i] = 0.0f;
  }
  return values;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(BlockedKernels, MatmulMatchesNaiveBitwise) {
  for (bool zeros : {false, true}) {
    for (const GemmShape& s : kShapes) {
      const auto a = random_values(s.m * s.k, 11 + s.m, zeros);
      const auto b = random_values(s.k * s.n, 23 + s.n, false);
      std::vector<float> blocked(s.m * s.n, -1.0f);
      std::vector<float> naive(s.m * s.n, -2.0f);
      kernels::matmul_rows(a.data(), b.data(), blocked.data(), s.k, s.n, 0,
                           s.m);
      kernels::matmul_rows_naive(a.data(), b.data(), naive.data(), s.k, s.n, 0,
                                 s.m);
      EXPECT_TRUE(bitwise_equal(blocked, naive))
          << "m=" << s.m << " k=" << s.k << " n=" << s.n << " zeros=" << zeros;
    }
  }
}

TEST(BlockedKernels, MatmulTransposeAMatchesNaiveBitwise) {
  for (bool zeros : {false, true}) {
    for (const GemmShape& s : kShapes) {
      // A is stored [k, m] for the transpose-A product.
      const auto a = random_values(s.k * s.m, 31 + s.k, zeros);
      const auto b = random_values(s.k * s.n, 41 + s.n, false);
      std::vector<float> blocked(s.m * s.n, -1.0f);
      std::vector<float> naive(s.m * s.n, -2.0f);
      kernels::matmul_ta_rows(a.data(), b.data(), blocked.data(), s.k, s.m,
                              s.n, 0, s.m);
      kernels::matmul_ta_rows_naive(a.data(), b.data(), naive.data(), s.k, s.m,
                                    s.n, 0, s.m);
      EXPECT_TRUE(bitwise_equal(blocked, naive))
          << "m=" << s.m << " k=" << s.k << " n=" << s.n << " zeros=" << zeros;
    }
  }
}

TEST(BlockedKernels, MatmulTransposeBMatchesNaiveBitwise) {
  for (bool zeros : {false, true}) {
    for (const GemmShape& s : kShapes) {
      const auto a = random_values(s.m * s.k, 53 + s.m, zeros);
      // B is stored [n, k] for the transpose-B product.
      const auto b = random_values(s.n * s.k, 61 + s.k, zeros);
      std::vector<float> blocked(s.m * s.n, -1.0f);
      std::vector<float> naive(s.m * s.n, -2.0f);
      kernels::matmul_tb_rows(a.data(), b.data(), blocked.data(), s.k, s.n, 0,
                              s.m);
      kernels::matmul_tb_rows_naive(a.data(), b.data(), naive.data(), s.k, s.n,
                                    0, s.m);
      EXPECT_TRUE(bitwise_equal(blocked, naive))
          << "m=" << s.m << " k=" << s.k << " n=" << s.n << " zeros=" << zeros;
    }
  }
}

TEST(BlockedKernels, MatmulTransposeBMultipliesZerosByInfAndNan) {
  // matmul_tb_rows_naive has no zero-skip: 0 * Inf and 0 * NaN are NaN. The
  // packed A·B^T path must keep that, in the packed strip (columns 0 and 1)
  // and in the column tail (column n - 1 when n % 16 != 0).
  for (const GemmShape& s : std::vector<GemmShape>{
           {12, 64, 16}, {32, 96, 96}, {13, 67, 35}, {32, 80, 64}}) {
    auto a = random_values(s.m * s.k, 163 + s.m, true);
    for (std::size_t kk = 0; kk < s.k; ++kk) a[kk] = 0.0f;  // row 0 all zero
    auto b = random_values(s.n * s.k, 167 + s.k, true);
    b[0 * s.k + 5] = std::numeric_limits<float>::infinity();
    b[1 * s.k + 7] = std::numeric_limits<float>::quiet_NaN();
    b[(s.n - 1) * s.k + 3] = -std::numeric_limits<float>::infinity();
    std::vector<float> blocked(s.m * s.n, -1.0f);
    std::vector<float> naive(s.m * s.n, -2.0f);
    kernels::matmul_tb_rows(a.data(), b.data(), blocked.data(), s.k, s.n, 0,
                            s.m);
    kernels::matmul_tb_rows_naive(a.data(), b.data(), naive.data(), s.k, s.n,
                                  0, s.m);
    EXPECT_TRUE(bitwise_equal(blocked, naive))
        << "m=" << s.m << " k=" << s.k << " n=" << s.n;
    EXPECT_TRUE(std::isnan(blocked[0])) << "0 * Inf was skipped";
    EXPECT_TRUE(std::isnan(blocked[1])) << "0 * NaN was skipped";
    EXPECT_TRUE(std::isnan(blocked[s.n - 1])) << "0 * -Inf was skipped";
  }
}

/// `count` floats whose last one ends exactly where a PROT_NONE page begins,
/// so a kernel that touches a float past the end faults at once.
class GuardedFloats {
 public:
  explicit GuardedFloats(std::size_t count) {
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    const std::size_t bytes = count * sizeof(float);
    const std::size_t data_pages = (bytes + page - 1) / page;
    size_ = (data_pages + 1) * page;
    void* base = mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) throw std::runtime_error("mmap failed");
    base_ = static_cast<char*>(base);
    if (mprotect(base_ + data_pages * page, page, PROT_NONE) != 0) {
      munmap(base_, size_);
      throw std::runtime_error("mprotect failed");
    }
    data_ = reinterpret_cast<float*>(base_ + data_pages * page - bytes);
  }
  ~GuardedFloats() { munmap(base_, size_); }
  GuardedFloats(const GuardedFloats&) = delete;
  GuardedFloats& operator=(const GuardedFloats&) = delete;

  float* data() { return data_; }
  void fill(const std::vector<float>& values) {
    std::memcpy(data_, values.data(), values.size() * sizeof(float));
  }

 private:
  char* base_ = nullptr;
  std::size_t size_ = 0;
  float* data_ = nullptr;
};

TEST(BlockedKernels, NoGemmVariantTouchesPastItsOperands) {
  // A, B, C and the bias each end on a guard page, so any over-read of a
  // partial tile, a packed strip or a row tail segfaults. The results must
  // still equal the references computed in ordinary memory.
  for (const GemmShape& s : kShapes) {
    const auto a_values = random_values(s.m * s.k, 181 + s.m, true);
    const auto b_values = random_values(s.k * s.n, 191 + s.n, true);
    const auto bias_values = random_values(s.n, 193, false);
    GuardedFloats a(s.m * s.k), b(s.k * s.n), bias(s.n), c(s.m * s.n);
    a.fill(a_values);
    b.fill(b_values);
    bias.fill(bias_values);
    std::vector<float> expected(s.m * s.n);
    const auto check = [&](const char* variant) {
      EXPECT_EQ(std::memcmp(c.data(), expected.data(),
                            expected.size() * sizeof(float)),
                0)
          << variant << " m=" << s.m << " k=" << s.k << " n=" << s.n;
    };
    // Each variant runs on the whole range and on a split that starts the
    // second chunk off the 6-row grid.
    const auto both_ranges = [&](const auto& rows) {
      rows(0, s.m);
      rows(0, s.m / 2);
      rows(s.m / 2, s.m);
    };

    kernels::matmul_rows_naive(a_values.data(), b_values.data(),
                               expected.data(), s.k, s.n, 0, s.m);
    both_ranges([&](std::size_t r0, std::size_t r1) {
      kernels::matmul_rows(a.data(), b.data(), c.data(), s.k, s.n, r0, r1);
    });
    check("matmul_rows");
    both_ranges([&](std::size_t r0, std::size_t r1) {
      kernels::matmul_rows_naive(a.data(), b.data(), c.data(), s.k, s.n, r0,
                                 r1);
    });
    check("matmul_rows_naive");
    for (std::size_t r = 0; r < s.m; ++r) {
      for (std::size_t j = 0; j < s.n; ++j) {
        expected[r * s.n + j] += bias_values[j];
      }
    }
    both_ranges([&](std::size_t r0, std::size_t r1) {
      kernels::matmul_bias_rows(a.data(), b.data(), bias.data(), c.data(), s.k,
                                s.n, r0, r1);
    });
    check("matmul_bias_rows");

    // A read as [k, m] for the transpose-A products.
    kernels::matmul_ta_rows_naive(a_values.data(), b_values.data(),
                                  expected.data(), s.k, s.m, s.n, 0, s.m);
    both_ranges([&](std::size_t r0, std::size_t r1) {
      kernels::matmul_ta_rows(a.data(), b.data(), c.data(), s.k, s.m, s.n, r0,
                              r1);
    });
    check("matmul_ta_rows");
    both_ranges([&](std::size_t r0, std::size_t r1) {
      kernels::matmul_ta_rows_naive(a.data(), b.data(), c.data(), s.k, s.m,
                                    s.n, r0, r1);
    });
    check("matmul_ta_rows_naive");
    std::vector<float> initial(s.m * s.n, 0.5f);
    for (std::size_t i = 0; i < expected.size(); ++i) expected[i] += 0.5f;
    c.fill(initial);
    kernels::matmul_ta_acc_rows(a.data(), b.data(), c.data(), s.k, s.m, s.n, 0,
                                s.m);
    check("matmul_ta_acc_rows");

    // B read as [n, k] for the transpose-B products.
    kernels::matmul_tb_rows_naive(a_values.data(), b_values.data(),
                                  expected.data(), s.k, s.n, 0, s.m);
    both_ranges([&](std::size_t r0, std::size_t r1) {
      kernels::matmul_tb_rows(a.data(), b.data(), c.data(), s.k, s.n, r0, r1);
    });
    check("matmul_tb_rows");
    both_ranges([&](std::size_t r0, std::size_t r1) {
      kernels::matmul_tb_rows_naive(a.data(), b.data(), c.data(), s.k, s.n,
                                    r0, r1);
    });
    check("matmul_tb_rows_naive");
  }
}

TEST(BlockedKernels, ZeroRowInputProducesZeroOutput) {
  // A row of exact zeros must reduce to exact 0.0f in every variant (the
  // zero-skip path leaves the accumulator untouched).
  const std::size_t m = 6, k = 20, n = 11;
  auto a = random_values(m * k, 71, false);
  for (std::size_t c = 0; c < k; ++c) a[2 * k + c] = 0.0f;
  const auto b = random_values(k * n, 73, false);
  std::vector<float> out(m * n, -1.0f);
  kernels::matmul_rows(a.data(), b.data(), out.data(), k, n, 0, m);
  for (std::size_t c = 0; c < n; ++c) {
    EXPECT_EQ(out[2 * n + c], 0.0f) << "col " << c;
  }
}

TEST(BlockedKernels, RowRangeSplitMatchesFullPass) {
  // Computing [0, m) in one call must equal any partition into row ranges —
  // this is the property parallel_for relies on.
  const std::size_t m = 13, k = 37, n = 29;
  const auto a = random_values(m * k, 81, true);
  const auto b = random_values(k * n, 83, false);
  std::vector<float> whole(m * n), split(m * n);
  kernels::matmul_rows(a.data(), b.data(), whole.data(), k, n, 0, m);
  kernels::matmul_rows(a.data(), b.data(), split.data(), k, n, 0, 5);
  kernels::matmul_rows(a.data(), b.data(), split.data(), k, n, 5, 6);
  kernels::matmul_rows(a.data(), b.data(), split.data(), k, n, 6, m);
  EXPECT_TRUE(bitwise_equal(whole, split));
  // An empty row range is a no-op.
  std::vector<float> untouched = whole;
  kernels::matmul_rows(a.data(), b.data(), untouched.data(), k, n, 4, 4);
  EXPECT_TRUE(bitwise_equal(whole, untouched));

  // The same splits put different rows in A·B^T's packed tiles and its row
  // tail (B read as [n, k]).
  kernels::matmul_tb_rows(a.data(), b.data(), whole.data(), k, n, 0, m);
  kernels::matmul_tb_rows(a.data(), b.data(), split.data(), k, n, 0, 5);
  kernels::matmul_tb_rows(a.data(), b.data(), split.data(), k, n, 5, 6);
  kernels::matmul_tb_rows(a.data(), b.data(), split.data(), k, n, 6, m);
  EXPECT_TRUE(bitwise_equal(whole, split));
  untouched = whole;
  kernels::matmul_tb_rows(a.data(), b.data(), untouched.data(), k, n, 4, 4);
  EXPECT_TRUE(bitwise_equal(whole, untouched));
}

TEST(FusedKernels, MatmulBiasEqualsMatmulThenRowBroadcastAdd) {
  for (const GemmShape& s : kShapes) {
    const auto a = random_values(s.m * s.k, 91 + s.m, true);
    const auto b = random_values(s.k * s.n, 93 + s.n, false);
    const auto bias = random_values(s.n, 97 + s.n, false);
    std::vector<float> fused(s.m * s.n);
    kernels::matmul_bias_rows(a.data(), b.data(), bias.data(), fused.data(),
                              s.k, s.n, 0, s.m);
    std::vector<float> reference(s.m * s.n);
    kernels::matmul_rows_naive(a.data(), b.data(), reference.data(), s.k, s.n,
                               0, s.m);
    for (std::size_t r = 0; r < s.m; ++r) {
      for (std::size_t c = 0; c < s.n; ++c) reference[r * s.n + c] += bias[c];
    }
    EXPECT_TRUE(bitwise_equal(fused, reference))
        << "m=" << s.m << " k=" << s.k << " n=" << s.n;
  }
}

TEST(FusedKernels, MatmulTransposeAAccumulateEqualsComputeThenAdd) {
  for (const GemmShape& s : kShapes) {
    const auto a = random_values(s.k * s.m, 101 + s.m, true);
    const auto b = random_values(s.k * s.n, 103 + s.n, false);
    const auto initial = random_values(s.m * s.n, 107, false);
    std::vector<float> fused = initial;
    kernels::matmul_ta_acc_rows(a.data(), b.data(), fused.data(), s.k, s.m,
                                s.n, 0, s.m);
    std::vector<float> product(s.m * s.n);
    kernels::matmul_ta_rows_naive(a.data(), b.data(), product.data(), s.k, s.m,
                                  s.n, 0, s.m);
    std::vector<float> reference = initial;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      reference[i] += product[i];
    }
    EXPECT_TRUE(bitwise_equal(fused, reference))
        << "m=" << s.m << " k=" << s.k << " n=" << s.n;
  }
}

TEST(BlockedKernels, TransposeMatchesNaive) {
  for (auto [m, n] : std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 1}, {1, 7}, {7, 1}, {32, 32}, {33, 31}, {100, 3}, {65, 129}}) {
    const auto a = random_values(m * n, 111 + m + n, false);
    std::vector<float> blocked(m * n), naive(m * n);
    kernels::transpose_blocked(a.data(), blocked.data(), m, n);
    kernels::transpose_naive(a.data(), naive.data(), m, n);
    EXPECT_TRUE(bitwise_equal(blocked, naive)) << "m=" << m << " n=" << n;
  }
}

// Reference softmax with the divide applied at each use (the pre-fusion
// form): the hoisted single divide must be bitwise identical because float
// division of the same operands rounds the same way every time.
void softmax_reference(const float* logits, float* out, std::size_t m,
                       std::size_t n, float temperature) {
  for (std::size_t r = 0; r < m; ++r) {
    const float* pl = logits + r * n;
    float* po = out + r * n;
    float mx = pl[0] / temperature;
    for (std::size_t c = 1; c < n; ++c) {
      mx = std::max(mx, pl[c] / temperature);
    }
    double z = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      po[c] = std::exp(pl[c] / temperature - mx);
      z += po[c];
    }
    const float inv = static_cast<float>(1.0 / z);
    for (std::size_t c = 0; c < n; ++c) po[c] *= inv;
  }
}

void log_softmax_reference(const float* logits, float* out, std::size_t m,
                           std::size_t n, float temperature) {
  for (std::size_t r = 0; r < m; ++r) {
    const float* pl = logits + r * n;
    float* po = out + r * n;
    float mx = pl[0] / temperature;
    for (std::size_t c = 1; c < n; ++c) {
      mx = std::max(mx, pl[c] / temperature);
    }
    double z = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      z += std::exp(pl[c] / temperature - mx);
    }
    const float logz = mx + static_cast<float>(std::log(z));
    for (std::size_t c = 0; c < n; ++c) po[c] = pl[c] / temperature - logz;
  }
}

TEST(FusedKernels, SoftmaxHoistedDivideMatchesPerUseDivide) {
  for (float temperature : {1.0f, 2.0f, 0.5f, 3.7f}) {
    for (auto [m, n] : std::vector<std::pair<std::size_t, std::size_t>>{
             {1, 1}, {1, 10}, {9, 10}, {33, 17}}) {
      const auto logits = random_values(m * n, 131 + m, false);
      std::vector<float> fused(m * n), reference(m * n);
      kernels::softmax_rows(logits.data(), fused.data(), m, n, temperature);
      softmax_reference(logits.data(), reference.data(), m, n, temperature);
      EXPECT_TRUE(bitwise_equal(fused, reference))
          << "m=" << m << " n=" << n << " T=" << temperature;

      // Aliased in-place form must produce the same bits.
      std::vector<float> aliased = logits;
      kernels::softmax_rows(aliased.data(), aliased.data(), m, n, temperature);
      EXPECT_TRUE(bitwise_equal(aliased, reference));
    }
  }
}

TEST(FusedKernels, LogSoftmaxHoistedDivideMatchesPerUseDivide) {
  for (float temperature : {1.0f, 2.0f, 4.0f}) {
    const std::size_t m = 11, n = 13;
    const auto logits = random_values(m * n, 151, false);
    std::vector<float> fused(m * n), reference(m * n);
    kernels::log_softmax_rows(logits.data(), fused.data(), m, n, temperature);
    log_softmax_reference(logits.data(), reference.data(), m, n, temperature);
    EXPECT_TRUE(bitwise_equal(fused, reference)) << "T=" << temperature;

    std::vector<float> aliased = logits;
    kernels::log_softmax_rows(aliased.data(), aliased.data(), m, n,
                              temperature);
    EXPECT_TRUE(bitwise_equal(aliased, reference));
  }
}

}  // namespace
