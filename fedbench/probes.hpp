#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "fedpkd/fl/round_pipeline.hpp"

/// Layer probes: small timed kernels run at a workload's own shapes, so a
/// per-layer number can be set against a measured machine roof.
namespace fedbench::probes {

/// Single-thread fused multiply-add throughput of independent accumulator
/// chains (the machine roof the GEMM numbers are read against).
double fma_roof_gflops();

/// Throughput of C = A·B (or A·Bᵀ when transpose_b) for A [m, k], B [k, n]
/// (B [n, k] when transposed), at the process's current lane count.
double matmul_gflops(std::size_t m, std::size_t k, std::size_t n,
                     bool transpose_b);

/// Median seconds of one training step (forward, cross-entropy backward,
/// Adam update) of `arch` on a `batch` x `input_dim` batch.
double train_step_seconds(const std::string& arch, std::size_t input_dim,
                          std::size_t num_classes, std::size_t batch);

/// Median seconds of Adam::step alone over the parameters of `arch`.
double adam_step_seconds(const std::string& arch, std::size_t input_dim,
                         std::size_t num_classes);

/// Nanoseconds per encoded byte of encode -> make_frame -> open_frame ->
/// decode over every part of `bundles` (median of several replays).
double codec_ns_per_byte(const std::vector<fedpkd::fl::PayloadBundle>& bundles);

}  // namespace fedbench::probes
