// Internal interface between the kernel dispatcher (kernels.cpp) and the
// AVX2/FMA micro-kernel translation unit (kernels_avx2.cpp).
//
// kernels_avx2.cpp is compiled WITHOUT -mavx2 on the command line; every
// function carries a target("avx2,fma") attribute instead, so the binary
// stays runnable on any x86-64 and the vector paths only execute after
// util::cpu_features() has proven them safe. To keep AVX2-compiled code
// from leaking into scalar paths via COMDAT-folded template
// instantiations, this header includes nothing from the repo — the
// interface is raw pointers and a plain-int geometry struct.
//
// Numerics contract (docs/kernels.md): the float kernels here accumulate
// in SINGLE precision with FMA. The GEMM (block_gemm, behind conv, linear
// and matmul) computes each output as one fmaf chain — seeded with the
// bias or 0, taps in ascending k, padding taps multiplied as zeros — and
// tests/test_kernels.cpp pins it bit-for-bit against that chain. The
// channelwise kernels are ULP-bounded against the reference oracles
// (util/ulp.hpp derives the bound). The int8 kernels accumulate in int32,
// which is exact in any order, so they stay bit-identical to the scalar
// path. Per-element accumulation order is a function of shape only —
// never of thread count — so results remain bit-exact across thread
// counts at a fixed ISA.
#pragma once

#include <cstdint>

namespace fuse::nn::kernels {

/// The Conv2dParams subset the channelwise kernels need, as plain ints.
struct ConvGeom {
  std::int64_t stride_h = 1;
  std::int64_t stride_w = 1;
  std::int64_t pad_h = 0;
  std::int64_t pad_w = 0;
  std::int64_t dilation_h = 1;
  std::int64_t dilation_w = 1;
};

namespace avx2 {

/// True when this binary contains the AVX2 micro-kernels (x86 targets).
/// Runtime availability is a separate question — see
/// nn::kernel_isa_available.
bool compiled();

/// Y = A * B over the packed kNr=8 k-major B panels built by
/// pack_b_panels / pack_bt_panels / build_conv_panels: for r < rows,
/// j < n,
///   out[r*row_stride + j*col_stride] = bias[r] + sum_k a(r, k) * b(k, j)
/// (bias indexed by A row; null = zero seed). A is read in place (the
/// weight GEMMs pass the stored weight rows). 8/4/1-row x 8-column
/// register micro-tiles, float accumulators, FMA in ascending k.
void block_gemm(const float* a, std::int64_t lda, std::int64_t rows,
                const float* b_panels, std::int64_t kk, std::int64_t n,
                const float* bias, float* out, std::int64_t row_stride,
                std::int64_t col_stride);

/// One depthwise channel, interior columns [x_lo, x_hi) vectorized eight
/// outputs at a time. Caller guarantees stride_w == 1 && dilation_w == 1
/// (other geometries take the scalar kernel).
void depthwise_channel(const float* plane, std::int64_t in_h,
                       std::int64_t in_w, const float* w, std::int64_t kh,
                       std::int64_t kw, const ConvGeom& g, float bias_value,
                       float* out, std::int64_t out_h, std::int64_t out_w,
                       std::int64_t x_lo, std::int64_t x_hi);

/// One FuSe row channel (1 x K). Same stride/dilation precondition.
void fuse_row_channel(const float* plane, std::int64_t in_h,
                      std::int64_t in_w, const float* w, std::int64_t kw,
                      const ConvGeom& g, float bias_value, float* out,
                      std::int64_t out_h, std::int64_t out_w,
                      std::int64_t x_lo, std::int64_t x_hi);

/// One FuSe column channel (K x 1). Same stride/dilation precondition.
void fuse_col_channel(const float* plane, std::int64_t in_h,
                      std::int64_t in_w, const float* w, std::int64_t kh,
                      const ConvGeom& g, float bias_value, float* out,
                      std::int64_t out_h, std::int64_t out_w,
                      std::int64_t x_lo, std::int64_t x_hi);

/// One (image, out-channel) int8 conv plane; `image` already points at
/// the group's first input plane. Interior vectorized via epi32 lanes —
/// int32 accumulation, bit-exact with the scalar path. Caller guarantees
/// stride_w == 1 && dilation_w == 1.
void conv2d_int8_plane(const std::int8_t* image, std::int64_t group_in,
                       std::int64_t in_h, std::int64_t in_w,
                       const std::int8_t* w_oc, std::int64_t kh,
                       std::int64_t kw, const ConvGeom& g,
                       std::int32_t zp_in, float requant_scale,
                       float* out_plane, std::int64_t out_h,
                       std::int64_t out_w, std::int64_t x_lo,
                       std::int64_t x_hi);

/// sum_i (row[i] - zp_in) * w_row[i] over in_f entries via madd_epi16;
/// bit-exact with the scalar int32 loop.
std::int32_t linear_int8_dot(const std::int8_t* row,
                             const std::int8_t* w_row, std::int64_t in_f,
                             std::int32_t zp_in);

}  // namespace avx2

}  // namespace fuse::nn::kernels
