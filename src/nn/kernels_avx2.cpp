// AVX2/FMA micro-kernels behind the fast backend's ISA dispatch
// (kernels_isa.hpp documents the interface and numerics contract).
//
// Register blocking: the GEMM tile is 8x8 — eight YMM accumulators (one
// per A row, seeded with that row's bias), one broadcast per A element,
// one panel load per k step — giving eight independent FMA chains, enough
// to cover the 4-5 cycle FMA latency at two FMAs per cycle. The
// channelwise kernels vectorize the interior-column range eight outputs
// at a time (contiguous loads need stride_w == 1 && dilation_w == 1; the
// dispatcher falls back to the scalar kernels otherwise) and handle edge
// columns with the same float-accumulation scalar code, so one channel =
// one deterministic accumulation order regardless of thread count.
//
// Everything except the interface functions has internal linkage, and no
// repo headers are included: nothing compiled under the avx2 target
// attribute can be COMDAT-merged into translation units that must stay
// runnable on plain SSE2 machines.
#include "nn/kernels_isa.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define FUSE_KERNELS_AVX2 1
#include <immintrin.h>
#else
#define FUSE_KERNELS_AVX2 0
#endif

namespace fuse::nn::kernels::avx2 {

#if FUSE_KERNELS_AVX2

#define FUSE_TARGET_AVX2 __attribute__((target("avx2,fma")))

namespace {

inline std::int64_t min64(std::int64_t a, std::int64_t b) {
  return a < b ? a : b;
}

constexpr std::int64_t kNr = 8;  // packed-panel width, fixed by kernels.cpp

// ---------------------------------------------------------------------------
// GEMM 8x8 micro-tile
// ---------------------------------------------------------------------------

/// MR x 8 tile: acc[r] = bias[r] (0 when bias is null); acc[r] +=
/// a(r, k) * panel(k, :) for all k, one FMA per (r, k). Stores through
/// arbitrary out strides; the contiguous full-width case stores YMM
/// directly.
template <int MR>
FUSE_TARGET_AVX2 void micro_tile(const float* a, std::int64_t lda,
                                 const float* bp, std::int64_t kk,
                                 const float* bias, float* out,
                                 std::int64_t row_stride,
                                 std::int64_t col_stride,
                                 std::int64_t ncols) {
  // The unroll pragmas let gcc see constant indexes into acc[] and keep
  // every accumulator in a register; without them gcc 12 stored all of
  // them to the stack on each k step.
  __m256 acc[MR];
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r) {
    acc[r] = bias != nullptr ? _mm256_set1_ps(bias[r]) : _mm256_setzero_ps();
  }
  for (std::int64_t k = 0; k < kk; ++k) {
    const __m256 b = _mm256_loadu_ps(bp + k * kNr);
#pragma GCC unroll 8
    for (int r = 0; r < MR; ++r) {
      acc[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(a + r * lda + k), b,
                               acc[r]);
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r) {
    float* row = out + r * row_stride;
    if (col_stride == 1 && ncols == kNr) {
      _mm256_storeu_ps(row, acc[r]);
    } else {
      alignas(32) float tmp[kNr];
      _mm256_store_ps(tmp, acc[r]);
      for (std::int64_t j = 0; j < ncols; ++j) {
        row[j * col_stride] = tmp[j];
      }
    }
  }
}

/// One MR-row strip of A against every B panel (the strip stays in
/// cache while the panels stream past it).
template <int MR>
FUSE_TARGET_AVX2 void strip(const float* a, std::int64_t lda,
                            const float* b_panels, std::int64_t kk,
                            std::int64_t n, const float* bias, float* out,
                            std::int64_t row_stride,
                            std::int64_t col_stride) {
  for (std::int64_t j0 = 0; j0 < n; j0 += kNr) {
    micro_tile<MR>(a, lda, b_panels + j0 * kk, kk, bias,
                   out + j0 * col_stride, row_stride, col_stride,
                   min64(kNr, n - j0));
  }
}

// ---------------------------------------------------------------------------
// Scalar float-accumulation edge helpers (shared by the channelwise
// kernels; same per-element tap order as the vector interior).
// ---------------------------------------------------------------------------

inline float depthwise_edge(const float* plane, std::int64_t in_h,
                            std::int64_t in_w, const float* w,
                            std::int64_t kh, std::int64_t kw,
                            const ConvGeom& g, float bias_value,
                            std::int64_t iy0, std::int64_t ox) {
  float acc = bias_value;
  const std::int64_t ix0 = ox * g.stride_w - g.pad_w;
  for (std::int64_t ky = 0; ky < kh; ++ky) {
    const std::int64_t iy = iy0 + ky * g.dilation_h;
    if (iy < 0 || iy >= in_h) {
      continue;
    }
    const float* row = plane + iy * in_w;
    for (std::int64_t kx = 0; kx < kw; ++kx) {
      const std::int64_t ix = ix0 + kx * g.dilation_w;
      if (ix < 0 || ix >= in_w) {
        continue;
      }
      acc += row[ix] * w[ky * kw + kx];
    }
  }
  return acc;
}

}  // namespace

bool compiled() { return true; }

FUSE_TARGET_AVX2 void block_gemm(const float* a, std::int64_t lda,
                                 std::int64_t rows, const float* b_panels,
                                 std::int64_t kk, std::int64_t n,
                                 const float* bias, float* out,
                                 std::int64_t row_stride,
                                 std::int64_t col_stride) {
  const auto row_bias = [bias](std::int64_t r) {
    return bias != nullptr ? bias + r : nullptr;
  };
  std::int64_t r = 0;
  for (; r + 8 <= rows; r += 8) {
    strip<8>(a + r * lda, lda, b_panels, kk, n, row_bias(r),
             out + r * row_stride, row_stride, col_stride);
  }
  for (; r + 4 <= rows; r += 4) {
    strip<4>(a + r * lda, lda, b_panels, kk, n, row_bias(r),
             out + r * row_stride, row_stride, col_stride);
  }
  for (; r < rows; ++r) {
    strip<1>(a + r * lda, lda, b_panels, kk, n, row_bias(r),
             out + r * row_stride, row_stride, col_stride);
  }
}

FUSE_TARGET_AVX2 void depthwise_channel(
    const float* plane, std::int64_t in_h,
                       std::int64_t in_w, const float* w, std::int64_t kh,
                       std::int64_t kw, const ConvGeom& g, float bias_value,
                       float* out, std::int64_t out_h, std::int64_t out_w,
                       std::int64_t x_lo, std::int64_t x_hi) {
  for (std::int64_t oy = 0; oy < out_h; ++oy) {
    const std::int64_t iy0 = oy * g.stride_h - g.pad_h;
    float* out_row = out + oy * out_w;
    for (std::int64_t ox = 0; ox < x_lo; ++ox) {
      out_row[ox] =
          depthwise_edge(plane, in_h, in_w, w, kh, kw, g, bias_value, iy0, ox);
    }
    const __m256 seed = _mm256_set1_ps(bias_value);
    std::int64_t ox = x_lo;
    for (; ox + kNr <= x_hi; ox += kNr) {
      __m256 acc = seed;
      const std::int64_t ix0 = ox - g.pad_w;  // stride_w == 1
      for (std::int64_t ky = 0; ky < kh; ++ky) {
        const std::int64_t iy = iy0 + ky * g.dilation_h;
        if (iy < 0 || iy >= in_h) {
          continue;
        }
        const float* row = plane + iy * in_w + ix0;
        const float* wk = w + ky * kw;
        for (std::int64_t kx = 0; kx < kw; ++kx) {
          acc = _mm256_fmadd_ps(_mm256_loadu_ps(row + kx),
                                _mm256_broadcast_ss(wk + kx), acc);
        }
      }
      _mm256_storeu_ps(out_row + ox, acc);
    }
    for (; ox < x_hi; ++ox) {
      // Interior remainder: taps all in bounds, scalar float accumulation.
      float acc = bias_value;
      const std::int64_t ix0 = ox - g.pad_w;
      for (std::int64_t ky = 0; ky < kh; ++ky) {
        const std::int64_t iy = iy0 + ky * g.dilation_h;
        if (iy < 0 || iy >= in_h) {
          continue;
        }
        const float* row = plane + iy * in_w + ix0;
        const float* wk = w + ky * kw;
        for (std::int64_t kx = 0; kx < kw; ++kx) {
          acc += row[kx] * wk[kx];
        }
      }
      out_row[ox] = acc;
    }
    for (ox = x_hi; ox < out_w; ++ox) {
      out_row[ox] =
          depthwise_edge(plane, in_h, in_w, w, kh, kw, g, bias_value, iy0, ox);
    }
  }
}

FUSE_TARGET_AVX2 void fuse_row_channel(
    const float* plane, std::int64_t in_h,
                      std::int64_t in_w, const float* w, std::int64_t kw,
                      const ConvGeom& g, float bias_value, float* out,
                      std::int64_t out_h, std::int64_t out_w,
                      std::int64_t x_lo, std::int64_t x_hi) {
  depthwise_channel(plane, in_h, in_w, w, /*kh=*/1, kw, g, bias_value, out,
                    out_h, out_w, x_lo, x_hi);
}

FUSE_TARGET_AVX2 void fuse_col_channel(
    const float* plane, std::int64_t in_h,
                      std::int64_t in_w, const float* w, std::int64_t kh,
                      const ConvGeom& g, float bias_value, float* out,
                      std::int64_t out_h, std::int64_t out_w,
                      std::int64_t x_lo, std::int64_t x_hi) {
  const __m256 seed = _mm256_set1_ps(bias_value);
  for (std::int64_t oy = 0; oy < out_h; ++oy) {
    const std::int64_t iy0 = oy * g.stride_h - g.pad_h;
    float* out_row = out + oy * out_w;
    // Edge columns have their single tap column out of bounds for every
    // ky, so only the bias survives (mirrors the scalar kernel).
    for (std::int64_t ox = 0; ox < x_lo; ++ox) {
      out_row[ox] = bias_value;
    }
    for (std::int64_t ox = x_hi; ox < out_w; ++ox) {
      out_row[ox] = bias_value;
    }
    std::int64_t ox = x_lo;
    for (; ox + kNr <= x_hi; ox += kNr) {
      __m256 acc = seed;
      for (std::int64_t ky = 0; ky < kh; ++ky) {
        const std::int64_t iy = iy0 + ky * g.dilation_h;
        if (iy < 0 || iy >= in_h) {
          continue;
        }
        acc = _mm256_fmadd_ps(
            _mm256_loadu_ps(plane + iy * in_w + ox - g.pad_w),
            _mm256_broadcast_ss(w + ky), acc);
      }
      _mm256_storeu_ps(out_row + ox, acc);
    }
    for (; ox < x_hi; ++ox) {
      float acc = bias_value;
      for (std::int64_t ky = 0; ky < kh; ++ky) {
        const std::int64_t iy = iy0 + ky * g.dilation_h;
        if (iy < 0 || iy >= in_h) {
          continue;
        }
        acc += plane[iy * in_w + ox - g.pad_w] * w[ky];
      }
      out_row[ox] = acc;
    }
  }
}

FUSE_TARGET_AVX2 void conv2d_int8_plane(
    const std::int8_t* image, std::int64_t group_in,
                       std::int64_t in_h, std::int64_t in_w,
                       const std::int8_t* w_oc, std::int64_t kh,
                       std::int64_t kw, const ConvGeom& g,
                       std::int32_t zp_in, float requant_scale,
                       float* out_plane, std::int64_t out_h,
                       std::int64_t out_w, std::int64_t x_lo,
                       std::int64_t x_hi) {
  const __m256i zp = _mm256_set1_epi32(zp_in);
  // int32 accumulation is associative: edges and vector interior are
  // bit-exact with the scalar kernel by construction.
  const auto scalar_out = [&](std::int64_t oy, std::int64_t ox) {
    const std::int64_t iy0 = oy * g.stride_h - g.pad_h;
    const std::int64_t ix0 = ox - g.pad_w;  // stride_w == 1
    std::int32_t acc = 0;
    for (std::int64_t ic = 0; ic < group_in; ++ic) {
      const std::int8_t* plane = image + ic * in_h * in_w;
      const std::int8_t* w_ic = w_oc + ic * kh * kw;
      for (std::int64_t ky = 0; ky < kh; ++ky) {
        const std::int64_t iy = iy0 + ky * g.dilation_h;
        if (iy < 0 || iy >= in_h) {
          continue;
        }
        const std::int8_t* row = plane + iy * in_w;
        const std::int8_t* w_ky = w_ic + ky * kw;
        for (std::int64_t kx = 0; kx < kw; ++kx) {
          const std::int64_t ix = ix0 + kx;
          if (ix < 0 || ix >= in_w) {
            continue;
          }
          acc += (static_cast<std::int32_t>(row[ix]) - zp_in) *
                 static_cast<std::int32_t>(w_ky[kx]);
        }
      }
    }
    return acc;
  };
  for (std::int64_t oy = 0; oy < out_h; ++oy) {
    const std::int64_t iy0 = oy * g.stride_h - g.pad_h;
    float* out_row = out_plane + oy * out_w;
    for (std::int64_t ox = 0; ox < x_lo; ++ox) {
      out_row[ox] = requant_scale * static_cast<float>(scalar_out(oy, ox));
    }
    std::int64_t ox = x_lo;
    for (; ox + kNr <= x_hi; ox += kNr) {
      __m256i acc = _mm256_setzero_si256();
      const std::int64_t ix0 = ox - g.pad_w;
      for (std::int64_t ic = 0; ic < group_in; ++ic) {
        const std::int8_t* plane = image + ic * in_h * in_w;
        const std::int8_t* w_ic = w_oc + ic * kh * kw;
        for (std::int64_t ky = 0; ky < kh; ++ky) {
          const std::int64_t iy = iy0 + ky * g.dilation_h;
          if (iy < 0 || iy >= in_h) {
            continue;
          }
          const std::int8_t* row = plane + iy * in_w + ix0;
          const std::int8_t* w_ky = w_ic + ky * kw;
          for (std::int64_t kx = 0; kx < kw; ++kx) {
            const __m128i bytes = _mm_loadl_epi64(
                reinterpret_cast<const __m128i*>(row + kx));
            const __m256i vals =
                _mm256_sub_epi32(_mm256_cvtepi8_epi32(bytes), zp);
            acc = _mm256_add_epi32(
                acc, _mm256_mullo_epi32(
                         vals, _mm256_set1_epi32(
                                   static_cast<std::int32_t>(w_ky[kx]))));
          }
        }
      }
      alignas(32) std::int32_t lanes[kNr];
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
      for (std::int64_t j = 0; j < kNr; ++j) {
        out_row[ox + j] = requant_scale * static_cast<float>(lanes[j]);
      }
    }
    for (; ox < x_hi; ++ox) {
      out_row[ox] = requant_scale * static_cast<float>(scalar_out(oy, ox));
    }
    for (ox = x_hi; ox < out_w; ++ox) {
      out_row[ox] = requant_scale * static_cast<float>(scalar_out(oy, ox));
    }
  }
}

FUSE_TARGET_AVX2 std::int32_t linear_int8_dot(
    const std::int8_t* row,
                             const std::int8_t* w_row, std::int64_t in_f,
                             std::int32_t zp_in) {
  __m256i acc = _mm256_setzero_si256();
  const __m256i zp16 = _mm256_set1_epi16(static_cast<short>(zp_in));
  std::int64_t i = 0;
  for (; i + 16 <= in_f; i += 16) {
    // (row - zp) fits int16 (range [-254, 382]); madd pairs fit int32.
    const __m256i r16 = _mm256_sub_epi16(
        _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + i))),
        zp16);
    const __m256i w16 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(w_row + i)));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(r16, w16));
  }
  alignas(32) std::int32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::int32_t total = lanes[0] + lanes[1] + lanes[2] + lanes[3] + lanes[4] +
                       lanes[5] + lanes[6] + lanes[7];
  for (; i < in_f; ++i) {
    total += (static_cast<std::int32_t>(row[i]) - zp_in) *
             static_cast<std::int32_t>(w_row[i]);
  }
  return total;
}

#undef FUSE_TARGET_AVX2

#else  // !FUSE_KERNELS_AVX2 — non-x86 stubs; the dispatcher never calls
       // these because kernel_isa_available(kAvx2) is false.

bool compiled() { return false; }

void block_gemm(const float*, std::int64_t, std::int64_t, const float*,
                std::int64_t, std::int64_t, const float*, float*,
                std::int64_t, std::int64_t) {}
void depthwise_channel(const float*, std::int64_t, std::int64_t,
                       const float*, std::int64_t, std::int64_t,
                       const ConvGeom&, float, float*, std::int64_t,
                       std::int64_t, std::int64_t, std::int64_t) {}
void fuse_row_channel(const float*, std::int64_t, std::int64_t, const float*,
                      std::int64_t, const ConvGeom&, float, float*,
                      std::int64_t, std::int64_t, std::int64_t,
                      std::int64_t) {}
void fuse_col_channel(const float*, std::int64_t, std::int64_t, const float*,
                      std::int64_t, const ConvGeom&, float, float*,
                      std::int64_t, std::int64_t, std::int64_t,
                      std::int64_t) {}
void conv2d_int8_plane(const std::int8_t*, std::int64_t, std::int64_t,
                       std::int64_t, const std::int8_t*, std::int64_t,
                       std::int64_t, const ConvGeom&, std::int32_t, float,
                       float*, std::int64_t, std::int64_t, std::int64_t,
                       std::int64_t) {}
std::int32_t linear_int8_dot(const std::int8_t*, const std::int8_t*,
                             std::int64_t, std::int32_t) {
  return 0;
}

#endif  // FUSE_KERNELS_AVX2

}  // namespace fuse::nn::kernels::avx2
