#include "nn/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "nn/kernels_isa.hpp"
#include "tensor/im2col.hpp"
#include "util/check.hpp"
#include "util/cpu_features.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace fuse::nn {

using tensor::QuantizedTensor;
using tensor::Shape;
using tensor::conv_out_dim;

namespace {

// ---------------------------------------------------------------------------
// Backend + pool state
// ---------------------------------------------------------------------------

KernelBackend backend_from_env() {
  const char* env = std::getenv("FUSE_KERNEL_BACKEND");
  if (env == nullptr || env[0] == '\0') {
    return KernelBackend::kFast;
  }
  KernelBackend backend;
  FUSE_CHECK(parse_kernel_backend(env, &backend))
      << "FUSE_KERNEL_BACKEND must be 'fast' or 'reference', got '" << env
      << "'";
  return backend;
}

std::atomic<KernelBackend>& backend_state() {
  static std::atomic<KernelBackend> state{backend_from_env()};
  return state;
}

int threads_from_env() {
  const char* env = std::getenv("FUSE_KERNEL_THREADS");
  if (env == nullptr || env[0] == '\0') {
    return util::ThreadPool::hardware_threads();
  }
  const int threads = std::atoi(env);
  FUSE_CHECK(threads >= 1)
      << "FUSE_KERNEL_THREADS must be >= 1, got '" << env << "'";
  return threads;
}

struct PoolState {
  // Guards lazy pool construction: kernels may be entered from several
  // threads at once (e.g. serving-engine batch payloads), and the first
  // callers must not race building the shared pool. Reconfiguration via
  // set_kernel_threads is still a quiescent-point operation — it rebuilds
  // the pool out from under any kernel currently running on it.
  std::mutex mutex;
  int threads = threads_from_env();
  std::unique_ptr<util::ThreadPool> pool;
};

PoolState& pool_state() {
  static PoolState state;
  return state;
}

// ---------------------------------------------------------------------------
// ISA state
// ---------------------------------------------------------------------------

KernelIsa isa_from_env() {
  const char* env = std::getenv("FUSE_KERNEL_ISA");
  if (env == nullptr || env[0] == '\0') {
    KernelIsa isa;
    parse_kernel_isa("auto", &isa);
    return isa;
  }
  KernelIsa isa;
  FUSE_CHECK(parse_kernel_isa(env, &isa))
      << "FUSE_KERNEL_ISA must be 'scalar', 'avx2', or 'auto', got '" << env
      << "'";
  if (!kernel_isa_available(isa)) {
    // Environment requests degrade gracefully so a forced-ISA test matrix
    // (FUSE_KERNEL_ISA=avx2 ctest ...) can run unchanged on machines
    // without the vector unit; explicit set_kernel_isa / CLI requests
    // stay hard errors.
    std::fprintf(stderr,
                 "note: FUSE_KERNEL_ISA=%s is not available on this machine "
                 "(cpu: %s); using scalar kernels\n",
                 env, util::cpu_features().to_string().c_str());
    return KernelIsa::kScalar;
  }
  return isa;
}

std::atomic<KernelIsa>& isa_state() {
  static std::atomic<KernelIsa> state{isa_from_env()};
  return state;
}

// ---------------------------------------------------------------------------
// Telemetry (docs/observability.md catalog, "kernels.*")
// ---------------------------------------------------------------------------

util::Counter& pack_bytes_counter() {
  static util::Counter& counter = util::metrics().counter("kernels.pack_bytes");
  return counter;
}

#define FUSE_KERNEL_COUNTER(name)                                        \
  do {                                                                   \
    static util::Counter& counter = util::metrics().counter(name);       \
    counter.add();                                                       \
  } while (false)

/// Resolves the ISA an operator will actually run with (`vectorizable`
/// is false for geometries the AVX2 kernels don't cover) and bumps the
/// matching kernels.dispatch.{avx2,scalar} counter. The backward passes
/// are scalar-only by design and don't go through here — see the
/// dispatch table in docs/kernels.md.
KernelIsa note_isa(bool vectorizable = true) {
  KernelIsa isa = kernel_isa();
  if (!vectorizable) {
    isa = KernelIsa::kScalar;
  }
  if (isa == KernelIsa::kAvx2) {
    FUSE_KERNEL_COUNTER("kernels.dispatch.avx2");
  } else {
    FUSE_KERNEL_COUNTER("kernels.dispatch.scalar");
  }
  return isa;
}

/// The Conv2dParams subset the ISA kernels take (plain ints, no repo
/// types — see kernels_isa.hpp).
kernels::ConvGeom to_geom(const Conv2dParams& p) {
  return {p.stride_h, p.stride_w, p.pad_h,
          p.pad_w,    p.dilation_h, p.dilation_w};
}

/// Runs `tiles` independent tasks on the kernel pool and records the
/// per-task work grain (in elementary work units, e.g. output rows or
/// channels) in the kernels.grain histogram.
void run_tiles(std::int64_t tiles, std::int64_t units_per_tile,
               const std::function<void(std::int64_t)>& body) {
  static util::Histogram& grain = util::metrics().histogram("kernels.grain");
  grain.observe(static_cast<std::uint64_t>(units_per_tile));
  kernel_pool().parallel_for(tiles, body, /*grain=*/1);
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

constexpr std::int64_t kNr = 8;   // register-tile columns (one packed panel)
constexpr std::int64_t kMcGemm = 64;   // rows of C per parallel task
constexpr std::int64_t kNcConv = 64;   // output positions per conv task

/// Packs columns of a row-major B[k, n] (row stride ldb) into
/// ceil(n / kNr) column panels of width kNr, each laid out k-major
/// ([k][kNr], zero-padded in the last panel). Panel p starts at
/// out[p * k * kNr].
void pack_b_panels(const float* b, std::int64_t kk, std::int64_t n,
                   std::int64_t ldb, std::vector<float>& out) {
  const std::int64_t panels = (n + kNr - 1) / kNr;
  out.assign(static_cast<std::size_t>(panels * kk * kNr), 0.0F);
  for (std::int64_t p = 0; p < panels; ++p) {
    float* dst = out.data() + p * kk * kNr;
    const std::int64_t cols = std::min(kNr, n - p * kNr);
    for (std::int64_t k = 0; k < kk; ++k) {
      const float* src = b + k * ldb + p * kNr;
      for (std::int64_t j = 0; j < cols; ++j) {
        dst[k * kNr + j] = src[j];
      }
    }
  }
  pack_bytes_counter().add(out.size() * sizeof(float));
}

/// Packs ROWS of a row-major X[n, k] (row stride ldx) as the columns of
/// the panel layout above — i.e. packs B = X^T without materializing the
/// transpose. Linear packs its [batch, F_in] input this way, so the
/// stored [F_out, F_in] weight is the GEMM's A operand as it stands.
void pack_bt_panels(const float* x, std::int64_t n, std::int64_t kk,
                    std::int64_t ldx, std::vector<float>& out) {
  const std::int64_t panels = (n + kNr - 1) / kNr;
  out.assign(static_cast<std::size_t>(panels * kk * kNr), 0.0F);
  for (std::int64_t p = 0; p < panels; ++p) {
    float* dst = out.data() + p * kk * kNr;
    const std::int64_t cols = std::min(kNr, n - p * kNr);
    for (std::int64_t j = 0; j < cols; ++j) {
      const float* src = x + (p * kNr + j) * ldx;
      for (std::int64_t k = 0; k < kk; ++k) {
        dst[k * kNr + j] = src[k];
      }
    }
  }
  pack_bytes_counter().add(out.size() * sizeof(float));
}

// ---------------------------------------------------------------------------
// Micro-kernels
//
// Each computes an MR x kNr tile of C with the accumulator carried across
// the FULL k extent in ascending order (no Kc partial sums), so every
// output element sees exactly the reference accumulation sequence. The
// float variant reproduces nn::matmul (float accumulator from 0); the
// f64 variant reproduces nn::conv2d / nn::linear (double accumulator
// seeded with the bias of its A row, products formed exactly in double).
// ---------------------------------------------------------------------------

template <int MR>
void micro_f32(const float* a, std::int64_t lda, const float* bp,
               std::int64_t kk, float* c, std::int64_t ldc,
               std::int64_t ncols) {
  float acc[MR][kNr] = {};
  for (std::int64_t k = 0; k < kk; ++k) {
    const float* brow = bp + k * kNr;
    for (int r = 0; r < MR; ++r) {
      const float av = a[r * lda + k];
      for (std::int64_t j = 0; j < kNr; ++j) {
        acc[r][j] += av * brow[j];
      }
    }
  }
  for (int r = 0; r < MR; ++r) {
    for (std::int64_t j = 0; j < ncols; ++j) {
      c[r * ldc + j] = acc[r][j];
    }
  }
}

/// Double-accumulator tile: out(r, j) = bias[r] + sum_k a(r, k) * b(k, j)
/// (bias may be null = zero seed), written through arbitrary row/column
/// strides.
template <int MR>
void micro_f64(const float* a, std::int64_t lda, const float* bp,
               std::int64_t kk, const float* bias, float* out,
               std::int64_t row_stride, std::int64_t col_stride,
               std::int64_t ncols) {
  double acc[MR][kNr];
  for (int r = 0; r < MR; ++r) {
    const double seed = bias != nullptr ? static_cast<double>(bias[r]) : 0.0;
    for (std::int64_t j = 0; j < kNr; ++j) {
      acc[r][j] = seed;
    }
  }
  // Only the ncols live lanes are accumulated: a batch-1 linear has one.
  for (std::int64_t k = 0; k < kk; ++k) {
    const float* brow = bp + k * kNr;
    double bd[kNr];
    for (std::int64_t j = 0; j < ncols; ++j) {
      bd[j] = static_cast<double>(brow[j]);
    }
    for (int r = 0; r < MR; ++r) {
      const double av = static_cast<double>(a[r * lda + k]);
      for (std::int64_t j = 0; j < ncols; ++j) {
        acc[r][j] += av * bd[j];
      }
    }
  }
  for (int r = 0; r < MR; ++r) {
    for (std::int64_t j = 0; j < ncols; ++j) {
      out[r * row_stride + j * col_stride] = static_cast<float>(acc[r][j]);
    }
  }
}

/// The scalar twin of kernels::avx2::block_gemm (same contract, f64
/// accumulation): every A row strip against every kNr-wide B panel, so a
/// strip of weight rows stays in cache while the panels stream past it.
void block_gemm_f64(const float* a, std::int64_t lda, std::int64_t rows,
                    const float* b_panels, std::int64_t kk, std::int64_t n,
                    const float* bias, float* out, std::int64_t row_stride,
                    std::int64_t col_stride) {
  const std::int64_t panels = (n + kNr - 1) / kNr;
  const auto strip = [&](auto micro, std::int64_t r) {
    for (std::int64_t p = 0; p < panels; ++p) {
      const std::int64_t j0 = p * kNr;
      micro(a + r * lda, lda, b_panels + p * kk * kNr, kk,
            bias != nullptr ? bias + r : nullptr,
            out + r * row_stride + j0 * col_stride, row_stride, col_stride,
            std::min(kNr, n - j0));
    }
  };
  std::int64_t r = 0;
  for (; r + 2 <= rows; r += 2) {
    strip(micro_f64<2>, r);
  }
  for (; r < rows; ++r) {
    strip(micro_f64<1>, r);
  }
}

/// Y = A * B for the weight GEMMs under the chosen ISA; see
/// kernels::avx2::block_gemm for the contract.
void weight_gemm(KernelIsa isa, const float* a, std::int64_t lda,
                 std::int64_t rows, const float* b_panels, std::int64_t kk,
                 std::int64_t n, const float* bias, float* out,
                 std::int64_t row_stride, std::int64_t col_stride) {
  if (isa == KernelIsa::kAvx2) {
    kernels::avx2::block_gemm(a, lda, rows, b_panels, kk, n, bias, out,
                              row_stride, col_stride);
  } else {
    block_gemm_f64(a, lda, rows, b_panels, kk, n, bias, out, row_stride,
                   col_stride);
  }
}

// ---------------------------------------------------------------------------
// Activation panels (conv's B operand)
// ---------------------------------------------------------------------------

/// Writes the conv B operand for output positions [p0, p0 + cols) of one
/// image, channels [c0, c0 + channels), as ceil(cols / kNr) k-major kNr
/// panels: k runs over the taps channel-major then kernel-row then
/// kernel-column — the reference conv2d's accumulation order — and lane
/// j of panel q is position p0 + q * kNr + j. Padding taps and the lanes
/// past `cols` are 0. A 1x1 stride-1 pad-0 dense conv's taps are the
/// channel planes themselves, so its panels are straight row copies.
void build_conv_panels(const float* image, std::int64_t in_h,
                       std::int64_t in_w, std::int64_t c0,
                       std::int64_t channels, const Conv2dParams& p,
                       std::int64_t kh, std::int64_t kw, std::int64_t out_w,
                       std::int64_t p0, std::int64_t cols, float* panels) {
  const std::int64_t kk = channels * kh * kw;
  const std::int64_t panel_count = (cols + kNr - 1) / kNr;
  if (kh == 1 && kw == 1 && p.stride_h == 1 && p.stride_w == 1 &&
      p.pad_h == 0 && p.pad_w == 0 && p.groups == 1) {
    for (std::int64_t k = 0; k < kk; ++k) {
      const float* src = image + (c0 + k) * in_h * in_w + p0;
      for (std::int64_t q = 0; q < panel_count; ++q) {
        float* dst = panels + (q * kk + k) * kNr;
        const std::int64_t lanes = std::min(kNr, cols - q * kNr);
        std::copy_n(src + q * kNr, lanes, dst);
        std::fill(dst + lanes, dst + kNr, 0.0F);
      }
    }
    return;
  }
  for (std::int64_t q = 0; q < panel_count; ++q) {
    // Top-left input tap of each lane's window; lanes past `cols` start
    // below the image so every one of their taps reads as padding.
    std::int64_t iy0[kNr];
    std::int64_t ix0[kNr];
    for (std::int64_t j = 0; j < kNr; ++j) {
      const std::int64_t pos = p0 + q * kNr + j;
      const bool live = q * kNr + j < cols;
      iy0[j] = live ? (pos / out_w) * p.stride_h - p.pad_h : in_h;
      ix0[j] = live ? (pos % out_w) * p.stride_w - p.pad_w : 0;
    }
    float* dst = panels + q * kk * kNr;
    for (std::int64_t ic = 0; ic < channels; ++ic) {
      const float* plane = image + (c0 + ic) * in_h * in_w;
      for (std::int64_t ky = 0; ky < kh; ++ky) {
        for (std::int64_t kx = 0; kx < kw; ++kx) {
          for (std::int64_t j = 0; j < kNr; ++j) {
            const std::int64_t iy = iy0[j] + ky * p.dilation_h;
            const std::int64_t ix = ix0[j] + kx * p.dilation_w;
            *dst++ = (iy < 0 || iy >= in_h || ix < 0 || ix >= in_w)
                         ? 0.0F
                         : plane[iy * in_w + ix];
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Channelwise kernels (depthwise K x K, FuSe 1 x K and K x 1)
// ---------------------------------------------------------------------------

/// The [x_lo, x_hi) output-x range whose taps kx in [0, kw) all land in
/// bounds (so the inner loop can skip the per-tap checks).
std::pair<std::int64_t, std::int64_t> interior_x(std::int64_t out_w,
                                                 std::int64_t in_w,
                                                 std::int64_t kw,
                                                 std::int64_t stride,
                                                 std::int64_t pad,
                                                 std::int64_t dilation) {
  std::int64_t lo = (pad + stride - 1) / stride;  // first ox with ix >= 0
  std::int64_t hi = (in_w - 1 - (kw - 1) * dilation + pad) / stride + 1;
  lo = std::clamp<std::int64_t>(lo, 0, out_w);
  hi = std::clamp<std::int64_t>(hi, lo, out_w);
  return {lo, hi};
}

/// One depthwise channel: out(oy, ox) = bias + sum_{ky,kx} taps, double
/// accumulation in (ky, kx) order with out-of-bounds taps skipped —
/// exactly the reference conv2d order for groups == C.
void depthwise_channel(const float* plane, std::int64_t in_h,
                       std::int64_t in_w, const float* w, std::int64_t kh,
                       std::int64_t kw, const Conv2dParams& p,
                       double bias_value, float* out, std::int64_t out_h,
                       std::int64_t out_w) {
  const auto [x_lo, x_hi] =
      interior_x(out_w, in_w, kw, p.stride_w, p.pad_w, p.dilation_w);
  for (std::int64_t oy = 0; oy < out_h; ++oy) {
    const std::int64_t iy0 = oy * p.stride_h - p.pad_h;
    float* out_row = out + oy * out_w;
    // Edge columns: every tap bounds-checked (same skip set as reference).
    const auto edge = [&](std::int64_t ox) {
      double acc = bias_value;
      const std::int64_t ix0 = ox * p.stride_w - p.pad_w;
      for (std::int64_t ky = 0; ky < kh; ++ky) {
        const std::int64_t iy = iy0 + ky * p.dilation_h;
        if (iy < 0 || iy >= in_h) {
          continue;
        }
        const float* row = plane + iy * in_w;
        for (std::int64_t kx = 0; kx < kw; ++kx) {
          const std::int64_t ix = ix0 + kx * p.dilation_w;
          if (ix < 0 || ix >= in_w) {
            continue;
          }
          acc += static_cast<double>(row[ix]) *
                 static_cast<double>(w[ky * kw + kx]);
        }
      }
      out_row[ox] = static_cast<float>(acc);
    };
    for (std::int64_t ox = 0; ox < x_lo; ++ox) {
      edge(ox);
    }
    // Interior: all kx in bounds; only ky still needs its row check.
    for (std::int64_t ox = x_lo; ox < x_hi; ++ox) {
      double acc = bias_value;
      const std::int64_t ix0 = ox * p.stride_w - p.pad_w;
      for (std::int64_t ky = 0; ky < kh; ++ky) {
        const std::int64_t iy = iy0 + ky * p.dilation_h;
        if (iy < 0 || iy >= in_h) {
          continue;
        }
        const float* row = plane + iy * in_w + ix0;
        const float* wk = w + ky * kw;
        if (kw == 3 && p.dilation_w == 1) {
          acc += static_cast<double>(row[0]) * static_cast<double>(wk[0]);
          acc += static_cast<double>(row[1]) * static_cast<double>(wk[1]);
          acc += static_cast<double>(row[2]) * static_cast<double>(wk[2]);
        } else {
          for (std::int64_t kx = 0; kx < kw; ++kx) {
            acc += static_cast<double>(row[kx * p.dilation_w]) *
                   static_cast<double>(wk[kx]);
          }
        }
      }
      out_row[ox] = static_cast<float>(acc);
    }
    for (std::int64_t ox = x_hi; ox < out_w; ++ox) {
      edge(ox);
    }
  }
}

/// One FuSe row channel (1 x K kernel): each output row reads one input
/// row; accumulation over kx in order.
void fuse_row_channel(const float* plane, std::int64_t in_h,
                      std::int64_t in_w, const float* w, std::int64_t kw,
                      const Conv2dParams& p, double bias_value, float* out,
                      std::int64_t out_h, std::int64_t out_w) {
  const auto [x_lo, x_hi] =
      interior_x(out_w, in_w, kw, p.stride_w, p.pad_w, p.dilation_w);
  for (std::int64_t oy = 0; oy < out_h; ++oy) {
    const std::int64_t iy = oy * p.stride_h - p.pad_h;
    float* out_row = out + oy * out_w;
    if (iy < 0 || iy >= in_h) {
      // The single kernel row is out of bounds: only the bias survives.
      for (std::int64_t ox = 0; ox < out_w; ++ox) {
        out_row[ox] = static_cast<float>(bias_value);
      }
      continue;
    }
    const float* row = plane + iy * in_w;
    const auto edge = [&](std::int64_t ox) {
      double acc = bias_value;
      const std::int64_t ix0 = ox * p.stride_w - p.pad_w;
      for (std::int64_t kx = 0; kx < kw; ++kx) {
        const std::int64_t ix = ix0 + kx * p.dilation_w;
        if (ix < 0 || ix >= in_w) {
          continue;
        }
        acc += static_cast<double>(row[ix]) * static_cast<double>(w[kx]);
      }
      out_row[ox] = static_cast<float>(acc);
    };
    for (std::int64_t ox = 0; ox < x_lo; ++ox) {
      edge(ox);
    }
    for (std::int64_t ox = x_lo; ox < x_hi; ++ox) {
      double acc = bias_value;
      const float* base = row + ox * p.stride_w - p.pad_w;
      if (kw == 3 && p.dilation_w == 1) {
        acc += static_cast<double>(base[0]) * static_cast<double>(w[0]);
        acc += static_cast<double>(base[1]) * static_cast<double>(w[1]);
        acc += static_cast<double>(base[2]) * static_cast<double>(w[2]);
      } else {
        for (std::int64_t kx = 0; kx < kw; ++kx) {
          acc += static_cast<double>(base[kx * p.dilation_w]) *
                 static_cast<double>(w[kx]);
        }
      }
      out_row[ox] = static_cast<float>(acc);
    }
    for (std::int64_t ox = x_hi; ox < out_w; ++ox) {
      edge(ox);
    }
  }
}

/// One FuSe column channel (K x 1 kernel): processed a whole output row
/// at a time with a double accumulator per column, taps in ky order —
/// turning the strided column walk into contiguous row sweeps.
void fuse_col_channel(const float* plane, std::int64_t in_h,
                      std::int64_t in_w, const float* w, std::int64_t kh,
                      const Conv2dParams& p, double bias_value, float* out,
                      std::int64_t out_h, std::int64_t out_w,
                      std::vector<double>& acc) {
  // The single tap column: ix = ox * stride - pad for every ky.
  const auto [x_lo, x_hi] =
      interior_x(out_w, in_w, /*kw=*/1, p.stride_w, p.pad_w, p.dilation_w);
  acc.resize(static_cast<std::size_t>(out_w));
  for (std::int64_t oy = 0; oy < out_h; ++oy) {
    std::fill(acc.begin(), acc.end(), bias_value);
    const std::int64_t iy0 = oy * p.stride_h - p.pad_h;
    for (std::int64_t ky = 0; ky < kh; ++ky) {
      const std::int64_t iy = iy0 + ky * p.dilation_h;
      if (iy < 0 || iy >= in_h) {
        continue;
      }
      const float* row = plane + iy * in_w;
      const double wk = static_cast<double>(w[ky]);
      for (std::int64_t ox = x_lo; ox < x_hi; ++ox) {
        acc[static_cast<std::size_t>(ox)] +=
            static_cast<double>(row[ox * p.stride_w - p.pad_w]) * wk;
      }
    }
    float* out_row = out + oy * out_w;
    for (std::int64_t ox = 0; ox < out_w; ++ox) {
      out_row[ox] = static_cast<float>(acc[static_cast<std::size_t>(ox)]);
    }
  }
}

/// Dispatches one channel of the channelwise family.
enum class ChannelwiseKind { kDepthwise, kFuseRow, kFuseCol };

ChannelwiseKind classify_channelwise(std::int64_t kh, std::int64_t kw) {
  if (kh == 1 && kw > 1) {
    return ChannelwiseKind::kFuseRow;
  }
  if (kw == 1 && kh > 1) {
    return ChannelwiseKind::kFuseCol;
  }
  return ChannelwiseKind::kDepthwise;
}

Tensor conv2d_channelwise_fast(const Tensor& input, const Tensor& weight,
                               const Tensor* bias, const Conv2dParams& p) {
  const std::int64_t batch = input.shape().dim(0);
  const std::int64_t channels = input.shape().dim(1);
  const std::int64_t in_h = input.shape().dim(2);
  const std::int64_t in_w = input.shape().dim(3);
  const std::int64_t kh = weight.shape().dim(2);
  const std::int64_t kw = weight.shape().dim(3);
  const std::int64_t out_h =
      conv_out_dim(in_h, kh, p.stride_h, p.pad_h, p.dilation_h);
  const std::int64_t out_w =
      conv_out_dim(in_w, kw, p.stride_w, p.pad_w, p.dilation_w);
  const ChannelwiseKind kind = classify_channelwise(kh, kw);
  switch (kind) {
    case ChannelwiseKind::kDepthwise:
      FUSE_KERNEL_COUNTER("kernels.fast.depthwise");
      break;
    case ChannelwiseKind::kFuseRow:
      FUSE_KERNEL_COUNTER("kernels.fast.fuse_row");
      break;
    case ChannelwiseKind::kFuseCol:
      FUSE_KERNEL_COUNTER("kernels.fast.fuse_col");
      break;
  }

  // The AVX2 channelwise kernels load interior taps contiguously, which
  // needs unit stride/dilation along x; other geometries run the scalar
  // kernels under every ISA.
  const KernelIsa isa = note_isa(p.stride_w == 1 && p.dilation_w == 1);
  const std::int64_t eff_kw = kind == ChannelwiseKind::kFuseCol ? 1 : kw;
  const auto [x_lo, x_hi] =
      interior_x(out_w, in_w, eff_kw, p.stride_w, p.pad_w, p.dilation_w);
  const kernels::ConvGeom geom = to_geom(p);

  Tensor output(Shape{batch, channels, out_h, out_w});
  const float* in_ptr = input.data();
  const float* w_ptr = weight.data();
  const float* bias_ptr = bias != nullptr ? bias->data() : nullptr;
  float* out_ptr = output.data();
  const std::int64_t in_plane = in_h * in_w;
  const std::int64_t out_plane = out_h * out_w;

  // One task per (image, channel): outputs are disjoint planes.
  run_tiles(batch * channels, out_plane, [&](std::int64_t task) {
    const std::int64_t c = task % channels;
    const float* plane = in_ptr + task * in_plane;
    const float* w = w_ptr + c * kh * kw;
    const double bias_value =
        bias_ptr != nullptr ? static_cast<double>(bias_ptr[c]) : 0.0;
    float* out = out_ptr + task * out_plane;
    if (isa == KernelIsa::kAvx2) {
      const float bias_f = bias_ptr != nullptr ? bias_ptr[c] : 0.0F;
      switch (kind) {
        case ChannelwiseKind::kDepthwise:
          kernels::avx2::depthwise_channel(plane, in_h, in_w, w, kh, kw,
                                           geom, bias_f, out, out_h, out_w,
                                           x_lo, x_hi);
          break;
        case ChannelwiseKind::kFuseRow:
          kernels::avx2::fuse_row_channel(plane, in_h, in_w, w, kw, geom,
                                          bias_f, out, out_h, out_w, x_lo,
                                          x_hi);
          break;
        case ChannelwiseKind::kFuseCol:
          kernels::avx2::fuse_col_channel(plane, in_h, in_w, w, kh, geom,
                                          bias_f, out, out_h, out_w, x_lo,
                                          x_hi);
          break;
      }
      return;
    }
    switch (kind) {
      case ChannelwiseKind::kDepthwise:
        depthwise_channel(plane, in_h, in_w, w, kh, kw, p, bias_value, out,
                          out_h, out_w);
        break;
      case ChannelwiseKind::kFuseRow:
        fuse_row_channel(plane, in_h, in_w, w, kw, p, bias_value, out, out_h,
                         out_w);
        break;
      case ChannelwiseKind::kFuseCol: {
        thread_local std::vector<double> acc;
        fuse_col_channel(plane, in_h, in_w, w, kh, p, bias_value, out, out_h,
                         out_w, acc);
        break;
      }
    }
  });
  return output;
}

// ---------------------------------------------------------------------------
// Dense / grouped / pointwise conv: Y[out_c x positions] = W * X
// ---------------------------------------------------------------------------

Tensor conv2d_gemm_fast(const Tensor& input, const Tensor& weight,
                        const Tensor* bias, const Conv2dParams& p) {
  FUSE_KERNEL_COUNTER("kernels.fast.conv2d");
  // The activation panels linearize every geometry, so the GEMM path
  // vectorizes unconditionally.
  const KernelIsa isa = note_isa();
  const std::int64_t batch = input.shape().dim(0);
  const std::int64_t in_c = input.shape().dim(1);
  const std::int64_t in_h = input.shape().dim(2);
  const std::int64_t in_w = input.shape().dim(3);
  const std::int64_t out_c = weight.shape().dim(0);
  const std::int64_t kh = weight.shape().dim(2);
  const std::int64_t kw = weight.shape().dim(3);
  const std::int64_t group_in = in_c / p.groups;
  const std::int64_t group_out = out_c / p.groups;
  const std::int64_t out_h =
      conv_out_dim(in_h, kh, p.stride_h, p.pad_h, p.dilation_h);
  const std::int64_t out_w =
      conv_out_dim(in_w, kw, p.stride_w, p.pad_w, p.dilation_w);
  const std::int64_t positions = out_h * out_w;
  const std::int64_t taps = group_in * kh * kw;

  Tensor output(Shape{batch, out_c, out_h, out_w});
  const float* in_ptr = input.data();
  const float* w_ptr = weight.data();
  const float* bias_ptr = bias != nullptr ? bias->data() : nullptr;
  float* out_ptr = output.data();
  const std::int64_t blocks = (positions + kNcConv - 1) / kNcConv;

  // One task per (image, block of positions): its activation panels are
  // built once and every group's weight rows — the A operand, read in
  // place as [group_out x taps] row-major in (ic, ky, kx) order — run
  // against them, storing each output channel's positions contiguously.
  run_tiles(batch * blocks, kNcConv, [&](std::int64_t task) {
    const std::int64_t n = task / blocks;
    const std::int64_t p0 = (task % blocks) * kNcConv;
    const std::int64_t cols = std::min(kNcConv, positions - p0);
    const std::int64_t panel_floats = (cols + kNr - 1) / kNr * kNr * taps;
    thread_local std::vector<float> panels;
    panels.resize(static_cast<std::size_t>(kNcConv * taps));
    for (std::int64_t g = 0; g < p.groups; ++g) {
      build_conv_panels(in_ptr + n * in_c * in_h * in_w, in_h, in_w,
                        g * group_in, group_in, p, kh, kw, out_w, p0, cols,
                        panels.data());
      pack_bytes_counter().add(
          static_cast<std::uint64_t>(panel_floats) * sizeof(float));
      weight_gemm(isa, w_ptr + g * group_out * taps, taps, group_out,
                  panels.data(), taps, cols,
                  bias_ptr != nullptr ? bias_ptr + g * group_out : nullptr,
                  out_ptr + (n * out_c + g * group_out) * positions + p0,
                  /*row_stride=*/positions, /*col_stride=*/1);
    }
  });
  return output;
}

}  // namespace

// ---------------------------------------------------------------------------
// Backend + pool accessors
// ---------------------------------------------------------------------------

KernelBackend kernel_backend() {
  return backend_state().load(std::memory_order_relaxed);
}

void set_kernel_backend(KernelBackend backend) {
  backend_state().store(backend, std::memory_order_relaxed);
}

bool parse_kernel_backend(const std::string& name, KernelBackend* out) {
  if (name == "fast") {
    *out = KernelBackend::kFast;
    return true;
  }
  if (name == "reference" || name == "ref") {
    *out = KernelBackend::kReference;
    return true;
  }
  return false;
}

const char* kernel_backend_name(KernelBackend backend) {
  return backend == KernelBackend::kFast ? "fast" : "reference";
}

int kernel_threads() {
  PoolState& state = pool_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  return state.threads;
}

void set_kernel_threads(int threads) {
  FUSE_CHECK(threads >= 1)
      << "kernel threads must be >= 1, got " << threads;
  PoolState& state = pool_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.threads = threads;
  // N total threads = N-1 workers + the calling thread (the sweep
  // engine's convention); the pool is rebuilt eagerly so stale workers
  // never outlive the request.
  state.pool = std::make_unique<util::ThreadPool>(threads - 1);
}

util::ThreadPool& kernel_pool() {
  PoolState& state = pool_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  if (state.pool == nullptr) {
    state.pool = std::make_unique<util::ThreadPool>(state.threads - 1);
  }
  return *state.pool;
}

KernelIsa kernel_isa() { return isa_state().load(std::memory_order_relaxed); }

void set_kernel_isa(KernelIsa isa) {
  FUSE_CHECK(kernel_isa_available(isa))
      << "kernel ISA '" << kernel_isa_name(isa)
      << "' is not available on this machine (cpu: "
      << util::cpu_features().to_string() << ")";
  isa_state().store(isa, std::memory_order_relaxed);
}

bool kernel_isa_available(KernelIsa isa) {
  if (isa == KernelIsa::kScalar) {
    return true;
  }
  const util::CpuFeatures& cpu = util::cpu_features();
  return kernels::avx2::compiled() && cpu.avx2 && cpu.fma;
}

bool parse_kernel_isa(const std::string& name, KernelIsa* out) {
  if (name == "scalar") {
    *out = KernelIsa::kScalar;
    return true;
  }
  if (name == "avx2") {
    *out = KernelIsa::kAvx2;
    return true;
  }
  if (name == "auto") {
    *out = kernel_isa_available(KernelIsa::kAvx2) ? KernelIsa::kAvx2
                                                  : KernelIsa::kScalar;
    return true;
  }
  return false;
}

const char* kernel_isa_name(KernelIsa isa) {
  return isa == KernelIsa::kAvx2 ? "avx2" : "scalar";
}

namespace kernels {

// ---------------------------------------------------------------------------
// GEMM (float accumulation — nn::matmul's numerics)
// ---------------------------------------------------------------------------

void gemm_f32(const float* a, const float* b, float* c, std::int64_t m,
              std::int64_t k, std::int64_t n) {
  FUSE_KERNEL_COUNTER("kernels.fast.gemm");
  const KernelIsa isa = note_isa();
  std::vector<float> b_panels;
  pack_b_panels(b, k, n, n, b_panels);
  const float* panels = b_panels.data();
  const std::int64_t panel_count = (n + kNr - 1) / kNr;
  const std::int64_t blocks = (m + kMcGemm - 1) / kMcGemm;
  run_tiles(blocks, kMcGemm, [&](std::int64_t block) {
    const std::int64_t r0 = block * kMcGemm;
    const std::int64_t rows = std::min(kMcGemm, m - r0);
    if (isa == KernelIsa::kAvx2) {
      kernels::avx2::block_gemm(a + r0 * k, k, rows, panels, k, n,
                                /*bias=*/nullptr, c + r0 * n,
                                /*row_stride=*/n, /*col_stride=*/1);
      return;
    }
    for (std::int64_t pn = 0; pn < panel_count; ++pn) {
      const float* bp = panels + pn * k * kNr;
      const std::int64_t j0 = pn * kNr;
      const std::int64_t ncols = std::min(kNr, n - j0);
      std::int64_t r = 0;
      for (; r + 4 <= rows; r += 4) {
        micro_f32<4>(a + (r0 + r) * k, k, bp, k, c + (r0 + r) * n + j0, n,
                     ncols);
      }
      for (; r < rows; ++r) {
        micro_f32<1>(a + (r0 + r) * k, k, bp, k, c + (r0 + r) * n + j0, n,
                     ncols);
      }
    }
  });
}

Tensor matmul_fast(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.shape().dim(0);
  const std::int64_t k = a.shape().dim(1);
  const std::int64_t n = b.shape().dim(1);
  Tensor out(Shape{m, n});
  gemm_f32(a.data(), b.data(), out.data(), m, k, n);
  return out;
}

// ---------------------------------------------------------------------------
// conv2d / linear (double accumulation — the reference numerics)
// ---------------------------------------------------------------------------

Tensor conv2d_fast(const Tensor& input, const Tensor& weight,
                   const Tensor* bias, const Conv2dParams& params) {
  const std::int64_t in_c = input.shape().dim(1);
  const std::int64_t out_c = weight.shape().dim(0);
  if (params.groups == in_c && weight.shape().dim(1) == 1 &&
      out_c == in_c) {
    return conv2d_channelwise_fast(input, weight, bias, params);
  }
  return conv2d_gemm_fast(input, weight, bias, params);
}

Tensor linear_fast(const Tensor& input, const Tensor& weight,
                   const Tensor* bias) {
  FUSE_KERNEL_COUNTER("kernels.fast.linear");
  const KernelIsa isa = note_isa();
  const std::int64_t batch = input.shape().dim(0);
  const std::int64_t in_f = input.shape().dim(1);
  const std::int64_t out_f = weight.shape().dim(0);
  Tensor out(Shape{batch, out_f});
  // Y[out_f x batch] = W * X^T: the stored weight rows are the A operand
  // and only the (small) input is packed.
  std::vector<float> b_panels;
  pack_bt_panels(input.data(), batch, in_f, in_f, b_panels);
  const float* w_ptr = weight.data();
  const float* bias_ptr = bias != nullptr ? bias->data() : nullptr;
  float* out_ptr = out.data();
  // Tasks own disjoint blocks of output features; Y(o, n) lands at
  // out[n * out_f + o].
  const std::int64_t blocks = (out_f + kMcGemm - 1) / kMcGemm;
  run_tiles(blocks, kMcGemm * batch, [&](std::int64_t block) {
    const std::int64_t o0 = block * kMcGemm;
    weight_gemm(isa, w_ptr + o0 * in_f, in_f, std::min(kMcGemm, out_f - o0),
                b_panels.data(), in_f, batch,
                bias_ptr != nullptr ? bias_ptr + o0 : nullptr, out_ptr + o0,
                /*row_stride=*/1, /*col_stride=*/out_f);
  });
  return out;
}

// ---------------------------------------------------------------------------
// INT8 kernels (int32 accumulation — order-insensitive)
// ---------------------------------------------------------------------------

Tensor conv2d_int8_fast(const QuantizedTensor& input,
                        const QuantizedTensor& weight,
                        const Conv2dParams& p) {
  FUSE_KERNEL_COUNTER("kernels.fast.conv2d_int8");
  const std::int64_t batch = input.shape.dim(0);
  const std::int64_t in_c = input.shape.dim(1);
  const std::int64_t in_h = input.shape.dim(2);
  const std::int64_t in_w = input.shape.dim(3);
  const std::int64_t out_c = weight.shape.dim(0);
  const std::int64_t kh = weight.shape.dim(2);
  const std::int64_t kw = weight.shape.dim(3);
  const std::int64_t group_in = in_c / p.groups;
  const std::int64_t group_out = out_c / p.groups;
  const std::int64_t out_h =
      conv_out_dim(in_h, kh, p.stride_h, p.pad_h, p.dilation_h);
  const std::int64_t out_w =
      conv_out_dim(in_w, kw, p.stride_w, p.pad_w, p.dilation_w);
  const std::int32_t zp_in = input.params.zero_point;
  const float requant_scale = input.params.scale * weight.params.scale;

  Tensor output(Shape{batch, out_c, out_h, out_w});
  const std::int8_t* in_ptr = input.data.data();
  const std::int8_t* w_ptr = weight.data.data();
  float* out_ptr = output.data();
  const auto [x_lo, x_hi] =
      interior_x(out_w, in_w, kw, p.stride_w, p.pad_w, p.dilation_w);
  // The AVX2 plane kernel loads interior taps contiguously (needs unit
  // x stride/dilation); int32 accumulation keeps it bit-exact anyway.
  const KernelIsa isa = note_isa(p.stride_w == 1 && p.dilation_w == 1);
  const kernels::ConvGeom geom = to_geom(p);

  // One task per (image, output channel); int32 sums are order-exact.
  run_tiles(batch * out_c, out_h * out_w, [&](std::int64_t task) {
    const std::int64_t n = task / out_c;
    const std::int64_t oc = task % out_c;
    const std::int64_t group = oc / group_out;
    const std::int8_t* w_oc = w_ptr + oc * group_in * kh * kw;
    float* out_plane = out_ptr + task * out_h * out_w;
    const std::int8_t* image = in_ptr + n * in_c * in_h * in_w;
    if (isa == KernelIsa::kAvx2) {
      kernels::avx2::conv2d_int8_plane(
          image + group * group_in * in_h * in_w, group_in, in_h, in_w,
          w_oc, kh, kw, geom, zp_in, requant_scale, out_plane, out_h,
          out_w, x_lo, x_hi);
      return;
    }
    for (std::int64_t oy = 0; oy < out_h; ++oy) {
      const std::int64_t iy0 = oy * p.stride_h - p.pad_h;
      for (std::int64_t ox = 0; ox < out_w; ++ox) {
        const std::int64_t ix0 = ox * p.stride_w - p.pad_w;
        const bool interior = ox >= x_lo && ox < x_hi;
        std::int32_t acc = 0;
        for (std::int64_t ic = 0; ic < group_in; ++ic) {
          const std::int8_t* plane =
              image + (group * group_in + ic) * in_h * in_w;
          const std::int8_t* w_ic = w_oc + ic * kh * kw;
          for (std::int64_t ky = 0; ky < kh; ++ky) {
            const std::int64_t iy = iy0 + ky * p.dilation_h;
            if (iy < 0 || iy >= in_h) {
              continue;
            }
            const std::int8_t* row = plane + iy * in_w;
            const std::int8_t* w_ky = w_ic + ky * kw;
            if (interior) {
              for (std::int64_t kx = 0; kx < kw; ++kx) {
                acc += (static_cast<std::int32_t>(
                            row[ix0 + kx * p.dilation_w]) -
                        zp_in) *
                       static_cast<std::int32_t>(w_ky[kx]);
              }
            } else {
              for (std::int64_t kx = 0; kx < kw; ++kx) {
                const std::int64_t ix = ix0 + kx * p.dilation_w;
                if (ix < 0 || ix >= in_w) {
                  continue;
                }
                acc += (static_cast<std::int32_t>(row[ix]) - zp_in) *
                       static_cast<std::int32_t>(w_ky[kx]);
              }
            }
          }
        }
        out_plane[oy * out_w + ox] =
            requant_scale * static_cast<float>(acc);
      }
    }
  });
  return output;
}

Tensor linear_int8_fast(const QuantizedTensor& input,
                        const QuantizedTensor& weight) {
  FUSE_KERNEL_COUNTER("kernels.fast.linear_int8");
  const KernelIsa isa = note_isa();
  const std::int64_t batch = input.shape.dim(0);
  const std::int64_t in_f = input.shape.dim(1);
  const std::int64_t out_f = weight.shape.dim(0);
  const std::int32_t zp_in = input.params.zero_point;
  const float requant_scale = input.params.scale * weight.params.scale;
  Tensor output(Shape{batch, out_f});
  const std::int8_t* in_ptr = input.data.data();
  const std::int8_t* w_ptr = weight.data.data();
  float* out_ptr = output.data();
  constexpr std::int64_t kBlock = 32;
  const std::int64_t blocks = (out_f + kBlock - 1) / kBlock;
  run_tiles(blocks, kBlock * batch, [&](std::int64_t block) {
    const std::int64_t o0 = block * kBlock;
    const std::int64_t o1 = std::min(o0 + kBlock, out_f);
    for (std::int64_t n = 0; n < batch; ++n) {
      const std::int8_t* row = in_ptr + n * in_f;
      for (std::int64_t o = o0; o < o1; ++o) {
        const std::int8_t* w_row = w_ptr + o * in_f;
        std::int32_t acc = 0;
        if (isa == KernelIsa::kAvx2) {
          acc = kernels::avx2::linear_int8_dot(row, w_row, in_f, zp_in);
        } else {
          for (std::int64_t i = 0; i < in_f; ++i) {
            acc += (static_cast<std::int32_t>(row[i]) - zp_in) *
                   static_cast<std::int32_t>(w_row[i]);
          }
        }
        out_ptr[n * out_f + o] = requant_scale * static_cast<float>(acc);
      }
    }
  });
  return output;
}

// ---------------------------------------------------------------------------
// Training backward passes
// ---------------------------------------------------------------------------

Tensor conv2d_backward_fast(const Tensor& input, const Tensor& weight,
                            const Tensor& grad_output,
                            const Conv2dParams& p, Tensor* weight_grad,
                            Tensor* bias_grad) {
  FUSE_KERNEL_COUNTER("kernels.fast.conv2d_backward");
  const std::int64_t batch = input.shape().dim(0);
  const std::int64_t in_c = input.shape().dim(1);
  const std::int64_t in_h = input.shape().dim(2);
  const std::int64_t in_w = input.shape().dim(3);
  const std::int64_t out_c = grad_output.shape().dim(1);
  const std::int64_t out_h = grad_output.shape().dim(2);
  const std::int64_t out_w = grad_output.shape().dim(3);
  const std::int64_t kh = weight.shape().dim(2);
  const std::int64_t kw = weight.shape().dim(3);
  const std::int64_t group_in = in_c / p.groups;
  const std::int64_t group_out = out_c / p.groups;

  const float* in_ptr = input.data();
  const float* w_ptr = weight.data();
  const float* go_ptr = grad_output.data();
  float* wg_ptr = weight_grad->data();
  float* bg_ptr = bias_grad->data();

  Tensor grad_input(input.shape());
  float* gi_ptr = grad_input.data();

  // Pass 1 — grad_input, one task per image (disjoint input slices).
  // Loop order inside an image matches the reference exactly:
  // oc, oy, ox, ic, ky, kx with go == 0 skipped.
  run_tiles(batch, out_c * out_h * out_w, [&](std::int64_t n) {
    float* gi_image = gi_ptr + n * in_c * in_h * in_w;
    for (std::int64_t oc = 0; oc < out_c; ++oc) {
      const std::int64_t group = oc / group_out;
      const float* go_plane =
          go_ptr + (n * out_c + oc) * out_h * out_w;
      const float* w_oc = w_ptr + oc * group_in * kh * kw;
      for (std::int64_t oy = 0; oy < out_h; ++oy) {
        const std::int64_t iy0 = oy * p.stride_h - p.pad_h;
        for (std::int64_t ox = 0; ox < out_w; ++ox) {
          const float go = go_plane[oy * out_w + ox];
          if (go == 0.0F) {
            continue;
          }
          const std::int64_t ix0 = ox * p.stride_w - p.pad_w;
          for (std::int64_t ic = 0; ic < group_in; ++ic) {
            float* gi_plane =
                gi_image + (group * group_in + ic) * in_h * in_w;
            const float* w_ic = w_oc + ic * kh * kw;
            for (std::int64_t ky = 0; ky < kh; ++ky) {
              const std::int64_t iy = iy0 + ky * p.dilation_h;
              if (iy < 0 || iy >= in_h) {
                continue;
              }
              for (std::int64_t kx = 0; kx < kw; ++kx) {
                const std::int64_t ix = ix0 + kx * p.dilation_w;
                if (ix < 0 || ix >= in_w) {
                  continue;
                }
                gi_plane[iy * in_w + ix] += go * w_ic[ky * kw + kx];
              }
            }
          }
        }
      }
    }
  });

  // Pass 2 — weight and bias gradients, one task per output channel
  // (disjoint weight_grad rows / bias_grad entries). For a fixed oc the
  // reference visits (n, oy, ox) ascending — preserved here.
  run_tiles(out_c, batch * out_h * out_w, [&](std::int64_t oc) {
    const std::int64_t group = oc / group_out;
    float* wg_oc = wg_ptr + oc * group_in * kh * kw;
    for (std::int64_t n = 0; n < batch; ++n) {
      const float* go_plane = go_ptr + (n * out_c + oc) * out_h * out_w;
      const float* in_image = in_ptr + n * in_c * in_h * in_w;
      for (std::int64_t oy = 0; oy < out_h; ++oy) {
        const std::int64_t iy0 = oy * p.stride_h - p.pad_h;
        for (std::int64_t ox = 0; ox < out_w; ++ox) {
          const float go = go_plane[oy * out_w + ox];
          if (go == 0.0F) {
            continue;
          }
          bg_ptr[oc] += go;
          const std::int64_t ix0 = ox * p.stride_w - p.pad_w;
          for (std::int64_t ic = 0; ic < group_in; ++ic) {
            const float* in_plane =
                in_image + (group * group_in + ic) * in_h * in_w;
            float* wg_ic = wg_oc + ic * kh * kw;
            for (std::int64_t ky = 0; ky < kh; ++ky) {
              const std::int64_t iy = iy0 + ky * p.dilation_h;
              if (iy < 0 || iy >= in_h) {
                continue;
              }
              for (std::int64_t kx = 0; kx < kw; ++kx) {
                const std::int64_t ix = ix0 + kx * p.dilation_w;
                if (ix < 0 || ix >= in_w) {
                  continue;
                }
                wg_ic[ky * kw + kx] += go * in_plane[iy * in_w + ix];
              }
            }
          }
        }
      }
    }
  });
  return grad_input;
}

Tensor linear_backward_fast(const Tensor& input, const Tensor& weight,
                            const Tensor& grad_output, Tensor* weight_grad,
                            Tensor* bias_grad) {
  FUSE_KERNEL_COUNTER("kernels.fast.linear_backward");
  const std::int64_t batch = input.shape().dim(0);
  const std::int64_t in_f = input.shape().dim(1);
  const std::int64_t out_f = grad_output.shape().dim(1);
  const float* in_ptr = input.data();
  const float* w_ptr = weight.data();
  const float* go_ptr = grad_output.data();
  float* wg_ptr = weight_grad->data();
  float* bg_ptr = bias_grad->data();

  Tensor grad_input(input.shape());
  float* gi_ptr = grad_input.data();

  // Pass 1 — grad_input rows (one task per example, o ascending inside).
  run_tiles(batch, out_f, [&](std::int64_t n) {
    float* gi_row = gi_ptr + n * in_f;
    const float* go_row = go_ptr + n * out_f;
    for (std::int64_t o = 0; o < out_f; ++o) {
      const float go = go_row[o];
      if (go == 0.0F) {
        continue;
      }
      const float* w_row = w_ptr + o * in_f;
      for (std::int64_t i = 0; i < in_f; ++i) {
        gi_row[i] += go * w_row[i];
      }
    }
  });

  // Pass 2 — weight/bias gradients (one task block per output feature
  // range, n ascending inside — the reference order for a fixed o).
  constexpr std::int64_t kBlock = 16;
  const std::int64_t blocks = (out_f + kBlock - 1) / kBlock;
  run_tiles(blocks, kBlock * batch, [&](std::int64_t block) {
    const std::int64_t o0 = block * kBlock;
    const std::int64_t o1 = std::min(o0 + kBlock, out_f);
    for (std::int64_t o = o0; o < o1; ++o) {
      float* wg_row = wg_ptr + o * in_f;
      for (std::int64_t n = 0; n < batch; ++n) {
        const float go = go_ptr[n * out_f + o];
        if (go == 0.0F) {
          continue;
        }
        bg_ptr[o] += go;
        const float* in_row = in_ptr + n * in_f;
        for (std::int64_t i = 0; i < in_f; ++i) {
          wg_row[i] += go * in_row[i];
        }
      }
    }
  });
  return grad_input;
}

// ---------------------------------------------------------------------------
// Marshalling helpers shared with the systolic executor
// ---------------------------------------------------------------------------

Tensor flatten_filters(const Tensor& weight) {
  FUSE_CHECK(weight.shape().rank() == 4)
      << "flatten_filters expects [C_out, C_in/g, Kh, Kw], got "
      << weight.shape().to_string();
  const std::int64_t out_c = weight.shape().dim(0);
  const std::int64_t taps = weight.shape().dim(1) * weight.shape().dim(2) *
                            weight.shape().dim(3);
  Tensor filters(Shape{taps, out_c});
  const float* w = weight.data();
  float* f = filters.data();
  for (std::int64_t oc = 0; oc < out_c; ++oc) {
    const float* row = w + oc * taps;
    for (std::int64_t t = 0; t < taps; ++t) {
      f[t * out_c + oc] = row[t];
    }
  }
  return filters;
}

Tensor transpose_2d(const Tensor& w) {
  FUSE_CHECK(w.shape().rank() == 2)
      << "transpose_2d expects a rank-2 tensor, got "
      << w.shape().to_string();
  const std::int64_t rows = w.shape().dim(0);
  const std::int64_t cols = w.shape().dim(1);
  Tensor out(Shape{cols, rows});
  const float* src = w.data();
  float* dst = out.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      dst[c * rows + r] = src[r * cols + c];
    }
  }
  return out;
}

}  // namespace kernels

}  // namespace fuse::nn
