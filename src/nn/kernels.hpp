// Fast host kernel backend: cache-blocked GEMM micro-kernels that read
// conv and linear weights in place as the A operand against packed
// activation panels, and shape-specialized depthwise / FuSe 1-D kernels,
// all parallelized over independent output tiles on a process-wide
// util::ThreadPool.
//
// The backend practices on the host what the paper practices on the
// array: factor every operator onto a small set of efficient inner
// kernels (GEMM panels for dense/pointwise/grouped convolutions and
// linear layers, line kernels for the FuSe 1xK / Kx1 branches) instead
// of running the naive 6-deep loops of the reference operators.
//
// Determinism contract (docs/kernels.md):
//   * Every output element is owned by exactly one parallel task and its
//     k-accumulation runs in a fixed order, so results are BIT-EXACT
//     across thread counts (and across runs) at a fixed ISA.
//   * Under the SCALAR ISA each fast kernel reproduces the reference
//     operator's accumulation type and order exactly — double
//     accumulators seeded with the bias for conv2d/linear, in-order
//     float accumulation for matmul, int32 for the INT8 kernels — so
//     scalar fast outputs are bit-exact with the reference backend
//     (0 ULP; the only theoretical exception is the sign of an
//     exact-zero output, which IEEE-754 +/-0 addition identities make
//     unobservable in practice). tools/check.sh leans on this: golden
//     results must be byte-identical across backends with
//     FUSE_KERNEL_ISA=scalar pinned.
//   * Under the AVX2 ISA the float kernels accumulate in single
//     precision with FMA, so outputs are ULP-BOUNDED against the
//     reference (util/ulp.hpp derives the bound; docs/kernels.md
//     documents it); the GEMM-backed ops (conv, linear, matmul) are
//     exactly one fmaf chain per output in the reference tap order. The
//     INT8 kernels accumulate in int32 — exact in any order — and stay
//     bit-identical under every ISA.
//
// Backend selection: nn::conv2d / matmul / linear / the INT8 kernels and
// the train::Module backward passes all dispatch on kernel_backend().
// Default is kFast; set FUSE_KERNEL_BACKEND=reference (or the benches'
// --kernel-backend flag) to pin the reference oracle. FUSE_KERNEL_THREADS
// / --kernel-threads size the kernel pool (N threads = N-1 workers plus
// the calling thread, mirroring the sweep engine's convention).
//
// ISA selection: inside the fast backend, kernel_isa() picks between the
// portable scalar kernels and the AVX2/FMA micro-kernels
// (kernels_avx2.cpp). Default is the best ISA the CPU supports (CPUID
// probe in util/cpu_features.hpp); FUSE_KERNEL_ISA=scalar|avx2|auto (or
// the benches' --kernel-isa flag) overrides it for differential testing.
// Requesting an unavailable ISA via the environment falls back to scalar
// with a note on stderr (so a forced-ISA CI matrix passes on any
// machine); requesting it via set_kernel_isa / an explicit CLI flag is an
// error. The backward passes and a few geometries (stride_w != 1 or
// dilation_w != 1 channelwise / int8 conv interiors) always run the
// scalar kernels — see the dispatch table in docs/kernels.md.
#pragma once

#include <cstdint>
#include <string>

#include "nn/ops.hpp"
#include "tensor/quantize.hpp"

namespace fuse::util {
class ThreadPool;
}

namespace fuse::nn {

/// Which implementation the functional operators dispatch to.
enum class KernelBackend {
  kReference,  // the clarity-first loops (numeric ground truth)
  kFast,       // this module's blocked/parallel kernels
};

/// Current backend. Initialized from FUSE_KERNEL_BACKEND (default fast).
KernelBackend kernel_backend();

/// Overrides the backend for the whole process. Not safe to call while
/// kernels are executing on the pool.
void set_kernel_backend(KernelBackend backend);

/// Parses "fast" / "reference" (also "ref"). Returns false on anything
/// else.
bool parse_kernel_backend(const std::string& name, KernelBackend* out);

const char* kernel_backend_name(KernelBackend backend);

/// Total threads participating in kernel parallel_fors (workers + the
/// calling thread, so 1 means fully serial). Initialized from
/// FUSE_KERNEL_THREADS (default: hardware concurrency).
int kernel_threads();

/// Resizes the kernel pool to `threads` total threads (>= 1). Not safe to
/// call while kernels are executing on the pool. Outputs are bit-exact
/// for every value.
void set_kernel_threads(int threads);

/// The process-wide pool the fast kernels partition tiles over.
util::ThreadPool& kernel_pool();

/// Which instruction set the fast backend's inner kernels use.
enum class KernelIsa {
  kScalar,  // portable C++ (bit-exact with the reference oracles)
  kAvx2,    // AVX2/FMA micro-kernels (ULP-bounded floats, exact int8)
};

/// Current ISA. Initialized from FUSE_KERNEL_ISA (default: best
/// available per the CPUID probe; an unavailable env request falls back
/// to scalar with a note on stderr).
KernelIsa kernel_isa();

/// Overrides the ISA for the whole process. FUSE_CHECK-fails if `isa` is
/// not available on this machine (see kernel_isa_available). Not safe to
/// call while kernels are executing on the pool.
void set_kernel_isa(KernelIsa isa);

/// True when `isa` can execute here: kScalar always; kAvx2 when the
/// binary contains the AVX2 kernels (x86 build) AND the CPU + OS report
/// AVX2, FMA, and OS-enabled YMM state.
bool kernel_isa_available(KernelIsa isa);

/// Parses "scalar" / "avx2" / "auto" ("auto" resolves to the best
/// available ISA at parse time). Returns false on anything else.
bool parse_kernel_isa(const std::string& name, KernelIsa* out);

const char* kernel_isa_name(KernelIsa isa);

namespace kernels {

/// C[m, n] = A[m, k] * B[k, n], row-major, all operands dense. C is
/// overwritten. Float accumulation in ascending-k order per output (the
/// reference matmul's order), blocked into packed B column panels and
/// register tiles, parallel over row blocks.
void gemm_f32(const float* a, const float* b, float* c, std::int64_t m,
              std::int64_t k, std::int64_t n);

/// Fast implementations of the public functional operators. Shapes and
/// semantics are identical to the reference versions in nn/ops.hpp /
/// nn/quantized.hpp; arguments are assumed pre-validated by the
/// dispatching wrapper.
Tensor matmul_fast(const Tensor& a, const Tensor& b);
Tensor conv2d_fast(const Tensor& input, const Tensor& weight,
                   const Tensor* bias, const Conv2dParams& params);
Tensor linear_fast(const Tensor& input, const Tensor& weight,
                   const Tensor* bias);
Tensor conv2d_int8_fast(const tensor::QuantizedTensor& input,
                        const tensor::QuantizedTensor& weight,
                        const Conv2dParams& params);
Tensor linear_int8_fast(const tensor::QuantizedTensor& input,
                        const tensor::QuantizedTensor& weight);

/// Fast training backward passes (train::Module dispatches here).
/// Both ACCUMULATE into *weight_grad / *bias_grad (matching the
/// reference `+=` semantics) and return grad_input. Bit-exact with the
/// reference loops: grad_input is partitioned over batch images and the
/// weight/bias gradients over output features, each with the reference
/// visiting order inside the partition.
Tensor conv2d_backward_fast(const Tensor& input, const Tensor& weight,
                            const Tensor& grad_output,
                            const Conv2dParams& params, Tensor* weight_grad,
                            Tensor* bias_grad);
Tensor linear_backward_fast(const Tensor& input, const Tensor& weight,
                            const Tensor& grad_output, Tensor* weight_grad,
                            Tensor* bias_grad);

/// Flattens an [C_out, C_in/g, Kh, Kw] filter bank to the [taps, C_out]
/// matrix the im2col lowering multiplies against (taps ordered
/// channel-major, then kernel row, then kernel column). Shared by the
/// functional im2col path and the systolic executor's marshalling.
Tensor flatten_filters(const Tensor& weight);

/// [R, C] -> [C, R]. The executor uses this to lay fully-connected
/// weights out as [F_in, F_out] for the array.
Tensor transpose_2d(const Tensor& w);

}  // namespace kernels

}  // namespace fuse::nn
