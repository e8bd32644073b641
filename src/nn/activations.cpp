#include "nn/activations.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "util/check.hpp"

namespace fuse::nn {

namespace {

/// The one definition of each activation formula. The scalar and the tensor
/// entry points both instantiate it, so they are bit-identical by
/// construction.
template <Activation A>
inline float activate(float x) {
  if constexpr (A == Activation::kNone) {
    return x;
  } else if constexpr (A == Activation::kRelu) {
    return x > 0.0F ? x : 0.0F;
  } else if constexpr (A == Activation::kRelu6) {
    return std::clamp(x, 0.0F, 6.0F);
  } else if constexpr (A == Activation::kHardSwish) {
    return x * std::clamp(x + 3.0F, 0.0F, 6.0F) / 6.0F;
  } else if constexpr (A == Activation::kHardSigmoid) {
    return std::clamp(x + 3.0F, 0.0F, 6.0F) / 6.0F;
  } else {
    return 1.0F / (1.0F + std::exp(-x));
  }
}

template <Activation A>
using ActivationTag = std::integral_constant<Activation, A>;

/// Calls fn(ActivationTag<act>{}): the one switch over activations, hoisted
/// out of every per-element loop.
template <typename Fn>
void with_activation(Activation act, Fn&& fn) {
  switch (act) {
    case Activation::kNone:
      return fn(ActivationTag<Activation::kNone>{});
    case Activation::kRelu:
      return fn(ActivationTag<Activation::kRelu>{});
    case Activation::kRelu6:
      return fn(ActivationTag<Activation::kRelu6>{});
    case Activation::kHardSwish:
      return fn(ActivationTag<Activation::kHardSwish>{});
    case Activation::kHardSigmoid:
      return fn(ActivationTag<Activation::kHardSigmoid>{});
    case Activation::kSigmoid:
      return fn(ActivationTag<Activation::kSigmoid>{});
  }
  FUSE_CHECK(false) << "unknown activation";
}

}  // namespace

float apply_activation(float x, Activation act) {
  float y = 0.0F;
  with_activation(act, [&](auto a) { y = activate<decltype(a)::value>(x); });
  return y;
}

tensor::Tensor apply_activation(const tensor::Tensor& input, Activation act) {
  tensor::Tensor out = input;
  float* x = out.data();
  const std::int64_t n = out.num_elements();
  with_activation(act, [&](auto a) {
    for (std::int64_t i = 0; i < n; ++i) {
      x[i] = activate<decltype(a)::value>(x[i]);
    }
  });
  return out;
}

float activation_grad(float x, Activation act) {
  switch (act) {
    case Activation::kNone:
      return 1.0F;
    case Activation::kRelu:
      return x > 0.0F ? 1.0F : 0.0F;
    case Activation::kRelu6:
      return (x > 0.0F && x < 6.0F) ? 1.0F : 0.0F;
    case Activation::kHardSwish: {
      if (x <= -3.0F) {
        return 0.0F;
      }
      if (x >= 3.0F) {
        return 1.0F;
      }
      return (2.0F * x + 3.0F) / 6.0F;
    }
    case Activation::kHardSigmoid:
      return (x > -3.0F && x < 3.0F) ? 1.0F / 6.0F : 0.0F;
    case Activation::kSigmoid: {
      const float s = apply_activation(x, Activation::kSigmoid);
      return s * (1.0F - s);
    }
  }
  FUSE_CHECK(false) << "unknown activation";
  return 0.0F;
}

Activation activation_from_name(const std::string& name) {
  for (Activation act :
       {Activation::kNone, Activation::kRelu, Activation::kRelu6,
        Activation::kHardSwish, Activation::kHardSigmoid,
        Activation::kSigmoid}) {
    if (activation_name(act) == name) {
      return act;
    }
  }
  FUSE_CHECK(false) << "unknown activation name '" << name << "'";
  return Activation::kNone;
}

std::string activation_name(Activation act) {
  switch (act) {
    case Activation::kNone:
      return "none";
    case Activation::kRelu:
      return "relu";
    case Activation::kRelu6:
      return "relu6";
    case Activation::kHardSwish:
      return "hswish";
    case Activation::kHardSigmoid:
      return "hsigmoid";
    case Activation::kSigmoid:
      return "sigmoid";
  }
  return "?";
}

}  // namespace fuse::nn
