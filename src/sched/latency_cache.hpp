// The shape-keyed layer memo under its former name. The one memo is
// sched::EvalCache (eval_fast.hpp); a lookup returns the whole LayerCost,
// so latency-only callers read `.latency` off it.
#pragma once

#include "sched/eval_fast.hpp"

namespace fuse::sched {

using LatencyCache = EvalCache;

}  // namespace fuse::sched
