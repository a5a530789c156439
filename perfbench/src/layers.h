/**
 * @file
 * Layer probes of the traced run: timed calls into one module's
 * public functions, at the sizes the measured phases use.
 */

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstddef>

#include "bench.h"
#include "fhe/params.h"

namespace perfbench {

/**
 * rns: µs per limb of the forward and inverse NTT, a 4-source
 * base-conversion MAC, an automorphism and a modular multiply, at
 * the context's ring dimension and first prime.
 */
void probeRnsKernels(const cinnamon::fhe::CkksContext &ctx,
                     SpanLog *spans, Result &res);

/**
 * net: µs to frame one Submit carrying `members` requests and one
 * Result, and to decode both back through a FrameDecoder.
 */
void probeNet(std::size_t members, SpanLog *spans, Result &res);

/** common: the real pool size and its job/steal counters. */
void poolMetrics(Result &res);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H_
