/**
 * @file
 * AVX2-target instantiation of the batch replay kernels (x86-64
 * only). The code is the same portable implementation — the vector
 * speedup comes from the compiler vectorizing the decode/precompute
 * loops with the wider ISA; results are bit-identical to the
 * baseline translation unit by integer semantics.
 *
 * Only the kernel code is compiled for AVX2. Every header is included
 * first, under the baseline target, and the implementation follows
 * inside a target pragma: inline functions and templates the headers
 * define (and which other translation units may instantiate too)
 * therefore keep baseline code, so the linker can never pick an AVX2
 * copy of a shared symbol for a caller on a CPU without AVX2. The
 * kernels' own code lives in an anonymous namespace plus the
 * kernels_avx2 entry points, which only runtime dispatch
 * (core/simd.cc) calls after CPU detection.
 *
 * The whole file compiles away when the AVX2 kernels are excluded
 * (non-x86 targets, or -DBPSIM_DISABLE_AVX2=ON defining
 * BPSIM_NO_AVX2_KERNELS), keeping the library buildable with one
 * source list.
 */

#include "core/simd.hh"

#if defined(BPSIM_HAVE_AVX2_KERNELS)

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/batch_kernels.hh"
#include "support/bits.hh"
#include "support/logging.hh"
#include "support/sat_counter.hh"
#include "support/skew.hh"

#pragma GCC push_options
// 128-bit vectors: wider codegen measured slower (DESIGN.md §6.3).
#pragma GCC target("avx2,prefer-vector-width=128")

#define BPSIM_BATCH_NS kernels_avx2
#include "core/batch_kernels_impl.hh"

#pragma GCC pop_options

#endif // BPSIM_HAVE_AVX2_KERNELS
