/**
 * @file
 * Bit-manipulation utilities used by predictor indexing logic.
 */

#ifndef BPSIM_SUPPORT_BITS_HH
#define BPSIM_SUPPORT_BITS_HH

#include <cstdint>
#include <string_view>

#include "support/logging.hh"
#include "support/types.hh"

/**
 * Force inlining of a small header function. For hot inline code the
 * batch kernels call: an out-of-line copy emitted by the AVX2
 * translation unit could be the one the linker keeps for every caller.
 */
#if defined(__GNUC__) || defined(__clang__)
#define BPSIM_ALWAYS_INLINE [[gnu::always_inline]] inline
#else
#define BPSIM_ALWAYS_INLINE inline
#endif

namespace bpsim
{

/** Return a mask with the low @p bits bits set. Supports 0..64. */
constexpr std::uint64_t
mask(BitCount bits)
{
    return bits >= 64 ? ~std::uint64_t{0}
                      : ((std::uint64_t{1} << bits) - 1);
}

/** True iff @p value is a nonzero power of two. */
constexpr bool
isPowerOfTwo(std::uint64_t value)
{
    return value != 0 && (value & (value - 1)) == 0;
}

/** Floor of log2; @p value must be nonzero. */
constexpr BitCount
floorLog2(std::uint64_t value)
{
    BitCount result = 0;
    while (value >>= 1)
        ++result;
    return result;
}

/** Ceiling of log2; @p value must be nonzero. */
constexpr BitCount
ceilLog2(std::uint64_t value)
{
    return isPowerOfTwo(value) ? floorLog2(value) : floorLog2(value) + 1;
}

/**
 * Fold a wide value down to @p bits bits by XORing successive
 * @p bits-wide slices together. Used to hash long histories or
 * addresses into a table index without discarding entropy.
 */
constexpr std::uint64_t
foldBits(std::uint64_t value, BitCount bits)
{
    if (bits == 0)
        return 0;
    if (bits >= 64)
        return value;
    std::uint64_t folded = 0;
    while (value != 0) {
        folded ^= value & mask(bits);
        value >>= bits;
    }
    return folded;
}

/**
 * gshare-family table index: folded branch address XORed with the raw
 * global history, reduced to @p bits. The single definition shared by
 * gshare, agree, bi-mode direction tables and the batch replay
 * kernels, so the scalar and batched paths cannot drift.
 *
 * @param pc_index branch address already divided by the instruction
 *                 size (pc / instructionBytes)
 * @param history  raw history register value (not pre-folded; bits
 *                 beyond the index width are discarded by the mask,
 *                 matching the classic gshare formulation)
 */
constexpr std::uint64_t
hashPcHistoryXor(std::uint64_t pc_index, std::uint64_t history,
                 BitCount bits)
{
    return (foldBits(pc_index, bits) ^ history) & mask(bits);
}

/**
 * gselect-style concatenated index: folded branch address in the high
 * bits, @p history_bits of global history in the low bits.
 */
constexpr std::uint64_t
hashPcHistoryConcat(std::uint64_t pc_index, std::uint64_t history,
                    BitCount history_bits, BitCount bits)
{
    return ((foldBits(pc_index, bits - history_bits) << history_bits) |
            history) &
           mask(bits);
}

/** Extract bits [lo, lo+len) of @p value. */
constexpr std::uint64_t
bitSlice(std::uint64_t value, BitCount lo, BitCount len)
{
    return (value >> lo) & mask(len);
}

/**
 * FNV-1a hash of a byte string. Stable across platforms, processes
 * and builds: the artifact cache derives file names and header
 * checksums from it and the shard partitioner derives shard
 * membership from it, so the constants are part of the on-disk /
 * cross-process contract and must never change.
 */
constexpr std::uint64_t
fnv1a64(std::string_view bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/**
 * Reversible mix of a branch PC into a well-distributed 64-bit value
 * (splitmix64 finalizer). Deterministic; used for synthetic PC layout
 * and hash-based index schemes.
 */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace bpsim

#endif // BPSIM_SUPPORT_BITS_HH
