/**
 * @file
 * Long global-history register and folded-history (CSR) companions
 * for tagged-geometric predictors.
 *
 * GlobalHistory tops out at 64 outcomes; TAGE-style predictors index
 * their longest table with 80+ bits. LongHistory extends the shift
 * register to 128 bits, and FoldedHistory maintains the circular
 * shift register (CSR) fold of a length-L window down to a table's
 * index or tag width in O(1) per branch instead of re-XORing L bits.
 */

#ifndef BPSIM_PREDICTOR_LONG_HISTORY_HH
#define BPSIM_PREDICTOR_LONG_HISTORY_HH

#include <array>
#include <cstdint>

#include "support/bits.hh"
#include "support/logging.hh"
#include "support/types.hh"

namespace bpsim
{

/**
 * Shift register of up to 128 recent branch outcomes, LSB (bit 0)
 * = most recent, matching GlobalHistory's convention.
 */
class LongHistory
{
  public:
    /** @param bits number of outcomes retained (1..128). */
    explicit LongHistory(BitCount bits)
        : masks{mask(bits < 64 ? bits : 64), mask(bits > 64 ? bits - 64 : 0)},
          numBits(bits)
    {
        bpsim_assert(bits >= 1 && bits <= 128, "bad history width");
    }

    /** Shift in one outcome. */
    BPSIM_ALWAYS_INLINE void
    push(bool taken)
    {
        const std::uint64_t carry = words[0] >> 63;
        words[0] = ((words[0] << 1) | (taken ? 1 : 0)) & masks[0];
        words[1] = ((words[1] << 1) | carry) & masks[1];
    }

    /** The outcome @p pos branches ago (0 = most recent). */
    bool
    bit(BitCount pos) const
    {
        bpsim_assert(pos < numBits, "history bit out of range");
        return bitAt(pos);
    }

    /** bit() without the range check; @p pos must be below width(). */
    BPSIM_ALWAYS_INLINE bool
    bitAt(BitCount pos) const
    {
        return ((words[pos / 64] >> (pos % 64)) & 1) != 0;
    }

    /** Register width in bits. */
    BitCount width() const { return numBits; }

    /** Clear to the power-on (all not-taken) state. */
    void clear() { words = {0, 0}; }

  private:
    std::array<std::uint64_t, 2> words{};
    std::array<std::uint64_t, 2> masks;
    BitCount numBits;
};

/**
 * Circular-shift-register fold of the most recent @p origLen history
 * bits down to @p compLen bits, maintained incrementally.
 *
 * Invariant (the property tests pin it): after any sequence of
 * updates, value() equals the from-scratch fold
 * XOR over j in [0, origLen) of h[j] << (j % compLen),
 * where h[j] is the outcome j branches ago. update() must be called
 * once per history push with the incoming bit and the bit that falls
 * out of the length-origLen window (h[origLen-1] *before* the push).
 */
class FoldedHistory
{
  public:
    FoldedHistory() = default;

    FoldedHistory(BitCount orig_len, BitCount comp_len,
                  std::uint64_t value = 0)
        : comp(value), origLen(orig_len), compLen(comp_len),
          outPoint(orig_len % comp_len)
    {
        bpsim_assert(comp_len >= 1 && comp_len < 64,
                     "bad folded width");
        bpsim_assert(orig_len >= comp_len,
                     "fold wider than its window");
        bpsim_assert(value <= mask(comp_len), "fold value too wide");
    }

    /**
     * Advance by one branch: @p in_bit enters the window, @p out_bit
     * (the oldest bit of the window before this push) leaves it.
     */
    void
    update(bool in_bit, bool out_bit)
    {
        comp = (comp << 1) | (in_bit ? 1 : 0);
        comp ^= (out_bit ? std::uint64_t{1} : 0) << outPoint;
        comp ^= comp >> compLen;
        comp &= mask(compLen);
    }

    /** The folded value (compLen bits). */
    std::uint64_t value() const { return comp; }

    /** Window / folded widths. */
    BitCount windowBits() const { return origLen; }
    BitCount foldedBits() const { return compLen; }

    /** Reset to the all-not-taken state. */
    void clear() { comp = 0; }

    /**
     * From-scratch fold of @p history's length-origLen window; the
     * value an incrementally maintained fold must equal (used by the
     * property tests and by reset-state sanity checks).
     */
    std::uint64_t
    recompute(const LongHistory &history) const
    {
        std::uint64_t folded = 0;
        for (BitCount j = 0; j < origLen; ++j) {
            if (history.bit(j))
                folded ^= std::uint64_t{1} << (j % compLen);
        }
        return folded;
    }

  private:
    std::uint64_t comp = 0;
    BitCount origLen = 0;
    BitCount compLen = 1;
    BitCount outPoint = 0;
};

/**
 * @p N FoldedHistory CSRs advanced in lockstep, stored as structure
 * of arrays so one update is a fixed-trip loop of shifts and XORs
 * over the lanes that the compiler can vectorize (variable per-lane
 * shifts under AVX2). Lane j follows exactly FoldedHistory's update
 * rule; lanes never configured stay 0 (their mask is empty).
 */
template <std::size_t N>
class FoldedHistoryBank
{
  public:
    /** Make lane @p j the fold of @p orig_len outcomes to
     * @p comp_len bits (same constraints as FoldedHistory). */
    void
    configure(std::size_t j, BitCount orig_len, BitCount comp_len)
    {
        bpsim_assert(j < N, "fold lane out of range");
        bpsim_assert(comp_len >= 1 && comp_len < 64, "bad folded width");
        bpsim_assert(orig_len >= comp_len, "fold wider than its window");
        origLen[j] = orig_len;
        compLen[j] = comp_len;
        outPoint[j] = orig_len % comp_len;
        compMask[j] = mask(comp_len);
    }

    /**
     * Advance every lane by one branch: @p in_bit enters each window
     * and @p out_bits[j] (the oldest bit of lane j's window before
     * this push, 0 or 1) leaves it.
     */
    BPSIM_ALWAYS_INLINE void
    update(bool in_bit, const std::array<std::uint64_t, N> &out_bits)
    {
        const std::uint64_t in = in_bit ? 1 : 0;
        // Fully unrolled, so the lanes can live in registers across
        // a caller's record loop.
#pragma GCC unroll 16
        for (std::size_t j = 0; j < N; ++j) {
            std::uint64_t c = (comp[j] << 1) | in;
            c ^= out_bits[j] << outPoint[j];
            c ^= c >> compLen[j];
            comp[j] = c & compMask[j];
        }
    }

    /** Lane @p j's folded value. */
    std::uint64_t value(std::size_t j) const { return comp[j]; }

    /** Lane @p j as a standalone FoldedHistory (for introspection). */
    FoldedHistory
    lane(std::size_t j) const
    {
        return FoldedHistory(static_cast<BitCount>(origLen[j]),
                             static_cast<BitCount>(compLen[j]), comp[j]);
    }

    /** Reset every lane to the all-not-taken state. */
    void clear() { comp.fill(0); }

  private:
    // 64-bit lanes throughout, so the update's shifts and masks are
    // uniform; an unconfigured lane has an empty mask and stays 0.
    std::array<std::uint64_t, N> comp{};
    std::array<std::uint64_t, N> origLen{};
    std::array<std::uint64_t, N> compLen{};
    std::array<std::uint64_t, N> outPoint{};
    std::array<std::uint64_t, N> compMask{};
};

} // namespace bpsim

#endif // BPSIM_PREDICTOR_LONG_HISTORY_HH
