/**
 * @file
 * Materialized branch trace optimised for repeated replay.
 *
 * A ReplayBuffer captures a stream's records once into flat,
 * cache-friendly storage and hands out any number of independent
 * read cursors over it. The storage is site-indexed: each record is
 * a 32-bit site id plus a packed gap/outcome word (8 bytes per
 * branch), and one site table per buffer maps a site id back to its
 * branch PC. Site ids are dense (below siteCount()) and assigned in
 * first-occurrence order, so consumers that keep per-branch state —
 * static-hint lookups, profile accumulation, per-site index material
 * — use an array load where they would otherwise hash the PC.
 *
 * Experiment matrices that simulate N predictor configurations over
 * the same program replay the buffer N times instead of re-running
 * CFG walking and behaviour evaluation N times, and concurrent
 * cursors make the buffer shareable across worker threads without
 * locking.
 */

#ifndef BPSIM_TRACE_REPLAY_BUFFER_HH
#define BPSIM_TRACE_REPLAY_BUFFER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "trace/branch_stream.hh"

namespace bpsim
{

/** An immutable, replayable capture of a branch stream's prefix. */
class ReplayBuffer
{
  public:
    ReplayBuffer() = default;

    // The column views must follow the storage they point into, so
    // copies re-point at their own vectors and moves leave the
    // source empty.
    ReplayBuffer(const ReplayBuffer &other);
    ReplayBuffer &operator=(const ReplayBuffer &other);
    ReplayBuffer(ReplayBuffer &&other) noexcept;
    ReplayBuffer &operator=(ReplayBuffer &&other) noexcept;

    /**
     * Capture at most @p limit records of @p source, resetting it
     * first so the buffer replays exactly what a fresh run of the
     * source would produce. Instruction gaps must fit in 31 bits
     * (the taken flag shares their word). A source that numbers its
     * sites (BranchStream::siteCount()) is enumerated through a
     * dense array; any other source's PCs are hashed.
     */
    static ReplayBuffer materialize(BranchStream &source, Count limit);

    /**
     * Wrap externally owned columns (an artifact-cache mmap) without
     * copying. The buffer only views @p site_column, @p packed_column
     * and @p site_pcs; @p backing keeps the memory alive for as long
     * as any copy of the buffer exists (copies share it), so the
     * mapping's lifetime follows ordinary value semantics. The
     * columns must use the encoding materialize() produces, and every
     * site id must be below @p site_count.
     */
    static ReplayBuffer
    fromColumns(const std::uint32_t *site_column,
                const std::uint32_t *packed_column, Count records,
                const Addr *site_pcs, std::uint32_t site_count,
                Count instruction_count,
                std::shared_ptr<const void> backing);

    /** Records stored. */
    Count size() const { return records; }

    bool empty() const { return size() == 0; }

    /** True when the buffer views external (mapped) storage. */
    bool mapped() const { return external; }

    /** Total dynamic instruction count (sum of gaps). */
    Count instructionCount() const { return instructions; }

    /** Distinct branch sites (static branches) the records touch. */
    std::uint32_t siteCount() const { return sites; }

    /**
     * Bytes of record storage the replay reads (the replay memory
     * cost): both record columns plus the site table. For a mapped
     * buffer these are shared page-cache bytes, not private
     * allocations.
     */
    std::size_t
    memoryBytes() const
    {
        return size() * bytesPerBranch + siteCount() * sizeof(Addr);
    }

    /** Storage cost per branch in bytes (site id + gap/taken word). */
    static constexpr std::size_t bytesPerBranch =
        sizeof(std::uint32_t) + sizeof(std::uint32_t);

    /** Fill @p record with record @p index (no bounds check). */
    void
    get(Count index, BranchRecord &record) const
    {
        record.pc = pcOfSite[siteOf[index]];
        const std::uint32_t packed = gapTaken[index];
        record.taken = (packed & takenBit) != 0;
        record.instGap = packed & ~takenBit;
    }

    /**
     * A forward cursor over the buffer; implements BranchStream so
     * the engine replays it like any other trace. Cursors are cheap
     * value types: every simulation (and every worker thread) takes
     * its own, so the shared buffer is read concurrently with no
     * synchronisation.
     */
    class Cursor : public BranchStream
    {
      public:
        explicit Cursor(const ReplayBuffer &buffer) : buf(&buffer) {}

        bool
        next(BranchRecord &record) override
        {
            if (pos >= buf->size())
                return false;
            buf->get(pos, record);
            ++pos;
            return true;
        }

        void reset() override { pos = 0; }

      private:
        const ReplayBuffer *buf;
        Count pos = 0;
    };

    /** A fresh cursor positioned at the first record. */
    Cursor cursor() const { return Cursor(*this); }

    /** Bit of a packed gap/taken word holding the outcome flag. */
    static constexpr std::uint32_t packedTakenBit = 0x8000'0000u;

    /**
     * Raw column access for block-iterating consumers (the engine's
     * devirtualized replay kernels). siteData()[i] pairs with
     * packedData()[i]: the record's PC is sitePcs()[siteData()[i]],
     * taken = packed & packedTakenBit, instruction gap = packed &
     * ~packedTakenBit — the same decode get() applies.
     */
    const std::uint32_t *siteData() const { return siteOf; }

    const std::uint32_t *packedData() const { return gapTaken; }

    /** The site table: the PC of every site id. */
    const Addr *sitePcs() const { return pcOfSite; }

    /** The PC of @p site (no bounds check). */
    Addr sitePc(std::uint32_t site) const { return pcOfSite[site]; }

  private:
    static constexpr std::uint32_t takenBit = packedTakenBit;

    /** Enumeration slot of a site that has no id yet. */
    static constexpr std::uint32_t unassigned = ~std::uint32_t{0};

    /** Point the column views at the owned vectors. */
    void viewOwned();

    /** Take @p other's storage, leaving it an empty buffer. */
    void steal(ReplayBuffer &other) noexcept;

    // Owned storage (materialize()) lives in the vectors; mapped
    // storage (fromColumns()) lives in external memory kept alive by
    // `backing`, with the vectors empty and `external` set. The
    // column pointers below view whichever holds the data, so
    // accessors never branch on the mode.
    std::vector<std::uint32_t> ownSites;
    std::vector<std::uint32_t> ownPacked;
    std::vector<Addr> ownPcs;
    std::shared_ptr<const void> backing;
    bool external = false;

    const std::uint32_t *siteOf = nullptr;
    const std::uint32_t *gapTaken = nullptr;
    const Addr *pcOfSite = nullptr;
    Count records = 0;
    std::uint32_t sites = 0;
    Count instructions = 0;
};

/**
 * Dense enumeration of a buffer's distinct branch sites (static
 * branches): siteData()[i] maps record i to a small integer below
 * siteCount(), assigned in first-occurrence order, and sitePc()
 * inverts the mapping.
 *
 * A SiteIndex is an O(1) view of the site column and site table
 * every ReplayBuffer carries; it stays valid for as long as the
 * buffer's storage does. It exists so callers that pass an index
 * alongside a buffer keep compiling: the engine reads the sites from
 * the buffer itself.
 */
class SiteIndex
{
  public:
    SiteIndex() = default;

    /** View the sites of @p buffer (no pass over its records). */
    static SiteIndex build(const ReplayBuffer &buffer);

    /** Distinct branch sites seen. */
    std::uint32_t siteCount() const { return sites; }

    /** Per-record site ids, parallel to the buffer's columns. */
    const std::uint32_t *siteData() const { return siteOf; }

    /** The PC of @p site (no bounds check). */
    Addr sitePc(std::uint32_t site) const { return pcs[site]; }

    /** Records the index covers (the buffer's size). */
    Count size() const { return records; }

  private:
    const std::uint32_t *siteOf = nullptr;
    const Addr *pcs = nullptr;
    Count records = 0;
    std::uint32_t sites = 0;
};

} // namespace bpsim

#endif // BPSIM_TRACE_REPLAY_BUFFER_HH
