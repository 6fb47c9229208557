#include "trace/replay_buffer.hh"

#include <unordered_map>
#include <utility>

#include "support/logging.hh"

namespace bpsim
{

ReplayBuffer::ReplayBuffer(const ReplayBuffer &other)
    : ownSites(other.ownSites), ownPacked(other.ownPacked),
      ownPcs(other.ownPcs), backing(other.backing),
      external(other.external), siteOf(other.siteOf),
      gapTaken(other.gapTaken), pcOfSite(other.pcOfSite),
      records(other.records), sites(other.sites),
      instructions(other.instructions)
{
    if (!external)
        viewOwned();
}

ReplayBuffer &
ReplayBuffer::operator=(const ReplayBuffer &other)
{
    if (this != &other) {
        ReplayBuffer copy(other);
        steal(copy);
    }
    return *this;
}

ReplayBuffer::ReplayBuffer(ReplayBuffer &&other) noexcept
{
    steal(other);
}

ReplayBuffer &
ReplayBuffer::operator=(ReplayBuffer &&other) noexcept
{
    if (this != &other)
        steal(other);
    return *this;
}

void
ReplayBuffer::steal(ReplayBuffer &other) noexcept
{
    // Moving a vector keeps its heap block, so the column views stay
    // valid in their new owner.
    ownSites = std::move(other.ownSites);
    ownPacked = std::move(other.ownPacked);
    ownPcs = std::move(other.ownPcs);
    backing = std::move(other.backing);
    external = std::exchange(other.external, false);
    siteOf = std::exchange(other.siteOf, nullptr);
    gapTaken = std::exchange(other.gapTaken, nullptr);
    pcOfSite = std::exchange(other.pcOfSite, nullptr);
    records = std::exchange(other.records, 0);
    sites = std::exchange(other.sites, 0);
    instructions = std::exchange(other.instructions, 0);
}

void
ReplayBuffer::viewOwned()
{
    siteOf = ownSites.data();
    gapTaken = ownPacked.data();
    pcOfSite = ownPcs.data();
    records = ownSites.size();
    sites = static_cast<std::uint32_t>(ownPcs.size());
}

ReplayBuffer
ReplayBuffer::materialize(BranchStream &source, Count limit)
{
    ReplayBuffer buffer;
    std::vector<std::uint32_t> &sites = buffer.ownSites;
    std::vector<std::uint32_t> &packed = buffer.ownPacked;
    std::vector<Addr> &pcs = buffer.ownPcs;
    sites.reserve(limit);
    packed.reserve(limit);

    // Each site's slot in the enumeration holds its id once assigned.
    // A source that numbers its own sites indexes the slots by that
    // number (a dense array); any other source's PCs are hashed.
    const std::uint32_t numbered = source.siteCount();
    std::vector<std::uint32_t> slotOf(numbered, unassigned);
    std::unordered_map<Addr, std::uint32_t> slotOfPc;

    source.reset();
    BranchRecord record;
    std::uint32_t site = 0;
    Count instructions = 0;
    for (Count i = 0; i < limit; ++i) {
        if (!(numbered > 0 ? source.nextSite(record, site)
                           : source.next(record)))
            break;
        bpsim_assert((record.instGap & takenBit) == 0,
                     "instruction gap exceeds 31 bits");
        bpsim_assert(numbered == 0 || site < numbered,
                     "site number out of range");
        std::uint32_t &slot =
            numbered > 0
                ? slotOf[site]
                : slotOfPc.try_emplace(record.pc, unassigned).first->second;
        // An unassigned slot takes the next id, so ids follow first
        // occurrence.
        std::uint32_t id = slot;
        if (id == unassigned) [[unlikely]] {
            id = static_cast<std::uint32_t>(pcs.size());
            slot = id;
            pcs.push_back(record.pc);
        }
        sites.push_back(id);
        packed.push_back(record.instGap | (record.taken ? takenBit : 0));
        instructions += record.instGap;
    }
    buffer.instructions = instructions;
    buffer.viewOwned();
    return buffer;
}

ReplayBuffer
ReplayBuffer::fromColumns(const std::uint32_t *site_column,
                          const std::uint32_t *packed_column,
                          Count records, const Addr *site_pcs,
                          std::uint32_t site_count,
                          Count instruction_count,
                          std::shared_ptr<const void> backing)
{
    bpsim_assert(records == 0 || (site_column != nullptr &&
                                  packed_column != nullptr &&
                                  site_pcs != nullptr),
                 "null replay columns");
    ReplayBuffer buffer;
    buffer.external = true;
    buffer.siteOf = site_column;
    buffer.gapTaken = packed_column;
    buffer.pcOfSite = site_pcs;
    buffer.records = records;
    buffer.sites = site_count;
    buffer.instructions = instruction_count;
    buffer.backing = std::move(backing);
    return buffer;
}

SiteIndex
SiteIndex::build(const ReplayBuffer &buffer)
{
    SiteIndex index;
    index.siteOf = buffer.siteData();
    index.pcs = buffer.sitePcs();
    index.records = buffer.size();
    index.sites = buffer.siteCount();
    return index;
}

} // namespace bpsim
