/**
 * @file
 * Abstract source of dynamic branch records.
 *
 * Both stored traces and live synthetic workloads implement this
 * interface, so the simulation engine and the profiling passes are
 * agnostic about where branches come from (the Atom-instrumented
 * binaries of the paper are replaced by these streams).
 */

#ifndef BPSIM_TRACE_BRANCH_STREAM_HH
#define BPSIM_TRACE_BRANCH_STREAM_HH

#include <cstdint>

#include "trace/branch_record.hh"

namespace bpsim
{

/** A resettable, forward-only stream of branch records. */
class BranchStream
{
  public:
    virtual ~BranchStream() = default;

    /**
     * Produce the next record.
     *
     * @param record filled in on success
     * @retval true a record was produced
     * @retval false the stream is exhausted
     */
    virtual bool next(BranchRecord &record) = 0;

    /** Rewind to the beginning; the same records replay identically. */
    virtual void reset() = 0;

    /**
     * Number of static branch sites the stream numbers itself, or 0
     * when it carries no numbering (stored traces). A numbering
     * stream gives every record with one PC the same site number and
     * distinct PCs distinct numbers, which lets a ReplayBuffer
     * enumerate sites with an array lookup instead of hashing PCs.
     */
    virtual std::uint32_t siteCount() const { return 0; }

    /**
     * next(), also reporting the record's site number (below
     * siteCount()). Only meaningful when siteCount() is nonzero.
     */
    virtual bool
    nextSite(BranchRecord &record, std::uint32_t &site)
    {
        site = 0;
        return next(record);
    }
};

} // namespace bpsim

#endif // BPSIM_TRACE_BRANCH_STREAM_HH
