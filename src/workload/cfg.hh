/**
 * @file
 * Static structure of a synthetic program: regions of straight-line
 * branch sites and nested loops.
 *
 * A program is a set of weighted regions (think: hot functions). A
 * region body is a block; a block is a sequence of items; an item is
 * either a plain branch site or a loop (a control branch guarding a
 * nested block, while-at-top semantics). Executing the program means
 * repeatedly drawing a region by weight and walking its body, emitting
 * one BranchRecord per branch-site evaluation.
 */

#ifndef BPSIM_WORKLOAD_CFG_HH
#define BPSIM_WORKLOAD_CFG_HH

#include <memory>
#include <variant>
#include <vector>

#include "support/types.hh"
#include "workload/behavior.hh"

namespace bpsim
{

/** One static conditional branch. */
struct BranchSite
{
    /** Instruction address; unique across the program. */
    Addr pc = 0;

    /** Outcome model; owns all run-time state of the branch. */
    std::unique_ptr<BranchBehavior> behavior;

    /**
     * Mean instructions retired between the previous branch and this
     * one (inclusive); controls the program's CBRs/KI.
     */
    std::uint32_t gapMean = 8;

    /**
     * True for data-dependent branches (correlated, pattern,
     * low-bias): their outcomes feed the semantic history channel
     * that other correlated branches read.
     */
    bool semantic = false;

    /**
     * Dense site number within the owning program; SyntheticProgram
     * assigns it and reports it through BranchStream::nextSite().
     */
    std::uint32_t number = 0;
};

struct Block;

/** A loop: control branch plus body, control evaluated at the top. */
struct Loop
{
    /** Loop control; taken = (re)enter the body. */
    BranchSite control;

    /** Loop body, executed once per taken evaluation of the control. */
    std::unique_ptr<Block> body;

    /** Safety bound on iterations per entry (behaviour-independent). */
    std::uint32_t maxIterations = 1u << 16;
};

/** Either a plain branch site or a nested loop. */
using CfgItem = std::variant<BranchSite, Loop>;

/** Straight-line sequence of items. */
struct Block
{
    std::vector<CfgItem> items;
};

/** A weighted region (hot function / trace) of the program. */
struct Region
{
    Block body;

    /** Selection weight per input set; 0 = never executed. */
    double weight[numInputSets] = {1.0, 1.0};
};

/** Invoke @p fn on every BranchSite in @p block (loop controls too). */
template <typename Fn>
void
forEachSite(Block &block, Fn &&fn)
{
    for (auto &item : block.items) {
        if (auto *site = std::get_if<BranchSite>(&item)) {
            fn(*site);
        } else {
            auto &loop = std::get<Loop>(item);
            fn(loop.control);
            forEachSite(*loop.body, fn);
        }
    }
}

/** Count the branch sites in @p block, including loop controls. */
std::size_t countSites(const Block &block);

} // namespace bpsim

#endif // BPSIM_WORKLOAD_CFG_HH
