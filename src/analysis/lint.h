/**
 * @file
 * The guest-code static analyzer (`uexc-lint`): a check engine over
 * the CFG (analysis/cfg.h) and register dataflow (analysis/dataflow.h)
 * of assembled guest programs.
 *
 * Checks (see DESIGN.md for the catalog rationale):
 *
 *  - LoadDelayHazard: a load's target register is consumed by the
 *    dynamically next instruction. The simulated CPU completes loads
 *    immediately (MIPS-II semantics), so this is a Warning — an
 *    R3000-portability hazard, not a simulator-correctness bug.
 *  - ControlInDelaySlot: branch/jump in a delay slot (architecturally
 *    undefined).
 *  - PrivilegedInUserCode: a privileged instruction (CP0/TLB ops,
 *    rfe) is reachable in a user-mode region; it would raise CpU.
 *  - ClobberedRegister: a user exception handler writes a register
 *    that is neither in its scratch set nor saved on every path first
 *    (the paper's handler register discipline, sections 2.1/3.2).
 *  - UnreachableCode: non-nop words no entry point reaches.
 *  - FallOffEnd: reachable code flows sequentially past the region
 *    end or into embedded data (e.g. a truncated handler).
 *  - InvalidOpcode: a reachable word does not decode.
 *  - FastPathStructure: the kernel fast path's shape deviates from
 *    the paper's Table 3 — phase word counts (6/11/31/6/8/3 = 65),
 *    memory ops through unexpected base registers (everything must go
 *    through the pinned frame or the proc structure), or a vector
 *    phase that does not end in jr/rfe.
 *  - SharedPageConflict (multihart analysis): a page one hart's
 *    may-write set shares with another hart's may-read/may-fetch set
 *    (or the hart's own fetch set). Harts touching such pages cannot
 *    run independently, so this is a Note — a static scalability
 *    explanation, not an error.
 *  - UnsyncSharedWrite (multihart analysis): a reachable store whose
 *    effective-address set is unbounded — the analysis cannot bound
 *    which shared pages it may hit, so no conflict prediction covers
 *    it.
 *  - HandlerWcetExceedsBudget: a handler region's static worst-case
 *    cycle bound (analysis/wcet.h) exceeds its declared budget.
 *  - UnboundedHandlerLoop: a handler region contains a loop whose
 *    iteration count the bounded-loop inference cannot establish, so
 *    no worst-case latency bound exists.
 */

#ifndef UEXC_ANALYSIS_LINT_H
#define UEXC_ANALYSIS_LINT_H

#include <string>
#include <utility>
#include <vector>

#include "analysis/cfg.h"
#include "analysis/conflict.h"

namespace uexc::analysis {

enum class Severity
{
    Note,
    Warning,
    Error,
};

enum class Check
{
    LoadDelayHazard,
    ControlInDelaySlot,
    PrivilegedInUserCode,
    ClobberedRegister,
    UnreachableCode,
    FallOffEnd,
    InvalidOpcode,
    FastPathStructure,
    SharedPageConflict,
    UnsyncSharedWrite,
    HandlerWcetExceedsBudget,
    UnboundedHandlerLoop,
};

const char *severityName(Severity s);
const char *checkName(Check c);

/** One diagnostic, anchored to a program address. */
struct Finding
{
    Check check = Check::LoadDelayHazard;
    Severity severity = Severity::Warning;
    Addr addr = 0;           ///< program address the finding is about
    std::string region;      ///< region name from the RegionSpec
    std::string disasm;      ///< disassembly of the offending word
    std::string message;     ///< human-readable explanation
    /** Machine-readable key/value attachments (page numbers, cycle
     *  bounds, hart ids) — carried verbatim into the JSON output. */
    std::vector<std::pair<std::string, std::uint64_t>> payload;
};

/** One named code region to analyze, plus which checks apply. */
struct RegionSpec
{
    std::string name;
    Addr begin = 0;
    Addr end = 0;
    /** Privileged instructions are diagnosed when true. */
    bool userMode = false;
    /**
     * The region is a user exception handler: run the register
     * discipline check against scratchMask, and treat falling off the
     * end as truncation. Handler regions skip the whole-program
     * checks (their enclosing region already runs them).
     */
    bool handler = false;
    /** Registers a handler may clobber without saving (bit n = GPR n). */
    Word scratchMask = 0;
    /** Worst-case cycle budget for a handler region (0 = no budget);
     *  checked only when LintConfig::analyzeWcet is set. */
    Cycles wcetBudget = 0;
    std::vector<Addr> entries;
    std::vector<AddrRange> dataRanges;
};

struct LintConfig
{
    std::vector<RegionSpec> regions;

    /** Run the WCET analyzer over every handler region, using the
     *  declarative cost table below. */
    bool analyzeWcet = false;
    sim::CostModel cost;
    /** Charge worst-case miss penalties in the WCET bound. */
    bool cachesEnabled = false;

    /** >0: run the shared-page conflict analysis over every
     *  non-handler region, modeling this many harts. */
    unsigned multihart = 0;
    /** Per-hart entry points (outer index = hart id). When empty each
     *  hart is analyzed from the region's own entry set. */
    std::vector<std::vector<Addr>> perHartEntries;
    /** VA-to-page mapping for the conflict analysis (see conflict.h). */
    PageMapper pageOf;
};

/** The paper's Table 3 shape, for the structural fast-path check. */
struct FastPathSpec
{
    struct Phase
    {
        std::string name;
        Addr begin = 0;
        Addr end = 0;
        unsigned expectedWords = 0;
    };
    std::vector<Phase> phases;
    Word storeBaseMask = 0; ///< allowed base regs for sw in the path
    Word loadBaseMask = 0;  ///< allowed base regs for lw in the path
};

/** Run every applicable check over every region of @p config. */
std::vector<Finding> lint(const sim::Program &prog,
                          const LintConfig &config);

/** Run the structural fast-path verifier. */
std::vector<Finding> verifyFastPath(const sim::Program &prog,
                                    const FastPathSpec &spec);

/** Whether findings gate a build: any Error (or, in strict mode, any
 *  Warning) fails. */
bool hasErrors(const std::vector<Finding> &findings,
               bool strict = false);

std::string formatFinding(const Finding &f);
std::string formatFindings(const std::vector<Finding> &findings);

/** The findings as a JSON array (one object per finding: check,
 *  severity, pc, region, disasm, message, plus the payload keys). */
std::string formatFindingsJson(const std::vector<Finding> &findings);

} // namespace uexc::analysis

#endif // UEXC_ANALYSIS_LINT_H
