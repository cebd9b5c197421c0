/**
 * @file
 * Static shared-page conflict analysis for multi-hart guest programs.
 *
 * For each hart, a VSA pass (analysis/vsa.h) over that hart's
 * reachable CFG produces may-read / may-write / may-fetch page sets:
 * every page any execution of the hart can load from, store to, or
 * fetch code from. Pages are computed from effective-address value
 * sets, so the result is sound whenever the value sets are (stores
 * with unbounded address sets are reported separately instead of
 * poisoning every page).
 *
 * A conflict page is one through which a hart's execution can depend
 * on the interleaving: hart i's may-write set against hart j's
 * may-read or may-fetch set (i != j) — a store another hart may
 * observe — plus a hart's own write/fetch overlap (self-modifying
 * code, which forces the predecode cache to re-decode the page). A
 * page in the predicted set is not an error, but it is the static
 * explanation of why a workload's harts cannot run independently
 * (shared state, hence contention on a real multiprocessor). The
 * dynamic soundness oracle in tests/test_parallel.cc holds every page
 * set a Serial run observes (sim::PageTouchLog) inside these
 * may-sets.
 */

#ifndef UEXC_ANALYSIS_CONFLICT_H
#define UEXC_ANALYSIS_CONFLICT_H

#include <functional>
#include <set>

#include "analysis/vsa.h"

namespace uexc::analysis {

/** Maps a guest virtual address to a page id. The default is the
 *  identity 4 KiB page number (va >> 12); callers comparing against
 *  physical observations (PageTouchLog page sets) pass their address-
 *  space translation here so the analysis emits physical pages. */
using PageMapper = std::function<Word(Addr)>;

struct PageAccessOptions
{
    VsaOptions vsa;
    PageMapper pageOf; ///< default: va >> 12
};

/** May-sets of one hart's reachable code. */
struct PageAccessSummary
{
    std::set<Word> readPages;
    std::set<Word> writePages;
    std::set<Word> fetchPages;
    /** Loads/stores whose effective-address set is unbounded (Top):
     *  excluded from the page sets, reported as findings instead. */
    std::vector<Addr> unboundedLoads;
    std::vector<Addr> unboundedStores;
};

/** Compute the may-read/may-write/may-fetch page sets of @p region. */
PageAccessSummary analyzePageAccesses(const sim::Program &prog,
                                      const CodeRegion &region,
                                      const PageAccessOptions &opts);

/** Union @p from into @p into (a program made of several analyzed
 *  regions, e.g. user text plus exception handlers). */
void mergeSummaries(PageAccessSummary &into,
                    const PageAccessSummary &from);

/** One predicted conflict: a page @c writer may store to that
 *  @c other may read or fetch. */
struct PageConflict
{
    enum class Kind : std::uint8_t
    {
        WriteRead,  ///< writer's store page in other's may-read set
        WriteFetch, ///< writer's store page in other's may-fetch set
    };
    unsigned writer = 0;
    unsigned other = 0; ///< == writer for the self (SMC) case
    Word page = 0;
    Kind kind = Kind::WriteRead;
};

struct ConflictResult
{
    std::vector<PageAccessSummary> harts; ///< one per analyzed hart
    std::vector<PageConflict> conflicts;
    std::set<Word> conflictPages; ///< all pages any conflict names
};

/**
 * Analyze one program under @p numHarts harts. Each hart is analyzed
 * with its own entry set (@p perHartEntries, outer index = hart) over
 * the same region shape, with `mfc0 rt, PrId` modeled as that hart's
 * id (hart << 24), then the summaries are intersected pairwise.
 */
ConflictResult
analyzeSharedPageConflicts(const sim::Program &prog,
                           const CodeRegion &region,
                           const std::vector<std::vector<Addr>> &perHartEntries,
                           const PageAccessOptions &opts = {});

/** Pairwise intersection of precomputed per-hart summaries. */
ConflictResult
intersectSummaries(std::vector<PageAccessSummary> harts);

} // namespace uexc::analysis

#endif // UEXC_ANALYSIS_CONFLICT_H
