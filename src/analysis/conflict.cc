#include "analysis/conflict.h"

#include <utility>

namespace uexc::analysis {

namespace {

using sim::Op;

unsigned
accessSize(Op op)
{
    switch (op) {
      case Op::Lb:
      case Op::Lbu:
      case Op::Sb:
        return 1;
      case Op::Lh:
      case Op::Lhu:
      case Op::Sh:
        return 2;
      default:
        return 4;
    }
}

Word
defaultPageOf(Addr va)
{
    return va >> 12;
}

/** Insert the pages of every address in @p addrs (plus the page the
 *  last byte of each access lands on) into @p pages. */
void
insertPages(std::set<Word> &pages, const ValueSet &addrs, unsigned size,
            const PageMapper &pageOf)
{
    for (std::uint32_t k = 0; k < addrs.count; k++) {
        Addr a = addrs.base + addrs.stride * k;
        pages.insert(pageOf(a));
        pages.insert(pageOf(a + size - 1));
    }
}

void
addConflicts(ConflictResult &result, unsigned writer, unsigned other,
             const std::set<Word> &writes, const std::set<Word> &pages,
             PageConflict::Kind kind)
{
    for (Word page : writes) {
        if (!pages.count(page))
            continue;
        result.conflicts.push_back({writer, other, page, kind});
        result.conflictPages.insert(page);
    }
}

} // namespace

PageAccessSummary
analyzePageAccesses(const sim::Program &prog, const CodeRegion &region,
                    const PageAccessOptions &opts)
{
    const PageMapper pageOf = opts.pageOf ? opts.pageOf : defaultPageOf;
    Vsa vsa = Vsa::run(prog, region, opts.vsa);
    const Cfg &cfg = vsa.cfg();

    PageAccessSummary summary;
    for (const BasicBlock &b : cfg.blocks()) {
        RegState state = vsa.blockInState(unsigned(cfg.blockIndexAt(b.begin)));
        for (Addr a = b.begin; a < b.end; a += 4) {
            const sim::DecodedInst &inst = cfg.inst(a);
            summary.fetchPages.insert(pageOf(a));
            if (inst.isMemory()) {
                ValueSet ea = addConst(state[inst.rs], inst.simm);
                if (ea.kind != ValueSet::Kind::Strided) {
                    // Bottom only occurs in unreachable states; treat
                    // it like Top so the result is trivially sound.
                    if (inst.isStore())
                        summary.unboundedStores.push_back(a);
                    else
                        summary.unboundedLoads.push_back(a);
                } else if (inst.isStore()) {
                    insertPages(summary.writePages, ea,
                                accessSize(inst.op), pageOf);
                } else {
                    insertPages(summary.readPages, ea,
                                accessSize(inst.op), pageOf);
                }
            }
            vsa.step(a, inst, state);
        }
    }
    return summary;
}

void
mergeSummaries(PageAccessSummary &into, const PageAccessSummary &from)
{
    into.readPages.insert(from.readPages.begin(), from.readPages.end());
    into.writePages.insert(from.writePages.begin(), from.writePages.end());
    into.fetchPages.insert(from.fetchPages.begin(), from.fetchPages.end());
    into.unboundedLoads.insert(into.unboundedLoads.end(),
                               from.unboundedLoads.begin(),
                               from.unboundedLoads.end());
    into.unboundedStores.insert(into.unboundedStores.end(),
                                from.unboundedStores.begin(),
                                from.unboundedStores.end());
}

ConflictResult
intersectSummaries(std::vector<PageAccessSummary> harts)
{
    ConflictResult result;
    result.harts = std::move(harts);
    const unsigned n = unsigned(result.harts.size());
    for (unsigned i = 0; i < n; i++) {
        const PageAccessSummary &wi = result.harts[i];
        // Self-modifying code: a hart storing to a page it also
        // fetches from conflicts with itself, no other hart involved.
        addConflicts(result, i, i, wi.writePages, wi.fetchPages,
                     PageConflict::Kind::WriteFetch);
        for (unsigned j = 0; j < n; j++) {
            if (j == i)
                continue;
            const PageAccessSummary &rj = result.harts[j];
            addConflicts(result, i, j, wi.writePages, rj.readPages,
                         PageConflict::Kind::WriteRead);
            addConflicts(result, i, j, wi.writePages, rj.fetchPages,
                         PageConflict::Kind::WriteFetch);
        }
    }
    return result;
}

ConflictResult
analyzeSharedPageConflicts(const sim::Program &prog, const CodeRegion &region,
                           const std::vector<std::vector<Addr>> &perHartEntries,
                           const PageAccessOptions &opts)
{
    std::vector<PageAccessSummary> harts;
    for (unsigned hart = 0; hart < perHartEntries.size(); hart++) {
        PageAccessOptions hartOpts = opts;
        hartOpts.vsa.modelPrId = true;
        hartOpts.vsa.prIdValue = Word(hart) << 24;
        CodeRegion hartRegion = region;
        hartRegion.entries = perHartEntries[hart];
        harts.push_back(analyzePageAccesses(prog, hartRegion, hartOpts));
    }
    return intersectSummaries(std::move(harts));
}

} // namespace uexc::analysis
