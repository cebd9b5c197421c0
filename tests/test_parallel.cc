/**
 * @file
 * Multi-hart scheduler suite (machine.h SchedulerMode). Serial is the
 * deterministic reference; Relaxed runs every hart on its own host
 * thread and makes no bit-identity promise. This file holds:
 *
 *   1. the 1000-seed lockstep fuzz corpus replayed on {1,4,8}-hart
 *      Serial machines with all harts racing through the same
 *      self-modifying program — a cross-hart predecode-invalidation
 *      storm — once on the reference interpreter and once on the fast
 *      one. The oracle is Machine::checkpoint() byte-equality: the
 *      image holds every hart's architectural context, physical
 *      memory, and the scheduler position, and may differ only in the
 *      config echo's fastInterpreter flag;
 *   2. the soundness oracle of the static shared-page analyzer: the
 *      page sets each hart of a Serial run touches (PageTouchLog) must
 *      sit inside the analyzer's may-sets;
 *   3. weaker-contract Relaxed smoke tests (budget conservation,
 *      liveness) and the UEXC_PARALLEL resolution tests.
 *
 * Run this binary under TSan (cmake -DUEXC_TSAN=ON) to check the
 * Relaxed scheduler's synchronization.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/conflict.h"
#include "common/logging.h"
#include "core/multihart.h"
#include "fuzz_util.h"
#include "os/kernel.h"
#include "os/layout.h"
#include "sim_test_util.h"

namespace uexc::sim {
namespace {

using namespace fuzzutil;

constexpr InstCount kSmallQuantum = 256;

/** Offset of the fastInterpreter flag in the config-echo section
 *  payload: u64 memBytes, u32 harts, u64 quantum precede it. */
constexpr std::size_t kCfgFastInterpreterOffset = 8 + 4 + 8;

/** Compare a reference-interpreter machine's checkpoint image with a
 *  fast-interpreter machine's: every section must be byte-identical
 *  except the config echo, which must differ exactly at the
 *  fastInterpreter flag. A mismatch names the section and offset. */
void
expectSameImageAcrossInterpreters(Machine &ref, Machine &fast,
                                  const std::string &what)
{
    std::vector<Byte> a = ref.checkpoint();
    std::vector<Byte> b = fast.checkpoint();
    ASSERT_EQ(a.size(), b.size()) << what << ": image sizes differ";
    const Word cfg_tag = snapshotTag('C', 'F', 'G', ' ');
    for (const SnapshotSectionDiff &d :
         diffSnapshotImages(SnapshotImage(a), SnapshotImage(b))) {
        if (d.tag == cfg_tag &&
            d.firstDiffOffset == kCfgFastInterpreterOffset)
            continue;
        ADD_FAILURE() << what << ": " << snapshotDiffLine(d);
    }
}

// ---------------------------------------------------------------------------
// 1. Fuzz corpus: reference vs fast interpreter on racing multi-hart
//    Serial machines.
// ---------------------------------------------------------------------------

/** One corpus seed: N harts all start the same random program at the
 *  same PC on a reference-interpreter and on a fast-interpreter
 *  machine; everything observable must match. The hart count is
 *  derived from the seed so the corpus covers {1,4,8}. */
void
runFuzzSeedReferenceVsFast(unsigned seed)
{
    SCOPED_TRACE(::testing::Message() << "fuzz seed " << seed);

    static const unsigned kHartChoices[] = {1, 4, 8};
    MachineConfig cfg;
    cfg.memBytes = 1 << 18;
    cfg.harts = kHartChoices[seed % 3];
    cfg.quantum = kSmallQuantum;
    cfg.scheduler = SchedulerMode::Serial;
    MachineConfig fast_cfg = cfg;
    fast_cfg.cpu.fastInterpreter = true;

    Machine ref(cfg), fast(fast_cfg);
    Program prog = buildFuzzProgram(seed);
    for (Machine *m : {&ref, &fast}) {
        installFuzzSkipHandlers(*m);
        m->load(prog);
        for (unsigned i = 0; i < cfg.harts; i++)
            m->hart(i).setPc(testutil::kTestOrigin);
    }

    InstCount budget = InstCount(cfg.harts) * kFuzzInstLimit;
    MachineRunResult rr = ref.run(budget);
    MachineRunResult rf = fast.run(budget);

    EXPECT_EQ(int(rr.reason), int(rf.reason));
    EXPECT_EQ(rr.instsExecuted, rf.instsExecuted);
    EXPECT_EQ(rr.hart, rf.hart);
    expectSameImageAcrossInterpreters(ref, fast,
                                      "seed " + std::to_string(seed));
}

constexpr unsigned kShards = 8;
constexpr unsigned kSeedsPerShard = 125; // the full 1000-seed corpus

class ParallelFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelFuzz, ReferenceAndFastInterpretersAreBitIdentical)
{
    const unsigned base = GetParam() * kSeedsPerShard;
    for (unsigned s = 0; s < kSeedsPerShard; s++) {
        runFuzzSeedReferenceVsFast(base + s);
        if (::testing::Test::HasNonfatalFailure())
            break; // the failing seed is in the trace; stop the shard
    }
}

INSTANTIATE_TEST_SUITE_P(Shards, ParallelFuzz,
                         ::testing::Range(0u, kShards));

// ---------------------------------------------------------------------------
// 2. Soundness oracle for the static shared-page analyzer
//    (analysis/conflict.h): over the same 1000-seed corpus, every
//    page set a hart of a Serial run touches must sit inside the
//    statically computed may-sets, and every page one hart wrote and
//    another read or fetched (or the hart itself fetched) must be in
//    the static predicted conflict set. This is the containment half
//    of the analyzer's contract; precision (no spurious pages) is
//    test_analysis.cc's job.
// ---------------------------------------------------------------------------

/** Translate a fuzz-program virtual address to the physical page the
 *  PageTouchLog records: kseg0 is identity minus the segment
 *  base, and the one kuseg page the corpus maps (kMapVa) goes to its
 *  fixed frame. */
Word
fuzzPhysPage(Addr va)
{
    if (va >= 0x80000000u)
        return (va - 0x80000000u) >> PhysMemory::PageShift;
    if (va >= kMapVa && va < kMapVa + PhysMemory::PageBytes)
        return kMapFrame >> PhysMemory::PageShift;
    return va >> PhysMemory::PageShift;
}

/** Static may-read/may-write/may-fetch sets of one fuzz hart: the
 *  generated program (every hart runs the same image from the same
 *  PC) plus the two skip handlers, in physical pages so they compare
 *  directly against PageTouchLog observations. */
analysis::PageAccessSummary
staticFuzzMaySets(const Program &prog)
{
    analysis::PageAccessOptions opts;
    opts.pageOf = fuzzPhysPage;

    analysis::CodeRegion region;
    region.begin = prog.origin;
    region.end = prog.end();
    region.entries = {prog.origin};
    region.dataRanges.push_back({prog.symbol("buf"), prog.end()});

    analysis::PageAccessSummary sum =
        analysis::analyzePageAccesses(prog, region, opts);

    // The skip handlers (installFuzzSkipHandlers) are separate images
    // entered asynchronously by the vectoring hardware.
    for (Addr vector : {Cpu::RefillVector, Cpu::GeneralVector}) {
        Assembler a(vector);
        a.mfc0(K0, cp0reg::Epc);
        a.addiu(K0, K0, 4);
        a.jr(K0);
        a.rfe(); // delay slot
        Program h = a.finalize();
        analysis::CodeRegion hr;
        hr.begin = h.origin;
        hr.end = h.end();
        hr.entries = {h.origin};
        analysis::mergeSummaries(
            sum, analysis::analyzePageAccesses(h, hr, opts));
    }
    return sum;
}

/** One corpus seed: run a Serial machine with a PageTouchLog attached
 *  and hold every hart's observed page sets inside the static result.
 *  Returns the number of pages observed so the shard can prove the
 *  oracle is not vacuous. */
std::size_t
runFuzzSeedSoundnessOracle(unsigned seed)
{
    SCOPED_TRACE(::testing::Message() << "oracle seed " << seed);

    static const unsigned kHartChoices[] = {1, 4, 8};
    MachineConfig cfg;
    cfg.memBytes = 1 << 18;
    cfg.harts = kHartChoices[seed % 3];
    cfg.quantum = kSmallQuantum;
    cfg.cpu.fastInterpreter = (seed & 1) != 0;
    cfg.scheduler = SchedulerMode::Serial;

    Machine m(cfg);
    Program prog = buildFuzzProgram(seed);
    installFuzzSkipHandlers(m);
    m.load(prog);
    for (unsigned i = 0; i < cfg.harts; i++)
        m.hart(i).setPc(testutil::kTestOrigin);

    PageTouchLog log;
    m.setPageTouchLog(&log);
    m.run(InstCount(cfg.harts) * kFuzzInstLimit);

    std::size_t observed = 0;
    for (const PageTouchLog::HartTouches &t : log.harts)
        observed += t.readPages.size() + t.writePages.size() +
                    t.fetchPages.size();

    analysis::PageAccessSummary may = staticFuzzMaySets(prog);
    // Every address in the corpus is computable (constant bases), so
    // a non-empty unbounded list is an analyzer precision regression
    // — and would make the containment checks below vacuous.
    if (!may.unboundedLoads.empty() || !may.unboundedStores.empty()) {
        ADD_FAILURE() << "VSA failed to resolve a fuzz memory "
                         "address; the containment check would be "
                         "vacuous";
        return observed;
    }

    analysis::ConflictResult predicted = analysis::intersectSummaries(
        std::vector<analysis::PageAccessSummary>(cfg.harts, may));

    auto contained = [](const std::unordered_set<Addr> &pages,
                        const std::set<Word> &mayset,
                        const char *what) {
        for (Addr p : pages)
            EXPECT_TRUE(mayset.count(Word(p)))
                << what << " page 0x" << std::hex << p
                << " observed but absent from the static may-set";
    };

    std::set<Word> dynConflicts;
    for (std::size_t j = 0; j < log.harts.size(); j++) {
        const PageTouchLog::HartTouches &t = log.harts[j];
        SCOPED_TRACE(::testing::Message() << "hart " << j);
        contained(t.readPages, may.readPages, "read");
        contained(t.writePages, may.writePages, "write");
        contained(t.fetchPages, may.fetchPages, "fetch");

        // Every other hart's writes against this hart's reads and
        // fetches, plus this hart's own write/fetch (SMC) overlap.
        for (std::size_t i = 0; i < log.harts.size(); i++)
            for (Addr p : log.harts[i].writePages)
                if (t.fetchPages.count(p) ||
                    (i != j && t.readPages.count(p)))
                    dynConflicts.insert(Word(p));
    }
    for (Word p : dynConflicts)
        EXPECT_TRUE(predicted.conflictPages.count(p))
            << "dynamic conflict page 0x" << std::hex << p
            << " missing from the static predicted conflict set";
    return observed;
}

class StaticOracleFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(StaticOracleFuzz, MaySetsContainObservedPageSets)
{
    const unsigned base = GetParam() * kSeedsPerShard;
    std::size_t observed = 0;
    for (unsigned s = 0; s < kSeedsPerShard; s++) {
        observed += runFuzzSeedSoundnessOracle(base + s);
        if (::testing::Test::HasNonfatalFailure())
            break; // the failing seed is in the trace; stop the shard
    }
    // If no shard seed ever touched a page, the containment checks
    // above checked nothing and the instrumentation hook is broken.
    EXPECT_GT(observed, 0u) << "no page touches observed";
}

INSTANTIATE_TEST_SUITE_P(Shards, StaticOracleFuzz,
                         ::testing::Range(0u, kShards));

// ---------------------------------------------------------------------------
// 3. Relaxed scheduler: weaker contract, smoke only.
// ---------------------------------------------------------------------------

constexpr Addr kWorkerPhys = 0x00210000;
constexpr unsigned kAsid = 1;

/** Boot the multihart study (bench_multihart's workload) on a machine
 *  with the given scheduler. No observer — the Relaxed scheduler
 *  falls back to Serial under one. */
std::unique_ptr<Machine>
buildStudy(unsigned harts, bool fast, SchedulerMode sched)
{
    MachineConfig cfg;
    cfg.harts = harts;
    cfg.quantum = kSmallQuantum;
    cfg.cpu.userVectorHw = true;
    cfg.cpu.fastInterpreter = fast;
    cfg.scheduler = sched;
    auto m = std::make_unique<Machine>(cfg);

    m->load(rt::multihart::buildKernelImage(harts));
    Program worker = rt::multihart::buildWorkerProgram(harts);
    m->mem().writeBlock(kWorkerPhys, worker.words.data(),
                        4 * worker.words.size());
    for (unsigned i = 0; i < harts; i++) {
        Hart &h = m->hart(i);
        h.tlb().setEntry(0,
                         (os::kUserTextBase & entryhi::VpnMask) |
                             (kAsid << entryhi::AsidShift),
                         (kWorkerPhys & entrylo::PfnMask) |
                             entrylo::V);
        h.cp0().setStatusReg(h.cp0().statusReg() | status::KUc |
                             status::UV);
        h.cp0().setUxReg(UxReg::Target,
                         worker.symbol("mh_uv_handler"));
        h.cp0().write(cp0reg::EntryHi, kAsid << entryhi::AsidShift);
        h.setPc(worker.symbol("mh_hart" + std::to_string(i) +
                              "_entry"));
    }
    return m;
}

TEST(RelaxedSmoke, BudgetIsConservedAndDeliveryHappens)
{
    auto m = buildStudy(4, false, SchedulerMode::Relaxed);
    InstCount budget = 80000;
    MachineRunResult r = m->run(budget);

    // The workers never halt, so the whole budget is consumed; the
    // atomic chunk claims must neither lose nor invent instructions.
    EXPECT_EQ(int(r.reason), int(StopReason::InstLimit));
    EXPECT_EQ(r.instsExecuted, budget);
    InstCount total = 0;
    std::uint64_t delivered = 0;
    for (unsigned i = 0; i < 4; i++) {
        total += m->hart(i).instret();
        delivered += m->hart(i).stats().userVectoredExceptions;
    }
    EXPECT_EQ(total, budget);
    EXPECT_GT(delivered, 0u);
}

TEST(RelaxedSmoke, FastInterpreterRunsUnderRelaxed)
{
    auto m = buildStudy(4, true, SchedulerMode::Relaxed);
    InstCount budget = 80000;
    MachineRunResult r = m->run(budget);
    EXPECT_EQ(int(r.reason), int(StopReason::InstLimit));
    EXPECT_EQ(r.instsExecuted, budget);
}

TEST(RelaxedSmoke, SingleHartMachineStaysSerial)
{
    // A 1-hart machine under any mode is the old serial machine.
    MachineConfig cfg;
    cfg.scheduler = SchedulerMode::Relaxed;
    Machine m(cfg);
    testutil::BareMachine ref;
    Assembler a(testutil::kTestOrigin);
    a.li(T0, 7);
    a.addiu(T0, T0, 35);
    a.hcall(0);
    Program p = a.finalize();
    m.load(p);
    ref.machine.load(p);
    m.hart(0).setPc(testutil::kTestOrigin);
    ref.cpu().setPc(testutil::kTestOrigin);
    MachineRunResult rm = m.run(1000);
    MachineRunResult rr = ref.machine.run(1000);
    EXPECT_EQ(rm.instsExecuted, rr.instsExecuted);
    EXPECT_EQ(m.hart(0).reg(T0), 42u);
}

// ---------------------------------------------------------------------------
// 4. UEXC_PARALLEL resolution (SchedulerMode::Auto).
// ---------------------------------------------------------------------------

/** Save/restore the env var around a test so running the suite under
 *  UEXC_PARALLEL=2 (as the TSan CI leg does) is not perturbed. */
class EnvOverride : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        const char *prev = std::getenv("UEXC_PARALLEL");
        had_ = prev != nullptr;
        if (had_)
            saved_ = prev;
    }
    void TearDown() override
    {
        if (had_)
            setenv("UEXC_PARALLEL", saved_.c_str(), 1);
        else
            unsetenv("UEXC_PARALLEL");
    }

    SchedulerMode resolvedWith(const char *value)
    {
        if (value)
            setenv("UEXC_PARALLEL", value, 1);
        else
            unsetenv("UEXC_PARALLEL");
        MachineConfig cfg; // scheduler = Auto
        Machine m(cfg);
        return m.schedulerMode();
    }

  private:
    bool had_ = false;
    std::string saved_;
};

TEST_F(EnvOverride, AutoResolvesFromEnvironment)
{
    EXPECT_EQ(resolvedWith(nullptr), SchedulerMode::Serial);
    EXPECT_EQ(resolvedWith("0"), SchedulerMode::Serial);
    EXPECT_EQ(resolvedWith("serial"), SchedulerMode::Serial);
    EXPECT_EQ(resolvedWith("2"), SchedulerMode::Relaxed);
    EXPECT_EQ(resolvedWith("relaxed"), SchedulerMode::Relaxed);
}

TEST_F(EnvOverride, UnknownValuesAreRejectedByName)
{
    // A typo must not silently fall back to Serial, and the retired
    // barrier scheduler's values are no longer accepted.
    for (const char *bad : {"relax", "1", "barrier", "", "SERIAL"}) {
        SCOPED_TRACE(::testing::Message() << "UEXC_PARALLEL=" << bad);
        try {
            resolvedWith(bad);
            ADD_FAILURE() << "accepted";
        } catch (const FatalError &e) {
            std::string msg = e.what();
            EXPECT_NE(msg.find("0/serial"), std::string::npos) << msg;
            EXPECT_NE(msg.find("2/relaxed"), std::string::npos) << msg;
        }
    }
}

TEST_F(EnvOverride, ExplicitModeBeatsEnvironment)
{
    setenv("UEXC_PARALLEL", "2", 1);
    MachineConfig cfg;
    cfg.scheduler = SchedulerMode::Serial;
    Machine m(cfg);
    EXPECT_EQ(m.schedulerMode(), SchedulerMode::Serial);
}

} // namespace
} // namespace uexc::sim
