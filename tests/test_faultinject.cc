/**
 * @file
 * Fault injection and recovery hardening.
 *
 * Two layers of coverage, both running on the shared chaos rig
 * (core/chaos.h) so the workload here is byte-for-byte the one the
 * checkpoint/replay machinery snapshots:
 *
 *  1. Deterministic unit tests: each injection kind, the watchdog
 *     demotion path, the save-page canary, and the zero-overhead
 *     guarantee of an idle injector.
 *
 *  2. A seeded chaos campaign: many independently-seeded runs of the
 *     protection-fault workload with randomly placed injections. The
 *     invariant under test is the robustness contract — every run
 *     either converges bit-identically to the fault-free reference
 *     or terminates with a structured GuestError diagnosis; no run
 *     may crash the host, hang, or die on a PanicError/FatalError.
 *     When a seed breaks the contract, the divergence finder shrinks
 *     it to a minimal repro window and the failure message carries
 *     the copy-pasteable `uexc-snap replay` line for the saved file —
 *     nobody re-runs the campaign from boot to debug a CI failure.
 *
 * Seed count defaults to 200 and can be overridden with the
 * UEXC_CHAOS_SEEDS environment variable.
 */

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/guesterror.h"
#include "common/logging.h"
#include "core/chaos.h"
#include "os/layout.h"
#include "sim/faultinject.h"

namespace uexc::rt {
namespace {

using chaos::kRegion;
using chaos::kRegionBytes;
using chaos::kScratch;
using chaos::Rig;
using os::kPageBytes;
using os::kProtRead;
using os::kProtWrite;
using sim::FaultInjector;
using sim::FaultKind;

// -- deterministic unit coverage -------------------------------------------

/**
 * The zero-overhead baseline: an attached injector with no events is
 * bit-identical (cycles, instret, memory contents) to no injector.
 */
TEST(FaultInject, IdleInjectorIsBitIdentical)
{
    Rig plain;
    FaultInjector idle;
    Rig hooked(&idle);

    plain.run();
    hooked.run();

    EXPECT_EQ(plain.words(), hooked.words());
    EXPECT_EQ(plain.env().cpu().cycles(), hooked.env().cpu().cycles());
    EXPECT_EQ(plain.env().cpu().instret(),
              hooked.env().cpu().instret());
    EXPECT_TRUE(idle.fired().empty());
}

/** A spurious refill for a mapped page is repaired transparently. */
TEST(FaultInject, SpuriousRefillIsTransparent)
{
    FaultInjector inj;
    Rig rig(&inj);
    inj.addEvent({FaultKind::SpuriousException, 0,
                  rig.env().cpu().instret() + 5, kScratch, 0, 0});

    rig.env().store(kRegion, 41);
    (void)rig.env().load(kScratch);
    EXPECT_EQ(inj.pendingCount(), 0u);
    ASSERT_EQ(inj.fired().size(), 1u);
    EXPECT_EQ(rig.env().load(kRegion), 41u);
    EXPECT_FALSE(rig.env().demoted());
}

/** A TLB eviction only costs a refill; execution is unaffected. */
TEST(FaultInject, TlbEvictionIsRecoverable)
{
    FaultInjector inj;
    Rig rig(&inj);
    for (unsigned idx = 0; idx < 8; idx++) {
        inj.addEvent({FaultKind::TlbSpuriousMiss, 0,
                      rig.env().cpu().instret() + 20 + idx, 0, 0, idx});
    }
    rig.env().store(kRegion, 7);
    rig.env().store(kRegion + kPageBytes, 8);
    EXPECT_EQ(rig.env().load(kRegion), 7u);
    EXPECT_EQ(rig.env().load(kRegion + kPageBytes), 8u);
    EXPECT_FALSE(rig.env().demoted());
}

/**
 * In-place TLB corruption (V cleared under a valid PTE) is detected
 * by the kernel's pmap consistency check and surfaces as a structured
 * GuestError, not a host panic.
 */
TEST(FaultInject, TlbCorruptionIsDiagnosed)
{
    setLoggingEnabled(false);
    bool diagnosed = false;
    try {
        for (unsigned pass = 0; pass < 8 && !diagnosed; pass++) {
            FaultInjector inj;
            Rig rig(&inj);
            rig.env().store(kRegion, 1); // a live TLB entry exists
            for (unsigned idx = 0; idx < 8; idx++) {
                inj.addEvent({FaultKind::TlbCorrupt, 0,
                              rig.env().cpu().instret(), 0, 0,
                              pass * 8 + idx});
            }
            try {
                rig.runTo(chaos::kChaosOps);
            } catch (const GuestError &e) {
                diagnosed = true;
                EXPECT_NE(std::string(e.what()).find("bad trap"),
                          std::string::npos)
                    << e.what();
            }
        }
    } catch (const std::exception &e) {
        FAIL() << "non-GuestError escaped: " << e.what();
    }
    EXPECT_TRUE(diagnosed);
    setLoggingEnabled(true);
}

/**
 * A runaway user handler exhausts the watchdog budget, is demoted to
 * kernel-mediated delivery, and the faulting access still completes.
 */
TEST(FaultInject, HandlerRunawayDemotesAndRecovers)
{
    FaultInjector inj;
    chaos::RigConfig cfg;
    cfg.handlerBudget = 20000;
    Rig rig(&inj, cfg);

    Addr stub_page = rig.env().stubAddr() & ~(kPageBytes - 1);
    Addr stub_pa = rig.physOf(stub_page) +
                   (rig.env().stubAddr() & (kPageBytes - 1));
    inj.addEvent({FaultKind::HandlerRunaway, 0,
                  rig.env().cpu().instret(), stub_pa, 0, 0});

    rig.env().protect(kRegion, kRegionBytes, kProtRead);
    rig.env().store(kRegion + 8, 99); // faults into the looping stub

    EXPECT_TRUE(rig.env().demoted());
    EXPECT_EQ(rig.env().deliveryMode(), DeliveryMode::UltrixSignal);
    EXPECT_EQ(rig.env().stats().deliveryDemoted, 1u);
    EXPECT_EQ(rig.kernel().deliveryDemotions(), 1u);
    EXPECT_EQ(rig.env().load(kRegion + 8), 99u);

    // Later faults keep working through the kernel-mediated path.
    rig.env().protect(kRegion, kRegionBytes, kProtRead);
    rig.env().store(kRegion + 12, 100);
    EXPECT_EQ(rig.env().load(kRegion + 12), 100u);
    EXPECT_EQ(rig.env().stats().deliveryDemoted, 1u);
}

/**
 * Corrupting the pinned save page's canary is detected at the next
 * fast-mode delivery: the delivery in flight still completes, the
 * environment is demoted, and the canary is repaired.
 */
TEST(FaultInject, SavePageCanaryCorruptionDemotes)
{
    FaultInjector inj;
    Rig rig(&inj);

    Addr frame_pa = rig.physOf(os::kUexcFramePage);
    inj.addEvent({FaultKind::MemBitFlip, 0, rig.env().cpu().instret(),
                  frame_pa + os::kUexcCanaryOffset + 128, 13, 0});

    rig.env().protect(kRegion, kRegionBytes, kProtRead);
    rig.env().store(kRegion + 4, 55);

    EXPECT_EQ(rig.env().load(kRegion + 4), 55u);
    EXPECT_EQ(rig.env().stats().savePageCorruptions, 1u);
    EXPECT_TRUE(rig.env().demoted());
    EXPECT_EQ(rig.env().stats().deliveryDemoted, 1u);

    // Demoted but alive: further protection faults still deliver.
    rig.env().protect(kRegion, kRegionBytes, kProtRead);
    rig.env().store(kRegion + 16, 56);
    EXPECT_EQ(rig.env().load(kRegion + 16), 56u);
    EXPECT_EQ(rig.env().stats().savePageCorruptions, 1u);
}

/** A data-region bit flip before the final rewrite cannot survive
 *  (the rig closes the injection window before the rewrite). */
TEST(FaultInject, DataBitFlipIsOverwrittenByRecovery)
{
    Rig plain;
    plain.run();

    FaultInjector inj;
    Rig rig(&inj);
    inj.addEvent({FaultKind::MemBitFlip, 0,
                  rig.env().cpu().instret() + 100,
                  rig.physOf(kRegion) + 64, 7, 0});
    rig.run();
    EXPECT_EQ(rig.words(), plain.words());
}

// -- the seeded chaos campaign ------------------------------------------

/**
 * Shrink a failing seed to its minimal repro window, save the window
 * to a repro file (under UEXC_REPRO_DIR when set, so CI uploads it as
 * an artifact), and return the one-line reproduction command. Called
 * from assertion messages, i.e. only when a seed actually fails.
 */
std::string
reproLineFor(std::uint64_t seed, const chaos::Reference &ref)
{
    chaos::ReproWindow repro =
        chaos::shrinkCampaign(seed, ref.window, ref.words);
    if (!repro.found)
        return "(shrink could not reproduce the failure)";
    std::string dir = ::testing::TempDir();
    if (const char *d = std::getenv("UEXC_REPRO_DIR"))
        dir = std::string(d) + "/";
    std::string path = dir + "chaos_seed_" + std::to_string(seed) +
                       ".uxsn";
    chaos::writeReproFile(repro, path);
    return "reproduce ops [" + std::to_string(repro.startOp) + ", " +
           std::to_string(repro.endOp) + ") with: " +
           chaos::reproCommandLine(path);
}

TEST(FaultInjectChaos, SeededCampaign)
{
    setLoggingEnabled(false);
    chaos::Reference ref = chaos::makeReference();

    unsigned seeds = 200;
    if (const char *s = std::getenv("UEXC_CHAOS_SEEDS"))
        seeds = static_cast<unsigned>(std::atoi(s));

    unsigned converged = 0, diagnosed = 0;
    for (unsigned seed = 1; seed <= seeds; seed++) {
        std::uint64_t full_seed = 0x9000 + seed;
        chaos::CampaignOutcome out =
            chaos::runCampaign(full_seed, ref.window, ref.words);
        ASSERT_FALSE(out.hostFailure)
            << "seed " << seed << ": " << out.what << "\n"
            << reproLineFor(full_seed, ref);
        if (out.diagnosed) {
            // Only the detected classes may end in a diagnosis;
            // every recoverable class must converge.
            ASSERT_TRUE(out.mayDiagnose)
                << "seed " << seed
                << " diagnosed without a detectable fault: " << out.what
                << "\n"
                << reproLineFor(full_seed, ref);
            diagnosed++;
        } else {
            converged++;
        }
    }
    EXPECT_EQ(converged + diagnosed, seeds);
    EXPECT_GT(converged, 0u);
    setLoggingEnabled(true);
}

/** Same seed, same machine: the campaign replays bit-identically. */
TEST(FaultInjectChaos, CampaignIsDeterministic)
{
    setLoggingEnabled(false);
    chaos::Reference ref = chaos::makeReference();

    for (std::uint64_t seed : {0x51ull, 0x52ull, 0x53ull}) {
        chaos::CampaignOutcome a =
            chaos::runCampaign(seed, ref.window, ref.words);
        chaos::CampaignOutcome b =
            chaos::runCampaign(seed, ref.window, ref.words);
        EXPECT_EQ(a.diagnosed, b.diagnosed) << seed;
        EXPECT_EQ(a.hostFailure, b.hostFailure) << seed;
        EXPECT_EQ(a.what, b.what) << seed;
        EXPECT_EQ(a.failOp, b.failOp) << seed;
        EXPECT_EQ(a.words, b.words) << seed;
    }
    setLoggingEnabled(true);
}

} // namespace
} // namespace uexc::rt
