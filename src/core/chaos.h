/**
 * @file
 * The chaos-campaign rig: a seeded fault-injection workload with
 * checkpoint/replay support and a divergence finder.
 *
 * The workload is the protection-fault churn the fault-injection
 * tests introduced, re-cut as a sequence of numbered *ops* so that a
 * run can be checkpointed between any two ops, restored, and replayed
 * bit-identically. On top of the op index sit:
 *
 *  - runCampaign(): plan injections from a seed, run the workload,
 *    classify the outcome (converged / diagnosed / host failure),
 *    optionally snapshotting the whole rig every N ops;
 *  - shrinkCampaign(): on a failing seed, binary-search the collected
 *    checkpoints for the latest one that still reproduces the failure
 *    and emit a minimal ReproWindow — seed, start snapshot, and the
 *    op range to replay;
 *  - replayRepro() / repro files: a ReproWindow round-trips through a
 *    crash-consistent file so a failure found in CI replays from the
 *    artifact alone (`uexc-snap replay <file>`), without rerunning
 *    the campaign from boot.
 */

#ifndef UEXC_CORE_CHAOS_H
#define UEXC_CORE_CHAOS_H

#include <memory>
#include <string>
#include <vector>

#include "core/env.h"
#include "core/transport.h"
#include "os/kernel.h"
#include "sim/faultinject.h"
#include "sim/machine.h"

namespace uexc::rt::chaos {

// -- the workload ---------------------------------------------------------

constexpr Addr kRegion = 0x01000000;          ///< workload data, 2 pages
constexpr Word kRegionBytes = 2 * os::kPageBytes;
constexpr Addr kScratch = 0x01008000;         ///< always-mapped page
constexpr Word kCheckStride = 64;             ///< bytes between checked words

/** Op decomposition: 6 rounds of protection-fault churn (1 protect +
 *  8 stores + 4 loads + 1 scratch load each), then a rewrite and a
 *  readback of every checked word. */
constexpr unsigned kChaosRounds = 6;
constexpr unsigned kOpsPerRound = 14;
constexpr unsigned kChaosOps = kChaosRounds * kOpsPerRound;
constexpr unsigned kFinalWords = kRegionBytes / kCheckStride;
constexpr unsigned kTotalOps = kChaosOps + 2 * kFinalWords;

/** Rig construction knobs; part of a ReproWindow so a replay rebuilds
 *  the identical machine. */
struct RigConfig
{
    bool hardwareExtensions = true;
    bool fastInterpreter = false;
    InstCount handlerBudget = 50000;
    /** Physical memory size; 0 = the Machine default. The fleet
     *  harness shrinks this so dozens of guests fit in host RAM; it
     *  is part of the machine config echo, so it IS serialized into
     *  repro files. */
    std::size_t memBytes = 0;
};

/**
 * One bootable workload instance, optionally under injection.
 *
 * The rig owns its machine, kernel, and UserEnv, and registers two
 * extra snapshot sections with the machine: the injector's event
 * streams (when an injector is attached) and its own op cursor plus
 * collected readback words. checkpoint()/restore() therefore capture
 * a run *mid-campaign*: restore into a freshly constructed rig of the
 * same shape and call runTo() to continue exactly where the image
 * left off.
 */
class Rig
{
  public:
    explicit Rig(sim::FaultInjector *injector = nullptr,
                 const RigConfig &config = {});

    Rig(const Rig &) = delete;
    Rig &operator=(const Rig &) = delete;

    /** Index of the next op to run, in [0, kTotalOps]. */
    unsigned cursor() const { return cursor_; }
    bool done() const { return cursor_ == kTotalOps; }

    /** Run ops [cursor, op). A GuestError thrown by an op propagates
     *  with cursor() still naming the op that threw. */
    void runTo(unsigned op);
    void run() { runTo(kTotalOps); }

    /** Readback words collected so far (complete once done()). */
    const std::vector<Word> &words() const { return words_; }

    UserEnv &env() { return *env_; }
    os::Kernel &kernel() { return *kernel_; }
    sim::Machine &machine() { return *machine_; }
    Addr physOf(Addr va) { return env_->process().as().physOf(va); }

    std::vector<Byte> checkpoint() const { return machine_->checkpoint(); }
    void restore(const std::vector<Byte> &image);

  private:
    void runOp(unsigned op);

    RigConfig config_;
    sim::FaultInjector *injector_;
    std::unique_ptr<sim::Machine> machine_;
    std::unique_ptr<os::Kernel> kernel_;
    std::unique_ptr<UserEnv> env_;
    unsigned cursor_ = 0;
    std::vector<Word> words_;
};

// -- campaigns ------------------------------------------------------------

/**
 * Plan 1-3 injection events from @p seed, placed uniformly over
 * @p window instructions past the rig's current instret. Sets
 * @p may_diagnose when a planned event may legitimately end in a
 * structured diagnosis instead of convergence (TlbCorrupt, detected
 * by the kernel's pmap consistency check). Spurious refills no longer
 * qualify: the injector masks the stub's K0 resume window, so they
 * are always transparently recoverable.
 */
std::vector<sim::FaultEvent> planEvents(std::uint64_t seed,
                                        InstCount window, Rig &rig,
                                        bool *may_diagnose);

/**
 * One planned fleet-level chaos op inside a campaign: a live
 * migration of the running rig to a fresh twin host (with optional
 * endpoint crashes mid-transfer), or an outright crash of the host
 * under the guest. Ops fire when the campaign cursor *reaches*
 * atOp, before op atOp itself runs, so they sit on the same op grid
 * the checkpoint stride and the shrinker use — a migration-triggered
 * failure minimizes to the same 8-12-op repro windows as a memory
 * fault.
 *
 * Semantics by kind/crash:
 *  - Migrate, crash None: full stop-and-copy attempt under the op's
 *    weather. Success swaps the campaign onto the destination rig
 *    (bit-identical, so a clean migration is a no-op to the oracle);
 *    a typed failure (partition, rejected image) keeps the source
 *    running — graceful degradation, not a campaign failure.
 *  - Migrate, crash Dest: the destination host dies mid-transfer
 *    (after crashAfterPercent of the chunks). The half-staged image
 *    is discarded unrestored; the source never stopped.
 *  - Migrate, crash Source/Both: the source host dies mid-transfer
 *    while the destination holds only a partial image — the guest is
 *    lost, surfaced as a deterministic structured GuestError the
 *    shrinker can reproduce (and a supervisor can recover from a
 *    checkpoint).
 *  - HostCrash: the host dies under the running guest; same
 *    guest-lost diagnosis without any transfer.
 */
struct MigrateOp
{
    enum class Kind : std::uint8_t { Migrate, HostCrash };
    enum class Crash : std::uint8_t { None, Source, Dest, Both };

    Kind kind = Kind::Migrate;
    unsigned atOp = 0;                ///< in [0, kTotalOps)
    migrate::TransportConfig weather; ///< Migrate only
    Crash crash = Crash::None;
    /** Chunks delivered before the endpoint dies, as a percentage of
     *  the image's chunk count. */
    unsigned crashAfterPercent = 50;
};

using MigrationPlan = std::vector<MigrateOp>;

/** Seeded plan of @p count migration/host-crash ops over the op
 *  grid: mostly clean migrations under mixed weather, with a tail of
 *  endpoint crashes and host crashes. Sorted by atOp. */
MigrationPlan planMigrationOps(std::uint64_t seed, unsigned count);

/** Outcome classification of one campaign or replay. */
struct CampaignOutcome
{
    bool diagnosed = false;   ///< ended in a GuestError
    bool hostFailure = false; ///< non-GuestError escape, or divergence
    bool mayDiagnose = false; ///< a planned event may diagnose
    std::string what;
    /** One past the op that failed (kTotalOps for divergence at the
     *  final compare; 0 when the run converged). */
    unsigned failOp = 0;
    std::vector<Word> words;
};

/** Whether the outcome is anything other than clean convergence. */
inline bool
outcomeFailed(const CampaignOutcome &out)
{
    return out.diagnosed || out.hostFailure;
}

/** One collected mid-campaign checkpoint. */
struct CampaignCheckpoint
{
    unsigned op = 0;
    InstCount instret = 0;
    std::vector<Byte> image;
};

/**
 * Run one seeded campaign against @p reference (the fault-free final
 * words). With @p checkpoint_every_ops nonzero and @p checkpoints
 * non-null, snapshots the rig at every multiple of the stride
 * (including op 0) while it runs.
 */
CampaignOutcome runCampaign(std::uint64_t seed, InstCount window,
                            const std::vector<Word> &reference,
                            const RigConfig &config = {},
                            unsigned checkpoint_every_ops = 0,
                            std::vector<CampaignCheckpoint> *checkpoints =
                                nullptr,
                            const MigrationPlan *migrations = nullptr);

/** Fault-free reference: final words and the instruction window the
 *  campaign places injections in. */
struct Reference
{
    InstCount window = 0;
    std::vector<Word> words;
};
Reference makeReference(const RigConfig &config = {});

// -- minimal repro windows -------------------------------------------------

/**
 * A minimal reproduction of a campaign failure: restore @p snapshot
 * into a fresh rig of shape @p config and replay ops
 * [startOp, endOp). Everything a replay needs — including the
 * not-yet-fired injection events — travels inside the snapshot.
 */
struct ReproWindow
{
    bool found = false;
    std::uint64_t seed = 0;
    InstCount window = 0;      ///< campaign injection window (insts)
    RigConfig config;
    unsigned startOp = 0;
    unsigned endOp = 0;
    InstCount startInst = 0;   ///< instret at the start snapshot
    unsigned campaignOps = kTotalOps;
    std::vector<Byte> snapshot;
    std::string failure;       ///< the outcome's what
    /** Planned migration/host-crash ops of the originating campaign.
     *  Replay re-performs those with atOp inside [startOp, endOp);
     *  earlier ones need no replay (a completed migration is
     *  bit-identical, a failed graceful one touched nothing). */
    MigrationPlan migrations;
};

/**
 * Rerun a failing seed with periodic checkpoints, then binary-search
 * the checkpoints for the latest one whose replay still reproduces
 * the identical failure. Returns found=false when the seed converges.
 */
ReproWindow shrinkCampaign(std::uint64_t seed, InstCount window,
                           const std::vector<Word> &reference,
                           const RigConfig &config = {},
                           unsigned checkpoint_every_ops = 16,
                           const MigrationPlan *migrations = nullptr);

/** Replay a repro window; reproduces the recorded failure (or the
 *  final-words comparison against @p reference when it runs to the
 *  end of the campaign). */
CampaignOutcome replayRepro(const ReproWindow &repro,
                            const std::vector<Word> &reference);

/**
 * Persist / reload a repro window as a crash-consistent snapshot
 * file (the rig snapshot nested inside a metadata image), the format
 * `uexc-snap replay` consumes.
 */
void writeReproFile(const ReproWindow &repro, const std::string &path);
ReproWindow readReproFile(const std::string &path);

/** The copy-pasteable reproduction command for a saved repro file. */
std::string reproCommandLine(const std::string &path);

} // namespace uexc::rt::chaos

#endif // UEXC_CORE_CHAOS_H
