/**
 * @file
 * Machine composition: physical memory plus one shared execute engine
 * over N harts, with program-loading and symbol lookup conveniences.
 * Everything above the sim layer (the simulated OS, the runtime, the
 * applications) talks to a Machine.
 *
 * Scheduling determinism contract: Machine::run interleaves harts
 * with a cooperative round-robin quantum scheduler. Hart 0 always
 * runs first; each runnable hart executes up to `quantum`
 * instructions (exceptions and stalls included in its own cycle
 * accounting) before the next hart is bound; halted harts are
 * skipped. The schedule depends only on (program, config, quantum) —
 * no clocks — so every multi-hart run is bit-reproducible. Only the
 * opt-in Relaxed scheduler (see SchedulerMode) trades the contract
 * away for wall-clock throughput on real host threads.
 */

#ifndef UEXC_SIM_MACHINE_H
#define UEXC_SIM_MACHINE_H

#include <atomic>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "sim/assembler.h"
#include "sim/cpu.h"
#include "sim/memory.h"
#include "sim/snapshot.h"

namespace uexc::sim {

/**
 * How Machine::run drives multiple harts.
 *
 *  - Serial: the reference scheduler — one host thread, round-robin
 *    quanta, the exact contract in the file comment above.
 *  - Relaxed: opt-in free-running harts, one host thread each, with
 *    no barrier, an atomic shared instruction budget, serialized host
 *    calls, and epoch-counted deferred TLB shootdowns. Raw wall-clock
 *    throughput; NOT bit-identical to Serial (the interleaving is
 *    real). Falls back to Serial when an observer, breakpoints, a
 *    fault injector or a PageTouchLog need the deterministic
 *    schedule.
 *  - Auto: resolve from the UEXC_PARALLEL environment variable
 *    ("0"/"serial" → Serial, "2"/"relaxed" → Relaxed, unset →
 *    Serial), so CI can force the threaded scheduler into existing
 *    binaries without rebuilds. Any other value is a FatalError that
 *    names the accepted ones.
 *  - Barrier: retired; Machine runs it as Serial, which is the
 *    behaviour it promised bit-for-bit. The enumerator remains only
 *    because an existing benchmark names it in a switch.
 *
 * The mode is host policy, not machine state: it is deliberately
 * excluded from the checkpoint config echo, so an image taken under
 * one scheduler restores into a machine configured for the other.
 */
enum class SchedulerMode { Auto, Serial, Barrier, Relaxed };

/** Relaxed-scheduler host-call lock contention (host-side). */
struct HcallLockStats
{
    std::uint64_t acquires = 0;
    std::uint64_t contended = 0;
};

/** Machine-wide configuration. */
struct MachineConfig
{
    /** Physical memory size in bytes. */
    std::size_t memBytes = 32 * 1024 * 1024;
    CpuConfig cpu;
    /** Number of hardware execution contexts sharing the memory. */
    unsigned harts = 1;
    /**
     * Round-robin scheduling quantum in instructions. Only consulted
     * when harts > 1: a single hart always runs to its caller-given
     * budget in one quantum, preserving bit-identical behaviour with
     * the pre-multihart machine.
     */
    InstCount quantum = 10000;
    /** Scheduler driving the harts; see SchedulerMode. */
    SchedulerMode scheduler = SchedulerMode::Auto;
};

/** Result of a Machine::run call. */
struct MachineRunResult
{
    StopReason reason = StopReason::InstLimit;
    /** Total instructions executed across all harts this call. */
    InstCount instsExecuted = 0;
    /** The hart the stop condition occurred on. */
    unsigned hart = 0;
};

/**
 * A complete simulated machine.
 */
class Machine
{
  public:
    explicit Machine(const MachineConfig &config = MachineConfig());
    ~Machine();

    /**
     * The execute engine, bound to the current hart. Single-hart
     * machines can treat this exactly like the old one-Cpu machine.
     */
    Cpu &cpu() { return *cpu_; }
    const Cpu &cpu() const { return *cpu_; }
    PhysMemory &mem() { return *mem_; }
    const MachineConfig &config() const { return config_; }

    // -- harts --------------------------------------------------------------

    unsigned numHarts() const { return unsigned(harts_.size()); }
    Hart &hart(unsigned i) { return *harts_[i]; }
    const Hart &hart(unsigned i) const { return *harts_[i]; }

    /** The resolved scheduler mode: Serial or Relaxed. */
    SchedulerMode schedulerMode() const { return scheduler_; }
    const HcallLockStats &hcallLockStats() const
    {
        return hcallLockStats_;
    }

    /** Attach (or detach with nullptr) a recorder of the physical
     *  pages each hart reads, writes and fetches (sized here to one
     *  entry per hart). Runs with a log attached use the Serial
     *  scheduler. Not snapshotted; host-side instrumentation only. */
    void setPageTouchLog(PageTouchLog *log);

    /** The hart the engine is currently bound to. */
    unsigned currentHart() const { return currentHart_; }
    /** Bind the engine to hart @p i (host-side context switch). */
    void setCurrentHart(unsigned i);

    /**
     * Invalidate the translation for (@p vaddr, @p asid) in every
     * hart's TLB — the software analogue of a TLB shootdown, used by
     * kernel unmap/protect paths so no hart retains a stale mapping.
     * On a single-hart machine this is exactly the old single-TLB
     * invalidate.
     */
    void invalidateTlbs(Addr vaddr, unsigned asid);

    /**
     * Run the machine for up to @p max_insts total instructions,
     * round-robin over runnable harts (see file comment). Returns
     * when a hart halts with all others halted (Halted), a hart hits
     * a breakpoint (Breakpoint, with that hart id), or the budget is
     * exhausted (InstLimit). A breakpoint leaves the schedule
     * position intact: the next run() resumes with the same hart so
     * the quantum accounting stays deterministic.
     */
    MachineRunResult run(InstCount max_insts);

    /**
     * Load a finalized program image. The program's origin may be a
     * kseg0/kseg1 virtual address (translated to physical directly)
     * or a physical address below the memory size.
     *
     * The program's symbols are merged into the machine symbol table.
     */
    void load(const Program &program);

    /** Look up a loaded symbol; fatal if absent. */
    Addr symbol(const std::string &name) const;
    bool hasSymbol(const std::string &name) const;

    /** Convert a kseg0/kseg1 virtual address to physical. */
    static Addr unmappedToPhys(Addr vaddr);

    /**
     * Direct (host) read/write of memory by kseg0/kseg1/physical
     * address, bypassing translation and cost modeling. For loaders
     * and test assertions only. Writes bump the PhysMemory page
     * version, so any hart's predecoded copy of the page is
     * invalidated before its next fetch.
     */
    Word debugReadWord(Addr addr) const;
    void debugWriteWord(Addr addr, Word value);

    // -- checkpoint/restore -------------------------------------------------

    using SnapshotSaveFn = std::function<void(SnapshotWriter &)>;
    using SnapshotLoadFn = std::function<void(SnapshotReader &)>;

    /**
     * Register an extra snapshot section. The os/apps layers use this
     * so a Machine checkpoint carries *their* host-side bookkeeping
     * (kernel allocation cursors, delivery state, injector queues,
     * DSM directories) alongside the architectural state. Sections
     * are saved in registration order; restore is strict — a
     * registered tag missing from the image, or an image section with
     * no registered consumer, raises SnapshotError. The callables
     * must stay valid for the machine's lifetime (in practice the
     * kernel/env/cluster own the machine's users and outlive every
     * checkpoint/restore call).
     */
    void registerSnapshotSection(Word tag, SnapshotSaveFn save,
                                 SnapshotLoadFn load);

    /**
     * Serialize the complete machine — every hart's architectural
     * context, physical memory (zero pages elided), the scheduler
     * position, and every registered section — into a validated,
     * CRC-protected image. Only meaningful between run() calls.
     */
    std::vector<Byte> checkpoint() const;

    /**
     * Restore a checkpoint() image into this machine. The machine
     * must be structurally identical to the one that produced the
     * image (same MachineConfig, same registered sections) — restore
     * targets a freshly constructed twin, it does not morph arbitrary
     * machines. Throws SnapshotError on any validation failure;
     * forward execution after a successful restore is bit-identical
     * to the checkpointed machine (host interpreter caches are
     * flushed and rebuilt lazily).
     */
    void restore(const std::vector<Byte> &image);

  private:
    struct SnapshotHook
    {
        Word tag;
        SnapshotSaveFn save;
        SnapshotLoadFn load;
    };
    struct ParallelPool;

    MachineRunResult runSerialImpl(InstCount max_insts);
    MachineRunResult runRelaxed(InstCount max_insts);
    void ensurePool();
    void relaxedHcall(unsigned hart, Word service);
    void applyShootdowns(unsigned hart);
    void drainShootdowns();

    MachineConfig config_;
    std::unique_ptr<PhysMemory> mem_;
    std::vector<std::unique_ptr<Hart>> harts_;
    std::unique_ptr<Cpu> cpu_;
    unsigned currentHart_ = 0;
    std::map<std::string, Addr> symbols_;
    std::vector<SnapshotHook> snapshotHooks_;

    // -- parallel scheduling (host-side only, never snapshotted) ------

    SchedulerMode scheduler_ = SchedulerMode::Serial;
    std::unique_ptr<ParallelPool> pool_;
    PageTouchLog *pageTouchLog_ = nullptr;

    std::mutex hcallMutex_;
    HcallLockStats hcallLockStats_;

    /** Deferred TLB shootdowns for the relaxed scheduler: epoch bumps
     *  publish new pending entries; each hart's own worker applies its
     *  list at chunk boundaries (so no thread ever mutates another
     *  thread's TLB). */
    std::mutex shootdownMutex_;
    std::vector<std::vector<std::pair<Addr, unsigned>>>
        pendingShootdowns_;
    std::vector<std::uint64_t> shootdownSeen_;
    std::atomic<std::uint64_t> shootdownEpoch_{0};
    std::atomic<bool> relaxedActive_{false};
};

} // namespace uexc::sim

#endif // UEXC_SIM_MACHINE_H
