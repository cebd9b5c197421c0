/**
 * @file
 * Physical memory of the simulated machine: a flat byte array with
 * word/half/byte accessors. All addresses here are *physical*; the CPU
 * performs virtual-to-physical translation (segment decoding and TLB
 * lookup) before touching this object.
 */

#ifndef UEXC_SIM_MEMORY_H
#define UEXC_SIM_MEMORY_H

#include <cstddef>
#include <vector>

#include "common/types.h"

namespace uexc::sim {

/**
 * Flat physical memory. Accesses must be in range and naturally
 * aligned; violations are uexc bugs (the CPU checks alignment and
 * raises guest exceptions before calling in here).
 *
 * Concurrency: under the default Serial scheduler the memory is only
 * ever touched by one thread at a time, so the accessors use plain
 * loads and stores. setConcurrent(true) switches the word/half/byte
 * accessors to relaxed host atomics and the page-version bumps to
 * atomic increments for the Relaxed free-running scheduler, where
 * harts really do race on guest-shared pages. Relaxed atomics compile to plain moves on x86, so the
 * discipline costs nothing but makes the races well-defined (and
 * visible to ThreadSanitizer as intentional).
 */
class PhysMemory
{
  public:
    /** Page granularity of write versioning (matches the VM page). */
    static constexpr unsigned PageShift = 12;
    static constexpr std::size_t PageBytes = std::size_t(1) << PageShift;

    /** Construct @p size bytes of zeroed memory (word multiple). */
    explicit PhysMemory(std::size_t size);

    std::size_t size() const { return data_.size(); }

    Word readWord(Addr paddr) const;
    Half readHalf(Addr paddr) const;
    Byte readByte(Addr paddr) const;

    void writeWord(Addr paddr, Word value);
    void writeHalf(Addr paddr, Half value);
    void writeByte(Addr paddr, Byte value);

    /** Bulk copy into memory (for program loading). */
    void writeBlock(Addr paddr, const void *src, std::size_t bytes);
    /** Bulk copy out of memory. */
    void readBlock(Addr paddr, void *dst, std::size_t bytes) const;

    /** Zero a range. */
    void clearRange(Addr paddr, std::size_t bytes);

    /** True iff every byte in the range is zero (snapshot elision). */
    bool blockIsZero(Addr paddr, std::size_t bytes) const;

    /**
     * Write version of the page containing @p paddr: bumped by every
     * store into the page, whichever side (guest store, host kernel
     * service, debug write) performed it. The CPU's predecoded-
     * instruction cache snapshots this at decode time and revalidates
     * on every fetch, which is what makes self-modifying code safe
     * under the fast interpreter. Not architectural state.
     */
    std::uint32_t pageVersion(Addr paddr) const
    {
        return pageVersions_[paddr >> PageShift];
    }

    /** Stable pointer to a page's version word (hot-path polling). */
    const std::uint32_t *pageVersionPtr(Addr paddr) const
    {
        return &pageVersions_[paddr >> PageShift];
    }

    /**
     * Read a page-version word through a stable pointer obtained from
     * pageVersionPtr(). Always a relaxed atomic load (a plain mov on
     * x86): in relaxed-scheduler runs another hart may be bumping the
     * version concurrently, and the polling sites must not constitute
     * a data race.
     */
    static std::uint32_t loadVersion(const std::uint32_t *p)
    {
        return __atomic_load_n(p, __ATOMIC_RELAXED);
    }

    /**
     * Switch between the plain (single-writer) and relaxed-atomic
     * (free-running harts) access disciplines. Only the Machine's
     * relaxed scheduler flips this, around a run; bulk operations
     * (writeBlock/readBlock/clearRange) stay plain and must not be
     * used while concurrent execution is in flight.
     */
    void setConcurrent(bool on) { concurrent_ = on; }
    bool concurrent() const { return concurrent_; }

  private:
    void check(Addr paddr, unsigned access_size) const;

    void bumpVersion(Addr paddr)
    {
        std::uint32_t *p = &pageVersions_[paddr >> PageShift];
        if (concurrent_)
            __atomic_fetch_add(p, 1, __ATOMIC_RELAXED);
        else
            ++*p;
    }

    void touchPages(Addr paddr, std::size_t bytes)
    {
        if (bytes == 0)
            return;
        for (Addr p = paddr >> PageShift;
             p <= (paddr + bytes - 1) >> PageShift; p++) {
            bumpVersion(Addr(p) << PageShift);
        }
    }

    std::vector<Byte> data_;
    std::vector<std::uint32_t> pageVersions_;
    bool concurrent_ = false;
};

} // namespace uexc::sim

#endif // UEXC_SIM_MEMORY_H
