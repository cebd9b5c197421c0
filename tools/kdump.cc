/**
 * @file
 * kdump: disassemble the generated kernel image with symbol and
 * phase annotations. The printed listing is the authoritative
 * reference for what actually executes on each dispatch path (the
 * paper's Figure 1/Figure 2 flows, as real code).
 *
 *   $ ./tools/kdump            # whole kernel text
 *   $ ./tools/kdump fast       # only the fast path (Table 3 region)
 *   $ ./tools/kdump --lint     # run uexc-lint over the image instead
 *   $ ./tools/kdump --lint --harts N
 *                              # also lint the N-hart study images,
 *                              # including the static shared-page
 *                              # conflict analysis
 *   $ ./tools/kdump --harts N  # the multihart study images for N harts
 *   $ ./tools/kdump --harts N --parallel
 *                              # run the user-vectored study on the
 *                              # serial reference scheduler and print
 *                              # per-hart delivery counts
 *   $ ./tools/kdump --snapshot # section table of a booted machine's
 *                              # checkpoint (raw vs zero-elided size)
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

#include "core/multihart.h"
#include "os/kernel.h"
#include "os/kernelimage.h"
#include "os/layout.h"
#include "sim/isa.h"
#include "sim/machine.h"
#include "sim/snapshot.h"

using namespace uexc;
using namespace uexc::sim;
using namespace uexc::os;

namespace {

/** Disassemble @p image from @p begin to @p end with symbol labels. */
void
dumpRange(const Program &image, Addr begin, Addr end)
{
    std::map<Addr, std::string> by_addr;
    for (const auto &[name, addr] : image.symbols)
        by_addr[addr] = name;
    for (Addr addr = begin; addr < end; addr += 4) {
        auto sym = by_addr.find(addr);
        if (sym != by_addr.end())
            std::printf("\n%s:\n", sym->second.c_str());
        Word raw = image.words[(addr - image.origin) / 4];
        DecodedInst inst = decode(raw);
        std::printf("  %08x:  %08x  %s\n", addr, raw,
                    disassemble(inst, addr).c_str());
    }
}

/** Dump the per-hart mini-kernel and worker of the scaling study. */
int
dumpMultihart(unsigned harts)
{
    if (harts < 1 || harts > rt::multihart::kMaxHarts) {
        std::fprintf(stderr, "kdump: --harts wants 1..%u\n",
                     rt::multihart::kMaxHarts);
        return 1;
    }
    Program kernel = rt::multihart::buildKernelImage(harts);
    // Text stops where the per-hart save/counter slots begin.
    Addr ktext_end = kernel.symbol("mh_save");
    std::printf("multihart kernel (%u hart%s): %zu words, text "
                "0x%08x..0x%08x, %u x %u-byte save areas\n",
                harts, harts == 1 ? "" : "s", kernel.words.size(),
                kernel.origin, ktext_end, harts,
                unsigned(os::hartsave::Bytes));
    dumpRange(kernel, kernel.origin, ktext_end);

    Program worker = rt::multihart::buildWorkerProgram(harts);
    std::printf("\nmultihart worker: %zu words at 0x%08x (one entry "
                "per hart)\n",
                worker.words.size(), worker.origin);
    dumpRange(worker, worker.origin,
              worker.origin + 4 * Addr(worker.words.size()));
    return 0;
}

/**
 * Run the user-vectored delivery study on the serial reference
 * scheduler and print what each hart delivered: the per-hart view
 * behind bench_multihart's aggregate scaling numbers.
 */
int
runDeliveryStudy(unsigned harts)
{
    if (harts < 1 || harts > rt::multihart::kMaxHarts) {
        std::fprintf(stderr, "kdump: --harts wants 1..%u\n",
                     rt::multihart::kMaxHarts);
        return 1;
    }
    constexpr Addr worker_phys = 0x00210000;
    constexpr unsigned asid = 1;
    constexpr InstCount insts_per_hart = 40000;

    MachineConfig cfg;
    cfg.harts = harts;
    cfg.quantum = 500;
    cfg.cpu.userVectorHw = true;
    cfg.scheduler = SchedulerMode::Serial;
    Machine m(cfg);

    m.load(rt::multihart::buildKernelImage(harts));
    Program worker = rt::multihart::buildWorkerProgram(harts);
    m.mem().writeBlock(worker_phys, worker.words.data(),
                       4 * worker.words.size());
    for (unsigned i = 0; i < harts; i++) {
        Hart &h = m.hart(i);
        h.tlb().setEntry(0,
                         (os::kUserTextBase & entryhi::VpnMask) |
                             (asid << entryhi::AsidShift),
                         (worker_phys & entrylo::PfnMask) |
                             entrylo::V);
        h.cp0().setStatusReg(h.cp0().statusReg() | status::KUc |
                             status::UV);
        h.cp0().setUxReg(UxReg::Target,
                         worker.symbol("mh_uv_handler"));
        h.cp0().write(cp0reg::EntryHi, asid << entryhi::AsidShift);
        h.setPc(worker.symbol("mh_hart" + std::to_string(i) +
                              "_entry"));
    }

    MachineRunResult r =
        m.run(static_cast<InstCount>(harts) * insts_per_hart);

    std::printf("user-vectored study, %u hart%s on the serial "
                "scheduler: %llu instructions\n\n",
                harts, harts == 1 ? "" : "s",
                static_cast<unsigned long long>(r.instsExecuted));
    std::printf("  %4s %12s %12s %12s\n", "hart", "instret",
                "cycles", "uv-delivered");
    for (unsigned i = 0; i < harts; i++) {
        const Hart &h = m.hart(i);
        std::printf("  %4u %12llu %12llu %12llu\n", i,
                    static_cast<unsigned long long>(h.instret()),
                    static_cast<unsigned long long>(h.cycles()),
                    static_cast<unsigned long long>(
                        h.stats().userVectoredExceptions));
    }
    return 0;
}

/** Checkpoint a freshly booted kernel machine and print what the
 *  snapshot holds: one row per section, and the zero-elision win. */
int
dumpSnapshot()
{
    Machine machine;
    Kernel kernel(machine);
    kernel.boot();
    std::vector<Byte> image = machine.checkpoint();
    SnapshotImage parsed(image);

    std::printf("booted kernel snapshot: %zu bytes, %zu sections, "
                "format v%u\n\n",
                image.size(), parsed.sections().size(),
                kSnapshotVersion);
    std::printf("  %-8s %12s\n", "tag", "bytes");
    for (const SnapshotSection &s : parsed.sections())
        std::printf("  %-8s %12zu\n", snapshotTagName(s.tag).c_str(),
                    s.length);
    std::printf("\n  physical memory: %zu bytes; raw (unelided) image "
                "would be ~%zu KiB, elided image is %zu KiB\n",
                machine.mem().size(),
                (machine.mem().size() + image.size()) / 1024,
                image.size() / 1024);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool fast_only = argc > 1 && std::strcmp(argv[1], "fast") == 0;
    bool lint_only = argc > 1 && std::strcmp(argv[1], "--lint") == 0;

    if (argc > 1 && std::strcmp(argv[1], "--snapshot") == 0)
        return dumpSnapshot();

    if (argc > 1 && std::strcmp(argv[1], "--harts") == 0) {
        if (argc < 3) {
            std::fprintf(stderr, "kdump: --harts needs a count\n");
            return 1;
        }
        unsigned harts = unsigned(std::atoi(argv[2]));
        if (argc > 3 && std::strcmp(argv[3], "--parallel") == 0)
            return runDeliveryStudy(harts);
        return dumpMultihart(harts);
    }

    if (lint_only) {
        unsigned harts = 0;
        if (argc > 3 && std::strcmp(argv[2], "--harts") == 0)
            harts = unsigned(std::atoi(argv[3]));
        Program image = buildKernelImage();
        std::vector<analysis::Finding> findings =
            lintKernelImage(image);
        if (harts) {
            // The N-hart study images, with the shared-page conflict
            // analysis the per-hart configs enable.
            Program k = rt::multihart::buildKernelImage(harts);
            for (analysis::Finding &f : analysis::lint(
                     k, rt::multihart::kernelLintConfig(k, harts)))
                findings.push_back(std::move(f));
            Program w = rt::multihart::buildWorkerProgram(harts);
            for (analysis::Finding &f : analysis::lint(
                     w, rt::multihart::workerLintConfig(w, harts)))
                findings.push_back(std::move(f));
        }
        std::fputs(analysis::formatFindings(findings).c_str(), stdout);
        std::printf("%s: %zu finding%s, %s\n",
                    harts ? "kernel + multihart images"
                          : "kernel image",
                    findings.size(), findings.size() == 1 ? "" : "s",
                    analysis::hasErrors(findings) ? "FAIL" : "ok");
        return analysis::hasErrors(findings) ? 1 : 0;
    }

    Program image = buildKernelImage();
    // invert the symbol table for annotation
    std::map<Addr, std::string> by_addr;
    for (const auto &[name, addr] : image.symbols)
        by_addr[addr] = name;

    Addr begin = fast_only ? image.symbol(ksym::FastDecode)
                           : image.origin;
    Addr end = fast_only ? image.symbol(ksym::FastEnd)
                         : image.symbol(ksym::Curproc);

    std::printf("kernel image: %zu words, text 0x%08x..0x%08x\n\n",
                image.words.size(), image.origin, end);

    for (Addr addr = begin; addr < end; addr += 4) {
        auto sym = by_addr.find(addr);
        if (sym != by_addr.end())
            std::printf("\n%s:\n", sym->second.c_str());
        Word raw = image.words[(addr - image.origin) / 4];
        DecodedInst inst = decode(raw);
        std::printf("  %08x:  %08x  %s\n", addr, raw,
                    disassemble(inst, addr).c_str());
    }
    return 0;
}
