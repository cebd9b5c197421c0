/**
 * @file
 * Workload `exc`: exception dispatch. One paper-config machine and
 * UserEnv per delivery mode (ultrix, fast, hwvec). A round runs the
 * modes in seeded order, each taking one block of faults: a seeded
 * stream interleaving three kinds of fault, in equal counts, over a
 * 256-page region (four times the 64-entry TLB):
 *
 *  - write-protect: the op re-protects the page with a real guest
 *    syscall, then stores into it; the handler unprotects in-handler;
 *  - subpage: the op arms one 1 KB subpage read-only, then stores
 *    into it; the handler disarms it in-handler;
 *  - unaligned load: the handler repairs the pointer register to the
 *    aligned word, as a swizzling handler would.
 *
 * Every mode delivers all three kinds. The kinds use disjoint pages
 * (page index mod 3), so one kind's protection state never leaks
 * into another's. An op is one delivered
 * exception; its latency is the faulting UserEnv call alone, and its
 * simulated cost is the cycles that call charged.
 *
 * Oracle: every planned fault is delivered exactly once with the
 * expected code() and badVaddr(), no environment is ever demoted, and
 * every stored value reads back (the unaligned loads return the
 * aligned word the region holds).
 */

#include <cstdio>

#include "core/microbench.h"
#include "harness.h"
#include "os/layout.h"

using namespace uexc;

namespace perfbench {
namespace {

constexpr Addr kRegion = 0x02000000;
constexpr unsigned kPages = 256;
constexpr unsigned kKinds = 3;
constexpr unsigned kPagesPerKind = kPages / kKinds;  // 85
constexpr unsigned kWords = kPages * os::kPageBytes / 4;
/** Faults per (mode, kind) in one round. */
constexpr unsigned kFaultsPerKind = 32;

enum Kind : unsigned { WriteProt, Subpage, Unaligned };
const char *const kKindNames[kKinds] = {"write_prot", "subpage",
                                        "unaligned"};

constexpr rt::DeliveryMode kModes[] = {
    rt::DeliveryMode::UltrixSignal, rt::DeliveryMode::FastSoftware,
    rt::DeliveryMode::FastHardwareVector};
constexpr unsigned kNumModes = 3;

const char *
deliverSpan(rt::DeliveryMode mode)
{
    switch (mode) {
      case rt::DeliveryMode::UltrixSignal: return "core.env.deliver.ultrix";
      case rt::DeliveryMode::FastSoftware: return "core.env.deliver.fast";
      case rt::DeliveryMode::FastHardwareVector:
        return "core.env.deliver.hwvec";
    }
    return "core.env.deliver";
}

Word
initialWord(unsigned index)
{
    return Word(mix(index) >> 7);
}

/** One mode's machine, environment and region state. */
struct Host
{
    rt::DeliveryMode mode{};
    std::unique_ptr<sim::Machine> machine;
    std::unique_ptr<os::Kernel> kernel;
    std::unique_ptr<rt::UserEnv> env;
    std::vector<Word> shadow;  ///< expected region contents

    // what the handler saw during the current op
    Kind kind = WriteProt;
    unsigned deliveries = 0;
    sim::ExcCode code = sim::ExcCode::Int;
    Addr badVaddr = 0;
};

struct Op
{
    Kind kind;
    unsigned page;
    unsigned word;  ///< word index within the page
};

class ExcWorkload : public Workload
{
  public:
    void setup(Ctx &ctx) override
    {
        hosts_.clear();
        for (unsigned m = 0; m < kNumModes; m++)
            hosts_.push_back(build(ctx, kModes[m]));
    }

    void round(Ctx &ctx, std::uint64_t seed) override
    {
        Rng rng(seed);
        std::vector<unsigned> modes(kNumModes);
        for (unsigned m = 0; m < kNumModes; m++)
            modes[m] = m;
        rng.shuffle(modes);
        for (unsigned m : modes) {
            std::vector<Op> ops;
            for (unsigned k = 0; k < kKinds; k++) {
                for (unsigned i = 0; i < kFaultsPerKind; i++) {
                    unsigned page = kKinds * rng.below(kPagesPerKind) + k;
                    unsigned word = rng.below(os::kPageBytes / 4);
                    ops.push_back({Kind(k), page, word});
                }
            }
            rng.shuffle(ops);
            for (const Op &op : ops)
                runOp(ctx, *hosts_[m], op, Word(rng.next()));
        }
    }

    void report(const Ctx &ctx) const override
    {
        // Table 2 rows (25 MHz): the round trip of a simple exception,
        // the write-protect fault with re-enable, and the subpage
        // delivery. The paper's fast figures are the software scheme;
        // its Ultrix figures are Table 1's.
        struct Row
        {
            Kind kind;
            const char *mode;
            double paperUs;
            const char *paperRow;
        };
        const Row rows[] = {
            {Unaligned, "fast", 8, "simple exception round trip"},
            {Unaligned, "ultrix", 80, "Table 1 round trip"},
            {WriteProt, "fast", 18, "write-prot fault + re-enable"},
            {WriteProt, "ultrix", 60, "Table 1 write-prot delivery"},
            {Subpage, "fast", 19, "subpage delivery"},
        };
        std::printf("# Table 2 (reference round, 25 MHz, whole faulting "
                    "access incl. in-handler service):\n");
        for (const Row &r : rows) {
            std::string key = std::string("core.env.fault_cycles.") +
                              r.mode + "." + kKindNames[r.kind];
            std::string n_key = std::string("core.env.faults.") + r.mode +
                                "." + kKindNames[r.kind];
            auto c = ctx.counts.find(key);
            auto n = ctx.counts.find(n_key);
            if (c == ctx.counts.end() || n == ctx.counts.end() ||
                n->second == 0)
                continue;
            double us = double(c->second) / double(n->second) / 25.0;
            std::printf("#   %-6s %-10s %7.2f us   paper %5.1f us (%s), "
                        "ratio %.2f\n",
                        r.mode, kKindNames[r.kind], us, r.paperUs,
                        r.paperRow, us / r.paperUs);
        }
    }

    void teardown(Ctx &ctx) override
    {
        for (auto &h : hosts_) {
            ctx.addEnv(*h->env);
            ctx.addMachine(*h->machine, modeLabel(h->mode));
            if (h->env->stats().deliveryDemoted != 0)
                ctx.fail("exc: environment demoted");
        }
        hosts_.clear();
    }

  private:
    std::unique_ptr<Host> build(Ctx &ctx, rt::DeliveryMode mode)
    {
        Tracer &tr = ctx.tracer;
        auto h = std::make_unique<Host>();
        h->mode = mode;
        h->machine = tr.span("sim.machine.ctor", [] {
            return std::make_unique<sim::Machine>(
                rt::micro::paperMachineConfig());
        });
        h->kernel = std::make_unique<os::Kernel>(*h->machine);
        tr.span("os.kernel.boot", [&] { h->kernel->boot(); });
        h->env = std::make_unique<rt::UserEnv>(*h->kernel, mode);
        rt::UserEnv &env = *h->env;
        tr.span("core.env.install", [&] { env.install(0xffff); });
        env.allocate(kRegion, kPages * os::kPageBytes);
        h->shadow.assign(kWords, 0);
        for (unsigned page = Unaligned; page < kPages; page += kKinds) {
            for (unsigned w = 0; w < os::kPageBytes / 4; w++) {
                unsigned index = page * (os::kPageBytes / 4) + w;
                h->shadow[index] = initialWord(index);
                env.store(kRegion + 4 * index, h->shadow[index]);
            }
        }
        Host *host = h.get();
        env.setHandler([host, &tr](rt::Fault &f) {
            Tracer::Scope scope(tr, "core.env.handler");
            host->deliveries++;
            host->code = f.code();
            host->badVaddr = f.badVaddr();
            switch (host->kind) {
              case WriteProt:
                host->env->protect(f.badVaddr() & ~(os::kPageBytes - 1),
                                   os::kPageBytes,
                                   os::kProtRead | os::kProtWrite);
                break;
              case Subpage:
                host->env->subpageProtect(
                    f.badVaddr() & ~(os::kSubpageBytes - 1),
                    os::kSubpageBytes, os::kProtRead | os::kProtWrite);
                break;
              case Unaligned:
                f.setReg(sim::T6, f.badVaddr() & ~3u);
                break;
            }
        });
        return h;
    }

    void runOp(Ctx &ctx, Host &h, const Op &op, Word value)
    {
        rt::UserEnv &env = *h.env;
        unsigned index = op.page * (os::kPageBytes / 4) + op.word;
        Addr addr = kRegion + 4 * index;
        Addr page_va = kRegion + op.page * os::kPageBytes;
        std::uint64_t insts0 = env.cpu().instret();
        ctx.attempted++;
        try {
            // arm the fault (a real guest syscall, outside the timing);
            // the previous fault's handler disarmed it
            if (op.kind == WriteProt) {
                env.protect(page_va, os::kPageBytes, os::kProtRead);
            } else if (op.kind == Subpage) {
                env.subpageProtect(addr & ~(os::kSubpageBytes - 1),
                                   os::kSubpageBytes, os::kProtRead);
            }
            h.kind = op.kind;
            h.deliveries = 0;
            Addr fault_va = op.kind == Unaligned ? addr + 2 : addr;
            Word loaded = 0;
            Cycles c0 = env.cycles();
            timeOp(ctx, [&] {
                ctx.tracer.span(deliverSpan(h.mode), [&] {
                    if (op.kind == Unaligned)
                        loaded = env.load(fault_va);
                    else
                        env.store(fault_va, value);
                });
            });
            Cycles cycles = env.cycles() - c0;
            ctx.opCycles.push_back(cycles);
            std::string mk = std::string(modeLabel(h.mode)) + "." +
                             kKindNames[op.kind];
            ctx.count("core.env.fault_cycles." + mk, cycles);
            ctx.count("core.env.faults." + mk, 1);

            sim::ExcCode want = op.kind == Unaligned ? sim::ExcCode::AdEL
                                                     : sim::ExcCode::Mod;
            if (h.deliveries != 1 || h.code != want ||
                h.badVaddr != fault_va) {
                ctx.fail(mk + ": expected one " + sim::excName(want) +
                         " delivery, got " + std::to_string(h.deliveries) +
                         " (" + sim::excName(h.code) + ")");
            } else if (env.demoted()) {
                ctx.fail(mk + ": environment demoted");
            } else if (op.kind == Unaligned) {
                if (loaded != h.shadow[index])
                    ctx.fail(mk + ": unaligned load returned wrong word");
            } else {
                h.shadow[index] = value;
                if (env.load(addr) != value)
                    ctx.fail(mk + ": stored value did not read back");
            }
        } catch (const std::exception &e) {
            ctx.fail(std::string("exc op threw: ") + e.what());
        }
        ctx.guestInsts += env.cpu().instret() - insts0;
    }

    std::vector<std::unique_ptr<Host>> hosts_;
};

} // namespace

std::unique_ptr<Workload>
makeExcWorkload()
{
    return std::make_unique<ExcWorkload>();
}

} // namespace perfbench
