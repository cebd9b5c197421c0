/**
 * @file
 * Workload `gc`: Table 4's two applications (Lisp Operations and the
 * Array Test) with the page-protection write barrier, each under the
 * stock Ultrix signal path and under the paper's fast software
 * scheme, on the paper's machine configuration.
 *
 * One round runs both applications under both modes with
 * GcWorkloadParams::rngSeed taken from the round seed; every run gets
 * a fresh machine, kernel and environment (the collector owns the
 * heap of the environment it runs in). An op is one UserEnv load or
 * store, so ops_per_s is accesses per second. Single accesses are far
 * too short to time, so each application run contributes one latency
 * sample: its mean host time per access.
 *
 * Oracle: the collector's statistics are identical under both modes.
 */

#include <cstdio>

#include "apps/gc/workloads.h"
#include "core/microbench.h"
#include "harness.h"

using namespace uexc;

namespace perfbench {
namespace {

constexpr rt::DeliveryMode kModes[] = {rt::DeliveryMode::UltrixSignal,
                                       rt::DeliveryMode::FastSoftware};

/** One booted paper machine with an installed environment. */
struct Host
{
    rt::DeliveryMode mode;
    std::unique_ptr<sim::Machine> machine;
    std::unique_ptr<os::Kernel> kernel;
    std::unique_ptr<rt::UserEnv> env;
};

struct AppRun
{
    bool lisp;
    rt::DeliveryMode mode;
    apps::GcRunResult result;
};

bool
sameStats(const apps::GcStats &a, const apps::GcStats &b)
{
    return a.allocations == b.allocations &&
           a.allocatedBytes == b.allocatedBytes &&
           a.collections == b.collections &&
           a.fullCollections == b.fullCollections &&
           a.objectsMarked == b.objectsMarked &&
           a.objectsSwept == b.objectsSwept &&
           a.barrierFaults == b.barrierFaults;
}

class GcWorkload : public Workload
{
  public:
    void setup(Ctx &ctx) override
    {
        hosts_.clear();
        for (int app = 0; app < 2; app++) {
            for (rt::DeliveryMode mode : kModes)
                hosts_.push_back(build(ctx, mode));
        }
    }

    void round(Ctx &ctx, std::uint64_t seed) override
    {
        apps::GcWorkloadParams params;
        params.rngSeed = unsigned(seed);
        std::size_t next = 0;
        std::vector<AppRun> runs;
        for (bool lisp : {true, false}) {
            for (rt::DeliveryMode mode : kModes) {
                Host host = next < hosts_.size() ? std::move(hosts_[next++])
                                                 : build(ctx, mode);
                runs.push_back({lisp, mode, runApp(ctx, host, lisp, params)});
                retire(ctx, host);
            }
        }
        hosts_.clear();
        for (std::size_t i = 0; i + 1 < runs.size(); i += 2) {
            if (!sameStats(runs[i].result.gc, runs[i + 1].result.gc)) {
                ctx.fail(std::string(runs[i].lisp ? "lisp" : "array") +
                         ": GcStats differ between ultrix and fast");
            }
        }
        for (const AppRun &r : runs) {
            ctx.count("apps.gc.collections", r.result.gc.collections);
            ctx.count("apps.gc.barrier_faults", r.result.gc.barrierFaults);
            ctx.count("apps.gc.objects_marked", r.result.gc.objectsMarked);
            ctx.count("apps.gc.objects_swept", r.result.gc.objectsSwept);
            ctx.count("apps.gc.allocations", r.result.gc.allocations);
            ctx.count(std::string("apps.gc.cycles.") +
                          (r.lisp ? "lisp." : "array.") + modeLabel(r.mode),
                      r.result.cycles);
        }
    }

    void report(const Ctx &ctx) const override
    {
        struct Paper
        {
            const char *name;
            const char *key;
            double ultrixS, fastS;
        };
        const Paper papers[] = {{"Lisp Operations", "lisp", 24.0, 23.0},
                                {"Array Test", "array", 2.0, 1.8}};
        std::printf("# Table 4 (reference round): improvement from fast "
                    "exceptions\n");
        for (const Paper &p : papers) {
            std::string k = std::string("apps.gc.cycles.") + p.key;
            double u = double(ctx.counts.at(k + ".ultrix"));
            double f = double(ctx.counts.at(k + ".fast"));
            double paper = 100.0 * (1.0 - p.fastS / p.ultrixS);
            double measured = 100.0 * (1.0 - f / u);
            std::printf("#   %-16s ultrix %.0f cycles, fast %.0f cycles: "
                        "paper %.1f%%, measured %.1f%% (ratio %.2f)\n",
                        p.name, u, f, paper, measured, measured / paper);
        }
    }

    void teardown(Ctx &ctx) override
    {
        for (Host &h : hosts_)
            retire(ctx, h);
        hosts_.clear();
    }

  private:
    Host build(Ctx &ctx, rt::DeliveryMode mode)
    {
        Tracer &tr = ctx.tracer;
        Host h{mode, nullptr, nullptr, nullptr};
        h.machine = tr.span("sim.machine.ctor", [] {
            return std::make_unique<sim::Machine>(
                rt::micro::paperMachineConfig());
        });
        h.kernel = std::make_unique<os::Kernel>(*h.machine);
        tr.span("os.kernel.boot", [&] { h.kernel->boot(); });
        h.env = std::make_unique<rt::UserEnv>(*h.kernel, mode);
        tr.span("core.env.install", [&] { h.env->install(0xffff); });
        return h;
    }

    apps::GcRunResult runApp(Ctx &ctx, Host &host, bool lisp,
                             const apps::GcWorkloadParams &params)
    {
        rt::UserEnv &env = *host.env;
        std::uint64_t accesses0 = env.stats().loads + env.stats().stores;
        std::uint64_t insts0 = env.cpu().instret();
        Clock::time_point start = Clock::now();
        apps::GcRunResult r = ctx.tracer.span("apps.gc.run", [&] {
            return lisp ? apps::runLispOps(env,
                                           apps::BarrierKind::PageProtection,
                                           params)
                        : apps::runArrayTest(
                              env, apps::BarrierKind::PageProtection,
                              params);
        });
        double us = std::chrono::duration<double, std::micro>(
                        Clock::now() - start)
                        .count();
        std::uint64_t accesses =
            env.stats().loads + env.stats().stores - accesses0;
        ctx.attempted += accesses;
        ctx.guestInsts += env.cpu().instret() - insts0;
        if (accesses == 0) {
            ctx.fail("gc run made no accesses");
        } else {
            ctx.opUs.push_back(us / double(accesses));
        }
        ctx.opCycles.push_back(r.cycles);
        if (r.gc.barrierFaults == 0 || r.gc.collections == 0)
            ctx.fail("gc run took no barrier faults or collections");
        if (env.demoted())
            ctx.fail("gc environment was demoted");
        return r;
    }

    static void retire(Ctx &ctx, Host &h)
    {
        if (!h.machine)
            return;
        ctx.addEnv(*h.env);
        ctx.addMachine(*h.machine, modeLabel(h.mode));
        h.env.reset();
        h.kernel.reset();
        h.machine.reset();
    }

    std::vector<Host> hosts_;
};

} // namespace

std::unique_ptr<Workload>
makeGcWorkload()
{
    return std::make_unique<GcWorkload>();
}

} // namespace perfbench
