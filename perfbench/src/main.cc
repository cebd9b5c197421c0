/**
 * @file
 * uexc-perfbench: the repository's benchmark. One process, one
 * thread, one client running one named workload as a closed loop.
 *
 *   uexc-perfbench --workload <gc|exc|migrate|proc> --seed <n>
 *                  --seconds <s> --trace <0|1> [--out-dir <dir>]
 *
 * A run sets the workload up several times (setup_s is the median),
 * then runs seeded rounds until --seconds have passed. Afterwards it
 * runs one reference round with a fixed seed on a fresh setup: its
 * simulated counts are the exact metrics, identical for every --seed.
 * Host time and simulated counts are never mixed in one metric.
 *
 * --trace 1 splits the window: the first half runs untraced, the
 * second half (with its own setup) records a span around every call
 * into a layer. The spans give the per-layer host times, written to
 * <out-dir>/<workload>.spans.tsv; the two halves give the tracing
 * overhead.
 *
 * The last line of standard output is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}; --trace 0 reports
 * the end-to-end metrics, --trace 1 the per-layer ones. The full
 * result, with the run environment and the simulated-count digests,
 * goes to <out-dir>/<workload>.trace<t>.json. A failed oracle check
 * makes the run exit 1.
 */

#include <sched.h>
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "harness.h"

using namespace perfbench;

namespace {

/** Set-up runs at least kSetupReps times, and until the set-ups
 *  together took kSetupMinSeconds, so a set-up of microseconds still
 *  yields a steady median. */
constexpr int kSetupReps = 5;
constexpr double kSetupMinSeconds = 0.05;
/** Round seed of the reference round: GcWorkloadParams' default, so
 *  the gc reference round is exactly Table 4's run. */
constexpr std::uint64_t kReferenceRoundSeed = 12345;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    std::string outDir = ".perfbench_out";
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "uexc-perfbench: %s\nusage: uexc-perfbench --workload "
                 "<gc|exc|migrate|proc> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; i++) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const char *v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v, nullptr);
        else if (k == "--trace")
            a.trace = std::atoi(v);
        else if (k == "--out-dir")
            a.outDir = v;
        else
            usage(("unknown argument " + k).c_str());
    }
    if (a.workload.empty() || a.seconds <= 0 ||
        (a.trace != 0 && a.trace != 1))
        usage("--workload, --seconds > 0 and --trace 0|1 are required");
    return a;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "gc")
        return makeGcWorkload();
    if (name == "exc")
        return makeExcWorkload();
    if (name == "migrate")
        return makeMigrateWorkload();
    if (name == "proc")
        return makeProcWorkload();
    return nullptr;
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; i++) {
        if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                         &regs[4 * i + 2], &regs[4 * i + 3]))
            return "unknown";
    }
    std::string s(reinterpret_cast<const char *>(regs), sizeof regs);
    s = s.c_str();
    s.erase(0, s.find_first_not_of(' '));
    return s;
#else
    return "unknown";
#endif
}

const char *
schedulerName(uexc::sim::SchedulerMode mode)
{
    switch (mode) {
      case uexc::sim::SchedulerMode::Auto: return "auto";
      case uexc::sim::SchedulerMode::Serial: return "serial";
      case uexc::sim::SchedulerMode::Barrier: return "barrier";
      case uexc::sim::SchedulerMode::Relaxed: return "relaxed";
    }
    return "?";
}

// -- statistics ---------------------------------------------------------

/** Nearest-rank percentile of sorted @p v. */
template <typename T>
T
percentile(const std::vector<T> &v, double pct)
{
    std::size_t rank = std::size_t(std::ceil(pct / 100.0 * double(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

template <typename T>
struct Tail
{
    T value{};
    double pct = 100;
    std::size_t n = 0;
};

/** The highest percentile of the ladder with at least 10 samples
 *  beyond it; the maximum when no rung has. */
template <typename T>
Tail<T>
tailOf(const std::vector<T> &sorted)
{
    Tail<T> t;
    t.n = sorted.size();
    if (sorted.empty())
        return t;
    for (double pct : {99.9, 99.0, 90.0}) {
        std::size_t rank = std::size_t(std::ceil(pct / 100.0 * double(t.n)));
        if (t.n - rank >= 10) {
            t.value = sorted[rank - 1];
            t.pct = pct;
            return t;
        }
    }
    t.value = sorted.back();
    return t;
}

template <typename T>
std::vector<T>
sortedCopy(std::vector<T> v)
{
    std::sort(v.begin(), v.end());
    return v;
}

double
median(std::vector<double> v)
{
    return v.empty() ? 0 : percentile(sortedCopy(std::move(v)), 50);
}

/** FNV-1a over the named counts and the per-op simulated cycles. */
std::uint64_t
digest(const std::map<std::string, std::uint64_t> &counts,
       const std::uint64_t *cycles, std::size_t n)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto feed = [&h](const void *p, std::size_t len) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < len; i++)
            h = (h ^ b[i]) * 0x100000001b3ull;
    };
    for (const auto &[name, value] : counts) {
        feed(name.data(), name.size());
        feed(&value, sizeof value);
    }
    feed(cycles, n * sizeof *cycles);
    return h;
}

// -- metrics ------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string s = "{";
    for (std::size_t i = 0; i < metrics.size(); i++) {
        const Metric &m = metrics[i];
        s += (i ? ", " : "") + jsonString(m.name) + ": {\"value\": " +
             jsonNumber(m.value) + ", \"unit\": " + jsonString(m.unit) + "}";
    }
    return s + "}";
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0;
}

/** What one timed window measured. */
struct Window
{
    double seconds = 0;
    std::uint64_t ops = 0;
    std::uint64_t insts = 0;
    /** Per-op simulated cycles of the window's first round. */
    std::vector<std::uint64_t> firstRoundCycles;

    double opsPerS() const { return ratio(double(ops), seconds); }
};

/** Run seeded rounds until @p seconds have passed (at least one). */
Window
runWindow(Workload &wl, Ctx &ctx, std::uint64_t seed, double seconds,
          std::uint64_t first_round)
{
    Window w;
    std::uint64_t ops0 = ctx.attempted, insts0 = ctx.guestInsts;
    std::size_t cyc0 = ctx.opCycles.size();
    Clock::time_point start = Clock::now();
    std::uint64_t r = first_round;
    do {
        wl.round(ctx, mix(seed * 0x100000001b3ull + r));
        if (r++ == first_round) {
            w.firstRoundCycles.assign(ctx.opCycles.begin() + long(cyc0),
                                      ctx.opCycles.end());
        }
    } while (secondsSince(start) < seconds);
    w.seconds = secondsSince(start);
    w.ops = ctx.attempted - ops0;
    w.insts = ctx.guestInsts - insts0;
    return w;
}

double
setupOnce(Workload &wl, Ctx &ctx)
{
    Clock::time_point start = Clock::now();
    wl.setup(ctx);
    return secondsSince(start);
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
#ifndef NDEBUG
    std::fprintf(stderr, "uexc-perfbench: refusing to run a build without "
                         "NDEBUG (Debug boot runs the WCET lint gate and "
                         "inflates setup_s)\n");
    return 2;
#endif
    if (std::getenv("UEXC_PARALLEL")) {
        std::fprintf(stderr, "uexc-perfbench: refusing to run with "
                             "UEXC_PARALLEL set (it changes the scheduler "
                             "in-process)\n");
        return 2;
    }
    std::unique_ptr<Workload> wl = makeWorkload(args.workload);
    if (!wl)
        usage(("unknown workload " + args.workload).c_str());

    const char *scheduler =
        schedulerName(uexc::sim::Machine().schedulerMode());

    Ctx ctx;
    std::uint64_t failed_total = 0, attempted_total = 0;

    // -- set-up, several times -------------------------------------------------
    std::vector<double> setups;
    double setup_total = 0;
    while (int(setups.size()) < kSetupReps || setup_total < kSetupMinSeconds) {
        if (!setups.empty())
            wl->teardown(ctx);
        setups.push_back(setupOnce(*wl, ctx));
        setup_total += setups.back();
    }
    double setup_s = median(setups);

    // -- timed window(s) --------------------------------------------------------
    Window win, traced;
    if (args.trace) {
        win = runWindow(*wl, ctx, args.seed, args.seconds / 2, 0);
        wl->teardown(ctx);
        ctx.tracer.enable(true);
        wl->setup(ctx);
        traced = runWindow(*wl, ctx, args.seed, args.seconds / 2, 1'000'000);
        ctx.tracer.enable(false);
    } else {
        win = runWindow(*wl, ctx, args.seed, args.seconds, 0);
    }
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    double peak_rss_mb = double(ru.ru_maxrss) / 1024.0;
    wl->teardown(ctx);
    failed_total += ctx.failed;
    attempted_total += ctx.attempted;

    std::vector<double> op_us = sortedCopy(ctx.opUs);

    // -- reference round: fixed seed, fresh setup, exact counts ---------------
    Ctx ref;
    ref.reference = true;
    wl->setup(ref);
    wl->round(ref, kReferenceRoundSeed);
    wl->teardown(ref);
    failed_total += ref.failed;
    attempted_total += ref.attempted;
    const auto &rc = ref.counts;
    auto cnt = [&rc](const std::string &k) -> double {
        auto it = rc.find(k);
        return it == rc.end() ? 0.0 : double(it->second);
    };
    std::vector<std::uint64_t> ref_cycles = sortedCopy(ref.opCycles);
    Tail<std::uint64_t> sim_tail = tailOf(ref_cycles);
    double sim_cycles = cnt("sim.cpu.cycles") +
                        cnt("core.migrate.downtime_cycles");

    std::vector<Metric> metrics;
    Tail<double> us_tail;
    if (!args.trace) {
        us_tail = tailOf(op_us);
        metrics = {
            {"setup_s", setup_s, "s"},
            {"ops_per_s", win.opsPerS(), "1/s"},
            {"op_us_p50", op_us.empty() ? 0 : percentile(op_us, 50), "us"},
            {"op_us_tail", us_tail.value, "us"},
            {"peak_rss_mb", peak_rss_mb, "MB"},
            {"sim_cycles", sim_cycles, "cycles"},
            {"sim_op_cycles_p50",
             ref_cycles.empty() ? 0 : double(percentile(ref_cycles, 50)),
             "cycles"},
            {"sim_op_cycles_tail", double(sim_tail.value), "cycles"},
        };
    } else {
        auto totals = ctx.tracer.totals();
        auto mean = [&totals](const char *name, double scale) {
            auto it = totals.find(name);
            if (it == totals.end() || it->second.calls == 0)
                return 0.0;
            return it->second.totalS / double(it->second.calls) * scale;
        };
        auto self_mean = [&totals](const char *name, double scale) {
            auto it = totals.find(name);
            if (it == totals.end() || it->second.calls == 0)
                return 0.0;
            return it->second.selfS / double(it->second.calls) * scale;
        };
        auto per_mode = [&](const std::string &num, const std::string &den,
                            const char *mode) {
            double n = 0, d = 0;
            std::string suffix = std::string(".") + mode;
            for (const auto &[k, v] : rc) {
                if (k.rfind(num + suffix, 0) == 0)
                    n += double(v);
                if (k.rfind(den + suffix, 0) == 0)
                    d += double(v);
            }
            return ratio(n, d);
        };
        double rate_untraced = win.opsPerS();
        double rate_traced = traced.opsPerS();
        metrics = {
            {"sim.machine.ctor_ms", mean("sim.machine.ctor", 1e3), "ms"},
            {"sim.machine.run_ms", mean("sim.machine.run", 1e3), "ms"},
            {"sim.cpu.minst_per_s",
             ratio(double(win.insts), win.seconds) / 1e6, "Minst/s"},
            {"sim.cpu.insts", cnt("sim.cpu.insts"), "count"},
            {"sim.cpu.exceptions", cnt("sim.cpu.exceptions"), "count"},
        };
        for (const char *mode : {"ultrix", "fast", "hwvec"}) {
            metrics.push_back({std::string("sim.cpu.insts_per_exc.") + mode,
                               per_mode("sim.cpu.insts", "sim.cpu.exceptions",
                                        mode),
                               "count"});
        }
        for (const char *mode : {"ultrix", "fast", "hwvec"}) {
            metrics.push_back(
                {std::string("core.env.deliver_us.") + mode,
                 mean((std::string("core.env.deliver.") + mode).c_str(), 1e6),
                 "us"});
        }
        for (const char *mode : {"ultrix", "fast", "hwvec"}) {
            metrics.push_back({std::string("core.env.fault_cycles.") + mode,
                               per_mode("core.env.fault_cycles",
                                        "core.env.faults", mode),
                               "cycles"});
        }
        std::vector<Metric> rest = {
            {"core.env.handler_us", mean("core.env.handler", 1e6), "us"},
            {"core.env.install_ms", mean("core.env.install", 1e3), "ms"},
            {"core.env.accesses", cnt("core.env.accesses"), "count"},
            {"core.env.faults", cnt("core.env.faults"), "count"},
            {"core.env.demotions", cnt("core.env.demotions"), "count"},
            {"sim.tlb.lookups", cnt("sim.tlb.lookups"), "count"},
            {"sim.tlb.miss_ratio",
             ratio(cnt("sim.tlb.misses"), cnt("sim.tlb.lookups")), "ratio"},
            {"sim.cache.i_miss_ratio",
             ratio(cnt("sim.cache.i_misses"), cnt("sim.cache.i_accesses")),
             "ratio"},
            {"sim.cache.d_miss_ratio",
             ratio(cnt("sim.cache.d_misses"), cnt("sim.cache.d_accesses")),
             "ratio"},
            {"apps.gc.run_s", mean("apps.gc.run", 1.0), "s"},
            {"apps.gc.collections", cnt("apps.gc.collections"), "count"},
            {"apps.gc.barrier_faults", cnt("apps.gc.barrier_faults"),
             "count"},
            {"apps.gc.objects_marked", cnt("apps.gc.objects_marked"),
             "count"},
            {"sim.snapshot.checkpoint_ms",
             mean("sim.snapshot.checkpoint", 1e3), "ms"},
            {"sim.snapshot.restore_ms", mean("sim.snapshot.restore", 1e3),
             "ms"},
            {"sim.snapshot.image_kb",
             ratio(cnt("sim.snapshot.image_bytes"),
                   cnt("core.migrate.stop_copy_moves")) /
                 1024.0,
             "KiB"},
            {"core.migrate.transfer_ms",
             self_mean("core.migrate.migrate_image", 1e3), "ms"},
            {"core.migrate.frames_per_chunk",
             ratio(cnt("core.migrate.frames"), cnt("core.migrate.chunks")),
             "ratio"},
            {"core.migrate.retries", cnt("core.migrate.retries"), "count"},
            {"core.chaos.rig_ctor_ms", mean("core.chaos.rig_ctor", 1e3),
             "ms"},
            {"core.chaos.ops_ms", mean("core.chaos.ops", 1e3), "ms"},
            {"os.kernel.boot_ms", mean("os.kernel.boot", 1e3), "ms"},
            {"os.kernel.execve_ms", mean("os.kernel.execve", 1e3), "ms"},
            {"bench.trace.overhead_pct",
             (ratio(rate_untraced, rate_traced) - 1.0) * 100.0, "%"},
            {"bench.trace.spans", double(ctx.tracer.spans().size()),
             "count"},
        };
        metrics.insert(metrics.end(), rest.begin(), rest.end());
    }

    // -- report -----------------------------------------------------------------
    std::uint64_t ref_digest =
        digest(rc, ref.opCycles.data(), ref.opCycles.size());
    std::uint64_t seeded_digest =
        digest({}, win.firstRoundCycles.data(), win.firstRoundCycles.size());
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    long nproc = sched_getaffinity(0, sizeof cpus, &cpus) == 0
                     ? long(CPU_COUNT(&cpus))
                     : -1;
    std::string model = cpuModel();

    std::printf("# uexc-perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace);
    std::printf("# env: nproc=%ld cpu=\"%s\" compiler=\"%s\" build=%s "
                "scheduler=%s UEXC_PARALLEL=unset\n",
                nproc, model.c_str(), __VERSION__, PERFBENCH_BUILD_TYPE,
                scheduler);
    std::printf("# window: %.3f s, %llu ops, %zu latency samples\n",
                win.seconds, static_cast<unsigned long long>(win.ops),
                op_us.size());
    if (!args.trace) {
        std::printf("# op_us_tail is p%g of %zu samples\n", us_tail.pct,
                    us_tail.n);
    }
    std::printf("# sim_op_cycles_tail is p%g of %zu reference ops\n",
                sim_tail.pct, sim_tail.n);
    std::printf("# digest: reference=%016llx (all simulated counts) "
                "seeded-first-round=%016llx (%zu ops)\n",
                static_cast<unsigned long long>(ref_digest),
                static_cast<unsigned long long>(seeded_digest),
                win.firstRoundCycles.size());
    std::printf("# error_rate: %llu failed / %llu attempted\n",
                static_cast<unsigned long long>(failed_total),
                static_cast<unsigned long long>(attempted_total));
    wl->report(ref);
    for (const Metric &m : metrics)
        std::printf("# %-32s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    std::error_code ec;
    std::filesystem::create_directories(args.outDir, ec);
    std::string base = args.outDir + "/" + args.workload;
    if (args.trace && !ctx.tracer.write(base + ".spans.tsv"))
        std::fprintf(stderr, "uexc-perfbench: cannot write spans\n");
    if (std::FILE *f =
            std::fopen((base + ".trace" + std::to_string(args.trace) +
                        ".json")
                           .c_str(),
                       "w")) {
        std::fprintf(f, "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
                        "\"trace\": %d,\n",
                     jsonString(args.workload).c_str(),
                     static_cast<unsigned long long>(args.seed),
                     jsonNumber(args.seconds).c_str(), args.trace);
        std::fprintf(f, " \"env\": {\"nproc\": %ld, \"cpu\": %s, "
                        "\"compiler\": %s, \"build_type\": %s, "
                        "\"scheduler\": %s, \"uexc_parallel\": false},\n",
                     nproc, jsonString(model).c_str(),
                     jsonString(__VERSION__).c_str(),
                     jsonString(PERFBENCH_BUILD_TYPE).c_str(),
                     jsonString(scheduler).c_str());
        std::fprintf(f, " \"op_us_tail_pct\": %s, \"sim_op_cycles_tail_pct\": "
                        "%s,\n",
                     jsonNumber(us_tail.pct).c_str(),
                     jsonNumber(sim_tail.pct).c_str());
        std::fprintf(f, " \"digest_reference\": \"%016llx\", "
                        "\"digest_seeded_first_round\": \"%016llx\",\n",
                     static_cast<unsigned long long>(ref_digest),
                     static_cast<unsigned long long>(seeded_digest));
        std::fprintf(f, " \"reference_counts\": {");
        bool first = true;
        for (const auto &[k, v] : rc) {
            std::fprintf(f, "%s%s: %llu", first ? "" : ", ",
                         jsonString(k).c_str(),
                         static_cast<unsigned long long>(v));
            first = false;
        }
        std::fprintf(f, "},\n \"failed\": %llu, \"attempted\": %llu,\n",
                     static_cast<unsigned long long>(failed_total),
                     static_cast<unsigned long long>(attempted_total));
        std::fprintf(f, " \"metrics\": %s}\n", metricsJson(metrics).c_str());
        std::fclose(f);
    }

    bool correct = failed_total == 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted_total),
                static_cast<unsigned long long>(failed_total),
                metricsJson(metrics).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
