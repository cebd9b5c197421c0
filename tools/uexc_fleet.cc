/**
 * @file
 * uexc-fleet: the fleet soak harness CLI.
 *
 *   uexc-fleet [--hosts N] [--guests N] [--dsm N] [--migrations N]
 *              [--ops N] [--seed S] [--cooldown N] [--supervise]
 *              [--fail-every N] [--precopy N]
 *              [--seconds N] [--decision-log FILE]
 *              [--repro-dir DIR] [--json]
 *
 * Runs N simulated hosts x M guests (chaos rigs under fault
 * injection, plus DSM pairs on an unreliable network) with seeded
 * live migrations, then prints the ledger. --supervise turns on the
 * self-healing supervisor: seeded failure drills (host crashes,
 * wedges, guest crashes, torn checkpoints, mid-transfer source
 * crashes) with checkpoint-rollback / re-migration recovery, capped
 * exponential backoff, and quarantine. --precopy N migrates chaos
 * guests with N iterative pre-copy rounds instead of stop-and-copy.
 * Environment overrides for CI time-bounding:
 *
 *   UEXC_SOAK_OPS      ops per guest per tick (same as --ops)
 *   UEXC_SOAK_SECONDS  wall-clock bound on the soak (same as
 *                      --seconds): ticks keep running until the
 *                      budget is spent, then the soak drains and the
 *                      convergence sweep runs as usual
 *   UEXC_REPRO_DIR     where contract violations dump .uxsn repros
 *
 * Exit status: 0 healthy soak (zero host failures, every failed
 * migration diagnosed into the MigrateError taxonomy), 1 soak
 * contract violated, 2 usage error. --json additionally writes
 * BENCH_fleet.json with migration downtime and MTTR percentiles.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "apps/fleet/fleet.h"
#include "bench/bench_util.h"

using namespace uexc;
using apps::fleet::Fleet;
using apps::fleet::FleetConfig;
using apps::fleet::FleetStats;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: uexc-fleet [--hosts N] [--guests N] [--dsm N]\n"
        "                  [--migrations N] [--ops N] [--seed S]\n"
        "                  [--cooldown N] [--supervise]\n"
        "                  [--fail-every N] [--precopy N]\n"
        "                  [--seconds N] [--decision-log FILE]\n"
        "                  [--repro-dir DIR] [--json]\n");
    return 2;
}

bool
parseUnsigned(const char *s, unsigned *out)
{
    char *end = nullptr;
    unsigned long v = std::strtoul(s, &end, 0);
    if (end == s || *end != '\0')
        return false;
    *out = static_cast<unsigned>(v);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    FleetConfig config;
    unsigned seconds = 0;
    std::string decisionLogPath;

    if (const char *env = std::getenv("UEXC_SOAK_OPS")) {
        if (!parseUnsigned(env, &config.opsPerTick)) {
            std::fprintf(stderr, "uexc-fleet: bad UEXC_SOAK_OPS\n");
            return 2;
        }
    }
    if (const char *env = std::getenv("UEXC_SOAK_SECONDS")) {
        if (!parseUnsigned(env, &seconds)) {
            std::fprintf(stderr,
                         "uexc-fleet: bad UEXC_SOAK_SECONDS\n");
            return 2;
        }
    }
    if (const char *env = std::getenv("UEXC_REPRO_DIR"))
        config.reproDir = env;

    bool json = false;
    for (int i = 1; i < argc; i++) {
        const char *arg = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        unsigned seed32 = 0;
        if (std::strcmp(arg, "--hosts") == 0) {
            if (!(v = value()) || !parseUnsigned(v, &config.hosts))
                return usage();
        } else if (std::strcmp(arg, "--guests") == 0) {
            if (!(v = value()) || !parseUnsigned(v, &config.guests))
                return usage();
        } else if (std::strcmp(arg, "--dsm") == 0) {
            if (!(v = value()) ||
                !parseUnsigned(v, &config.dsmGuests)) {
                return usage();
            }
        } else if (std::strcmp(arg, "--migrations") == 0) {
            if (!(v = value()) ||
                !parseUnsigned(v, &config.targetMigrations)) {
                return usage();
            }
        } else if (std::strcmp(arg, "--ops") == 0) {
            if (!(v = value()) ||
                !parseUnsigned(v, &config.opsPerTick)) {
                return usage();
            }
        } else if (std::strcmp(arg, "--cooldown") == 0) {
            if (!(v = value()) ||
                !parseUnsigned(v, &config.cooldownTicks)) {
                return usage();
            }
        } else if (std::strcmp(arg, "--seed") == 0) {
            if (!(v = value()) || !parseUnsigned(v, &seed32))
                return usage();
            config.seed = seed32;
        } else if (std::strcmp(arg, "--supervise") == 0) {
            config.supervise = true;
        } else if (std::strcmp(arg, "--fail-every") == 0) {
            if (!(v = value()) ||
                !parseUnsigned(v, &config.failEvery)) {
                return usage();
            }
        } else if (std::strcmp(arg, "--precopy") == 0) {
            if (!(v = value()) ||
                !parseUnsigned(v, &config.precopyRounds)) {
                return usage();
            }
        } else if (std::strcmp(arg, "--seconds") == 0) {
            if (!(v = value()) || !parseUnsigned(v, &seconds))
                return usage();
        } else if (std::strcmp(arg, "--decision-log") == 0) {
            if (!(v = value()))
                return usage();
            decisionLogPath = v;
        } else if (std::strcmp(arg, "--repro-dir") == 0) {
            if (!(v = value()))
                return usage();
            config.reproDir = v;
        } else if (std::strcmp(arg, "--json") == 0) {
            json = true;
        } else {
            return usage();
        }
    }
    if (config.hosts == 0 || config.guests == 0)
        return usage();

    // Wall-clock scheduling: the bound lives entirely in this hook;
    // guest semantics never see the host clock, so the ledger depends
    // on it only through how many ticks fit in the budget.
    auto start = std::chrono::steady_clock::now();
    if (seconds != 0) {
        config.maxTicks = ~std::uint64_t(0) >> 1;
        auto deadline = start + std::chrono::seconds(seconds);
        config.stopRequested = [deadline]() {
            return std::chrono::steady_clock::now() >= deadline;
        };
    }

    std::printf("uexc-fleet: %u hosts, %u guests (%u dsm pairs), "
                "%u migrations, %u ops/tick, seed %llu%s%s\n",
                config.hosts, config.guests,
                std::min(config.dsmGuests, config.guests),
                config.targetMigrations, config.opsPerTick,
                static_cast<unsigned long long>(config.seed),
                config.supervise ? ", supervised" : "",
                config.precopyRounds != 0 ? ", pre-copy" : "");
    if (seconds != 0)
        std::printf("uexc-fleet: wall-clock bound %u s\n", seconds);

    Fleet fleet(config);
    const FleetStats &s = fleet.run();
    double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    double opsPerSecond =
        elapsed > 0.0 ? double(s.chaosOpsRun + s.dsmOpsRun) / elapsed
                      : 0.0;

    std::printf("\nsoak ledger\n-----------\n");
    std::printf("  ticks                 %llu%s\n",
                (unsigned long long)s.ticks,
                s.stoppedEarly ? " (wall-clock bound reached)" : "");
    std::printf("  elapsed               %.2f s (%.0f ops/s)\n",
                elapsed, opsPerSecond);
    std::printf("  chaos ops / dsm ops   %llu / %llu\n",
                (unsigned long long)s.chaosOpsRun,
                (unsigned long long)s.dsmOpsRun);
    std::printf("  campaigns             %llu started, %llu "
                "converged, %llu diagnosed\n",
                (unsigned long long)s.campaignsStarted,
                (unsigned long long)s.campaignsConverged,
                (unsigned long long)s.campaignsDiagnosed);
    std::printf("  dsm reads verified    %llu\n",
                (unsigned long long)s.dsmReadsVerified);
    std::printf("  migrations            %llu attempted, %llu "
                "succeeded\n",
                (unsigned long long)s.migrationsAttempted,
                (unsigned long long)s.migrationsSucceeded);
    std::printf("    failed: partition=%llu image-rejected=%llu "
                "restore-refused=%llu (%llu deliberate "
                "partitions)\n",
                (unsigned long long)s.migrationsFailedByKind[0],
                (unsigned long long)s.migrationsFailedByKind[1],
                (unsigned long long)s.migrationsFailedByKind[2],
                (unsigned long long)s.partitionsInjected);
    for (unsigned k = 0; k < 3; k++) {
        if (!s.lastMigrateErrorDetail[k].empty()) {
            std::printf("    last %s: %s\n",
                        rt::migrate::migrateErrorKindName(
                            rt::migrate::MigrateErrorKind(k)),
                        s.lastMigrateErrorDetail[k].c_str());
        }
    }
    std::printf("  downtime cycles       p50=%llu p99=%llu\n",
                (unsigned long long)s.downtimeP50(),
                (unsigned long long)s.downtimeP99());
    if (config.precopyRounds != 0) {
        std::printf("  pre-copy              %llu migrations, %llu "
                    "converged, %llu pages shipped live, %llu "
                    "residual\n",
                    (unsigned long long)s.precopyMigrations,
                    (unsigned long long)s.precopyConverged,
                    (unsigned long long)s.precopyPagesSent,
                    (unsigned long long)s.precopyResidualPages);
        std::printf("    bytes: %llu live, %llu while paused\n",
                    (unsigned long long)s.precopyBytesMoved,
                    (unsigned long long)s.precopyStopCopyBytes);
    }
    std::printf("  transport             %llu frames, %llu retries, "
                "%llu corrupt-dropped, %llu dups, max timeout "
                "%llu\n",
                (unsigned long long)s.framesSent,
                (unsigned long long)s.transportRetries,
                (unsigned long long)s.corruptDropped,
                (unsigned long long)s.duplicatesSuppressed,
                (unsigned long long)s.maxTimeoutCharged);
    if (const rt::supervise::Supervisor *sup = fleet.supervisor()) {
        const rt::supervise::SupervisorStats &ss = sup->stats();
        std::printf("  supervision           %llu heartbeats, drills: "
                    "%llu host-crash, %llu wedge, %llu guest-crash, "
                    "%llu torn-image, %llu source-crash\n",
                    (unsigned long long)ss.heartbeats,
                    (unsigned long long)s.drillsHostCrash,
                    (unsigned long long)s.drillsWedge,
                    (unsigned long long)s.drillsGuestCrash,
                    (unsigned long long)s.drillsCorruptImage,
                    (unsigned long long)s.drillsSourceCrash);
        std::printf("    recoveries: %llu restart, %llu remigrate; "
                    "%llu torn images rejected, %llu quarantined, "
                    "%llu drain ticks\n",
                    (unsigned long long)s.recoveriesRestart,
                    (unsigned long long)s.recoveriesRemigrate,
                    (unsigned long long)s.corruptImagesRejected,
                    (unsigned long long)s.guestsQuarantined,
                    (unsigned long long)s.drainTicks);
        std::printf("    MTTR: p50=%llu p99=%llu ticks "
                    "(p50=%llu p99=%llu cycles), %llu recoveries\n",
                    (unsigned long long)ss.mttrTicksPercentile(50),
                    (unsigned long long)ss.mttrTicksPercentile(99),
                    (unsigned long long)ss.mttrCyclesPercentile(50),
                    (unsigned long long)ss.mttrCyclesPercentile(99),
                    (unsigned long long)ss.recoveries);
        if (!decisionLogPath.empty()) {
            if (std::FILE *f =
                    std::fopen(decisionLogPath.c_str(), "w")) {
                std::string text = sup->decisionLogText();
                std::fwrite(text.data(), 1, text.size(), f);
                std::fclose(f);
                std::printf("    decision log: %s (%zu decisions)\n",
                            decisionLogPath.c_str(),
                            sup->decisionLog().size());
            } else {
                std::fprintf(stderr,
                             "uexc-fleet: cannot write %s\n",
                             decisionLogPath.c_str());
            }
        }
    }
    std::printf("  host failures         %llu\n",
                (unsigned long long)s.hostFailures);
    for (const std::string &note : s.failureNotes)
        std::printf("    FAIL %s\n", note.c_str());
    for (const std::string &path : s.reprosWritten)
        std::printf("    repro %s\n", path.c_str());

    // Every failed migration must be diagnosed into exactly one
    // taxonomy bucket; an unaccounted failure is a harness bug.
    bool accounted = s.migrationsFailed() ==
                     s.migrationsAttempted - s.migrationsSucceeded;
    bool healthy = s.hostFailures == 0 && accounted;

    if (json) {
        bench::JsonResults results("fleet");
        results.config("hosts", double(config.hosts));
        results.config("guests", double(config.guests));
        results.config("dsm_guests",
                       double(std::min(config.dsmGuests,
                                       config.guests)));
        results.config("seed", double(config.seed));
        results.config("ops_per_tick", double(config.opsPerTick));
        results.config("supervise", config.supervise ? 1.0 : 0.0);
        results.config("precopy_rounds",
                       double(config.precopyRounds));
        results.metric("migrations attempted",
                       double(s.migrationsAttempted), "count");
        results.metric("migrations succeeded",
                       double(s.migrationsSucceeded), "count");
        results.metric("migrations failed (partition)",
                       double(s.migrationsFailedByKind[0]), "count");
        results.metric("migrations failed (image-rejected)",
                       double(s.migrationsFailedByKind[1]), "count");
        results.metric("migrations failed (restore-refused)",
                       double(s.migrationsFailedByKind[2]), "count");
        results.metric("migration downtime p50",
                       double(s.downtimeP50()), "cycles");
        results.metric("migration downtime p99",
                       double(s.downtimeP99()), "cycles");
        results.metric("campaigns converged",
                       double(s.campaignsConverged), "count");
        results.metric("campaigns diagnosed",
                       double(s.campaignsDiagnosed), "count");
        results.metric("dsm reads verified",
                       double(s.dsmReadsVerified), "count");
        results.metric("transport retries",
                       double(s.transportRetries), "count");
        results.metric("host failures", double(s.hostFailures),
                       "count");
        results.metric("soak elapsed", elapsed, "seconds");
        results.metric("soak throughput", opsPerSecond, "ops/s");
        if (const rt::supervise::Supervisor *sup =
                fleet.supervisor()) {
            const rt::supervise::SupervisorStats &ss = sup->stats();
            results.metric("mttr p50",
                           double(ss.mttrTicksPercentile(50)),
                           "ticks");
            results.metric("mttr p99",
                           double(ss.mttrTicksPercentile(99)),
                           "ticks");
            results.metric("mttr p50 (sim)",
                           double(ss.mttrCyclesPercentile(50)),
                           "cycles");
            results.metric("mttr p99 (sim)",
                           double(ss.mttrCyclesPercentile(99)),
                           "cycles");
            results.metric("recoveries", double(ss.recoveries),
                           "count");
            results.metric("restarts", double(s.recoveriesRestart),
                           "count");
            results.metric("remigrations",
                           double(s.recoveriesRemigrate), "count");
            results.metric("torn images rejected",
                           double(s.corruptImagesRejected), "count");
            results.metric("guests quarantined",
                           double(s.guestsQuarantined), "count");
        }
        if (config.precopyRounds != 0) {
            results.metric("precopy migrations",
                           double(s.precopyMigrations), "count");
            results.metric("precopy converged",
                           double(s.precopyConverged), "count");
            results.metric("precopy bytes live",
                           double(s.precopyBytesMoved), "bytes");
            results.metric("precopy bytes paused",
                           double(s.precopyStopCopyBytes), "bytes");
        }
    }

    if (!healthy) {
        std::fprintf(stderr,
                     "uexc-fleet: SOAK CONTRACT VIOLATED (%llu host "
                     "failures%s)\n",
                     (unsigned long long)s.hostFailures,
                     accounted ? "" : ", unaccounted migration "
                                      "failures");
        return 1;
    }
    std::printf("\nsoak healthy: zero host failures, every failed "
                "migration diagnosed\n");
    return 0;
}
