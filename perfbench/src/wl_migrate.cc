/**
 * @file
 * Workload `migrate`: live migration of chaos rigs (default
 * RigConfig, default 32 MiB memory). Each campaign is cut at seeded
 * points; at every cut the running rig moves into a freshly built
 * rig over a seeded lossy link (loss, corruption and duplication all
 * nonzero), stop-and-copy except every kPreCopyEvery-th move, which
 * is iterative pre-copy. The campaign then finishes on the last
 * destination. An op is one migration, including building the
 * destination rig.
 *
 * Stop-and-copy moves are driven as Rig::checkpoint followed by
 * migrate::migrateImage with a Rig::restore callback, so the traced
 * run can split checkpoint, transfer and restore. That is what
 * migrate::migrateRig does; the reference round checks it, by
 * migrating a twin of one source through migrateRig and requiring
 * the identical result and destination image.
 *
 * Oracle: every migration succeeds, and each campaign's readback
 * words equal chaos::makeReference's.
 */

#include <algorithm>

#include "core/migrate.h"
#include "harness.h"

using namespace uexc;
using namespace uexc::rt;

namespace perfbench {
namespace {

constexpr unsigned kCutsPerCampaign = 3;
constexpr unsigned kCampaignsPerRound = 4;
constexpr unsigned kPreCopyEvery = 4;
constexpr unsigned kPreCopyOpsPerSlice = 8;

migrate::MigrationConfig
linkConfig(std::uint64_t seed)
{
    migrate::MigrationConfig cfg;
    cfg.transport.seed = seed;
    cfg.transport.lossPercent = 5;
    cfg.transport.corruptPercent = 2;
    cfg.transport.dupPercent = 2;
    return cfg;
}

bool
sameResult(const migrate::MigrationResult &a,
           const migrate::MigrationResult &b)
{
    return a.succeeded == b.succeeded &&
           a.downtimeCycles == b.downtimeCycles &&
           a.bytesMoved == b.bytesMoved &&
           a.transport.framesSent == b.transport.framesSent &&
           a.transport.retries == b.transport.retries &&
           a.transport.cyclesCharged == b.transport.cyclesCharged;
}

class MigrateWorkload : public Workload
{
  public:
    void setup(Ctx &ctx) override
    {
        Tracer &tr = ctx.tracer;
        reference_ = tr.span("core.chaos.make_reference",
                             [] { return chaos::makeReference(); });
        first_ = newRig(ctx);
        migrations_ = 0;
    }

    void round(Ctx &ctx, std::uint64_t seed) override
    {
        Rng rng(seed);
        for (unsigned c = 0; c < kCampaignsPerRound; c++) {
            std::vector<unsigned> cuts;
            while (cuts.size() < kCutsPerCampaign) {
                unsigned cut = 1 + rng.below(chaos::kTotalOps - 1);
                if (std::find(cuts.begin(), cuts.end(), cut) == cuts.end())
                    cuts.push_back(cut);
            }
            std::sort(cuts.begin(), cuts.end());
            campaign(ctx, cuts, rng, ctx.reference && c == 0);
        }
    }

    void teardown(Ctx &) override { first_.reset(); }

  private:
    std::unique_ptr<chaos::Rig> newRig(Ctx &ctx)
    {
        return ctx.tracer.span("core.chaos.rig_ctor", [] {
            return std::make_unique<chaos::Rig>();
        });
    }

    void campaign(Ctx &ctx, const std::vector<unsigned> &cuts, Rng &rng,
                  bool twin_check)
    {
        Tracer &tr = ctx.tracer;
        std::unique_ptr<chaos::Rig> src =
            first_ ? std::move(first_) : newRig(ctx);
        std::uint64_t insts = 0;
        try {
            for (unsigned cut : cuts) {
                if (src->cursor() < cut) {
                    std::uint64_t i0 = src->env().cpu().instret();
                    tr.span("core.chaos.ops", [&] { src->runTo(cut); });
                    insts += src->env().cpu().instret() - i0;
                }
                std::unique_ptr<chaos::Rig> dst;
                if (twin_check) {
                    checkTwin(ctx, *src, migrations_);
                    twin_check = false;
                }
                migrate::MigrationConfig cfg = linkConfig(rng.next());
                bool precopy = ++migrations_ % kPreCopyEvery == 0;
                migrate::MigrationResult r;
                std::uint64_t i0 = src->env().cpu().instret();
                ctx.attempted++;
                timeOp(ctx, [&] {
                    dst = newRig(ctx);
                    r = precopy ? tr.span("core.migrate.precopy", [&] {
                                      return migrate::migrateRigPreCopy(
                                          *src, *dst, cfg, {},
                                          kPreCopyOpsPerSlice);
                                  })
                                : stopAndCopy(ctx, *src, *dst, cfg);
                });
                // pre-copy runs the guest while pages are in flight
                insts += src->env().cpu().instret() - i0;
                record(ctx, r, precopy);
                if (!r.succeeded) {
                    ctx.fail("migration failed: " + r.error);
                    return;
                }
                src = std::move(dst);
            }
            std::uint64_t i0 = src->env().cpu().instret();
            tr.span("core.chaos.ops", [&] { src->run(); });
            insts += src->env().cpu().instret() - i0;
            if (src->words() != reference_.words)
                ctx.fail("campaign readback differs from makeReference");
        } catch (const std::exception &e) {
            ctx.fail(std::string("migrate campaign threw: ") + e.what());
        }
        ctx.guestInsts += insts;
        ctx.addEnv(src->env());
        ctx.addMachine(src->machine(), "fast");
    }

    static migrate::MigrationResult
    stopAndCopy(Ctx &ctx, chaos::Rig &src, chaos::Rig &dst,
                const migrate::MigrationConfig &cfg)
    {
        Tracer &tr = ctx.tracer;
        std::vector<Byte> image =
            tr.span("sim.snapshot.checkpoint", [&] { return src.checkpoint(); });
        return tr.span("core.migrate.migrate_image", [&] {
            return migrate::migrateImage(
                image,
                [&](const std::vector<Byte> &received) {
                    tr.span("sim.snapshot.restore",
                            [&] { dst.restore(received); });
                },
                cfg);
        });
    }

    static void record(Ctx &ctx, const migrate::MigrationResult &r,
                       bool precopy)
    {
        ctx.opCycles.push_back(r.downtimeCycles);
        ctx.count("core.migrate.downtime_cycles", r.downtimeCycles);
        ctx.count("core.migrate.chunks", r.transport.chunksTotal);
        ctx.count("core.migrate.frames", r.transport.framesSent);
        ctx.count("core.migrate.retries", r.transport.retries);
        ctx.count("core.migrate.bytes_moved", r.bytesMoved);
        if (precopy) {
            ctx.count("core.migrate.precopy_moves", 1);
        } else {
            ctx.count("core.migrate.stop_copy_moves", 1);
            ctx.count("sim.snapshot.image_bytes", r.bytesMoved);
        }
    }

    /**
     * The stop-and-copy split is valid only while migrateRig is
     * exactly checkpoint + migrateImage: migrate a twin of @p src both
     * ways and require identical results and destination images.
     */
    void checkTwin(Ctx &ctx, chaos::Rig &src, unsigned salt)
    {
        auto twin = std::make_unique<chaos::Rig>();
        twin->restore(src.checkpoint());
        migrate::MigrationConfig cfg = linkConfig(mix(salt));
        chaos::Rig a, b;
        migrate::MigrationResult split = stopAndCopy(ctx, *twin, a, cfg);
        migrate::MigrationResult whole = migrate::migrateRig(*twin, b, cfg);
        if (!split.succeeded || !sameResult(split, whole) ||
            a.checkpoint() != b.checkpoint()) {
            ctx.fail("migrateRig is no longer checkpoint + migrateImage");
        }
    }

    chaos::Reference reference_;
    std::unique_ptr<chaos::Rig> first_;
    unsigned migrations_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeMigrateWorkload()
{
    return std::make_unique<MigrateWorkload>();
}

} // namespace perfbench
