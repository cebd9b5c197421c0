/**
 * @file
 * Workload `proc`: short jobs. Each job builds a fresh default
 * Machine, boots the kernel, execve's one of the six ELF programs
 * checked in under user/fixtures with argv[1] = "u" (fast user-level
 * delivery) or "s" (Unix signals), and runs it to exit. One round is
 * every program in both modes, in seeded order. An op is one job.
 *
 * Oracle: every job exits kExitOk; hello and forktest print their
 * expected console output, and forktest leaves its file in the VFS.
 */

#include <cstdio>

#include "core/userprogs.h"
#include "harness.h"
#include "os/elf.h"

using namespace uexc;

namespace perfbench {
namespace {

constexpr InstCount kMaxInsts = 4'000'000;

struct Job
{
    unsigned program;
    bool userVectored;
};

class ProcWorkload : public Workload
{
  public:
    void setup(Ctx &) override
    {
        images_.clear();
        for (const std::string &name : rt::userprog::programNames()) {
            images_.push_back(
                os::loadElfFile("user/fixtures/" + name + ".elf"));
        }
    }

    void round(Ctx &ctx, std::uint64_t seed) override
    {
        std::vector<Job> jobs;
        for (unsigned p = 0; p < images_.size(); p++) {
            jobs.push_back({p, true});
            jobs.push_back({p, false});
        }
        Rng(seed).shuffle(jobs);
        for (const Job &job : jobs)
            runJob(ctx, job);
    }

    void report(const Ctx &ctx) const override
    {
        // the compiled-binary form of the paper's claim: each scenario
        // costs fewer cycles under user-level delivery than under signals
        std::printf("# scenario cycles (reference round), signals / "
                    "user-level delivery:\n");
        for (const char *name : {"gcbar", "swizzle", "futures"}) {
            std::string k = std::string("sim.cpu.cycles.") + name;
            auto u = ctx.counts.find(k + ".u");
            auto s = ctx.counts.find(k + ".s");
            if (u == ctx.counts.end() || s == ctx.counts.end())
                continue;
            std::printf("#   %-8s s %llu, u %llu cycles: ratio %.2f\n", name,
                        static_cast<unsigned long long>(s->second),
                        static_cast<unsigned long long>(u->second),
                        double(s->second) / double(u->second));
        }
    }

    void teardown(Ctx &) override { images_.clear(); }

  private:
    void runJob(Ctx &ctx, const Job &job)
    {
        Tracer &tr = ctx.tracer;
        const std::string &name = rt::userprog::programNames()[job.program];
        const std::string mode = job.userVectored ? "u" : "s";
        std::unique_ptr<sim::Machine> machine;
        std::unique_ptr<os::Kernel> kernel;
        sim::MachineRunResult r;
        ctx.attempted++;
        try {
            timeOp(ctx, [&] {
                machine = tr.span("sim.machine.ctor", [] {
                    return std::make_unique<sim::Machine>();
                });
                kernel = std::make_unique<os::Kernel>(*machine);
                tr.span("os.kernel.boot", [&] { kernel->boot(); });
                os::Process &p = kernel->createProcess();
                tr.span("os.kernel.execve", [&] {
                    kernel->execve(p, images_[job.program], {name, mode});
                });
                r = tr.span("sim.machine.run",
                            [&] { return machine->run(kMaxInsts); });
            });
            check(ctx, name + " " + mode, *kernel, r);
        } catch (const std::exception &e) {
            ctx.fail(name + " " + mode + " threw: " + e.what());
        }
        if (!machine)
            return;
        ctx.opCycles.push_back(machine->cpu().cycles());
        ctx.guestInsts += machine->cpu().instret();
        ctx.addMachine(*machine, job.userVectored ? "fast" : "ultrix");
        ctx.count("sim.cpu.cycles." + name + "." + mode,
                  machine->cpu().cycles());
    }

    static void check(Ctx &ctx, const std::string &job, os::Kernel &kernel,
                      const sim::MachineRunResult &r)
    {
        if (r.reason != sim::StopReason::Halted || !kernel.exited() ||
            kernel.exitCode() != rt::userprog::kExitOk) {
            ctx.fail(job + ": did not exit cleanly (code " +
                     std::to_string(kernel.exitCode()) + ")");
            return;
        }
        const std::string &out = kernel.consoleOutput();
        if (job.rfind("hello ", 0) == 0 && out != "hello, userland\n")
            ctx.fail(job + ": unexpected console output");
        if (job.rfind("forktest ", 0) == 0) {
            // the child wrote "hi!" plus a terminator into out.txt
            int idx = kernel.vfs().lookup("out.txt");
            if (out != "forktest ok\n") {
                ctx.fail(job + ": unexpected console output");
            } else if (idx < 0) {
                ctx.fail(job + ": out.txt missing");
            } else {
                const std::vector<Byte> &data =
                    kernel.vfs().file(unsigned(idx)).data;
                if (data.size() != 4 ||
                    std::string(data.begin(), data.end() - 1) != "hi!")
                    ctx.fail(job + ": out.txt holds the wrong bytes");
            }
        }
    }

    std::vector<os::GuestImage> images_;
};

} // namespace

std::unique_ptr<Workload>
makeProcWorkload()
{
    return std::make_unique<ProcWorkload>();
}

} // namespace perfbench
