/**
 * @file
 * Harness pieces that need more than a header: span totals and
 * output, and the simulated-count accumulators.
 */

#include "harness.h"

#include <cstdio>

#include "sim/cache.h"

namespace perfbench {

std::map<std::string, Tracer::Total>
Tracer::totals() const
{
    std::map<std::string, Total> out;
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            child_s[std::size_t(s.parent)] += (s.endNs - s.startNs) * 1e-9;
    }
    for (std::size_t i = 0; i < spans_.size(); i++) {
        const Span &s = spans_[i];
        Total &t = out[s.name];
        double d = (s.endNs - s.startNs) * 1e-9;
        t.totalS += d;
        t.selfS += d - child_s[i];
        t.calls++;
    }
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "index\tname\tstart_ns\tend_ns\tparent\n");
    for (std::size_t i = 0; i < spans_.size(); i++) {
        const Span &s = spans_[i];
        std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%d\n", i, s.name,
                     static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs), s.parent);
    }
    return std::fclose(f) == 0;
}

const char *
modeLabel(uexc::rt::DeliveryMode mode)
{
    switch (mode) {
      case uexc::rt::DeliveryMode::UltrixSignal: return "ultrix";
      case uexc::rt::DeliveryMode::FastSoftware: return "fast";
      case uexc::rt::DeliveryMode::FastHardwareVector: return "hwvec";
    }
    return "?";
}

void
Ctx::fail(const std::string &what)
{
    if (failed < 5)
        std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    failed++;
}

void
Ctx::addMachine(uexc::sim::Machine &machine, const std::string &mode)
{
    uexc::sim::Cpu &cpu = machine.cpu();
    const uexc::sim::CpuStats &st = cpu.stats();
    count("sim.cpu.insts", st.instructions);
    count("sim.cpu.cycles", cpu.cycles());
    count("sim.cpu.exceptions", st.exceptionsTaken);
    count("sim.cpu.tlb_refill_faults", st.tlbRefillFaults);
    count("sim.cpu.user_vectored", st.userVectoredExceptions);
    if (!mode.empty()) {
        count("sim.cpu.insts." + mode, st.instructions);
        count("sim.cpu.exceptions." + mode, st.exceptionsTaken);
    }
    count("sim.tlb.lookups", cpu.tlb().stats().lookups);
    count("sim.tlb.misses", cpu.tlb().stats().misses);
    if (uexc::sim::Cache *ic = cpu.icache()) {
        count("sim.cache.i_accesses", ic->stats().accesses);
        count("sim.cache.i_misses", ic->stats().misses);
    }
    if (uexc::sim::Cache *dc = cpu.dcache()) {
        count("sim.cache.d_accesses", dc->stats().accesses);
        count("sim.cache.d_misses", dc->stats().misses);
    }
}

void
Ctx::addEnv(const uexc::rt::UserEnv &env)
{
    const uexc::rt::EnvStats &st = env.stats();
    count("core.env.accesses", st.loads + st.stores);
    count("core.env.faults", st.faultsDelivered);
    count("core.env.demotions", st.deliveryDemoted);
    count("core.env.guest_syscalls", st.guestSyscalls);
}

} // namespace perfbench
