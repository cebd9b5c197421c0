/**
 * @file
 * The benchmark harness shared by every workload: the span tracer,
 * the per-run context that collects host latencies, simulated counts
 * and oracle failures, and the statistics the report is built from.
 *
 * Two kinds of number flow through a Ctx and are never mixed:
 *  - host time (op latencies, spans), which is noisy;
 *  - simulated counts (cycles, instructions, TLB and cache stats),
 *    which are deterministic and repeat exactly.
 */

#ifndef UEXC_PERFBENCH_HARNESS_H
#define UEXC_PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/env.h"
#include "sim/machine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** splitmix64: the one seed mixer every input generator derives from. */
inline std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Small deterministic generator for the seeded input streams. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(mix(seed)) {}
    std::uint64_t next() { return state_ = mix(state_); }
    /** Uniform in [0, n). */
    unsigned below(unsigned n) { return unsigned(next() % n); }

    template <typename T>
    void shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; i--)
            std::swap(v[i - 1], v[below(unsigned(i))]);
    }

  private:
    std::uint64_t state_;
};

/** One recorded call into a layer's public function. */
struct Span
{
    const char *name;
    std::int64_t startNs;
    std::int64_t endNs;
    std::int32_t parent;  ///< index of the enclosing span, -1 at top
};

/**
 * Records a span around every call the benchmark makes into a layer.
 * Disabled, a scope costs one branch; enabled, spans are appended to
 * an in-memory vector and written out once the run ends.
 */
class Tracer
{
  public:
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name) : t_(t)
        {
            if (!t_.enabled_)
                return;
            index_ = std::int32_t(t_.spans_.size());
            t_.spans_.push_back({name, t_.now(), 0, t_.current_});
            t_.current_ = index_;
        }
        ~Scope()
        {
            if (index_ < 0)
                return;
            Span &s = t_.spans_[std::size_t(index_)];
            s.endNs = t_.now();
            t_.current_ = s.parent;
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t_;
        std::int32_t index_ = -1;
    };

    void enable(bool on) { enabled_ = on; }
    const std::vector<Span> &spans() const { return spans_; }

    /** Run @p fn inside a span named @p name; returns fn's result. */
    template <typename Fn>
    decltype(auto) span(const char *name, Fn &&fn)
    {
        Scope scope(*this, name);
        return fn();
    }

    /** Total and self (total minus direct children) time and call
     *  count of every span name. */
    struct Total
    {
        double totalS = 0;
        double selfS = 0;
        std::uint64_t calls = 0;
    };
    std::map<std::string, Total> totals() const;

    /** Write every span as one tab-separated line. */
    bool write(const std::string &path) const;

  private:
    std::int64_t now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
            .count();
    }

    bool enabled_ = false;
    std::int32_t current_ = -1;
    std::vector<Span> spans_;
    Clock::time_point epoch_ = Clock::now();
};

/** Delivery-mode label used in metric names. */
const char *modeLabel(uexc::rt::DeliveryMode mode);

/**
 * What one run collects. Workloads add host latencies (opUs), per-op
 * simulated cycles (opCycles), named simulated counts, and oracle
 * failures; main.cc turns them into metrics.
 */
struct Ctx
{
    Tracer tracer;
    /** Set for the seed-independent reference round, whose simulated
     *  counts become the exact metrics. */
    bool reference = false;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<double> opUs;
    std::vector<std::uint64_t> opCycles;
    /** Named simulated counts of the current round. */
    std::map<std::string, std::uint64_t> counts;
    /** Guest instructions retired by every machine of the run. */
    std::uint64_t guestInsts = 0;

    /** Record an oracle failure (one failed op). */
    void fail(const std::string &what);

    /** Add a machine's simulated totals to counts; @p mode names the
     *  delivery mode its exceptions used ("" when none applies). */
    void addMachine(uexc::sim::Machine &machine, const std::string &mode);
    /** Add a UserEnv's statistics to counts. */
    void addEnv(const uexc::rt::UserEnv &env);

    void count(const std::string &name, std::uint64_t n)
    {
        counts[name] += n;
    }
};

/** A named workload. setup() may be called several times; each call
 *  replaces whatever the previous one built. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build everything the first timed op needs. */
    virtual void setup(Ctx &ctx) = 0;

    /**
     * Run one round of ops, with inputs drawn from @p seed. The first
     * round after setup() uses what setup() built.
     */
    virtual void round(Ctx &ctx, std::uint64_t seed) = 0;

    /** Print the paper's figures beside this run's simulated results
     *  (called after the reference round). */
    virtual void report(const Ctx &ctx) const { (void)ctx; }

    /** Release everything built by setup() and round(), adding the
     *  simulated totals of machines still alive to ctx.counts. */
    virtual void teardown(Ctx &ctx) = 0;
};

std::unique_ptr<Workload> makeGcWorkload();
std::unique_ptr<Workload> makeExcWorkload();
std::unique_ptr<Workload> makeMigrateWorkload();
std::unique_ptr<Workload> makeProcWorkload();

/** Time one op: run @p fn, record its host latency in ctx.opUs. */
template <typename Fn>
void
timeOp(Ctx &ctx, Fn &&fn)
{
    Clock::time_point start = Clock::now();
    fn();
    ctx.opUs.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count());
}

} // namespace perfbench

#endif // UEXC_PERFBENCH_HARNESS_H
