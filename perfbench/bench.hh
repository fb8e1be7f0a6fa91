/**
 * @file
 * Shared pieces of the perfbench program: the run options, the
 * in-memory span recorder used by traced runs, the report a run
 * prints, and small statistics helpers.
 *
 * A span is recorded around each call the benchmark makes into a
 * layer of the program (workload, eel, qpt, sched, sim, exe, svc).
 * Spans carry a name, start, end and the id of the enclosing span;
 * they stay in memory until the run ends and are then written out as
 * Chrome trace_event JSON. Untraced runs record nothing.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** Scratch files and traces, relative to the repository root the
 *  benchmark runs from. */
constexpr const char *kOutDir = ".bench_build/perfbench-out";

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

/** Nanoseconds since the process started (static initialization). */
int64_t nowNs();
inline double
nowS()
{
    return double(nowNs()) * 1e-9;
}

/** A half-open time window [startNs, endNs) on one thread. */
struct Window
{
    uint32_t thread = 0;
    int64_t startNs = 0, endNs = 0;
};

struct SpanRecord
{
    const char *name = nullptr;
    int64_t startNs = 0, endNs = 0;
    uint64_t id = 0;      ///< (thread << 32) | per-thread sequence
    uint64_t parent = 0;  ///< 0 = top level
    uint32_t thread = 0;
};

namespace trace {

/** Turn span recording on for the rest of the process. */
void enable();
bool enabled();
/** Small dense id of the calling thread (0 = first to ask). */
uint32_t threadIndex();
/** Every span recorded so far, on every thread. Call once the
 *  recording threads have finished. */
std::vector<SpanRecord> spans();
/** Write spans() as Chrome trace_event JSON. */
bool write(const std::string &path);

/** Summed duration (s) of spans named `name` inside the windows. */
double total(const std::vector<SpanRecord> &all, const std::string &name,
             const std::vector<Window> &windows);
/**
 * Share of the windows' wall time covered by layer spans (any span
 * whose name does not start with "bench."), overlapping spans on one
 * thread counted once. The ledger's completeness check.
 */
double coverage(const std::vector<SpanRecord> &all,
                const std::vector<Window> &windows);

} // namespace trace

/** RAII span; a no-op unless tracing is enabled. */
class Span
{
  public:
    explicit Span(const char *name);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    size_t slot = ~size_t(0);
};

/** Wall-clock stopwatch on the steady clock. */
class Stopwatch
{
  public:
    Stopwatch() : t0(nowNs()) {}
    double seconds() const { return double(nowNs() - t0) * 1e-9; }
    double ms() const { return double(nowNs() - t0) * 1e-6; }

  private:
    int64_t t0;
};

/**
 * Times of the operations of a run's rounds. Every round runs the same
 * operations in the same order, so the i-th operation of each round is
 * one more sample of the same work. An operation's time is the fastest
 * of its samples, and a round's time is the sum of those over its
 * operations. On a shared host other tenants slow memory-bound code by
 * up to 60%, in phases of seconds to minutes; such a phase slows some
 * samples of every operation and leaves its fastest, whereas a change
 * that slows an operation slows every one of its samples (README.md).
 */
class OpTimes
{
  public:
    /** Record the time of the current round's next operation. */
    void add(double seconds);
    /** End the current round; the next add() is operation 0 again. */
    void endRound();
    size_t rounds() const { return byOp.empty() ? 0 : byOp[0].size(); }
    size_t ops() const { return byOp.size(); }
    /** Operation i's time: the fastest of its samples. */
    double op(size_t i) const;
    /** A round's time: the sum of every operation's time. */
    double round() const;

  private:
    std::vector<std::vector<double>> byOp;
    size_t next = 0;
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What one run reports: the JSON object on stdout's last line. */
struct Report
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> errors;  ///< failed output checks
    std::vector<Metric> metrics;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    /** Record a failed output check ("" = the check held). */
    void check(const std::string &error)
    {
        if (!error.empty() && errors.size() < 50)
            errors.push_back(error);
    }
    bool correct() const { return errors.empty(); }
    std::string json() const;
};

/** Linearly interpolated percentile, p in [0, 1]. */
double percentile(std::vector<double> v, double p);
inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

/** Peak resident set size of this process, MB. */
double peakRssMb();

/** Bytes of regular files under dir (recursive); 0 if absent. */
uint64_t directoryBytes(const std::string &dir);

/** Per-workload entry points (tables.cc, rewrite.cc, service.cc).
 *  Each times its set-up from nowNs() == 0, the process start. */
void runTables(const Options &opts, Report &rep);
void runRewrite(const Options &opts, Report &rep);
void runService(const Options &opts, Report &rep);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
