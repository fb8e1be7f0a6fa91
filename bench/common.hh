/**
 * @file
 * Shared driver for the table-reproduction benches: runs the paper's
 * measurement protocol (§4.2) over the 18 synthetic SPEC95 stand-ins
 * and prints rows in the layout of Tables 1-3.
 */

#ifndef EEL_BENCH_COMMON_HH
#define EEL_BENCH_COMMON_HH

#include <string>
#include <vector>

#include "src/machine/model.hh"
#include "src/obs/slotfill.hh"
#include "src/obs/stall.hh"
#include "src/sched/scheduler.hh"
#include "src/sim/resultcache.hh"
#include "src/support/thread_pool.hh"

namespace eel::bench {

struct Row
{
    std::string name;
    bool fp;
    double avgBlockSize;  ///< measured dynamic average
    double uninstSec;
    double uninstRatioToOriginal = 1.0;  ///< Table 2's extra column
    double instSec;
    double instRatio;
    double schedSec;
    double schedRatio;
    double pctHidden;

    /**
     * Stall attribution per image (always collected by the table
     * runs; the invariant breakdown.total() == stallCycles is
     * checked per run). Serial and sharded runs produce identical
     * values for the default perfect-cache config.
     */
    obs::StallBreakdown baseStalls, instStalls, schedStalls;
    uint64_t baseStallCycles = 0;
    uint64_t instStallCycles = 0;
    uint64_t schedStallCycles = 0;
    /** Scheduler slot-fill audit over the scheduled image's rewrite. */
    obs::SlotFillCounts audit;
};

struct TableOptions
{
    std::string machine = "ultrasparc";
    /**
     * Table 2 protocol: EEL first reschedules the benchmark without
     * instrumentation; ratios and hiding are measured against that
     * baseline.
     */
    bool rescheduleFirst = false;
    double scale = 1.0;
    /**
     * Machine model EEL's scheduler uses; empty = same as the
     * hardware. The paper's scheduler was "currently configured for
     * the SPARC version 8 instruction set" (§4.2): on the
     * UltraSPARC it scheduled with older-generation timing, which
     * is why Table 1's floating point results suffer from
     * de-scheduling that Table 2 factors out.
     */
    std::string schedMachine;
    sched::SchedOptions sched;
    /** Restrict to one benchmark by name ("" = all). */
    std::string only;
    /**
     * Worker threads for the edit -> schedule -> simulate pipeline:
     * runTable runs benchmarks concurrently and each rewrite
     * schedules its routines on the same pool. 0 = hardware
     * concurrency, 1 = serial. Results are gathered in suite order,
     * so the printed table is identical for every jobs value.
     */
    unsigned jobs = 0;
    /**
     * Shard each timing simulation every N dynamic instructions and
     * replay the shards on the pool (sim::runSharded). 0 = serial
     * timedRun. Sharded results merge in shard order, so the table
     * is byte-identical either way; this trades one extra functional
     * pass for replays that spread across the jobs. The pool shares
     * work across nesting levels, so the benchmark × shard fan-out
     * saturates the jobs even when few benchmarks remain (or with
     * --only, where the outer level is a single item).
     */
    uint64_t shardInterval = 0;
    /**
     * Content-addressed result cache for the sharded timing runs
     * (sim::ResultCache): "" = off, otherwise the disk-tier
     * directory, persisted across processes so a regeneration after
     * an edit pays only for the shards that execute changed pages.
     * Cached tables are byte-identical to cold ones. Only the
     * sharded path consults it, so set shardInterval too.
     */
    std::string resultCacheDir;
    /** Cache instance to use instead of constructing one from
     *  resultCacheDir (embedding callers; not a CLI flag). */
    sim::ResultCache *cache = nullptr;
    /**
     * Observability outputs (all optional). --trace enables span
     * collection for the whole run and writes a Chrome trace_event
     * JSON (load into Perfetto / chrome://tracing); --json mirrors
     * the printed table as structured JSON; --breakdown writes the
     * per-benchmark stall histograms and slot-fill audit as text.
     */
    std::string tracePath;
    std::string jsonPath;
    std::string breakdownPath;
};

/** Parse --machine/--scale/--resched-first/--only/--jobs/
 *  --shard-interval/--result-cache/--trace/--json/--breakdown from
 *  argv. --trace enables tracing immediately. */
TableOptions parseArgs(int argc, char **argv);

/**
 * Run the full measurement for one benchmark spec index. A non-null
 * pool parallelizes the rewrite's per-routine scheduling (it runs
 * inline when already on a pool worker).
 */
Row runBenchmark(const TableOptions &opts, size_t index,
                 support::ThreadPool *pool = nullptr);

/** Run all benchmarks of the suite. */
std::vector<Row> runTable(const TableOptions &opts);

/** Render the table in the paper's layout, with CINT/CFP averages. */
std::string formatTable(const std::string &title,
                        const std::vector<Row> &rows);

/** Print formatTable to stdout. */
void printTable(const std::string &title,
                const std::vector<Row> &rows);

/** Render the per-benchmark stall-reason histograms and slot-fill
 *  audit as text (the --breakdown payload). */
std::string formatBreakdown(const std::string &title,
                            const std::vector<Row> &rows);

/** Render the table as structured JSON (the --json payload). */
std::string tableJson(const std::string &title,
                      const TableOptions &opts,
                      const std::vector<Row> &rows);

/**
 * Write the optional observability outputs of one table run:
 * opts.jsonPath (tableJson), opts.breakdownPath (formatBreakdown),
 * opts.tracePath (obs::writeTrace). No-ops for unset paths.
 */
void emitOutputs(const TableOptions &opts, const std::string &title,
                 const std::vector<Row> &rows);

} // namespace eel::bench

#endif // EEL_BENCH_COMMON_HH
