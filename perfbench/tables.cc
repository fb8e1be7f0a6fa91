/**
 * @file
 * Workload `tables`: regenerate Tables 1-3 the way results/regen.sh
 * does — the paper's protocol over the 18 SPEC95 stand-ins, sharded
 * timing with a result cache shared by the three tables — through
 * the library's public calls. Set-up generates the stand-ins, once per
 * machine. One round is one full regeneration from those programs and
 * an empty cache; a run repeats whole rounds until its time is up. A
 * row's time is its fastest over the rounds, and the regeneration time
 * is the sum over the rows (OpTimes).
 *
 * Per table row (one program under one table's protocol):
 *   [Table 2: edit::buildRoutines + edit::rewrite (reschedule first),
 *   timed original and base] -> edit::BatchRewriter (analysis) ->
 *   rewriteAll({SlowProfile, Sched}) -> sim::runSharded of base,
 *   instrumented and scheduled -> a functional run for the average
 *   block size, which is also the benchmark's reference block count
 *   for the qpt counter check.
 *
 * The inputs are the paper's fixed stand-ins, so the seed does not
 * change them; it picks which image gets the serial cross-check.
 */

#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>

#include <unistd.h>

#include "bench.hh"
#include "checks.hh"
#include "src/eel/batch.hh"
#include "src/eel/editor.hh"
#include "src/machine/model.hh"
#include "src/obs/slotfill.hh"
#include "src/obs/stall.hh"
#include "src/qpt/profiler.hh"
#include "src/sim/resultcache.hh"
#include "src/sim/shard.hh"
#include "src/sim/timing.hh"
#include "src/support/thread_pool.hh"
#include "src/workload/generator.hh"
#include "src/workload/spec.hh"

namespace perfbench {

using namespace eel;

namespace {

/** Dynamic scale of the stand-ins: results/regen.sh uses 1; this
 *  keeps a round under two seconds so a run holds many. */
constexpr double kScale = 0.1;
/** results/regen.sh's --shard-interval. */
constexpr uint64_t kShardInterval = 65536;

struct TableDef
{
    const char *machine;
    bool rescheduleFirst;
};
constexpr TableDef kTables[] = {
    {"ultrasparc", false},  // Table 1
    {"ultrasparc", true},   // Table 2
    {"supersparc", false},  // Table 3
};

/** A generated stand-in. */
struct Input
{
    workload::BenchmarkSpec spec;
    exe::Executable image;
};

/** Per-round accumulators (what the metrics are computed from). */
struct RoundTotals
{
    double seconds = 0;
    unsigned rows = 0;
    int64_t hiddenNum = 0;  ///< sum of (inst - sched) cycles
    int64_t hiddenDen = 0;  ///< sum of (inst - base) cycles
    uint64_t variants = 0, variantTextBytes = 0;
    // Layer counters (reported by traced runs).
    double captureS = 0, replayS = 0;
    /** Runs that simulated every shard: instructions and seconds. */
    uint64_t simulatedInsts = 0;
    double simulatedS = 0;
    uint64_t emptySlots = 0;
    obs::StallBreakdown schedStalls;
    sim::ResultCache::Stats cache;
    uint64_t diskBytes = 0;
};

class Regenerator
{
  public:
    /** Set-up: the machine models, the one-worker pool, and every
     *  stand-in generated once per machine (Tables 1 and 2 share the
     *  UltraSPARC programs). */
    Regenerator(const Options &opts, Report &rep)
        : opts(opts), rep(rep), pool(1)
    {
        for (const TableDef &tab : kTables) {
            std::vector<Input> &in = inputs[tab.machine];
            if (!in.empty())
                continue;
            const machine::MachineModel &m =
                machine::MachineModel::builtin(tab.machine);
            for (const workload::BenchmarkSpec &spec :
                 workload::spec95(tab.machine))
                in.push_back({spec, generate(spec, m)});
        }
    }

    /** One whole regeneration from an empty cache in `cacheDir`;
     *  each row's time goes to `times`. */
    RoundTotals
    round(const std::string &cacheDir, OpTimes &times)
    {
        RoundTotals t;
        Stopwatch sw;
        {
            sim::ResultCache cache(sim::ResultCache::Config{cacheDir, nullptr});
            for (const TableDef &tab : kTables) {
                const machine::MachineModel &m =
                    machine::MachineModel::builtin(tab.machine);
                for (const Input &in : inputs.at(tab.machine)) {
                    Stopwatch row;
                    runRow(tab, m, in, cache, t);
                    times.add(row.seconds());
                    ++t.rows;
                }
            }
            t.seconds = sw.seconds();
            t.cache = cache.stats();
        }
        times.endRound();
        t.diskBytes = directoryBytes(cacheDir);
        return t;
    }

    /** Sharded and serial timing agree on one image (outside the
     *  timed part): the seed picks the stand-in. */
    void
    crossCheck()
    {
        const TableDef &tab = kTables[0];
        const machine::MachineModel &m =
            machine::MachineModel::builtin(tab.machine);
        const std::vector<Input> &in = inputs.at(tab.machine);
        const Input &pick = in[opts.seed % in.size()];
        const exe::Executable &x = pick.image;
        sim::TimingSim::Config tcfg;
        tcfg.collectStalls = true;
        sim::TimedRun serial = sim::timedRun(x, m, tcfg);
        sim::ShardOptions so = shardOptions(nullptr);
        sim::ShardedRun sharded = sim::runSharded(x, m, so);
        rep.check(check::shardedEqualsSerial(pick.spec.name, sharded.cycles,
                                             serial.cycles));
    }

  private:
    exe::Executable
    generate(const workload::BenchmarkSpec &spec,
             const machine::MachineModel &m)
    {
        Span s("workload.generate");
        workload::GenOptions g;
        g.scale = kScale;
        g.machine = &m;
        return workload::generate(spec, g);
    }

    sim::ShardOptions
    shardOptions(sim::ResultCache *cache)
    {
        sim::ShardOptions so;
        so.interval = kShardInterval;
        so.pool = &pool;
        so.timing.collectStalls = true;
        so.cache = cache;
        return so;
    }

    sim::ShardedRun
    timed(const exe::Executable &x, const machine::MachineModel &m,
          sim::ResultCache &cache, RoundTotals &t, const std::string &what)
    {
        sim::ShardedRun r;
        Stopwatch sw;
        {
            Span s("sim.timing");
            r = sim::runSharded(x, m, shardOptions(&cache));
        }
        const double seconds = sw.seconds();
        t.captureS += r.stats.captureSec;
        t.replayS += r.stats.replaySec;
        // Runs the cache answered in whole or in part simulated fewer
        // instructions than they report; the rate leaves them out.
        if (!r.stats.cachedRun && r.stats.cachedShards == 0) {
            t.simulatedInsts += r.result.instructions;
            t.simulatedS += seconds;
        }
        rep.check(check::issueBound(what, r.cycles, r.result.instructions,
                                    m.issueWidth()));
        return r;
    }

    void
    runRow(const TableDef &tab, const machine::MachineModel &m,
           const Input &in, sim::ResultCache &cache, RoundTotals &t)
    {
        Span row("bench.row");
        const std::string name =
            std::string(tab.machine) + (tab.rescheduleFirst ? "+resched/" : "/") +
            in.spec.name;
        const exe::Executable &original = in.image;
        exe::Executable base = original;
        std::optional<sim::RunResult> originalResult;

        if (tab.rescheduleFirst) {
            std::vector<edit::Routine> routines0;
            {
                Span s("eel.analyze");
                routines0 = edit::buildRoutines(original);
            }
            edit::EditOptions eo;
            eo.schedule = true;
            eo.model = &m;
            eo.pool = &pool;
            {
                Span s("eel.rewrite");
                base = edit::rewrite(original, routines0,
                                     edit::InstrumentationPlan{}, eo);
            }
            originalResult =
                timed(original, m, cache, t, name + " original").result;
            timed(base, m, cache, t, name + " rescheduled");
        }

        obs::SlotFillAudit audit;
        edit::BatchOptions bo;
        bo.model = &m;
        bo.sched.audit = &audit;
        bo.pool = &pool;
        std::optional<edit::BatchRewriter> rw;
        {
            Span s("eel.analyze");
            rw.emplace(base, bo);
        }
        edit::BatchResult batch;
        {
            Span s("eel.rewrite");
            batch = rw->rewriteAll({edit::VariantKind::SlowProfile,
                                    edit::VariantKind::Sched});
        }
        const exe::Executable &inst = batch.variants[0].image;
        const exe::Executable &sched = batch.variants[1].image;

        sim::ShardedRun rBase = timed(base, m, cache, t, name + " base");
        sim::ShardedRun rInst = timed(inst, m, cache, t, name + " inst");
        sim::ShardedRun rSched = timed(sched, m, cache, t, name + " sched");

        BlockProfile ref;
        {
            Span s("sim.emulate");
            ref = profileBlocks(base, batch.routines);
        }

        const sim::RunResult &orig =
            originalResult ? *originalResult : ref.result;
        rep.check(check::sameBehaviour(name + " base", orig, rBase.result));
        rep.check(check::sameBehaviour(name + " inst", orig, rInst.result));
        rep.check(check::sameBehaviour(name + " sched", orig, rSched.result));
        rep.check(check::countersMatch(
            name + " inst", qpt::readCounts(rInst.finalState, batch.profilePlan),
            ref.perBlock));
        rep.check(check::countersMatch(
            name + " sched",
            qpt::readCounts(rSched.finalState, batch.profilePlan),
            ref.perBlock));
        rep.check(check::instrumentationCosts(name, rInst.cycles, rBase.cycles));

        t.hiddenNum += int64_t(rInst.cycles) - int64_t(rSched.cycles);
        t.hiddenDen += int64_t(rInst.cycles) - int64_t(rBase.cycles);
        t.variants += tab.rescheduleFirst ? 3 : 2;
        t.variantTextBytes += 4 * (inst.text.size() + sched.text.size() +
                                   (tab.rescheduleFirst ? base.text.size() : 0));
        t.emptySlots += audit.snapshot().total();
        for (unsigned i = 0; i < obs::numStallReasons; ++i)
            t.schedStalls.cycles[i] += rSched.stallBreakdown.cycles[i];
        ++rep.attempted;
    }

    const Options &opts;
    Report &rep;
    support::ThreadPool pool;
    std::map<std::string, std::vector<Input>> inputs;  ///< by machine
};

} // namespace

void
runTables(const Options &opts, Report &rep)
{
    Regenerator regen(opts, rep);
    const double setupS = nowS();

    namespace fs = std::filesystem;
    const std::string cacheRoot =
        std::string(kOutDir) + "/rescache-" + std::to_string(getpid());
    fs::remove_all(cacheRoot);

    std::vector<RoundTotals> rounds;
    std::vector<Window> windows;
    OpTimes times;
    const double deadline = nowS() + opts.seconds;
    unsigned k = 0;
    do {
        std::string dir = cacheRoot + "/round" + std::to_string(k++);
        Window w{trace::threadIndex(), nowNs(), 0};
        rounds.push_back(regen.round(dir, times));
        w.endNs = nowNs();
        std::fprintf(stderr, "perfbench: tables round %u: %.3f s\n", k,
                     rounds.back().seconds);
        windows.push_back(w);
        fs::remove_all(dir);
    } while (nowS() < deadline);
    fs::remove_all(cacheRoot);
    regen.crossCheck();

    const RoundTotals &r0 = rounds.front();
    // Each row's time is its fastest over the rounds (OpTimes), so slow
    // phases of other tenants on a shared host do not count.
    const double regenS = times.round();
    const double rows = double(r0.rows);

    if (!opts.trace) {
        rep.add("setup_s", setupS, "s");
        rep.add("regen_s", regenS, "s");
        rep.add("variants_per_s", double(r0.variants) / regenS, "1/s");
        rep.add("requests_per_s", rows / regenS, "1/s");
        rep.add("p50_ms", regenS / rows * 1e3, "ms");
        rep.add("hidden_pct", 100.0 * double(r0.hiddenNum) / double(r0.hiddenDen), "%");
        rep.add("variant_text_kb",
                double(r0.variantTextBytes) / double(r0.variants) / 1024.0, "KiB");
        rep.add("peak_rss_mb", peakRssMb(), "MB");
        return;
    }

    // Traced run: per-layer figures per round (medians over rounds
    // for times, the first round for counts, which repeat exactly).
    auto spans = trace::spans();
    auto perRound = [&](const char *name) {
        std::vector<double> v;
        for (const Window &w : windows)
            v.push_back(trace::total(spans, name, {w}));
        return median(v);
    };
    const double timingS = perRound("sim.timing");
    std::vector<double> capture, replay, minstPerS;
    for (const RoundTotals &r : rounds) {
        capture.push_back(r.captureS);
        replay.push_back(r.replayS);
        minstPerS.push_back(double(r.simulatedInsts) / r.simulatedS * 1e-6);
    }
    rep.add("workload.generate_s",
            trace::total(spans, "workload.generate",
                         {{trace::threadIndex(), 0, int64_t(setupS * 1e9)}}),
            "s");
    rep.add("eel.analyze_s", perRound("eel.analyze"), "s");
    rep.add("eel.rewrite_s", perRound("eel.rewrite"), "s");
    rep.add("sim.emulate_s", perRound("sim.emulate"), "s");
    rep.add("sim.timing_s", timingS, "s");
    rep.add("sim.timing_minst_per_s", median(minstPerS), "Minst/s");
    rep.add("sim.capture_s", median(capture), "s");
    rep.add("sim.replay_s", median(replay), "s");
    rep.add("sim.rescache_hits", double(r0.cache.hits), "count");
    rep.add("sim.rescache_misses", double(r0.cache.misses), "count");
    rep.add("sim.rescache_disk_mb", double(r0.diskBytes) / 1e6, "MB");
    rep.add("sched.empty_slots", double(r0.emptySlots), "count");
    for (unsigned i = 0; i < obs::numStallReasons; ++i) {
        auto reason = obs::StallReason(i);
        if (reason == obs::StallReason::ICacheMiss)
            continue;  // perfect-cache runs: always 0
        rep.add(std::string("machine.stall_") + obs::stallReasonName(reason),
                double(r0.schedStalls.cycles[i]), "cycles");
    }
    rep.add("trace.coverage_pct", trace::coverage(spans, windows), "%");
    rep.add("trace.regen_s", regenS, "s");
}

} // namespace perfbench
