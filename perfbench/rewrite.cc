/**
 * @file
 * Workload `rewrite`: stamp many distinct generated programs into
 * every rewriting tier and time each variant briefly. The programs
 * come from all 18 SPEC95 shapes under seed-derived generator seeds,
 * with a larger static footprint than the stand-ins (8-16 kernels
 * instead of 3) and a tiny dynamic scale, so eel, qpt and sched do
 * most of the work and the timing simulator little of it — the
 * reverse of `tables`.
 *
 * One round: per program, one edit::BatchRewriter (the CFG analysis)
 * and one rewriteAll call per tier — slow profiling, local,
 * superblock, superblock plus modulo — all interning into one
 * exe::SectionStore shared by the round, as a service REWRITE does;
 * then a timed run of each variant. Generating the programs is
 * set-up; the original's cycles are measured once, beside the
 * reference block counts, outside the timed part.
 *
 * The generator runs every kernel at least 200 iterations, so a
 * program's dynamic size has a floor that grows with its kernels as
 * its static size does: at the smallest dynamic scale the timed runs
 * still take about half of a round (README.md).
 */

#include <cstdio>
#include <optional>

#include "bench.hh"
#include "checks.hh"
#include "src/eel/batch.hh"
#include "src/exe/section_store.hh"
#include "src/machine/model.hh"
#include "src/qpt/profiler.hh"
#include "src/sim/timing.hh"
#include "src/support/thread_pool.hh"
#include "src/workload/generator.hh"
#include "src/workload/spec.hh"

namespace perfbench {

using namespace eel;

namespace {

constexpr const char *kMachine = "ultrasparc";
/** Generator seeds per shape: 18 x 3 = 54 programs a round. */
constexpr unsigned kGroups = 3;
/** Kernel routines per program, by group (the stand-ins have 3). */
constexpr unsigned kKernels[kGroups] = {8, 12, 16};
/** Dynamic scale: below the generator's floor of one call per
 *  kernel, so every run is as short as the program allows. */
constexpr double kScale = 0.003;

struct Tier
{
    edit::VariantKind kind;
    const char *span;  ///< layer span around its rewriteAll
};
constexpr Tier kTiers[] = {
    {edit::VariantKind::SlowProfile, "qpt.profile"},
    {edit::VariantKind::Sched, "sched.local"},
    {edit::VariantKind::Superblock, "sched.superblock"},
    {edit::VariantKind::Pipeline, "sched.pipeline"},
};
constexpr unsigned kNumTiers = sizeof(kTiers) / sizeof(kTiers[0]);

struct Program
{
    std::string name;
    exe::Executable image;
    BlockProfile reference;  ///< the benchmark's own block counts
    uint64_t baseCycles = 0;
    uint64_t staticBlocks = 0;
};

struct Timed
{
    sim::RunResult result;
    uint64_t cycles = 0;
    Counts counters;
};

/** sim::timedRun's body, kept inline so the qpt counters can be read
 *  out of the same emulator the timing ran on. */
Timed
timedRun(const exe::Executable &x, const machine::MachineModel &m,
         const qpt::ProfilePlan *plan)
{
    Span s("sim.timing");
    sim::Emulator emu(x);
    sim::TimingSim timing(m);
    Timed t;
    t.result = emu.run(timing);
    t.cycles = timing.cycles();
    if (plan)
        t.counters = qpt::readCounts(emu, *plan);
    return t;
}

struct RoundTotals
{
    double seconds = 0;
    uint64_t variants = 0, variantTextBytes = 0, storedBytes = 0;
    uint64_t scheduledBlocks = 0;
    uint64_t timedInsts = 0;
    int64_t instMinusTier[kNumTiers] = {};  ///< sum of (inst - tier) cycles
    int64_t instMinusBase = 0;
};

} // namespace

void
runRewrite(const Options &opts, Report &rep)
{
    // Set-up: the machine model and every input program.
    const machine::MachineModel &m = machine::MachineModel::builtin(kMachine);
    std::vector<workload::BenchmarkSpec> shapes = workload::spec95(kMachine);
    std::vector<Program> programs;
    for (unsigned g = 0; g < kGroups; ++g)
        for (const workload::BenchmarkSpec &shape : shapes) {
            workload::BenchmarkSpec spec = shape;
            spec.kernels = kKernels[g];
            spec.seed = opts.seed * 1000 + programs.size();
            workload::GenOptions gopts;
            gopts.scale = kScale;
            gopts.machine = &m;
            Program p;
            p.name = spec.name + "#" + std::to_string(spec.seed);
            Span s("workload.generate");
            p.image = workload::generate(spec, gopts);
            programs.push_back(std::move(p));
        }
    support::ThreadPool pool(1);
    const double setupS = nowS();

    // Reference pass, outside set-up and the timed part: the
    // benchmark's own block counts, and the original's cycles, which
    // every round would measure identically.
    for (Program &p : programs) {
        std::vector<edit::Routine> routines = edit::buildRoutines(p.image);
        p.reference = profileBlocks(p.image, routines);
        for (const edit::Routine &r : routines)
            p.staticBlocks += r.blocks.size();
        Timed base = timedRun(p.image, m, nullptr);
        rep.check(check::sameBehaviour(p.name + " base", p.reference.result,
                                       base.result));
        p.baseCycles = base.cycles;
    }

    std::vector<RoundTotals> rounds;
    std::vector<Window> windows;
    OpTimes times;
    const double deadline = nowS() + opts.seconds;
    do {
        RoundTotals t;
        Window w{trace::threadIndex(), nowNs(), 0};
        exe::SectionStore store;
        for (const Program &p : programs) {
            Span ps("bench.program");
            Stopwatch programSw;
            edit::BatchOptions bo;
            bo.model = &m;
            bo.pool = &pool;
            bo.store = &store;
            std::optional<edit::BatchRewriter> rw;
            {
                Span s("eel.analyze");
                rw.emplace(p.image, bo);
            }
            std::vector<exe::Executable> variants;
            uint64_t instCycles = 0;
            for (unsigned k = 0; k < kNumTiers; ++k) {
                edit::BatchResult res;
                {
                    Span s(kTiers[k].span);
                    res = rw->rewriteAll({kTiers[k].kind});
                }
                const exe::Executable &v = res.variants[0].image;
                Timed run = timedRun(v, m, &res.profilePlan);
                t.timedInsts += run.result.instructions;
                std::string what = p.name + " " + kTiers[k].span;
                rep.check(check::sameBehaviour(what, p.reference.result,
                                               run.result));
                rep.check(check::countersMatch(what, run.counters,
                                               p.reference.perBlock));
                if (k == 0) {
                    instCycles = run.cycles;
                    t.instMinusBase += int64_t(run.cycles) - int64_t(p.baseCycles);
                } else {
                    t.scheduledBlocks += p.staticBlocks;
                }
                t.instMinusTier[k] += int64_t(instCycles) - int64_t(run.cycles);
                t.variantTextBytes += 4 * v.text.size();
                variants.push_back(v);
            }
            std::vector<const exe::Executable *> set = {&p.image};
            for (const exe::Executable &v : variants)
                set.push_back(&v);
            t.storedBytes += exe::shareStats(set).storedBytes;
            t.variants += kNumTiers;
            ++rep.attempted;
            times.add(programSw.seconds());
        }
        times.endRound();
        w.endNs = nowNs();
        t.seconds = double(w.endNs - w.startNs) * 1e-9;
        windows.push_back(w);
        std::fprintf(stderr, "perfbench: rewrite round %zu: %.3f s\n",
                     rounds.size(), t.seconds);
        rounds.push_back(std::move(t));
    } while (nowS() < deadline);

    const RoundTotals &r0 = rounds.front();
    // Each program's time is its fastest over the rounds (OpTimes), so
    // slow phases of other tenants on a shared host do not count.
    const double regenS = times.round();
    auto hidden = [&](unsigned k) {
        return 100.0 * double(r0.instMinusTier[k]) / double(r0.instMinusBase);
    };

    if (!opts.trace) {
        rep.add("setup_s", setupS, "s");
        rep.add("regen_s", regenS, "s");
        rep.add("variants_per_s", double(r0.variants) / regenS, "1/s");
        rep.add("requests_per_s", double(programs.size()) / regenS, "1/s");
        rep.add("p50_ms", regenS / double(programs.size()) * 1e3, "ms");
        rep.add("hidden_pct", hidden(3), "%");
        rep.add("variant_text_kb",
                double(r0.variantTextBytes) / double(r0.variants) / 1024.0, "KiB");
        rep.add("peak_rss_mb", peakRssMb(), "MB");
        return;
    }

    auto spans = trace::spans();
    auto perRound = [&](const char *name) {
        std::vector<double> v;
        for (const Window &w : windows)
            v.push_back(trace::total(spans, name, {w}));
        return median(v);
    };
    const double schedS = perRound("sched.local") +
                          perRound("sched.superblock") +
                          perRound("sched.pipeline");
    rep.add("workload.generate_s",
            trace::total(spans, "workload.generate",
                         {{trace::threadIndex(), 0, int64_t(setupS * 1e9)}}),
            "s");
    rep.add("eel.analyze_s", perRound("eel.analyze"), "s");
    const double timingS = perRound("sim.timing");
    rep.add("sim.timing_s", timingS, "s");
    rep.add("sim.timing_minst_per_s", double(r0.timedInsts) / timingS * 1e-6,
            "Minst/s");
    rep.add("qpt.profile_s", perRound("qpt.profile"), "s");
    rep.add("sched.local_s", perRound("sched.local"), "s");
    rep.add("sched.superblock_s", perRound("sched.superblock"), "s");
    rep.add("sched.pipeline_s", perRound("sched.pipeline"), "s");
    rep.add("sched.blocks_per_s", double(r0.scheduledBlocks) / schedS, "1/s");
    rep.add("sched.local_hidden_pct", hidden(1), "%");
    rep.add("sched.superblock_hidden_pct", hidden(2), "%");
    rep.add("exe.mb_per_variant",
            double(r0.storedBytes) / double(r0.variants) / 1e6, "MB");
    rep.add("trace.coverage_pct", trace::coverage(spans, windows), "%");
    rep.add("trace.regen_s", regenS, "s");
}

} // namespace perfbench
