/**
 * @file
 * Perf harness for the reproduction pipeline itself. Times the three
 * layers this repo's hot path is made of — block scheduling,
 * functional emulation, timing simulation — plus the sharded
 * checkpoint-and-replay simulator at jobs 1/2/N and the end-to-end
 * Table-1 protocol at jobs=1 and jobs=N, and writes the numbers to a
 * JSON file so successive PRs have a perf trajectory to compare
 * against. Also expands the whole suite into all five batch-rewrite
 * variant kinds through one COW SectionStore and records the stored
 * bytes per variant against the eager-copy footprint. Exits nonzero
 * if the parallel table output diverges from the serial one, the
 * sharded cycles diverge from the serial simulator, the batch images
 * differ from the eager pipeline's, the COW store saves less than
 * 3x memory per variant, or a cached re-simulation diverges from a
 * cold one (or a one-byte edit reuses none of the cached shards).
 *
 * With --check <baseline.json>, also compares the fresh throughput
 * numbers against the checked-in baseline and exits nonzero when any
 * of them drifts outside the tolerance band (default ±25%) — the
 * perf-regression gate run by ctest. Wall-clock entries are not
 * gated: they scale with the host. Regenerate the baseline with
 * results/regen.sh after an intentional perf change.
 *
 * Usage: perf_pipeline [--machine m] [--scale x] [--jobs n]
 *                      [--out file.json] [--check baseline.json]
 *                      [--tolerance frac] [--trace out.json]
 *
 * --trace records spans over the whole suite (batch stamps, shard
 * replays, pool steals included) and writes Perfetto-loadable JSON.
 * The metrics registry (pool/store/emulator counters) is serialized
 * into a "metrics" section of the output JSON either way.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/common.hh"
#include "src/eel/batch.hh"
#include "src/eel/cfg.hh"
#include "src/eel/editor.hh"
#include "src/exe/section_store.hh"
#include "src/obs/metrics.hh"
#include "src/obs/trace.hh"
#include "src/qpt/profiler.hh"
#include "src/sim/resultcache.hh"
#include "src/sim/shard.hh"
#include "src/sim/timing.hh"
#include "src/support/logging.hh"
#include "src/support/thread_pool.hh"
#include "src/workload/generator.hh"
#include "src/workload/spec.hh"

using namespace eel;
using Clock = std::chrono::steady_clock;

namespace {

double
elapsed(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Best wall time of `reps` runs of fn (the usual timing protocol on
 *  a shared host: the minimum is the least-perturbed sample). */
template <class Fn>
double
bestOf(int reps, Fn &&fn)
{
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
        auto t0 = Clock::now();
        fn();
        best = std::min(best, elapsed(t0));
    }
    return best;
}

/** Pull `"key": <number>` out of a flat JSON object. The baseline
 *  file is written by this binary, so a full parser would be
 *  ceremony; any hand edit that breaks the shape fails loudly. */
double
jsonNumber(const std::string &text, const std::string &key)
{
    std::string needle = "\"" + key + "\":";
    size_t at = text.find(needle);
    if (at == std::string::npos)
        fatal("baseline JSON has no \"%s\" entry", key.c_str());
    return std::stod(text.substr(at + needle.size()));
}

/** Field-for-field equality of two sharded runs — the byte-identity
 *  bar the incremental path must clear. */
bool
runsEqual(const sim::ShardedRun &a, const sim::ShardedRun &b)
{
    return a.cycles == b.cycles &&
           a.result.instructions == b.result.instructions &&
           a.result.exitCode == b.result.exitCode &&
           a.result.output == b.result.output &&
           a.issueHistogram == b.issueHistogram &&
           a.stallBreakdown == b.stallBreakdown &&
           a.stallCycles == b.stallCycles &&
           a.leaderRetires == b.leaderRetires &&
           a.blocksRetired == b.blocksRetired &&
           a.finalState.equalTo(b.finalState, false);
}

/**
 * A nop word on a text page that some but not all shards of
 * runSharded(x, ..., opts) execute — counting each shard's own
 * retires plus the warmup replayed before its cut, as the shard
 * manifests do — or x.text.size() if there is none.
 */
size_t
partlyExecutedNop(const exe::Executable &x, const sim::ShardOptions &opts)
{
    struct PageSink final
    {
        std::vector<uint32_t> pages;
        void
        retire(uint32_t pc, const isa::Instruction &)
        {
            pages.push_back((pc - exe::textBase) / exe::Chunk::bytes);
        }
    } sink;
    sim::Emulator emu(x, opts.emu);
    emu.run(sink);
    const uint64_t n = sink.pages.size();
    const uint64_t shards = (n + opts.interval - 1) / opts.interval;
    std::vector<uint64_t> count(x.text.chunkRefs().size(), 0);
    std::vector<uint64_t> last(count.size(), ~uint64_t(0));
    for (uint64_t k = 0; k < shards; ++k) {
        const uint64_t start = k * opts.interval;
        const uint64_t hi = std::min(n, start + opts.interval);
        for (uint64_t i = start - std::min<uint64_t>(start, opts.warmup);
             i < hi; ++i) {
            const uint32_t page = sink.pages[i];
            if (last[page] != k) {
                last[page] = k;
                ++count[page];
            }
        }
    }
    for (size_t w = 0; w < x.text.size(); ++w) {
        const uint64_t c = count[w * 4 / exe::Chunk::bytes];
        if (x.text[w] == 0x01000000u && c > 0 && c < shards)
            return w;
    }
    return x.text.size();
}

std::string
readFile(const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        fatal("cannot read %s", path.c_str());
    std::string text;
    char buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, got);
    std::fclose(f);
    return text;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string machine = "ultrasparc";
    double scale = 0.3;
    unsigned jobs = 0;
    std::string out_path = "BENCH_pipeline.json";
    std::string check_path;
    std::string trace_path;
    double tolerance = 0.25;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for %s", a.c_str());
            return argv[++i];
        };
        if (a == "--machine")
            machine = value();
        else if (a == "--scale")
            scale = std::stod(value());
        else if (a == "--jobs")
            jobs = static_cast<unsigned>(std::stoul(value()));
        else if (a == "--out")
            out_path = value();
        else if (a == "--check")
            check_path = value();
        else if (a == "--tolerance")
            tolerance = std::stod(value());
        else if (a == "--trace")
            trace_path = value();
        else if (a == "--help") {
            std::printf("options: --machine <name> --scale <x> "
                        "--jobs <n> --out <file.json> "
                        "--check <baseline.json> --tolerance <frac> "
                        "--trace <out.json>\n");
            return 0;
        } else {
            fatal("unknown option '%s'", a.c_str());
        }
    }
    if (jobs == 0)
        jobs = support::ThreadPool::hardwareConcurrency();
    if (!trace_path.empty()) {
        obs::enableTracing();
        obs::setThreadName("main");
    }

    const machine::MachineModel &m =
        machine::MachineModel::builtin(machine);
    auto specs = workload::spec95(machine);

    // --- Schedule throughput: rewrite-with-scheduling over the
    // profiling-instrumented first benchmark, counting basic blocks.
    workload::GenOptions gopts;
    gopts.scale = scale;
    gopts.machine = &m;
    exe::Executable x = workload::generate(specs[0], gopts);
    auto routines = edit::buildRoutines(x);
    qpt::ProfilePlan plan = qpt::makePlan(x, routines);
    size_t blocks = 0;
    for (const auto &r : routines)
        blocks += r.blocks.size();

    edit::EditOptions eopts;
    eopts.schedule = true;
    eopts.model = &m;
    double sched_s = bestOf(3, [&] {
        edit::rewrite(x, routines, plan.plan, eopts);
    });
    double sched_blocks_per_s = double(blocks) / sched_s;

    // --- Simulation throughput over the same executable: the
    // functional emulator alone, then with the timing model fed.
    uint64_t insts = 0;
    double emu_s = bestOf(3, [&] {
        sim::Emulator emu(x);
        insts = emu.run(nullptr).instructions;
    });
    double emu_minst_per_s = double(insts) / emu_s / 1e6;

    uint64_t serial_cycles = 0;
    double timing_s = bestOf(3, [&] {
        serial_cycles = sim::timedRun(x, m).cycles;
    });
    double timing_minst_per_s = double(insts) / timing_s / 1e6;

    // --- Sharded timing simulation (checkpoint-and-replay,
    // sim::runSharded). jobs=1 measures the subsystem's intrinsic
    // overhead — the extra functional capture pass plus per-shard
    // warmups — and is the host-stable number the baseline gates.
    // jobs=2 and jobs=N record scaling, informational only: they
    // measure the host's parallelism more than this code. Merged
    // cycles must equal the serial simulator's exactly.
    sim::ShardOptions sopts;
    uint64_t sharded_cycles = 0;
    sim::ShardStats sstats;
    double sharded1_s = bestOf(3, [&] {
        sim::ShardedRun sr = sim::runSharded(x, m, sopts);
        sharded_cycles = sr.cycles;
        sstats = sr.stats;
    });
    double sharded1_minst_per_s = double(insts) / sharded1_s / 1e6;
    bool cycles_match = sharded_cycles == serial_cycles;
    // Intrinsic overhead of the sharding machinery at jobs=1: the
    // fraction of the run's wall time that is not the timing replay
    // of the shards' own instructions — the functional capture pass
    // plus the per-shard warmup replays (warmup/interval of the
    // replayed stream). This is the number the fan-out has to win
    // back with parallelism before sharding pays at all; on a 1-CPU
    // host jobs=1 therefore *must* lose to the serial simulator by
    // about this fraction.
    double capture_frac =
        sharded1_s > 0 ? sstats.captureSec / sharded1_s : 0;
    double warmup_frac =
        insts ? double(sopts.warmup) * double(sstats.shards > 0
                                                  ? sstats.shards - 1
                                                  : 0) /
                    double(insts)
              : 0;
    double sharded_overhead_frac = capture_frac + warmup_frac;

    support::ThreadPool pool2(2);
    sopts.pool = &pool2;
    double sharded2_s = bestOf(3, [&] {
        cycles_match &= sim::runSharded(x, m, sopts).cycles ==
                        serial_cycles;
    });
    double sharded2_minst_per_s = double(insts) / sharded2_s / 1e6;

    support::ThreadPool poolN(jobs);
    sopts.pool = &poolN;
    double shardedN_s = bestOf(3, [&] {
        cycles_match &= sim::runSharded(x, m, sopts).cycles ==
                        serial_cycles;
    });
    double shardedN_minst_per_s = double(insts) / shardedN_s / 1e6;

    // --- Incremental re-simulation through the content-addressed
    // result cache, on the profiled image: a cold sharded run
    // populates it, an identical re-run must come back from its
    // whole-run entry at >= 5x (the claim the subsystem exists for),
    // and a one-byte edit to a text page must reuse the cached shards
    // that never execute that page, replay the rest, and still be
    // field-identical to a fresh cold run of the edited image. The
    // generated programs fit one or two 1 KiB text pages and call
    // every kernel in each outer iteration, so only shards shorter
    // than a kernel call (4096 instructions here) can stay off a page.
    // All three are hard gates; the speedup and hit rate are
    // published, but not added to the +/-25% baseline band (warm wall
    // time is microseconds and would flap).
    const exe::Executable prof =
        edit::rewrite(x, routines, plan.plan, edit::EditOptions{});
    sim::ResultCache rescache;
    sim::ShardOptions iopts;
    iopts.interval = 4096;
    iopts.pool = &poolN;
    iopts.cache = &rescache;
    auto tc = Clock::now();
    sim::ShardedRun inc_cold = sim::runSharded(prof, m, iopts);
    double inc_cold_s = elapsed(tc);
    sim::ShardedRun inc_warm;
    double inc_warm_s = bestOf(3, [&] {
        inc_warm = sim::runSharded(prof, m, iopts);
    });
    double incremental_speedup =
        inc_warm_s > 0 ? inc_cold_s / inc_warm_s : 0.0;
    bool incremental_identical =
        inc_warm.stats.cachedRun && runsEqual(inc_warm, inc_cold);

    // The edit: rewrite one nop's imm22 from 0 to 1 — still a write
    // of the hardwired-zero %g0, so the run is architecturally
    // unchanged and only the edited page's content hash moves. The
    // nop sits on a page only some shards execute, so the edited run
    // merges cached and replayed shards.
    const size_t edit_word = partlyExecutedNop(prof, iopts);
    if (edit_word == prof.text.size())
        fatal("no nop on a text page only some shards execute");
    exe::Executable edited = prof;
    edited.text.set(edit_word, 0x01000001u);
    sim::ShardedRun inc_edit = sim::runSharded(edited, m, iopts);
    sim::ShardOptions iplain = iopts;
    iplain.cache = nullptr;
    sim::ShardedRun edit_ref = sim::runSharded(edited, m, iplain);
    incremental_identical &= runsEqual(inc_edit, edit_ref);
    sim::ResultCache::Stats rcs = rescache.stats();
    double rescache_hit_rate =
        rcs.lookups ? double(rcs.hits) / double(rcs.lookups) : 0.0;

    // --- Batch rewriting: every SPEC95 stand-in expanded into all
    // five variant kinds through one shared SectionStore, versus the
    // same images with COW sharing severed (the pre-COW memory
    // behaviour). The images must be byte-identical either way; the
    // stored-bytes-per-variant number is the COW payoff and is
    // deterministic at a given scale, so the baseline gates it.
    exe::SectionStore store;
    const std::vector<edit::VariantKind> all_kinds = {
        edit::VariantKind::Identity,
        edit::VariantKind::SlowProfile,
        edit::VariantKind::EdgeProfile,
        edit::VariantKind::Sched,
        edit::VariantKind::Superblock,
    };
    edit::BatchOptions bopts;
    bopts.model = &m;
    bopts.store = &store;
    std::vector<edit::BatchResult> batches;
    bool batch_identical = true;
    size_t eager_flat_bytes = 0, n_images = 0;
    for (const auto &spec : specs) {
        exe::Executable orig = workload::generate(spec, gopts);
        edit::BatchRewriter rw(orig, bopts);
        batches.push_back(rw.rewriteAll(all_kinds));
        edit::BatchResult eager =
            edit::eagerRewriteAll(orig, all_kinds, bopts);
        const edit::BatchResult &batch = batches.back();
        for (size_t k = 0; k < all_kinds.size(); ++k) {
            const exe::Executable &b = batch.variants[k].image;
            const exe::Executable &e = eager.variants[k].image;
            batch_identical &= b.text == e.text && b.data == e.data;
            eager_flat_bytes += 4 * e.text.size() + e.data.size();
            ++n_images;
        }
    }
    std::vector<const exe::Executable *> batch_images;
    for (const edit::BatchResult &b : batches)
        for (const edit::BatchVariant &v : b.variants)
            batch_images.push_back(&v.image);
    exe::ShareStats share = exe::shareStats(batch_images);
    double batch_mb_eager =
        double(eager_flat_bytes) / double(n_images) / 1e6;
    double batch_mb_cow =
        double(share.storedBytes) / double(n_images) / 1e6;
    double batch_reduction =
        batch_mb_cow > 0 ? batch_mb_eager / batch_mb_cow : 0.0;
    batches.clear();

    // --- Pipeline scheduling tier: hidden fraction of the counter
    // overhead on the loop-dominated CFP stand-ins, superblock vs
    // superblock+modulo. Simulated cycles are deterministic at a
    // given scale, so the baseline gates the pipeline number: a
    // drift means the loop analyzer or the modulo scheduler changed
    // what it emits, not that the host got slower. Bit-identity of
    // the pipelined build against the unscheduled one is a hard
    // invariant, same as the batch/incremental checks above.
    std::vector<size_t> fp_indices;
    for (size_t i = 0; i < specs.size(); ++i)
        if (specs[i].fp)
            fp_indices.push_back(i);
    support::ThreadPool pipe_pool(jobs);
    std::vector<double> hid_sb(fp_indices.size());
    std::vector<double> hid_pipe(fp_indices.size());
    std::vector<uint8_t> pipe_ok(fp_indices.size(), 0);
    std::vector<uint64_t> fp_cost(fp_indices.size());
    for (size_t k = 0; k < fp_indices.size(); ++k)
        fp_cost[k] = specs[fp_indices[k]].dynTarget;
    pipe_pool.parallelFor(fp_indices.size(), fp_cost, [&](size_t k) {
        exe::Executable orig =
            workload::generate(specs[fp_indices[k]], gopts);
        edit::BatchOptions pb;
        pb.model = &m;
        pb.pool = &pipe_pool;
        edit::BatchRewriter rw(orig, pb);
        edit::BatchResult b =
            rw.rewriteAll({edit::VariantKind::SlowProfile,
                           edit::VariantKind::Superblock,
                           edit::VariantKind::Pipeline});
        uint64_t c_base = sim::timedRun(b.work, m).cycles;
        uint64_t c_inst =
            sim::timedRun(b.variants[0].image, m).cycles;
        uint64_t c_sb = sim::timedRun(b.variants[1].image, m).cycles;
        uint64_t c_pipe =
            sim::timedRun(b.variants[2].image, m).cycles;
        double denom = double(int64_t(c_inst) - int64_t(c_base));
        hid_sb[k] =
            100.0 * double(int64_t(c_inst) - int64_t(c_sb)) / denom;
        hid_pipe[k] = 100.0 *
                      double(int64_t(c_inst) - int64_t(c_pipe)) /
                      denom;
        sim::Emulator e_inst(b.variants[0].image);
        sim::Emulator e_pipe(b.variants[2].image);
        sim::RunResult ri = e_inst.run();
        sim::RunResult rp = e_pipe.run();
        pipe_ok[k] = ri.exited && rp.exited &&
                     ri.exitCode == rp.exitCode &&
                     ri.output == rp.output &&
                     e_inst.snapshot().equalTo(e_pipe.snapshot()) &&
                     qpt::readCounts(e_inst, b.profilePlan) ==
                         qpt::readCounts(e_pipe, b.profilePlan);
    });
    double sb_cfp_hidden = 0, pipe_cfp_hidden = 0;
    bool pipeline_identical = true;
    for (size_t k = 0; k < fp_indices.size(); ++k) {
        sb_cfp_hidden += hid_sb[k];
        pipe_cfp_hidden += hid_pipe[k];
        pipeline_identical &= pipe_ok[k] != 0;
    }
    sb_cfp_hidden /= double(fp_indices.size());
    pipe_cfp_hidden /= double(fp_indices.size());

    // --- End-to-end Table-1 protocol, serial vs parallel.
    bench::TableOptions topts;
    topts.machine = machine;
    topts.scale = scale;

    topts.jobs = 1;
    auto t0 = Clock::now();
    std::vector<bench::Row> serial_rows = bench::runTable(topts);
    double e2e_serial_s = elapsed(t0);

    topts.jobs = jobs;
    t0 = Clock::now();
    std::vector<bench::Row> parallel_rows = bench::runTable(topts);
    double e2e_parallel_s = elapsed(t0);

    std::string serial_tab = bench::formatTable("Table 1",
                                                serial_rows);
    std::string parallel_tab = bench::formatTable("Table 1",
                                                  parallel_rows);
    bool identical = serial_tab == parallel_tab;

    double speedup = e2e_parallel_s > 0
                         ? e2e_serial_s / e2e_parallel_s
                         : 0.0;

    std::printf("machine            %s (scale %g, jobs %u, %u cpus)\n",
                machine.c_str(), scale, jobs,
                support::ThreadPool::hardwareConcurrency());
    std::printf("schedule           %.0f blocks/s (%zu blocks in "
                "%.4fs)\n", sched_blocks_per_s, blocks, sched_s);
    std::printf("emulate            %.1f Minst/s\n", emu_minst_per_s);
    std::printf("timing-sim         %.1f Minst/s\n",
                timing_minst_per_s);
    std::printf("sharded jobs=1     %.1f Minst/s\n",
                sharded1_minst_per_s);
    std::printf("sharded jobs=2     %.1f Minst/s\n",
                sharded2_minst_per_s);
    std::printf("sharded jobs=%-5u %.1f Minst/s\n", jobs,
                shardedN_minst_per_s);
    std::printf("sharded cycles     %s\n",
                cycles_match ? "match serial" : "DIVERGED");
    std::printf("sharded overhead   %.1f%% of jobs=1 wall (capture "
                "%.1f%%, warmup %.1f%%, %zu shards)\n",
                100 * sharded_overhead_frac, 100 * capture_frac,
                100 * warmup_frac, sstats.shards);
    std::printf("incremental regen  %.2fx warm speedup (cold %.3fs, "
                "warm %.4fs), hit rate %.3f, edit reused %zu/%zu "
                "shards\n",
                incremental_speedup, inc_cold_s, inc_warm_s,
                rescache_hit_rate, inc_edit.stats.cachedShards,
                inc_edit.stats.shards);
    std::printf("incremental output %s\n",
                incremental_identical ? "identical" : "DIVERGED");
    std::printf("batch rewrite      %.3f MB/variant cow, %.3f "
                "MB/variant eager (%.2fx, %.0f%% refs shared, %zu "
                "images)\n", batch_mb_cow, batch_mb_eager,
                batch_reduction, 100.0 * share.sharedFrac(),
                n_images);
    std::printf("batch output       %s\n",
                batch_identical ? "identical to eager" : "DIVERGED");
    std::printf("pipeline tier      CFP hidden %.1f%% (superblock "
                "%.1f%%), output %s\n",
                pipe_cfp_hidden, sb_cfp_hidden,
                pipeline_identical ? "identical" : "DIVERGED");
    std::printf("table1 jobs=1      %.3fs\n", e2e_serial_s);
    std::printf("table1 jobs=%-6u %.3fs (%.2fx)\n", jobs,
                e2e_parallel_s, speedup);
    std::printf("parallel output    %s\n",
                identical ? "identical" : "DIVERGED");

    FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f)
        fatal("cannot write %s", out_path.c_str());
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"machine\": \"%s\",\n", machine.c_str());
    std::fprintf(f, "  \"scale\": %g,\n", scale);
    std::fprintf(f, "  \"host_cpus\": %u,\n",
                 support::ThreadPool::hardwareConcurrency());
    std::fprintf(f, "  \"schedule_blocks_per_s\": %.0f,\n",
                 sched_blocks_per_s);
    std::fprintf(f, "  \"emulate_minst_per_s\": %.2f,\n",
                 emu_minst_per_s);
    std::fprintf(f, "  \"timing_sim_minst_per_s\": %.2f,\n",
                 timing_minst_per_s);
    std::fprintf(f, "  \"sharded_timing_minst_per_s_jobs1\": %.2f,\n",
                 sharded1_minst_per_s);
    std::fprintf(f, "  \"sharded_timing_minst_per_s_jobs2\": %.2f,\n",
                 sharded2_minst_per_s);
    std::fprintf(f, "  \"sharded_timing_jobs\": %u,\n", jobs);
    std::fprintf(f, "  \"sharded_timing_minst_per_s_jobsN\": %.2f,\n",
                 shardedN_minst_per_s);
    std::fprintf(f, "  \"sharded_cycles_match_serial\": %s,\n",
                 cycles_match ? "true" : "false");
    std::fprintf(f, "  \"sharded_timing_overhead_frac\": %.4f,\n",
                 sharded_overhead_frac);
    std::fprintf(f, "  \"incremental_regen_speedup\": %.2f,\n",
                 incremental_speedup);
    std::fprintf(f, "  \"rescache_hit_rate\": %.4f,\n",
                 rescache_hit_rate);
    std::fprintf(f, "  \"incremental_identical\": %s,\n",
                 incremental_identical ? "true" : "false");
    std::fprintf(f, "  \"batch_rewrite_mb_per_variant\": %.4f,\n",
                 batch_mb_cow);
    std::fprintf(f, "  \"batch_rewrite_mb_per_variant_eager\": %.4f,\n",
                 batch_mb_eager);
    std::fprintf(f, "  \"batch_rewrite_mem_reduction\": %.3f,\n",
                 batch_reduction);
    std::fprintf(f, "  \"batch_share_frac\": %.4f,\n",
                 share.sharedFrac());
    std::fprintf(f, "  \"batch_identical\": %s,\n",
                 batch_identical ? "true" : "false");
    std::fprintf(f, "  \"pipeline_cfp_hidden_pct\": %.4f,\n",
                 pipe_cfp_hidden);
    std::fprintf(f, "  \"superblock_cfp_hidden_pct\": %.4f,\n",
                 sb_cfp_hidden);
    std::fprintf(f, "  \"pipeline_identical\": %s,\n",
                 pipeline_identical ? "true" : "false");
    std::fprintf(f, "  \"table1_jobs1_wall_s\": %.4f,\n",
                 e2e_serial_s);
    std::fprintf(f, "  \"table1_jobs\": %u,\n", jobs);
    std::fprintf(f, "  \"table1_jobsN_wall_s\": %.4f,\n",
                 e2e_parallel_s);
    std::fprintf(f, "  \"table1_parallel_speedup\": %.3f,\n", speedup);
    std::fprintf(f, "  \"parallel_output_identical\": %s,\n",
                 identical ? "true" : "false");
    // Namespaced keys ("pool.steals", ...) cannot collide with the
    // flat gate keys jsonNumber() pulls out above.
    std::string metrics = obs::metricsJson("  ");
    std::fprintf(f, "  \"metrics\": %s\n", metrics.c_str());
    std::fprintf(f, "}\n");
    std::fclose(f);

    if (!trace_path.empty() && !obs::writeTrace(trace_path))
        fatal("cannot write trace to %s", trace_path.c_str());

    if (!identical) {
        std::fprintf(stderr,
                     "FAIL: jobs=%u table output differs from "
                     "jobs=1\n", jobs);
        return 1;
    }
    if (!cycles_match) {
        std::fprintf(stderr,
                     "FAIL: sharded simulation cycles diverged from "
                     "the serial simulator\n");
        return 1;
    }
    if (!batch_identical) {
        std::fprintf(stderr,
                     "FAIL: batch-rewritten images differ from the "
                     "eager-copy pipeline\n");
        return 1;
    }
    if (batch_reduction < 3.0) {
        std::fprintf(stderr,
                     "FAIL: COW batch stores only %.2fx less than "
                     "eager copies (need >= 3x)\n", batch_reduction);
        return 1;
    }
    if (!pipeline_identical) {
        std::fprintf(stderr,
                     "FAIL: a pipelined CFP build diverged from its "
                     "unscheduled instrumentation\n");
        return 1;
    }
    if (!incremental_identical) {
        std::fprintf(stderr,
                     "FAIL: cached/incremental simulation output "
                     "differs from a cold run\n");
        return 1;
    }
    if (inc_edit.stats.cachedShards == 0) {
        std::fprintf(stderr,
                     "FAIL: a one-byte edit reused none of the %zu "
                     "cached shards\n", inc_edit.stats.shards);
        return 1;
    }
    if (incremental_speedup < 5.0) {
        std::fprintf(stderr,
                     "FAIL: warm re-simulation only %.2fx faster "
                     "than cold (need >= 5x)\n",
                     incremental_speedup);
        return 1;
    }

    if (!check_path.empty()) {
        std::string base = readFile(check_path);
        if (base.find("\"" + machine + "\"") == std::string::npos)
            fatal("baseline %s is for a different machine model",
                  check_path.c_str());
        if (jsonNumber(base, "scale") != scale)
            fatal("baseline %s was measured at scale %g, this run "
                  "at %g — not comparable", check_path.c_str(),
                  jsonNumber(base, "scale"), scale);
        struct Gate
        {
            const char *key;
            double fresh;
        } gates[] = {
            {"schedule_blocks_per_s", sched_blocks_per_s},
            {"emulate_minst_per_s", emu_minst_per_s},
            {"timing_sim_minst_per_s", timing_minst_per_s},
            // jobs=1 only: the jobs>1 numbers track the host's idle
            // cores, not this code, and would flap on shared CI.
            {"sharded_timing_minst_per_s_jobs1",
             sharded1_minst_per_s},
            // Deterministic at a given scale: a drift here means the
            // COW layout or the interner changed, not the host.
            {"batch_rewrite_mb_per_variant", batch_mb_cow},
            // Likewise deterministic: the modulo scheduler's CFP
            // payoff, guarded so a scheduler change that quietly
            // stops pipelining (or pipelines worse) fails ctest.
            {"pipeline_cfp_hidden_pct", pipe_cfp_hidden},
        };
        bool bad = false;
        for (const Gate &g : gates) {
            double ref = jsonNumber(base, g.key);
            double ratio = ref > 0 ? g.fresh / ref : 0.0;
            bool ok = ratio >= 1.0 - tolerance &&
                      ratio <= 1.0 + tolerance;
            std::printf("check %-24s %.5g vs baseline %.5g "
                        "(%.2fx) %s\n", g.key, g.fresh, ref, ratio,
                        ok ? "ok" : "OUT OF BAND");
            bad |= !ok;
        }
        if (bad) {
            std::fprintf(stderr,
                         "FAIL: throughput drifted more than %.0f%% "
                         "from %s; investigate, or regenerate the "
                         "baseline (results/regen.sh) if the change "
                         "is intentional\n", tolerance * 100,
                         check_path.c_str());
            return 1;
        }
    }
    return 0;
}
