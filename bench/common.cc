#include "bench/common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "src/eel/batch.hh"
#include "src/eel/editor.hh"
#include "src/obs/log.hh"
#include "src/obs/trace.hh"
#include "src/sim/shard.hh"
#include "src/sim/timing.hh"
#include "src/support/logging.hh"
#include "src/workload/generator.hh"
#include "src/workload/spec.hh"

namespace eel::bench {

TableOptions
parseArgs(int argc, char **argv)
{
    TableOptions opts;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for %s", a.c_str());
            return argv[++i];
        };
        if (a == "--machine")
            opts.machine = value();
        else if (a == "--scale")
            opts.scale = std::stod(value());
        else if (a == "--resched-first")
            opts.rescheduleFirst = true;
        else if (a == "--sched-machine")
            opts.schedMachine = value();
        else if (a == "--only")
            opts.only = value();
        else if (a == "--jobs")
            opts.jobs = static_cast<unsigned>(std::stoul(value()));
        else if (a == "--shard-interval")
            opts.shardInterval = std::stoull(value());
        else if (a == "--result-cache") {
            opts.resultCacheDir = value();
            // The cache serves the sharded path; give it shards to
            // key if the caller didn't pick an interval.
            if (!opts.shardInterval)
                opts.shardInterval = 64 * 1024;
        } else if (a == "--trace") {
            opts.tracePath = value();
            obs::enableTracing();
            obs::setThreadName("main");
        } else if (a == "--json")
            opts.jsonPath = value();
        else if (a == "--breakdown")
            opts.breakdownPath = value();
        else if (a == "--help") {
            std::printf("options: --machine <name> --scale <x> "
                        "--resched-first --only <benchmark> "
                        "--jobs <n> --shard-interval <insts> "
                        "--result-cache <dir> --trace <out.json> "
                        "--json <out.json> --breakdown <out.txt>\n");
            std::exit(0);
        } else {
            fatal("unknown option '%s'", a.c_str());
        }
    }
    return opts;
}

namespace {

/** Measured dynamic average basic block size. */
double
measureAvgBlock(const exe::Executable &x,
                const std::vector<edit::Routine> &routines)
{
    // A dense per-word leader bitmap beats the red-black tree this
    // used to probe: the lookup runs once per retired instruction,
    // and the concrete sink type lets the emulator's templated run
    // loop inline it.
    struct Sink final
    {
        std::vector<uint8_t> leader;  ///< indexed by text word
        uint64_t blocks = 0, insts = 0;
        void
        retire(uint32_t pc, const isa::Instruction &)
        {
            ++insts;
            blocks += leader[(pc - exe::textBase) / 4];
        }
    } sink;
    sink.leader.assign(x.text.size(), 0);
    for (const auto &r : routines)
        for (const auto &blk : r.blocks)
            sink.leader[(blk.startAddr - exe::textBase) / 4] = 1;
    sim::Emulator emu(x);
    emu.run(sink);
    return sink.blocks ? double(sink.insts) / double(sink.blocks)
                       : 0.0;
}

} // namespace

Row
runBenchmark(const TableOptions &opts, size_t index,
             support::ThreadPool *pool)
{
    const machine::MachineModel &m =
        machine::MachineModel::builtin(opts.machine);
    workload::BenchmarkSpec spec =
        workload::spec95(opts.machine)[index];

    // Timing runs go through the sharded path when requested; the
    // merge is deterministic, so rows don't change (only wall time).
    // A nested parallelFor shares its shards with the whole pool, so
    // the benchmark × shard fan-out saturates the jobs end to end.
    // Stall attribution is always on here (the tables report it);
    // the histogram-sums-to-total invariant is checked per run.
    sim::TimingSim::Config tcfg;
    tcfg.collectStalls = true;
    auto timed = [&](const exe::Executable &xe) {
        sim::TimedRun r;
        if (!opts.shardInterval) {
            r = sim::timedRun(xe, m, tcfg);
        } else {
            sim::ShardOptions sopts;
            sopts.interval = opts.shardInterval;
            sopts.pool = pool;
            sopts.timing = tcfg;
            sopts.cache = opts.cache;
            r = sim::runSharded(xe, m, sopts).toTimedRun();
        }
        if (r.stallBreakdown.total() != r.stallCycles)
            fatal("%s: stall histogram sums to %llu but the run "
                  "counted %llu stall cycles",
                  spec.name.c_str(),
                  (unsigned long long)r.stallBreakdown.total(),
                  (unsigned long long)r.stallCycles);
        return r;
    };

    workload::GenOptions gopts;
    gopts.scale = opts.scale;
    gopts.machine = &m;
    exe::Executable original = workload::generate(spec, gopts);

    const machine::MachineModel &sched_model =
        machine::MachineModel::builtin(
            opts.schedMachine.empty() ? opts.machine
                                      : opts.schedMachine);

    // Table 2 protocol: reschedule first, measure against that.
    exe::Executable base = original;
    double base_ratio = 1.0;
    if (opts.rescheduleFirst) {
        edit::EditOptions sched_opts;
        sched_opts.schedule = true;
        sched_opts.model = &sched_model;
        sched_opts.sched = opts.sched;
        sched_opts.pool = pool;
        auto routines0 = edit::buildRoutines(original);
        base = edit::rewrite(original, routines0,
                             edit::InstrumentationPlan{}, sched_opts);
        auto r_orig = timed(original);
        auto r_base = timed(base);
        base_ratio = double(r_base.cycles) / double(r_orig.cycles);
    }

    // The instrumented and scheduled images come from one
    // edit::BatchRewriter analysis pass (COW-shared sections). The
    // slot-fill audit covers its scheduled rewrite only — the Table 2
    // baseline reschedule above deliberately runs without it. Atomic
    // sink: per-routine scheduling may fan out across the pool.
    obs::SlotFillAudit audit;
    edit::BatchOptions bopts;
    bopts.model = &sched_model;
    bopts.sched = opts.sched;
    bopts.sched.audit = &audit;
    bopts.pool = pool;
    edit::BatchRewriter rw(base, bopts);
    edit::BatchResult batch = rw.rewriteAll(
        {edit::VariantKind::SlowProfile, edit::VariantKind::Sched});
    const exe::Executable &instrumented = batch.variants[0].image;
    const exe::Executable &scheduled = batch.variants[1].image;

    auto r_base = timed(base);
    auto r_inst = timed(instrumented);
    auto r_sched = timed(scheduled);
    if (r_base.result.output != r_inst.result.output ||
        r_base.result.output != r_sched.result.output)
        fatal("%s: instrumented output differs from original",
              spec.name.c_str());

    Row row;
    row.name = spec.name;
    row.fp = spec.fp;
    row.avgBlockSize = measureAvgBlock(base, batch.routines);
    row.uninstSec = r_base.seconds;
    row.uninstRatioToOriginal = base_ratio;
    row.instSec = r_inst.seconds;
    row.instRatio = double(r_inst.cycles) / double(r_base.cycles);
    row.schedSec = r_sched.seconds;
    row.schedRatio = double(r_sched.cycles) / double(r_base.cycles);
    row.pctHidden = 100.0 *
                    double(int64_t(r_inst.cycles) -
                           int64_t(r_sched.cycles)) /
                    double(int64_t(r_inst.cycles) -
                           int64_t(r_base.cycles));
    row.baseStalls = r_base.stallBreakdown;
    row.baseStallCycles = r_base.stallCycles;
    row.instStalls = r_inst.stallBreakdown;
    row.instStallCycles = r_inst.stallCycles;
    row.schedStalls = r_sched.stallBreakdown;
    row.schedStallCycles = r_sched.stallCycles;
    row.audit = audit.snapshot();
    return row;
}

std::vector<Row>
runTable(const TableOptions &optsIn)
{
    TableOptions opts = optsIn;
    // --result-cache: one cache for the whole table, disk-backed so
    // the next regeneration starts warm.
    std::unique_ptr<sim::ResultCache> owned;
    if (!opts.cache && !opts.resultCacheDir.empty()) {
        owned = std::make_unique<sim::ResultCache>(
            sim::ResultCache::Config{opts.resultCacheDir, nullptr});
        opts.cache = owned.get();
    }

    auto specs = workload::spec95(opts.machine);
    std::vector<size_t> indices;
    for (size_t i = 0; i < specs.size(); ++i)
        if (opts.only.empty() || specs[i].name == opts.only)
            indices.push_back(i);

    support::ThreadPool pool(opts.jobs);

    // Benchmarks run concurrently, dispatched largest dynamic-size
    // first so the long poles (go, compress...) don't become the
    // end-of-batch stragglers; each result lands in its suite slot,
    // so the gathered table is byte-identical to a serial run
    // (progress lines on stderr arrive in completion order).
    std::vector<uint64_t> cost(indices.size());
    for (size_t k = 0; k < indices.size(); ++k)
        cost[k] = specs[indices[k]].dynTarget;
    std::vector<Row> rows(indices.size());
    pool.parallelFor(indices.size(), cost, [&](size_t k) {
        rows[k] = runBenchmark(opts, indices[k], &pool);
        obs::logf(obs::LogLevel::Info, "  %-14s done",
                  rows[k].name.c_str());
    });
    return rows;
}

std::string
formatTable(const std::string &title, const std::vector<Row> &rows)
{
    std::string out;
    char buf[256];
    auto emit = [&](const char *fmt, auto... args) {
        std::snprintf(buf, sizeof(buf), fmt, args...);
        out += buf;
    };

    emit("\n%s\n", title.c_str());
    // The trailing block is the scheduled run's stall composition:
    // each StallReason's share of its total stall cycles.
    emit("%-14s %8s %10s %10s %18s %18s %9s  %5s %5s %5s %5s %5s\n",
         "Benchmark", "Avg.BB", "Uninst(s)", "(ratio)",
         "Inst(s) (ratio)", "Sched(s) (ratio)", "%Hidden", "raw%",
         "waw%", "res%", "icm%", "br%");

    auto pct = [](uint64_t part, uint64_t whole) {
        return whole ? 100.0 * double(part) / double(whole) : 0.0;
    };
    auto line = [&](const Row &r) {
        emit("%-14s %8.1f %10.4f %10.2f %10.4f (%4.2f) "
             "%10.4f (%4.2f) %8.1f%%",
             r.name.c_str(), r.avgBlockSize, r.uninstSec,
             r.uninstRatioToOriginal, r.instSec, r.instRatio,
             r.schedSec, r.schedRatio, r.pctHidden);
        for (unsigned i = 0; i < obs::numStallReasons; ++i)
            emit(" %5.1f",
                 pct(r.schedStalls.cycles[i], r.schedStallCycles));
        emit("\n");
    };
    auto averages = [&](bool fp, const char *label) {
        double ir = 0, sr = 0, hid = 0;
        int n = 0;
        for (const Row &r : rows) {
            if (r.fp != fp)
                continue;
            ir += r.instRatio;
            sr += r.schedRatio;
            hid += r.pctHidden;
            ++n;
        }
        if (!n)
            return;
        emit("%-14s %8s %10s %10s %10s (%4.2f) %10s (%4.2f) "
             "%8.1f%%\n",
             label, "", "", "", "", ir / n, "", sr / n, hid / n);
    };

    for (const Row &r : rows)
        if (!r.fp)
            line(r);
    averages(false, "CINT95 Average");
    for (const Row &r : rows)
        if (r.fp)
            line(r);
    averages(true, "CFP95 Average");
    return out;
}

void
printTable(const std::string &title, const std::vector<Row> &rows)
{
    std::fputs(formatTable(title, rows).c_str(), stdout);
}

std::string
formatBreakdown(const std::string &title, const std::vector<Row> &rows)
{
    std::string out;
    char buf[256];
    auto emit = [&](const char *fmt, auto... args) {
        std::snprintf(buf, sizeof(buf), fmt, args...);
        out += buf;
    };

    emit("%s — stall attribution and scheduler slot-fill audit\n",
         title.c_str());
    emit("(cycles per StallReason; each image's histogram sums "
         "exactly to its total stall cycles)\n\n");
    for (const Row &r : rows) {
        emit("%s\n", r.name.c_str());
        struct
        {
            const char *label;
            const obs::StallBreakdown *bd;
            uint64_t total;
        } images[3] = {
            {"uninst", &r.baseStalls, r.baseStallCycles},
            {"inst", &r.instStalls, r.instStallCycles},
            {"sched", &r.schedStalls, r.schedStallCycles},
        };
        for (const auto &img : images) {
            emit("  %-7s total %12llu |", img.label,
                 (unsigned long long)img.total);
            for (unsigned i = 0; i < obs::numStallReasons; ++i)
                emit(" %s %llu",
                     obs::stallReasonName(obs::StallReason(i)),
                     (unsigned long long)img.bd->cycles[i]);
            emit("\n");
        }
        emit("  slot-fill audit: empty slots %llu |",
             (unsigned long long)r.audit.total());
        for (unsigned i = 0; i < obs::numSlotFillReasons; ++i)
            emit(" %s %llu",
                 obs::slotFillReasonName(obs::SlotFillReason(i)),
                 (unsigned long long)r.audit.slots[i]);
        emit("\n\n");
    }
    return out;
}

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

void
appendBreakdownJson(std::string &out, const obs::StallBreakdown &bd,
                    uint64_t total)
{
    char buf[96];
    out += "{";
    for (unsigned i = 0; i < obs::numStallReasons; ++i) {
        std::snprintf(buf, sizeof(buf), "\"%s\": %llu, ",
                      obs::stallReasonName(obs::StallReason(i)),
                      (unsigned long long)bd.cycles[i]);
        out += buf;
    }
    std::snprintf(buf, sizeof(buf), "\"total\": %llu}",
                  (unsigned long long)total);
    out += buf;
}

} // namespace

std::string
tableJson(const std::string &title, const TableOptions &opts,
          const std::vector<Row> &rows)
{
    std::string out;
    char buf[256];
    auto emit = [&](const char *fmt, auto... args) {
        std::snprintf(buf, sizeof(buf), fmt, args...);
        out += buf;
    };

    emit("{\n  \"title\": \"%s\",\n", jsonEscape(title).c_str());
    emit("  \"machine\": \"%s\",\n", opts.machine.c_str());
    emit("  \"scale\": %g,\n", opts.scale);
    out += "  \"rows\": [\n";
    for (size_t k = 0; k < rows.size(); ++k) {
        const Row &r = rows[k];
        emit("    {\"name\": \"%s\", \"fp\": %s, "
             "\"avg_block\": %.4f, \"uninst_sec\": %.6f, "
             "\"uninst_ratio\": %.4f, \"inst_sec\": %.6f, "
             "\"inst_ratio\": %.4f, \"sched_sec\": %.6f, "
             "\"sched_ratio\": %.4f, \"pct_hidden\": %.4f,\n",
             jsonEscape(r.name).c_str(), r.fp ? "true" : "false",
             r.avgBlockSize, r.uninstSec, r.uninstRatioToOriginal,
             r.instSec, r.instRatio, r.schedSec, r.schedRatio,
             r.pctHidden);
        out += "     \"stalls\": {\"uninst\": ";
        appendBreakdownJson(out, r.baseStalls, r.baseStallCycles);
        out += ", \"inst\": ";
        appendBreakdownJson(out, r.instStalls, r.instStallCycles);
        out += ", \"sched\": ";
        appendBreakdownJson(out, r.schedStalls, r.schedStallCycles);
        out += "},\n     \"slot_audit\": {";
        for (unsigned i = 0; i < obs::numSlotFillReasons; ++i) {
            emit("\"%s\": %llu, ",
                 obs::slotFillReasonName(obs::SlotFillReason(i)),
                 (unsigned long long)r.audit.slots[i]);
        }
        emit("\"total\": %llu}}%s\n",
             (unsigned long long)r.audit.total(),
             k + 1 < rows.size() ? "," : "");
    }
    out += "  ]\n}\n";
    return out;
}

void
emitOutputs(const TableOptions &opts, const std::string &title,
            const std::vector<Row> &rows)
{
    auto writeFile = [](const std::string &path,
                        const std::string &content) {
        FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            fatal("cannot write '%s'", path.c_str());
        std::fwrite(content.data(), 1, content.size(), f);
        std::fclose(f);
    };
    if (!opts.jsonPath.empty())
        writeFile(opts.jsonPath, tableJson(title, opts, rows));
    if (!opts.breakdownPath.empty())
        writeFile(opts.breakdownPath, formatBreakdown(title, rows));
    if (!opts.tracePath.empty() && !obs::writeTrace(opts.tracePath))
        fatal("cannot write trace '%s'", opts.tracePath.c_str());
}

} // namespace eel::bench
