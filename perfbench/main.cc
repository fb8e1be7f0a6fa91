/**
 * @file
 * perfbench: one command per workload, end to end or per layer.
 *
 *   perfbench --workload tables|rewrite|service --seed N --seconds S
 *             --trace 0|1
 *
 * Run from the repository root. The last line of stdout is one JSON
 * object: correct, attempted, failed and metrics. Untraced runs
 * (--trace 0) report the end-to-end metrics; traced runs record a
 * span around every call into a layer, write the spans to
 * .bench_build/perfbench-out/trace-<workload>-<seed>.json and report
 * the per-layer metrics.
 * Every run reports every metric of its mode, in the order below; a
 * per-layer metric whose layer the workload does not exercise reads
 * 0. Exit status: 0 when every output check held, 1 when one failed,
 * 2 on a usage or program error.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench.hh"

namespace {

using perfbench::Metric;

/** The end-to-end metrics, as BENCHMARK.json lists them. */
const Metric kEndToEnd[] = {
    {"setup_s", 0, "s"},          {"regen_s", 0, "s"},
    {"variants_per_s", 0, "1/s"}, {"requests_per_s", 0, "1/s"},
    {"p50_ms", 0, "ms"},          {"hidden_pct", 0, "%"},
    {"variant_text_kb", 0, "KiB"}, {"peak_rss_mb", 0, "MB"},
};

/** The per-layer metrics, as BENCHMARK.json lists them. */
const Metric kPerLayer[] = {
    // tables
    {"workload.generate_s", 0, "s"},
    {"eel.analyze_s", 0, "s"},
    {"eel.rewrite_s", 0, "s"},
    {"sim.emulate_s", 0, "s"},
    {"sim.timing_s", 0, "s"},
    {"sim.timing_minst_per_s", 0, "Minst/s"},
    {"sim.capture_s", 0, "s"},
    {"sim.replay_s", 0, "s"},
    {"sim.rescache_hits", 0, "count"},
    {"sim.rescache_misses", 0, "count"},
    {"sim.rescache_disk_mb", 0, "MB"},
    {"sched.empty_slots", 0, "count"},
    {"machine.stall_raw_dep", 0, "cycles"},
    {"machine.stall_war_waw_dep", 0, "cycles"},
    {"machine.stall_resource", 0, "cycles"},
    {"machine.stall_branch_redirect", 0, "cycles"},
    // rewrite
    {"qpt.profile_s", 0, "s"},
    {"sched.local_s", 0, "s"},
    {"sched.superblock_s", 0, "s"},
    {"sched.pipeline_s", 0, "s"},
    {"sched.blocks_per_s", 0, "1/s"},
    {"sched.local_hidden_pct", 0, "%"},
    {"sched.superblock_hidden_pct", 0, "%"},
    {"exe.mb_per_variant", 0, "MB"},
    // service
    {"svc.submit_ms", 0, "ms"},
    {"svc.rewrite_miss_ms", 0, "ms"},
    {"svc.simulate_miss_ms", 0, "ms"},
    {"svc.rewrite_hit_ms", 0, "ms"},
    {"svc.simulate_hit_ms", 0, "ms"},
    {"exe.intern_s", 0, "s"},
    {"eel.batch_rewrite_s", 0, "s"},
    {"sim.direct_timing_s", 0, "s"},
    {"svc.overhead_ms", 0, "ms"},
    {"svc.queue_p99_ms", 0, "ms"},
    {"exe.intern_hit_rate", 0, "ratio"},
    {"svc.rewrite_cache_hit_rate", 0, "ratio"},
    {"sim.rescache_hit_rate", 0, "ratio"},
    {"exe.store_live_mb", 0, "MB"},
    {"svc.rss_kb_per_session", 0, "KiB"},
    {"svc.open_p50_ms", 0, "ms"},
    {"svc.open_p99_ms", 0, "ms"},
    {"svc.open_lag_ms", 0, "ms"},
    // every workload
    {"trace.coverage_pct", 0, "%"},
    {"trace.regen_s", 0, "s"},
};

/** src/ modules whose line counts traced runs print. */
const char *const kModules[] = {"eel",  "exe",  "isa",     "machine",
                                "obs",  "qpt",  "sadl",    "sched",
                                "sim",  "support", "svc",  "workload"};

uint64_t
sourceLines(const std::filesystem::path &dir)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    uint64_t lines = 0;
    for (fs::recursive_directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (!it->is_regular_file(ec))
            continue;
        std::ifstream in(it->path());
        std::string line;
        while (std::getline(in, line))
            ++lines;
    }
    return lines;
}

/** Put the reported metrics in list order; fill the rest with 0. */
std::vector<Metric>
ordered(const std::vector<Metric> &got, const Metric *list, size_t n)
{
    std::vector<Metric> out;
    for (size_t i = 0; i < n; ++i) {
        Metric m = list[i];
        for (const Metric &g : got)
            if (g.name == m.name)
                m.value = g.value;
        out.push_back(m);
    }
    return out;
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "tables|rewrite|service --seed N --seconds S "
                 "--trace 0|1\n",
                 msg);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload")
            opts.workload = v;
        else if (a == "--seed")
            opts.seed = std::strtoull(v.c_str(), &end, 10);
        else if (a == "--seconds")
            opts.seconds = std::strtod(v.c_str(), &end);
        else if (a == "--trace")
            opts.trace = v == "1";
        else
            usage(("unknown option " + a).c_str());
        if (end && *end)
            usage(("bad value for " + a).c_str());
    }
    if (opts.seconds <= 0 || opts.seconds > 600)
        usage("--seconds must be in (0, 600]");

    void (*run)(const perfbench::Options &, perfbench::Report &) = nullptr;
    if (opts.workload == "tables")
        run = perfbench::runTables;
    else if (opts.workload == "rewrite")
        run = perfbench::runRewrite;
    else if (opts.workload == "service")
        run = perfbench::runService;
    else
        usage("unknown workload");

    std::filesystem::create_directories(perfbench::kOutDir);
    if (opts.trace)
        perfbench::trace::enable();

    perfbench::Report rep;
    try {
        run(opts, rep);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }

    if (opts.trace) {
        rep.metrics = ordered(rep.metrics, kPerLayer, std::size(kPerLayer));
        for (const char *mod : kModules)
            rep.add(std::string(mod) + ".src_loc",
                    double(sourceLines(std::filesystem::path("src") / mod)),
                    "lines");
        std::string path = std::string(perfbench::kOutDir) + "/trace-" +
                           opts.workload + "-" +
                           std::to_string(opts.seed) + ".json";
        if (!perfbench::trace::write(path))
            std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        else
            std::fprintf(stderr, "perfbench: spans in %s\n", path.c_str());
    } else {
        rep.metrics = ordered(rep.metrics, kEndToEnd, std::size(kEndToEnd));
    }
    for (const std::string &e : rep.errors)
        std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
    std::printf("%s\n", rep.json().c_str());
    return rep.correct() ? 0 : 1;
}
