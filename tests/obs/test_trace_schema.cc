/**
 * @file
 * Schema check for the --trace export: runs a scaled-down table with
 * batch rewriting and sharded simulation under tracing, then parses
 * the written file with a strict little JSON parser and validates
 * the Chrome trace_event contract Perfetto relies on — well-formed
 * JSON, every pid/tid named by metadata events, timestamps monotone
 * within each thread — plus the presence of the per-worker span
 * families (batch.stamp.*, shard.replay.*) the ISSUE's acceptance
 * criteria call out. Also checks the metrics registry's JSON
 * fragment parses as an object of numbers. The strict parser lives
 * in tests/json_dom.hh, shared with the service-telemetry tests.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "tests/json_dom.hh"
#include "src/obs/metrics.hh"
#include "src/obs/trace.hh"
#include "src/workload/spec.hh"

namespace eel {
namespace {

using testjson::JParser;
using testjson::JValue;

std::string
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    EXPECT_NE(f, nullptr) << path;
    std::string text;
    if (!f)
        return text;
    char buf[1 << 16];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, got);
    std::fclose(f);
    return text;
}

TEST(TraceSchema, BenchTraceLoadsAndIsNamedAndMonotone)
{
    obs::enableTracing();
    obs::setThreadName("main");

    // One benchmark, scaled down, through both orchestration layers:
    // batch rewriting (batch.stamp.* spans) and sharded simulation
    // (shard.replay.* spans) on a multi-worker pool.
    bench::TableOptions topts;
    topts.scale = 0.05;
    topts.jobs = 4;
    topts.shardInterval = 2000;
    topts.only = workload::spec95(topts.machine)[0].name;
    std::vector<bench::Row> rows = bench::runTable(topts);
    ASSERT_EQ(rows.size(), 1u);

    std::string path = ::testing::TempDir() + "trace_schema.json";
    ASSERT_TRUE(obs::writeTrace(path));
    obs::resetTrace();

    std::string text = readFile(path);
    std::remove(path.c_str());
    ASSERT_FALSE(text.empty());

    JParser parser(text);
    JValue root = parser.parse();
    ASSERT_FALSE(parser.failed) << "trace is not well-formed JSON";
    ASSERT_EQ(root.kind, JValue::Obj);
    const JValue *events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->kind, JValue::Arr);
    ASSERT_FALSE(events->arr.empty());

    std::set<double> pids, tids, namedPids, namedTids;
    std::map<double, double> lastTs;  // tid -> last seen ts
    std::set<std::string> spanNames;
    for (const JValue &ev : events->arr) {
        ASSERT_EQ(ev.kind, JValue::Obj);
        const JValue *ph = ev.find("ph");
        const JValue *pid = ev.find("pid");
        const JValue *tid = ev.find("tid");
        const JValue *name = ev.find("name");
        ASSERT_NE(ph, nullptr);
        ASSERT_NE(pid, nullptr);
        ASSERT_NE(tid, nullptr);
        ASSERT_NE(name, nullptr);
        ASSERT_EQ(pid->kind, JValue::Num);
        ASSERT_EQ(tid->kind, JValue::Num);

        if (ph->str == "M") {
            if (name->str == "process_name")
                namedPids.insert(pid->num);
            else if (name->str == "thread_name")
                namedTids.insert(tid->num);
            const JValue *args = ev.find("args");
            ASSERT_NE(args, nullptr);
            ASSERT_NE(args->find("name"), nullptr);
            continue;
        }

        ASSERT_TRUE(ph->str == "X" || ph->str == "i")
            << "unexpected phase " << ph->str;
        pids.insert(pid->num);
        tids.insert(tid->num);
        const JValue *ts = ev.find("ts");
        ASSERT_NE(ts, nullptr);
        ASSERT_EQ(ts->kind, JValue::Num);
        if (ph->str == "X") {
            const JValue *dur = ev.find("dur");
            ASSERT_NE(dur, nullptr);
            ASSERT_GE(dur->num, 0.0);
            spanNames.insert(name->str);
        }
        auto [it, fresh] = lastTs.emplace(tid->num, ts->num);
        if (!fresh) {
            EXPECT_LE(it->second, ts->num)
                << "timestamps not monotone within tid " << tid->num;
            it->second = ts->num;
        }
    }

    // Every process and thread that emitted events is named.
    for (double pid : pids)
        EXPECT_TRUE(namedPids.count(pid)) << "unnamed pid " << pid;
    for (double tid : tids)
        EXPECT_TRUE(namedTids.count(tid)) << "unnamed tid " << tid;

    // The per-worker phase spans the acceptance criteria require.
    bool sawStamp = false, sawReplay = false;
    for (const std::string &n : spanNames) {
        sawStamp |= n.rfind("batch.stamp.", 0) == 0;
        sawReplay |= n.rfind("shard.replay.", 0) == 0;
    }
    EXPECT_TRUE(sawStamp) << "no batch.stamp.* span recorded";
    EXPECT_TRUE(sawReplay) << "no shard.replay.* span recorded";
    EXPECT_TRUE(spanNames.count("sim.timedRun") ||
                spanNames.count("shard.capture"))
        << "no simulation-phase span recorded";
}

TEST(TraceSchema, MetricsFragmentParses)
{
    // The bench run above populated the registry; the fragment that
    // perf_pipeline embeds as its "metrics" section must be a JSON
    // object of numbers.
    std::string frag = obs::metricsJson("  ");
    JParser parser(frag);
    JValue v = parser.parse();
    ASSERT_FALSE(parser.failed) << "fragment: [" << frag << "]";
    ASSERT_EQ(v.kind, JValue::Obj);
    for (const auto &[name, val] : v.obj) {
        EXPECT_FALSE(name.empty());
        EXPECT_EQ(val.kind, JValue::Num);
    }
}

} // namespace
} // namespace eel
