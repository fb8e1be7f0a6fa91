/**
 * @file
 * Correctness gates for the content-addressed result cache: a warm
 * run must be byte-identical to a cold one, a one-byte edit to a hot
 * text page must invalidate exactly the shards that execute that
 * page, and the disk tier must survive a process restart — while any
 * corrupt, truncated, or wrong-version cache file is rejected
 * cleanly and treated as a cold lookup, never trusted.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "src/eel/cfg.hh"
#include "src/eel/editor.hh"
#include "src/isa/builder.hh"
#include "src/machine/model.hh"
#include "src/sim/resultcache.hh"
#include "src/sim/shard.hh"
#include "src/support/thread_pool.hh"
#include "src/workload/generator.hh"
#include "src/workload/spec.hh"

namespace eel::sim {
namespace {

namespace fs = std::filesystem;

exe::Executable
makeWorkload(double scale)
{
    const machine::MachineModel &m =
        machine::MachineModel::builtin("ultrasparc");
    auto specs = workload::spec95("ultrasparc");
    workload::GenOptions gopts;
    gopts.scale = scale;
    gopts.machine = &m;
    return workload::generate(specs[0], gopts);
}

std::vector<uint8_t>
leaderMap(const exe::Executable &x)
{
    std::vector<uint8_t> leader(x.text.size(), 0);
    for (const auto &r : edit::buildRoutines(x))
        for (const auto &blk : r.blocks)
            leader[(blk.startAddr - exe::textBase) / 4] = 1;
    return leader;
}

/** Full retired-pc trace of the functional run, for computing which
 *  shards touch which text pages (replay touch = own retires plus
 *  the recorded warmup pcs, which are the trace just before the
 *  cut). */
std::vector<uint32_t>
pcTrace(const exe::Executable &x)
{
    struct Sink final
    {
        std::vector<uint32_t> pcs;
        void
        retire(uint32_t pc, const isa::Instruction &)
        {
            pcs.push_back(pc);
        }
    } sink;
    Emulator emu(x);
    emu.run(sink);
    return sink.pcs;
}

/** The set of shards whose replay touches `page`, mirroring the
 *  replay's marking: shard k marks its own retires plus its warmup
 *  prefix (the last `warmup` retires before its cut). */
std::set<size_t>
shardsTouchingPage(const std::vector<uint32_t> &trace,
                   uint64_t interval, unsigned warmup, uint32_t page)
{
    std::set<size_t> touching;
    size_t shards =
        trace.size() % interval ? trace.size() / interval + 1
                                : std::max<size_t>(
                                      1, trace.size() / interval);
    for (size_t k = 0; k < shards; ++k) {
        uint64_t start = k * interval;
        uint64_t lo = k == 0 ? 0
                             : (start > warmup ? start - warmup : 0);
        uint64_t hi = std::min<uint64_t>(trace.size(),
                                         start + interval);
        for (uint64_t i = lo; i < hi; ++i) {
            if ((trace[i] - exe::textBase) / exe::Chunk::bytes ==
                page) {
                touching.insert(k);
                break;
            }
        }
    }
    return touching;
}

void
expectRunsEqual(const ShardedRun &a, const ShardedRun &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.result.instructions, b.result.instructions);
    EXPECT_EQ(a.result.exitCode, b.result.exitCode);
    EXPECT_EQ(a.result.output, b.result.output);
    EXPECT_EQ(a.issueHistogram, b.issueHistogram);
    EXPECT_TRUE(a.stallBreakdown == b.stallBreakdown);
    EXPECT_EQ(a.stallCycles, b.stallCycles);
    EXPECT_EQ(a.leaderRetires, b.leaderRetires);
    EXPECT_EQ(a.blocksRetired, b.blocksRetired);
    EXPECT_TRUE(a.finalState.equalTo(b.finalState, false));
}

/** A scratch directory under /tmp, clean at entry. */
fs::path
scratchDir(const std::string &name)
{
    fs::path dir = fs::temp_directory_path() / name;
    fs::remove_all(dir);
    return dir;
}

struct Fixture
{
    const machine::MachineModel &model =
        machine::MachineModel::builtin("ultrasparc");
    exe::Executable x = makeWorkload(0.05);
    std::vector<uint8_t> leader = leaderMap(x);
    support::ThreadPool pool{4};

    ShardOptions
    opts(ResultCache *cache)
    {
        ShardOptions o;
        o.interval = 2000;
        o.pool = &pool;
        o.blockLeader = &leader;
        o.timing.collectStalls = true;
        o.cache = cache;
        return o;
    }
};

TEST(ResultCache, WarmRunHitsRunTier)
{
    Fixture f;
    ResultCache cache;

    ShardedRun cold = runSharded(f.x, f.model, f.opts(&cache));
    ASSERT_TRUE(cold.result.exited);
    EXPECT_FALSE(cold.stats.cachedRun);
    EXPECT_EQ(cold.stats.cachedShards, 0u);
    EXPECT_GE(cold.stats.shards, 4u);
    EXPECT_GT(cache.stats().stores, 0u);

    ShardedRun warm = runSharded(f.x, f.model, f.opts(&cache));
    EXPECT_TRUE(warm.stats.cachedRun);
    EXPECT_EQ(warm.stats.shards, cold.stats.shards);
    expectRunsEqual(warm, cold);

    // The warm run was answered by its one whole-run lookup.
    EXPECT_EQ(warm.stats.cachedShards, 0u);
    ResultCache::Stats st = cache.stats();
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.invalidations, 0u);

    // A run without the cache matches too (the cache changed
    // nothing about the cold path).
    ShardedRun plain = runSharded(f.x, f.model, f.opts(nullptr));
    expectRunsEqual(plain, cold);
}

TEST(ResultCache, ConfigChangeMissesCleanly)
{
    Fixture f;
    ResultCache cache;
    ShardedRun cold = runSharded(f.x, f.model, f.opts(&cache));

    // A different machine model is a different fingerprint: a plain
    // miss (no candidates, so no invalidation), and the results are
    // the other model's own.
    const machine::MachineModel &other =
        machine::MachineModel::builtin("supersparc");
    ShardedRun otherCold = runSharded(f.x, other, f.opts(&cache));
    EXPECT_FALSE(otherCold.stats.cachedRun);
    EXPECT_EQ(otherCold.stats.cachedShards, 0u);
    EXPECT_EQ(cache.stats().invalidations, 0u);
    EXPECT_NE(otherCold.cycles, cold.cycles);

    // And each key now warm-hits independently.
    EXPECT_TRUE(
        runSharded(f.x, f.model, f.opts(&cache)).stats.cachedRun);
    EXPECT_TRUE(
        runSharded(f.x, other, f.opts(&cache)).stats.cachedRun);
}

/**
 * Two phases on two text pages: a counted loop at the top of page 0,
 * then a counted loop at the top of page 1 (the gap is nop padding
 * that never executes). The early shards therefore execute only page
 * 0 and the late shards only page 1, so a page edit has a strict
 * subset of shards to invalidate.
 */
exe::Executable
phasedProgram()
{
    namespace b = isa::build;
    namespace rn = isa::reg;
    namespace cond = isa::cond;
    exe::Executable x;
    x.entry = exe::textBase;
    auto push = [&](isa::Instruction in) {
        x.text.push_back(isa::encode(in));
    };
    push(b::movi(rn::o1, 4000));                      // w0
    push(b::rri(isa::Op::Subcc, rn::o1, rn::o1, 1));  // w1: A loop
    push(b::bicc(cond::ne, -1));                      // w2 -> w1
    push(b::nop());                                   // w3 delay
    push(b::movi(rn::o2, 1200));                      // w4
    push(b::ba(295));                                 // w5 -> w300
    push(b::nop());                                   // w6 delay
    while (x.text.size() < 300)
        push(b::nop());                               // never runs
    push(b::nop());                                   // w300: page 1
    push(b::rri(isa::Op::Subcc, rn::o2, rn::o2, 1));  // w301: B loop
    push(b::bicc(cond::ne, -2));                      // w302 -> w300
    push(b::nop());                                   // w303 delay
    push(b::movi(rn::o0, 0));
    push(b::ta(isa::trap::exit_prog));
    push(b::retl());
    push(b::nop());
    x.symbols.push_back(exe::Symbol{
        "main", exe::textBase,
        static_cast<uint32_t>(4 * x.text.size()), true});
    return x;
}

TEST(ResultCache, HotPageEditInvalidatesExactlyTouchingShards)
{
    const machine::MachineModel &model =
        machine::MachineModel::builtin("ultrasparc");
    exe::Executable x = phasedProgram();
    std::vector<uint8_t> leader = leaderMap(x);
    support::ThreadPool pool(4);
    ResultCache cache;
    ShardOptions o;
    o.interval = 500;
    o.pool = &pool;
    o.blockLeader = &leader;
    o.timing.collectStalls = true;
    o.cache = &cache;
    ShardOptions uncached = o;
    uncached.cache = nullptr;

    ShardedRun cold = runSharded(x, model, o);
    ASSERT_TRUE(cold.result.exited);
    // The touch accounting below assumes every shard was satisfied
    // by its warmup replay (a stitch resim replays without warmup).
    ASSERT_EQ(cold.stats.resims, 0u);
    size_t shards = cold.stats.shards;
    ASSERT_GE(shards, 8u);

    // The hot nop at the head of the page-1 loop: rewriting its
    // imm22 from 0 to 1 is a one-byte edit that still writes the
    // hardwired-zero %g0. Architecturally inert, so the functional
    // capture — and with it every shard key — is unchanged, and
    // only the page-hash manifests differ.
    const uint32_t editWord = 300;
    ASSERT_EQ(x.text[editWord], 0x01000000u);
    std::vector<uint32_t> trace = pcTrace(x);
    ASSERT_EQ(trace.size(), cold.result.instructions);
    std::set<size_t> touching = shardsTouchingPage(
        trace, o.interval, o.warmup,
        editWord * 4 / exe::Chunk::bytes);
    ASSERT_FALSE(touching.empty());
    ASSERT_LT(touching.size(), shards);

    exe::Executable edited = x;
    edited.text.set(editWord, 0x01000001u);

    ResultCache::Stats before = cache.stats();
    ShardedRun warm = runSharded(edited, model, o);
    ResultCache::Stats after = cache.stats();

    // The whole-image run key misses (one page changed), the shard
    // tier reuses every shard that never executes the edited page,
    // and each shard that does counts exactly one invalidation.
    EXPECT_FALSE(warm.stats.cachedRun);
    EXPECT_EQ(warm.stats.shards, shards);
    EXPECT_EQ(warm.stats.cachedShards, shards - touching.size());
    EXPECT_EQ(after.invalidations - before.invalidations,
              touching.size());

    // The mixed cached/re-run merge is byte-identical to a fresh
    // cold run of the edited image.
    ShardedRun reference = runSharded(edited, model, uncached);
    expectRunsEqual(warm, reference);

    // The edit was inert, so it is also byte-identical to the
    // original image's run.
    expectRunsEqual(warm, cold);

    // Running the edited image again now hits its own run-tier
    // entry, stored by the mixed run.
    EXPECT_TRUE(runSharded(edited, model, o).stats.cachedRun);
}

TEST(ResultCache, DiskTierSurvivesReconstruction)
{
    Fixture f;
    fs::path dir = scratchDir("eel_rescache_disk");

    ShardedRun cold;
    {
        ResultCache cache({dir.string(), nullptr});
        cold = runSharded(f.x, f.model, f.opts(&cache));
        ASSERT_TRUE(cold.result.exited);
        EXPECT_GT(cache.stats().stores, 0u);
    }
    ASSERT_TRUE(fs::exists(dir));
    size_t files = 0;
    for (const auto &e : fs::directory_iterator(dir))
        files += e.path().extension() == ".rc";
    EXPECT_GT(files, 0u);

    // A fresh instance — a new process, as far as the cache can
    // tell — loads the tier and serves the run warm.
    ResultCache reborn({dir.string(), nullptr});
    ResultCache::Stats st = reborn.stats();
    EXPECT_EQ(st.diskEntriesLoaded, files);
    EXPECT_EQ(st.diskRejects, 0u);

    ShardedRun warm = runSharded(f.x, f.model, f.opts(&reborn));
    EXPECT_TRUE(warm.stats.cachedRun);
    EXPECT_GT(reborn.stats().diskHits, 0u);
    expectRunsEqual(warm, cold);

    fs::remove_all(dir);
}

TEST(ResultCache, CorruptDiskFilesRejectedAndTreatedCold)
{
    Fixture f;
    fs::path dir = scratchDir("eel_rescache_corrupt");

    ShardedRun cold;
    {
        ResultCache cache({dir.string(), nullptr});
        cold = runSharded(f.x, f.model, f.opts(&cache));
    }

    // Damage every entry, rotating through the failure modes the
    // loader must reject: truncation to a stub, bad magic, a future
    // version, a flipped payload byte (checksum mismatch), and a
    // payload cut short (length mismatch).
    size_t files = 0;
    for (const auto &e : fs::directory_iterator(dir)) {
        if (e.path().extension() != ".rc")
            continue;
        std::string bytes;
        {
            std::ifstream in(e.path(), std::ios::binary);
            bytes.assign(std::istreambuf_iterator<char>(in), {});
        }
        ASSERT_GT(bytes.size(), 30u);
        switch (files % 5) {
          case 0:
            bytes.resize(3);
            break;
          case 1:
            bytes[0] = 'X';
            break;
          case 2:
            bytes[6] = char(0xff);  // version field
            break;
          case 3:
            bytes[bytes.size() / 2] ^= 0x40;
            break;
          case 4:
            bytes.resize(bytes.size() - 5);
            break;
        }
        std::ofstream out(e.path(),
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
        ++files;
    }
    ASSERT_GT(files, 0u);
    // Plus a file that was never a cache entry at all.
    std::ofstream(dir / "alien.rc") << "not a cache entry";

    ResultCache reborn({dir.string(), nullptr});
    ResultCache::Stats st = reborn.stats();
    EXPECT_EQ(st.diskEntriesLoaded, 0u);
    EXPECT_EQ(st.diskRejects, files + 1);

    // Cold but correct: corruption costs time, never poisons output.
    ShardedRun rerun = runSharded(f.x, f.model, f.opts(&reborn));
    EXPECT_FALSE(rerun.stats.cachedRun);
    EXPECT_EQ(rerun.stats.cachedShards, 0u);
    expectRunsEqual(rerun, cold);

    fs::remove_all(dir);
}

/** An entry file around payload: "EELRC1" | u32 version |
 *  u64 length | payload | u64 FNV-1a(payload), little-endian. */
std::string
entryFile(const std::string &payload,
          uint32_t version = ResultCache::diskVersion)
{
    auto le = [](std::string &out, uint64_t v, int bytes) {
        for (int i = 0; i < bytes; ++i)
            out.push_back(char(v >> (8 * i)));
    };
    uint64_t sum = 0xcbf29ce484222325ull;
    for (char c : payload) {
        sum ^= uint8_t(c);
        sum *= 0x100000001b3ull;
    }
    std::string out = "EELRC1";
    le(out, version, 4);
    le(out, payload.size(), 8);
    out += payload;
    le(out, sum, 8);
    return out;
}

TEST(ResultCache, MalformedPayloadsWithValidChecksumsRejected)
{
    Fixture f;
    fs::path dir = scratchDir("eel_rescache_payload");
    {
        ResultCache cache({dir.string(), nullptr});
        runSharded(f.x, f.model, f.opts(&cache));
    }
    // The largest entry carries an end state (memory deltas) as well
    // as every other record field.
    std::string bytes;
    for (const auto &e : fs::directory_iterator(dir)) {
        std::ifstream in(e.path(), std::ios::binary);
        std::string b(std::istreambuf_iterator<char>(in), {});
        if (b.size() > bytes.size())
            bytes = std::move(b);
    }
    fs::remove_all(dir);
    ASSERT_GT(bytes.size(), 26u);
    const std::string payload = bytes.substr(18, bytes.size() - 26);
    ASSERT_EQ(entryFile(payload), bytes);

    // Every damaged file passes the length and checksum checks, so
    // only the bounds-checked decoder can reject it: a truncated
    // payload at many cut points and a trailing byte. Plus files of
    // older format versions, rejected from their header alone: a
    // version-1 file (the three-tier layout) and a version-2 file
    // (dense timing states and normalized keys).
    fs::create_directories(dir);
    size_t damaged = 0;
    auto put = [&](const std::string &file) {
        std::ofstream(dir / ("d" + std::to_string(damaged++) + ".rc"),
                      std::ios::binary)
            << file;
    };
    const size_t step = std::max<size_t>(1, payload.size() / 97);
    for (size_t cut = 0; cut < payload.size();
         cut += cut < 256 ? 1 : step)
        put(entryFile(payload.substr(0, cut)));
    put(entryFile(payload + '\0'));
    put(entryFile(payload, 1));
    put(entryFile(payload, 2));
    std::ofstream(dir / "intact.rc", std::ios::binary) << bytes;

    ResultCache reborn({dir.string(), nullptr});
    EXPECT_EQ(reborn.stats().diskRejects, damaged);
    EXPECT_EQ(reborn.stats().diskEntriesLoaded, 1u);
    fs::remove_all(dir);
}

TEST(ResultCache, EndStateOverrunningTheImagesMisses)
{
    // An end state whose memory deltas do not fit the images a lookup
    // rebuilds (as a hostile entry file could hold) misses cleanly.
    Fixture f;
    ResultCache cache;
    ResultCache::ImageKey ik =
        cache.imageKey(f.x, f.model, {}, {}, 0, 0, nullptr);
    const ResultCache::Key key = cache.serialRunKey(ik);
    Emulator::Config big;
    big.stackBytes *= 2;
    ResultCache::Record rec;
    rec.endState.dataMem = initialDataImage(f.x);
    rec.endState.stackMem.assign(big.stackBytes, 0);
    rec.endState.stackMem.back() = 1;
    cache.store(ik, key, {}, rec, f.x);

    ResultCache::Record out;
    ASSERT_TRUE(cache.lookup(ik, key, f.x, big, out));
    EXPECT_EQ(out.endState.stackMem, rec.endState.stackMem);
    EXPECT_FALSE(cache.lookup(ik, key, f.x, {}, out));
}

TEST(ResultCache, TimingStateNotFittingTheModelMisses)
{
    // A timing state the stitch handoff could not apply to this
    // model's pipeline (as a hostile entry file could hold) misses
    // cleanly, in either the start or the end slot of a record.
    Fixture f;
    TimingSim timing(f.model);
    Emulator emu(f.x);
    emu.run(timing, 5000);
    const TimingSim::State good = timing.captureState();
    ASSERT_FALSE(good.pipe.rowAt.empty());
    ASSERT_FALSE(good.pipe.regs.empty());

    // Stores rec under a fresh cache and reports whether it hits.
    auto hits = [&](const ResultCache::Record &rec) {
        ResultCache cache;
        ResultCache::ImageKey ik =
            cache.imageKey(f.x, f.model, {}, {}, 0, 0, nullptr);
        const ResultCache::Key key = cache.serialRunKey(ik);
        cache.store(ik, key, {}, rec, f.x);
        ResultCache::Record out;
        const bool hit = cache.lookup(ik, key, f.x, {}, out);
        EXPECT_EQ(cache.stats().misses, hit ? 0u : 1u);
        if (hit) {
            EXPECT_TRUE(out.startTiming == rec.startTiming);
            EXPECT_TRUE(out.endTiming == rec.endTiming);
        }
        return hit;
    };
    ResultCache::Record rec;
    rec.startTiming = good;
    rec.endTiming = good;
    EXPECT_TRUE(hits(rec));

    const struct
    {
        const char *name;
        void (*damage)(TimingSim::State &);
    } cases[] = {
        {"register id past numRegIds",
         [](TimingSim::State &s) {
             s.pipe.regs.back() = isa::numRegIds;
         }},
        {"register values not 3 per register",
         [](TimingSim::State &s) { s.pipe.regVals.pop_back(); }},
        {"row free counts not one per unit",
         [](TimingSim::State &s) { s.pipe.rowFree.push_back(1); }},
        {"row offset past the unit ring",
         [](TimingSim::State &s) { s.pipe.rowAt.back() = 256; }},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.name);
        ResultCache::Record start = rec, end = rec;
        c.damage(start.startTiming);
        c.damage(end.endTiming);
        EXPECT_FALSE(hits(start));
        EXPECT_FALSE(hits(end));
    }
}

TEST(ResultCache, SerialRunRoundtripsThroughDisk)
{
    Fixture f;
    fs::path dir = scratchDir("eel_rescache_serial");

    ResultCache::Record v;
    v.insts = 12345;
    v.cycles = 67890;
    v.exitCode = 7;
    v.exited = true;
    v.output = std::string("hello\0world", 11);

    // The service's SIMULATE entry: a whole serial run of the image.
    auto imageKey = [&](ResultCache &cache, const exe::Executable &x,
                        const TimingSim::Config &tcfg) {
        return cache.imageKey(x, f.model, tcfg, {}, 0, 0, nullptr);
    };
    ResultCache::Key key;
    {
        ResultCache cache({dir.string(), nullptr});
        ResultCache::ImageKey ik = imageKey(cache, f.x, {});
        key = cache.serialRunKey(ik);
        ResultCache::Record out;
        EXPECT_FALSE(cache.lookup(ik, key, f.x, {}, out));
        cache.store(ik, key, {}, v, f.x);
        ASSERT_TRUE(cache.lookup(ik, key, f.x, {}, out));
        EXPECT_EQ(out.output, v.output);

        // Its flavor keeps it from answering a sharded run's lookup
        // of the same image key.
        EXPECT_FALSE(cache.lookup(ik, ik.run, f.x, {}, out));

        // The key covers the image: an edited text page misses.
        exe::Executable edited = f.x;
        edited.text.set(0, f.x.text[0] ^ 1u);
        ResultCache::ImageKey ek = imageKey(cache, edited, {});
        EXPECT_FALSE(
            cache.lookup(ek, cache.serialRunKey(ek), edited, {}, out));
        // And so does a different timing config.
        TimingSim::Config icfg;
        icfg.useICache = true;
        ResultCache::ImageKey ck = imageKey(cache, f.x, icfg);
        EXPECT_FALSE(
            cache.lookup(ck, cache.serialRunKey(ck), f.x, {}, out));
    }

    ResultCache reborn({dir.string(), nullptr});
    ResultCache::ImageKey ik = imageKey(reborn, f.x, {});
    ASSERT_TRUE(reborn.serialRunKey(ik) == key);
    ResultCache::Record out;
    ASSERT_TRUE(reborn.lookup(ik, key, f.x, {}, out));
    EXPECT_EQ(out.insts, v.insts);
    EXPECT_EQ(out.cycles, v.cycles);
    EXPECT_EQ(out.exitCode, v.exitCode);
    EXPECT_EQ(out.exited, v.exited);
    EXPECT_EQ(out.output, v.output);
    EXPECT_EQ(reborn.stats().diskHits, 1u);

    fs::remove_all(dir);
}

} // namespace
} // namespace eel::sim
