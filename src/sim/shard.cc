#include "src/sim/shard.hh"

#include <algorithm>
#include <chrono>

#include "src/obs/metrics.hh"
#include "src/obs/trace.hh"
#include "src/sim/resultcache.hh"
#include "src/support/logging.hh"

namespace eel::sim {

namespace {

using Clock = std::chrono::steady_clock;

double
elapsed(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Feeds the timing model and counts block-leader retires. */
struct ReplaySink final
{
    TimingSim *timing;
    const std::vector<uint8_t> *leader;  ///< may be null
    std::vector<uint64_t> perWord;       ///< sized iff leader
    uint64_t blocks = 0;
    /** Page-touch bitmap (one byte per text page), set for every
     *  retired pc when the result cache is recording a manifest. */
    uint8_t *touched = nullptr;

    void
    retire(uint32_t pc, const isa::Instruction &inst)
    {
        timing->retire(pc, inst);
        if (touched)
            touched[(pc - exe::textBase) / exe::Chunk::bytes] = 1;
        if (leader) {
            uint32_t w = (pc - exe::textBase) / 4;
            if ((*leader)[w]) {
                ++blocks;
                ++perWord[w];
            }
        }
    }
};

/** One shard's replay: the cache record (counter deltas past its
 *  warmup, end state, stitch timing states) plus what the cache
 *  never stores. */
struct ShardOut
{
    ResultCache::Record rec;
    uint64_t icMisses = 0;
    uint64_t icAccesses = 0;
    /** Text pages this shard's replay (incl. warmup) executed; sized
     *  only while the result cache records manifests. */
    std::vector<uint8_t> touched;
};

std::vector<uint32_t>
touchedPageList(const std::vector<uint8_t> &touched)
{
    std::vector<uint32_t> pages;
    for (uint32_t i = 0; i < touched.size(); ++i)
        if (touched[i])
            pages.push_back(i);
    return pages;
}

/** A whole-run record (merged or cached) viewed as a ShardedRun. */
ShardedRun
fromRunRecord(ResultCache::Record &&r, const machine::MachineModel &model)
{
    ShardedRun out;
    out.result.instructions = r.insts;
    out.result.exitCode = r.exitCode;
    out.result.exited = r.exited;
    out.result.output = std::move(r.output);
    out.cycles = r.cycles;
    out.seconds = double(r.cycles) / (model.clockMhz() * 1e6);
    out.ipc = r.cycles ? double(r.insts) / double(r.cycles) : 0.0;
    out.issueHistogram = std::move(r.hist);
    out.stallBreakdown = r.breakdown;
    out.stallCycles = r.stallCycles;
    out.leaderRetires = std::move(r.perWord);
    out.blocksRetired = r.blocks;
    out.finalState = std::move(r.endState);
    out.stats.shards = r.shards;
    out.stats.resims = r.resims;
    return out;
}

} // namespace

TimedRun
ShardedRun::toTimedRun() const
{
    TimedRun tr;
    tr.result = result;
    tr.cycles = cycles;
    tr.seconds = seconds;
    tr.ipc = ipc;
    tr.issueHistogram = issueHistogram;
    tr.icacheMisses = icacheMisses;
    tr.icacheAccesses = icacheAccesses;
    tr.stallBreakdown = stallBreakdown;
    tr.stallCycles = stallCycles;
    return tr;
}

ShardedRun
runSharded(const exe::Executable &x,
           const machine::MachineModel &model,
           const ShardOptions &opts)
{
    auto text = Emulator::decodeText(x);

    // The cache is gated exactly like the validation stitch: without
    // an icache the timing state is self-contained, so cached results
    // are byte-identical to a cold run.
    const bool useCache = opts.cache && !opts.timing.useICache;
    ResultCache::ImageKey ikey;
    if (useCache) {
        ikey = opts.cache->imageKey(x, model, opts.timing, opts.emu,
                                    opts.interval, opts.warmup,
                                    opts.blockLeader);
        // Whole-run entry: an image whose every text+data page is
        // unchanged skips even the functional capture pass.
        ResultCache::Record run;
        if (opts.cache->lookup(ikey, ikey.run, x, opts.emu, run)) {
            ShardedRun hit = fromRunRecord(std::move(run), model);
            hit.stats.cachedRun = true;
            return hit;
        }
    }

    auto t0 = Clock::now();
    CheckpointOptions copts;
    copts.interval = opts.interval;
    copts.warmup = opts.warmup;
    copts.emu = opts.emu;
    CheckpointLog log;
    {
        obs::Span span("shard.capture");
        log = captureCheckpoints(x, copts, text);
    }

    ShardStats stats;
    stats.captureSec = elapsed(t0);
    stats.checkpointBytes = log.bytes();

    const uint64_t total = log.functional.instructions;
    const size_t shards = log.checkpoints.size() + 1;
    stats.shards = shards;

    // Shard k replays (start_k, end_k]; the boundaries are the
    // checkpoints' retirement counts.
    auto shardStart = [&](size_t k) {
        return k == 0 ? 0 : log.checkpoints[k - 1].state.retired;
    };
    auto shardEnd = [&](size_t k) {
        return k + 1 < shards ? log.checkpoints[k].state.retired
                              : total;
    };

    // Validation + handoff only works when the timing state is
    // self-contained; icache contents are not snapshotted (that
    // config is documented approximate anyway).
    const bool validate = !opts.timing.useICache;

    std::vector<ShardOut> results(shards);
    // Replay shard k's region. A null handoff starts the timing
    // model cold and warms it on the checkpoint's recorded pc tail
    // (optimistic parallel pass); a non-null handoff continues from
    // the predecessor's end timing state (stitch resimulation).
    auto replayRegion = [&](size_t k, const TimingSim::State *handoff) {
        Emulator emu(x, opts.emu, text);
        // Fresh emulator => pristine images, so the checkpoint's page
        // deltas can be patched in place (no image materialization).
        if (k > 0)
            restoreCheckpoint(emu, log.checkpoints[k - 1]);

        ShardOut &o = results[k];
        ResultCache::Record &rec = o.rec;
        if (useCache)
            o.touched.assign(x.text.chunkRefs().size(), 0);

        TimingSim timing(model, opts.timing);
        if (handoff) {
            timing.applyState(*handoff);
        } else if (k > 0) {
            // Warmup pcs count as touches: the instructions replayed
            // here come from the current text, so an edit to a page
            // only the warmup executes still changes the timing state
            // at the cut.
            for (uint32_t pc : log.checkpoints[k - 1].warmupPcs) {
                timing.retire(pc, (*text)[(pc - exe::textBase) / 4]);
                if (useCache)
                    o.touched[(pc - exe::textBase) /
                              exe::Chunk::bytes] = 1;
            }
        }
        if (validate)
            rec.startTiming = timing.captureState();
        // Everything accrued so far belongs to earlier shards; this
        // shard contributes only deltas past the cut.
        const uint64_t warmCycles = timing.cycles();
        const std::vector<uint64_t> warmHist = timing.issueHistogram();
        const uint64_t warmMisses =
            timing.icache() ? timing.icache()->misses() : 0;
        const uint64_t warmAccesses =
            timing.icache() ? timing.icache()->accesses() : 0;
        // Stall counters are monotone, so the warmup's share
        // subtracts exactly (per reason).
        const obs::StallBreakdown warmBrk = timing.stallBreakdown();
        const uint64_t warmStall = timing.stallCycles();

        ReplaySink sink{&timing, opts.blockLeader, {}, 0,
                        useCache ? o.touched.data() : nullptr};
        if (opts.blockLeader)
            sink.perWord.assign(x.text.size(), 0);

        RunResult r = emu.run(sink, shardEnd(k) - shardStart(k));

        rec.cycles = timing.cycles() - warmCycles;
        rec.insts = r.instructions;
        rec.hist = timing.issueHistogram();
        for (size_t b = 0; b < rec.hist.size() && b < warmHist.size();
             ++b)
            rec.hist[b] -= std::min(rec.hist[b], warmHist[b]);
        if (timing.icache()) {
            o.icMisses = timing.icache()->misses() - warmMisses;
            o.icAccesses = timing.icache()->accesses() - warmAccesses;
        }
        rec.breakdown = timing.stallBreakdown();
        rec.breakdown -= warmBrk;
        rec.stallCycles = timing.stallCycles() - warmStall;
        rec.blocks = sink.blocks;
        rec.perWord = std::move(sink.perWord);
        rec.output = std::move(r.output);
        if (k + 1 == shards)
            rec.endState = emu.snapshot();
        if (validate)
            rec.endTiming = timing.captureState();
        timing.flushPipelineMetrics();
    };
    // Shard lookups run up front on the calling thread; only the
    // misses are dispatched to the pool. A shard hits when its entry
    // state (checkpoint + recorded warmup) and every text page it
    // executed are unchanged — so after an edit, exactly the shards
    // that execute the edited pages replay.
    std::vector<ResultCache::Key> warmKey(useCache ? shards : 0);
    std::vector<char> cached(shards, 0);
    if (useCache) {
        for (size_t k = 0; k < shards; ++k) {
            const Checkpoint *cp =
                k ? &log.checkpoints[k - 1] : nullptr;
            warmKey[k] = opts.cache->shardKeyWarm(
                ikey, cp, shardEnd(k) - shardStart(k),
                k + 1 == shards);
            if (opts.cache->lookup(ikey, warmKey[k], x, opts.emu,
                                   results[k].rec)) {
                cached[k] = 1;
                ++stats.cachedShards;
            }
        }
    }

    auto runShard = [&](size_t k) {
        obs::Span span("shard.replay." + std::to_string(k));
        replayRegion(k, nullptr);
        if (useCache)
            opts.cache->store(ikey, warmKey[k],
                              touchedPageList(results[k].touched),
                              results[k].rec, x);
    };

    t0 = Clock::now();
    std::vector<size_t> missIdx;
    missIdx.reserve(shards);
    for (size_t k = 0; k < shards; ++k)
        if (!cached[k])
            missIdx.push_back(k);
    if (opts.pool && missIdx.size() > 1) {
        // Cost-sorted dispatch: all shards are interval-sized except
        // the tail, so this mostly matters when the cap or an early
        // exit makes the last shard short.
        std::vector<uint64_t> cost(missIdx.size());
        for (size_t i = 0; i < missIdx.size(); ++i)
            cost[i] = shardEnd(missIdx[i]) - shardStart(missIdx[i]) +
                      opts.warmup;
        opts.pool->parallelFor(missIdx.size(), cost, [&](size_t i) {
            runShard(missIdx[i]);
        });
    } else {
        for (size_t k : missIdx)
            runShard(k);
    }

    // Stitch pass: warmup replay only reproduces the serial pipeline
    // when the stream re-synchronizes from a cold start; streams
    // with independently saturated chains (e.g. an FP pipe plus the
    // profiling counters' memory traffic) can phase-lock differently
    // and never converge, no matter how long the warmup. Walking the
    // shards in order, shard 0 is exact by construction (it starts
    // from reset, like the serial run), and shard k is exact iff its
    // post-warmup timing state matches its predecessor's exact end
    // state (TimingSim::State::sameTiming: both are rebased to their
    // frontiers, so different cycle origins still match). A
    // mismatched shard is replayed from the predecessor's handed-off
    // end state, which restores the induction — so the merged cycle,
    // stall and per-reason counters are bit-equal to the serial
    // simulator's for every interval/warmup setting, while matched
    // shards (the common case) keep the fully parallel path.
    if (validate && shards > 1) {
        obs::Span span("shard.stitch");
        static obs::Metric mResims("shard.stitch_resims",
                                   obs::MetricKind::Counter);
        for (size_t k = 1; k < shards; ++k) {
            const ResultCache::Record &prev = results[k - 1].rec;
            if (results[k].rec.startTiming.sameTiming(prev.endTiming))
                continue;
            if (useCache) {
                // Resimulations get their own cache flavor, keyed on
                // the predecessor's end timing state instead of the
                // warmup trace — so a warm re-run of a non-converging
                // stream skips even its stitch work.
                const Checkpoint *cp = &log.checkpoints[k - 1];
                ResultCache::Key hk = opts.cache->shardKeyHandoff(
                    ikey, cp, prev.endTiming,
                    shardEnd(k) - shardStart(k), k + 1 == shards);
                if (opts.cache->lookup(ikey, hk, x, opts.emu,
                                       results[k].rec)) {
                    ++stats.cachedShards;
                    continue;
                }
                replayRegion(k, &prev.endTiming);
                opts.cache->store(ikey, hk,
                                  touchedPageList(results[k].touched),
                                  results[k].rec, x);
            } else {
                replayRegion(k, &prev.endTiming);
            }
            mResims.add();
            ++stats.resims;
        }
    }
    stats.replaySec = elapsed(t0);

    // Deterministic reduction: fold in shard order, so the merged
    // result is independent of how the pool interleaved the replays.
    ResultCache::Record run;
    run.exitCode = log.functional.exitCode;
    run.exited = log.functional.exited;
    if (opts.blockLeader)
        run.perWord.assign(x.text.size(), 0);
    uint64_t icMisses = 0, icAccesses = 0;
    for (const ShardOut &o : results) {
        const ResultCache::Record &s = o.rec;
        run.cycles += s.cycles;
        run.insts += s.insts;
        if (run.hist.size() < s.hist.size())
            run.hist.resize(s.hist.size(), 0);
        for (size_t b = 0; b < s.hist.size(); ++b)
            run.hist[b] += s.hist[b];
        icMisses += o.icMisses;
        icAccesses += o.icAccesses;
        run.breakdown += s.breakdown;
        run.stallCycles += s.stallCycles;
        run.blocks += s.blocks;
        for (size_t w = 0; w < s.perWord.size(); ++w)
            run.perWord[w] += s.perWord[w];
        run.output += s.output;
    }
    // Replay fidelity: the shards re-execute exactly the capture
    // pass's instruction stream, so any divergence here is a bug in
    // checkpoint save/restore, not a property of the workload.
    if (run.insts != total)
        fatal("shard: replays retired %llu instructions, capture "
              "pass %llu", (unsigned long long)run.insts,
              (unsigned long long)total);
    if (run.output != log.functional.output)
        fatal("shard: replay output diverged from the capture pass");
    run.endState = std::move(results.back().rec.endState);
    run.shards = shards;
    run.resims = stats.resims;

    if (useCache)
        opts.cache->store(ikey, ikey.run, {}, run, x);
    ShardedRun out = fromRunRecord(std::move(run), model);
    out.icacheMisses = icMisses;
    out.icacheAccesses = icAccesses;
    out.stats = stats;
    return out;
}

} // namespace eel::sim
