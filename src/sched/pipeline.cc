#include "src/sched/pipeline.hh"

#include <algorithm>
#include <limits>

#include "src/isa/builder.hh"
#include "src/machine/pipeline.hh"
#include "src/sched/loop.hh"

namespace eel::sched {

namespace {

/**
 * Steady-state cycles per repetition of `kernel`, optionally
 * charging `bubble` front-end cycles per repetition (the timing
 * simulator's taken-branch redirect, which the pure pipeline model
 * never sees).
 */
double
steadyState(const machine::MachineModel &model, const InstSeq &kernel,
            unsigned bubble)
{
    if (kernel.empty())
        return 0.0;
    machine::PipelineState state(model);
    std::vector<machine::ResolvedVariant> rvs;
    rvs.reserve(kernel.size());
    for (const InstRef &r : kernel)
        rvs.push_back(
            machine::ResolvedVariant::resolve(model, r.inst));
    // The measurement window is divisible by every small period a
    // bounded-history pipeline can settle into (1,2,3,4,6,8,12,24),
    // so the average is exact for any such periodic schedule.
    constexpr unsigned warm = 8, meas = 24;
    uint64_t mark = 0;
    for (unsigned rep = 0; rep < warm + meas; ++rep) {
        if (rep == warm)
            mark = state.frontier();
        for (const machine::ResolvedVariant &rv : rvs)
            state.issue(rv);
        if (bubble)
            state.fetchBubble(bubble);
    }
    return static_cast<double>(state.frontier() - mark) / meas;
}

/**
 * May body instruction `j` rotate into the previous kernel (execute
 * with iteration i-1's S0, before iteration i-1's branch)? Three
 * gates:
 *  - speculation legality: the rotated stream runs it once more
 *    than the original (after the final backedge falls through);
 *  - its written registers must be dead into the loop exit (the
 *    caller already masked the editor's never-observed scratch);
 *  - it swaps order with the previous iteration's CTI and delay
 *    slot, so no dependence may point from either to it. The
 *    three-instruction graph reuses the scheduler's exact
 *    dependence/alias semantics for the pair checks.
 */
bool
rotatable(const InstSeq &code, uint32_t j,
          const std::bitset<32> &exitLive,
          const SuperblockOptions &sb_opts,
          const machine::MachineModel &model, AliasPolicy alias)
{
    const InstRef &p = code[j];
    if (!speculatable(p, sb_opts))
        return false;
    for (const auto &d : p.inst.defs())
        if (d.reg.tracked() && d.reg.cls == isa::RegClass::Int &&
            exitLive.test(d.reg.idx))
            return false;
    InstSeq tri{code[code.size() - 2], code[code.size() - 1], p};
    DepGraph g3(tri, model, alias);
    return !g3.hasEdge(0, 2) && !g3.hasEdge(1, 2);
}

/**
 * Largest rotation set the greedy scan admits, in body order. An
 * instruction joins only if nothing staying behind it (an earlier
 * body instruction left in S0) feeds it — checked on direct edges,
 * which covers transitive chains inductively: any intermediate
 * either blocked its own admission or blocks this one.
 */
std::vector<uint32_t>
greedyRotation(const InstSeq &code, const DepGraph &graph,
               const std::bitset<32> &exitLive,
               const SuperblockOptions &sb_opts,
               const machine::MachineModel &model, AliasPolicy alias)
{
    std::vector<uint32_t> set;
    std::vector<uint8_t> in(code.size(), 0);
    for (uint32_t j = 0; j + 2 < code.size(); ++j) {
        if (!rotatable(code, j, exitLive, sb_opts, model, alias))
            continue;
        bool blocked = false;
        for (uint32_t i = 0; i < j && !blocked; ++i)
            blocked = !in[i] && graph.hasEdge(i, j);
        if (blocked)
            continue;
        in[j] = 1;
        set.push_back(j);
    }
    return set;
}

/** Kernel sequence for rotation set `rot`: S0 in body order, then
 *  S1 in body order, then the pinned CTI + delay. */
InstSeq
rotationSequence(const InstSeq &code, std::span<const uint32_t> rot)
{
    std::vector<uint8_t> in(code.size(), 0);
    for (uint32_t p : rot)
        in[p] = 1;
    InstSeq seq;
    seq.reserve(code.size());
    for (uint32_t i = 0; i + 2 < code.size(); ++i)
        if (!in[i])
            seq.push_back(code[i]);
    for (uint32_t p : rot)
        seq.push_back(code[p]);
    seq.push_back(code[code.size() - 2]);
    seq.push_back(code[code.size() - 1]);
    return seq;
}

InstSeq
prologueSequence(const InstSeq &code, std::span<const uint32_t> rot)
{
    InstSeq seq;
    seq.reserve(rot.size());
    for (uint32_t p : rot)
        seq.push_back(code[p]);
    return seq;
}

/**
 * Unroll-and-schedule: two copies of the body in one block. The
 * first copy's backedge is inverted and re-targeted at the exit's
 * old leader address (pass 2 of the editor resolves it like any
 * superblock trace inversion), the second keeps the original
 * backedge to the header. Scheduling the pair as a superblock with a
 * CondExit boundary reuses the existing speculation gates, so the
 * result is bit-identical for any trip count and per-block counters
 * are preserved (each copy carries its own snippet).
 */
InstSeq
unrollTwo(const InstSeq &code, uint32_t exitOldAddr,
          const std::bitset<32> &exitLive, double exitProb,
          const machine::MachineModel &model, const SchedOptions &opts,
          const SuperblockOptions &sb_opts)
{
    const int ctiPos = static_cast<int>(code.size()) - 2;
    std::vector<SbSegment> segs(2);
    segs[0].insts = code;
    InstRef &cti = segs[0].insts[ctiPos];
    cti.inst.cond ^= 8;
    cti.inst.disp = static_cast<int32_t>(
        (static_cast<int64_t>(exitOldAddr) -
         static_cast<int64_t>(cti.origAddr)) / 4);
    segs[0].ctiPos = ctiPos;
    segs[0].boundary = BoundaryKind::CondExit;
    segs[0].exitLive = exitLive;
    segs[0].exitProb = exitProb;
    segs[1].insts = code;
    segs[1].ctiPos = ctiPos;
    return scheduleSuperblock(segs, model, opts, sb_opts);
}

bool
loopShaped(const InstSeq &code)
{
    return code.size() >= 3 && code[code.size() - 2].inst.isCti() &&
           !code[code.size() - 1].inst.isCti();
}

} // namespace

double
steadyStateII(const machine::MachineModel &model, const InstSeq &kernel,
              unsigned bubble)
{
    return steadyState(model, kernel, bubble);
}

std::vector<PipelineLoop>
findPipelineLoops(const edit::Routine &r,
                  const edit::RoutineEdgeCounts &counts,
                  const PipelineOptions &opts)
{
    std::vector<PipelineLoop> out;
    LoopAnalyzer la(r);
    for (const LoopAnalyzer::HotLoop &h :
         la.hotLoops(counts, opts.minCount)) {
        const Loop &l = la.loops()[h.loop];
        // The modulo scheduler handles straight-line bodies with one
        // way out; multi-block and multi-exit loops keep their
        // local/superblock schedules.
        if (!l.innermost || l.blocks.size() != 1 ||
            l.exits.size() != 1)
            continue;
        const edit::Block &b = r.blocks[l.header];
        if (!b.hasCti || b.insts.size() < 3 ||
            b.insts.size() > opts.maxBodyInsts)
            continue;
        const isa::Instruction &ci = b.cti();
        if (!ci.isBranch() || ci.isAlwaysBranch() ||
            ci.isNeverBranch() || ci.annul)
            continue;
        if (b.takenSucc != static_cast<int>(b.id) || b.fallSucc < 0)
            continue;
        const edit::BlockEdgeCounts &bc = counts[b.id];
        uint64_t flow = bc.fall + bc.taken;
        double prob =
            flow ? static_cast<double>(bc.taken) / flow : 0.0;
        if (prob < opts.minBackedgeProb)
            continue;
        out.push_back({b.id, bc.exec, prob});
    }
    return out;
}

LoopBounds
loopBounds(const InstSeq &code, const machine::MachineModel &model,
           AliasPolicy alias)
{
    LoopBounds b;
    const size_t n = code.size();
    if (n == 0)
        return b;

    // Resource bound: a modulo reservation table at initiation
    // interval II has II * capacity slots per unit; one iteration's
    // holds must fit regardless of placement, so the table is
    // feasible only when II >= ceil(usage / capacity). Issue slots
    // are a unit like any other (II * issueWidth of them).
    std::vector<uint64_t> usage(model.numUnits(), 0);
    for (const InstRef &r : code)
        for (const machine::UnitHold &h :
             model.variant(r.inst).holds)
            if (h.num > 0)
                usage[h.unit] += static_cast<uint64_t>(h.num) *
                                 (h.to - h.from);
    double res = static_cast<double>(n) / model.issueWidth();
    for (unsigned u = 0; u < model.numUnits(); ++u) {
        unsigned cap = model.unitCapacity(u);
        if (cap)
            res = std::max(res, static_cast<double>(usage[u]) / cap);
    }
    b.resMII = std::max(1.0, res);

    // Recurrence bound: the smallest II for which no dependence
    // cycle keeps positive slack sum(weight - II * distance).
    // Distance-0 edges come from the body's own graph; distance-1
    // edges from the second copy of a doubled body (a dependence
    // from iteration i landing in iteration i+1).
    //
    // Edge weights are NOT the scheduler's conservative minDist —
    // they are the entry separations PipelineState actually
    // enforces, read off the resolved variants' register access
    // cycles (the same checks its simulate() applies). Anything
    // stronger is unsound against the measured steady-state metric:
    // a store's data register is read late in its pipeline, and
    // memory ordering costs nothing at all in the model, so charging
    // full producer latency there yields a "lower" bound above what
    // legal kernels measurably achieve (and an oracle that
    // early-exits above the true optimum). Weights clamp at 0: every
    // dependent pair issues in stream order, so entry separations
    // are never negative.
    std::vector<machine::ResolvedVariant> rvs;
    rvs.reserve(n);
    for (const InstRef &r : code)
        rvs.push_back(
            machine::ResolvedVariant::resolve(model, r.inst));
    auto pipeSep = [](const machine::ResolvedVariant &p,
                      const machine::ResolvedVariant &c) {
        int sep = 0;
        for (unsigned i = 0; i < c.nReads; ++i)
            for (unsigned j = 0; j < p.nWrites; ++j)
                if (c.reads[i].reg == p.writes[j].reg)     // RAW
                    sep = std::max(
                        sep, static_cast<int>(p.writes[j].ready) +
                                 1 -
                                 static_cast<int>(c.reads[i].cycle));
        for (unsigned i = 0; i < c.nWrites; ++i) {
            for (unsigned j = 0; j < p.nWrites; ++j)
                if (c.writes[i].reg == p.writes[j].reg)    // WAW
                    sep = std::max(
                        sep,
                        static_cast<int>(p.writes[j].cycle) + 1 -
                            static_cast<int>(c.writes[i].cycle));
            for (unsigned j = 0; j < p.nReads; ++j)
                if (c.writes[i].reg == p.reads[j].reg)     // WAR
                    sep = std::max(
                        sep,
                        static_cast<int>(p.reads[j].cycle) -
                            static_cast<int>(c.writes[i].cycle));
        }
        return sep;
    };
    struct CycEdge
    {
        uint32_t from, to;
        int lat, dist;
    };
    std::vector<CycEdge> edges;
    DepGraph g1(code, model, alias);
    for (const DepEdge &e : g1.edges())
        edges.push_back(
            {e.from, e.to, pipeSep(rvs[e.from], rvs[e.to]), 0});
    InstSeq two = code;
    two.insert(two.end(), code.begin(), code.end());
    DepGraph g2(two, model, alias);
    for (const DepEdge &e : g2.edges())
        if (e.from < n && e.to >= n)
            edges.push_back({e.from,
                             static_cast<uint32_t>(e.to - n),
                             pipeSep(rvs[e.from], rvs[e.to - n]),
                             1});

    // Longest-path relaxation; still changing after n passes means a
    // positive cycle, so candidate II `ii` is infeasible. Every
    // cycle crosses the iteration boundary at least once (distance-0
    // edges point forward), so the cycle ratio is finite and the
    // bound itself may be fractional (two iterations of a 5-cycle
    // recurrence per window = 2.5); a ceil here would overshoot the
    // true optimum just like an integer resource bound would.
    auto feasible = [&](double ii) {
        std::vector<double> d(n, 0.0);
        bool changed = true;
        for (size_t pass = 0; pass <= n && changed; ++pass) {
            changed = false;
            for (const CycEdge &e : edges) {
                double w = e.lat - ii * e.dist;
                if (d[e.from] + w > d[e.to] + 1e-9) {
                    d[e.to] = d[e.from] + w;
                    changed = true;
                }
            }
        }
        return !changed;
    };
    double lo = 1.0;
    double hi = 4.0 * model.maxLatency() + static_cast<double>(n) + 2;
    if (feasible(lo)) {
        b.recMII = lo;
    } else {
        for (int it = 0; it < 50; ++it) {
            double mid = 0.5 * (lo + hi);
            (feasible(mid) ? hi : lo) = mid;
        }
        b.recMII = hi;
    }
    b.mii = std::max(b.resMII, b.recMII);
    return b;
}

LoopSchedule
scheduleLoop(const InstSeq &code, const std::bitset<32> &exitLive,
             double exitProb, uint32_t exitOldAddr,
             const machine::MachineModel &model,
             const SchedOptions &opts,
             const SuperblockOptions &sb_opts,
             const PipelineOptions &popts)
{
    LoopSchedule out;
    ListScheduler scheduler(model, opts);
    out.kernel = scheduler.scheduleBlock(code);
    if (!loopShaped(code))
        return out;
    out.bounds = loopBounds(code, model, opts.alias);
    // Every kernel iteration ends in a taken backedge, so candidates
    // are judged with the fetch redirect in the measurement loop —
    // not added as a constant afterwards. The distinction matters:
    // after a redirect the front end restarts into an empty issue
    // window, so a load placed late in the period (next iteration's,
    // rotated across the backedge) drains its latency during the
    // bubble, while the same load at the top of the period stalls its
    // consumers in the open. A constant "+penalty" ranks those two
    // kernels identically; the real loop does not.
    const unsigned bp = model.branchPenalty();
    const double plainII = steadyState(model, out.kernel, bp);
    out.achievedII = plainII;
    out.bestKernelII = plainII;
    double bestCost = plainII;

    if (popts.oracle) {
        OptimalII o = optimalLoopII(code, exitLive, model, opts,
                                    sb_opts, popts);
        if (o.applicable) {
            out.kind = o.rotated ? LoopKind::Rotate
                                 : LoopKind::Plain;
            out.prologue = std::move(o.prologue);
            out.kernel = std::move(o.kernel);
            out.rotated = o.rotated;
            out.achievedII = o.ii;
            out.bestKernelII = o.ii;
            return out;
        }
        // Body too large for the exhaustive search: fall through to
        // the heuristic.
    }

    // Iterative search: largest legal rotation first, shrinking
    // toward none. Each candidate kernel is list-scheduled (the CTI
    // and delay slot stay pinned at the close) and judged by its
    // measured steady-state II.
    DepGraph graph(code, model, opts.alias);
    std::vector<uint32_t> greedy = greedyRotation(
        code, graph, exitLive, sb_opts, model, opts.alias);
    double bestRotII = std::numeric_limits<double>::infinity();
    InstSeq bestKern, bestProl;
    unsigned bestRot = 0;
    for (size_t k = greedy.size(); k >= 1; --k) {
        std::span<const uint32_t> rot(greedy.data(), k);
        InstSeq kern =
            scheduler.scheduleBlock(rotationSequence(code, rot));
        double ii = steadyState(model, kern, bp);
        if (ii < bestRotII - 1e-9) {
            bestRotII = ii;
            bestKern = std::move(kern);
            bestProl = scheduler.scheduleBlock(
                prologueSequence(code, rot));
            bestRot = static_cast<unsigned>(k);
        }
    }
    if (bestRot) {
        out.bestKernelII = std::min(out.bestKernelII, bestRotII);
        if (bestRotII < bestCost - 1e-9) {
            out.kind = LoopKind::Rotate;
            out.kernel = std::move(bestKern);
            out.prologue = std::move(bestProl);
            out.rotated = bestRot;
            out.achievedII = bestRotII;
            bestCost = bestRotII;
        }
    }

    // Rotation could not reach the lower bound (plus slack): fall
    // back to unroll-and-schedule, which halves the per-iteration
    // branch redirect and doubles the acyclic window at 2x growth
    // of this one block.
    bool met = out.achievedII <=
               out.bounds.mii + bp + popts.iiSlack + 1e-9;
    if (!met && popts.allowUnroll && exitProb < 0.5) {
        // The pair takes one redirect per TWO original iterations —
        // the unroll's whole point — so the bubble is charged once
        // per pair repetition and the cost halved.
        InstSeq pair = unrollTwo(code, exitOldAddr, exitLive,
                                 exitProb, model, opts, sb_opts);
        double cost = steadyState(model, pair, bp) / 2.0;
        if (cost < bestCost - 1e-9) {
            out.kind = LoopKind::Unroll;
            out.kernel = std::move(pair);
            out.prologue.clear();
            out.rotated = 0;
            out.achievedII = cost;
        }
    }
    return out;
}

OptimalII
optimalLoopII(const InstSeq &code, const std::bitset<32> &exitLive,
              const machine::MachineModel &model,
              const SchedOptions &opts,
              const SuperblockOptions &sb_opts,
              const PipelineOptions &popts)
{
    OptimalII out;
    if (!loopShaped(code) ||
        code.size() - 2 > popts.oracleMaxInsts)
        return out;
    out.applicable = true;

    const LoopBounds bounds = loopBounds(code, model, opts.alias);
    DepGraph graph(code, model, opts.alias);
    const InstRef &cti = code[code.size() - 2];
    const InstRef &delay = code[code.size() - 1];
    const bool freeDelay = !cti.inst.annul;

    std::vector<uint32_t> elig;
    for (uint32_t j = 0; j + 2 < code.size(); ++j)
        if (rotatable(code, j, exitLive, sb_opts, model,
                      opts.alias))
            elig.push_back(j);
    const size_t esz = std::min<size_t>(elig.size(), 12);

    double bestII = std::numeric_limits<double>::infinity();
    std::vector<uint32_t> bestRot;
    InstSeq bestKernel;
    // Early-exit floor. Only CERTIFIED lower bounds may appear here:
    // pruning on an estimate that overshoots the true optimum makes
    // the "exhaustive" search return a beatable schedule (the
    // crosscheck catches exactly that). Certified under the measured
    // metric: the resource bound (holds only grow when instructions
    // stall), and issue slots + the redirect — a repetition's n
    // entries occupy at least ceil(n/width) cycles, so its last
    // entry trails its first by at least n/width - 1, and the next
    // repetition's first entry trails THAT by the bubble; per
    // repetition the frontier advances >= n/width + penalty - 1.
    // The recurrence bound is NOT certified (mid-pipeline operand
    // stalls do not push the issue frontier), so it guides the
    // heuristic but never prunes here.
    const unsigned bp = model.branchPenalty();
    const double target =
        std::max(bounds.resMII,
                 static_cast<double>(code.size()) /
                         model.issueWidth() +
                     bp - 1) +
        1e-9;

    auto evaluate = [&](const InstSeq &kernel,
                        std::span<const uint32_t> rot) {
        ++out.ordersTried;
        double ii = steadyState(model, kernel, bp);
        if (ii < bestII - 1e-9) {
            bestII = ii;
            bestKernel = kernel;
            bestRot.assign(rot.begin(), rot.end());
        }
    };

    for (uint64_t mask = 0;
         mask < (uint64_t(1) << esz) && bestII > target &&
         out.ordersTried < popts.oracleOrderBudget;
         ++mask) {
        std::vector<uint32_t> rot;
        std::vector<uint8_t> in(code.size(), 0);
        for (size_t bit = 0; bit < esz; ++bit)
            if (mask >> bit & 1) {
                rot.push_back(elig[bit]);
                in[elig[bit]] = 1;
            }
        bool valid = true;
        for (uint32_t p : rot)
            for (uint32_t i = 0; i < p && valid; ++i)
                valid = in[i] || !graph.hasEdge(i, p);
        if (!valid)
            continue;

        // Region to order: S0 ++ S1, plus the delay instruction when
        // the non-annulling CTI frees it (mirroring scheduleBlock).
        InstSeq seq = rotationSequence(code, rot);
        InstSeq region(seq.begin(), seq.end() - 2);
        if (freeDelay)
            region.push_back(delay);
        DepGraph kg(region, model, opts.alias);

        const size_t m = region.size();
        std::vector<unsigned> preds(m);
        std::vector<uint8_t> done(m, 0);
        for (size_t i = 0; i < m; ++i)
            preds[i] = kg.numPreds(i);
        std::vector<uint32_t> order;
        order.reserve(m);

        // Depth-first over every topological order; each complete
        // order is evaluated with and without its tail moved into
        // the delay slot (that covers every fill the heuristic can
        // produce: a clean filler is last in some topological
        // order).
        auto emit = [&]() {
            InstSeq kernel;
            kernel.reserve(m + 2);
            for (uint32_t idx : order)
                kernel.push_back(region[idx]);
            if (freeDelay) {
                uint32_t last = order.back();
                if (legalInDelaySlot(region[last].inst, cti.inst)) {
                    InstSeq filled(kernel.begin(),
                                   kernel.end() - 1);
                    filled.push_back(cti);
                    filled.push_back(region[last]);
                    evaluate(filled, rot);
                }
                kernel.push_back(cti);
                InstRef nop;
                nop.inst = isa::build::nop();
                nop.isInstrumentation = true;
                kernel.push_back(nop);
                evaluate(kernel, rot);
            } else {
                kernel.push_back(cti);
                kernel.push_back(delay);
                evaluate(kernel, rot);
            }
        };

        auto dfs = [&](auto &&self) -> void {
            if (bestII <= target ||
                out.ordersTried >= popts.oracleOrderBudget)
                return;
            if (order.size() == m) {
                emit();
                return;
            }
            for (uint32_t i = 0; i < m; ++i) {
                if (done[i] || preds[i])
                    continue;
                done[i] = 1;
                order.push_back(i);
                for (uint32_t e : kg.succs(i))
                    --preds[kg.edges()[e].to];
                self(self);
                for (uint32_t e : kg.succs(i))
                    ++preds[kg.edges()[e].to];
                order.pop_back();
                done[i] = 0;
            }
        };
        dfs(dfs);
    }

    out.capped = out.ordersTried >= popts.oracleOrderBudget;
    out.ii = bestII;
    out.rotated = static_cast<unsigned>(bestRot.size());
    out.kernel = std::move(bestKernel);
    out.prologue = prologueSequence(code, bestRot);
    return out;
}

} // namespace eel::sched
