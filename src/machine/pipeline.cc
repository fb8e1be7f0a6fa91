#include "src/machine/pipeline.hh"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/support/logging.hh"

namespace eel::machine {

ResolvedVariant
ResolvedVariant::resolve(const Variant &v, const isa::Instruction &inst)
{
    ResolvedVariant rv;
    rv.variant = &v;
    auto pushRead = [&](isa::RegId r, uint8_t cycle) {
        if (!r.tracked())
            return;
        if (rv.nReads >= maxAccesses)
            panic("ResolvedVariant: too many reads");
        rv.reads[rv.nReads++] =
            Read{static_cast<uint16_t>(r.flat()), cycle};
    };
    auto pushWrite = [&](isa::RegId r, uint8_t cycle, uint8_t ready) {
        if (!r.tracked())
            return;
        if (rv.nWrites >= maxAccesses)
            panic("ResolvedVariant: too many writes");
        rv.writes[rv.nWrites++] =
            Write{static_cast<uint16_t>(r.flat()), cycle, ready};
    };
    for (const RegAccess &a : v.reads) {
        pushRead(a.reg(inst), a.cycle);
        if (a.pair)
            pushRead(a.pairReg(inst), a.cycle);
    }
    for (const RegAccess &a : v.writes) {
        pushWrite(a.reg(inst), a.cycle, a.valueReady);
        if (a.pair)
            pushWrite(a.pairReg(inst), a.cycle, a.valueReady);
    }
    return rv;
}

ResolvedVariant
ResolvedVariant::resolve(const MachineModel &model,
                         const isa::Instruction &inst)
{
    return resolve(model.variant(inst), inst);
}

PipelineState::PipelineState(const MachineModel &model)
    : _model(model), numUnits(model.numUnits())
{
    capInit.resize(numUnits);
    for (unsigned u = 0; u < numUnits; ++u)
        capInit[u] = static_cast<int16_t>(model.unitCapacity(u));
    slotStamp.assign(windowSize, ~uint64_t(0));
    slotFree.assign(static_cast<size_t>(windowSize) * numUnits, 0);
    lastRead.assign(isa::numRegIds, 0);
    lastWrite.assign(isa::numRegIds, 0);
    writeAvail.assign(isa::numRegIds, 0);
    scratchTrace.assign(numUnits, 0);
    scratchAbsFor.assign(model.maxLatency() + 1, 0);
}

void
PipelineState::reset()
{
    std::fill(slotStamp.begin(), slotStamp.end(), ~uint64_t(0));
    std::fill(lastRead.begin(), lastRead.end(), 0);
    std::fill(lastWrite.begin(), lastWrite.end(), 0);
    std::fill(writeAvail.begin(), writeAvail.end(), 0);
    maxStamped = 0;
    frontierCycle = 0;
}

bool
PipelineState::RebasedPipe::fits(unsigned num_units) const
{
    return rowFree.size() == rowAt.size() * num_units &&
           regVals.size() == regs.size() * 3 &&
           std::all_of(rowAt.begin(), rowAt.end(),
                       [](uint64_t at) { return at < windowSize; }) &&
           std::all_of(regs.begin(), regs.end(),
                       [](uint32_t r) { return r < isa::numRegIds; });
}

void
PipelineState::captureRebased(RebasedPipe &out) const
{
    out.clear();
    const uint64_t d = frontierCycle;

    // Live rows, ascending by cycle. Future instructions enter at
    // cycles >= d (simulate() starts at the frontier and abs only
    // advances), so rows stamped before d are dead; live rows equal
    // to full capacity are indistinguishable from untouched slots
    // (initSlot would recreate them bit-identically). Both are
    // dropped to canonicalize. The scan walks cycles, not slots, so
    // it touches [d, maxStamped] instead of the whole ring.
    const uint64_t top =
        std::min(maxStamped, d + windowSize - 1);
    for (uint64_t c = d; c <= top; ++c) {
        const unsigned slot = static_cast<unsigned>(c % windowSize);
        if (slotStamp[slot] != c)
            continue;
        const int16_t *row = &slotFree[size_t(slot) * numUnits];
        if (std::memcmp(row, capInit.data(),
                        numUnits * sizeof(int16_t)) == 0)
            continue;
        out.rowAt.push_back(c - d);
        out.rowFree.insert(out.rowFree.end(), row, row + numUnits);
    }

    // Registers with any value that can still bind, rebased to d
    // with inert values mapped to 0; inert-everywhere registers are
    // omitted. A value is inert when the hazard check it feeds can no
    // longer fire for any abs >= d: RAW needs abs < writeAvail (inert
    // <= d), WAW needs abs < lastWrite (inert <= d), WAR needs
    // abs + 1 < lastRead (inert <= d + 1). commit() only max()es
    // these upward with values > d, so an inert value also never
    // influences later state.
    for (uint32_t r = 0; r < lastRead.size(); ++r) {
        const uint64_t lr = lastRead[r] > d + 1 ? lastRead[r] - d : 0;
        const uint64_t lw = lastWrite[r] > d ? lastWrite[r] - d : 0;
        const uint64_t wa = writeAvail[r] > d ? writeAvail[r] - d : 0;
        if (!(lr | lw | wa))
            continue;
        out.regs.push_back(r);
        out.regVals.push_back(lr);
        out.regVals.push_back(lw);
        out.regVals.push_back(wa);
    }
}

void
PipelineState::applyRebased(const RebasedPipe &p, uint64_t frontierDelta)
{
    const uint64_t d1 = frontierCycle + frontierDelta;

    // Rows: every live non-capacity row of the target state is
    // written outright. Current rows the new frontier passed are dead
    // by construction; current rows at cycles >= d1 either recur in p
    // (rows only lose capacity, so a live row stays live) or were
    // full-capacity on both sides, which lazy re-init reproduces.
    const int16_t *free = p.rowFree.data();
    for (size_t i = 0; i < p.rowAt.size(); ++i, free += numUnits) {
        const uint64_t c = d1 + p.rowAt[i];
        const unsigned slot = static_cast<unsigned>(c % windowSize);
        slotStamp[slot] = c;
        std::memcpy(&slotFree[size_t(slot) * numUnits], free,
                    numUnits * sizeof(int16_t));
        if (c > maxStamped)
            maxStamped = c;
    }

    // Registers: listed ones get their exact rebased values; a zero
    // component (inert in the target) leaves the current value, which
    // was inert at the old frontier and stays inert at the newer one.
    // Unlisted registers were inert-everywhere in the target and are
    // left untouched for the same reason.
    const uint64_t *v = p.regVals.data();
    for (size_t i = 0; i < p.regs.size(); ++i, v += 3) {
        const uint32_t r = p.regs[i];
        if (v[0])
            lastRead[r] = v[0] + d1;
        if (v[1])
            lastWrite[r] = v[1] + d1;
        if (v[2])
            writeAvail[r] = v[2] + d1;
    }

    frontierCycle = d1;
}

void
PipelineState::initSlot(uint64_t c, unsigned slot) const
{
    slotStamp[slot] = c;
    std::memcpy(&slotFree[slot * numUnits], capInit.data(),
                numUnits * sizeof(int16_t));
    if (c > maxStamped)
        maxStamped = c;
}

int16_t *
PipelineState::rowFor(uint64_t c) const
{
    unsigned slot = static_cast<unsigned>(c % windowSize);
    if (slotStamp[slot] != c)
        initSlot(c, slot);
    return &slotFree[slot * numUnits];
}

namespace {

/** Debug-build assertion that the scratch buffers are not in use;
 *  see the scratchBusy member comment. */
struct ScratchGuard
{
    explicit ScratchGuard(bool &busy) : _busy(busy)
    {
        assert(!_busy && "PipelineState scratch used reentrantly "
                         "(shared across threads?)");
        _busy = true;
    }
    ~ScratchGuard() { _busy = false; }
    bool &_busy;
};

} // namespace

unsigned
PipelineState::simulate(uint64_t entry_cycle, const ResolvedVariant &rv,
                        std::vector<uint64_t> &abs_for,
                        obs::StallBreakdown *why) const
{
#ifndef NDEBUG
    ScratchGuard guard(scratchBusy);
#endif
    const Variant &v = *rv.variant;

    // Every used slot of abs_for is written below; the scratch the
    // callers pass is pre-sized to maxLatency + 1 in the constructor,
    // so this grow triggers only for foreign buffers.
    if (abs_for.size() < v.latency + 1)
        abs_for.resize(v.latency + 1);

    // No-stall check: most dynamic instructions advance unstalled,
    // and that case has a closed-form precondition — every hazard check
    // of the walk below, evaluated at abs = entry_cycle + cycle. The
    // structural condition is phrased over the constant-level hold
    // segments (free >= level across the segment), which is at least
    // as strict as the walk's per-event check, so passing here
    // guarantees the walk would advance every cycle. Failing just
    // falls through to the exact walk.
    {
        bool clean = true;
        for (unsigned i = 0; i < rv.nReads && clean; ++i) {
            const ResolvedVariant::Read &a = rv.reads[i];
            clean = entry_cycle + a.cycle >= writeAvail[a.reg];
        }
        for (unsigned i = 0; i < rv.nWrites && clean; ++i) {
            const ResolvedVariant::Write &a = rv.writes[i];
            clean = entry_cycle + a.cycle + 1 >= lastRead[a.reg] &&
                    entry_cycle + a.cycle >= lastWrite[a.reg];
        }
        uint64_t row_cycle = ~uint64_t(0);
        const int16_t *row = nullptr;
        for (const UnitHold &h : v.holds) {
            if (!clean)
                break;
            for (uint64_t c = entry_cycle + h.from;
                 c < entry_cycle + h.to; ++c) {
                if (c != row_cycle) {
                    row = rowFor(c);
                    row_cycle = c;
                }
                if (row[h.unit] < h.num) {
                    clean = false;
                    break;
                }
            }
        }
        if (clean) {
            for (unsigned k = 0; k <= v.latency; ++k)
                abs_for[k] = entry_cycle + k;
            return 0;
        }
    }

    // trace[] — the appendix's record of resources this instruction
    // itself holds while it walks down the pipeline. All-zero on
    // entry; the touched entries are re-zeroed before returning
    // (the panic path below aborts the whole run, so it may leave
    // them dirty).
    int *const trace = scratchTrace.data();

    const sadl::UnitEvent *const acq = v.acquireFlat.data();
    const sadl::UnitEvent *const rel = v.releaseFlat.data();
    const uint16_t *const acqOff = v.acquireOff.data();
    const uint16_t *const relOff = v.releaseOff.data();

    unsigned stalls = 0;
    unsigned mi_cycle = 0;
    uint64_t abs = entry_cycle;

    while (mi_cycle < v.latency) {
        bool advance = true;
        // Which ordered hazard check blocked this cycle. Exactly one
        // fails per non-advancing cycle (the checks short-circuit),
        // so the per-reason counts sum to the stall total.
        obs::StallReason blocked = obs::StallReason::Resource;

        // Structural hazards: every unit this pipeline cycle acquires
        // must have enough free copies beyond what we already hold.
        // The free-count row for abs is resolved once per cycle.
        if (acqOff[mi_cycle] != acqOff[mi_cycle + 1]) {
            const int16_t *row = rowFor(abs);
            for (unsigned e = acqOff[mi_cycle];
                 e < acqOff[mi_cycle + 1]; ++e) {
                if (row[acq[e].unit] - trace[acq[e].unit] <
                    static_cast<int>(acq[e].num)) {
                    advance = false;
                    break;
                }
            }
        }

        // RAW hazards: a register read in this pipeline cycle must
        // not precede the producing value's availability.
        if (advance) {
            for (unsigned i = 0; i < rv.nReads; ++i) {
                const ResolvedVariant::Read &a = rv.reads[i];
                if (a.cycle == mi_cycle && abs < writeAvail[a.reg]) {
                    advance = false;
                    blocked = obs::StallReason::RawDep;
                    break;
                }
            }
        }

        // WAR and WAW hazards on this pipeline cycle's writes.
        if (advance) {
            for (unsigned i = 0; i < rv.nWrites; ++i) {
                const ResolvedVariant::Write &a = rv.writes[i];
                if (a.cycle != mi_cycle)
                    continue;
                // lastRead/lastWrite hold "cycle + 1" (0 = never).
                // WAR: the write may share the final read's cycle.
                // WAW: writes to a register stay strictly ordered.
                if (abs + 1 < lastRead[a.reg] ||
                    abs < lastWrite[a.reg]) {
                    advance = false;
                    blocked = obs::StallReason::WarWawDep;
                    break;
                }
            }
        }

        if (advance) {
            abs_for[mi_cycle] = abs;
            for (unsigned e = acqOff[mi_cycle];
                 e < acqOff[mi_cycle + 1]; ++e)
                trace[acq[e].unit] += acq[e].num;
            ++mi_cycle;
            for (unsigned e = relOff[mi_cycle];
                 e < relOff[mi_cycle + 1]; ++e)
                trace[rel[e].unit] -= rel[e].num;
        } else {
            ++stalls;
            if (why)
                why->add(blocked);
        }
        ++abs;
        if (abs - entry_cycle > windowSize / 2)
            panic("pipeline_stalls: runaway stall (group %u)",
                  v.group);
    }
    abs_for[v.latency] = abs;

    // Restore the all-zero trace invariant: only units named in the
    // event tables can have been touched.
    for (unsigned e = 0; e < acqOff[v.latency]; ++e)
        trace[acq[e].unit] = 0;
    for (unsigned e = 0; e < relOff[v.latency + 1]; ++e)
        trace[rel[e].unit] = 0;
    return stalls;
}

unsigned
PipelineState::stalls(const isa::Instruction &inst) const
{
    return stallsAt(frontierCycle, inst);
}

unsigned
PipelineState::stallsAt(uint64_t cycle,
                        const isa::Instruction &inst) const
{
    return stallsAt(cycle, ResolvedVariant::resolve(_model, inst));
}

PipelineState::IssueResult
PipelineState::issue(const isa::Instruction &inst)
{
    return issue(ResolvedVariant::resolve(_model, inst));
}

void
PipelineState::commit(const ResolvedVariant &rv,
                      const std::vector<uint64_t> &abs_for)
{
    const Variant &v = *rv.variant;

    // Fold this instruction's unit usage into the per-cycle free
    // counts using the precomputed constant-level hold segments.
    // Releases at pipeline cycle k take effect at abs_for[k]
    // (releases apply before acquires within a cycle, §3.1).
    // Consecutive holds usually start on the same cycle, so the
    // free-count row is re-resolved only when the cycle changes.
    uint64_t row_cycle = ~uint64_t(0);
    int16_t *row = nullptr;
    for (const UnitHold &h : v.holds) {
        uint64_t from = abs_for[h.from];
        uint64_t to = abs_for[h.to];
        for (uint64_t c = from; c < to; ++c) {
            if (c != row_cycle) {
                row = rowFor(c);
                row_cycle = c;
            }
            row[h.unit] = static_cast<int16_t>(row[h.unit] - h.num);
        }
    }

    // Register history.
    for (unsigned i = 0; i < rv.nReads; ++i) {
        const ResolvedVariant::Read &a = rv.reads[i];
        uint64_t c = abs_for[a.cycle] + 1;
        lastRead[a.reg] = std::max(lastRead[a.reg], c);
    }
    for (unsigned i = 0; i < rv.nWrites; ++i) {
        const ResolvedVariant::Write &a = rv.writes[i];
        uint64_t wb = abs_for[a.cycle] + 1;
        uint64_t avail = abs_for[a.ready] + 1;
        lastWrite[a.reg] = std::max(lastWrite[a.reg], wb);
        writeAvail[a.reg] = std::max(writeAvail[a.reg], avail);
    }

    // In-order issue: the next instruction cannot enter earlier than
    // this one did.
    frontierCycle = abs_for[0];
}

uint64_t
sequenceCycles(const MachineModel &model,
               std::span<const isa::Instruction> insts)
{
    PipelineState state(model);
    uint64_t done = 0;
    for (const isa::Instruction &in : insts)
        done = std::max(done, state.issue(in).doneCycle);
    return done;
}

uint64_t
sequenceIssueSpan(const MachineModel &model,
                  std::span<const isa::Instruction> insts)
{
    PipelineState state(model);
    uint64_t last = 0;
    for (const isa::Instruction &in : insts)
        last = state.issue(in).startCycle;
    return insts.empty() ? 0 : last + 1;
}

} // namespace eel::machine
