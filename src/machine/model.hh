/**
 * @file
 * MachineModel: the bridge from a SADL description to the ISA. Spawn
 * extracts timing records keyed by mnemonic (src/sadl); this module
 * resolves them against decoded instructions — mapping register-file
 * names to architectural register classes and encoding fields to
 * operand slots — and selects the right conditional variant per
 * instruction.
 */

#ifndef EEL_MACHINE_MODEL_HH
#define EEL_MACHINE_MODEL_HH

#include <string>
#include <string_view>
#include <vector>

#include "src/isa/instruction.hh"
#include "src/sadl/timing.hh"

namespace eel::machine {

/** A register access resolved to an architectural register class. */
struct RegAccess
{
    isa::RegClass cls;
    sadl::Field field;    ///< Rs1/Rs2/Rd, or None for constIdx
    uint8_t constIdx;
    bool pair;            ///< also touches register index|1
    uint8_t cycle;        ///< pipeline cycle of the access
    uint8_t valueReady;   ///< writes: cycle the value was computed in

    /** The concrete register this access touches for inst. */
    isa::RegId reg(const isa::Instruction &inst) const;
    /** The second register of a pair access (call only if pair). */
    isa::RegId pairReg(const isa::Instruction &inst) const;
};

/**
 * A span of pipeline cycles during which a variant holds copies of a
 * unit: [from, to) in pipeline-cycle indices. Precomputed from the
 * acquire/release tables so committing an instruction's usage is a
 * handful of range updates instead of a unit x cycle sweep.
 */
struct UnitHold
{
    uint16_t unit;
    uint8_t from;
    uint8_t to;
    int16_t num;
};

/** Timing for one conditional variant of an instruction. */
struct Variant
{
    std::vector<sadl::VariantCond> conds;
    unsigned group = 0;    ///< Spawn timing group id
    unsigned latency = 1;  ///< cycles through the pipeline

    /// acquire[c]: unit events in pipeline cycle c (size == latency);
    /// release[c]: size == latency + 1.
    std::vector<std::vector<sadl::UnitEvent>> acquire;
    std::vector<std::vector<sadl::UnitEvent>> release;

    std::vector<RegAccess> reads;
    std::vector<RegAccess> writes;

    /// Constant-level unit occupancy segments (see UnitHold).
    std::vector<UnitHold> holds;

    /// Flattened copies of acquire/release for the per-retire hot
    /// loop: cycle c's events are evFlat[evOff[c] .. evOff[c+1]),
    /// one contiguous array instead of a vector-of-vectors walk.
    std::vector<sadl::UnitEvent> acquireFlat;
    std::vector<uint16_t> acquireOff;  ///< size latency + 1
    std::vector<sadl::UnitEvent> releaseFlat;
    std::vector<uint16_t> releaseOff;  ///< size latency + 2

    /** True if every variant condition holds for inst. */
    bool matches(const isa::Instruction &inst) const;

    /** Derive holds from the acquire/release tables. */
    void buildHolds(unsigned num_units);

    /** Derive the flattened event tables from acquire/release. */
    void buildFlat();
};

/**
 * A complete microarchitecture model derived from a SADL description.
 *
 * Description conventions (documented in machines/README):
 *  - the superscalar issue limit is a unit named "Group";
 *  - register files R, F, ICC, FCC, Y map to the architectural
 *    integer, floating point, condition code, and Y registers;
 *  - every mnemonic of the ISA must have a sem binding.
 */
class MachineModel
{
  public:
    /**
     * Build a model from SADL source. Fatal if the description does
     * not cover every opcode of the ISA or violates the conventions
     * above.
     */
    static MachineModel fromSadl(const std::string &source,
                                 std::string name, double clock_mhz);

    /**
     * The three builtin processor models. Valid names: "hypersparc",
     * "supersparc", "ultrasparc". Fatal on unknown names.
     */
    static const MachineModel &builtin(std::string_view name);

    /** Timing variant for a decoded instruction. */
    const Variant &variant(const isa::Instruction &inst) const;

    const std::string &name() const { return _name; }
    double clockMhz() const { return _clockMhz; }
    /**
     * Fetch-redirect cost of a taken control transfer on the real
     * machine. Not part of the SADL description — the Spawn models
     * cover only the execution pipelines (§3.2) — so the scheduler
     * never sees it; the timing simulator charges it, reproducing
     * the paper's model-vs-hardware gap.
     */
    unsigned branchPenalty() const { return _branchPenalty; }
    void setBranchPenalty(unsigned n) { _branchPenalty = n; }
    /** Superscalar width: capacity of the "Group" unit. */
    unsigned issueWidth() const { return _issueWidth; }
    unsigned numUnits() const { return _unitCaps.size(); }
    unsigned unitCapacity(unsigned u) const { return _unitCaps[u]; }
    const std::string &unitName(unsigned u) const
    {
        return _unitNames[u];
    }
    /** Longest variant latency; bounds the pipeline window. */
    unsigned maxLatency() const { return _maxLatency; }
    unsigned numGroups() const { return _numGroups; }

    /** All variants for an opcode (used by the spawn code generator). */
    const std::vector<Variant> &variantsFor(isa::Op op) const
    {
        return byOp[static_cast<unsigned>(op)];
    }

  private:
    std::string _name;
    double _clockMhz = 0;
    unsigned _issueWidth = 1;
    unsigned _maxLatency = 1;
    unsigned _branchPenalty = 1;
    unsigned _numGroups = 0;
    std::vector<unsigned> _unitCaps;
    std::vector<std::string> _unitNames;
    std::vector<std::vector<Variant>> byOp;
};

/** SADL source text of the builtin descriptions (also installed as
 *  machines/<name>.sadl). */
std::string_view builtinSadlSource(std::string_view name);

} // namespace eel::machine

#endif // EEL_MACHINE_MODEL_HH
