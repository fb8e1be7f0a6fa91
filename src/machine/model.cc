#include "src/machine/model.hh"

#include <algorithm>
#include <map>
#include <mutex>

#include "src/support/logging.hh"

namespace eel::machine {

namespace {

isa::RegClass
classForFile(const std::string &file_name)
{
    if (file_name == "R") return isa::RegClass::Int;
    if (file_name == "F") return isa::RegClass::Fp;
    if (file_name == "ICC") return isa::RegClass::Icc;
    if (file_name == "FCC") return isa::RegClass::Fcc;
    if (file_name == "Y") return isa::RegClass::Y;
    return isa::RegClass::None;
}

long
fieldValue(const isa::Instruction &inst, sadl::Field f)
{
    switch (f) {
      case sadl::Field::Rs1: return inst.rs1;
      case sadl::Field::Rs2: return inst.rs2;
      case sadl::Field::Rd: return inst.rd;
      case sadl::Field::Iflag: return inst.iflag ? 1 : 0;
      case sadl::Field::CondF: return inst.cond;
      case sadl::Field::Annul: return inst.annul ? 1 : 0;
      case sadl::Field::Simm13: return inst.simm13;
      case sadl::Field::Imm22: return inst.imm22;
      case sadl::Field::Disp: return inst.disp;
      default:
        panic("fieldValue: access through Field::None");
    }
}

uint8_t
fieldRegIndex(const isa::Instruction &inst, sadl::Field f,
              uint8_t const_idx)
{
    switch (f) {
      case sadl::Field::Rs1: return inst.rs1;
      case sadl::Field::Rs2: return inst.rs2;
      case sadl::Field::Rd: return inst.rd;
      case sadl::Field::None: return const_idx;
      default:
        panic("register index through non-register field '%s'",
              sadl::fieldName(f).c_str());
    }
}

} // namespace

isa::RegId
RegAccess::reg(const isa::Instruction &inst) const
{
    uint8_t idx = (cls == isa::RegClass::Icc ||
                   cls == isa::RegClass::Fcc || cls == isa::RegClass::Y)
                      ? 0
                      : fieldRegIndex(inst, field, constIdx);
    return isa::RegId(cls, idx);
}

isa::RegId
RegAccess::pairReg(const isa::Instruction &inst) const
{
    isa::RegId base = reg(inst);
    return isa::RegId(base.cls, base.idx | 1);
}

void
Variant::buildHolds(unsigned num_units)
{
    holds.clear();
    for (unsigned u = 0; u < num_units; ++u) {
        int level = 0;
        unsigned seg_start = 0;
        for (unsigned c = 0; c <= latency; ++c) {
            int delta = 0;
            for (const sadl::UnitEvent &e : release[c])
                if (e.unit == u)
                    delta -= e.num;
            if (c < latency)
                for (const sadl::UnitEvent &e : acquire[c])
                    if (e.unit == u)
                        delta += e.num;
            if (delta == 0)
                continue;
            if (level > 0 && c > seg_start)
                holds.push_back(UnitHold{
                    static_cast<uint16_t>(u),
                    static_cast<uint8_t>(seg_start),
                    static_cast<uint8_t>(c),
                    static_cast<int16_t>(level)});
            level += delta;
            seg_start = c;
        }
        if (level != 0)
            panic("buildHolds: unbalanced unit %u", u);
    }
}

void
Variant::buildFlat()
{
    auto flatten = [](const std::vector<std::vector<sadl::UnitEvent>>
                          &table,
                      std::vector<sadl::UnitEvent> &flat,
                      std::vector<uint16_t> &off) {
        flat.clear();
        off.clear();
        off.reserve(table.size() + 1);
        for (const auto &events : table) {
            off.push_back(static_cast<uint16_t>(flat.size()));
            flat.insert(flat.end(), events.begin(), events.end());
        }
        off.push_back(static_cast<uint16_t>(flat.size()));
    };
    flatten(acquire, acquireFlat, acquireOff);
    flatten(release, releaseFlat, releaseOff);
}

bool
Variant::matches(const isa::Instruction &inst) const
{
    for (const sadl::VariantCond &c : conds) {
        bool eq = fieldValue(inst, c.field) == c.value;
        if (eq != c.mustEqual)
            return false;
    }
    return true;
}

MachineModel
MachineModel::fromSadl(const std::string &source, std::string name,
                       double clock_mhz)
{
    sadl::Description desc = sadl::analyze(source);

    MachineModel m;
    m._name = std::move(name);
    m._clockMhz = clock_mhz;
    m.byOp.resize(isa::numOps);

    for (const sadl::UnitDecl &u : desc.units) {
        m._unitNames.push_back(u.name);
        m._unitCaps.push_back(u.count);
        if (u.name == "Group")
            m._issueWidth = u.count;
    }
    if (m._unitNames.empty())
        fatal("machine '%s': description declares no units",
              m._name.c_str());

    m._numGroups = desc.numGroups;

    for (const sadl::Timing &t : desc.timings) {
        auto op = isa::opFromName(t.mnemonic);
        if (!op)
            fatal("machine '%s': sem binds unknown mnemonic '%s'",
                  m._name.c_str(), t.mnemonic.c_str());

        Variant v;
        v.conds = t.conds;
        v.group = t.group;
        v.latency = t.latency;
        v.acquire = t.acquire;
        v.release = t.release;
        auto convert = [&](const sadl::RegAccess &a) {
            const std::string &file = desc.regFiles[a.file].name;
            isa::RegClass cls = classForFile(file);
            if (cls == isa::RegClass::None)
                fatal("machine '%s': register file '%s' has no "
                      "architectural mapping", m._name.c_str(),
                      file.c_str());
            return RegAccess{cls, a.field, static_cast<uint8_t>(
                                 a.constIdx), a.pair, a.cycle,
                             a.valueReady};
        };
        for (const sadl::RegAccess &a : t.reads)
            v.reads.push_back(convert(a));
        for (const sadl::RegAccess &a : t.writes)
            v.writes.push_back(convert(a));
        v.buildHolds(static_cast<unsigned>(m._unitCaps.size()));
        v.buildFlat();

        m._maxLatency = std::max(m._maxLatency, v.latency);
        m.byOp[static_cast<unsigned>(*op)].push_back(std::move(v));
    }

    // Every opcode the ISA defines must be described.
    for (unsigned i = 1; i < isa::numOps; ++i) {
        if (m.byOp[i].empty())
            fatal("machine '%s': no sem binding for mnemonic '%s'",
                  m._name.c_str(),
                  std::string(isa::opName(static_cast<isa::Op>(i)))
                      .c_str());
    }
    return m;
}

const Variant &
MachineModel::variant(const isa::Instruction &inst) const
{
    const auto &vars = byOp[static_cast<unsigned>(inst.op)];
    for (const Variant &v : vars)
        if (v.matches(inst))
            return v;
    fatal("machine '%s': no timing variant matches '%s'",
          _name.c_str(), isa::disassemble(inst).c_str());
}

const MachineModel &
MachineModel::builtin(std::string_view name)
{
    static std::mutex mu;
    static std::map<std::string, MachineModel, std::less<>> cache;
    std::lock_guard<std::mutex> lock(mu);
    auto it = cache.find(name);
    if (it != cache.end())
        return it->second;

    double mhz;
    unsigned penalty;
    if (name == "hypersparc") {
        mhz = 66.0;
        penalty = 2;
    } else if (name == "supersparc") {
        mhz = 50.0;
        penalty = 2;
    } else if (name == "ultrasparc") {
        // The 9-stage UltraSPARC pays more for every fetch redirect.
        mhz = 167.0;
        penalty = 3;
    } else if (name == "wide8") {
        // Hypothetical 8-way future machine (paper section 1's
        // speculation); deep pipe, UltraSPARC-class redirect cost.
        mhz = 250.0;
        penalty = 3;
    } else {
        fatal("unknown builtin machine '%s'",
              std::string(name).c_str());
    }

    MachineModel m = fromSadl(std::string(builtinSadlSource(name)),
                              std::string(name), mhz);
    m.setBranchPenalty(penalty);
    auto [pos, inserted] = cache.emplace(std::string(name),
                                         std::move(m));
    (void)inserted;
    return pos->second;
}

} // namespace eel::machine
