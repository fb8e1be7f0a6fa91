#include "src/sim/resultcache.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <type_traits>

#include <unistd.h>

#include "src/exe/section_store.hh"
#include "src/obs/metrics.hh"

namespace eel::sim {

namespace fs = std::filesystem;

namespace {

/**
 * Two independent 64-bit accumulation streams over the same input,
 * giving 128-bit keys: FNV-1a-with-finalizer for stream a, the
 * classic hash_combine recurrence for stream b. Collisions are
 * further backed by runSharded's merged-output fatals.
 */
struct H2
{
    uint64_t a = 0xcbf29ce484222325ull;
    uint64_t b = 0x9ae16a3b2f90404full;

    void
    u64(uint64_t v)
    {
        a ^= v;
        a *= 0x100000001b3ull;
        a ^= a >> 29;
        b ^= v + 0x9e3779b97f4a7c15ull + (b << 6) + (b >> 2);
    }
    void u32(uint32_t v) { u64(v); }
    void ub(bool v) { u64(v ? 1 : 0); }
    void
    str(const std::string &s)
    {
        u64(s.size());
        for (char c : s)
            u64(static_cast<uint8_t>(c));
    }
    void
    v64(const std::vector<uint64_t> &v)
    {
        u64(v.size());
        for (uint64_t x : v)
            u64(x);
    }
    void
    v32(const std::vector<uint32_t> &v)
    {
        u64(v.size());
        for (uint32_t x : v)
            u64(x);
    }
    void
    v8(const std::vector<uint8_t> &v)
    {
        // Pages and delta payloads: fold 8 bytes per step.
        u64(v.size());
        size_t i = 0;
        for (; i + 8 <= v.size(); i += 8) {
            uint64_t w;
            std::memcpy(&w, v.data() + i, 8);
            u64(w);
        }
        uint64_t tail = 0;
        for (unsigned k = 0; i < v.size(); ++i, ++k)
            tail |= uint64_t(v[i]) << (8 * k);
        u64(tail);
    }
    ResultCache::Key key() const { return {a, b}; }
};

/** Plain FNV-1a over a string (file checksums, manifest digests). */
uint64_t
fnv64(const void *data, size_t n)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    uint64_t h = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

// ----------------------------------------------------------------
// Entry serialization. Fixed-width little-endian fields; every
// reader is bounds-checked and flips `ok` instead of overrunning,
// so a truncated or bit-flipped payload decodes to a clean reject.

struct Enc
{
    std::string s;

    void
    raw(const void *p, size_t n)
    {
        s.append(static_cast<const char *>(p), n);
    }
    /** n-byte little-endian unsigned integer. */
    void
    le(uint64_t v, unsigned n)
    {
        uint8_t b[8];
        for (unsigned i = 0; i < n; ++i)
            b[i] = uint8_t(v >> (8 * i));
        raw(b, n);
    }
    void u8(uint8_t v) { raw(&v, 1); }
    void u32(uint32_t v) { le(v, 4); }
    void u64(uint64_t v) { le(v, 8); }
    void i32(int32_t v) { u32(static_cast<uint32_t>(v)); }
    void ub(bool v) { u8(v ? 1 : 0); }
    void
    blob(const std::string &v)
    {
        u64(v.size());
        raw(v.data(), v.size());
    }
    void
    v8(const std::vector<uint8_t> &v)
    {
        u64(v.size());
        raw(v.data(), v.size());
    }
    /** Count-prefixed integers, each at its own width. */
    template <class T>
    void
    vec(const std::vector<T> &v)
    {
        u64(v.size());
        for (T x : v)
            le(static_cast<std::make_unsigned_t<T>>(x), sizeof(T));
    }
};

struct Dec
{
    const uint8_t *p, *e;
    bool ok = true;

    Dec(const std::string &s)
        : p(reinterpret_cast<const uint8_t *>(s.data())),
          e(p + s.size())
    {
    }

    bool
    need(size_t n)
    {
        if (!ok || size_t(e - p) < n) {
            ok = false;
            return false;
        }
        return true;
    }
    /** n-byte little-endian unsigned integer. */
    uint64_t
    le(unsigned n)
    {
        if (!need(n))
            return 0;
        uint64_t v = 0;
        for (unsigned i = 0; i < n; ++i)
            v |= uint64_t(p[i]) << (8 * i);
        p += n;
        return v;
    }
    uint8_t u8() { return uint8_t(le(1)); }
    uint32_t u32() { return uint32_t(le(4)); }
    uint64_t u64() { return le(8); }
    int32_t i32() { return static_cast<int32_t>(u32()); }
    bool
    ub()
    {
        uint8_t v = u8();
        if (v > 1)
            ok = false;
        return v == 1;
    }
    std::string
    blob()
    {
        uint64_t n = u64();
        if (!need(n))
            return {};
        std::string v(reinterpret_cast<const char *>(p), n);
        p += n;
        return v;
    }
    std::vector<uint8_t>
    v8()
    {
        uint64_t n = u64();
        if (!need(n))
            return {};
        std::vector<uint8_t> v(p, p + n);
        p += n;
        return v;
    }
    template <class T>
    std::vector<T>
    vec()
    {
        uint64_t n = u64();
        if (!ok || n > size_t(e - p) / sizeof(T)) {
            ok = false;
            return {};
        }
        std::vector<T> v(n);
        for (T &x : v)
            x = static_cast<T>(le(sizeof(T)));
        return v;
    }
    bool done() const { return ok && p == e; }
};

void
putBreakdown(Enc &o, const obs::StallBreakdown &b)
{
    for (unsigned i = 0; i < obs::numStallReasons; ++i)
        o.u64(b.cycles[i]);
}

void
getBreakdown(Dec &d, obs::StallBreakdown &b)
{
    for (unsigned i = 0; i < obs::numStallReasons; ++i)
        b.cycles[i] = d.u64();
}

void
putTiming(Enc &o, const TimingSim::State &t)
{
    o.vec(t.pipe.rowAt);
    o.vec(t.pipe.rowFree);
    o.vec(t.pipe.regs);
    o.vec(t.pipe.regVals);
    o.u64(t.cyclesLead);
    o.u32(t.prevPc);
    o.ub(t.havePrev);
    o.u64(t.curStartLead);
    o.u32(t.curCount);
    o.ub(t.haveCur);
}

void
getTiming(Dec &d, TimingSim::State &t)
{
    t.pipe.rowAt = d.vec<uint64_t>();
    t.pipe.rowFree = d.vec<int16_t>();
    t.pipe.regs = d.vec<uint32_t>();
    t.pipe.regVals = d.vec<uint64_t>();
    t.cyclesLead = d.u64();
    t.prevPc = d.u32();
    t.havePrev = d.ub();
    t.curStartLead = d.u64();
    t.curCount = d.u32();
    t.haveCur = d.ub();
}

void
putDelta(Enc &o, const MemDelta &m)
{
    o.u32(static_cast<uint32_t>(m.pages.size()));
    for (const MemDelta::Page &pg : m.pages) {
        o.u32(pg.offset);
        o.v8(pg.bytes);
    }
}

void
getDelta(Dec &d, MemDelta &m)
{
    uint32_t n = d.u32();
    m.pages.clear();
    for (uint32_t i = 0; i < n && d.ok; ++i) {
        MemDelta::Page pg;
        pg.offset = d.u32();
        pg.bytes = d.v8();
        if (pg.bytes.size() > MemDelta::pageBytes)
            d.ok = false;
        m.pages.push_back(std::move(pg));
    }
}

void
putPairs(Enc &o, const std::vector<std::pair<uint32_t, uint64_t>> &v)
{
    o.u64(v.size());
    for (const auto &[i, h] : v) {
        o.u32(i);
        o.u64(h);
    }
}

std::vector<std::pair<uint32_t, uint64_t>>
getPairs(Dec &d)
{
    uint64_t n = d.u64();
    if (!d.ok || n > size_t(d.e - d.p) / 12) {
        d.ok = false;
        return {};
    }
    std::vector<std::pair<uint32_t, uint64_t>> v(n);
    for (auto &[i, h] : v) {
        i = d.u32();
        h = d.u64();
    }
    return v;
}

/** An end state as deltas vs the pristine images (a full
 *  ArchSnapshot carries the whole 1 MiB stack); absent unless the
 *  snapshot has memory. */
void
putArch(Enc &o, const Emulator::ArchSnapshot &s, const exe::Executable &x)
{
    const bool present = !s.dataMem.empty() || !s.stackMem.empty();
    o.ub(present);
    if (!present)
        return;
    for (uint32_t r : s.intRegs)
        o.u32(r);
    for (uint32_t r : s.fpRegs)
        o.u32(r);
    o.u32(s.icc);
    o.u32(s.fcc);
    o.u32(s.y);
    putDelta(o, MemDelta::diff(initialDataImage(x), s.dataMem));
    putDelta(o, MemDelta::diff(
                    std::vector<uint8_t>(s.stackMem.size(), 0),
                    s.stackMem));
}

/** Registers into s, memory deltas into data/stack; false (and s
 *  empty) when the end state is absent. */
bool
getArch(Dec &d, Emulator::ArchSnapshot &s, MemDelta &data,
        MemDelta &stack)
{
    s = {};
    if (!d.ub())
        return false;
    for (uint32_t &r : s.intRegs)
        r = d.u32();
    for (uint32_t &r : s.fpRegs)
        r = d.u32();
    s.icc = d.u32();
    s.fcc = d.u32();
    s.y = d.u32();
    getDelta(d, data);
    getDelta(d, stack);
    return true;
}

/** Whether every page of m lies inside mem (apply() would fatal). */
bool
fits(const MemDelta &m, const std::vector<uint8_t> &mem)
{
    return std::all_of(m.pages.begin(), m.pages.end(),
                       [&](const MemDelta::Page &pg) {
                           return pg.offset + pg.bytes.size() <=
                                  mem.size();
                       });
}

/** A record body: what every entry stores under (key, manifest). */
void
putRecord(Enc &o, const ResultCache::Record &r, const exe::Executable &x)
{
    o.u64(r.cycles);
    o.u64(r.insts);
    o.vec(r.hist);
    putBreakdown(o, r.breakdown);
    o.u64(r.stallCycles);
    o.u64(r.blocks);
    // perWord sparse: its size, then (word index, count) pairs.
    o.u64(r.perWord.size());
    o.u64(r.perWord.size() - std::count(r.perWord.begin(),
                                        r.perWord.end(), 0));
    for (uint32_t w = 0; w < r.perWord.size(); ++w)
        if (r.perWord[w]) {
            o.u32(w);
            o.u64(r.perWord[w]);
        }
    o.blob(r.output);
    putArch(o, r.endState, x);
    putTiming(o, r.startTiming);
    putTiming(o, r.endTiming);
    o.i32(r.exitCode);
    o.ub(r.exited);
    o.u64(r.shards);
    o.u64(r.resims);
}

/**
 * Decode a record body; false on any malformed or trailing byte.
 * With x null it only checks the body (the disk loader); otherwise
 * perWord is expanded and endState rebuilt against x's pristine
 * images, the stack sized by ecfg.
 */
bool
getRecord(Dec &d, ResultCache::Record &r, const exe::Executable *x,
          const Emulator::Config *ecfg)
{
    r.cycles = d.u64();
    r.insts = d.u64();
    r.hist = d.vec<uint64_t>();
    getBreakdown(d, r.breakdown);
    r.stallCycles = d.u64();
    r.blocks = d.u64();
    const uint64_t words = d.u64();
    const auto perWordNz = getPairs(d);
    r.output = d.blob();
    MemDelta data, stack;
    const bool present = getArch(d, r.endState, data, stack);
    getTiming(d, r.startTiming);
    getTiming(d, r.endTiming);
    r.exitCode = d.i32();
    r.exited = d.ub();
    r.shards = d.u64();
    r.resims = d.u64();
    if (!d.done())
        return false;
    for (const auto &[w, n] : perWordNz)
        if (w >= words)
            return false;
    if (!x)
        return true;
    if (words > x->text.size())
        return false;
    r.perWord.assign(words, 0);
    for (const auto &[w, n] : perWordNz)
        r.perWord[w] = n;
    if (present) {
        r.endState.dataMem = initialDataImage(*x);
        r.endState.stackMem.assign(ecfg->stackBytes, 0);
        if (!fits(data, r.endState.dataMem) ||
            !fits(stack, r.endState.stackMem))
            return false;
        data.apply(r.endState.dataMem);
        stack.apply(r.endState.stackMem);
    }
    return true;
}

std::string
hex(uint64_t v)
{
    static const char *digits = "0123456789abcdef";
    std::string s(16, '0');
    for (int i = 15; i >= 0; --i, v >>= 4)
        s[i] = digits[v & 15];
    return s;
}

constexpr char kMagic[6] = {'E', 'E', 'L', 'R', 'C', '1'};
/** Magic, u32 version, u64 payload length. */
constexpr size_t kHeaderBytes = sizeof(kMagic) + 4 + 8;

} // namespace

uint64_t
ResultCache::pageHash(const exe::ChunkPtr &c) const
{
    if (cfg.store)
        return cfg.store->contentHash(c);
    return exe::pageContentHash(*c);
}

ResultCache::ResultCache(Config c) : cfg(std::move(c))
{
    if (!cfg.dir.empty())
        loadDiskTier();
}

// ----------------------------------------------------------------
// Key construction.

namespace {

/** Everything besides page contents and machine state that affects
 *  a timing run's output. Engine-selection knobs (dispatch,
 *  traceMemo) are proven output-invariant by the differential fuzz
 *  oracle and deliberately excluded. */
void
hashFingerprint(H2 &h, const machine::MachineModel &model,
                const TimingSim::Config &tcfg,
                const Emulator::Config &ecfg, uint64_t interval,
                unsigned warmup)
{
    h.str(model.name());
    h.u64(std::bit_cast<uint64_t>(model.clockMhz()));
    h.u32(model.issueWidth());
    h.u32(model.branchPenalty());
    h.u32(model.maxLatency());
    h.u32(model.numGroups());
    h.u32(model.numUnits());
    for (unsigned u = 0; u < model.numUnits(); ++u)
        h.u32(model.unitCapacity(u));

    unsigned penalty =
        tcfg.takenBranchPenalty == TimingSim::Config::fromModel
            ? model.branchPenalty()
            : tcfg.takenBranchPenalty;
    h.u32(penalty);
    h.ub(tcfg.useICache);
    h.u32(tcfg.icache.bytes);
    h.u32(tcfg.icache.lineBytes);
    h.u32(tcfg.icache.assoc);
    h.u32(tcfg.icacheMissPenalty);
    h.ub(tcfg.collectStalls);

    h.u32(ecfg.windows);
    h.u32(ecfg.stackBytes);
    h.u64(ecfg.maxInstructions);

    h.u64(interval);
    h.u32(warmup);
}

void
hashCheckpointState(H2 &h, const Checkpoint &cp)
{
    const Emulator::State &s = cp.state;
    h.v32(s.wins);
    for (uint32_t g : s.globals)
        h.u32(g);
    for (uint32_t f : s.fpRegs)
        h.u32(f);
    h.u32(s.cwp);
    h.u64(static_cast<uint64_t>(static_cast<int64_t>(s.winDepth)));
    h.u32(s.icc);
    h.u32(s.fcc);
    h.u32(s.y);
    h.u32(s.pc);
    h.u32(s.npc);
    h.ub(s.annul);
    h.ub(s.exited);
    h.u64(static_cast<uint64_t>(
        static_cast<int64_t>(s.exitCode)));
    h.u64(s.retired);
    for (const MemDelta::Page &pg : cp.dataDelta.pages) {
        h.u32(pg.offset);
        h.v8(pg.bytes);
    }
    for (const MemDelta::Page &pg : cp.stackDelta.pages) {
        h.u32(pg.offset);
        h.v8(pg.bytes);
    }
}

} // namespace

ResultCache::ImageKey
ResultCache::imageKey(const exe::Executable &x,
                      const machine::MachineModel &model,
                      const TimingSim::Config &tcfg,
                      const Emulator::Config &ecfg,
                      uint64_t interval, unsigned warmup,
                      const std::vector<uint8_t> *blockLeader)
{
    H2 h;
    hashFingerprint(h, model, tcfg, ecfg, interval, warmup);
    if (blockLeader) {
        h.u64(1);
        h.v8(*blockLeader);
    } else {
        h.u64(0);
    }
    // Pristine data identity: the checkpoints' memory deltas are
    // diffed against the initial data image, so the same delta over
    // different pristine data is different memory — a data edit
    // conservatively invalidates every shard.
    h.u64(x.entry);
    h.u64(x.bssBytes);
    h.u64(x.data.size());
    for (const exe::ChunkPtr &c : x.data.chunkRefs())
        h.u64(pageHash(c));

    ImageKey k;
    k.base = h.key();
    k.units = model.numUnits();

    // Text identity extends the base into the whole-image run key;
    // shard keys see text only through their touched-page manifests.
    h.u64(x.text.size());
    k.textPageHash.reserve(x.text.chunkRefs().size());
    for (const exe::ChunkPtr &c : x.text.chunkRefs()) {
        uint64_t ph = pageHash(c);
        k.textPageHash.push_back(ph);
        h.u64(ph);
    }
    k.run = h.key();
    return k;
}

ResultCache::Key
ResultCache::shardKeyWarm(const ImageKey &k, const Checkpoint *cp,
                          uint64_t len, bool isLast) const
{
    H2 h;
    h.u64(k.base.a);
    h.u64(k.base.b);
    h.u64(1);  // flavor: checkpoint + recorded warmup
    h.u64(len);
    h.ub(isLast);
    if (cp) {
        hashCheckpointState(h, *cp);
        h.v32(cp->warmupPcs);
    } else {
        h.u64(0x5ead0000);  // shard 0: starts from reset
    }
    return h.key();
}

ResultCache::Key
ResultCache::shardKeyHandoff(const ImageKey &k, const Checkpoint *cp,
                             const TimingSim::State &entry, uint64_t len,
                             bool isLast) const
{
    H2 h;
    h.u64(k.base.a);
    h.u64(k.base.b);
    h.u64(2);  // flavor: exact handed-off timing state
    h.u64(len);
    h.ub(isLast);
    if (cp)
        hashCheckpointState(h, *cp);
    else
        h.u64(0x5ead0000);
    // The rebased state in its record encoding, issue-group fields
    // included: the record's histogram depends on them.
    Enc state;
    putTiming(state, entry);
    h.str(state.s);
    return h.key();
}

ResultCache::Key
ResultCache::serialRunKey(const ImageKey &k) const
{
    H2 h;
    h.u64(k.run.a);
    h.u64(k.run.b);
    h.u64(3);  // flavor: whole serial timedRun
    return h.key();
}

// ----------------------------------------------------------------
// Lookup and store.

bool
ResultCache::lookup(const ImageKey &k, const Key &key,
                    const exe::Executable &x,
                    const Emulator::Config &ecfg, Record &out)
{
    static obs::Metric mHits("rescache.hits",
                             obs::MetricKind::Counter);
    static obs::Metric mDisk("rescache.disk_hits",
                             obs::MetricKind::Counter);
    static obs::Metric mMisses("rescache.misses",
                               obs::MetricKind::Counter);
    static obs::Metric mInval("rescache.invalidations",
                              obs::MetricKind::Counter);
    std::lock_guard<std::mutex> lock(mu);
    ++st.lookups;
    auto it = entries.find(key);
    if (it != entries.end()) {
        for (const Candidate &c : it->second) {
            bool match = std::all_of(
                c.manifest.begin(), c.manifest.end(),
                [&](const auto &page) {
                    return page.first < k.textPageHash.size() &&
                           k.textPageHash[page.first] == page.second;
                });
            Record r;
            Dec d(c.body);
            if (!match || !getRecord(d, r, &x, &ecfg) ||
                !r.startTiming.pipe.fits(k.units) ||
                !r.endTiming.pipe.fits(k.units))
                continue;
            out = std::move(r);
            ++st.hits;
            mHits.add();
            if (c.fromDisk) {
                ++st.diskHits;
                mDisk.add();
            }
            return true;
        }
        // Candidates existed but an executed page's content changed:
        // this shard must re-run because of the edit.
        ++st.invalidations;
        mInval.add();
    }
    ++st.misses;
    mMisses.add();
    return false;
}

void
ResultCache::store(const ImageKey &k, const Key &key,
                   const std::vector<uint32_t> &touchedPages,
                   const Record &r, const exe::Executable &x)
{
    Candidate c;
    c.manifest.reserve(touchedPages.size());
    for (uint32_t idx : touchedPages)
        if (idx < k.textPageHash.size())
            c.manifest.emplace_back(idx, k.textPageHash[idx]);
    Enc body;
    putRecord(body, r, x);
    c.body = std::move(body.s);
    c.body.shrink_to_fit();  // resident for the cache's lifetime

    std::lock_guard<std::mutex> lock(mu);
    auto &bucket = entries[key];
    for (const Candidate &old : bucket)
        if (old.manifest == c.manifest)
            return;  // deterministic values: first store wins
    ++st.stores;
    if (!cfg.dir.empty()) {
        Enc o;
        o.u64(key.a);
        o.u64(key.b);
        putPairs(o, c.manifest);
        const uint64_t manifestSum =
            fnv64(o.s.data() + 16, o.s.size() - 16);
        o.s += c.body;
        writeEntry(hex(key.a) + hex(key.b) + "-" + hex(manifestSum) +
                       ".rc",
                   o.s);
    }
    bucket.push_back(std::move(c));
}

ResultCache::Stats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    return st;
}

// ----------------------------------------------------------------
// Disk tier. One file per entry:
//
//   "EELRC1" | u32 version | u64 payloadLen
//   | payload (key, manifest, record body) | u64 fnv64(payload)
//
// Writes go to a unique temp name then rename into place, so a
// concurrent reader never sees a half-written entry. Loads verify
// every layer and count a clean reject (never a crash, never a
// poisoned result) for anything malformed.

void
ResultCache::writeEntry(const std::string &name,
                        const std::string &payload)
{
    // mu is held: tempSeq and the write ordering stay consistent.
    std::error_code ec;
    fs::create_directories(cfg.dir, ec);
    std::string tmp = cfg.dir + "/.tmp-" +
                      std::to_string(getpid()) + "-" +
                      std::to_string(++tempSeq);
    {
        std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
        if (!f)
            return;  // unwritable dir: stay memory-only
        Enc o;
        o.raw(kMagic, sizeof(kMagic));
        o.u32(diskVersion);
        o.u64(payload.size());
        f.write(o.s.data(), o.s.size());
        f.write(payload.data(), payload.size());
        Enc sum;
        sum.u64(fnv64(payload.data(), payload.size()));
        f.write(sum.s.data(), sum.s.size());
        if (!f)
            return;
    }
    fs::rename(tmp, cfg.dir + "/" + name, ec);
    if (ec)
        fs::remove(tmp, ec);
}

bool
ResultCache::adoptPayload(const std::string &payload)
{
    Dec d(payload);
    Key key{d.u64(), d.u64()};
    Candidate c;
    c.fromDisk = true;
    c.manifest = getPairs(d);
    if (!d.ok)
        return false;
    c.body.assign(reinterpret_cast<const char *>(d.p), d.e - d.p);
    Record check;
    Dec body(c.body);
    if (!getRecord(body, check, nullptr, nullptr))
        return false;
    auto &bucket = entries[key];
    for (const Candidate &old : bucket)
        if (old.manifest == c.manifest)
            return true;
    bucket.push_back(std::move(c));
    return true;
}

void
ResultCache::loadDiskTier()
{
    std::error_code ec;
    fs::create_directories(cfg.dir, ec);
    std::lock_guard<std::mutex> lock(mu);
    for (const auto &de : fs::directory_iterator(cfg.dir, ec)) {
        if (!de.is_regular_file(ec))
            continue;
        if (de.path().extension() != ".rc")
            continue;
        // The header alone settles magic, version and length, so a
        // file of another format version is rejected unread.
        std::ifstream f(de.path(), std::ios::binary);
        std::string head(kHeaderBytes, '\0');
        f.read(head.data(), kHeaderBytes);
        std::error_code sizeEc;
        const uint64_t size = de.file_size(sizeEc);
        bool rejected = true;
        Dec h(head);
        h.p += sizeof(kMagic);
        const uint32_t version = h.u32();
        const uint64_t len = h.u64();
        if (f && !sizeEc &&
            std::memcmp(head.data(), kMagic, sizeof(kMagic)) == 0 &&
            version == diskVersion && size >= kHeaderBytes + 8 &&
            len == size - kHeaderBytes - 8) {
            std::string payload(len, '\0'), tail(8, '\0');
            f.read(payload.data(), std::streamsize(len));
            f.read(tail.data(), 8);
            Dec t(tail);
            if (f && t.u64() == fnv64(payload.data(), payload.size()) &&
                adoptPayload(payload)) {
                rejected = false;
                ++st.diskEntriesLoaded;
            }
        }
        if (rejected)
            ++st.diskRejects;
    }
}

} // namespace eel::sim
