/**
 * @file
 * Content-addressed cache of timing-simulation results.
 *
 * The paper's methodology is "edit a binary, re-measure it": every
 * table is a sweep of rewritten variants of one program, and the
 * variants share ~95% of their text pages through exe::SectionStore.
 * Yet each variant pays a full timing run. This subsystem closes
 * that gap by memoizing timing results under keys built from exactly
 * what determines them. There is one entry family: a Record stored
 * under a 128-bit key, with a manifest of the text pages it depends
 * on.
 *
 *   shard key  = H(machine/config fingerprint,
 *                  pristine-data identity of the image,
 *                  the shard's entry machine state (its checkpoint:
 *                  registers, cursor, memory deltas, warmup pcs —
 *                  or, for a stitch resimulation, the predecessor's
 *                  end TimingSim::State),
 *                  shard length, last-shard flag)
 *   + manifest = content hashes of the text pages the shard's replay
 *                actually executed (its page-touch bitmap)
 *
 * A candidate under the key is a hit only if every manifest page
 * hash matches the current image — so after a one-byte edit to a
 * hot page, exactly the shards that execute that page re-run
 * (counted as rescache.invalidations), and every other shard's
 * result is reused byte-for-byte. Register/memory entry state is in
 * the key because the retired pc stream is a function of it; text
 * content enters only through the manifest because an edit to a
 * never-executed page cannot change a replay (the emulator faults
 * loads outside data/stack, so text is only read at executed pcs).
 *
 * A whole run is the same kind of entry with an empty manifest: a
 * merged sharded run lives under ImageKey::run (every text+data
 * page hash plus the fingerprint), letting an unchanged image skip
 * even the functional capture pass; a serial timedRun() — what the
 * service daemon consults across SIMULATE requests — lives under
 * serialRunKey(), a flavor of the same key, so neither can answer
 * the other's lookup.
 *
 * Entries live in memory in their encoded form; with Config::dir set
 * each store also writes through to a disk tier (one versioned,
 * checksummed file per entry, loaded on construction) so very long
 * runs survive process restarts. The disk file and the in-memory
 * entry share one encoder and one bounds-checked decoder. Any disk
 * anomaly — short file, bad magic, wrong version (read from the
 * header alone), checksum mismatch, malformed payload — rejects that
 * file cleanly, and a record whose timing states do not fit the
 * machine model misses at lookup; a corrupt cache can cost time,
 * never correctness.
 *
 * The cache is only consulted for the perfect-icache configuration:
 * with Config::useICache the timing state is not self-contained
 * (cache contents are never snapshotted) and that config is
 * documented approximate anyway — the same gate the sharded
 * validation stitch uses.
 */

#ifndef EEL_SIM_RESULTCACHE_HH
#define EEL_SIM_RESULTCACHE_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sim/checkpoint.hh"
#include "src/sim/timing.hh"

namespace eel::exe {
class SectionStore;
}

namespace eel::sim {

class ResultCache
{
  public:
    struct Config
    {
        /** Disk tier root ("" = in-memory only). Created on demand;
         *  entries already present are loaded at construction. */
        std::string dir;
        /** Optional store whose contentHash() memoizes page hashing
         *  (gc-safe: the store re-hashes recycled chunk addresses
         *  instead of pinning pages). Null = hash pages directly. */
        exe::SectionStore *store = nullptr;
    };

    struct Stats
    {
        uint64_t lookups = 0;
        uint64_t hits = 0;
        uint64_t diskHits = 0;       ///< hits on disk-loaded entries
        uint64_t misses = 0;
        /** Lookups that found candidates under the key but every
         *  candidate's page manifest mismatched the current image —
         *  i.e. a shard re-run forced by an edited executed page. */
        uint64_t invalidations = 0;
        uint64_t stores = 0;
        uint64_t diskEntriesLoaded = 0;
        uint64_t diskRejects = 0;    ///< corrupt/alien files skipped
    };

    /** 128-bit content key (two independent FNV-1a streams); low
     *  collision odds are backed by runSharded's merged-output
     *  fatals, which would trip on any mismatched payload. */
    struct Key
    {
        uint64_t a = 0, b = 0;
        bool operator==(const Key &) const = default;
    };

    /**
     * Per-invocation key context for one (executable, model, config)
     * triple: the whole-image run key, the text-free base the shard
     * keys mix from, and the per-page content hashes the manifests
     * verify against.
     */
    struct ImageKey
    {
        Key run;   ///< fingerprint + every text and data page
        Key base;  ///< fingerprint + pristine-data identity only
        std::vector<uint64_t> textPageHash;  ///< per 1 KiB text page
        /** The model's unit count: the row width a cached timing
         *  state must have to be applied. */
        unsigned units = 0;
    };

    /**
     * One cached timing result. For a shard: exactly the per-shard
     * record runSharded merges — counter deltas past the warmup and
     * the post-warmup and end timing states the stitch compares and
     * hands off. For a whole run: the
     * merged totals (insts/output are the run's result, perWord its
     * leader retires, endState its final state) plus the four
     * fields only a run has. Wall-clock stats are never cached.
     */
    struct Record
    {
        uint64_t cycles = 0;
        uint64_t insts = 0;
        std::vector<uint64_t> hist;
        obs::StallBreakdown breakdown;
        uint64_t stallCycles = 0;
        uint64_t blocks = 0;
        std::vector<uint64_t> perWord;  ///< sized iff leader bitmap
        std::string output;
        /** Last shard or sharded run only (empty otherwise). */
        Emulator::ArchSnapshot endState;
        TimingSim::State startTiming, endTiming;

        int exitCode = -1;
        bool exited = false;
        uint64_t shards = 0;
        uint64_t resims = 0;
    };

    ResultCache() : ResultCache(Config{}) {}
    explicit ResultCache(Config cfg);

    /**
     * Build the key context for one run of x. Hashes the machine
     * model, the output-affecting timing/emulator/shard
     * configuration (engine-selection knobs that are proven
     * output-invariant — dispatch, traceMemo — are deliberately
     * excluded), the pristine data identity, every
     * text page, and the block-leader bitmap if any.
     */
    ImageKey imageKey(const exe::Executable &x,
                      const machine::MachineModel &model,
                      const TimingSim::Config &tcfg,
                      const Emulator::Config &ecfg,
                      uint64_t interval, unsigned warmup,
                      const std::vector<uint8_t> *blockLeader);

    /** Key for a shard replayed from its checkpoint with recorded
     *  warmup pcs (cp null for shard 0, which starts from reset). */
    Key shardKeyWarm(const ImageKey &k, const Checkpoint *cp,
                     uint64_t len, bool isLast) const;
    /** Key for a stitch resimulation continued from the
     *  predecessor's end timing state (rebased, so equal states time
     *  any future stream identically). */
    Key shardKeyHandoff(const ImageKey &k, const Checkpoint *cp,
                        const TimingSim::State &entry, uint64_t len,
                        bool isLast) const;
    /** Key for a whole serial timedRun() of k's image (built with
     *  interval and warmup 0): a flavor of k.run, so a serial record
     *  never answers runSharded's lookup of k.run. */
    Key serialRunKey(const ImageKey &k) const;

    /**
     * A candidate under key hits iff every page in its manifest
     * still hashes the same in k (a whole-run entry's manifest is
     * empty), its record decodes against x and its timing states fit
     * k.units (PipelineState::RebasedPipe::fits). On a hit, out is the
     * exact stored record (endState rebuilt from deltas against x's
     * pristine images sized by ecfg); on a miss out is untouched.
     */
    bool lookup(const ImageKey &k, const Key &key,
                const exe::Executable &x, const Emulator::Config &ecfg,
                Record &out);
    /** Store r under key, its manifest the hashes in k of
     *  touchedPages (empty for a whole run). Results are
     *  deterministic, so the first store of a (key, manifest) wins. */
    void store(const ImageKey &k, const Key &key,
               const std::vector<uint32_t> &touchedPages,
               const Record &r, const exe::Executable &x);

    Stats stats() const;

    /** Disk format version; bump on any layout change. */
    static constexpr uint32_t diskVersion = 3;

  private:
    struct KeyHash
    {
        size_t operator()(const Key &k) const { return size_t(k.a); }
    };

    using Manifest = std::vector<std::pair<uint32_t, uint64_t>>;

    /** One stored record, kept encoded: the body of its disk file. */
    struct Candidate
    {
        Manifest manifest;
        std::string body;
        bool fromDisk = false;
    };

    uint64_t pageHash(const exe::ChunkPtr &c) const;
    void loadDiskTier();
    bool adoptPayload(const std::string &payload);
    void writeEntry(const std::string &name,
                    const std::string &payload);

    Config cfg;
    mutable std::mutex mu;
    std::unordered_map<Key, std::vector<Candidate>, KeyHash> entries;
    Stats st;
    uint64_t tempSeq = 0;
};

} // namespace eel::sim

#endif // EEL_SIM_RESULTCACHE_HH
