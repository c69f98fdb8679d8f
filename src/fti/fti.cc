#include "src/fti/fti.hh"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/fti/rs_codec.hh"
#include "src/util/crc32c.hh"
#include "src/util/logging.hh"
#include "src/util/phase.hh"

namespace match::fti
{

using simmpi::CategoryScope;
using simmpi::TimeCategory;

std::uint64_t
fnv1a(const void *data, std::size_t bytes, std::uint64_t seed)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint64_t hash = seed;
    for (std::size_t i = 0; i < bytes; ++i) {
        hash ^= p[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

// ---------------------------------------------------------------------------
// Path helpers
// ---------------------------------------------------------------------------

std::string
Fti::execDir(const FtiConfig &config)
{
    return config.ckptDir + "/" + config.execId;
}

std::string
Fti::localDir(const FtiConfig &config, int rank)
{
    return execDir(config) + "/local/rank" + std::to_string(rank);
}

std::string
Fti::ckptFile(const FtiConfig &config, int rank, int ckpt_id)
{
    return localDir(config, rank) + "/ckpt" + std::to_string(ckpt_id) +
           ".fti";
}

std::string
Fti::partnerFile(const FtiConfig &config, int holder, int owner,
                 int ckpt_id)
{
    return localDir(config, holder) + "/partner" + std::to_string(owner) +
           "-ckpt" + std::to_string(ckpt_id) + ".fti";
}

std::string
Fti::parityFile(const FtiConfig &config, int rank, int ckpt_id)
{
    return localDir(config, rank) + "/parity-ckpt" +
           std::to_string(ckpt_id) + ".rs";
}

std::string
Fti::pfsFile(const FtiConfig &config, int rank, int ckpt_id)
{
    return execDir(config) + "/pfs/rank" + std::to_string(rank) + "-ckpt" +
           std::to_string(ckpt_id) + ".fti";
}

std::string
Fti::pfsDiffDir(const FtiConfig &config, int rank)
{
    return execDir(config) + "/pfs/diff/rank" + std::to_string(rank);
}

std::string
Fti::pfsBaseFile(const FtiConfig &config, int rank)
{
    return pfsDiffDir(config, rank) + "/base.fti";
}

std::string
Fti::pfsDeltaFile(const FtiConfig &config, int rank, int ckpt_id)
{
    return pfsDiffDir(config, rank) + "/delta" + std::to_string(ckpt_id) +
           ".fti";
}

std::string
Fti::metaFile(const FtiConfig &config, int ckpt_id)
{
    return execDir(config) + "/meta/ckpt" + std::to_string(ckpt_id) +
           ".meta";
}

void
Fti::purge(const FtiConfig &config)
{
    storage::resolve(config.backend).removeTree(execDir(config));
}

// ---------------------------------------------------------------------------
// Construction / registration
// ---------------------------------------------------------------------------

Fti::Fti(simmpi::Proc &proc, FtiConfig config, simmpi::CommId comm)
    : proc_(proc), config_(std::move(config)),
      comm_(comm == simmpi::commNull ? proc.world() : comm),
      store_(storage::resolve(config_.backend)),
      deltaTx_(config_.deltaBlockSize)
{
    // A decorated backend attaches the storage-fault engine: the plan
    // drives pre-flight degradation queries and the retry pricing. A
    // plain backend leaves faults_ null and every fault hook compiled
    // down to a pointer test.
    faults_ =
        dynamic_cast<storage::FaultInjectingBackend *>(&store_);
    store_.createDirectories(localDir(config_, proc_.runtime().commRank(
                                                   proc_.globalIndex(),
                                                   comm_)));
    store_.createDirectories(execDir(config_) + "/meta");
    store_.createDirectories(execDir(config_) + "/pfs/diff");
    recoveryCkptId_ = newestCommittedCkpt();
    if (recoveryCkptId_ > 0) {
        MetaInfo meta;
        if (loadMeta(recoveryCkptId_, meta)) {
            prevCkptId_ = meta.ckptId;
            prevLevel_ = meta.level;
        }
    }
}

void
Fti::protect(int id, void *ptr, std::size_t bytes)
{
    MATCH_ASSERT(ptr != nullptr || bytes == 0,
                 "cannot protect a null region");
    regions_[id] = ProtectedRegion{id, ptr, bytes};
}

void
Fti::unprotect(int id)
{
    regions_.erase(id);
}

std::size_t
Fti::protectedBytes() const
{
    std::size_t total = 0;
    for (const auto &[id, region] : regions_)
        total += region.bytes;
    return total;
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

storage::Blob
Fti::serializeRegions() const
{
    util::PhaseScope phase(util::Phase::CkptSerialize);
    // [u32 id][u64 bytes][raw payload] per region, in id order. The
    // snapshot lands directly in a pooled buffer: sealing it makes it
    // the very object the backend stores, the partner copy shares and
    // the PFS flush reads — this one staging pass is the only
    // payload copy the checkpoint hot path performs.
    std::size_t total = 0;
    for (const auto &[id, region] : regions_)
        total += sizeof(std::uint32_t) + sizeof(std::uint64_t) +
                 region.bytes;
    storage::MutableBlob blob =
        storage::BlobPool::local().acquire(total);
    std::size_t off = 0;
    for (const auto &[id, region] : regions_) {
        const auto id32 = static_cast<std::uint32_t>(id);
        const auto len64 = static_cast<std::uint64_t>(region.bytes);
        std::memcpy(blob.data() + off, &id32, sizeof(id32));
        off += sizeof(id32);
        std::memcpy(blob.data() + off, &len64, sizeof(len64));
        off += sizeof(len64);
        std::memcpy(blob.data() + off, region.ptr, region.bytes);
        off += region.bytes;
    }
    return std::move(blob).seal();
}

void
Fti::deserializeRegions(const std::uint8_t *data, std::size_t bytes)
{
    util::PhaseScope phase(util::Phase::CkptSerialize);
    std::size_t off = 0;
    while (off < bytes) {
        std::uint32_t id32;
        std::uint64_t len64;
        MATCH_ASSERT(off + sizeof(id32) + sizeof(len64) <= bytes,
                     "truncated checkpoint blob");
        std::memcpy(&id32, data + off, sizeof(id32));
        off += sizeof(id32);
        std::memcpy(&len64, data + off, sizeof(len64));
        off += sizeof(len64);
        auto it = regions_.find(static_cast<int>(id32));
        if (it == regions_.end()) {
            util::fatal("checkpoint contains unprotected region id %u",
                        id32);
        }
        if (it->second.bytes != len64) {
            util::fatal("size mismatch restoring region %u: "
                        "registered %zu, stored %llu",
                        id32, it->second.bytes,
                        static_cast<unsigned long long>(len64));
        }
        MATCH_ASSERT(off + len64 <= bytes,
                     "truncated checkpoint payload");
        std::memcpy(it->second.ptr, data + off, len64);
        off += len64;
    }
    MATCH_ASSERT(off == bytes, "trailing bytes in checkpoint blob");
}

// ---------------------------------------------------------------------------
// Metadata
// ---------------------------------------------------------------------------

namespace
{

// The metadata record: this header, then nprocs MetaRank entries, in
// host byte order (little-endian on every supported target, like the
// transform envelopes). Every rank decodes it several times per
// recovery, so decoding must stay O(1) work per entry: a size check
// and a memcpy, never a parse.
constexpr std::uint32_t kMetaMagic = 0x4154454dU; // "META"

struct MetaHeader
{
    std::uint32_t magic;
    std::int32_t ckptId;
    std::int32_t level;
    std::int32_t nprocs;
};

} // namespace

void
Fti::commitMeta(const MetaInfo &meta)
{
    static_assert(sizeof(MetaHeader) == 16 && sizeof(MetaRank) == 16,
                  "meta record fields must pack without padding");
    const MetaHeader header{kMetaMagic, meta.ckptId, meta.level,
                            meta.nprocs};
    const std::size_t entries = meta.ranks.size() * sizeof(MetaRank);
    std::vector<std::uint8_t> record(sizeof(header) + entries);
    std::memcpy(record.data(), &header, sizeof(header));
    std::memcpy(record.data() + sizeof(header), meta.ranks.data(), entries);
    const std::string path = metaFile(config_, meta.ckptId);
    ioRetry([&] {
        store_.writeAtomic(path, record.data(), record.size());
    });
}

bool
Fti::decodeMeta(const storage::Blob &record, int ckpt_id, MetaInfo &meta)
{
    MetaHeader header{};
    if (record.size() >= sizeof(header))
        std::memcpy(&header, record.data(), sizeof(header));
    if (header.magic != kMetaMagic || header.ckptId != ckpt_id ||
        header.level < 1 || header.nprocs < 1 ||
        record.size() != sizeof(header) + static_cast<std::size_t>(
                                               header.nprocs) *
                                               sizeof(MetaRank))
        return false;
    meta.ckptId = header.ckptId;
    meta.level = header.level;
    meta.nprocs = header.nprocs;
    meta.ranks.resize(static_cast<std::size_t>(header.nprocs));
    std::memcpy(meta.ranks.data(), record.data() + sizeof(header),
                meta.ranks.size() * sizeof(MetaRank));
    return true;
}

bool
Fti::loadMeta(int ckpt_id, MetaInfo &meta) const
{
    // Retry exhaustion and a malformed record both read as "metadata
    // missing": recovery walks to an older committed checkpoint instead
    // of aborting.
    return decodeMeta(
        fetchRetry(metaFile(config_, ckpt_id), /*checked=*/true), ckpt_id,
        meta);
}

int
Fti::newestCommittedCkpt() const
{
    int newest = 0;
    for (const std::string &name :
         store_.listDir(execDir(config_) + "/meta")) {
        if (name.rfind("ckpt", 0) != 0)
            continue;
        const int id = std::atoi(name.c_str() + 4);
        if (id <= newest)
            continue;
        MetaInfo meta;
        if (loadMeta(id, meta) &&
            meta.nprocs == proc_.runtime().commSize(comm_)) {
            newest = id;
        }
    }
    return newest;
}

std::vector<int>
Fti::committedCkptsNewestFirst() const
{
    // Derived from the shared meta directory, so every rank of the
    // communicator computes the same list — the SDC ladder's collective
    // agreement rounds line up without communication.
    std::vector<int> ids;
    for (const std::string &name :
         store_.listDir(execDir(config_) + "/meta")) {
        if (name.rfind("ckpt", 0) != 0)
            continue;
        const int id = std::atoi(name.c_str() + 4);
        MetaInfo meta;
        if (id > 0 && loadMeta(id, meta) &&
            meta.nprocs == proc_.runtime().commSize(comm_)) {
            ids.push_back(id);
        }
    }
    std::sort(ids.begin(), ids.end(),
              [](int a, int b) { return a > b; });
    return ids;
}

void
Fti::removeCheckpointFiles(int id, int level)
{
    const int rank = proc_.runtime().commRank(proc_.globalIndex(), comm_);
    const int size = proc_.runtime().commSize(comm_);
    const int owner = (rank + size - 1) % size; // whose L2 copy I hold
    if (level <= 3)
        store_.remove(ckptFile(config_, rank, id));
    if (level == 2)
        store_.remove(partnerFile(config_, rank, owner, id));
    if (level == 3)
        store_.remove(parityFile(config_, rank, id));
    if (level == 4) {
        store_.remove(pfsFile(config_, rank, id));
        // A differential delta is read only together with its own
        // checkpoint's meta, so it dies with it; base.fti stays, as
        // every later delta is a diff against it.
        if (config_.transform == storage::TransformKind::None)
            store_.remove(pfsDeltaFile(config_, rank, id));
    }
    if (rank == 0)
        store_.remove(metaFile(config_, id));
}

void
Fti::cleanupOlderCheckpoints(int keep_id)
{
    // Remove exactly the files of the previous committed checkpoint
    // (tracked per level), not a speculative id window: the filesystem
    // traffic of stat-ing absent files dominated checkpoint wall time.
    if (prevCkptId_ <= 0 || prevCkptId_ >= keep_id)
        return;
    removeCheckpointFiles(prevCkptId_, prevLevel_);
}

// ---------------------------------------------------------------------------
// Checkpoint write paths
// ---------------------------------------------------------------------------

double
Fti::ckptFactor() const
{
    if (proc_.runtime().policy() == simmpi::ErrorPolicy::Return) {
        return proc_.runtime().costModel().ulfmCkptFactor(
            proc_.runtime().commSize(comm_));
    }
    return 1.0;
}

// ---------------------------------------------------------------------------
// I/O retry policy
// ---------------------------------------------------------------------------

int
Fti::ioRetryLimit() const
{
    return faults_ ? faults_->retryLimit()
                   : storage::kDefaultIoRetryLimit;
}

template <typename Op>
auto
Fti::ioRetry(Op &&op) const -> decltype(op())
{
    return storage::withIoRetry(
        ioRetryLimit(),
        [&] {
            // Bind this rank's own (epoch, actor) around the single
            // backend call — never around the whole retry loop, whose
            // backoff sleeps yield the fiber and would let another
            // rank's binding leak in. The actor key gives this rank a
            // private strike budget even on shared objects (meta
            // files), so every rank exhausts every object identically
            // and ladder decisions stay rank-uniform.
            storage::FaultEpochScope scope(faults_, faultEpoch_,
                                           proc_.globalIndex());
            return op();
        },
        [this](int attempt) {
            // Each backoff is real (simulated) time on this rank, and
            // deterministic: the fault plan's strike counters make the
            // attempt count a pure function of configuration.
            proc_.sleepFor(
                proc_.runtime().costModel().ioRetryBackoff(attempt));
            storage::notePricedRetries(1);
        });
}

storage::Blob
Fti::fetchRetry(const std::string &path, bool checked) const
{
    try {
        return ioRetry([&] { return storage::fetch(store_, path); });
    } catch (const storage::StorageError &) {
        if (checked)
            return storage::Blob(); // rung vote: object unreadable
        throw;
    }
}

bool
Fti::readRetry(const std::string &path, std::vector<std::uint8_t> &out,
               bool checked) const
{
    try {
        return ioRetry([&] { return store_.read(path, out); });
    } catch (const storage::StorageError &) {
        if (checked)
            return false;
        throw;
    }
}

void
Fti::writeLocal(int ckpt_id, const storage::Blob &blob)
{
    // The constructor created this rank's local directory. The store
    // takes a handle to the sealed snapshot — no payload copy.
    const int rank = proc_.runtime().commRank(proc_.globalIndex(), comm_);
    const std::string path = ckptFile(config_, rank, ckpt_id);
    ioRetry([&] { store_.write(path, storage::Blob(blob)); });
}

void
Fti::writePartnerCopy(int ckpt_id, const storage::Blob &blob)
{
    // Rank r's copy lives on the "next node": holder = (r+1) mod P.
    // Under MemBackend the partner path shares the local copy's buffer
    // (immutable, refcounted) — the L2 duplicate costs no memory move.
    const int size = proc_.runtime().commSize(comm_);
    const int rank = proc_.runtime().commRank(proc_.globalIndex(), comm_);
    const int holder = (rank + 1) % size;
    if (!auxDirsCreated_) {
        store_.createDirectories(localDir(config_, holder));
        auxDirsCreated_ = true;
    }
    const std::string path = partnerFile(config_, holder, rank, ckpt_id);
    ioRetry([&] { store_.write(path, storage::Blob(blob)); });
}

void
Fti::encodeGroupParity(int ckpt_id, const std::vector<std::uint64_t> &sizes)
{
    // The group leader (first rank of each encoding group) reads the
    // group's data files, pads them to the longest, and writes one parity
    // shard into each member's local directory. Any ceil(G/2) member
    // losses are then recoverable.
    const int rank = proc_.runtime().commRank(proc_.globalIndex(), comm_);
    const int gs = config_.groupSize;
    if (rank % gs != 0)
        return;
    const int size = proc_.runtime().commSize(comm_);
    const int group_lo = rank;
    const int group_hi = std::min(rank + gs, size);
    const int k = group_hi - group_lo;
    const int m = std::min(k, config_.parityShards);
    if (m == 0)
        return;

    // Fetch the members' blobs for the encoder: a refcounted view
    // under MemBackend (the leader never re-reads bytes it just
    // wrote), exactly one copy under DiskBackend. Shards shorter than
    // the stripe are zero-padded implicitly by the span encoder, and
    // the parity rows are built directly in pooled buffers that the
    // store then takes by ownership transfer.
    std::size_t stripe = 0;
    for (int i = 0; i < k; ++i)
        stripe = std::max<std::size_t>(stripe, sizes[group_lo + i]);
    std::vector<RsCodec::ShardView> data(k);
    std::vector<storage::Blob> members(k);
    for (int i = 0; i < k; ++i) {
        // checked=true folds retry exhaustion into "missing", which is
        // fatal here either way; the checkpoint pre-flight demotes L3
        // when local reads are persistently exhausted, so only a real
        // loss can trip this.
        members[i] = fetchRetry(ckptFile(config_, group_lo + i, ckpt_id),
                                /*checked=*/true);
        if (!members[i])
            util::fatal("L3 encode: missing data file for rank %d",
                        group_lo + i);
        data[i] = {members[i].data(), members[i].size()};
    }
    const RsCodec codec(k, m);
    auto parity =
        codec.encode(data, stripe, storage::BlobPool::local());
    for (int p = 0; p < m; ++p) {
        const int holder = group_lo + p;
        if (!auxDirsCreated_)
            store_.createDirectories(localDir(config_, holder));
        const std::string path = parityFile(config_, holder, ckpt_id);
        // Each attempt writes a handle copy (refcounted, no byte
        // copy): an inner backend throwing AFTER taking ownership of a
        // moved blob would otherwise retry with a moved-from husk and
        // commit a garbage parity object.
        ioRetry(
            [&] { store_.write(path, storage::Blob(parity[p])); });
    }
    auxDirsCreated_ = true;
}

namespace
{

/**
 * The L4 flush body: differential checkpointing against the rank's
 * base image. The first flush writes the base; later ones write only
 * the blocks that differ from it.
 *
 * @return bytes actually shipped to the PFS (differential writes less);
 *         a pure function of the flushes drained before this one.
 */
std::uint64_t
pfsFlushJob(const FtiConfig &config, int rank, int ckpt_id,
            const storage::Blob &blob, int retry_limit)
{
    storage::Backend &store = storage::resolve(config.backend);
    // Per-object retry: transient fault windows strike each PFS path
    // independently, so spending the budget per operation (not per
    // job) is what lets a rideable window actually be ridden out when
    // the job writes several objects. Unpriced — the flushing rank
    // priced the transient strikes at checkpoint entry.
    const auto retried = [retry_limit](auto &&op) {
        return storage::withIoRetry(
            retry_limit, std::forward<decltype(op)>(op), [](int) {});
    };
    if (config.transform != storage::TransformKind::None) {
        // Transform-enabled flushes write the staged envelope (the
        // delta stage already ran at serialize time) as the whole PFS
        // object, compressed here in the drain stage when configured —
        // the checkpoint's metadata covers the pre-compression
        // envelope, so recovery decompresses before verifying. The
        // legacy base+diff layout below stays the None behaviour,
        // bit-identical to the pre-transform code.
        const storage::Blob out =
            storage::transformHasCompress(config.transform)
                ? storage::compressEncode(blob)
                : blob;
        retried([&] {
            store.write(Fti::pfsFile(config, rank, ckpt_id),
                        storage::Blob(out));
        });
        return out.size();
    }
    store.createDirectories(Fti::pfsDiffDir(config, rank));
    const std::string base = Fti::pfsBaseFile(config, rank);
    const storage::Blob base_blob =
        retried([&] { return storage::fetch(store, base); });
    if (!base_blob) {
        // The base image also serves as this checkpoint's PFS copy;
        // both paths share the staged buffer by refcount.
        retried([&] { store.write(base, storage::Blob(blob)); });
        retried([&] {
            store.write(Fti::pfsFile(config, rank, ckpt_id),
                        storage::Blob(blob));
        });
        return blob.size();
    }
    // Delta vs base, built straight into one pooled buffer that the
    // store then owns: [u64 full size] then [u64 offset][u64 len]
    // [bytes] per changed block (the full size lets recovery handle
    // growth/shrink). The changed blocks are found first, so the
    // payload is sized once and filled in place.
    const std::size_t bs = config.diffBlockSize;
    std::vector<std::size_t> dirty;
    std::size_t payload_bytes = sizeof(std::uint64_t);
    for (std::size_t off = 0; off < blob.size(); off += bs) {
        const std::size_t len = std::min(bs, blob.size() - off);
        const bool same =
            off + len <= base_blob.size() &&
            std::memcmp(blob.data() + off, base_blob.data() + off,
                        len) == 0;
        if (same)
            continue;
        dirty.push_back(off);
        payload_bytes += 2 * sizeof(std::uint64_t) + len;
    }
    storage::MutableBlob payload =
        storage::BlobPool::local().acquire(payload_bytes);
    std::uint8_t *out = payload.data();
    const auto append = [&out](const void *p, std::size_t n) {
        std::memcpy(out, p, n);
        out += n;
    };
    const std::uint64_t full = blob.size();
    append(&full, sizeof(full));
    std::uint64_t changed = 0;
    for (const std::size_t off : dirty) {
        const std::uint64_t off64 = off;
        const std::uint64_t len64 = std::min(bs, blob.size() - off);
        append(&off64, sizeof(off64));
        append(&len64, sizeof(len64));
        append(blob.data() + off, len64);
        changed += len64;
    }
    MATCH_ASSERT(out == payload.data() + payload_bytes,
                 "L4 delta payload filled to its sized length");
    const storage::Blob delta_blob = std::move(payload).seal();
    retried([&] {
        store.write(Fti::pfsDeltaFile(config, rank, ckpt_id),
                    storage::Blob(delta_blob));
    });
    return changed;
}

} // anonymous namespace

void
Fti::enqueuePfsFlush(int ckpt_id, storage::Blob blob)
{
    // The flush reads a refcounted handle to the staged blob — the
    // burst buffer holds a reference, never a deep copy.
    const int rank = proc_.runtime().commRank(proc_.globalIndex(), comm_);
    const auto virt_bytes = static_cast<std::uint64_t>(
        static_cast<double>(blob.size()) * config_.virtualFactor);
    if (config_.drainCapacityBytes > 0) {
        // Burst-buffer capacity pressure, in virtual time: when the
        // staged-but-undrained flushes plus this one would exceed the
        // buffer, the rank stalls until enough earlier flushes finish
        // streaming — capacity turns the "free" overlapped drain back
        // into foreground checkpoint time (we run under CkptWrite here).
        const double stall = drainChannel_.reserve(
            proc_.now(), virt_bytes, config_.drainCapacityBytes,
            [this](std::uint64_t shipped, std::uint64_t in_bytes,
                   int procs, double factor) {
                return priceDrainJob(shipped, in_bytes, procs, factor);
            });
        if (stall > 0.0)
            proc_.sleepFor(stall);
    }
    drainChannel_.flush(
        [&]() -> std::uint64_t {
            // Bind the checkpoint's epoch (and the flushing rank as
            // the actor): the flush sees that checkpoint's windows and
            // strike budgets.
            storage::FaultEpochScope scope(faults_, ckpt_id, rank);
            const int limit = faults_ ? faults_->retryLimit()
                                      : storage::kDefaultIoRetryLimit;
            for (int attempt = 0;; ++attempt) {
                try {
                    return pfsFlushJob(config_, rank, ckpt_id, blob,
                                       limit);
                } catch (const storage::StorageError &) {
                    // Flush retries are unpriced: the rank already
                    // priced the plan's transient strikes at
                    // checkpoint entry. A permanently failed flush
                    // ships nothing — the object stays lost/torn and
                    // recovery's ladder (never a silent wrong restore)
                    // deals with it.
                    if (attempt >= limit) {
                        storage::noteFailedFlush();
                        return 0;
                    }
                }
            }
        },
        proc_.runtime().commSize(comm_), ckptFactor(), virt_bytes,
        virt_bytes);
    // The virtual enqueue instant is stamped later, once checkpoint()
    // has charged the staging cost.
}

double
Fti::priceDrainJob(std::uint64_t shipped, std::uint64_t inVirtBytes,
                   int procs, double factor) const
{
    // The flush job returns the wall bytes it actually shipped (the
    // compressed envelope when the compress stage is on); the
    // drain-stage compression CPU is charged on the channel too — it
    // overlaps compute exactly like the streaming it precedes.
    const simmpi::CostModel &model = proc_.runtime().costModel();
    const double virt_shipped =
        static_cast<double>(shipped) * config_.virtualFactor;
    double cost = model.drainFlush(
        static_cast<std::size_t>(virt_shipped), procs);
    if (storage::transformHasCompress(config_.transform))
        cost += model.transformCompress(
            static_cast<std::size_t>(inVirtBytes));
    return cost * factor;
}

void
Fti::drainBarrier()
{
    const double wait = drainChannel_.resolve(
        proc_.now(),
        [this](std::uint64_t shipped, std::uint64_t in_bytes, int procs,
               double factor) {
            return priceDrainJob(shipped, in_bytes, procs, factor);
        });
    if (wait > 0.0)
        proc_.sleepFor(wait);
}

void
Fti::checkpoint(int ckpt_id, int level)
{
    MATCH_ASSERT(!finalized_, "checkpoint after finalize");
    MATCH_ASSERT(ckpt_id > 0, "checkpoint ids start at 1");
    if (level == 0)
        level = config_.defaultLevel;
    MATCH_ASSERT(level >= 1 && level <= 4, "invalid checkpoint level");

    // Storage-fault pre-flight: every decision below is a pure query
    // against the deterministic plan, so all ranks take the same
    // branch before any I/O or collective — degradation never
    // desynchronizes the communicator.
    double fault_penalty = 0.0;
    faultEpoch_ = ckpt_id;
    if (faults_) {
        faults_->setEpoch(ckpt_id);
        const storage::StorageFaultPlan &plan = faults_->plan();
        const int limit = faults_->retryLimit();
        const simmpi::CostModel &cm = proc_.runtime().costModel();
        const int rank =
            proc_.runtime().commRank(proc_.globalIndex(), comm_);
        if (plan.writeExhausted(ckpt_id, storage::PathClass::Local,
                                limit)) {
            // Every level stages through the local tier (data and
            // metadata); with it write-exhausted the epoch cannot
            // commit anywhere. Skip it — priced, recorded, loud —
            // rather than dying while the application is healthy.
            CategoryScope scope(proc_, TimeCategory::CkptWrite);
            const double t0 = proc_.now();
            proc_.sleepFor(cm.ioRetryPenalty(1));
            storage::notePricedRetries(1);
            storage::noteSkippedEpoch();
            degradeEvents_.push_back(
                {ckpt_id, level, 0, storage::PathClass::Local});
            if (rank == 0)
                util::warn("FTI checkpoint %d skipped: local tier "
                           "write-exhausted (full or down past the "
                           "retry budget)", ckpt_id);
            writeSeconds_ += proc_.now() - t0;
            return;
        }
        if (level == 4 &&
            plan.writeExhausted(ckpt_id, storage::PathClass::Pfs,
                                limit)) {
            // PFS out for longer than the retry budget can ride:
            // demote to the strongest local tier instead of wedging
            // the drain on a flush that cannot land.
            degradeEvents_.push_back(
                {ckpt_id, 4, 3, storage::PathClass::Pfs});
            storage::noteDegradedCkpt();
            storage::notePricedRetries(limit);
            fault_penalty += cm.ioRetryPenalty(limit);
            if (rank == 0)
                util::warn("FTI checkpoint %d: PFS write-exhausted, "
                           "degrading L4 -> L3", ckpt_id);
            level = 3;
        }
        if (level == 3 &&
            plan.readExhausted(ckpt_id, storage::PathClass::Local,
                               limit)) {
            // The L3 encoder reads the group's freshly written data
            // files back; with local reads exhausted it cannot. L2
            // keeps cross-node redundancy without a read path.
            degradeEvents_.push_back(
                {ckpt_id, 3, 2, storage::PathClass::Local});
            storage::noteDegradedCkpt();
            storage::notePricedRetries(limit);
            fault_penalty += cm.ioRetryPenalty(limit);
            if (rank == 0)
                util::warn("FTI checkpoint %d: local reads exhausted, "
                           "degrading L3 -> L2", ckpt_id);
            level = 2;
        }
        if (level == 4) {
            // Transient PFS strikes are ridden out by the flush,
            // whose retries are unpriced: charge the re-staging
            // backoff here. (Local-tier writes price their actual
            // attempts inside ioRetry.)
            const int strikes = plan.transientWriteStrikes(
                ckpt_id, storage::PathClass::Pfs, limit);
            if (strikes > 0) {
                fault_penalty += cm.ioRetryPenalty(strikes);
                storage::notePricedRetries(
                    static_cast<std::uint64_t>(strikes));
            }
        }
        // A latency-spike window on the level's primary class slows
        // the epoch without failing anything.
        const storage::PathClass primary =
            level == 4 ? storage::PathClass::Pfs
                       : storage::PathClass::Local;
        if (plan.latencySpike(ckpt_id, primary)) {
            fault_penalty += cm.faultLatencySpike();
            storage::noteLatencySpike();
        }
    }

    CategoryScope scope(proc_, TimeCategory::CkptWrite);
    const double t0 = proc_.now();
    if (fault_penalty > 0.0)
        proc_.sleepFor(fault_penalty);

    storage::Blob blob = serializeRegions();
    bool emitted_full = true;
    if (storage::transformHasDelta(config_.transform)) {
        // Differential checkpoint: encode the image against the
        // previous epoch's. The delta-vs-full decision is collective
        // (allreduce-MIN) so every rank's chain has the same shape and
        // cleanup/meta retirement stay rank-uniform; a full envelope
        // is forced every deltaRebase-th checkpoint, after recovery,
        // and whenever the image changed size.
        const std::int64_t can_delta =
            (deltaTx_.hasReference() &&
             deltaTx_.referenceSize() == blob.size() &&
             deltaDepth_ + 1 < config_.deltaRebase)
                ? 1
                : 0;
        const bool emit_delta =
            proc_.allreduceInt(can_delta, simmpi::ReduceOp::Min,
                               comm_) == 1;
        if (!emit_delta) {
            deltaTx_.clearReference();
        } else {
            // The dirty scan streams both images; priced inline — it
            // is foreground checkpoint time, like the serialize pass.
            proc_.sleepFor(
                proc_.runtime().costModel().transformDelta(
                    static_cast<std::size_t>(
                        static_cast<double>(blob.size()) *
                        config_.virtualFactor)) *
                ckptFactor());
        }
        storage::Blob image = blob; // handle copy, not bytes
        blob = deltaTx_.apply(image);
        deltaTx_.setReference(std::move(image), ckpt_id);
        deltaDepth_ = emit_delta ? deltaDepth_ + 1 : 0;
        emitted_full = !emit_delta;
    }
    const std::size_t blob_bytes = blob.size();
    // CRC32C, computed once here and cached on the sealed buffer: the
    // partner copy, recovery verify and scrub all reuse it for free.
    // With a transform on, the checksum (and the meta sizes) cover the
    // stored envelope, so a corrupt delta fails verification before
    // any decode attempt.
    const std::uint64_t crc = blob.crc32c();
    MATCH_DEBUG("FTI checkpoint: g=%d comm=%d id=%d bytes=%zu crc=%llu",
                proc_.globalIndex(), comm_, ckpt_id, blob_bytes,
                static_cast<unsigned long long>(crc));

    // Data path: every level keeps a local copy except L4, which is
    // staged to the drain and streamed to the parallel file system in
    // the background. Differential L4 checkpoints are priced (on the
    // drain channel) by the bytes actually shipped. Every consumer —
    // local store, partner store, PFS flush — shares the one sealed
    // snapshot by refcount; no path deep-copies the payload.
    if (level <= 3)
        writeLocal(ckpt_id, blob);
    if (level == 2)
        writePartnerCopy(ckpt_id, blob);
    if (level == 4)
        enqueuePfsFlush(ckpt_id, std::move(blob)); // staged, not copied

    // Consistency protocol: gather sizes/checksums at rank 0, which
    // commits the metadata record; everyone waits for the commit.
    const int size = proc_.runtime().commSize(comm_);
    const int rank = proc_.runtime().commRank(proc_.globalIndex(), comm_);
    MetaInfo meta;
    meta.ckptId = ckpt_id;
    meta.level = level;
    meta.nprocs = size;
    // Only the root receives: copying the record on every rank would be
    // O(P) per rank, O(P^2) per checkpoint.
    const MetaRank mine{blob_bytes, crc};
    const auto *all = static_cast<const MetaRank *>(
        proc_.gather(0, &mine, sizeof(mine), comm_));
    if (rank == 0)
        meta.ranks.assign(all, all + size);

    if (level == 3) {
        // All data files must exist before the leaders encode.
        proc_.barrier(comm_);
        // Distribute sizes so every leader can pad its stripe. The
        // encode makes simmpi calls, so it needs its own copy.
        const std::uint64_t my_size = blob_bytes;
        const auto *view = static_cast<const std::uint64_t *>(
            proc_.allgather(&my_size, sizeof(my_size), comm_));
        const std::vector<std::uint64_t> sizes(view, view + size);
        encodeGroupParity(ckpt_id, sizes);
        proc_.barrier(comm_);
    }

    if (rank == 0)
        commitMeta(meta);
    int committed = 1;
    proc_.bcast(0, &committed, sizeof(committed), comm_);

    // Virtual cost of the data path (the real file I/O above happens in
    // wall time, not simulated time). A drained L4 checkpoint charges
    // the rank only the consistency protocol + burst-buffer staging;
    // the PFS streaming lands on the virtual drain channel, where it
    // overlaps compute until a quiesce point catches up with it.
    const double virt_bytes =
        static_cast<double>(blob_bytes) * config_.virtualFactor;
    if (level == 4) {
        proc_.sleepFor(
            proc_.runtime().costModel().drainStage(
                static_cast<std::size_t>(virt_bytes), size) *
            ckptFactor());
        // Stamp the flush's virtual enqueue instant: the drain channel
        // may start streaming once the blob is staged.
        drainChannel_.stamp(proc_.now());
    } else {
        proc_.sleepFor(
            proc_.runtime().costModel().checkpointWrite(
                level, static_cast<std::size_t>(virt_bytes), size) *
            ckptFactor());
    }

    if (storage::transformHasDelta(config_.transform)) {
        // A delta checkpoint's ancestors must survive until a full
        // envelope supersedes the chain: keepOnlyLatest retires the
        // whole superseded chain at each rebase instead of the single
        // previous checkpoint.
        if (emitted_full) {
            if (config_.keepOnlyLatest) {
                for (const auto &[id, lvl] : deltaChain_)
                    removeCheckpointFiles(id, lvl);
            }
            deltaChain_.clear();
        }
        deltaChain_.emplace_back(ckpt_id, level);
    } else if (config_.keepOnlyLatest) {
        cleanupOlderCheckpoints(ckpt_id);
    }
    prevCkptId_ = ckpt_id;
    prevLevel_ = level;
    lastCkptId_ = ckpt_id;
    writeSeconds_ += proc_.now() - t0;
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

std::vector<std::uint8_t>
Fti::reconstructFromGroup(const MetaInfo &meta, bool checked)
{
    const int rank = proc_.runtime().commRank(proc_.globalIndex(), comm_);
    const int gs = config_.groupSize;
    const int size = meta.nprocs;
    const int group_lo = (rank / gs) * gs;
    const int group_hi = std::min(group_lo + gs, size);
    const int k = group_hi - group_lo;
    const int m = std::min(k, config_.parityShards);
    std::size_t stripe = 0;
    for (int i = 0; i < k; ++i)
        stripe =
            std::max<std::size_t>(stripe, meta.ranks[group_lo + i].bytes);

    std::vector<std::optional<std::vector<std::uint8_t>>> shards(
        static_cast<std::size_t>(k + m));
    for (int i = 0; i < k; ++i) {
        std::vector<std::uint8_t> buf;
        if (readRetry(ckptFile(config_, group_lo + i, meta.ckptId), buf,
                      /*checked=*/true)) {
            // SDC mode screens each data shard: a corrupt member would
            // poison the whole stripe's reconstruction, while treating
            // it as *missing* lets the parity rebuild it.
            if (checked &&
                (buf.size() != meta.ranks[group_lo + i].bytes ||
                 util::crc32c(buf.data(), buf.size()) !=
                     meta.ranks[group_lo + i].crc))
                continue;
            buf.resize(stripe, 0);
            shards[i] = std::move(buf);
        }
    }
    for (int p = 0; p < m; ++p) {
        std::vector<std::uint8_t> buf;
        // Like a data shard, a parity shard unreadable past the retry
        // budget is simply a lost shard — the codec reconstructs
        // around it while enough members survive.
        if (readRetry(parityFile(config_, group_lo + p, meta.ckptId),
                      buf, /*checked=*/true)) {
            if (buf.size() == stripe)
                shards[k + p] = std::move(buf);
        }
    }
    const RsCodec codec(k, m);
    auto data = codec.reconstruct(shards);
    if (data.empty()) {
        if (checked)
            return {};
        util::fatal("L3 recovery failed: too many lost shards in group "
                    "[%d, %d)", group_lo, group_hi);
    }
    auto blob = std::move(data[rank - group_lo]);
    blob.resize(meta.ranks[rank].bytes);
    return blob;
}

storage::Blob
Fti::readPfsBlob(const MetaInfo &meta, bool checked)
{
    const int rank = proc_.runtime().commRank(proc_.globalIndex(), comm_);
    if (storage::Blob whole =
            fetchRetry(pfsFile(config_, rank, meta.ckptId), checked)) {
        if (storage::transformHasCompress(config_.transform)) {
            // The PFS object is the compressed envelope; the meta
            // checksum covers the decompressed (staged) bytes, so
            // decode first, then let the caller verify. Decompression
            // is a real recovery-path cost, priced inline.
            const std::uint64_t raw = storage::compressRawBytes(whole);
            storage::Blob decoded =
                storage::compressDecode(whole, checked);
            if (decoded)
                proc_.sleepFor(
                    proc_.runtime().costModel().transformDecompress(
                        static_cast<std::size_t>(
                            static_cast<double>(raw) *
                            config_.virtualFactor)));
            return decoded;
        }
        return whole;
    }
    if (config_.transform != storage::TransformKind::None) {
        // Transform-enabled flushes always write the whole object;
        // its absence means the checkpoint is lost, not differential.
        if (checked)
            return storage::Blob();
        util::fatal("L4 recovery: missing PFS object for rank %d",
                    rank);
    }
    // Differential path: base + the delta for this checkpoint. The
    // base and delta are immutable fetched views; the restored image
    // is materialized once into a fresh buffer.
    const storage::Blob base =
        fetchRetry(pfsBaseFile(config_, rank), checked);
    if (!base) {
        if (checked)
            return storage::Blob();
        util::fatal("L4 recovery: no base image for rank %d", rank);
    }
    const storage::Blob payload =
        fetchRetry(pfsDeltaFile(config_, rank, meta.ckptId), checked);
    if (!payload)
        return base; // checkpoint was the base itself
    MATCH_ASSERT(payload.size() >= sizeof(std::uint64_t),
                 "truncated delta file");
    std::uint64_t full;
    std::memcpy(&full, payload.data(), sizeof(full));
    std::vector<std::uint8_t> out(full, 0);
    const std::size_t keep =
        std::min(static_cast<std::size_t>(full), base.size());
    std::memcpy(out.data(), base.data(), keep);
    storage::noteBlobCopy(keep);
    std::size_t off = sizeof(full);
    while (off < payload.size()) {
        std::uint64_t at, len;
        MATCH_ASSERT(off + 2 * sizeof(std::uint64_t) <= payload.size(),
                     "truncated delta record");
        std::memcpy(&at, payload.data() + off, sizeof(at));
        std::memcpy(&len, payload.data() + off + sizeof(at), sizeof(len));
        off += 2 * sizeof(std::uint64_t);
        MATCH_ASSERT(off + len <= payload.size() && at + len <= out.size(),
                     "delta record out of range");
        std::memcpy(out.data() + at, payload.data() + off, len);
        off += len;
    }
    return storage::Blob::fromVector(std::move(out));
}

storage::Blob
Fti::readBlobForRecovery(const MetaInfo &meta)
{
    const int rank = proc_.runtime().commRank(proc_.globalIndex(), comm_);
    const std::uint64_t want_crc = meta.ranks[rank].crc;
    const std::size_t want_bytes = meta.ranks[rank].bytes;
    const auto intact = [&](const storage::Blob &blob) {
        return blob && blob.size() == want_bytes &&
               blob.crc32c() == want_crc;
    };

    if (meta.level <= 3) {
        // checked=true on the escalation reads: an object unreadable
        // past the retry budget is treated exactly like a lost one —
        // the level's redundancy absorbs it before anything fatals.
        if (storage::Blob blob = fetchRetry(
                ckptFile(config_, rank, meta.ckptId), /*checked=*/true);
            intact(blob)) {
            return blob;
        }
        // Local copy lost or corrupt: escalate by level.
        if (meta.level == 2) {
            const int holder = (rank + 1) % meta.nprocs;
            if (storage::Blob blob = fetchRetry(
                    partnerFile(config_, holder, rank, meta.ckptId),
                    /*checked=*/true);
                intact(blob)) {
                return blob;
            }
            util::fatal("L2 recovery failed for rank %d: local and "
                        "partner copies both lost", rank);
        }
        if (meta.level == 3) {
            auto data = reconstructFromGroup(meta);
            if (util::crc32c(data.data(), data.size()) == want_crc)
                return storage::Blob::fromVector(std::move(data));
            util::fatal("L3 recovery failed checksum for rank %d", rank);
        }
        util::fatal("L1 recovery failed for rank %d: checkpoint lost "
                    "(L1 cannot survive node-storage loss)", rank);
    }
    const storage::Blob blob = readPfsBlob(meta);
    if (intact(blob))
        return blob;
    util::fatal("L4 recovery failed checksum for rank %d", rank);
}

storage::Blob
Fti::tryReadBlobChecked(const MetaInfo &meta)
{
    const int rank = proc_.runtime().commRank(proc_.globalIndex(), comm_);
    const std::uint64_t want_crc = meta.ranks[rank].crc;
    const std::size_t want_bytes = meta.ranks[rank].bytes;
    const auto intact = [&](const storage::Blob &blob) {
        return blob && blob.size() == want_bytes &&
               blob.crc32c() == want_crc;
    };

    if (meta.level <= 3) {
        if (storage::Blob blob = fetchRetry(
                ckptFile(config_, rank, meta.ckptId), /*checked=*/true);
            intact(blob)) {
            return blob;
        }
        if (meta.level == 2) {
            const int holder = (rank + 1) % meta.nprocs;
            if (storage::Blob blob = fetchRetry(
                    partnerFile(config_, holder, rank, meta.ckptId),
                    /*checked=*/true);
                intact(blob)) {
                return blob;
            }
        }
        if (meta.level == 3) {
            auto data = reconstructFromGroup(meta, /*checked=*/true);
            if (!data.empty() &&
                util::crc32c(data.data(), data.size()) == want_crc)
                return storage::Blob::fromVector(std::move(data));
        }
        return storage::Blob();
    }
    const storage::Blob blob = readPfsBlob(meta, /*checked=*/true);
    return intact(blob) ? blob : storage::Blob();
}

storage::Blob
Fti::loadImage(const MetaInfo &meta, bool checked, int depth)
{
    storage::Blob stored =
        checked ? tryReadBlobChecked(meta) : readBlobForRecovery(meta);
    if (!storage::transformHasDelta(config_.transform) || !stored)
        return stored;
    const storage::DeltaInfo info = storage::deltaInspect(stored);
    if (!info.valid) {
        if (checked)
            return storage::Blob();
        util::fatal("corrupt delta envelope in checkpoint %d",
                    meta.ckptId);
    }
    if (info.isFull)
        return deltaTx_.decode(stored, storage::Blob(), checked);
    // Base ids decrease strictly along a well-formed chain; the depth
    // bound stops a corrupt-but-verifiable cycle from looping.
    if (depth >= 64 || info.baseCkptId <= 0 ||
        info.baseCkptId >= meta.ckptId) {
        if (checked)
            return storage::Blob();
        util::fatal("delta chain of checkpoint %d is malformed",
                    meta.ckptId);
    }
    MetaInfo base_meta;
    if (!loadMeta(info.baseCkptId, base_meta)) {
        if (checked)
            return storage::Blob();
        util::fatal("delta base checkpoint %d lost its metadata",
                    info.baseCkptId);
    }
    // Each chain link is an additional stored object the rank really
    // reads back; price it like the recovery read it is.
    const int rank = proc_.runtime().commRank(proc_.globalIndex(), comm_);
    proc_.sleepFor(proc_.runtime().costModel().checkpointRead(
        base_meta.level,
        static_cast<std::size_t>(
            static_cast<double>(base_meta.ranks[rank].bytes) *
            config_.virtualFactor),
        proc_.runtime().commSize(comm_)));
    storage::Blob base = loadImage(base_meta, checked, depth + 1);
    if (!base)
        return storage::Blob();
    return deltaTx_.decode(stored, base, checked);
}

void
Fti::recover()
{
    MATCH_ASSERT(!finalized_, "recover after finalize");
    if (config_.sdcChecks) {
        recoverChecked();
        return;
    }
    const std::vector<int> ladder = committedCkptsNewestFirst();
    if (ladder.empty())
        util::fatal("FTI_Recover called with no committed checkpoint");

    CategoryScope scope(proc_, TimeCategory::CkptRead);
    const double t0 = proc_.now();
    const int size = proc_.runtime().commSize(comm_);
    const int rank = proc_.runtime().commRank(proc_.globalIndex(), comm_);

    // Newest-first ladder: a rung whose storage tier faulted past the
    // retry budget (StorageError) falls back to the next older
    // committed checkpoint instead of aborting. Strike counters are
    // per (actor, path), so every rank charges its OWN budget against
    // every object — including the shared rank-less meta files — and
    // identical ladders make identical decisions on every rank without
    // communication; one rank's retries can never heal a window for a
    // later rank and let it restore a different id. A *lost* object
    // (not a faulting tier) still fatals inside loadImage, exactly as
    // before this engine existed.
    bool restored = false;
    for (const int id : ladder) {
        // Re-key this rank's fault epoch to the rung before its meta
        // read: the windows of the checkpoint being restored gate all
        // of the rung's I/O, the meta file included.
        faultEpoch_ = id;
        if (faults_)
            faults_->setEpoch(id);
        MetaInfo meta;
        if (!loadMeta(id, meta))
            continue; // same per-actor outcome on every rank
        // An L4 restore reads objects the drain may still be
        // streaming: wait out the channel first.
        if (meta.level == 4)
            drainBarrier();
        storage::Blob blob;
        try {
            blob = loadImage(meta, /*checked=*/false);
        } catch (const storage::StorageError &err) {
            if (rank == 0)
                util::warn("FTI recover: checkpoint %d unreadable "
                           "(%s), falling back to an older one", id,
                           err.what());
            continue;
        }
        MATCH_DEBUG("FTI recover: g=%d comm=%d rank=%d ckpt=%d "
                    "bytes=%zu", proc_.globalIndex(), comm_, rank, id,
                    blob.size());
        deserializeRegions(blob.data(), blob.size());

        const double virt_bytes =
            static_cast<double>(blob.size()) * config_.virtualFactor;
        proc_.sleepFor(proc_.runtime().costModel().checkpointRead(
            meta.level, static_cast<std::size_t>(virt_bytes), size));

        if (storage::transformHasDelta(config_.transform)) {
            // The restored image becomes the reference the next delta
            // is encoded against; the restored checkpoint (and,
            // transitively, its chain) must outlive whatever this
            // incarnation writes.
            deltaTx_.setReference(blob, id);
            deltaDepth_ = 0;
            deltaChain_.clear();
            deltaChain_.emplace_back(id, meta.level);
        }
        lastCkptId_ = id;
        restored = true;
        break;
    }
    if (!restored)
        util::fatal("FTI_Recover: every committed checkpoint is "
                    "unreadable (storage tiers exhausted)");
    recoveryCkptId_ = 0; // the paper's loop recovers exactly once
    readSeconds_ += proc_.now() - t0;
}

void
Fti::recoverChecked()
{
    CategoryScope scope(proc_, TimeCategory::CkptRead);
    const double t0 = proc_.now();
    const int size = proc_.runtime().commSize(comm_);
    const int rank = proc_.runtime().commRank(proc_.globalIndex(), comm_);

    // Walk the committed checkpoints newest-first. Every rank derives
    // the same ladder from the shared meta directory and votes on each
    // rung with an allreduce-MIN, so the collective sequence is
    // identical across the communicator: a checkpoint any rank cannot
    // verify is rejected by all, and everyone moves to the next rung
    // together. The verify pass itself is priced per attempt.
    bool restored = false;
    int restored_id = 0;
    for (const int id : committedCkptsNewestFirst()) {
        faultEpoch_ = id;
        if (faults_)
            faults_->setEpoch(id);
        MetaInfo meta;
        if (!loadMeta(id, meta))
            continue; // same per-actor outcome on every rank
        if (meta.level == 4)
            drainBarrier();
        const storage::Blob blob = loadImage(meta, /*checked=*/true);
        const double virt_bytes =
            static_cast<double>(meta.ranks[rank].bytes) *
            config_.virtualFactor;
        proc_.sleepFor(proc_.runtime().costModel().scrubVerify(
            static_cast<std::size_t>(virt_bytes)));
        const std::int64_t all_ok = proc_.allreduceInt(
            blob ? 1 : 0, simmpi::ReduceOp::Min, comm_);
        if (all_ok == 0) {
            if (rank == 0)
                util::warn("FTI recover: checkpoint %d failed SDC "
                           "verification, falling back to an older one",
                           id);
            continue;
        }
        deserializeRegions(blob.data(), blob.size());
        proc_.sleepFor(proc_.runtime().costModel().checkpointRead(
            meta.level, static_cast<std::size_t>(virt_bytes), size));
        if (storage::transformHasDelta(config_.transform)) {
            deltaTx_.setReference(blob, id);
            deltaDepth_ = 0;
            deltaChain_.clear();
            deltaChain_.emplace_back(id, meta.level);
        }
        restored = true;
        restored_id = id;
        break;
    }
    if (!restored && storage::transformHasDelta(config_.transform)) {
        // Fresh start: the next checkpoint must be a self-contained
        // full envelope.
        deltaTx_.clearReference();
        deltaDepth_ = 0;
        deltaChain_.clear();
    }
    if (!restored && rank == 0) {
        // Never a silent wrong result: with every committed checkpoint
        // unverifiable, declare a fresh start — the protected regions
        // keep their initial values and the loop re-executes from
        // iteration 0.
        util::warn("FTI recover: no committed checkpoint passed SDC "
                   "verification; restarting from initial state");
    }
    MATCH_DEBUG("FTI recoverChecked: g=%d rank=%d ckpt=%d",
                proc_.globalIndex(), rank, restored_id);
    if (restored)
        lastCkptId_ = restored_id;
    recoveryCkptId_ = 0;
    readSeconds_ += proc_.now() - t0;
}

void
Fti::scrub()
{
    MATCH_ASSERT(config_.sdcChecks, "scrub requires sdc checks enabled");
    MATCH_ASSERT(!finalized_, "scrub after finalize");
    const int newest = newestCommittedCkpt();
    if (newest == 0)
        return;
    MetaInfo meta;
    if (!loadMeta(newest, meta) || meta.level > 3)
        return; // L4 objects live behind the drain; nothing local
    CategoryScope scope(proc_, TimeCategory::CkptWrite);
    const double t0 = proc_.now();
    faultEpoch_ = newest;
    if (faults_)
        faults_->setEpoch(newest);
    const int rank = proc_.runtime().commRank(proc_.globalIndex(), comm_);
    const std::string path = ckptFile(config_, rank, newest);
    // Retry exhaustion reads as "missing": the scrub just finds
    // nothing to verify and the next recovery handles the fallout.
    const storage::Blob blob = fetchRetry(path, /*checked=*/true);
    const double virt_bytes =
        static_cast<double>(meta.ranks[rank].bytes) *
        config_.virtualFactor;
    proc_.sleepFor(proc_.runtime().costModel().scrubVerify(
        static_cast<std::size_t>(virt_bytes)));
    const bool ok = blob && blob.size() == meta.ranks[rank].bytes &&
                    blob.crc32c() == meta.ranks[rank].crc;
    if (!ok && blob) {
        // Deleting the rotten object turns a silent-corruption hazard
        // into an ordinary lost-object recovery: the next recover()
        // falls back to this level's redundancy deterministically.
        store_.remove(path);
        MATCH_DEBUG("FTI scrub: rank %d dropped corrupt ckpt %d", rank,
                    newest);
    }
    writeSeconds_ += proc_.now() - t0;
}

void
Fti::corruptAtRest(const FtiConfig &config, int rank)
{
    storage::Backend &store = storage::resolve(config.backend);
    // Newest committed checkpoint, by direct meta scan: this runs on
    // the simulation driver (no Proc), so it cannot ask an instance.
    int newest = 0;
    int level = 0;
    for (const std::string &name :
         store.listDir(execDir(config) + "/meta")) {
        if (name.rfind("ckpt", 0) != 0)
            continue;
        const int id = std::atoi(name.c_str() + 4);
        if (id <= newest)
            continue;
        // Best-effort, like the flip sections below: a read window
        // open at injection time just hides this id from the scan —
        // it must never abort the simulation driver.
        storage::Blob record;
        try {
            record = storage::fetch(store, metaFile(config, id));
        } catch (const storage::StorageError &) {
        }
        MetaInfo meta;
        if (!decodeMeta(record, id, meta))
            continue;
        newest = id;
        level = meta.level;
    }
    if (newest == 0)
        return;

    if (level <= 3) {
        std::vector<std::uint8_t> bytes;
        const std::string path = ckptFile(config, rank, newest);
        // Corruption injection is best-effort: a storage-fault window
        // open at injection time just means the flip found nothing to
        // rot.
        try {
            if (store.read(path, bytes) && !bytes.empty()) {
                bytes[bytes.size() / 2] ^= 0x5a;
                store.writeAtomic(path, bytes.data(), bytes.size());
            }
        } catch (const storage::StorageError &) {
        }
        return;
    }
    // L4: corrupt the flushed PFS objects.
    std::vector<std::uint8_t> bytes;
    try {
        // Whole-file PFS copy (present when this checkpoint is the
        // differential base).
        const std::string whole = pfsFile(config, rank, newest);
        if (store.read(whole, bytes) && !bytes.empty()) {
            bytes[bytes.size() / 2] ^= 0x5a;
            store.writeAtomic(whole, bytes.data(), bytes.size());
        }
        // Base image.
        const std::string base = pfsBaseFile(config, rank);
        if (store.read(base, bytes) && !bytes.empty()) {
            bytes[bytes.size() / 2] ^= 0x5a;
            store.writeAtomic(base, bytes.data(), bytes.size());
        }
        // Delta: flip a byte inside the first record's payload (never
        // the framing, which recovery parses before verifying), so the
        // corruption survives into the restored image even when the
        // delta overwrites the flipped base block.
        const std::string delta = pfsDeltaFile(config, rank, newest);
        if (store.read(delta, bytes) &&
            bytes.size() > 3 * sizeof(std::uint64_t)) {
            bytes[3 * sizeof(std::uint64_t)] ^= 0x5a;
            store.writeAtomic(delta, bytes.data(), bytes.size());
        }
    } catch (const storage::StorageError &) {
        // Best-effort (see the L1-3 path): an open fault window foils
        // the injection, never the simulation driver.
    }
}

void
Fti::finalize()
{
    if (!finalized_) {
        // scr_postrun-style drain: the job cannot release its nodes
        // while the burst buffer still holds undrained checkpoints.
        // The residual wait is checkpoint-write time the overlap could
        // not hide.
        CategoryScope scope(proc_, TimeCategory::CkptWrite);
        const double t0 = proc_.now();
        drainBarrier();
        writeSeconds_ += proc_.now() - t0;
    }
    finalized_ = true;
}

} // namespace match::fti
