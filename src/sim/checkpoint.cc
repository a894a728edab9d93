#include "sim/checkpoint.hh"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "common/log.hh"
#include "common/versioned_file.hh"

namespace tmcc
{

namespace
{

// "TMCCCKPT": setup-checkpoint container magic.
constexpr char fileMagic[8] = {'T', 'M', 'C', 'C', 'C', 'K', 'P', 'T'};

/** FNV-1a, for stable checkpoint file names (key verified inside). */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

void
serializePhysMem(ByteWriter &w, const PhysMemState &st)
{
    w.u64(st.totalPages);
    w.u64(st.nextFrame);
    w.u64(st.freeList.size());
    for (Ppn p : st.freeList)
        w.u64(p);
    w.u64(st.ptOrder.size());
    for (Ppn p : st.ptOrder)
        w.u64(p);
    for (const PtPage &page : st.ptPages)
        w.raw(page.data(), sizeof(PtPage));
    w.u64(st.allocated);
    w.u64(st.freed);
}

Status
deserializePhysMem(ByteReader &r, PhysMemState &st)
{
    st.totalPages = r.u64();
    st.nextFrame = r.u64();
    const std::uint64_t free_count = r.count(8);
    st.freeList.clear();
    st.freeList.reserve(free_count);
    for (std::uint64_t i = 0; i < free_count && r.ok(); ++i)
        st.freeList.push_back(r.u64());
    const std::uint64_t pt_count = r.count(8 + sizeof(PtPage));
    st.ptOrder.clear();
    st.ptOrder.reserve(pt_count);
    for (std::uint64_t i = 0; i < pt_count && r.ok(); ++i)
        st.ptOrder.push_back(r.u64());
    st.ptPages.assign(r.ok() ? pt_count : 0, PtPage{});
    for (PtPage &page : st.ptPages)
        r.raw(page.data(), sizeof(PtPage));
    st.allocated = r.u64();
    st.freed = r.u64();
    if (!r.ok())
        return Status::truncated("PhysMemState payload too short");
    for (Ppn p : st.ptOrder)
        if (p >= st.totalPages)
            return Status::corruption("PT page beyond totalPages");
    return Status::okStatus();
}

void
serializePageTable(ByteWriter &w, const PageTableState &st)
{
    w.u64(st.root);
    w.u64(st.mapped);
    w.u64(st.unmapped);
    w.u64(st.tablesAllocated);
}

void
deserializePageTable(ByteReader &r, PageTableState &st)
{
    st.root = r.u64();
    st.mapped = r.u64();
    st.unmapped = r.u64();
    st.tablesAllocated = r.u64();
}

void
serializeProfiles(ByteWriter &w, const ProfileLibraryState &st)
{
    w.u64(st.mixes.size());
    for (const auto &m : st.mixes) {
        w.u64(m.profiles.size());
        for (const PageProfile &p : m.profiles) {
            w.u32(p.blockBytes);
            w.u32(p.deflateBytes);
            w.u32(p.rfcBytes);
            w.u32(p.lzTokens);
            w.u8(p.huffmanUsed ? 1 : 0);
            w.f64(p.overflowP);
        }
        for (double weight : m.weights)
            w.f64(weight);
        for (std::uint32_t bytes : m.deflateNoSkipBytes)
            w.u32(bytes);
    }
    w.u64(st.assigns.size());
    for (const auto &[ppn, assign] : st.assigns) {
        w.u64(ppn);
        w.u32(assign.first);
        w.u32(assign.second);
    }
}

Status
deserializeProfiles(ByteReader &r, ProfileLibraryState &st)
{
    const std::uint64_t mix_count = r.count(8);
    st.mixes.clear();
    for (std::uint64_t m = 0; m < mix_count && r.ok(); ++m) {
        ProfileLibraryState::Mix mix;
        const std::uint64_t parts = r.count(25 + 8 + 4);
        mix.profiles.reserve(parts);
        for (std::uint64_t i = 0; i < parts && r.ok(); ++i) {
            PageProfile p;
            p.blockBytes = r.u32();
            p.deflateBytes = r.u32();
            p.rfcBytes = r.u32();
            p.lzTokens = r.u32();
            p.huffmanUsed = r.u8() != 0;
            p.overflowP = r.f64();
            mix.profiles.push_back(p);
        }
        mix.weights.reserve(parts);
        for (std::uint64_t i = 0; i < parts && r.ok(); ++i)
            mix.weights.push_back(r.f64());
        mix.deflateNoSkipBytes.reserve(parts);
        for (std::uint64_t i = 0; i < parts && r.ok(); ++i)
            mix.deflateNoSkipBytes.push_back(r.u32());
        st.mixes.push_back(std::move(mix));
    }
    const std::uint64_t assign_count = r.count(16);
    st.assigns.clear();
    st.assigns.reserve(assign_count);
    for (std::uint64_t i = 0; i < assign_count && r.ok(); ++i) {
        const Ppn ppn = r.u64();
        const unsigned mix = r.u32();
        const unsigned part = r.u32();
        st.assigns.emplace_back(ppn, std::make_pair(mix, part));
    }
    if (!r.ok())
        return Status::truncated("ProfileLibraryState too short");
    for (const auto &[ppn, assign] : st.assigns)
        if (assign.first >= st.mixes.size() ||
            assign.second >= st.mixes[assign.first].profiles.size())
            return Status::corruption("profile assignment out of range");
    return Status::okStatus();
}

void
serializeFrames(ByteWriter &w, const std::vector<Ppn> &frames)
{
    w.u64(frames.size());
    for (Ppn f : frames)
        w.u64(f);
}

Status
deserializeFrames(ByteReader &r, std::vector<Ppn> &frames,
                  const char *what)
{
    const std::uint64_t n = r.count(8);
    frames.clear();
    frames.reserve(n);
    for (std::uint64_t i = 0; i < n && r.ok(); ++i)
        frames.push_back(r.u64());
    if (!r.ok())
        return Status::truncated(std::string(what) + " too short");
    return Status::okStatus();
}

} // namespace

std::string
SetupCheckpoint::keyFor(const SimConfig &cfg)
{
    // The exact wire bytes of the fields the setup phase reads; runs
    // differing only in `Run` fields share the checkpoint.
    ByteWriter w;
    forEachField(cfg, [&](const char *, const auto &v, FieldUse use) {
        if (use == FieldUse::Setup)
            writeConfigField(w, v);
    });
    return std::string(w.buffer().begin(), w.buffer().end());
}

std::string
SetupCheckpoint::fileNameFor(const std::string &key)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "tmcc-%016llx.ckpt",
                  static_cast<unsigned long long>(fnv1a(key)));
    return buf;
}

void
SetupCheckpoint::serialize(ByteWriter &w) const
{
    w.str(key);
    w.u64(footprintBytes);
    w.u8(nested ? 1 : 0);
    serializePhysMem(w, physMem);
    if (nested)
        serializePhysMem(w, guestPhysMem);
    serializePageTable(w, pageTable);
    if (nested)
        serializePageTable(w, hostTable);
    serializeProfiles(w, profiles);
    w.u64(compressoUsage);
    w.u64(ml2CostTotal);
    w.u64(incompressiblePages);
    w.u64(compressiblePages);
    serializeFrames(w, touchedFrames);
    serializeFrames(w, regionFrames);
    w.u64(workloadStates.size());
    for (const auto &blob : workloadStates)
        w.bytes(blob.data(), blob.size());
}

Status
SetupCheckpoint::deserialize(ByteReader &r)
{
    key = r.str();
    footprintBytes = r.u64();
    nested = r.u8() != 0;
    TMCC_RETURN_IF_ERROR(deserializePhysMem(r, physMem));
    if (nested)
        TMCC_RETURN_IF_ERROR(deserializePhysMem(r, guestPhysMem));
    deserializePageTable(r, pageTable);
    if (nested)
        deserializePageTable(r, hostTable);
    TMCC_RETURN_IF_ERROR(deserializeProfiles(r, profiles));
    compressoUsage = r.u64();
    ml2CostTotal = r.u64();
    incompressiblePages = r.u64();
    compressiblePages = r.u64();
    TMCC_RETURN_IF_ERROR(
        deserializeFrames(r, touchedFrames, "touchedFrames"));
    TMCC_RETURN_IF_ERROR(
        deserializeFrames(r, regionFrames, "regionFrames"));
    const std::uint64_t wl_count = r.count(8);
    workloadStates.clear();
    workloadStates.reserve(wl_count);
    for (std::uint64_t i = 0; i < wl_count && r.ok(); ++i)
        workloadStates.push_back(r.bytes());
    return r.finish("SetupCheckpoint");
}

Status
SetupCheckpoint::saveFile(const std::string &path) const
{
    ByteWriter payload;
    serialize(payload);
    // The shared versioned-file writer publishes via a uniquely named
    // temp file + fsync + rename, so concurrent writers from multiple
    // sweep worker processes never interleave into a torn file.
    return writeVersionedFile(path, fileMagic, formatVersion,
                              payload.buffer());
}

StatusOr<std::shared_ptr<const SetupCheckpoint>>
SetupCheckpoint::loadFile(const std::string &path)
{
    TMCC_ASSIGN_OR_RETURN(
        const std::vector<std::uint8_t> payload,
        readVersionedFile(path, fileMagic, formatVersion));
    auto ckpt = std::make_shared<SetupCheckpoint>();
    ByteReader reader(payload.data(), payload.size());
    TMCC_RETURN_IF_ERROR(ckpt->deserialize(reader));
    return std::shared_ptr<const SetupCheckpoint>(std::move(ckpt));
}

CheckpointStore &
CheckpointStore::global()
{
    static CheckpointStore store;
    return store;
}

CheckpointStore::CheckpointStore()
{
    // TMCC_CKPT: unset/empty or 1 = on, 0 = off; anything else fatal.
    if (const char *s = std::getenv("TMCC_CKPT"); s && *s) {
        char *end = nullptr;
        const long v = std::strtol(s, &end, 10);
        fatalIf(end == s || *end != '\0' || (v != 0 && v != 1),
                std::string("TMCC_CKPT must be 0 or 1, got \"") + s +
                    "\"");
        enabled_ = v == 1;
    }
    // TMCC_CKPT_DIR: when set it must be a non-empty path; the
    // directory is created on first save.
    if (const char *d = std::getenv("TMCC_CKPT_DIR")) {
        fatalIf(*d == '\0', "TMCC_CKPT_DIR must be a non-empty path");
        diskDir_ = d;
    }
}

CheckpointStore::Stats
CheckpointStore::stats() const
{
    Stats s;
    s.memoryHits = memoryHits_.load();
    s.diskHits = diskHits_.load();
    s.misses = misses_.load();
    s.rejectedFiles = rejectedFiles_.load();
    return s;
}

void
CheckpointStore::recordExternal(const Stats &s)
{
    memoryHits_.fetch_add(s.memoryHits);
    diskHits_.fetch_add(s.diskHits);
    misses_.fetch_add(s.misses);
    rejectedFiles_.fetch_add(s.rejectedFiles);
}

void
CheckpointStore::clear()
{
    std::lock_guard<std::mutex> lk(mu_);
    entries_.clear();
    memoryHits_ = 0;
    diskHits_ = 0;
    misses_ = 0;
    rejectedFiles_ = 0;
}

void
CheckpointStore::setDiskDir(std::string dir)
{
    std::lock_guard<std::mutex> lk(mu_);
    diskDir_ = std::move(dir);
}

CheckpointStore::Lease::Lease(Lease &&o) noexcept
    : store_(o.store_), key_(std::move(o.key_)),
      ckpt_(std::move(o.ckpt_)), building_(o.building_)
{
    o.store_ = nullptr;
    o.building_ = false;
}

CheckpointStore::Lease::~Lease()
{
    // A build lease destroyed without publish() (exception, fatal
    // unwinding in tests): hand the build to the next waiter.
    if (store_ != nullptr && building_)
        store_->abandon(key_);
}

std::shared_ptr<const SetupCheckpoint>
CheckpointStore::tryDisk(const std::string &key)
{
    std::string dir;
    {
        std::lock_guard<std::mutex> lk(mu_);
        dir = diskDir_;
    }
    if (dir.empty())
        return nullptr;
    const std::string path =
        dir + "/" + SetupCheckpoint::fileNameFor(key);
    std::error_code ec;
    if (!std::filesystem::exists(path, ec))
        return nullptr;
    auto loaded = SetupCheckpoint::loadFile(path);
    if (!loaded.ok()) {
        rejectedFiles_.fetch_add(1);
        warn("checkpoint rejected, building cold: " +
             loaded.status().toString());
        return nullptr;
    }
    if (loaded.value()->key != key) {
        // File-name hash collision with another key; treat as a miss.
        rejectedFiles_.fetch_add(1);
        warn("checkpoint key mismatch in " + path + ", building cold");
        return nullptr;
    }
    return std::move(loaded).value();
}

CheckpointStore::Lease
CheckpointStore::acquire(const SimConfig &cfg)
{
    if (!enabled_)
        return Lease(nullptr, "", nullptr, false);
    const std::string key = SetupCheckpoint::keyFor(cfg);

    {
        std::unique_lock<std::mutex> lk(mu_);
        for (;;) {
            Entry &e = entries_[key];
            if (e.ckpt != nullptr) {
                memoryHits_.fetch_add(1);
                return Lease(this, key, e.ckpt, false);
            }
            if (!e.building) {
                e.building = true;
                break;
            }
            cv_.wait(lk);
        }
    }

    // We hold the build claim; try the disk layer outside the lock.
    if (auto from_disk = tryDisk(key)) {
        {
            std::lock_guard<std::mutex> lk(mu_);
            entries_[key] = Entry{from_disk, false};
        }
        cv_.notify_all();
        diskHits_.fetch_add(1);
        return Lease(this, key, std::move(from_disk), false);
    }

    misses_.fetch_add(1);
    return Lease(this, key, nullptr, true);
}

void
CheckpointStore::publish(Lease &lease,
                         std::shared_ptr<const SetupCheckpoint> ckpt)
{
    panicIf(!lease.building_, "publish() without a build lease");
    panicIf(ckpt == nullptr || ckpt->key != lease.key_,
            "published checkpoint does not match its lease");
    std::string dir;
    {
        std::lock_guard<std::mutex> lk(mu_);
        entries_[lease.key_] = Entry{ckpt, false};
        dir = diskDir_;
    }
    cv_.notify_all();
    lease.building_ = false;
    lease.ckpt_ = ckpt;

    if (dir.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        warn("cannot create checkpoint dir " + dir + ": " +
             ec.message());
        return;
    }
    const std::string path =
        dir + "/" + SetupCheckpoint::fileNameFor(lease.key_);
    const Status st = ckpt->saveFile(path);
    if (!st.ok())
        warn("cannot persist checkpoint: " + st.toString());
}

void
CheckpointStore::abandon(const std::string &key)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = entries_.find(key);
        if (it != entries_.end() && it->second.ckpt == nullptr)
            it->second.building = false;
    }
    cv_.notify_all();
}

} // namespace tmcc
