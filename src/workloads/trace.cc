#include "workloads/trace.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/log.hh"

namespace tmcc
{

namespace
{

constexpr char traceMagic[8] = {'T', 'M', 'C', 'C',
                                'T', 'R', 'C', '1'};

void
putU16(std::FILE *f, std::uint16_t v)
{
    std::fwrite(&v, sizeof(v), 1, f);
}

void
putU32(std::FILE *f, std::uint32_t v)
{
    std::fwrite(&v, sizeof(v), 1, f);
}

void
putU64(std::FILE *f, std::uint64_t v)
{
    std::fwrite(&v, sizeof(v), 1, f);
}

void
putF64(std::FILE *f, double v)
{
    std::fwrite(&v, sizeof(v), 1, f);
}

template <typename T>
T
get(std::FILE *f)
{
    T v{};
    fatalIf(std::fread(&v, sizeof(v), 1, f) != 1,
            "trace file truncated");
    return v;
}

} // namespace

void
TraceRecorder::record(Workload &source, const std::string &path,
                      std::uint64_t count)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    fatalIf(f == nullptr, "cannot open trace file for writing: " + path);

    std::fwrite(traceMagic, sizeof(traceMagic), 1, f);
    const auto &regions = source.regions();
    putU32(f, static_cast<std::uint32_t>(regions.size()));
    for (const auto &r : regions) {
        putU64(f, r.base);
        putU64(f, r.bytes);
        putU32(f, static_cast<std::uint32_t>(r.content.family));
        putF64(f, r.content.structure);
        putF64(f, r.content.repetition);
        putU16(f, static_cast<std::uint16_t>(r.name.size()));
        std::fwrite(r.name.data(), 1, r.name.size(), f);
    }
    putU64(f, count);
    for (std::uint64_t i = 0; i < count; ++i) {
        const MemAccess a = source.next();
        putU64(f, a.vaddr);
        const std::uint8_t w = a.isWrite ? 1 : 0;
        std::fwrite(&w, 1, 1, f);
        const std::uint8_t think = static_cast<std::uint8_t>(
            a.thinkCycles > 255 ? 255 : a.thinkCycles);
        std::fwrite(&think, 1, 1, f);
    }
    std::fclose(f);
}

TraceWorkload::TraceWorkload(const std::string &path)
    : name_("trace:" + path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    fatalIf(f == nullptr, "cannot open trace file: " + path);

    char magic[8];
    fatalIf(std::fread(magic, sizeof(magic), 1, f) != 1 ||
                std::memcmp(magic, traceMagic, sizeof(magic)) != 0,
            "not a TMCC trace file: " + path);

    const auto region_count = get<std::uint32_t>(f);
    fatalIf(region_count == 0 || region_count > 1024,
            "trace file has an implausible region count");
    for (std::uint32_t i = 0; i < region_count; ++i) {
        WlRegion r;
        r.base = get<std::uint64_t>(f);
        r.bytes = get<std::uint64_t>(f);
        r.content.family =
            static_cast<ContentFamily>(get<std::uint32_t>(f));
        r.content.structure = get<double>(f);
        r.content.repetition = get<double>(f);
        const auto name_len = get<std::uint16_t>(f);
        r.name.resize(name_len);
        fatalIf(name_len > 0 &&
                    std::fread(r.name.data(), 1, name_len, f) !=
                        name_len,
                "trace file truncated in region name");
        fatalIf(r.base % pageSize != 0 || r.bytes % pageSize != 0,
                "trace region '" + r.name + "' is not 4 KB-aligned");
        regions_.push_back(std::move(r));
    }
    // The System maps every region page exactly once, so regions
    // must be disjoint.
    std::vector<const WlRegion *> by_base;
    for (const WlRegion &r : regions_)
        by_base.push_back(&r);
    std::sort(by_base.begin(), by_base.end(),
              [](const WlRegion *a, const WlRegion *b) {
                  return a->base < b->base;
              });
    for (std::size_t i = 1; i < by_base.size(); ++i)
        fatalIf(by_base[i]->base - by_base[i - 1]->base <
                    by_base[i - 1]->bytes,
                "trace regions '" + by_base[i - 1]->name + "' and '" +
                    by_base[i]->name + "' overlap");

    const auto count = get<std::uint64_t>(f);
    fatalIf(count == 0, "trace file holds no accesses");
    accesses_.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        MemAccess a;
        a.vaddr = get<std::uint64_t>(f);
        a.isWrite = get<std::uint8_t>(f) != 0;
        a.thinkCycles = get<std::uint8_t>(f);
        accesses_.push_back(a);
    }
    std::fclose(f);
}

MemAccess
TraceWorkload::next()
{
    const MemAccess a = accesses_[cursor_];
    cursor_ = (cursor_ + 1) % accesses_.size();
    return a;
}

} // namespace tmcc
