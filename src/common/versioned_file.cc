#include "common/versioned_file.hh"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <unistd.h>

#include "common/crc32.hh"
#include "common/serial.hh"

namespace tmcc
{

namespace
{

/** Per-process temp-file sequence so concurrent threads stay unique. */
std::atomic<std::uint64_t> tmpSeq{0};

std::string
uniqueTmpPath(const std::string &path)
{
    return path + ".tmp." + std::to_string(::getpid()) + "." +
           std::to_string(tmpSeq.fetch_add(1));
}

/** Write header + payload to a unique temp file, synced to storage.
 * Returns the temp path, or an error (temp file removed). */
StatusOr<std::string>
writeSyncedTmp(const std::string &path, const char magic[8],
               std::uint32_t version,
               const std::vector<std::uint8_t> &payload)
{
    ByteWriter header;
    header.raw(magic, 8);
    header.u32(version);
    header.u32(crc32(payload.data(), payload.size()));
    header.u64(payload.size());

    const std::string tmp = uniqueTmpPath(path);
    FILE *f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr)
        return Status::internal("cannot create " + tmp);
    const bool wrote =
        std::fwrite(header.buffer().data(), 1, header.buffer().size(),
                    f) == header.buffer().size() &&
        (payload.empty() ||
         std::fwrite(payload.data(), 1, payload.size(), f) ==
             payload.size());
    // Flush user-space buffers and push the bytes to storage before the
    // rename/link publishes them: a reader that sees the new name must
    // see the new content even if this process is killed right after.
    const bool synced =
        wrote && std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
    const bool closed = std::fclose(f) == 0;
    if (!wrote || !synced || !closed) {
        std::remove(tmp.c_str());
        return Status::internal("short write to " + tmp);
    }
    return tmp;
}

} // namespace

Status
writeVersionedFile(const std::string &path, const char magic[8],
                   std::uint32_t version,
                   const std::vector<std::uint8_t> &payload)
{
    TMCC_ASSIGN_OR_RETURN(const std::string tmp,
                          writeSyncedTmp(path, magic, version, payload));
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return Status::internal("cannot rename " + tmp);
    }
    return Status::okStatus();
}

Status
writeVersionedFileExclusive(const std::string &path, const char magic[8],
                            std::uint32_t version,
                            const std::vector<std::uint8_t> &payload)
{
    TMCC_ASSIGN_OR_RETURN(const std::string tmp,
                          writeSyncedTmp(path, magic, version, payload));
    // link(2) is atomic create-if-absent: it never replaces an existing
    // destination, and unlike open(O_EXCL) it is dependable over NFS.
    const int rc = ::link(tmp.c_str(), path.c_str());
    const int link_errno = errno;
    std::remove(tmp.c_str());
    if (rc == 0)
        return Status::okStatus();
    if (link_errno == EEXIST)
        return Status::invalidArgument(path + " already exists");
    return Status::internal("cannot link " + tmp + " to " + path + ": " +
                            std::strerror(link_errno));
}

StatusOr<std::vector<std::uint8_t>>
readVersionedFile(const std::string &path, const char magic[8],
                  std::uint32_t version)
{
    FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return Status::internal("cannot open " + path);
    std::vector<std::uint8_t> data;
    std::uint8_t buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        data.insert(data.end(), buf, buf + n);
    std::fclose(f);

    if (data.size() < versionedFileHeaderBytes)
        return Status::truncated(path + ": shorter than the header");
    ByteReader header(data.data(), versionedFileHeaderBytes);
    char got_magic[8];
    header.raw(got_magic, sizeof(got_magic));
    if (std::memcmp(got_magic, magic, 8) != 0)
        return Status::corruption(path + ": bad magic");
    const std::uint32_t got_version = header.u32();
    if (got_version != version)
        return Status::corruption(
            path + ": format version mismatch (file v" +
            std::to_string(got_version) + ", expected v" +
            std::to_string(version) + ")");
    const std::uint32_t want_crc = header.u32();
    const std::uint64_t payload_size = header.u64();
    if (payload_size != data.size() - versionedFileHeaderBytes)
        return Status::truncated(path + ": payload size mismatch");
    const std::uint32_t got_crc =
        crc32(data.data() + versionedFileHeaderBytes, payload_size);
    if (got_crc != want_crc)
        return Status::checksumMismatch(path + ": payload CRC mismatch");
    data.erase(data.begin(),
               data.begin() +
                   static_cast<std::ptrdiff_t>(versionedFileHeaderBytes));
    return data;
}

} // namespace tmcc
