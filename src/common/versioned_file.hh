/**
 * @file
 * Shared container format for every on-disk artifact the simulator
 * persists (sweep shard specs/results, the sweep manifest, queue
 * claims and progress): an 8-byte magic, a little-endian format version, a CRC-32
 * of the payload, the payload length, then the payload.
 *
 * Writes are atomic against concurrent readers *and* concurrent
 * writers: the payload goes to a uniquely named temp file (pid +
 * sequence suffix, so two processes publishing the same path never
 * interleave writes) which is fsync'ed and then rename(2)'d over the
 * destination.  A reader observes either the old complete file or the
 * new complete file, never a torn one; a file left behind by a killed
 * writer is either a stale `.tmp.*` (ignored — readers only open the
 * final path) or a complete previous version.
 *
 * Reads reject malformed input via Status, never fatal(): bad magic and
 * version mismatches are Corruption, short files are Truncated, payload
 * damage is ChecksumMismatch.  Callers decide what a rejected file
 * means, e.g. "re-run the shard" for a sweep result.
 */

#ifndef TMCC_COMMON_VERSIONED_FILE_HH
#define TMCC_COMMON_VERSIONED_FILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hh"

namespace tmcc
{

/** Bytes before the payload: magic + version + CRC + payload length. */
constexpr std::size_t versionedFileHeaderBytes = 8 + 4 + 4 + 8;

/**
 * Atomically publish `payload` to `path` under the given 8-byte magic
 * and format version (unique temp file + fsync + rename).
 */
Status writeVersionedFile(const std::string &path, const char magic[8],
                          std::uint32_t version,
                          const std::vector<std::uint8_t> &payload);

/**
 * Atomically publish `payload` to `path` ONLY if `path` does not exist
 * yet (create-if-absent): the payload is written to a unique temp file
 * and then link(2)'ed to the destination, which fails with EEXIST when
 * another writer got there first — even across hosts on a shared
 * filesystem, where O_EXCL alone is unreliable but link() is the
 * canonical lock primitive.  Returns InvalidArgument("already exists")
 * when the destination is present; the loser's temp file is removed.
 *
 * This is the claim primitive of the sweep work queue
 * (docs/SWEEP.md): N workers race to create `shard-NNN.claim` and
 * exactly one wins.
 */
Status writeVersionedFileExclusive(
    const std::string &path, const char magic[8], std::uint32_t version,
    const std::vector<std::uint8_t> &payload);

/** Read and validate a versioned file; returns the payload bytes. */
StatusOr<std::vector<std::uint8_t>>
readVersionedFile(const std::string &path, const char magic[8],
                  std::uint32_t version);

} // namespace tmcc

#endif // TMCC_COMMON_VERSIONED_FILE_HH
