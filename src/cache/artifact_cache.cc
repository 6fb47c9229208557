#include "cache/artifact_cache.hh"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <utility>
#include <vector>

#include <unistd.h>

#include "support/atomic_file.hh"
#include "support/bits.hh"
#include "support/fault.hh"
#include "support/mmap_file.hh"

namespace bpsim
{

namespace
{

// Both artifact kinds share one 64-byte header layout; the magic
// distinguishes them. headerHash covers the header bytes (with the
// hash field zeroed) plus the key string, so any flipped header or
// key byte is detected; the payload is structurally validated via
// the size fields but not checksummed (see the file comment in the
// header).
//
// Replay payload (v2): the site-id column (records x u32, starting
// on the 64-byte payload boundary), the packed gap/taken column
// (records x u32) and the site table (sites x u64 PCs, 8-byte
// aligned since both columns together span a multiple of 8 bytes).
// Profile payload (v1): records x ProfileEntry; `sites` stays 0.
struct FileHeader
{
    char magic[8];
    std::uint32_t version;
    std::uint32_t sites;
    std::uint64_t keyBytes;
    std::uint64_t records;
    std::uint64_t extra; // instructions (replay) / simulated (profile)
    std::uint64_t payloadOffset;
    std::uint64_t fileBytes;
    std::uint64_t headerHash;
};
static_assert(sizeof(FileHeader) == 64, "cache header must be 64 bytes");

constexpr char replayMagic[8] = {'B', 'P', 'R', 'C', 0, 'v', '1', 0};
constexpr char profileMagic[8] = {'B', 'P', 'P', 'F', 0, 'v', '1', 0};
constexpr std::uint32_t replayVersion = 2;
constexpr std::uint32_t profileVersion = 1;

struct ProfileEntry
{
    std::uint64_t pc;
    std::uint64_t executed;
    std::uint64_t taken;
    std::uint64_t predicted;
    std::uint64_t correct;
    std::uint64_t collisions;
};
static_assert(sizeof(ProfileEntry) == 48, "profile entry must be packed");

std::uint64_t
alignUp64(std::uint64_t offset)
{
    return (offset + 63) & ~std::uint64_t{63};
}

std::uint64_t
headerChecksum(const FileHeader &header, const std::string &key)
{
    FileHeader copy = header;
    copy.headerHash = 0;
    std::string bytes(reinterpret_cast<const char *>(&copy),
                      sizeof(copy));
    bytes += key;
    return fnv1a64(bytes);
}

FileHeader
makeHeader(const char (&magic)[8], std::uint32_t version,
           const std::string &key, std::uint64_t records,
           std::uint32_t sites, std::uint64_t extra,
           std::uint64_t payload_bytes)
{
    FileHeader header = {};
    std::memcpy(header.magic, magic, sizeof(header.magic));
    header.version = version;
    header.sites = sites;
    header.keyBytes = key.size();
    header.records = records;
    header.extra = extra;
    header.payloadOffset = alignUp64(sizeof(FileHeader) + key.size());
    header.fileBytes = header.payloadOffset + payload_bytes;
    header.headerHash = headerChecksum(header, key);
    return header;
}

Error
corruptError(const std::string &what, const std::string &path)
{
    return Error(ErrorCode::IoFailure, "cache file " + what)
        .withContext("path " + path);
}

/**
 * Validate a mapped artifact file against the expected magic,
 * version and key, and its size against @p bytes_per_record per
 * record plus @p bytes_per_site per site-table entry. Returns the
 * header on success (pointing into the mapping).
 */
Result<const FileHeader *>
validateArtifact(const MmapFile &file, const char (&magic)[8],
                 std::uint32_t version, const std::string &key,
                 std::uint64_t bytes_per_record,
                 std::uint64_t bytes_per_site)
{
    if (file.size() < sizeof(FileHeader))
        return corruptError("shorter than its header", file.path());
    const auto *header =
        reinterpret_cast<const FileHeader *>(file.data());
    if (std::memcmp(header->magic, magic, sizeof(header->magic)) != 0)
        return corruptError("has the wrong magic", file.path());
    if (header->version != version)
        return corruptError("has unsupported version " +
                                std::to_string(header->version),
                            file.path());
    if (header->keyBytes != key.size() ||
        sizeof(FileHeader) + header->keyBytes > file.size())
        return corruptError("key length mismatch", file.path());
    const char *stored_key =
        static_cast<const char *>(file.data()) + sizeof(FileHeader);
    if (std::memcmp(stored_key, key.data(), key.size()) != 0)
        return corruptError("key mismatch (hash collision?)",
                            file.path());
    if (header->headerHash != headerChecksum(*header, key))
        return corruptError("header checksum mismatch", file.path());
    const std::uint64_t expected_offset =
        alignUp64(sizeof(FileHeader) + key.size());
    if (header->payloadOffset != expected_offset)
        return corruptError("payload offset mismatch", file.path());
    // Bound the counts by the bytes actually present before
    // multiplying, so no record count can wrap the size check.
    if (header->payloadOffset > file.size())
        return corruptError("truncated or oversized payload",
                            file.path());
    const std::uint64_t payload = file.size() - header->payloadOffset;
    const std::uint64_t site_bytes =
        std::uint64_t{header->sites} * bytes_per_site;
    if (site_bytes > payload ||
        header->records > (payload - site_bytes) / bytes_per_record)
        return corruptError("truncated or oversized payload",
                            file.path());
    const std::uint64_t expected_bytes =
        header->payloadOffset + header->records * bytes_per_record +
        site_bytes;
    if (header->fileBytes != expected_bytes ||
        file.size() != expected_bytes)
        return corruptError("truncated or oversized payload",
                            file.path());
    return header;
}

Result<void>
writeArtifact(const std::string &path, const FileHeader &header,
              const std::string &key,
              const std::vector<std::pair<const void *, std::size_t>>
                  &payload_chunks)
{
    AtomicFile out(path);
    if (!out.ok())
        return Error(ErrorCode::IoFailure,
                     "cannot open cache temp file")
            .withContext("path " + path);

    bool wrote = std::fwrite(&header, sizeof(header), 1,
                             out.stream()) == 1;
    if (wrote && !key.empty())
        wrote = std::fwrite(key.data(), 1, key.size(),
                            out.stream()) == key.size();
    const std::size_t pad =
        header.payloadOffset - sizeof(header) - key.size();
    if (wrote && pad > 0) {
        const char zeros[64] = {};
        wrote = std::fwrite(zeros, 1, pad, out.stream()) == pad;
    }
    for (const auto &[data, bytes] : payload_chunks) {
        if (!wrote)
            break;
        if (bytes > 0)
            wrote = std::fwrite(data, 1, bytes, out.stream()) == bytes;
    }
    if (!wrote)
        return Error(ErrorCode::IoFailure,
                     "short write to cache temp file")
            .withContext("path " + path);
    return out.commit();
}

std::string
hashedName(const char *prefix, const std::string &key,
           const char *suffix)
{
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(key)));
    return std::string(prefix) + hex + suffix;
}

} // namespace

std::string
replayArtifactKey(const std::string &program_name,
                  std::uint64_t program_seed, unsigned input_set,
                  Count records)
{
    return "replay-v1|" + program_name + "|" +
           std::to_string(program_seed) + "|in" +
           std::to_string(input_set) + "|" + std::to_string(records);
}

std::string
profileArtifactKey(const std::string &program_name,
                   std::uint64_t program_seed, unsigned profile_input,
                   Count profile_branches,
                   const std::string &predictor_identity)
{
    return "profile-v1|" + program_name + "|" +
           std::to_string(program_seed) + "|in" +
           std::to_string(profile_input) + "|" +
           std::to_string(profile_branches) + "|" + predictor_identity;
}

ArtifactCache::ArtifactCache(std::string directory)
    : dir(std::move(directory))
{
}

std::string
ArtifactCache::replayPath(const std::string &key) const
{
    return dir + "/" + hashedName("replay-", key, ".bprc");
}

std::string
ArtifactCache::profilePath(const std::string &key) const
{
    return dir + "/" + hashedName("profile-", key, ".bppf");
}

Result<void>
ArtifactCache::ensureDirectory()
{
    std::lock_guard<std::mutex> guard(lock);
    if (dirReady)
        return okResult();
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        return Error(ErrorCode::IoFailure,
                     "cannot create cache directory: " + ec.message())
            .withContext("path " + dir);
    dirReady = true;
    return okResult();
}

Result<ArtifactCache::ReplayLookup>
ArtifactCache::loadReplay(const std::string &key)
{
    ReplayLookup lookup;
    const std::string path = replayPath(key);
    if (::access(path.c_str(), F_OK) != 0) {
        count(&ArtifactCacheStats::replayMisses);
        return lookup;
    }
    try {
        faultPoint(fault_points::cacheMap, key);
    } catch (const ErrorException &e) {
        count(&ArtifactCacheStats::corrupt);
        return e.error();
    }

    Result<MmapFile> mapped = MmapFile::openReadOnly(path);
    if (!mapped.ok()) {
        count(&ArtifactCacheStats::corrupt);
        return mapped.error();
    }
    auto file = std::make_shared<MmapFile>(std::move(mapped.value()));
    Result<const FileHeader *> header =
        validateArtifact(*file, replayMagic, replayVersion, key,
                         ReplayBuffer::bytesPerBranch, sizeof(Addr));
    if (!header.ok()) {
        count(&ArtifactCacheStats::corrupt);
        return header.error();
    }

    const Count records = header.value()->records;
    const std::uint32_t sites = header.value()->sites;
    const char *payload = static_cast<const char *>(file->data()) +
                          header.value()->payloadOffset;
    const auto *site_column =
        reinterpret_cast<const std::uint32_t *>(payload);
    const auto *packed_column = reinterpret_cast<const std::uint32_t *>(
        payload + records * sizeof(std::uint32_t));
    const auto *site_pcs = reinterpret_cast<const Addr *>(
        payload + records * ReplayBuffer::bytesPerBranch);
    // The payload is not checksummed, but a site id past the table
    // would send every replay out of bounds: check the one column
    // whose damage is not benign (a branch-free scan).
    std::uint32_t stray = 0;
    for (Count i = 0; i < records; ++i)
        stray |= static_cast<std::uint32_t>(site_column[i] >= sites);
    if (stray != 0) {
        count(&ArtifactCacheStats::corrupt);
        return corruptError("site column points past the site table",
                            path);
    }
    // The aliasing shared_ptr keeps the mapping alive for as long as
    // any copy of the buffer exists.
    lookup.buffer = ReplayBuffer::fromColumns(
        site_column, packed_column, records, site_pcs, sites,
        header.value()->extra,
        std::shared_ptr<const void>(file, file->data()));
    lookup.hit = true;

    {
        std::lock_guard<std::mutex> guard(lock);
        ++tally.replayHits;
        tally.mappedBytes += lookup.buffer.memoryBytes();
    }
    return lookup;
}

Result<void>
ArtifactCache::storeReplay(const std::string &key,
                           const ReplayBuffer &buffer)
{
    try {
        faultPoint(fault_points::cacheWrite, key);
    } catch (const ErrorException &e) {
        return e.error();
    }
    if (Result<void> made = ensureDirectory(); !made.ok())
        return made.error();

    const FileHeader header = makeHeader(
        replayMagic, replayVersion, key, buffer.size(),
        buffer.siteCount(), buffer.instructionCount(),
        buffer.memoryBytes());
    const std::size_t column_bytes =
        buffer.size() * sizeof(std::uint32_t);
    return writeArtifact(
        replayPath(key), header, key,
        {{buffer.siteData(), column_bytes},
         {buffer.packedData(), column_bytes},
         {buffer.sitePcs(), buffer.siteCount() * sizeof(Addr)}});
}

Result<ArtifactCache::ProfileLookup>
ArtifactCache::loadProfile(const std::string &key)
{
    ProfileLookup lookup;
    const std::string path = profilePath(key);
    if (::access(path.c_str(), F_OK) != 0) {
        count(&ArtifactCacheStats::profileMisses);
        return lookup;
    }
    try {
        faultPoint(fault_points::cacheMap, key);
    } catch (const ErrorException &e) {
        count(&ArtifactCacheStats::corrupt);
        return e.error();
    }

    Result<MmapFile> mapped = MmapFile::openReadOnly(path);
    if (!mapped.ok()) {
        count(&ArtifactCacheStats::corrupt);
        return mapped.error();
    }
    Result<const FileHeader *> header =
        validateArtifact(mapped.value(), profileMagic, profileVersion,
                         key, sizeof(ProfileEntry), 0);
    if (!header.ok()) {
        count(&ArtifactCacheStats::corrupt);
        return header.error();
    }

    const char *base =
        static_cast<const char *>(mapped.value().data()) +
        header.value()->payloadOffset;
    for (std::uint64_t i = 0; i < header.value()->records; ++i) {
        // The 64-byte payload alignment only guarantees the first
        // entry's alignment; copy each entry out rather than cast.
        ProfileEntry entry;
        std::memcpy(&entry, base + i * sizeof(ProfileEntry),
                    sizeof(entry));
        BranchProfile profile;
        profile.executed = entry.executed;
        profile.taken = entry.taken;
        profile.predicted = entry.predicted;
        profile.correct = entry.correct;
        profile.collisions = entry.collisions;
        lookup.profile.setEntry(entry.pc, profile);
    }
    lookup.simulatedBranches = header.value()->extra;
    lookup.hit = true;
    count(&ArtifactCacheStats::profileHits);
    return lookup;
}

Result<void>
ArtifactCache::storeProfile(const std::string &key,
                            const ProfileDb &profile,
                            Count simulated_branches)
{
    try {
        faultPoint(fault_points::cacheWrite, key);
    } catch (const ErrorException &e) {
        return e.error();
    }
    if (Result<void> made = ensureDirectory(); !made.ok())
        return made.error();

    // Sort entries by PC so equal databases produce identical bytes
    // regardless of hash-map iteration order (racing shard writers
    // then write byte-identical files).
    std::vector<ProfileEntry> entries;
    entries.reserve(profile.size());
    for (const auto &[pc, record] : profile.entries())
        entries.push_back({pc, record.executed, record.taken,
                           record.predicted, record.correct,
                           record.collisions});
    std::sort(entries.begin(), entries.end(),
              [](const ProfileEntry &a, const ProfileEntry &b) {
                  return a.pc < b.pc;
              });

    const FileHeader header =
        makeHeader(profileMagic, profileVersion, key, entries.size(), 0,
                   simulated_branches,
                   entries.size() * sizeof(ProfileEntry));
    return writeArtifact(
        profilePath(key), header, key,
        {{entries.data(), entries.size() * sizeof(ProfileEntry)}});
}

ArtifactCacheStats
ArtifactCache::stats() const
{
    std::lock_guard<std::mutex> guard(lock);
    return tally;
}

} // namespace bpsim
