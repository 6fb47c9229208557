/**
 * @file
 * Artifact-cache format tests: key construction, replay/profile
 * round-trips through the mmap'd on-disk format, and deterministic
 * corruption sweeps proving every header or key byte is covered by
 * the checksum. Both kinds share one 64-byte header, replicated here
 * on purpose so a layout change cannot slip through unnoticed: the
 * profile format is frozen at v1, the replay format at v2 (site-id
 * column, packed column, site table; the ReplayV2 suite). A layout
 * change must bump the version and add a new suite, not edit these.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "cache/artifact_cache.hh"
#include "core/runner.hh"
#include "support/bits.hh"
#include "support/error.hh"
#include "support/mmap_file.hh"
#include "trace/replay_buffer.hh"
#include "workload/specint.hh"

namespace bpsim
{
namespace
{

/** Replica of the frozen on-disk header (see artifact_cache.cc);
 * `reserved` holds the site-table length of a v2 replay file. */
struct HeaderV1
{
    char magic[8];
    std::uint32_t version;
    std::uint32_t reserved;
    std::uint64_t keyBytes;
    std::uint64_t records;
    std::uint64_t extra;
    std::uint64_t payloadOffset;
    std::uint64_t fileBytes;
    std::uint64_t headerHash;
};
static_assert(sizeof(HeaderV1) == 64, "v1 header replica drifted");

std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    return dir;
}

std::vector<char>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeFile(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

ProfileDb
sampleProfile()
{
    ProfileDb db;
    BranchProfile a;
    a.executed = 100;
    a.taken = 60;
    a.predicted = 100;
    a.correct = 88;
    a.collisions = 7;
    db.setEntry(0x400100, a);
    BranchProfile b;
    b.executed = 3;
    b.taken = 0;
    b.predicted = 3;
    b.correct = 3;
    db.setEntry(0x400200, b);
    return db;
}

TEST(ArtifactKeys, AreDeterministicAndDistinct)
{
    const std::string replay =
        replayArtifactKey("compress", 2000, 1, 120000);
    EXPECT_EQ(replay, "replay-v1|compress|2000|in1|120000");
    EXPECT_EQ(replay, replayArtifactKey("compress", 2000, 1, 120000));
    EXPECT_NE(replay, replayArtifactKey("compress", 2000, 1, 120001));
    EXPECT_NE(replay, replayArtifactKey("compress", 2001, 1, 120000));

    const std::string profile = profileArtifactKey(
        "compress", 2000, 1, 60000, "gshare:2048");
    EXPECT_EQ(profile,
              "profile-v1|compress|2000|in1|60000|gshare:2048");
    EXPECT_NE(profile, profileArtifactKey("compress", 2000, 1, 60000,
                                          "gshare:4096"));
}

TEST(ArtifactCacheTest, AbsentFileIsAMissNotAnError)
{
    ArtifactCache cache(freshDir("cache_miss"));
    const Result<ArtifactCache::ReplayLookup> replay =
        cache.loadReplay("replay-v1|nope|0|in0|1");
    ASSERT_TRUE(replay.ok());
    EXPECT_FALSE(replay.value().hit);

    const Result<ArtifactCache::ProfileLookup> profile =
        cache.loadProfile("profile-v1|nope|0|in0|1|gshare:1024");
    ASSERT_TRUE(profile.ok());
    EXPECT_FALSE(profile.value().hit);

    const ArtifactCacheStats stats = cache.stats();
    EXPECT_EQ(stats.replayMisses, 1u);
    EXPECT_EQ(stats.profileMisses, 1u);
    EXPECT_EQ(stats.corrupt, 0u);
}

TEST(ArtifactCacheTest, ReplayRoundTripIsBitIdentical)
{
    constexpr Count records = 5000;
    SyntheticProgram program =
        makeSpecProgram(SpecProgram::Compress, InputSet::Ref);
    const ReplayBuffer original =
        ReplayBuffer::materialize(program, records);
    ASSERT_EQ(original.size(), records);

    ArtifactCache cache(freshDir("cache_replay"));
    const std::string key =
        replayArtifactKey("compress", 2000, 1, records);
    ASSERT_TRUE(cache.storeReplay(key, original).ok());

    Result<ArtifactCache::ReplayLookup> loaded =
        cache.loadReplay(key);
    ASSERT_TRUE(loaded.ok());
    ASSERT_TRUE(loaded.value().hit);
    const ReplayBuffer &mapped = loaded.value().buffer;
    EXPECT_TRUE(mapped.mapped());
    ASSERT_EQ(mapped.size(), original.size());
    EXPECT_EQ(mapped.instructionCount(),
              original.instructionCount());
    for (Count i = 0; i < records; ++i) {
        BranchRecord a;
        BranchRecord b;
        original.get(i, a);
        mapped.get(i, b);
        ASSERT_EQ(a.pc, b.pc) << "record " << i;
        ASSERT_EQ(a.taken, b.taken) << "record " << i;
        ASSERT_EQ(a.instGap, b.instGap) << "record " << i;
    }

    const ArtifactCacheStats stats = cache.stats();
    EXPECT_EQ(stats.replayHits, 1u);
    EXPECT_EQ(stats.mappedBytes,
              records * ReplayBuffer::bytesPerBranch +
                  original.siteCount() * sizeof(Addr));
}

TEST(ArtifactCacheTest, MappedBufferOutlivesTheCache)
{
    constexpr Count records = 256;
    SyntheticProgram program =
        makeSpecProgram(SpecProgram::Go, InputSet::Ref);
    const ReplayBuffer original =
        ReplayBuffer::materialize(program, records);

    const std::string key = replayArtifactKey("go", 2000, 1, records);
    ReplayBuffer survivor;
    {
        ArtifactCache cache(freshDir("cache_lifetime"));
        ASSERT_TRUE(cache.storeReplay(key, original).ok());
        Result<ArtifactCache::ReplayLookup> loaded =
            cache.loadReplay(key);
        ASSERT_TRUE(loaded.ok() && loaded.value().hit);
        survivor = loaded.value().buffer;
    }
    // The aliasing shared_ptr keeps the mapping alive after the cache
    // object is gone.
    BranchRecord a;
    BranchRecord b;
    original.get(records - 1, a);
    survivor.get(records - 1, b);
    EXPECT_EQ(a.pc, b.pc);
    EXPECT_EQ(a.taken, b.taken);
}

TEST(ArtifactCacheTest, ProfileRoundTrip)
{
    ArtifactCache cache(freshDir("cache_profile"));
    const ProfileDb db = sampleProfile();
    const std::string key = profileArtifactKey("compress", 2000, 1,
                                               60000, "gshare:2048");
    ASSERT_TRUE(cache.storeProfile(key, db, 60000).ok());

    const Result<ArtifactCache::ProfileLookup> loaded =
        cache.loadProfile(key);
    ASSERT_TRUE(loaded.ok());
    ASSERT_TRUE(loaded.value().hit);
    EXPECT_EQ(loaded.value().simulatedBranches, 60000u);
    ASSERT_EQ(loaded.value().profile.size(), db.size());
    for (const auto &[pc, expected] : db.entries()) {
        const auto it = loaded.value().profile.entries().find(pc);
        ASSERT_NE(it, loaded.value().profile.entries().end());
        EXPECT_EQ(it->second.executed, expected.executed);
        EXPECT_EQ(it->second.taken, expected.taken);
        EXPECT_EQ(it->second.predicted, expected.predicted);
        EXPECT_EQ(it->second.correct, expected.correct);
        EXPECT_EQ(it->second.collisions, expected.collisions);
    }
}

TEST(ArtifactCacheTest, ZeroEntryProfileRoundTrips)
{
    ArtifactCache cache(freshDir("cache_profile_empty"));
    const std::string key = profileArtifactKey("compress", 2000, 1,
                                               1234, "bimodal:1024");
    ASSERT_TRUE(cache.storeProfile(key, ProfileDb(), 1234).ok());

    const Result<ArtifactCache::ProfileLookup> loaded =
        cache.loadProfile(key);
    ASSERT_TRUE(loaded.ok());
    ASSERT_TRUE(loaded.value().hit);
    EXPECT_EQ(loaded.value().profile.size(), 0u);
    EXPECT_EQ(loaded.value().simulatedBranches, 1234u);
}

TEST(ArtifactCacheTest, RacingWritersProduceIdenticalBytes)
{
    const std::string dir = freshDir("cache_racing");
    const ProfileDb db = sampleProfile();
    const std::string key = profileArtifactKey("compress", 2000, 1,
                                               777, "gshare:2048");

    ArtifactCache first(dir);
    ASSERT_TRUE(first.storeProfile(key, db, 777).ok());
    const std::vector<char> bytes_first =
        readFile(first.profilePath(key));

    // A second process writing the same key must produce the same
    // bytes, so the atomic-rename race is benign.
    ArtifactCache second(dir);
    ASSERT_TRUE(second.storeProfile(key, db, 777).ok());
    const std::vector<char> bytes_second =
        readFile(second.profilePath(key));
    EXPECT_EQ(bytes_first, bytes_second);
}

TEST(ArtifactCacheTest, TruncatedFilesAreStructuredErrors)
{
    ArtifactCache cache(freshDir("cache_truncate"));
    const ProfileDb db = sampleProfile();
    const std::string key = profileArtifactKey("compress", 2000, 1,
                                               500, "gshare:2048");
    ASSERT_TRUE(cache.storeProfile(key, db, 500).ok());
    const std::string path = cache.profilePath(key);
    const std::vector<char> intact = readFile(path);

    // Every truncation point must be rejected: shorter than the
    // header, header-only, mid-key and mid-payload.
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{17}, sizeof(HeaderV1) - 1,
          sizeof(HeaderV1), intact.size() / 2, intact.size() - 1}) {
        std::vector<char> cut(intact.begin(),
                              intact.begin() +
                                  static_cast<std::ptrdiff_t>(keep));
        writeFile(path, cut);
        const Result<ArtifactCache::ProfileLookup> loaded =
            cache.loadProfile(key);
        ASSERT_FALSE(loaded.ok()) << "kept " << keep << " bytes";
        EXPECT_EQ(loaded.error().code(), ErrorCode::IoFailure);
    }

    // An oversized file is equally corrupt.
    std::vector<char> padded = intact;
    padded.push_back('x');
    writeFile(path, padded);
    EXPECT_FALSE(cache.loadProfile(key).ok());

    // Restoring the original bytes restores the hit.
    writeFile(path, intact);
    const Result<ArtifactCache::ProfileLookup> healed =
        cache.loadProfile(key);
    ASSERT_TRUE(healed.ok());
    EXPECT_TRUE(healed.value().hit);
    EXPECT_GE(cache.stats().corrupt, 7u);
}

TEST(ArtifactCacheTest, EveryHeaderAndKeyByteFlipIsDetected)
{
    ArtifactCache cache(freshDir("cache_flip"));
    const ProfileDb db = sampleProfile();
    const std::string key = profileArtifactKey("compress", 2000, 1,
                                               999, "gshare:2048");
    ASSERT_TRUE(cache.storeProfile(key, db, 999).ok());
    const std::string path = cache.profilePath(key);
    const std::vector<char> intact = readFile(path);
    ASSERT_GE(intact.size(), sizeof(HeaderV1) + key.size());

    // Deterministic corruption sweep: flipping any single byte of the
    // header or the stored key must fail validation (magic, version,
    // sizes or the checksum); the load must never succeed on damaged
    // metadata.
    for (std::size_t i = 0; i < sizeof(HeaderV1) + key.size(); ++i) {
        std::vector<char> mutated = intact;
        mutated[i] = static_cast<char>(mutated[i] ^ 0x5a);
        writeFile(path, mutated);
        const Result<ArtifactCache::ProfileLookup> loaded =
            cache.loadProfile(key);
        ASSERT_FALSE(loaded.ok()) << "flipped byte " << i;
        EXPECT_EQ(loaded.error().code(), ErrorCode::IoFailure)
            << "flipped byte " << i;
    }
}

TEST(ArtifactCacheTest, VersionBumpIsRejectedEvenWithValidChecksum)
{
    ArtifactCache cache(freshDir("cache_version"));
    const ProfileDb db = sampleProfile();
    const std::string key = profileArtifactKey("compress", 2000, 1,
                                               42, "gshare:2048");
    ASSERT_TRUE(cache.storeProfile(key, db, 42).ok());
    const std::string path = cache.profilePath(key);
    std::vector<char> bytes = readFile(path);

    // Bump the version and re-sign the header so only the version
    // check can reject it — a future-format file must not be
    // misparsed by a v1 reader that happens to checksum it.
    HeaderV1 header;
    std::memcpy(&header, bytes.data(), sizeof(header));
    ASSERT_EQ(header.version, 1u);
    header.version = 2;
    header.headerHash = 0;
    std::string signed_bytes(reinterpret_cast<const char *>(&header),
                             sizeof(header));
    signed_bytes += key;
    header.headerHash = fnv1a64(signed_bytes);
    std::memcpy(bytes.data(), &header, sizeof(header));
    writeFile(path, bytes);

    const Result<ArtifactCache::ProfileLookup> loaded =
        cache.loadProfile(key);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.error().message().find("version"),
              std::string::npos);
}

TEST(ArtifactCacheTest, KeyCollisionDegradesToAnError)
{
    ArtifactCache cache(freshDir("cache_collision"));
    const ProfileDb db = sampleProfile();
    const std::string key_a = profileArtifactKey(
        "compress", 2000, 1, 100, "gshare:2048");
    const std::string key_b = profileArtifactKey(
        "compress", 2000, 1, 100, "gshare:4096");
    ASSERT_TRUE(cache.storeProfile(key_a, db, 100).ok());

    // Simulate a file-name hash collision: key B's path holds key
    // A's artifact. The stored-key comparison must refuse it rather
    // than hand back the wrong data.
    std::filesystem::copy_file(cache.profilePath(key_a),
                               cache.profilePath(key_b));
    const Result<ArtifactCache::ProfileLookup> loaded =
        cache.loadProfile(key_b);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code(), ErrorCode::IoFailure);
}

/** Re-sign @p header over @p key after a deliberate edit. */
void
resign(HeaderV1 &header, const std::string &key)
{
    header.headerHash = 0;
    std::string signed_bytes(reinterpret_cast<const char *>(&header),
                             sizeof(header));
    signed_bytes += key;
    header.headerHash = fnv1a64(signed_bytes);
}

/** A stored v2 replay artifact and the buffer it was written from. */
struct StoredReplay
{
    ReplayBuffer original;
    std::string key;
    std::string path;
    std::vector<char> bytes;
};

StoredReplay
storeSampleReplay(ArtifactCache &cache, Count records)
{
    StoredReplay stored;
    SyntheticProgram program =
        makeSpecProgram(SpecProgram::Compress, InputSet::Ref);
    stored.original = ReplayBuffer::materialize(program, records);
    stored.key = replayArtifactKey("compress", 2000, 1, records);
    EXPECT_TRUE(cache.storeReplay(stored.key, stored.original).ok());
    stored.path = cache.replayPath(stored.key);
    stored.bytes = readFile(stored.path);
    return stored;
}

TEST(ReplayV2Test, MappedBufferEqualsMaterializedColumnForColumn)
{
    constexpr Count records = 5000;
    ArtifactCache cache(freshDir("cache_v2_columns"));
    const StoredReplay stored = storeSampleReplay(cache, records);
    const ReplayBuffer &original = stored.original;

    // On-disk layout: header, key, 64-byte-aligned site column, packed
    // column, site table.
    HeaderV1 header;
    std::memcpy(&header, stored.bytes.data(), sizeof(header));
    EXPECT_EQ(header.version, 2u);
    EXPECT_EQ(header.reserved, original.siteCount());
    EXPECT_EQ(header.payloadOffset % 64, 0u);
    EXPECT_EQ(header.fileBytes,
              header.payloadOffset + records * 8 +
                  original.siteCount() * sizeof(Addr));
    EXPECT_EQ(stored.bytes.size(), header.fileBytes);

    Result<ArtifactCache::ReplayLookup> loaded =
        cache.loadReplay(stored.key);
    ASSERT_TRUE(loaded.ok());
    ASSERT_TRUE(loaded.value().hit);
    const ReplayBuffer &mapped = loaded.value().buffer;
    EXPECT_TRUE(mapped.mapped());
    ASSERT_EQ(mapped.size(), original.size());
    ASSERT_EQ(mapped.siteCount(), original.siteCount());
    EXPECT_EQ(mapped.instructionCount(), original.instructionCount());
    EXPECT_EQ(mapped.memoryBytes(), original.memoryBytes());
    EXPECT_EQ(std::memcmp(mapped.siteData(), original.siteData(),
                          records * sizeof(std::uint32_t)),
              0);
    EXPECT_EQ(std::memcmp(mapped.packedData(), original.packedData(),
                          records * sizeof(std::uint32_t)),
              0);
    EXPECT_EQ(std::memcmp(mapped.sitePcs(), original.sitePcs(),
                          original.siteCount() * sizeof(Addr)),
              0);
    // The columns sit in the mapping exactly where the layout says.
    const char *payload =
        static_cast<const char *>(static_cast<const void *>(
            mapped.siteData()));
    EXPECT_EQ(static_cast<const void *>(payload + records * 4),
              static_cast<const void *>(mapped.packedData()));
    EXPECT_EQ(static_cast<const void *>(payload + records * 8),
              static_cast<const void *>(mapped.sitePcs()));
}

TEST(ReplayV2Test, TruncatedReplayFilesAreStructuredErrors)
{
    constexpr Count records = 700;
    ArtifactCache cache(freshDir("cache_v2_truncate"));
    const StoredReplay stored = storeSampleReplay(cache, records);
    const std::vector<char> &intact = stored.bytes;
    HeaderV1 header;
    std::memcpy(&header, intact.data(), sizeof(header));
    const std::size_t payload = header.payloadOffset;

    // Every truncation point must be rejected: shorter than the
    // header, header-only, mid-key, mid site column, at the column
    // boundary, mid packed column, at the table and mid site table.
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{17}, sizeof(HeaderV1) - 1,
          sizeof(HeaderV1), sizeof(HeaderV1) + stored.key.size() / 2,
          payload, payload + records * 2, payload + records * 4,
          payload + records * 6, payload + records * 8,
          intact.size() - 4, intact.size() - 1}) {
        ASSERT_LT(keep, intact.size());
        std::vector<char> cut(intact.begin(),
                              intact.begin() +
                                  static_cast<std::ptrdiff_t>(keep));
        writeFile(stored.path, cut);
        const Result<ArtifactCache::ReplayLookup> loaded =
            cache.loadReplay(stored.key);
        ASSERT_FALSE(loaded.ok()) << "kept " << keep << " bytes";
        EXPECT_EQ(loaded.error().code(), ErrorCode::IoFailure);
    }

    // An oversized file is equally corrupt.
    std::vector<char> padded = intact;
    padded.push_back('x');
    writeFile(stored.path, padded);
    EXPECT_FALSE(cache.loadReplay(stored.key).ok());

    // Restoring the original bytes restores the hit.
    writeFile(stored.path, intact);
    const Result<ArtifactCache::ReplayLookup> healed =
        cache.loadReplay(stored.key);
    ASSERT_TRUE(healed.ok());
    EXPECT_TRUE(healed.value().hit);
    EXPECT_GE(cache.stats().corrupt, 13u);
}

TEST(ReplayV2Test, EveryReplayHeaderAndKeyByteFlipIsDetected)
{
    ArtifactCache cache(freshDir("cache_v2_flip"));
    const StoredReplay stored = storeSampleReplay(cache, 300);
    const std::vector<char> &intact = stored.bytes;

    // Flipping any single byte of the header (the site-table length
    // included) or the stored key must fail validation.
    for (std::size_t i = 0; i < sizeof(HeaderV1) + stored.key.size();
         ++i) {
        std::vector<char> mutated = intact;
        mutated[i] = static_cast<char>(mutated[i] ^ 0x5a);
        writeFile(stored.path, mutated);
        const Result<ArtifactCache::ReplayLookup> loaded =
            cache.loadReplay(stored.key);
        ASSERT_FALSE(loaded.ok()) << "flipped byte " << i;
        EXPECT_EQ(loaded.error().code(), ErrorCode::IoFailure)
            << "flipped byte " << i;
    }
}

TEST(ReplayV2Test, SiteIdPastTheTableIsRejected)
{
    constexpr Count records = 400;
    ArtifactCache cache(freshDir("cache_v2_stray"));
    const StoredReplay stored = storeSampleReplay(cache, records);
    HeaderV1 header;
    std::memcpy(&header, stored.bytes.data(), sizeof(header));

    // The payload is not checksummed, but a site id at or past the
    // table length would make every replay read out of bounds.
    std::vector<char> bytes = stored.bytes;
    const std::uint32_t stray = header.reserved;
    std::memcpy(bytes.data() + header.payloadOffset + (records - 1) * 4,
                &stray, sizeof(stray));
    writeFile(stored.path, bytes);
    const Result<ArtifactCache::ReplayLookup> loaded =
        cache.loadReplay(stored.key);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code(), ErrorCode::IoFailure);
}

/**
 * Rewrite the v2 replay file at @p path in the retired v1 layout
 * (PC column + packed column, version 1), validly signed.
 */
void
downgradeToV1(const std::string &path)
{
    const std::vector<char> v2 = readFile(path);
    HeaderV1 header;
    std::memcpy(&header, v2.data(), sizeof(header));
    ASSERT_EQ(header.version, 2u);
    const std::string key(v2.data() + sizeof(header), header.keyBytes);
    const char *payload = v2.data() + header.payloadOffset;
    const Count records = header.records;
    std::vector<Addr> site_pcs(header.reserved);
    std::memcpy(site_pcs.data(), payload + records * 8,
                site_pcs.size() * sizeof(Addr));

    std::vector<char> v1(v2.begin(),
                         v2.begin() + static_cast<std::ptrdiff_t>(
                                          header.payloadOffset));
    for (Count i = 0; i < records; ++i) {
        std::uint32_t site = 0;
        std::memcpy(&site, payload + i * 4, sizeof(site));
        const Addr pc = site_pcs.at(site);
        const char *raw = reinterpret_cast<const char *>(&pc);
        v1.insert(v1.end(), raw, raw + sizeof(pc));
    }
    v1.insert(v1.end(), payload + records * 4, payload + records * 8);

    header.version = 1;
    header.reserved = 0;
    header.fileBytes = header.payloadOffset + records * 12;
    resign(header, key);
    std::memcpy(v1.data(), &header, sizeof(header));
    writeFile(path, v1);
}

TEST(ReplayV2Test, V1ReplayFileIsRejectedAndHealed)
{
    const std::string cache_dir = freshDir("cache_v2_heal");
    const auto run = [&] {
        RunnerOptions options;
        options.threads = 1;
        options.cacheDir = cache_dir;
        ExperimentRunner runner(options);
        const std::size_t program = runner.addProgram(
            makeSpecProgram(SpecProgram::Compress, InputSet::Ref));
        ExperimentConfig config;
        config.kind = PredictorKind::Gshare;
        config.sizeBytes = 2048;
        config.scheme = StaticScheme::None;
        config.evalBranches = 20'000;
        runner.addCell(program, config, "compress/gshare");
        return runner.run();
    };
    const MatrixResult cold = run();
    ASSERT_EQ(cold.failedCells, 0u);

    std::vector<std::string> artifacts;
    for (const auto &entry :
         std::filesystem::directory_iterator(cache_dir)) {
        if (entry.path().extension() == ".bprc")
            artifacts.push_back(entry.path().string());
    }
    ASSERT_EQ(artifacts.size(), 1u);
    downgradeToV1(artifacts.front());

    // The v1 file is refused by its version, never misparsed...
    ArtifactCache probe(cache_dir);
    const SyntheticProgram compress =
        makeSpecProgram(SpecProgram::Compress, InputSet::Ref);
    const std::string key = replayArtifactKey(
        compress.name(), compress.seedValue(),
        static_cast<unsigned>(InputSet::Ref), 20'000);
    ASSERT_EQ(probe.replayPath(key), artifacts.front());
    const Result<ArtifactCache::ReplayLookup> refused =
        probe.loadReplay(key);
    ASSERT_FALSE(refused.ok());
    EXPECT_NE(refused.error().message().find("version"),
              std::string::npos);

    // ...and a run over it regenerates bit-identical results and
    // rewrites the artifact as v2.
    const MatrixResult warm = run();
    EXPECT_EQ(warm.failedCells, 0u);
    EXPECT_GE(warm.cacheCorrupt, 1u);
    ASSERT_EQ(warm.cells.size(), cold.cells.size());
    EXPECT_EQ(warm.cells[0].result.stats.mispredictions,
              cold.cells[0].result.stats.mispredictions);
    EXPECT_EQ(warm.cells[0].result.stats.collisions.collisions,
              cold.cells[0].result.stats.collisions.collisions);
    const Result<ArtifactCache::ReplayLookup> healed =
        probe.loadReplay(key);
    ASSERT_TRUE(healed.ok());
    EXPECT_TRUE(healed.value().hit);
}

TEST(MmapFileTest, OpenMapsBytesReadOnly)
{
    const std::string path =
        ::testing::TempDir() + "mmap_basic.bin";
    const std::vector<char> bytes = {'a', 'b', 'c', 'd', 'e'};
    writeFile(path, bytes);

    Result<MmapFile> mapped = MmapFile::openReadOnly(path);
    ASSERT_TRUE(mapped.ok());
    ASSERT_EQ(mapped.value().size(), bytes.size());
    EXPECT_EQ(std::memcmp(mapped.value().data(), bytes.data(),
                          bytes.size()),
              0);
    EXPECT_EQ(mapped.value().path(), path);

    // Move transfers ownership; the mapping stays valid.
    MmapFile moved = std::move(mapped.value());
    EXPECT_EQ(moved.size(), bytes.size());
    EXPECT_EQ(std::memcmp(moved.data(), bytes.data(), bytes.size()),
              0);
}

TEST(MmapFileTest, MissingFileIsAnIoFailure)
{
    Result<MmapFile> mapped = MmapFile::openReadOnly(
        ::testing::TempDir() + "mmap_does_not_exist.bin");
    ASSERT_FALSE(mapped.ok());
    EXPECT_EQ(mapped.error().code(), ErrorCode::IoFailure);
}

} // namespace
} // namespace bpsim
