// Corruption property suite for the TCFI loader: every damaged file —
// bad magic, foreign endianness, bad version, flipped header or section
// bytes, truncation, out-of-bounds arena slices — must come back as a
// clean Status (never a crash), because serve/file_watcher and RELOAD
// feed the loader whatever is on disk mid-copy.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <string>

#include "core/tc_tree.h"
#include "core/tcfi_format.h"
#include "test_util.h"
#include "util/rng.h"

namespace tcf {
namespace {

using testing::MakeRandomNetwork;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.is_open()) << path;
  std::string bytes((std::istreambuf_iterator<char>(f)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(f.is_open()) << path;
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The suite's fixture: one good file, whose bytes each case mutates.
class TcfiCorruptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const TcTree tree = TcTree::Build(MakeRandomNetwork(
        {.num_vertices = 13, .num_items = 5, .tx_per_vertex = 6,
         .seed = 41}));
    path_ = TempPath("tcfi_corrupt.tcfi");
    ASSERT_TRUE(SaveTcTreeBinary(tree, path_).ok());
    good_ = ReadFileBytes(path_);
    ASSERT_GE(good_.size(), sizeof(TcfiHeader));
    std::memcpy(&header_, good_.data(), sizeof(header_));
  }

  /// Writes `bytes` over the fixture file and maps it.
  Status MapMutated(const std::string& bytes,
                    const TcfiMapOptions& options = {}) {
    WriteFileBytes(path_, bytes);
    return MapTcTree(path_, options).status();
  }

  /// Re-stamps a valid header CRC so mutations *past* the CRC check are
  /// reached (version, sections, arenas).
  static void FixHeaderCrc(std::string* bytes) {
    TcfiHeader h;
    std::memcpy(&h, bytes->data(), sizeof(h));
    h.header_crc = 0;
    h.header_crc = tcfi_internal::Crc32(&h, sizeof(h));
    std::memcpy(bytes->data(), &h, sizeof(h));
  }

  std::string path_;
  std::string good_;
  TcfiHeader header_;
};

TEST_F(TcfiCorruptTest, GoodFileMaps) {
  EXPECT_TRUE(MapMutated(good_).ok());
  EXPECT_TRUE(ProbeTcfiFile(path_).ok());
}

TEST_F(TcfiCorruptTest, BadMagic) {
  std::string bytes = good_;
  bytes[0] = 'X';
  EXPECT_TRUE(MapMutated(bytes).IsCorruption());
  EXPECT_TRUE(ProbeTcfiFile(path_).IsCorruption());
}

TEST_F(TcfiCorruptTest, ShortForeignFileGetsTheRebuildHint) {
  // A file of another format shorter than the TCFI header (an old index
  // of a near-empty tree, say) is named by its magic, not its size.
  const std::string foreign = std::string("TCFT") + std::string(12, '\0');
  ASSERT_LT(foreign.size(), sizeof(TcfiHeader));
  const Status mapped = MapMutated(foreign);
  EXPECT_TRUE(mapped.IsCorruption()) << mapped;
  EXPECT_NE(mapped.message().find("tcf index"), std::string::npos) << mapped;
  const Status probed = ProbeTcfiFile(path_);
  EXPECT_TRUE(probed.IsCorruption()) << probed;
  EXPECT_NE(probed.message().find("tcf index"), std::string::npos) << probed;

  // A short file that starts like TCFI is a torn index, not a foreign
  // one; so is one too short to carry the magic at all.
  for (const size_t cut : {size_t{3}, size_t{16}}) {
    const Status torn = MapMutated(good_.substr(0, cut));
    EXPECT_NE(torn.message().find("shorter than its header"),
              std::string::npos)
        << "cut=" << cut << " -> " << torn;
    const Status torn_probe = ProbeTcfiFile(path_);
    EXPECT_NE(torn_probe.message().find("shorter than its header"),
              std::string::npos)
        << "cut=" << cut << " -> " << torn_probe;
  }
}

TEST_F(TcfiCorruptTest, ForeignEndiannessIsDistinct) {
  std::string bytes = good_;
  TcfiHeader h = header_;
  h.endian = __builtin_bswap32(kTcfiEndianMarker);
  std::memcpy(bytes.data(), &h, sizeof(h));
  const Status st = MapMutated(bytes);
  EXPECT_TRUE(st.IsCorruption());
  EXPECT_NE(st.message().find("endian"), std::string::npos) << st;
}

TEST_F(TcfiCorruptTest, GarbageEndianMarker) {
  std::string bytes = good_;
  TcfiHeader h = header_;
  h.endian = 0xDEADBEEF;
  std::memcpy(bytes.data(), &h, sizeof(h));
  EXPECT_TRUE(MapMutated(bytes).IsCorruption());
}

TEST_F(TcfiCorruptTest, FutureVersionRejected) {
  std::string bytes = good_;
  TcfiHeader h = header_;
  h.version = kTcfiVersion + 1;
  std::memcpy(bytes.data(), &h, sizeof(h));
  FixHeaderCrc(&bytes);
  const Status st = MapMutated(bytes);
  EXPECT_TRUE(st.IsCorruption());
  EXPECT_NE(st.message().find("version"), std::string::npos) << st;
}

TEST_F(TcfiCorruptTest, HeaderByteFlipFailsCrc) {
  std::string bytes = good_;
  TcfiHeader h = header_;
  h.num_nodes += 1;  // lie about the node count, keep the stale CRC
  std::memcpy(bytes.data(), &h, sizeof(h));
  const Status st = MapMutated(bytes);
  EXPECT_TRUE(st.IsCorruption());
  EXPECT_NE(st.message().find("checksum"), std::string::npos) << st;
}

TEST_F(TcfiCorruptTest, TruncationAtEveryBoundary) {
  for (const size_t cut :
       {size_t{0}, size_t{3}, sizeof(TcfiHeader) / 2, sizeof(TcfiHeader) - 1,
        sizeof(TcfiHeader), good_.size() / 2, good_.size() - 1}) {
    const Status st = MapMutated(good_.substr(0, cut));
    EXPECT_TRUE(st.IsCorruption()) << "cut=" << cut << " → " << st;
    EXPECT_TRUE(ProbeTcfiFile(path_).IsCorruption()) << "cut=" << cut;
  }
}

TEST_F(TcfiCorruptTest, TrailingGarbageIsSizeMismatch) {
  const Status st = MapMutated(good_ + "extra");
  EXPECT_TRUE(st.IsCorruption());
  EXPECT_NE(st.message().find("size mismatch"), std::string::npos) << st;
}

TEST_F(TcfiCorruptTest, SectionByteFlipFailsSectionCrc) {
  for (uint32_t s = 0; s < kTcfiNumSections; ++s) {
    const TcfiSection& sec = header_.sections[s];
    if (sec.size == 0) continue;
    std::string bytes = good_;
    bytes[sec.offset] = static_cast<char>(bytes[sec.offset] ^ 0x40);
    const Status st = MapMutated(bytes);
    EXPECT_TRUE(st.IsCorruption()) << "section " << s + 1 << " → " << st;
    EXPECT_NE(st.message().find("checksum"), std::string::npos) << st;
  }
}

TEST_F(TcfiCorruptTest, StructureScanCatchesOutOfBoundsSlice) {
  // Forge a child slice pointing past the arena, re-stamp both the
  // section CRC and the header CRC so only the structural scan can
  // object — this is the no-checksum torture case.
  std::string bytes = good_;
  TcfiHeader h = header_;
  const TcfiSection& nodes_sec = h.sections[kTcfiNodes - 1];
  TcfiNodeRec rec;
  std::memcpy(&rec, bytes.data() + nodes_sec.offset, sizeof(rec));
  rec.children_begin = ~uint64_t{0} / 2;
  std::memcpy(bytes.data() + nodes_sec.offset, &rec, sizeof(rec));
  h.sections[kTcfiNodes - 1].crc32 = tcfi_internal::Crc32(
      bytes.data() + nodes_sec.offset, nodes_sec.size);
  std::memcpy(bytes.data(), &h, sizeof(h));
  FixHeaderCrc(&bytes);
  const Status st = MapMutated(bytes);
  EXPECT_TRUE(st.IsCorruption());
  EXPECT_NE(st.message().find("bounds"), std::string::npos) << st;
}

TEST_F(TcfiCorruptTest, MissingFileIsIOError) {
  EXPECT_TRUE(MapTcTree(TempPath("no_such.tcfi")).status().IsIOError());
}

TEST_F(TcfiCorruptTest, EveryRandomByteFlipFailsCleanly) {
  Rng rng(97);
  for (int trial = 0; trial < 200; ++trial) {
    std::string bytes = good_;
    const size_t pos = rng.NextUint64(bytes.size());
    const auto mask =
        static_cast<char>(1 + rng.NextUint64(255));  // non-zero flip
    bytes[pos] = static_cast<char>(bytes[pos] ^ mask);
    // Must never crash. A flip landing in alignment padding can load
    // fine (padding is outside every checksummed payload); anything
    // else must be caught, and a successful load must still agree on
    // the node count.
    WriteFileBytes(path_, bytes);
    const auto mutated = MapTcTree(path_);
    if (mutated.ok()) {
      EXPECT_EQ(mutated->num_nodes(), header_.num_nodes - 1)
          << "pos=" << pos;
    } else {
      EXPECT_TRUE(mutated.status().IsCorruption()) << "pos=" << pos;
    }
    WriteFileBytes(path_, good_);
  }
}

TEST_F(TcfiCorruptTest, RandomTruncationsFailCleanly) {
  Rng rng(98);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t cut = rng.NextUint64(good_.size());
    EXPECT_TRUE(MapMutated(good_.substr(0, cut)).IsCorruption())
        << "cut=" << cut;
  }
}

}  // namespace
}  // namespace tcf
