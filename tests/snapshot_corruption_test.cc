// Corruption robustness of the index-snapshot loader: truncated files,
// bit flips, wrong magic/version, oversized or misaligned section entries
// and element-size mismatches must all be rejected with a clean Status —
// no crash, no out-of-bounds read (the CI sanitize job runs this suite
// under ASan/UBSan), no partially constructed engine. The loader never
// trusts a length or offset read from the file without bounds-checking it
// against the real file size first.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "snapshot/format.h"
#include "test_util.h"

namespace grasp::core {
namespace {

using snapshot::FileHeader;
using snapshot::SectionEntry;

std::string TempPath(const std::string& tag) {
  return ::testing::TempDir() + "grasp_corrupt_" + tag + ".snap";
}

std::vector<char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

/// Fixture: one valid Fig. 1 snapshot plus the baseline answer every
/// mutation is compared against.
class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = grasp::testing::MakeFigure1Dataset();
    engine_ = std::make_unique<KeywordSearchEngine>(dataset_.store,
                                                    dataset_.dictionary);
    path_ = TempPath(::testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name());
    ASSERT_TRUE(engine_->SaveIndex(path_).ok());
    bytes_ = ReadFileBytes(path_);
    ASSERT_GT(bytes_.size(), sizeof(FileHeader));
    baseline_ = Canonical(*engine_);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  static std::vector<std::string> Canonical(const KeywordSearchEngine& e) {
    std::vector<std::string> out;
    for (const auto& rq : e.Search({"2006", "cimiano", "aifb"}, 5).queries) {
      out.push_back(rq.query.CanonicalString());
    }
    return out;
  }

  /// Writes `mutated` and asserts the loader either rejects it cleanly or
  /// (when the mutation only touched bytes outside every checksummed
  /// region, e.g. page padding) loads an engine with the baseline answers.
  void ExpectRejectedOrHarmless(const std::vector<char>& mutated,
                                const std::string& context) {
    WriteFileBytes(path_, mutated);
    auto opened = KeywordSearchEngine::Open(path_);
    if (!opened.ok()) {
      EXPECT_FALSE(opened.status().message().empty()) << context;
      return;
    }
    EXPECT_EQ(Canonical(**opened), baseline_) << context;
  }

  /// Same, but the load must fail outright.
  void ExpectRejected(const std::vector<char>& mutated,
                      const std::string& context) {
    WriteFileBytes(path_, mutated);
    auto opened = KeywordSearchEngine::Open(path_);
    EXPECT_FALSE(opened.ok()) << context;
  }

  /// Patches the section table entry at `index` and recomputes the header's
  /// table checksum, so the mutation reaches the loader's *bounds checks*
  /// instead of being caught by the checksum gate.
  std::vector<char> WithPatchedEntry(
      std::size_t index, const std::function<void(SectionEntry*)>& patch) {
    std::vector<char> mutated = bytes_;
    FileHeader header;
    std::memcpy(&header, mutated.data(), sizeof(header));
    EXPECT_LT(index, header.section_count);
    char* table = mutated.data() + sizeof(FileHeader);
    SectionEntry entry;
    std::memcpy(&entry, table + index * sizeof(SectionEntry), sizeof(entry));
    patch(&entry);
    std::memcpy(table + index * sizeof(SectionEntry), &entry, sizeof(entry));
    header.table_checksum = snapshot::Checksum64(
        table, header.section_count * sizeof(SectionEntry));
    std::memcpy(mutated.data(), &header, sizeof(header));
    return mutated;
  }

  grasp::testing::Dataset dataset_;
  std::unique_ptr<KeywordSearchEngine> engine_;
  std::string path_;
  std::vector<char> bytes_;
  std::vector<std::string> baseline_;
};

TEST_F(SnapshotCorruptionTest, ValidBaselineLoads) {
  auto opened = KeywordSearchEngine::Open(path_);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(Canonical(**opened), baseline_);
}

TEST_F(SnapshotCorruptionTest, MissingFile) {
  auto opened = KeywordSearchEngine::Open(path_ + ".does-not-exist");
  EXPECT_FALSE(opened.ok());
}

TEST_F(SnapshotCorruptionTest, Truncations) {
  // Every prefix class: empty, sub-header, mid-table, mid-payload, off-by-1.
  for (std::size_t size :
       {std::size_t{0}, std::size_t{4}, sizeof(FileHeader) - 1,
        sizeof(FileHeader) + 7, sizeof(FileHeader) + 3 * sizeof(SectionEntry),
        bytes_.size() / 2, bytes_.size() - 1}) {
    std::vector<char> truncated(bytes_.begin(), bytes_.begin() + size);
    ExpectRejected(truncated, "truncate to " + std::to_string(size));
  }
}

TEST_F(SnapshotCorruptionTest, TrailingGarbageRejected) {
  // file_size is pinned in the header, so appended bytes are detected.
  std::vector<char> grown = bytes_;
  grown.insert(grown.end(), 64, '\x5a');
  ExpectRejected(grown, "trailing garbage");
}

TEST_F(SnapshotCorruptionTest, BitFlipsEverywhere) {
  // Sampled single-bit flips across the whole image, including the header
  // and section table. Flips in checksummed regions must be rejected; flips
  // in page-padding gaps are invisible and must leave results identical.
  const std::size_t stride = std::max<std::size_t>(1, bytes_.size() / 97);
  for (std::size_t offset = 0; offset < bytes_.size(); offset += stride) {
    std::vector<char> mutated = bytes_;
    mutated[offset] = static_cast<char>(mutated[offset] ^ (1 << (offset % 8)));
    ExpectRejectedOrHarmless(mutated, "bit flip at " + std::to_string(offset));
  }
}

TEST_F(SnapshotCorruptionTest, WrongMagic) {
  std::vector<char> mutated = bytes_;
  mutated[0] = 'X';
  ExpectRejected(mutated, "magic");
}

TEST_F(SnapshotCorruptionTest, WrongVersion) {
  std::vector<char> mutated = bytes_;
  FileHeader header;
  std::memcpy(&header, mutated.data(), sizeof(header));
  header.format_version = snapshot::kFormatVersion + 1;
  std::memcpy(mutated.data(), &header, sizeof(header));
  ExpectRejected(mutated, "version");
}

TEST_F(SnapshotCorruptionTest, SectionCountOutOfRange) {
  std::vector<char> mutated = bytes_;
  FileHeader header;
  std::memcpy(&header, mutated.data(), sizeof(header));
  header.section_count = snapshot::kMaxSections + 1;
  std::memcpy(mutated.data(), &header, sizeof(header));
  ExpectRejected(mutated, "section count");
}

TEST_F(SnapshotCorruptionTest, OversizedSectionLength) {
  // byte_length far beyond the file, with a *valid* table checksum: only
  // the loader's offset/length bounds check can catch it.
  ExpectRejected(WithPatchedEntry(2,
                                  [](SectionEntry* e) {
                                    e->byte_length = 1ull << 40;
                                  }),
                 "oversized length");
}

TEST_F(SnapshotCorruptionTest, SectionLengthOverflowingOffset) {
  // offset + byte_length wraps around 2^64; the overflow-safe containment
  // check must still reject it.
  ExpectRejected(WithPatchedEntry(2,
                                  [](SectionEntry* e) {
                                    e->byte_length =
                                        ~std::uint64_t{0} - e->offset + 2;
                                  }),
                 "overflowing length");
}

TEST_F(SnapshotCorruptionTest, SectionOffsetBeyondFile) {
  ExpectRejected(WithPatchedEntry(1,
                                  [](SectionEntry* e) {
                                    e->offset = 1ull << 40;
                                  }),
                 "offset beyond file");
}

TEST_F(SnapshotCorruptionTest, MisalignedSectionOffset) {
  ExpectRejected(WithPatchedEntry(1,
                                  [](SectionEntry* e) { e->offset += 8; }),
                 "misaligned offset");
}

TEST_F(SnapshotCorruptionTest, ElementSizeMismatch) {
  ExpectRejected(WithPatchedEntry(0,
                                  [](SectionEntry* e) { e->elem_size += 4; }),
                 "element size");
}

TEST_F(SnapshotCorruptionTest, ZeroElementSize) {
  ExpectRejected(WithPatchedEntry(0,
                                  [](SectionEntry* e) { e->elem_size = 0; }),
                 "zero element size");
}

TEST_F(SnapshotCorruptionTest, DuplicateSectionId) {
  ExpectRejected(WithPatchedEntry(1,
                                  [](SectionEntry* e) {
                                    e->id = snapshot::kSectionMeta;
                                  }),
                 "duplicate id");
}

TEST_F(SnapshotCorruptionTest, RetiredSectionIdStillOpens) {
  // Images written while section 34 carried a shard plan must still open
  // and answer unchanged: the id is retired, and readers skip ids they do
  // not read. Append a well-formed table entry with id 34 (a clone of entry
  // 0's offset, length and checksum) in the padding after the table.
  constexpr std::uint32_t kRetiredShardPlan = 34;
  std::vector<char> mutated = bytes_;
  FileHeader header;
  std::memcpy(&header, mutated.data(), sizeof(header));
  char* table = mutated.data() + sizeof(FileHeader);
  SectionEntry entry;
  std::memcpy(&entry, table, sizeof(entry));
  const std::size_t new_table_end =
      sizeof(FileHeader) + (header.section_count + 1) * sizeof(SectionEntry);
  for (std::uint32_t i = 0; i < header.section_count; ++i) {
    SectionEntry existing;
    std::memcpy(&existing, table + i * sizeof(SectionEntry), sizeof(existing));
    ASSERT_NE(existing.id, kRetiredShardPlan);
    ASSERT_LE(new_table_end, existing.offset) << "no padding for one entry";
  }
  entry.id = kRetiredShardPlan;
  std::memcpy(table + header.section_count * sizeof(SectionEntry), &entry,
              sizeof(entry));
  ++header.section_count;
  header.table_checksum = snapshot::Checksum64(
      table, header.section_count * sizeof(SectionEntry));
  std::memcpy(mutated.data(), &header, sizeof(header));

  WriteFileBytes(path_, mutated);
  auto opened = KeywordSearchEngine::Open(path_);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(Canonical(**opened), baseline_);
}

TEST_F(SnapshotCorruptionTest, NotASnapshotAtAll) {
  std::vector<char> junk(8192, '\x42');
  ExpectRejected(junk, "junk file");
  std::vector<char> empty;
  ExpectRejected(empty, "empty file");
}

}  // namespace
}  // namespace grasp::core
