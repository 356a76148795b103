// The checkpoint journal (common/journal): framing round trips, the
// torn-tail versus corruption rule, the read-only versus writer-open rule,
// and the seeded malformed-journal corpus in tests/core/corpus/journal/.
// Every corpus file is a campaign manifest journal (or a deliberately
// broken one); each must map to exactly its expected typed outcome.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "common/journal.hpp"
#include "core/campaign.hpp"

namespace vppstudy::common {
namespace {

std::string temp_path(const char* tag) {
  return ::testing::TempDir() + "journal_" + tag + "_" +
         std::to_string(::getpid()) + ".bin";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST(Journal, CreateAppendReadRoundTrip) {
  const std::string path = temp_path("roundtrip");
  {
    auto writer = JournalWriter::create(path, "{\"h\":1}", {"a", "bb"});
    ASSERT_TRUE(writer.has_value()) << writer.error().to_string();
    ASSERT_TRUE(writer->append("ccc").ok());
    ASSERT_TRUE(writer->append(std::vector<std::string>{"", "dddd"}).ok());
  }
  auto contents = read_journal(path);
  ASSERT_TRUE(contents.has_value()) << contents.error().to_string();
  EXPECT_EQ(contents->header, "{\"h\":1}");
  EXPECT_EQ(contents->records,
            (std::vector<std::string>{"a", "bb", "ccc", "", "dddd"}));
  EXPECT_FALSE(contents->torn_tail);
  EXPECT_EQ(contents->valid_bytes, read_file(path).size());
  // create() leaves no temporary behind.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(Journal, FrameIsLengthComplementChecksumPayload) {
  std::string frame;
  append_journal_frame(frame, "xyz");
  ASSERT_EQ(frame.size(), 16u + 3u);
  EXPECT_EQ(frame.substr(0, 4), std::string("\x03\x00\x00\x00", 4));
  EXPECT_EQ(frame.substr(4, 4), std::string("\xfc\xff\xff\xff", 4));
  std::uint64_t sum = 0;
  for (int i = 0; i < 8; ++i) {
    sum |= static_cast<std::uint64_t>(static_cast<unsigned char>(frame[8 + i]))
           << (8 * i);
  }
  EXPECT_EQ(sum, fnv1a64("xyz"));
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);  // the FNV-1a offset basis
  EXPECT_EQ(frame.substr(16), "xyz");
}

// A half-written final record is a torn tail: read_journal returns the
// prefix and leaves the bytes alone; only the writer truncates them.
TEST(Journal, ReadStopsAtTornTailAndOnlyTheWriterTruncates) {
  const std::string path = temp_path("torn");
  ASSERT_TRUE(JournalWriter::create(path, "head", {"one"}).has_value());
  const std::string whole = read_file(path);
  std::string frame;
  append_journal_frame(frame, "two-is-longer");
  for (const std::size_t cut : {std::size_t{5}, std::size_t{16},
                                frame.size() - 1}) {
    SCOPED_TRACE(cut);
    write_file(path, whole + frame.substr(0, cut));
    auto read = read_journal(path);
    ASSERT_TRUE(read.has_value()) << read.error().to_string();
    EXPECT_TRUE(read->torn_tail);
    EXPECT_EQ(read->records, std::vector<std::string>{"one"});
    EXPECT_EQ(read->valid_bytes, whole.size());
    EXPECT_EQ(read_file(path).size(), whole.size() + cut);  // untouched

    JournalContents contents;
    auto writer = JournalWriter::open_for_append(path, contents);
    ASSERT_TRUE(writer.has_value()) << writer.error().to_string();
    EXPECT_EQ(read_file(path), whole);  // truncated to the valid prefix
    ASSERT_TRUE(writer->append("three").ok());
    auto after = read_journal(path);
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(after->records, (std::vector<std::string>{"one", "three"}));
    EXPECT_FALSE(after->torn_tail);
  }
  std::remove(path.c_str());
}

// A final record whose payload is complete but fails its checksum is torn
// too (the crash left garbage, not a short write); the same bytes followed
// by another record are corruption.
TEST(Journal, ChecksumMismatchIsTornOnlyAtTheEnd) {
  std::string bytes = "vppjrnl1";
  append_journal_frame(bytes, "head");
  const std::size_t bad_at = bytes.size();
  append_journal_frame(bytes, "record");
  bytes[bytes.size() - 1] ^= 0x20;
  auto torn = parse_journal(bytes);
  ASSERT_TRUE(torn.has_value()) << torn.error().to_string();
  EXPECT_TRUE(torn->torn_tail);
  EXPECT_TRUE(torn->records.empty());

  append_journal_frame(bytes, "next");
  auto corrupt = parse_journal(bytes);
  ASSERT_FALSE(corrupt.has_value());
  EXPECT_EQ(corrupt.error().code, ErrorCode::kParseError);
  EXPECT_NE(corrupt.error().message.find(
                "checksum mismatch at byte " + std::to_string(bad_at)),
            std::string::npos)
      << corrupt.error().message;
}

// A write that fails part-way (here: the file-size limit) must not leave
// a partial frame that later appends would bury mid-file as corruption.
TEST(Journal, FailedAppendLeavesNoPartialFrameAndStopsTheWriter) {
  const std::string path = temp_path("failed_append");
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::signal(SIGXFSZ, SIG_IGN);  // EFBIG instead of a signal
    auto writer = JournalWriter::create(path, "head", {"one"});
    if (!writer) ::_exit(2);
    const rlimit limit{static_cast<rlim_t>(read_file(path).size() + 20),
                       RLIM_INFINITY};
    if (::setrlimit(RLIMIT_FSIZE, &limit) != 0) ::_exit(3);
    if (writer->append(std::string(100, 'x')).ok()) ::_exit(4);
    if (writer->append("tiny").ok()) ::_exit(5);  // the writer stays failed
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);
  auto read = read_journal(path);
  ASSERT_TRUE(read.has_value()) << read.error().to_string();
  EXPECT_FALSE(read->torn_tail);
  EXPECT_EQ(read->records, std::vector<std::string>{"one"});
  std::remove(path.c_str());
}

TEST(Journal, EmptyAndMagicOnlyFilesAreTruncatedHeaders) {
  for (const std::string& bytes : {std::string(), std::string("vppj"),
                                  std::string("vppjrnl1")}) {
    auto read = parse_journal(bytes);
    ASSERT_FALSE(read.has_value()) << bytes;
    EXPECT_EQ(read.error().code, ErrorCode::kParseError);
    EXPECT_NE(read.error().message.find("truncated header"), std::string::npos)
        << read.error().message;
  }
}

TEST(Journal, AtomicReplaceFileReplacesContents) {
  const std::string path = temp_path("replace");
  ASSERT_TRUE(atomic_replace_file(path, "first\n").ok());
  ASSERT_TRUE(atomic_replace_file(path, "2\n").ok());
  EXPECT_EQ(read_file(path), "2\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
  // A missing directory is a typed I/O error, not a crash.
  const auto missing = atomic_replace_file("/nonexistent-dir/x", "1");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, ErrorCode::kIoError);
}

// --- Seeded malformed-journal corpus -----------------------------------------

/// What reading one corpus file must produce. Offsets are the byte
/// positions of the offending frames; the generator notes in
/// tests/core/corpus/journal/README.md say how each file was made.
struct CorpusCase {
  bool read_ok = false;        ///< read_journal succeeds
  std::string message;         ///< expected error fragment (read or load)
  std::size_t records = 0;     ///< read_ok: complete records after the header
  bool torn = false;           ///< read_ok: a torn tail follows them
  bool load_ok = false;        ///< load_campaign_manifest succeeds
};

const std::map<std::string, CorpusCase>& corpus_cases() {
  static const std::map<std::string, CorpusCase> cases = {
      {"valid.bin", {true, "", 3, false, true}},
      {"truncated_header.bin",
       {false, "truncated header at byte 8", 0, false, false}},
      {"torn_final_record.bin", {true, "", 2, true, true}},
      {"bad_checksum_mid.bin",
       {false, "record checksum mismatch at byte 983", 0, false, false}},
      {"length_past_eof.bin",
       {false, "bad record length at byte 983", 0, false, false}},
      {"oversized_length.bin",
       {false, "oversized record length 2147483647 at byte 983", 0, false,
        false}},
      {"wrong_schema.bin",
       {true, "unrecognized schema 'vppstudy-trace-dump/1'", 3, false,
        false}},
      {"wrong_version.bin", {true, "unsupported version 1", 3, false, false}},
      {"bad_magic.bin",
       {false, "bad magic (not a journal) at byte 0", 0, false, false}},
      {"pre_journal_manifest.json",
       {false, "pre-journal single-document", 0, false, false}},
  };
  return cases;
}

TEST(JournalCorpus, EveryCaseGetsItsExpectedTypedResult) {
  const std::filesystem::path corpus(JOURNAL_CORPUS_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(corpus)) << corpus;
  std::size_t seen = 0;
  for (const auto& entry : std::filesystem::directory_iterator(corpus)) {
    const std::string name = entry.path().filename().string();
    if (name == "README.md") continue;
    SCOPED_TRACE(name);
    const auto it = corpus_cases().find(name);
    ASSERT_NE(it, corpus_cases().end()) << "corpus file without expectation";
    const CorpusCase& want = it->second;
    ++seen;

    auto read = read_journal(entry.path().string());
    ASSERT_EQ(read.has_value(), want.read_ok)
        << (read ? std::string("read succeeded") : read.error().to_string());
    auto load = core::load_campaign_manifest(entry.path().string());
    ASSERT_EQ(load.has_value(), want.load_ok)
        << (load ? std::string("load succeeded") : load.error().to_string());
    if (!want.load_ok) {
      EXPECT_EQ(load.error().code, ErrorCode::kParseError);
      EXPECT_NE(load.error().to_string().find(want.message), std::string::npos)
          << load.error().to_string();
    }
    if (!want.read_ok) continue;
    EXPECT_EQ(read->records.size(), want.records);
    EXPECT_EQ(read->torn_tail, want.torn);
    if (want.load_ok) {
      EXPECT_EQ(load->wcdp.size() + load->shards.size(), want.records);
    }
    if (!want.torn) continue;
    // Only the writer truncates: open a copy for appending.
    const std::string copy = temp_path("corpus_copy");
    std::filesystem::copy_file(entry.path(), copy,
                               std::filesystem::copy_options::overwrite_existing);
    const std::string before = read_file(copy);
    JournalContents contents;
    auto writer = JournalWriter::open_for_append(copy, contents);
    ASSERT_TRUE(writer.has_value()) << writer.error().to_string();
    EXPECT_EQ(read_file(copy), before.substr(0, read->valid_bytes));
    EXPECT_EQ(contents.records, read->records);
    std::remove(copy.c_str());
  }
  // The corpus documents the failure classes; losing a file fails loudly.
  EXPECT_EQ(seen, corpus_cases().size());
}

}  // namespace
}  // namespace vppstudy::common
