// The append-only checkpoint journal: the one persistence primitive behind
// campaign manifests, lease ledgers and fuzz manifests (core/).
//
// File layout: an 8-byte magic, then framed records. Record 0 is the
// header (the owner's spec document); every later record is one event.
// Each frame is
//
//   u32 length | u32 ~length | u64 FNV-1a 64 of the payload | payload
//
// little-endian. The complemented length makes the frame header
// self-checking, so a corrupted length is never mistaken for a torn tail.
//
// Durability: create() writes `<path>.tmp`, fsyncs it, renames it over
// `path` and fsyncs the directory; append() is one write() of the framed
// record(s) followed by fdatasync(). A checkpoint therefore costs O(record),
// not O(everything so far).
//
// Torn tail versus corruption: a crash mid-append can leave a partial final
// record (the file ends inside a frame, or the final payload fails its
// checksum). That is a torn tail: read_journal() returns the complete
// prefix without touching the file (readers poll journals that a writer is
// appending to), and only JournalWriter::open_for_append() truncates it.
// A bad frame header anywhere, an oversized length, or a checksum mismatch
// on a record that is followed by more bytes is corruption: a kParseError
// carrying the byte offset, never dropped silently.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/expected.hpp"

namespace vppstudy::common {

/// Replace `path` atomically and durably with `contents`: write
/// `<path>.tmp`, fsync it, rename it over `path`, fsync the directory.
[[nodiscard]] Status atomic_replace_file(const std::string& path,
                                         std::string_view contents);

/// FNV-1a 64 of `bytes` (the frame checksum).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes) noexcept;

/// Append one framed record to `out`.
void append_journal_frame(std::string& out, std::string_view payload);

struct JournalContents {
  std::string header;
  std::vector<std::string> records;  ///< events after the header, in order
  std::uint64_t valid_bytes = 0;     ///< end of the last complete record
  bool torn_tail = false;            ///< a partial final record follows
};

/// Parse journal bytes. A pre-journal single JSON document, a bad magic and
/// a truncated header are typed kParseErrors; see the file comment for
/// torn tails and corruption.
[[nodiscard]] Result<JournalContents> parse_journal(std::string_view bytes);

/// Read-only: never modifies the file, even when its tail is torn.
[[nodiscard]] Result<JournalContents> read_journal(const std::string& path);

/// The single writer of one journal file.
class JournalWriter {
 public:
  JournalWriter() = default;
  JournalWriter(JournalWriter&& other) noexcept;
  JournalWriter& operator=(JournalWriter&& other) noexcept;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;
  ~JournalWriter();

  /// Write a complete journal (header + records) through
  /// atomic_replace_file and keep it open for appending.
  [[nodiscard]] static Result<JournalWriter> create(
      const std::string& path, std::string_view header,
      const std::vector<std::string>& records = {});
  /// Open an existing journal for appending: reads it into `contents` and
  /// truncates a torn final record (durably) before the first append.
  [[nodiscard]] static Result<JournalWriter> open_for_append(
      const std::string& path, JournalContents& contents);

  /// One write() of the framed record(s), then fdatasync(). A failed
  /// append truncates its partial frame away (best effort) and fails every
  /// later append: records after a gap would read as corruption.
  [[nodiscard]] Status append(std::string_view record);
  [[nodiscard]] Status append(const std::vector<std::string>& records);

  [[nodiscard]] bool is_open() const noexcept { return fd_ >= 0; }

 private:
  [[nodiscard]] Status write_frames(const std::string& frames);

  int fd_ = -1;
  std::string path_;
  std::uint64_t end_ = 0;  ///< end of the last durable record
  bool failed_ = false;
};

}  // namespace vppstudy::common
