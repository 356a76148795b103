#include "common/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <utility>

namespace vppstudy::common {

namespace {

constexpr std::string_view kMagic = "vppjrnl1";
/// u32 length + u32 ~length + u64 checksum.
constexpr std::size_t kFrameBytes = 16;
/// Frames larger than this are corruption, not data.
constexpr std::uint32_t kMaxRecordBytes = 1u << 28;

Error io_error(const char* what, const std::string& path) {
  return Error{ErrorCode::kIoError, std::string("journal: ") + what + " " +
                                        path + ": " + std::strerror(errno)};
}

Error parse_error(std::uint64_t offset, const std::string& what) {
  return Error{ErrorCode::kParseError,
               "journal: " + what + " at byte " + std::to_string(offset)};
}

void put_le(std::string& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

std::uint64_t get_le(std::string_view in, std::size_t at, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(in[at + i]))
         << (8 * i);
  }
  return v;
}

bool write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ::ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// fsync the directory holding `path`, so a rename into it is durable.
Status sync_directory(const std::string& path) {
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return io_error("open directory", dir);
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  if (!ok) return io_error("fsync directory", dir);
  return Status::ok_status();
}

}  // namespace

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

void append_journal_frame(std::string& out, std::string_view payload) {
  const auto len = static_cast<std::uint32_t>(payload.size());
  put_le(out, len, 4);
  put_le(out, static_cast<std::uint32_t>(~len), 4);
  put_le(out, fnv1a64(payload), 8);
  out.append(payload);
}

Status atomic_replace_file(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return io_error("create", tmp);
  bool ok = write_all(fd, contents) && ::fsync(fd) == 0;
  ok = ::close(fd) == 0 && ok;
  if (!ok) {
    Error error = io_error("write", tmp);
    ::unlink(tmp.c_str());
    return error;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    Error error = io_error("rename onto", path);
    ::unlink(tmp.c_str());
    return error;
  }
  return sync_directory(path);
}

Result<JournalContents> parse_journal(std::string_view bytes) {
  if (bytes.substr(0, kMagic.size()) != kMagic) {
    const std::size_t first = bytes.find_first_not_of(" \t\r\n");
    if (first != std::string_view::npos && bytes[first] == '{') {
      return Error{ErrorCode::kParseError,
                   "journal: a pre-journal single-document JSON file; that "
                   "format is no longer read (re-run the campaign)"};
    }
    if (bytes.size() < kMagic.size() &&
        kMagic.substr(0, bytes.size()) == bytes) {
      return parse_error(bytes.size(), "truncated header");
    }
    return parse_error(0, "bad magic (not a journal)");
  }
  JournalContents contents;
  bool have_header = false;
  std::size_t pos = kMagic.size();
  contents.valid_bytes = pos;
  while (pos < bytes.size()) {
    const std::size_t remain = bytes.size() - pos;
    if (remain < kFrameBytes) break;  // torn inside a frame header
    const auto len = static_cast<std::uint32_t>(get_le(bytes, pos, 4));
    const auto check = static_cast<std::uint32_t>(get_le(bytes, pos + 4, 4));
    if (check != static_cast<std::uint32_t>(~len)) {
      return parse_error(pos, "bad record length");
    }
    if (len > kMaxRecordBytes) {
      return parse_error(pos, "oversized record length " + std::to_string(len));
    }
    if (remain - kFrameBytes < len) break;  // torn inside a payload
    const std::string_view payload = bytes.substr(pos + kFrameBytes, len);
    const std::size_t end = pos + kFrameBytes + len;
    if (fnv1a64(payload) != get_le(bytes, pos + 8, 8)) {
      // Only the final record may be torn; the header never is (create
      // writes it through a rename).
      if (end == bytes.size() && have_header) break;
      return parse_error(pos, "record checksum mismatch");
    }
    if (have_header) {
      contents.records.emplace_back(payload);
    } else {
      contents.header.assign(payload);
      have_header = true;
    }
    pos = end;
    contents.valid_bytes = pos;
  }
  if (!have_header) return parse_error(contents.valid_bytes, "truncated header");
  contents.torn_tail = contents.valid_bytes < bytes.size();
  return contents;
}

Result<JournalContents> read_journal(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return Error{ErrorCode::kIoError, "journal: cannot read " + path};
  }
  const std::string bytes((std::istreambuf_iterator<char>(file)),
                          std::istreambuf_iterator<char>());
  return parse_journal(bytes).transform_error(
      [&path](Error&& e) { return std::move(e).with_context(path); });
}

JournalWriter::JournalWriter(JournalWriter&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)),
      end_(other.end_),
      failed_(other.failed_) {}

JournalWriter& JournalWriter::operator=(JournalWriter&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    end_ = other.end_;
    failed_ = other.failed_;
  }
  return *this;
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Result<JournalWriter> JournalWriter::create(
    const std::string& path, std::string_view header,
    const std::vector<std::string>& records) {
  std::string bytes(kMagic);
  append_journal_frame(bytes, header);
  for (const std::string& record : records) {
    append_journal_frame(bytes, record);
  }
  VPP_RETURN_IF_ERROR(atomic_replace_file(path, bytes));
  JournalWriter writer;
  writer.path_ = path;
  writer.end_ = bytes.size();
  writer.fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (writer.fd_ < 0) return io_error("open", path);
  return writer;
}

Result<JournalWriter> JournalWriter::open_for_append(const std::string& path,
                                                     JournalContents& contents) {
  VPP_ASSIGN_OR_RETURN(contents, read_journal(path));
  JournalWriter writer;
  writer.path_ = path;
  writer.end_ = contents.valid_bytes;
  writer.fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (writer.fd_ < 0) return io_error("open", path);
  if (contents.torn_tail) {
    if (::ftruncate(writer.fd_, static_cast<::off_t>(contents.valid_bytes)) !=
            0 ||
        ::fsync(writer.fd_) != 0) {
      return io_error("truncate torn tail of", path);
    }
    contents.torn_tail = false;
  }
  return writer;
}

Status JournalWriter::append(std::string_view record) {
  std::string frames;
  append_journal_frame(frames, record);
  return write_frames(frames);
}

Status JournalWriter::append(const std::vector<std::string>& records) {
  std::string frames;
  for (const std::string& record : records) {
    append_journal_frame(frames, record);
  }
  return write_frames(frames);
}

Status JournalWriter::write_frames(const std::string& frames) {
  if (fd_ < 0 || failed_) {
    return Error{ErrorCode::kIoError,
                 "journal: append to a closed or failed writer of " + path_};
  }
  if (!write_all(fd_, frames) || ::fdatasync(fd_) != 0) {
    Error error = io_error("append to", path_);
    failed_ = true;
    (void)::ftruncate(fd_, static_cast<::off_t>(end_));
    return error;
  }
  end_ += frames.size();
  return Status::ok_status();
}

}  // namespace vppstudy::common
