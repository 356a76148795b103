// Output check of the benchmark: every deterministic output a workload
// produces (grid CSV/JSON and instrumentation via core/export, vppd result
// texts) is hashed and compared against digests pinned in a text file.
//
// File format, one digest per line ('#' starts a comment):
//   <workload> <input index> <output key> <16 hex digits>
// The input index is the seed's residue (see workloads.hpp); the output key
// names one output of that input (e.g. "grid" or a request shape).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace e2ebench {

/// 64-bit FNV-1a of `bytes`, as 16 lowercase hex digits.
[[nodiscard]] std::string digest_hex(std::string_view bytes);

class DigestTable {
 public:
  /// Parse a digest file. Malformed lines are an error (returned as false
  /// with `error` set), so a damaged table cannot silently pass.
  [[nodiscard]] bool load(const std::string& path, std::string* error);

  /// Compare `bytes` with the pinned digest of (workload, index, key). In
  /// pin mode the digest is recorded instead. Returns false, and records a
  /// mismatch, when the digest is missing or differs.
  bool check(const std::string& workload, std::uint64_t index,
             const std::string& key, std::string_view bytes);

  void set_pin_mode(bool on) noexcept { pin_mode_ = on; }
  /// Write every pinned digest (pin mode) back to `path`, sorted.
  [[nodiscard]] bool save(const std::string& path) const;

  [[nodiscard]] const std::vector<std::string>& mismatches() const noexcept {
    return mismatches_;
  }
  [[nodiscard]] std::uint64_t checked() const noexcept { return checked_; }

 private:
  bool pin_mode_ = false;
  std::map<std::string, std::string> pinned_;  ///< "workload index key" -> hex
  std::vector<std::string> mismatches_;
  std::uint64_t checked_ = 0;
};

}  // namespace e2ebench
