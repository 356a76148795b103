#include "digest.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace e2ebench {

std::string digest_hex(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(h));
  return hex;
}

bool DigestTable::load(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read digest file " + path;
    return false;
  }
  std::string line;
  int number = 0;
  while (std::getline(in, line)) {
    ++number;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, index, key, hex, extra;
    if (!(fields >> workload >> index >> key >> hex) || (fields >> extra) ||
        hex.size() != 16 ||
        hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
      *error = path + ":" + std::to_string(number) + ": malformed digest line";
      return false;
    }
    pinned_[workload + " " + index + " " + key] = hex;
  }
  return true;
}

bool DigestTable::check(const std::string& workload, std::uint64_t index,
                        const std::string& key, std::string_view bytes) {
  ++checked_;
  const std::string id = workload + " " + std::to_string(index) + " " + key;
  const std::string hex = digest_hex(bytes);
  if (pin_mode_) {
    pinned_[id] = hex;
    return true;
  }
  const auto it = pinned_.find(id);
  if (it == pinned_.end()) {
    mismatches_.push_back(id + ": no pinned digest (got " + hex + ")");
    return false;
  }
  if (it->second != hex) {
    mismatches_.push_back(id + ": pinned " + it->second + ", got " + hex);
    return false;
  }
  return true;
}

bool DigestTable::save(const std::string& path) const {
  std::ofstream out(path);
  out << "# Pinned output digests of the e2ebench workloads (FNV-1a 64).\n"
         "# <workload> <input index> <output key> <digest>; regenerate with\n"
         "# `python3 e2ebench/run.py --pin` only when the program's outputs\n"
         "# are meant to change.\n";
  for (const auto& [id, hex] : pinned_) out << id << ' ' << hex << '\n';
  return static_cast<bool>(out);
}

}  // namespace e2ebench
