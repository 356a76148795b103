// Content-addressed result cache of the vppd daemon.
//
// The campaign engine's determinism contract (core/shard.hpp: every
// sampled row derives its noise from row_stream_seed, never from scheduling
// or shard grouping) makes each grid cell -- one sampled row at one VPP
// level under one experiment phase -- a pure function of its key. This cache
// stores cells under
//
//   hash_key({config_digest, phase, module_seed, vpp_mv, row})
//
// where config_digest folds in every result-affecting field of the
// SweepConfig plus the campaign seed. Two requests whose digests match share
// cells: an overlapping sweep (e.g. step 0.4 after step 0.2 -- a subset of
// the same millivolt grid) recomputes nothing, and a partially overlapping
// one recomputes exactly the uncovered cells. Cache hits are byte-identical
// to fresh computation because the cached value *is* the fresh computation.
//
// The WCDP determination pass (phase A, section 4.1) is cached separately
// per (digest, module): it walks all sampled rows in one session at nominal
// VPP and its output vector is parallel to the row set, which the digest
// pins via the sampling fields.
//
// Capacity: by default the cache grows without bound (the historical
// behavior). Constructing with max_cells > 0 bounds the *cell* map: once
// resident cells exceed the cap, the least recently used cells are evicted
// (lookups and inserts both refresh recency). Eviction only ever costs
// recompute -- an evicted cell is recomputed bit-identically on the next
// request -- so correctness is untouched. WCDP prep vectors are NOT bounded:
// there is one per (digest, module), a population too small to matter and
// too expensive to recompute per request.
//
// Thread safety: all methods are safe to call concurrently (one mutex; cell
// values are copied out). Insertion happens only with whole completed rows
// -- a cancelled shard inserts nothing -- so no reader can observe a torn
// cell.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/shard.hpp"
#include "core/study.hpp"

namespace vppstudy::server {

/// One cached grid cell. The phase is part of the key, so each entry only
/// populates its own phase's fields; the rest stay at defaults.
struct CellValue {
  dram::DataPattern wcdp = dram::DataPattern::kCheckerAA;
  // kRowHammer
  std::uint64_t hc_first = 0;
  double ber = 0.0;
  // kTrcd
  double trcd_min_ns = 0.0;
  // kRetention: worst BER per tREFW window (the window grid is part of the
  // config digest, so parallel vectors from the same digest line up).
  std::vector<double> retention_ber;
};

class ResultCache {
 public:
  /// `max_cells` == 0 leaves the cell map unbounded; > 0 caps resident
  /// cells with LRU eviction (vppd --cache-max-cells).
  explicit ResultCache(std::uint64_t max_cells = 0) : max_cells_(max_cells) {}

  /// Digest of every result-affecting request-level input: the campaign
  /// seed, the row sampling (which pins the sampled row set), the nominal
  /// VPP level (the WCDP pass's operating point), and all three phase
  /// configs. The per-cell axes -- phase, module, VPP level, row -- are NOT
  /// in the digest; they are the key's other components, which is what lets
  /// requests with different level grids share cells.
  [[nodiscard]] static std::uint64_t config_digest(
      const core::SweepConfig& sweep, std::uint64_t seed);

  [[nodiscard]] static std::uint64_t cell_key(std::uint64_t digest,
                                              core::JobPhase phase,
                                              std::uint64_t module_seed,
                                              std::uint64_t vpp_mv,
                                              std::uint32_t row);

  /// Cell key of one sampled row at one multi-axis grid point. `point` must
  /// be normalized (core::AxisPoint::normalized): a baseline point hashes to
  /// exactly cell_key(...) -- multi-axis requests share every baseline cell
  /// with VPP-only requests -- and each off-default coordinate extends the
  /// key with its quantized axis word, so e.g. a 65C hammer cell can never
  /// alias the 50C default cell of the same (digest, module, vpp, row).
  [[nodiscard]] static std::uint64_t point_key(std::uint64_t digest,
                                               core::JobPhase phase,
                                               std::uint64_t module_seed,
                                               const core::AxisPoint& point,
                                               std::uint32_t row);
  [[nodiscard]] static std::uint64_t wcdp_key(std::uint64_t digest,
                                              std::uint64_t module_seed);

  /// Copy the cell under `key` into `*out`. Counts a hit or a miss.
  [[nodiscard]] bool lookup(std::uint64_t key, CellValue* out) const;
  void insert(std::uint64_t key, CellValue value);

  [[nodiscard]] bool lookup_wcdp(std::uint64_t key,
                                 std::vector<dram::DataPattern>* out) const;
  void insert_wcdp(std::uint64_t key, std::vector<dram::DataPattern> wcdp);

  /// Cumulative accounting since construction (served by the `stats`
  /// request and asserted by the stress tests).
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t cells = 0;       ///< resident cell entries
    std::uint64_t wcdp_preps = 0;  ///< resident WCDP prep vectors
    std::uint64_t evictions = 0;   ///< cells dropped by the LRU bound
    std::uint64_t max_cells = 0;   ///< the configured bound (0 = unbounded)
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct CellEntry {
    CellValue value;
    /// This cell's position in lru_ (most recent at the front). list
    /// iterators survive splicing, so refreshing recency never touches the
    /// map entry.
    std::list<std::uint64_t>::iterator pos;
  };

  void evict_over_cap();

  const std::uint64_t max_cells_;
  mutable std::mutex mu_;
  mutable std::list<std::uint64_t> lru_;
  std::unordered_map<std::uint64_t, CellEntry> cells_;
  std::unordered_map<std::uint64_t, std::vector<dram::DataPattern>> wcdp_;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace vppstudy::server
