#include "dram/module.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>

#include "common/rng.hpp"
#include "common/simd.hpp"

namespace vppstudy::dram {

using common::Error;
using common::ErrorCode;
using common::Status;

namespace {

/// Skip a whole-row physics pass when the expected flip count is below this.
constexpr double kNegligibleExpectedFlips = 1e-3;

/// Probability floor below which individual hash draws are skipped.
constexpr double kNegligibleCellProbability = 1e-12;

}  // namespace

Error Module::range_error(std::string what, std::uint32_t value,
                          std::uint32_t limit) const {
  return Error{ErrorCode::kInvalidArgument,
               std::move(what) + " " + std::to_string(value) +
                   " out of range (limit " + std::to_string(limit) + ")"}
      .with_module(profile_.name);
}

Module::Module(ModuleProfile profile)
    : Module(std::move(profile), Options{}) {}

Module::Module(ModuleProfile profile, Options options)
    : profile_(std::move(profile)),
      options_(options),
      physics_(profile_),
      mapping_(scheme_for(profile_.mfr), profile_.rows_per_bank,
               profile_.row_repairs),
      trr_(profile_.banks, TrrEngine::Options{}),
      banks_(profile_.banks),
      physics_store_(profile_.banks) {}

void Module::reset_device_state() {
  banks_.clear();
  banks_.resize(profile_.banks);  // physics_store_ survives, by design
  stats_ = ModuleStats{};
  vpp_v_ = common::kNominalVppV;
  temp_c_ = common::kHammerTestTempC;
  refresh_cursor_ = 0;
  noise_stream_ = 0;
  read_noise_counter_ = 0;
  hammer_noise_counter_ = 0;
  measurement_noise_sigma_ = 0.0;
  mode_registers_ = ModeRegisters{};
  trr_.reset();
  trr_enabled_ = true;
}

Status Module::check_responsive() const {
  if (!responsive()) {
    return Error{ErrorCode::kModuleUnresponsive,
                 "module " + profile_.name +
                     " does not respond: VPP below VPPmin (" +
                     std::to_string(profile_.vppmin_v) + "V)"}
        .with_module(profile_.name)
        .with_vpp_mv(static_cast<std::int64_t>(std::lround(vpp_v_ * 1000.0)));
  }
  return Status::ok_status();
}

double Module::acts_of(const BankState& b,
                       std::uint32_t physical_row) const {
  const auto it = b.acts.find(physical_row);
  return it == b.acts.end() ? 0.0 : it->second;
}

Module::RowState& Module::row_state(BankState& bank_state, std::uint32_t bank,
                                    std::uint32_t physical_row) {
  auto [it, inserted] = bank_state.rows.try_emplace(physical_row);
  RowState& rs = it->second;
  if (inserted) {
    // A never-touched row: treat it as restored "long ago" with power-up
    // content. Its first activation will not see artificial decay because
    // restore_time starts at the current epoch when first sensed.
    rs.restore_time_ns = 0.0;
    rs.restore_vpp = vpp_v_;
    rs.neigh_below_acts = acts_of(bank_state, physical_row - 1);
    rs.neigh_above_acts = acts_of(bank_state, physical_row + 1);
    rs.neigh2_below_acts = acts_of(bank_state, physical_row - 2);
    rs.neigh2_above_acts = acts_of(bank_state, physical_row + 2);
    rs.physics = &physics_store_[bank][physical_row];
  }
  return rs;
}

void Module::ensure_initialized(std::uint32_t bank,
                                std::uint32_t physical_row, RowState& rs) {
  if (rs.initialized) return;
  RowPhysicsCache& pc = *rs.physics;
  if (pc.powerup.empty()) {
    // Deterministic power-up content:
    // byte[i] = hash_key({seed, bank, row, i, 0xb007}), batched through the
    // SIMD walk kernel over the fixed (seed, bank, row) prefix.
    pc.powerup.resize(kBytesPerRow);
    std::uint64_t prefix =
        common::hash_accumulate(common::kHashInit, profile_.seed);
    prefix = common::hash_accumulate(prefix, bank);
    prefix = common::hash_accumulate(prefix, physical_row);
    constexpr std::uint32_t kChunk = 1024;
    std::uint64_t hashes[kChunk];
    for (std::uint32_t base = 0; base < kBytesPerRow; base += kChunk) {
      common::simd::hash_index_walk(prefix, 0xb007ULL, base, kChunk, hashes);
      for (std::uint32_t i = 0; i < kChunk; ++i) {
        pc.powerup[base + i] = static_cast<std::uint8_t>(hashes[i]);
      }
    }
  }
  rs.data = pc.powerup;
  rs.initialized = true;
}

const CellPhysics::RowParams& Module::cached_row_params(
    std::uint32_t bank, std::uint32_t physical_row, RowState& rs) {
  auto& cache = *rs.physics;
  if (!cache.has_params) {
    cache.params = physics_.row_params(bank, physical_row);
    cache.has_params = true;
  }
  return cache.params;
}

const std::vector<CellPhysics::WeakCell>& Module::cached_weak_cells(
    std::uint32_t bank, std::uint32_t physical_row, RowState& rs) {
  auto& cache = *rs.physics;
  if (!cache.has_weak) {
    cache.weak = physics_.weak_cells(bank, physical_row);
    std::sort(cache.weak.begin(), cache.weak.end(),
              [](const CellPhysics::WeakCell& a,
                 const CellPhysics::WeakCell& b) { return a.bit < b.bit; });
    cache.has_weak = true;
  }
  return cache.weak;
}

const std::vector<std::uint64_t>& Module::cached_polarity(
    std::uint32_t bank, std::uint32_t physical_row, RowState& rs) {
  auto& cache = *rs.physics;
  if (cache.polarity.empty()) {
    cache.polarity = physics_.charged_words(bank, physical_row);
  }
  return cache.polarity;
}

const CellPhysics::RowFlipIndex* Module::usable_flip_index(
    std::uint32_t bank, std::uint32_t physical_row, RowState& rs,
    CellPhysics::CellDraw what, double p) {
  auto& cache = *rs.physics;
  const bool hammer = what == CellPhysics::CellDraw::kHammer;
  bool& built = hammer ? cache.has_hammer_index : cache.has_retention_index;
  auto& index = hammer ? cache.hammer_index : cache.retention_index;
  if (!built) {
    // Building costs one full-row pass; only worth it when the requested
    // probability is small enough that the default tail depth will cover
    // it (large p means the full scan is the right tool anyway).
    if (p > CellPhysics::kFlipIndexSafeP) return nullptr;
    index = physics_.build_flip_index(bank, physical_row, what);
    built = true;
  }
  return index.covers(p) ? &index : nullptr;
}

void Module::apply_flips(std::uint32_t bank, std::uint32_t physical_row,
                         RowState& rs, double p_hammer, double p_retention,
                         double dt_s) {
  const bool do_hammer = p_hammer > kNegligibleCellProbability;
  const bool do_retention = p_retention > kNegligibleCellProbability;

  // Weak retention cells (Obsv. 14/15): flip when the elapsed time exceeds
  // their (VPP-scaled) retention time. The cached list is sorted by bit.
  std::vector<std::uint32_t> weak_flips;
  if (dt_s > 1e-3) {
    const double scale = physics_.weak_cell_ret_scale(rs.restore_vpp) *
                         std::exp2((80.0 - temp_c_) / 10.0);
    for (const auto& wc : cached_weak_cells(bank, physical_row, rs)) {
      if (dt_s > wc.t_ret_at_vppmin_s * scale) weak_flips.push_back(wc.bit);
    }
  }
  if (!do_hammer && !do_retention && weak_flips.empty()) return;

  const double hammer_threshold = 1.0 - p_hammer;
  const double retention_threshold = 1.0 - p_retention;
  const auto stored_bit = [&](std::uint32_t bit) {
    return ((rs.data[bit / 8] >> (bit % 8)) & 1u) != 0;
  };

  // Candidate flips per mechanism, each sorted ascending by bit. A bit that
  // qualifies for both mechanisms is classified as a hammer flip (matching
  // the reference scan, which tests the hammer draw first).
  std::vector<std::uint32_t> hammer_bits;
  std::vector<std::uint32_t> retention_bits;

  const CellPhysics::RowFlipIndex* hammer_index =
      do_hammer && !options_.reference_sensing
          ? usable_flip_index(bank, physical_row, rs,
                              CellPhysics::CellDraw::kHammer, p_hammer)
          : nullptr;
  const CellPhysics::RowFlipIndex* retention_index =
      do_retention && !options_.reference_sensing
          ? usable_flip_index(bank, physical_row, rs,
                              CellPhysics::CellDraw::kRetention, p_retention)
          : nullptr;
  const bool fast = !options_.reference_sensing &&
                    (!do_hammer || hammer_index != nullptr) &&
                    (!do_retention || retention_index != nullptr);

  if (fast) {
    // O(flips): the cells whose uniform exceeds 1-p are exactly the prefix
    // of the index (sorted descending by uniform), so walk it until the
    // threshold and keep the charged ones. Only cells holding charge can
    // lose it: a cell whose stored value is the discharged state is immune
    // to both hammering and leakage.
    if (hammer_index != nullptr) {
      for (const auto& e : hammer_index->cells) {
        if (e.u <= hammer_threshold) break;
        if (stored_bit(e.bit) ==
            physics_.charged_value(bank, physical_row, e.bit)) {
          hammer_bits.push_back(e.bit);
        }
      }
      std::sort(hammer_bits.begin(), hammer_bits.end());
    }
    if (retention_index != nullptr) {
      for (const auto& e : retention_index->cells) {
        if (e.u <= retention_threshold) break;
        if (std::binary_search(hammer_bits.begin(), hammer_bits.end(),
                               e.bit)) {
          continue;  // already flipped by hammer this pass
        }
        if (stored_bit(e.bit) ==
            physics_.charged_value(bank, physical_row, e.bit)) {
          retention_bits.push_back(e.bit);
        }
      }
      std::sort(retention_bits.begin(), retention_bits.end());
    }
  } else if (do_hammer || do_retention) {
    // Reference full-row scan: every bit, charge polarity via the cached
    // per-row polarity words, then the per-bit uniform draws. This is the
    // path the flip index must stay bit-exact against. The scan works one
    // 64-bit word at a time: an eligibility mask (stored == charged) from
    // the polarity words, then batched uniform draws from the SIMD walk
    // kernels. Drawing a whole word at once evaluates some uniforms the
    // per-bit loop would skip, but cell_uniform is a pure function of its
    // coordinates, so the *used* values -- and therefore the flip sets --
    // are identical; retention draws stay lazy per word exactly like the
    // scalar loop (only bits not already flipped by hammer consult them).
    const std::vector<std::uint64_t>& polarity =
        cached_polarity(bank, physical_row, rs);
    double u_hammer[64];
    double u_retention[64];
    for (std::uint32_t w = 0; w < kColumnsPerRow; ++w) {
      std::uint64_t stored = 0;
      for (std::uint32_t b = 0; b < 8; ++b) {
        stored |= static_cast<std::uint64_t>(rs.data[w * 8 + b]) << (8 * b);
      }
      const std::uint64_t eligible = ~(stored ^ polarity[w]);
      if (eligible == 0) continue;
      const std::uint32_t base = w * 64;
      if (do_hammer) {
        physics_.cell_uniform_batch(bank, physical_row, base, 64,
                                    CellPhysics::CellDraw::kHammer, u_hammer);
      }
      std::uint64_t retention_candidates = 0;
      for (std::uint64_t m = eligible; m != 0; m &= m - 1) {
        const auto j = static_cast<std::uint32_t>(std::countr_zero(m));
        if (do_hammer && u_hammer[j] > hammer_threshold) {
          hammer_bits.push_back(base + j);
        } else if (do_retention) {
          retention_candidates |= 1ULL << j;
        }
      }
      if (retention_candidates != 0) {
        physics_.cell_uniform_batch(bank, physical_row, base, 64,
                                    CellPhysics::CellDraw::kRetention,
                                    u_retention);
        for (std::uint64_t m = retention_candidates; m != 0; m &= m - 1) {
          const auto j = static_cast<std::uint32_t>(std::countr_zero(m));
          if (u_retention[j] > retention_threshold) {
            retention_bits.push_back(base + j);
          }
        }
      }
    }
  }

  stats_.hammer_bit_flips += hammer_bits.size();
  stats_.retention_bit_flips += retention_bits.size();

  // Sorted union of the two (disjoint) mechanism lists.
  std::vector<std::uint32_t> flipped_bits;
  flipped_bits.reserve(hammer_bits.size() + retention_bits.size() +
                       weak_flips.size());
  std::merge(hammer_bits.begin(), hammer_bits.end(), retention_bits.begin(),
             retention_bits.end(), std::back_inserter(flipped_bits));

  // Weak cells flip unconditionally (no charge check: the study identifies
  // them under each row's worst-case pattern, which by construction charges
  // them) unless the bit already flipped above. Both lists are sorted, so a
  // single merge pass replaces the old per-bit std::find dedup.
  if (!weak_flips.empty()) {
    std::vector<std::uint32_t> merged;
    merged.reserve(flipped_bits.size() + weak_flips.size());
    auto it = flipped_bits.begin();
    for (const std::uint32_t bit : weak_flips) {
      while (it != flipped_bits.end() && *it < bit) merged.push_back(*it++);
      if (it != flipped_bits.end() && *it == bit) continue;  // deduped
      merged.push_back(bit);
      ++stats_.retention_bit_flips;
    }
    merged.insert(merged.end(), it, flipped_bits.end());
    flipped_bits = std::move(merged);
  }

  if (flipped_bits.empty()) return;

  // Optional on-die ECC: a single flipped bit inside a 64-bit device word is
  // silently corrected during sensing; multi-bit words are not. The bit list
  // is sorted, so same-word flips form consecutive runs.
  if (profile_.has_ondie_ecc) {
    std::vector<std::uint32_t> surviving;
    surviving.reserve(flipped_bits.size());
    for (std::size_t i = 0; i < flipped_bits.size();) {
      std::size_t j = i + 1;
      while (j < flipped_bits.size() &&
             flipped_bits[j] / 64 == flipped_bits[i] / 64) {
        ++j;
      }
      if (j - i >= 2) {
        surviving.insert(surviving.end(), flipped_bits.begin() + i,
                         flipped_bits.begin() + j);
      } else {
        ++stats_.ondie_ecc_corrections;
      }
      i = j;
    }
    flipped_bits = std::move(surviving);
  }

  for (const auto bit : flipped_bits) {
    rs.data[bit / 8] = static_cast<std::uint8_t>(rs.data[bit / 8] ^
                                                 (1u << (bit % 8)));
  }
}

void Module::sense_and_restore(std::uint32_t bank, BankState& bs,
                               std::uint32_t physical_row, RowState& rs,
                               double now_ns) {
  if (rs.initialized) {
    const double dt_s = std::max(0.0, (now_ns - rs.restore_time_ns) * 1e-9);
    const double below = acts_of(bs, physical_row - 1) - rs.neigh_below_acts;
    const double above = acts_of(bs, physical_row + 1) - rs.neigh_above_acts;
    const double below2 =
        acts_of(bs, physical_row - 2) - rs.neigh2_below_acts;
    const double above2 =
        acts_of(bs, physical_row + 2) - rs.neigh2_above_acts;
    // Per-aggressor hammer count: a double-sided attack with HC activations
    // per side contributes (HC+HC)/2 = HC (section 4.2's definition).
    // Distance-2 aggressors couple ~30x more weakly (the "blast radius"
    // measured by [11]): they matter only under extreme hammering.
    constexpr double kDistance2Coupling = 1.0 / 30.0;
    const double hc = (below + above) / 2.0 +
                      kDistance2Coupling * (below2 + above2) / 2.0;

    const CellPhysics::RowParams& rp =
        cached_row_params(bank, physical_row, rs);
    double p_hammer = 0.0;
    if (hc > 0.0) {
      const std::uint8_t signature = rs.data.empty() ? 0 : rs.data[0];
      const int vpp_bucket = static_cast<int>(std::lround(vpp_v_ * 10.0));
      const double pf =
          physics_.pattern_factor(bank, physical_row, signature, vpp_bucket);
      double hc_eff = hc;
      if (measurement_noise_sigma_ > 0.0) {
        hc_eff *= 1.0 + measurement_noise_sigma_ *
                            common::normal_at({profile_.seed ^ noise_stream_,
                                               ++hammer_noise_counter_,
                                               0xc0ffeeULL});
      }
      p_hammer = physics_.hammer_flip_probability(rp, hc_eff, vpp_v_, pf,
                                                  rs.restore_q, temp_c_);
    }
    const std::uint8_t ret_signature = rs.data.empty() ? 0 : rs.data[0];
    const double ret_pf =
        physics_.pattern_retention_factor(bank, physical_row, ret_signature);
    const double p_retention = physics_.retention_flip_probability(
        rp, dt_s * ret_pf, rs.restore_vpp, temp_c_, rs.restore_q);

    const double expected_flips =
        (p_hammer + p_retention) * kBitsPerRow / 2.0;
    if (expected_flips > kNegligibleExpectedFlips || dt_s > 1e-3) {
      apply_flips(bank, physical_row, rs, p_hammer, p_retention, dt_s);
    }
  }
  rs.restore_time_ns = now_ns;
  rs.restore_vpp = vpp_v_;
  rs.restore_q = 1.0;  // adjusted at precharge if tRAS was violated
  rs.neigh_below_acts = acts_of(bs, physical_row - 1);
  rs.neigh_above_acts = acts_of(bs, physical_row + 1);
  rs.neigh2_below_acts = acts_of(bs, physical_row - 2);
  rs.neigh2_above_acts = acts_of(bs, physical_row + 2);
}

Status Module::activate(std::uint32_t bank, std::uint32_t logical_row,
                        double now_ns) {
  if (auto st = check_responsive(); !st.ok()) return st;
  if (bank >= banks_.size()) {
    return range_error("bank", bank,
                       static_cast<std::uint32_t>(banks_.size()));
  }
  if (logical_row >= profile_.rows_per_bank) {
    return range_error("row", logical_row, profile_.rows_per_bank)
        .with_bank(static_cast<std::int32_t>(bank));
  }
  BankState& bs = banks_[bank];
  if (bs.open_physical_row >= 0) {
    return Error{ErrorCode::kDeviceProtocol,
                 "ACT to bank " + std::to_string(bank) +
                     " which already has an open row"}
        .with_module(profile_.name)
        .with_bank_row(static_cast<std::int32_t>(bank), logical_row)
        .with_op("ACT");
  }
  const std::uint32_t phys = mapping_.logical_to_physical(logical_row);
  bs.acts[phys] += 1.0;
  ++stats_.activates;
  if (trr_enabled_ && profile_.has_trr) trr_.observe_activate(bank, phys);

  RowState& rs = row_state(bs, bank, phys);
  sense_and_restore(bank, bs, phys, rs, now_ns);

  bs.open_physical_row = phys;
  bs.open_row_state = &rs;  // nodes are pointer-stable; rows are never erased
  bs.activate_time_ns = now_ns;
  return Status::ok_status();
}

Status Module::precharge(std::uint32_t bank, double now_ns) {
  if (auto st = check_responsive(); !st.ok()) return st;
  if (bank >= banks_.size()) {
    return range_error("bank", bank,
                       static_cast<std::uint32_t>(banks_.size()));
  }
  BankState& bs = banks_[bank];
  if (bs.open_physical_row >= 0) {
    // A row closed before its charge-restoration completed keeps only part
    // of its charge (tRAS violation; section 6.2).
    const double open_ns = now_ns - bs.activate_time_ns;
    if (bs.open_row_state != nullptr) {
      bs.open_row_state->restore_q = physics_.restore_fraction(open_ns, vpp_v_);
    }
    bs.open_physical_row = -1;
    bs.open_row_state = nullptr;
  }
  ++stats_.precharges;
  return Status::ok_status();
}

Status Module::precharge_all(double now_ns) {
  if (auto st = check_responsive(); !st.ok()) return st;
  for (std::uint32_t b = 0; b < banks_.size(); ++b) {
    if (auto st = precharge(b, now_ns); !st.ok()) return st;
    --stats_.precharges;  // count PREA as one operation below
  }
  ++stats_.precharges;
  return Status::ok_status();
}

common::Expected<Module::RowState*> Module::open_row_for(
    std::uint32_t bank, std::uint32_t first_column, std::uint32_t n,
    CommandKind kind) {
  if (auto st = check_responsive(); !st.ok()) return std::move(st).error();
  if (bank >= banks_.size()) {
    return range_error("bank", bank,
                       static_cast<std::uint32_t>(banks_.size()));
  }
  if (static_cast<std::uint64_t>(first_column) + n > kColumnsPerRow) {
    // The first column out of range, as a column-by-column issue meets it.
    return range_error("column", std::max(first_column, kColumnsPerRow),
                       kColumnsPerRow)
        .with_bank(static_cast<std::int32_t>(bank));
  }
  BankState& bs = banks_[bank];
  if (bs.open_physical_row < 0) {
    const std::string op(command_name(kind));
    return Error{ErrorCode::kDeviceProtocol,
                 op + " to bank " + std::to_string(bank) + " with no open row"}
        .with_module(profile_.name)
        .with_bank(static_cast<std::int32_t>(bank))
        .with_op(op);
  }
  const auto phys = static_cast<std::uint32_t>(bs.open_physical_row);
  RowState& rs = bs.open_row_state != nullptr ? *bs.open_row_state
                                              : row_state(bs, bank, phys);
  ensure_initialized(bank, phys, rs);
  return &rs;
}

void Module::sense_column(std::uint32_t bank, std::uint32_t physical_row,
                          const CellPhysics::RowParams& rp,
                          double trcd_mean_ns, std::uint32_t column,
                          double trcd_ns,
                          std::array<std::uint8_t, kBytesPerColumn>& out) {
  // The jitter draw position is consumed whether or not the draw's value can
  // matter (keeping the noise-counter sequence identical); the draw and the
  // failure evaluation are skipped when no representable jitter could make
  // the read marginal (see CellPhysics::trcd_certainly_safe).
  ++read_noise_counter_;
  double p_fail = 0.0;
  if (!physics_.trcd_certainly_safe(trcd_mean_ns, trcd_ns)) {
    const double jitter =
        0.04 * common::normal_at({profile_.seed ^ noise_stream_,
                                  read_noise_counter_, 0x7eadULL});
    p_fail = physics_.trcd_fail_probability(rp, trcd_ns + jitter, vpp_v_);
  }
  if (p_fail > kNegligibleCellProbability) {
    const double threshold = 1.0 - p_fail;
    for (std::uint32_t i = 0; i < kBytesPerColumn * 8; ++i) {
      const std::uint32_t bit = column * kBytesPerColumn * 8 + i;
      if (physics_.cell_uniform(bank, physical_row, bit,
                                CellPhysics::CellDraw::kTrcd) > threshold) {
        out[i / 8] = static_cast<std::uint8_t>(out[i / 8] ^ (1u << (i % 8)));
        ++stats_.trcd_read_errors;
      }
    }
  }
}

common::Expected<std::array<std::uint8_t, kBytesPerColumn>> Module::read(
    std::uint32_t bank, std::uint32_t column, double now_ns) {
  std::array<std::uint8_t, kBytesPerColumn> out{};
  if (auto st = read_burst(bank, column, now_ns, 0.0, std::span(&out, 1));
      !st.ok()) {
    return std::move(st).error();
  }
  return out;
}

Status Module::read_burst(
    std::uint32_t bank, std::uint32_t first_column, double first_ns,
    double spacing_ns,
    std::span<std::array<std::uint8_t, kBytesPerColumn>> out) {
  const auto n = static_cast<std::uint32_t>(out.size());
  auto row = open_row_for(bank, first_column, n, CommandKind::kRead);
  if (!row) return std::move(row).error();
  RowState& rs = **row;
  stats_.reads += n;
  std::memcpy(out.data(), rs.data.data() + first_column * kBytesPerColumn,
              std::size_t{n} * kBytesPerColumn);

  // Reads issued before the row's slowest cells have sensed return wrong
  // values for those cells (the data in the array is unaffected -- the row
  // buffer simply had not settled). A small per-read jitter models the
  // analog noise of marginal timing.
  const BankState& bs = banks_[bank];
  const auto phys = static_cast<std::uint32_t>(bs.open_physical_row);
  const CellPhysics::RowParams& rp = cached_row_params(bank, phys, rs);
  RowPhysicsCache& pc = *rs.physics;
  if (pc.trcd_mean_vpp != vpp_v_) {
    pc.trcd_mean_ns = physics_.trcd_row_mean_ns(rp, vpp_v_);
    pc.trcd_mean_vpp = vpp_v_;
  }
  // trcd_certainly_safe is monotone in tRCD and later columns issue later,
  // so a safe first column makes the whole burst safe: only the noise
  // counter positions its columns would consume need advancing.
  if (physics_.trcd_certainly_safe(pc.trcd_mean_ns,
                                   first_ns - bs.activate_time_ns)) {
    read_noise_counter_ += n;
    return Status::ok_status();
  }
  double now = first_ns;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (i > 0) now += spacing_ns;
    sense_column(bank, phys, rp, pc.trcd_mean_ns, first_column + i,
                 now - bs.activate_time_ns, out[i]);
  }
  return Status::ok_status();
}

Status Module::write(std::uint32_t bank, std::uint32_t column,
                     std::span<const std::uint8_t, kBytesPerColumn> data,
                     double now_ns) {
  return write_burst(bank, column, data, now_ns);
}

Status Module::write_burst(std::uint32_t bank, std::uint32_t first_column,
                           std::span<const std::uint8_t> bytes,
                           double now_ns) {
  (void)now_ns;
  const auto n = static_cast<std::uint32_t>(bytes.size() / kBytesPerColumn);
  auto row = open_row_for(bank, first_column, n, CommandKind::kWrite);
  if (!row) return std::move(row).error();
  std::copy_n(bytes.begin(), std::size_t{n} * kBytesPerColumn,
              (**row).data.begin() + first_column * kBytesPerColumn);
  stats_.writes += n;
  return Status::ok_status();
}

void Module::refresh_physical_row(std::uint32_t bank,
                                  std::uint32_t physical_row, double now_ns) {
  BankState& bs = banks_[bank];
  const auto it = bs.rows.find(physical_row);
  if (it == bs.rows.end()) return;  // never-touched rows have nothing to lose
  sense_and_restore(bank, bs, physical_row, it->second, now_ns);
}

Status Module::refresh(double now_ns) {
  if (auto st = check_responsive(); !st.ok()) return st;
  for (std::uint32_t b = 0; b < banks_.size(); ++b) {
    if (banks_[b].open_physical_row >= 0) {
      return Error{ErrorCode::kDeviceProtocol,
                   "REF with open row in bank " + std::to_string(b)}
          .with_module(profile_.name)
          .with_bank(static_cast<std::int32_t>(b))
          .with_op("REF");
    }
  }
  // Each REF covers rows_per_bank / 8192 consecutive rows in every bank
  // (JESD79-4: 8192 REFs per refresh window); FGR 2x / temperature-
  // controlled refresh widen the stripe so rows are visited more often.
  const double rate = mode_registers_.refresh_rate_multiplier(temp_c_);
  const std::uint32_t stripe = std::max(
      1u, static_cast<std::uint32_t>(
              static_cast<double>(profile_.rows_per_bank) / 8192.0 * rate));
  for (std::uint32_t b = 0; b < banks_.size(); ++b) {
    for (std::uint32_t r = 0; r < stripe; ++r) {
      // Wrap the stripe: when the cursor sits near the end of the bank (or a
      // mid-cycle MRS widened the stripe) the tail rows are 0, 1, ... --
      // without the modulo they were silently skipped every cycle.
      refresh_physical_row(b, (refresh_cursor_ + r) % profile_.rows_per_bank,
                           now_ns);
    }
  }
  refresh_cursor_ = (refresh_cursor_ + stripe) % profile_.rows_per_bank;
  ++stats_.refreshes;

  if (trr_enabled_ && profile_.has_trr && mode_registers_.trr_enabled) {
    if (const auto m = trr_.on_refresh()) {
      // Refresh the physical neighbors of the suspected aggressor.
      if (m->physical_row > 0) {
        refresh_physical_row(m->bank, m->physical_row - 1, now_ns);
      }
      if (m->physical_row + 1 < profile_.rows_per_bank) {
        refresh_physical_row(m->bank, m->physical_row + 1, now_ns);
      }
      ++stats_.trr_mitigations;
    }
  }
  return Status::ok_status();
}

Status Module::load_mode_register(int mr_index, std::uint32_t operand,
                                  double now_ns) {
  (void)now_ns;
  if (auto st = check_responsive(); !st.ok()) return st;
  for (std::uint32_t b = 0; b < banks_.size(); ++b) {
    if (banks_[b].open_physical_row >= 0) {
      return Error{ErrorCode::kDeviceProtocol,
                   "MRS with open row in bank " + std::to_string(b)}
          .with_module(profile_.name)
          .with_bank(static_cast<std::int32_t>(b))
          .with_op("MRS");
    }
  }
  auto updated = apply_mrs(mode_registers_, mr_index, operand);
  if (!updated) {
    return std::move(updated).error().with_module(profile_.name).with_op(
        "MRS");
  }
  mode_registers_ = *updated;
  return Status::ok_status();
}

Status Module::hammer_pair(std::uint32_t bank, std::uint32_t logical_row_a,
                           std::uint32_t logical_row_b, std::uint64_t count,
                           double act_to_act_ns, double& now_ns) {
  if (auto st = check_responsive(); !st.ok()) return st;
  if (bank >= banks_.size()) {
    return range_error("bank", bank,
                       static_cast<std::uint32_t>(banks_.size()));
  }
  BankState& bs = banks_[bank];
  if (bs.open_physical_row >= 0) {
    return Error{ErrorCode::kDeviceProtocol,
                 "hammer loop needs a precharged bank"}
        .with_module(profile_.name)
        .with_bank(static_cast<std::int32_t>(bank))
        .with_op("HAMMER");
  }
  const std::uint32_t pa = mapping_.logical_to_physical(logical_row_a);
  const std::uint32_t pb = mapping_.logical_to_physical(logical_row_b);
  if (pa == pb) {
    return Error{ErrorCode::kInvalidArgument, "hammer rows must differ"}
        .with_module(profile_.name)
        .with_bank_row(static_cast<std::int32_t>(bank), logical_row_a)
        .with_op("HAMMER");
  }

  // Settle both aggressors' pending physics at the loop start, then account
  // the activations in bulk. Because the loop interleaves ACT a / ACT b,
  // each aggressor is re-restored between any two neighbor activations, so
  // the per-interval disturbance on the aggressors themselves is
  // sub-threshold -- absorbing the counts into fresh snapshots at the end is
  // physically equivalent and makes 300K-activation loops O(1).
  RowState& ra = row_state(bs, bank, pa);
  sense_and_restore(bank, bs, pa, ra, now_ns);
  RowState& rb = row_state(bs, bank, pb);
  sense_and_restore(bank, bs, pb, rb, now_ns);

  // Each loop activation leaves the aggressor open for (act_to_act - tRP);
  // longer on-times disturb more per activation ([12]'s on-time axis). At
  // the nominal tRC spacing the factor is exactly 1.
  const double on_ns = act_to_act_ns - 13.5;
  const double weight =
      physics_.on_time_factor(on_ns) * static_cast<double>(count);
  bs.acts[pa] += weight;
  bs.acts[pb] += weight;
  stats_.activates += 2 * count;
  stats_.precharges += 2 * count;
  if (trr_enabled_ && profile_.has_trr) {
    trr_.observe_activates(bank, pa, count);
    trr_.observe_activates(bank, pb, count);
  }
  now_ns += static_cast<double>(2 * count) * act_to_act_ns;

  // Final restore snapshots after the loop.
  sense_and_restore(bank, bs, pa, ra, now_ns);
  sense_and_restore(bank, bs, pb, rb, now_ns);
  return Status::ok_status();
}

Status Module::hammer_single(std::uint32_t bank, std::uint32_t logical_row,
                             std::uint64_t count, double act_to_act_ns,
                             double& now_ns) {
  if (auto st = check_responsive(); !st.ok()) return st;
  if (bank >= banks_.size()) {
    return range_error("bank", bank,
                       static_cast<std::uint32_t>(banks_.size()));
  }
  BankState& bs = banks_[bank];
  if (bs.open_physical_row >= 0) {
    return Error{ErrorCode::kDeviceProtocol,
                 "hammer loop needs a precharged bank"}
        .with_module(profile_.name)
        .with_bank(static_cast<std::int32_t>(bank))
        .with_op("HAMMER");
  }
  const std::uint32_t phys = mapping_.logical_to_physical(logical_row);

  // Same bulk-accounting argument as hammer_pair: the aggressor itself is
  // re-restored every activation, so settling its physics at the loop
  // boundaries is exact while neighbor disturbance accrues via acts[].
  RowState& rs = row_state(bs, bank, phys);
  sense_and_restore(bank, bs, phys, rs, now_ns);

  const double on_ns = act_to_act_ns - 13.5;
  const double weight =
      physics_.on_time_factor(on_ns) * static_cast<double>(count);
  bs.acts[phys] += weight;
  stats_.activates += count;
  stats_.precharges += count;
  if (trr_enabled_ && profile_.has_trr) {
    trr_.observe_activates(bank, phys, count);
  }
  now_ns += static_cast<double>(count) * act_to_act_ns;

  sense_and_restore(bank, bs, phys, rs, now_ns);
  return Status::ok_status();
}

std::vector<std::uint8_t> Module::debug_row_snapshot(std::uint32_t bank,
                                                     std::uint32_t logical_row,
                                                     double now_ns) {
  BankState& bs = banks_.at(bank);
  const std::uint32_t phys = mapping_.logical_to_physical(logical_row);
  RowState& rs = row_state(bs, bank, phys);
  ensure_initialized(bank, phys, rs);
  sense_and_restore(bank, bs, phys, rs, now_ns);
  return rs.data;
}

}  // namespace vppstudy::dram
