#include "simcov_cpu/cpu_sim.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <span>
#include <unordered_map>

#include "core/grid.hpp"
#include "core/rules.hpp"
#include "core/stencil.hpp"
#include "obs/memscope.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pgas/runtime.hpp"
#include "perfmodel/mem_model.hpp"
#include "spmd/halo.hpp"
#include "util/align.hpp"

namespace simcov::cpu {

namespace {

/// Bytes per voxel in the end-of-step state pack: epi(1) + virus(4) + chem(4).
constexpr std::size_t kStatePackBytes = 9;

/// Halo streams: the end-of-step state pack, then each field's tmp strip.
enum HaloStream : int { kStatePack = 0, kVirusTmp = 1, kChemTmp = 2 };
constexpr std::array<std::size_t, 3> kStreamSlotBytes = {
    kStatePackBytes, sizeof(float), sizeof(float)};
static_assert(spmd::bytes_per_face_slot(kStreamSlotBytes) ==
                  perfmodel::kCpuPgasBytesPerFaceSlot,
              "CPU halo channels and the memory model disagree");

/// Bytes of one voxel's full state record — epi_state(1) + epi_timer(4) +
/// tcell(1) + tcell_timer(4) + tcell_bind(4) + virus(4) + chem(4) +
/// occupancy(1) — used by the cpu.prof.bytes_touched parity counters
/// (one record per voxel visit; the CPU analogue of KernelProf's per-kernel
/// byte counts on the GPU side).
constexpr std::uint64_t kVoxelStateBytes = 23;

struct RemoteIntent {
  std::uint8_t kind;          ///< rules::IntentKind
  VoxelId target;             ///< global id, owned by the receiving rank
  VoxelId source;             ///< global id of the bidding T cell's voxel
  std::uint64_t bid;
  std::uint32_t timer;        ///< T cell tissue life (carried on move)
  int source_rank;
};

class CpuRank;
using Registry = std::vector<CpuRank*>;

/// Per-rank SIMCoV-CPU simulation state and step logic.
class CpuRank {
 public:
  CpuRank(pgas::Rank& rank, const SimParams& params, const Decomposition& dec,
          const std::vector<VoxelId>& foi,
          const std::vector<VoxelId>& empties, spmd::StepLedger& ledger,
          Registry& registry)
      : rank_(rank), params_(params),
        grid_(params.dim_x, params.dim_y, params.dim_z),
        sub_(dec.sub(rank.id())), rng_(params.seed), registry_(registry),
        ledger_(ledger), halo_(rank, sub_, kStreamSlotBytes) {
    registry_[static_cast<std::size_t>(rank.id())] = this;
    // 2D or 3D: the rank decomposition cuts x/y and keeps z whole (like
    // the original SIMCoV-CPU's 2D decomposition of a 3D volume), so all
    // cross-rank interactions stay on x/y faces; z neighbours are local.
    w_ = sub_.extent.x;
    h_ = sub_.extent.y;
    dz_ = sub_.extent.z;
    // Padded row stride: each row covers the interior plus the two x ghost
    // columns, rounded up to a cache line (util::pad_stride), so the
    // vectorized stencil sweep (core/stencil.hpp) walks aligned rows.  The
    // pad columns after the +x ghost are initialized once and never written.
    pw_ = static_cast<std::int32_t>(
        util::pad_stride(static_cast<std::size_t>(w_) + 2));
    plane_ = static_cast<std::int32_t>(pw_ * (h_ + 2));
    const std::size_t n =
        static_cast<std::size_t>(plane_) * static_cast<std::size_t>(dz_);
    // Ghost ring starts as kEmpty so un-exchanged ghosts never look like
    // tissue; real values arrive with the first halo exchange.
    epi_state_.assign(n, EpiState::kEmpty);
    epi_timer_.assign(n, 0);
    tcell_.assign(n, 0);
    tcell_timer_.assign(n, 0);
    tcell_bind_.assign(n, 0);
    virus_.assign(n, 0.0f);
    chem_.assign(n, 0.0f);
    tmp_.assign(n, 0.0f);
    occupancy_.assign(n, 0);
    in_list_.assign(n, 0);
    interior_bits_ = active_bits_ = std::vector<std::uint64_t>((n + 63) / 64);
    for (std::int32_t z = 0; z < dz_; ++z) {
      for (std::int32_t y = 0; y < h_; ++y) {
        for (std::int32_t x = 0; x < w_; ++x) {
          const auto v = static_cast<std::size_t>(lidx(x, y, z));
          interior_bits_[v / 64] |= std::uint64_t{1} << (v % 64);
          epi_state_[v] = EpiState::kHealthy;
        }
      }
    }
    // Spare all-zero row: the -z/+z neighbour row at a global z edge (the
    // padded planes carry x/y ghosts only; see diffuse_span).
    zeros_row_.assign(static_cast<std::size_t>(pw_), 0.0f);
    if (obs::MemScope* ms = rank_.memscope()) {
      // The CPU backend's grids live on the host, so their registry is the
      // PGAS rank's (which already carries the channel landing zones); the
      // "host." prefix routes them to the host_grid category.
      ms->adjust("host.epi_state", 0, n * sizeof(EpiState));
      ms->adjust("host.epi_timer", 0, n * sizeof(std::uint32_t));
      ms->adjust("host.tcell", 0, n * sizeof(std::uint8_t));
      ms->adjust("host.tcell_timer", 0, n * sizeof(std::uint32_t));
      ms->adjust("host.tcell_bind", 0, n * sizeof(std::uint32_t));
      ms->adjust("host.virus", 0, n * sizeof(float));
      ms->adjust("host.chem", 0, n * sizeof(float));
      ms->adjust("host.tmp", 0, n * sizeof(float));
      ms->adjust("host.occupancy", 0, n * sizeof(std::uint8_t));
      ms->adjust("host.in_list", 0, n * sizeof(std::uint8_t));
      const auto bit_bytes = active_bits_.size() * sizeof(std::uint64_t);
      ms->adjust("host.active_bits", 0, bit_bytes);
      ms->adjust("host.interior_bits", 0, bit_bytes);
    }
    epi_counts_[static_cast<std::size_t>(EpiState::kHealthy)] =
        static_cast<std::uint64_t>(w_) * static_cast<std::uint64_t>(h_) *
        static_cast<std::uint64_t>(dz_);

    for (VoxelId v : empties) {
      const Coord c = grid_.to_coord(v);
      if (!sub_.contains(c)) continue;
      auto& s = epi_state_[static_cast<std::size_t>(lidx_of(c))];
      if (s != EpiState::kEmpty) {
        s = EpiState::kEmpty;
        --epi_counts_[static_cast<std::size_t>(EpiState::kHealthy)];
        ++epi_counts_[static_cast<std::size_t>(EpiState::kEmpty)];
      }
    }
    for (VoxelId v : foi) {
      const Coord c = grid_.to_coord(v);
      if (!sub_.contains(c)) continue;
      virus_[static_cast<std::size_t>(lidx_of(c))] = params_.initial_virus;
    }
  }

  // Non-copyable: peers hold pointers to us through the registry.
  CpuRank(const CpuRank&) = delete;
  CpuRank& operator=(const CpuRank&) = delete;

  /// Initial halo exchange + initial active list.  Call after the registry
  /// is fully populated (one barrier after construction).
  void initialize() {
    obs::ScopedSpan span("initialize", rank_.id());
    exchange_state_halo();  // activates boundary voxels next to live ghosts
    for (std::int32_t z = 0; z < dz_; ++z) {
      for (std::int32_t y = 0; y < h_; ++y) {
        for (std::int32_t x = 0; x < w_; ++x) {
          const std::int32_t v = lidx(x, y, z);
          if (is_active_voxel(v)) set_with_neighbours(v);
        }
      }
    }
    emit_active_list();
  }

  StepStats step() {
    StepStats stats;
    work_ = {};
    step_voxel_updates_ = 0;
    phase_tcells(stats);
    record_phase(perfmodel::Phase::kTCells);
    phase_epithelial();
    record_phase(perfmodel::Phase::kEpithelial);
    phase_concentrations(stats);
    record_phase(perfmodel::Phase::kConcentrations);
    rebuild_active_list();
    exchange_state_halo();
    record_phase(perfmodel::Phase::kHalo);
    phase_reduce(stats);
    record_phase(perfmodel::Phase::kReduceStats);
    if (obs::metrics().enabled()) emit_step_metrics();
    ++step_;
    return stats;
  }

  std::uint64_t local_digest() const {
    std::uint64_t d = 0;
    for (std::int32_t z = 0; z < dz_; ++z) {
      for (std::int32_t y = 0; y < h_; ++y) {
        for (std::int32_t x = 0; x < w_; ++x) {
          const std::size_t v = static_cast<std::size_t>(lidx(x, y, z));
          d ^= rules::voxel_digest(gid(x, y, z), epi_state_[v], epi_timer_[v],
                                   tcell_[v], tcell_timer_[v], tcell_bind_[v],
                                   virus_[v], chem_[v]);
        }
      }
    }
    return d;
  }

  /// Everything this rank measured, for the SPMD driver's merge.
  spmd::RankReport report() {
    spmd::RankReport rep;
    // MemScope: this rank's grids live in the PGAS rank's registry, which
    // the driver harvests; only the modeled side is backend-specific.
    if (rank_.memscope() != nullptr) {
      perfmodel::CpuRankMemShape shape;
      shape.w = w_;
      shape.h = h_;
      shape.dz = dz_;
      shape.face_lens = halo_.face_lens();
      rep.mem_modeled_by_category = perfmodel::cpu_rank_memory(shape);
    }
    return rep;
  }

  // ---- RPC handlers (run on this rank's thread during progress()) -------
  void on_remote_intent(const RemoteIntent& ri) {
    auto& field =
        (ri.kind == static_cast<std::uint8_t>(rules::IntentKind::kMove))
            ? bid_move_
            : bid_bind_;
    auto [it, inserted] = field.try_emplace(ri.target, ri.bid);
    if (!inserted) it->second = std::max(it->second, ri.bid);
    remote_intents_.push_back(ri);
    work_.cpu_list_ops += 2;
  }

  void on_win_reply(std::uint8_t kind, VoxelId source) {
    const std::size_t vi =
        static_cast<std::size_t>(lidx_of(grid_.to_coord(source)));
    if (kind == static_cast<std::uint8_t>(rules::IntentKind::kMove)) {
      // Our T cell moved into a neighbour rank's territory: erase it here.
      tcell_[vi] = 0;
      tcell_timer_[vi] = 0;
    } else {
      tcell_bind_[vi] =
          static_cast<std::uint32_t>(params_.tcell_binding_period);
    }
    work_.cpu_list_ops += 1;
  }

 private:
  // ---- indexing -----------------------------------------------------------
  std::int32_t lidx(std::int32_t x, std::int32_t y, std::int32_t z) const {
    // x in [-1, w_], y in [-1, h_] (per-plane ghost ring); z in [0, dz_).
    return z * plane_ + (y + 1) * pw_ + (x + 1);
  }
  std::int32_t lidx(const spmd::StripCoord& c) const {
    return lidx(c.x, c.y, c.z);
  }
  std::int32_t lidx_of(const Coord& c) const {
    return lidx(c.x - sub_.origin.x, c.y - sub_.origin.y, c.z);
  }
  VoxelId gid(std::int32_t x, std::int32_t y, std::int32_t z) const {
    return grid_.to_id({sub_.origin.x + x, sub_.origin.y + y, z});
  }
  struct LocalXyz {
    std::int32_t x, y, z;
  };
  LocalXyz local_xyz(std::int32_t v) const {
    const std::int32_t z = v / plane_;
    const std::int32_t rem = v % plane_;
    return {rem % pw_ - 1, rem / pw_ - 1, z};
  }

  // ---- active list ----------------------------------------------------------
  bool is_active_voxel(std::size_t i) const {
    return virus_[i] > 0.0f || chem_[i] > 0.0f || tcell_[i] != 0 ||
           rules::transient_epi(epi_state_[i]);
  }

  /// A halo unpack's activation: test-and-set, appended unsorted.
  void mark_active(std::int32_t v) {
    std::uint64_t& word = active_bits_[static_cast<std::uint32_t>(v) / 64];
    const std::uint64_t bit = std::uint64_t{1} << (v % 64);
    if (word & bit) return;
    word |= bit;
    active_list_.push_back(v);
    ++work_.cpu_list_ops;
  }

  /// Sets the bits of own voxel `v` and its face neighbours: the ghost ring
  /// absorbs v±1 and v±pw_, and v±plane_ outside [0, n) is past a z edge.
  void set_with_neighbours(std::int32_t v) {
    const auto set = [this](std::uint32_t u) {
      active_bits_[u / 64] |= std::uint64_t{1} << (u % 64);
    };
    set(v - 1);
    set(v);
    set(v + 1);
    set(v - pw_);
    set(v + pw_);
    if (v >= plane_) set(v - plane_);
    if (v + plane_ < static_cast<std::int32_t>(tmp_.size())) set(v + plane_);
  }

  /// Drops ghost and pad bits, then lists the set bits in ascending order.
  void emit_active_list() {
    active_list_.clear();
    for (std::size_t i = 0; i < active_bits_.size(); ++i) {
      for (std::uint64_t b = active_bits_[i] &= interior_bits_[i]; b != 0;
           b &= b - 1) {
        active_list_.push_back(static_cast<std::int32_t>(i * 64) +
                               std::countr_zero(b));
      }
    }
  }

  /// List ops: old.size() to scan, 2 per voxel of the new sorted list.
  void rebuild_active_list() {
    obs::ScopedSpan span("active_list", rank_.id());
    work_.cpu_list_ops += active_list_.size();
    std::fill(active_bits_.begin(), active_bits_.end(), 0);
    for (std::int32_t v : active_list_) {
      if (is_active_voxel(v)) set_with_neighbours(v);
    }
    for (std::int32_t v : tcell_list_) set_with_neighbours(v);
    emit_active_list();
    work_.cpu_list_ops += 2 * active_list_.size();
  }

  // ---- halo exchange ----------------------------------------------------------
  /// End-of-step state strips (epi, virus, chem) into the ghosts; a live
  /// ghost activates the own voxel next to it.
  void exchange_state_halo() {
    halo_.exchange(kStatePack, kStatePackBytes,
                   [&](int f, std::span<std::byte> out) {
      for (std::size_t i = 0; i < halo_.face_len(f); ++i) {
        const auto v = static_cast<std::size_t>(lidx(halo_.boundary(f, i)));
        std::byte* p = out.data() + i * kStatePackBytes;
        p[0] = static_cast<std::byte>(epi_state_[v]);
        std::memcpy(p + 1, &virus_[v], sizeof(float));
        std::memcpy(p + 5, &chem_[v], sizeof(float));
      }
    }, [&](int f, std::span<const std::byte> in) {
      for (std::size_t i = 0; i < halo_.face_len(f); ++i) {
        const auto v = static_cast<std::size_t>(lidx(halo_.ghost(f, i)));
        const std::byte* p = in.data() + i * kStatePackBytes;
        epi_state_[v] = static_cast<EpiState>(p[0]);
        std::memcpy(&virus_[v], p + 1, sizeof(float));
        std::memcpy(&chem_[v], p + 5, sizeof(float));
        if (is_active_voxel(v)) mark_active(lidx(halo_.boundary(f, i)));
      }
    });
  }

  /// Boundary tmp strips into the ghosts; a non-zero ghost activates the
  /// own voxel next to it for this step's diffusion pass.
  void exchange_tmp_halo(int stream) {
    halo_.exchange(stream, sizeof(float),
                   [&](int f, std::span<std::byte> out) {
      for (std::size_t i = 0; i < halo_.face_len(f); ++i) {
        const float x =
            tmp_[static_cast<std::size_t>(lidx(halo_.boundary(f, i)))];
        std::memcpy(out.data() + i * sizeof(float), &x, sizeof(float));
      }
    }, [&](int f, std::span<const std::byte> in) {
      for (std::size_t i = 0; i < halo_.face_len(f); ++i) {
        float x;
        std::memcpy(&x, in.data() + i * sizeof(float), sizeof(float));
        tmp_[static_cast<std::size_t>(lidx(halo_.ghost(f, i)))] = x;
        if (x > 0.0f) mark_active(lidx(halo_.boundary(f, i)));
      }
    });
  }

  // ---- phases -----------------------------------------------------------------
  void phase_tcells(StepStats& stats) {
    bid_move_.clear();
    bid_bind_.clear();
    remote_intents_.clear();
    arrivals_.clear();

    // Aging / unbinding; occupancy snapshot ("stage start") is taken after
    // aging, so cells that die this step do not block movers.
    struct LocalIntent {
      std::int32_t source;  ///< local idx
      std::uint32_t timer;
      rules::Intent intent;
    };
    std::vector<LocalIntent> local_intents;
    for (std::int32_t v : tcell_list_) {
      const std::size_t vi = static_cast<std::size_t>(v);
      ++work_.cpu_voxel_updates;
      bool eligible = false;
      if (tcell_bind_[vi] > 0) {
        --tcell_bind_[vi];
      } else if (tcell_timer_[vi] <= 1) {
        tcell_[vi] = 0;
        tcell_timer_[vi] = 0;
      } else {
        --tcell_timer_[vi];
        eligible = true;
      }
      occupancy_[vi] = tcell_[vi];
      if (!eligible) continue;

      const auto c = local_xyz(v);
      const Coord gc{sub_.origin.x + c.x, sub_.origin.y + c.y, c.z};
      rules::NeighbourView nb;
      std::array<Coord, 6> coords;
      nb.count = grid_.neighbours(gc, coords);
      for (int i = 0; i < nb.count; ++i) {
        const Coord& nc = coords[static_cast<std::size_t>(i)];
        nb.ids[static_cast<std::size_t>(i)] = grid_.to_id(nc);
        nb.epi[static_cast<std::size_t>(i)] =
            epi_state_[static_cast<std::size_t>(lidx_of(nc))];
      }
      const rules::Intent intent =
          rules::tcell_intent(rng_, step_, grid_.to_id(gc), epi_state_[vi], nb);
      if (intent.kind == rules::IntentKind::kNone) continue;

      const Coord tc = grid_.to_coord(intent.target);
      if (sub_.contains(tc)) {
        auto& field = (intent.kind == rules::IntentKind::kMove) ? bid_move_
                                                                : bid_bind_;
        auto [it, inserted] = field.try_emplace(intent.target, intent.bid);
        if (!inserted) it->second = std::max(it->second, intent.bid);
        local_intents.push_back({v, tcell_timer_[vi], intent});
        work_.cpu_list_ops += 2;
      } else {
        // Cross-boundary competition: RPC the bid to the owner.
        const int owner_rank = owner_of(tc);
        RemoteIntent ri{static_cast<std::uint8_t>(intent.kind), intent.target,
                        grid_.to_id(gc), intent.bid, tcell_timer_[vi],
                        rank_.id()};
        CpuRank* owner = registry_[static_cast<std::size_t>(owner_rank)];
        rank_.rpc(owner_rank, [owner, ri] { owner->on_remote_intent(ri); },
                  sizeof(RemoteIntent));
      }
    }
    rank_.rpc_quiescence();  // all bids delivered

    // Resolution: the owner of each contested voxel decides; winners of
    // remote intents get a reply RPC (the "communicate the result" round).
    for (const auto& li : local_intents) {
      if (!apply_local_winner(li.intent, li.timer)) continue;
      const std::size_t src = static_cast<std::size_t>(li.source);
      if (li.intent.kind == rules::IntentKind::kMove) {
        tcell_[src] = 0;
        tcell_timer_[src] = 0;
      } else {
        tcell_bind_[src] =
            static_cast<std::uint32_t>(params_.tcell_binding_period);
      }
    }
    for (const auto& ri : remote_intents_) {
      const rules::Intent intent{static_cast<rules::IntentKind>(ri.kind),
                                 ri.target, ri.bid};
      if (!apply_local_winner(intent, ri.timer)) continue;
      CpuRank* src = registry_[static_cast<std::size_t>(ri.source_rank)];
      const std::uint8_t kind = ri.kind;
      const VoxelId source = ri.source;
      rank_.rpc(ri.source_rank,
                [src, kind, source] { src->on_win_reply(kind, source); },
                /*approx_bytes=*/16);
    }
    rank_.rpc_quiescence();  // all replies delivered

    // Extravasation: globally keyed attempts, applied by the voxel owner.
    const std::uint64_t attempts = rules::num_extravasation_attempts(
        pool_, params_.max_extravasate_per_step);
    std::uint64_t successes = 0;
    for (std::uint64_t i = 0; i < attempts; ++i) {
      ++work_.cpu_list_ops;
      const VoxelId u =
          rules::attempt_voxel(rng_, step_, i, grid_.num_voxels());
      const Coord uc = grid_.to_coord(u);
      if (!sub_.contains(uc)) continue;
      const std::size_t ui = static_cast<std::size_t>(lidx_of(uc));
      if (!rules::attempt_accepted(rng_, step_, i, chem_[ui])) continue;
      if (epi_state_[ui] == EpiState::kEmpty) continue;
      if (tcell_[ui]) continue;
      tcell_[ui] = 1;
      tcell_timer_[ui] =
          static_cast<std::uint32_t>(params_.tcell_tissue_period);
      tcell_bind_[ui] = 0;
      arrivals_.push_back(static_cast<std::int32_t>(ui));
      ++successes;
    }
    stats.extravasated = successes;

    // Rebuild the T cell list (dedup via in_list_: an arrival's voxel may
    // coincide with a stale old-list entry whose occupant died or left).
    std::vector<std::int32_t> candidates;
    candidates.swap(tcell_list_);
    candidates.insert(candidates.end(), arrivals_.begin(), arrivals_.end());
    for (std::int32_t v : candidates) {
      const std::size_t vi = static_cast<std::size_t>(v);
      if (tcell_[vi] && !in_list_[vi]) {
        in_list_[vi] = 1;
        tcell_list_.push_back(v);
      }
    }
    for (std::int32_t v : tcell_list_) {
      in_list_[static_cast<std::size_t>(v)] = 0;
    }
    // Occupancy snapshots only exist at candidate positions; reset them so
    // stale entries cannot block movers in later steps.
    for (std::int32_t v : candidates) {
      occupancy_[static_cast<std::size_t>(v)] = 0;
    }
    work_.cpu_list_ops += 2 * candidates.size();
  }

  /// Applies the target-side effect if (intent, bid) wins at a voxel this
  /// rank owns.  Returns true on a win (caller handles the source side).
  bool apply_local_winner(const rules::Intent& intent, std::uint32_t timer) {
    const std::size_t t =
        static_cast<std::size_t>(lidx_of(grid_.to_coord(intent.target)));
    if (intent.kind == rules::IntentKind::kMove) {
      auto it = bid_move_.find(intent.target);
      if (it == bid_move_.end() || it->second != intent.bid) return false;
      if (occupancy_[t]) return false;  // ran into another T cell
      tcell_[t] = 1;
      tcell_timer_[t] = timer;
      tcell_bind_[t] = 0;
      arrivals_.push_back(static_cast<std::int32_t>(t));
      return true;
    }
    auto it = bid_bind_.find(intent.target);
    if (it == bid_bind_.end() || it->second != intent.bid) return false;
    if (epi_state_[t] != EpiState::kExpressing) return false;
    epi_state_[t] = EpiState::kApoptotic;
    epi_timer_[t] = rules::sample_period(rng_, step_, intent.target,
                                         RngStream::kApoptosisPeriod,
                                         params_.apoptosis_period);
    --epi_counts_[static_cast<std::size_t>(EpiState::kExpressing)];
    ++epi_counts_[static_cast<std::size_t>(EpiState::kApoptotic)];
    return true;
  }

  int owner_of(const Coord& c) const {
    // Only face neighbours are reachable (von Neumann interactions, ghost
    // width 1): derive the rank from the crossed face.
    if (c.x < sub_.origin.x) return sub_.neighbour[kFaceXNeg];
    if (c.x >= sub_.origin.x + sub_.extent.x) return sub_.neighbour[kFaceXPos];
    if (c.y < sub_.origin.y) return sub_.neighbour[kFaceYNeg];
    return sub_.neighbour[kFaceYPos];
  }

  void phase_epithelial() {
    for (std::int32_t v : active_list_) {
      const std::size_t vi = static_cast<std::size_t>(v);
      const EpiState s = epi_state_[vi];
      if (s == EpiState::kEmpty || s == EpiState::kDead) continue;
      ++work_.cpu_voxel_updates;
      const auto c = local_xyz(v);
      const rules::EpiUpdate u = rules::update_epithelial(
          rng_, step_, gid(c.x, c.y, c.z), s, epi_timer_[vi], virus_[vi],
          params_);
      if (u.state != s) {
        --epi_counts_[static_cast<std::size_t>(s)];
        ++epi_counts_[static_cast<std::size_t>(u.state)];
      }
      epi_state_[vi] = u.state;
      epi_timer_[vi] = u.timer;
    }
  }

  void phase_concentrations(StepStats& stats) {
    run_field(virus_, /*is_virus=*/true, params_.virus_production,
              params_.virus_decay, params_.virus_diffusion, params_.min_virus,
              kVirusTmp);
    run_field(chem_, /*is_virus=*/false, params_.chem_production,
              params_.chem_decay, params_.chem_diffusion, params_.min_chem,
              kChemTmp);

    // Field totals: inactive voxels are exactly zero, so summing the active
    // list equals the full-grid sum.
    for (std::int32_t v : active_list_) {
      const std::size_t vi = static_cast<std::size_t>(v);
      stats.virus_total += static_cast<double>(virus_[vi]);
      stats.chem_total += static_cast<double>(chem_[vi]);
      ++work_.cpu_voxel_updates;
    }
  }

  /// One field's concentrations sweep, vectorized: both passes walk the
  /// active list as spans of consecutive local indices (consecutive indices
  /// are always interior voxels of one padded row — ghost and pad columns
  /// never enter the list) and hand each span to the row kernels in
  /// core/stencil.hpp.  Bit-identity with the scalar gather is argued in
  /// that header; the caller obligations hold here because (a) ghost
  /// storage outside the global domain is never written and stays exactly
  /// 0.0f, and (b) voxels at a global x edge are peeled to the scalar path
  /// (diffuse_voxel_scalar).
  void run_field(util::aligned_vector<float>& field, bool is_virus,
                 double production, double decay, double diffusion,
                 double floor_eps, int tmp_stream) {
    // Pass 1: production + decay into tmp (tmp is all-zero elsewhere).
    // No neighbours involved, so every span vectorizes with no peel.
    for (std::size_t k = 0, m = active_list_.size(); k < m;) {
      std::size_t e = k + 1;
      while (e < m && active_list_[e] == active_list_[e - 1] + 1) ++e;
      const auto v0 = static_cast<std::size_t>(active_list_[k]);
      const auto len = static_cast<std::int32_t>(e - k);
      stencil::produce_decay_row(&field[v0], &epi_state_[v0], &tmp_[v0], len,
                                 is_virus, production, decay);
      work_.cpu_voxel_updates += static_cast<std::uint64_t>(len);
      k = e;
    }
    // Boundary tmp strips to neighbours (may extend the active list when a
    // neighbour's boundary became non-zero this step; appended entries are
    // unsorted, so they form short spans — still correct, just less fused).
    exchange_tmp_halo(tmp_stream);
    // Pass 2: diffusion over the (possibly extended) active list.  It reads
    // only tmp and writes only field, so in-list neighbours read
    // pre-diffusion tmp values with no staging buffer.
    const bool three_d = dz_ > 1;
    for (std::size_t k = 0, m = active_list_.size(); k < m;) {
      std::size_t e = k + 1;
      while (e < m && active_list_[e] == active_list_[e - 1] + 1) ++e;
      const std::int32_t v0 = active_list_[k];
      const auto len = static_cast<std::int32_t>(e - k);
      diffuse_span(field, v0, len, three_d, diffusion, floor_eps);
      work_.cpu_voxel_updates += static_cast<std::uint64_t>(len);
      k = e;
    }
    // Re-zero tmp (interior writes + ghost strips) for the next field.
    for (std::int32_t v : active_list_) {
      tmp_[static_cast<std::size_t>(v)] = 0.0f;
    }
    halo_.for_each_live_face([&](int f, int) {
      for (std::size_t i = 0; i < halo_.face_len(f); ++i) {
        tmp_[static_cast<std::size_t>(lidx(halo_.ghost(f, i)))] = 0.0f;
      }
    });
    work_.cpu_list_ops += active_list_.size();
  }

  /// Scalar diffusion of one voxel: the original neighbour gather in
  /// contract order (-x, +x, -y, +y, -z, +z), used for the peeled global
  /// x-edge voxels so the vector path's neighbour count stays uniform.
  void diffuse_voxel_scalar(util::aligned_vector<float>& field,
                            std::int32_t v, double diffusion,
                            double floor_eps) {
    const std::size_t vi = static_cast<std::size_t>(v);
    const auto c = local_xyz(v);
    const Coord gc{sub_.origin.x + c.x, sub_.origin.y + c.y, c.z};
    std::array<Coord, 6> coords;
    const int cnt = grid_.neighbours(gc, coords);
    double sum = 0.0;
    for (int i = 0; i < cnt; ++i) {
      sum += static_cast<double>(tmp_[static_cast<std::size_t>(
          lidx_of(coords[static_cast<std::size_t>(i)]))]);
    }
    field[vi] = rules::diffuse(tmp_[vi], sum, cnt, diffusion, floor_eps);
  }

  /// Diffuses a span of `len` consecutive voxels starting at local index
  /// `v0` (one padded row, single y/z).  Global x-edge voxels are peeled:
  /// the all-zero edge ghost column keeps the neighbour *sum* identical,
  /// but diffuse_row takes one uniform in-bounds count per call.
  void diffuse_span(util::aligned_vector<float>& field, std::int32_t v0,
                    std::int32_t len, bool three_d, double diffusion,
                    double floor_eps) {
    const auto c0 = local_xyz(v0);
    const std::int32_t gx0 = sub_.origin.x + c0.x;
    const std::int32_t gy = sub_.origin.y + c0.y;
    std::int32_t lo = 0, hi = len;
    if (gx0 == 0) {
      diffuse_voxel_scalar(field, v0, diffusion, floor_eps);
      lo = 1;
    }
    if (gx0 + len == grid_.dim_x() && !(len == 1 && gx0 == 0)) {
      diffuse_voxel_scalar(field, v0 + len - 1, diffusion, floor_eps);
      hi = len - 1;
    }
    if (hi <= lo) return;
    const auto b = static_cast<std::size_t>(v0 + lo);
    const std::int32_t n = hi - lo;
    const float* c = &tmp_[b];
    const float* ym = &tmp_[b - static_cast<std::size_t>(pw_)];
    const float* yp = &tmp_[b + static_cast<std::size_t>(pw_)];
    int cnt = 2 + (gy > 0 ? 1 : 0) + (gy + 1 < grid_.dim_y() ? 1 : 0);
    if (!three_d) {
      stencil::diffuse_row(c, ym, yp, &field[b], n, cnt, diffusion,
                           floor_eps);
      return;
    }
    // 3D: the padded planes carry x/y ghosts only — a global z edge reads
    // the spare all-zero row instead (the +0.0 identity again; the z terms
    // are excluded from cnt).
    const float* zm = c0.z > 0 ? &tmp_[b - static_cast<std::size_t>(plane_)]
                               : zeros_row_.data();
    const float* zp = c0.z + 1 < dz_
                          ? &tmp_[b + static_cast<std::size_t>(plane_)]
                          : zeros_row_.data();
    cnt += (c0.z > 0 ? 1 : 0) + (c0.z + 1 < dz_ ? 1 : 0);
    stencil::diffuse_row_3d(c, ym, yp, zm, zp, &field[b], n, cnt, diffusion,
                            floor_eps);
  }

  void phase_reduce(StepStats& stats) {
    for (int s = 0; s < kNumEpiStates; ++s) {
      stats.epi_counts[static_cast<std::size_t>(s)] =
          epi_counts_[static_cast<std::size_t>(s)];
    }
    stats.tcells_tissue = tcell_list_.size();
    spmd::reduce_step_stats(rank_, stats, pool_, step_, params_);
  }

  // ---- cost accounting ---------------------------------------------------------
  /// Marks the end of `phase` on the step ledger with this rank's
  /// functional work since the previous mark.
  void record_phase(perfmodel::Phase phase) {
    perfmodel::WorkSample sample;
    sample.cpu_voxel_updates = work_.cpu_voxel_updates;
    sample.cpu_list_ops = work_.cpu_list_ops;
    step_voxel_updates_ += work_.cpu_voxel_updates;
    if (obs::metrics().enabled() && work_.cpu_voxel_updates > 0) {
      // KernelProf parity counter: the CPU backend has no kernels, but each
      // phase's voxel visits imply a byte footprint (full per-voxel state
      // record per visit), comparable with the GPU side's gpu.prof.bytes.
      obs::metrics().add(
          std::string("cpu.prof.bytes_touched.") + perfmodel::phase_name(phase),
          rank_.id(),
          static_cast<double>(work_.cpu_voxel_updates * kVoxelStateBytes));
    }
    work_ = {};
    ledger_.phase_end(phase, sample);
  }

  /// Per-step metric series: halo traffic, RPC volume and the active-list
  /// working set (the ledger adds the barrier skew).
  void emit_step_metrics() {
    auto& m = obs::metrics();
    const int r = rank_.id();
    const pgas::CommStats d = ledger_.step_comm();
    m.step_value("cpu.halo_bytes", r, step_, static_cast<double>(d.put_bytes));
    m.step_value("cpu.rpcs", r, step_, static_cast<double>(d.rpcs_sent));
    m.step_value("cpu.active_voxels", r, step_,
                 static_cast<double>(active_list_.size()));
    m.step_value("cpu.voxels_touched", r, step_,
                 static_cast<double>(step_voxel_updates_));
    if (const obs::MemScope* ms = rank_.memscope()) {
      m.step_value("cpu.mem.live_bytes", r, step_,
                   static_cast<double>(ms->live_bytes()));
      m.step_value("cpu.mem.peak_bytes", r, step_,
                   static_cast<double>(ms->peak_live_bytes()));
    }
  }

  struct WorkCounters {
    std::uint64_t cpu_voxel_updates = 0;
    std::uint64_t cpu_list_ops = 0;
  };

  // ---- members -------------------------------------------------------------------
  pgas::Rank& rank_;
  SimParams params_;
  Grid grid_;
  Subdomain sub_;
  CounterRng rng_;
  Registry& registry_;
  spmd::StepLedger& ledger_;

  std::int32_t w_ = 0, h_ = 0, dz_ = 1, pw_ = 0, plane_ = 0;
  std::uint64_t step_ = 0;
  double pool_ = 0.0;

  // Grid storage is cache-line aligned (util::aligned_vector) and rows use
  // the padded stride pw_, so &grid[row_start] is always a valid aligned
  // row pointer for the stencil kernels.
  util::aligned_vector<EpiState> epi_state_;
  util::aligned_vector<std::uint32_t> epi_timer_;
  util::aligned_vector<std::uint8_t> tcell_;
  util::aligned_vector<std::uint32_t> tcell_timer_;
  util::aligned_vector<std::uint32_t> tcell_bind_;
  util::aligned_vector<float> virus_;
  util::aligned_vector<float> chem_;
  util::aligned_vector<float> tmp_;
  util::aligned_vector<std::uint8_t> occupancy_;
  util::aligned_vector<std::uint8_t> in_list_;
  std::vector<std::uint64_t> active_bits_;
  std::vector<std::uint64_t> interior_bits_;
  util::aligned_vector<float> zeros_row_;

  std::vector<std::int32_t> active_list_;
  std::vector<std::int32_t> tcell_list_;
  std::vector<std::int32_t> arrivals_;

  std::unordered_map<VoxelId, std::uint64_t> bid_move_;
  std::unordered_map<VoxelId, std::uint64_t> bid_bind_;
  std::vector<RemoteIntent> remote_intents_;

  std::array<std::uint64_t, kNumEpiStates> epi_counts_{};

  WorkCounters work_;
  std::uint64_t step_voxel_updates_ = 0;
  spmd::Halo halo_;
};

}  // namespace

CpuRunResult run_cpu_sim(const SimParams& params,
                         const std::vector<VoxelId>& foi,
                         const CpuSimOptions& options,
                         const std::vector<VoxelId>& empty_voxels) {
  Registry registry(static_cast<std::size_t>(options.num_ranks), nullptr);
  return spmd::run_spmd(
      params, options, perfmodel::Backend::kCpu,
      [&](pgas::Rank& rank, const Decomposition& dec,
          spmd::StepLedger& ledger) {
        return CpuRank(rank, params, dec, foi, empty_voxels, ledger, registry);
      });
}

}  // namespace simcov::cpu
