#include "simcov_gpu/gpu_sim.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <span>

#include "core/grid.hpp"
#include "core/rules.hpp"
#include "core/stencil.hpp"
#include "gpusim/gpusim.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_clock.hpp"
#include "obs/trace.hpp"
#include "pgas/runtime.hpp"
#include "perfmodel/mem_model.hpp"
#include "simcov_gpu/layout.hpp"
#include "simcov_gpu/tiles.hpp"
#include "util/error.hpp"

namespace simcov::gpu {

namespace {

using gpusim::Device;
using gpusim::DeviceBuffer;
using gpusim::LaunchConfig;

constexpr bool transient_epi(EpiState s) {
  return s == EpiState::kIncubating || s == EpiState::kExpressing ||
         s == EpiState::kApoptotic;
}

/// Modeled locality penalty of the untiled layout (§3.2/§3.4): without
/// memory tiling the reduction and update kernels stream voxel records that
/// span distant SoA rows, which the paper observes as slower reductions.
constexpr double kUntiledMemPenalty = 1.6;

/// Halo payload kinds.  Channel id = face * 16 + payload.
enum Payload : int {
  kPIntentKind = 0,
  kPIntentTarget,
  kPIntentBid,
  kPIntentTimer,
  kPBidMove,   ///< bid contributions / merged winners (move competition)
  kPBidBind,   ///< same for binding competition
  kPTmp,
  kPEpi,
  kPTcell,
  kPTcellTimer,
  kPTcellBind,
  kPVirus,
  kPChem,
  kNumPayloads
};
constexpr int channel_of(int face, int payload) { return face * 16 + payload; }

enum class StripSide { kBoundary, kGhost };
enum class MergeMode { kOverwrite, kMax };

/// Device-side statistics slots (§3.3): [virus, chem, epi x6, tcells].
constexpr std::size_t kNumDevStats = 2 + kNumEpiStates + 1;

class GpuRank {
 public:
  GpuRank(pgas::Rank& rank, const SimParams& params, const Decomposition& dec,
          const std::vector<VoxelId>& foi,
          const std::vector<VoxelId>& empties, const GpuSimOptions& options,
          const perfmodel::CostModel& model)
      : rank_(rank), params_(params),
        grid_(params.dim_x, params.dim_y, params.dim_z),
        sub_(dec.sub(rank.id())), rng_(params.seed), variant_(options.variant),
        lay_(sub_.extent.x, sub_.extent.y, params.tile_side),
        tiles_(lay_, options.variant.memory_tiling),
        // Deferred reporting: a rank thread that threw mid-step would
        // desert the team barrier and hang its peers, so findings go into
        // the rank's report and the SPMD driver throws after the join.
        dev_(rank.id(), gpusim::DeviceOptions{.obs = options.obs,
                                              .defer_check_report = true}),
        model_(&model), cost_log_(model), pclock_(rank.id()),
        // Device allocations: full padded layout per field.
        epi_state_(dev_, lay_.size(),
                   static_cast<std::uint8_t>(EpiState::kEmpty), "epi_state"),
        epi_timer_(dev_, lay_.size(), 0, "epi_timer"),
        tcell_(dev_, lay_.size(), 0, "tcell"),
        tcell_timer_(dev_, lay_.size(), 0, "tcell_timer"),
        tcell_bind_(dev_, lay_.size(), 0, "tcell_bind"),
        virus_(dev_, lay_.size(), 0.0f, "virus"),
        chem_(dev_, lay_.size(), 0.0f, "chem"),
        tmp_(dev_, lay_.size(), 0.0f, "tmp"),
        occupancy_(dev_, lay_.size(), 0, "occupancy"),
        eligible_(dev_, lay_.size(), 0, "eligible"),
        intent_kind_(dev_, lay_.size(), 0, "intent_kind"),
        intent_target_(dev_, lay_.size(), 0, "intent_target"),
        intent_bid_(dev_, lay_.size(), 0, "intent_bid"),
        intent_timer_(dev_, lay_.size(), 0, "intent_timer"),
        bid_move_(dev_, lay_.size(), 0, "bid_move"),
        bid_bind_(dev_, lay_.size(), 0, "bid_bind"),
        active_tiles_dev_(dev_, static_cast<std::size_t>(lay_.num_tiles()), 0,
                          "active_tiles"),
        sweep_flags_(dev_, static_cast<std::size_t>(lay_.num_tiles()), 0,
                     "sweep_flags"),
        stats_dev_(dev_, kNumDevStats, 0.0, "stats_dev"),
        extrav_dev_(dev_, 1, 0, "extrav"),
        stage_u8_(dev_, stage_len(), 0, "stage_u8"),
        stage_u32_(dev_, stage_len(), 0, "stage_u32"),
        stage_u64_(dev_, stage_len(), 0, "stage_u64"),
        stage_f32_(dev_, stage_len(), 0.0f, "stage_f32") {
    SIMCOV_REQUIRE(params_.dim_z == 1,
                   "the parallel backends support 2D simulations");
    w_ = sub_.extent.x;
    h_ = sub_.extent.y;
    // Tree reduction needs a power-of-two block.
    reduce_block_ = std::bit_floor(static_cast<unsigned>(params_.block_dim));
    crit_ = options.obs.critpath;
    if (crit_) pclock_.set_critpath(&crit_collect_);

    upload_initial_state(foi, empties);
    register_channels();
  }

  GpuRank(const GpuRank&) = delete;
  GpuRank& operator=(const GpuRank&) = delete;

  void initialize() {
    obs::ScopedSpan span("initialize", rank_.id());
    exchange_state_halo();
    run_tile_sweep();  // initial activation from the FOI seeds
    if (obs::KernelProf* prof = dev_.profiler()) {
      // Setup launches stay out of the step phases, mirroring how the cost
      // model keeps setup traffic outside the per-phase samples.
      drain_profile("setup", *prof,
                    variant_.memory_tiling ? 1.0 : kUntiledMemPenalty);
    }
  }

  void step() {
    close_tail();
    StepStats stats;
    const bool emit_metrics = obs::metrics().enabled();
    if (emit_metrics) step_comm_snapshot_ = rank_.stats();
    pclock_.begin_step();
    snapshot_counters();

    // ---- T cell kernels (Fig. 2) ------------------------------------------
    k_clear_bids();
    k_age_and_occupancy();
    k_ghost_occupancy();
    k_intents();
    record_phase(perfmodel::Phase::kTCells);

    wave_bids();  // "Copy To Ghost Voxels" between Assign Winners / Set Flips
    record_phase(perfmodel::Phase::kHalo);

    k_moves_own();
    k_moves_entrants();
    k_binds_own();
    k_binds_ghost();
    k_extravasation();
    record_phase(perfmodel::Phase::kTCells);

    // ---- epithelial FSM -----------------------------------------------------
    k_epithelial();
    record_phase(perfmodel::Phase::kEpithelial);

    // ---- concentration fields ------------------------------------------------
    field_pass(virus_, /*virus=*/true);
    field_pass(chem_, /*virus=*/false);
    record_phase(perfmodel::Phase::kConcentrations);

    // ---- periodic active-tile sweep (§3.2) -------------------------------------
    if (variant_.memory_tiling &&
        (step_ + 1) % static_cast<std::uint64_t>(params_.tile_check_period) ==
            0) {
      run_tile_sweep();
      record_phase(perfmodel::Phase::kTileSweep);
    }

    // ---- end-of-step state halo ---------------------------------------------------
    exchange_state_halo();
    record_phase(perfmodel::Phase::kHalo);

    // ---- statistics reduction (§3.3) ---------------------------------------------
    reduce_stats(stats);
    record_phase(perfmodel::Phase::kReduceStats);

    pclock_.end_step();
    tail_mark_ = obs::now_ns();
    if (crit_) critpath_step();
    if (emit_metrics) emit_step_metrics();
    cost_log_.end_step();
    history_.push_back(stats);
    ++step_;
  }

  /// Closes an open untimed-tail interval: step-loop host work outside the
  /// phase spans (the critpath gather and analysis, metric emission,
  /// cost-log and history bookkeeping).  The gather's barrier wait is
  /// included per rank, so the run folds tails with MIN over ranks — the
  /// last-arriving rank waits ~nothing and its tail is the intrinsic cost.
  /// The run loop calls this once more after the last step, before the
  /// closing barrier.
  void close_tail() {
    if (tail_mark_ == 0) return;
    tail_ns_ += static_cast<std::uint64_t>(obs::now_ns() - tail_mark_);
    tail_mark_ = 0;
  }

  std::uint64_t local_digest() {
    // Test support: pull the full state to the host and fold the canonical
    // per-voxel digest over owned voxels.
    const std::size_t n = lay_.size();
    std::vector<std::uint8_t> epi(n), tc(n);
    std::vector<std::uint32_t> et(n), tt(n), tb(n);
    std::vector<float> vv(n), cc(n);
    epi_state_.copy_to_host(epi);
    epi_timer_.copy_to_host(et);
    tcell_.copy_to_host(tc);
    tcell_timer_.copy_to_host(tt);
    tcell_bind_.copy_to_host(tb);
    virus_.copy_to_host(vv);
    chem_.copy_to_host(cc);
    std::uint64_t d = 0;
    for (std::int32_t y = 0; y < h_; ++y) {
      for (std::int32_t x = 0; x < w_; ++x) {
        const std::uint32_t s = lay_.index(x, y);
        d ^= rules::voxel_digest(gid(x, y), static_cast<EpiState>(epi[s]),
                                 et[s], tc[s], tt[s], tb[s], vv[s], cc[s]);
      }
    }
    return d;
  }

  const TimeSeries& history() const { return history_; }
  /// CritPath accumulator (steps() == 0 when critpath is off).
  const obs::CritPathAccum& critpath_accum() const { return crit_accum_; }

  /// Everything this rank measured, for the SPMD driver's merge.
  spmd::RankReport report() {
    spmd::RankReport rep;
    rep.cost_log = &cost_log_;
    rep.tail_ns = tail_ns_;
    rep.device = dev_.stats();
    if (const gpusim::KernelChecker* chk = dev_.checker()) {
      rep.check_accesses = chk->accesses_checked();
      rep.check_violations = chk->violation_count();
      rep.error = chk->report();
    }
    rep.kernel_profile = kprof_;
    if (const obs::KernelProf* p = dev_.profiler()) {
      rep.prof_binds = p->total_binds();
    }
    // MemScope: the device registry plus the PGAS rank's host-side slots
    // (channel landing zones, and the RPC queue's high-water mark charged
    // here as a gauge — the queue is mutated by sender threads, so it is
    // counted at harvest rather than per enqueue).
    if (const obs::MemScope* dm = dev_.memscope()) rep.memory = dm->report();
    if (obs::MemScope* pm = rank_.memscope()) {
      pm->gauge_peak("pgas.rpc_queue",
                     rank_.rpc_queue_peak() * sizeof(std::function<void()>));
      obs::merge_mem_reports(rep.memory, pm->report());
    }
    if (!rep.memory.empty()) {
      // Modeled bytes from the same geometry this rank allocates from.
      perfmodel::GpuRankMemShape shape;
      shape.w = w_;
      shape.h = h_;
      shape.tile_side = params_.tile_side;
      for (int f = 0; f < kNumFaces; ++f) {
        if (sub_.neighbour[static_cast<std::size_t>(f)] >= 0) {
          shape.face_lens.push_back(face_len(f));
        }
      }
      rep.mem_modeled_by_category = perfmodel::gpu_rank_memory(shape);
    }
    return rep;
  }

 private:
  // ---- geometry helpers ------------------------------------------------------
  VoxelId gid(std::int32_t x, std::int32_t y) const {
    return static_cast<VoxelId>(sub_.origin.y + y) *
               static_cast<VoxelId>(grid_.dim_x()) +
           static_cast<VoxelId>(sub_.origin.x + x);
  }
  std::size_t stage_len() const {
    return static_cast<std::size_t>(
        std::max(sub_.extent.x, sub_.extent.y));
  }
  std::size_t face_len(int face) const {
    return (face == kFaceXNeg || face == kFaceXPos)
               ? static_cast<std::size_t>(h_)
               : static_cast<std::size_t>(w_);
  }
  void boundary_xy(int face, std::uint32_t i, std::int32_t& x,
                   std::int32_t& y) const {
    switch (face) {
      case kFaceXNeg: x = 0; y = static_cast<std::int32_t>(i); break;
      case kFaceXPos: x = w_ - 1; y = static_cast<std::int32_t>(i); break;
      case kFaceYNeg: x = static_cast<std::int32_t>(i); y = 0; break;
      default: x = static_cast<std::int32_t>(i); y = h_ - 1; break;
    }
  }
  void ghost_xy(int face, std::uint32_t i, std::int32_t& x,
                std::int32_t& y) const {
    switch (face) {
      case kFaceXNeg: x = -1; y = static_cast<std::int32_t>(i); break;
      case kFaceXPos: x = w_; y = static_cast<std::int32_t>(i); break;
      case kFaceYNeg: x = static_cast<std::int32_t>(i); y = -1; break;
      default: x = static_cast<std::int32_t>(i); y = h_; break;
    }
  }
  static int opposite(int face) { return face ^ 1; }

  LaunchConfig tile_launch(const char* name) const {
    const std::uint64_t items = static_cast<std::uint64_t>(
        tiles_.active_count() * static_cast<std::size_t>(lay_.slots_per_tile()));
    const auto bd = static_cast<std::uint32_t>(params_.block_dim);
    return {static_cast<std::uint32_t>((items + bd - 1) / bd), bd, name};
  }
  LaunchConfig linear_launch(std::uint64_t items, const char* name) const {
    const auto bd = static_cast<std::uint32_t>(params_.block_dim);
    return {static_cast<std::uint32_t>(std::max<std::uint64_t>(
                1, (items + bd - 1) / bd)),
            bd, name};
  }

  // ---- initialization ------------------------------------------------------------
  void upload_initial_state(const std::vector<VoxelId>& foi,
                            const std::vector<VoxelId>& empties) {
    std::vector<std::uint8_t> epi(lay_.size(),
                                  static_cast<std::uint8_t>(EpiState::kEmpty));
    std::vector<float> vir(lay_.size(), 0.0f);
    for (std::int32_t y = 0; y < h_; ++y) {
      for (std::int32_t x = 0; x < w_; ++x) {
        epi[lay_.index(x, y)] = static_cast<std::uint8_t>(EpiState::kHealthy);
      }
    }
    for (VoxelId v : empties) {
      const Coord c = grid_.to_coord(v);
      if (!sub_.contains(c)) continue;
      epi[lay_.index(c.x - sub_.origin.x, c.y - sub_.origin.y)] =
          static_cast<std::uint8_t>(EpiState::kEmpty);
    }
    for (VoxelId v : foi) {
      const Coord c = grid_.to_coord(v);
      if (!sub_.contains(c)) continue;
      SIMCOV_REQUIRE(
          epi[lay_.index(c.x - sub_.origin.x, c.y - sub_.origin.y)] !=
              static_cast<std::uint8_t>(EpiState::kEmpty),
          "FOI voxel is an airway (empty) voxel");
      vir[lay_.index(c.x - sub_.origin.x, c.y - sub_.origin.y)] =
          params_.initial_virus;
    }
    epi_state_.copy_from_host(epi);
    virus_.copy_from_host(vir);
    upload_active_tiles();
  }

  void register_channels() {
    for (int f = 0; f < kNumFaces; ++f) {
      if (sub_.neighbour[static_cast<std::size_t>(f)] < 0) continue;
      const std::size_t len = face_len(f);
      for (int p = 0; p < kNumPayloads; ++p) {
        rank_.register_channel(channel_of(f, p), len * sizeof(std::uint64_t));
      }
    }
  }

  void upload_active_tiles() {
    const auto& list = tiles_.active_list();
    if (!list.empty()) {
      active_tiles_dev_.copy_from_host(
          std::span<const std::uint32_t>(list.data(), list.size()));
    }
  }

  // ---- generic strip exchange ------------------------------------------------------
  template <typename T>
  DeviceBuffer<T>& stage();

  /// Exchanges one payload on all faces: packs the send-side strip of `buf`
  /// on the device, ships it through the PGAS channel, and unpacks into the
  /// receive-side strip (optionally max-merging, for bid fields).
  template <typename T>
  void exchange(DeviceBuffer<T>& buf, int payload, StripSide send_side,
                MergeMode mode) {
    std::array<std::vector<T>, kNumFaces> host;
    DeviceBuffer<T>& stg = stage<T>();
    for (int f = 0; f < kNumFaces; ++f) {
      const int nb = sub_.neighbour[static_cast<std::size_t>(f)];
      if (nb < 0) continue;
      const std::size_t len = face_len(f);
      // Pack kernel: strip -> staging.
      dev_.parallel_for(linear_launch(len, "halo_pack"), [&, f, len](auto& t) {
        const std::uint64_t i = t.global_index();
        if (i >= len) return;
        std::int32_t x, y;
        if (send_side == StripSide::kBoundary) {
          boundary_xy(f, static_cast<std::uint32_t>(i), x, y);
        } else {
          ghost_xy(f, static_cast<std::uint32_t>(i), x, y);
        }
        auto src = t.global(buf);
        auto dst = t.global(stg);
        dst.write(i, src.read(lay_.index(x, y)));
      });
      host[static_cast<std::size_t>(f)].resize(len);
      stg.copy_to_host(std::span<T>(host[static_cast<std::size_t>(f)].data(), len));
      rank_.put(nb, channel_of(opposite(f), payload),
                std::as_bytes(std::span<const T>(
                    host[static_cast<std::size_t>(f)].data(), len)));
    }
    rank_.barrier();
    for (int f = 0; f < kNumFaces; ++f) {
      const int nb = sub_.neighbour[static_cast<std::size_t>(f)];
      if (nb < 0) continue;
      const std::size_t len = face_len(f);
      auto data = rank_.channel(channel_of(f, payload));
      std::vector<T> recv(len);
      std::memcpy(recv.data(), data.data(), len * sizeof(T));
      stg.copy_from_host(std::span<const T>(recv.data(), len));
      // Unpack kernel: staging -> receive-side strip.
      dev_.parallel_for(linear_launch(len, "halo_unpack"),
                        [&, f, len](auto& t) {
        const std::uint64_t i = t.global_index();
        if (i >= len) return;
        std::int32_t x, y;
        if (send_side == StripSide::kBoundary) {
          ghost_xy(f, static_cast<std::uint32_t>(i), x, y);
        } else {
          boundary_xy(f, static_cast<std::uint32_t>(i), x, y);
        }
        auto src = t.global(stg);
        auto dst = t.global(buf);
        const std::uint32_t slot = lay_.index(x, y);
        if (mode == MergeMode::kMax) {
          const T mine = dst.read(slot);
          const T theirs = src.read(i);
          dst.write(slot, std::max(mine, theirs));
        } else {
          dst.write(slot, src.read(i));
        }
      });
    }
    rank_.barrier();
  }

  /// The bid/intent communication of Fig. 2 ("Copy To Ghost Voxels").
  /// Stage 1 pushes every rank's foreign-bid contributions and boundary
  /// intents to the owner; stage 2 broadcasts the owner's merged winner
  /// fields back into the ghosts (two sub-messages of one logical wave; the
  /// second stage also covers three-rank corner competitions).
  void wave_bids() {
    // Stage 1a: my boundary intents -> neighbour ghost intent slots.
    exchange(intent_kind_, kPIntentKind, StripSide::kBoundary,
             MergeMode::kOverwrite);
    exchange(intent_target_, kPIntentTarget, StripSide::kBoundary,
             MergeMode::kOverwrite);
    exchange(intent_bid_, kPIntentBid, StripSide::kBoundary,
             MergeMode::kOverwrite);
    exchange(intent_timer_, kPIntentTimer, StripSide::kBoundary,
             MergeMode::kOverwrite);
    // Stage 1b: my ghost-slot bid contributions -> owner boundary (max).
    exchange(bid_move_, kPBidMove, StripSide::kGhost, MergeMode::kMax);
    exchange(bid_bind_, kPBidBind, StripSide::kGhost, MergeMode::kMax);
    // Stage 2: owner's merged boundary winners -> my ghost slots.
    exchange(bid_move_, kPBidMove, StripSide::kBoundary, MergeMode::kMax);
    exchange(bid_bind_, kPBidBind, StripSide::kBoundary, MergeMode::kMax);
  }

  void exchange_state_halo() {
    exchange(epi_state_, kPEpi, StripSide::kBoundary, MergeMode::kOverwrite);
    exchange(tcell_, kPTcell, StripSide::kBoundary, MergeMode::kOverwrite);
    exchange(tcell_timer_, kPTcellTimer, StripSide::kBoundary,
             MergeMode::kOverwrite);
    exchange(tcell_bind_, kPTcellBind, StripSide::kBoundary,
             MergeMode::kOverwrite);
    exchange(virus_, kPVirus, StripSide::kBoundary, MergeMode::kOverwrite);
    exchange(chem_, kPChem, StripSide::kBoundary, MergeMode::kOverwrite);
  }

  // ---- kernels -------------------------------------------------------------------
  /// Runs `body(x, y, slot)` for every interior voxel of every active tile.
  /// One thread per tile voxel (slots_per_tile, not tile_stride: the stride
  /// padding never gets a thread); slots are tile_stride-based so they land
  /// in the padded storage.
  template <typename F>
  void for_active_voxels(const char* name, F&& body) {
    const auto& list = tiles_.active_list();
    if (list.empty()) return;
    const std::uint32_t spt =
        static_cast<std::uint32_t>(lay_.slots_per_tile());
    const std::uint32_t ts = lay_.tile_stride();
    const std::uint64_t items = list.size() * spt;
    dev_.parallel_for(tile_launch(name), [&, items, spt, ts](auto& t) {
      const std::uint64_t i = t.global_index();
      if (i >= items) return;
      auto tiles_view = t.global(active_tiles_dev_);
      const std::uint32_t tile = tiles_view.read(i / spt);
      const std::uint32_t slot = tile * ts + static_cast<std::uint32_t>(i % spt);
      std::int32_t x, y;
      lay_.slot_to_xy(slot, x, y);
      if (x >= w_ || y >= h_) return;  // tile padding
      body(t, x, y, slot);
    });
  }

  /// Runs `body(t, tile_id, iy, x0, y, n, row_base)` once per in-domain row
  /// of every active tile: the vectorized concentrations sweep is one
  /// thread per (active tile, tile row), and each thread processes its
  /// row's `n` voxels with contiguous block accesses feeding the
  /// auto-vectorized row kernels (core/stencil.hpp).  `row_base` is the
  /// slot of the row's first voxel; rows of one tile are `tile_side` slots
  /// apart inside the tile's tile_stride()-slot block.
  template <typename F>
  void for_active_rows(const char* name, F&& body) {
    const auto& list = tiles_.active_list();
    if (list.empty()) return;
    const auto tile = static_cast<std::uint32_t>(lay_.tile_side());
    const std::uint32_t ts = lay_.tile_stride();
    const auto tiles_x = static_cast<std::uint32_t>(lay_.tiles_x());
    const std::uint64_t items = list.size() * tile;
    dev_.parallel_for(linear_launch(items, name),
                      [&, items, tile, ts, tiles_x](auto& t) {
      const std::uint64_t i = t.global_index();
      if (i >= items) return;
      auto tiles_view = t.global(active_tiles_dev_);
      const std::uint32_t tile_id = tiles_view.read(i / tile);
      const auto iy = static_cast<std::uint32_t>(i % tile);
      const auto tx = static_cast<std::int32_t>(tile_id % tiles_x);
      const auto ty = static_cast<std::int32_t>(tile_id / tiles_x);
      const std::int32_t y =
          ty * static_cast<std::int32_t>(tile) + static_cast<std::int32_t>(iy);
      if (y >= h_) return;  // y padding rows of edge tiles
      const std::int32_t x0 = tx * static_cast<std::int32_t>(tile);
      const std::int32_t n =
          std::min(static_cast<std::int32_t>(tile), w_ - x0);
      const std::uint32_t row_base = tile_id * ts + iy * tile;
      body(t, tile_id, iy, x0, y, n, row_base);
    });
  }

  void k_clear_bids() {
    for_active_voxels("k_clear_bids", [&](auto& t, std::int32_t, std::int32_t,
                          std::uint32_t slot) {
      t.global(bid_move_).write(slot, 0);
      t.global(bid_bind_).write(slot, 0);
      t.global(intent_kind_).write(slot, 0);
      t.global(eligible_).write(slot, 0);
    });
    // Ghost region is a contiguous suffix of the layout.
    const std::uint32_t base = lay_.interior_slots();
    const std::uint64_t n = lay_.size() - base;
    dev_.parallel_for(linear_launch(n, "k_clear_bids_ghost"),
                      [&, base, n](auto& t) {
      const std::uint64_t i = t.global_index();
      if (i >= n) return;
      const std::size_t slot = base + i;
      t.global(bid_move_).write(slot, 0);
      t.global(bid_bind_).write(slot, 0);
      t.global(intent_kind_).write(slot, 0);
    });
  }

  void k_age_and_occupancy() {
    for_active_voxels("k_age_and_occupancy", [&](auto& t, std::int32_t, std::int32_t,
                          std::uint32_t slot) {
      auto tc = t.global(tcell_);
      auto occ = t.global(occupancy_);
      if (!tc.read(slot)) {
        occ.write(slot, 0);
        return;
      }
      auto bind = t.global(tcell_bind_);
      auto timer = t.global(tcell_timer_);
      auto elig = t.global(eligible_);
      const std::uint32_t b = bind.read(slot);
      if (b > 0) {
        bind.write(slot, b - 1);
      } else {
        const std::uint32_t life = timer.read(slot);
        if (life <= 1) {
          tc.write(slot, 0);
          timer.write(slot, 0);
        } else {
          timer.write(slot, life - 1);
          elig.write(slot, 1);
        }
      }
      occ.write(slot, tc.read(slot));
    });
  }

  /// Post-aging occupancy for ghost voxels, computed locally from the
  /// exchanged end-of-previous-step T cell state (the same deterministic
  /// rule the owner applies, so both sides agree on who blocks movement).
  void k_ghost_occupancy() {
    const std::uint32_t base = lay_.interior_slots();
    const std::uint64_t n = lay_.size() - base;
    dev_.parallel_for(linear_launch(n, "k_ghost_occupancy"),
                      [&, base, n](auto& t) {
      const std::uint64_t i = t.global_index();
      if (i >= n) return;
      const std::size_t slot = base + i;
      auto tc = t.global(tcell_);
      std::uint8_t occ = 0;
      if (tc.read(slot)) {
        const std::uint32_t b = t.global(tcell_bind_).read(slot);
        const std::uint32_t life = t.global(tcell_timer_).read(slot);
        occ = (b > 0 || life > 1) ? 1 : 0;
      }
      t.global(occupancy_).write(slot, occ);
    });
  }

  void k_intents() {
    const std::uint64_t step = step_;
    for_active_voxels("k_intents", [&, step](auto& t, std::int32_t x,
                                              std::int32_t y,
                                              std::uint32_t slot) {
      if (!t.global(eligible_).read(slot)) return;
      auto epi = t.global(epi_state_);
      // Neighbour view in contract order over the *global* grid bounds.
      rules::NeighbourView nb;
      const std::int32_t gx = sub_.origin.x + x, gy = sub_.origin.y + y;
      const std::array<std::array<std::int32_t, 2>, 4> offs{
          {{-1, 0}, {+1, 0}, {0, -1}, {0, +1}}};
      for (const auto& o : offs) {
        const std::int32_t nx = gx + o[0], ny = gy + o[1];
        if (nx < 0 || nx >= grid_.dim_x() || ny < 0 || ny >= grid_.dim_y())
          continue;
        const std::uint32_t ns = lay_.index(x + o[0], y + o[1]);
        nb.ids[static_cast<std::size_t>(nb.count)] =
            static_cast<VoxelId>(ny) * grid_.dim_x() + nx;
        nb.epi[static_cast<std::size_t>(nb.count)] =
            static_cast<EpiState>(epi.read(ns));
        ++nb.count;
      }
      const VoxelId v = gid(x, y);
      const rules::Intent intent = rules::tcell_intent(
          rng_, step, v, static_cast<EpiState>(epi.read(slot)), nb);
      if (intent.kind == rules::IntentKind::kNone) return;
      t.global(intent_kind_).write(slot,
                                   static_cast<std::uint8_t>(intent.kind));
      t.global(intent_target_).write(slot, intent.target);
      t.global(intent_bid_).write(slot, intent.bid);
      t.global(intent_timer_).write(slot, t.global(tcell_timer_).read(slot));
      // "Assign winners": store the bid at the target (atomicMax); the
      // target may be a ghost slot.
      const std::uint32_t tslot = slot_of_global(intent.target);
      auto& field = (intent.kind == rules::IntentKind::kMove) ? bid_move_
                                                              : bid_bind_;
      t.global(field).atomic_max(tslot, intent.bid);
    });
  }

  /// Layout slot of a global voxel id within my padded domain (interior or
  /// ghost ring; anything further away is a bug).
  std::uint32_t slot_of_global(VoxelId v) const {
    const std::int32_t gx = static_cast<std::int32_t>(
        v % static_cast<VoxelId>(grid_.dim_x()));
    const std::int32_t gy = static_cast<std::int32_t>(
        v / static_cast<VoxelId>(grid_.dim_x()));
    return lay_.index(gx - sub_.origin.x, gy - sub_.origin.y);
  }
  bool global_is_mine(VoxelId v) const {
    const std::int32_t gx = static_cast<std::int32_t>(
        v % static_cast<VoxelId>(grid_.dim_x()));
    const std::int32_t gy = static_cast<std::int32_t>(
        v / static_cast<VoxelId>(grid_.dim_x()));
    return sub_.contains({gx, gy, 0});
  }

  void k_moves_own() {
    for_active_voxels("k_moves_own", [&](auto& t, std::int32_t, std::int32_t,
                          std::uint32_t slot) {
      if (t.global(intent_kind_).read(slot) !=
          static_cast<std::uint8_t>(rules::IntentKind::kMove))
        return;
      const VoxelId target = t.global(intent_target_).read(slot);
      const std::uint64_t bid = t.global(intent_bid_).read(slot);
      const std::uint32_t tslot = slot_of_global(target);
      if (t.global(bid_move_).read(tslot) != bid) return;   // lost tiebreak
      if (t.global(occupancy_).read(tslot)) return;         // ran into a cell
      // Winner: erase at the source; instantiate when the target is ours
      // (otherwise the owner instantiates from our exchanged intent).
      auto tc = t.global(tcell_);
      auto timer = t.global(tcell_timer_);
      if (global_is_mine(target)) {
        tc.write(tslot, 1);
        timer.write(tslot, timer.read(slot));
        t.global(tcell_bind_).write(tslot, 0);
      }
      tc.write(slot, 0);
      timer.write(slot, 0);
    });
  }

  void k_moves_entrants() {
    const std::uint32_t base = lay_.interior_slots();
    const std::uint64_t n = lay_.size() - base;
    dev_.parallel_for(linear_launch(n, "k_moves_entrants"),
                      [&, base, n](auto& t) {
      const std::uint64_t i = t.global_index();
      if (i >= n) return;
      const std::size_t slot = base + i;
      if (t.global(intent_kind_).read(slot) !=
          static_cast<std::uint8_t>(rules::IntentKind::kMove))
        return;
      const VoxelId target = t.global(intent_target_).read(slot);
      if (!global_is_mine(target)) return;
      const std::uint64_t bid = t.global(intent_bid_).read(slot);
      const std::uint32_t tslot = slot_of_global(target);
      if (t.global(bid_move_).read(tslot) != bid) return;
      if (t.global(occupancy_).read(tslot)) return;
      t.global(tcell_).write(tslot, 1);
      t.global(tcell_timer_).write(tslot,
                                   t.global(intent_timer_).read(slot));
      t.global(tcell_bind_).write(tslot, 0);
    });
  }

  void k_binds_own() {
    const std::uint64_t step = step_;
    for_active_voxels("k_binds_own", [&, step](auto& t, std::int32_t,
                                               std::int32_t,
                                               std::uint32_t slot) {
      if (t.global(intent_kind_).read(slot) !=
          static_cast<std::uint8_t>(rules::IntentKind::kBind))
        return;
      const VoxelId target = t.global(intent_target_).read(slot);
      const std::uint64_t bid = t.global(intent_bid_).read(slot);
      const std::uint32_t tslot = slot_of_global(target);
      if (t.global(bid_bind_).read(tslot) != bid) return;
      auto epi = t.global(epi_state_);
      if (static_cast<EpiState>(epi.read(tslot)) != EpiState::kExpressing)
        return;
      t.global(tcell_bind_).write(
          slot, static_cast<std::uint32_t>(params_.tcell_binding_period));
      if (global_is_mine(target)) {
        epi.write(tslot, static_cast<std::uint8_t>(EpiState::kApoptotic));
        t.global(epi_timer_).write(
            tslot, rules::sample_period(rng_, step, target,
                                        RngStream::kApoptosisPeriod,
                                        params_.apoptosis_period));
      }
    });
  }

  void k_binds_ghost() {
    const std::uint64_t step = step_;
    const std::uint32_t base = lay_.interior_slots();
    const std::uint64_t n = lay_.size() - base;
    dev_.parallel_for(linear_launch(n, "k_binds_ghost"),
                      [&, step, base, n](auto& t) {
      const std::uint64_t i = t.global_index();
      if (i >= n) return;
      const std::size_t slot = base + i;
      if (t.global(intent_kind_).read(slot) !=
          static_cast<std::uint8_t>(rules::IntentKind::kBind))
        return;
      const VoxelId target = t.global(intent_target_).read(slot);
      if (!global_is_mine(target)) return;
      const std::uint64_t bid = t.global(intent_bid_).read(slot);
      const std::uint32_t tslot = slot_of_global(target);
      if (t.global(bid_bind_).read(tslot) != bid) return;
      auto epi = t.global(epi_state_);
      if (static_cast<EpiState>(epi.read(tslot)) != EpiState::kExpressing)
        return;
      epi.write(tslot, static_cast<std::uint8_t>(EpiState::kApoptotic));
      t.global(epi_timer_).write(
          tslot, rules::sample_period(rng_, step, target,
                                      RngStream::kApoptosisPeriod,
                                      params_.apoptosis_period));
    });
  }

  void k_extravasation() {
    // Inherently ordered (attempt i sees the occupancy left by attempt
    // i-1), so this runs as a single device thread, exactly like the
    // serial rule; the attempt count is tiny relative to the voxel kernels.
    const std::uint64_t attempts = rules::num_extravasation_attempts(
        pool_, params_.max_extravasate_per_step);
    const std::uint64_t step = step_;
    dev_.launch_blocks({1, 1, "k_extravasation"},
                       [&, attempts, step](auto& blk) {
      blk.for_each_thread([&](std::uint32_t) {
        auto tc = blk.global(tcell_);
        auto timer = blk.global(tcell_timer_);
        auto bind = blk.global(tcell_bind_);
        auto epi = blk.global(epi_state_);
        auto chem = blk.global(chem_);
        auto count = blk.global(extrav_dev_);
        std::uint32_t successes = 0;
        for (std::uint64_t i = 0; i < attempts; ++i) {
          const VoxelId u =
              rules::attempt_voxel(rng_, step, i, grid_.num_voxels());
          if (!global_is_mine(u)) continue;
          const std::uint32_t slot = slot_of_global(u);
          if (!rules::attempt_accepted(rng_, step, i, chem.read(slot)))
            continue;
          if (static_cast<EpiState>(epi.read(slot)) == EpiState::kEmpty)
            continue;
          if (tc.read(slot)) continue;
          tc.write(slot, 1);
          timer.write(slot, static_cast<std::uint32_t>(
                                params_.tcell_tissue_period));
          bind.write(slot, 0);
          ++successes;
        }
        count.write(0, successes);
      });
    });
  }

  void k_epithelial() {
    const std::uint64_t step = step_;
    for_active_voxels("k_epithelial", [&, step](auto& t, std::int32_t x,
                                                 std::int32_t y,
                                                 std::uint32_t slot) {
      auto epi = t.global(epi_state_);
      const auto s = static_cast<EpiState>(epi.read(slot));
      if (s == EpiState::kEmpty || s == EpiState::kDead) return;
      auto timer = t.global(epi_timer_);
      const rules::EpiUpdate u = rules::update_epithelial(
          rng_, step, gid(x, y), s, timer.read(slot),
          t.global(virus_).read(slot), params_);
      epi.write(slot, static_cast<std::uint8_t>(u.state));
      timer.write(slot, u.timer);
    });
  }

  void field_pass(DeviceBuffer<float>& field, bool is_virus) {
    const double production =
        is_virus ? params_.virus_production : params_.chem_production;
    const double decay = is_virus ? params_.virus_decay : params_.chem_decay;
    const double diffusion =
        is_virus ? params_.virus_diffusion : params_.chem_diffusion;
    const double floor_eps = is_virus ? params_.min_virus : params_.min_chem;

    const auto tile = static_cast<std::uint32_t>(lay_.tile_side());
    const std::uint32_t ts = lay_.tile_stride();
    const auto tiles_x = static_cast<std::uint32_t>(lay_.tiles_x());
    // The y-face ghost strips are contiguous in x (layout.hpp), so a tile
    // row at the sub-domain border can read its missing neighbour row as
    // one block.  At a *global* edge the strip is all-zero (exchange never
    // writes it, field_rezero_ghost re-zeroes every pass), so adding it in
    // contract position while excluding it from the neighbour count keeps
    // the sum bit-identical to the scalar skip-out-of-bounds gather.
    const std::uint32_t ghost_yneg =
        lay_.interior_slots() + 2u * static_cast<std::uint32_t>(h_);
    const std::uint32_t ghost_ypos = ghost_yneg + static_cast<std::uint32_t>(w_);

    // Production + decay into tmp, one vectorized row per thread (tmp is
    // all-zero outside active tiles).
    for_active_rows("field_produce_decay",
                    [&](auto& t, std::uint32_t, std::uint32_t, std::int32_t,
                        std::int32_t, std::int32_t n, std::uint32_t row_base) {
      const auto un = static_cast<std::size_t>(n);
      const std::uint8_t* epi = t.global(epi_state_).read_block(row_base, un);
      const float* f = t.global(field).read_block(row_base, un);
      float* out = t.global(tmp_).write_block(row_base, un);
      stencil::produce_decay_row(f, epi, out, n, is_virus, production, decay);
    });
    // Boundary tmp -> neighbour ghosts (diffusion reads this-step values).
    exchange(tmp_, kPTmp, StripSide::kBoundary, MergeMode::kOverwrite);
    // Diffusion stencil reading tmp, writing the field.  The row interior
    // vectorizes (its -x/+x neighbours sit at c[j-1]/c[j+1]); the two
    // row-edge voxels are peeled onto the scalar gather, which handles
    // cross-tile/ghost x neighbours and the global-x-edge neighbour count.
    for_active_rows("field_diffuse",
                    [&](auto& t, std::uint32_t tile_id, std::uint32_t iy,
                        std::int32_t x0, std::int32_t y, std::int32_t n,
                        std::uint32_t row_base) {
      auto tmp = t.global(tmp_);
      const auto un = static_cast<std::size_t>(n);
      const float* c = tmp.read_block(row_base, un);
      // -y neighbour row: previous row of this tile, bottom row of the
      // tile above, or the y = -1 ghost strip.
      const float* ym;
      if (iy > 0) {
        ym = tmp.read_block(row_base - tile, un);
      } else if (y > 0) {
        ym = tmp.read_block((tile_id - tiles_x) * ts + (tile - 1) * tile, un);
      } else {
        ym = tmp.read_block(ghost_yneg + static_cast<std::uint32_t>(x0), un);
      }
      // +y neighbour row: next row of this tile, top row of the tile
      // below, or the y = h ghost strip.
      const float* yp;
      if (y + 1 >= h_) {
        yp = tmp.read_block(ghost_ypos + static_cast<std::uint32_t>(x0), un);
      } else if (iy + 1 < tile) {
        yp = tmp.read_block(row_base + tile, un);
      } else {
        yp = tmp.read_block((tile_id + tiles_x) * ts, un);
      }
      float* out = t.global(field).write_block(row_base, un);
      const std::int32_t gy = sub_.origin.y + y;
      const int cnt_row =
          2 + (gy > 0 ? 1 : 0) + (gy + 1 < grid_.dim_y() ? 1 : 0);
      if (n > 2) {
        stencil::diffuse_row(c + 1, ym + 1, yp + 1, out + 1, n - 2, cnt_row,
                             diffusion, floor_eps);
      }
      const std::int32_t last = n - 1;
      for (std::int32_t ix = 0; ix <= last; ix += (last > 0 ? last : 1)) {
        const std::int32_t x = x0 + ix;
        const std::int32_t gx = sub_.origin.x + x;
        double sum = 0.0;
        int cnt = 0;
        const std::array<std::array<std::int32_t, 2>, 4> offs{
            {{-1, 0}, {+1, 0}, {0, -1}, {0, +1}}};
        for (const auto& o : offs) {
          const std::int32_t nx = gx + o[0], ny = gy + o[1];
          if (nx < 0 || nx >= grid_.dim_x() || ny < 0 || ny >= grid_.dim_y())
            continue;
          sum +=
              static_cast<double>(tmp.read(lay_.index(x + o[0], y + o[1])));
          ++cnt;
        }
        out[ix] = rules::diffuse(c[ix], sum, cnt, diffusion, floor_eps);
        if (last == 0) break;
      }
    });
    // Re-zero tmp for the next field (active rows + ghost strips only —
    // everything else was never written).
    for_active_rows("field_rezero",
                    [&](auto& t, std::uint32_t, std::uint32_t, std::int32_t,
                        std::int32_t, std::int32_t n, std::uint32_t row_base) {
      float* out =
          t.global(tmp_).write_block(row_base, static_cast<std::size_t>(n));
      for (std::int32_t j = 0; j < n; ++j) out[j] = 0.0f;
    });
    const std::uint32_t base = lay_.interior_slots();
    const std::uint64_t n = lay_.size() - base;
    dev_.parallel_for(linear_launch(n, "field_rezero_ghost"),
                      [&, base, n](auto& t) {
      const std::uint64_t i = t.global_index();
      if (i >= n) return;
      t.global(tmp_).write(base + i, 0.0f);
    });
  }

  void run_tile_sweep() {
    obs::ScopedSpan span("tile_sweep_scan", rank_.id());
    // One block per tile scans its voxels; the block flag lives in shared
    // memory and one thread publishes it (§3.2).
    const auto spt = static_cast<std::uint32_t>(lay_.slots_per_tile());
    const std::uint32_t ts = lay_.tile_stride();
    const std::uint32_t bd = std::min<std::uint32_t>(spt, 1024);
    dev_.launch_blocks(
        {static_cast<std::uint32_t>(lay_.num_tiles()), bd, "tile_sweep"},
        [&, ts](auto& blk) {
          // One flag slot per thread: every thread writing a single shared
          // found[0] in the same phase is a write-write race on real
          // hardware (the old code relied on all writers storing the same
          // value); the per-thread slots are OR-folded by thread 0 in the
          // publishing phase, after the implicit __syncthreads.
          auto found = blk.template shared<std::uint32_t>(bd);
          blk.for_each_thread([&](std::uint32_t tid) {
            auto epi = blk.global(epi_state_);
            auto tc = blk.global(tcell_);
            auto vir = blk.global(virus_);
            auto che = blk.global(chem_);
            for (std::uint32_t i = tid; i < spt; i += bd) {
              const std::uint32_t slot = blk.block_idx() * ts + i;
              std::int32_t x, y;
              lay_.slot_to_xy(slot, x, y);
              if (x >= w_ || y >= h_) continue;  // tile padding
              if (vir.read(slot) > 0.0f || che.read(slot) > 0.0f ||
                  tc.read(slot) != 0 ||
                  transient_epi(static_cast<EpiState>(epi.read(slot)))) {
                found[tid] = 1;
              }
            }
          });
          blk.for_each_thread([&](std::uint32_t tid) {
            if (tid == 0) {
              std::uint32_t any = 0;
              for (std::uint32_t k = 0; k < bd; ++k) {
                any |= static_cast<std::uint32_t>(found[k]);
              }
              blk.global(sweep_flags_)
                  .write(blk.block_idx(), static_cast<std::uint8_t>(any));
            }
          });
        });
    std::vector<std::uint8_t> raw(static_cast<std::size_t>(lay_.num_tiles()));
    sweep_flags_.copy_to_host(raw);
    tiles_.update_from_sweep(raw);
    upload_active_tiles();
  }

  void reduce_stats(StepStats& stats) {
    if (variant_.fast_reduction) {
      reduce_tree();
    } else {
      reduce_atomic();
    }
    std::array<double, kNumDevStats> dev_stats{};
    stats_dev_.copy_to_host(std::span<double>(dev_stats.data(), kNumDevStats));
    std::array<std::uint32_t, 1> extrav{};
    extrav_dev_.copy_to_host(std::span<std::uint32_t>(extrav.data(), 1));

    stats.virus_total = dev_stats[0];
    stats.chem_total = dev_stats[1];
    for (int s = 0; s < kNumEpiStates; ++s) {
      stats.epi_counts[static_cast<std::size_t>(s)] =
          static_cast<std::uint64_t>(dev_stats[static_cast<std::size_t>(2 + s)] +
                                     0.5);
    }
    stats.tcells_tissue =
        static_cast<std::uint64_t>(dev_stats[2 + kNumEpiStates] + 0.5);
    stats.extravasated = extrav[0];

    const auto flat = stats.flatten();
    const auto reduced =
        rank_.allreduce_sum(std::span<const double>(flat.data(), flat.size()));
    std::array<double, StepStats::kFlatSize> arr{};
    std::copy(reduced.begin(), reduced.end(), arr.begin());
    stats = StepStats::unflatten(arr);
    pool_ = rules::pool_after_step(pool_, step_, params_, stats.extravasated);
    stats.tcells_vascular = pool_;

    stats_dev_.fill(0.0);
    extrav_dev_.fill(0);
  }

  /// Unoptimized reduction: every voxel updates the global counters with
  /// atomics — the contention §3.3 identifies as the dominant cost.
  void reduce_atomic() {
    const std::uint64_t n = lay_.interior_slots();
    // Per-voxel floating-point atomic adds reorder under permuted
    // schedules; this is the intentionally order-tolerant unoptimized
    // variant (§3.3).  Consumers compare virus/chem at 1e-9 relative
    // tolerance and the integer-valued stats are exact below 2^53.
    stats_dev_.tolerate_schedule_variance(
        "unoptimized per-voxel FP atomic reduction");
    dev_.parallel_for(linear_launch(n, "reduce_atomic"), [&, n](auto& t) {
      const std::uint64_t i = t.global_index();
      if (i >= n) return;
      std::int32_t x, y;
      lay_.slot_to_xy(static_cast<std::uint32_t>(i), x, y);
      if (x >= w_ || y >= h_) return;
      auto out = t.global(stats_dev_);
      const float v = t.global(virus_).read(i);
      if (v > 0.0f) out.atomic_add(0, static_cast<double>(v));
      const float c = t.global(chem_).read(i);
      if (c > 0.0f) out.atomic_add(1, static_cast<double>(c));
      const auto s = t.global(epi_state_).read(i);
      out.atomic_add(2 + s, 1.0);
      if (t.global(tcell_).read(i)) out.atomic_add(2 + kNumEpiStates, 1.0);
    });
  }

  /// Fast reduction (§3.3): threads accumulate strided subsets, blocks fold
  /// them through shared memory with a tree, and only one atomic per stat
  /// per block touches global memory.
  void reduce_tree() {
    const std::uint64_t n = lay_.interior_slots();
    const std::uint32_t bd = reduce_block_;
    const std::uint32_t blocks = static_cast<std::uint32_t>(std::clamp<std::uint64_t>(
        n / (static_cast<std::uint64_t>(bd) * 8), 1, 256));
    const std::uint64_t stride = static_cast<std::uint64_t>(blocks) * bd;
    if (blocks > 1) {
      // With several blocks the per-block partial sums meet in global
      // memory through one FP atomic_add per stat, so block order can
      // reorder the additions.  Single-block launches (every smoke-scale
      // grid) fold in a fixed tree and stay bit-identical.
      stats_dev_.tolerate_schedule_variance(
          "cross-block FP atomic merge of partial sums");
    }
    dev_.launch_blocks({blocks, bd, "reduce_tree"},
                       [&, n, bd, stride](auto& blk) {
      auto sh = blk.template shared<double>(static_cast<std::size_t>(bd) *
                                            kNumDevStats);
      blk.for_each_thread([&](std::uint32_t tid) {
        auto epi = blk.global(epi_state_);
        auto tc = blk.global(tcell_);
        auto vir = blk.global(virus_);
        auto che = blk.global(chem_);
        std::array<double, kNumDevStats> acc{};
        for (std::uint64_t i = blk.block_idx() * bd + tid; i < n; i += stride) {
          std::int32_t x, y;
          lay_.slot_to_xy(static_cast<std::uint32_t>(i), x, y);
          if (x >= w_ || y >= h_) continue;
          acc[0] += static_cast<double>(vir.read(i));
          acc[1] += static_cast<double>(che.read(i));
          acc[static_cast<std::size_t>(2 + epi.read(i))] += 1.0;
          if (tc.read(i)) acc[2 + kNumEpiStates] += 1.0;
        }
        for (std::size_t s = 0; s < kNumDevStats; ++s) {
          sh[tid * kNumDevStats + s] = acc[s];
        }
      });
      for (std::uint32_t off = bd / 2; off > 0; off >>= 1) {
        blk.for_each_thread([&](std::uint32_t tid) {
          if (tid < off) {
            for (std::size_t s = 0; s < kNumDevStats; ++s) {
              sh[tid * kNumDevStats + s] += sh[(tid + off) * kNumDevStats + s];
            }
          }
        });
      }
      blk.for_each_thread([&](std::uint32_t tid) {
        if (tid == 0) {
          auto out = blk.global(stats_dev_);
          for (std::size_t s = 0; s < kNumDevStats; ++s) {
            out.atomic_add(s, sh[s]);
          }
        }
      });
    });
  }

  // ---- cost accounting ------------------------------------------------------------
  void snapshot_counters() {
    comm_snapshot_ = rank_.stats();
    dev_snapshot_ = dev_.stats();
  }

  void record_phase(perfmodel::Phase phase) {
    perfmodel::WorkSample sample;
    sample.comm = rank_.stats().since(comm_snapshot_);
    sample.dev = dev_.stats().since(dev_snapshot_);
    sample.mem_penalty = variant_.memory_tiling ? 1.0 : kUntiledMemPenalty;
    cost_log_.add(phase, sample);
    comm_snapshot_ = rank_.stats();
    dev_snapshot_ = dev_.stats();
    if (obs::KernelProf* prof = dev_.profiler()) {
      drain_profile(perfmodel::phase_name(phase), *prof, sample.mem_penalty);
    }
    // The modeled phases double as the measured trace spans, so the
    // Perfetto track and the cost model speak the same phase vocabulary
    // (and the critpath collector indexes by the same enum).
    pclock_.phase_end(perfmodel::phase_name(phase), static_cast<int>(phase));
    if (obs::tracer().enabled()) {
      if (const obs::MemScope* ms = dev_.memscope()) {
        // Chrome counter sample ("ph":"C"): one point per phase boundary
        // gives Perfetto the per-rank memory sawtooth as stacked tracks.
        obs::TraceEvent ev{"gpu.mem", rank_.id(), obs::now_ns(), 0};
        ev.counter = true;
        ev.add_arg("live_bytes", static_cast<double>(ms->live_bytes()));
        ev.add_arg("peak_bytes", static_cast<double>(ms->peak_live_bytes()));
        obs::tracer().record(ev);
      }
    }
  }

  /// KernelProf drain: every launch since the previous drain belongs to the
  /// phase `pname`.  Each record is priced with the same CostModel (and the
  /// same mem_penalty) as the enclosing phase sample, so the per-kernel
  /// modeled seconds sum to the phase's modeled device cost; when the
  /// tracer is live each launch also becomes its own span under the rank's
  /// track (KernelProf and the tracer share the steady clock).
  void drain_profile(const char* pname, obs::KernelProf& prof,
                     double mem_penalty) {
    const bool tracing = obs::tracer().enabled();
    for (obs::LaunchRecord& rec : prof.drain()) {
      obs::KernelStats ks;
      ks.phase = pname;
      ks.kernel = rec.kernel;
      ks.launches = 1;
      ks.wall_ns = static_cast<std::uint64_t>(rec.end_ns - rec.start_ns);
      ks.threads = rec.threads;
      ks.read_bytes = rec.read_bytes;
      ks.write_bytes = rec.write_bytes;
      ks.atomic_ops = rec.atomic_ops;
      perfmodel::WorkSample one;
      one.dev.kernel_launches = 1;
      one.dev.threads_executed = rec.threads;
      one.dev.global_read_bytes = rec.read_bytes;
      one.dev.global_write_bytes = rec.write_bytes;
      one.dev.atomic_ops = rec.atomic_ops;
      one.mem_penalty = mem_penalty;
      ks.modeled_s = model_->price(one);
      for (auto& [buf, traffic] : rec.buffers) {
        ks.by_buffer[buf] = traffic;
      }
      obs::merge_kernel_stats(kprof_, ks);
      if (tracing) {
        obs::TraceEvent ev{rec.kernel, rank_.id(),
                           static_cast<obs::Nanos>(rec.start_ns),
                           static_cast<obs::Nanos>(rec.end_ns)};
        const double bytes =
            static_cast<double>(rec.read_bytes + rec.write_bytes);
        ev.add_arg("bytes", bytes);
        const double secs =
            static_cast<double>(rec.end_ns - rec.start_ns) / 1e9;
        ev.add_arg("gbps", secs > 0.0 ? bytes / secs / 1e9 : 0.0);
        ev.add_arg("threads", static_cast<double>(rec.threads));
        ev.add_arg("atomics", static_cast<double>(rec.atomic_ops));
        obs::tracer().record(ev);
      }
    }
  }

  /// End-of-step critical-path gather and analysis (obs/critpath.hpp): all
  /// ranks exchange their phase deltas plus barrier-wait delta through the
  /// observability-only collective path and run the identical deterministic
  /// analysis, so each rank knows locally whether it bound this step.
  void critpath_step() {
    constexpr int kP = perfmodel::kNumPhases;
    constexpr int kStride = obs::crit_payload_doubles(kP);
    const int world = rank_.world_size();
    double payload[kStride];
    for (int p = 0; p < kP; ++p) payload[p] = crit_collect_.phase_ns(p);
    const std::uint64_t wait = rank_.stats().barrier_wait_ns;
    payload[kP] = static_cast<double>(wait - crit_wait_snapshot_);
    crit_wait_snapshot_ = wait;
    crit_gather_.resize(static_cast<std::size_t>(world) * kStride);
    rank_.obs_allgather(std::span<const double>(payload, kStride),
                        crit_gather_);
    const obs::CritPathAccum::StepInfo info =
        crit_accum_.step(crit_gather_, world, kP);
    if (info.binding_rank == rank_.id() && obs::tracer().enabled()) {
      // Flag the binding rank's step on its own track so Perfetto shows
      // the chain of critical spans across ranks.
      obs::TraceEvent ev{"critical_path", rank_.id(), pclock_.step_start(),
                         pclock_.step_end()};
      ev.add_arg("step", static_cast<double>(step_));
      ev.add_arg("work_ns", info.work_ns);
      ev.add_arg("wait_ns", info.wait_ns);
      obs::tracer().record(ev);
    }
    if (rank_.id() == 0 && obs::metrics().enabled()) {
      obs::metrics().step_value("critpath.binding_rank", 0, step_,
                                static_cast<double>(info.binding_rank));
      obs::metrics().step_value("critpath.critical_ns", 0, step_,
                                info.critical_ns);
    }
  }

  /// Per-step metric series (§3.2/§3.3 observability): halo traffic,
  /// barrier skew, and the active-tile working set.
  void emit_step_metrics() {
    auto& m = obs::metrics();
    const int r = rank_.id();
    const pgas::CommStats d = rank_.stats().since(step_comm_snapshot_);
    m.step_value("gpu.halo_bytes", r, step_, static_cast<double>(d.put_bytes));
    m.step_value("pgas.barrier_wait_ns", r, step_,
                 static_cast<double>(d.barrier_wait_ns));
    const double tiles = static_cast<double>(tiles_.active_count());
    const double total = static_cast<double>(lay_.num_tiles());
    m.step_value("gpu.active_tiles", r, step_, tiles);
    m.step_value("gpu.tile_occupancy", r, step_,
                 total > 0.0 ? tiles / total : 0.0);
    m.step_value("gpu.voxels_touched", r, step_,
                 tiles * static_cast<double>(lay_.slots_per_tile()));
    m.set("gpu.tile_activations", r,
          static_cast<double>(tiles_.activations()));
    m.set("gpu.tile_deactivations", r,
          static_cast<double>(tiles_.deactivations()));
    if (const gpusim::KernelChecker* chk = dev_.checker()) {
      m.set("gpu.check.launches", r,
            static_cast<double>(chk->launches_checked()));
      m.set("gpu.check.violations", r,
            static_cast<double>(chk->violation_count()));
      m.set("gpu.check.permuted", r,
            static_cast<double>(chk->launches_permuted()));
      m.set("gpu.check.tolerated", r,
            static_cast<double>(chk->tolerated_diffs()));
    }
    if (const obs::MemScope* ms = dev_.memscope()) {
      // MemScope series: the device registry's live/peak totals plus the
      // tile working set actually resident this step — the per-step signal
      // ROADMAP item 2's "same RSS at 16x grid" gate will watch.
      m.step_value("gpu.mem.live_bytes", r, step_,
                   static_cast<double>(ms->live_bytes()));
      m.step_value("gpu.mem.peak_bytes", r, step_,
                   static_cast<double>(ms->peak_live_bytes()));
      m.step_value("gpu.mem.resident_tiles", r, step_, tiles);
    }
    if (dev_.profiler() != nullptr) {
      // KernelProf series: per-step deltas of the profiled launch totals
      // (the cumulative aggregates live in GpuRunResult::kernel_profile).
      std::uint64_t launches = 0, wall = 0, bytes = 0;
      for (const obs::KernelStats& k : kprof_) {
        launches += k.launches;
        wall += k.wall_ns;
        bytes += k.read_bytes + k.write_bytes;
      }
      m.step_value("gpu.prof.launches", r, step_,
                   static_cast<double>(launches - prof_launches_snapshot_));
      m.step_value("gpu.prof.kernel_ns", r, step_,
                   static_cast<double>(wall - prof_wall_snapshot_));
      m.step_value("gpu.prof.bytes", r, step_,
                   static_cast<double>(bytes - prof_bytes_snapshot_));
      prof_launches_snapshot_ = launches;
      prof_wall_snapshot_ = wall;
      prof_bytes_snapshot_ = bytes;
    }
  }

  // ---- members -----------------------------------------------------------------------
  pgas::Rank& rank_;
  SimParams params_;
  Grid grid_;
  Subdomain sub_;
  CounterRng rng_;
  GpuVariant variant_;
  TiledLayout lay_;
  ActiveTileSet tiles_;
  Device dev_;
  const perfmodel::CostModel* model_;
  perfmodel::RankCostLog cost_log_;
  obs::PhaseClock pclock_;
  bool crit_ = false;
  obs::CritPathCollector crit_collect_;
  obs::CritPathAccum crit_accum_;
  std::vector<double> crit_gather_;
  std::uint64_t crit_wait_snapshot_ = 0;
  obs::Nanos tail_mark_ = 0;
  std::uint64_t tail_ns_ = 0;
  std::vector<obs::KernelStats> kprof_;
  std::uint64_t prof_launches_snapshot_ = 0;
  std::uint64_t prof_wall_snapshot_ = 0;
  std::uint64_t prof_bytes_snapshot_ = 0;

  std::int32_t w_ = 0, h_ = 0;
  std::uint32_t reduce_block_ = 128;
  std::uint64_t step_ = 0;
  double pool_ = 0.0;

  DeviceBuffer<std::uint8_t> epi_state_;
  DeviceBuffer<std::uint32_t> epi_timer_;
  DeviceBuffer<std::uint8_t> tcell_;
  DeviceBuffer<std::uint32_t> tcell_timer_;
  DeviceBuffer<std::uint32_t> tcell_bind_;
  DeviceBuffer<float> virus_;
  DeviceBuffer<float> chem_;
  DeviceBuffer<float> tmp_;
  DeviceBuffer<std::uint8_t> occupancy_;
  DeviceBuffer<std::uint8_t> eligible_;
  DeviceBuffer<std::uint8_t> intent_kind_;
  DeviceBuffer<std::uint64_t> intent_target_;
  DeviceBuffer<std::uint64_t> intent_bid_;
  DeviceBuffer<std::uint32_t> intent_timer_;
  DeviceBuffer<std::uint64_t> bid_move_;
  DeviceBuffer<std::uint64_t> bid_bind_;
  DeviceBuffer<std::uint32_t> active_tiles_dev_;
  DeviceBuffer<std::uint8_t> sweep_flags_;
  DeviceBuffer<double> stats_dev_;
  DeviceBuffer<std::uint32_t> extrav_dev_;
  DeviceBuffer<std::uint8_t> stage_u8_;
  DeviceBuffer<std::uint32_t> stage_u32_;
  DeviceBuffer<std::uint64_t> stage_u64_;
  DeviceBuffer<float> stage_f32_;

  TimeSeries history_;
  pgas::CommStats comm_snapshot_;
  pgas::CommStats step_comm_snapshot_;
  gpusim::DeviceStats dev_snapshot_;
};

template <>
DeviceBuffer<std::uint8_t>& GpuRank::stage<std::uint8_t>() {
  return stage_u8_;
}
template <>
DeviceBuffer<std::uint32_t>& GpuRank::stage<std::uint32_t>() {
  return stage_u32_;
}
template <>
DeviceBuffer<std::uint64_t>& GpuRank::stage<std::uint64_t>() {
  return stage_u64_;
}
template <>
DeviceBuffer<float>& GpuRank::stage<float>() {
  return stage_f32_;
}

}  // namespace

GpuRunResult run_gpu_sim(const SimParams& params,
                         const std::vector<VoxelId>& foi,
                         const GpuSimOptions& options,
                         const std::vector<VoxelId>& empty_voxels) {
  return spmd::run_spmd(
      params, options, perfmodel::Backend::kGpu,
      [&](pgas::Rank& rank, const Decomposition& dec,
          const perfmodel::CostModel& model) {
        return GpuRank(rank, params, dec, foi, empty_voxels, options, model);
      });
}

}  // namespace simcov::gpu
