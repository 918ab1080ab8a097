#include "simcov_gpu/gpu_sim.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <span>
#include <thread>
#include <tuple>

#include "core/grid.hpp"
#include "core/rules.hpp"
#include "core/stencil.hpp"
#include "gpusim/gpusim.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pgas/runtime.hpp"
#include "perfmodel/mem_model.hpp"
#include "simcov_gpu/layout.hpp"
#include "simcov_gpu/tiles.hpp"
#include "spmd/halo.hpp"
#include "util/error.hpp"

namespace simcov::gpu {

namespace {

using gpusim::Device;
using gpusim::DeviceBuffer;
using gpusim::LaunchConfig;
using gpusim::RunCtx;

/// Modeled locality penalty of the untiled layout (§3.2/§3.4): without
/// memory tiling the reduction and update kernels stream voxel records that
/// span distant SoA rows, which the paper observes as slower reductions.
constexpr double kUntiledMemPenalty = 1.6;

/// Halo payload kinds: the streams of the rank's spmd::Halo.
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

/// Every payload channel is a u64 wide per face slot, whatever it carries.
constexpr std::array<std::size_t, kNumPayloads> kPayloadSlotBytes = {
    8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8};
static_assert(spmd::bytes_per_face_slot(kPayloadSlotBytes) ==
                  perfmodel::kGpuPgasBytesPerFaceSlot,
              "GPU halo channels and the memory model disagree");

enum class StripSide { kBoundary, kGhost };
enum class MergeMode { kOverwrite, kMax };

/// Host <-> device staging for halo strips: one device buffer per payload
/// element type, looked up by type.
template <typename... Ts>
struct StagingSet {
  static constexpr std::size_t kBytesPerSlot = (sizeof(Ts) + ...);
  std::tuple<gpusim::DeviceBuffer<Ts>...> bufs;
};
using Staging = StagingSet<std::uint8_t, std::uint32_t, std::uint64_t, float>;
static_assert(Staging::kBytesPerSlot ==
                  perfmodel::kGpuHaloStagingBytesPerSlot,
              "GPU halo staging and the memory model disagree");

/// Device-side statistics slots (§3.3): [virus, chem, epi x6, tcells].
constexpr std::size_t kNumDevStats = 2 + kNumEpiStates + 1;

class GpuRank {
 public:
  GpuRank(pgas::Rank& rank, const SimParams& params, const Decomposition& dec,
          const std::vector<VoxelId>& foi,
          const std::vector<VoxelId>& empties, const GpuSimOptions& options,
          spmd::StepLedger& ledger)
      : rank_(rank), params_(params),
        grid_(params.dim_x, params.dim_y, params.dim_z),
        sub_(dec.sub(rank.id())), halo_(rank, sub_, kPayloadSlotBytes),
        rng_(params.seed), variant_(options.variant),
        lay_(sub_.extent.x, sub_.extent.y, params.tile_side),
        tiles_(lay_, options.variant.memory_tiling),
        // A KernelCheck finding throws at the end of its launch, which
        // aborts the PGAS team; Runtime::run() reports it, naming the rank.
        dev_(rank.id(), gpusim::DeviceOptions{.obs = options.obs,
                                              .workers = options.workers}),
        ledger_(ledger),
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
        stage_{{DeviceBuffer<std::uint8_t>(dev_, stage_len(), 0, "stage_u8"),
                DeviceBuffer<std::uint32_t>(dev_, stage_len(), 0, "stage_u32"),
                DeviceBuffer<std::uint64_t>(dev_, stage_len(), 0, "stage_u64"),
                DeviceBuffer<float>(dev_, stage_len(), 0.0f, "stage_f32")}} {
    SIMCOV_REQUIRE(params_.dim_z == 1,
                   "the parallel backends support 2D simulations");
    w_ = sub_.extent.x;
    h_ = sub_.extent.y;
    // Tree reduction needs a power-of-two block.
    reduce_block_ = std::bit_floor(static_cast<unsigned>(params_.block_dim));

    upload_initial_state(foi, empties);
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
      prof_step_ = {};  // nor are they step 0's gpu.prof.* series
    }
  }

  StepStats step() {
    StepStats stats;
    dev_snapshot_ = dev_.stats();

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

    if (obs::metrics().enabled()) emit_step_metrics();
    ++step_;
    return stats;
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

  /// Everything this rank measured, for the SPMD driver's merge.
  spmd::RankReport report() {
    spmd::RankReport rep;
    rep.device = dev_.stats();
    if (const gpusim::KernelChecker* chk = dev_.checker()) {
      rep.check_accesses = chk->accesses_checked();
      rep.check_violations = chk->violation_count();
    }
    rep.kernel_profile = kprof_;
    if (const obs::KernelProf* p = dev_.profiler()) {
      rep.prof_binds = p->total_binds();
    }
    // MemScope: the device registry (the driver adds the PGAS rank's).
    if (const obs::MemScope* dm = dev_.memscope()) {
      rep.memory = dm->report();
      // Modeled bytes from the same geometry this rank allocates from.
      perfmodel::GpuRankMemShape shape;
      shape.w = w_;
      shape.h = h_;
      shape.tile_side = params_.tile_side;
      shape.face_lens = halo_.face_lens();
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

  void upload_active_tiles() {
    const auto& list = tiles_.active_list();
    if (!list.empty()) {
      active_tiles_dev_.copy_from_host(
          std::span<const std::uint32_t>(list.data(), list.size()));
    }
  }

  // ---- strip exchange ------------------------------------------------------------
  /// Exchanges one payload on all faces (the protocol is spmd::Halo's): a
  /// pack kernel gathers the send-side strip of `buf` into staging for each
  /// neighbour, and an unpack kernel scatters each arrived strip into the
  /// receive-side strip (optionally max-merging, for bid fields).  The
  /// staging copies memcpy, so the T* views of the byte strips are safe.
  template <typename T>
  void exchange(DeviceBuffer<T>& buf, int payload, StripSide send_side,
                MergeMode mode) {
    DeviceBuffer<T>& stg = std::get<DeviceBuffer<T>>(stage_.bufs);
    const bool send_boundary = send_side == StripSide::kBoundary;
    halo_.exchange(payload, sizeof(T), [&](int f, std::span<std::byte> out) {
      const std::size_t len = out.size() / sizeof(T);
      dev_.parallel_for(linear_launch(len, "halo_pack"),
                        [&, f, len](auto& t, const auto& src, const auto& dst) {
        const std::uint64_t i = t.global_index();
        if (i >= len) return;
        const spmd::StripCoord c =
            send_boundary ? halo_.boundary(f, i) : halo_.ghost(f, i);
        dst.write(i, src.read(lay_.index(c.x, c.y)));
      }, buf, stg);
      stg.copy_to_host(std::span<T>(reinterpret_cast<T*>(out.data()), len));
    }, [&](int f, std::span<const std::byte> in) {
      const std::size_t len = in.size() / sizeof(T);
      stg.copy_from_host(
          std::span<const T>(reinterpret_cast<const T*>(in.data()), len));
      dev_.parallel_for(linear_launch(len, "halo_unpack"),
                        [&, f, len](auto& t, const auto& src, const auto& dst) {
        const std::uint64_t i = t.global_index();
        if (i >= len) return;
        const spmd::StripCoord c =
            send_boundary ? halo_.ghost(f, i) : halo_.boundary(f, i);
        const std::uint32_t slot = lay_.index(c.x, c.y);
        if (mode == MergeMode::kMax) {
          const T mine = dst.read(slot);
          dst.write(slot, std::max(mine, src.read(i)));
        } else {
          dst.write(slot, src.read(i));
        }
      }, stg, buf);
    });
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
  // Every kernel takes its buffers as launch arguments (Device::parallel_runs):
  // each is bound to a GlobalSpan once per launch and handed to every thread
  // or run after its own parameters, in argument order.

  /// Runs `body(x0, y, slot0, n, spans...)` over every interior voxel of
  /// every active tile, with `spans` bound from `args`, one tile-row run at
  /// a time: voxels (x0 + j, y) at slots slot0 + j for j < n.  The launch
  /// has one thread per tile voxel (slots_per_tile, not tile_stride: the
  /// stride padding never gets a thread); its runs are cut at tile-row
  /// edges (segment = tile side) and then clipped to the domain, and the
  /// body makes each voxel's counted accesses, so the counters are those
  /// of one thread per voxel (DESIGN.md, "Run-granular launches").  Slots
  /// are tile_stride-based so they land in the padded storage.  The thread
  /// index fits in 32 bits (it is below interior_slots()), so it splits
  /// over the active list divide-free.
  template <typename F, typename... Ts>
  void for_active_voxels(const char* name, F&& body,
                         DeviceBuffer<Ts>&... args) {
    const auto& list = tiles_.active_list();
    if (list.empty()) return;
    const Reciprocal spt = lay_.slots_per_tile_div();
    const std::uint32_t ts = lay_.tile_stride();
    const auto side = static_cast<std::uint32_t>(lay_.tile_side());
    // A multiple of the segment: a run lies wholly below it or above it.
    const std::uint64_t items = list.size() * spt.divisor();
    dev_.parallel_runs(tile_launch(name), side, [&, items, spt, ts](
                           const RunCtx& r, const auto& tiles,
                           const auto&... spans) {
      const std::uint64_t i = r.global_index();
      if (i >= items) return;
      const std::uint32_t k = spt.div(static_cast<std::uint32_t>(i));
      const std::uint32_t in = static_cast<std::uint32_t>(i) - k * spt.divisor();
      // Every thread of the run reads the tile id, padding threads too.
      std::uint32_t tile = 0;
      for (std::uint32_t j = 0; j < r.count(); ++j) tile = tiles.read(k);
      std::int32_t x0, y;
      lay_.tile_voxel_xy(tile, in, x0, y);
      if (x0 >= w_ || y >= h_) return;  // tile padding
      const auto n = std::min(r.count(), static_cast<std::uint32_t>(w_ - x0));
      body(x0, y, tile * ts + in, n, spans...);
    }, active_tiles_dev_, args...);
  }

  /// Runs `body(tile_id, iy, x0, y, n, row_base, spans...)` once per
  /// in-domain row of every active tile: the vectorized concentrations
  /// sweep is one thread per (active tile, tile row), and each thread
  /// processes its row's `n` voxels with contiguous block accesses feeding
  /// the auto-vectorized row kernels (core/stencil.hpp).  `row_base` is the
  /// slot of the row's first voxel; rows of one tile are `tile_side` slots
  /// apart inside the tile's tile_stride()-slot block.
  template <typename F, typename... Ts>
  void for_active_rows(const char* name, F&& body, DeviceBuffer<Ts>&... args) {
    const auto& list = tiles_.active_list();
    if (list.empty()) return;
    const Reciprocal side = lay_.tile_side_div();
    const std::uint32_t tile = side.divisor();
    const std::uint32_t ts = lay_.tile_stride();
    const std::uint64_t items = list.size() * tile;
    dev_.parallel_for(linear_launch(items, name), [&, items, side, tile, ts](
                          auto& t, const auto& tiles, const auto&... spans) {
      const std::uint64_t i = t.global_index();
      if (i >= items) return;
      const std::uint32_t k = side.div(static_cast<std::uint32_t>(i));
      const std::uint32_t tile_id = tiles.read(k);
      const std::uint32_t iy = static_cast<std::uint32_t>(i) - k * tile;
      std::int32_t x0, y;
      lay_.tile_voxel_xy(tile_id, iy * tile, x0, y);
      if (y >= h_) return;  // y padding rows of edge tiles
      const std::int32_t n =
          std::min(static_cast<std::int32_t>(tile), w_ - x0);
      const std::uint32_t row_base = tile_id * ts + iy * tile;
      body(tile_id, iy, x0, y, n, row_base, spans...);
    }, active_tiles_dev_, args...);
  }

  /// Runs `body(slot0, n, spans...)` over every ghost slot (the ghost
  /// region is a contiguous suffix of the layout), one run of slots
  /// [slot0, slot0 + n) at a time; a run is at most a block of threads.
  template <typename F, typename... Ts>
  void for_ghost_slots(const char* name, F&& body, DeviceBuffer<Ts>&... args) {
    const std::uint32_t base = lay_.interior_slots();
    const std::uint64_t slots = lay_.size() - base;
    const LaunchConfig cfg = linear_launch(slots, name);
    dev_.parallel_runs(cfg, cfg.block_dim, [&, base, slots](
                           const RunCtx& r, const auto&... spans) {
      const std::uint64_t i = r.global_index();
      if (i >= slots) return;
      const auto n = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(r.count(), slots - i));
      body(base + static_cast<std::uint32_t>(i), n, spans...);
    }, args...);
  }

  /// Zeroes `span`'s slots [slot0, slot0 + n): one counted write each.
  template <typename Span>
  static void zero_run(const Span& span, std::uint32_t slot0,
                       std::uint32_t n) {
    auto* out = span.write_block(slot0, n);
    std::fill_n(out, n, 0);
  }

  void k_clear_bids() {
    for_active_voxels("k_clear_bids", [](std::int32_t, std::int32_t,
                          std::uint32_t slot0, std::uint32_t n,
                          const auto& move, const auto& bind,
                          const auto& kind, const auto& elig) {
      zero_run(move, slot0, n);
      zero_run(bind, slot0, n);
      zero_run(kind, slot0, n);
      zero_run(elig, slot0, n);
    }, bid_move_, bid_bind_, intent_kind_, eligible_);
    for_ghost_slots("k_clear_bids_ghost", [](std::uint32_t slot0,
                        std::uint32_t n, const auto& move, const auto& bind,
                        const auto& kind) {
      zero_run(move, slot0, n);
      zero_run(bind, slot0, n);
      zero_run(kind, slot0, n);
    }, bid_move_, bid_bind_, intent_kind_);
  }

  void k_age_and_occupancy() {
    for_active_voxels("k_age_and_occupancy", [](std::int32_t, std::int32_t,
                          std::uint32_t slot0, std::uint32_t n,
                          const auto& tc, const auto& occ, const auto& bind,
                          const auto& timer, const auto& elig) {
      const std::uint8_t* has = tc.read_block(slot0, n);
      std::uint8_t* out = occ.write_block(slot0, n);
      for (std::uint32_t j = 0; j < n; ++j) {
        if (!has[j]) {
          out[j] = 0;
          continue;
        }
        const std::uint32_t slot = slot0 + j;
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
        out[j] = tc.read(slot);
      }
    }, tcell_, occupancy_, tcell_bind_, tcell_timer_, eligible_);
  }

  /// Post-aging occupancy for ghost voxels, computed locally from the
  /// exchanged end-of-previous-step T cell state (the same deterministic
  /// rule the owner applies, so both sides agree on who blocks movement).
  void k_ghost_occupancy() {
    for_ghost_slots("k_ghost_occupancy", [](std::uint32_t slot0,
                        std::uint32_t n, const auto& tc, const auto& bind,
                        const auto& timer, const auto& occupancy) {
      const std::uint8_t* has = tc.read_block(slot0, n);
      std::uint8_t* out = occupancy.write_block(slot0, n);
      for (std::uint32_t j = 0; j < n; ++j) {
        std::uint8_t occ = 0;
        if (has[j]) {
          const std::uint32_t b = bind.read(slot0 + j);
          const std::uint32_t life = timer.read(slot0 + j);
          occ = (b > 0 || life > 1) ? 1 : 0;
        }
        out[j] = occ;
      }
    }, tcell_, tcell_bind_, tcell_timer_, occupancy_);
  }

  void k_intents() {
    const std::uint64_t step = step_;
    for_active_voxels("k_intents", [&, step](std::int32_t x0, std::int32_t y,
                                              std::uint32_t slot0,
                                              std::uint32_t n,
                                              const auto& elig, const auto& epi,
                                              const auto& kind,
                                              const auto& target,
                                              const auto& bid,
                                              const auto& itimer,
                                              const auto& timer,
                                              const auto& move,
                                              const auto& bind) {
      const std::uint8_t* eligible = elig.read_block(slot0, n);
      for (std::uint32_t j = 0; j < n; ++j) {
        if (!eligible[j]) continue;
        const std::int32_t x = x0 + static_cast<std::int32_t>(j);
        const std::uint32_t slot = slot0 + j;
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
        if (intent.kind == rules::IntentKind::kNone) continue;
        kind.write(slot, static_cast<std::uint8_t>(intent.kind));
        target.write(slot, intent.target);
        bid.write(slot, intent.bid);
        itimer.write(slot, timer.read(slot));
        // "Assign winners": store the bid at the target (atomicMax); the
        // target may be a ghost slot.
        const std::uint32_t tslot = slot_of_global(intent.target);
        const auto& field =
            (intent.kind == rules::IntentKind::kMove) ? move : bind;
        field.atomic_max(tslot, intent.bid);
      }
    }, eligible_, epi_state_, intent_kind_, intent_target_, intent_bid_,
       intent_timer_, tcell_timer_, bid_move_, bid_bind_);
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
    for_active_voxels("k_moves_own", [&](std::int32_t, std::int32_t,
                          std::uint32_t slot0, std::uint32_t n,
                          const auto& kind,
                          const auto& target_of, const auto& bid_of,
                          const auto& bids, const auto& occupancy,
                          const auto& tc, const auto& timer,
                          const auto& bind) {
      const std::uint8_t* kinds = kind.read_block(slot0, n);
      for (std::uint32_t j = 0; j < n; ++j) {
        if (kinds[j] != static_cast<std::uint8_t>(rules::IntentKind::kMove))
          continue;
        const std::uint32_t slot = slot0 + j;
        const VoxelId target = target_of.read(slot);
        const std::uint64_t bid = bid_of.read(slot);
        const std::uint32_t tslot = slot_of_global(target);
        if (bids.read(tslot) != bid) continue;   // lost tiebreak
        if (occupancy.read(tslot)) continue;     // ran into a cell
        // Winner: erase at the source; instantiate when the target is ours
        // (otherwise the owner instantiates from our exchanged intent).
        if (global_is_mine(target)) {
          tc.write(tslot, 1);
          timer.write(tslot, timer.read(slot));
          bind.write(tslot, 0);
        }
        tc.write(slot, 0);
        timer.write(slot, 0);
      }
    }, intent_kind_, intent_target_, intent_bid_, bid_move_, occupancy_,
       tcell_, tcell_timer_, tcell_bind_);
  }

  void k_moves_entrants() {
    for_ghost_slots("k_moves_entrants", [&](std::uint32_t slot0,
                        std::uint32_t n, const auto& kind,
                        const auto& target_of, const auto& bid_of,
                        const auto& bids,
                        const auto& occupancy, const auto& tc,
                        const auto& timer, const auto& itimer,
                        const auto& bind) {
      const std::uint8_t* kinds = kind.read_block(slot0, n);
      for (std::uint32_t j = 0; j < n; ++j) {
        if (kinds[j] != static_cast<std::uint8_t>(rules::IntentKind::kMove))
          continue;
        const std::uint32_t slot = slot0 + j;
        const VoxelId target = target_of.read(slot);
        if (!global_is_mine(target)) continue;
        const std::uint64_t bid = bid_of.read(slot);
        const std::uint32_t tslot = slot_of_global(target);
        if (bids.read(tslot) != bid) continue;
        if (occupancy.read(tslot)) continue;
        tc.write(tslot, 1);
        timer.write(tslot, itimer.read(slot));
        bind.write(tslot, 0);
      }
    }, intent_kind_, intent_target_, intent_bid_, bid_move_, occupancy_,
       tcell_, tcell_timer_, intent_timer_, tcell_bind_);
  }

  void k_binds_own() {
    const std::uint64_t step = step_;
    for_active_voxels("k_binds_own", [&, step](std::int32_t, std::int32_t,
                                               std::uint32_t slot0,
                                               std::uint32_t n,
                                               const auto& kind,
                                               const auto& target_of,
                                               const auto& bid_of,
                                               const auto& bids,
                                               const auto& epi,
                                               const auto& bind,
                                               const auto& epi_timer) {
      const std::uint8_t* kinds = kind.read_block(slot0, n);
      for (std::uint32_t j = 0; j < n; ++j) {
        if (kinds[j] != static_cast<std::uint8_t>(rules::IntentKind::kBind))
          continue;
        const std::uint32_t slot = slot0 + j;
        const VoxelId target = target_of.read(slot);
        const std::uint64_t bid = bid_of.read(slot);
        const std::uint32_t tslot = slot_of_global(target);
        if (bids.read(tslot) != bid) continue;
        if (static_cast<EpiState>(epi.read(tslot)) != EpiState::kExpressing)
          continue;
        bind.write(slot,
                   static_cast<std::uint32_t>(params_.tcell_binding_period));
        if (global_is_mine(target)) {
          epi.write(tslot, static_cast<std::uint8_t>(EpiState::kApoptotic));
          epi_timer.write(
              tslot, rules::sample_period(rng_, step, target,
                                          RngStream::kApoptosisPeriod,
                                          params_.apoptosis_period));
        }
      }
    }, intent_kind_, intent_target_, intent_bid_, bid_bind_, epi_state_,
       tcell_bind_, epi_timer_);
  }

  void k_binds_ghost() {
    const std::uint64_t step = step_;
    for_ghost_slots("k_binds_ghost", [&, step](std::uint32_t slot0,
                                               std::uint32_t n,
                                               const auto& kind,
                                               const auto& target_of,
                                               const auto& bid_of,
                                               const auto& bids,
                                               const auto& epi,
                                               const auto& epi_timer) {
      const std::uint8_t* kinds = kind.read_block(slot0, n);
      for (std::uint32_t j = 0; j < n; ++j) {
        if (kinds[j] != static_cast<std::uint8_t>(rules::IntentKind::kBind))
          continue;
        const std::uint32_t slot = slot0 + j;
        const VoxelId target = target_of.read(slot);
        if (!global_is_mine(target)) continue;
        const std::uint64_t bid = bid_of.read(slot);
        const std::uint32_t tslot = slot_of_global(target);
        if (bids.read(tslot) != bid) continue;
        if (static_cast<EpiState>(epi.read(tslot)) != EpiState::kExpressing)
          continue;
        epi.write(tslot, static_cast<std::uint8_t>(EpiState::kApoptotic));
        epi_timer.write(
            tslot, rules::sample_period(rng_, step, target,
                                        RngStream::kApoptosisPeriod,
                                        params_.apoptosis_period));
      }
    }, intent_kind_, intent_target_, intent_bid_, bid_bind_, epi_state_,
       epi_timer_);
  }

  void k_extravasation() {
    // Inherently ordered (attempt i sees the occupancy left by attempt
    // i-1), so this runs as a single device thread, exactly like the
    // serial rule; the attempt count is tiny relative to the voxel kernels.
    const std::uint64_t attempts = rules::num_extravasation_attempts(
        pool_, params_.max_extravasate_per_step);
    const std::uint64_t step = step_;
    dev_.launch_blocks({1, 1, "k_extravasation"},
                       [&, attempts, step](auto& blk, const auto& tc,
                                           const auto& timer, const auto& bind,
                                           const auto& epi, const auto& chem,
                                           const auto& count) {
      blk.for_each_thread([&](std::uint32_t) {
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
    }, tcell_, tcell_timer_, tcell_bind_, epi_state_, chem_, extrav_dev_);
  }

  void k_epithelial() {
    const std::uint64_t step = step_;
    for_active_voxels("k_epithelial", [&, step](std::int32_t x0,
                                                 std::int32_t y,
                                                 std::uint32_t slot0,
                                                 std::uint32_t n,
                                                 const auto& epi,
                                                 const auto& timer,
                                                 const auto& virus) {
      const std::uint8_t* states = epi.read_block(slot0, n);
      for (std::uint32_t j = 0; j < n; ++j) {
        const auto s = static_cast<EpiState>(states[j]);
        if (s == EpiState::kEmpty || s == EpiState::kDead) continue;
        const std::int32_t x = x0 + static_cast<std::int32_t>(j);
        const std::uint32_t slot = slot0 + j;
        const rules::EpiUpdate u = rules::update_epithelial(
            rng_, step, gid(x, y), s, timer.read(slot),
            virus.read(slot), params_);
        epi.write(slot, static_cast<std::uint8_t>(u.state));
        timer.write(slot, u.timer);
      }
    }, epi_state_, epi_timer_, virus_);
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
                    [&](std::uint32_t, std::uint32_t, std::int32_t,
                        std::int32_t, std::int32_t n, std::uint32_t row_base,
                        const auto& epi_of, const auto& f_of,
                        const auto& tmp) {
      const auto un = static_cast<std::size_t>(n);
      const std::uint8_t* epi = epi_of.read_block(row_base, un);
      const float* f = f_of.read_block(row_base, un);
      float* out = tmp.write_block(row_base, un);
      stencil::produce_decay_row(f, epi, out, n, is_virus, production, decay);
    }, epi_state_, field, tmp_);
    // Boundary tmp -> neighbour ghosts (diffusion reads this-step values).
    exchange(tmp_, kPTmp, StripSide::kBoundary, MergeMode::kOverwrite);
    // Diffusion stencil reading tmp, writing the field.  The row interior
    // vectorizes (its -x/+x neighbours sit at c[j-1]/c[j+1]); the two
    // row-edge voxels are peeled onto a scalar gather over the four
    // neighbour slots in contract order, skipping neighbours outside the
    // *global* grid.  The slots come from the row geometry: the same tile
    // row, the adjacent tile's edge column or the x ghost strips, and the
    // -y/+y row slots chosen below.
    const std::uint32_t ghost_xneg = lay_.interior_slots();
    const std::uint32_t ghost_xpos =
        ghost_xneg + static_cast<std::uint32_t>(h_);
    for_active_rows("field_diffuse",
                    [&](std::uint32_t tile_id, std::uint32_t iy,
                        std::int32_t x0, std::int32_t y, std::int32_t n,
                        std::uint32_t row_base, const auto& tmp,
                        const auto& f_of) {
      const auto un = static_cast<std::size_t>(n);
      const float* c = tmp.read_block(row_base, un);
      // -y neighbour row: previous row of this tile, bottom row of the
      // tile above, or the y = -1 ghost strip.
      const std::uint32_t ym_base =
          iy > 0  ? row_base - tile
          : y > 0 ? (tile_id - tiles_x) * ts + (tile - 1) * tile
                  : ghost_yneg + static_cast<std::uint32_t>(x0);
      // +y neighbour row: next row of this tile, top row of the tile
      // below, or the y = h ghost strip.
      const std::uint32_t yp_base =
          y + 1 >= h_      ? ghost_ypos + static_cast<std::uint32_t>(x0)
          : iy + 1 < tile ? row_base + tile
                          : (tile_id + tiles_x) * ts;
      const float* ym = tmp.read_block(ym_base, un);
      const float* yp = tmp.read_block(yp_base, un);
      float* out = f_of.write_block(row_base, un);
      const std::int32_t gy = sub_.origin.y + y;
      const bool has_ym = gy > 0, has_yp = gy + 1 < grid_.dim_y();
      const int cnt_row = 2 + (has_ym ? 1 : 0) + (has_yp ? 1 : 0);
      if (n > 2) {
        stencil::diffuse_row(c + 1, ym + 1, yp + 1, out + 1, n - 2, cnt_row,
                             diffusion, floor_eps);
      }
      const std::int32_t last = n - 1;
      const auto uy = static_cast<std::uint32_t>(y);
      for (std::int32_t ix = 0; ix <= last; ix += (last > 0 ? last : 1)) {
        const std::int32_t x = x0 + ix;
        const std::int32_t gx = sub_.origin.x + x;
        const auto uix = static_cast<std::uint32_t>(ix);
        // -x: this row, the left tile's last column, or the x = -1 strip.
        const std::uint32_t xm = ix > 0  ? row_base + uix - 1
                                 : x > 0 ? row_base - ts + tile - 1
                                         : ghost_xneg + uy;
        // +x: this row, the right tile's first column, or the x = w strip.
        const std::uint32_t xp = ix < last   ? row_base + uix + 1
                                 : x + 1 < w_ ? row_base + ts
                                              : ghost_xpos + uy;
        double sum = 0.0;
        int cnt = 0;
        const auto gather = [&](bool inside, std::uint32_t slot) {
          if (!inside) return;
          sum += static_cast<double>(tmp.read(slot));
          ++cnt;
        };
        gather(gx > 0, xm);
        gather(gx + 1 < grid_.dim_x(), xp);
        gather(has_ym, ym_base + uix);
        gather(has_yp, yp_base + uix);
        out[ix] = rules::diffuse(c[ix], sum, cnt, diffusion, floor_eps);
        if (last == 0) break;
      }
    }, tmp_, field);
    // Re-zero tmp for the next field (active rows + ghost strips only —
    // everything else was never written).
    for_active_rows("field_rezero",
                    [](std::uint32_t, std::uint32_t, std::int32_t,
                       std::int32_t, std::int32_t n, std::uint32_t row_base,
                       const auto& tmp) {
      float* out = tmp.write_block(row_base, static_cast<std::size_t>(n));
      for (std::int32_t j = 0; j < n; ++j) out[j] = 0.0f;
    }, tmp_);
    for_ghost_slots("field_rezero_ghost",
                    [](std::uint32_t slot0, std::uint32_t n, const auto& tmp) {
      zero_run(tmp, slot0, n);
    }, tmp_);
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
        [&, ts](auto& blk, const auto& epi, const auto& tc, const auto& vir,
                const auto& che, const auto& flags) {
          // One flag slot per thread: every thread writing a single shared
          // found[0] in the same phase is a write-write race on real
          // hardware (the old code relied on all writers storing the same
          // value); the per-thread slots are OR-folded by thread 0 in the
          // publishing phase, after the implicit __syncthreads.
          auto found = blk.template shared<std::uint32_t>(bd);
          blk.for_each_thread([&](std::uint32_t tid) {
            for (std::uint32_t i = tid; i < spt; i += bd) {
              const std::uint32_t slot = blk.block_idx() * ts + i;
              std::int32_t x, y;
              lay_.tile_voxel_xy(blk.block_idx(), i, x, y);
              if (x >= w_ || y >= h_) continue;  // tile padding
              if (vir.read(slot) > 0.0f || che.read(slot) > 0.0f ||
                  tc.read(slot) != 0 ||
                  rules::transient_epi(
                      static_cast<EpiState>(epi.read(slot)))) {
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
              flags.write(blk.block_idx(), static_cast<std::uint8_t>(any));
            }
          });
        },
        epi_state_, tcell_, virus_, chem_, sweep_flags_);
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

    spmd::reduce_step_stats(rank_, stats, pool_, step_, params_);

    stats_dev_.fill(0.0);
    extrav_dev_.fill(0);
  }

  /// Unoptimized reduction: every voxel updates the global counters with
  /// atomics — the contention §3.3 identifies as the dominant cost.
  void reduce_atomic() {
    const std::uint64_t n = lay_.interior_slots();
    dev_.parallel_for(linear_launch(n, "reduce_atomic"),
                      [&, n](auto& t, const auto& out, const auto& vir,
                             const auto& che, const auto& epi,
                             const auto& tc) {
      const std::uint64_t i = t.global_index();
      if (i >= n) return;
      std::int32_t x, y;
      lay_.slot_to_xy(static_cast<std::uint32_t>(i), x, y);
      if (x >= w_ || y >= h_) return;
      const float v = vir.read(i);
      if (v > 0.0f) out.atomic_add(0, static_cast<double>(v));
      const float c = che.read(i);
      if (c > 0.0f) out.atomic_add(1, static_cast<double>(c));
      const auto s = epi.read(i);
      out.atomic_add(2 + s, 1.0);
      if (tc.read(i)) out.atomic_add(2 + kNumEpiStates, 1.0);
    }, stats_dev_, virus_, chem_, epi_state_, tcell_);
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
    // The per-block partial sums meet in global memory through one FP
    // atomic_add per stat, which the device applies in canonical order
    // (gpusim/kernel.hpp): bit-identical for any block count or schedule.
    dev_.launch_blocks({blocks, bd, "reduce_tree"},
                       [&, n, bd, stride](auto& blk, const auto& epi,
                                          const auto& tc, const auto& vir,
                                          const auto& che, const auto& out) {
      auto sh = blk.template shared<double>(static_cast<std::size_t>(bd) *
                                            kNumDevStats);
      blk.for_each_thread([&](std::uint32_t tid) {
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
          for (std::size_t s = 0; s < kNumDevStats; ++s) {
            out.atomic_add(s, sh[s]);
          }
        }
      });
    }, epi_state_, tcell_, virus_, chem_, stats_dev_);
  }

  // ---- cost accounting ------------------------------------------------------------
  /// Marks the end of `phase` on the step ledger with this device's work
  /// since the previous mark; the phase's launches drain into KernelProf
  /// first, so their cost stays inside the phase span.
  void record_phase(perfmodel::Phase phase) {
    perfmodel::WorkSample sample;
    sample.dev = dev_.stats().since(dev_snapshot_);
    sample.mem_penalty = variant_.memory_tiling ? 1.0 : kUntiledMemPenalty;
    dev_snapshot_ = dev_.stats();
    if (obs::KernelProf* prof = dev_.profiler()) {
      drain_profile(perfmodel::phase_name(phase), *prof, sample.mem_penalty);
    }
    ledger_.phase_end(phase, sample);
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
      ks.modeled_s = ledger_.model().price(one);
      for (auto& [buf, traffic] : rec.buffers) {
        ks.by_buffer[buf] = traffic;
      }
      prof_step_.launches += 1;
      prof_step_.wall_ns += ks.wall_ns;
      prof_step_.bytes += rec.read_bytes + rec.write_bytes;
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

  /// Per-step metric series (§3.2/§3.3 observability): halo traffic and
  /// the active-tile working set (the ledger adds the barrier skew).
  void emit_step_metrics() {
    auto& m = obs::metrics();
    const int r = rank_.id();
    m.step_value("gpu.halo_bytes", r, step_,
                 static_cast<double>(ledger_.step_comm().put_bytes));
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
      // KernelProf series: the profiled launch totals of this step's phase
      // drains (the cumulative aggregates live in
      // GpuRunResult::kernel_profile).
      m.step_value("gpu.prof.launches", r, step_,
                   static_cast<double>(prof_step_.launches));
      m.step_value("gpu.prof.kernel_ns", r, step_,
                   static_cast<double>(prof_step_.wall_ns));
      m.step_value("gpu.prof.bytes", r, step_,
                   static_cast<double>(prof_step_.bytes));
      prof_step_ = {};
    }
  }

  // ---- members -----------------------------------------------------------------------
  pgas::Rank& rank_;
  SimParams params_;
  Grid grid_;
  Subdomain sub_;
  spmd::Halo halo_;
  CounterRng rng_;
  GpuVariant variant_;
  TiledLayout lay_;
  ActiveTileSet tiles_;
  Device dev_;
  spmd::StepLedger& ledger_;
  std::vector<obs::KernelStats> kprof_;
  /// Launches, wall ns and bytes drained since the last gpu.prof.* sample.
  struct {
    std::uint64_t launches = 0, wall_ns = 0, bytes = 0;
  } prof_step_;

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
  Staging stage_;

  gpusim::DeviceStats dev_snapshot_;
};

}  // namespace

GpuRunResult run_gpu_sim(const SimParams& params,
                         const std::vector<VoxelId>& foi,
                         const GpuSimOptions& options,
                         const std::vector<VoxelId>& empty_voxels) {
  GpuSimOptions opts = options;
  if (opts.workers == 0) {
    const auto ranks = static_cast<unsigned>(std::max(1, opts.num_ranks));
    opts.workers = std::max(1u, std::thread::hardware_concurrency() / ranks);
  }
  return spmd::run_spmd(
      params, opts, perfmodel::Backend::kGpu,
      [&](pgas::Rank& rank, const Decomposition& dec,
          spmd::StepLedger& ledger) {
        return GpuRank(rank, params, dec, foi, empty_voxels, opts, ledger);
      });
}

}  // namespace simcov::gpu
