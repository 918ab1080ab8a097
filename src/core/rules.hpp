#pragma once
// The SIMCoV update rules, as pure functions.
//
// This header is the single source of truth for simulation semantics.  The
// serial reference simulator, the CPU-parallel baseline (simcov_cpu) and the
// virtual-GPU implementation (simcov_gpu) all call these functions, so the
// three backends are *bit-identical* by construction — any divergence is a
// bug in a backend's orchestration (decomposition, halos, conflict
// resolution), which is exactly what the equivalence tests hunt for.
//
// Phase order within a timestep (fixed; paper Fig. 1C):
//   1. T cells   : age/unbind, intents, conflict resolution, moves/binds,
//                  then extravasation.
//   2. Epithelial: state machine driven by the virus field from the end of
//                  the previous step.
//   3. Fields    : production + decay into a temp buffer, then one diffusion
//                  step reading the temp buffer, then zero-flooring.
//   4. Reduce    : aggregate statistics; vascular pool update.
//
// All randomness is counter-based (util/rng.hpp): decisions depend only on
// (seed, step, voxel, stream), never on rank count or execution order.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

#include "core/params.hpp"
#include "core/types.hpp"
#include "util/rng.hpp"

namespace simcov::rules {

// ---------------------------------------------------------------------------
// T cell intents and conflict resolution (§3.1)
// ---------------------------------------------------------------------------

enum class IntentKind : std::uint8_t { kNone = 0, kMove = 1, kBind = 2 };

struct Intent {
  IntentKind kind = IntentKind::kNone;
  VoxelId target = 0;      ///< global voxel id of the contested resource
  std::uint64_t bid = 0;   ///< unique competition bid (see make_bid)
};

/// Neighbourhood snapshot handed to tcell_intent.  Entries are the in-bounds
/// von Neumann neighbours in contract order (see Grid::neighbours).
struct NeighbourView {
  int count = 0;
  std::array<VoxelId, 6> ids{};
  std::array<EpiState, 6> epi{};
};

/// Decides what a *free* T cell at voxel `v` does this step:
///  * if any expressing epithelial cell is visible (own voxel first, then
///    neighbours in contract order), pick one uniformly and bid to bind it;
///  * otherwise pick a uniformly random tissue neighbour (any non-empty
///    voxel) and bid to move there; with no tissue neighbour, do nothing.
/// Whether the bid wins is resolved later against all competitors.
inline Intent tcell_intent(const CounterRng& rng, std::uint64_t step,
                           VoxelId v, EpiState own_epi,
                           const NeighbourView& nb) {
  // Binding candidates.
  std::array<VoxelId, 7> cand{};
  int n_cand = 0;
  if (own_epi == EpiState::kExpressing) cand[static_cast<std::size_t>(n_cand++)] = v;
  for (int i = 0; i < nb.count; ++i) {
    if (nb.epi[static_cast<std::size_t>(i)] == EpiState::kExpressing) {
      cand[static_cast<std::size_t>(n_cand++)] = nb.ids[static_cast<std::size_t>(i)];
    }
  }
  if (n_cand > 0) {
    const std::uint32_t pick = rng.uniform_int(
        step, v, RngStream::kTCellBindChoice, static_cast<std::uint32_t>(n_cand));
    return {IntentKind::kBind, cand[pick],
            make_bid(rng, step, v, RngStream::kTCellBindBid)};
  }
  // Movement candidates: any in-bounds tissue voxel.
  std::array<VoxelId, 6> mv{};
  int n_mv = 0;
  for (int i = 0; i < nb.count; ++i) {
    if (nb.epi[static_cast<std::size_t>(i)] != EpiState::kEmpty) {
      mv[static_cast<std::size_t>(n_mv++)] = nb.ids[static_cast<std::size_t>(i)];
    }
  }
  if (n_mv == 0) return {};
  const std::uint32_t pick = rng.uniform_int(
      step, v, RngStream::kTCellDirection, static_cast<std::uint32_t>(n_mv));
  return {IntentKind::kMove, mv[pick],
          make_bid(rng, step, v, RngStream::kTCellBid)};
}

// ---------------------------------------------------------------------------
// Epithelial state machine
// ---------------------------------------------------------------------------

/// A state that advances on its own timer: a voxel in one is active even
/// with no virus, chemokine or T cell.
constexpr bool transient_epi(EpiState s) {
  return s == EpiState::kIncubating || s == EpiState::kExpressing ||
         s == EpiState::kApoptotic;
}

struct EpiUpdate {
  EpiState state;
  std::uint32_t timer;
};

/// Samples the Poisson-distributed duration for a state entered at
/// (step, voxel); at least 1 so a state is observable for one step.
inline std::uint32_t sample_period(const CounterRng& rng, std::uint64_t step,
                                   VoxelId v, RngStream stream, double mean) {
  return std::max<std::uint32_t>(1, rng.poisson(step, v, stream, mean));
}

/// One epithelial step.  `virus` is the voxel's virion level at the end of
/// the previous step.  Apoptosis entry happens in the T cell phase (binding),
/// not here.
inline EpiUpdate update_epithelial(const CounterRng& rng, std::uint64_t step,
                                   VoxelId v, EpiState state,
                                   std::uint32_t timer, float virus,
                                   const SimParams& p) {
  switch (state) {
    case EpiState::kHealthy: {
      const double prob = p.infectivity * static_cast<double>(virus);
      if (virus > 0.0f && rng.bernoulli(step, v, RngStream::kInfection, prob)) {
        return {EpiState::kIncubating,
                sample_period(rng, step, v, RngStream::kIncubationPeriod,
                              p.incubation_period)};
      }
      return {state, timer};
    }
    case EpiState::kIncubating: {
      if (timer <= 1) {
        return {EpiState::kExpressing,
                sample_period(rng, step, v, RngStream::kExpressingPeriod,
                              p.expressing_period)};
      }
      return {state, timer - 1};
    }
    case EpiState::kExpressing:
    case EpiState::kApoptotic: {
      if (timer <= 1) return {EpiState::kDead, 0};
      return {state, timer - 1};
    }
    case EpiState::kEmpty:
    case EpiState::kDead:
      return {state, timer};
  }
  return {state, timer};
}

/// Virion producers: all infected live cells ("producing virus while not
/// being detectable" covers incubating; expressing and apoptotic continue).
constexpr bool produces_virus(EpiState s) {
  return s == EpiState::kIncubating || s == EpiState::kExpressing ||
         s == EpiState::kApoptotic;
}

/// Inflammatory-signal producers: cells the immune system has noticed.
constexpr bool produces_chem(EpiState s) {
  return s == EpiState::kExpressing || s == EpiState::kApoptotic;
}

// ---------------------------------------------------------------------------
// Concentration fields
// ---------------------------------------------------------------------------

/// Production + decay, the first field pass.  Clamped to [0,1] (fields are
/// normalized per-voxel saturations, as in SIMCoV).
inline float produce_decay(float c, bool produces, double production,
                           double decay) {
  double v = static_cast<double>(c) * (1.0 - decay);
  if (produces) v += production;
  return static_cast<float>(std::clamp(v, 0.0, 1.0));
}

/// One diffusion step: c' = c + D * (mean(neighbours) - c), the neighbour-
/// average stencil SIMCoV uses; a convex combination for D in [0,1], so the
/// field obeys a discrete maximum principle (property-tested).
/// `nbr_sum` must be accumulated in double, in contract neighbour order.
/// Values below `floor_eps` flush to exactly 0 (the activity cutoff the
/// active list / tile sweep rely on).
inline float diffuse(float c, double nbr_sum, int nbr_count, double diffusion,
                     double floor_eps) {
  double v = static_cast<double>(c);
  if (nbr_count > 0) {
    v += diffusion * (nbr_sum / nbr_count - v);
  }
  v = std::clamp(v, 0.0, 1.0);
  if (v < floor_eps) v = 0.0;
  return static_cast<float>(v);
}

// ---------------------------------------------------------------------------
// Extravasation (T cells entering tissue from the vascular pool)
// ---------------------------------------------------------------------------

/// Number of extravasation attempts a step makes, given the pool size.
inline std::uint64_t num_extravasation_attempts(double pool,
                                                std::int64_t cap) {
  if (pool <= 0.0) return 0;
  const double n = std::floor(pool);
  return static_cast<std::uint64_t>(
      std::min(n, static_cast<double>(cap)));
}

/// The uniformly random voxel attempt `i` targets.  Globally keyed: every
/// rank computes the same attempt list and the owner applies it.
inline VoxelId attempt_voxel(const CounterRng& rng, std::uint64_t step,
                             std::uint64_t i, std::uint64_t num_voxels) {
  return rng.uniform_int(step, i, RngStream::kExtravasate,
                         static_cast<std::uint32_t>(num_voxels));
}

/// Acceptance: probability equals the inflammatory-signal level at the
/// target voxel (fields are normalized to [0,1]).
inline bool attempt_accepted(const CounterRng& rng, std::uint64_t step,
                             std::uint64_t i, float chem) {
  return chem > 0.0f &&
         rng.bernoulli(step, i, RngStream::kExtravasateProb,
                       static_cast<double>(chem));
}

/// Vascular pool dynamics applied at the end of each step: production (after
/// the initial delay), exponential decay with the vascular residence period,
/// minus the cells that successfully extravasated this step.
inline double pool_after_step(double pool, std::uint64_t step,
                              const SimParams& p, std::uint64_t successes) {
  if (static_cast<std::int64_t>(step) >= p.tcell_initial_delay) {
    pool += p.tcell_generation_rate;
  }
  pool *= (1.0 - 1.0 / p.tcell_vascular_period);
  pool -= static_cast<double>(successes);
  return std::max(pool, 0.0);
}

// ---------------------------------------------------------------------------
// State digests (test support)
// ---------------------------------------------------------------------------

/// Order-independent digest contribution of one voxel's full state; the
/// global digest is the XOR over all voxels, so parallel backends can fold
/// their local digests with an XOR-reduction and compare against the
/// reference bit-for-bit.
std::uint64_t voxel_digest(VoxelId v, EpiState state, std::uint32_t epi_timer,
                           std::uint8_t tcell, std::uint32_t tcell_timer,
                           std::uint32_t tcell_bind, float virus, float chem);

}  // namespace simcov::rules
