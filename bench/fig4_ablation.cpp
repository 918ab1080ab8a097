// Figure 4 (§3.4): optimization breakdown of SIMCoV-GPU.
//
// Four prototypes — Unoptimized, Fast Reduction only, Memory Tiling only,
// Combined — run a dense-activity simulation (the paper uses 1024 FOI on 4
// V100s); runtime is split into the paper's two categories, "Update Agents"
// and "Reduce Statistics".  Expected shape: reductions dominate the
// unoptimized version; each optimization helps its own category; memory
// tiling also improves the reduction (locality); the combined version wins
// and the gains compose roughly independently.

#include <cmath>
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace simcov;
  bench::Reporter rep(
      "fig4_ablation",
      "Figure 4: SIMCoV-GPU optimization breakdown (update vs reduce)",
      "4 V100 (ASU Agave), dense activity (1024 FOI)",
      "4 virtual GPUs, 256^2 voxels, 16 FOI (paper's multi-focal density at 1/39 linear scale), 300 steps");

  harness::RunSpec spec;
  spec.params = bench::bench_params(256, 256, 300, 16);
  spec.area_scale = bench::kGpuAreaScale;

  struct Row {
    gpu::GpuVariant variant;
    harness::BackendResult result;
  };
  std::vector<Row> rows;
  for (const auto& v :
       {gpu::GpuVariant::unoptimized(), gpu::GpuVariant::fast_reduction_only(),
        gpu::GpuVariant::memory_tiling_only(), gpu::GpuVariant::combined()}) {
    rows.push_back({v, rep.run_gpu(v.name(), spec, 4, v)});
    std::fprintf(stderr, "  ran %s\n", v.name().c_str());
  }

  TextTable t({"SIMCoV-GPU Version", "Update Agents (s)",
               "Reduce Statistics (s)", "Total (s)"});
  for (const auto& r : rows) {
    t.add_row({r.variant.name(), fmt(r.result.cost.update_agents_s()),
               fmt(r.result.cost.reduce_stats_s()),
               fmt(r.result.cost.total_s)});
  }
  std::printf("%s\n", t.to_string().c_str());

  const auto& unopt = rows[0].result;
  const auto& fastred = rows[1].result;
  const auto& tiling = rows[2].result;
  const auto& combined = rows[3].result;
  rep.shape_check(
      "reductions dominate the unoptimized version",
      unopt.cost.reduce_stats_s() > unopt.cost.update_agents_s());
  rep.shape_check(
      "fast reduction slashes reduce time vs unoptimized",
      fastred.cost.reduce_stats_s() < 0.25 * unopt.cost.reduce_stats_s());
  rep.shape_check(
      "memory tiling reduces agent-update time",
      tiling.cost.update_agents_s() < unopt.cost.update_agents_s());
  rep.shape_check(
      "memory tiling also improves the reduction (locality)",
      tiling.cost.reduce_stats_s() < unopt.cost.reduce_stats_s());
  rep.shape_check(
      "combined is fastest overall",
      combined.cost.total_s < fastred.cost.total_s &&
          combined.cost.total_s < tiling.cost.total_s);
  // "the optimizations combine very effectively ... mostly independent
  // effects": combined inherits tiling's update time and fast reduction's
  // reduce time simultaneously.
  rep.shape_check(
      "effects are independent: combined update ~= tiling update",
      combined.cost.update_agents_s() < 1.2 * tiling.cost.update_agents_s());
  rep.shape_check(
      "effects are independent: combined reduce ~= fast-red reduce",
      combined.cost.reduce_stats_s() < 1.2 * fastred.cost.reduce_stats_s());

  // ---- CritPath reconciliation & what-if validation ----------------------
  // rep.run_gpu forces critpath on, so every variant carries a per-step
  // binding-rank accumulator.  Two properties are gated here (this bench
  // runs 300 steps, so the step loop dominates the measured wall and the
  // strict checks are meaningful — check_bench.py only enforces the loose
  // one-sided bound):
  //
  //  1. Reconciliation: the critical path (sum over steps of the binding
  //     rank's contiguous phase total) plus the observability tail (step
  //     host work outside the phase spans) must reconcile with the
  //     backend's step-loop wall within 5% — together they tile the loop,
  //     so the residual is barrier sync and clock granularity.
  //  2. What-if agreement: projecting one variant's critical path onto
  //     another by scaling each phase with the cost model's per-phase
  //     ratio (the same Amdahl-over-the-critical-path arithmetic
  //     obs::build_critpath_report uses) must agree with the *measured*
  //     critical path of the other variant.  Tolerance is the modeled
  //     class's 2% plus measurement noise between two separate wall-clock
  //     runs.
  const auto critical_s = [](const harness::BackendResult& r) {
    return r.critpath.critical_ns() / 1e9;
  };
  for (const auto& r : rows) {
    const double crit = critical_s(r.result);
    const double tail = r.result.step_tail_s;
    const double wall = r.result.step_loop_wall_s;
    rep.metric("critical_s " + r.variant.name(), crit);
    rep.metric("step_tail_s " + r.variant.name(), tail);
    rep.metric("step_loop_wall_s " + r.variant.name(), wall);
    rep.shape_check(
        "critical path + tail reconciles with step-loop wall (5%): " +
            r.variant.name(),
        wall > 0.0 && crit > 0.0 &&
            std::fabs(wall - (crit + tail)) <= 0.05 * wall);
  }

  // Amdahl projection across ablation toggles: scale the source variant's
  // per-phase critical seconds by modeled_to/modeled_from.
  const auto project = [](const harness::BackendResult& from,
                          const harness::BackendResult& to) {
    double projected = 0.0;
    for (int p = 0; p < perfmodel::kNumPhases; ++p) {
      const double crit_p =
          from.critpath.crit_phase_ns(p) / 1e9;
      const double m_from = from.cost.by_phase[static_cast<std::size_t>(p)];
      const double m_to = to.cost.by_phase[static_cast<std::size_t>(p)];
      projected += crit_p * (m_from > 0.0 ? m_to / m_from : 1.0);
    }
    return projected;
  };
  constexpr double kWhatIfTol = 0.02 + 0.18;  // modeled class + run noise
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const double projected = project(unopt, rows[i].result);
    const double actual = critical_s(rows[i].result);
    rep.metric("whatif_projected_s " + rows[i].variant.name(), projected);
    rep.shape_check(
        "what-if projection from Unoptimized agrees with measured "
        "critical path: " + rows[i].variant.name(),
        actual > 0.0 &&
            std::fabs(projected - actual) <= kWhatIfTol * actual);
    // Direction must also agree — but only when the projected improvement
    // is large enough to rise above run noise (Fast Reduction only speeds
    // the small reduce_stats phase, a few percent of the path, which a
    // noisy run can wash out entirely).
    const double unopt_crit = critical_s(unopt);
    const double projected_improvement =
        unopt_crit > 0.0 ? 1.0 - projected / unopt_crit : 0.0;
    rep.shape_check(
        "measured critical path improves as the model predicts: " +
            rows[i].variant.name(),
        std::fabs(projected_improvement) < 0.10 ||
            (projected < unopt_crit) == (actual < unopt_crit));
  }
  rep.finish();
  return 0;
}
