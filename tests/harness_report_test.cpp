// harness::run_report: the one record of a run.  Each section it fills must
// be what its builder returns when called directly on the same result, and
// obs::print_summary must print exactly the sections that are selected and
// populated.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/summary.hpp"
#include "perfmodel/machine.hpp"

namespace simcov {
namespace {

using Counters = std::map<std::string, std::map<int, double>>;

const char* const kHeadings[] = {
    "measured phase wall-clock breakdown", "measured-vs-modeled phase drift",
    "per-kernel roofline profile", "per-buffer memory report",
    "critical-path report"};

harness::RunSpec small_spec() {
  harness::RunSpec spec;
  spec.params = SimParams::bench_fast();
  spec.params.dim_x = 32;
  spec.params.dim_y = 32;
  spec.params.num_steps = 16;
  spec.params.num_foi = 2;
  spec.params.seed = 7;
  spec.params.incubation_period = 8;
  spec.params.tcell_initial_delay = 6;
  spec.params.tile_side = 8;
  spec.params.tile_check_period = 4;
  spec.obs = obs::Config{};
  spec.obs.profile = true;
  spec.obs.memscope = true;
  spec.obs.critpath = true;
  return spec;
}

/// Runs `run` with in-memory metrics on and returns its metrics counters.
template <typename RunFn>
Counters with_metrics(RunFn&& run) {
  obs::metrics().enable("");
  run();
  Counters counters = obs::metrics().counters();
  obs::metrics().disable();
  return counters;
}

/// One config's JSON (the BENCH schema serializes every field of it).
std::string config_json(const obs::BenchConfig& cfg) {
  obs::BenchReport rep("harness_report_test");
  rep.add_config(cfg);
  return rep.to_json();
}

/// What `print(FILE*)` writes.
template <typename PrintFn>
std::string captured(PrintFn&& print) {
  std::FILE* f = std::tmpfile();
  if (f == nullptr) return "<tmpfile failed>";
  print(f);
  std::string out;
  std::rewind(f);
  for (int c = std::fgetc(f); c != EOF; c = std::fgetc(f)) {
    out.push_back(static_cast<char>(c));
  }
  std::fclose(f);
  return out;
}

std::string printed(const obs::BenchConfig& run, unsigned sections,
                    const Counters& counters) {
  return captured(
      [&](std::FILE* f) { obs::print_summary(f, run, sections, counters); });
}

struct GpuRun {
  harness::RunSpec spec = small_spec();
  harness::BackendResult result;
  Counters counters;
  obs::BenchConfig record;

  GpuRun() {
    counters = with_metrics([&] { result = harness::run_gpu(spec, 2); });
    record = harness::run_report(spec, result, counters);
  }
};

const GpuRun& gpu_run() {
  static const GpuRun run;
  return run;
}

TEST(HarnessReport, GpuRecordSectionsEqualTheirBuilders) {
  const GpuRun& g = gpu_run();
  const harness::BackendResult& r = g.result;
  const obs::BenchConfig& rec = g.record;
  ASSERT_FALSE(rec.measured_by_phase_s.empty());
  ASSERT_FALSE(rec.kernels.empty());
  ASSERT_FALSE(rec.mem_drift.empty());
  ASSERT_FALSE(rec.criticalpath.empty());
  ASSERT_FALSE(rec.comm_matrix.empty());

  obs::BenchConfig direct = rec;
  direct.kernels = obs::kernel_drift_rows(
      r.kernel_profile, obs::BenchReport::measured_phases_from(g.counters),
      obs::BenchReport::modeled_phases_from(r.cost),
      perfmodel::MachineSpec::perlmutter_like());
  direct.mem_drift = obs::memory_drift_rows(r.memory.categories(),
                                            r.mem_modeled_by_category);
  std::vector<std::string> names;
  std::vector<double> modeled;
  for (int p = 0; p < perfmodel::kNumPhases; ++p) {
    names.emplace_back(perfmodel::phase_name(static_cast<perfmodel::Phase>(p)));
    modeled.push_back(r.cost.by_phase[static_cast<std::size_t>(p)]);
  }
  direct.criticalpath = obs::build_critpath_report(r.critpath, names, modeled);
  direct.criticalpath.step_wall_s = r.step_loop_wall_s;
  direct.criticalpath.tail_s = r.step_tail_s;
  direct.comm_matrix = obs::BenchReport::matrix_from(r.comm_by_rank);

  EXPECT_EQ(rec.kernels.size(), direct.kernels.size());
  EXPECT_EQ(rec.mem_drift.size(), direct.mem_drift.size());
  EXPECT_EQ(rec.comm_matrix.size(), direct.comm_matrix.size());
  EXPECT_GT(rec.criticalpath.step_wall_s, 0.0);
  EXPECT_EQ(rec.criticalpath.step_wall_s, r.step_loop_wall_s);
  EXPECT_EQ(rec.criticalpath.tail_s, r.step_tail_s);
  EXPECT_EQ(rec.device_peak_bytes, r.device_total.peak_allocated_bytes);
  EXPECT_GT(rec.rss_samples, 0u);
  EXPECT_EQ(config_json(rec), config_json(direct));

  // The record's scalar sections come from the same result.
  EXPECT_EQ(rec.modeled_s, r.cost.total_s);
  EXPECT_EQ(rec.measured_wall_s, r.measured_wall_s);
  EXPECT_EQ(rec.comm_total.put_bytes, r.comm_total().put_bytes);
  EXPECT_EQ(rec.params.at("dim_x"), 32.0);
  EXPECT_TRUE(rec.label.empty());
  EXPECT_TRUE(rec.backend.empty());
}

TEST(HarnessReport, PrinterHonoursTheSectionMask) {
  const GpuRun& g = gpu_run();
  const std::string all = printed(g.record, obs::kSummaryAll, g.counters);
  for (const char* h : kHeadings) {
    EXPECT_NE(all.find(h), std::string::npos) << "missing: " << h;
  }
  // A single run's drift table names no config set.
  EXPECT_EQ(all.find("all configs"), std::string::npos);
  EXPECT_EQ(printed(g.record, 0u, g.counters), "");
}

TEST(HarnessReport, NoDriftTableWithoutTheMeasuredSide) {
  const GpuRun& g = gpu_run();
  obs::BenchConfig modeled_only = g.record;
  modeled_only.measured_by_phase_s.clear();
  const std::string out = printed(modeled_only, obs::kSummaryAll, {});
  EXPECT_EQ(out.find("measured-vs-modeled phase drift"), std::string::npos);
  EXPECT_EQ(out.find("measured phase wall-clock breakdown"),
            std::string::npos);
  EXPECT_NE(out.find("per-kernel roofline profile"), std::string::npos);

  // Without metrics run_report itself leaves the measured side empty.
  const obs::BenchConfig unmeasured =
      harness::run_report(g.spec, g.result, {});
  EXPECT_TRUE(unmeasured.measured_by_phase_s.empty());
  EXPECT_FALSE(unmeasured.modeled_by_phase_s.empty());
}

TEST(HarnessReport, CpuRecordHasNoKernelsSection) {
  harness::RunSpec spec = small_spec();
  harness::BackendResult r;
  const Counters counters =
      with_metrics([&] { r = harness::run_cpu(spec, 2); });
  const obs::BenchConfig rec = harness::run_report(spec, r, counters);
  EXPECT_TRUE(rec.kernels.empty());
  EXPECT_FALSE(rec.memory.empty());
  EXPECT_FALSE(rec.criticalpath.empty());
  EXPECT_FALSE(rec.measured_by_phase_s.empty());
  const std::string out = printed(rec, obs::kSummaryAll, counters);
  EXPECT_EQ(out.find("per-kernel roofline profile"), std::string::npos);
  EXPECT_NE(out.find("critical-path report"), std::string::npos);
}

TEST(HarnessReport, BenchAggregateDriftSaysAllConfigs) {
  const GpuRun& g = gpu_run();
  obs::BenchReport rep("harness_report_test");
  rep.add_config(g.record);
  rep.add_config(g.record);
  const std::string out =
      captured([&](std::FILE* f) { rep.print_drift_summary(f); });
  EXPECT_NE(out.find("measured-vs-modeled phase drift (all configs, "),
            std::string::npos);
  EXPECT_EQ(out.find("per-kernel roofline profile"), std::string::npos);
}

}  // namespace
}  // namespace simcov
