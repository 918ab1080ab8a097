#include "obs/report.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/config.hpp"
#include "obs/json.hpp"
#include "obs/summary.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace simcov::obs {

namespace {

constexpr const char* kSchema = "simcov-bench/1";

void emit_kv(std::ostream& os, const char* key, const std::string& value,
             bool comma = true) {
  os << "\"" << key << "\":\"";
  json_escape(os, value);
  os << "\"";
  if (comma) os << ",";
}

void emit_num_map(std::ostream& os, const char* key,
                  const std::map<std::string, double>& m) {
  os << "\"" << key << "\":{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) os << ",";
    first = false;
    os << "\"";
    json_escape(os, k);
    os << "\":" << json_num(v);
  }
  os << "}";
}

}  // namespace

MachineFingerprint MachineFingerprint::current() {
  MachineFingerprint f;
  char host[256] = {};
  if (gethostname(host, sizeof host - 1) == 0) f.host = host;
  f.compiler = __VERSION__;
#ifdef NDEBUG
  f.build = "release";
#else
  f.build = "debug";
#endif
  f.hardware_threads = std::thread::hardware_concurrency();
  return f;
}

BenchReport::BenchReport(std::string name)
    : name_(std::move(name)), machine_(MachineFingerprint::current()) {
  SIMCOV_REQUIRE(!name_.empty(), "bench report needs a name");
}

void BenchReport::set_context(std::string experiment, std::string paper_config,
                              std::string our_config) {
  experiment_ = std::move(experiment);
  paper_config_ = std::move(paper_config);
  our_config_ = std::move(our_config);
}

BenchConfig& BenchReport::add_config(BenchConfig cfg) {
  configs_.push_back(std::move(cfg));
  return configs_.back();
}

void BenchReport::add_shape_check(const std::string& claim, bool ok) {
  shape_checks_.push_back({claim, ok});
}

void BenchReport::add_metric(const std::string& name, double value) {
  metrics_[name] = value;
}

std::vector<DriftRow> BenchReport::drift_from(
    const std::map<std::string, double>& measured_by_phase_s,
    const std::map<std::string, double>& modeled_by_phase_s) {
  const auto seconds = [](const std::map<std::string, double>& by_phase,
                          int p) {
    const auto it =
        by_phase.find(perfmodel::phase_name(static_cast<perfmodel::Phase>(p)));
    return it == by_phase.end() ? 0.0 : it->second;
  };
  // Totals and rows both walk the canonical phase order, so neither the
  // floating sums nor the row order depend on the maps' key order.
  double measured_total = 0.0;
  double modeled_total = 0.0;
  for (int p = 0; p < perfmodel::kNumPhases; ++p) {
    measured_total += seconds(measured_by_phase_s, p);
    modeled_total += seconds(modeled_by_phase_s, p);
  }
  std::vector<DriftRow> rows;
  for (int p = 0; p < perfmodel::kNumPhases; ++p) {
    const double m = seconds(measured_by_phase_s, p);
    const double c = seconds(modeled_by_phase_s, p);
    if (m == 0.0 && c == 0.0) continue;
    DriftRow row;
    row.phase = perfmodel::phase_name(static_cast<perfmodel::Phase>(p));
    row.measured_s = m;
    row.measured_share = measured_total > 0.0 ? m / measured_total : 0.0;
    row.modeled_s = c;
    row.modeled_share = modeled_total > 0.0 ? c / modeled_total : 0.0;
    row.divergence = row.measured_share - row.modeled_share;
    rows.push_back(std::move(row));
  }
  return rows;
}

std::map<std::string, double> BenchReport::measured_phases_from(
    const std::map<std::string, std::map<int, double>>& counters) {
  // The PhaseClock counters are wall ns per (phase, rank); summing over
  // ranks weights each phase by total rank-time, matching the
  // bulk-synchronous cost fold's sum-over-phases structure.
  std::map<std::string, double> out;
  for (int p = 0; p < perfmodel::kNumPhases; ++p) {
    const char* name = perfmodel::phase_name(static_cast<perfmodel::Phase>(p));
    const auto it = counters.find(std::string("phase.") + name + ".wall_ns");
    if (it == counters.end()) continue;
    double s = 0.0;
    for (const auto& [rank, v] : it->second) s += v / 1e9;
    if (s > 0.0) out[name] = s;
  }
  return out;
}

std::map<std::string, double> BenchReport::modeled_phases_from(
    const perfmodel::RunCost& cost) {
  std::map<std::string, double> out;
  for (int p = 0; p < perfmodel::kNumPhases; ++p) {
    const double s = cost.by_phase[static_cast<std::size_t>(p)];
    if (s > 0.0) {
      out[perfmodel::phase_name(static_cast<perfmodel::Phase>(p))] = s;
    }
  }
  return out;
}

std::vector<CommEdge> BenchReport::matrix_from(
    const std::vector<pgas::CommStats>& by_rank) {
  std::vector<CommEdge> edges;
  for (std::size_t src = 0; src < by_rank.size(); ++src) {
    for (const auto& [dst, p] : by_rank[src].peers) {
      if (p.zero()) continue;
      edges.push_back({static_cast<int>(src), dst, p});
    }
  }
  // by_rank is rank-ordered and peers is a sorted map, so edges are already
  // sorted by (src,dst) — the deterministic order the JSON relies on.
  return edges;
}

std::string BenchReport::to_json() const {
  std::ostringstream os;
  os << "{\n";
  emit_kv(os, "schema", kSchema);
  os << "\n";
  emit_kv(os, "bench", name_);
  os << "\n";
  emit_kv(os, "experiment", experiment_);
  os << "\n";
  emit_kv(os, "paper_config", paper_config_);
  os << "\n";
  emit_kv(os, "our_config", our_config_);
  os << "\n\"machine\":{";
  emit_kv(os, "host", machine_.host);
  emit_kv(os, "compiler", machine_.compiler);
  emit_kv(os, "build", machine_.build, /*comma=*/false);
  os << ",\"hardware_threads\":" << machine_.hardware_threads << "},\n";
  os << "\"configs\":[";
  bool first_cfg = true;
  for (const BenchConfig& c : configs_) {
    if (!first_cfg) os << ",";
    first_cfg = false;
    os << "\n {";
    emit_kv(os, "label", c.label);
    emit_kv(os, "backend", c.backend, /*comma=*/false);
    os << ",\"ranks\":" << c.ranks << ",\n  ";
    emit_num_map(os, "params", c.params);
    os << ",\n  \"measured_wall_s\":" << json_num(c.measured_wall_s)
       << ",\"modeled_s\":" << json_num(c.modeled_s) << ",\n  ";
    emit_num_map(os, "measured_by_phase_s", c.measured_by_phase_s);
    os << ",\n  ";
    emit_num_map(os, "modeled_by_phase_s", c.modeled_by_phase_s);
    os << ",\n  \"drift\":[";
    bool first_row = true;
    for (const DriftRow& d : c.drift) {
      if (!first_row) os << ",";
      first_row = false;
      os << "\n   {";
      emit_kv(os, "phase", d.phase, /*comma=*/false);
      os << ",\"measured_s\":" << json_num(d.measured_s)
         << ",\"measured_share\":" << json_num(d.measured_share)
         << ",\"modeled_s\":" << json_num(d.modeled_s)
         << ",\"modeled_share\":" << json_num(d.modeled_share)
         << ",\"divergence\":" << json_num(d.divergence) << "}";
    }
    os << "]";
    if (!c.kernels.empty()) {
      os << ",\n  \"kernels\":[";
      bool first_k = true;
      for (const KernelDriftRow& k : c.kernels) {
        if (!first_k) os << ",";
        first_k = false;
        os << "\n   {";
        emit_kv(os, "phase", k.phase);
        emit_kv(os, "kernel", k.kernel, /*comma=*/false);
        os << ",\"launches\":" << k.launches
           << ",\"measured_s\":" << json_num(k.measured_s)
           << ",\"measured_share\":" << json_num(k.measured_share)
           << ",\"modeled_s\":" << json_num(k.modeled_s)
           << ",\"modeled_share\":" << json_num(k.modeled_share)
           << ",\"divergence\":" << json_num(k.divergence)
           << ",\"bytes\":" << json_num(k.bytes)
           << ",\"achieved_gbps\":" << json_num(k.achieved_gbps)
           << ",\"arithmetic_intensity\":" << json_num(k.arithmetic_intensity)
           << ",\"roofline_util\":" << json_num(k.roofline_util)
           << ",\"buffers\":{";
        bool first_b = true;
        for (const auto& [bname, t] : k.by_buffer) {
          if (!first_b) os << ",";
          first_b = false;
          os << "\"";
          json_escape(os, bname);
          os << "\":{\"read_bytes\":" << t.read_bytes
             << ",\"write_bytes\":" << t.write_bytes
             << ",\"atomic_ops\":" << t.atomic_ops << "}";
        }
        os << "}}";
      }
      os << "]";
    }
    if (!c.memory.empty()) {
      const MemReport& mem = c.memory;
      os << ",\n  \"memory\":{"
         << "\"registry_peak_bytes\":" << mem.registry_peak_bytes()
         << ",\"registry_live_bytes\":" << mem.live_bytes
         << ",\"peak_live_bytes\":" << mem.peak_live_bytes
         << ",\"device_peak_bytes\":" << c.device_peak_bytes
         << ",\"alloc_events\":" << mem.alloc_events
         << ",\"free_events\":" << mem.free_events
         << ",\"underflows\":" << mem.underflows << ",\n   \"categories\":{";
      bool first_cat = true;
      for (const auto& [cat, bytes] : mem.categories()) {
        if (!first_cat) os << ",";
        first_cat = false;
        os << "\"";
        json_escape(os, cat);
        os << "\":" << bytes;
      }
      os << "},\n   \"buffers\":[";
      bool first_buf = true;
      for (const MemSlot& s : mem.buffers) {
        if (!first_buf) os << ",";
        first_buf = false;
        os << "\n    {";
        emit_kv(os, "name", s.name);
        emit_kv(os, "category", s.category, /*comma=*/false);
        os << ",\"peak_bytes\":" << s.peak_bytes
           << ",\"live_bytes\":" << s.live_bytes << ",\"allocs\":" << s.allocs
           << ",\"frees\":" << s.frees << "}";
      }
      os << "],\n   \"drift\":[";
      bool first_md = true;
      for (const MemDriftRow& d : c.mem_drift) {
        if (!first_md) os << ",";
        first_md = false;
        os << "\n    {";
        emit_kv(os, "category", d.category, /*comma=*/false);
        os << ",\"measured_bytes\":" << json_num(d.measured_bytes)
           << ",\"measured_share\":" << json_num(d.measured_share)
           << ",\"modeled_bytes\":" << json_num(d.modeled_bytes)
           << ",\"modeled_share\":" << json_num(d.modeled_share)
           << ",\"divergence\":" << json_num(d.divergence) << "}";
      }
      os << "],\n   \"vm_rss_kb\":" << c.rss.vm_rss_kb
         << ",\"vm_hwm_kb\":" << c.rss.vm_hwm_kb
         << ",\"rss_samples\":" << c.rss_samples << "}";
    }
    if (!c.criticalpath.empty()) {
      const CritPathReport& cp = c.criticalpath;
      os << ",\n  \"criticalpath\":{"
         << "\"steps\":" << cp.steps << ",\"ranks\":" << cp.ranks
         << ",\"critical_s\":" << json_num(cp.critical_s)
         << ",\"mean_rank_s\":" << json_num(cp.mean_rank_s)
         << ",\"imbalance_factor\":" << json_num(cp.imbalance_factor)
         << ",\"binding_switches\":" << cp.binding_switches
         << ",\"churn\":" << json_num(cp.churn)
         << ",\"wait_s\":" << json_num(cp.wait_s)
         << ",\"step_wall_s\":" << json_num(cp.step_wall_s)
         << ",\"tail_s\":" << json_num(cp.tail_s)
         << ",\n   \"phases\":[";
      bool first_cp = true;
      for (const CritPhaseRow& p : cp.phases) {
        if (!first_cp) os << ",";
        first_cp = false;
        os << "\n    {";
        emit_kv(os, "phase", p.phase, /*comma=*/false);
        os << ",\"critical_s\":" << json_num(p.critical_s)
           << ",\"critical_share\":" << json_num(p.critical_share)
           << ",\"attributed_wait_s\":" << json_num(p.attributed_wait_s)
           << ",\"mean_s\":" << json_num(p.mean_s)
           << ",\"max_s\":" << json_num(p.max_s) << "}";
      }
      os << "],\n   \"ranks_bound\":[";
      bool first_rb = true;
      for (const CritRankRow& rb : cp.ranks_bound) {
        if (!first_rb) os << ",";
        first_rb = false;
        os << "\n    {\"rank\":" << rb.rank
           << ",\"steps_bound\":" << rb.steps_bound
           << ",\"share\":" << json_num(rb.share) << "}";
      }
      os << "],\n   \"whatif\":[";
      bool first_w = true;
      for (const WhatIfRow& w : cp.whatif) {
        if (!first_w) os << ",";
        first_w = false;
        os << "\n    {";
        emit_kv(os, "name", w.name);
        emit_kv(os, "phase", w.phase, /*comma=*/false);
        os << ",\"factor\":" << json_num(w.factor)
           << ",\"projected_s\":" << json_num(w.projected_s)
           << ",\"speedup\":" << json_num(w.speedup)
           << ",\"improvement\":" << json_num(w.improvement) << "}";
      }
      os << "]}";
    }
    os << ",\n  \"comm\":{";
    const pgas::CommStats& t = c.comm_total;
    os << "\"rpcs_sent\":" << t.rpcs_sent << ",\"rpc_bytes\":" << t.rpc_bytes
       << ",\"puts\":" << t.puts << ",\"put_bytes\":" << t.put_bytes
       << ",\"barriers\":" << t.barriers << ",\"reductions\":" << t.reductions
       << ",\"reduction_bytes\":" << t.reduction_bytes
       << ",\"broadcasts\":" << t.broadcasts
       << ",\"broadcast_bytes\":" << t.broadcast_bytes
       << ",\"barrier_wait_ns\":" << t.barrier_wait_ns;
    std::uint64_t max_put_bytes = 0;
    for (const CommEdge& e : c.comm_matrix) {
      max_put_bytes = std::max(max_put_bytes, e.traffic.put_bytes);
    }
    os << ",\n   \"matrix_pairs\":" << c.comm_matrix.size()
       << ",\"matrix_max_put_bytes\":" << max_put_bytes
       << ",\"matrix\":[";
    bool first_edge = true;
    for (const CommEdge& e : c.comm_matrix) {
      if (!first_edge) os << ",";
      first_edge = false;
      os << "\n    {\"src\":" << e.src << ",\"dst\":" << e.dst
         << ",\"puts\":" << e.traffic.puts
         << ",\"put_bytes\":" << e.traffic.put_bytes
         << ",\"rpcs\":" << e.traffic.rpcs_sent
         << ",\"rpc_bytes\":" << e.traffic.rpc_bytes << "}";
    }
    os << "]}}";
  }
  os << "\n],\n\"shape_checks\":[";
  bool first_check = true;
  for (const ShapeCheck& s : shape_checks_) {
    if (!first_check) os << ",";
    first_check = false;
    os << "\n {";
    emit_kv(os, "claim", s.claim, /*comma=*/false);
    os << ",\"ok\":" << (s.ok ? "true" : "false") << "}";
  }
  os << "\n],\n";
  emit_num_map(os, "metrics", metrics_);
  os << "\n}\n";
  return os.str();
}

std::string BenchReport::path() const {
  // Read at write time, not construction: tests set SIMCOV_BENCH_DIR before
  // the report is written, never concurrently with it.
  return Config::from_env().bench_dir + "/BENCH_" + name_ + ".json";
}

void BenchReport::write() const {
  const std::string p = path();
  std::ofstream f(p, std::ios::trunc);
  SIMCOV_REQUIRE(f.good(), "cannot open bench report for writing: " + p);
  f << to_json();
  f.flush();
  SIMCOV_REQUIRE(f.good(), "failed writing bench report: " + p);
}

void BenchReport::print_drift_summary(std::FILE* out) const {
  // Aggregate over configs: sum measured and modeled per-phase seconds, then
  // compare shares.  One table per bench keeps the signal readable even for
  // binaries that run ten configurations.  Rendering goes through the
  // obs::Summary drift printer so every epilogue shares one table format.
  Summary summary;
  summary.sections = kSummaryDrift;
  for (const BenchConfig& c : configs_) {
    for (const auto& [k, v] : c.measured_by_phase_s) {
      summary.measured_by_phase_s[k] += v;
    }
    for (const auto& [k, v] : c.modeled_by_phase_s) {
      summary.modeled_by_phase_s[k] += v;
    }
  }
  summary.print(out);
}

}  // namespace simcov::obs
