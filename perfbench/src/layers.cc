#include "layers.h"

#include <algorithm>

#include "data.h"

namespace perfbench {

const std::vector<LayerMetricSpec>& LayerMetricSpecs() {
  static const std::vector<LayerMetricSpec> specs = [] {
    std::vector<LayerMetricSpec> v = {
        {"client.point_p50_ms", "ms"},
        {"client.point_p99_ms", "ms"},
        {"client.update_p50_ms", "ms"},
        {"client.update_p90_ms", "ms"},
        {"client.distinct_p50_ms", "ms"},
        {"sql.prepare_us.point", "us"},
        {"sql.prepare_us.update", "us"},
        {"optimizer.patch_rewrites", "count"},
        {"optimizer.optimize_us", "us"},
    };
    for (const char* q :
         {"distinct", "distinct_filtered", "sort_range", "patch_join",
          "nuc_join", "filter_agg", "count", "topn", "distinct_p4",
          "sort_range_p4", "patch_join_p4"}) {
      v.push_back({std::string("engine.execute_ms.") + q, "ms"});
    }
    v.insert(v.end(), {
                          {"engine.serial_fallbacks", "count"},
                          {"engine.locate_ms", "ms"},
                          {"engine.commit_ms", "ms"},
                          {"engine.commit_wait_ms", "ms"},
                          {"engine.pool_queue_wait_us", "us"},
                      });
    for (const std::string& op : KnownOperators()) {
      v.push_back({"exec.self_ms." + op, "ms"});
    }
    v.insert(v.end(), {
                          {"exec.rows_scanned.point", "count"},
                          {"exec.morsels.point", "count"},
                          {"patchindex.discovery_ms.nuc", "ms"},
                          {"patchindex.discovery_ms.nsc", "ms"},
                      });
    for (const char* kind : {"insert", "modify", "delete"}) {
      for (const char* idx : {"nuc", "nsc"}) {
        v.push_back(
            {std::string("patchindex.commit_ms.") + kind + "." + idx, "ms"});
      }
    }
    v.insert(v.end(),
             {
                 {"patchindex.nuc_scan_fraction", "fraction"},
                 {"patchindex.patches.nuc", "count"},
                 {"patchindex.patches.nsc", "count"},
                 {"patchindex.exception_rate_drift.nuc", "fraction"},
                 {"patchindex.exception_rate_drift.nsc", "fraction"},
                 {"bitmap.bytes_per_row", "bytes"},
                 {"storage.wal_bytes_per_row", "bytes"},
                 {"storage.checkpoints", "count"},
                 {"storage.checkpoint_ms", "ms"},
                 {"storage.resident_bytes", "bytes"},
                 {"server.roundtrip_us", "us"},
                 {"server.exec_us", "us"},
                 {"server.queue_wait_us", "us"},
                 {"server.busy_rejections", "count"},
                 {"trace.overhead_pct", "%"},
                 {"trace.spans", "count"},
             });
    return v;
  }();
  return specs;
}

void LayerMetrics::EmitTo(Report* report) const {
  for (const auto& [name, value] : values_) {
    bool known = false;
    for (const LayerMetricSpec& s : LayerMetricSpecs()) known |= s.name == name;
    if (!known) report->Fail("per-layer metric " + name + " is not in the list");
  }
  for (const LayerMetricSpec& s : LayerMetricSpecs()) {
    auto it = values_.find(s.name);
    report->Metric(s.name, it == values_.end() ? 0.0 : it->second, s.unit);
  }
}

void RecordPhaseSpans(Tracer& tracer, std::uint64_t op, std::uint64_t parent,
                      std::int64_t start_ns,
                      const patchindex::obs::QueryProfile* profile) {
  if (profile == nullptr || !tracer.enabled()) return;
  const std::pair<const char*, double> phases[] = {
      {"sql.parse", profile->parse_ms},
      {"sql.bind", profile->bind_ms},
      {"optimizer.optimize", profile->optimize_ms},
      {"engine.execute", profile->execute_ms},
      {"engine.commit_wait", profile->commit_wait_ms},
      {"engine.commit", profile->commit_ms},
  };
  std::int64_t t = start_ns;
  for (const auto& [name, ms] : phases) {
    if (ms <= 0) continue;
    const auto ns = static_cast<std::int64_t>(ms * 1e6);
    tracer.Record(name, op, parent, t, t + ns);
    t += ns;
  }
}

std::uint64_t CountPatchRewrites(const std::string& plan) {
  std::uint64_t n = 0;
  for (const char* node : {"PatchDistinct", "PatchSort", "PatchJoin"}) {
    for (std::size_t at = plan.find(node); at != std::string::npos;
         at = plan.find(node, at + 1)) {
      ++n;
    }
  }
  return n;
}

void AddSelfTimes(const patchindex::obs::QueryProfile& profile,
                  std::map<std::string, double>* self_ms) {
  const auto& ops = profile.ops;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    double children = 0;
    for (std::size_t j = i + 1; j < ops.size() && ops[j].depth > ops[i].depth;
         ++j) {
      if (ops[j].depth == ops[i].depth + 1) children += ops[j].time_ms;
    }
    const double self = ops[i].time_ms - children;
    std::string name = OperatorName(ops[i].label);
    const auto& known = KnownOperators();
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      name = "Other";
    }
    (*self_ms)[name] += self > 0 ? self : 0.0;
  }
}

void FinishTraced(const RunConfig& cfg, const Tracer& tracer,
                  double untraced_ops_per_s, double traced_ops_per_s,
                  LayerMetrics* lm, Report* report) {
  lm->Set("trace.overhead_pct",
          (untraced_ops_per_s - traced_ops_per_s) / untraced_ops_per_s * 100);
  lm->Set("trace.spans", static_cast<double>(tracer.num_spans()));
  if (!cfg.trace_path.empty() && !tracer.WriteChromeJson(cfg.trace_path)) {
    report->Fail("cannot write the trace to " + cfg.trace_path);
  }
  lm->EmitTo(report);
}

}  // namespace perfbench
