// Per-layer metrics of the traced run: the fixed list of names and units,
// and helpers that turn what the engine exposes (QueryResult::profile,
// EXPLAIN output) into layer figures and spans.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "obs/profile.h"

namespace perfbench {

struct LayerMetricSpec {
  std::string name;
  std::string unit;
};

/// Every per-layer metric, in output order. A traced run prints all of
/// them; a layer the workload does not exercise reads 0.
const std::vector<LayerMetricSpec>& LayerMetricSpecs();

/// The values one traced run measured, keyed by metric name.
class LayerMetrics {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  /// Emits every spec'd metric into `report` (0 for unset ones). An unset
  /// name outside the spec list is a programming error and fails the run.
  void EmitTo(Report* report) const;

 private:
  std::map<std::string, double> values_;
};

/// Adds the statement's profiled phases as child spans of `parent`, laid
/// end to end from `start_ns` (the profile holds durations, not times).
void RecordPhaseSpans(Tracer& tracer, std::uint64_t op, std::uint64_t parent,
                      std::int64_t start_ns,
                      const patchindex::obs::QueryProfile* profile);

/// PatchDistinct, PatchSort and PatchJoin nodes in an EXPLAIN plan.
std::uint64_t CountPatchRewrites(const std::string& plan);

/// Adds each operator's self time (inclusive time minus its children's,
/// summed over workers) to `self_ms`, keyed by operator name.
void AddSelfTimes(const patchindex::obs::QueryProfile& profile,
                  std::map<std::string, double>* self_ms);

/// Completes a traced run: sets trace.overhead_pct from the untraced and
/// traced throughput, writes the Chrome trace into the work directory and
/// emits every per-layer metric.
void FinishTraced(const RunConfig& cfg, const Tracer& tracer,
                  double untraced_ops_per_s, double traced_ops_per_s,
                  LayerMetrics* lm, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
