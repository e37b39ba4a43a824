// Shared pieces of the repository benchmark: run configuration, the
// benchmark's own seeded random stream, latency sample sets, metric
// reporting, correctness bookkeeping and the in-memory span tracer.
//
// Everything here belongs to the benchmark, not to the engine: the engine
// only ever sees the generated inputs and the calls the workloads make.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds.
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Sizes of one workload. `kFull` is the measured configuration; `kTiny`
/// runs the same code paths on small tables for the self-test.
enum class Scale { kFull, kTiny };

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Scale scale = Scale::kFull;
  /// Scratch directory (inside the checkout) for WAL and data files;
  /// removed when the run ends.
  std::string workdir;
  /// Where a traced run writes its Chrome trace-event JSON.
  std::string trace_path;
  /// Self-test hook: perturb one expected answer so the run must fail.
  bool corrupt = false;
  /// Engine workers, server query workers and client threads: the
  /// process's usable CPU count.
  std::size_t threads = 4;
};

/// SplitMix64: the benchmark's own deterministic stream, independent of
/// the engine's generators, so the inputs are a function of --seed alone.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi] (inclusive).
  std::uint64_t Uniform(std::uint64_t lo, std::uint64_t hi) {
    const unsigned __int128 span =
        static_cast<unsigned __int128>(hi - lo) + 1;
    return lo + static_cast<std::uint64_t>((Next() * span) >> 64);
  }
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[Uniform(0, i - 1)]);
    }
  }

 private:
  std::uint64_t state_;
};

/// Samples (latencies in milliseconds, or per-round rates); percentiles
/// by nearest rank.
class Samples {
 public:
  void Add(double ms) { v_.push_back(ms); }
  void Merge(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  std::size_t size() const { return v_.size(); }
  double Percentile(double q) const;

 private:
  std::vector<double> v_;
};

/// Latency samples kept per statement type. A workload runs a fixed mix
/// of types whose latencies differ by orders of magnitude, so percentiles
/// over the mixture jump between types from run to run; summaries over
/// the per-type medians do not.
class TypedSamples {
 public:
  explicit TypedSamples(std::size_t types) : by_type_(types) {}
  void Add(std::size_t type, double ms) { by_type_[type].Add(ms); }
  void Merge(const TypedSamples& o) {
    for (std::size_t t = 0; t < by_type_.size(); ++t) by_type_[t].Merge(o.by_type_[t]);
  }
  const Samples& type(std::size_t t) const { return by_type_[t]; }
  /// Geometric mean of the per-type median latencies (types without
  /// samples are skipped).
  double GeomeanOfMedians() const;

 private:
  std::vector<Samples> by_type_;
};

/// Running sum/count, for per-layer means.
struct Acc {
  double sum = 0;
  std::uint64_t n = 0;
  void Add(double x) {
    sum += x;
    ++n;
  }
  void Merge(const Acc& o) {
    sum += o.sum;
    n += o.n;
  }
  double Mean() const { return n == 0 ? 0.0 : sum / static_cast<double>(n); }
};

/// The run's outcome: correctness, operation counts and named metrics in
/// the order they are added.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// Records a failed check; the run then reports correct=false and exits
  /// non-zero. Only the first few messages are printed.
  void Fail(const std::string& what);
  bool correct() const { return failures_ == 0; }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Prints the result object as one line on stdout.
  void PrintJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::mutex mu_;
  std::uint64_t failures_ = 0;
};

/// Span recorder for the traced run. Spans are kept in per-thread buffers
/// in memory and written out once, as Chrome trace-event JSON, when the
/// run ends. A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled)
      : enabled_(enabled), id_(next_tracer_id_.fetch_add(1) + 1) {}
  bool enabled() const { return enabled_; }

  /// A fresh operation id; every span of one operation carries it.
  std::uint64_t NewOp() { return next_op_.fetch_add(1) + 1; }

  /// Records a finished span and returns its id (0 when disabled).
  std::uint64_t Record(const char* name, std::uint64_t op,
                       std::uint64_t parent, std::int64_t start_ns,
                       std::int64_t end_ns);

  /// RAII span around one call into a layer.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint64_t op,
          std::uint64_t parent = 0)
        : t_(t), name_(name), op_(op), parent_(parent), start_(NowNs()) {}
    ~Scope() {
      if (t_.enabled()) t_.Record(name_, op_, parent_, start_, NowNs());
    }

   private:
    Tracer& t_;
    const char* name_;
    std::uint64_t op_;
    std::uint64_t parent_;
    std::int64_t start_;
  };

  std::size_t num_spans() const;
  /// Writes every recorded span; false when the file cannot be written.
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t op;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  struct Buffer {
    int tid = 0;
    std::vector<Span> spans;
  };
  Buffer& ThisThreadBuffer();

  static inline std::atomic<std::uint64_t> next_tracer_id_{0};
  bool enabled_;
  std::uint64_t id_;  // keys the thread-local buffer cache
  std::atomic<std::uint64_t> next_op_{0};
  std::atomic<std::uint64_t> next_span_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Reports the end-to-end metrics of an untraced run, in BENCHMARK.json
/// order; peak_rss_mb is read here.
/// `round_rate` holds, per round of the workload's fixed mix, the
/// operations completed per second within that round; ops_per_s is their
/// median, so a stall in one round does not swing the figure.
void EmitEndToEnd(Report* report, double setup_s, const Samples& round_rate,
                  const TypedSamples& latency, double index_bytes);

/// Process peak resident set, MB (getrusage ru_maxrss).
double PeakRssMb();

/// Usable CPUs of this process (the affinity mask, like `nproc`).
std::size_t UsableCpus();

/// Median of `v` (v non-empty).
double Median(std::vector<double> v);

/// Runs `setup` `reps` times, keeping the state of the last repetition;
/// returns the median set-up time in seconds. The previous state is
/// destroyed before the next repetition starts, so peak memory reflects
/// one instance.
template <typename State, typename Fn>
double RepeatedSetup(int reps, std::unique_ptr<State>* state, Fn setup) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    state->reset();
    const std::int64_t t0 = NowNs();
    *state = setup(i);
    times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  return Median(times);
}

/// Number of set-up repetitions per run (setup_s is their median); oltp,
/// whose set-up is short, repeats more.
inline constexpr int kSetupReps = 3;

int RunOlap(const RunConfig& cfg, Report* report);
int RunOltp(const RunConfig& cfg, Report* report);
int RunMaintain(const RunConfig& cfg, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
