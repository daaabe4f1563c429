// End-to-end benchmark driver for the MISO multistore (see README.md in
// this directory). One process runs one workload for a fixed measuring
// time, checks the program's outputs, prints every metric as
// `workload metric value unit`, and ends with one JSON result line.
//
// The driver measures only from outside the library: it times its own
// calls into public functions (catalog and workload generation, the
// MisoServer constructor / Submit / future wait / Close / Finish,
// sim::RunSeedSweep, MultistoreSimulator::Run), reads RunReport fields
// and, in the traced run only, snapshots the metrics registry.
//
//   miso_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//              [--quick]
//
// The traced run writes its spans and per-layer metrics under
// .bench_build/trace/ in the working directory.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "core/miso.h"
#include "server/miso_server.h"

#ifndef MISO_BENCH_BUILD_TYPE
#define MISO_BENCH_BUILD_TYPE "unknown"
#endif

namespace miso::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using Queries = std::vector<workload::WorkloadQuery>;

constexpr int kThreads = 4;  // MISO_THREADS for every workload
// Untimed warm-up before measuring, as a share of the measuring time.
constexpr double kWarmUpShare = 0.12;
// Length of one closed-loop unit of paper_variants' single runs.
constexpr double kClientUnitS = 1.0;

double ToS(Clock::duration d) { return std::chrono::duration<double>(d).count(); }
double ToMs(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
double ToUs(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Nearest-rank percentile (q in [0, 1]) of `v`; 0 for an empty sample.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t i = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}
double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }
double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}
double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Shortest decimal that round-trips the double: "all its digits".
std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

// ---------------------------------------------------------------------------
// Options.

struct Options {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  bool quick = false;
};

constexpr char kTraceDir[] = ".bench_build/trace";

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "miso_bench: %s\nusage: miso_bench --workload "
               "serve_warm|serve_evolving|serve_chaos|paper_variants "
               "[--seed N] [--seconds S] [--trace 0|1] [--quick]\n",
               error.c_str());
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      opt.quick = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + arg);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || value[0] == '-' || *end != '\0') {
        Usage("bad --seed " + value);
      }
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(opt.seconds > 0) ||
          opt.seconds > 3600) {
        Usage("bad --seconds " + value);
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace " + value);
      opt.trace = value == "1";
    } else {
      Usage("unknown argument " + arg);
    }
  }
  if (opt.workload.empty()) Usage("--workload is required");
  return opt;
}

// ---------------------------------------------------------------------------
// Spans: the traced run's in-memory record of the driver's own calls into
// each layer, written as JSONL at exit.

struct Span {
  int64_t id = 0;
  int64_t parent = 0;  // 0: root
  int64_t req = -1;    // session id or run index; -1: not request-scoped
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Reserves an id, for a span whose children are recorded before it.
  int64_t NewId() { return ++last_id_; }

  /// Records `span`, assigning an id when it has none. Main thread only.
  void Add(Span span) {
    if (!enabled_) return;
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return;
    }
    if (span.id == 0) span.id = NewId();
    spans_.push_back(std::move(span));
  }
  void Add(int64_t parent, int64_t req, std::string name, Clock::time_point s,
           Clock::time_point e) {
    Add(Span{0, parent, req, std::move(name), s, e});
  }

  size_t size() const { return spans_.size(); }
  int64_t dropped() const { return dropped_; }

  bool Write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    for (const Span& s : spans_) {
      out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"req\":" << s.req << ",\"name\":\"" << s.name
          << "\",\"start_us\":" << Num(ToUs(s.start - origin_))
          << ",\"end_us\":" << Num(ToUs(s.end - origin_)) << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  // Per-session spans are sampled (kSessionSpanStride), so a run stays
  // well under this; the cap only bounds memory if that ever changes.
  static constexpr size_t kMaxSpans = 250000;
  bool enabled_;
  Clock::time_point origin_;
  int64_t last_id_ = 0;
  int64_t dropped_ = 0;
  std::vector<Span> spans_;
};

/// RAII span around a block on the main thread.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, int64_t parent, int64_t req, std::string name)
      : log_(log),
        span_{log->NewId(), parent, req, std::move(name), Clock::now(), {}} {}
  ~ScopedSpan() {
    span_.end = Clock::now();
    log_->Add(std::move(span_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return span_.id; }

 private:
  SpanLog* log_;
  Span span_;
};

// ---------------------------------------------------------------------------
// Registry totals over the traced passes of one workload: the registry is
// reset before each traced pass and snapshotted after it.

class RegistryTotals {
 public:
  /// Adds a snapshot taken after a traced pass.
  void AddSnapshot() {
    ++snapshots_;
    for (const obs::MetricRow& row : obs::Metrics().Snapshot().rows) {
      switch (row.kind) {
        case obs::MetricRow::Kind::kCounter:
          sums_[row.name] += static_cast<double>(row.counter_value);
          break;
        case obs::MetricRow::Kind::kGauge:
          peaks_[row.name] = std::max(peaks_[row.name], row.gauge_value);
          break;
        case obs::MetricRow::Kind::kHistogram:
          sums_[row.name + ".count"] += static_cast<double>(row.count);
          sums_[row.name + ".sum"] += row.sum;
          break;
      }
    }
  }

  /// Mean per snapshot of a counter (or a histogram's ".count"/".sum").
  double PerUnit(const std::string& key) const {
    const auto it = sums_.find(key);
    return it == sums_.end() ? 0 : Ratio(it->second, snapshots_);
  }
  /// Highest value a gauge reached in any snapshot.
  double Peak(const std::string& key) const {
    const auto it = peaks_.find(key);
    return it == peaks_.end() ? 0 : it->second;
  }
  double HistogramMean(const std::string& name) const {
    return Ratio(PerUnit(name + ".sum"), PerUnit(name + ".count"));
  }

 private:
  double snapshots_ = 0;
  std::map<std::string, double> sums_;
  std::map<std::string, double> peaks_;
};

// ---------------------------------------------------------------------------
// Result of one benchmark process.

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

const std::vector<sim::SystemVariant>& Variants() {
  static const std::vector<sim::SystemVariant> kAll = {
      sim::SystemVariant::kHvOnly, sim::SystemVariant::kDwOnly,
      sim::SystemVariant::kMsBasic, sim::SystemVariant::kHvOp,
      sim::SystemVariant::kMsMiso, sim::SystemVariant::kMsLru,
      sim::SystemVariant::kMsOff,  sim::SystemVariant::kMsOra};
  return kAll;
}
std::string VariantName(sim::SystemVariant v) {
  return std::string(sim::SystemVariantToString(v));
}

/// Every per-layer metric, in output order, with its unit. A workload
/// that does not exercise a layer reports 0 for it.
std::vector<Metric> LayerMetricTemplate() {
  std::vector<Metric> m = {
      {"server.submit_us_p50", 0, "us"},
      {"server.submit_us_p99", 0, "us"},
      {"server.ctor_ms", 0, "ms"},
      {"server.finish_ms", 0, "ms"},
      {"server.waves", 0, "count"},
      {"server.sessions_per_wave", 0, "count"},
      {"server.waves_speculative", 0, "count"},
      {"server.waves_replanned", 0, "count"},
      {"server.speculation_accept_ratio", 0, "ratio"},
      {"server.pipeline_overlap_ms", 0, "ms"},
      {"server.session_latency_ms_mean", 0, "ms"},
      {"server.admission_high_water", 0, "count"},
      {"plan_cache.hits", 0, "count"},
      {"plan_cache.misses", 0, "count"},
      {"plan_cache.evictions", 0, "count"},
      {"plan_cache.invalidations", 0, "count"},
      {"plan_cache.hit_ratio", 0, "ratio"},
      {"optimizer.optimize_calls", 0, "count"},
      {"optimizer.splits_enumerated", 0, "count"},
      {"optimizer.candidates_costed", 0, "count"},
      {"optimizer.whatif_probes", 0, "count"},
      {"optimizer.candidates_per_optimize", 0, "count"},
      {"tuner.reorgs", 0, "count"},
      {"tuner.busy_ms", 0, "ms"},
      {"tuner.tune_ms_mean", 0, "ms"},
      {"tuner.candidates", 0, "count"},
      {"tuner.knapsack_items", 0, "count"},
      {"tuner.whatif_cache_hit_ratio", 0, "ratio"},
      {"tuner.whatif_cache_evictions", 0, "count"},
      {"reorg.epochs_published", 0, "count"},
      {"reorg.steps", 0, "count"},
      {"reorg.rolled_back", 0, "count"},
      {"reorg.overlap_saved_sim_s", 0, "sim_s"},
      {"reorg.moved_to_dw_gib", 0, "GiB"},
      {"exec.hv_sim_s", 0, "sim_s"},
      {"exec.dw_sim_s", 0, "sim_s"},
      {"exec.transfer_sim_s", 0, "sim_s"},
      {"exec.tune_sim_s", 0, "sim_s"},
      {"fault.injected", 0, "count"},
      {"fault.retries", 0, "count"},
      {"fault.exhausted", 0, "count"},
      {"overload.shed", 0, "count"},
      {"overload.failed", 0, "count"},
      {"overload.breaker_transitions", 0, "count"},
      {"overload.breaker_degraded", 0, "count"},
      {"pool.submits", 0, "count"},
      {"pool.tasks_run", 0, "count"},
      {"pool.tasks_per_submit", 0, "count"},
      {"pool.queue_high_water", 0, "count"},
  };
  for (sim::SystemVariant v : Variants()) {
    m.push_back({"sim.sweep_ms." + VariantName(v), 0, "ms"});
  }
  for (sim::SystemVariant v : Variants()) {
    m.push_back({"sim.tti_sim_s." + VariantName(v), 0, "sim_s"});
  }
  for (const char* name :
       {"setup.catalog_ms", "setup.workload_ms", "setup.warmup_ms",
        "loadgen.late_p99_ms", "loadgen.submit_blocked_ms"}) {
    m.push_back({name, 0, "ms"});
  }
  m.push_back({"obs.traced_slowdown", 0, "ratio"});
  m.push_back({"tti_sim_s", 0, "sim_s"});
  m.push_back({"failed_frac", 0, "ratio"});
  return m;
}

class Outcome {
 public:
  Outcome() : layers_(LayerMetricTemplate()) {}

  /// Records a correctness failure unless `ok`.
  void Check(bool ok, const std::string& what) {
    if (ok) return;
    if (errors_.size() < 20) errors_.push_back(what);
    correct_ = false;
  }
  bool correct() const { return correct_; }
  const std::vector<std::string>& errors() const { return errors_; }

  void Attempt(int64_t n, int64_t failed) {
    attempted_ += n;
    failed_ += failed;
  }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

  void EndToEnd(const std::string& name, double value, const std::string& unit) {
    end_to_end_.push_back({name, value, unit});
  }
  /// Extra human-readable lines (sample counts, simulated outputs).
  void Info(const std::string& name, double value, const std::string& unit) {
    info_.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value) {
    for (Metric& m : layers_) {
      if (m.name == name) {
        m.value = value;
        return;
      }
    }
    std::fprintf(stderr, "miso_bench: unknown layer metric %s\n", name.c_str());
    std::abort();
  }

  const std::vector<Metric>& end_to_end() const { return end_to_end_; }
  const std::vector<Metric>& info() const { return info_; }
  const std::vector<Metric>& layers() const { return layers_; }

 private:
  bool correct_ = true;
  std::vector<std::string> errors_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<Metric> end_to_end_;
  std::vector<Metric> info_;
  std::vector<Metric> layers_;
};

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Report identity for the repeat check: `ReportToJson` with the two
/// runtime-class fields (speculation counts depend on thread timing)
/// zeroed, hashed so large reports need not be kept.
uint64_t ReportIdentity(const sim::RunReport& report) {
  sim::RunReport copy = report;
  copy.waves_speculative = 0;
  copy.waves_replanned = 0;
  return HashBytes(sim::ReportToJson(copy));
}

/// `ReportFromJson(ReportToJson(r))` must reproduce r byte for byte.
bool RoundTrips(const sim::RunReport& report) {
  const std::string json = sim::ReportToJson(report);
  const Result<sim::RunReport> back = sim::ReportFromJson(json);
  return back.ok() && sim::ReportToJson(*back) == json;
}

/// One measured phase: a repeatable unit of work and its share of the
/// measuring time.
struct Phase {
  double share = 0;
  int min_units = 1;
  std::function<void(int unit)> run;
  int done = 0;
  double spent_s = 0;
};

/// Runs the phases interleaved for about `budget_s`: each step runs one
/// unit of the phase furthest behind its share, so a slow stretch of the
/// host lands on every phase alike instead of on whichever ran then.
/// Every phase runs at least its `min_units`; after that, the run stops
/// before a unit that would overshoot the budget.
void RunInterleaved(double budget_s, std::vector<Phase>* phases) {
  const Clock::time_point begin = Clock::now();
  for (;;) {
    Phase* next = nullptr;
    for (Phase& p : *phases) {
      if (p.done < p.min_units && (next == nullptr || p.done < next->done)) {
        next = &p;
      }
    }
    if (next == nullptr) {
      for (Phase& p : *phases) {
        if (next == nullptr ||
            p.spent_s / p.share < next->spent_s / next->share) {
          next = &p;
        }
      }
      const double unit_s = next->spent_s / next->done;
      if (ToS(Clock::now() - begin) + unit_s > budget_s) return;
    }
    const Clock::time_point u0 = Clock::now();
    next->run(next->done);
    next->spent_s += ToS(Clock::now() - u0);
    next->done += 1;
  }
}

/// Untimed units until `seconds` have passed (at least one): the first
/// seconds of a process run measurably slower while its heap and the host
/// settle, so measuring starts after them.
void WarmUp(double seconds, const std::function<void(int unit)>& unit) {
  const Clock::time_point begin = Clock::now();
  int i = 0;
  do {
    unit(i++);
  } while (ToS(Clock::now() - begin) < seconds);
}

// ---------------------------------------------------------------------------
// Workload inputs.

// A run measures whole passes over a fixed pool of inputs drawn from the
// seed: many paper workloads per run, so a metric describes the workload
// mix rather than the luck of one seed's queries.
struct Sizes {
  int streams;           // serving: session streams in the pool
  int warm_sessions;     // serve_warm: sessions per stream
  int stream_workloads;  // serve_evolving/chaos: paper workloads per stream
  int variant_seeds;     // paper_variants: seeds per sweep
  int setup_repeats;     // set-up is timed this many times; median kept
  int min_units;         // passes each phase runs at least
};

Sizes SizesFor(bool quick) {
  if (quick) return Sizes{2, 200, 1, 2, 1, 1};
  return Sizes{8, 625, 4, 64, 9, 2};
}

Result<Queries> PaperWorkload(const relation::Catalog& catalog, uint64_t seed) {
  workload::WorkloadConfig config;
  config.seed = seed;
  MISO_ASSIGN_OR_RETURN(workload::EvolutionaryWorkload w,
                        workload::EvolutionaryWorkload::Generate(&catalog, config));
  return w.queries();
}

/// The serving workloads' shared engine configuration (§5.2 budgets).
server::ServerConfig BaseServerConfig(bool traced) {
  server::ServerConfig config;
  config.sim.variant = sim::SystemVariant::kMsMiso;
  config.sim.hv_storage_budget = 4 * kTiB;
  config.sim.dw_storage_budget = 400 * kGiB;
  config.sim.transfer_budget = 10 * kGiB;
  config.sim.fault.profile = fault::FaultProfile::kOff;
  config.sim.metrics = traced;
  return config;
}

struct ServeWorkload {
  // Sessions before the timed window of every lifetime (set-up
  // included): they bring the warm workload's plan cache to its steady
  // state (0 elsewhere).
  int warmup = 0;
  // Offered rate of the open-loop phase, sessions per wall second.
  double open_rate = 0;
  // Session streams in the pool; a pass serves each once.
  int streams = 0;
  std::function<server::ServerConfig(bool traced, int sessions)> config;
  // Builds stream `index` of the pool (set-up work, timed).
  std::function<Result<Queries>(const relation::Catalog&, int index)> stream;
  // Whether the fault profile must have injected something.
  bool expect_faults = false;
};

ServeWorkload MakeServeWorkload(const std::string& name, uint64_t seed,
                                const Sizes& sizes) {
  ServeWorkload w;
  if (name == "serve_warm") {
    // A stable design: stream i cycles the 32-query paper workload of
    // seed + i with no reorganizations, so every session after the
    // warm-up is a plan-cache hit and the admission/wave/reduce path, the
    // cache and the pool dominate. Harvested views change the HV design,
    // and so every plan-cache key, through the first four cycles; the
    // warm-up covers them.
    w.warmup = 128;
    w.open_rate = 10000;
    w.streams = sizes.streams;
    w.config = [](bool traced, int) {
      server::ServerConfig c = BaseServerConfig(traced);
      c.sim.reorg_every = 0;
      return c;
    };
    const int n = sizes.warm_sessions;
    w.stream = [seed, n](const relation::Catalog& catalog,
                         int index) -> Result<Queries> {
      MISO_ASSIGN_OR_RETURN(
          Queries base, PaperWorkload(catalog, seed + static_cast<uint64_t>(index)));
      Queries stream;
      stream.reserve(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) {
        stream.push_back(base[static_cast<size_t>(i) % base.size()]);
      }
      return stream;
    };
    return w;
  }
  // The paper's regime: stream i joins the paper workloads of the next
  // `k` seeds, so templates are fresh every 32 sessions and the design
  // reorganizes every 3; the tuner, optimizer and reorganizer dominate
  // and the plan cache never hits.
  const int k = sizes.stream_workloads;
  w.open_rate = 300;
  w.streams = sizes.streams;
  w.stream = [seed, k](const relation::Catalog& catalog,
                       int index) -> Result<Queries> {
    Queries stream;
    for (int i = 0; i < k; ++i) {
      const uint64_t s = seed + static_cast<uint64_t>(index * k + i);
      MISO_ASSIGN_OR_RETURN(Queries part, PaperWorkload(catalog, s));
      stream.insert(stream.end(), part.begin(), part.end());
    }
    return stream;
  };
  if (name == "serve_evolving") {
    w.config = [](bool traced, int) { return BaseServerConfig(traced); };
    return w;
  }
  // serve_chaos: the same kind of streams on the failure paths. Faults
  // strike every site at rate 0.3 (DW outage window and reorganization
  // crashes included) and the DW-health breaker trips and recovers, but
  // the retry budget is deep enough that every session still completes:
  // the work measured is retries, degradation, breaker edges and cache
  // invalidations, not lost sessions. Throughput follows the share of
  // sessions served while the breaker is open, which varies a lot from
  // stream to stream; a cooldown of a few sessions' simulated time makes
  // the breaker cycle often, and a pool twice as large averages the rest.
  w.open_rate = 600;
  w.streams = 2 * sizes.streams;
  w.expect_faults = true;
  w.config = [](bool traced, int sessions) {
    server::ServerConfig c = BaseServerConfig(traced);
    c.expected_sessions = sessions;
    c.sim.fault.profile = fault::FaultProfile::kChaos;
    c.sim.fault.seed = 5;
    c.sim.fault.rate = 0.3;
    c.sim.fault.retry.max_attempts = 16;
    c.overload.breaker = true;
    c.overload.breaker_failure_threshold = 2;
    c.overload.breaker_cooldown_s = 10000;
    c.overload.breaker_half_open_successes = 2;
    return c;
  };
  return w;
}

// ---------------------------------------------------------------------------
// One server lifetime: construct, warm up, drive the measured sessions
// from one submit thread while one collector thread blocks on their
// futures in admission order, then Finish.

struct Lifetime {
  Result<sim::RunReport> report = Status::Internal("not finished");
  int measured = 0;     // sessions after the warm-up
  int completed = 0;    // of all sessions, warm-up included
  int incomplete = 0;   // shed, failed, aborted (warm-up included)
  std::string first_error;
  double wall_s = 0;    // first measured Submit -> Finish returned
  double ctor_ms = 0;
  double finish_ms = 0;
  std::vector<double> latency_ms;  // open loop: due -> future resolved
  std::vector<double> late_ms;     // open loop: Submit start - due
  std::vector<double> submit_us;   // every measured Submit call
};

/// Every kSessionSpanStride-th measured session of a lifetime gets spans:
/// enough to follow single sessions while the log of a 25 s run of the
/// fastest workload stays around 100k spans.
constexpr int kSessionSpanStride = 8;

Lifetime Serve(const relation::Catalog& catalog,
               const server::ServerConfig& config, const Queries& stream,
               int warmup, double rate, SpanLog* spans, int64_t parent) {
  Lifetime out;
  const int n = static_cast<int>(stream.size());
  const int measured = n - warmup;
  out.measured = measured;
  auto tally = [&out](const server::SessionResult& r) {
    if (r.outcome == server::SessionOutcome::kCompleted && r.status.ok()) {
      ++out.completed;
      return;
    }
    ++out.incomplete;
    if (out.first_error.empty()) out.first_error = r.status.ToString();
  };

  const Clock::time_point c0 = Clock::now();
  server::MisoServer server(&catalog, config);
  const Clock::time_point c1 = Clock::now();
  std::vector<std::future<server::SessionResult>> warm;
  for (int i = 0; i < warmup; ++i) warm.push_back(server.Submit(stream[i]));
  for (auto& f : warm) tally(f.get());
  const Clock::time_point c2 = Clock::now();
  out.ctor_ms = ToMs(c1 - c0);

  std::vector<std::future<server::SessionResult>> futures(measured);
  std::vector<server::SessionResult> results(measured);
  std::vector<Clock::time_point> due(measured), submit_begin(measured),
      submit_end(measured), resolved(measured);
  // `submitted` counts futures ready for the collector; kGaveUp tells it
  // the submitter stopped early and no more will come.
  constexpr int kGaveUp = -1;
  std::atomic<int> submitted{0};
  std::atomic<bool> thread_failed{false};
  int collected = 0;

  const Clock::time_point t0 = Clock::now();
  std::thread submitter([&] {
    try {
      for (int i = 0; i < measured; ++i) {
        if (rate > 0) {
          due[i] = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(i / rate));
          std::this_thread::sleep_until(due[i]);
        }
        submit_begin[i] = Clock::now();
        if (rate <= 0) due[i] = submit_begin[i];
        futures[i] = server.Submit(stream[warmup + i]);
        submit_end[i] = Clock::now();
        submitted.store(i + 1, std::memory_order_release);
        submitted.notify_one();
      }
    } catch (...) {
      thread_failed = true;
      submitted.store(kGaveUp, std::memory_order_release);
      submitted.notify_one();
    }
    server.Close();
  });
  std::thread collector([&] {
    try {
      for (int i = 0; i < measured; ++i) {
        int s = submitted.load(std::memory_order_acquire);
        while (s != kGaveUp && s <= i) {
          submitted.wait(s, std::memory_order_acquire);
          s = submitted.load(std::memory_order_acquire);
        }
        if (s == kGaveUp) return;
        results[i] = futures[i].get();
        resolved[i] = Clock::now();
        collected = i + 1;
      }
    } catch (...) {
      thread_failed = true;
    }
  });
  submitter.join();
  collector.join();
  const Clock::time_point f0 = Clock::now();
  out.report = server.Finish();
  const Clock::time_point f1 = Clock::now();
  out.finish_ms = ToMs(f1 - f0);
  out.wall_s = ToS(f1 - t0);
  if (thread_failed || collected < measured) {
    out.incomplete += measured - collected;
    out.first_error = "a load thread threw";
    return out;
  }

  out.submit_us.reserve(measured);
  for (int i = 0; i < measured; ++i) {
    tally(results[i]);
    out.submit_us.push_back(ToUs(submit_end[i] - submit_begin[i]));
    if (rate > 0) {
      out.latency_ms.push_back(ToMs(resolved[i] - due[i]));
      out.late_ms.push_back(ToMs(submit_begin[i] - due[i]));
    }
  }

  if (spans->enabled()) {
    const int64_t id = spans->NewId();
    spans->Add(id, -1, "server.ctor", c0, c1);
    if (warmup > 0) spans->Add(id, -1, "warmup", c1, c2);
    for (int i = 0; i < measured; i += kSessionSpanStride) {
      const int64_t session = warmup + i;
      spans->Add(id, session, "server.submit", submit_begin[i], submit_end[i]);
      spans->Add(id, session, "session", due[i], resolved[i]);
    }
    spans->Add(id, -1, "server.finish", f0, f1);
    spans->Add(Span{id, parent, -1, "lifetime", c0, f1});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Per-layer metrics read from the registry, shared by every workload.

void EngineLayers(const RegistryTotals& reg, Outcome* out) {
  namespace n = obs::names;
  const double optimize = reg.PerUnit(n::kOptimizeCalls);
  const double costed = reg.PerUnit(n::kCandidatesCosted);
  out->Layer("optimizer.optimize_calls", optimize);
  out->Layer("optimizer.splits_enumerated", reg.PerUnit(n::kSplitsEnumerated));
  out->Layer("optimizer.candidates_costed", costed);
  out->Layer("optimizer.whatif_probes", reg.PerUnit(n::kWhatIfProbes));
  out->Layer("optimizer.candidates_per_optimize", Ratio(costed, optimize));
  const double hits = reg.PerUnit(n::kWhatIfCacheHits);
  out->Layer("tuner.reorgs", reg.PerUnit(n::kTunerReorgs));
  out->Layer("tuner.busy_ms", reg.PerUnit(std::string(n::kTunerTuneMs) + ".sum"));
  out->Layer("tuner.tune_ms_mean", reg.HistogramMean(n::kTunerTuneMs));
  out->Layer("tuner.candidates", reg.PerUnit(n::kTunerCandidates));
  out->Layer("tuner.knapsack_items", reg.PerUnit(n::kKnapsackItems));
  out->Layer("tuner.whatif_cache_hit_ratio",
             Ratio(hits, hits + reg.PerUnit(n::kWhatIfCacheMisses)));
  out->Layer("tuner.whatif_cache_evictions",
             reg.PerUnit(n::kWhatIfCacheEvictions));
  out->Layer("fault.exhausted", reg.PerUnit(n::kFaultExhausted));
  const double submits = reg.PerUnit(n::kPoolSubmits);
  const double tasks = reg.PerUnit(n::kPoolTasksRun);
  out->Layer("pool.submits", submits);
  out->Layer("pool.tasks_run", tasks);
  out->Layer("pool.tasks_per_submit", Ratio(tasks, submits));
  out->Layer("pool.queue_high_water", reg.Peak(n::kPoolQueueHighWater));
}

void SetupLayers(const std::vector<double>& catalog_ms,
                 const std::vector<double>& workload_ms,
                 const std::vector<double>& warmup_ms, Outcome* out) {
  out->Layer("setup.catalog_ms", Median(catalog_ms));
  out->Layer("setup.workload_ms", Median(workload_ms));
  out->Layer("setup.warmup_ms", Median(warmup_ms));
}

// ---------------------------------------------------------------------------
// Serving workloads.

void RunServeWorkload(const Options& opt, const Sizes& sizes, SpanLog* spans,
                      Outcome* out) {
  const ServeWorkload w = MakeServeWorkload(opt.workload, opt.seed, sizes);
  const int np = w.streams;

  // Set-up: catalog, the stream pool, first server construction and its
  // warm-up, repeated with the median reported. The last repeat's inputs
  // are the ones served.
  std::optional<relation::Catalog> catalog;
  std::vector<Queries> pool;
  std::vector<double> setup_s, catalog_ms, workload_ms, warmup_ms;
  for (int r = 0; r < sizes.setup_repeats; ++r) {
    ScopedSpan span(spans, 0, r, "setup");
    const Clock::time_point s0 = Clock::now();
    catalog.emplace(relation::MakePaperCatalog());
    const Clock::time_point s1 = Clock::now();
    pool.clear();
    for (int i = 0; i < np; ++i) {
      Result<Queries> made = w.stream(*catalog, i);
      out->Check(made.ok(), "stream generation: " + made.status().ToString());
      if (!made.ok()) return;
      pool.push_back(std::move(made).value());
    }
    const Clock::time_point s2 = Clock::now();
    const Queries& first = pool.front();
    server::MisoServer server(&*catalog,
                              w.config(false, static_cast<int>(first.size())));
    std::vector<std::future<server::SessionResult>> warm;
    for (int i = 0; i < w.warmup; ++i) warm.push_back(server.Submit(first[i]));
    for (auto& f : warm) {
      out->Check(f.get().status.ok(), "set-up warm-up session failed");
    }
    const Clock::time_point s3 = Clock::now();
    setup_s.push_back(ToS(s3 - s0));
    catalog_ms.push_back(ToMs(s1 - s0));
    workload_ms.push_back(ToMs(s2 - s1));
    warmup_ms.push_back(ToMs(s3 - s2));
    spans->Add(span.id(), -1, "setup.catalog", s0, s1);
    spans->Add(span.id(), -1, "setup.workload", s1, s2);
    spans->Add(span.id(), -1, "setup.warmup", s2, s3);
    (void)server.Finish();  // teardown is not set-up
  }

  // Every lifetime of stream i serves the same sessions in the same
  // admission order, so its report must equal the first one of stream i
  // (traced or not, saturated or open-loop).
  std::vector<std::optional<sim::RunReport>> reference(np);
  std::vector<uint64_t> identity(np, 0);
  auto account = [&](const Lifetime& life, int index) {
    const int sessions = static_cast<int>(pool[index].size());
    out->Attempt(sessions, life.incomplete);
    out->Check(life.incomplete == 0,
               "session not completed: " + life.first_error);
    out->Check(life.report.ok(),
               "Finish failed: " + life.report.status().ToString());
    if (!life.report.ok()) return;
    const sim::RunReport& r = *life.report;
    out->Check(r.sessions_admitted == sessions,
               "admitted " + std::to_string(r.sessions_admitted) + " of " +
                   std::to_string(sessions));
    out->Check(r.sessions_admitted == static_cast<int>(r.queries.size()) +
                                          r.sessions_shed + r.sessions_failed,
               "admitted != completed + shed + failed");
    out->Check(static_cast<int>(r.queries.size()) == life.completed,
               "report completions disagree with resolved futures");
    if (w.expect_faults) {
      out->Check(r.fault_injected > 0, "chaos profile injected no faults");
    }
    if (!reference[index]) {
      out->Check(RoundTrips(r), "ReportFromJson(ReportToJson(r)) != r");
      reference[index] = r;
      identity[index] = ReportIdentity(r);
    } else {
      out->Check(ReportIdentity(r) == identity[index],
                 "stream " + std::to_string(index) +
                     ": report differs from its first lifetime's");
    }
  };

  // One pass serves every stream of the pool once, each in a new server.
  struct Pass {
    double completed = 0;  // measured sessions completed
    double wall_s = 0;     // sum of the lifetimes' timed windows
    std::vector<double> latency_ms, late_ms, submit_us, ctor_ms, finish_ms;
    double speculative = 0;
    double replanned = 0;
  };
  auto serve_pass = [&](int unit, bool traced, double rate,
                        const char* name) {
    ScopedSpan span(spans, 0, unit, name);
    Pass p;
    for (int i = 0; i < np; ++i) {
      const Queries& stream = pool[static_cast<size_t>(i)];
      const Lifetime life =
          Serve(*catalog, w.config(traced, static_cast<int>(stream.size())),
                stream, w.warmup, rate, spans, span.id());
      account(life, i);
      p.completed += life.measured - life.incomplete;
      p.wall_s += life.wall_s;
      p.latency_ms.insert(p.latency_ms.end(), life.latency_ms.begin(),
                          life.latency_ms.end());
      p.late_ms.insert(p.late_ms.end(), life.late_ms.begin(),
                       life.late_ms.end());
      p.submit_us.insert(p.submit_us.end(), life.submit_us.begin(),
                         life.submit_us.end());
      p.ctor_ms.push_back(life.ctor_ms);
      p.finish_ms.push_back(life.finish_ms);
      if (life.report.ok()) {
        p.speculative += life.report->waves_speculative;
        p.replanned += life.report->waves_replanned;
      }
    }
    return p;
  };

  // Saturated passes: the submitter never waits, so admission
  // backpressure sets the pace. In the traced run every other saturated
  // pass has the registry on; the untraced ones give the tracing overhead.
  std::vector<double> rate_untraced, rate_traced, submit_us, ctor_ms,
      finish_ms, speculative, replanned;
  RegistryTotals registry;
  Phase saturated;
  saturated.share = 0.4;
  saturated.min_units = sizes.min_units * (opt.trace ? 2 : 1);
  saturated.run = [&](int unit) {
    const bool traced = opt.trace && unit % 2 == 1;
    if (traced) obs::Metrics().Reset();
    const Pass p = serve_pass(unit, traced, /*rate=*/0, "pass.saturated");
    if (!traced) {
      rate_untraced.push_back(Ratio(p.completed, p.wall_s));
      return;
    }
    registry.AddSnapshot();
    rate_traced.push_back(Ratio(p.completed, p.wall_s));
    submit_us.insert(submit_us.end(), p.submit_us.begin(), p.submit_us.end());
    ctor_ms.insert(ctor_ms.end(), p.ctor_ms.begin(), p.ctor_ms.end());
    finish_ms.insert(finish_ms.end(), p.finish_ms.begin(), p.finish_ms.end());
    speculative.push_back(p.speculative);
    replanned.push_back(p.replanned);
  };

  // Open-loop passes: sessions fall due at a fixed rate whatever the
  // server does; latency runs from each session's due time to its future.
  // Percentiles are taken per pass (every pass serves the same mix), and
  // the median pass is reported.
  std::vector<double> p50_ms, p99_ms, late_ms, blocked_ms;
  size_t samples_per_pass = 0;
  Phase open_loop;
  open_loop.share = 0.6;
  open_loop.min_units = sizes.min_units;
  open_loop.run = [&](int unit) {
    const Pass p = serve_pass(unit, opt.trace, w.open_rate, "pass.open_loop");
    p50_ms.push_back(Percentile(p.latency_ms, 0.50));
    p99_ms.push_back(Percentile(p.latency_ms, 0.99));
    samples_per_pass = p.latency_ms.size();
    late_ms.insert(late_ms.end(), p.late_ms.begin(), p.late_ms.end());
    double blocked = 0;
    for (double us : p.submit_us) blocked += us / 1000.0;
    blocked_ms.push_back(blocked);
  };

  WarmUp(kWarmUpShare * opt.seconds, [&](int unit) {
    serve_pass(unit, false, /*rate=*/0, "pass.warmup");
  });
  std::vector<Phase> phases = {saturated, open_loop};
  RunInterleaved(opt.seconds, &phases);

  const double throughput = Median(rate_untraced);
  out->EndToEnd("setup_s", Median(setup_s), "s");
  out->EndToEnd("throughput_per_s", throughput, "1/s");
  out->EndToEnd("latency_p50_ms", Median(p50_ms), "ms");
  out->EndToEnd("latency_p99_ms", Median(p99_ms), "ms");
  out->EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
  out->Info("latency_samples_per_pass", static_cast<double>(samples_per_pass),
            "count");
  out->Info("open_loop_passes", static_cast<double>(p50_ms.size()), "count");
  out->Info("open_loop_offered_per_s", w.open_rate, "1/s");
  out->Info("saturated_passes", static_cast<double>(rate_untraced.size()),
            "count");

  // Model-class report fields, summed over the pool: per pass.
  sim::RunReport r;
  double tti = 0;  // mean simulated TTI per lifetime
  for (const std::optional<sim::RunReport>& ref : reference) {
    if (!ref) return;
    r.sessions_admitted += ref->sessions_admitted;
    r.waves += ref->waves;
    r.plan_cache_hits += ref->plan_cache_hits;
    r.plan_cache_misses += ref->plan_cache_misses;
    r.plan_cache_evictions += ref->plan_cache_evictions;
    r.plan_cache_invalidations += ref->plan_cache_invalidations;
    r.epochs_published += ref->epochs_published;
    r.reorgs_rolled_back += ref->reorgs_rolled_back;
    r.reorg_overlap_saved_s += ref->reorg_overlap_saved_s;
    r.bytes_moved_to_dw += ref->bytes_moved_to_dw;
    r.hv_exe_s += ref->hv_exe_s;
    r.dw_exe_s += ref->dw_exe_s;
    r.transfer_s += ref->transfer_s;
    r.tune_s += ref->tune_s;
    r.fault_injected += ref->fault_injected;
    r.fault_retries += ref->fault_retries;
    r.sessions_shed += ref->sessions_shed;
    r.sessions_failed += ref->sessions_failed;
    r.breaker_transitions += ref->breaker_transitions;
    r.breaker_degraded_sessions += ref->breaker_degraded_sessions;
    tti += ref->Tti() / np;
  }
  out->Info("tti_sim_s", tti, "sim_s");
  if (!opt.trace) return;

  SetupLayers(catalog_ms, workload_ms, warmup_ms, out);
  out->Layer("loadgen.late_p99_ms", Percentile(late_ms, 0.99));
  out->Layer("loadgen.submit_blocked_ms", Median(blocked_ms));
  out->Layer("obs.traced_slowdown", Ratio(throughput, Median(rate_traced)));
  out->Layer("server.submit_us_p50", Percentile(submit_us, 0.50));
  out->Layer("server.submit_us_p99", Percentile(submit_us, 0.99));
  out->Layer("server.ctor_ms", Median(ctor_ms));
  out->Layer("server.finish_ms", Median(finish_ms));
  const double spec = Mean(speculative);
  out->Layer("server.waves", r.waves);
  out->Layer("server.sessions_per_wave", Ratio(r.sessions_admitted, r.waves));
  out->Layer("server.waves_speculative", spec);
  out->Layer("server.waves_replanned", Mean(replanned));
  out->Layer("server.speculation_accept_ratio",
             Ratio(spec - Mean(replanned), spec));
  const double hits = static_cast<double>(r.plan_cache_hits);
  out->Layer("plan_cache.hits", hits);
  out->Layer("plan_cache.misses", static_cast<double>(r.plan_cache_misses));
  out->Layer("plan_cache.evictions", static_cast<double>(r.plan_cache_evictions));
  out->Layer("plan_cache.invalidations",
             static_cast<double>(r.plan_cache_invalidations));
  out->Layer("plan_cache.hit_ratio",
             Ratio(hits, hits + static_cast<double>(r.plan_cache_misses)));
  out->Layer("reorg.epochs_published", r.epochs_published);
  out->Layer("reorg.rolled_back", r.reorgs_rolled_back);
  out->Layer("reorg.overlap_saved_sim_s", r.reorg_overlap_saved_s);
  out->Layer("reorg.moved_to_dw_gib", static_cast<double>(r.bytes_moved_to_dw) /
                                          static_cast<double>(kGiB));
  out->Layer("exec.hv_sim_s", r.hv_exe_s);
  out->Layer("exec.dw_sim_s", r.dw_exe_s);
  out->Layer("exec.transfer_sim_s", r.transfer_s);
  out->Layer("exec.tune_sim_s", r.tune_s);
  out->Layer("fault.injected", r.fault_injected);
  out->Layer("fault.retries", r.fault_retries);
  out->Layer("overload.shed", r.sessions_shed);
  out->Layer("overload.failed", r.sessions_failed);
  out->Layer("overload.breaker_transitions", r.breaker_transitions);
  out->Layer("overload.breaker_degraded", r.breaker_degraded_sessions);
  out->Layer("tti_sim_s", tti);

  namespace n = obs::names;
  out->Layer("server.pipeline_overlap_ms",
             registry.PerUnit(std::string(n::kServerWavePipelineOverlapMs) +
                              ".sum"));
  out->Layer("server.session_latency_ms_mean",
             registry.HistogramMean(n::kServerSessionLatencyMs));
  out->Layer("server.admission_high_water",
             registry.Peak(n::kServerAdmissionQueueHighWater));
  out->Layer("reorg.steps", registry.PerUnit(n::kServerReorgSteps));
  EngineLayers(registry, out);
}

// ---------------------------------------------------------------------------
// paper_variants: the batch experiment harness, no server. Every paper
// variant sweeps a block of seeds through sim::RunSeedSweep (throughput);
// single MS-MISO runs from concurrent clients give the per-run latency.

sim::SimConfig VariantConfig(sim::SystemVariant variant, bool traced,
                             int threads) {
  sim::SimConfig config = BaseServerConfig(traced).sim;
  config.variant = variant;
  config.threads = threads;
  return config;
}

void RunPaperVariants(const Options& opt, const Sizes& sizes, SpanLog* spans,
                      Outcome* out) {
  const std::vector<sim::SystemVariant>& variants = Variants();
  const size_t nv = variants.size();
  std::vector<uint64_t> seeds;
  for (int i = 0; i < sizes.variant_seeds; ++i) {
    seeds.push_back(opt.seed + static_cast<uint64_t>(i));
  }
  const size_t ns = seeds.size();

  // Set-up: catalog and the paper workloads of the seed block.
  std::optional<relation::Catalog> catalog;
  std::vector<Queries> workloads;
  std::vector<double> setup_s, catalog_ms, workload_ms;
  for (int r = 0; r < sizes.setup_repeats; ++r) {
    ScopedSpan span(spans, 0, r, "setup");
    const Clock::time_point s0 = Clock::now();
    catalog.emplace(relation::MakePaperCatalog());
    const Clock::time_point s1 = Clock::now();
    workloads.clear();
    for (uint64_t seed : seeds) {
      Result<Queries> w = PaperWorkload(*catalog, seed);
      out->Check(w.ok(), "workload generation: " + w.status().ToString());
      if (!w.ok()) return;
      workloads.push_back(std::move(w).value());
    }
    const Clock::time_point s2 = Clock::now();
    setup_s.push_back(ToS(s2 - s0));
    catalog_ms.push_back(ToMs(s1 - s0));
    workload_ms.push_back(ToMs(s2 - s1));
    spans->Add(span.id(), -1, "setup.catalog", s0, s1);
    spans->Add(span.id(), -1, "setup.workload", s1, s2);
  }

  // identity[v][s]: report identity of variant v on seed s, from the
  // first pass; every later run of the same pair must reproduce it.
  std::vector<std::vector<uint64_t>> identity(nv);
  std::vector<double> tti(nv, 0);
  sim::RunReport exec_sum;
  auto check_pass = [&](size_t v, const std::vector<sim::RunReport>& reports) {
    if (!identity[v].empty()) {
      for (size_t s = 0; s < ns; ++s) {
        out->Check(ReportIdentity(reports[s]) == identity[v][s],
                   VariantName(variants[v]) + " sweep differs between passes");
      }
      return;
    }
    for (size_t s = 0; s < ns; ++s) {
      const sim::RunReport& r = reports[s];
      identity[v].push_back(ReportIdentity(r));
      tti[v] += r.Tti() / static_cast<double>(ns);
      exec_sum.hv_exe_s += r.hv_exe_s;
      exec_sum.dw_exe_s += r.dw_exe_s;
      exec_sum.transfer_s += r.transfer_s;
      exec_sum.tune_s += r.tune_s;
    }
    // The sweep's first seed must equal a serial single-threaded run.
    const Result<sim::RunReport> serial = sim::RunPaperWorkload(
        &*catalog, VariantConfig(variants[v], false, 1), seeds[0]);
    out->Attempt(1, serial.ok() ? 0 : 1);
    out->Check(serial.ok() && sim::ReportToJson(*serial) ==
                                  sim::ReportToJson(reports[0]),
               VariantName(variants[v]) + " sweep != serial run");
    out->Check(RoundTrips(reports[0]), "ReportFromJson(ReportToJson(r)) != r");
  };

  // Sweep passes: one pass sweeps every variant over the seed block with
  // kThreads workers. In the traced run every other pass has the registry
  // on.
  std::vector<double> rate_untraced, rate_traced;
  std::vector<std::vector<double>> sweep_ms(nv);
  RegistryTotals registry;
  // Returns each variant's sweep wall time, in ms.
  auto sweep_pass = [&](int unit, bool traced, const char* name) {
    ScopedSpan pass(spans, 0, unit, name);
    std::vector<double> ms(nv, 0);
    for (size_t v = 0; v < nv; ++v) {
      const Clock::time_point t0 = Clock::now();
      const Result<std::vector<sim::RunReport>> reports = sim::RunSeedSweep(
          &*catalog, VariantConfig(variants[v], traced, kThreads), seeds);
      const Clock::time_point t1 = Clock::now();
      ms[v] = ToMs(t1 - t0);
      spans->Add(pass.id(), -1, "sim.sweep." + VariantName(variants[v]), t0, t1);
      out->Attempt(static_cast<int64_t>(ns),
                   reports.ok() ? 0 : static_cast<int64_t>(ns));
      out->Check(reports.ok(), "sweep failed: " + reports.status().ToString());
      if (reports.ok()) check_pass(v, *reports);
    }
    return ms;
  };
  Phase sweeps;
  sweeps.share = 0.6;
  sweeps.min_units = sizes.min_units * (opt.trace ? 2 : 1);
  sweeps.run = [&](int unit) {
    const bool traced = opt.trace && unit % 2 == 1;
    if (traced) obs::Metrics().Reset();
    const std::vector<double> ms = sweep_pass(unit, traced, "pass.sweep");
    double wall_ms = 0;
    for (size_t v = 0; v < nv; ++v) {
      wall_ms += ms[v];
      if (!traced) sweep_ms[v].push_back(ms[v]);
    }
    if (traced) registry.AddSnapshot();
    (traced ? rate_traced : rate_untraced)
        .push_back(Ratio(static_cast<double>(nv * ns), wall_ms / 1000.0));
  };

  // Single runs: kThreads clients, each running the paper's own system
  // (MS-MISO) on the next workload of the seed block as soon as its
  // previous run returns: a closed loop of analysts each waiting for one
  // experiment. Each run gets one worker, as inside a sweep, since the
  // clients already occupy every core. Latency is a run's wall time; one
  // unit is kClientUnitS of this loop.
  const size_t miso = static_cast<size_t>(
      std::find(variants.begin(), variants.end(), sim::SystemVariant::kMsMiso) -
      variants.begin());
  struct SingleRun {
    size_t seed_index = 0;
    bool ok = false;
    bool matches_sweep = false;
    Clock::time_point start;
    Clock::time_point end;
  };
  std::vector<double> latency_ms;
  std::atomic<size_t> next_seed{0};
  Phase single_runs;
  single_runs.share = 0.4;
  single_runs.min_units = sizes.min_units;
  single_runs.run = [&](int unit) {
    ScopedSpan pass(spans, 0, unit, "pass.single_runs");
    // Engaged here, once, so concurrent Run calls never toggle the
    // process-wide gate themselves.
    std::optional<obs::ScopedMetrics> metrics_on;
    if (opt.trace) metrics_on.emplace(true);
    const sim::SimConfig config =
        VariantConfig(sim::SystemVariant::kMsMiso, opt.trace, 1);
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kClientUnitS));
    std::vector<std::vector<SingleRun>> runs(kThreads);
    std::atomic<bool> threw{false};
    std::vector<std::thread> clients;
    for (int c = 0; c < kThreads; ++c) {
      clients.emplace_back([&, c] {
        std::vector<SingleRun>& mine = runs[static_cast<size_t>(c)];
        try {
          while (mine.empty() || Clock::now() < deadline) {
            SingleRun run;
            run.seed_index = next_seed.fetch_add(1) % ns;
            run.start = Clock::now();
            sim::MultistoreSimulator simulator(&*catalog, config);
            const Result<sim::RunReport> r =
                simulator.Run(workloads[run.seed_index]);
            run.end = Clock::now();
            run.ok = r.ok();
            run.matches_sweep =
                r.ok() && (identity[miso].empty() ||
                           ReportIdentity(*r) == identity[miso][run.seed_index]);
            mine.push_back(run);
          }
        } catch (...) {
          threw = true;
        }
      });
    }
    for (std::thread& t : clients) t.join();
    out->Check(!threw, "a latency client threw");
    for (const std::vector<SingleRun>& mine : runs) {
      for (const SingleRun& run : mine) {
        latency_ms.push_back(ToMs(run.end - run.start));
        spans->Add(pass.id(), static_cast<int64_t>(run.seed_index),
                   "sim.run.MS-MISO", run.start, run.end);
        out->Attempt(1, run.ok ? 0 : 1);
        out->Check(run.ok, "MS-MISO run failed");
        out->Check(run.matches_sweep, "MS-MISO single run != sweep");
      }
    }
  };

  WarmUp(kWarmUpShare * opt.seconds,
         [&](int unit) { sweep_pass(unit, false, "pass.warmup"); });
  std::vector<Phase> phases = {sweeps, single_runs};
  RunInterleaved(opt.seconds, &phases);

  const double throughput = Median(rate_untraced);
  double tti_all = 0;
  for (double t : tti) tti_all += t / static_cast<double>(nv);
  out->EndToEnd("setup_s", Median(setup_s), "s");
  out->EndToEnd("throughput_per_s", throughput, "1/s");
  out->EndToEnd("latency_p50_ms", Percentile(latency_ms, 0.50), "ms");
  out->EndToEnd("latency_p99_ms", Percentile(latency_ms, 0.99), "ms");
  out->EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
  out->Info("latency_samples", static_cast<double>(latency_ms.size()), "count");
  out->Info("sweep_passes", static_cast<double>(rate_untraced.size()), "count");
  out->Info("runs_per_pass", static_cast<double>(nv * ns), "count");
  out->Info("tti_sim_s", tti_all, "sim_s");
  if (!opt.trace) return;

  SetupLayers(catalog_ms, workload_ms, {}, out);
  out->Layer("obs.traced_slowdown", Ratio(throughput, Median(rate_traced)));
  for (size_t v = 0; v < nv; ++v) {
    out->Layer("sim.sweep_ms." + VariantName(variants[v]), Median(sweep_ms[v]));
    out->Layer("sim.tti_sim_s." + VariantName(variants[v]), tti[v]);
  }
  const double runs = static_cast<double>(nv * ns);
  out->Layer("exec.hv_sim_s", exec_sum.hv_exe_s / runs);
  out->Layer("exec.dw_sim_s", exec_sum.dw_exe_s / runs);
  out->Layer("exec.transfer_sim_s", exec_sum.transfer_s / runs);
  out->Layer("exec.tune_sim_s", exec_sum.tune_s / runs);
  out->Layer("tti_sim_s", tti_all);
  EngineLayers(registry, out);
}

// ---------------------------------------------------------------------------
// Output.

void PrintLine(const std::string& workload, const Metric& m) {
  std::printf("%s %s %s %s\n", workload.c_str(), m.name.c_str(),
              Num(m.value).c_str(), m.unit.c_str());
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string json = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return json + "}";
}

/// Writes the traced run's span JSONL and per-layer metrics JSON.
bool WriteTraceFiles(const Options& opt, const SpanLog& spans,
                     const Outcome& out) {
  std::error_code ec;
  std::filesystem::create_directories(kTraceDir, ec);
  if (ec) return false;
  const std::string base = std::string(kTraceDir) + "/" + opt.workload;
  std::ofstream layers(base + ".layers.json", std::ios::trunc);
  layers << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
         << ", \"spans\": " << spans.size()
         << ", \"spans_dropped\": " << spans.dropped()
         << ", \"metrics\": " << MetricsJson(out.layers()) << "}\n";
  return static_cast<bool>(layers) && spans.Write(base + ".spans.jsonl");
}

int Main(int argc, char** argv) {
  const Options opt = ParseOptions(argc, argv);
  if (std::string(MISO_BENCH_BUILD_TYPE) != "Release" && !opt.quick) {
    std::fprintf(stderr,
                 "miso_bench: refusing to measure a '%s' build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release (or pass --quick for a "
                 "smoke run)\n",
                 MISO_BENCH_BUILD_TYPE);
    return 2;
  }
  const bool serve = opt.workload == "serve_warm" ||
                     opt.workload == "serve_evolving" ||
                     opt.workload == "serve_chaos";
  if (!serve && opt.workload != "paper_variants") {
    Usage("unknown workload " + opt.workload);
  }
  // The measured configuration is fixed here, not inherited: four worker
  // threads, verification and telemetry at their shipping defaults.
  setenv("MISO_THREADS", std::to_string(kThreads).c_str(), /*overwrite=*/1);
  for (const char* name :
       {"MISO_METRICS", "MISO_TRACE", "MISO_VERIFY", "MISO_PARALLEL_GRAIN",
        "MISO_FAULT_PROFILE", "MISO_FAULT_RATE", "MISO_FAULT_SEED"}) {
    unsetenv(name);
  }
  Logger::SetThreshold(LogLevel::kWarning);

  const Sizes sizes = SizesFor(opt.quick);
  SpanLog spans(opt.trace);
  Outcome out;
  if (serve) {
    RunServeWorkload(opt, sizes, &spans, &out);
  } else {
    RunPaperVariants(opt, sizes, &spans, &out);
  }
  const double failed_frac = Ratio(static_cast<double>(out.failed()),
                                   static_cast<double>(out.attempted()));
  out.Info("failed_frac", failed_frac, "ratio");
  out.Layer("failed_frac", failed_frac);

  for (const std::string& e : out.errors()) {
    std::fprintf(stderr, "miso_bench: CHECK FAILED: %s\n", e.c_str());
  }
  const std::vector<Metric>& reported =
      opt.trace ? out.layers() : out.end_to_end();
  for (const Metric& m : reported) PrintLine(opt.workload, m);
  for (const Metric& m : out.info()) {
    const bool already_printed =
        std::any_of(reported.begin(), reported.end(),
                    [&m](const Metric& r) { return r.name == m.name; });
    if (!already_printed) PrintLine(opt.workload, m);
  }
  if (opt.trace && !WriteTraceFiles(opt, spans, out)) {
    std::fprintf(stderr, "miso_bench: cannot write trace files under %s\n",
                 kTraceDir);
    return 1;
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              out.correct() ? "true" : "false",
              static_cast<long long>(out.attempted()),
              static_cast<long long>(out.failed()),
              MetricsJson(reported).c_str());
  std::fflush(stdout);
  return out.correct() ? 0 : 1;
}

}  // namespace
}  // namespace miso::perfbench

int main(int argc, char** argv) { return miso::perfbench::Main(argc, argv); }

