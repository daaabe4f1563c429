// Micro-benchmarks for the online multistore server: session throughput
// and tail latency of the admission → wave → reduce pipeline, with the
// background (online) reorganization cadence against the stop-the-world
// baseline. Wall-clock here is host time of the serving machinery (the
// engine's cost models still tick simulated seconds); compare ratios
// across snapshots, not absolute numbers.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <future>
#include <string>
#include <vector>

#include "bench_util.h"
#include "fault/fault.h"
#include "server/miso_server.h"

namespace miso {
namespace {

using bench_util::Catalog;
using bench_util::DefaultConfig;
using bench_util::Workload;

constexpr int kSessions = 256;
// The warm replay cycles the paper workload several times over so the
// steady state (every template already cached) dominates the cold first
// pass in the measurement.
constexpr int kWarmSessions = 1024;

std::vector<workload::WorkloadQuery> CycledSessions(int n) {
  static const auto* pool = [] {
    auto* q = new std::vector<workload::WorkloadQuery>();
    const std::vector<workload::WorkloadQuery>& base = Workload().queries();
    q->reserve(kWarmSessions);
    for (int i = 0; i < kWarmSessions; ++i) {
      q->push_back(base[static_cast<size_t>(i) % base.size()]);
    }
    return q;
  }();
  return {pool->begin(), pool->begin() + n};
}

/// One full serve of `kSessions` cycled paper-workload sessions.
/// Args: {wave_size, online_reorg, MISO_THREADS}. Session latency is
/// reported at p95: one serve yields only `kSessions` samples, too few
/// for a stable p99 (its top 1% is two or three sessions).
void BM_ServerServe(benchmark::State& state) {
  const int wave_size = static_cast<int>(state.range(0));
  const bool online = state.range(1) != 0;
  const int threads = static_cast<int>(state.range(2));
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%d", threads);
  setenv("MISO_THREADS", buf, /*overwrite=*/1);

  const std::vector<workload::WorkloadQuery> queries = CycledSessions(kSessions);
  double p95_ms = 0;
  double latency_samples = 0;
  double overlap_saved_s = 0;
  for (auto _ : state) {
    server::ServerConfig config;
    config.sim = DefaultConfig(sim::SystemVariant::kMsMiso);
    config.sim.reorg_every = 16;
    config.wave_size = wave_size;
    config.online_reorg = online;
    config.admission_capacity = 64;
    config.expected_sessions = kSessions;

    server::MisoServer server(&Catalog(), config);
    std::vector<std::chrono::steady_clock::time_point> submitted;
    submitted.reserve(queries.size());
    std::vector<std::future<server::SessionResult>> futures;
    futures.reserve(queries.size());
    for (const workload::WorkloadQuery& q : queries) {
      submitted.push_back(std::chrono::steady_clock::now());
      futures.push_back(server.Submit(q));
    }
    server.Close();
    // Sessions resolve in admission order, so the wall-clock at each
    // get()'s return approximates that session's resolution time.
    std::vector<double> latencies_ms;
    latencies_ms.reserve(futures.size());
    for (size_t i = 0; i < futures.size(); ++i) {
      const server::SessionResult result = futures[i].get();
      if (!result.status.ok()) {
        state.SkipWithError(result.status.ToString().c_str());
        return;
      }
      latencies_ms.push_back(
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - submitted[i])
              .count());
    }
    auto report = server.Finish();
    if (!report.ok()) {
      state.SkipWithError(report.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(report->Tti());
    overlap_saved_s = report->reorg_overlap_saved_s;
    std::sort(latencies_ms.begin(), latencies_ms.end());
    p95_ms = latencies_ms[latencies_ms.size() * 95 / 100];
    latency_samples = static_cast<double>(latencies_ms.size());
  }
  unsetenv("MISO_THREADS");

  state.SetItemsProcessed(state.iterations() * kSessions);
  state.counters["sessions_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kSessions,
      benchmark::Counter::kIsRate);
  state.counters["p95_session_ms"] = p95_ms;
  state.counters["latency_samples"] = latency_samples;
  state.counters["overlap_saved_sim_s"] = overlap_saved_s;
  state.SetLabel(std::string(online ? "online" : "stop-the-world") +
                 " wave=" + std::to_string(wave_size) +
                 " threads=" + std::to_string(threads));
}
BENCHMARK(BM_ServerServe)
    ->Args({1, 0, 1})   // simulator-equivalent baseline
    ->Args({8, 0, 1})   // batching alone
    ->Args({8, 1, 1})   // + background reorganization, serial workers
    ->Args({8, 1, 4})   // + worker pool
    ->UseRealTime()     // the pipeline runs on scheduler/worker threads
    ->Unit(benchmark::kMillisecond);

/// Warm paper-workload replay: the serving-path throughput headline.
/// No reorganizations (`reorg_every = 0`) so the design is stable and
/// the cycled workload repeats its query templates — the regime the
/// design-epoch plan cache and wave pipelining are built for
/// (PERFORMANCE.md "Serving path"). Args: {plan_cache, pipeline_waves,
/// MISO_THREADS}.
void BM_ServerWarmReplay(benchmark::State& state) {
  const bool cache = state.range(0) != 0;
  const bool pipeline = state.range(1) != 0;
  const int threads = static_cast<int>(state.range(2));
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%d", threads);
  setenv("MISO_THREADS", buf, /*overwrite=*/1);

  const std::vector<workload::WorkloadQuery> queries =
      CycledSessions(kWarmSessions);
  int64_t cache_hits = 0;
  int waves_speculative = 0;
  for (auto _ : state) {
    server::ServerConfig config;
    config.sim = DefaultConfig(sim::SystemVariant::kMsMiso);
    config.sim.reorg_every = 0;
    config.wave_size = 8;
    config.online_reorg = false;
    config.admission_capacity = 64;
    config.expected_sessions = kWarmSessions;
    config.plan_cache = cache;
    config.pipeline_waves = pipeline;

    server::MisoServer server(&Catalog(), config);
    std::vector<std::future<server::SessionResult>> futures;
    futures.reserve(queries.size());
    for (const workload::WorkloadQuery& q : queries) {
      futures.push_back(server.Submit(q));
    }
    server.Close();
    for (std::future<server::SessionResult>& f : futures) {
      const server::SessionResult result = f.get();
      if (!result.status.ok()) {
        state.SkipWithError(result.status.ToString().c_str());
        return;
      }
    }
    auto report = server.Finish();
    if (!report.ok()) {
      state.SkipWithError(report.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(report->Tti());
    cache_hits = report->plan_cache_hits;
    waves_speculative = report->waves_speculative;
  }
  unsetenv("MISO_THREADS");

  state.SetItemsProcessed(state.iterations() * kWarmSessions);
  state.counters["sessions_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kWarmSessions,
      benchmark::Counter::kIsRate);
  state.counters["plan_cache_hits"] = static_cast<double>(cache_hits);
  state.counters["waves_speculative"] = waves_speculative;
  state.SetLabel(std::string("cache=") + (cache ? "on" : "off") +
                 " pipeline=" + (pipeline ? "on" : "off") +
                 " threads=" + std::to_string(threads));
}
BENCHMARK(BM_ServerWarmReplay)
    ->Args({0, 0, 1})   // PR 8 serving path: no cache, serial waves
    ->Args({1, 0, 1})   // cache alone
    ->Args({0, 1, 4})   // pipelining alone
    ->Args({1, 1, 1})   // both, single worker
    ->Args({1, 1, 4})   // both, worker pool: the headline row
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Overload-protected serve under the chaos fault profile: admission
/// deadlines shed the batch tier while the DW-health circuit breaker
/// (when on) rides out the injected fault bursts by serving HV-only
/// (DESIGN.md §16). Shed and retry-exhausted sessions are *expected*
/// terminal outcomes here, not measurement errors — only an aborted
/// session (run-level fatal) skips the iteration. Args: {breaker,
/// MISO_THREADS}.
void BM_ServerOverloadShed(benchmark::State& state) {
  const bool breaker = state.range(0) != 0;
  const int threads = static_cast<int>(state.range(1));
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%d", threads);
  setenv("MISO_THREADS", buf, /*overwrite=*/1);

  const std::vector<workload::WorkloadQuery> queries = CycledSessions(kSessions);
  int sessions_shed = 0;
  int sessions_failed = 0;
  int breaker_degraded = 0;
  int breaker_transitions = 0;
  double breaker_open_s = 0;
  for (auto _ : state) {
    server::ServerConfig config;
    config.sim = DefaultConfig(sim::SystemVariant::kMsMiso);
    config.sim.reorg_every = 16;
    config.wave_size = 8;
    config.online_reorg = true;
    config.admission_capacity = 64;
    config.expected_sessions = kSessions;
    // The harsh end of the chaos profile: enough faults that the retry
    // budget (2 attempts) actually runs dry and the breaker has real
    // bursts to trip on.
    config.sim.fault.profile = fault::FaultProfile::kChaos;
    config.sim.fault.seed = 5;
    config.sim.fault.rate = 0.3;
    config.sim.fault.retry.max_attempts = 2;
    // Gold tier never sheds; the batch tier gets a deadline shorter than
    // the tail of the run, so the back half of its sessions shed.
    config.overload.admission_deadlines = true;
    config.overload.classes = {{"gold", 0}, {"batch", 30000}};
    config.overload.classifier = [](const workload::WorkloadQuery&,
                                    int session_id) { return session_id % 2; };
    config.overload.breaker = breaker;
    config.overload.breaker_failure_threshold = 2;
    // Must dwarf a session's simulated runtime (thousands of seconds) or
    // the breaker re-probes before a wave ever plans against open.
    config.overload.breaker_cooldown_s = 100000;
    config.overload.breaker_half_open_successes = 2;

    server::MisoServer server(&Catalog(), config);
    std::vector<std::future<server::SessionResult>> futures;
    futures.reserve(queries.size());
    for (const workload::WorkloadQuery& q : queries) {
      futures.push_back(server.Submit(q));
    }
    server.Close();
    for (std::future<server::SessionResult>& f : futures) {
      const server::SessionResult result = f.get();
      if (result.outcome == server::SessionOutcome::kAborted) {
        state.SkipWithError(result.status.ToString().c_str());
        return;
      }
    }
    auto report = server.Finish();
    if (!report.ok()) {
      state.SkipWithError(report.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(report->Tti());
    sessions_shed = report->sessions_shed;
    sessions_failed = report->sessions_failed;
    breaker_degraded = report->breaker_degraded_sessions;
    breaker_transitions = report->breaker_transitions;
    breaker_open_s = report->breaker_open_s;
  }
  unsetenv("MISO_THREADS");

  state.SetItemsProcessed(state.iterations() * kSessions);
  state.counters["sessions_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kSessions,
      benchmark::Counter::kIsRate);
  state.counters["sessions_shed"] = sessions_shed;
  state.counters["sessions_failed"] = sessions_failed;
  state.counters["breaker_degraded"] = breaker_degraded;
  state.counters["breaker_transitions"] = breaker_transitions;
  state.counters["breaker_open_sim_s"] = breaker_open_s;
  state.SetLabel(std::string("chaos breaker=") + (breaker ? "on" : "off") +
                 " threads=" + std::to_string(threads));
}
BENCHMARK(BM_ServerOverloadShed)
    ->Args({0, 1})   // shedding alone, breaker closed for good
    ->Args({1, 1})   // + DW-health breaker, serial workers
    ->Args({1, 4})   // + worker pool (byte-identical counters, faster wall)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace miso

BENCHMARK_MAIN();
