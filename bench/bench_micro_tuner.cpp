// Micro-benchmarks backing the paper's "lightweight" claim for the MISO
// tuner: the knapsack DP, benefit analysis, interaction detection, and a
// full tuning pass all run in milliseconds, far below the reorganization
// movement costs they schedule.

#include <benchmark/benchmark.h>

#include <optional>

#include "bench_util.h"
#include "hv/hv_store.h"
#include "tuner/benefit.h"
#include "tuner/interaction.h"
#include "tuner/knapsack.h"
#include "tuner/miso_tuner.h"

namespace miso {
namespace {

using bench_util::Catalog;
using bench_util::Workload;

/// Args: {items, storage budget Bs, transfer budget Bt}. The {36, 400, 10}
/// row is the DW phase of a `Tune` (Bd x Bt at 1 GiB units); {20, 4096, 0}
/// is the HV phase after the DW phase spent all of Bt.
void BM_KnapsackDp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int64_t storage = state.range(1);
  const int64_t transfer = state.range(2);
  Rng rng(42);
  std::vector<tuner::MKnapsackItem> items;
  for (int k = 0; k < n; ++k) {
    tuner::MKnapsackItem item;
    item.id = k;
    item.storage_units = rng.Uniform(0, 16);
    item.transfer_units = rng.Uniform(0, 10);
    item.benefit = rng.UniformReal(0, 1000);
    items.push_back(item);
  }
  for (auto _ : state) {
    auto solution = tuner::SolveMKnapsack(items, storage, transfer);
    benchmark::DoNotOptimize(solution);
  }
  state.SetLabel(std::to_string(n) + " items, B=" + std::to_string(storage) +
                 ", T=" + std::to_string(transfer));
}
BENCHMARK(BM_KnapsackDp)
    ->Args({16, 400, 10})
    ->Args({64, 400, 10})
    ->Args({64, 4096, 10})
    ->Args({256, 4096, 10})
    ->Args({36, 400, 10})
    ->Args({20, 4096, 0});

/// Shared fixture state: views harvested from the first eight workload
/// queries plus the optimizer stack.
struct TunerFixture {
  TunerFixture()
      : factory(&Catalog()),
        hv_model(hv::HvConfig{}),
        dw_model(dw::DwConfig{}),
        transfer_model(transfer::TransferConfig{}),
        optimizer(&factory, &hv_model, &dw_model, &transfer_model),
        hv_catalog(100 * kTiB),
        dw_catalog(400 * kGiB) {
    hv::HvStore store(hv::HvConfig{}, 100 * kTiB);
    uint64_t next_id = 1;
    for (int i = 0; i < 8; ++i) {
      const plan::Plan& q = Workload().queries()[static_cast<size_t>(i)].plan;
      window.push_back(q);
      auto exec = store.Execute(q.root(), i, 0, &next_id, q.signature());
      for (views::View& v : exec->produced_views) {
        hv_catalog.AddUnchecked(std::move(v));
      }
    }
  }

  plan::NodeFactory factory;
  hv::HvCostModel hv_model;
  dw::DwCostModel dw_model;
  transfer::TransferModel transfer_model;
  optimizer::MultistoreOptimizer optimizer;
  views::ViewCatalog hv_catalog;
  views::ViewCatalog dw_catalog;
  std::vector<plan::Plan> window;
};

TunerFixture& Fixture() {
  static auto* fixture = new TunerFixture();
  return *fixture;
}

void BM_BenefitAnalysis(benchmark::State& state) {
  TunerFixture& f = Fixture();
  const std::vector<views::View> views = f.hv_catalog.AllViews();
  for (auto _ : state) {
    tuner::BenefitAnalyzer analyzer(&f.optimizer, 3, 0.6);
    (void)analyzer.SetWindow(f.window);
    double total = 0;
    for (const views::View& v : views) {
      auto b = analyzer.PredictedBenefit({v}, tuner::Placement::kBothStores);
      total += b.ok() ? *b : 0;
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetLabel(std::to_string(views.size()) + " views x " +
                 std::to_string(f.window.size()) + " queries");
}
BENCHMARK(BM_BenefitAnalysis);

void BM_InteractionDetection(benchmark::State& state) {
  TunerFixture& f = Fixture();
  const std::vector<views::View> views = f.hv_catalog.AllViews();
  for (auto _ : state) {
    tuner::BenefitAnalyzer analyzer(&f.optimizer, 3, 0.6);
    (void)analyzer.SetWindow(f.window);
    auto interactions =
        tuner::ComputeInteractions(views, &analyzer, {});
    benchmark::DoNotOptimize(interactions);
  }
}
BENCHMARK(BM_InteractionDetection);

tuner::MisoTunerConfig PaperBudgets() {
  tuner::MisoTunerConfig config;
  config.hv_storage_budget = 4 * kTiB;
  config.dw_storage_budget = 400 * kGiB;
  config.transfer_budget = 10 * kGiB;
  return config;
}

/// "hit_rate=" label: the share of `tuner`'s probe-level lookups its
/// what-if memo answered.
void LabelHitRate(benchmark::State& state, const tuner::MisoTuner& tuner) {
  const optimizer::WhatIfCache::Stats stats = tuner.whatif_stats();
  const double total = static_cast<double>(stats.hits + stats.misses);
  state.SetLabel("hit_rate=" +
                 std::to_string(total > 0 ? stats.hits / total : 0.0));
}

// One cold tuning pass: a fresh tuner per iteration, so both levels of its
// what-if memo start empty and every probe is paid at the optimizer.
void BM_FullTuningPass(benchmark::State& state) {
  TunerFixture& f = Fixture();
  for (auto _ : state) {
    tuner::MisoTuner tuner(&f.optimizer, PaperBudgets());
    auto plan = tuner.Tune(f.hv_catalog, f.dw_catalog, f.window);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_FullTuningPass);

// The cold pass above vs the same pass through one persistent tuner whose
// memo an untimed pass warmed: the gap is the optimizer work the memo
// retires when successive reorganizations see the same (window,
// candidates, placement) probes.
void BM_FullTuningPassWarmCache(benchmark::State& state) {
  TunerFixture& f = Fixture();
  tuner::MisoTuner tuner(&f.optimizer, PaperBudgets());
  benchmark::DoNotOptimize(tuner.Tune(f.hv_catalog, f.dw_catalog, f.window));
  for (auto _ : state) {
    auto plan = tuner.Tune(f.hv_catalog, f.dw_catalog, f.window);
    benchmark::DoNotOptimize(plan);
  }
  LabelHitRate(state, tuner);
}
BENCHMARK(BM_FullTuningPassWarmCache);

/// A reorg cadence: three Tune calls over sliding 6-query windows (stride
/// 1 over the 8 harvested queries), as the simulator issues them every j
/// queries, all through one tuner (hence one memo). `warm` selects whether
/// that tuner persists across iterations (the simulator's arrangement:
/// one tuner per run) or is built fresh per iteration, so every iteration
/// starts with both memo levels empty.
void RunReorgCadence(benchmark::State& state, bool warm) {
  TunerFixture& f = Fixture();
  std::optional<tuner::MisoTuner> tuner;
  if (warm) tuner.emplace(&f.optimizer, PaperBudgets());
  constexpr int kWindow = 6;
  for (auto _ : state) {
    if (!warm) tuner.emplace(&f.optimizer, PaperBudgets());
    for (size_t start = 0; start + kWindow <= f.window.size(); ++start) {
      const std::vector<plan::Plan> window(
          f.window.begin() + static_cast<std::ptrdiff_t>(start),
          f.window.begin() + static_cast<std::ptrdiff_t>(start + kWindow));
      auto plan = tuner->Tune(f.hv_catalog, f.dw_catalog, window);
      benchmark::DoNotOptimize(plan);
    }
  }
  if (warm) LabelHitRate(state, *tuner);
}

void BM_ReorgCadenceColdCache(benchmark::State& state) {
  RunReorgCadence(state, /*warm=*/false);
}
BENCHMARK(BM_ReorgCadenceColdCache);

void BM_ReorgCadenceWarmCache(benchmark::State& state) {
  RunReorgCadence(state, /*warm=*/true);
}
BENCHMARK(BM_ReorgCadenceWarmCache);

}  // namespace
}  // namespace miso

BENCHMARK_MAIN();
