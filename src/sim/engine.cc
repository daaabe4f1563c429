#include "sim/engine.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "common/hash.h"
#include "hv/mr_job.h"
#include "obs/names.h"
#include "sim/etl.h"
#include "verify/verify_gate.h"

namespace miso::sim {

using optimizer::MultistorePlan;
using plan::NodePtr;
using plan::OpKind;
using views::View;
using views::ViewCatalog;
using views::ViewId;

namespace {

// Scratch view-id space for PlanAndExecute: far above anything the
// serial id counter reaches, strided per query so concurrent harvests
// never collide. The reduce assigns real ids in query order, so scratch
// ids never escape into the model-class outputs.
constexpr uint64_t kScratchIdBase = 1ULL << 40;
constexpr uint64_t kScratchIdStride = 4096;

/// Evicts least-recently-used views from `catalog` until it fits its
/// budget (HV-OP's retention policy, §5.1). Returns whether any left.
bool EvictLruToBudget(ViewCatalog* catalog) {
  bool evicted = false;
  while (catalog->OverBudget()) {
    std::vector<View> all = catalog->AllViews();
    if (all.empty()) break;
    const View* victim = nullptr;
    int victim_used = 0;
    for (const View& v : all) {
      const int used = catalog->LastUsed(v.id);
      if (victim == nullptr || used < victim_used ||
          (used == victim_used && v.id < victim->id)) {
        victim = &v;
        victim_used = used;
      }
    }
    catalog->Remove(victim->id);
    evicted = true;
  }
  return evicted;
}

/// Views read by an executed plan, per store.
void CollectViewUses(const plan::Plan& executed, std::vector<ViewId>* hv_used,
                     std::vector<ViewId>* dw_used) {
  for (const NodePtr& node : executed.PostOrder()) {
    if (node->kind() != OpKind::kViewScan) continue;
    if (node->view_scan().store == StoreKind::kDw) {
      dw_used->push_back(node->view_scan().view_id);
    } else {
      hv_used->push_back(node->view_scan().view_id);
    }
  }
}

/// All opportunistic views the original `plan` would materialize in a pure
/// HV execution (used by MS-OFF to know the candidate universe up-front).
/// The plan's final result is not a candidate (it goes to the client).
Result<std::vector<View>> CandidateViewsOf(const plan::Plan& plan,
                                           uint64_t* next_id) {
  MISO_ASSIGN_OR_RETURN(std::vector<hv::MapReduceJob> jobs,
                        hv::SegmentIntoJobs(plan.root()));
  std::vector<View> result;
  std::unordered_set<uint64_t> seen;
  for (const hv::MapReduceJob& job : jobs) {
    for (const NodePtr& node : job.materialization_points) {
      if (node->signature() == plan.signature()) continue;
      if (!seen.insert(node->signature()).second) continue;
      View v = views::ViewFromNode(*node);
      v.id = (*next_id)++;
      result.push_back(std::move(v));
    }
  }
  return result;
}

tuner::MisoTunerConfig MakeTunerConfig(const SimConfig& cfg) {
  tuner::MisoTunerConfig tuner_config;
  tuner_config.hv_storage_budget = cfg.hv_storage_budget;
  tuner_config.dw_storage_budget = cfg.dw_storage_budget;
  tuner_config.transfer_budget = cfg.transfer_budget;
  tuner_config.epoch_length = cfg.epoch_length;
  tuner_config.benefit_decay = cfg.benefit_decay;
  tuner_config.store_specific_benefit = cfg.store_specific_benefit;
  tuner_config.handle_interactions = cfg.handle_interactions;
  tuner_config.retain_unselected_views = cfg.retain_unselected_views;
  return tuner_config;
}

void CountInjected(fault::FaultSite site, int64_t n) {
  if (n <= 0 || !obs::MetricsOn()) return;
  obs::Metrics()
      .GetCounter(obs::WithLabel(obs::names::kFaultInjected, "site",
                                 fault::FaultSiteName(site)))
      ->Add(n);
}

void Replay(std::vector<std::string>* lines,
            const std::vector<obs::ScopedHistogramCapture::Observation>& obs,
            const std::vector<obs::ScopedCounterCapture::Delta>& deltas) {
  obs::ScopedCounterCapture::Replay(deltas);
  obs::ScopedHistogramCapture::Replay(obs);
  for (std::string& line : *lines) obs::EmitLine(std::move(line));
}

}  // namespace

void PublishPoolStats(const ThreadPool* pool) {
  if (pool == nullptr || !obs::MetricsOn()) return;
  const ThreadPool::Stats stats = pool->GetStats();
  obs::MetricsRegistry& registry = obs::Metrics();
  registry.GetCounter(obs::names::kPoolTasksRun)->Add(stats.tasks_run);
  registry.GetCounter(obs::names::kPoolSubmits)->Add(stats.submits);
  registry.GetGauge(obs::names::kPoolQueueHighWater)
      ->Max(static_cast<double>(stats.queue_high_water));
}

void QueryWork::Reset() {
  dw_down = false;
  breaker_open = false;
  status = Status();
  plan_ready = false;
  ms = MultistorePlan();
  opt_trace_lines.clear();
  opt_histogram_obs.clear();
  opt_counter_deltas.clear();
  produced.clear();
  hv_fault = fault::FaultAccounting();
  ws = transfer::FaultedTransfer();
  hv_used.clear();
  dw_used.clear();
  trace_lines.clear();
  histogram_obs.clear();
  counter_deltas.clear();
}

Engine::Engine(const relation::Catalog* catalog, const SimConfig& config,
               int expected_queries, ThreadPool* pool)
    : catalog_(catalog),
      config_(config),
      factory_(catalog),
      hv_store_(config.hv, config.hv_storage_budget),
      dw_store_(config.dw, config.dw_storage_budget),
      mover_(config.transfer),
      opt_(&factory_, &hv_store_.cost_model(), &dw_store_.cost_model(),
           &mover_),
      ledger_(config.background, config.contention),
      fault_plan_(fault::FaultPlan::Resolve(config.fault, expected_queries)),
      pool_(pool),
      tuner_config_(MakeTunerConfig(config)),
      miso_tuner_(&opt_, tuner_config_),
      lru_tuner_(tuner_config_) {
  if (config_.metrics && !obs::MetricsOn()) scoped_metrics_.emplace(true);
  if (config_.trace && !obs::TraceOn()) scoped_trace_.emplace(true);

  // A null injector when disabled: every instrumented path reduces to
  // the exact unfaulted branch.
  if (fault_plan_.Enabled()) {
    injector_storage_.emplace(fault_plan_);
    injector_ = &*injector_storage_;
  }
  if (pool_ == nullptr) {
    const int threads = config_.threads > 0 ? config_.threads
                                            : ThreadPool::DefaultThreadCount();
    if (threads > 1) {
      owned_pool_ = std::make_unique<ThreadPool>(threads);
      pool_ = owned_pool_.get();
    }
  }
  opt_.set_thread_pool(pool_);
  report_.variant = config_.variant;
  report_.variant_name = std::string(SystemVariantToString(config_.variant));
}

bool Engine::NeedsWholeWorkload(SystemVariant variant) {
  return variant == SystemVariant::kDwOnly ||
         variant == SystemVariant::kMsOff || variant == SystemVariant::kMsOra;
}

Status Engine::Prepare(const std::vector<workload::WorkloadQuery>& queries) {
  workload_ = &queries;
  if (config_.variant == SystemVariant::kDwOnly) {
    std::vector<plan::Plan> plans;
    plans.reserve(queries.size());
    for (const workload::WorkloadQuery& q : queries) plans.push_back(q.plan);
    MISO_ASSIGN_OR_RETURN(EtlResult etl, ComputeEtl(*catalog_, plans,
                                                    config_.hv,
                                                    config_.transfer,
                                                    config_.etl));
    report_.etl_s = etl.Total();
    now_ = etl.Total();
  }
  if (config_.variant == SystemVariant::kMsOff) {
    // One-shot target design over everything the workload can make.
    uint64_t dry_id = 1'000'000;  // distinct id space for the dry pass
    std::vector<View> all_candidates;
    std::unordered_set<uint64_t> seen;
    std::vector<plan::Plan> plans;
    for (const workload::WorkloadQuery& q : queries) {
      plans.push_back(q.plan);
      MISO_ASSIGN_OR_RETURN(std::vector<View> produced,
                            CandidateViewsOf(q.plan, &dry_id));
      for (View& v : produced) {
        if (seen.insert(v.signature).second) {
          all_candidates.push_back(std::move(v));
        }
      }
    }
    tuner::OfflineTuner offline(&opt_, tuner_config_);
    MISO_ASSIGN_OR_RETURN(const tuner::OfflineTuner::TargetDesign target,
                          offline.ComputeTarget(all_candidates, plans));
    for (const View& v : all_candidates) {
      if (target.dw_views.count(v.id) > 0) {
        offline_dw_signatures_.insert(v.signature);
      } else if (target.hv_views.count(v.id) > 0) {
        offline_hv_signatures_.insert(v.signature);
      }
    }
    // The one-shot design computation happens before any query runs.
    report_.tune_s += config_.tune_compute_s;
    now_ += config_.tune_compute_s;
  }
  return Status();
}

bool Engine::DwDown(int qi) const {
  return injector_ != nullptr && injector_->DwDownForQuery(qi);
}

bool Engine::PlansWithDw() const {
  // Store-confined variants never degrade: HV-ONLY and HV-OP run no DW
  // work, and DW-ONLY models the dedicated-DW baseline, outside the
  // fault model.
  return config_.variant != SystemVariant::kHvOnly &&
         config_.variant != SystemVariant::kHvOp &&
         config_.variant != SystemVariant::kDwOnly;
}

Result<MultistorePlan> Engine::PlanQuery(const plan::Plan& query,
                                    const QueryWork& work,
                                    const ViewCatalog& hv,
                                    const ViewCatalog& dw) const {
  // A DW outage (or an open breaker) degrades multistore planning to
  // HV-only instead of erroring.
  optimizer::OptimizeOptions options;
  options.dw_available = !work.dw_down && !work.breaker_open;
  switch (config_.variant) {
    case SystemVariant::kHvOnly:
      return opt_.OptimizeHvOnly(query, hv, /*use_views=*/false);
    case SystemVariant::kHvOp:
      return opt_.OptimizeHvOnly(query, hv, /*use_views=*/true);
    case SystemVariant::kDwOnly: {
      MISO_ASSIGN_OR_RETURN(Seconds dw_cost,
                            DwOnlyQueryCost(query, dw_store_.cost_model()));
      MultistorePlan ms;
      ms.executed = query;
      ms.cost.dw_exec_s = dw_cost;
      // All operators DW-side for the utilization accounting.
      ms.dw_side = query.PostOrder();
      return ms;
    }
    case SystemVariant::kMsBasic: {
      const ViewCatalog empty_dw(0);
      const ViewCatalog empty_hv(0);
      return opt_.Optimize(query, empty_dw, empty_hv, options);
    }
    case SystemVariant::kMsMiso:
    case SystemVariant::kMsLru:
    case SystemVariant::kMsOff:
    case SystemVariant::kMsOra:
      return opt_.Optimize(query, dw, hv, options);
  }
  return Status::Internal("unknown system variant");
}

Status Engine::Execute(const plan::Plan& query, int qi, const ViewCatalog& hv,
                       QueryWork* work) const {
  const MultistorePlan& ms = work->ms;
  if (config_.variant != SystemVariant::kDwOnly) {
    // HV side: run the jobs. HV-ONLY and MS-BASIC retain nothing, so
    // their harvest is dropped here.
    const bool harvest = config_.variant != SystemVariant::kHvOnly &&
                         config_.variant != SystemVariant::kMsBasic;
    std::vector<NodePtr> hv_roots;
    if (ms.HvOnly()) {
      hv_roots.push_back(ms.executed.root());
    } else {
      for (const NodePtr& cut : ms.cut_inputs) {
        if (cut->kind() != OpKind::kScan && cut->kind() != OpKind::kViewScan) {
          hv_roots.push_back(cut);
        }
      }
    }
    // Harvest dedup reads `hv` — the catalog the plan was made against —
    // never the store's live one, which may be mutating meanwhile.
    uint64_t scratch_id =
        kScratchIdBase + static_cast<uint64_t>(qi) * kScratchIdStride;
    for (size_t ri = 0; ri < hv_roots.size(); ++ri) {
      MISO_ASSIGN_OR_RETURN(
          hv::HvExecution exec,
          hv_store_.Execute(hv_roots[ri], qi, /*now=*/0, &scratch_id,
                            /*exclude_signature=*/query.signature(), injector_,
                            &fault_plan_.retry,
                            HashCombine(static_cast<uint64_t>(qi) + 1,
                                        static_cast<uint64_t>(ri)),
                            &hv));
      if (harvest) {
        for (View& v : exec.produced_views) {
          work->produced.push_back(std::move(v));
        }
      }
      work->hv_fault.injected += exec.fault.injected;
      work->hv_fault.retries += exec.fault.retries;
      work->hv_fault.wasted_s += exec.fault.wasted_s;
      work->hv_fault.backoff_s += exec.fault.backoff_s;
    }
  }
  // Working-set transfer faults: interrupted streams re-send and charge
  // the partially-moved bytes; a failed DW load retries just the load.
  if (injector_ != nullptr && ms.transferred_bytes > 0) {
    work->ws = mover_.WorkingSetTransferFaulted(
        ms.transferred_bytes, injector_,
        HashCombine(0x77735f78666572ULL,  // "ws_xfer"
                    static_cast<uint64_t>(qi) + 1),
        fault_plan_.retry);
    if (work->ws.exhausted) {
      return fault::ExhaustedError(fault::FaultSite::kTransfer,
                                   static_cast<uint64_t>(qi),
                                   fault_plan_.retry.max_attempts);
    }
  }
  CollectViewUses(ms.executed, &work->hv_used, &work->dw_used);
  return Status();
}

void Engine::PlanAndExecute(const plan::Plan& query, int qi,
                            const ViewCatalog& hv, const ViewCatalog& dw,
                            QueryWork* work) const {
  // Planning and execution capture separately: the planning capture is
  // what a caller may cache next to the plan, so a later reuse replays
  // byte-identical optimizer telemetry.
  if (!work->plan_ready) {
    obs::ScopedTraceCapture trace_capture;
    obs::ScopedHistogramCapture histogram_capture;
    obs::ScopedCounterCapture counter_capture;
    Result<MultistorePlan> ms = PlanQuery(query, *work, hv, dw);
    work->opt_trace_lines = trace_capture.TakeLines();
    work->opt_histogram_obs = histogram_capture.TakeObservations();
    work->opt_counter_deltas = counter_capture.TakeDeltas();
    if (!ms.ok()) {
      work->status = ms.status();
      return;
    }
    work->ms = std::move(*ms);
    work->plan_ready = true;
  }
  obs::ScopedTraceCapture trace_capture;
  obs::ScopedHistogramCapture histogram_capture;
  obs::ScopedCounterCapture counter_capture;
  work->status = Execute(query, qi, hv, work);
  work->trace_lines = trace_capture.TakeLines();
  work->histogram_obs = histogram_capture.TakeObservations();
  work->counter_deltas = counter_capture.TakeDeltas();
}

Status Engine::Retain(std::vector<View>* produced) {
  switch (config_.variant) {
    case SystemVariant::kHvOp:
      for (View& v : *produced) {
        (void)hv_store_.catalog().AddUnchecked(std::move(v));
      }
      if (EvictLruToBudget(&hv_store_.catalog())) shrinks_ += 1;
      return Status();
    case SystemVariant::kMsOff:
      // Retain / immediately load exactly the targeted views.
      for (View& v : *produced) {
        if (offline_dw_signatures_.count(v.signature) > 0) {
          const transfer::TransferBreakdown tb =
              mover_.ViewTransferToDw(v.size_bytes);
          const Seconds stretched = ledger_.RecordActivity(
              dw::DwActivityKind::kReorgTransfer, now_, tb.Total(),
              /*io_demand=*/1.3, /*cpu_demand=*/0.3);
          now_ += stretched;
          report_.tune_s += stretched;
          report_.bytes_moved_to_dw += v.size_bytes;
          offline_dw_signatures_.erase(v.signature);
          MISO_RETURN_IF_ERROR(dw_store_.catalog().AddUnchecked(std::move(v)));
        } else if (offline_hv_signatures_.count(v.signature) > 0) {
          MISO_RETURN_IF_ERROR(hv_store_.catalog().AddUnchecked(std::move(v)));
        }
      }
      return Status();
    default:
      // HV retains everything until the next reorganization.
      for (View& v : *produced) {
        MISO_RETURN_IF_ERROR(hv_store_.catalog().AddUnchecked(std::move(v)));
      }
      return Status();
  }
}

Result<const QueryRecord*> Engine::Reduce(const plan::Plan& query, int qi,
                                          QueryWork* work, Seconds wait) {
  // Captured telemetry first — planning, then execution — preceding the
  // query's own events exactly as a serial run emits them.
  Replay(&work->opt_trace_lines, work->opt_histogram_obs,
         work->opt_counter_deltas);
  Replay(&work->trace_lines, work->histogram_obs, work->counter_deltas);
  if (!work->status.ok()) {
    if (injector_ != nullptr && obs::MetricsOn()) {
      obs::Metrics().GetCounter(obs::names::kFaultExhausted)->Increment();
    }
    return work->status;
  }

  QueryRecord record;
  record.index = qi;
  record.name = query.query_name();
  record.ops_total = query.NumOperators();
  record.epoch = epoch_;
  record.degraded = PlansWithDw() && (work->dw_down || work->breaker_open);
  record.breaker_degraded = record.degraded && !work->dw_down;
  if (record.degraded) {
    report_.degraded_queries += 1;
    if (obs::MetricsOn()) {
      // The outage counter stays outage-specific; breaker-degraded
      // queries count only under the overall degradation counter.
      if (work->dw_down) {
        obs::Metrics().GetCounter(obs::names::kFaultDwOutageQueries)
            ->Increment();
      }
      obs::Metrics()
          .GetCounter(obs::names::kServerSessionsDegraded)
          ->Increment();
    }
  }

  const MultistorePlan& ms = work->ms;
  record.breakdown = ms.cost;
  record.transferred_bytes = ms.transferred_bytes;
  record.ops_dw = static_cast<int>(ms.dw_side.size());

  // HV-job faults: re-run work joins the HV execution component; backoff
  // waits are dead time charged to the clock below.
  const fault::FaultAccounting& hv_fault = work->hv_fault;
  if (hv_fault.injected > 0) {
    record.fault_injected += hv_fault.injected;
    record.fault_retries += hv_fault.retries;
    record.fault_wasted_s += hv_fault.wasted_s;
    record.fault_backoff_s += hv_fault.backoff_s;
    CountInjected(fault::FaultSite::kHvJob, hv_fault.injected);
  }
  record.breakdown.hv_exec_s += record.fault_wasted_s;

  const transfer::FaultedTransfer& ws = work->ws;
  if (ws.injected > 0 || ws.retries > 0 || ws.wasted_dump_s > 0 ||
      ws.backoff_s > 0) {
    record.breakdown.dump_s += ws.wasted_dump_s;
    record.fault_injected += ws.injected;
    record.fault_retries += ws.retries;
    record.fault_wasted_s += ws.wasted_dump_s + ws.wasted_rest_s;
    record.fault_backoff_s += ws.backoff_s;
    CountInjected(fault::FaultSite::kTransfer, ws.injected_stream);
    CountInjected(fault::FaultSite::kDwLoad, ws.injected_load);
  }

  // DW-side contention stretches transfer-load and DW execution. `wait`
  // (the online server's movement gate) delays the start.
  record.reorg_wait_s = wait;
  record.start_time = now_;
  const Seconds begin = now_ + wait;
  Seconds exec_time = record.breakdown.hv_exec_s + record.breakdown.dump_s;
  if (ms.cost.transfer_load_s + ws.wasted_rest_s > 0) {
    const Seconds stretched = ledger_.RecordActivity(
        dw::DwActivityKind::kWorkingSetTransfer, begin + exec_time,
        ms.cost.transfer_load_s + ws.wasted_rest_s,
        /*io_demand=*/1.2, /*cpu_demand=*/0.3);
    record.breakdown.transfer_load_s = stretched;
    exec_time += stretched;
  }
  if (ms.cost.dw_exec_s > 0) {
    const Seconds stretched = ledger_.RecordActivity(
        dw::DwActivityKind::kQueryExec, begin + exec_time, ms.cost.dw_exec_s,
        /*io_demand=*/0.25, /*cpu_demand=*/0.35);
    record.breakdown.dw_exec_s = stretched;
    exec_time += stretched;
  }
  exec_time += record.fault_backoff_s;
  now_ = begin + exec_time;
  record.completion_time = now_;

  report_.hv_exe_s += record.breakdown.hv_exec_s;
  report_.dw_exe_s += record.breakdown.dw_exec_s;
  report_.transfer_s +=
      record.breakdown.dump_s + record.breakdown.transfer_load_s;

  // Harvest: real ids in query order, creation time restamped. A view
  // some earlier query of the same batch already retained is skipped
  // (the decision reads the catalog before this query's own additions,
  // so within-query duplicates are kept).
  std::vector<View>& produced = work->produced;
  size_t kept = 0;
  for (size_t i = 0; i < produced.size(); ++i) {
    if (hv_store_.catalog().FindExact(produced[i].signature).has_value()) {
      continue;
    }
    View& v = produced[kept++];
    if (&v != &produced[i]) v = std::move(produced[i]);
    v.id = next_view_id_++;
    v.created_at = record.start_time;
  }
  produced.resize(kept);
  MISO_RETURN_IF_ERROR(Retain(&produced));

  record.views_used =
      static_cast<int>(work->hv_used.size() + work->dw_used.size());
  for (ViewId id : work->hv_used) hv_store_.catalog().TouchView(id, qi);
  for (ViewId id : work->dw_used) dw_store_.catalog().TouchView(id, qi);

  if (obs::MetricsOn()) {
    obs::MetricsRegistry& registry = obs::Metrics();
    registry.GetCounter(obs::names::kSimQueries)->Increment();
    registry.GetCounter(obs::names::kSimTransferredBytes)
        ->Add(static_cast<int64_t>(record.transferred_bytes));
    registry
        .GetHistogram(obs::names::kSimQueryExecSeconds, obs::SecondsBuckets())
        ->Observe(exec_time);
  }
  EmitQuery(record);
  // Fault telemetry: the `fault.query` line only for queries that saw
  // injection or degradation, so fault-free traces stay unchanged.
  if (injector_ != nullptr) {
    if (obs::MetricsOn() && record.fault_injected > 0) {
      obs::MetricsRegistry& registry = obs::Metrics();
      registry.GetCounter(obs::names::kFaultRetries)->Add(record.fault_retries);
      registry
          .GetHistogram(obs::names::kFaultRetryBackoffSeconds,
                        obs::SecondsBuckets())
          ->Observe(record.fault_backoff_s);
      registry
          .GetHistogram(obs::names::kFaultRetryAttempts, obs::CountBuckets())
          ->Observe(static_cast<double>(record.fault_injected));
    }
    if (obs::TraceOn() && (record.fault_injected > 0 || record.degraded)) {
      obs::Emit(obs::TraceEvent(obs::names::kEvFaultQuery)
                    .Int("index", record.index)
                    .Bool("degraded", record.degraded)
                    .Int("injected", record.fault_injected)
                    .Int("retries", record.fault_retries)
                    .Double("wasted_s", record.fault_wasted_s)
                    .Double("backoff_s", record.fault_backoff_s));
    }
  }
  report_.fault_injected += record.fault_injected;
  report_.fault_retries += record.fault_retries;
  report_.fault_wasted_s += record.fault_wasted_s;
  report_.fault_backoff_s += record.fault_backoff_s;

  history_.push_back(query);
  report_.queries.push_back(std::move(record));
  return &report_.queries.back();
}

void Engine::EmitQuery(const QueryRecord& record) const {
  if (!obs::TraceOn()) return;
  obs::Emit(obs::TraceEvent(obs::names::kEvSimQuery)
                .Int("index", record.index)
                .Str("name", record.name)
                .Str("variant", report_.variant_name)
                .Int("epoch", record.epoch)
                .Bool("degraded", record.degraded)
                .Double("start_s", record.start_time)
                .Double("completion_s", record.completion_time)
                .Double("reorg_wait_s", record.reorg_wait_s)
                .Double("hv_exec_s", record.breakdown.hv_exec_s)
                .Double("dump_s", record.breakdown.dump_s)
                .Double("transfer_load_s", record.breakdown.transfer_load_s)
                .Double("dw_exec_s", record.breakdown.dw_exec_s)
                .Int("transferred_bytes",
                     static_cast<int64_t>(record.transferred_bytes))
                .Int("ops_dw", record.ops_dw)
                .Int("ops_total", record.ops_total)
                .Int("views_used", record.views_used));
}

bool Engine::ReorgDue(int qi) const {
  const bool reorganizes = config_.variant == SystemVariant::kMsMiso ||
                           config_.variant == SystemVariant::kMsLru ||
                           config_.variant == SystemVariant::kMsOra;
  if (!reorganizes) return false;
  const bool query_trigger =
      config_.reorg_every > 0 && (qi + 1) % config_.reorg_every == 0;
  const bool time_trigger = config_.reorg_every_seconds > 0 &&
                            now_ - last_reorg_time_ >=
                                config_.reorg_every_seconds;
  return query_trigger || time_trigger;
}

bool Engine::DeferReorg(int boundary, bool breaker_open) {
  // A reorganization moves views into/out of the DW; while the DW is
  // unavailable it is deferred to the next boundary, not attempted.
  if (!breaker_open && !DwDown(boundary)) return false;
  report_.reorgs_skipped += 1;
  if (obs::MetricsOn()) {
    obs::Metrics().GetCounter(obs::names::kFaultReorgsSkipped)->Increment();
  }
  return true;
}

Result<tuner::ReorgPlan> Engine::Tune(
    const ViewCatalog& hv, const ViewCatalog& dw,
    const std::vector<plan::Plan>& window) const {
  switch (config_.variant) {
    case SystemVariant::kMsLru:
      return lru_tuner_.Tune(hv, dw);
    case SystemVariant::kMsMiso:
    case SystemVariant::kMsOra:
      return miso_tuner_.Tune(hv, dw, window);
    default:
      return Status::FailedPrecondition(
          std::string(SystemVariantToString(config_.variant)) +
          " does not reorganize");
  }
}

std::vector<plan::Plan> Engine::TuneWindow(int boundary) const {
  const size_t limit = static_cast<size_t>(config_.history_window);
  std::vector<plan::Plan> window;
  if (config_.variant == SystemVariant::kMsOra) {
    // Oracle: the actual future window, newest-last — the nearest future
    // query should weigh most, and decay favors the back of the window.
    for (size_t j = static_cast<size_t>(boundary) + 1;
         j < workload_->size() && window.size() < limit; ++j) {
      window.push_back((*workload_)[j].plan);
    }
    std::reverse(window.begin(), window.end());
    return window;
  }
  const size_t start = history_.size() > limit ? history_.size() - limit : 0;
  window.assign(history_.begin() + static_cast<long>(start), history_.end());
  return window;
}

verify::DesignBudgets Engine::Budgets() const {
  verify::DesignBudgets budgets;
  budgets.hv_storage = config_.hv_storage_budget;
  budgets.dw_storage = config_.dw_storage_budget;
  budgets.transfer = config_.transfer_budget;
  budgets.discretization = tuner_config_.discretization;
  return budgets;
}

int Engine::StartReorg() {
  last_reorg_time_ = now_;
  return report_.reorg_count++;
}

void Engine::Publish() {
  epoch_ += 1;
  shrinks_ += 1;
  report_.epochs_published += 1;
  if (obs::MetricsOn()) {
    obs::Metrics().GetCounter(obs::names::kServerEpochsPublished)->Increment();
  }
}

void Engine::ChargeMoves(Bytes to_dw, Bytes to_hv, Seconds start,
                         Seconds* duration) {
  // The transfer model is linear in bytes, so batching per direction is
  // equivalent to per-view charging.
  if (to_dw > 0) {
    const transfer::TransferBreakdown tb = mover_.ViewTransferToDw(to_dw);
    *duration += ledger_.RecordActivity(dw::DwActivityKind::kReorgTransfer,
                                        start + *duration, tb.Total(),
                                        /*io_demand=*/1.3, /*cpu_demand=*/0.3);
  }
  if (to_hv > 0) {
    const transfer::TransferBreakdown tb = mover_.ViewTransferToHv(to_hv);
    *duration += ledger_.RecordActivity(dw::DwActivityKind::kReorgTransfer,
                                        start + *duration, tb.Total(),
                                        /*io_demand=*/0.8, /*cpu_demand=*/0.2);
  }
}

void Engine::RecordCrash(int reorg_index, int crash_before,
                         const tuner::ReorgJournal::Outcome& partial,
                         const tuner::ReorgJournal::Outcome& recovery) {
  report_.reorg_crashes += 1;
  if (obs::MetricsOn()) {
    obs::MetricsRegistry& registry = obs::Metrics();
    registry.GetCounter(obs::names::kFaultReorgCrashes)->Increment();
    registry
        .GetCounter(obs::WithLabel(obs::names::kFaultReorgRecoveries, "policy",
                                   RecoveryPolicyName(fault_plan_.recovery)))
        ->Increment();
    CountInjected(fault::FaultSite::kReorg, 1);
  }
  if (obs::TraceOn()) {
    obs::Emit(
        obs::TraceEvent(obs::names::kEvFaultReorgRecovery)
            .Int("reorg_index", reorg_index)
            .Int("crash_before", crash_before)
            .Str("policy", RecoveryPolicyName(fault_plan_.recovery))
            .Int("steps_applied", partial.steps)
            .Int("steps_recovered", recovery.steps)
            .Int("bytes_to_dw", static_cast<int64_t>(partial.bytes_to_dw +
                                                     recovery.bytes_to_dw))
            .Int("bytes_to_hv", static_cast<int64_t>(partial.bytes_to_hv +
                                                     recovery.bytes_to_hv)));
  }
}

Status Engine::Reorganize(int boundary) {
  ViewCatalog& hv = hv_store_.catalog();
  ViewCatalog& dw = dw_store_.catalog();
  const int reorg_index = StartReorg();
  MISO_ASSIGN_OR_RETURN(tuner::ReorgPlan reorg,
                        Tune(hv, dw, TuneWindow(boundary)));

  EpochSnapshot snapshot;
  snapshot.reorg_index = reorg_index;
  snapshot.boundary_session = boundary;
  snapshot.moved_to_dw = reorg.BytesToDw();
  snapshot.moved_to_hv = reorg.BytesToHv();
  Seconds reorg_time = config_.tune_compute_s;
  // Crash-safe application: with an injector the plan runs through the
  // move journal, which may crash between two moves and recover (resume
  // or rollback); without one, the direct application — the journal's
  // no-crash walk is step-for-step identical, but the disabled path
  // stays exact.
  if (injector_ == nullptr) {
    ChargeMoves(snapshot.moved_to_dw, snapshot.moved_to_hv, now_, &reorg_time);
    MISO_RETURN_IF_ERROR(tuner::ApplyReorgPlan(reorg, &hv, &dw));
    snapshot.steps_applied = static_cast<int>(
        reorg.move_to_dw.size() + reorg.move_to_hv.size() +
        reorg.drop_from_hv.size() + reorg.drop_from_dw.size());
  } else {
    MISO_ASSIGN_OR_RETURN(tuner::ReorgJournal journal,
                          tuner::ReorgJournal::Create(reorg, hv, dw));
    const int crash_before = injector_->ReorgCrashPoint(
        static_cast<uint64_t>(reorg_index), journal.num_entries());
    if (crash_before < 0) {
      ChargeMoves(snapshot.moved_to_dw, snapshot.moved_to_hv, now_,
                  &reorg_time);
      MISO_ASSIGN_OR_RETURN(const tuner::ReorgJournal::Outcome outcome,
                            journal.Apply(&hv, &dw));
      snapshot.steps_applied = outcome.steps;
    } else {
      snapshot.rolled_back =
          fault_plan_.recovery == RecoveryPolicy::kRollback;
      MISO_ASSIGN_OR_RETURN(const tuner::ReorgJournal::Outcome partial,
                            journal.Apply(&hv, &dw, crash_before));
      ChargeMoves(partial.bytes_to_dw, partial.bytes_to_hv, now_,
                  &reorg_time);
      // Restart penalty: the crash is detected and the reorganization
      // restarted after one backoff interval of simulated time.
      reorg_time += fault_plan_.retry.BackoffBefore(2);
      MISO_ASSIGN_OR_RETURN(const tuner::ReorgJournal::Outcome recovery,
                            journal.Recover(fault_plan_.recovery, &hv, &dw));
      ChargeMoves(recovery.bytes_to_dw, recovery.bytes_to_hv, now_,
                  &reorg_time);
      // Actual bytes moved: the partial pass plus the recovery pass (a
      // rollback re-crosses the link in the opposite direction).
      snapshot.steps_applied = partial.steps + recovery.steps;
      snapshot.moved_to_dw = partial.bytes_to_dw + recovery.bytes_to_dw;
      snapshot.moved_to_hv = partial.bytes_to_hv + recovery.bytes_to_hv;
      // Post-recovery invariants: the journal agrees with the catalogs
      // and is in a terminal state.
      if (verify::Enabled()) {
        MISO_RETURN_IF_ERROR(verify::VerifyJournalConsistency(journal, hv, dw));
      }
      RecordCrash(reorg_index, crash_before, partial, recovery);
    }
  }
  // Every applied reorganization leaves a design within Bh/Bd with
  // Vh ∩ Vd = ∅. After a rollback the design is the pre-reorg one, where
  // HV may legitimately exceed Bh (opportunistic views accumulate
  // between reorganizations, §3.1), so the budget check is skipped.
  if (verify::Enabled() && !snapshot.rolled_back) {
    MISO_RETURN_IF_ERROR(verify::VerifyDesign(hv, dw, Budgets()));
  }
  if (!snapshot.rolled_back) Publish();
  now_ += reorg_time;
  last_reorg_time_ = now_;
  snapshot.reorg_duration_s = reorg_time;
  CompleteReorg(&snapshot);
  EmitReorgTrace(snapshot, /*overlap_saved_s=*/0);
  return Status();
}

void Engine::CompleteReorg(EpochSnapshot* snapshot) {
  snapshot->epoch = epoch_;
  snapshot->hv_used = hv_store_.catalog().used_bytes();
  snapshot->dw_used = dw_store_.catalog().used_bytes();
  report_.bytes_moved_to_dw += snapshot->moved_to_dw;
  report_.bytes_moved_to_hv += snapshot->moved_to_hv;
  report_.tune_s += snapshot->reorg_duration_s;
  if (snapshot->rolled_back) report_.reorgs_rolled_back += 1;
  if (obs::MetricsOn()) {
    obs::MetricsRegistry& registry = obs::Metrics();
    registry.GetCounter(obs::names::kSimReorgs)->Increment();
    registry
        .GetCounter(obs::WithLabel(obs::names::kSimMovedBytes, "dir",
                                   obs::names::kDirToDw))
        ->Add(static_cast<int64_t>(snapshot->moved_to_dw));
    registry
        .GetCounter(obs::WithLabel(obs::names::kSimMovedBytes, "dir",
                                   obs::names::kDirToHv))
        ->Add(static_cast<int64_t>(snapshot->moved_to_hv));
    registry.GetCounter(obs::names::kServerReorgSteps)
        ->Add(snapshot->steps_applied);
    if (snapshot->rolled_back) {
      registry.GetCounter(obs::names::kServerReorgsRolledBack)->Increment();
    }
  }
  if (!config_.epoch_observer) return;
  for (const View& v : hv_store_.catalog().AllViews()) {
    snapshot->hv_ids.push_back(v.id);
  }
  for (const View& v : dw_store_.catalog().AllViews()) {
    snapshot->dw_ids.push_back(v.id);
  }
  config_.epoch_observer(*snapshot);
}

void Engine::EmitReorgTrace(const EpochSnapshot& snapshot,
                            Seconds overlap_saved_s) const {
  if (!obs::TraceOn()) return;
  obs::Emit(obs::TraceEvent(obs::names::kEvSimReorg)
                .Int("query_index", snapshot.boundary_session)
                .Int("reorg_index", snapshot.reorg_index)
                .Int("epoch", snapshot.epoch)
                .Int("steps_applied", snapshot.steps_applied)
                .Bool("rolled_back", snapshot.rolled_back)
                .Int("bytes_to_dw", static_cast<int64_t>(snapshot.moved_to_dw))
                .Int("bytes_to_hv", static_cast<int64_t>(snapshot.moved_to_hv))
                .Double("reorg_s", snapshot.reorg_duration_s)
                .Int("hv_used_bytes", static_cast<int64_t>(snapshot.hv_used))
                .Int("dw_used_bytes", static_cast<int64_t>(snapshot.dw_used))
                .Double("overlap_saved_s", overlap_saved_s));
}

RunReport& Engine::Finish() {
  if (config_.background.io_demand > 0 || config_.background.cpu_demand > 0) {
    report_.dw_ticks = ledger_.TickSeries(now_);
    report_.avg_background_latency_s = ledger_.AverageBackgroundLatency(now_);
    report_.background_slowdown = ledger_.BackgroundSlowdown(now_);
  }
  // A borrowed pool is published by its owner.
  PublishPoolStats(owned_pool_.get());
  return report_;
}

}  // namespace miso::sim
