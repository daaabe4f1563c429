#ifndef MISO_SIM_ENGINE_H_
#define MISO_SIM_ENGINE_H_

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "dw/dw_store.h"
#include "dw/resource_model.h"
#include "fault/fault.h"
#include "hv/hv_store.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/multistore_optimizer.h"
#include "plan/node_factory.h"
#include "sim/report.h"
#include "sim/simulator.h"
#include "transfer/transfer_model.h"
#include "tuner/baseline_tuners.h"
#include "tuner/miso_tuner.h"
#include "tuner/reorg_journal.h"
#include "verify/design_verifier.h"
#include "views/view_catalog.h"
#include "workload/evolutionary.h"

namespace miso::sim {

/// Folds a pool's lifetime stats into the `miso.pool.*` metrics. These are
/// runtime-class metrics (docs/TELEMETRY.md): they describe the execution
/// machinery, so their values legitimately vary with thread count.
void PublishPoolStats(const ThreadPool* pool);

/// What planning and executing one query produced, before the serial
/// reduce folds it into the run. Written by exactly one caller of
/// `Engine::PlanAndExecute` (possibly a worker thread) and read by
/// `Engine::Reduce`. Everything the layers below emit while it is filled
/// — trace lines, histogram observations, counter deltas — is captured
/// here and replayed at the reduce, so emission order is fixed by the
/// query order, never by thread timing. `Reset` keeps vector capacity.
struct QueryWork {
  /// Inputs, set by the driver before planning: the query falls in a
  /// DW outage window / the online server's DW-health breaker is open.
  bool dw_down = false;
  bool breaker_open = false;

  Status status;

  /// Planning phase. `plan_ready` marks `ms` and the opt_* telemetry as
  /// present (a caller may fill them from a cache), so planning is
  /// skipped and only execution runs.
  bool plan_ready = false;
  optimizer::MultistorePlan ms;
  std::vector<std::string> opt_trace_lines;
  std::vector<obs::ScopedHistogramCapture::Observation> opt_histogram_obs;
  std::vector<obs::ScopedCounterCapture::Delta> opt_counter_deltas;

  /// Execution phase. Harvested views carry scratch ids until the reduce
  /// assigns real ones in query order.
  std::vector<views::View> produced;
  fault::FaultAccounting hv_fault;
  transfer::FaultedTransfer ws;
  std::vector<views::ViewId> hv_used;
  std::vector<views::ViewId> dw_used;
  std::vector<std::string> trace_lines;
  std::vector<obs::ScopedHistogramCapture::Observation> histogram_obs;
  std::vector<obs::ScopedCounterCapture::Delta> counter_deltas;

  void Reset();
};

/// The one execution model behind every system variant (§5.1/§5.3): the
/// stores, optimizer, tuners, DW ledger, fault injector and run report
/// of one workload run. `MultistoreSimulator::Run` drives it one query
/// at a time; `server::MisoServer` drives it in waves, planning on a
/// worker pool and reorganizing in the background. Both call the same
/// three steps per query — `PlanAndExecute`, `Reduce`, and a boundary
/// reorganization — so the two drivers agree record for record by
/// construction.
///
/// The variant policies live here as four switches: preparation
/// (`Prepare`: DW-ONLY's ETL, MS-OFF's one-shot target), planning (HV
/// only, empty catalogs, DW only, or the full multistore), retention
/// (HV-OP's LRU, MS-OFF's targeted loads, or keep everything), and
/// reorganization (`Tune`: MISO, LRU, the oracle window, or none).
///
/// Threading: `PlanAndExecute` and `Tune` are const and safe to run
/// concurrently with each other; everything else runs on one driver
/// thread, between fan-outs.
class Engine {
 public:
  /// `expected_queries` places profile-derived fault windows. `pool`, when
  /// non-null, is borrowed for candidate costing; otherwise the engine
  /// owns one sized by `config.threads` (none at 1 thread).
  Engine(const relation::Catalog* catalog, const SimConfig& config,
         int expected_queries, ThreadPool* pool = nullptr);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Variants that must see the whole workload before the first query
  /// runs (DW-ONLY's ETL, MS-OFF's target design, MS-ORA's lookahead);
  /// an online server, which never knows the future, cannot serve them.
  static bool NeedsWholeWorkload(SystemVariant variant);

  /// Variant preparation over the whole workload: DW-ONLY loads it, MS-OFF
  /// computes its target design, MS-ORA remembers it for its window. A
  /// no-op for every other variant. `queries` must outlive the engine.
  Status Prepare(const std::vector<workload::WorkloadQuery>& queries);

  /// True when query `qi` falls in a DW outage window.
  bool DwDown(int qi) const;

  /// Plans `query` (unless `work->plan_ready`) against `hv`/`dw` and
  /// executes it into `work`. Reads only its arguments and immutable
  /// engine state; a failure is left in `work->status`.
  void PlanAndExecute(const plan::Plan& query, int qi,
                      const views::ViewCatalog& hv,
                      const views::ViewCatalog& dw, QueryWork* work) const;

  /// Serial reduce of one planned-and-executed query, in query order:
  /// replays the captured telemetry, then either returns the failure
  /// (counted as an exhausted retry budget) or folds faults, stretches
  /// DW work under contention, advances the clock by `wait` plus the
  /// execution time, retains harvested views, touches used views, and
  /// appends the record to the report. Returns that record.
  Result<const QueryRecord*> Reduce(const plan::Plan& query, int qi,
                                    QueryWork* work, Seconds wait);

  /// True when a reorganization is due after query `qi` (query-count or
  /// simulated-time trigger) and the variant reorganizes at all.
  bool ReorgDue(int qi) const;
  /// True (and counted) when the reorganization due after `boundary`
  /// must be deferred: the DW is in an outage, or `breaker_open`.
  bool DeferReorg(int boundary, bool breaker_open);
  /// Stop-the-world reorganization after query `boundary`: tune, apply
  /// directly or through the crash-safe journal, charge the movement on
  /// the clock, verify the design, fold it into the report.
  Status Reorganize(int boundary);

  // ---- Reorganization steps shared with the online server. -----------

  /// The one tuning entry point, per the variant's reorganization policy.
  Result<tuner::ReorgPlan> Tune(const views::ViewCatalog& hv,
                                const views::ViewCatalog& dw,
                                const std::vector<plan::Plan>& window) const;
  /// The queries the tuner weighs at the reorganization after `boundary`:
  /// the last `history_window` queries, or MS-ORA's actual future.
  std::vector<plan::Plan> TuneWindow(int boundary) const;
  verify::DesignBudgets Budgets() const;
  /// Claims the next reorganization index and restarts the time trigger.
  int StartReorg();
  /// A new design is in effect: bumps the epoch.
  void Publish();
  /// Charges one batch of reorganization movement through the DW ledger,
  /// starting `start + *duration`, and adds its time to `*duration`.
  void ChargeMoves(Bytes to_dw, Bytes to_hv, Seconds start,
                   Seconds* duration);
  /// Crash-and-recovery bookkeeping of one reorganization.
  void RecordCrash(int reorg_index, int crash_before,
                   const tuner::ReorgJournal::Outcome& partial,
                   const tuner::ReorgJournal::Outcome& recovery);
  /// Folds one resolved reorganization into the report and metrics and
  /// hands it to `SimConfig::epoch_observer`. Fills the snapshot's epoch
  /// and live-design fields.
  void CompleteReorg(EpochSnapshot* snapshot);
  /// The per-reorganization trace event.
  void EmitReorgTrace(const EpochSnapshot& snapshot,
                      Seconds overlap_saved_s) const;

  /// Closes the run: DW resource series and owned-pool statistics.
  RunReport& Finish();

  ThreadPool* pool() const { return pool_; }
  RunReport& report() { return report_; }
  Seconds now() const { return now_; }
  int epoch() const { return epoch_; }
  /// Bumped whenever a view leaves a catalog (a published design, an LRU
  /// eviction): the end of a monotone-growth window.
  int shrinks() const { return shrinks_; }
  const fault::FaultInjector* injector() const { return injector_; }
  const fault::FaultPlan& fault_plan() const { return fault_plan_; }
  views::ViewCatalog& hv_catalog() { return hv_store_.catalog(); }
  views::ViewCatalog& dw_catalog() { return dw_store_.catalog(); }

 private:
  Result<optimizer::MultistorePlan> PlanQuery(
      const plan::Plan& query, const QueryWork& work,
      const views::ViewCatalog& hv, const views::ViewCatalog& dw) const;
  Status Execute(const plan::Plan& query, int qi,
                 const views::ViewCatalog& hv, QueryWork* work) const;
  bool PlansWithDw() const;
  Status Retain(std::vector<views::View>* produced);
  void EmitQuery(const QueryRecord& record) const;

  const relation::Catalog* catalog_;
  SimConfig config_;

  // Observability gates, engaged for the engine's lifetime. Only toggled
  // when the global state differs, so concurrent engines with identical
  // configs (RunSeedSweep engages the gates once, before the fan-out)
  // never touch the process-wide flags. Not safe for concurrent engines
  // whose obs configs differ — see the caveat on Run() in simulator.h.
  std::optional<obs::ScopedMetrics> scoped_metrics_;
  std::optional<obs::ScopedTrace> scoped_trace_;

  plan::NodeFactory factory_;
  hv::HvStore hv_store_;
  dw::DwStore dw_store_;
  transfer::TransferModel mover_;
  optimizer::MultistoreOptimizer opt_;
  dw::ResourceLedger ledger_;
  fault::FaultPlan fault_plan_;
  std::optional<fault::FaultInjector> injector_storage_;
  const fault::FaultInjector* injector_ = nullptr;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;
  tuner::MisoTunerConfig tuner_config_;
  tuner::MisoTuner miso_tuner_;
  tuner::LruTuner lru_tuner_;

  RunReport report_;
  Seconds now_ = 0;
  Seconds last_reorg_time_ = 0;
  uint64_t next_view_id_ = 1;
  int epoch_ = 0;
  int shrinks_ = 0;
  std::vector<plan::Plan> history_;
  // MS-ORA's lookahead; MS-OFF's targeted view signatures per store.
  const std::vector<workload::WorkloadQuery>* workload_ = nullptr;
  std::set<uint64_t> offline_dw_signatures_;
  std::set<uint64_t> offline_hv_signatures_;
};

}  // namespace miso::sim

#endif  // MISO_SIM_ENGINE_H_
