#ifndef MISO_SIM_SIMULATOR_H_
#define MISO_SIM_SIMULATOR_H_

#include <functional>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "dw/dw_config.h"
#include "dw/resource_model.h"
#include "fault/fault.h"
#include "hv/hv_config.h"
#include "relation/catalog.h"
#include "sim/etl.h"
#include "sim/report.h"
#include "sim/variants.h"
#include "transfer/transfer_model.h"
#include "tuner/miso_tuner.h"
#include "workload/evolutionary.h"

namespace miso::sim {

/// Post-reorganization state of one design epoch, handed to
/// `SimConfig::epoch_observer`: at every observation point the live
/// design is journal-consistent, Vh ∩ Vd = ∅, and — except right after a
/// rollback, when HV legitimately carries over-budget opportunistic views
/// (§3.1) — within budgets.
struct EpochSnapshot {
  /// Epoch number now in effect (increments only on a published design).
  int epoch = 0;
  /// Index of the reorganization that produced this snapshot.
  int reorg_index = 0;
  /// Index of the boundary query (server: session) that triggered it.
  int boundary_session = 0;
  /// True when the reorganization did not publish: its journal crashed
  /// and recovered by rollback, so the live design is unchanged.
  bool rolled_back = false;
  /// Journal steps applied (including recovery steps).
  int steps_applied = 0;
  Bytes moved_to_dw = 0;
  Bytes moved_to_hv = 0;
  /// Live catalog state once the reorganization resolved.
  Bytes hv_used = 0;
  Bytes dw_used = 0;
  std::vector<views::ViewId> hv_ids;
  std::vector<views::ViewId> dw_ids;
  /// Simulated duration of the reorganization (tune compute + movement +
  /// crash backoff), i.e. the time a stop-the-world cadence charges.
  Seconds reorg_duration_s = 0;
};

/// Everything needed to run one workload under one system variant.
struct SimConfig {
  SystemVariant variant = SystemVariant::kMsMiso;

  /// View storage budgets (Bh, Bd) and per-reorganization transfer budget
  /// (Bt), in bytes.
  Bytes hv_storage_budget = 4 * kTiB;
  Bytes dw_storage_budget = 400 * kGiB;
  Bytes transfer_budget = 10 * kGiB;

  /// Reorganization cadence and tuner parameters (§5.1: reorganize every
  /// 1/10 of the workload = 3 queries; history 6, epoch 3). §3.1 also
  /// allows time-based triggering: when `reorg_every_seconds` > 0, a
  /// reorganization additionally fires once that much simulated time has
  /// elapsed since the previous one. Either trigger may be disabled by
  /// setting it to 0.
  int reorg_every = 3;
  Seconds reorg_every_seconds = 0;
  int history_window = 6;
  int epoch_length = 3;
  double benefit_decay = 0.6;
  bool store_specific_benefit = true;
  bool handle_interactions = true;
  bool retain_unselected_views = true;

  /// Fixed design-computation time charged per reorganization phase (the
  /// tuner itself is lightweight; movements dominate).
  Seconds tune_compute_s = 30.0;

  /// Worker threads for candidate-split costing inside the optimizer and
  /// for multi-seed sweeps (`RunSeedSweep`). 0 resolves to
  /// `ThreadPool::DefaultThreadCount()` (the `MISO_THREADS` environment
  /// variable, else hardware concurrency); 1 runs the exact legacy
  /// serial code path. Simulation results are bit-identical across
  /// thread counts either way — this knob trades wall-clock only.
  int threads = 0;

  /// Observability (docs/TELEMETRY.md). `metrics` turns the process-wide
  /// metrics registry on for the duration of the run; `trace` does the
  /// same for the JSONL decision trace. Both default off — so do the
  /// `MISO_METRICS` / `MISO_TRACE` environment overrides — and a run
  /// whose knob is false leaves an externally enabled gate untouched.
  /// Emission is deterministic: identical runs produce byte-identical
  /// traces for any thread count (per-seed capture + seed-order merge in
  /// `RunSeedSweep`).
  bool metrics = false;
  bool trace = false;

  hv::HvConfig hv;
  dw::DwConfig dw;
  transfer::TransferConfig transfer;
  EtlConfig etl;

  /// Fault injection (src/fault/). The default spec resolves from the
  /// environment (`MISO_FAULT_PROFILE` etc.) and is *off* unless the user
  /// opts in, in which case HV jobs, transfers and DW loads fail and
  /// retry with simulated backoff, DW outage windows degrade queries to
  /// HV-only plans, and reorganizations may crash mid-move and recover
  /// through the journal. Disabled injection is zero-cost: the run takes
  /// the exact unfaulted code path. The fault stream is keyed by
  /// (fault seed, query/reorg id, attempt), so a faulted run is
  /// byte-identical across `MISO_THREADS`.
  fault::FaultSpec fault;

  /// Optional observer invoked after every reorganization resolves
  /// (applied, or crashed and rolled back) with the live design state.
  /// Under the online server it runs on the scheduler thread once the
  /// background movement joins. Used by tests to assert the design
  /// invariants (budgets respected, Vh ∩ Vd = ∅) throughout a run, and by
  /// embedders for monitoring.
  std::function<void(const EpochSnapshot&)> epoch_observer;

  /// Background reporting workload on DW (§5.4). Defaults to an idle DW
  /// (no demand); set to workload::SpareIo40() etc. for the interference
  /// experiments.
  dw::BackgroundWorkload background{/*io_demand=*/0.0, /*cpu_demand=*/0.0,
                                    /*base_query_latency_s=*/1.06};
  dw::ContentionConfig contention;
};

/// Simulates a query stream against one system variant, producing the
/// full run report (per-query records, TTI components, DW resource
/// series). Deterministic.
class MultistoreSimulator {
 public:
  MultistoreSimulator(const relation::Catalog* catalog,
                      const SimConfig& config);

  const SimConfig& config() const { return config_; }

  /// Borrows an external pool for the optimizer's candidate costing
  /// instead of creating one per Run from `config.threads`. Used by
  /// `RunSeedSweep` so concurrent seed runs share one set of workers
  /// (nested ParallelFor from a worker degrades to the serial loop,
  /// keeping every seed's result bit-identical regardless).
  void SetThreadPool(ThreadPool* pool) { external_pool_ = pool; }

  /// Runs the whole workload (arrival order = vector order).
  ///
  /// Telemetry caveat: `config.metrics`/`config.trace` toggle process-global
  /// flags (the metrics registry and trace sink are process-wide, so there is
  /// no per-run scope to confine them to). Concurrent Run calls on separate
  /// simulators are only supported when their obs configs agree — differing
  /// configs race on the save/restore of those flags and can leave telemetry
  /// toggled wrong after one run finishes. `RunSeedSweep` is safe: it engages
  /// the gates once on the sweep thread before fanning out.
  Result<RunReport> Run(const std::vector<workload::WorkloadQuery>& queries);

 private:
  const relation::Catalog* catalog_;
  SimConfig config_;
  ThreadPool* external_pool_ = nullptr;
};

/// Convenience: generate the paper's 32-query workload and run it under
/// `config`.
Result<RunReport> RunPaperWorkload(const relation::Catalog* catalog,
                                   const SimConfig& config,
                                   uint64_t workload_seed = 42);

/// Multi-seed sweep: generates the paper workload for every seed and
/// simulates each one independently, fanning the seeds out over
/// `config.threads` workers (resolved as in SimConfig). The reports are
/// merged back in seed order — element i of the result always belongs to
/// seeds[i], and is bit-identical to a serial `RunPaperWorkload` of that
/// seed for any thread count; on failure the error of the lowest-indexed
/// failing seed is returned. Each seed's simulation is self-contained
/// (own stores, optimizer, tuner, ledger); only the immutable catalog
/// and an optional `config.epoch_observer` are shared, so a non-null
/// observer must be thread-safe when threads > 1.
Result<std::vector<RunReport>> RunSeedSweep(const relation::Catalog* catalog,
                                            const SimConfig& config,
                                            const std::vector<uint64_t>& seeds);

}  // namespace miso::sim

#endif  // MISO_SIM_SIMULATOR_H_
