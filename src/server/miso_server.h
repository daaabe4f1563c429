#ifndef MISO_SERVER_MISO_SERVER_H_
#define MISO_SERVER_MISO_SERVER_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/bounded_queue.h"
#include "common/result.h"
#include "server/background_reorganizer.h"
#include "server/overload.h"
#include "server/plan_cache.h"
#include "server/session.h"
#include "sim/engine.h"
#include "sim/report.h"
#include "sim/simulator.h"
#include "views/view_catalog.h"
#include "workload/evolutionary.h"

namespace miso::server {

/// Configuration of the online multistore server (DESIGN.md §14).
struct ServerConfig {
  /// Engine configuration, shared with the simulator: variant, budgets,
  /// reorganization cadence, cost models, fault spec, observability
  /// knobs, worker threads, the reorganization observer. Every variant
  /// that runs query by query serves (HV-ONLY, MS-BASIC, HV-OP, MS-MISO,
  /// MS-LRU); DW-ONLY, MS-OFF and MS-ORA need the whole workload up
  /// front and are refused at construction with InvalidArgument.
  sim::SimConfig sim;

  /// Sessions per optimize batch. Sessions admitted into the same wave
  /// are planned concurrently against one frozen design snapshot (they
  /// do not see each other's harvested views — batch semantics); waves
  /// never span an epoch boundary. `wave_size = 1` plans every session
  /// against the freshest catalogs and, with `online_reorg = false`,
  /// reproduces `MultistoreSimulator::Run` record-for-record.
  int wave_size = 4;

  /// True (default): reorganizations run on the background thread —
  /// the design flips at the epoch boundary, journal steps apply on
  /// private copies with per-step verification, and only sessions that
  /// read a still-moving view wait for the movement to complete.
  /// False: stop-the-world at every boundary, the simulator's cadence.
  bool online_reorg = true;

  /// Bound of the admission queue; `Submit` blocks when full
  /// (backpressure instead of unbounded memory growth).
  std::size_t admission_capacity = 256;

  /// True (default): consult the design-epoch plan cache before running
  /// the optimizer. A hit returns the cached `MultistorePlan` (five-part
  /// anatomy included) and replays the optimizer telemetry captured when
  /// it was first computed, so every model-class output is byte-identical
  /// with the cache off. Invalidated wholesale at every published design
  /// flip and every DW-outage degradation edge; DW-outage (HV-only)
  /// plans never consult or populate it.
  bool plan_cache = true;

  /// Byte budget of the plan cache (LRU beyond it).
  Bytes plan_cache_bytes = PlanCache::kDefaultMaxBytes;

  /// True (default): while wave N's serial reduce runs on the scheduler
  /// thread, wave N+1's sessions (when already admitted) plan and
  /// execute speculatively on the worker pool against a frozen snapshot
  /// of the live catalogs. The speculation is validated by catalog
  /// content fingerprint before its results are used and replanned from
  /// scratch when the design moved (harvest, flip), so all model-class
  /// outputs are byte-identical with pipelining off. No-op without a
  /// worker pool (`MISO_THREADS=1`).
  bool pipeline_waves = true;

  /// Hint for fault-plan resolution: profile-derived DW outage windows
  /// are placed relative to this many expected sessions (explicitly
  /// configured windows in `sim.fault.dw_outages` need no hint).
  int expected_sessions = 0;

  /// Invoked by the scheduler thread at every session's serial reduce
  /// point, after the record is complete and before the session's future
  /// resolves. A non-OK return is a *server-level* fatal: the failing
  /// session and everything after it (including an in-flight speculative
  /// wave) fail with that status and `Finish` returns it. Test/ops hook
  /// — e.g. turning an SLO breach into a hard stop.
  std::function<Status(const sim::QueryRecord&)> reduce_observer;

  /// Overload protection (DESIGN.md §16): admission deadlines with
  /// priority-class load shedding, the DW-health circuit breaker, and
  /// the stuck-wave watchdog. All default off; a default-constructed
  /// OverloadConfig leaves the serving path byte-identical to the
  /// pre-overload pipeline.
  OverloadConfig overload;
};

/// The online multistore server: a second driver of the engine the
/// simulator drives (`sim::Engine`: stores, optimizer, tuners, ledger,
/// fault injector, report), accepting concurrent query sessions through
/// a bounded admission queue and reorganizing the design in the
/// background.
///
/// Determinism contract: all model-class outputs — per-session plans,
/// costs, simulated times, harvested view ids, metrics, the JSONL trace
/// — are a pure function of the admission order. Sessions are batched
/// into fixed-span waves cut deterministically by admission index,
/// planned and executed in parallel into caller-owned slots, then
/// reduced serially in admission order (captured trace lines and
/// floating-point histogram observations are replayed at that serial
/// point). `MISO_THREADS` and producer/consumer interleavings trade
/// wall-clock only.
///
/// Epoch discipline: the live catalogs mutate only on the scheduler
/// thread between waves. At an epoch boundary the background thread
/// tunes over a snapshot, the scheduler flips the live design by
/// replaying the pristine journal (metadata), and the journal's
/// step-at-a-time walk — verified journal-consistent after every step —
/// proceeds on private copies while the next waves execute. A session
/// whose plan reads a view still in motion waits (simulated time) for
/// the movement to complete; everyone else overlaps with it. In-flight
/// sessions therefore always see a journal-consistent design, and the
/// server's total cost is never worse than the stop-the-world cadence
/// on the same admission sequence.
class MisoServer {
 public:
  MisoServer(const relation::Catalog* catalog, const ServerConfig& config);
  ~MisoServer();

  MisoServer(const MisoServer&) = delete;
  MisoServer& operator=(const MisoServer&) = delete;

  /// Admits one query session, blocking while the admission queue is
  /// full. The future resolves when the serial reducer completes the
  /// session; after `Close` it resolves immediately with an error.
  std::future<SessionResult> Submit(workload::WorkloadQuery query);

  /// Stops admission; already-admitted sessions still complete.
  void Close();

  /// Closes admission, drains every admitted session, joins the
  /// scheduler and background threads, and returns the run report
  /// (records in admission order). Fails if the engine hit a fatal
  /// error (e.g. a tuner failure); per-session failures — a fault-retry
  /// budget running dry — fail only that session's future.
  Result<sim::RunReport> Finish();

 private:
  /// Per-session output slot: the engine's `QueryWork` plus this
  /// session's plan-cache key and fill mark.
  struct SessionSlot;
  /// One of the two pooled wave buffers (double-buffered for pipelining).
  /// Sessions, slots, and futures are reused across waves — `ResetWave`
  /// clears them without releasing capacity (the hot-path allocation
  /// diet) — so their vectors never reallocate while speculative workers
  /// hold pointers into them.
  struct WaveState {
    std::vector<Session> sessions;
    std::vector<SessionSlot> slots;
    /// True between speculative dispatch and the join in `EnsurePlanned`
    /// (or `Fatal`). While set, workers may be writing `slots` and
    /// reading the catalog snapshots below; the scheduler touches
    /// neither until the futures are joined.
    bool speculative = false;
    /// Frozen design the speculation planned against, and its content
    /// fingerprints — compared against the live catalogs at the join to
    /// decide accept vs replan.
    views::ViewCatalog hv_snapshot;
    views::ViewCatalog dw_snapshot;
    uint64_t planned_hv_fp = 0;
    uint64_t planned_dw_fp = 0;
    /// Breaker transition epoch at speculation time: a breaker edge
    /// between dispatch and join changes DW availability, so the wave is
    /// replanned exactly like a fingerprint mismatch.
    uint64_t planned_breaker_epoch = 0;
    std::vector<std::future<void>> futures;
    // miso-lint: allow(L003) runtime-class overlap histogram timestamp only
    std::chrono::steady_clock::time_point dispatched_at;
  };
  /// An in-flight background reorganization, between the boundary flip
  /// and the movement join at the next wave's reduce.
  struct InFlightReorg {
    int reorg_index = 0;
    int boundary_session = 0;
    /// Simulated movement start: max(boundary time, previous movement
    /// completion) — reorganizations never overlap each other.
    Seconds start_now = 0;
    int crash_before = -1;
    bool rolled_back = false;
    std::set<views::ViewId> moved;
    std::future<Result<ReorgOutcome>> done;
  };
  /// A resolved epoch whose simulated movement may still be in flight:
  /// sessions reading a moved view wait until `complete_at`. Its
  /// reorganization trace event is emitted at expiry, with the final
  /// overlap figure.
  struct MovementGate {
    sim::EpochSnapshot snapshot;
    Seconds complete_at = 0;
    Seconds charged = 0;
    std::set<views::ViewId> moved;
  };

  void SchedulerLoop();
  /// Span of the next wave: `wave_size`, cut so it never crosses a
  /// query-count epoch boundary.
  int WaveSpan() const;
  /// Blocking wave formation: pops until the span is full or the queue
  /// is closed and drained.
  void FormWave(WaveState* wave);
  /// Non-blocking wave formation for speculation: takes the full span or
  /// (once closed) the final partial batch, else nothing — wave
  /// composition stays a pure function of the admission order.
  bool TryFormWave(WaveState* wave);
  Status StartBoundaryReorg(int boundary_session);
  Status StartOnlineReorg(int boundary_session);
  /// Makes every slot of `wave` planned and executed against the live
  /// design: joins a speculative dispatch (accepting it iff the live
  /// catalogs still fingerprint-match its snapshot), runs the serial
  /// plan-cache lookup/invalidation pass, fans planning/execution out
  /// over the pool for whatever remains, then runs the serial cache
  /// insert pass. All cache decisions happen on the scheduler thread in
  /// admission order — hit/miss/eviction counts are model-class.
  void EnsurePlanned(WaveState* wave);
  /// Speculatively forms wave N+1 and dispatches its planning/execution
  /// on the worker pool against a frozen catalog snapshot, overlapping
  /// with wave N's serial reduce. Skipped when pipelining is off, there
  /// is no pool, or a query-count boundary is known to flip the design
  /// first.
  void Speculate(const WaveState* cur, WaveState* next);
  Status ReduceWave(WaveState* wave);
  void ResetWave(WaveState* wave);
  Status JoinInFlightReorg();
  Status ReduceSession(Session* session, SessionSlot* slot);
  void ExpireGates(bool force);
  void FailSession(Session* session, const Status& status,
                   SessionOutcome outcome = SessionOutcome::kAborted);
  /// Simulated arrival time of a session under the overload config.
  Seconds ArrivalTime(int session_id) const;
  /// Deadline of the session's priority class (<= 0: never shed).
  Seconds DeadlineFor(const Session& session) const;
  /// Sheds one session at its serial reduce point: resolves its future
  /// with a terminal kShed status, drops its captured telemetry
  /// wholesale, and counts it. The decision is a pure function of the
  /// admission order and the simulated clock.
  void ShedSession(Session* session, SessionSlot* slot, Seconds wait,
                   Seconds deadline);
  /// True while the DW-health breaker denies warehouse access.
  bool BreakerOpen() const;
  /// Plan-cache invalidation + telemetry at every breaker edge.
  void OnBreakerEdge(const DwCircuitBreaker::Edge& edge);
  /// Engine-level failure: closes admission, joins any speculative
  /// dispatch (draining in-flight workers before their wave buffers can
  /// be touched), fails every unresolved session in both wave buffers
  /// and the queue with `status`.
  void Fatal(const Status& status);

  ServerConfig config_;

  // The engine: stores, optimizer, tuners, ledger, fault injector, run
  // report. Shared read-only by wave workers during a wave; catalogs,
  // ledger and report mutate only on the scheduler thread between waves.
  sim::Engine engine_;
  std::unique_ptr<BackgroundReorganizer> reorganizer_;

  // Admission: the id assignment and the push happen under one lock, so
  // queue order always equals session-id order.
  BoundedQueue<Session> queue_;
  Mutex admission_mutex_;
  int next_session_id_ MISO_GUARDED_BY(admission_mutex_) = 0;

  // Scheduler-thread state (owned by scheduler_ after construction; read
  // by Finish only after the join).
  // Double-buffered wave storage. Workers write into a wave's slots only
  // between its dispatch and its join; every scheduler-loop exit path
  // (normal drain, fatal) joins outstanding futures first, so no worker
  // can outlive the loop holding pointers into these buffers.
  WaveState waves_[2];
  // Serving-path plan cache (scheduler thread only — see PlanCache).
  PlanCache plan_cache_;
  // Engine shrink count the cache last saw: a view leaving a catalog ends
  // the monotone-growth window the cache keys rest on.
  int cache_shrinks_ = 0;
  // DW-availability of the most recently cache-considered session, for
  // degradation-edge invalidation.
  bool have_last_dw_down_ = false;
  bool last_dw_down_ = false;
  // Runtime-class pipelining tallies (how often speculation ran / was
  // thrown away — timing-dependent, excluded from determinism).
  int waves_speculative_ = 0;
  int waves_replanned_ = 0;
  int next_index_ = 0;  // next admission index to pop (wave-span cuts)
  Seconds last_movement_complete_ = 0;
  std::optional<int> pending_boundary_;
  std::optional<InFlightReorg> in_flight_;
  std::vector<MovementGate> gates_;
  Seconds overlap_saved_total_ = 0;
  // Overload protection (scheduler thread only): breaker engaged iff
  // config_.overload.breaker; shed/failed tallies are model-class.
  std::optional<DwCircuitBreaker> breaker_;
  int sessions_shed_ = 0;
  int sessions_failed_ = 0;
  int breaker_degraded_sessions_ = 0;
  int consecutive_stuck_waves_ = 0;
  Status fatal_;

  bool started_ = false;
  bool finished_ = false;
  std::thread scheduler_;
};

}  // namespace miso::server

#endif  // MISO_SERVER_MISO_SERVER_H_
