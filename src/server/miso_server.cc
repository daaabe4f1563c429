#include "server/miso_server.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>

#include "obs/names.h"
#include "sim/variants.h"
#include "tuner/reorg_journal.h"
#include "verify/error_codes.h"
#include "verify/server_invariants.h"
#include "verify/verify_gate.h"

namespace miso::server {

using views::View;
using views::ViewCatalog;
using views::ViewId;

/// Per-session output slot, written by exactly one wave worker and read
/// by the serial reducer. Slots are pooled in the wave buffers and reused
/// across waves; `Reset` clears content but keeps vector capacity (the
/// allocation diet).
struct MisoServer::SessionSlot : sim::QueryWork {
  // `fill` marks an authoritative cache miss whose computed plan is
  // inserted by the serial insert pass; `key` is its cache key.
  bool fill = false;
  PlanCacheKey key;

  void Reset() {
    sim::QueryWork::Reset();
    fill = false;
    key = PlanCacheKey();
  }

  void AdoptEntry(const PlanCache::Entry& entry) {
    ms = entry.plan;
    opt_trace_lines = entry.trace_lines;
    opt_histogram_obs = entry.histogram_obs;
    opt_counter_deltas = entry.counter_deltas;
    plan_ready = true;
  }
};

MisoServer::MisoServer(const relation::Catalog* catalog,
                       const ServerConfig& config)
    : config_(config),
      engine_(catalog, config.sim, config.expected_sessions),
      queue_(config.admission_capacity == 0 ? 1 : config.admission_capacity),
      plan_cache_(config.plan_cache_bytes) {
  const sim::SimConfig& cfg = config_.sim;
  if (config_.wave_size < 1) config_.wave_size = 1;
  if (config_.overload.breaker) breaker_.emplace(config_.overload);

  if (sim::Engine::NeedsWholeWorkload(cfg.variant)) {
    // An online server never knows the future. Refusing at construction
    // keeps every Submit on the rejected server failing fast with this
    // status.
    fatal_ = Status::InvalidArgument(
        std::string(sim::SystemVariantToString(cfg.variant)) +
        " needs the whole workload up front; use MultistoreSimulator");
    queue_.Close();
    return;
  }

  reorganizer_ = std::make_unique<BackgroundReorganizer>(&engine_);
  scheduler_ = std::thread([this] { SchedulerLoop(); });
  started_ = true;
}

MisoServer::~MisoServer() {
  queue_.Close();
  if (scheduler_.joinable()) scheduler_.join();
}

std::future<SessionResult> MisoServer::Submit(workload::WorkloadQuery query) {
  Session session;
  session.query = std::move(query);
  session.promise = std::make_shared<std::promise<SessionResult>>();
  // miso-lint: allow(L003) runtime-class session-latency stamp, see docs/TELEMETRY.md
  session.admitted_at = std::chrono::steady_clock::now();
  std::shared_ptr<std::promise<SessionResult>> promise = session.promise;
  std::future<SessionResult> future = promise->get_future();

  bool admitted = false;
  int session_id = 0;
  {
    // Id assignment and push under one lock: queue order == id order.
    // Push blocks on backpressure; the scheduler drains without taking
    // this lock, so a blocked push always completes (or the queue closes).
    MutexLock lock(admission_mutex_);
    session.session_id = next_session_id_;
    session_id = session.session_id;
    admitted = queue_.Push(std::move(session));
    if (admitted) next_session_id_ += 1;
  }
  if (!admitted) {
    SessionResult rejected;
    rejected.session_id = session_id;
    rejected.outcome = SessionOutcome::kAborted;
    rejected.status = !started_ && !fatal_.ok()
                          ? fatal_
                          : Status::FailedPrecondition(
                                "server closed: session not admitted");
    promise->set_value(std::move(rejected));
  }
  return future;
}

void MisoServer::Close() { queue_.Close(); }

Result<sim::RunReport> MisoServer::Finish() {
  queue_.Close();
  if (scheduler_.joinable()) scheduler_.join();
  if (!fatal_.ok()) return fatal_;
  sim::RunReport& report = engine_.report();
  if (!finished_) {
    finished_ = true;
    engine_.Finish();
    const PlanCache::Stats cache_stats = plan_cache_.GetStats();
    report.plan_cache_hits = cache_stats.hits;
    report.plan_cache_misses = cache_stats.misses;
    report.plan_cache_evictions = cache_stats.evictions;
    report.plan_cache_invalidations = cache_stats.invalidations;
    report.waves_speculative = waves_speculative_;
    report.waves_replanned = waves_replanned_;
    {
      MutexLock lock(admission_mutex_);
      report.sessions_admitted = next_session_id_;
    }
    report.sessions_shed = sessions_shed_;
    report.sessions_failed = sessions_failed_;
    report.breaker_degraded_sessions = breaker_degraded_sessions_;
    if (breaker_) {
      report.breaker_transitions = breaker_->transitions();
      report.breaker_open_s = breaker_->OpenSeconds(engine_.now());
    }
    if (obs::MetricsOn()) {
      obs::Metrics()
          .GetGauge(obs::names::kServerAdmissionQueueHighWater)
          ->Max(static_cast<double>(queue_.high_water()));
    }
  }
  if (config_.overload.Enabled()) {
    // V212: every admitted session must land in exactly one terminal
    // bucket on a non-fatal run.
    MISO_RETURN_IF_ERROR(verify::VerifyShedAccounting(
        report.sessions_admitted, static_cast<int>(report.queries.size()),
        report.sessions_shed, report.sessions_failed));
  }
  return report;
}

void MisoServer::SchedulerLoop() {
  // Double-buffered wave pipeline: while `cur` reduces serially on this
  // thread, `next` may already be planning/executing speculatively on
  // the worker pool (Speculate). The speculation is joined and
  // fingerprint-validated before `next` becomes current (EnsurePlanned),
  // so reorg boundaries, movement gates, and the serial reduce order all
  // behave exactly as in the unpipelined loop.
  WaveState* cur = &waves_[0];
  WaveState* next = &waves_[1];
  FormWave(cur);
  while (!cur->sessions.empty()) {
    if (pending_boundary_) {
      const int boundary = *pending_boundary_;
      pending_boundary_.reset();
      const Status status = StartBoundaryReorg(boundary);
      if (!status.ok()) {
        Fatal(status);
        return;
      }
    }
    EnsurePlanned(cur);
    Speculate(cur, next);
    // Movement charging happens before any of this wave's sessions
    // reduce: these sessions planned against the flipped design, so the
    // epoch's movement gate must exist before they can wait on it.
    if (in_flight_) {
      const Status status = JoinInFlightReorg();
      if (!status.ok()) {
        Fatal(status);
        return;
      }
    }
    const Status status = ReduceWave(cur);
    if (!status.ok()) {
      Fatal(status);
      return;
    }
    ResetWave(cur);
    std::swap(cur, next);
    if (cur->sessions.empty()) FormWave(cur);
  }
  // Drain epilogue. A boundary pending at shutdown is dropped — the
  // simulator skips a reorganization after the last query the same way.
  // No speculation can be outstanding here: a speculative wave always
  // becomes `cur` at the swap, and the loop only exits on an empty,
  // never-speculated `cur`.
  if (in_flight_) {
    const Status status = JoinInFlightReorg();
    if (!status.ok()) {
      Fatal(status);
      return;
    }
  }
  ExpireGates(/*force=*/true);
}

int MisoServer::WaveSpan() const {
  // Fixed-span waves cut by admission index: a wave never crosses a
  // query-count epoch boundary, so its span — hence its composition —
  // is a pure function of the admission order, never of timing.
  int span = config_.wave_size;
  if (config_.sim.reorg_every > 0) {
    const int to_boundary =
        config_.sim.reorg_every - (next_index_ % config_.sim.reorg_every);
    span = std::min(span, to_boundary);
  }
  return span;
}

void MisoServer::FormWave(WaveState* wave) {
  const int span = WaveSpan();
  wave->sessions.reserve(static_cast<size_t>(span));
  while (static_cast<int>(wave->sessions.size()) < span) {
    std::optional<Session> session = queue_.Pop();
    if (!session) break;
    wave->sessions.push_back(std::move(*session));
    next_index_ += 1;
  }
}

bool MisoServer::TryFormWave(WaveState* wave) {
  // All-or-nothing (full span, or the final partial batch of a closed
  // queue): the batch boundaries TryPopBatch cuts are exactly the ones
  // the blocking FormWave would cut, so speculation never changes wave
  // composition — only when the planning work happens.
  const std::size_t got = queue_.TryPopBatch(
      static_cast<std::size_t>(WaveSpan()), &wave->sessions);
  next_index_ += static_cast<int>(got);
  return got > 0;
}

Status MisoServer::StartBoundaryReorg(int boundary_session) {
  // While the DW-health breaker has the warehouse resting, the
  // reorganization is deferred exactly like during an outage.
  if (engine_.DeferReorg(boundary_session, BreakerOpen())) return Status();
  if (config_.online_reorg) return StartOnlineReorg(boundary_session);
  MISO_RETURN_IF_ERROR(engine_.Reorganize(boundary_session));
  last_movement_complete_ = engine_.now();
  return Status();
}

Status MisoServer::StartOnlineReorg(int boundary_session) {
  const int reorg_index = engine_.StartReorg();
  ReorgRequest request;
  request.reorg_index = reorg_index;
  request.hv = engine_.hv_catalog();  // boundary snapshots: the walk's
  request.dw = engine_.dw_catalog();  // private copies
  request.window = engine_.TuneWindow(boundary_session);
  request.budgets = engine_.Budgets();
  request.injector = engine_.injector();
  request.recovery = engine_.fault_plan().recovery;
  std::future<Result<ReorgFlip>> flip_future = request.flip.get_future();
  std::future<Result<ReorgOutcome>> done_future = request.done.get_future();
  reorganizer_->Enqueue(std::move(request));

  // Block on the flip only: tune + journal construction + the crash
  // oracle. The step-at-a-time walk overlaps with the next waves.
  Result<ReorgFlip> flip = flip_future.get();
  if (!flip.ok()) return flip.status();

  InFlightReorg in_flight;
  in_flight.reorg_index = reorg_index;
  in_flight.boundary_session = boundary_session;
  in_flight.start_now = std::max(engine_.now(), last_movement_complete_);
  in_flight.crash_before = flip->crash_before;
  in_flight.rolled_back = flip->rolled_back;
  in_flight.done = std::move(done_future);

  if (!flip->rolled_back) {
    for (const View& v : flip->plan.move_to_dw) in_flight.moved.insert(v.id);
    for (const View& v : flip->plan.move_to_hv) in_flight.moved.insert(v.id);
    // Metadata flip: replay the pristine journal onto the live catalogs,
    // so every post-boundary session plans against the published design —
    // the same plans/costs the stop-the-world cadence would produce. The
    // simulated movement time resolves at the join; sessions reading a
    // moved view wait on its gate.
    tuner::ReorgJournal pristine = std::move(flip->journal);
    MISO_ASSIGN_OR_RETURN(
        const tuner::ReorgJournal::Outcome flipped,
        pristine.Apply(&engine_.hv_catalog(), &engine_.dw_catalog()));
    (void)flipped;
    if (verify::Enabled()) {
      MISO_RETURN_IF_ERROR(verify::VerifyDesign(
          engine_.hv_catalog(), engine_.dw_catalog(), engine_.Budgets()));
    }
    engine_.Publish();
  }
  // A pre-known rollback never flips: the live design stays pre-reorg,
  // which is exactly the state the rollback recovery restores.
  in_flight_ = std::move(in_flight);
  return Status();
}

void MisoServer::EnsurePlanned(WaveState* wave) {
  // Breaker cooldown first, at the serial head of the wave: the open ->
  // half-open edge is driven purely by the simulated clock, so it lands
  // at a point fixed by the admission order.
  if (breaker_) {
    if (std::optional<DwCircuitBreaker::Edge> edge =
            breaker_->AdvanceTime(engine_.now())) {
      OnBreakerEdge(*edge);
    }
  }
  const size_t n = wave->sessions.size();
  if (wave->slots.size() < n) wave->slots.resize(n);
  bool already_planned = false;
  if (wave->speculative) {
    for (std::future<void>& future : wave->futures) future.get();
    wave->futures.clear();
    wave->speculative = false;
    if (obs::MetricsOn()) {
      // miso-lint: allow(L003) runtime-class pipeline-overlap observation, see docs/TELEMETRY.md
      const auto overlap = std::chrono::steady_clock::now() - wave->dispatched_at;
      obs::Metrics()
          .GetHistogram(obs::names::kServerWavePipelineOverlapMs,
                        obs::MillisBuckets())
          ->Observe(
              std::chrono::duration<double, std::milli>(overlap).count());
    }
    // Accept the speculation iff the live design still fingerprint-
    // matches the frozen snapshot it planned against (no harvest, no
    // flip since dispatch) — then every slot holds exactly what planning
    // against the live catalogs would produce, telemetry included.
    // Otherwise throw all of it away and replan below; the discarded
    // slots never touched any global state (captures defer trace lines,
    // histogram observations, and counter deltas), so a rejected
    // speculation is invisible in every model-class output.
    // A breaker edge since dispatch changed DW availability the same way
    // a design flip changes the catalogs, so it rejects the speculation
    // through the same gate.
    if (wave->planned_hv_fp == engine_.hv_catalog().ContentFingerprint() &&
        wave->planned_dw_fp == engine_.dw_catalog().ContentFingerprint() &&
        (!breaker_ ||
         wave->planned_breaker_epoch == breaker_->transition_epoch())) {
      already_planned = true;
    } else {
      waves_replanned_ += 1;
      for (size_t i = 0; i < n; ++i) wave->slots[i].Reset();
    }
  }

  // Serial authoritative cache pass, in admission order on the scheduler
  // thread: design-shrink and outage-edge invalidation, then lookup.
  // With speculation accepted this recomputes exactly the decisions
  // `Speculate` peeked (the cache cannot have changed in between — it
  // only mutates here), so hit/miss counts are independent of whether
  // speculation ran.
  const bool cache_on = config_.plan_cache;
  uint64_t hv_fp = 0;
  uint64_t dw_fp = 0;
  if (cache_on) {
    // A view left a catalog since the last pass (a published flip, an
    // HV-OP eviction): wholesale invalidation. Content fingerprints omit
    // view ids, so a design that shrank and regrew must never alias.
    if (engine_.shrinks() != cache_shrinks_) plan_cache_.Invalidate();
    hv_fp = engine_.hv_catalog().ContentFingerprint();
    dw_fp = engine_.dw_catalog().ContentFingerprint();
  }
  cache_shrinks_ = engine_.shrinks();
  int64_t hits = 0;
  int64_t misses = 0;
  for (size_t i = 0; i < n; ++i) {
    SessionSlot& slot = wave->slots[i];
    const Session& session = wave->sessions[i];
    const int qi = session.session_id;
    slot.dw_down = engine_.DwDown(qi);
    slot.breaker_open = BreakerOpen();
    if (cache_on && engine_.injector() != nullptr &&
        (!have_last_dw_down_ || last_dw_down_ != slot.dw_down)) {
      // Degradation-window edge: HV-only plans and normal plans must
      // never alias, so the cache resets wholesale at every edge.
      if (have_last_dw_down_) plan_cache_.Invalidate();
      have_last_dw_down_ = true;
      last_dw_down_ = slot.dw_down;
    }
    // Degraded (outage or breaker-open) sessions never hit/populate the
    // cache; breaker edges invalidate it wholesale in OnBreakerEdge.
    if (!cache_on || slot.dw_down || slot.breaker_open) continue;
    slot.key.query_signature = session.query.plan.signature();
    slot.key.hv_fingerprint = hv_fp;
    slot.key.dw_fingerprint = dw_fp;
    if (const PlanCache::Entry* entry = plan_cache_.Lookup(slot.key)) {
      hits += 1;
      if (!slot.plan_ready) slot.AdoptEntry(*entry);
    } else {
      misses += 1;
      slot.fill = true;
    }
  }

  if (!already_planned) {
    // The concurrent part: sessions plan (unless cache-hit) and execute
    // against the frozen design into their own slots, while the
    // background thread (if a reorganization is in flight) walks its
    // journal. The catalogs are frozen for the whole fan-out — the
    // scheduler blocks here and is the only mutator.
    const ViewCatalog& hv_views = engine_.hv_catalog();
    const ViewCatalog& dw_views = engine_.dw_catalog();
    ParallelFor(engine_.pool(), static_cast<int>(n), [&](int i) {
      const Session& session = wave->sessions[static_cast<size_t>(i)];
      engine_.PlanAndExecute(session.query.plan, session.session_id,
                             hv_views, dw_views,
                             &wave->slots[static_cast<size_t>(i)]);
    });
  }

  // Serial insert pass, in admission order: every authoritative miss
  // whose plan was computed successfully becomes an entry.
  int64_t evicted = 0;
  for (size_t i = 0; i < n; ++i) {
    SessionSlot& slot = wave->slots[i];
    if (!slot.fill || !slot.plan_ready) continue;
    PlanCache::Entry entry;
    entry.plan = slot.ms;
    entry.trace_lines = slot.opt_trace_lines;
    entry.histogram_obs = slot.opt_histogram_obs;
    entry.counter_deltas = slot.opt_counter_deltas;
    evicted += plan_cache_.Insert(slot.key, std::move(entry));
  }

  if (obs::MetricsOn() && cache_on) {
    obs::MetricsRegistry& registry = obs::Metrics();
    if (hits > 0) {
      registry.GetCounter(obs::names::kServerPlanCacheHits)->Add(hits);
    }
    if (misses > 0) {
      registry.GetCounter(obs::names::kServerPlanCacheMisses)->Add(misses);
    }
    if (evicted > 0) {
      registry.GetCounter(obs::names::kServerPlanCacheEvictions)->Add(evicted);
    }
  }
}

void MisoServer::Speculate(const WaveState* cur, WaveState* next) {
  if (!config_.pipeline_waves || engine_.pool() == nullptr) return;
  // A query-count boundary right after `cur` will flip the design before
  // `next` runs — planning against the pre-flip catalogs would be
  // guaranteed waste, so don't. (Time-triggered boundaries can't be
  // predicted here; the fingerprint validation at the join catches
  // those, at the cost of one discarded speculation.)
  if (config_.sim.reorg_every > 0 && !cur->sessions.empty() &&
      (cur->sessions.back().session_id + 1) % config_.sim.reorg_every == 0) {
    return;
  }
  if (!TryFormWave(next)) return;

  // Freeze the design: workers read these snapshots (and only these)
  // while the scheduler reduces `cur` — which may harvest views into the
  // live catalogs — and a boundary reorganization may even flip the live
  // design before the join. The fingerprint comparison at the join
  // decides whether the frozen answers are still the live answers.
  next->hv_snapshot = engine_.hv_catalog();
  next->dw_snapshot = engine_.dw_catalog();
  next->planned_hv_fp = next->hv_snapshot.ContentFingerprint();
  next->planned_dw_fp = next->dw_snapshot.ContentFingerprint();
  next->planned_breaker_epoch = breaker_ ? breaker_->transition_epoch() : 0;

  const size_t n = next->sessions.size();
  if (next->slots.size() < n) next->slots.resize(n);
  for (size_t i = 0; i < n; ++i) {
    SessionSlot& slot = next->slots[i];
    slot.Reset();
    const int qi = next->sessions[i].session_id;
    slot.dw_down = engine_.DwDown(qi);
    slot.breaker_open = BreakerOpen();
    if (config_.plan_cache && !slot.dw_down && !slot.breaker_open) {
      // Uncounted peek: the authoritative (counted) lookup happens in
      // EnsurePlanned's serial pass, and returns the same answer — the
      // cache only mutates on this thread, and not between here and
      // there.
      PlanCacheKey key;
      key.query_signature = next->sessions[i].query.plan.signature();
      key.hv_fingerprint = next->planned_hv_fp;
      key.dw_fingerprint = next->planned_dw_fp;
      if (const PlanCache::Entry* entry = plan_cache_.Peek(key)) {
        slot.AdoptEntry(*entry);
      }
    }
  }

  // miso-lint: allow(L003) runtime-class pipeline-overlap stamp, see docs/TELEMETRY.md
  next->dispatched_at = std::chrono::steady_clock::now();
  next->futures.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Session* session = &next->sessions[i];
    SessionSlot* slot = &next->slots[i];
    const ViewCatalog* hv_views = &next->hv_snapshot;
    const ViewCatalog* dw_views = &next->dw_snapshot;
    next->futures.push_back(engine_.pool()->Submit([this, session, slot,
                                                    hv_views, dw_views] {
      engine_.PlanAndExecute(session->query.plan, session->session_id,
                             *hv_views, *dw_views, slot);
    }));
  }
  next->speculative = true;
  waves_speculative_ += 1;
}

Status MisoServer::ReduceWave(WaveState* wave) {
  // V211 latches inside the breaker on an illegal edge (a server bug,
  // never an operator condition); escalate it to a run-level fatal here.
  if (breaker_ && !breaker_->status().ok()) return breaker_->status();
  sim::RunReport& report = engine_.report();
  const size_t n = wave->sessions.size();
  const size_t completed_before = report.queries.size();
  for (size_t i = 0; i < n; ++i) {
    Session& session = wave->sessions[i];
    MISO_RETURN_IF_ERROR(ReduceSession(&session, &wave->slots[i]));
    // Deferred boundary: the reorganization starts only once a
    // post-boundary session actually arrives (next FormWave), so a
    // trailing boundary is skipped exactly like the simulator's.
    if (!pending_boundary_ && engine_.ReorgDue(session.session_id)) {
      pending_boundary_ = session.session_id;
    }
  }
  report.waves += 1;
  if (obs::MetricsOn()) {
    obs::Metrics().GetCounter(obs::names::kServerWaves)->Increment();
  }
  // Stuck-wave watchdog, in simulated/admission terms only: a wave that
  // reduced sessions without completing a single one (everything shed or
  // failed) counts as stuck, and a configured streak of them fails fast
  // with a diagnosable verdict instead of grinding to the drain.
  if (config_.overload.watchdog_stuck_waves > 0 && n > 0) {
    if (report.queries.size() == completed_before) {
      consecutive_stuck_waves_ += 1;
    } else {
      consecutive_stuck_waves_ = 0;
    }
    if (consecutive_stuck_waves_ >= config_.overload.watchdog_stuck_waves) {
      return verify::MakeVerifyError(
          verify::VerifyCode::kServerWaveStuck,
          "watchdog: " + std::to_string(consecutive_stuck_waves_) +
              " consecutive waves (through wave " +
              std::to_string(report.waves) +
              ") reduced without one completed session; shed=" +
              std::to_string(sessions_shed_) +
              " failed=" + std::to_string(sessions_failed_));
    }
  }
  return Status();
}

void MisoServer::ResetWave(WaveState* wave) {
  wave->sessions.clear();
  for (SessionSlot& slot : wave->slots) slot.Reset();
  wave->futures.clear();
  wave->speculative = false;
  wave->planned_hv_fp = 0;
  wave->planned_dw_fp = 0;
  wave->planned_breaker_epoch = 0;
}

Status MisoServer::JoinInFlightReorg() {
  InFlightReorg reorg = std::move(*in_flight_);
  in_flight_.reset();
  Result<ReorgOutcome> outcome = reorg.done.get();
  if (!outcome.ok()) return outcome.status();

  // Serial replay of the background thread's telemetry: the tuner's
  // trace lines and FP histogram observations land here, at a point
  // fixed by the admission order.
  obs::ScopedHistogramCapture::Replay(outcome->histogram_obs);
  for (std::string& line : outcome->trace_lines) {
    obs::EmitLine(std::move(line));
  }

  const tuner::ReorgJournal::Outcome& partial = outcome->partial;
  const tuner::ReorgJournal::Outcome& recovery = outcome->recovery;
  Seconds duration = config_.sim.tune_compute_s;
  engine_.ChargeMoves(partial.bytes_to_dw, partial.bytes_to_hv,
                      reorg.start_now, &duration);
  if (reorg.crash_before >= 0) {
    duration += engine_.fault_plan().retry.BackoffBefore(2);
    engine_.ChargeMoves(recovery.bytes_to_dw, recovery.bytes_to_hv,
                        reorg.start_now, &duration);
    engine_.RecordCrash(reorg.reorg_index, reorg.crash_before, partial,
                        recovery);
  }
  last_movement_complete_ = reorg.start_now + duration;

  MovementGate gate;
  gate.snapshot.reorg_index = reorg.reorg_index;
  gate.snapshot.boundary_session = reorg.boundary_session;
  gate.snapshot.rolled_back = reorg.rolled_back;
  gate.snapshot.steps_applied = partial.steps + recovery.steps;
  gate.snapshot.moved_to_dw = partial.bytes_to_dw + recovery.bytes_to_dw;
  gate.snapshot.moved_to_hv = partial.bytes_to_hv + recovery.bytes_to_hv;
  gate.snapshot.reorg_duration_s = duration;
  engine_.CompleteReorg(&gate.snapshot);
  // A rolled-back reorganization publishes nothing: no session can read
  // a moved view, so its gate expires immediately and the whole duration
  // counts as overlap saved.
  gate.complete_at =
      reorg.rolled_back ? reorg.start_now : reorg.start_now + duration;
  if (!reorg.rolled_back) gate.moved = std::move(reorg.moved);
  gates_.push_back(std::move(gate));
  return Status();
}

Status MisoServer::ReduceSession(Session* session, SessionSlot* slot) {
  const int qi = session->session_id;
  const Seconds now = engine_.now();

  // Load shedding first, before any of this session's telemetry or
  // clock advance lands: the decision reads only the simulated clock,
  // the session's deterministic arrival time, and its priority class,
  // so it is a pure function of the admission order. A shed session's
  // worker output (it already planned/executed into the slot) is
  // dropped wholesale, exactly like a rejected speculation.
  if (config_.overload.admission_deadlines) {
    const Seconds deadline = DeadlineFor(*session);
    const Seconds queue_wait = now - ArrivalTime(qi);
    if (deadline > 0 && queue_wait > deadline) {
      ShedSession(session, slot, queue_wait, deadline);
      return Status();
    }
  }

  // Movement gate: a session whose executed plan reads a view that is
  // still physically in motion waits (simulated time) for the movement
  // to complete; everyone else overlaps with it.
  Seconds wait = 0;
  MovementGate* binding = nullptr;
  auto reads = [](const std::set<ViewId>& moved,
                  const std::vector<ViewId>& used) {
    for (ViewId id : used) {
      if (moved.count(id) > 0) return true;
    }
    return false;
  };
  for (MovementGate& gate : gates_) {
    if (gate.complete_at <= now || gate.moved.empty()) continue;
    if ((reads(gate.moved, slot->hv_used) ||
         reads(gate.moved, slot->dw_used)) &&
        gate.complete_at - now > wait) {
      wait = gate.complete_at - now;
      binding = &gate;
    }
  }

  Result<const sim::QueryRecord*> reduced =
      engine_.Reduce(session->query.plan, qi, slot, wait);
  if (!reduced.ok()) {
    // A session-level failure (fault-retry budget ran dry) fails only
    // this session's future; the server keeps serving — the one
    // deliberate divergence from the simulator, which aborts the run.
    sessions_failed_ += 1;
    if (config_.overload.Enabled() && obs::MetricsOn()) {
      obs::Metrics().GetCounter(obs::names::kServerSessionsFailed)
          ->Increment();
    }
    // An exhausted DW path is the strongest health signal there is —
    // the breaker hears about it even though the session died on it.
    if (breaker_) {
      const bool dw_contact =
          slot->plan_ready && !slot->ms.HvOnly() && !slot->dw_down;
      const bool dw_faulted = slot->ws.injected > 0 || slot->ws.exhausted;
      if (std::optional<DwCircuitBreaker::Edge> edge =
              breaker_->RecordOutcome(dw_contact, dw_faulted, now)) {
        OnBreakerEdge(*edge);
      }
    }
    FailSession(session, reduced.status(), SessionOutcome::kFailed);
    return Status();
  }
  if (binding != nullptr) binding->charged += wait;
  const sim::QueryRecord& record = **reduced;
  if (record.breaker_degraded) breaker_degraded_sessions_ += 1;

  // DW-health evidence: sessions whose plan actually touched the
  // warehouse report whether the DW path (transfer / load sites, never
  // HV job faults) injected failures. Degraded sessions ran HV-only and
  // carry no evidence. Fed at the serial reduce point against the
  // simulated clock, so every breaker edge is model-class.
  if (breaker_) {
    const bool dw_contact = !slot->ms.HvOnly() && !record.degraded;
    const bool dw_faulted = slot->ws.injected > 0 || slot->ws.exhausted;
    if (std::optional<DwCircuitBreaker::Edge> edge = breaker_->RecordOutcome(
            dw_contact, dw_faulted, engine_.now())) {
      OnBreakerEdge(*edge);
    }
  }

  // Server-level observer: a non-OK verdict fails this session and
  // everything after it (the caller escalates to Fatal; this session's
  // promise is still unresolved and fails there).
  if (config_.reduce_observer) {
    MISO_RETURN_IF_ERROR(config_.reduce_observer(record));
  }

  if (obs::MetricsOn()) {
    // miso-lint: allow(L003) runtime-class session-latency observation, see docs/TELEMETRY.md
    const auto elapsed = std::chrono::steady_clock::now() - session->admitted_at;
    obs::Metrics()
        .GetHistogram(obs::names::kServerSessionLatencyMs, obs::MillisBuckets())
        ->Observe(std::chrono::duration<double, std::milli>(elapsed).count());
  }

  SessionResult result;
  result.session_id = qi;
  result.epoch = record.epoch;
  result.record = record;
  session->promise->set_value(std::move(result));
  session->promise.reset();

  // Gates this session's clock advance crossed expire now (emitting
  // their reorganization trace event with the final overlap figure).
  ExpireGates(/*force=*/false);
  return Status();
}

void MisoServer::ExpireGates(bool force) {
  // `complete_at` is monotone across gates (each movement starts no
  // earlier than the previous one completed), so front-popping suffices.
  while (!gates_.empty() &&
         (force || gates_.front().complete_at <= engine_.now())) {
    const MovementGate& gate = gates_.front();
    const Seconds saved = std::max<Seconds>(
        0, gate.snapshot.reorg_duration_s - gate.charged);
    overlap_saved_total_ += saved;
    engine_.report().reorg_overlap_saved_s = overlap_saved_total_;
    if (obs::MetricsOn()) {
      obs::Metrics().GetGauge(obs::names::kServerOverlapSavedSeconds)
          ->Set(overlap_saved_total_);
    }
    engine_.EmitReorgTrace(gate.snapshot, saved);
    gates_.erase(gates_.begin());
  }
}

void MisoServer::FailSession(Session* session, const Status& status,
                             SessionOutcome outcome) {
  if (!session->promise) return;
  SessionResult result;
  result.session_id = session->session_id;
  result.epoch = engine_.epoch();
  result.status = status;
  result.outcome = outcome;
  session->promise->set_value(std::move(result));
  session->promise.reset();
}

Seconds MisoServer::ArrivalTime(int session_id) const {
  // Simulated arrival: session i arrives at i * interval. With the
  // default interval 0 every session arrives at t=0 and "queue wait" is
  // the simulated completion clock itself.
  return config_.overload.arrival_interval_s * session_id;
}

Seconds MisoServer::DeadlineFor(const Session& session) const {
  const OverloadConfig& overload = config_.overload;
  if (overload.classes.empty()) return 0;  // one implicit class, no deadline
  int cls = 0;
  if (overload.classifier) {
    cls = overload.classifier(session.query, session.session_id);
  }
  cls = std::clamp(cls, 0, static_cast<int>(overload.classes.size()) - 1);
  return overload.classes[static_cast<size_t>(cls)].deadline_s;
}

void MisoServer::ShedSession(Session* session, SessionSlot* slot,
                             Seconds wait, Seconds deadline) {
  // The slot's captured telemetry is deliberately dropped — a shed
  // session is invisible in every model-class output except the shed
  // count itself.
  (void)slot;
  sessions_shed_ += 1;
  if (obs::MetricsOn()) {
    obs::Metrics().GetCounter(obs::names::kServerSessionsShed)->Increment();
  }
  SessionResult result;
  result.session_id = session->session_id;
  result.epoch = engine_.epoch();
  result.outcome = SessionOutcome::kShed;
  result.status = Status::OutOfBudget(
      "session " + std::to_string(session->session_id) +
      " shed: simulated queue wait " + std::to_string(wait) +
      "s exceeded its class deadline " + std::to_string(deadline) + "s");
  session->promise->set_value(std::move(result));
  session->promise.reset();
}

bool MisoServer::BreakerOpen() const {
  return breaker_.has_value() && breaker_->state() == BreakerState::kOpen;
}

void MisoServer::OnBreakerEdge(const DwCircuitBreaker::Edge& edge) {
  // Every edge flips DW availability for planning, so cached plans from
  // the previous regime must never serve the new one — wholesale
  // invalidation, exactly like a DW-outage degradation edge.
  if (config_.plan_cache) plan_cache_.Invalidate();
  if (obs::MetricsOn()) {
    obs::MetricsRegistry& registry = obs::Metrics();
    registry.GetCounter(obs::names::kServerBreakerTransitions)->Increment();
    registry.GetGauge(obs::names::kServerBreakerOpenMs)
        ->Set(breaker_->OpenSeconds(edge.at) * 1000.0);
  }
  if (obs::TraceOn()) {
    obs::Emit(obs::TraceEvent(obs::names::kEvServerBreaker)
                  .Str("from", BreakerStateName(edge.from))
                  .Str("to", BreakerStateName(edge.to))
                  .Int("failures", edge.failures)
                  .Double("at_s", edge.at)
                  .Double("open_s", breaker_->OpenSeconds(edge.at)));
  }
}

void MisoServer::Fatal(const Status& status) {
  fatal_ = status;
  queue_.Close();
  for (WaveState& wave : waves_) {
    // Drain any speculative dispatch first: workers must finish writing
    // their slots (and release the frozen snapshots) before the buffers
    // are failed, so a fatal mid-pipeline never races or leaks a future.
    for (std::future<void>& future : wave.futures) future.get();
    wave.futures.clear();
    wave.speculative = false;
    // Already-reduced sessions hold a null promise and are skipped.
    for (Session& session : wave.sessions) FailSession(&session, status);
    wave.sessions.clear();
  }
  while (std::optional<Session> session = queue_.Pop()) {
    FailSession(&*session, status);
  }
}

}  // namespace miso::server
