//! Background incremental-merge worker: drains advisor-scheduled delta
//! merges one bounded slice at a time, so a busy serving loop keeps its
//! tails shrinking without ever taking the full-table stop-the-world remap
//! of [`crate::mover::merge_delta`].
//!
//! The worker owns a queue of [`MergeJob`]s, keyed and deduplicated by
//! `(table, partition)` — a job labelled cold and one labelled whole are
//! distinct queue entries, though both merge the table's one delta region.
//! Each tick the worker picks the
//! job with the highest **accrued-penalty-per-row** score (the table's
//! dictionary-tail entries per merge-region row — the per-row scan
//! degradation its delta is inflicting right now), FIFO on ties, so
//! several tables' merges interleave by urgency instead of arrival order.
//! The selected job advances by one slice through the resumable
//! shadow-rebuild protocol; queries executed between ticks see a fully
//! consistent table, writes are mirrored into the shadow behind the copy
//! cursor, and the dictionary handoff at swap bumps the table's merge
//! epoch ([`crate::database::HybridDatabase::merge_status`]) so observers
//! can detect completion without watching every slice.
//!
//! Slices run through [`crate::mover::merge_slice`]: the
//! sort-heavy dictionary rebuild is planned under a shared read pin
//! (concurrent with scans of the same table), and only the budgeted remap
//! itself holds the table's write latch. Since [`HybridDatabase`] is
//! internally latched per table, the worker never takes a database-wide
//! lock — a merge slice on one table runs in parallel with queries on
//! every other table, and with reads of its own table during the plan
//! phase.
//!
//! The per-slice row budget is set by a [`MergePacer`] that adapts to
//! observed query latency: feed every served query's latency to
//! [`MaintenanceWorker::observe_query_latency`], and the pacer shrinks the
//! budget when the recent p99 degrades against its long-run baseline
//! (merge slices are stealing too much of the serving loop) and grows it
//! when the stream is healthy or idle (spare capacity — finish the merge
//! sooner). This is the classic maintenance governor: total merge work is
//! fixed, the pacer only chooses how finely it is diced.
//!
//! Two execution modes share the same worker:
//!
//! * **Cooperative** (the right mode on a single core): the serving loop
//!   calls [`MaintenanceWorker::tick`] between statements.
//! * **Threaded** ([`BackgroundWorker::spawn`] with the same
//!   [`WorkerConfig`]): a `std::thread` drains slices against an
//!   `Arc<HybridDatabase>` — the multi-core path. Queries and slices
//!   interleave at per-table latch granularity: a query on the merging
//!   table waits at most one budgeted remap, and queries on other tables
//!   never wait at all.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use hsd_storage::MergeProgress;
use hsd_types::Result;

use crate::database::HybridDatabase;
use crate::mover;
use crate::partition::MergePartition;

/// One queued merge job: the table plus the region label it was scheduled
/// under. Jobs are identified (and deduplicated) by the full
/// `(table, partition)` pair — a job labelled cold and a later one labelled
/// whole are distinct work items on the same delta region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeJob {
    /// Table the merge targets.
    pub table: String,
    /// Region label, logged with the completed merge.
    pub partition: MergePartition,
}

/// Settings of the [`MergePacer`].
#[derive(Debug, Clone)]
pub struct PacerConfig {
    /// Starting per-slice remap budget (rows).
    pub initial_budget: usize,
    /// Budget floor: the merge always makes progress, however loaded the
    /// serving loop is (no live-lock under sustained degradation). A value
    /// of 0 is treated as 1 — a zero floor would wedge the budget at zero
    /// rows forever, silently stalling every queued merge.
    pub min_budget: usize,
    /// Budget ceiling: one slice never grows into an unbounded pause. A
    /// ceiling below the (sanitized) floor is raised to it.
    pub max_budget: usize,
    /// Shrink trigger: recent p99 latency above `baseline ×
    /// degrade_threshold` counts as degradation.
    pub degrade_threshold: f64,
    /// Multiplicative budget shrink on degradation (e.g. `0.5`).
    pub shrink: f64,
    /// Multiplicative budget growth when healthy or idle (e.g. `1.5`).
    pub grow: f64,
    /// Number of recent latency samples the p99 is computed over.
    pub window: usize,
    /// Weight of a new sample in the long-run baseline EWMA. Small values
    /// make the baseline deliberately sluggish, so transient merge-induced
    /// degradation shows up against it instead of being absorbed.
    pub baseline_decay: f64,
}

impl Default for PacerConfig {
    fn default() -> Self {
        PacerConfig {
            initial_budget: 4_096,
            min_budget: 256,
            max_budget: 1 << 20,
            degrade_threshold: 1.5,
            shrink: 0.5,
            grow: 1.5,
            window: 64,
            baseline_decay: 0.05,
        }
    }
}

/// Latency-adaptive slice-budget governor (see the module docs).
#[derive(Debug)]
pub struct MergePacer {
    cfg: PacerConfig,
    budget: usize,
    /// Long-run EWMA of query latency — the "normal" the p99 is judged
    /// against. `None` until the first sample.
    baseline_ms: Option<f64>,
    /// Ring of the most recent latency samples.
    recent: VecDeque<f64>,
    /// Samples observed since the last slice (0 = the stream is idle).
    since_slice: usize,
    /// Consecutive slices with no observed query. The budget grows once
    /// per idle streak, not once per idle tick — a threaded worker ticks
    /// far more often than statements arrive, and compounding growth on
    /// every self-paced tick would blow the budget to its ceiling between
    /// two queries.
    idle_streak: u32,
}

impl MergePacer {
    /// The sanitized `(floor, ceiling)` clamp bounds: a zero floor becomes
    /// 1 (a 0-row budget can never make progress), an inverted ceiling is
    /// raised to the floor (`usize::clamp` panics on `min > max`). The
    /// documented fallback for nonsensical configs, not an error path.
    fn bounds(cfg: &PacerConfig) -> (usize, usize) {
        let floor = cfg.min_budget.max(1);
        (floor, cfg.max_budget.max(floor))
    }

    /// Pacer with the given settings.
    pub fn new(cfg: PacerConfig) -> Self {
        let (floor, ceil) = Self::bounds(&cfg);
        let budget = cfg.initial_budget.clamp(floor, ceil);
        MergePacer {
            cfg,
            budget,
            baseline_ms: None,
            recent: VecDeque::new(),
            since_slice: 0,
            idle_streak: 0,
        }
    }

    /// Record one served query's latency.
    pub fn observe_query_latency(&mut self, ms: f64) {
        if !ms.is_finite() || ms < 0.0 {
            return;
        }
        self.baseline_ms = Some(match self.baseline_ms {
            None => ms,
            Some(b) => self.cfg.baseline_decay * ms + (1.0 - self.cfg.baseline_decay) * b,
        });
        if self.recent.len() == self.cfg.window.max(1) {
            self.recent.pop_front();
        }
        self.recent.push_back(ms);
        self.since_slice += 1;
    }

    /// p99 of the recent window (max of the window when it is small).
    fn recent_p99(&self) -> Option<f64> {
        if self.recent.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = self.recent.iter().copied().collect();
        // total_cmp: the window is filtered to finite samples on entry, but
        // a defensive total order costs nothing and can never panic.
        sorted.sort_by(f64::total_cmp);
        let idx = ((sorted.len() as f64) * 0.99).ceil() as usize;
        Some(sorted[idx.min(sorted.len()) - 1])
    }

    /// Decide the budget for the next slice: shrink on degradation, grow
    /// when healthy or (once per streak) when idle. Called by the worker
    /// once per tick.
    fn next_budget(&mut self) -> usize {
        let observed = std::mem::take(&mut self.since_slice);
        let factor = if observed == 0 {
            // No queries since the last slice: the stream is idle, spare
            // capacity belongs to the merge — but grow only on the first
            // idle tick, so a self-paced (threaded) worker does not
            // compound its budget to the ceiling between two queries.
            self.idle_streak += 1;
            if self.idle_streak > 1 {
                1.0
            } else {
                self.cfg.grow
            }
        } else {
            self.idle_streak = 0;
            let degraded = match (self.recent_p99(), self.baseline_ms) {
                (Some(p99), Some(base)) => p99 > base * self.cfg.degrade_threshold,
                _ => false,
            };
            if degraded {
                self.cfg.shrink
            } else {
                self.cfg.grow
            }
        };
        // Apply the factor with a guaranteed ≥1-row step toward the clamp
        // bound: with a small budget and a factor near 1.0, rounding alone
        // can be a no-op, leaving a degraded stream that never backs off
        // (or an idle one that never grows).
        let scaled = (self.budget as f64 * factor).round() as usize;
        let next = if factor < 1.0 {
            scaled.min(self.budget.saturating_sub(1))
        } else if factor > 1.0 {
            scaled.max(self.budget.saturating_add(1))
        } else {
            scaled
        };
        let (floor, ceil) = Self::bounds(&self.cfg);
        self.budget = next.clamp(floor, ceil);
        self.budget
    }

    /// The budget the next slice will get (without advancing the pacer).
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The long-run latency baseline, if any sample arrived yet.
    pub fn baseline_ms(&self) -> Option<f64> {
        self.baseline_ms
    }
}

/// Settings of the maintenance worker (shared by both execution modes:
/// construct a [`MaintenanceWorker`] for cooperative ticking, or pass the
/// same config to [`BackgroundWorker::spawn`] for the `std::thread` mode).
#[derive(Debug, Clone, Default)]
pub struct WorkerConfig {
    /// Pacer settings.
    pub pacer: PacerConfig,
    /// Fault injection: make the next N slice executions panic before
    /// touching the database. Test-only knob (default 0) for exercising the
    /// worker's panic containment — a panicking slice must not wedge the
    /// engine or take it down.
    pub fault_slice_panics: u32,
}

/// Pollable worker condition. A slice panic marks the worker
/// [`WorkerHealth::Unhealthy`] (sticky, with the first panic's message);
/// the worker itself keeps running and the database stays usable — the
/// status exists so operators notice instead of losing merges silently.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum WorkerHealth {
    /// No slice has panicked.
    #[default]
    Healthy,
    /// At least one slice panicked; the first panic's message is kept.
    Unhealthy {
        /// Panic payload of the first panicking slice.
        reason: String,
    },
}

impl WorkerHealth {
    /// Whether the worker has never had a slice panic.
    pub fn is_healthy(&self) -> bool {
        matches!(self, WorkerHealth::Healthy)
    }
}

/// Lock-free health mirror shared between a worker thread and its pollers.
///
/// Health polling must never contend with slice execution, so the cell is
/// a sticky [`AtomicBool`] plus a write-once reason: [`HealthCell::mark`]
/// publishes the first panic's message before the release store of the
/// flag, and [`HealthCell::get`]'s acquire load therefore always observes
/// the reason once it observes the flag. Later marks are ignored — health
/// is sticky on the *first* failure, exactly like [`WorkerHealth`].
#[derive(Debug, Default)]
struct HealthCell {
    unhealthy: AtomicBool,
    reason: OnceLock<String>,
}

impl HealthCell {
    /// Record a failure (first reason wins; sets the sticky flag).
    fn mark(&self, reason: &str) {
        let _ = self.reason.set(reason.to_string());
        self.unhealthy.store(true, Ordering::Release);
    }

    /// Current health, without taking any lock.
    fn get(&self) -> WorkerHealth {
        if self.unhealthy.load(Ordering::Acquire) {
            WorkerHealth::Unhealthy {
                reason: self.reason.get().cloned().unwrap_or_default(),
            }
        } else {
            WorkerHealth::Healthy
        }
    }
}

/// Best-effort text of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Lifetime counters of a worker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Slices executed.
    pub slices: u64,
    /// Code-vector entries remapped across all slices.
    pub rows_remapped: u64,
    /// Wall-clock nanoseconds spent inside completed slices (the measured
    /// side of the `merge_ms` calibration channel; with
    /// [`WorkerStats::rows_remapped`] it yields the worker's observed
    /// ns-per-remapped-row — the quantity a wall-clock merge pacer and the
    /// online calibrator both need).
    pub slice_ns: u64,
    /// Dictionary-tail entries folded by completed merges.
    pub entries_folded: u64,
    /// Jobs driven to completion.
    pub jobs_completed: u64,
    /// Jobs retracted before completion (queue removal and/or in-flight
    /// cancellation).
    pub jobs_retracted: u64,
    /// Slices that panicked and were contained (see [`WorkerHealth`]).
    pub slice_panics: u64,
}

impl WorkerStats {
    /// Observed wall-clock nanoseconds per remapped row across all
    /// completed slices (`None` before any row was remapped).
    pub fn ns_per_row(&self) -> Option<f64> {
        if self.rows_remapped == 0 {
            None
        } else {
            Some(self.slice_ns as f64 / self.rows_remapped as f64)
        }
    }
}

/// Outcome of one worker tick that ran a slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceReport {
    /// Table the slice advanced.
    pub table: String,
    /// Region label of the job the slice advanced.
    pub partition: MergePartition,
    /// Remap budget the pacer granted the slice.
    pub budget: usize,
    /// Wall-clock nanoseconds the slice took (plan + budgeted remap).
    /// Paired with `progress.rows_remapped` this is one observation for
    /// the online calibrator's `merge_ms` family
    /// (`hsd_core::OnlineAdvisor::observe_merge_slice`).
    pub elapsed_ns: u64,
    /// Progress reported by the storage layer.
    pub progress: MergeProgress,
}

/// Cooperative background-merge worker (see the module docs).
///
/// # Example
///
/// ```
/// use hsd_engine::{HybridDatabase, MaintenanceWorker, MergeConfig, MergePartition};
/// use hsd_storage::StoreKind;
/// use hsd_types::{ColumnDef, ColumnType, TableSchema, Value};
///
/// let db = HybridDatabase::new();
/// db.create_single(
///     TableSchema::new(
///         "t",
///         vec![ColumnDef::new("id", ColumnType::BigInt),
///              ColumnDef::new("v", ColumnType::Double)],
///         vec![0],
///     )?,
///     StoreKind::Column,
/// )?;
/// db.bulk_load("t", (0..64i64).map(|i| vec![Value::BigInt(i), Value::Double(i as f64)]))?;
/// db.set_merge_config(MergeConfig::disabled());
///
/// let mut worker = MaintenanceWorker::default();
/// worker.enqueue("t", MergePartition::Whole);
/// // The serving loop: execute a statement, feed its latency to the
/// // pacer, let the worker advance one bounded slice.
/// while worker.tick(&db)?.is_some() {
///     worker.observe_query_latency(0.05);
/// }
/// assert_eq!(db.delta_tail("t")?, 0);
/// # Ok::<(), hsd_types::Error>(())
/// ```
#[derive(Debug)]
pub struct MaintenanceWorker {
    queue: VecDeque<MergeJob>,
    pacer: MergePacer,
    stats: WorkerStats,
    health: WorkerHealth,
    /// Remaining injected slice panics (from
    /// [`WorkerConfig::fault_slice_panics`]).
    fault_slice_panics: u32,
}

impl Default for MaintenanceWorker {
    fn default() -> Self {
        Self::new(WorkerConfig::default())
    }
}

impl MaintenanceWorker {
    /// Worker with the given settings.
    pub fn new(cfg: WorkerConfig) -> Self {
        MaintenanceWorker {
            queue: VecDeque::new(),
            pacer: MergePacer::new(cfg.pacer),
            stats: WorkerStats::default(),
            health: WorkerHealth::Healthy,
            fault_slice_panics: cfg.fault_slice_panics,
        }
    }

    /// Enqueue a merge job for the `partition` region of `table`. Returns
    /// `false` (and leaves the queue unchanged) when the same
    /// `(table, partition)` job is already queued — one job folds everything
    /// its region accumulates while it runs, so exact duplicates add no
    /// work. A job with a *different* label for the same table is queued
    /// as a distinct entry, even though both labels name the table's one
    /// delta region ([`crate::TableData::delta_region`]): the second job
    /// finds whatever tail the first left behind.
    pub fn enqueue(&mut self, table: &str, partition: MergePartition) -> bool {
        if self.has_job(table, partition) {
            return false;
        }
        self.queue.push_back(MergeJob {
            table: table.to_string(),
            partition,
        });
        true
    }

    /// Whether the exact `(table, partition)` job is queued (possibly in
    /// flight).
    pub fn has_job(&self, table: &str, partition: MergePartition) -> bool {
        self.queue
            .iter()
            .any(|j| j.table == table && j.partition == partition)
    }

    /// Whether `table` has any queued job, regardless of region.
    pub fn has_job_for_table(&self, table: &str) -> bool {
        self.queue.iter().any(|j| j.table == table)
    }

    /// Whether the worker has no work.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Number of queued jobs.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Retract every job for `table` (any region — a retraction is a
    /// table-level decision): remove them from the queue and cancel any
    /// in-flight shadow rebuild on the table (the live data stayed
    /// authoritative throughout, so cancellation only discards remap work).
    /// Returns whether anything was retracted.
    pub fn retract(&mut self, db: &HybridDatabase, table: &str) -> Result<bool> {
        let before = self.queue.len();
        self.queue.retain(|j| j.table != table);
        let dequeued = self.queue.len() < before;
        let cancelled = mover::cancel_merge(db, table).unwrap_or(0);
        let retracted = dequeued || cancelled > 0;
        if retracted {
            self.stats.jobs_retracted += 1;
        }
        Ok(retracted)
    }

    /// Feed one served query's latency to the pacer.
    pub fn observe_query_latency(&mut self, ms: f64) {
        self.pacer.observe_query_latency(ms);
    }

    /// Pick the queued job with the highest accrued-penalty-per-row score:
    /// the table's current dictionary-tail entries per merge-region row —
    /// the per-row scan degradation its unfolded delta inflicts right now,
    /// which is exactly the rate the advisor's rent-or-buy accrual grows
    /// at. Ties (and the common single-job queue) fall back to FIFO order.
    /// A job whose table cannot be scored (dropped/renamed) is selected
    /// immediately so the tick surfaces its error and retires it.
    fn select_job(&self, db: &HybridDatabase) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, job) in self.queue.iter().enumerate() {
            let Ok(tail) = db.delta_tail(&job.table) else {
                return Some(i);
            };
            let rows = db.merge_region_rows(&job.table).unwrap_or(0).max(1);
            let score = tail as f64 / rows as f64;
            match best {
                Some((_, b)) if score <= b => {}
                _ => best = Some((i, score)),
            }
        }
        best.map(|(i, _)| i)
    }

    /// Advance the most urgent job by one remap-budgeted slice (see
    /// `MaintenanceWorker::select_job` for the priority rule). Returns
    /// `None` when the queue is empty; otherwise the slice report. A job
    /// whose table no longer exists is dropped (the error is propagated
    /// once).
    ///
    /// A slice that **panics** is contained here (never unwound into the
    /// caller): the job is dropped, any in-flight shadow rebuild on its
    /// table is cancelled (live data stayed authoritative — nothing is
    /// lost), the worker goes [`WorkerHealth::Unhealthy`], and the panic
    /// surfaces as an ordinary error.
    pub fn tick(&mut self, db: &HybridDatabase) -> Result<Option<SliceReport>> {
        let Some(idx) = self.select_job(db) else {
            return Ok(None);
        };
        let job = self.queue[idx].clone();
        let budget = self.pacer.next_budget();
        let inject_panic = self.fault_slice_panics > 0;
        if inject_panic {
            self.fault_slice_panics -= 1;
        }
        let slice_start = std::time::Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if inject_panic {
                panic!("injected slice panic (WorkerConfig::fault_slice_panics)");
            }
            mover::merge_slice(db, &job.table, job.partition, budget)
        }));
        let elapsed_ns = slice_start.elapsed().as_nanos() as u64;
        let progress = match outcome {
            Ok(Ok(p)) => p,
            Ok(Err(e)) => {
                // The table vanished (moved/rebuilt under a different
                // name) or is quarantined: the job is moot.
                self.queue.remove(idx);
                return Err(e);
            }
            Err(payload) => {
                self.queue.remove(idx);
                self.stats.slice_panics += 1;
                let reason = panic_message(payload.as_ref());
                if self.health.is_healthy() {
                    self.health = WorkerHealth::Unhealthy {
                        reason: reason.clone(),
                    };
                }
                // Defensive cleanup: the interrupted slice may have left an
                // in-flight shadow rebuild; discard it (also contained — a
                // panicking cancel must not unwind either).
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _ = mover::cancel_merge(db, &job.table);
                }));
                return Err(hsd_types::Error::InvalidOperation(format!(
                    "merge slice on `{}` panicked: {reason}",
                    job.table
                )));
            }
        };
        self.stats.slices += 1;
        self.stats.rows_remapped += progress.rows_remapped as u64;
        self.stats.slice_ns += elapsed_ns;
        self.stats.entries_folded += progress.entries_folded as u64;
        if progress.done {
            self.queue.remove(idx);
            self.stats.jobs_completed += 1;
        }
        Ok(Some(SliceReport {
            table: job.table,
            partition: job.partition,
            budget,
            elapsed_ns,
            progress,
        }))
    }

    /// Run every queued job to completion (ignoring the pacer's adaptivity
    /// beyond its current budget) — the shutdown/drain path. A job whose
    /// table no longer exists is skipped (tick already dropped it); the
    /// rest of the queue still drains.
    pub fn drain(&mut self, db: &HybridDatabase) -> Result<()> {
        loop {
            match self.tick(db) {
                Ok(None) => return Ok(()),
                Ok(Some(_)) => {}
                Err(_) => {}
            }
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &WorkerStats {
        &self.stats
    }

    /// Pollable health: [`WorkerHealth::Unhealthy`] (sticky) after any
    /// contained slice panic.
    pub fn health(&self) -> &WorkerHealth {
        &self.health
    }

    /// The pacer (read-only; for budget introspection).
    pub fn pacer(&self) -> &MergePacer {
        &self.pacer
    }
}

// ---------------------------------------------------------------------------
// Threaded mode

/// A database shared between serving threads and a threaded worker. The
/// [`HybridDatabase`] is internally latched per table, so sharing it is a
/// plain `Arc` — there is no database-wide lock to take (or to poison).
pub type SharedDatabase = Arc<HybridDatabase>;

enum Command {
    Enqueue(String, MergePartition),
    Retract(String),
    Latency(f64),
    /// Stop the worker; `drain` runs every queued job to completion first.
    Stop {
        drain: bool,
    },
}

/// Handle to a [`MaintenanceWorker`] running on its own `std::thread`
/// against a [`SharedDatabase`] — the multi-core execution mode. Queries
/// and merge slices interleave at per-table latch granularity: the worker
/// plans each slice under a shared read pin and holds the table's write
/// latch only for one bounded remap, so a query on the merging table waits
/// at most one slice (the pause the pacer bounds) and queries on other
/// tables never wait at all.
#[derive(Debug)]
pub struct BackgroundWorker {
    tx: mpsc::Sender<Command>,
    thread: Option<std::thread::JoinHandle<WorkerStats>>,
    /// Lock-free health mirror, updated by the thread after every tick so
    /// callers can poll without contending with slice execution.
    health: Arc<HealthCell>,
}

impl BackgroundWorker {
    /// Spawn the worker thread. `poll` is how long the thread parks waiting
    /// for commands while its queue is idle.
    pub fn spawn(db: SharedDatabase, cfg: WorkerConfig, poll: Duration) -> Self {
        let (tx, rx) = mpsc::channel::<Command>();
        let health = Arc::new(HealthCell::default());
        let health_tx = health.clone();
        let thread = std::thread::spawn(move || {
            let mut worker = MaintenanceWorker::new(cfg);
            let mut stopping = false;
            loop {
                // Absorb all pending commands; park briefly when idle.
                loop {
                    let cmd = if worker.is_idle() && !stopping {
                        match rx.recv_timeout(poll) {
                            Ok(c) => c,
                            Err(mpsc::RecvTimeoutError::Timeout) => break,
                            Err(mpsc::RecvTimeoutError::Disconnected) => return *worker.stats(),
                        }
                    } else {
                        match rx.try_recv() {
                            Ok(c) => c,
                            Err(mpsc::TryRecvError::Empty) => break,
                            Err(mpsc::TryRecvError::Disconnected) => {
                                stopping = true;
                                break;
                            }
                        }
                    };
                    match cmd {
                        Command::Enqueue(t, partition) => {
                            worker.enqueue(&t, partition);
                        }
                        Command::Retract(t) => {
                            let _ = worker.retract(&db, &t);
                        }
                        Command::Latency(ms) => worker.observe_query_latency(ms),
                        Command::Stop { drain } => {
                            if !drain {
                                return *worker.stats();
                            }
                            stopping = true;
                        }
                    }
                }
                if worker.is_idle() {
                    if stopping {
                        return *worker.stats();
                    }
                    continue;
                }
                // One bounded slice, then yield: the slice itself holds the
                // target table's write latch only for the budgeted remap
                // (the plan phase runs under a shared pin), and the yield
                // lets serving threads parked on that latch in before the
                // next slice. tick() contains slice panics internally.
                let _ = worker.tick(&db);
                if let WorkerHealth::Unhealthy { reason } = worker.health() {
                    health_tx.mark(reason);
                }
                std::thread::yield_now();
            }
        });
        BackgroundWorker {
            tx,
            thread: Some(thread),
            health,
        }
    }

    /// Poll the worker's health: [`WorkerHealth::Unhealthy`] (sticky) after
    /// any contained slice panic on the worker thread. Lock-free — polling
    /// never contends with slice execution. The database itself stays
    /// usable either way.
    pub fn health(&self) -> WorkerHealth {
        self.health.get()
    }

    /// Enqueue a merge job for the `partition` region of `table`.
    pub fn enqueue(&self, table: &str, partition: MergePartition) {
        let _ = self.tx.send(Command::Enqueue(table.to_string(), partition));
    }

    /// Retract the job for `table` (queue removal + in-flight
    /// cancellation).
    pub fn retract(&self, table: &str) {
        let _ = self.tx.send(Command::Retract(table.to_string()));
    }

    /// Feed one served query's latency to the worker's pacer.
    pub fn observe_query_latency(&self, ms: f64) {
        let _ = self.tx.send(Command::Latency(ms));
    }

    /// Stop the worker and join the thread, returning its lifetime stats.
    /// With `drain`, every queued job runs to completion first. If the
    /// worker thread itself died to an unexpected panic (outside the
    /// per-slice containment), the health mirror is marked and default
    /// stats are returned instead of propagating the panic.
    pub fn stop(mut self, drain: bool) -> WorkerStats {
        let _ = self.tx.send(Command::Stop { drain });
        match self.thread.take() {
            Some(t) => match t.join() {
                Ok(stats) => stats,
                Err(payload) => {
                    self.health.mark(&format!(
                        "worker thread panicked: {}",
                        panic_message(payload.as_ref())
                    ));
                    WorkerStats::default()
                }
            },
            None => WorkerStats::default(),
        }
    }
}

impl Drop for BackgroundWorker {
    fn drop(&mut self) {
        let _ = self.tx.send(Command::Stop { drain: false });
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintenance::MergeConfig;
    use hsd_query::{AggFunc, AggregateQuery, Query, UpdateQuery};
    use hsd_storage::{ColRange, StoreKind};
    use hsd_types::{ColumnDef, ColumnType, TableSchema, Value};

    fn column_db_named(name: &str, rows: i64) -> HybridDatabase {
        let db = HybridDatabase::new();
        add_column_table(&db, name, rows);
        db
    }

    fn add_column_table(db: &HybridDatabase, name: &str, rows: i64) {
        db.create_single(
            TableSchema::new(
                name,
                vec![
                    ColumnDef::new("id", ColumnType::BigInt),
                    ColumnDef::new("a", ColumnType::Double),
                    ColumnDef::new("b", ColumnType::Double),
                ],
                vec![0],
            )
            .unwrap(),
            StoreKind::Column,
        )
        .unwrap();
        db.bulk_load(
            name,
            (0..rows).map(|i| {
                vec![
                    Value::BigInt(i),
                    Value::Double(i as f64),
                    Value::Double(i as f64),
                ]
            }),
        )
        .unwrap();
        db.set_merge_config(MergeConfig::disabled());
    }

    fn column_db(rows: i64) -> HybridDatabase {
        column_db_named("t", rows)
    }

    fn grow_tail_on(db: &HybridDatabase, table: &str, n: usize) {
        for i in 0..n {
            db.execute(&Query::Update(UpdateQuery {
                table: table.into(),
                sets: vec![(1, Value::Double(50_000.0 + i as f64))],
                filter: vec![ColRange::eq(0, Value::BigInt(i as i64))],
            }))
            .unwrap();
        }
    }

    fn grow_tail(db: &HybridDatabase, n: usize) {
        grow_tail_on(db, "t", n);
    }

    fn checksum(db: &HybridDatabase) -> f64 {
        let out = db
            .execute(&Query::Aggregate(AggregateQuery::simple(
                "t",
                AggFunc::Sum,
                1,
            )))
            .unwrap();
        out.aggregates().unwrap()[0].values[0]
    }

    fn small_pacer() -> PacerConfig {
        PacerConfig {
            initial_budget: 16,
            min_budget: 4,
            max_budget: 64,
            ..Default::default()
        }
    }

    #[test]
    fn worker_drains_queue_in_bounded_slices_with_consistent_reads() {
        let db = column_db(100);
        grow_tail(&db, 40);
        let expected = checksum(&db);
        let mut worker = MaintenanceWorker::new(WorkerConfig {
            pacer: small_pacer(),
            ..WorkerConfig::default()
        });
        assert!(worker.enqueue("t", MergePartition::Whole));
        assert!(
            !worker.enqueue("t", MergePartition::Whole),
            "duplicate jobs are rejected"
        );
        let mut slices = 0;
        while let Some(report) = worker.tick(&db).unwrap() {
            slices += 1;
            assert!(report.budget <= 64);
            assert!(report.progress.rows_remapped <= report.budget);
            assert!(report.elapsed_ns > 0, "every slice is wall-clock timed");
            // Reads between slices stay consistent.
            assert_eq!(checksum(&db), expected);
            worker.observe_query_latency(0.01);
            assert!(slices < 10_000, "worker must terminate");
        }
        assert!(slices > 1, "a 16..64-row budget over 100 rows takes slices");
        assert!(worker.is_idle());
        assert_eq!(db.delta_tail("t").unwrap(), 0);
        let s = worker.stats();
        assert_eq!(s.jobs_completed, 1);
        assert_eq!(s.entries_folded, 40);
        assert!(
            s.rows_remapped >= 100,
            "every row was remapped at least once"
        );
        assert!(s.slice_ns > 0, "slice wall-clock accumulates");
        assert!(
            s.ns_per_row().unwrap() > 0.0,
            "observed merge throughput is derivable"
        );
        assert_eq!(WorkerStats::default().ns_per_row(), None);
    }

    /// The priority queue orders by accrued-penalty-per-row: with two
    /// tables queued FIFO in the "wrong" order, the worker slices the one
    /// whose tail-per-row score is higher first, and only then drains the
    /// other.
    #[test]
    fn worker_prioritizes_highest_penalty_per_row_job() {
        let db = column_db_named("calm", 4_000);
        add_column_table(&db, "urgent", 100);
        grow_tail_on(&db, "calm", 5); // tiny tail over many rows
        grow_tail_on(&db, "urgent", 40); // big tail over few rows
        let mut worker = MaintenanceWorker::new(WorkerConfig {
            pacer: small_pacer(),
            ..WorkerConfig::default()
        });
        // FIFO arrival order is calm first; priority must override it.
        assert!(worker.enqueue("calm", MergePartition::Whole));
        assert!(worker.enqueue("urgent", MergePartition::Whole));
        let first = worker.tick(&db).unwrap().unwrap();
        assert_eq!(
            first.table, "urgent",
            "the higher tail-per-row table is sliced first"
        );
        // "urgent" completes before "calm" gets its first slice.
        let mut urgent_done_at = None;
        let mut slices = 1;
        while let Some(report) = worker.tick(&db).unwrap() {
            slices += 1;
            if report.table == "calm" {
                assert!(
                    urgent_done_at.is_some(),
                    "calm must not be sliced while urgent is pending"
                );
            }
            if report.table == "urgent" && report.progress.done {
                urgent_done_at = Some(slices);
            }
            assert!(slices < 10_000, "worker must terminate");
        }
        assert!(worker.is_idle());
        assert_eq!(db.delta_tail("urgent").unwrap(), 0);
        assert_eq!(db.delta_tail("calm").unwrap(), 0);
        assert_eq!(worker.stats().jobs_completed, 2);
    }

    #[test]
    fn pacer_shrinks_on_degradation_and_grows_when_idle() {
        let cfg = PacerConfig {
            initial_budget: 1_024,
            min_budget: 64,
            max_budget: 8_192,
            degrade_threshold: 1.5,
            shrink: 0.5,
            grow: 2.0,
            window: 16,
            // Freeze the baseline at the first sample so the trajectory is
            // deterministic (the default slowly re-learns "normal", which
            // is the behavior the adaptive baseline exists for).
            baseline_decay: 0.0,
        };
        let mut pacer = MergePacer::new(cfg);
        // Establish a healthy baseline at 1 ms.
        for _ in 0..64 {
            pacer.observe_query_latency(1.0);
        }
        assert_eq!(pacer.next_budget(), 2_048, "healthy stream grows");
        // Degraded tail: p99 of the window jumps far above baseline.
        for _ in 0..16 {
            pacer.observe_query_latency(10.0);
        }
        assert_eq!(pacer.next_budget(), 1_024, "degraded p99 shrinks");
        for _ in 0..16 {
            pacer.observe_query_latency(10.0);
        }
        assert_eq!(
            pacer.next_budget(),
            512,
            "sustained degradation keeps shrinking"
        );
        // Idle stream (no samples since the last slice): grow.
        assert_eq!(pacer.next_budget(), 1_024, "idle stream grows");
        // Budget respects the floor under unbounded degradation.
        for _ in 0..20 {
            for _ in 0..16 {
                pacer.observe_query_latency(100.0);
            }
            pacer.next_budget();
        }
        assert_eq!(pacer.budget(), 64, "floor bounds the shrink");
    }

    /// At `min_budget + 1` with a shrink factor near 1.0, rounding alone is
    /// a no-op (`round(5 · 0.9) = 5`): the budget must still step down to
    /// the floor so a degraded stream actually backs off. Symmetrically, a
    /// growth factor whose rounding is a no-op must still step up.
    #[test]
    fn pacer_steps_despite_rounding_no_op_factors() {
        let cfg = PacerConfig {
            initial_budget: 5,
            min_budget: 4,
            max_budget: 8,
            degrade_threshold: 1.5,
            shrink: 0.9,
            grow: 1.05,
            window: 4,
            baseline_decay: 0.0,
        };
        let mut pacer = MergePacer::new(cfg);
        pacer.observe_query_latency(1.0); // baseline frozen at 1 ms
        for _ in 0..4 {
            pacer.observe_query_latency(10.0); // degraded p99
        }
        assert_eq!(
            pacer.next_budget(),
            4,
            "shrink at min_budget + 1 must reach the floor, not stall at 5"
        );
        // Healthy stream: grow 1.05 rounds to a no-op at 4, but must step.
        let mut pacer = MergePacer::new(PacerConfig {
            initial_budget: 4,
            ..pacer.cfg.clone()
        });
        for _ in 0..4 {
            pacer.observe_query_latency(1.0);
        }
        assert_eq!(pacer.next_budget(), 5, "growth must step past rounding");
    }

    #[test]
    fn retract_cancels_in_flight_job() {
        let db = column_db(200);
        grow_tail(&db, 30);
        let expected = checksum(&db);
        let mut worker = MaintenanceWorker::new(WorkerConfig {
            pacer: small_pacer(),
            ..WorkerConfig::default()
        });
        worker.enqueue("t", MergePartition::Whole);
        // Start the merge but do not finish it.
        let report = worker.tick(&db).unwrap().unwrap();
        assert!(!report.progress.done);
        let (epoch, in_flight) = db.merge_status("t").unwrap();
        assert!(in_flight);
        assert!(worker.retract(&db, "t").unwrap());
        assert!(worker.is_idle());
        assert_eq!(
            db.merge_status("t").unwrap(),
            (epoch, false),
            "merge undone, no handoff happened"
        );
        assert!(db.delta_tail("t").unwrap() > 0, "tail kept (merge undone)");
        assert_eq!(checksum(&db), expected, "no data was lost");
        assert_eq!(worker.stats().jobs_retracted, 1);
        // Retracting an unknown job is a no-op.
        assert!(!worker.retract(&db, "t").unwrap());
    }

    #[test]
    fn threaded_worker_interleaves_with_queries_without_a_global_lock() {
        let db = column_db(300);
        grow_tail(&db, 60);
        let expected = checksum(&db);
        let shared: SharedDatabase = Arc::new(db);
        let worker = BackgroundWorker::spawn(
            shared.clone(),
            WorkerConfig {
                pacer: small_pacer(),
                ..WorkerConfig::default()
            },
            Duration::from_millis(1),
        );
        worker.enqueue("t", MergePartition::Whole);
        // Serve queries from this thread while the worker slices away.
        for _ in 0..50 {
            let start = std::time::Instant::now();
            let c = checksum(&shared);
            assert_eq!(c, expected);
            worker.observe_query_latency(start.elapsed().as_secs_f64() * 1e3);
        }
        let stats = worker.stop(true);
        assert_eq!(stats.jobs_completed, 1);
        assert_eq!(stats.entries_folded, 60);
        assert_eq!(shared.delta_tail("t").unwrap(), 0);
        assert_eq!(checksum(&shared), expected);
    }

    #[test]
    fn tick_on_unknown_table_drops_the_job() {
        let db = column_db(10);
        let mut worker = MaintenanceWorker::default();
        worker.enqueue("nope", MergePartition::Whole);
        assert!(worker.tick(&db).is_err());
        assert!(worker.is_idle(), "the moot job is dropped");
        assert!(worker.tick(&db).unwrap().is_none());
    }

    /// Jobs are keyed by `(table, partition)`: a cold-fragment merge and a
    /// later whole-table merge of the same table are distinct queue entries,
    /// while an exact duplicate is still deduplicated. Retraction stays
    /// table-level and clears both.
    #[test]
    fn jobs_are_keyed_by_table_and_partition() {
        let db = column_db(20);
        let mut worker = MaintenanceWorker::default();
        assert!(worker.enqueue("t", MergePartition::Cold));
        assert!(
            worker.enqueue("t", MergePartition::Whole),
            "a whole-table job is distinct from the queued cold-fragment job"
        );
        assert!(
            !worker.enqueue("t", MergePartition::Cold),
            "exact (table, partition) duplicates are still rejected"
        );
        assert_eq!(worker.queue_len(), 2);
        assert!(worker.has_job("t", MergePartition::Cold));
        assert!(worker.has_job("t", MergePartition::Whole));
        assert!(!worker.has_job("u", MergePartition::Cold));
        assert!(worker.has_job_for_table("t"));
        // Equal scores (same table) fall back to FIFO: the cold-fragment
        // job queued first runs first.
        let first = worker.tick(&db).unwrap().unwrap();
        assert_eq!(first.table, "t");
        assert_eq!(first.partition, MergePartition::Cold);
        // Retraction removes every remaining job for the table.
        assert!(worker.retract(&db, "t").unwrap());
        assert!(worker.is_idle());
        assert!(!worker.has_job_for_table("t"));
    }

    // -- defensive-input pacer tests ---------------------------------------

    #[test]
    fn pacer_ignores_nan_inf_and_negative_latencies() {
        let mut pacer = MergePacer::new(PacerConfig::default());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            pacer.observe_query_latency(bad);
        }
        // Nothing was admitted to the window, so the first tick is an idle
        // grow — and must neither panic nor collapse the budget.
        let b = pacer.next_budget();
        assert!(b >= 4_096, "garbage samples must not shrink the budget");
        assert_eq!(pacer.baseline_ms(), None);
        // A NaN-only stream keeps the pacer on the idle path forever
        // without wedging at 0.
        for _ in 0..50 {
            pacer.observe_query_latency(f64::NAN);
            assert!(pacer.next_budget() > 0);
        }
    }

    #[test]
    fn pacer_survives_empty_window_and_zero_p99() {
        // Empty window: next_budget on a fresh pacer is the idle path.
        let mut pacer = MergePacer::new(PacerConfig::default());
        assert!(pacer.next_budget() > 0);
        // All-zero latencies: baseline 0, p99 0 — `0 > 0 * threshold` is
        // false, so the stream counts as healthy; the budget grows.
        let mut pacer = MergePacer::new(PacerConfig::default());
        for _ in 0..32 {
            pacer.observe_query_latency(0.0);
        }
        let before = pacer.budget();
        assert!(pacer.next_budget() > before);
    }

    #[test]
    fn pacer_sanitizes_zero_floor_and_inverted_bounds() {
        // min_budget = 0 must not wedge the budget at 0 under degradation.
        let mut pacer = MergePacer::new(PacerConfig {
            initial_budget: 8,
            min_budget: 0,
            max_budget: 8,
            baseline_decay: 0.0,
            window: 4,
            ..Default::default()
        });
        pacer.observe_query_latency(1.0);
        for _ in 0..30 {
            for _ in 0..4 {
                pacer.observe_query_latency(1_000.0); // heavily degraded
            }
            assert!(pacer.next_budget() >= 1, "budget must never reach 0");
        }
        assert_eq!(pacer.budget(), 1, "sanitized floor is 1, not 0");
        // min > max must not panic (usize::clamp would): ceiling is raised.
        let mut pacer = MergePacer::new(PacerConfig {
            initial_budget: 7,
            min_budget: 100,
            max_budget: 10,
            ..Default::default()
        });
        assert_eq!(pacer.budget(), 100);
        assert_eq!(pacer.next_budget(), 100, "floor==ceiling pins the budget");
    }

    // -- panic containment -------------------------------------------------

    #[test]
    fn slice_panic_is_contained_and_marks_worker_unhealthy() {
        let db = column_db(100);
        grow_tail(&db, 20);
        let expected = checksum(&db);
        let mut worker = MaintenanceWorker::new(WorkerConfig {
            pacer: small_pacer(),
            fault_slice_panics: 1,
        });
        worker.enqueue("t", MergePartition::Whole);
        assert!(worker.health().is_healthy());
        // The injected panic surfaces as an error, not an unwind.
        let err = worker.tick(&db).unwrap_err();
        assert!(err.to_string().contains("panicked"), "{err}");
        assert!(!worker.health().is_healthy());
        assert_eq!(worker.stats().slice_panics, 1);
        assert!(worker.is_idle(), "the panicking job is dropped");
        // The database is fully usable afterwards: reads, writes, and a
        // re-enqueued merge all succeed.
        assert_eq!(checksum(&db), expected);
        assert!(!db.merge_status("t").unwrap().1);
        worker.enqueue("t", MergePartition::Whole);
        while worker.tick(&db).unwrap().is_some() {}
        assert_eq!(db.delta_tail("t").unwrap(), 0);
        assert_eq!(checksum(&db), expected);
        // Health stays sticky even after successful slices.
        assert!(!worker.health().is_healthy());
    }

    #[test]
    fn threaded_slice_panic_leaves_the_shared_database_usable() {
        let db = column_db(100);
        grow_tail(&db, 30);
        let expected = checksum(&db);
        let shared: SharedDatabase = Arc::new(db);
        let worker = BackgroundWorker::spawn(
            shared.clone(),
            WorkerConfig {
                pacer: small_pacer(),
                fault_slice_panics: 1,
            },
            Duration::from_millis(1),
        );
        worker.enqueue("t", MergePartition::Whole);
        // Poll until the panics happened and the health mirror flipped —
        // the lock-free poll itself never blocks on the worker.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while worker.health().is_healthy() {
            assert!(
                std::time::Instant::now() < deadline,
                "worker never reported the contained panic"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // The database still answers (no global lock existed to poison).
        assert_eq!(checksum(&shared), expected);
        // The worker thread survived the injected panic: it still
        // processes work and joins cleanly.
        worker.enqueue("t", MergePartition::Whole);
        let stats = worker.stop(true);
        assert_eq!(stats.slice_panics, 1);
        assert_eq!(shared.delta_tail("t").unwrap(), 0);
        assert_eq!(checksum(&shared), expected);
    }
}
