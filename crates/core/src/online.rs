//! The online working mode: record, re-evaluate, adapt.
//!
//! Figure 5 of the paper: after the offline mode produced the initial
//! layout, the system "records extended workload and table statistics and,
//! in certain time intervals, ... re-evaluates the storage layout based on
//! the current workload statistics and recommends adaptations if required".
//!
//! Beyond placement adaptations, the advisor also schedules **delta-merge
//! maintenance**: using the recorded per-table scan activity and the live
//! dictionary-tail sizes, it emits [`MaintenanceAction::Merge`]
//! recommendations whenever the modeled scan savings of merging now exceed
//! the modeled merge cost (see [`crate::maintenance::evaluate_merge`]).
//! Running the engine with its auto-merge fallback disabled
//! ([`hsd_engine::MergeConfig::disabled`]) makes the advisor the sole merge
//! scheduler.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use hsd_catalog::StorageLayout;
use hsd_engine::{mover, HybridDatabase, StatisticsRecorder};
use hsd_query::Query;
use hsd_types::{Result, TableSchema};

use crate::advisor::{
    apply_observed_tail_rates, catalog_ctx, DecisionPass, Recommendation, StorageAdvisor,
};
use crate::calibration::online::{
    DriftGauge, OnlineCalibrator, OnlineCalibratorConfig, RefitReport,
};
use crate::estimator::{estimate_query_layout, EstimationCtx};
use crate::maintenance::{evaluate_merge, MaintenanceAction, MergePartition};

/// Settings of the online advisor.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Re-evaluate after this many recorded statements.
    pub evaluation_interval: usize,
    /// Required relative improvement before an adaptation is recommended
    /// (changing a layout costs downtime, so small wins are ignored).
    pub min_improvement: f64,
    /// Maximum number of recent queries kept as the estimation window.
    pub window_capacity: usize,
    /// Whether partitioning recommendations are enabled.
    pub enable_partitioning: bool,
    /// Whether the advisor schedules delta merges from workload statistics
    /// ([`MaintenanceAction::Merge`]). Independent of the engine's own
    /// fallback policy — disable that via
    /// [`hsd_engine::MergeConfig::disabled`] to make the advisor the only
    /// merge scheduler.
    pub enable_maintenance: bool,
    /// Re-check the merge trade-off after this many recorded statements.
    /// The check is cheap (live tail sizes + recorded scan counts), so it
    /// runs far more often than the full layout re-evaluation.
    pub maintenance_interval: usize,
    /// Required accrued-penalty / modeled-merge-cost ratio before a merge
    /// is scheduled (the rent-or-buy threshold). `1.0` merges once the
    /// modeled scan penalty paid since the last merge equals one merge;
    /// larger values defer longer before interrupting the workload.
    pub merge_safety_factor: f64,
    /// Tails smaller than this many entries are never worth a scheduling
    /// decision (the scan penalty is below measurement noise).
    pub merge_min_tail: usize,
    /// Weight of the newest interval in the exponentially decayed
    /// scan-pressure estimate (`rate ← decay · interval + (1 − decay) ·
    /// rate`). The decayed rate replaces the last-interval-only predictor:
    /// on bursty workloads a single quiet interval no longer zeroes the
    /// expected scan pressure, and phase changes blend in over
    /// `~1/decay` intervals instead of whipsawing the accrual. `1.0`
    /// reproduces the old last-interval-only behavior.
    pub scan_rate_decay: f64,
    /// Retraction trigger for scheduled-but-unstarted merges: once a
    /// [`MaintenanceAction::Merge`] has been emitted, the advisor watches
    /// the table's decayed scan rate, and if it collapses below this
    /// fraction of the rate at scheduling time *before any merge work
    /// started* (no slice in flight, merge epoch unchanged), it emits a
    /// [`MaintenanceAction::Retract`] — the scans that justified paying
    /// the merge cost are gone, so a queued job should be dropped rather
    /// than interrupt a now-write-only stream. `0.0` disables retraction.
    pub retract_rate_fraction: f64,
    /// Whether the advisor re-fits its cost model online from observed
    /// predicted-vs-measured residuals ([`OnlineAdvisor::observe_timed`])
    /// and re-plans on drift or workload phase changes. When `false` the
    /// calibrator still ingests samples — the drift gauge stays readable,
    /// the static-model ablation the paper-style comparisons need — but
    /// the model is never amended and drift never forces a re-plan.
    pub self_calibrating: bool,
    /// Run the calibration tick (drain samples, maybe re-fit, check the
    /// phase detector) after this many recorded statements.
    pub calibration_interval: usize,
    /// Overall drift-gauge level (mean absolute log residual) at which a
    /// completed re-fit also forces an immediate layout re-evaluation
    /// instead of waiting for the evaluation interval: the model the
    /// current layout was planned with has been shown this wrong, so the
    /// plan itself is suspect. `0.35` ≈ predictions typically off 1.4x.
    pub drift_replan_threshold: f64,
    /// Settings of the online calibrator.
    pub calibrator: OnlineCalibratorConfig,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            evaluation_interval: 500,
            min_improvement: 0.10,
            window_capacity: 2_000,
            enable_partitioning: true,
            enable_maintenance: true,
            maintenance_interval: 64,
            merge_safety_factor: 1.0,
            merge_min_tail: 128,
            scan_rate_decay: 0.5,
            retract_rate_fraction: 0.1,
            self_calibrating: true,
            calibration_interval: 64,
            drift_replan_threshold: 0.35,
            calibrator: OnlineCalibratorConfig::default(),
        }
    }
}

/// Book-keeping for an emitted-but-not-yet-completed merge recommendation:
/// what the world looked like when the advisor handed the job out.
#[derive(Debug, Clone, Copy)]
struct ScheduledMerge {
    /// Decayed scan rate at scheduling time (the retraction reference).
    rate_at_schedule: f64,
    /// The table's merge epoch at scheduling time; a changed epoch means a
    /// merge completed (or the table was rebuilt) since, so the
    /// recommendation is settled.
    epoch_at_schedule: u64,
}

/// The catalog as the estimator reads it — schemas, estimation context and
/// current layout — kept across statements and rebuilt only when
/// [`hsd_catalog::Catalog::generation`] says a DDL statement, a data move,
/// an index or a statistics refresh changed something. The context is held
/// in its placement-search form (no delta tails; see
/// [`crate::advisor::catalog_ctx`]).
#[derive(Debug, Default)]
struct CatalogView {
    /// Catalog generation the view was built at (`None`: never built).
    generation: Option<u64>,
    schemas: Vec<Arc<TableSchema>>,
    ctx: EstimationCtx,
    layout: StorageLayout,
}

impl CatalogView {
    fn refresh(&mut self, db: &HybridDatabase) {
        let catalog = db.catalog();
        if self.generation != Some(catalog.generation()) {
            (self.schemas, self.ctx) = catalog_ctx(&catalog);
            self.layout = catalog.current_layout();
            self.generation = Some(catalog.generation());
        }
    }
}

/// An adaptation the online advisor wants to apply.
#[derive(Debug, Clone)]
pub struct AdaptationRecommendation {
    /// The full recommendation (layout, estimates, statements).
    pub recommendation: Recommendation,
    /// Estimated runtime of the window under the *current* layout (ms).
    pub current_ms: f64,
    /// Estimated relative improvement (`0.25` = 25 % faster).
    pub improvement: f64,
    /// Tables whose placement changes.
    pub changed_tables: Vec<String>,
}

/// Online advisor: wraps a [`StorageAdvisor`] with statistics recording,
/// interval-based re-evaluation, and workload-aware merge scheduling. One
/// instance watches one database (it caches what it derived from that
/// database's catalog).
///
/// # Example
///
/// ```
/// use hsd_core::{CostModel, OnlineAdvisor, OnlineConfig, StorageAdvisor};
/// use hsd_engine::{HybridDatabase, MergeConfig};
/// use hsd_query::{AggFunc, AggregateQuery, Query, TableSpec};
/// use hsd_storage::StoreKind;
///
/// let spec = TableSpec::paper_wide("w", 1_000, 42);
/// let db = HybridDatabase::new();
/// db.create_single(spec.schema()?, StoreKind::Column)?;
/// db.bulk_load("w", spec.rows())?;
/// // Let the advisor be the only merge scheduler.
/// db.set_merge_config(MergeConfig::disabled());
///
/// let advisor = StorageAdvisor::new(CostModel::neutral());
/// let mut online = OnlineAdvisor::new(advisor, OnlineConfig::default());
///
/// // Feed every executed statement to the advisor; at interval
/// // boundaries it re-evaluates the layout and schedules merges.
/// let q = Query::Aggregate(AggregateQuery::simple("w", AggFunc::Sum, spec.kf_col(0)));
/// db.execute(&q)?;
/// let adaptation = online.observe(&db, &q)?;
/// assert!(adaptation.is_none(), "one statement is below every interval");
/// assert_eq!(online.recorded_statements(), 1);
/// for action in online.take_maintenance() {
///     action.apply(&db)?; // or apply_chunked(.., budget) for bounded pauses
/// }
/// # Ok::<(), hsd_types::Error>(())
/// ```
#[derive(Debug)]
pub struct OnlineAdvisor {
    advisor: StorageAdvisor,
    cfg: OnlineConfig,
    recorder: StatisticsRecorder,
    /// The most recent statements, oldest first — the estimation window,
    /// priced in place.
    window: VecDeque<Query>,
    view: CatalogView,
    since_last_eval: usize,
    since_last_maintenance: usize,
    /// Per-table scan counts (aggregations + selects) at the last
    /// maintenance check; the delta since then is the interval's scan load.
    scan_snapshot: BTreeMap<String, u64>,
    /// Per-table exponentially decayed per-interval scan rate — the
    /// scan-pressure predictor the merge accrual uses
    /// ([`OnlineConfig::scan_rate_decay`]).
    scan_rate: BTreeMap<String, f64>,
    /// Per-table modeled tail penalty (ms) accrued since the table's last
    /// merge — the "rent" side of the rent-or-buy merge rule.
    merge_penalty_accrued: BTreeMap<String, f64>,
    /// Merge recommendations emitted but not yet drained by the caller.
    pending_maintenance: Vec<MaintenanceAction>,
    /// Merge recommendations handed out (drained or not) whose work has not
    /// completed yet, keyed by `(table, partition)` — the same identity the
    /// worker queue dedupes on, so a cold-fragment job and a whole-table
    /// job for the same table are tracked independently. While an entry is
    /// listed the advisor freezes the table's accrual and never
    /// double-schedules that region; the entry clears when the fragment's
    /// merge epoch moves (work completed — for partitioned tables the
    /// epoch reads the cold fragment's dictionary handoffs) or when the
    /// advisor retracts the recommendation.
    scheduled_merges: BTreeMap<(String, MergePartition), ScheduledMerge>,
    /// The self-calibration loop: residual fits per coefficient family,
    /// drift gauge, phase detector. Always fed (the gauge must be readable
    /// in the static ablation); only re-fits when
    /// [`OnlineConfig::self_calibrating`] is set.
    calibrator: OnlineCalibrator,
    since_last_calibration: usize,
}

impl OnlineAdvisor {
    /// New online advisor around a calibrated storage advisor.
    pub fn new(advisor: StorageAdvisor, cfg: OnlineConfig) -> Self {
        let calibrator = OnlineCalibrator::new(cfg.calibrator.clone());
        OnlineAdvisor {
            advisor,
            cfg,
            recorder: StatisticsRecorder::new(),
            window: VecDeque::new(),
            view: CatalogView::default(),
            since_last_eval: 0,
            since_last_maintenance: 0,
            scan_snapshot: BTreeMap::new(),
            scan_rate: BTreeMap::new(),
            merge_penalty_accrued: BTreeMap::new(),
            pending_maintenance: Vec::new(),
            scheduled_merges: BTreeMap::new(),
            calibrator,
            since_last_calibration: 0,
        }
    }

    /// Observe one query (recording statistics and the estimation window)
    /// and — at interval boundaries — re-evaluate the layout. Returns an
    /// adaptation recommendation when a sufficiently better layout exists.
    ///
    /// Maintenance scheduling runs on its own (shorter) interval; drain its
    /// recommendations with [`OnlineAdvisor::take_maintenance`].
    pub fn observe(
        &mut self,
        db: &HybridDatabase,
        query: &Query,
    ) -> Result<Option<AdaptationRecommendation>> {
        self.recorder.record(db, query);
        self.after_record(db, query)
    }

    /// Observe one *timed* query: everything [`OnlineAdvisor::observe`]
    /// does, plus a predicted-vs-measured residual sample for the
    /// self-calibration loop. The prediction is computed here — against the
    /// database's **current** layout and live per-table state (row counts,
    /// dictionary tails, observed tail rates) — so the residual isolates
    /// coefficient error from context error as far as the live catalog
    /// allows.
    ///
    /// At calibration-interval boundaries the buffered samples are drained
    /// into the calibrator; with [`OnlineConfig::self_calibrating`] set,
    /// drifted coefficient families are re-fit through the shared
    /// [`crate::cost::ModelHandle`], and a re-fit that corrected
    /// above-threshold drift — or a detected workload phase change —
    /// forces an immediate layout re-evaluation instead of waiting out the
    /// evaluation interval.
    pub fn observe_timed(
        &mut self,
        db: &HybridDatabase,
        query: &Query,
        measured_ms: f64,
    ) -> Result<Option<AdaptationRecommendation>> {
        let predicted_ms = self.predict_ms(db, query);
        self.recorder
            .record_timed(db, query, predicted_ms, measured_ms);
        self.after_record(db, query)
    }

    /// The model's prediction (ms) for `query` under the database's current
    /// layout and live table state. This is the "predicted" half of the
    /// residual channel; it deliberately prices the *live* dictionary tail
    /// (unlike the placement search, which zeroes it) because the measured
    /// execution paid that tail. Only the query's own table is read from
    /// the engine — the one tail its estimate depends on.
    pub fn predict_ms(&mut self, db: &HybridDatabase, query: &Query) -> f64 {
        self.view.refresh(db);
        let model = self.advisor.model.snapshot();
        let table = query.table();
        let tail = db.delta_tail(table).unwrap_or(0);
        let view = &mut self.view;
        if let Some(t) = view.ctx.tables.get_mut(table) {
            t.delta_tail = tail;
        }
        let predicted_ms = estimate_query_layout(&model, &view.ctx, &view.layout, query);
        if let Some(t) = view.ctx.tables.get_mut(table) {
            t.delta_tail = 0;
        }
        predicted_ms
    }

    /// Forward one background merge slice's measured cost into the residual
    /// channel (the `merge_ms` coefficient family). Callers driving an
    /// `hsd_engine::MaintenanceWorker` feed its per-slice reports here.
    pub fn observe_merge_slice(&mut self, table: &str, rows_remapped: usize, elapsed_ns: u64) {
        self.recorder
            .observe_merge_slice(table, rows_remapped, elapsed_ns);
    }

    /// The live modeled-vs-measured drift gauge.
    pub fn drift_gauge(&self) -> DriftGauge {
        self.calibrator.gauge()
    }

    /// Version of the shared cost model (bumped by every online re-fit).
    pub fn model_version(&self) -> u64 {
        self.advisor.model.version()
    }

    /// Zero the drift gauge: discard every accumulated residual (family
    /// fits, merge bootstrap, phase baselines) without touching the model.
    /// For operator interventions the old evidence would misattribute —
    /// e.g. right after swapping in a freshly calibrated model, or after
    /// a known hardware/noise episode ends.
    pub fn reset_drift_gauge(&mut self) {
        self.calibrator.reset();
    }

    /// Shared post-record bookkeeping: the estimation window, the
    /// maintenance tick, the calibration tick, and the evaluation tick (in
    /// that order — a drift re-fit or phase shift may force the evaluation
    /// early).
    fn after_record(
        &mut self,
        db: &HybridDatabase,
        query: &Query,
    ) -> Result<Option<AdaptationRecommendation>> {
        if self.window.len() == self.cfg.window_capacity {
            self.window.pop_front();
        }
        self.window.push_back(query.clone());
        self.since_last_maintenance += 1;
        if self.cfg.enable_maintenance
            && self.since_last_maintenance >= self.cfg.maintenance_interval
        {
            self.since_last_maintenance = 0;
            self.schedule_maintenance(db);
        }
        self.since_last_calibration += 1;
        let mut force_replan = false;
        if self.since_last_calibration >= self.cfg.calibration_interval {
            self.since_last_calibration = 0;
            force_replan = self.calibration_tick();
        }
        self.since_last_eval += 1;
        if !force_replan && self.since_last_eval < self.cfg.evaluation_interval {
            return Ok(None);
        }
        self.since_last_eval = 0;
        self.evaluate(db)
    }

    /// Drain the recorder's buffered residual samples into the calibrator
    /// and — when self-calibration is enabled — re-fit drifted coefficient
    /// families. Returns whether an immediate re-plan is warranted: a
    /// re-fit that corrected above-threshold drift (the current layout was
    /// planned with a model this wrong) or a workload phase change.
    fn calibration_tick(&mut self) -> bool {
        let merge_model = self.advisor.model.snapshot();
        for s in self.recorder.take_timing_samples() {
            self.calibrator.ingest(&s);
        }
        for s in self.recorder.take_merge_slice_samples() {
            let predicted = merge_model.column.merge_ms.eval(s.rows_remapped as f64);
            self.calibrator.ingest_merge(&s, predicted);
        }
        if !self.cfg.self_calibrating {
            // Static ablation: gauge stays readable, model stays frozen,
            // and a phase shift is observed but never acted on.
            return false;
        }
        let refit: Option<RefitReport> = self.calibrator.refit_into(&self.advisor.model);
        let drifted = refit
            .as_ref()
            .is_some_and(|r| r.drift_before >= self.cfg.drift_replan_threshold);
        let phase_shift = self.calibrator.take_phase_shift();
        drifted || phase_shift
    }

    /// Evaluate the merge trade-off for every table carrying a delta tail,
    /// queueing a [`MaintenanceAction::Merge`] once the modeled scan
    /// penalty accrued since the table's last merge exceeds the modeled
    /// merge cost (rent-or-buy; see [`evaluate_merge`]).
    ///
    /// An emitted merge stays *scheduled* until its work completes — the
    /// table's merge epoch moves when a one-shot merge or the final slice
    /// of a background incremental merge lands. While scheduled (or while
    /// any merge is observably in flight), the accrual is frozen so the
    /// advisor never double-schedules a table whose queued job simply has
    /// not reached the front of the worker's queue yet; and if the scan
    /// pressure that justified the merge collapses before any work started,
    /// the recommendation is withdrawn with [`MaintenanceAction::Retract`].
    fn schedule_maintenance(&mut self, db: &HybridDatabase) {
        for entry in db.catalog().entries() {
            let name = entry.schema.name.as_str();
            // The region a merge scheduled now would target, from the
            // table's current placement: the cold column fragment for
            // partitioned layouts (the hot partition is row-store resident
            // and carries no delta), the whole table otherwise.
            let partition = match entry.placement {
                hsd_catalog::TablePlacement::Single(_) => MergePartition::Whole,
                hsd_catalog::TablePlacement::Partitioned(_) => MergePartition::Cold,
            };
            if self.pending_maintenance.iter().any(|a| a.table() == name) {
                // Still in the undrained queue; nothing to re-decide. The
                // scan snapshot keeps advancing through the scheduled-state
                // handling below once the caller drains the action.
                continue;
            }
            // Scan statements observed since the last check: the interval's
            // scan load on this table, each paying the current tail penalty.
            let scans_now = self
                .recorder
                .stats()
                .table(name)
                .map_or(0, |t| t.aggregations + t.selects);
            let prior = self
                .scan_snapshot
                .insert(name.to_string(), scans_now)
                .unwrap_or(0);
            let interval_scans = scans_now.saturating_sub(prior) as f64;
            // Decayed-rate scan-pressure estimate: blend the newest interval
            // into the running rate instead of trusting it alone, so bursty
            // phases keep accruing through quiet intervals and phase changes
            // adjust the rate smoothly. Seeded with the first observation.
            let decay = self.cfg.scan_rate_decay.clamp(0.0, 1.0);
            let rate = match self.scan_rate.get(name) {
                Some(prev) => decay * interval_scans + (1.0 - decay) * prev,
                None => interval_scans,
            };
            self.scan_rate.insert(name.to_string(), rate);
            // One atomic read of (epoch, in-progress): sampling them
            // separately under the concurrent engine could pair a
            // pre-handoff epoch with a post-handoff "idle" and mistake a
            // just-finished job for a stalled one (or vice versa).
            let (epoch, merging) = db.merge_status(name).unwrap_or((0, false));
            let key = (name.to_string(), partition);
            // A table has exactly one placement, so a tracking entry for
            // the *other* region is left over from a layout that no longer
            // exists (a data move outside `OnlineAdvisor::apply`, which
            // clears all tracking). Purge it now — left in place it could
            // be resurrected as a stale freeze when the placement later
            // flips back and the rebuilt table's epoch coincidentally
            // matches the recorded one, parking the region forever.
            let other = match partition {
                MergePartition::Whole => MergePartition::Cold,
                MergePartition::Cold => MergePartition::Whole,
            };
            self.scheduled_merges.remove(&(name.to_string(), other));
            if let Some(scheduled) = self.scheduled_merges.get(&key) {
                // Order matters: the in-flight check comes first because
                // the table-level epoch is column-granular — on a
                // multi-column table it moves at every per-column handoff,
                // i.e. possibly several times *during* one scheduled job.
                if merging {
                    // The worker is slicing away; progress is being made.
                    continue;
                } else if epoch != scheduled.epoch_at_schedule {
                    // No slice in flight and at least one handoff landed
                    // since scheduling: the recommendation is settled (or
                    // the table was rebuilt by a data move). Start a fresh
                    // rent-or-buy cycle. (A job paused exactly on a column
                    // boundary can re-arm early here; the resulting
                    // duplicate Merge is deduplicated by the worker's
                    // queue, or just merges the residual tails.)
                    self.scheduled_merges.remove(&key);
                    self.merge_penalty_accrued.remove(name);
                } else if self.cfg.retract_rate_fraction > 0.0
                    && rate < scheduled.rate_at_schedule * self.cfg.retract_rate_fraction
                {
                    // No work started and the scans that justified the
                    // merge are gone: withdraw the recommendation. The
                    // accrual restarts from zero, so a returning scan phase
                    // must pay fresh rent before the merge is re-scheduled.
                    self.scheduled_merges.remove(&key);
                    self.pending_maintenance.push(MaintenanceAction::Retract {
                        table: name.to_string(),
                    });
                    continue;
                } else {
                    // Queued, waiting for the worker; don't double-count.
                    continue;
                }
            } else if merging {
                // Someone else (the caller, driving slices directly) is
                // already merging; accruing rent against it would schedule
                // a redundant merge the moment it completes.
                continue;
            }
            let Ok(tail) = db.delta_tail(name) else {
                continue;
            };
            if tail < self.cfg.merge_min_tail {
                // Tail gone (merged by us, the engine fallback, or a data
                // move) or still negligible: restart the accrual.
                self.merge_penalty_accrued.remove(name);
                continue;
            }
            // The merge trade-off is priced at the region the merge would
            // actually remap — the cold partition's rows for partitioned
            // layouts, not the full table (a full-table row count would
            // over-state the merge cost and starve cold-fragment merges).
            let rows = db.merge_region_rows(name).unwrap_or(0);
            let decision = evaluate_merge(&self.advisor.model.snapshot(), rows, tail, rate);
            let accrued = self
                .merge_penalty_accrued
                .entry(name.to_string())
                .or_insert(0.0);
            *accrued += decision.scan_savings_ms;
            if *accrued > decision.merge_cost_ms * self.cfg.merge_safety_factor {
                *accrued = 0.0;
                self.scheduled_merges.insert(
                    key,
                    ScheduledMerge {
                        rate_at_schedule: rate,
                        epoch_at_schedule: epoch,
                    },
                );
                self.pending_maintenance.push(MaintenanceAction::Merge {
                    table: name.to_string(),
                    partition,
                });
            }
        }
    }

    /// Drain the maintenance recommendations queued since the last call.
    ///
    /// A drained [`MaintenanceAction::Merge`] is **owned by the caller**:
    /// apply it ([`MaintenanceAction::apply`] /
    /// [`MaintenanceAction::apply_chunked`]) or hand it to a background
    /// worker (`hsd_engine::MaintenanceWorker::enqueue`). The advisor
    /// considers the table scheduled until the merge's work completes (the
    /// table's merge epoch moves) or the recommendation is retracted, and
    /// will not emit another `Merge` for it in the meantime — so silently
    /// dropping an action parks the table until some other merge path
    /// (e.g. the engine's fallback policy, if enabled, or a data move)
    /// bumps its epoch and re-arms the cycle.
    pub fn take_maintenance(&mut self) -> Vec<MaintenanceAction> {
        std::mem::take(&mut self.pending_maintenance)
    }

    /// Force a re-evaluation of the current layout.
    pub fn evaluate(&mut self, db: &HybridDatabase) -> Result<Option<AdaptationRecommendation>> {
        if self.window.is_empty() {
            return Ok(None);
        }
        let (rec, current_ms) = self.price_window(db);
        if current_ms <= 0.0 {
            return Ok(None);
        }
        let improvement = (current_ms - rec.estimated_ms) / current_ms;
        if improvement < self.cfg.min_improvement {
            return Ok(None);
        }
        let changed: Vec<String> = rec
            .layout
            .diff(&self.view.layout)
            .into_iter()
            .map(str::to_string)
            .collect();
        if changed.is_empty() {
            return Ok(None);
        }
        Ok(Some(AdaptationRecommendation {
            recommendation: rec,
            current_ms,
            improvement,
            changed_tables: changed,
        }))
    }

    /// The recommendation for the window and the window's modeled cost
    /// under the database's *current* layout, both from one
    /// [`DecisionPass`] — same context (indexed columns, observed tail
    /// rates), same model snapshot, same upkeep charging — so the
    /// improvement compares like with like.
    fn price_window(&mut self, db: &HybridDatabase) -> (Recommendation, f64) {
        self.view.refresh(db);
        apply_observed_tail_rates(&mut self.view.ctx, self.recorder.stats());
        let window: Vec<&Query> = self.window.iter().collect();
        let model = self.advisor.model.snapshot();
        let mut pass = DecisionPass::new(&self.advisor, &model, &self.view.ctx, &window);
        let rec = pass.recommend(
            &self.view.schemas,
            self.recorder.stats(),
            self.cfg.enable_partitioning,
        );
        let current_ms = pass.layout_ms(&self.view.layout);
        (rec, current_ms)
    }

    /// Apply an adaptation (the "directly applied to the database system"
    /// path; the paper notes this "should be applied with care").
    pub fn apply(
        &mut self,
        db: &HybridDatabase,
        adaptation: &AdaptationRecommendation,
    ) -> Result<Vec<String>> {
        let moved = mover::apply_layout(db, &adaptation.recommendation.layout)?;
        // A layout change invalidates the recorded interval.
        self.recorder.reset();
        self.window.clear();
        self.since_last_eval = 0;
        self.since_last_maintenance = 0;
        self.since_last_calibration = 0;
        self.scan_snapshot.clear();
        self.scan_rate.clear();
        self.merge_penalty_accrued.clear();
        self.pending_maintenance.clear();
        self.scheduled_merges.clear();
        Ok(moved)
    }

    /// Recorded statements since the last reset.
    pub fn recorded_statements(&self) -> u64 {
        self.recorder.stats().total_statements
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{AdjustmentFn, CostModel};
    use hsd_catalog::TablePlacement;
    use hsd_query::{
        AggFunc, AggregateQuery, MixedWorkloadConfig, TableSpec, UpdateQuery, WorkloadGenerator,
    };
    use hsd_storage::{ColRange, StoreKind};
    use hsd_types::Value;
    use proptest::prop_assert_eq;

    fn model() -> CostModel {
        let mut m = CostModel::neutral();
        m.row.f_rows = AdjustmentFn::Linear {
            slope: 1e-3,
            intercept: 0.05,
        };
        m.column.f_rows = AdjustmentFn::Linear {
            slope: 1e-4,
            intercept: 0.05,
        };
        m.row.ins_row = AdjustmentFn::Constant(0.002);
        m.column.ins_row = AdjustmentFn::Constant(0.01);
        m.row.sel_point_ms = 0.002;
        m.column.sel_point_ms = 0.01;
        m.row.upd_row_ms = 0.002;
        m.column.upd_row_ms = 0.01;
        m
    }

    /// `model()` plus maintenance terms: tails degrade scans linearly
    /// (factor `1 + 10·frac`), a merge costs a flat 0.5 ms.
    fn maintenance_model() -> CostModel {
        let mut m = model();
        m.column.f_tail = AdjustmentFn::Linear {
            slope: 10.0,
            intercept: 1.0,
        };
        m.column.merge_ms = AdjustmentFn::Constant(0.5);
        m
    }

    fn spec() -> TableSpec {
        TableSpec::paper_wide("w", 2_000, 9)
    }

    /// Column-store db under advisor-scheduled maintenance: engine fallback
    /// merges disabled, layout re-evaluation pushed out of the way.
    fn maintenance_setup() -> (hsd_engine::HybridDatabase, OnlineAdvisor, TableSpec) {
        let s = spec();
        let db = HybridDatabase::new();
        db.create_single(s.schema().unwrap(), StoreKind::Column)
            .unwrap();
        db.bulk_load("w", s.rows()).unwrap();
        db.set_merge_config(hsd_engine::MergeConfig::disabled());
        let cfg = OnlineConfig {
            evaluation_interval: usize::MAX,
            maintenance_interval: 8,
            merge_min_tail: 16,
            merge_safety_factor: 1.0,
            ..Default::default()
        };
        let online = OnlineAdvisor::new(StorageAdvisor::new(maintenance_model()), cfg);
        (db, online, s)
    }

    fn fresh_update(s: &TableSpec, i: usize) -> Query {
        Query::Update(UpdateQuery {
            table: "w".into(),
            sets: vec![(s.kf_col(0), Value::Double(9e8 + i as f64 * 0.011))],
            filter: vec![ColRange::eq(0, Value::BigInt((i % s.rows) as i64))],
        })
    }

    #[test]
    fn maintenance_scheduled_when_scans_collect_the_benefit() {
        let (db, mut online, s) = maintenance_setup();
        let scan = Query::Aggregate(AggregateQuery::simple("w", AggFunc::Sum, s.kf_col(0)));
        let mut scheduled = Vec::new();
        for i in 0..600 {
            let q = if i % 2 == 0 {
                fresh_update(&s, i)
            } else {
                scan.clone()
            };
            db.execute(&q).unwrap();
            online.observe(&db, &q).unwrap();
            scheduled = online.take_maintenance();
            if !scheduled.is_empty() {
                break;
            }
        }
        assert_eq!(
            scheduled,
            vec![MaintenanceAction::Merge {
                table: "w".into(),
                partition: MergePartition::Whole,
            }],
            "a scan-heavy stream over a growing tail must schedule a merge"
        );
        assert!(db.delta_tail("w").unwrap() > 0);
        let merged = scheduled[0].apply(&db).unwrap();
        assert!(merged > 0);
        assert_eq!(db.delta_tail("w").unwrap(), 0);
    }

    #[test]
    fn maintenance_not_scheduled_for_write_only_stream() {
        let (db, mut online, s) = maintenance_setup();
        for i in 0..300 {
            let q = fresh_update(&s, i);
            db.execute(&q).unwrap();
            online.observe(&db, &q).unwrap();
        }
        assert!(
            db.delta_tail("w").unwrap() > 100,
            "tail must have accumulated"
        );
        assert!(
            online.take_maintenance().is_empty(),
            "no scans -> merging now buys nothing; defer"
        );
    }

    /// A scan burst while the tail is still small, followed by a long
    /// write-only phase that grows the tail. The last-interval-only
    /// predictor freezes the accrual the moment scans pause (each quiet
    /// interval contributes zero), while the decayed rate keeps predicting
    /// scan pressure from the burst and accrues against the now-large tail
    /// — so only the decayed predictor schedules the merge.
    #[test]
    fn decayed_rate_reacts_to_phase_change_where_last_interval_freezes() {
        fn merges_scheduled(decay: f64) -> bool {
            let s = spec();
            let db = HybridDatabase::new();
            db.create_single(s.schema().unwrap(), StoreKind::Column)
                .unwrap();
            db.bulk_load("w", s.rows()).unwrap();
            db.set_merge_config(hsd_engine::MergeConfig::disabled());
            let mut m = maintenance_model();
            m.column.f_tail = AdjustmentFn::Linear {
                slope: 50.0,
                intercept: 1.0,
            };
            m.column.merge_ms = AdjustmentFn::Constant(3.0);
            let cfg = OnlineConfig {
                evaluation_interval: usize::MAX,
                maintenance_interval: 8,
                merge_min_tail: 16,
                merge_safety_factor: 1.0,
                scan_rate_decay: decay,
                ..Default::default()
            };
            let mut online = OnlineAdvisor::new(StorageAdvisor::new(m), cfg);
            let scan = Query::Aggregate(AggregateQuery::simple("w", AggFunc::Sum, s.kf_col(0)));
            for i in 0..400 {
                // Statements 0..60: updates and scans alternate (the
                // burst); statements 60..400: writes only.
                let q = if i < 60 && i % 2 == 1 {
                    scan.clone()
                } else {
                    fresh_update(&s, i)
                };
                db.execute(&q).unwrap();
                online.observe(&db, &q).unwrap();
                if !online.take_maintenance().is_empty() {
                    return true;
                }
            }
            false
        }
        assert!(
            merges_scheduled(0.5),
            "decayed predictor must keep accruing through the write phase"
        );
        assert!(
            !merges_scheduled(1.0),
            "last-interval-only predictor stalls once the burst ends"
        );
    }

    /// A handed-out merge freezes the table's accrual: no second Merge is
    /// emitted while the job sits unapplied (a worker queue) or is mid-
    /// flight, and the advisor re-arms once the epoch handoff lands.
    #[test]
    fn scheduled_merge_is_not_double_scheduled_until_the_handoff() {
        let (db, mut online, s) = maintenance_setup();
        let scan = Query::Aggregate(AggregateQuery::simple("w", AggFunc::Sum, s.kf_col(0)));
        let mut first = None;
        for i in 0..600 {
            let q = if i % 2 == 0 {
                fresh_update(&s, i)
            } else {
                scan.clone()
            };
            db.execute(&q).unwrap();
            online.observe(&db, &q).unwrap();
            let actions = online.take_maintenance();
            if let Some(a) = actions.into_iter().next() {
                first = Some(a);
                break;
            }
        }
        let action = first.expect("scan-heavy stream must schedule a merge");
        // The job is "queued on a worker": keep streaming without applying.
        for i in 600..900 {
            let q = if i % 2 == 0 {
                fresh_update(&s, i)
            } else {
                scan.clone()
            };
            db.execute(&q).unwrap();
            online.observe(&db, &q).unwrap();
            assert!(
                online.take_maintenance().is_empty(),
                "no double-schedule while the job is outstanding"
            );
        }
        // Drive the merge through bounded slices; mid-flight checks must
        // still stay quiet.
        while !action.apply_chunked(&db, 64).unwrap().done {
            db.execute(&scan).unwrap();
            online.observe(&db, &scan).unwrap();
            assert!(
                online.take_maintenance().is_empty(),
                "no double-schedule while slices are in flight"
            );
        }
        assert_eq!(db.delta_tail("w").unwrap(), 0);
        // The handoff landed: the advisor re-arms and a fresh scan-heavy
        // stream over a regrown tail schedules again.
        let mut rescheduled = false;
        for i in 900..1500 {
            let q = if i % 2 == 0 {
                fresh_update(&s, i)
            } else {
                scan.clone()
            };
            db.execute(&q).unwrap();
            online.observe(&db, &q).unwrap();
            if !online.take_maintenance().is_empty() {
                rescheduled = true;
                break;
            }
        }
        assert!(rescheduled, "a completed merge must re-arm the scheduler");
    }

    /// Scan pressure collapsing after a merge was scheduled — but before
    /// any slice ran — withdraws the recommendation with a Retract action.
    #[test]
    fn collapsed_scan_pressure_retracts_an_unstarted_merge() {
        let (db, mut online, s) = maintenance_setup();
        let scan = Query::Aggregate(AggregateQuery::simple("w", AggFunc::Sum, s.kf_col(0)));
        let mut scheduled = false;
        for i in 0..600 {
            let q = if i % 2 == 0 {
                fresh_update(&s, i)
            } else {
                scan.clone()
            };
            db.execute(&q).unwrap();
            online.observe(&db, &q).unwrap();
            if !online.take_maintenance().is_empty() {
                scheduled = true;
                break;
            }
        }
        assert!(scheduled, "the burst must schedule a merge first");
        // The workload turns write-only: the decayed rate collapses and the
        // queued (never-started) job is withdrawn.
        let mut retract = None;
        for i in 600..1000 {
            let q = fresh_update(&s, i);
            db.execute(&q).unwrap();
            online.observe(&db, &q).unwrap();
            let actions = online.take_maintenance();
            if !actions.is_empty() {
                retract = Some(actions);
                break;
            }
        }
        assert_eq!(
            retract.expect("collapsed rate must retract"),
            vec![MaintenanceAction::Retract { table: "w".into() }],
        );
        assert!(
            db.delta_tail("w").unwrap() > 0,
            "the tail is still there — the merge was withdrawn, not run"
        );
        // Still write-only: the retracted table is not re-scheduled.
        for i in 1000..1200 {
            let q = fresh_update(&s, i);
            db.execute(&q).unwrap();
            online.observe(&db, &q).unwrap();
            assert!(online.take_maintenance().is_empty());
        }
    }

    /// A model 8x too optimistic about row scans, corrected online from
    /// observed residuals — but only when the `self_calibrating` toggle is
    /// on. The static ablation must keep the model frozen while still
    /// exposing the (large) drift gauge.
    #[test]
    fn observe_timed_refits_a_stale_model_only_when_self_calibrating() {
        fn run(self_calibrating: bool) -> (u64, f64, f64) {
            let s = spec();
            let db = HybridDatabase::new();
            db.create_single(s.schema().unwrap(), StoreKind::Row)
                .unwrap();
            db.bulk_load("w", s.rows()).unwrap();
            let stale = model(); // predicts ~2 ms for the 2k-row scan
            let cfg = OnlineConfig {
                evaluation_interval: usize::MAX,
                enable_maintenance: false,
                calibration_interval: 32,
                self_calibrating,
                ..Default::default()
            };
            let mut online = OnlineAdvisor::new(StorageAdvisor::new(stale), cfg);
            let scan = Query::Aggregate(AggregateQuery::simple("w", AggFunc::Sum, s.kf_col(0)));
            let truth_ms = 8.0 * online.predict_ms(&db, &scan);
            for _ in 0..256 {
                online.observe_timed(&db, &scan, truth_ms).unwrap();
            }
            (
                online.model_version(),
                online.drift_gauge().overall,
                online.predict_ms(&db, &scan),
            )
        }
        let (versions, drift, predicted) = run(true);
        assert!(
            versions >= 3,
            "an 8x gap needs (and gets) several clamped re-fits, saw {versions}"
        );
        assert!(
            drift < 0.3,
            "post-convergence residuals are small, gauge {drift}"
        );
        let (static_versions, static_drift, static_predicted) = run(false);
        assert_eq!(static_versions, 0, "static ablation never amends the model");
        assert!(
            static_drift > 1.5,
            "static gauge must expose the ~ln 8 ≈ 2.1 misprediction, saw {static_drift}"
        );
        assert!(
            predicted > 3.0 * static_predicted,
            "calibrated predictions moved toward the measured truth \
             ({predicted} vs frozen {static_predicted})"
        );
    }

    /// Satellite regression: the current layout's cost used to be priced
    /// without the catalog's indexed columns while the candidates were
    /// priced with them, so an indexed table's current cost was overstated
    /// and `improvement` inflated. When the recommended layout *is* the
    /// current one, the two prices must coincide.
    #[test]
    fn current_layout_is_priced_like_the_candidates() {
        use hsd_query::SelectQuery;
        let s = spec();
        let db = HybridDatabase::new();
        db.create_single(s.schema().unwrap(), StoreKind::Row)
            .unwrap();
        db.bulk_load("w", s.rows()).unwrap();
        db.create_index("w", s.grp_col(0)).unwrap();
        let mut m = model();
        m.row.sel_per_row_scan = 1e-4;
        m.row.sel_per_row_indexed = 1e-6;
        m.column.sel_per_row_scan = 1e-5;
        let cfg = OnlineConfig {
            evaluation_interval: usize::MAX,
            ..Default::default()
        };
        let mut online = OnlineAdvisor::new(StorageAdvisor::new(m), cfg);
        for i in 0..50 {
            let q = Query::Select(SelectQuery {
                table: "w".into(),
                columns: None,
                filter: vec![ColRange::eq(s.grp_col(0), s.value(i, s.grp_col(0)))],
            });
            db.execute(&q).unwrap();
            online.observe(&db, &q).unwrap();
        }
        let (rec, current_ms) = online.price_window(&db);
        assert_eq!(
            rec.layout,
            db.current_layout(),
            "the indexed row store stays"
        );
        assert!(
            (current_ms - rec.estimated_ms).abs() <= 1e-9 * current_ms,
            "current {current_ms} vs recommended {}",
            rec.estimated_ms
        );
        assert!(online.evaluate(&db).unwrap().is_none());
    }

    /// The parent's `predict_ms`, kept as the oracle: a context rebuilt from
    /// the whole catalog, every table's live tail pinned.
    fn predict_from_scratch(db: &HybridDatabase, model: &CostModel, q: &Query) -> f64 {
        let catalog = db.catalog();
        let schemas: Vec<_> = catalog.entries().iter().map(|e| e.schema.clone()).collect();
        let stats = catalog
            .entries()
            .iter()
            .map(|e| (e.schema.name.clone(), e.stats.clone()))
            .collect();
        let mut ctx = crate::advisor::build_ctx(&schemas, &stats);
        for entry in catalog.entries() {
            let t = ctx.tables.get_mut(&entry.schema.name).unwrap();
            t.indexed = entry.indexed_columns.clone();
            t.delta_tail = db.delta_tail(&entry.schema.name).unwrap_or(0);
        }
        estimate_query_layout(model, &ctx, &catalog.current_layout(), q)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// Cache invalidation: through random interleavings of statements,
        /// data moves, index and table creation, statistics refreshes, tier
        /// demotion/promotion and applied adaptations, the persistent
        /// catalog view predicts bit-for-bit what a context built from
        /// scratch predicts, and decides what an advisor whose view is
        /// rebuilt from scratch — same window, same recorded statistics —
        /// decides.
        #[test]
        fn cached_view_never_goes_stale(seed in proptest::any::<u64>()) {
            use hsd_catalog::{HorizontalSpec, PartitionSpec, VerticalSpec};
            use hsd_query::{InsertQuery, SelectQuery};
            let mut x = seed | 1;
            let mut below = move |n: usize| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % n as u64) as usize
            };
            let rows = 300;
            let db = HybridDatabase::new();
            let mut specs = Vec::new();
            let create = |specs: &mut Vec<TableSpec>, store: StoreKind| {
                let s = TableSpec::paper_wide(format!("t{}", specs.len()), rows, 7);
                db.create_single(s.schema().unwrap(), store).unwrap();
                db.bulk_load(&s.name, s.rows()).unwrap();
                specs.push(s);
            };
            create(&mut specs, StoreKind::Row);
            create(&mut specs, StoreKind::Column);
            db.set_merge_config(hsd_engine::MergeConfig::disabled());
            let cfg = OnlineConfig {
                evaluation_interval: usize::MAX,
                min_improvement: 0.0,
                maintenance_interval: 16,
                merge_min_tail: 8,
                ..Default::default()
            };
            let m = maintenance_model();
            let mut cached = OnlineAdvisor::new(StorageAdvisor::new(m.clone()), cfg.clone());
            let mut rebuilt = OnlineAdvisor::new(StorageAdvisor::new(m.clone()), cfg);
            for step in 0..120 {
                let s = specs[below(specs.len())].clone();
                let name = s.name.as_str();
                let key = Value::BigInt(below(rows) as i64);
                match below(14) {
                    0..=7 => {
                        let q = match below(4) {
                            0 => Query::Insert(InsertQuery {
                                table: s.name.clone(),
                                rows: vec![s.row((rows * 2 + step) as u64)],
                            }),
                            1 => Query::Update(UpdateQuery {
                                table: s.name.clone(),
                                sets: vec![(s.kf_col(0), Value::Double(1e6 + step as f64))],
                                filter: vec![ColRange::eq(0, key)],
                            }),
                            2 => Query::Select(SelectQuery {
                                table: s.name.clone(),
                                columns: None,
                                filter: vec![ColRange::eq(s.grp_col(0), s.value(step as u64, s.grp_col(0)))],
                            }),
                            _ => Query::Aggregate(AggregateQuery::simple(name, AggFunc::Sum, s.kf_col(0))),
                        };
                        db.execute(&q).unwrap();
                        let predicted = cached.predict_ms(&db, &q);
                        prop_assert_eq!(
                            predicted.to_bits(),
                            predict_from_scratch(&db, &m, &q).to_bits()
                        );
                        cached.observe_timed(&db, &q, 0.01).unwrap();
                        rebuilt.observe_timed(&db, &q, 0.01).unwrap();
                    }
                    8 => {
                        let horizontal = Some(HorizontalSpec {
                            split_column: 0,
                            split_value: Value::BigInt((rows / 2 + below(rows / 2)) as i64),
                        });
                        let target = match below(4) {
                            0 => TablePlacement::Single(StoreKind::Row),
                            1 => TablePlacement::Single(StoreKind::Column),
                            2 => TablePlacement::Partitioned(PartitionSpec {
                                horizontal,
                                ..Default::default()
                            }),
                            _ => TablePlacement::Partitioned(PartitionSpec {
                                horizontal,
                                vertical: Some(VerticalSpec {
                                    row_cols: vec![s.st_col(0)],
                                }),
                                ..Default::default()
                            }),
                        };
                        mover::move_table(&db, name, &target).unwrap();
                    }
                    9 => {
                        // Not every placement can carry a secondary index.
                        let _ = db.create_index(name, s.grp_col(0));
                    }
                    10 => create(&mut specs, StoreKind::BOTH[below(2)]),
                    11 => db.refresh_stats(name).unwrap(),
                    12 => {
                        // No-ops unless the table has a demotable / demoted
                        // cold partition.
                        if below(2) == 0 {
                            let _ = mover::demote_cold(&db, name);
                        } else {
                            let _ = mover::promote_cold(&db, name);
                        }
                    }
                    _ => {
                        rebuilt.view = CatalogView::default();
                        let (rec, current_ms) = cached.price_window(&db);
                        let (fresh, fresh_ms) = rebuilt.price_window(&db);
                        prop_assert_eq!(&rec.layout, &fresh.layout);
                        prop_assert_eq!(rec.estimated_ms.to_bits(), fresh.estimated_ms.to_bits());
                        prop_assert_eq!(current_ms.to_bits(), fresh_ms.to_bits());
                        if let Some(adaptation) = cached.evaluate(&db).unwrap() {
                            cached.apply(&db, &adaptation).unwrap();
                            rebuilt.apply(&db, &adaptation).unwrap();
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn online_advisor_detects_workload_shift() {
        let s = spec();
        let db = HybridDatabase::new();
        db.create_single(s.schema().unwrap(), StoreKind::Row)
            .unwrap();
        db.bulk_load("w", s.rows()).unwrap();

        let cfg = OnlineConfig {
            evaluation_interval: 100,
            min_improvement: 0.05,
            enable_partitioning: false,
            ..Default::default()
        };
        let mut online = OnlineAdvisor::new(StorageAdvisor::new(model()), cfg);

        // Phase 1: OLTP-only — the current row-store layout should hold.
        let oltp = WorkloadGenerator::single_table(
            &s,
            &MixedWorkloadConfig {
                queries: 100,
                olap_fraction: 0.0,
                ..Default::default()
            },
        );
        let mut adaptations = 0;
        for q in &oltp.queries {
            db.execute(q).unwrap();
            if online.observe(&db, q).unwrap().is_some() {
                adaptations += 1;
            }
        }
        assert_eq!(adaptations, 0, "row store is already optimal for OLTP");

        // Phase 2: the workload turns analytical — an adaptation to the
        // column store must be recommended. The phase-2 generator allocates
        // insert ids beyond everything phase 1 could have inserted.
        let s2 = TableSpec {
            rows: 10_000,
            ..spec()
        };
        let olap = WorkloadGenerator::single_table(
            &s2,
            &MixedWorkloadConfig {
                queries: 100,
                olap_fraction: 0.8,
                ..Default::default()
            },
        );
        let mut adaptation = None;
        for q in &olap.queries {
            db.execute(q).unwrap();
            if let Some(a) = online.observe(&db, q).unwrap() {
                adaptation = Some(a);
                break;
            }
        }
        let adaptation = adaptation.expect("workload shift must trigger adaptation");
        assert!(adaptation.improvement >= 0.05);
        assert_eq!(adaptation.changed_tables, vec!["w".to_string()]);
        assert_eq!(
            adaptation.recommendation.layout.placement("w"),
            TablePlacement::Single(StoreKind::Column)
        );

        // Apply it and verify the database moved.
        let moved = online.apply(&db, &adaptation).unwrap();
        assert_eq!(moved, vec!["w".to_string()]);
        assert_eq!(
            db.catalog().single_store_of("w").unwrap(),
            StoreKind::Column
        );
        assert_eq!(
            online.recorded_statements(),
            0,
            "interval resets after adaptation"
        );
    }
}
