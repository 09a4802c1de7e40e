//! One benchmark run: the phases every workload goes through.
//!
//! `setup` (generate → load → `recommend_offline` → `apply_layout`) →
//! `warmup` (answers checked statement by statement against an all-row
//! in-memory reference) → `serve` (fixed statement count, closed loop) →
//! `drain` (`BackgroundWorker::stop(true)`, inside the timed window so
//! deferred merges are charged) → `end_state` (content digest against the
//! reference) → `recovery` (crash-reopen from the bytes flushed so far).
//!
//! Every phase and every call into the engine's public API is a span; the
//! layers are measured from outside, from this file.

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use hsd_catalog::{HorizontalSpec, PartitionSpec, StorageLayout, TablePlacement, TableStats, Tier};
use hsd_core::{
    CostModel, MaintenanceAction, OnlineAdvisor, OnlineConfig, Recommendation, StorageAdvisor,
    TierModel,
};
use hsd_engine::checkpoint::{encode_checkpoint, restore_checkpoint};
use hsd_engine::{
    mover, BackgroundWorker, DurabilityConfig, HybridDatabase, MergePartition, WorkerConfig,
    WorkerStats,
};
use hsd_query::{Query, Workload};
use hsd_storage::{StoreKind, WalStats};
use hsd_tpch::scenario::{load_tenants, tenant_table};
use hsd_tpch::TpchGenerator;
use hsd_types::TableSchema;

use crate::check::{same_output, state_digest, state_mismatches, TableDigest};
use crate::trace::{SpanId, Tracer};
use crate::workloads::{cold_split_key, generate, Kind, Spec, Stmt, DATA_SEED};

/// Benchmark-level result: engine errors and I/O errors alike abort a run.
pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Statements of the stream handed to `recommend_offline` as the expected
/// workload (the advisor analyses a sample, not the whole run).
const ADVISE_SAMPLE: usize = 5_000;
/// How long the background worker parks when its queue is idle.
const WORKER_POLL: Duration = Duration::from_micros(600);
/// Time given to timing `recommend_offline` at each point of a run where it
/// is timed (always at least one call).
const DECIDE_SLICE: Duration = Duration::from_millis(100);

/// The committed cost model, compiled in so the benchmark does not depend
/// on its working directory. A model calibrated before the disk tier
/// existed prices disk residency as free; it gets the documented disk
/// profile, as `bench_tiering` does.
pub fn cost_model() -> CostModel {
    let mut model = CostModel::from_json(include_str!("../../cost_model.json"))
        .expect("committed cost_model.json parses");
    if model.tier == TierModel::neutral() {
        model.tier = TierModel::default_disk();
    }
    model
}

/// Start and duration of one served statement, on the run's clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Duration of `db.execute`, nanoseconds.
    pub dur_ns: u64,
}

/// Schemas and statistics of a freshly loaded (all-row) catalog.
pub struct CatalogSnapshot {
    /// Table schemas, catalog order.
    pub schemas: Vec<Arc<TableSchema>>,
    /// Basic statistics by table name.
    pub stats: BTreeMap<String, TableStats>,
}

impl CatalogSnapshot {
    fn of(db: &HybridDatabase) -> Self {
        let catalog = db.catalog();
        CatalogSnapshot {
            schemas: catalog.entries().iter().map(|e| e.schema.clone()).collect(),
            stats: catalog
                .entries()
                .iter()
                .map(|e| (e.schema.name.clone(), e.stats.clone()))
                .collect(),
        }
    }

    /// Estimation context over the snapshot.
    pub fn ctx(&self) -> hsd_core::EstimationCtx {
        hsd_core::advisor::build_ctx(&self.schemas, &self.stats)
    }
}

/// Wall-clock of the parts of one `setup`.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Whole setup, seconds.
    pub total_s: f64,
    /// `mover::apply_layout`, milliseconds.
    pub apply_layout_ms: f64,
    /// Tables `apply_layout` rebuilt.
    pub moves: usize,
    /// `mover::demote_cold` over the split tables, milliseconds.
    pub demote_ms: f64,
}

/// What the advisor decided for a workload.
pub struct Advice {
    /// The advisor (budgeted where the workload has a budget).
    pub advisor: StorageAdvisor,
    /// Its recommendation on the sample.
    pub rec: Recommendation,
    /// The layout actually applied: the recommendation, with the hot/cold
    /// split of `cold_tier` laid over it.
    pub layout: StorageLayout,
    /// Memory budget in bytes, if any.
    pub budget: Option<f64>,
    /// The expected workload the advisor was shown.
    pub sample: Workload,
}

/// A database set up for serving.
pub struct Built {
    /// The database.
    pub db: Arc<HybridDatabase>,
    /// Its data directory, when durable.
    pub dir: Option<PathBuf>,
    /// Catalog snapshot taken after the (all-row) load.
    pub catalog: CatalogSnapshot,
    /// The advisor's decision.
    pub advice: Advice,
    /// The layout serving starts under (the advice as the catalog records
    /// it once applied, disk tier included).
    pub served_layout: StorageLayout,
    /// Setup timings.
    pub times: SetupTimes,
}

/// Everything this process writes besides its results: removed when the
/// process ends, however it ends.
pub fn data_root(out: &Path) -> PathBuf {
    out.join("data").join(std::process::id().to_string())
}

/// A fresh directory under the process's data root (removed first if it
/// exists).
pub fn fresh_dir(out: &Path, tag: &str) -> Res<PathBuf> {
    let dir = data_root(out).join(tag);
    match std::fs::remove_dir_all(&dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
        _ => {}
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Open (durable: `open_dir`, default flush policy) and load every tenant
/// all-row, as the advisor's starting point.
fn open_and_load(spec: &Spec, g: &TpchGenerator, dir: Option<&Path>) -> Res<HybridDatabase> {
    let db = match dir {
        Some(dir) => HybridDatabase::open_dir(dir, DurabilityConfig::default())?.0,
        None => HybridDatabase::new(),
    };
    load_tenants(g, &db, spec.tenants, |_| {
        TablePlacement::Single(StoreKind::Row)
    })?;
    Ok(db)
}

/// Tables of `cold_tier` that are split hot/cold and demoted.
fn cold_tables(spec: &Spec) -> Vec<String> {
    if spec.kind == Kind::ColdTier {
        vec![tenant_table(0, "lineitem"), tenant_table(0, "orders")]
    } else {
        Vec::new()
    }
}

/// Run the advisor on the head of the stream.
fn advise(
    spec: &Spec,
    g: &TpchGenerator,
    catalog: &CatalogSnapshot,
    stream: &[Stmt],
) -> Res<Advice> {
    let sample = Workload::from_queries(
        stream
            .iter()
            .take(ADVISE_SAMPLE)
            .map(|s| s.query.clone())
            .collect(),
    );
    let row_layout = StorageLayout::uniform(
        catalog.schemas.iter().map(|s| s.name.as_str()),
        StoreKind::Row,
    );
    let budget = spec
        .budget_share
        .map(|share| share * hsd_core::layout_footprint_bytes(&catalog.ctx(), &row_layout));
    let advisor = StorageAdvisor {
        memory_budget: budget,
        ..StorageAdvisor::new(cost_model())
    };
    let rec = advisor.recommend_offline(&catalog.schemas, &catalog.stats, &sample, true)?;
    let mut layout = rec.layout.clone();
    for table in cold_tables(spec) {
        // Hot (recent keys) → row store, cold → column store; the cold part
        // is demoted to disk after the split is in place.
        layout.set(
            table,
            TablePlacement::Partitioned(PartitionSpec {
                horizontal: Some(HorizontalSpec {
                    split_column: 0,
                    split_value: hsd_types::Value::BigInt(cold_split_key(g)),
                }),
                vertical: None,
                cold_tier: Tier::Memory,
            }),
        );
    }
    Ok(Advice {
        advisor,
        rec,
        layout,
        budget,
        sample,
    })
}

/// Apply `layout` and demote the cold partitions of the split tables;
/// returns the timings of both (`total_s` is the caller's to fill).
fn place(
    spec: &Spec,
    db: &HybridDatabase,
    layout: &StorageLayout,
    t: &mut Tracer,
    parent: SpanId,
) -> Res<SetupTimes> {
    let clock = t.clock();
    let start = clock.now_ns();
    let moved = t.span(parent, "apply_layout", || mover::apply_layout(db, layout))?;
    let mid = clock.now_ns();
    t.span(parent, "demote_cold", || -> Res<()> {
        for table in cold_tables(spec) {
            mover::demote_cold(db, &table)?;
        }
        Ok(())
    })?;
    Ok(SetupTimes {
        total_s: 0.0,
        apply_layout_ms: (mid - start) as f64 / 1e6,
        moves: moved.len(),
        demote_ms: (clock.now_ns() - mid) as f64 / 1e6,
    })
}

/// A database loaded and placed under a given layout, for the comparison
/// arms of the traced run (no stream generation, no advisor).
pub fn build_under(
    spec: &Spec,
    g: &TpchGenerator,
    dir: Option<&Path>,
    layout: &StorageLayout,
    t: &mut Tracer,
    parent: SpanId,
) -> Res<Arc<HybridDatabase>> {
    let db = t.span(parent, "load", || open_and_load(spec, g, dir))?;
    place(spec, &db, layout, t, parent)?;
    Ok(Arc::new(db))
}

/// The whole `setup` phase: generate → load → `recommend_offline` →
/// `apply_layout` (→ `demote_cold`).
pub fn setup(
    spec: &Spec,
    g: &TpchGenerator,
    seed: u64,
    n: usize,
    dir: Option<PathBuf>,
    t: &mut Tracer,
    parent: SpanId,
) -> Res<(Built, Vec<Stmt>)> {
    let clock = t.clock();
    let span = t.begin(parent, "setup");
    let start = clock.now_ns();
    let stream = t.span(span, "generate", || generate(spec, g, seed, n));
    let db = t.span(span, "load", || open_and_load(spec, g, dir.as_deref()))?;
    let catalog = CatalogSnapshot::of(&db);
    let advice = t.span(span, "recommend_offline", || {
        advise(spec, g, &catalog, &stream)
    })?;
    let mut times = place(spec, &db, &advice.layout, t, span)?;
    times.total_s = (clock.now_ns() - start) as f64 / 1e9;
    t.end(span);
    let built = Built {
        served_layout: db.current_layout(),
        db: Arc::new(db),
        dir,
        catalog,
        advice,
        times,
    };
    Ok((built, stream))
}

/// Counters of the online advisor over one serve.
#[derive(Debug, Clone, Default)]
pub struct OnlineObs {
    /// Duration of every `observe_timed` call, nanoseconds.
    pub observe_ns: Vec<u64>,
    /// Adaptations applied.
    pub replans: u64,
    /// Wall-clock inside `OnlineAdvisor::apply`, nanoseconds.
    pub apply_ns: u64,
    /// `MaintenanceAction::Merge` forwarded to the worker.
    pub merges_scheduled: u64,
    /// `MaintenanceAction::Retract` forwarded to the worker.
    pub retracts: u64,
    /// Model re-fits (model version delta).
    pub model_refits: u64,
    /// Overall drift gauge at the end.
    pub drift_overall: f64,
    /// `observe_timed` / `apply` calls that returned `Err`.
    pub errors: usize,
}

struct OnlineCtl {
    advisor: OnlineAdvisor,
    obs: OnlineObs,
}

impl OnlineCtl {
    /// What the serving loop does after every statement when the online
    /// advisor is live: feed it the timed statement, apply a re-plan if it
    /// asks for one, forward its merge decisions to the worker.
    fn after(
        &mut self,
        db: &HybridDatabase,
        q: &Query,
        executed: Timing,
        worker: &BackgroundWorker,
        t: &mut Tracer,
        parent: SpanId,
    ) {
        let clock = t.clock();
        let start_ns = executed.start_ns + executed.dur_ns;
        let adaptation = self
            .advisor
            .observe_timed(db, q, executed.dur_ns as f64 / 1e6);
        let observed = clock.now_ns();
        t.record(parent, "observe_timed", "", start_ns, observed);
        self.obs.observe_ns.push(observed - start_ns);
        match adaptation {
            Ok(Some(a)) => {
                let applied = self.advisor.apply(db, &a);
                let end = clock.now_ns();
                t.record(parent, "apply", "", observed, end);
                self.obs.replans += 1;
                self.obs.apply_ns += end - observed;
                self.obs.errors += usize::from(applied.is_err());
            }
            Ok(None) => {}
            Err(_) => self.obs.errors += 1,
        }
        let actions = self.advisor.take_maintenance();
        if !actions.is_empty() {
            let start = clock.now_ns();
            for action in actions {
                match action {
                    MaintenanceAction::Merge { table, partition } => {
                        worker.enqueue(&table, partition);
                        self.obs.merges_scheduled += 1;
                    }
                    MaintenanceAction::Retract { table } => {
                        worker.retract(&table);
                        self.obs.retracts += 1;
                    }
                }
            }
            t.record(parent, "enqueue", "", start, clock.now_ns());
        }
    }
}

/// The mid-run checkpoint as the clients saw it.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointObs {
    /// Start on the run's clock.
    pub start_ns: u64,
    /// End on the run's clock.
    pub end_ns: u64,
    /// Checkpoint file size.
    pub bytes: u64,
}

/// The online advisor as `htap_mixed` is measured with it: the default
/// configuration with the cost model frozen. With the default's online
/// re-fitting, drift-triggered re-plans depend on measured latencies and
/// the layout flips back and forth (dozens of `apply`s per few thousand
/// statements, a different number on every run of one seed), so no metric
/// of the workload repeats; the traced run serves the head of the stream
/// that way too and reports it as `online.selfcal_*`.
pub fn online_config() -> OnlineConfig {
    OnlineConfig {
        self_calibrating: false,
        ..OnlineConfig::default()
    }
}

/// How to serve.
pub struct ServeCfg {
    /// Closed-loop clients (≤ the workload's; 1 replays every client's
    /// statements in global order).
    pub clients: usize,
    /// Run the online advisor, so configured, after every statement
    /// (single client).
    pub online: Option<OnlineConfig>,
    /// Take one `checkpoint()` when client 0 reaches its midpoint.
    pub mid_checkpoint: bool,
}

impl ServeCfg {
    /// The configuration a workload is measured under.
    pub fn of(spec: &Spec) -> ServeCfg {
        ServeCfg {
            clients: spec.clients,
            online: (spec.kind == Kind::HtapMixed).then(online_config),
            mid_checkpoint: spec.kind == Kind::OltpDurable,
        }
    }

    /// One client, no advisor, no checkpoint: the comparison arms.
    pub fn plain() -> ServeCfg {
        ServeCfg {
            clients: 1,
            online: None,
            mid_checkpoint: false,
        }
    }
}

/// Result of `serve` + `drain`.
pub struct Served {
    /// Global indices served.
    pub range: Range<usize>,
    /// Timing of statement `range.start + i`.
    pub timings: Vec<Timing>,
    /// Statements that returned `Err`.
    pub errors: usize,
    /// Start of `serve` on the run's clock.
    pub start_ns: u64,
    /// End of `serve` (last client done).
    pub served_ns: u64,
    /// End of `drain` (worker stopped, WAL synced): end of the timed window.
    pub drained_ns: u64,
    /// Dictionary-tail entries over all tables when `serve` ended, before
    /// the drain folded them.
    pub tail_entries: usize,
    /// The worker's lifetime counters.
    pub worker: WorkerStats,
    /// WAL counters accumulated over serve + drain (zero without a WAL).
    pub wal: WalStats,
    /// The mid-run checkpoint, if one was taken.
    pub checkpoint: Option<CheckpointObs>,
    /// Online-advisor counters, if it was live.
    pub online: Option<OnlineObs>,
    /// Span ids of `serve` and `drain` (0 when tracing is off).
    pub spans: [SpanId; 2],
}

impl Served {
    /// Length of the timed window (serve + drain), seconds.
    pub fn window_s(&self) -> f64 {
        (self.drained_ns - self.start_ns) as f64 / 1e9
    }

    /// Seconds from the start of `serve` until every client had finished
    /// the statements before global index `end`.
    pub fn prefix_window_s(&self, end: usize) -> f64 {
        let last = self.timings[..end - self.range.start]
            .iter()
            .map(|t| t.start_ns + t.dur_ns)
            .max()
            .unwrap_or(self.start_ns);
        (last - self.start_ns) as f64 / 1e9
    }
}

fn wal_delta(after: Option<WalStats>, before: Option<WalStats>) -> WalStats {
    let (a, b) = (after.unwrap_or_default(), before.unwrap_or_default());
    WalStats {
        records: a.records - b.records,
        frame_bytes: a.frame_bytes - b.frame_bytes,
        payload_bytes: a.payload_bytes - b.payload_bytes,
        syncs: a.syncs - b.syncs,
        retries: a.retries - b.retries,
    }
}

fn client_loop(
    db: &HybridDatabase,
    work: &[&Stmt],
    worker: &BackgroundWorker,
    mut online: Option<&mut OnlineCtl>,
    midpoint: Option<mpsc::Sender<()>>,
    t: &mut Tracer,
    parent: SpanId,
) -> (Vec<Timing>, usize) {
    let clock = t.clock();
    let mut timings = Vec::with_capacity(work.len());
    let mut errors = 0;
    for (k, s) in work.iter().enumerate() {
        if k == work.len() / 2 {
            if let Some(tx) = &midpoint {
                let _ = tx.send(());
            }
        }
        let start = clock.now_ns();
        let ok = db.execute(&s.query).is_ok();
        let end = clock.now_ns();
        errors += usize::from(!ok);
        let executed = Timing {
            start_ns: start,
            dur_ns: end - start,
        };
        timings.push(executed);
        t.record(parent, "execute", s.tag(), start, end);
        if let Some(o) = online.as_deref_mut() {
            o.after(db, &s.query, executed, worker, t, parent);
        }
    }
    (timings, errors)
}

/// `serve` + `drain`: closed-loop clients over `stmts[range]`, the
/// background worker live, then the worker drained and the WAL synced —
/// all inside the timed window.
pub fn serve(
    db: &Arc<HybridDatabase>,
    stmts: &[Stmt],
    range: Range<usize>,
    cfg: &ServeCfg,
    advice: &Advice,
    t: &mut Tracer,
    parent: SpanId,
) -> Served {
    let clock = t.clock();
    let per_client: Vec<Vec<usize>> = (0..cfg.clients)
        .map(|c| {
            range
                .clone()
                .filter(|&i| cfg.clients == 1 || stmts[i].client == c)
                .collect()
        })
        .collect();
    let mut online = cfg.online.clone().map(|online_cfg| OnlineCtl {
        // A clone shares the offline advisor's model handle (and budget), so
        // online re-fits show in its version counter.
        advisor: OnlineAdvisor::new(advice.advisor.clone(), online_cfg),
        obs: OnlineObs::default(),
    });
    let model_version = advice.advisor.model.version();
    let wal_before = db.wal_stats();
    let worker = BackgroundWorker::spawn(db.clone(), WorkerConfig::default(), WORKER_POLL);

    let serve_span = t.begin(parent, "serve");
    let start_ns = clock.now_ns();
    let (tx, rx) = mpsc::channel::<()>();
    let mut timings = vec![Timing::default(); range.len()];
    let mut errors = 0;
    let mut checkpoint = None;
    let mut online_slot = online.as_mut();
    std::thread::scope(|s| {
        let checkpointer = cfg.mid_checkpoint.then(|| {
            let mut ct = t.fork();
            let db = &**db;
            s.spawn(move || {
                let obs = rx.recv().ok().and_then(|()| {
                    let start = ct.clock().now_ns();
                    let report = db.checkpoint().ok()?;
                    let end = ct.clock().now_ns();
                    ct.record(serve_span, "checkpoint", "", start, end);
                    Some(CheckpointObs {
                        start_ns: start,
                        end_ns: end,
                        bytes: report.bytes,
                    })
                });
                (obs, ct)
            })
        });
        let handles: Vec<_> = per_client
            .iter()
            .enumerate()
            .map(|(c, indices)| {
                let mut ct = t.fork();
                let midpoint = (c == 0 && cfg.mid_checkpoint).then(|| tx.clone());
                let online = if c == 0 { online_slot.take() } else { None };
                let (db, worker) = (&**db, &worker);
                let work: Vec<&Stmt> = indices.iter().map(|&i| &stmts[i]).collect();
                s.spawn(move || {
                    let out = client_loop(db, &work, worker, online, midpoint, &mut ct, serve_span);
                    (out, ct)
                })
            })
            .collect();
        drop(tx);
        for (handle, indices) in handles.into_iter().zip(&per_client) {
            let ((client_timings, client_errors), ct) = handle.join().expect("client thread");
            for (&i, timing) in indices.iter().zip(client_timings) {
                timings[i - range.start] = timing;
            }
            errors += client_errors;
            t.absorb(ct);
        }
        if let Some(handle) = checkpointer {
            let (obs, ct) = handle.join().expect("checkpointer thread");
            // A requested checkpoint that failed is a failed operation.
            errors += usize::from(obs.is_none());
            checkpoint = obs;
            t.absorb(ct);
        }
    });
    t.end(serve_span);
    let served_ns = clock.now_ns();

    // Drain: fold whatever delta tails the layout accumulated, on the clock.
    let drain_span = t.begin(parent, "drain");
    let mut tail_entries = 0;
    let layout = db.current_layout();
    for name in db.table_names() {
        let tail = db.delta_tail(&name).unwrap_or(0);
        tail_entries += tail;
        if tail > 0 {
            let partition = match layout.placement(&name) {
                TablePlacement::Single(_) => MergePartition::Whole,
                TablePlacement::Partitioned(_) => MergePartition::Cold,
            };
            worker.enqueue(&name, partition);
        }
    }
    let worker_stats = t.span(drain_span, "worker_stop", || worker.stop(true));
    let synced = t.span(drain_span, "sync_wal", || db.sync_wal());
    errors += usize::from(synced.is_err());
    t.end(drain_span);
    let drained_ns = clock.now_ns();

    let online = online.map(|ctl| {
        let mut obs = ctl.obs;
        obs.model_refits = advice.advisor.model.version() - model_version;
        obs.drift_overall = ctl.advisor.drift_gauge().overall;
        obs
    });
    Served {
        range,
        timings,
        errors,
        start_ns,
        served_ns,
        drained_ns,
        tail_entries,
        worker: worker_stats,
        wal: wal_delta(db.wal_stats(), wal_before),
        checkpoint,
        online,
        spans: [serve_span, drain_span],
    }
}

/// The all-row in-memory reference every answer and end state is checked
/// against.
pub struct Reference {
    db: HybridDatabase,
    /// Writes of the stream applied so far (global index).
    applied: usize,
}

impl Reference {
    /// Load the same data, every table in the row store, no WAL.
    pub fn build(spec: &Spec, g: &TpchGenerator) -> Res<Reference> {
        Ok(Reference {
            db: open_and_load(spec, g, None)?,
            applied: 0,
        })
    }

    /// `warmup`: execute `stmts[..n]` on both databases, statement by
    /// statement, and count the answers that differ (an `Err` on either
    /// side differs).
    pub fn warmup(&mut self, db: &HybridDatabase, stmts: &[Stmt], n: usize) -> usize {
        assert_eq!(self.applied, 0, "warm-up starts the stream");
        self.applied = n;
        stmts[..n]
            .iter()
            .filter(
                |s| match (db.execute(&s.query), self.db.execute(&s.query)) {
                    (Ok(a), Ok(b)) => !same_output(&a, &b),
                    _ => true,
                },
            )
            .count()
    }

    /// Apply the writes of `stmts[..end]` not applied yet, then digest.
    /// Reads do not change state and are skipped.
    pub fn state_after(
        &mut self,
        stmts: &[Stmt],
        end: usize,
    ) -> Res<BTreeMap<String, TableDigest>> {
        for s in &stmts[self.applied..end] {
            if matches!(s.query, Query::Insert(_) | Query::Update(_)) {
                self.db.execute(&s.query)?;
            }
        }
        self.applied = end;
        Ok(state_digest(&self.db)?)
    }
}

/// A second directory over the same files (hard links): recovery replaces
/// files by rename and never rewrites one in place, so the original stays
/// as it was, and a hundred megabytes of copying stay out of the next
/// phase's flushes.
fn link_dir(src: &Path, dst: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            link_dir(&entry.path(), &to)?;
        } else {
            std::fs::hard_link(entry.path(), to)?;
        }
    }
    Ok(())
}

/// Segment bytes of every demoted cold partition.
pub fn cold_bytes(db: &HybridDatabase) -> u64 {
    db.table_names()
        .iter()
        .map(|t| db.disk_bytes(t).unwrap_or(0))
        .sum()
}

/// Bytes of every file under `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        total += if entry.file_type()?.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            entry.metadata()?.len()
        };
    }
    Ok(total)
}

/// Outcome of one crash-reopen.
pub struct Recovery {
    /// Time to bring the copy back, seconds.
    pub seconds: f64,
    /// Tables whose reopened state differs from the acknowledged state.
    pub mismatches: usize,
    /// Bytes on disk the instance restarted from.
    pub disk_bytes: u64,
    /// WAL records replayed on reopen.
    pub records_replayed: usize,
}

/// `recovery`: restart from only the bytes flushed before the "crash".
///
/// Durable: the WAL was synced at the end of `drain`; the data directory is
/// duplicated with `wal.log` cut at that acknowledged length (the benchmark
/// itself discards whatever the OS cache still holds beyond it), reopened
/// with `open_dir`, and must equal the acknowledged state. In-memory: the
/// database is exported with `encode_checkpoint`, the image written and
/// read back, and `restore_checkpoint` must rebuild the same state.
pub fn recover(
    built: &Built,
    expected: &BTreeMap<String, TableDigest>,
    out: &Path,
    t: &mut Tracer,
    parent: SpanId,
) -> Res<Recovery> {
    let clock = t.clock();
    let copy = fresh_dir(out, "crash")?;
    let span = t.begin(parent, "recovery");
    let (reopened, records_replayed, seconds) = match &built.dir {
        Some(dir) => {
            let acknowledged = built.db.wal_len();
            link_dir(dir, &copy)?;
            let wal = copy.join("wal.log");
            if std::fs::metadata(&wal)?.len() != acknowledged {
                // Bytes past the acknowledged length did not survive the
                // crash: cut them off a private copy of the log.
                std::fs::remove_file(&wal)?;
                std::fs::copy(dir.join("wal.log"), &wal)?;
                let file = std::fs::OpenOptions::new().write(true).open(&wal)?;
                file.set_len(acknowledged)?;
                file.sync_all()?;
            }
            let start = clock.now_ns();
            let (db, report) = t.span(span, "open_dir", || {
                HybridDatabase::open_dir(&copy, DurabilityConfig::default())
            })?;
            let seconds = (clock.now_ns() - start) as f64 / 1e9;
            (db, report.records_replayed, seconds)
        }
        None => {
            let (image, _) = t.span(span, "encode_checkpoint", || encode_checkpoint(&built.db))?;
            let path = copy.join("snapshot");
            std::fs::write(&path, &image)?;
            let start = clock.now_ns();
            let db = HybridDatabase::new();
            t.span(span, "restore_checkpoint", || -> Res<()> {
                restore_checkpoint(&db, &std::fs::read(&path)?)?;
                Ok(())
            })?;
            let seconds = (clock.now_ns() - start) as f64 / 1e9;
            (db, 0, seconds)
        }
    };
    let mismatches = state_mismatches(expected, &state_digest(&reopened)?);
    let disk_bytes = dir_bytes(&copy)?;
    drop(reopened);
    t.end(span);
    std::fs::remove_dir_all(&copy)?;
    Ok(Recovery {
        seconds,
        mismatches,
        disk_bytes,
        records_replayed,
    })
}

/// Wall-clock of `reps` `recommend_offline` calls, milliseconds each.
pub fn decide_ms(
    advice: &Advice,
    advisor: &StorageAdvisor,
    catalog: &CatalogSnapshot,
    reps: usize,
    t: &mut Tracer,
    parent: SpanId,
) -> Res<Vec<f64>> {
    let clock = t.clock();
    let mut ms = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = clock.now_ns();
        t.span(parent, "recommend_offline", || {
            advisor.recommend_offline(&catalog.schemas, &catalog.stats, &advice.sample, true)
        })?;
        ms.push((clock.now_ns() - start) as f64 / 1e6);
    }
    Ok(ms)
}

/// Everything the measured part of a run produced, before it is turned
/// into metrics.
pub struct Measured {
    /// The served database and its advice.
    pub built: Built,
    /// The whole stream (warm-up prefix included).
    pub stream: Vec<Stmt>,
    /// `setup` wall-clock of every repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Wall-clock of the `recommend_offline` calls behind
    /// `advisor_decide_ms`, milliseconds (empty in a traced run).
    pub decide_ms: Vec<f64>,
    /// Serve + drain.
    pub served: Served,
    /// Warm-up answers that differed from the reference.
    pub warmup_mismatches: usize,
    /// Tables whose end state differed from the reference.
    pub end_state_mismatches: usize,
    /// Every crash-reopen of the same acknowledged state.
    pub recoveries: Vec<Recovery>,
    /// `db.memory_bytes()` after drain.
    pub memory_bytes: usize,
    /// Data-directory bytes after drain (the snapshot image for the
    /// in-memory workload).
    pub disk_bytes: u64,
    /// Per-table row counts after the load, before serving.
    pub loaded_rows: BTreeMap<String, usize>,
}

/// Generator of a workload's (constant) data set.
pub fn generator(spec: &Spec) -> TpchGenerator {
    TpchGenerator::new(spec.sf, DATA_SEED)
}

/// Statements a run of `seconds` serves (warm-up prefix on top).
pub fn statements(spec: &Spec, seconds: f64) -> usize {
    ((spec.stmts_per_second as f64 * seconds) as usize).max(200)
}

/// What a run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Seed of the statement stream.
    pub seed: u64,
    /// Length the timed window is sized for.
    pub seconds: f64,
    /// Times `setup` runs (`setup_s` is the median; the last one is served).
    pub setup_reps: usize,
    /// Crash-reopens (`recovery_s` is the median).
    pub recovery_reps: usize,
    /// Whether `recommend_offline` is timed between the phases of the run.
    pub time_advisor: bool,
}

impl Plan {
    /// The measured run: three set-ups, three crash-reopens, the advisor
    /// timed between the phases.
    pub fn measured(seed: u64, seconds: f64) -> Plan {
        Plan {
            seed,
            seconds,
            setup_reps: 3,
            recovery_reps: 3,
            time_advisor: true,
        }
    }

    /// The traced run reports none of `setup_s`, `recovery_s` and
    /// `advisor_decide_ms`: one set-up, one crash-reopen, no advisor calls
    /// beyond the set-up's.
    pub fn traced(seed: u64, seconds: f64) -> Plan {
        Plan {
            seed,
            seconds,
            setup_reps: 1,
            recovery_reps: 1,
            time_advisor: false,
        }
    }
}

/// Run every phase of one workload.
///
/// `advisor_decide_ms` is sampled after every set-up, the end state and
/// every crash-reopen rather than back to back: this box's speed shifts in
/// phases of several seconds, and samples taken together would all carry
/// one phase's bias. It is not sampled while the reference database is
/// alive: the 64-table decision then takes 240–330 ms instead of 450–650 ms
/// (freed memory stays in the process instead of going back to the kernel
/// on every call), and a median over two such modes sits on their boundary.
/// Each time the advisor is called once and then again until
/// [`DECIDE_SLICE`] is spent, so a 10 ms decision is sampled as long as a
/// 500 ms one.
pub fn measure(
    spec: &Spec,
    plan: &Plan,
    out: &Path,
    t: &mut Tracer,
    root: SpanId,
) -> Res<Measured> {
    let g = generator(spec);
    let n = spec.verify_prefix + statements(spec, plan.seconds);
    let mut decide = Vec::new();
    let mut sample_decide = |built: &Built, t: &mut Tracer| -> Res<()> {
        let advice = &built.advice;
        let start = std::time::Instant::now();
        let mut calls = 0;
        while plan.time_advisor && (calls == 0 || start.elapsed() < DECIDE_SLICE) {
            let advisor = &advice.advisor;
            decide.extend(decide_ms(advice, advisor, &built.catalog, 1, t, root)?);
            calls += 1;
        }
        Ok(())
    };

    // setup, repeated; the last repetition is the one served.
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..plan.setup_reps.max(1) {
        drop(last.take());
        let dir = match spec.durable() {
            true => Some(fresh_dir(out, spec.name)?),
            false => None,
        };
        let (built, stream) = setup(spec, &g, plan.seed, n, dir, t, root)?;
        setup_s.push(built.times.total_s);
        sample_decide(&built, t)?;
        last = Some((built, stream));
    }
    let (built, stream) = last.expect("at least one setup");
    let loaded_rows = built
        .db
        .table_names()
        .into_iter()
        .map(|name| {
            let rows = built.db.row_count(&name).unwrap_or(0);
            (name, rows)
        })
        .collect();

    let mut reference = t.span(root, "reference", || Reference::build(spec, &g))?;
    let verify = spec.verify_prefix.min(stream.len());
    let warmup_mismatches = t.span(root, "warmup", || {
        reference.warmup(&built.db, &stream, verify)
    });

    let served = serve(
        &built.db,
        &stream,
        verify..stream.len(),
        &ServeCfg::of(spec),
        &built.advice,
        t,
        root,
    );
    let memory_bytes = built.db.memory_bytes();

    let end_state = t.begin(root, "end_state");
    let expected = reference.state_after(&stream, stream.len())?;
    drop(reference);
    let actual = state_digest(&built.db)?;
    let end_state_mismatches = state_mismatches(&expected, &actual);
    t.end(end_state);
    sample_decide(&built, t)?;

    let mut recoveries = Vec::new();
    for _ in 0..plan.recovery_reps.max(1) {
        recoveries.push(recover(&built, &actual, out, t, root)?);
        sample_decide(&built, t)?;
    }
    let disk_bytes = match &built.dir {
        Some(dir) => dir_bytes(dir)?,
        None => recoveries[0].disk_bytes,
    };
    Ok(Measured {
        built,
        stream,
        setup_s,
        decide_ms: decide,
        served,
        warmup_mismatches,
        end_state_mismatches,
        recoveries,
        memory_bytes,
        disk_bytes,
        loaded_rows,
    })
}
