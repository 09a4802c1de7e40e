//! Tiered persistence: checkpoint-bounded recovery and disk-demoted cold
//! fragments under a memory budget, recorded as `BENCH_tiering.json`.
//!
//! Two claims about the tiered backend, each with a correctness gate:
//!
//! * **Checkpoint bounds recovery** — a directory-backed database streams
//!   statements, checkpoints, then streams a short suffix. Reopening via
//!   [`HybridDatabase::open_dir`] restores the newest checkpoint image and
//!   replays only the suffix; the baseline replays the *entire* log.
//!   `checkpoint_speedup = full_replay_ms / bounded_ms` must be >= 2 with
//!   the log at 4x the suffix, and both paths must rebuild the live
//!   database's exact contents.
//! * **Demotion beats the all-disk corner under a budget** — a skewed
//!   workload (point reads on the hottest 10% of ids plus a thin stream of
//!   full scans) runs against three layouts of the same table: all-memory
//!   column store (whose modeled footprint *exceeds* the budget —
//!   infeasible, timed only for reference), everything demoted to disk,
//!   and the advisor-shaped hybrid (hot 10% in the memory row store, cold
//!   90% demoted). The hybrid must win the stopwatch, and the cost model's
//!   pick among the feasible layouts must match the measured winner.
//!
//! Run with `cargo run --release -p hsd-bench --bin bench_tiering`
//! (`-- --smoke` for the small CI configuration).

use std::path::PathBuf;
use std::time::Instant;

use hsd_bench::{advisor_model_or_calibrate, ratio_json};
use hsd_catalog::{HorizontalSpec, PartitionSpec, StorageLayout, TablePlacement, Tier};
use hsd_core::estimator::estimate_workload_layout;
use hsd_core::{placement_footprint_bytes, TierModel};
use hsd_engine::{mover, DurabilityConfig, HybridDatabase, MergeConfig, QueryOutput};
use hsd_query::{AggFunc, AggregateQuery, InsertQuery, Query, SelectQuery, UpdateQuery, Workload};
use hsd_storage::{ColRange, StoreKind};
use hsd_types::{ColumnDef, ColumnType, Json, TableSchema, Value};

struct Scale {
    /// Rows in the tiering table and the recovery base load.
    rows: usize,
    /// Post-checkpoint suffix statements; the pre-checkpoint stream is 4x.
    suffix: usize,
    /// Hot-range point selects in the skewed workload.
    points: usize,
    /// Full-table aggregations in the skewed workload.
    scans: usize,
    smoke: bool,
}

impl Scale {
    fn from_args() -> Self {
        let smoke = std::env::args().any(|a| a == "--smoke");
        if smoke {
            Scale {
                rows: 5_000,
                suffix: 500,
                points: 200,
                scans: 5,
                smoke: true,
            }
        } else {
            Scale {
                rows: 50_000,
                suffix: 5_000,
                points: 1_000,
                scans: 20,
                smoke: false,
            }
        }
    }
}

fn schema() -> TableSchema {
    TableSchema::new(
        "t",
        vec![
            ColumnDef::new("id", ColumnType::BigInt),
            ColumnDef::new("kf", ColumnType::Double),
            ColumnDef::new("grp", ColumnType::Integer),
        ],
        vec![0],
    )
    .expect("schema")
}

fn row(i: i64) -> Vec<Value> {
    vec![
        Value::BigInt(i),
        Value::Double(i as f64 * 0.25),
        Value::Int((i % 9) as i32),
    ]
}

/// 2/3 fresh-id inserts, 1/3 point updates — the recovery stream.
fn stream(db: &HybridDatabase, base: usize, from: usize, statements: usize) {
    for i in from..from + statements {
        let q = if i % 3 == 2 {
            Query::Update(UpdateQuery {
                table: "t".into(),
                sets: vec![(1, Value::Double(1e6 + i as f64 * 0.017))],
                filter: vec![ColRange::eq(0, Value::BigInt((i % base) as i64))],
            })
        } else {
            Query::Insert(InsertQuery {
                table: "t".into(),
                rows: vec![row((base + i) as i64)],
            })
        };
        db.execute(&q).expect("statement");
    }
}

/// Canonical sorted table contents — the correctness checksum.
fn probe(db: &HybridDatabase, table: &str) -> Vec<Vec<Value>> {
    let out = db
        .execute(&Query::Select(SelectQuery {
            table: table.into(),
            columns: None,
            filter: vec![],
        }))
        .expect("probe");
    let mut rows = match out {
        QueryOutput::Rows(r) => r,
        other => panic!("probe expected rows, got {other:?}"),
    };
    rows.sort_by_key(|r| match &r[0] {
        Value::BigInt(i) => *i,
        v => panic!("non-bigint key {v:?}"),
    });
    rows
}

fn bench_dir(tag: &str) -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    PathBuf::from(target).join(format!("hsd_bench_tiering_{tag}"))
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = bench_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------------
// Claim (a): checkpoint-bounded recovery

struct RecoveryResult {
    full_ms: f64,
    bounded_ms: f64,
    records_full: usize,
    records_suffix: usize,
    checkpoint_seq: u64,
    ok: bool,
}

fn run_recovery(scale: &Scale) -> RecoveryResult {
    let dir = fresh_dir("recovery");
    let (db, report) =
        HybridDatabase::open_dir(&dir, DurabilityConfig::default()).expect("open dir");
    assert!(report.is_clean() && report.records_replayed == 0);
    db.set_merge_config(MergeConfig::disabled());
    db.create_single(schema(), StoreKind::Column)
        .expect("create");
    db.bulk_load("t", (0..scale.rows as i64).map(row))
        .expect("load");
    // 4x the suffix before the checkpoint, the suffix after it.
    stream(&db, scale.rows, 0, scale.suffix * 4);
    let cp = db.checkpoint().expect("checkpoint");
    stream(&db, scale.rows, scale.suffix * 4, scale.suffix);
    db.sync_wal().expect("sync");
    let expected = probe(&db, "t");
    drop(db);

    // Checkpoint-bounded reopen: restore the image, replay the suffix.
    let start = Instant::now();
    let (bounded, brep) =
        HybridDatabase::open_dir(&dir, DurabilityConfig::default()).expect("reopen");
    let bounded_ms = start.elapsed().as_secs_f64() * 1e3;
    let bounded_ok =
        brep.checkpoint_seq == Some(cp.seq) && brep.is_clean() && probe(&bounded, "t") == expected;
    drop(bounded);

    // Baseline: replay the entire log, ignoring the checkpoint.
    let wal_bytes = std::fs::read(dir.join("wal.log")).expect("read wal");
    let start = Instant::now();
    let (full, frep) = HybridDatabase::recover_bytes(&wal_bytes);
    let full_ms = start.elapsed().as_secs_f64() * 1e3;
    let full_ok = frep.is_clean() && probe(&full, "t") == expected;

    eprintln!(
        "[bench_tiering] recovery: full replay of {} records {full_ms:.1} ms, \
         checkpoint-bounded replay of {} records {bounded_ms:.1} ms ({:.2}x)",
        frep.records_replayed,
        brep.records_replayed,
        full_ms / bounded_ms
    );
    let _ = std::fs::remove_dir_all(&dir);
    RecoveryResult {
        full_ms,
        bounded_ms,
        records_full: frep.records_replayed,
        records_suffix: brep.records_replayed,
        checkpoint_seq: cp.seq,
        ok: bounded_ok && full_ok,
    }
}

// ---------------------------------------------------------------------------
// Claim (b): demoted cold fragments under a memory budget

/// The three layouts of the comparison, as placements of table "t".
fn placements(rows: usize) -> [(&'static str, TablePlacement); 3] {
    let split = |at: i64, tier: Tier| {
        TablePlacement::Partitioned(PartitionSpec {
            horizontal: Some(HorizontalSpec {
                split_column: 0,
                split_value: Value::BigInt(at),
            }),
            vertical: None,
            cold_tier: tier,
        })
    };
    [
        ("all_memory", TablePlacement::Single(StoreKind::Column)),
        // Split above every id: the whole table is one demoted cold
        // fragment, every statement reading its segment in place.
        ("all_disk", split(rows as i64, Tier::Disk)),
        // Hot 10% of ids in the memory row store, cold 90% demoted.
        ("hybrid", split((rows as f64 * 0.9) as i64, Tier::Disk)),
    ]
}

/// The skewed workload: point reads on the hottest 10% of ids plus a thin
/// stream of full-table aggregations.
fn skewed_workload(rows: usize, points: usize, scans: usize) -> Vec<Query> {
    let hot_lo = (rows as f64 * 0.9) as i64;
    let hot_span = (rows as i64 - hot_lo).max(1);
    let mut queries: Vec<Query> = (0..points)
        .map(|i| {
            let id = hot_lo + (i as i64 * 7919) % hot_span;
            Query::Select(SelectQuery::point("t", 0, Value::BigInt(id)))
        })
        .collect();
    for _ in 0..scans {
        queries.push(Query::Aggregate(AggregateQuery::simple(
            "t",
            AggFunc::Sum,
            1,
        )));
    }
    queries
}

struct TieringResult {
    budget_bytes: f64,
    per_layout: Vec<(String, f64, f64, f64, bool)>, // name, measured, modeled, footprint, feasible
    measured_winner: String,
    modeled_winner: String,
    speedup_vs_all_disk: f64,
    ok: bool,
}

fn run_tiering(scale: &Scale) -> TieringResult {
    let mut model = advisor_model_or_calibrate("bench_tiering", scale.smoke);
    if model.tier == TierModel::neutral() {
        // Pre-tier committed models price disk residency as free; the
        // comparison needs the documented disk profile.
        model.tier = TierModel::default_disk();
    }

    // Build each layout in its own directory-backed database and time the
    // identical workload against it.
    let queries = skewed_workload(scale.rows, scale.points, scale.scans);
    let mut ctx = None;
    let mut measured: Vec<(String, f64)> = Vec::new();
    let mut expected: Option<Vec<Vec<Value>>> = None;
    for (name, placement) in placements(scale.rows) {
        let dir = fresh_dir(name);
        let (db, _) = HybridDatabase::open_dir(&dir, DurabilityConfig::default()).expect("open");
        db.set_merge_config(MergeConfig::disabled());
        db.create_single(schema(), StoreKind::Column)
            .expect("create");
        db.bulk_load("t", (0..scale.rows as i64).map(row))
            .expect("load");
        if ctx.is_none() {
            // Statistics from the freshly loaded table, before any layout
            // change (identical data in every variant).
            ctx = Some(hsd_bench::ctx_of(&db));
        }
        mover::move_table(&db, "t", &placement).expect("move");
        let start = Instant::now();
        for q in &queries {
            db.execute(q).expect("query");
        }
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let p = probe(&db, "t");
        match &expected {
            None => expected = Some(p),
            Some(e) => assert_eq!(e, &p, "layout {name} changed the data"),
        }
        eprintln!("[bench_tiering] {name}: {ms:.1} ms");
        measured.push((name.to_string(), ms));
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Model the same comparison: footprints fix the budget, the estimator
    // prices the workload per layout.
    let ctx = ctx.expect("ctx");
    let tctx = &ctx.tables["t"];
    let workload = Workload::from_queries(queries);
    let mut per_layout = Vec::new();
    let mut budget = 0.0;
    for (name, placement) in placements(scale.rows) {
        let footprint = placement_footprint_bytes(tctx, &placement);
        if name == "hybrid" {
            // The budget admits the hybrid with headroom but not the
            // all-memory column store.
            budget = footprint * 1.5;
        }
        let mut layout = StorageLayout::new();
        layout.set("t", placement);
        let modeled = estimate_workload_layout(&model, &ctx, &layout, &workload);
        per_layout.push((name.to_string(), footprint, modeled));
    }
    let feasible = |fp: f64| fp <= budget;
    let all_memory_infeasible = !feasible(per_layout[0].1);
    let winner_of = |vals: Vec<(String, f64)>| -> String {
        vals.into_iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("nonempty")
            .0
    };
    let feasible_names: Vec<String> = per_layout
        .iter()
        .filter(|(_, fp, _)| feasible(*fp))
        .map(|(n, _, _)| n.clone())
        .collect();
    let modeled_winner = winner_of(
        per_layout
            .iter()
            .filter(|(n, _, _)| feasible_names.contains(n))
            .map(|(n, _, m)| (n.clone(), *m))
            .collect(),
    );
    let measured_winner = winner_of(
        measured
            .iter()
            .filter(|(n, _)| feasible_names.contains(n))
            .cloned()
            .collect(),
    );
    let ms_of = |name: &str| {
        measured
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, ms)| *ms)
            .expect("measured")
    };
    let speedup = ms_of("all_disk") / ms_of("hybrid");
    let ok = all_memory_infeasible
        && feasible_names.contains(&"hybrid".to_string())
        && feasible_names.contains(&"all_disk".to_string())
        && measured_winner == "hybrid"
        && modeled_winner == measured_winner;
    eprintln!(
        "[bench_tiering] budget {budget:.0} B: measured winner {measured_winner}, \
         modeled winner {modeled_winner}, hybrid vs all_disk {speedup:.2}x"
    );
    TieringResult {
        budget_bytes: budget,
        per_layout: per_layout
            .into_iter()
            .map(|(name, fp, modeled)| {
                let is_feasible = feasible(fp);
                (name.clone(), ms_of(&name), modeled, fp, is_feasible)
            })
            .collect(),
        measured_winner,
        modeled_winner,
        speedup_vs_all_disk: speedup,
        ok,
    }
}

fn main() {
    let scale = Scale::from_args();
    let recovery = run_recovery(&scale);
    let tiering = run_tiering(&scale);
    let pass = recovery.ok && recovery.full_ms / recovery.bounded_ms >= 2.0 && tiering.ok;

    let layouts: Vec<Json> = tiering
        .per_layout
        .iter()
        .map(|(name, ms, modeled, fp, feasible)| {
            Json::obj([
                ("layout", Json::Str(name.clone())),
                ("measured_ms", Json::Num(*ms)),
                ("modeled_ms", Json::Num(*modeled)),
                ("footprint_bytes", Json::Num(*fp)),
                ("fits_budget", Json::Bool(*feasible)),
            ])
        })
        .collect();
    let doc = Json::obj([
        ("benchmark", Json::Str("tiering".into())),
        ("smoke", Json::Bool(scale.smoke)),
        ("rows", Json::Int(scale.rows as i64)),
        (
            "recovery",
            Json::obj([
                ("full_replay_ms", Json::Num(recovery.full_ms)),
                ("bounded_ms", Json::Num(recovery.bounded_ms)),
                ("records_full", Json::Int(recovery.records_full as i64)),
                ("records_suffix", Json::Int(recovery.records_suffix as i64)),
                ("checkpoint_seq", Json::Int(recovery.checkpoint_seq as i64)),
            ]),
        ),
        (
            "checkpoint_speedup",
            ratio_json(recovery.full_ms, recovery.bounded_ms),
        ),
        (
            "tiering",
            Json::obj([
                ("budget_bytes", Json::Num(tiering.budget_bytes)),
                ("layouts", Json::Arr(layouts)),
                ("measured_winner", Json::Str(tiering.measured_winner)),
                ("modeled_winner", Json::Str(tiering.modeled_winner)),
            ]),
        ),
        ("tiering_speedup", Json::Num(tiering.speedup_vs_all_disk)),
        ("pass", Json::Bool(pass)),
    ]);
    std::fs::write("BENCH_tiering.json", doc.to_string_pretty() + "\n")
        .expect("write BENCH_tiering.json");
    eprintln!("[bench_tiering] wrote BENCH_tiering.json (pass = {pass})");
    if !pass {
        std::process::exit(1);
    }
}
