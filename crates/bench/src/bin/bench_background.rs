//! Background-merge ablation: query-latency distribution under three
//! maintenance policies at **equal total merge work**, recorded as
//! `BENCH_background.json`.
//!
//! A column table accumulates a delta tail; a serving loop then streams
//! point selects and full scans while each policy deals (or does not deal)
//! with the tail:
//!
//! * **never-merge** — the tail stays; scans pay the degradation forever.
//! * **synchronous full merge** — `mover::merge_delta` runs inline at the
//!   scheduled point: one statement absorbs the whole O(rows) remap pause.
//! * **background worker** — the same merge is enqueued on a
//!   [`hsd_engine::MaintenanceWorker`], which drains one remap-budgeted
//!   slice between statements, its budget paced by observed query latency.
//!
//! All three policies serve the identical statement stream from the
//! identical starting state, and the two merging policies fold the same
//! tail (asserted), so total merge work is equal — only its dicing
//! differs. The claim is that the worker bounds the **maximum
//! query-visible pause** well below the synchronous full-merge pause.
//!
//! Run with `cargo run --release -p hsd-bench --bin bench_background`
//! (`-- --smoke` for the small CI configuration, `-- --threaded` to drive
//! the merge from a `std::thread` worker against a shared database — the
//! multi-core path; measurements on a 1-vCPU container then mostly show
//! lock handoff).

use std::time::Instant;

use hsd_engine::{
    mover, BackgroundWorker, HybridDatabase, MaintenanceWorker, MergeConfig, MergePartition,
    PacerConfig, SharedDatabase, WorkerConfig,
};
use hsd_query::{AggFunc, AggregateQuery, Query, SelectQuery, TableSpec, UpdateQuery};
use hsd_storage::{ColRange, StoreKind};
use hsd_types::{Json, Value};

struct Scale {
    /// Rows of the serving table (the remap cost of one full merge).
    rows: usize,
    /// Fresh-value updates growing the tail before serving starts.
    tail_updates: usize,
    /// Statements of the serving stream.
    statements: usize,
    /// One full scan per this many statements (the rest are point selects).
    scan_every: usize,
    smoke: bool,
    threaded: bool,
}

impl Scale {
    fn from_args() -> Self {
        let smoke = std::env::args().any(|a| a == "--smoke");
        let threaded = std::env::args().any(|a| a == "--threaded");
        if smoke {
            Scale {
                rows: 60_000,
                tail_updates: 2_000,
                statements: 600,
                scan_every: 10,
                smoke: true,
                threaded,
            }
        } else {
            Scale {
                rows: 200_000,
                tail_updates: 6_000,
                statements: 1_500,
                scan_every: 10,
                smoke: false,
                threaded,
            }
        }
    }
}

fn spec(rows: usize) -> TableSpec {
    TableSpec::paper_wide("b", rows, 0x6B41)
}

/// Columns the tail grows on: several low-cardinality group columns, so
/// the eventual merge remaps several full code vectors — remap-dominated,
/// the pause shape the worker is supposed to dice up.
const TAILED_COLS: usize = 4;

/// Build the table and grow its tail — identical starting state for every
/// policy.
fn prepared_db(s: &TableSpec, tail_updates: usize) -> HybridDatabase {
    let db = HybridDatabase::new();
    db.create_single(s.schema().expect("schema"), StoreKind::Column)
        .expect("create");
    db.bulk_load(&s.name, s.rows()).expect("load");
    db.set_merge_config(MergeConfig::disabled());
    for i in 0..tail_updates {
        let sets = (0..TAILED_COLS)
            .map(|c| {
                (
                    s.grp_col(c),
                    Value::Int(1_000 + (i * TAILED_COLS + c) as i32),
                )
            })
            .collect();
        db.execute(&Query::Update(UpdateQuery {
            table: s.name.clone(),
            sets,
            filter: vec![ColRange::eq(0, Value::BigInt(((i * 31) % s.rows) as i64))],
        }))
        .expect("update");
    }
    db
}

/// The serving stream: mostly point selects with a full scan of the tailed
/// group column every `scan_every` statements.
fn statement(s: &TableSpec, i: usize, scan_every: usize) -> Query {
    if i % scan_every == scan_every - 1 {
        Query::Aggregate(AggregateQuery::simple(
            &s.name,
            AggFunc::Count,
            s.grp_col(0),
        ))
    } else {
        Query::Select(SelectQuery {
            table: s.name.clone(),
            columns: Some(vec![0, s.kf_col(0)]),
            filter: vec![ColRange::eq(0, Value::BigInt(((i * 17) % s.rows) as i64))],
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Policy {
    Never,
    Synchronous,
    Background,
}

struct PolicyReport {
    name: &'static str,
    latencies_ms: Vec<f64>,
    merged_entries: usize,
    slices: u64,
    total_ms: f64,
}

fn pacer() -> PacerConfig {
    PacerConfig {
        initial_budget: 4_096,
        min_budget: 1_024,
        // Keep the ceiling tight relative to the table: the max
        // query-visible pause is one slice, and the claim under test is
        // that it stays far below the full-merge pause.
        max_budget: 16_384,
        ..Default::default()
    }
}

/// Serve the stream under one policy, measuring per-statement latency
/// *including* whatever maintenance work rides on that statement boundary
/// — the query-visible pause. The merge is scheduled after 10% of the
/// stream (all policies at the same point).
fn run_policy(scale: &Scale, s: &TableSpec, policy: Policy) -> PolicyReport {
    let db = prepared_db(s, scale.tail_updates);
    let merge_at = scale.statements / 10;
    let mut worker = MaintenanceWorker::new(WorkerConfig {
        pacer: pacer(),
        ..WorkerConfig::default()
    });
    let mut latencies = Vec::with_capacity(scale.statements);
    let mut merged = 0usize;
    let started = Instant::now();
    for i in 0..scale.statements {
        let q = statement(s, i, scale.scan_every);
        let t0 = Instant::now();
        db.execute(&q).expect("execute");
        if i == merge_at {
            match policy {
                Policy::Never => {}
                Policy::Synchronous => {
                    merged +=
                        mover::merge_delta(&db, &s.name, MergePartition::Whole).expect("merge");
                }
                Policy::Background => {
                    worker.enqueue(&s.name, MergePartition::Whole);
                }
            }
        }
        if policy == Policy::Background {
            if let Some(report) = worker.tick(&db).expect("tick") {
                merged += report.progress.entries_folded;
            }
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        worker.observe_query_latency(ms);
        latencies.push(ms);
    }
    PolicyReport {
        name: match policy {
            Policy::Never => "never-merge",
            Policy::Synchronous => "synchronous-full-merge",
            Policy::Background => "background-worker",
        },
        latencies_ms: latencies,
        merged_entries: merged,
        slices: worker.stats().slices,
        total_ms: started.elapsed().as_secs_f64() * 1e3,
    }
}

/// The background policy on the threaded worker: the serving loop executes
/// statements directly against the shared database while the worker thread
/// slices concurrently — readers pin epochs, only same-table writes queue
/// behind the slice's brief latch holds.
fn run_threaded(scale: &Scale, s: &TableSpec) -> PolicyReport {
    let db = prepared_db(s, scale.tail_updates);
    let shared: SharedDatabase = std::sync::Arc::new(db);
    let worker = BackgroundWorker::spawn(
        shared.clone(),
        WorkerConfig {
            pacer: pacer(),
            ..WorkerConfig::default()
        },
        std::time::Duration::from_micros(200),
    );
    let merge_at = scale.statements / 10;
    let mut latencies = Vec::with_capacity(scale.statements);
    let started = Instant::now();
    for i in 0..scale.statements {
        let q = statement(s, i, scale.scan_every);
        let t0 = Instant::now();
        shared.execute(&q).expect("execute");
        if i == merge_at {
            worker.enqueue(&s.name, MergePartition::Whole);
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        worker.observe_query_latency(ms);
        latencies.push(ms);
    }
    let stats = worker.stop(true);
    PolicyReport {
        name: "background-worker-threaded",
        latencies_ms: latencies,
        merged_entries: stats.entries_folded as usize,
        slices: stats.slices,
        total_ms: started.elapsed().as_secs_f64() * 1e3,
    }
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    let idx = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[idx.clamp(1, sorted.len()) - 1]
}

fn policy_json(r: &PolicyReport) -> Json {
    let mut sorted = r.latencies_ms.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    Json::obj([
        ("policy", Json::Str(r.name.into())),
        ("max_pause_ms", Json::Num(*sorted.last().expect("nonempty"))),
        ("p99_ms", Json::Num(quantile(&sorted, 0.99))),
        ("p50_ms", Json::Num(quantile(&sorted, 0.50))),
        ("total_ms", Json::Num(r.total_ms)),
        ("merged_entries", Json::Int(r.merged_entries as i64)),
        ("slices", Json::Int(r.slices as i64)),
    ])
}

fn max_ms(r: &PolicyReport) -> f64 {
    r.latencies_ms.iter().copied().fold(0.0, f64::max)
}

fn main() {
    let scale = Scale::from_args();
    let s = spec(scale.rows);
    let never = run_policy(&scale, &s, Policy::Never);
    let sync = run_policy(&scale, &s, Policy::Synchronous);
    let background = if scale.threaded {
        run_threaded(&scale, &s)
    } else {
        run_policy(&scale, &s, Policy::Background)
    };
    assert_eq!(never.merged_entries, 0);
    assert_eq!(
        sync.merged_entries, background.merged_entries,
        "equal total merge work: both policies fold the same tail"
    );
    assert!(background.slices > 1, "the worker must actually slice");

    let sync_max = max_ms(&sync);
    let bg_max = max_ms(&background);
    let reduction = sync_max / bg_max;
    // The worker's slices must keep the worst statement well below the
    // stop-the-world pause (2x margin absorbs shared-runner noise).
    let pass = bg_max * 2.0 < sync_max;
    for r in [&never, &sync, &background] {
        let mut sorted = r.latencies_ms.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        eprintln!(
            "[bench_background] {:<26} max {:8.2} ms  p99 {:7.3} ms  p50 {:7.3} ms  \
             merged {:5}  slices {:3}  total {:8.1} ms",
            r.name,
            sorted.last().expect("nonempty"),
            quantile(&sorted, 0.99),
            quantile(&sorted, 0.50),
            r.merged_entries,
            r.slices,
            r.total_ms,
        );
    }
    eprintln!(
        "[bench_background] max query-visible pause: background {bg_max:.2} ms vs \
         synchronous {sync_max:.2} ms ({reduction:.1}x reduction) -> {}",
        if pass { "PASS" } else { "FAIL" }
    );

    let doc = Json::obj([
        ("benchmark", Json::Str("background_merge_worker".into())),
        ("smoke", Json::Bool(scale.smoke)),
        ("threaded", Json::Bool(scale.threaded)),
        ("rows", Json::Int(scale.rows as i64)),
        ("tail_entries", Json::Int(sync.merged_entries as i64)),
        ("statements", Json::Int(scale.statements as i64)),
        (
            "policies",
            Json::Arr(vec![
                policy_json(&never),
                policy_json(&sync),
                policy_json(&background),
            ]),
        ),
        ("pause_reduction", hsd_bench::ratio_json(sync_max, bg_max)),
        ("pass", Json::Bool(pass)),
    ]);
    std::fs::write("BENCH_background.json", doc.to_string_pretty() + "\n")
        .expect("write BENCH_background.json");
    eprintln!("[bench_background] wrote BENCH_background.json");
    if !pass {
        std::process::exit(1);
    }
}
