//! Merge-policy ablation, recorded as `BENCH_merge.json`.
//!
//! Runs one mixed read/write workload (fresh-value point updates that grow
//! the delta tail, interleaved with range-filtered aggregations that pay
//! for it) under three delta-merge policies:
//!
//! * **always-merge** — the engine compacts after every write statement;
//! * **never-merge** — tails accumulate for the whole run;
//! * **advisor-scheduled** — engine auto-merge disabled, the
//!   [`OnlineAdvisor`] schedules merges when the cost model's expected scan
//!   savings exceed its merge cost.
//!
//! The acceptance claim of the maintenance PR is that the advisor-scheduled
//! policy beats both fixed policies on this workload.
//!
//! Run with `cargo run --release -p hsd-bench --bin bench_merge`
//! (`-- --smoke` for the small CI configuration). A committed
//! `cost_model.json` is used for the advisor's model when present;
//! otherwise a quick calibration runs first.

use hsd_core::{CostModel, OnlineAdvisor, OnlineConfig, StorageAdvisor};
use hsd_engine::{HybridDatabase, MergeConfig, WorkloadRunner};
use hsd_query::{AggFunc, Aggregate, AggregateQuery, Query, TableSpec, UpdateQuery, Workload};
use hsd_storage::{ColRange, StoreKind};
use hsd_types::{Json, Value};

struct Scale {
    rows: usize,
    statements: usize,
    smoke: bool,
}

impl Scale {
    fn from_args() -> Self {
        let smoke = std::env::args().any(|a| a == "--smoke");
        if smoke {
            Scale {
                rows: 20_000,
                statements: 600,
                smoke: true,
            }
        } else {
            Scale {
                rows: 200_000,
                statements: 3_000,
                smoke: false,
            }
        }
    }
}

fn spec(rows: usize) -> TableSpec {
    TableSpec::paper_wide("m", rows, 0xBE9C)
}

fn build_db(spec: &TableSpec) -> HybridDatabase {
    let db = HybridDatabase::new();
    db.create_single(spec.schema().expect("schema"), StoreKind::Column)
        .expect("create");
    db.bulk_load("m", spec.rows()).expect("load");
    db
}

/// Mixed stream: even statements are fresh-value point updates (each adds
/// one dictionary-tail entry), odd statements are range-filtered sums over
/// the updated keyfigure — the scan shape that pays the tail penalty
/// (tail codes disable the fused scan kernel).
fn mixed_workload(s: &TableSpec, statements: usize) -> Workload {
    let kf = s.kf_col(0);
    let scan = Query::Aggregate(AggregateQuery {
        table: s.name.clone(),
        aggregates: vec![Aggregate {
            func: AggFunc::Sum,
            column: kf,
        }],
        group_by: None,
        filter: vec![ColRange::ge(kf, Value::Double(0.0))],
        join: None,
    });
    let queries = (0..statements)
        .map(|i| {
            if i % 2 == 0 {
                Query::Update(UpdateQuery {
                    table: s.name.clone(),
                    sets: vec![(kf, Value::Double(8.8e8 + i as f64 * 0.019))],
                    filter: vec![ColRange::eq(0, Value::BigInt(((i * 37) % s.rows) as i64))],
                })
            } else {
                scan.clone()
            }
        })
        .collect();
    Workload::from_queries(queries)
}

struct PolicyResult {
    name: &'static str,
    total_ms: f64,
    merges: usize,
    tail_after: usize,
}

impl PolicyResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("policy", Json::Str(self.name.to_string())),
            ("total_ms", Json::Num(self.total_ms)),
            ("merges", Json::Int(self.merges as i64)),
            ("tail_after", Json::Int(self.tail_after as i64)),
        ])
    }
}

fn run_fixed(
    name: &'static str,
    s: &TableSpec,
    workload: &Workload,
    cfg: MergeConfig,
    merges_per_write: bool,
) -> PolicyResult {
    let db = build_db(s);
    db.set_merge_config(cfg);
    let report = WorkloadRunner::new().run(&db, workload).expect("run");
    let writes = workload
        .queries
        .iter()
        .filter(|q| matches!(q, Query::Update(_) | Query::Insert(_)))
        .count();
    PolicyResult {
        name,
        total_ms: report.total_ms(),
        merges: if merges_per_write { writes } else { 0 },
        tail_after: db.delta_tail("m").expect("tail"),
    }
}

fn run_advisor(s: &TableSpec, workload: &Workload, model: CostModel) -> PolicyResult {
    let db = build_db(s);
    db.set_merge_config(MergeConfig::disabled());
    let mut online = OnlineAdvisor::new(
        StorageAdvisor::new(model),
        OnlineConfig {
            // This run compares merge policies only: layout re-evaluation
            // is parked so every policy executes on the same layout.
            evaluation_interval: usize::MAX,
            maintenance_interval: 32,
            merge_min_tail: 64,
            merge_safety_factor: 1.0,
            ..Default::default()
        },
    );
    let mut merges = 0usize;
    let report = WorkloadRunner::new()
        .run_observed(&db, workload, |db, q| {
            online.observe(db, q)?;
            for action in online.take_maintenance() {
                action.apply(db)?;
                merges += 1;
            }
            Ok(())
        })
        .expect("run");
    PolicyResult {
        name: "advisor-scheduled",
        total_ms: report.total_ms(),
        merges,
        tail_after: db.delta_tail("m").expect("tail"),
    }
}

fn main() {
    let scale = Scale::from_args();
    let s = spec(scale.rows);
    eprintln!(
        "[bench_merge] {} rows, {} statements{}",
        scale.rows,
        scale.statements,
        if scale.smoke { " (smoke)" } else { "" }
    );
    let model = hsd_bench::advisor_model_or_calibrate("bench_merge", scale.smoke);
    let workload = mixed_workload(&s, scale.statements);

    let mut results = Vec::new();
    for (name, cfg, per_write) in [
        ("always-merge", MergeConfig::always(), true),
        ("never-merge", MergeConfig::disabled(), false),
    ] {
        let r = run_fixed(name, &s, &workload, cfg, per_write);
        eprintln!(
            "[bench_merge] {:<18} {:>9.1} ms  ({} merges, tail after: {})",
            r.name, r.total_ms, r.merges, r.tail_after
        );
        results.push(r);
    }
    let adv = run_advisor(&s, &workload, model);
    eprintln!(
        "[bench_merge] {:<18} {:>9.1} ms  ({} merges, tail after: {})",
        adv.name, adv.total_ms, adv.merges, adv.tail_after
    );
    let always_ms = results[0].total_ms;
    let never_ms = results[1].total_ms;
    let beats_always = adv.total_ms < always_ms;
    let beats_never = adv.total_ms < never_ms;
    eprintln!(
        "[bench_merge] advisor vs always: {:.2}x, vs never: {:.2}x -> {}",
        always_ms / adv.total_ms,
        never_ms / adv.total_ms,
        if beats_always && beats_never {
            "PASS"
        } else {
            "FAIL"
        }
    );
    results.push(adv);

    let doc = Json::obj([
        ("benchmark", Json::Str("merge_policy".to_string())),
        ("rows", Json::Int(scale.rows as i64)),
        ("statements", Json::Int(scale.statements as i64)),
        ("smoke", Json::Bool(scale.smoke)),
        (
            "policies",
            Json::Arr(results.iter().map(PolicyResult::to_json).collect()),
        ),
        ("advisor_beats_always", Json::Bool(beats_always)),
        ("advisor_beats_never", Json::Bool(beats_never)),
        ("pass", Json::Bool(beats_always && beats_never)),
    ]);
    std::fs::write("BENCH_merge.json", doc.to_string_pretty() + "\n")
        .expect("write BENCH_merge.json");
    eprintln!("[bench_merge] wrote BENCH_merge.json");
    if !(beats_always && beats_never) {
        std::process::exit(1);
    }
}
