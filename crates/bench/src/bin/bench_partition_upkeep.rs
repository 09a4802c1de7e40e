//! Fragment-level maintenance charging for partitioned placements,
//! recorded as `BENCH_partition.json`.
//!
//! A hot/cold skewed **insert + scan** workload (fresh-id single-row
//! inserts against a thin stream of selective aggregations) is given to the
//! advisor twice, once per value of `recommend_offline`'s
//! `enable_partitioning` input:
//!
//! * **partitioning enabled**: a partitioned candidate pays delta upkeep
//!   only for its cold column fragment. The inserts are absorbed by the hot
//!   row-store partition and intern nothing in the cold fragment, so the
//!   candidate's upkeep is ~0 and the hybrid layout — row-store inserts,
//!   column-store scans — wins the placement comparison.
//! * **single store only**: the best the advisor can do without a split.
//!   Column-store scans would then pay the insert stream's tail growth, so
//!   the table lands in the row store and every scan reads rows.
//!
//! Both recommended layouts are then **executed** (engine merge fallback
//! active — the upkeep a layout actually pays); the claim is that the
//! adopted partitioned placement also measures faster
//! (`partition_speedup >= 1`).
//!
//! Run with `cargo run --release -p hsd-bench --bin bench_partition_upkeep`
//! (`-- --smoke` for the small CI configuration). A committed
//! `cost_model.json` supplies the advisor's model when present; otherwise a
//! quick calibration runs first.

use hsd_bench::ratio_json;
use hsd_core::{Recommendation, StorageAdvisor};
use hsd_engine::{mover, HybridDatabase, WorkloadRunner};
use hsd_query::{AggFunc, Aggregate, AggregateQuery, InsertQuery, Query, TableSpec, Workload};
use hsd_storage::{ColRange, StoreKind};
use hsd_types::{Json, Value};

struct Scale {
    /// Rows of the table.
    rows: usize,
    /// Statements of the insert + scan workload.
    statements: usize,
    /// One selective aggregation per this many statements (the rest are
    /// fresh-id inserts). The mix sits in the wedge where a whole column
    /// table's upkeep bill exceeds its scan savings while the cold
    /// fragment's bill is ~0 (the hot partition absorbs every insert).
    scan_every: usize,
    smoke: bool,
}

impl Scale {
    fn from_args() -> Self {
        let smoke = std::env::args().any(|a| a == "--smoke");
        if smoke {
            Scale {
                rows: 12_000,
                statements: 1_500,
                scan_every: 20,
                smoke: true,
            }
        } else {
            Scale {
                rows: 40_000,
                statements: 4_000,
                scan_every: 30,
                smoke: false,
            }
        }
    }
}

fn spec(rows: usize) -> TableSpec {
    TableSpec::paper_wide("p", rows, 0x7A31)
}

/// Hot/cold skewed stream: fresh-id single-row inserts (every one grows
/// several dictionary tails of a column-store resident table, but interns
/// *nothing* when routed to a hot row-store partition) against a thin
/// stream of selective range aggregations — the scan shape whose predicate
/// evaluation pays the dictionary-tail penalty, and the analytical pressure
/// that makes a cold column fragment worth keeping.
fn insert_scan_workload(s: &TableSpec, statements: usize, scan_every: usize) -> Workload {
    let kf = s.kf_col(0);
    let scan = Query::Aggregate(AggregateQuery {
        table: s.name.clone(),
        aggregates: vec![Aggregate {
            func: AggFunc::Sum,
            column: kf,
        }],
        group_by: None,
        // Selective: inserted keyfigures stay below 1e9, so the scan is
        // pure predicate evaluation — the term a delta tail degrades.
        filter: vec![ColRange::ge(kf, Value::Double(1e9))],
        join: None,
    });
    let arity = s.schema().expect("schema").arity();
    let queries = (0..statements)
        .map(|i| {
            if i % scan_every == scan_every - 1 {
                scan.clone()
            } else {
                let row: Vec<Value> = (0..arity)
                    .map(|c| {
                        if c == 0 {
                            Value::BigInt((s.rows + i) as i64)
                        } else if (s.kf_col(0)..s.kf_col(0) + s.keyfigures).contains(&c) {
                            Value::Double(7.7e8 + (i * s.keyfigures + c) as f64 * 0.017)
                        } else {
                            Value::Int((i % 7) as i32)
                        }
                    })
                    .collect();
                Query::Insert(InsertQuery {
                    table: s.name.clone(),
                    rows: vec![row],
                })
            }
        })
        .collect();
    Workload::from_queries(queries)
}

/// Execute the workload under one recommended layout (starting from a
/// row-store load, moved by the data mover — so partitioned layouts get
/// their proper hot/cold row split) and return the measured wall-clock
/// total.
fn measure_layout(s: &TableSpec, workload: &Workload, rec: &Recommendation) -> f64 {
    let db = HybridDatabase::new();
    db.create_single(s.schema().expect("schema"), StoreKind::Row)
        .expect("create");
    db.bulk_load(&s.name, s.rows()).expect("load");
    mover::apply_layout(&db, &rec.layout).expect("apply layout");
    let report = WorkloadRunner::new().run(&db, workload).expect("run");
    report.total_ms()
}

fn describe(rec: &Recommendation, table: &str) -> String {
    rec.layout.placement(table).describe()
}

fn main() {
    let scale = Scale::from_args();
    let model = hsd_bench::advisor_model_or_calibrate("bench_partition_upkeep", scale.smoke);

    let s = spec(scale.rows);
    let workload = insert_scan_workload(&s, scale.statements, scale.scan_every);
    // Statistics snapshot of the loaded table (max id feeds the insert
    // partition's split boundary).
    let db = HybridDatabase::new();
    db.create_single(s.schema().expect("schema"), StoreKind::Column)
        .expect("create");
    db.bulk_load(&s.name, s.rows()).expect("load");
    let schemas = vec![db.catalog().entries()[0].schema.clone()];
    let stats = hsd_bench::catalog_stats(&db);
    drop(db);

    let advisor = StorageAdvisor::new(model);
    let rec_part = advisor
        .recommend_offline(&schemas, &stats, &workload, true)
        .expect("recommendation with partitioning");
    let rec_single = advisor
        .recommend_offline(&schemas, &stats, &workload, false)
        .expect("single-store recommendation");
    let partitioned = matches!(
        rec_part.layout.placement(&s.name),
        hsd_catalog::TablePlacement::Partitioned(_)
    );
    eprintln!(
        "[bench_partition_upkeep] with partitioning picks {} (est {:.1} ms), \
         single store picks {} (est {:.1} ms)",
        describe(&rec_part, &s.name),
        rec_part.estimated_ms,
        describe(&rec_single, &s.name),
        rec_single.estimated_ms,
    );

    let part_ms = measure_layout(&s, &workload, &rec_part);
    let single_ms = measure_layout(&s, &workload, &rec_single);
    let speedup_pass = part_ms <= single_ms;
    let pass = partitioned && speedup_pass;
    eprintln!(
        "[bench_partition_upkeep] measured: partitioned choice {part_ms:.1} ms, \
         single-store choice {single_ms:.1} ms ({:.2}x) -> {}",
        single_ms / part_ms,
        if pass { "PASS" } else { "FAIL" }
    );

    let doc = Json::obj([
        ("benchmark", Json::Str("partition_upkeep".into())),
        ("smoke", Json::Bool(scale.smoke)),
        ("rows", Json::Int(scale.rows as i64)),
        ("statements", Json::Int(scale.statements as i64)),
        ("scan_every", Json::Int(scale.scan_every as i64)),
        (
            "with_partitioning",
            Json::obj([
                ("placement", Json::Str(describe(&rec_part, &s.name))),
                ("partitioned", Json::Bool(partitioned)),
                ("estimated_ms", Json::Num(rec_part.estimated_ms)),
                ("measured_ms", Json::Num(part_ms)),
            ]),
        ),
        (
            "single_store",
            Json::obj([
                ("placement", Json::Str(describe(&rec_single, &s.name))),
                ("estimated_ms", Json::Num(rec_single.estimated_ms)),
                ("measured_ms", Json::Num(single_ms)),
            ]),
        ),
        (
            "modeled_speedup",
            ratio_json(rec_single.estimated_ms, rec_part.estimated_ms),
        ),
        ("partition_speedup", ratio_json(single_ms, part_ms)),
        ("choice_pass", Json::Bool(partitioned)),
        ("pass", Json::Bool(pass)),
    ]);
    std::fs::write("BENCH_partition.json", doc.to_string_pretty() + "\n")
        .expect("write BENCH_partition.json");
    eprintln!("[bench_partition_upkeep] wrote BENCH_partition.json");
    if !pass {
        std::process::exit(1);
    }
}
