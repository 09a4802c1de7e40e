//! Cross-crate invariant: a workload produces *identical logical results
//! and identical final table contents* no matter which storage layout the
//! data lives in. This is the transparency property the paper's rewriter
//! promises ("the query rewriting must be realized automatically and
//! transparently to the user").

use hybrid_store_advisor::engine::{GroupRow, QueryOutput};
use hybrid_store_advisor::prelude::*;

/// Aggregation results accumulate in store-specific orders, so floating
/// sums may differ in the last ulps; everything else must match exactly.
fn assert_outputs_close(a: &QueryOutput, b: &QueryOutput, ctx: &str) {
    match (a, b) {
        (QueryOutput::Aggregates(x), QueryOutput::Aggregates(y)) => {
            assert_eq!(x.len(), y.len(), "group count diverges: {ctx}");
            for (
                GroupRow {
                    key: ka,
                    values: va,
                },
                GroupRow {
                    key: kb,
                    values: vb,
                },
            ) in x.iter().zip(y)
            {
                assert_eq!(ka, kb, "group keys diverge: {ctx}");
                assert_eq!(va.len(), vb.len(), "aggregate count diverges: {ctx}");
                for (p, q) in va.iter().zip(vb) {
                    let tol = 1e-9 * p.abs().max(q.abs()).max(1.0);
                    assert!((p - q).abs() <= tol, "{p} vs {q} diverges: {ctx}");
                }
            }
        }
        _ => assert_eq!(a, b, "outputs diverge: {ctx}"),
    }
}

fn assert_all_close(a: &[QueryOutput], b: &[QueryOutput], ctx: &str) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_outputs_close(x, y, &format!("{ctx}, query #{i}"));
    }
}

fn placements(spec: &TableSpec) -> Vec<(&'static str, TablePlacement)> {
    let n = spec.rows as i64;
    vec![
        ("rs", TablePlacement::Single(StoreKind::Row)),
        ("cs", TablePlacement::Single(StoreKind::Column)),
        (
            "horizontal",
            TablePlacement::Partitioned(PartitionSpec {
                horizontal: Some(HorizontalSpec {
                    split_column: 0,
                    split_value: Value::BigInt(n * 9 / 10),
                }),
                vertical: None,
                ..Default::default()
            }),
        ),
        (
            "vertical",
            TablePlacement::Partitioned(PartitionSpec {
                horizontal: None,
                vertical: Some(VerticalSpec {
                    row_cols: spec.st_cols(),
                }),
                ..Default::default()
            }),
        ),
        (
            "both",
            TablePlacement::Partitioned(PartitionSpec {
                horizontal: Some(HorizontalSpec {
                    split_column: 0,
                    split_value: Value::BigInt(n * 9 / 10),
                }),
                vertical: Some(VerticalSpec {
                    row_cols: spec.st_cols(),
                }),
                ..Default::default()
            }),
        ),
    ]
}

fn build(spec: &TableSpec, placement: &TablePlacement) -> HybridDatabase {
    let db = HybridDatabase::new();
    db.create_single(spec.schema().unwrap(), StoreKind::Row)
        .unwrap();
    db.bulk_load(&spec.name, spec.rows()).unwrap();
    mover::move_table(&db, &spec.name, placement).unwrap();
    db
}

/// Execute the workload and return (per-query outputs, final table rows).
fn run_and_snapshot(
    spec: &TableSpec,
    placement: &TablePlacement,
    workload: &Workload,
) -> (Vec<QueryOutput>, Vec<Vec<Value>>) {
    let db = build(spec, placement);
    let mut outputs = Vec::with_capacity(workload.len());
    for q in &workload.queries {
        outputs.push(db.execute(q).unwrap());
    }
    // Move to a single row store to extract rows in a canonical way.
    mover::move_table(&db, &spec.name, &TablePlacement::Single(StoreKind::Row)).unwrap();
    let shard = db.shard(&spec.name).unwrap();
    let pin = shard.pin();
    let mut rows = match &*pin {
        hybrid_store_advisor::engine::TableData::Single(t) => {
            t.collect_rows(hybrid_store_advisor::storage::RowSel::All, None)
        }
        other => panic!("expected single table after move, got {other:?}"),
    };
    rows.sort_by(|a, b| a[0].cmp(&b[0]));
    drop(pin);
    (outputs, rows)
}

#[test]
fn all_layouts_agree_on_results_and_final_state() {
    let spec = TableSpec::paper_wide("t", 2_000, 11);
    let workload = WorkloadGenerator::single_table(
        &spec,
        &MixedWorkloadConfig {
            queries: 120,
            olap_fraction: 0.15,
            oltp_insert_share: 0.3,
            oltp_update_share: 0.4,
            hot_fraction: Some(0.2),
            whole_tuple_update_prob: 0.3,
            seed: 99,
            ..Default::default()
        },
    );
    let mut reference: Option<(Vec<QueryOutput>, Vec<Vec<Value>>)> = None;
    for (label, placement) in placements(&spec) {
        let snapshot = run_and_snapshot(&spec, &placement, &workload);
        match &reference {
            None => reference = Some(snapshot),
            Some(r) => {
                assert_all_close(&r.0, &snapshot.0, label);
                assert_eq!(r.1, snapshot.1, "final rows diverge under layout {label}");
            }
        }
    }
}

#[test]
fn range_updates_agree_across_layouts() {
    let spec = TableSpec::paper_wide("t", 1_500, 13);
    let workload = WorkloadGenerator::single_table(
        &spec,
        &MixedWorkloadConfig {
            queries: 60,
            olap_fraction: 0.1,
            oltp_insert_share: 0.0,
            oltp_update_share: 1.0,
            hot_fraction: Some(0.1),
            update_range_rows: Some(40),
            whole_tuple_update_prob: 0.5,
            seed: 7,
            ..Default::default()
        },
    );
    let mut reference: Option<(Vec<QueryOutput>, Vec<Vec<Value>>)> = None;
    for (label, placement) in placements(&spec) {
        let snapshot = run_and_snapshot(&spec, &placement, &workload);
        match &reference {
            None => reference = Some(snapshot),
            Some(r) => {
                assert_all_close(&r.0, &snapshot.0, label);
                assert_eq!(r.1, snapshot.1, "range-update rows diverge under {label}");
            }
        }
    }
}

#[test]
fn star_join_agrees_across_fact_layouts() {
    let fact = TableSpec {
        name: "fact".into(),
        rows: 2_000,
        fk_attrs: 1,
        fk_cardinality: 50,
        keyfigures: 3,
        group_attrs: 0,
        filter_attrs: 1,
        status_attrs: 2,
        group_cardinality: 1,
        status_cardinality: 5,
        kf_distinct: 100,
        seed: 5,
    };
    let dim = TableSpec {
        name: "dim".into(),
        rows: 50,
        fk_attrs: 0,
        fk_cardinality: 1,
        keyfigures: 0,
        group_attrs: 2,
        filter_attrs: 1,
        status_attrs: 0,
        group_cardinality: 8,
        status_cardinality: 1,
        kf_distinct: 64,
        seed: 6,
    };
    let workload = WorkloadGenerator::star(
        &fact,
        &dim,
        fact.fk_col(0),
        &MixedWorkloadConfig {
            queries: 60,
            olap_fraction: 0.3,
            seed: 21,
            ..Default::default()
        },
    );
    let mut reference: Option<Vec<QueryOutput>> = None;
    for placement in [
        TablePlacement::Single(StoreKind::Row),
        TablePlacement::Single(StoreKind::Column),
        TablePlacement::Partitioned(PartitionSpec {
            horizontal: Some(HorizontalSpec {
                split_column: 0,
                split_value: Value::BigInt(1_800),
            }),
            vertical: Some(VerticalSpec {
                row_cols: fact.st_cols(),
            }),
            ..Default::default()
        }),
    ] {
        let db = HybridDatabase::new();
        db.create_single(fact.schema().unwrap(), StoreKind::Row)
            .unwrap();
        db.create_single(dim.schema().unwrap(), StoreKind::Row)
            .unwrap();
        db.bulk_load("fact", fact.rows()).unwrap();
        db.bulk_load("dim", dim.rows()).unwrap();
        mover::move_table(&db, "fact", &placement).unwrap();
        let outputs: Vec<QueryOutput> = workload
            .queries
            .iter()
            .map(|q| db.execute(q).unwrap())
            .collect();
        match &reference {
            None => reference = Some(outputs),
            Some(r) => assert_all_close(r, &outputs, &format!("{placement:?}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Disk tier: a demoted cold partition answers like a memory-resident one.

fn split_at(key: i64, cold_tier: Tier) -> TablePlacement {
    TablePlacement::Partitioned(PartitionSpec {
        horizontal: Some(HorizontalSpec {
            split_column: 0,
            split_value: Value::BigInt(key),
        }),
        vertical: None,
        cold_tier,
    })
}

fn tier_fact() -> TableSpec {
    TableSpec {
        name: "fact".into(),
        rows: 2_000,
        fk_attrs: 1,
        fk_cardinality: 50,
        keyfigures: 3,
        group_attrs: 2,
        filter_attrs: 1,
        status_attrs: 2,
        group_cardinality: 6,
        status_cardinality: 5,
        kf_distinct: 100,
        seed: 5,
    }
}

fn tier_dim() -> TableSpec {
    TableSpec {
        name: "dim".into(),
        rows: 50,
        fk_attrs: 0,
        fk_cardinality: 1,
        keyfigures: 0,
        group_attrs: 2,
        filter_attrs: 1,
        status_attrs: 0,
        group_cardinality: 8,
        status_cardinality: 1,
        kf_distinct: 64,
        seed: 6,
    }
}

/// `fact` and `dim` in column stores, the tables named in `split` cut
/// hot/cold (nine tenths cold) with the cold side on `cold_tier`.
fn tiered_db(split: &[&str], cold_tier: Tier) -> HybridDatabase {
    let db = HybridDatabase::new();
    for spec in [tier_fact(), tier_dim()] {
        db.create_single(spec.schema().unwrap(), StoreKind::Column)
            .unwrap();
        db.bulk_load(&spec.name, spec.rows()).unwrap();
        if split.contains(&spec.name.as_str()) {
            let placement = split_at(spec.rows as i64 * 9 / 10, cold_tier);
            mover::move_table(&db, &spec.name, &placement).unwrap();
        }
    }
    db
}

/// Every statement shape the executor has, aimed at cold rows, hot rows,
/// both and neither.
fn tier_statements() -> Vec<Query> {
    let (f, d) = (tier_fact(), tier_dim());
    let select = |columns: Option<Vec<usize>>, filter: Vec<ColRange>| {
        Query::Select(SelectQuery {
            table: "fact".into(),
            columns,
            filter,
        })
    };
    let aggregate = |aggregates: Vec<(AggFunc, usize)>,
                     group_by: Option<usize>,
                     filter: Vec<ColRange>,
                     join: Option<JoinSpec>| {
        Query::Aggregate(AggregateQuery {
            table: "fact".into(),
            aggregates: aggregates
                .into_iter()
                .map(|(func, column)| Aggregate { func, column })
                .collect(),
            group_by,
            filter,
            join,
        })
    };
    let join = |group_by_dim| {
        Some(JoinSpec {
            dim_table: "dim".into(),
            fact_fk: f.fk_col(0),
            dim_pk: d.id_col(),
            group_by_dim,
        })
    };
    let id = |k: i64| ColRange::eq(0, Value::BigInt(k));
    let flt = ColRange::between(f.flt_col(0), Value::Int(2_000), Value::Int(6_000));
    vec![
        // Point selects: cold hit, hot hit, miss; `*` and projected.
        select(None, vec![id(7)]),
        select(None, vec![id(1_950)]),
        select(None, vec![id(99_999)]),
        select(Some(vec![f.kf_col(1), 0]), vec![id(1_234)]),
        Query::Select(SelectQuery::point("dim", 0, Value::BigInt(3))),
        // Filtered selects: both sides, cold only, hot only (cold pruned).
        select(Some(vec![0, f.st_col(0)]), vec![flt.clone()]),
        select(None, vec![ColRange::ge(f.kf_col(0), Value::Double(0.9))]),
        select(
            Some(vec![0]),
            vec![ColRange::lt(0, Value::BigInt(40)), flt.clone()],
        ),
        select(None, vec![ColRange::ge(0, Value::BigInt(1_990))]),
        select(Some(vec![f.grp_col(1)]), vec![]),
        // Aggregates: plain, filtered, grouped, filtered + grouped.
        aggregate(vec![(AggFunc::Sum, f.kf_col(0))], None, vec![], None),
        aggregate(
            vec![(AggFunc::Min, f.kf_col(1)), (AggFunc::Max, f.kf_col(1))],
            None,
            vec![flt.clone()],
            None,
        ),
        aggregate(
            vec![(AggFunc::Avg, f.kf_col(2)), (AggFunc::Count, f.st_col(1))],
            Some(f.grp_col(0)),
            vec![],
            None,
        ),
        aggregate(
            vec![(AggFunc::Sum, f.kf_col(1)), (AggFunc::Count, f.st_col(0))],
            Some(f.grp_col(1)),
            vec![flt.clone(), ColRange::ge(f.st_col(0), Value::Int(1))],
            None,
        ),
        aggregate(
            vec![(AggFunc::Sum, f.kf_col(0))],
            Some(f.st_col(0)),
            vec![ColRange::ge(0, Value::BigInt(1_900))],
            None,
        ),
        // Both joins, with and without a fact-side filter.
        aggregate(vec![(AggFunc::Sum, f.kf_col(0))], None, vec![], join(None)),
        aggregate(
            vec![(AggFunc::Sum, f.kf_col(2)), (AggFunc::Count, 0)],
            None,
            vec![flt],
            join(Some(d.grp_col(0))),
        ),
    ]
}

/// Writes that reach the cold partitions (write-through on the disk tier)
/// and ones that stay hot.
fn tier_writes() -> Vec<Query> {
    let (f, d) = (tier_fact(), tier_dim());
    let update = |table: &str, sets: Vec<(usize, Value)>, filter: Vec<ColRange>| {
        Query::Update(UpdateQuery {
            table: table.into(),
            sets,
            filter,
        })
    };
    vec![
        update(
            "fact",
            vec![
                (f.st_col(0), Value::Int(9)),
                (f.kf_col(0), Value::Double(123.25)),
            ],
            vec![ColRange::eq(0, Value::BigInt(7))],
        ),
        update(
            "fact",
            vec![(f.grp_col(1), Value::Int(77))],
            vec![ColRange::between(
                f.flt_col(0),
                Value::Int(5_000),
                Value::Int(5_400),
            )],
        ),
        update(
            "fact",
            vec![(f.st_col(1), Value::Int(4))],
            vec![ColRange::eq(0, Value::BigInt(1_999))],
        ),
        update(
            "dim",
            vec![(d.grp_col(0), Value::Int(42))],
            vec![ColRange::lt(0, Value::BigInt(10))],
        ),
        Query::Insert(InsertQuery {
            table: "fact".into(),
            rows: (2_000..2_010).map(|i| f.row(i)).collect(),
        }),
    ]
}

#[test]
fn disk_tier_answers_like_memory_tier() {
    for split in [&["fact"][..], &["dim"], &["fact", "dim"]] {
        let memory = tiered_db(split, Tier::Memory);
        let disk = tiered_db(split, Tier::Disk);
        for table in split {
            assert!(disk.disk_bytes(table).unwrap() > 0, "{table} is demoted");
            assert_eq!(memory.disk_bytes(table).unwrap(), 0);
        }
        let answers = |db: &HybridDatabase| -> Vec<QueryOutput> {
            tier_statements()
                .iter()
                .map(|q| db.execute(q).unwrap())
                .collect()
        };
        assert_all_close(&answers(&memory), &answers(&disk), &format!("{split:?}"));
        for write in tier_writes() {
            assert_eq!(
                memory.execute(&write).unwrap(),
                disk.execute(&write).unwrap(),
                "{split:?}: {write:?}"
            );
        }
        for table in split {
            assert!(disk.disk_bytes(table).unwrap() > 0, "{table} stays demoted");
        }
        let ctx = format!("{split:?} after write-through");
        assert_all_close(&answers(&memory), &answers(&disk), &ctx);
        for table in ["fact", "dim"] {
            let rows = |db: &HybridDatabase| {
                db.with_table(table, |d| d.snapshot_rows(db.segment_store()))
                    .unwrap()
                    .unwrap()
            };
            assert_eq!(rows(&memory), rows(&disk), "{ctx}: rows of {table}");
        }
    }
}

/// The request class is the method the executor calls: what a statement
/// reads from a demoted partition's segment is what its class needs.
#[test]
fn cold_statements_read_what_their_request_class_needs() {
    use hybrid_store_advisor::engine::partition::ColdPart;
    use hybrid_store_advisor::engine::TableData;
    let spec = TableSpec::paper_wide("t", 30_000, 3);
    let db = HybridDatabase::new();
    db.create_single(spec.schema().unwrap(), StoreKind::Column)
        .unwrap();
    db.bulk_load("t", spec.rows()).unwrap();
    mover::move_table(&db, "t", &split_at(27_000, Tier::Disk)).unwrap();
    let segment = db.disk_bytes("t").unwrap();
    // Bytes `q` fetched from the segment (any backend: the reader counts).
    let read_by = |q: Query| -> u64 {
        let bytes_read = || {
            db.with_table("t", |d| match d {
                TableData::Partitioned {
                    cold: ColdPart::DiskColumn(f),
                    ..
                } => f.reader().bytes_read(),
                other => panic!("expected a demoted cold partition, got {other:?}"),
            })
            .unwrap()
        };
        let before = bytes_read();
        db.execute(&q).unwrap();
        bytes_read() - before
    };
    let grouped = |filter| {
        Query::Aggregate(AggregateQuery {
            table: "t".into(),
            aggregates: vec![Aggregate {
                func: AggFunc::Sum,
                column: spec.kf_col(0),
            }],
            group_by: Some(spec.grp_col(0)),
            filter,
            join: None,
        })
    };
    let point = |k: i64| Query::Select(SelectQuery::point("t", 0, Value::BigInt(k)));

    let scan = read_by(grouped(vec![]));
    assert!(
        scan > 0 && scan < segment / 4,
        "two of thirty columns: {scan} of {segment}"
    );
    let hit = read_by(point(12_345));
    assert!(hit > 0 && hit < segment / 20, "one row: {hit} of {segment}");
    let miss = read_by(point(-5));
    assert!(
        miss < segment / 20,
        "a miss probes a dictionary: {miss} of {segment}"
    );
    // Pruned by the split column, or answered by the hot partition.
    assert_eq!(
        read_by(grouped(vec![ColRange::ge(0, Value::BigInt(27_000))])),
        0
    );
    assert_eq!(read_by(point(29_000)), 0);
}
