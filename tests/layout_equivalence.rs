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
    let mut rows = match pin.base() {
        hybrid_store_advisor::engine::partition::Region::Table(t) => {
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
// Joins: every fact layout against every dimension layout.

fn join_fact_schema() -> TableSchema {
    TableSchema::new(
        "fact",
        vec![
            ColumnDef::new("id", ColumnType::BigInt),
            ColumnDef::new("fk", ColumnType::Integer),
            ColumnDef::new("kf", ColumnType::Double),
            ColumnDef::new("st", ColumnType::Integer),
        ],
        vec![0],
    )
    .unwrap()
}

fn join_dim_schema() -> TableSchema {
    TableSchema::new(
        "dim",
        vec![
            ColumnDef::new("pk", ColumnType::Integer),
            ColumnDef::new("grp", ColumnType::Integer),
            ColumnDef::new("note", ColumnType::Integer),
        ],
        vec![0],
    )
    .unwrap()
}

/// Fact row `id`: loaded rows (`id < 400`) reference keys the dimension
/// loads (0..30), keys it only gains by insert (50..54) and keys it never
/// has (90..93); inserted rows add keys new to the fact (30..40, 60..64 —
/// which the dimension also only gains by insert — and dangling 95..97).
/// Key figures are small integers, so every sum is exact in any order.
fn join_fact_row(id: i64) -> Vec<Value> {
    let fk = if id < 400 {
        match id % 10 {
            0..=6 => id * 7 % 30,
            7 | 8 => 50 + id % 4,
            _ => 90 + id % 3,
        }
    } else {
        match id % 4 {
            0 => 30 + id % 10,
            1 => 60 + id % 4,
            2 => 95 + id % 2,
            _ => id % 30,
        }
    };
    vec![
        Value::BigInt(id),
        Value::Int(fk as i32),
        Value::Double((id % 17) as f64),
        Value::Int((id % 3) as i32),
    ]
}

fn join_dim_row(pk: i32, grp: i32) -> Vec<Value> {
    vec![Value::Int(pk), Value::Int(grp), Value::Int(pk * 2)]
}

/// Writes after the layout move: dimension keys new to its dictionary, a
/// group value overwritten (its old value 100 stays in the dictionary with
/// no row behind it) and one set to a value new to it, fact rows with
/// foreign keys new to the fact's dictionary.
fn join_writes() -> Vec<Query> {
    let set_group = |pk: i32, grp: i32| {
        Query::Update(UpdateQuery {
            table: "dim".into(),
            sets: vec![(1, Value::Int(grp))],
            filter: vec![ColRange::eq(0, Value::Int(pk))],
        })
    };
    vec![
        Query::Insert(InsertQuery {
            table: "dim".into(),
            rows: (50..54)
                .map(|pk| join_dim_row(pk, 7))
                .chain((60..64).map(|pk| join_dim_row(pk, pk % 5)))
                .collect(),
        }),
        set_group(0, 4),
        set_group(1, 200),
        Query::Insert(InsertQuery {
            table: "fact".into(),
            rows: (400..460).map(join_fact_row).collect(),
        }),
    ]
}

/// Layouts a join side can take. "column" folds its dictionary tails after
/// the writes; every other layout keeps them.
fn join_layouts(split: Value, row_cols: Vec<usize>) -> Vec<(&'static str, TablePlacement)> {
    let horizontal = |cold_tier| {
        TablePlacement::Partitioned(PartitionSpec {
            horizontal: Some(HorizontalSpec {
                split_column: 0,
                split_value: split.clone(),
            }),
            vertical: None,
            cold_tier,
        })
    };
    vec![
        ("row", TablePlacement::Single(StoreKind::Row)),
        ("column", TablePlacement::Single(StoreKind::Column)),
        ("column+tails", TablePlacement::Single(StoreKind::Column)),
        ("split", horizontal(Tier::Memory)),
        ("split+disk", horizontal(Tier::Disk)),
        (
            "pair",
            TablePlacement::Partitioned(PartitionSpec {
                horizontal: None,
                vertical: Some(VerticalSpec { row_cols }),
                ..Default::default()
            }),
        ),
    ]
}

#[test]
fn star_join_agrees_across_fact_and_dimension_layouts() {
    let join = |group_by_dim, filter: Vec<ColRange>| {
        Query::Aggregate(AggregateQuery {
            table: "fact".into(),
            aggregates: [AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Max]
                .into_iter()
                .map(|func| Aggregate { func, column: 2 })
                .collect(),
            group_by: None,
            filter,
            join: Some(JoinSpec {
                dim_table: "dim".into(),
                fact_fk: 1,
                dim_pk: 0,
                group_by_dim,
            }),
        })
    };
    let queries: Vec<Query> = [None, Some(1)]
        .into_iter()
        .flat_map(|g| {
            [
                join(g, vec![]),
                join(g, vec![ColRange::ge(0, Value::BigInt(350))]),
            ]
        })
        .collect();
    let dims = join_layouts(Value::Int(20), vec![1]);
    let facts = join_layouts(Value::BigInt(300), vec![3]);
    let mut reference: Option<Vec<QueryOutput>> = None;
    for (dim_label, dim_placement) in &dims {
        for (fact_label, fact_placement) in &facts {
            let ctx = format!("fact {fact_label} x dim {dim_label}");
            let db = HybridDatabase::new();
            db.set_merge_config(MergeConfig::disabled());
            for schema in [join_fact_schema(), join_dim_schema()] {
                db.create_single(schema, StoreKind::Row).unwrap();
            }
            db.bulk_load("fact", (0..400).map(join_fact_row)).unwrap();
            db.bulk_load(
                "dim",
                (0..40).map(|pk| join_dim_row(pk, if pk == 0 { 100 } else { pk % 5 })),
            )
            .unwrap();
            mover::move_table(&db, "fact", fact_placement).unwrap();
            mover::move_table(&db, "dim", dim_placement).unwrap();
            for write in join_writes() {
                db.execute(&write).unwrap();
            }
            for (table, label) in [("fact", fact_label), ("dim", dim_label)] {
                if *label == "column" {
                    mover::merge_delta(&db, table, MergePartition::Whole).unwrap();
                }
                if *label == "column+tails" {
                    assert!(
                        db.delta_tail(table).unwrap() > 0,
                        "{ctx}: {table} keeps tails"
                    );
                }
            }
            let outputs: Vec<QueryOutput> =
                queries.iter().map(|q| db.execute(q).unwrap()).collect();
            match &reference {
                None => reference = Some(outputs),
                Some(r) => assert_eq!(r, &outputs, "{ctx}"),
            }
        }
    }
    // The all-row answers themselves: every fact row whose key the
    // dimension holds joins, dangling ones drop out, and the overwritten
    // group value 100 is gone while the new value 200 is present.
    let reference = reference.unwrap();
    let dim_keys: Vec<i64> = (0..40).chain(50..54).chain(60..64).collect();
    let joined = (0..460)
        .map(join_fact_row)
        .filter(|r| dim_keys.contains(&(r[1].as_i64().unwrap())))
        .count();
    assert_eq!(
        reference[0].aggregates().unwrap()[0].values[1],
        joined as f64
    );
    let groups: Vec<&Option<Value>> = reference[2]
        .aggregates()
        .unwrap()
        .iter()
        .map(|g| &g.key)
        .collect();
    assert!(!groups.contains(&&Some(Value::Int(100))));
    assert!(groups.contains(&&Some(Value::Int(200))));
    assert!(groups.contains(&&Some(Value::Int(7))));
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
    use hybrid_store_advisor::engine::partition::Region;
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
            db.with_table("t", |d| match d.base() {
                Region::Disk(f) => f.reader().bytes_read(),
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
