//! Cross-crate invariant: a workload produces the answers and the final
//! table contents of the reference interpreter no matter which storage
//! layout the data lives in. This is the transparency property the paper's
//! rewriter promises ("the query rewriting must be realized automatically
//! and transparently to the user").

mod common;

use std::collections::BTreeSet;

use common::case::{
    fixed, generate, reshape, run, shapes, with_joins, Case, Durability, MergeState, Step,
    TableCase,
};
use hybrid_store_advisor::prelude::*;

/// Generated cases per shape of the fact table.
const CASES: u64 = 8;

#[test]
fn all_layouts_agree_on_results_and_final_state() {
    for shape in 0..6 {
        for seed in 0..CASES {
            run(&reshape(generate(seed * 6 + shape as u64), 0, shape));
        }
    }
}

/// The paper's 30-attribute table under a stream of range updates, in
/// every shape.
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
    for shape in shapes(Value::BigInt(1_350), spec.st_cols()) {
        let t = TableCase::new(spec.schema().unwrap(), spec.rows().collect(), shape);
        run(&fixed(vec![t], &workload.queries));
    }
}

/// Runs `case` with joins appended, and checks that one of them joined two
/// non-empty tables.
fn run_joined(case: Case) {
    let seed = case.seed;
    assert!(run(&with_joins(case)).joins > 0, "seed {seed}: no join ran");
}

/// Joins with the fact table in every shape.
#[test]
fn star_join_agrees_across_fact_layouts() {
    for shape in 0..6 {
        for seed in 0..CASES / 2 {
            run_joined(reshape(generate(500 + seed * 6 + shape as u64), 0, shape));
        }
    }
}

/// Every fact shape joined against every dimension shape, with the
/// dictionary tails the writes leave (no merges), demoted sides included.
#[test]
fn star_join_agrees_across_fact_and_dimension_layouts() {
    for fact in 0..6 {
        for dim in 0..6 {
            let case = reshape(generate(1_000 + fact as u64 * 6 + dim as u64), 0, fact);
            run_joined(Case {
                merge: MergeState::Tailed,
                ..reshape(case, 1, dim)
            });
        }
    }
}

/// A cold partition on disk answers like a memory-resident one: either
/// table, or both, split hot/cold with the cold side demoted.
#[test]
fn disk_tier_answers_like_memory_tier() {
    const DISK: usize = 3;
    for seed in 2_000..2_000 + CASES {
        run(&reshape(generate(seed), 0, DISK));
        run(&reshape(generate(seed), 1, DISK));
        run(&reshape(reshape(generate(seed), 0, DISK), 1, DISK));
    }
}

/// The placement shape of `p`, and where its split sits among `t`'s keys.
fn shape(t: &TableCase, p: &TablePlacement) -> Vec<String> {
    let TablePlacement::Partitioned(s) = p else {
        return vec![format!("{p:?}")];
    };
    let (h, v, tier) = (s.horizontal.is_some(), s.vertical.is_some(), s.cold_tier);
    let mut labels = vec![format!("hot/cold {h}, vertical {v}, {tier:?}")];
    let ids = t.rows.iter().map(|r| &r[0]);
    if let Some(split) = s.horizontal.as_ref().map(|h| &h.split_value) {
        labels.extend((ids.clone().min() == Some(split)).then(|| "split at min key".into()));
        labels.extend((ids.max() == Some(split)).then(|| "split at max key".into()));
    }
    labels
}

/// The properties above are only as strong as the cases they see: the
/// generator must reach every value on every axis.
#[test]
fn generated_cases_reach_every_axis() {
    let mut seen = BTreeSet::new();
    let mut mid_merge = 0;
    for seed in 0..64 {
        let case = generate(seed);
        let fact = &case.tables[0];
        for t in &case.tables {
            seen.insert(["empty", "one row", "many rows"][t.rows.len().min(2)].to_string());
            seen.insert(["no index", "with index"][usize::from(!t.indexed.is_empty())].into());
            seen.extend(shape(t, &t.placement));
        }
        for step in &case.steps {
            if let Step::Move { to, refused, .. } = step {
                seen.extend(shape(fact, to));
                seen.insert(format!("refused move {refused}"));
            }
            seen.insert(format!("{:?}", std::mem::discriminant(step)));
        }
        let reopens = case.steps.iter().any(|s| matches!(s, Step::Reopen));
        seen.insert(format!(
            "reopen {}",
            reopens && case.durability != Durability::Volatile
        ));
        seen.insert(format!(
            "{:?}, {:?}, {} threads",
            case.merge, case.durability, case.threads
        ));
        if case.merge == MergeState::InFlight && mid_merge == 0 {
            mid_merge += run(&case).stmts_mid_merge;
        }
    }
    assert!(
        mid_merge > 0,
        "no statement ran while a merge was in flight"
    );
    let shapes = [
        "Single(Row)",
        "Single(Column)",
        "hot/cold true, vertical false, Memory",
        "hot/cold true, vertical false, Disk",
        "hot/cold false, vertical true, Memory",
        "hot/cold true, vertical true, Memory",
    ];
    let others = [
        "split at min key",
        "split at max key",
        "empty",
        "one row",
        "many rows",
    ];
    let axes = [
        "Merged,",
        "Tailed,",
        "InFlight,",
        "Scheduled,",
        "Volatile",
        "Wal",
        "Dir",
    ];
    let more = [
        "1 threads",
        "2 threads",
        "no index",
        "with index",
        "reopen true",
        "reopen false",
        "refused move true",
        "refused move false",
    ];
    for axis in shapes.into_iter().chain(others).chain(axes).chain(more) {
        assert!(
            seen.iter().any(|s| s.contains(axis)),
            "no generated case reaches {axis}: {seen:#?}"
        );
    }
    let steps = seen
        .iter()
        .filter(|s| s.starts_with("Discriminant"))
        .count();
    assert_eq!(steps, 8, "every kind of step: {seen:#?}");
}

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
