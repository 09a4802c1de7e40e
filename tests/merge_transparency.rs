//! Merge-transparency invariant: the delta merge is a physical
//! reorganization only. Any interleaving of writes and queries answers like
//! the reference interpreter whether merges run after every write, never,
//! in slices between statements, or when the online advisor schedules them
//! for the maintenance worker — merge *timing* may change performance,
//! never answers.

mod common;

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use common::case::{generate, run, Case, Durability, MergeState, Step, TableCase};
use common::{assert_state, kv_rows, kv_schema, Model};
use hybrid_store_advisor::prelude::*;

const ROWS: i64 = 96;

/// Generated cases per merge state.
const CASES: u64 = 12;

#[test]
fn merge_policies_are_observationally_equivalent() {
    for merge in [
        MergeState::Merged,
        MergeState::Tailed,
        MergeState::InFlight,
        MergeState::Scheduled,
    ] {
        for seed in 0..CASES {
            run(&Case {
                merge,
                ..generate(3_000 + seed)
            });
        }
    }
}

/// Hot/cold split at three quarters, the cold side split vertically.
fn hot_cold() -> TablePlacement {
    TablePlacement::Partitioned(PartitionSpec {
        horizontal: Some(HorizontalSpec {
            split_column: 0,
            split_value: Value::BigInt(ROWS * 3 / 4),
        }),
        vertical: Some(VerticalSpec { row_cols: vec![3] }),
        ..Default::default()
    })
}

/// Drive real reader/writer/worker threads against one shared database and
/// check the snapshot isolation the concurrent engine promises: every
/// whole-table update is a single latched statement, so a reader pinning an
/// epoch must see *all* rows at one generation — `Min == Max` on the
/// updated keyfigure — while the threaded maintenance worker's merge slices
/// concurrently remap the very column being scanned. Generations a reader
/// observes must also be monotone, and the end state is the interpreter's:
/// every row at the final generation.
fn run_concurrent_generations(
    placement: &TablePlacement,
    partition: MergePartition,
    generations: u32,
) {
    let db = HybridDatabase::new();
    db.create_single(kv_schema("t"), StoreKind::Row).unwrap();
    // Uniform keyfigure start (generation 0), so Min == Max holds from the
    // first snapshot onwards.
    db.bulk_load("t", kv_rows(0..ROWS, |_| 0.0)).unwrap();
    mover::move_table(&db, "t", placement).unwrap();
    db.set_merge_config(MergeConfig::disabled());
    let shared: SharedDatabase = Arc::new(db);
    // Tiny slice budgets: a 96-row remap takes many slices, maximizing the
    // window in which scans overlap a half-remapped shadow rebuild.
    let worker = BackgroundWorker::spawn(
        shared.clone(),
        WorkerConfig {
            pacer: PacerConfig {
                initial_budget: 7,
                min_budget: 4,
                max_budget: 16,
                ..Default::default()
            },
            ..WorkerConfig::default()
        },
        std::time::Duration::from_micros(50),
    );
    let done = Arc::new(AtomicBool::new(false));
    let progress: Vec<_> = (0..2).map(|_| Arc::new(AtomicUsize::new(0))).collect();
    let readers: Vec<_> = progress
        .iter()
        .map(|counter| {
            let (db, done, counter) = (shared.clone(), done.clone(), Arc::clone(counter));
            std::thread::spawn(move || {
                let mut probe = AggregateQuery::simple("t", AggFunc::Min, 1);
                probe.aggregates.push(Aggregate {
                    func: AggFunc::Max,
                    column: 1,
                });
                let probe = Query::Aggregate(probe);
                let (mut last, mut snapshots) = (0.0f64, 0usize);
                while !done.load(Ordering::Acquire) {
                    let out = db.execute(&probe).unwrap();
                    let row = &out.aggregates().unwrap()[0];
                    let (min, max) = (row.values[0], row.values[1]);
                    assert_eq!(min, max, "torn scan: one snapshot saw two generations");
                    assert!(min >= last, "generation went backwards: {min} after {last}");
                    last = min;
                    snapshots += 1;
                    counter.store(snapshots, Ordering::Release);
                }
                snapshots
            })
        })
        .collect();
    // The writer: one whole-table update per generation, each interning a
    // fresh dictionary value (the tail the worker keeps merging away).
    for g in 1..=generations {
        shared
            .execute(&Query::Update(UpdateQuery {
                table: "t".into(),
                sets: vec![(1, Value::Double(g as f64))],
                filter: vec![],
            }))
            .unwrap();
        worker.enqueue("t", partition);
    }
    // On a small machine the writer can finish before the readers are even
    // scheduled; hold the stream open (at the final generation) until every
    // reader has taken a handful of genuinely concurrent snapshots.
    while progress.iter().any(|c| c.load(Ordering::Acquire) < 5) {
        std::thread::yield_now();
    }
    done.store(true, Ordering::Release);
    for r in readers {
        assert!(r.join().unwrap() >= 5);
    }
    let stats = worker.stop(true);
    assert!(
        stats.entries_folded > 0,
        "no merge work overlapped the scans — the test lost its subject"
    );
    let mut model = Model::default();
    model.create(kv_schema("t"), kv_rows(0..ROWS, |_| generations as f64));
    assert_state(&shared, &model, "t", &format!("{placement:?}"));
}

/// Snapshot isolation under real threads, on the single column-store
/// layout and the hot/cold partitioned one.
#[test]
fn concurrent_snapshots_are_never_torn() {
    for generations in [8, 15, 23] {
        run_concurrent_generations(
            &TablePlacement::Single(StoreKind::Column),
            MergePartition::Whole,
            generations,
        );
        run_concurrent_generations(&hot_cold(), MergePartition::Cold, generations);
    }
}

/// The scheduled merge state genuinely merges: on a scan-heavy stream the
/// eager advisor hands merges to the worker, which completes them on the
/// single column store and (cold-fragment jobs) on the hot/cold layout.
/// On a WAL, crash cuts land while a merge is in flight and recover, and
/// the database crashes mid-merge, recovers and runs on.
#[test]
fn eager_advisor_merges_during_scan_heavy_sequence() {
    let steps: Vec<Step> = (0..48)
        .map(|i| {
            Step::Run(match i % 2 {
                0 => Query::Update(UpdateQuery {
                    table: "t".into(),
                    sets: vec![(1, Value::Double(2e6 + i as f64))],
                    filter: vec![ColRange::eq(0, Value::BigInt(i % ROWS))],
                }),
                _ => Query::Aggregate(AggregateQuery::simple("t", AggFunc::Sum, 1)),
            })
        })
        .collect();
    // On the log, a crash a third of the way in.
    let mut crashing = steps.clone();
    crashing.insert(steps.len() / 3, Step::Reopen);
    for (placement, durability, steps) in [
        (
            TablePlacement::Single(StoreKind::Column),
            Durability::Volatile,
            &steps,
        ),
        (hot_cold(), Durability::Volatile, &steps),
        (
            TablePlacement::Single(StoreKind::Column),
            Durability::Wal,
            &crashing,
        ),
    ] {
        let case = Case {
            seed: 0,
            tables: vec![TableCase::new(
                kv_schema("t"),
                kv_rows(0..ROWS, |i| (i % 11) as f64),
                placement.clone(),
            )],
            steps: steps.clone(),
            merge: MergeState::Scheduled,
            durability,
            threads: 1,
        };
        let outcome = run(&case);
        assert!(
            outcome.merges > 0,
            "{placement:?}, {durability:?}: no scheduled merge completed"
        );
        if durability == Durability::Wal {
            assert!(
                outcome.cuts_mid_merge > 0,
                "no crash cut hit a merge in flight"
            );
            assert!(
                outcome.crashes_mid_merge > 0,
                "the database never crashed mid-merge"
            );
        }
    }
}
