//! Merge-transparency invariant: the delta merge is a physical
//! reorganization only. Any interleaving of writes and queries must produce
//! identical results whether merges run after every write, never, whenever
//! the online advisor's cost-scheduled maintenance decides, or sliced up by
//! the background maintenance worker between statements — merge *timing*
//! may change performance, never answers.

use proptest::prelude::*;

use hybrid_store_advisor::advisor::AdjustmentFn;
use hybrid_store_advisor::engine::QueryOutput;
use hybrid_store_advisor::prelude::*;
use hybrid_store_advisor::storage::{MemBackend, SyncPolicy, WalBackend, WalWriter};

const ROWS: i64 = 96;

fn schema() -> TableSchema {
    TableSchema::new(
        "t",
        vec![
            ColumnDef::new("id", ColumnType::BigInt),
            ColumnDef::new("kf", ColumnType::Double),
            ColumnDef::new("grp", ColumnType::Integer),
            ColumnDef::new("st", ColumnType::Integer),
        ],
        vec![0],
    )
    .unwrap()
}

fn placements() -> Vec<TablePlacement> {
    vec![
        TablePlacement::Single(StoreKind::Column),
        TablePlacement::Partitioned(PartitionSpec {
            horizontal: Some(HorizontalSpec {
                split_column: 0,
                split_value: Value::BigInt(ROWS * 3 / 4),
            }),
            vertical: Some(VerticalSpec { row_cols: vec![3] }),
            ..Default::default()
        }),
        // Cold rows in a disk segment: every cold write is a write-through
        // (load, apply, fold, republish) and the segment has no delta
        // region for the scheduled merges to find.
        TablePlacement::Partitioned(PartitionSpec {
            horizontal: Some(HorizontalSpec {
                split_column: 0,
                split_value: Value::BigInt(ROWS * 3 / 4),
            }),
            vertical: None,
            cold_tier: Tier::Disk,
        }),
    ]
}

fn build_db(placement: &TablePlacement) -> HybridDatabase {
    build_logged_db(placement, None)
}

/// [`build_db`], optionally with a WAL attached *before* the first DDL so
/// the log captures the whole history (used by [`Policy::CrashDuringMerge`]).
fn build_logged_db(placement: &TablePlacement, wal: Option<Box<dyn WalBackend>>) -> HybridDatabase {
    let db = HybridDatabase::new();
    if let Some(backend) = wal {
        db.attach_wal(WalWriter::new(backend, SyncPolicy::Always));
    }
    db.create_single(schema(), StoreKind::Row).unwrap();
    db.bulk_load(
        "t",
        (0..ROWS).map(|i| {
            vec![
                Value::BigInt(i),
                Value::Double((i % 11) as f64),
                Value::Int((i % 5) as i32),
                Value::Int((i % 3) as i32),
            ]
        }),
    )
    .unwrap();
    mover::move_table(&db, "t", placement).unwrap();
    db
}

/// Advisor tuned to merge eagerly (tiny modeled merge cost, punitive tail
/// term), so scheduled merges actually fire inside short random sequences.
fn eager_advisor() -> OnlineAdvisor {
    let mut m = CostModel::neutral();
    m.column.f_rows = AdjustmentFn::Constant(1.0);
    m.column.f_tail = AdjustmentFn::Linear {
        slope: 50.0,
        intercept: 1.0,
    };
    m.column.merge_ms = AdjustmentFn::Constant(0.001);
    OnlineAdvisor::new(
        StorageAdvisor::new(m),
        OnlineConfig {
            evaluation_interval: usize::MAX,
            maintenance_interval: 3,
            merge_min_tail: 2,
            merge_safety_factor: 0.5,
            ..Default::default()
        },
    )
}

#[derive(Debug, Clone, Copy)]
enum Policy {
    AlwaysMerge,
    NeverMerge,
    AdvisorScheduled,
    /// Advisor-scheduled, but each merge is applied through the bounded
    /// incremental path: a few code-vector rows of remap budget per
    /// statement, with queries running between the slices — the worst case
    /// for the shadow-rebuild consistency protocol.
    ChunkedMerge,
    /// Advisor-scheduled, with the merge/retract decisions handed to a
    /// [`MaintenanceWorker`] that drains one paced slice per statement —
    /// the background worker interleaved with the same random writes, the
    /// production shape of the incremental path.
    BackgroundMerge,
    /// [`Policy::BackgroundMerge`] running on a WAL, with the process
    /// "killed" the first time a sliced merge is caught mid-flight: the
    /// database is thrown away and rebuilt from the log image, discarding
    /// the in-flight shadow state. The recovered run must stay
    /// observationally identical — the crash may cost the merge, never an
    /// answer.
    CrashDuringMerge,
}

/// The tiny-budget worker used by the background policies: a 96-row table
/// still takes several slices — the interleaving the invariant is about.
fn slow_worker() -> MaintenanceWorker {
    MaintenanceWorker::new(WorkerConfig {
        pacer: PacerConfig {
            initial_budget: 7,
            min_budget: 4,
            max_budget: 16,
            ..Default::default()
        },
        ..WorkerConfig::default()
    })
}

fn run_policy(
    placement: &TablePlacement,
    policy: Policy,
    queries: &[Query],
) -> (Vec<Option<QueryOutput>>, usize, usize) {
    let mut wal_image = None;
    let mut db = if matches!(policy, Policy::CrashDuringMerge) {
        let mem = MemBackend::new();
        wal_image = Some(mem.share());
        build_logged_db(placement, Some(Box::new(mem)))
    } else {
        build_db(placement)
    };
    let mut advisor = match policy {
        Policy::AlwaysMerge => {
            db.set_merge_config(MergeConfig::always());
            None
        }
        Policy::NeverMerge => {
            db.set_merge_config(MergeConfig::disabled());
            None
        }
        Policy::AdvisorScheduled
        | Policy::ChunkedMerge
        | Policy::BackgroundMerge
        | Policy::CrashDuringMerge => {
            db.set_merge_config(MergeConfig::disabled());
            Some(eager_advisor())
        }
    };
    let chunked = matches!(policy, Policy::ChunkedMerge);
    let mut worker =
        matches!(policy, Policy::BackgroundMerge | Policy::CrashDuringMerge).then(slow_worker);
    let mut merges = 0;
    let mut crashes = 0;
    let mut in_flight: Option<MaintenanceAction> = None;
    let outputs = queries
        .iter()
        .map(|q| {
            let out = db.execute(q).ok();
            // Advance any in-flight chunked merge by one bounded slice
            // before the advisor looks at the table again.
            if let Some(action) = &in_flight {
                if action.apply_chunked(&db, 7).unwrap().done {
                    in_flight = None;
                    merges += 1;
                }
            }
            if let Some(w) = worker.as_mut() {
                // One paced slice between statements (merges counted from
                // the worker's stats at end of stream).
                w.tick(&db).unwrap();
            }
            // Kill-and-recover the first time a sliced merge is caught
            // mid-flight: the recovered database replays the committed log
            // prefix, the in-flight shadow state is lost, and a fresh
            // worker (its queue gone, like a real restart) takes over.
            if let Some(image) = wal_image.as_ref() {
                if crashes == 0 && db.merge_status("t").unwrap().1 {
                    let (rec, report) = HybridDatabase::recover_bytes(&image.snapshot());
                    assert!(report.is_clean(), "{report:?}");
                    assert!(!rec.merge_status("t").unwrap().1);
                    rec.set_merge_config(MergeConfig::disabled());
                    db = rec;
                    worker = Some(slow_worker());
                    crashes += 1;
                }
            }
            if let Some(adv) = advisor.as_mut() {
                adv.observe(&db, q).unwrap();
                for action in adv.take_maintenance() {
                    match &action {
                        MaintenanceAction::Merge { table, partition } => {
                            // The worker keys jobs by (table, partition):
                            // on the partitioned layout the advisor hands
                            // out cold-fragment jobs, and the worker's
                            // slices touch only the cold column fragment
                            // while the random stream keeps writing into
                            // both fragments.
                            if let Some(w) = worker.as_mut() {
                                w.enqueue(table, *partition);
                            } else if chunked {
                                if in_flight.is_none() {
                                    in_flight = Some(action);
                                }
                            } else {
                                action.apply(&db).unwrap();
                                merges += 1;
                            }
                        }
                        MaintenanceAction::Retract { table } => {
                            if let Some(w) = worker.as_mut() {
                                w.retract(&db, table).unwrap();
                            } else if chunked
                                && in_flight.as_ref().is_some_and(|a| a.table() == table)
                            {
                                action.apply(&db).unwrap();
                                in_flight = None;
                            } else {
                                action.apply(&db).unwrap();
                            }
                        }
                    }
                }
            }
            out
        })
        .collect();
    // Drain any merge still in flight at end of stream.
    if let Some(action) = &in_flight {
        while !action.apply_chunked(&db, 7).unwrap().done {}
        merges += 1;
    }
    if let Some(w) = worker.as_mut() {
        w.drain(&db).unwrap();
        merges += w.stats().jobs_completed as usize;
    }
    (outputs, merges, crashes)
}

/// A randomized statement over the fixed schema. Updates write *fresh*
/// keyfigure values so the dictionary tail actually grows between merges.
fn query_strategy() -> impl Strategy<Value = Query> {
    let agg = (0usize..5, any::<bool>(), -1i64..ROWS + 20).prop_map(|(f, grouped, bound)| {
        let funcs = [
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Count,
        ];
        Query::Aggregate(AggregateQuery {
            table: "t".into(),
            aggregates: vec![Aggregate {
                func: funcs[f],
                column: 1,
            }],
            group_by: grouped.then_some(2),
            filter: if bound < 0 {
                vec![]
            } else {
                vec![ColRange::ge(0, Value::BigInt(bound))]
            },
            join: None,
        })
    });
    let select = (0i64..ROWS + 20, any::<bool>()).prop_map(|(id, point)| {
        Query::Select(SelectQuery {
            table: "t".into(),
            columns: Some(vec![0, 1, 3]),
            filter: if point {
                vec![ColRange::eq(0, Value::BigInt(id))]
            } else {
                vec![ColRange::between(
                    0,
                    Value::BigInt(id / 2),
                    Value::BigInt(id),
                )]
            },
        })
    });
    let fresh_update = (0i64..ROWS, 0u32..1_000_000).prop_map(|(id, salt)| {
        Query::Update(UpdateQuery {
            table: "t".into(),
            sets: vec![(1, Value::Double(1e6 + salt as f64 * 0.013))],
            filter: vec![ColRange::eq(0, Value::BigInt(id))],
        })
    });
    // Writes that land in the *row* fragment of the vertical split (column
    // 3), alone or combined with a column-fragment assignment in the same
    // statement — so cold-fragment merge slices interleave with writes to
    // both fragments of the partitioned layout.
    let row_frag_update = (0i64..ROWS, 0i32..50, any::<bool>()).prop_map(|(id, v, both)| {
        let mut sets = vec![(3, Value::Int(v))];
        if both {
            sets.push((1, Value::Double(2e6 + v as f64 * 0.07)));
        }
        Query::Update(UpdateQuery {
            table: "t".into(),
            sets,
            filter: vec![ColRange::eq(0, Value::BigInt(id))],
        })
    });
    let insert = (ROWS..ROWS + 200i64).prop_map(|id| {
        Query::Insert(InsertQuery {
            table: "t".into(),
            rows: vec![vec![
                Value::BigInt(id),
                Value::Double(0.25),
                Value::Int(1),
                Value::Int(2),
            ]],
        })
    });
    prop_oneof![agg, select, fresh_update, row_frag_update, insert]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Interleaved writes and queries yield the same outputs under
    /// always-merge, never-merge, and advisor-scheduled maintenance, on a
    /// single column-store table, on a hot/cold layout with a vertically
    /// split cold partition, and on one whose cold partition is on disk.
    #[test]
    fn merge_policies_are_observationally_equivalent(
        mut queries in prop::collection::vec(query_strategy(), 12..36)
    ) {
        // Canonical final probe: full contents, fixed order within one
        // layout, so the comparison also covers the end state.
        queries.push(Query::Select(SelectQuery {
            table: "t".into(),
            columns: None,
            filter: vec![],
        }));
        for placement in placements() {
            let (reference, _, _) = run_policy(&placement, Policy::AlwaysMerge, &queries);
            for policy in [
                Policy::NeverMerge,
                Policy::AdvisorScheduled,
                Policy::ChunkedMerge,
                Policy::BackgroundMerge,
                Policy::CrashDuringMerge,
            ] {
                let (outputs, _, _) = run_policy(&placement, policy, &queries);
                prop_assert_eq!(
                    &outputs, &reference,
                    "{:?} diverges from always-merge under {:?}", policy, placement
                );
            }
        }
    }
}

/// Drive real reader/writer/worker threads against one shared database and
/// check snapshot isolation the concurrent engine promises: every
/// whole-table update is a single latched statement, so a reader pinning an
/// epoch must see *all* rows at one generation — `Min == Max` on the
/// updated keyfigure — while the threaded maintenance worker's merge slices
/// concurrently remap the very column being scanned. Generations a reader
/// observes must also be monotone (epochs never travel backwards), and the
/// end state must equal the serial outcome: every row at the final
/// generation, no rows lost.
fn run_concurrent_generations(
    placement: &TablePlacement,
    partition: MergePartition,
    generations: u32,
) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let db = HybridDatabase::new();
    db.create_single(schema(), StoreKind::Row).unwrap();
    // Uniform keyfigure start (generation 0), so Min == Max holds from the
    // first snapshot onwards.
    db.bulk_load(
        "t",
        (0..ROWS).map(|i| {
            vec![
                Value::BigInt(i),
                Value::Double(0.0),
                Value::Int((i % 5) as i32),
                Value::Int((i % 3) as i32),
            ]
        }),
    )
    .unwrap();
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
    let progress: Vec<_> = (0..2)
        .map(|_| Arc::new(std::sync::atomic::AtomicUsize::new(0)))
        .collect();
    let readers: Vec<_> = progress
        .iter()
        .map(|counter| {
            let db = shared.clone();
            let done = done.clone();
            let counter = Arc::clone(counter);
            std::thread::spawn(move || {
                let probe = Query::Aggregate(AggregateQuery {
                    table: "t".into(),
                    aggregates: vec![
                        Aggregate {
                            func: AggFunc::Min,
                            column: 1,
                        },
                        Aggregate {
                            func: AggFunc::Max,
                            column: 1,
                        },
                    ],
                    group_by: None,
                    filter: vec![],
                    join: None,
                });
                let mut last = 0.0f64;
                let mut snapshots = 0usize;
                while !done.load(Ordering::Acquire) {
                    let out = db.execute(&probe).unwrap();
                    let row = &out.aggregates().unwrap()[0];
                    let (min, max) = (row.values[0], row.values[1]);
                    assert_eq!(
                        min, max,
                        "torn scan: one snapshot saw rows from two generations"
                    );
                    assert!(
                        min >= last,
                        "generation travelled backwards: {min} after {last}"
                    );
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
    // Serial reference: the interleaving must end exactly where the
    // single-threaded sequence would.
    assert_eq!(shared.row_count("t").unwrap(), ROWS as usize);
    let out = shared
        .execute(&Query::Aggregate(AggregateQuery {
            table: "t".into(),
            aggregates: vec![
                Aggregate {
                    func: AggFunc::Min,
                    column: 1,
                },
                Aggregate {
                    func: AggFunc::Max,
                    column: 1,
                },
            ],
            group_by: None,
            filter: vec![],
            join: None,
        }))
        .unwrap();
    let row = &out.aggregates().unwrap()[0];
    assert_eq!(row.values[0], generations as f64);
    assert_eq!(row.values[1], generations as f64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Snapshot isolation under real threads: concurrent readers never see
    /// a torn whole-table update or a backwards generation while the
    /// threaded worker merges the scanned column, on both the single
    /// column-store layout and the hot/cold partitioned layout.
    #[test]
    fn concurrent_snapshots_are_never_torn(generations in 8u32..24) {
        run_concurrent_generations(
            &TablePlacement::Single(StoreKind::Column),
            MergePartition::Whole,
            generations,
        );
        run_concurrent_generations(&placements()[1], MergePartition::Cold, generations);
    }
}

/// Deterministic sanity check that the advisor-scheduled policy actually
/// merges inside a scan-heavy sequence (so the proptest above genuinely
/// exercises merge timing, not just the disabled path).
#[test]
fn eager_advisor_merges_during_scan_heavy_sequence() {
    let queries: Vec<Query> = (0..48)
        .map(|i| {
            if i % 2 == 0 {
                Query::Update(UpdateQuery {
                    table: "t".into(),
                    sets: vec![(1, Value::Double(2e6 + i as f64))],
                    filter: vec![ColRange::eq(0, Value::BigInt(i % ROWS))],
                })
            } else {
                Query::Aggregate(AggregateQuery::simple("t", AggFunc::Sum, 1))
            }
        })
        .collect();
    let (_, merges, _) = run_policy(
        &TablePlacement::Single(StoreKind::Column),
        Policy::AdvisorScheduled,
        &queries,
    );
    assert!(merges > 0, "the eager advisor must schedule merges");
    // The same stream through the background worker completes merges too,
    // so the proptest's worker policy genuinely exercises sliced merges
    // interleaved with writes.
    let (_, background_merges, _) = run_policy(
        &TablePlacement::Single(StoreKind::Column),
        Policy::BackgroundMerge,
        &queries,
    );
    assert!(
        background_merges > 0,
        "the background worker must complete scheduled merges"
    );
    // On the hot/cold partitioned layout the advisor hands out
    // *cold-fragment* jobs (the updates above hit historic ids, so the
    // tail grows in the cold column fragment); the worker must drive those
    // region-keyed jobs to completion as well.
    let (_, cold_merges, _) = run_policy(&placements()[1], Policy::BackgroundMerge, &queries);
    assert!(
        cold_merges > 0,
        "cold-fragment jobs must complete on the partitioned layout"
    );
    // And the crash policy genuinely crashes on this stream: a sliced
    // merge is caught mid-flight and the database is rebuilt from the log,
    // so the proptest's CrashDuringMerge arm exercises real recoveries.
    let (_, _, crashes) = run_policy(
        &TablePlacement::Single(StoreKind::Column),
        Policy::CrashDuringMerge,
        &queries,
    );
    assert!(crashes > 0, "the crash policy must hit a mid-flight merge");
}
