//! Crash-consistency invariant for the WAL + recovery subsystem: for every
//! injected crash offset, recovering from the byte prefix of the log must
//! reconstruct exactly the committed statement prefix — torn tails are
//! truncated, never replayed; interior corruption quarantines only the
//! affected table; transient I/O faults are absorbed by the writer's retry
//! loop without losing a record.
//!
//! The oracle is the live database itself: after every committed statement
//! the harness checkpoints `(log length, canonical probe of table contents)`
//! against the in-memory WAL image, then replays truncated copies of that
//! image through [`HybridDatabase::recover_bytes`] and compares.

use std::ops::Bound;

use proptest::prelude::*;

use hybrid_store_advisor::engine::QueryOutput;
use hybrid_store_advisor::prelude::*;
use hybrid_store_advisor::storage::wal::HEADER_LEN;
use hybrid_store_advisor::storage::{
    scan_frames, FaultFile, FaultPlan, MemBackend, RetryPolicy, SyncPolicy, WalWriter,
};
use hybrid_store_advisor::types::Error;

fn schema(name: &str) -> TableSchema {
    TableSchema::new(
        name,
        vec![
            ColumnDef::new("id", ColumnType::BigInt),
            ColumnDef::new("kf", ColumnType::Double),
            ColumnDef::new("grp", ColumnType::Integer),
        ],
        vec![0],
    )
    .unwrap()
}

fn row(id: i64, salt: i64) -> Vec<Value> {
    vec![
        Value::BigInt(id),
        Value::Double(salt as f64 * 0.125),
        Value::Int((id % 7) as i32),
    ]
}

/// Canonical table contents: full scan, sorted by primary key so the probe
/// is independent of physical layout and merge state.
fn probe(db: &HybridDatabase, table: &str) -> Vec<Vec<Value>> {
    let out = db
        .execute(&Query::Select(SelectQuery {
            table: table.into(),
            columns: None,
            filter: vec![],
        }))
        .unwrap();
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

/// A statement of the randomized stream. Every variant appends at most one
/// WAL frame, so statement checkpoints and frame boundaries coincide and a
/// cut strictly between two checkpoints always lands mid-frame.
#[derive(Debug, Clone)]
enum Stmt {
    Insert { id: i64, salt: i64 },
    Update { id: i64, salt: i64 },
    Merge,
    Move(TablePlacement),
    Demote,
    Promote,
}

fn apply_stmt(db: &HybridDatabase, s: &Stmt) {
    // Failed statements (e.g. duplicate-key inserts in the random stream)
    // commit nothing and log nothing, so they leave the checkpoint as-is.
    match s {
        Stmt::Insert { id, salt } => {
            let _ = db.execute(&Query::Insert(InsertQuery {
                table: "t".into(),
                rows: vec![row(*id, *salt)],
            }));
        }
        Stmt::Update { id, salt } => {
            let _ = db.execute(&Query::Update(UpdateQuery {
                table: "t".into(),
                sets: vec![(1, Value::Double(1e6 + *salt as f64 * 0.013))],
                filter: vec![ColRange::eq(0, Value::BigInt(*id))],
            }));
        }
        Stmt::Merge => {
            mover::merge_delta(db, "t", MergePartition::Whole).unwrap();
        }
        Stmt::Move(placement) => {
            mover::move_table(db, "t", placement).unwrap();
        }
        // Demotion is only legal for horizontally-partitioned tables without
        // a vertical split; in the random stream the placement may be
        // anything, so tolerate the rejection (it logs nothing).
        Stmt::Demote => {
            let _ = mover::demote_cold(db, "t");
        }
        Stmt::Promote => {
            let _ = mover::promote_cold(db, "t");
        }
    }
}

fn insert_stmt() -> impl Strategy<Value = Stmt> {
    (100i64..400, 0i64..1000).prop_map(|(id, salt)| Stmt::Insert { id, salt })
}

fn update_stmt() -> impl Strategy<Value = Stmt> {
    (0i64..100, 0i64..1000).prop_map(|(id, salt)| Stmt::Update { id, salt })
}

fn stmt_strategy() -> impl Strategy<Value = Stmt> {
    let merge = (0u32..1).prop_map(|_| Stmt::Merge);
    let mv = (0u32..4).prop_map(|i| {
        Stmt::Move(match i {
            0 => TablePlacement::Single(StoreKind::Column),
            1 => TablePlacement::Single(StoreKind::Row),
            2 => TablePlacement::Partitioned(PartitionSpec {
                horizontal: Some(HorizontalSpec {
                    split_column: 0,
                    split_value: Value::BigInt(48),
                }),
                vertical: Some(VerticalSpec { row_cols: vec![2] }),
                ..Default::default()
            }),
            // Straight into a disk-resident cold partition: the move itself
            // writes a segment, so cuts can land inside its WAL frame.
            _ => TablePlacement::Partitioned(PartitionSpec {
                horizontal: Some(HorizontalSpec {
                    split_column: 0,
                    split_value: Value::BigInt(48),
                }),
                vertical: None,
                cold_tier: Tier::Disk,
            }),
        })
    });
    let demote = (0u32..1).prop_map(|_| Stmt::Demote);
    let promote = (0u32..1).prop_map(|_| Stmt::Promote);
    // Writes dominate; merges, placement moves, and tier transitions are
    // sprinkled in so the log mixes data records with
    // physical-reorganization records.
    prop_oneof![
        insert_stmt(),
        insert_stmt(),
        insert_stmt(),
        update_stmt(),
        update_stmt(),
        update_stmt(),
        merge,
        mv,
        demote,
        promote
    ]
}

/// Fresh database with an always-synced in-memory WAL attached; returns the
/// second handle onto the log image.
fn wal_db() -> (HybridDatabase, MemBackend) {
    let mem = MemBackend::new();
    let image = mem.share();
    let db = HybridDatabase::new();
    db.set_merge_config(MergeConfig::disabled());
    db.attach_wal(WalWriter::new(Box::new(mem), SyncPolicy::Always));
    db.create_single(schema("t"), StoreKind::Column).unwrap();
    db.bulk_load("t", (0..96).map(|i| row(i, i))).unwrap();
    (db, image)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Crash-point sweep: cut the log at every statement boundary and at
    /// offsets strictly inside the following frame. Recovery must yield the
    /// checkpointed state of the longest committed prefix, report a torn
    /// tail exactly for the mid-frame cuts, and never come up degraded or
    /// with a merge still in flight.
    #[test]
    fn recovery_equals_committed_prefix_at_every_crash_point(
        stmts in prop::collection::vec(stmt_strategy(), 4..20)
    ) {
        let (db, image) = wal_db();
        // checkpoints[i] = (log length, probe) after the i-th committed
        // statement (index 0 = right after create + bulk load).
        let mut checkpoints = vec![(image.snapshot().len(), probe(&db, "t"))];
        for s in &stmts {
            apply_stmt(&db, s);
            checkpoints.push((image.snapshot().len(), probe(&db, "t")));
        }
        let bytes = image.snapshot();
        prop_assert_eq!(checkpoints.last().unwrap().0, bytes.len());

        for (i, (boundary, expected)) in checkpoints.iter().enumerate() {
            let next = checkpoints
                .get(i + 1)
                .map(|(b, _)| *b)
                .unwrap_or(bytes.len());
            // The clean cut, plus cuts one byte in, mid-header, and one
            // byte short of the next boundary (all inside the next frame).
            let mut cuts = vec![(*boundary, false)];
            if next > *boundary {
                for delta in [1, HEADER_LEN / 2, next - boundary - 1] {
                    let cut = boundary + delta;
                    if cut > *boundary && cut < next {
                        cuts.push((cut, true));
                    }
                }
            }
            for (cut, torn) in cuts {
                let (rec, report) = HybridDatabase::recover_bytes(&bytes[..cut]);
                prop_assert_eq!(report.torn_tail.is_some(), torn, "cut at {} of {}", cut, bytes.len());
                prop_assert_eq!(report.recovered_len, *boundary as u64);
                prop_assert!(report.degraded.is_empty(), "unexpected degradation: {:?}", report.degraded);
                prop_assert!(!rec.merge_status("t").unwrap().1, "in-flight merge survived recovery");
                prop_assert_eq!(&probe(&rec, "t"), expected, "cut at {} (boundary {})", cut, boundary);
            }
        }
    }
}

/// Exhaustive byte-level sweep on a small deterministic log: every single
/// truncation length from 0 to the full image recovers the longest
/// committed statement prefix.
#[test]
fn recovery_sweeps_every_byte_offset() {
    // Built inline (not via `wal_db`) so the create record and the bulk
    // load get *separate* checkpoints — they are distinct WAL frames, and
    // the byte sweep cuts right between them.
    let mem = MemBackend::new();
    let image = mem.share();
    let db = HybridDatabase::new();
    db.set_merge_config(MergeConfig::disabled());
    db.attach_wal(WalWriter::new(Box::new(mem), SyncPolicy::Always));
    db.create_single(schema("t"), StoreKind::Column).unwrap();
    let mut checkpoints = vec![(image.snapshot().len(), probe(&db, "t"))];
    db.bulk_load("t", (0..96).map(|i| row(i, i))).unwrap();
    checkpoints.push((image.snapshot().len(), probe(&db, "t")));
    for s in [
        Stmt::Insert { id: 200, salt: 3 },
        Stmt::Update { id: 10, salt: 4 },
        Stmt::Merge,
        Stmt::Insert { id: 201, salt: 5 },
    ] {
        apply_stmt(&db, &s);
        checkpoints.push((image.snapshot().len(), probe(&db, "t")));
    }
    let bytes = image.snapshot();
    for cut in 0..=bytes.len() {
        let (rec, report) = HybridDatabase::recover_bytes(&bytes[..cut]);
        let (boundary, expected) = checkpoints
            .iter()
            .rev()
            .find(|(b, _)| *b <= cut)
            .cloned()
            .unwrap_or((0, vec![]));
        assert_eq!(report.recovered_len, boundary as u64, "cut {cut}");
        assert_eq!(report.torn_tail.is_some(), cut != boundary, "cut {cut}");
        assert!(report.degraded.is_empty());
        if boundary == 0 {
            assert!(rec.table_names().is_empty());
        } else {
            assert_eq!(probe(&rec, "t"), expected, "cut {cut}");
        }
    }
}

/// Interior bit-flip: corrupt a payload byte of one table's insert record
/// in the *middle* of the log. Recovery must quarantine that table
/// read-only from the corruption point (serving the committed prefix),
/// leave the other table fully writable, and surface the damage in the
/// report until an operator clears it.
#[test]
fn interior_corruption_quarantines_only_the_hit_table() {
    let mem = MemBackend::new();
    let image = mem.share();
    let db = HybridDatabase::new();
    db.set_merge_config(MergeConfig::disabled());
    db.attach_wal(WalWriter::new(Box::new(mem), SyncPolicy::Always));
    db.create_single(schema("a"), StoreKind::Column).unwrap();
    db.create_single(schema("b"), StoreKind::Row).unwrap();
    db.bulk_load("a", (0..8).map(|i| row(i, i))).unwrap();
    db.bulk_load("b", (0..8).map(|i| row(i, i))).unwrap();
    // One insert per table *before* the corruption victim, so `b` has a
    // committed prefix to serve, then the victim, then more traffic.
    for (t, id) in [("a", 100), ("b", 100), ("b", 101), ("a", 101), ("b", 102)] {
        db.execute(&Query::Insert(InsertQuery {
            table: t.into(),
            rows: vec![row(id, id)],
        }))
        .unwrap();
    }
    let mut bytes = image.snapshot();
    let b_tag = hybrid_store_advisor::engine::durability::table_tag("b");
    // The victim: the fourth b-tagged frame — create, bulk load, and the
    // first insert stay committed; the second insert takes the hit.
    // (Corrupting the create record would leave the tag unresolved.)
    let victim = scan_frames(&bytes)
        .frames
        .iter()
        .filter(|f| f.table_tag == b_tag)
        .nth(3)
        .expect("log should hold several b-tagged frames")
        .offset as usize;
    bytes[victim + HEADER_LEN + 2] ^= 0x01;

    let (rec, report) = HybridDatabase::recover_bytes(&bytes);
    assert!(!report.is_clean());
    assert_eq!(report.degraded.len(), 1, "{:?}", report.degraded);
    assert_eq!(report.degraded[0].table, "b");
    assert!(report.records_skipped >= 1);
    assert!(
        report.torn_tail.is_none(),
        "interior corruption is not a torn tail"
    );

    // `b` serves its committed prefix read-only: bulk load + insert 100
    // replayed, everything at and after the flipped record quarantined.
    assert!(rec.is_degraded("b"));
    let b_rows = probe(&rec, "b");
    assert_eq!(b_rows.len(), 9);
    let write = rec.execute(&Query::Insert(InsertQuery {
        table: "b".into(),
        rows: vec![row(500, 0)],
    }));
    assert!(
        matches!(write, Err(Error::Degraded(_))),
        "write to quarantined table must fail: {write:?}"
    );

    // `a` is untouched: both inserts present, still writable.
    assert!(!rec.is_degraded("a"));
    assert_eq!(probe(&rec, "a").len(), 10);
    rec.execute(&Query::Insert(InsertQuery {
        table: "a".into(),
        rows: vec![row(500, 0)],
    }))
    .unwrap();

    // Operator override: acknowledging the damage restores writability.
    assert!(rec.clear_degraded("b"));
    rec.execute(&Query::Insert(InsertQuery {
        table: "b".into(),
        rows: vec![row(500, 0)],
    }))
    .unwrap();
}

/// Transient `EINTR`-style append faults are retried by the writer and the
/// log stays byte-identical to a fault-free run: recovery reproduces the
/// live database exactly and the retries are visible in the stats.
#[test]
fn transient_write_faults_are_retried_without_losing_records() {
    let mem = MemBackend::new();
    let image = mem.share();
    let faulty = FaultFile::new(
        Box::new(mem),
        FaultPlan {
            transient_failures: 3,
            short_write_cap: Some(11),
            ..FaultPlan::default()
        },
    );
    let db = HybridDatabase::new();
    db.set_merge_config(MergeConfig::disabled());
    db.attach_wal(WalWriter::with_retry(
        Box::new(faulty),
        SyncPolicy::Always,
        RetryPolicy::default(),
    ));
    db.create_single(schema("t"), StoreKind::Column).unwrap();
    db.bulk_load("t", (0..32).map(|i| row(i, i))).unwrap();
    for id in 100..110 {
        apply_stmt(&db, &Stmt::Insert { id, salt: id });
    }
    let stats = db.wal_stats().unwrap();
    assert!(stats.retries >= 3, "retries: {}", stats.retries);
    assert!(stats.records >= 12);

    let bytes = image.snapshot();
    let (rec, report) = HybridDatabase::recover_bytes(&bytes);
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(probe(&rec, "t"), probe(&db, "t"));
}

/// Simulated media death mid-record: the failed statement surfaces an I/O
/// error to the caller (it never committed) and recovery truncates the torn
/// tail back to the last durable statement.
#[test]
fn media_death_mid_record_loses_only_the_uncommitted_statement() {
    // First, measure the clean log so the crash can be planted mid-frame.
    let (oracle, oracle_image) = wal_db();
    let boundary = oracle_image.snapshot().len() as u64;
    apply_stmt(&oracle, &Stmt::Insert { id: 200, salt: 1 });

    let mem = MemBackend::new();
    let image = mem.share();
    let faulty = FaultFile::new(
        Box::new(mem),
        FaultPlan {
            crash_after_bytes: Some(boundary + HEADER_LEN as u64 + 3),
            ..FaultPlan::default()
        },
    );
    let db = HybridDatabase::new();
    db.set_merge_config(MergeConfig::disabled());
    db.attach_wal(WalWriter::new(Box::new(faulty), SyncPolicy::Always));
    db.create_single(schema("t"), StoreKind::Column).unwrap();
    db.bulk_load("t", (0..96).map(|i| row(i, i))).unwrap();
    let expected = probe(&db, "t");

    let dead = db.execute(&Query::Insert(InsertQuery {
        table: "t".into(),
        rows: vec![row(200, 1)],
    }));
    assert!(
        matches!(dead, Err(Error::Io(_))),
        "append past media death must fail the statement: {dead:?}"
    );

    let bytes = image.snapshot();
    let (rec, report) = HybridDatabase::recover_bytes(&bytes);
    assert!(report.torn_tail.is_some());
    assert_eq!(report.recovered_len, boundary);
    assert_eq!(probe(&rec, "t"), expected);
}

/// File-backed round trip through [`HybridDatabase::open`]: recovery after
/// a torn tail truncates the file itself and the reopened database resumes
/// appending where the committed prefix ended.
#[test]
fn file_recovery_truncates_torn_tail_and_resumes_appends() {
    let dir = std::env::temp_dir().join(format!("hsd_wal_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.wal");
    let _ = std::fs::remove_file(&path);

    let (db, image) = wal_db();
    let expected = {
        let db = db;
        apply_stmt(&db, &Stmt::Insert { id: 300, salt: 9 });
        probe(&db, "t")
    };
    let mut bytes = image.snapshot();
    let committed = bytes.len();
    bytes.extend_from_slice(&[0xAB; 9]); // torn garbage past the last frame
    std::fs::write(&path, &bytes).unwrap();

    let (rec, report) = HybridDatabase::recover(&path).unwrap();
    assert!(report.torn_tail.is_some());
    assert_eq!(report.recovered_len, committed as u64);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), committed as u64);
    assert_eq!(probe(&rec, "t"), expected);

    // The reopened database keeps logging: one more statement, reopen
    // again, and the new record is there.
    apply_stmt(&rec, &Stmt::Insert { id: 301, salt: 2 });
    let after = probe(&rec, "t");
    drop(rec);
    let (rec2, report2) = HybridDatabase::recover(&path).unwrap();
    assert!(report2.is_clean(), "{report2:?}");
    assert_eq!(probe(&rec2, "t"), after);
    let _ = std::fs::remove_file(&path);
}

/// Horizontal split of the crash-test table, cold partition on the given
/// tier.
fn split_at_48(cold_tier: Tier) -> TablePlacement {
    TablePlacement::Partitioned(PartitionSpec {
        horizontal: Some(HorizontalSpec {
            split_column: 0,
            split_value: Value::BigInt(48),
        }),
        vertical: None,
        cold_tier,
    })
}

fn cold_tier_of(db: &HybridDatabase, table: &str) -> Tier {
    match &db.catalog().entry_by_name(table).unwrap().placement {
        TablePlacement::Partitioned(spec) => spec.cold_tier,
        other => panic!("expected partitioned placement, got {other:?}"),
    }
}

/// Byte-level sweep across a demotion record: every cut strictly inside the
/// `Demote` frame recovers the pre-demotion (memory-resident) placement and
/// the full table contents; the complete image replays the demotion and
/// comes back with the cold partition disk-resident.
#[test]
fn cut_inside_demotion_record_recovers_pre_demotion_state() {
    let (db, image) = wal_db();
    mover::move_table(&db, "t", &split_at_48(Tier::Memory)).unwrap();
    let expected = probe(&db, "t");
    let boundary = image.snapshot().len();
    assert!(mover::demote_cold(&db, "t").unwrap() > 0);
    let full = image.snapshot();
    assert!(full.len() > boundary, "demotion must append a WAL record");

    for cut in boundary..full.len() {
        let (rec, report) = HybridDatabase::recover_bytes(&full[..cut]);
        assert_eq!(report.recovered_len, boundary as u64, "cut {cut}");
        assert_eq!(report.torn_tail.is_some(), cut != boundary, "cut {cut}");
        assert!(
            report.degraded.is_empty(),
            "cut {cut}: {:?}",
            report.degraded
        );
        assert_eq!(cold_tier_of(&rec, "t"), Tier::Memory, "cut {cut}");
        assert_eq!(probe(&rec, "t"), expected, "cut {cut}");
    }

    let (rec, report) = HybridDatabase::recover_bytes(&full);
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(cold_tier_of(&rec, "t"), Tier::Disk);
    assert_eq!(probe(&rec, "t"), expected);
}

/// Damaged checkpoint images: a torn or bit-flipped newest checkpoint must
/// fall back to the previous image (paying a longer WAL replay), and with
/// every image damaged recovery degrades to full-log replay — in all cases
/// reproducing the live database exactly. The newer image holds a
/// disk-tier placement, so restore also exercises segment re-publication.
#[test]
fn damaged_checkpoints_fall_back_to_previous_image_then_full_replay() {
    let dir = std::env::temp_dir().join(format!("hsd_cp_damage_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = || DurabilityConfig {
        sync: SyncPolicy::Always,
        retry: RetryPolicy::default(),
    };
    let (db, _) = HybridDatabase::open_dir(&dir, cfg()).unwrap();
    db.set_merge_config(MergeConfig::disabled());
    db.create_single(schema("t"), StoreKind::Column).unwrap();
    db.bulk_load("t", (0..96).map(|i| row(i, i))).unwrap();
    for id in 100..120 {
        apply_stmt(&db, &Stmt::Insert { id, salt: id });
    }
    let cp1 = db.checkpoint().unwrap();
    // Demote the cold partition between the two checkpoints so the newer
    // image captures a disk-tier placement.
    mover::move_table(&db, "t", &split_at_48(Tier::Disk)).unwrap();
    for id in 120..140 {
        apply_stmt(&db, &Stmt::Insert { id, salt: id });
    }
    let cp2 = db.checkpoint().unwrap();
    for id in 140..150 {
        apply_stmt(&db, &Stmt::Insert { id, salt: id });
    }
    db.sync_wal().unwrap();
    let expected = probe(&db, "t");
    drop(db);

    let newest = dir
        .join("checkpoints")
        .join(format!("checkpoint_{:06}", cp2.seq));
    let older = dir
        .join("checkpoints")
        .join(format!("checkpoint_{:06}", cp1.seq));
    let pristine_newest = std::fs::read(&newest).unwrap();
    let pristine_older = std::fs::read(&older).unwrap();

    // Clean baseline: the newest image restores and only the suffix
    // written after it replays.
    let clean_replayed = {
        let (rec, report) = HybridDatabase::open_dir(&dir, cfg()).unwrap();
        assert_eq!(report.checkpoint_seq, Some(cp2.seq));
        assert_eq!(report.checkpoints_skipped, 0);
        assert_eq!(cold_tier_of(&rec, "t"), Tier::Disk);
        assert_eq!(probe(&rec, "t"), expected);
        report.records_replayed
    };

    // Torn (several truncation lengths) and bit-flipped newest image:
    // recovery skips it, restores the previous checkpoint, and pays a
    // longer replay — yet lands on the same state.
    let mut flipped = pristine_newest.clone();
    flipped[pristine_newest.len() / 3] ^= 0x40;
    let damaged = [
        pristine_newest[..0].to_vec(),
        pristine_newest[..7].to_vec(),
        pristine_newest[..pristine_newest.len() / 2].to_vec(),
        pristine_newest[..pristine_newest.len() - 1].to_vec(),
        flipped,
    ];
    for bytes in &damaged {
        std::fs::write(&newest, bytes).unwrap();
        let (rec, report) = HybridDatabase::open_dir(&dir, cfg()).unwrap();
        assert_eq!(report.checkpoint_seq, Some(cp1.seq), "len {}", bytes.len());
        assert_eq!(report.checkpoints_skipped, 1, "len {}", bytes.len());
        assert!(
            report.records_replayed > clean_replayed,
            "fallback must replay a longer suffix ({} vs {})",
            report.records_replayed,
            clean_replayed
        );
        assert_eq!(cold_tier_of(&rec, "t"), Tier::Disk);
        assert_eq!(probe(&rec, "t"), expected, "len {}", bytes.len());
    }

    // Both images damaged: full-log replay from byte zero.
    std::fs::write(&newest, &pristine_newest[..pristine_newest.len() / 2]).unwrap();
    std::fs::write(&older, &pristine_older[..pristine_older.len() / 2]).unwrap();
    let (rec, report) = HybridDatabase::open_dir(&dir, cfg()).unwrap();
    assert_eq!(report.checkpoint_seq, None);
    assert_eq!(report.checkpoints_skipped, 2);
    assert_eq!(report.checkpoint_wal_len, 0);
    assert!(report.records_replayed > clean_replayed);
    assert_eq!(cold_tier_of(&rec, "t"), Tier::Disk);
    assert_eq!(probe(&rec, "t"), expected);
    drop(rec);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Statements that ranged over unbounded predicates replay too — guard
/// against the codec quietly narrowing half-open ranges.
#[test]
fn half_open_range_updates_replay_exactly() {
    let (db, image) = wal_db();
    db.execute(&Query::Update(UpdateQuery {
        table: "t".into(),
        sets: vec![(1, Value::Double(-1.0))],
        filter: vec![ColRange::range(
            0,
            Bound::Unbounded,
            Bound::Excluded(Value::BigInt(10)),
        )],
    }))
    .unwrap();
    let (rec, report) = HybridDatabase::recover_bytes(&image.snapshot());
    assert!(report.is_clean());
    assert_eq!(probe(&rec, "t"), probe(&db, "t"));
}
