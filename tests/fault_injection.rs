//! Crash-consistency invariant for the WAL + recovery subsystem: for every
//! injected crash offset, recovering from the byte prefix of the log must
//! reconstruct exactly the committed statement prefix — torn tails are
//! truncated, never replayed; interior corruption quarantines only the
//! affected table; transient I/O faults are absorbed by the writer's retry
//! loop without losing a record.
//!
//! The reference is the interpreter: the generated cases record its state
//! at every statement boundary and recover cuts of the log there
//! ([`common::case::run`]); the tests below drive the fault paths a
//! generated stream cannot reach and compare with it as well.

mod common;

use std::ops::Bound;

use common::case::{generate, reshape, run, Case, Durability, Step};
use common::{assert_state, kv_rows, kv_schema, Model};
use hybrid_store_advisor::prelude::*;
use hybrid_store_advisor::storage::wal::HEADER_LEN;
use hybrid_store_advisor::storage::{
    scan_frames, FaultFile, FaultPlan, MemBackend, RetryPolicy, WalBackend,
};
use hybrid_store_advisor::types::Error;

/// Generated cases per test.
const CASES: u64 = 12;

fn wal_case(seed: u64) -> Case {
    Case {
        durability: Durability::Wal,
        ..generate(seed)
    }
}

#[test]
fn recovery_equals_committed_prefix_at_every_crash_point() {
    for seed in 4_000..4_000 + CASES {
        assert!(run(&wal_case(seed)).recoveries > 0);
    }
}

/// A demotion record mid-log: the cuts inside its frame recover the
/// memory-resident placement, the cut after it the demoted one.
#[test]
fn cut_inside_demotion_record_recovers_pre_demotion_state() {
    const SPLIT_IN_MEMORY: usize = 2;
    for seed in 5_000..5_000 + CASES {
        let mut case = reshape(wal_case(seed), 0, SPLIT_IN_MEMORY);
        // Before any step that can change the placement, so the table is
        // still split in memory and the demotion logs a record.
        let moves = |s: &Step| matches!(s, Step::Move { .. } | Step::Demote(_));
        let first = case.steps.iter().position(moves);
        let at = seed as usize % (first.unwrap_or(case.steps.len()) + 1);
        case.steps.insert(at, Step::Demote("t".into()));
        let cut = run(&case).cuts_in_demote;
        assert!(cut > 0, "seed {seed}: no cut inside the demotion record");
    }
}

/// Statements that ranged over unbounded predicates replay too — guard
/// against the codec quietly narrowing half-open ranges.
#[test]
fn half_open_range_updates_replay_exactly() {
    for seed in 6_000..6_000 + CASES {
        let mut case = wal_case(seed);
        case.steps.push(Step::Run(Query::Update(UpdateQuery {
            table: "t".into(),
            sets: vec![(1, Value::Int(-1))],
            filter: vec![ColRange::range(
                0,
                Bound::Unbounded,
                Bound::Excluded(Value::BigInt(10)),
            )],
        })));
        run(&case);
    }
}

/// The rows of `ids`, keyfigure `id / 8`.
fn rows(ids: std::ops::Range<i64>) -> Vec<Vec<Value>> {
    kv_rows(ids, |id| id as f64 * 0.125)
}

fn insert(table: &str, id: i64) -> Query {
    Query::Insert(InsertQuery {
        table: table.into(),
        rows: rows(id..id + 1),
    })
}

/// A database logging to `wal` with table `t` (a column store) holding
/// `n` rows, and the model of it.
fn logged_db(wal: WalWriter, n: i64) -> (HybridDatabase, Model) {
    let db = HybridDatabase::new();
    db.set_merge_config(MergeConfig::disabled());
    db.attach_wal(wal);
    db.create_single(kv_schema("t"), StoreKind::Column).unwrap();
    let load = rows(0..n);
    db.bulk_load("t", load.clone()).unwrap();
    let mut model = Model::default();
    model.create(kv_schema("t"), load);
    (db, model)
}

fn mem_wal(backend: impl WalBackend + 'static) -> WalWriter {
    WalWriter::new(Box::new(backend), SyncPolicy::Always)
}

/// Every truncation length of a small log, from 0 to the full image,
/// recovers the longest committed statement prefix. The create record and
/// the load are separate frames, and the sweep cuts between them too.
#[test]
fn recovery_sweeps_every_byte_offset() {
    let image = MemBackend::new();
    let db = HybridDatabase::new();
    db.set_merge_config(MergeConfig::disabled());
    db.attach_wal(mem_wal(image.share()));
    db.create_single(kv_schema("t"), StoreKind::Column).unwrap();
    let mut model = Model::default();
    model.create(kv_schema("t"), vec![]);
    let mut boundaries = vec![(image.snapshot().len(), model.clone())];
    let load = rows(0..96);
    db.bulk_load("t", load.clone()).unwrap();
    model.create(kv_schema("t"), load);
    boundaries.push((image.snapshot().len(), model.clone()));
    let update = Query::Update(UpdateQuery {
        table: "t".into(),
        sets: vec![(1, Value::Double(4.0))],
        filter: vec![ColRange::eq(0, Value::BigInt(10))],
    });
    for q in [insert("t", 200), update, insert("t", 201)] {
        db.execute(&q).unwrap();
        model.execute(&q).unwrap();
        boundaries.push((image.snapshot().len(), model.clone()));
        if boundaries.len() == 4 {
            mover::merge_delta(&db, "t", MergePartition::Whole).unwrap();
            boundaries.push((image.snapshot().len(), model.clone()));
        }
    }
    let bytes = image.snapshot();
    for cut in 0..=bytes.len() {
        let (rec, report) = HybridDatabase::recover_bytes(&bytes[..cut]);
        let last = boundaries.iter().rev().find(|(b, _)| *b <= cut);
        let boundary = last.map_or(0, |(b, _)| *b);
        assert_eq!(report.recovered_len, boundary as u64, "cut {cut}");
        assert_eq!(report.torn_tail.is_some(), cut != boundary, "cut {cut}");
        assert!(report.degraded.is_empty());
        match last {
            None => assert!(rec.table_names().is_empty()),
            Some((_, model)) => assert_state(&rec, model, "t", &format!("cut {cut}")),
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
    let image = MemBackend::new();
    let db = HybridDatabase::new();
    db.set_merge_config(MergeConfig::disabled());
    db.attach_wal(mem_wal(image.share()));
    let mut model = Model::default();
    for (name, store) in [("a", StoreKind::Column), ("b", StoreKind::Row)] {
        db.create_single(kv_schema(name), store).unwrap();
        let load = rows(0..8);
        db.bulk_load(name, load.clone()).unwrap();
        model.create(kv_schema(name), load);
    }
    // One insert per table *before* the corruption victim, so `b` has a
    // committed prefix to serve, then the victim, then more traffic.
    for (t, id) in [("a", 100), ("b", 100), ("b", 101), ("a", 101), ("b", 102)] {
        db.execute(&insert(t, id)).unwrap();
        // `b` keeps what it had before its second insert.
        if (t, id) != ("b", 101) && (t, id) != ("b", 102) {
            model.execute(&insert(t, id)).unwrap();
        }
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
    for t in ["a", "b"] {
        assert_state(&rec, &model, t, "after the bit flip");
    }
    // `b` serves its committed prefix read-only; `a` stays writable.
    assert!(rec.is_degraded("b"));
    let write = rec.execute(&insert("b", 500));
    assert!(
        matches!(write, Err(Error::Degraded(_))),
        "write to quarantined table must fail: {write:?}"
    );
    assert!(!rec.is_degraded("a"));
    rec.execute(&insert("a", 500)).unwrap();
    // Operator override: acknowledging the damage restores writability.
    assert!(rec.clear_degraded("b"));
    rec.execute(&insert("b", 500)).unwrap();
}

/// Transient `EINTR`-style append faults are retried by the writer and the
/// log stays byte-identical to a fault-free run: recovery reproduces the
/// interpreter's state and the retries are visible in the stats.
#[test]
fn transient_write_faults_are_retried_without_losing_records() {
    let image = MemBackend::new();
    let faulty = FaultFile::new(
        Box::new(image.share()),
        FaultPlan {
            transient_failures: 3,
            short_write_cap: Some(11),
            ..FaultPlan::default()
        },
    );
    let wal = WalWriter::with_retry(Box::new(faulty), SyncPolicy::Always, RetryPolicy::default());
    let (db, mut model) = logged_db(wal, 32);
    for id in 100..110 {
        db.execute(&insert("t", id)).unwrap();
        model.execute(&insert("t", id)).unwrap();
    }
    let stats = db.wal_stats().unwrap();
    assert!(stats.retries >= 3, "retries: {}", stats.retries);
    assert!(stats.records >= 12);
    let (rec, report) = HybridDatabase::recover_bytes(&image.snapshot());
    assert!(report.is_clean(), "{report:?}");
    assert_state(&rec, &model, "t", "after retried appends");
}

/// Simulated media death mid-record: the failed statement surfaces an I/O
/// error to the caller (it never committed) and recovery truncates the torn
/// tail back to the last durable statement.
#[test]
fn media_death_mid_record_loses_only_the_uncommitted_statement() {
    // First, measure the clean log so the crash can be planted mid-frame.
    let clean = MemBackend::new();
    drop(logged_db(mem_wal(clean.share()), 96));
    let boundary = clean.snapshot().len() as u64;

    let image = MemBackend::new();
    let faulty = FaultFile::new(
        Box::new(image.share()),
        FaultPlan {
            crash_after_bytes: Some(boundary + HEADER_LEN as u64 + 3),
            ..FaultPlan::default()
        },
    );
    let (db, model) = logged_db(mem_wal(faulty), 96);
    let dead = db.execute(&insert("t", 200));
    assert!(
        matches!(dead, Err(Error::Io(_))),
        "append past media death must fail the statement: {dead:?}"
    );
    let (rec, report) = HybridDatabase::recover_bytes(&image.snapshot());
    assert!(report.torn_tail.is_some());
    assert_eq!(report.recovered_len, boundary);
    assert_state(&rec, &model, "t", "after media death");
}

/// File-backed round trip through [`HybridDatabase::open`]: recovery after
/// a torn tail truncates the file itself and the reopened database resumes
/// appending where the committed prefix ended.
#[test]
fn file_recovery_truncates_torn_tail_and_resumes_appends() {
    let dir = std::env::temp_dir().join(format!("hsd_wal_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.wal");
    let image = MemBackend::new();
    let (db, mut model) = logged_db(mem_wal(image.share()), 96);
    db.execute(&insert("t", 300)).unwrap();
    model.execute(&insert("t", 300)).unwrap();
    let mut bytes = image.snapshot();
    let committed = bytes.len();
    bytes.extend_from_slice(&[0xAB; 9]); // torn garbage past the last frame
    std::fs::write(&path, &bytes).unwrap();

    let (rec, report) = HybridDatabase::recover(&path).unwrap();
    assert!(report.torn_tail.is_some());
    assert_eq!(report.recovered_len, committed as u64);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), committed as u64);
    assert_state(&rec, &model, "t", "after truncation");
    // The reopened database keeps logging: one more statement, reopen
    // again, and the new record is there.
    rec.execute(&insert("t", 301)).unwrap();
    model.execute(&insert("t", 301)).unwrap();
    drop(rec);
    let (rec2, report2) = HybridDatabase::recover(&path).unwrap();
    assert!(report2.is_clean(), "{report2:?}");
    assert_state(&rec2, &model, "t", "after the second reopen");
    let _ = std::fs::remove_dir_all(&dir);
}

fn cold_tier_of(db: &HybridDatabase, table: &str) -> Tier {
    match &db.catalog().entry_by_name(table).unwrap().placement {
        TablePlacement::Partitioned(spec) => spec.cold_tier,
        other => panic!("expected partitioned placement, got {other:?}"),
    }
}

/// Damaged checkpoint images: a torn or bit-flipped newest checkpoint must
/// fall back to the previous image (paying a longer WAL replay), and with
/// every image damaged recovery degrades to full-log replay — in all cases
/// landing on the interpreter's state. The newer image holds a disk-tier
/// placement, so restore also exercises segment re-publication.
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
    db.create_single(kv_schema("t"), StoreKind::Column).unwrap();
    let load = rows(0..96);
    db.bulk_load("t", load.clone()).unwrap();
    let mut model = Model::default();
    model.create(kv_schema("t"), load);
    let mut inserts = |ids: std::ops::Range<i64>| {
        for id in ids {
            db.execute(&insert("t", id)).unwrap();
            model.execute(&insert("t", id)).unwrap();
        }
    };
    inserts(100..120);
    let cp1 = db.checkpoint().unwrap();
    // Demote the cold partition between the two checkpoints so the newer
    // image captures a disk-tier placement.
    let split = TablePlacement::Partitioned(PartitionSpec {
        horizontal: Some(HorizontalSpec {
            split_column: 0,
            split_value: Value::BigInt(48),
        }),
        vertical: None,
        cold_tier: Tier::Disk,
    });
    mover::move_table(&db, "t", &split).unwrap();
    inserts(120..140);
    let cp2 = db.checkpoint().unwrap();
    inserts(140..150);
    db.sync_wal().unwrap();
    drop(db);

    let image = |seq: u64| dir.join("checkpoints").join(format!("checkpoint_{seq:06}"));
    let (newest, older) = (image(cp2.seq), image(cp1.seq));
    let pristine_newest = std::fs::read(&newest).unwrap();
    let pristine_older = std::fs::read(&older).unwrap();
    let reopen = |ctx: &str| {
        let (rec, report) = HybridDatabase::open_dir(&dir, cfg()).unwrap();
        assert_eq!(cold_tier_of(&rec, "t"), Tier::Disk, "{ctx}");
        assert_state(&rec, &model, "t", ctx);
        report
    };

    // Clean baseline: the newest image restores and only the suffix
    // written after it replays.
    let report = reopen("clean");
    assert_eq!(report.checkpoint_seq, Some(cp2.seq));
    assert_eq!(report.checkpoints_skipped, 0);
    let clean_replayed = report.records_replayed;

    // Torn (several truncation lengths) and bit-flipped newest image:
    // recovery skips it, restores the previous checkpoint, and pays a
    // longer replay — yet lands on the same state.
    let mut flipped = pristine_newest.clone();
    flipped[pristine_newest.len() / 3] ^= 0x40;
    let (p, n) = (&pristine_newest, pristine_newest.len());
    for bytes in [&p[..0], &p[..7], &p[..n / 2], &p[..n - 1], &flipped[..]] {
        std::fs::write(&newest, bytes).unwrap();
        let report = reopen(&format!("newest image cut to {}", bytes.len()));
        assert_eq!(report.checkpoint_seq, Some(cp1.seq));
        assert_eq!(report.checkpoints_skipped, 1);
        assert!(
            report.records_replayed > clean_replayed,
            "fallback must replay a longer suffix ({} vs {clean_replayed})",
            report.records_replayed,
        );
    }

    // Both images damaged: full-log replay from byte zero.
    std::fs::write(&newest, &pristine_newest[..n / 2]).unwrap();
    std::fs::write(&older, &pristine_older[..pristine_older.len() / 2]).unwrap();
    let report = reopen("both images damaged");
    assert_eq!(report.checkpoint_seq, None);
    assert_eq!(report.checkpoints_skipped, 2);
    assert_eq!(report.checkpoint_wal_len, 0);
    assert!(report.records_replayed > clean_replayed);
    let _ = std::fs::remove_dir_all(&dir);
}
