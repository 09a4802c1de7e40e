//! Segment checkpoints: bounded-replay recovery for directory-backed
//! databases.
//!
//! A WAL alone recovers by replaying *every* record since the database was
//! created — recovery time grows with the log, not with the data. A
//! checkpoint caps that: it is a consistent materialization of every
//! table's logical contents plus the WAL offset it corresponds to, so
//! recovery restores the checkpoint and replays only the log **suffix**
//! written after it.
//!
//! # Container format
//!
//! A checkpoint file reuses the WAL's checksummed frame codec
//! ([`hsd_storage::wal::encode_frame`]) — every frame is individually
//! CRC-guarded, and the torn-tail/corruption classification recovery
//! already trusts for the log applies verbatim to checkpoints:
//!
//! ```text
//! frame 0            header   (tag 0)   JSON {kind:"header", version,
//!                                             wal_len, tables}
//! frames 1..=2k      per table, in sorted name order:
//!   meta             (tag = table_tag(name))  JSON {kind:"table", name,
//!                                             schema, placement, indexed,
//!                                             rows}
//!   fragment         (tag = table_tag(name))  binary: the table's rows
//!                                             packed in the segment format
//!                                             (see [`hsd_storage::segment`])
//! frame 2k+1         end      (tag 0)   JSON {kind:"end", tables}
//! ```
//!
//! The end frame doubles as a commit marker: a file without a valid end
//! frame (torn mid-write, interior corruption, wrong counts) is **invalid
//! as a whole** and recovery falls back to the next-newest checkpoint, or
//! to full-log replay when none is valid. Checkpoint files are immutable
//! once published (temp file + fsync + rename, like segments), so the only
//! way one can be torn is an interrupted publish — which the rename makes
//! invisible — or media damage, which the CRCs catch.
//!
//! # What is (and is not) captured
//!
//! A checkpoint stores each table's **logical rows** (packed as one
//! column-store segment) plus its catalog placement and secondary-index
//! columns (`indexed`). Packing is a bulk build: the table's snapshot
//! ([`TableData::snapshot`]; a disk-resident cold partition is decoded
//! from its segment) feeds
//! [`ColumnTable::build`], which sorts each column's distinct values into
//! the dictionary and packs the codes once — the segment bytes are those
//! inserts plus a delta merge would give, without either.
//!
//! Restore decodes each fragment into a column table and rebuilds the
//! recorded physical layout through the same bulk path the advisor's moves
//! use ([`crate::mover::move_table`] → [`TableData::build`]): hot/cold
//! splits are re-split, vertical fragments re-derived, the recorded
//! secondary indexes re-created on the row-store parts, disk-tier cold
//! partitions re-demoted (re-creating their segment files — segments stay
//! a derived cache, never a recovery dependency). A column → row move
//! fills the row arena one decoded block per column at a time and adopts
//! the decoded key index. Physical micro-state that is *not* logically
//! observable — un-merged dictionary tails, in-flight incremental merges —
//! is restored compacted, exactly as full replay restores tables it has no
//! merge records for.
//!
//! # Consistency
//!
//! [`HybridDatabase::checkpoint`] takes every table's write latch (in
//! sorted name order, the global latch order) before reading the WAL
//! length, so the captured `wal_len` is a frontier: every per-table record
//! at an offset below it is reflected in the snapshot, every record at or
//! past it is not and replays from the suffix. The catalog entries are
//! read before the latches (the lock order forbids the reverse), so an
//! index created in between would be missing from the image although its
//! record lies before the frontier; [`encode_checkpoint`] re-reads the
//! indexes after releasing the latches and encodes again when they moved.
//! Concurrent DDL
//! ([`HybridDatabase::create_table`] logs without holding a table latch)
//! is not serialized against a running checkpoint — run checkpoints from a
//! quiesced maintenance window, not racing schema changes (see
//! `docs/OPERATIONS.md`).

use std::path::{Path, PathBuf};

use hsd_catalog::{placement_from_json, placement_to_json, TableEntry, TablePlacement};
use hsd_storage::segment::publish_atomic;
use hsd_storage::wal::{self, encode_frame};
use hsd_storage::{decode_segment, encode_segment, ColumnTable, SegmentStore, StoreKind, Table};
use hsd_types::{Error, Json, Result};

use crate::database::HybridDatabase;
use crate::durability::{
    replay_into, schema_from_json, schema_to_json, table_tag, DurabilityConfig, RecoveryReport,
};
use crate::mover;
use crate::partition::TableData;

/// Checkpoint container format version (the `version` field of the header
/// frame). Bumped on incompatible changes; restore rejects unknown
/// versions, falling back to older checkpoints or full replay. Version 3
/// added the per-table `indexed` list.
pub const CHECKPOINT_VERSION: i64 = 3;

/// How many published checkpoints [`HybridDatabase::checkpoint`] retains.
/// The newest is the fast-recovery path; the second-newest is the fallback
/// when the newest turns out damaged at recovery time. Older files are
/// deleted after every successful publish.
pub const CHECKPOINT_RETAIN: usize = 2;

/// What one [`HybridDatabase::checkpoint`] call produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Sequence number of the published checkpoint (monotonic per
    /// directory).
    pub seq: u64,
    /// Final path of the checkpoint file.
    pub path: PathBuf,
    /// WAL frontier the checkpoint corresponds to: recovery from this
    /// checkpoint replays the log from this byte offset.
    pub wal_len: u64,
    /// Tables captured.
    pub tables: usize,
    /// Size of the checkpoint file in bytes.
    pub bytes: u64,
}

fn frame_json(kind: &str, payload: &[u8]) -> Result<Json> {
    let s = std::str::from_utf8(payload)
        .map_err(|_| Error::Io(format!("checkpoint {kind} frame is not utf-8")))?;
    Json::parse(s).map_err(|e| Error::Io(format!("checkpoint {kind} frame: {e}")))
}

/// Serialize a consistent snapshot of `db` into checkpoint bytes. Returns
/// the image and the WAL frontier it captures.
///
/// Fails if any table is quarantined ([`Error::Degraded`]): a degraded
/// table's WAL suffix is part of the evidence an operator needs, and a
/// checkpoint would retire it.
pub fn encode_checkpoint(db: &HybridDatabase) -> Result<(Vec<u8>, u64)> {
    let names = db.table_names();
    for name in &names {
        db.check_writable(name)?;
    }
    loop {
        let (tables, image, wal_len) = encode_image(db, &names)?;
        // `create_index` lists an index in the catalog before it appends the
        // index's record under the table latch, so an index whose record
        // lies before the image's frontier is listed by now. If the entries
        // the image was encoded from missed one, encode again (indexes are
        // never dropped, so this ends).
        let catalog = db.catalog();
        let mut missed = false;
        for e in &tables {
            missed |= catalog.entry_by_name(&e.schema.name)?.indexed_columns != e.indexed_columns;
        }
        if !missed {
            return Ok((image, wal_len));
        }
    }
}

/// One checkpoint image of the `names` tables, with the catalog entries it
/// was encoded from.
fn encode_image(db: &HybridDatabase, names: &[String]) -> Result<(Vec<TableEntry>, Vec<u8>, u64)> {
    // Catalog entries (placement, indexes) are read before latching
    // (latch-then-catalog is forbidden by the lock order). A table move that
    // commits its catalog update between this read and the latch
    // acquisition below leaves the checkpointed placement one move behind —
    // data is unaffected (the snapshot rows are authoritative) and the next
    // checkpoint catches up. An index created in that window is caught by
    // [`encode_checkpoint`]'s re-read.
    let mut tables = Vec::with_capacity(names.len());
    {
        let catalog = db.catalog();
        for name in names {
            tables.push(catalog.entry_by_name(name)?.clone());
        }
    }
    // Sorted-name latch order is the global multi-latch order. With every
    // latch held, no per-table mutation can append to the WAL (appends
    // happen under the owning table's latch), so `wal_len` is a frontier.
    let shards = tables
        .iter()
        .map(|e| db.shard(&e.schema.name))
        .collect::<Result<Vec<_>>>()?;
    let guards: Vec<_> = shards.iter().map(|s| s.latch()).collect();
    let wal_len = db.wal_len();

    let mut out = Vec::new();
    let header = Json::obj([
        ("kind", Json::Str("header".into())),
        ("version", Json::Int(CHECKPOINT_VERSION)),
        ("wal_len", Json::Int(wal_len as i64)),
        ("tables", Json::Int(tables.len() as i64)),
    ]);
    out.extend_from_slice(&encode_frame(0, header.to_string().as_bytes()));

    let store = db.segment_store();
    for (entry, guard) in tables.iter().zip(&guards) {
        let name = &entry.schema.name;
        // Pack the logical rows as one column-store segment: dictionary
        // compression plus bit-packing, the same bytes-on-disk layout as
        // demoted cold partitions.
        let ct = ColumnTable::build(entry.schema.clone(), guard.snapshot(store))?;
        let indexed = entry.indexed_columns.iter().map(|&c| Json::Int(c as i64));
        let meta = Json::obj([
            ("kind", Json::Str("table".into())),
            ("name", Json::Str(name.clone())),
            ("schema", schema_to_json(&entry.schema)),
            ("placement", placement_to_json(&entry.placement)),
            ("indexed", Json::Arr(indexed.collect())),
            ("rows", Json::Int(ct.row_count() as i64)),
        ]);
        let tag = table_tag(name);
        out.extend_from_slice(&encode_frame(tag, meta.to_string().as_bytes()));
        out.extend_from_slice(&encode_frame(tag, &encode_segment(&ct)));
    }

    let end = Json::obj([
        ("kind", Json::Str("end".into())),
        ("tables", Json::Int(tables.len() as i64)),
    ]);
    out.extend_from_slice(&encode_frame(0, end.to_string().as_bytes()));
    Ok((tables, out, wal_len))
}

/// Restore a checkpoint image into `db` (which must be freshly constructed
/// — restore creates every table). Returns the WAL frontier recorded in
/// the header: the offset log replay resumes from.
///
/// Validation is all-or-nothing: any torn frame, CRC failure, version
/// mismatch, count mismatch, or missing end frame rejects the whole image
/// (the caller falls back to an older checkpoint or full replay). `db` may
/// be partially populated after an error and must be discarded.
pub fn restore_checkpoint(db: &HybridDatabase, bytes: &[u8]) -> Result<u64> {
    let invalid = |what: String| Error::Io(format!("invalid checkpoint: {what}"));
    let scan = wal::scan_frames(bytes);
    if let Some(off) = scan.torn_tail {
        return Err(invalid(format!("torn frame at byte {off}")));
    }
    if let Some(c) = scan.corrupt.first() {
        return Err(invalid(format!("corrupt frame at byte {}", c.offset)));
    }
    let mut frames = scan.frames.iter();
    let header = frames
        .next()
        .ok_or_else(|| invalid("empty file".into()))
        .and_then(|f| frame_json("header", &f.payload))?;
    let kind = header
        .get("kind")
        .and_then(Json::as_str)
        .map_err(|e| invalid(e.to_string()))?;
    if kind != "header" {
        return Err(invalid(format!("first frame is `{kind}`, not a header")));
    }
    let version = header
        .get("version")
        .and_then(Json::as_i64)
        .map_err(|e| invalid(e.to_string()))?;
    if version != CHECKPOINT_VERSION {
        return Err(invalid(format!("unsupported version {version}")));
    }
    let wal_len = header
        .get("wal_len")
        .and_then(Json::as_i64)
        .map_err(|e| invalid(e.to_string()))? as u64;
    let expected = header
        .get("tables")
        .and_then(Json::as_usize)
        .map_err(|e| invalid(e.to_string()))?;

    let mut restored = 0usize;
    loop {
        let Some(meta_frame) = frames.next() else {
            return Err(invalid("missing end frame".into()));
        };
        let meta = frame_json("table", &meta_frame.payload)?;
        let kind = meta
            .get("kind")
            .and_then(Json::as_str)
            .map_err(|e| invalid(e.to_string()))?;
        if kind == "end" {
            let count = meta
                .get("tables")
                .and_then(Json::as_usize)
                .map_err(|e| invalid(e.to_string()))?;
            if count != restored || restored != expected {
                return Err(invalid(format!(
                    "table count mismatch: header {expected}, end {count}, found {restored}"
                )));
            }
            if frames.next().is_some() {
                return Err(invalid("frames after the end frame".into()));
            }
            return Ok(wal_len);
        }
        if kind != "table" {
            return Err(invalid(format!("unexpected `{kind}` frame")));
        }
        let name = meta
            .get("name")
            .and_then(Json::as_str)
            .map_err(|e| invalid(e.to_string()))?
            .to_string();
        let schema = schema_from_json(meta.get("schema").map_err(|e| invalid(e.to_string()))?)
            .map_err(|e| invalid(e.to_string()))?;
        let placement =
            placement_from_json(meta.get("placement").map_err(|e| invalid(e.to_string()))?)
                .map_err(|e| invalid(e.to_string()))?;
        let indexed = meta
            .get("indexed")
            .and_then(Json::as_arr)
            .and_then(|cols| {
                cols.iter()
                    .map(Json::as_usize)
                    .collect::<std::result::Result<Vec<_>, _>>()
            })
            .map_err(|e| invalid(e.to_string()))?;
        let rows = meta
            .get("rows")
            .and_then(Json::as_usize)
            .map_err(|e| invalid(e.to_string()))?;
        let Some(frag_frame) = frames.next() else {
            return Err(invalid(format!("table {name}: missing fragment frame")));
        };

        db.create_table(schema, TablePlacement::Single(StoreKind::Column))?;
        let shard = db.shard(&name)?;
        let schema = db.catalog().entry_by_name(&name)?.schema.clone();
        let ct = decode_segment(schema, &frag_frame.payload)
            .map_err(|e| invalid(format!("table {name}: {e}")))?;
        if ct.row_count() != rows {
            return Err(invalid(format!(
                "table {name}: fragment holds {} rows, meta says {rows}",
                ct.row_count()
            )));
        }
        // Region-exact install of the decoded fragment, then rebuild the
        // recorded physical layout through the mover (re-splitting and
        // re-demoting exactly as the original layout change did).
        *shard.latch() = TableData::single(Table::Column(ct));
        // Listed in the catalog (a column store needs no index structure)
        // before the move below, which builds them on every row-store part.
        for &col in &indexed {
            db.create_index(&name, col)?;
        }
        if placement != TablePlacement::Single(StoreKind::Column) {
            mover::move_table(db, &name, &placement)?;
        }
        restored += 1;
    }
}

fn checkpoint_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("checkpoint_{seq:06}"))
}

/// List `(seq, path)` of well-named checkpoint files in `dir`, newest
/// first. Unparseable names (including `.tmp` leftovers) are ignored.
fn list_checkpoints(dir: &Path) -> Vec<(u64, PathBuf)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut found: Vec<(u64, PathBuf)> = entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let seq: u64 = name.strip_prefix("checkpoint_")?.parse().ok()?;
            Some((seq, e.path()))
        })
        .collect();
    found.sort_by_key(|&(seq, _)| std::cmp::Reverse(seq));
    found
}

/// The on-disk layout of a directory-backed database.
#[derive(Debug, Clone)]
pub(crate) struct DataDir {
    /// Root directory.
    pub root: PathBuf,
}

impl DataDir {
    pub(crate) fn wal_path(&self) -> PathBuf {
        self.root.join("wal.log")
    }
    pub(crate) fn segments_dir(&self) -> PathBuf {
        self.root.join("segments")
    }
    pub(crate) fn checkpoints_dir(&self) -> PathBuf {
        self.root.join("checkpoints")
    }
}

impl HybridDatabase {
    /// Open (or create) a directory-backed database:
    ///
    /// ```text
    /// <dir>/wal.log                      the write-ahead log
    /// <dir>/segments/<table>.cold.seg    demoted cold-partition segments
    /// <dir>/checkpoints/checkpoint_NNNNNN  bounded-replay checkpoints
    /// ```
    ///
    /// Recovery tries the newest checkpoint first and replays only the WAL
    /// suffix past its recorded frontier; an invalid (torn/corrupt)
    /// checkpoint falls back to the next-newest, and finally to full-log
    /// replay — strictly slower, never less correct. Segment files are
    /// re-derived, not trusted.
    ///
    /// # Example
    ///
    /// ```
    /// use hsd_engine::HybridDatabase;
    /// use hsd_engine::durability::DurabilityConfig;
    ///
    /// let dir = std::env::temp_dir().join(format!("hsd_doc_{}", std::process::id()));
    /// let (db, report) = HybridDatabase::open_dir(&dir, DurabilityConfig::default())?;
    /// assert!(report.is_clean());
    /// // ... create tables, load, mutate ...
    /// let cp = db.checkpoint()?;          // bound future recovery
    /// assert_eq!(cp.seq, 1);
    /// # drop(db);
    /// # std::fs::remove_dir_all(&dir).ok();
    /// # Ok::<(), hsd_types::Error>(())
    /// ```
    pub fn open_dir(
        dir: impl AsRef<Path>,
        cfg: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport)> {
        let layout = DataDir {
            root: dir.as_ref().to_path_buf(),
        };
        std::fs::create_dir_all(layout.checkpoints_dir())
            .map_err(|e| Error::Io(format!("create checkpoint dir: {e}")))?;
        let wal_bytes = match std::fs::read(layout.wal_path()) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(Error::Io(e.to_string())),
        };

        let fresh = || -> Result<HybridDatabase> {
            let mut db = HybridDatabase::new();
            db.set_segment_store(SegmentStore::dir(layout.segments_dir())?);
            Ok(db)
        };

        // Newest-valid checkpoint wins; every failure falls back.
        let mut restored: Option<(HybridDatabase, RecoveryReport)> = None;
        let mut skipped = 0usize;
        for (seq, path) in list_checkpoints(&layout.checkpoints_dir()) {
            let Ok(bytes) = std::fs::read(&path) else {
                skipped += 1;
                continue;
            };
            let db = fresh()?;
            match restore_checkpoint(&db, &bytes) {
                Ok(wal_len) => {
                    let mut report = replay_into(&db, &wal_bytes, wal_len);
                    report.checkpoint_seq = Some(seq);
                    report.checkpoint_wal_len = wal_len;
                    report.checkpoints_skipped = skipped;
                    restored = Some((db, report));
                    break;
                }
                Err(_) => skipped += 1,
            }
        }
        let (db, report) = match restored {
            Some(r) => r,
            None => {
                let db = fresh()?;
                let mut report = replay_into(&db, &wal_bytes, 0);
                report.checkpoints_skipped = skipped;
                (db, report)
            }
        };

        let backend = wal::FileBackend::open_truncated(layout.wal_path(), report.recovered_len)
            .map_err(|e| Error::Io(e.to_string()))?;
        db.attach_wal(wal::WalWriter::with_retry(
            Box::new(backend),
            cfg.sync,
            cfg.retry,
        ));
        db.set_data_dir(layout);
        Ok((db, report))
    }

    /// Write a checkpoint of the current state, bounding future recovery
    /// to the WAL suffix written after it. Retains the
    /// [`CHECKPOINT_RETAIN`] newest checkpoints, deleting older ones.
    ///
    /// Only available on directory-backed databases
    /// ([`HybridDatabase::open_dir`]).
    pub fn checkpoint(&self) -> Result<CheckpointReport> {
        let Some(layout) = self.data_dir() else {
            return Err(Error::InvalidOperation(
                "checkpointing requires a directory-backed database (open_dir)".into(),
            ));
        };
        // Make everything the snapshot will claim durable actually durable
        // before the checkpoint can retire it from replay.
        self.sync_wal()?;
        let (bytes, wal_len) = encode_checkpoint(self)?;

        let dir = layout.checkpoints_dir();
        let existing = list_checkpoints(&dir);
        let seq = existing.first().map_or(1, |(s, _)| s + 1);
        let path = checkpoint_path(&dir, seq);
        let tmp = dir.join(format!("checkpoint_{seq:06}.tmp"));
        publish_atomic(&tmp, &path, &bytes)?;
        for (_, old) in existing.iter().skip(CHECKPOINT_RETAIN - 1) {
            let _ = std::fs::remove_file(old);
        }
        Ok(CheckpointReport {
            seq,
            path,
            wal_len,
            tables: self.table_names().len(),
            bytes: bytes.len() as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsd_catalog::{HorizontalSpec, PartitionSpec, Tier};
    use hsd_query::{AggFunc, AggregateQuery, Query, UpdateQuery};
    use hsd_storage::ColRange;
    use hsd_types::{ColumnDef, ColumnType, TableSchema, Value};

    fn schema(name: &str) -> TableSchema {
        TableSchema::new(
            name,
            vec![
                ColumnDef::new("id", ColumnType::BigInt),
                ColumnDef::new("v", ColumnType::Double),
            ],
            vec![0],
        )
        .unwrap()
    }

    fn checksum(db: &HybridDatabase, table: &str) -> f64 {
        let out = db
            .execute(&Query::Aggregate(AggregateQuery::simple(
                table,
                AggFunc::Sum,
                1,
            )))
            .unwrap();
        out.aggregates().unwrap()[0].values[0]
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hsd_ckpt_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn populate(db: &HybridDatabase) {
        db.create_single(schema("t"), StoreKind::Column).unwrap();
        db.bulk_load(
            "t",
            (0..200).map(|i| vec![Value::BigInt(i), Value::Double(i as f64)]),
        )
        .unwrap();
        db.create_single(schema("u"), StoreKind::Row).unwrap();
        db.bulk_load(
            "u",
            (0..50).map(|i| vec![Value::BigInt(i), Value::Double(2.0 * i as f64)]),
        )
        .unwrap();
    }

    #[test]
    fn image_round_trips_all_layouts() {
        let db = HybridDatabase::new();
        populate(&db);
        // A partitioned, disk-tiered third table exercises the demotion
        // path through restore.
        db.create_table(
            schema("p"),
            TablePlacement::Partitioned(PartitionSpec {
                horizontal: Some(HorizontalSpec {
                    split_column: 0,
                    split_value: Value::BigInt(80),
                }),
                vertical: None,
                cold_tier: Tier::Disk,
            }),
        )
        .unwrap();
        db.bulk_load(
            "p",
            (0..100).map(|i| vec![Value::BigInt(i), Value::Double(3.0 * i as f64)]),
        )
        .unwrap();
        mover::demote_cold(&db, "p").unwrap();

        let (bytes, wal_len) = encode_checkpoint(&db).unwrap();
        assert_eq!(wal_len, 0, "no WAL attached");

        let back = HybridDatabase::new();
        let got = restore_checkpoint(&back, &bytes).unwrap();
        assert_eq!(got, 0);
        for t in ["t", "u", "p"] {
            assert_eq!(checksum(&back, t), checksum(&db, t), "table {t}");
        }
        assert_eq!(back.table_names(), db.table_names());
        assert!(back.disk_bytes("p").unwrap() > 0, "p re-demoted on restore");
    }

    #[test]
    fn any_torn_or_flipped_byte_invalidates_the_image() {
        let db = HybridDatabase::new();
        populate(&db);
        let (bytes, _) = encode_checkpoint(&db).unwrap();
        // Truncations: every cut in the last quarter must invalidate (a
        // valid end frame can never survive a cut).
        for cut in (bytes.len() * 3 / 4..bytes.len()).step_by(7) {
            let back = HybridDatabase::new();
            assert!(
                restore_checkpoint(&back, &bytes[..cut]).is_err(),
                "cut at {cut} must invalidate"
            );
        }
        // Bit flips: sampled across the whole image.
        for pos in (0..bytes.len()).step_by(97) {
            let mut damaged = bytes.clone();
            damaged[pos] ^= 1;
            let back = HybridDatabase::new();
            assert!(
                restore_checkpoint(&back, &damaged).is_err(),
                "flip at {pos} must invalidate"
            );
        }
    }

    #[test]
    fn checkpoint_requires_directory_backing() {
        let db = HybridDatabase::new();
        assert!(db.checkpoint().is_err());
    }

    #[test]
    fn dir_database_checkpoints_and_recovers_from_suffix() {
        let dir = temp_dir("suffix");
        let before;
        {
            let (db, report) = HybridDatabase::open_dir(&dir, DurabilityConfig::default()).unwrap();
            assert!(report.is_clean());
            assert_eq!(report.checkpoint_seq, None);
            populate(&db);
            let cp = db.checkpoint().unwrap();
            assert_eq!(cp.seq, 1);
            assert!(cp.wal_len > 0);
            assert_eq!(cp.tables, 2);
            // Post-checkpoint writes land in the suffix.
            db.execute(&Query::Update(UpdateQuery {
                table: "t".into(),
                sets: vec![(1, Value::Double(1_000_000.0))],
                filter: vec![ColRange::eq(0, Value::BigInt(7))],
            }))
            .unwrap();
            db.sync_wal().unwrap();
            before = checksum(&db, "t");
        }
        let (db, report) = HybridDatabase::open_dir(&dir, DurabilityConfig::default()).unwrap();
        assert_eq!(report.checkpoint_seq, Some(1));
        assert!(report.checkpoint_wal_len > 0);
        assert_eq!(
            report.records_replayed, 1,
            "only the post-checkpoint update replays"
        );
        assert_eq!(checksum(&db, "t"), before);
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_newest_checkpoint_falls_back_to_previous() {
        let dir = temp_dir("fallback");
        let before;
        {
            let (db, _) = HybridDatabase::open_dir(&dir, DurabilityConfig::default()).unwrap();
            populate(&db);
            db.checkpoint().unwrap();
            db.execute(&Query::Update(UpdateQuery {
                table: "t".into(),
                sets: vec![(1, Value::Double(500.5))],
                filter: vec![ColRange::eq(0, Value::BigInt(3))],
            }))
            .unwrap();
            let cp2 = db.checkpoint().unwrap();
            assert_eq!(cp2.seq, 2);
            db.sync_wal().unwrap();
            before = checksum(&db, "t");
            // Tear the newest checkpoint mid-file.
            let bytes = std::fs::read(&cp2.path).unwrap();
            std::fs::write(&cp2.path, &bytes[..bytes.len() / 2]).unwrap();
        }
        let (db, report) = HybridDatabase::open_dir(&dir, DurabilityConfig::default()).unwrap();
        assert_eq!(
            report.checkpoint_seq,
            Some(1),
            "torn newest falls back to previous"
        );
        assert_eq!(report.checkpoints_skipped, 1);
        assert!(
            report.records_replayed >= 1,
            "the fallback replays a longer suffix"
        );
        assert_eq!(checksum(&db, "t"), before);
        drop(db);

        // Destroy both checkpoints: full replay still recovers everything.
        for (_, p) in list_checkpoints(&dir.join("checkpoints")) {
            std::fs::write(&p, b"garbage").unwrap();
        }
        let (db, report) = HybridDatabase::open_dir(&dir, DurabilityConfig::default()).unwrap();
        assert_eq!(report.checkpoint_seq, None);
        assert_eq!(report.checkpoints_skipped, 2);
        assert_eq!(checksum(&db, "t"), before);
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Fragment frames embed segment bytes, so a checkpoint written before
    /// the segment format changed is an *unsupported version*, not a
    /// candidate for a legacy reader: it is skipped and the log replays in
    /// full (the WAL is never truncated at a checkpoint).
    #[test]
    fn older_checkpoint_version_falls_back_to_full_replay() {
        let dir = temp_dir("oldversion");
        let before;
        {
            let (db, _) = HybridDatabase::open_dir(&dir, DurabilityConfig::default()).unwrap();
            populate(&db);
            db.sync_wal().unwrap();
            before = checksum(&db, "t");
        }
        let v1 = [
            Json::obj([
                ("kind", Json::Str("header".into())),
                ("version", Json::Int(CHECKPOINT_VERSION - 1)),
                ("wal_len", Json::Int(0)),
                ("tables", Json::Int(0)),
            ]),
            Json::obj([("kind", Json::Str("end".into())), ("tables", Json::Int(0))]),
        ]
        .map(|frame| encode_frame(0, frame.to_string().as_bytes()))
        .concat();
        let err = restore_checkpoint(&HybridDatabase::new(), &v1).unwrap_err();
        let older = format!("unsupported version {}", CHECKPOINT_VERSION - 1);
        assert!(err.to_string().contains(&older), "{err}");

        std::fs::write(checkpoint_path(&dir.join("checkpoints"), 1), &v1).unwrap();
        let (db, report) = HybridDatabase::open_dir(&dir, DurabilityConfig::default()).unwrap();
        assert_eq!(report.checkpoint_seq, None);
        assert_eq!(report.checkpoints_skipped, 1);
        assert_eq!(checksum(&db, "t"), before);
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The catalog entry of `t` a restart must keep, and for each part that
    /// can hold column 3 (hot partition, then the base's table or row
    /// fragment) whether it is a row store indexed on it.
    fn entry_and_indexes(db: &HybridDatabase) -> (String, Vec<bool>) {
        use crate::partition::{Loc, Region};
        let e = db.catalog().entry_by_name("t").unwrap().clone();
        let entry = format!("{:?}", (&e.schema, &e.placement, &e.indexed_columns));
        let indexed = |(t, c): (&Table, usize)| matches!(t, Table::Row(rt) if rt.has_index(c));
        let built = db.with_table("t", |d| {
            let base = match &d.base {
                Region::Table(t) => Some((t, 3)),
                Region::Pair(p) => match p.loc(3) {
                    Loc::Row(i) => Some((p.row_fragment(), i)),
                    Loc::Col(_) => None,
                },
                Region::Disk(_) => None,
            };
            d.hot
                .iter()
                .map(|t| (t, 3))
                .chain(base)
                .map(indexed)
                .collect()
        });
        (entry, built.unwrap())
    }

    /// Every table shape, a disk-resident cold side included, with and
    /// without a secondary index, comes back from a checkpoint with the same
    /// catalog entry and the same built indexes — through `checkpoint()` and
    /// a reopen as through `encode_checkpoint` + `restore_checkpoint`.
    #[test]
    fn restart_keeps_catalog_entry_and_secondary_indexes() {
        use crate::executor::tests::{all_placements, rows, schema};
        let mut placements = all_placements();
        let TablePlacement::Partitioned(split) = placements[2].clone() else {
            panic!("the third placement is the hot/cold split");
        };
        let cold_tier = Tier::Disk;
        placements.push(TablePlacement::Partitioned(PartitionSpec {
            cold_tier,
            ..split
        }));
        let dir = temp_dir("indexes");
        for placement in placements {
            for indexed in [false, true] {
                let _ = std::fs::remove_dir_all(&dir);
                let (db, _) = HybridDatabase::open_dir(&dir, DurabilityConfig::default()).unwrap();
                db.create_single(schema(), StoreKind::Row).unwrap();
                db.bulk_load("t", rows(30)).unwrap();
                if indexed {
                    db.create_index("t", 3).unwrap();
                }
                mover::move_table(&db, "t", &placement).unwrap();
                let before = entry_and_indexes(&db);
                assert_eq!(
                    before.1.contains(&true),
                    indexed && placement != TablePlacement::Single(StoreKind::Column),
                    "{placement:?}: {before:?}"
                );

                let back = HybridDatabase::new();
                restore_checkpoint(&back, &encode_checkpoint(&db).unwrap().0).unwrap();
                assert_eq!(entry_and_indexes(&back), before, "restored image");

                db.checkpoint().unwrap();
                drop(db);
                let (db, report) =
                    HybridDatabase::open_dir(&dir, DurabilityConfig::default()).unwrap();
                assert_eq!(report.checkpoint_seq, Some(1));
                assert_eq!(report.records_replayed, 0);
                assert_eq!(entry_and_indexes(&db), before, "reopened {placement:?}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `create_index` racing `encode_checkpoint`. The index is listed in
    /// the catalog before `create_index` takes the table latch, under which
    /// it logs the index's record (the order the checkpoint's re-read relies
    /// on); whichever of the two then takes the latch first, the image
    /// restored and replayed from its frontier lists and builds the index.
    #[test]
    fn checkpoint_racing_create_index_keeps_the_index() {
        use crate::executor::tests::{rows, schema};
        let dir = temp_dir("index_race");
        let (db, _) = HybridDatabase::open_dir(&dir, DurabilityConfig::default()).unwrap();
        db.create_single(schema(), StoreKind::Row).unwrap();
        db.bulk_load("t", rows(30)).unwrap();
        let shard = db.shard("t").unwrap();
        let latch = shard.latch();
        let (listed_while_latched, (image, wal_len)) = std::thread::scope(|s| {
            let indexer = s.spawn(|| db.create_index("t", 3).unwrap());
            let listed = (0..10_000).any(|_| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                db.catalog().entry_by_name("t").unwrap().indexed_columns == [3]
            });
            let waiting = !indexer.is_finished();
            let encoder = s.spawn(|| encode_checkpoint(&db).unwrap());
            drop(latch);
            (listed && waiting, encoder.join().unwrap())
        });
        assert!(listed_while_latched);
        let expected = entry_and_indexes(&db);
        assert_eq!(expected.1, [true]);
        drop((shard, db));
        let back = HybridDatabase::new();
        restore_checkpoint(&back, &image).unwrap();
        let wal = std::fs::read(dir.join("wal.log")).unwrap();
        crate::durability::replay_into(&back, &wal, wal_len);
        assert_eq!(entry_and_indexes(&back), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_keeps_two_newest() {
        let dir = temp_dir("retain");
        let (db, _) = HybridDatabase::open_dir(&dir, DurabilityConfig::default()).unwrap();
        populate(&db);
        for _ in 0..4 {
            db.checkpoint().unwrap();
        }
        let kept = list_checkpoints(&dir.join("checkpoints"));
        assert_eq!(kept.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![4, 3]);
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
