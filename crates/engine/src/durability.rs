//! Crash consistency: WAL record semantics, logging, and recovery.
//!
//! The storage layer ([`hsd_storage::wal`]) owns the byte format — frames,
//! checksums, fsync batching, fault classification. This module owns the
//! *meaning*: which mutating operations are logged ([`WalRecord`]), how they
//! serialize, and how [`HybridDatabase::recover`] replays a log image back
//! into the exact committed pre-crash state.
//!
//! # Record encoding
//!
//! A frame payload is one binary record. All integers are little-endian;
//! every value uses the tagged encoding of segment dictionaries
//! ([`hsd_storage::segment::write_value`]), so the log and the segments
//! share one value format.
//!
//! ```text
//! field         size  notes
//! op            1     1 create_table, 2 insert, 3 update, 4 create_index,
//!                     5 move, 6 rebalance, 7 merge_complete, 8 demote,
//!                     9 promote
//! table         4+n   u32 byte length + UTF-8 name
//! body          …     by op:
//!   create_table      schema JSON, placement JSON (each u32 length + text;
//!                     the catalog encoding checkpoints use)
//!   insert            load flag (u8 0/1), u32 row count, per row: u32
//!                     arity + values
//!   update            u32 set count, per set: u32 column + value;
//!                     u32 filter count, per filter: u32 column + kind
//!                     (u8 0 = eq + value; 1 = range + lo bound + hi bound,
//!                     a bound being u8 0 unbounded | 1 included + value |
//!                     2 excluded + value)
//!   create_index      u32 column
//!   move              placement JSON (u32 length + text)
//!   rebalance         split value
//!   merge_complete    partition (u8 0 whole, 1 cold), u64 merge epoch
//!   demote, promote   —
//! ```
//!
//! Decoding never panics and never trusts a count: each is bounded by the
//! bytes that remain before anything is allocated for it, flags and tags
//! outside their range are errors, and a record must consume its payload
//! exactly. An error makes replay quarantine the record's table (see
//! *Graceful degradation*).
//!
//! The log was JSON before this encoding and there is no JSON reader: a
//! payload starting with `{` fails as a "pre-binary JSON record". To
//! upgrade a database directory, take a checkpoint with the old build as
//! its last act; recovery then restores it and replays only the binary
//! suffix (see `docs/OPERATIONS.md`).
//!
//! # Commit semantics
//!
//! A record is appended **after** its in-memory apply succeeds and before
//! the statement returns: the durable append *is* the commit point. A
//! statement that fails validation never reaches the log (so replay never
//! re-fails it), and a crash between apply and append simply loses an
//! uncommitted statement — exactly what the caller was told by never seeing
//! the statement return. Multi-row inserts that fail midway log the applied
//! prefix (the engine has no statement rollback; recovery reproduces the
//! same prefix).
//!
//! Under the concurrent engine, every record is appended **while the
//! writer still holds the mutated table's write latch** (see
//! [`crate::database`]): the per-table record order in the log equals the
//! apply order on the table, so single-threaded replay reconstructs
//! exactly the state any latch-ordered concurrent execution committed.
//! Cross-table record order is whatever order the (brief) WAL-writer
//! mutex serialized — immaterial, since records of different tables
//! commute under replay. The record is encoded before that mutex is taken,
//! so the mutex covers the append alone.
//!
//! # Merge records and in-flight merges
//!
//! Completed delta merges are logged as [`WalRecord::MergeComplete`] keyed
//! by `(table, partition, merge_epoch)`; replay re-runs the region merge at
//! the same point in the statement stream, reconstructing the compacted
//! physical shape. An **in-flight** incremental merge at crash time has, by
//! construction, no completion record — its shadow state was never
//! authoritative (see [`crate::mover::cancel_merge`]), so recovery discards
//! it losslessly by simply never replaying it: recovered tables always come
//! up with `merge_in_progress() == false` and identical logical contents.
//! Replay runs with the auto-merge fallback disabled so the only physical
//! reorganizations are the logged ones; by the merge-transparency invariant
//! (see `tests/merge_transparency.rs`) merge timing can never change query
//! answers, so logical state is exact either way.
//!
//! # Graceful degradation
//!
//! Recovery never panics on a damaged log. A torn tail (the normal crash
//! artifact) is truncated to the last valid record. A corrupt **interior**
//! record — a sound frame boundary whose payload fails its checksum —
//! quarantines the affected table (attributed via the frame header's table
//! tag): records for that table from the corruption onward are skipped, the
//! table comes up **read-only** ([`hsd_types::Error::Degraded`] on any
//! mutation), and the [`RecoveryReport`] carries the reason for surfacing
//! (rendered by `hsd-core`'s health report). Other tables replay normally.

use std::collections::HashMap;
use std::ops::Bound;
use std::path::Path;

use hsd_catalog::{placement_from_json, placement_to_json, TablePlacement};
use hsd_query::{InsertQuery, Query, UpdateQuery};
use hsd_storage::segment::{read_value, write_value};
use hsd_storage::wal::{self, FileBackend, RetryPolicy, SyncPolicy, WalWriter};
use hsd_storage::ColRange;
use hsd_types::{
    ColumnDef, ColumnType, Error, Json, JsonError, JsonResult, Result, TableSchema, Value,
};

use crate::database::HybridDatabase;
use crate::maintenance::MergeConfig;
use crate::mover;
use crate::partition::MergePartition;

/// Settings of the durable write path.
#[derive(Debug, Clone, Copy)]
pub struct DurabilityConfig {
    /// Fsync batching policy (default: group commit every 32 records).
    pub sync: SyncPolicy,
    /// Bounded retry/backoff for transient append faults.
    pub retry: RetryPolicy,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            sync: SyncPolicy::EveryN(32),
            retry: RetryPolicy::default(),
        }
    }
}

/// One logged mutating operation (see the module docs for semantics).
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A table was created.
    CreateTable {
        /// The table's schema.
        schema: TableSchema,
        /// Its initial placement.
        placement: TablePlacement,
    },
    /// Rows were inserted. `load` marks a bulk load (replay re-compacts
    /// afterwards, as the original load did).
    Insert {
        /// Target table.
        table: String,
        /// The inserted rows (for a failed multi-row statement: the applied
        /// prefix).
        rows: Vec<Vec<Value>>,
        /// Whether this was a bulk load (ends with a delta merge).
        load: bool,
    },
    /// An update statement was applied.
    Update {
        /// Target table.
        table: String,
        /// Column assignments.
        sets: Vec<(usize, Value)>,
        /// Row predicate.
        filter: Vec<ColRange>,
    },
    /// A secondary index was created.
    CreateIndex {
        /// Target table.
        table: String,
        /// Indexed column.
        column: usize,
    },
    /// The table was physically moved to a new placement.
    Move {
        /// Target table.
        table: String,
        /// The placement it was rebuilt under.
        placement: TablePlacement,
    },
    /// The hot/cold boundary of a horizontal split was rebalanced.
    Rebalance {
        /// Target table.
        table: String,
        /// The new split value.
        split_value: Value,
    },
    /// A delta merge (one-shot or the final slice of an incremental merge)
    /// completed on a region of the table.
    MergeComplete {
        /// Target table.
        table: String,
        /// Physical region that was folded.
        partition: MergePartition,
        /// The table's merge epoch after the completion (diagnostic:
        /// replay re-merges by region, it does not need to match epochs).
        merge_epoch: u64,
    },
    /// The table's cold partition was demoted to an on-disk segment. The
    /// segment itself is a derived cache: replay re-runs the demotion,
    /// re-encoding it from the replayed logical state.
    Demote {
        /// Target table.
        table: String,
    },
    /// The table's cold partition was promoted back to memory residency
    /// (and its segment deleted).
    Promote {
        /// Target table.
        table: String,
    },
}

impl WalRecord {
    /// The table this record belongs to.
    pub fn table_name(&self) -> &str {
        match self {
            WalRecord::CreateTable { schema, .. } => &schema.name,
            WalRecord::Insert { table, .. }
            | WalRecord::Update { table, .. }
            | WalRecord::CreateIndex { table, .. }
            | WalRecord::Move { table, .. }
            | WalRecord::Rebalance { table, .. }
            | WalRecord::MergeComplete { table, .. }
            | WalRecord::Demote { table }
            | WalRecord::Promote { table } => table,
        }
    }

    /// The frame-header routing tag: CRC-32 of the table name, so interior
    /// corruption can be attributed even when the payload is unreadable.
    pub fn table_tag(&self) -> u32 {
        table_tag(self.table_name())
    }

    /// Serialize to the frame payload (the binary record of the module
    /// docs).
    pub fn to_payload(&self) -> Vec<u8> {
        let rows_hint: usize = match self {
            WalRecord::Insert { rows, .. } => rows.iter().map(|r| 4 + 10 * r.len()).sum(),
            _ => 0,
        };
        let mut out = Vec::with_capacity(16 + self.table_name().len() + rows_hint);
        out.push(self.op());
        put_str(&mut out, self.table_name());
        match self {
            WalRecord::CreateTable { schema, placement } => {
                put_str(&mut out, &schema_to_json(schema).to_string());
                put_str(&mut out, &placement_to_json(placement).to_string());
            }
            WalRecord::Insert { rows, load, .. } => {
                out.push(u8::from(*load));
                put_u32(&mut out, rows.len());
                for row in rows {
                    put_u32(&mut out, row.len());
                    for v in row {
                        write_value(&mut out, v);
                    }
                }
            }
            WalRecord::Update { sets, filter, .. } => {
                put_u32(&mut out, sets.len());
                for (col, v) in sets {
                    put_u32(&mut out, *col);
                    write_value(&mut out, v);
                }
                put_u32(&mut out, filter.len());
                for r in filter {
                    put_range(&mut out, r);
                }
            }
            WalRecord::CreateIndex { column, .. } => put_u32(&mut out, *column),
            WalRecord::Move { placement, .. } => {
                put_str(&mut out, &placement_to_json(placement).to_string());
            }
            WalRecord::Rebalance { split_value, .. } => write_value(&mut out, split_value),
            WalRecord::MergeComplete {
                partition,
                merge_epoch,
                ..
            } => {
                out.push(match partition {
                    MergePartition::Whole => 0,
                    MergePartition::Cold => 1,
                });
                out.extend_from_slice(&merge_epoch.to_le_bytes());
            }
            WalRecord::Demote { .. } | WalRecord::Promote { .. } => {}
        }
        out
    }

    /// Decode a payload written by [`WalRecord::to_payload`]. Damaged or
    /// foreign bytes are an [`Error::Io`], never a panic or an allocation
    /// the payload cannot back.
    pub fn from_payload(bytes: &[u8]) -> Result<WalRecord> {
        if bytes.first() == Some(&b'{') {
            return Err(codec_err(
                "pre-binary JSON record (checkpoint with the build that wrote it, then reopen)",
            ));
        }
        let mut r = PayloadReader { bytes, pos: 0 };
        let op = r.u8("op")?;
        let table = r.str("table name")?.to_string();
        let rec = match op {
            OP_CREATE_TABLE => {
                let schema = schema_from_json(&r.json("schema")?).map_err(json_err)?;
                if schema.name != table {
                    return Err(codec_err("create_table names two different tables"));
                }
                let placement = placement_from_json(&r.json("placement")?).map_err(json_err)?;
                WalRecord::CreateTable { schema, placement }
            }
            OP_INSERT => {
                let load = r.flag("load flag")?;
                let n = r.count(4, "row count")?;
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    let arity = r.count(1, "row arity")?;
                    let mut row = Vec::with_capacity(arity);
                    for _ in 0..arity {
                        row.push(r.value()?);
                    }
                    rows.push(row);
                }
                WalRecord::Insert { table, rows, load }
            }
            OP_UPDATE => {
                let n = r.count(5, "set count")?;
                let mut sets = Vec::with_capacity(n);
                for _ in 0..n {
                    sets.push((r.u32("set column")? as usize, r.value()?));
                }
                let n = r.count(6, "filter count")?;
                let mut filter = Vec::with_capacity(n);
                for _ in 0..n {
                    filter.push(r.range()?);
                }
                WalRecord::Update {
                    table,
                    sets,
                    filter,
                }
            }
            OP_CREATE_INDEX => WalRecord::CreateIndex {
                table,
                column: r.u32("index column")? as usize,
            },
            OP_MOVE => WalRecord::Move {
                table,
                placement: placement_from_json(&r.json("placement")?).map_err(json_err)?,
            },
            OP_REBALANCE => WalRecord::Rebalance {
                table,
                split_value: r.value()?,
            },
            OP_MERGE_COMPLETE => WalRecord::MergeComplete {
                table,
                partition: match r.u8("merge partition")? {
                    0 => MergePartition::Whole,
                    1 => MergePartition::Cold,
                    other => return Err(codec_err(&format!("unknown merge partition {other}"))),
                },
                merge_epoch: u64::from_le_bytes(r.array("merge epoch")?),
            },
            OP_DEMOTE => WalRecord::Demote { table },
            OP_PROMOTE => WalRecord::Promote { table },
            other => return Err(codec_err(&format!("unknown op {other}"))),
        };
        if r.pos != bytes.len() {
            return Err(codec_err(&format!(
                "{} trailing bytes after the record",
                bytes.len() - r.pos
            )));
        }
        Ok(rec)
    }

    fn op(&self) -> u8 {
        match self {
            WalRecord::CreateTable { .. } => OP_CREATE_TABLE,
            WalRecord::Insert { .. } => OP_INSERT,
            WalRecord::Update { .. } => OP_UPDATE,
            WalRecord::CreateIndex { .. } => OP_CREATE_INDEX,
            WalRecord::Move { .. } => OP_MOVE,
            WalRecord::Rebalance { .. } => OP_REBALANCE,
            WalRecord::MergeComplete { .. } => OP_MERGE_COMPLETE,
            WalRecord::Demote { .. } => OP_DEMOTE,
            WalRecord::Promote { .. } => OP_PROMOTE,
        }
    }
}

// Record op bytes (the first payload byte; none is `{`, the first byte of
// every pre-binary JSON record).
const OP_CREATE_TABLE: u8 = 1;
const OP_INSERT: u8 = 2;
const OP_UPDATE: u8 = 3;
const OP_CREATE_INDEX: u8 = 4;
const OP_MOVE: u8 = 5;
const OP_REBALANCE: u8 = 6;
const OP_MERGE_COMPLETE: u8 = 7;
const OP_DEMOTE: u8 = 8;
const OP_PROMOTE: u8 = 9;

fn codec_err(msg: &str) -> Error {
    Error::Io(format!("wal record: {msg}"))
}

fn json_err(e: JsonError) -> Error {
    codec_err(&e.to_string())
}

/// Counts, lengths and column indexes are `u32` on the wire; a payload is
/// capped at 1 GiB ([`wal::MAX_PAYLOAD_LEN`]), so no real count exceeds it.
fn put_u32(out: &mut Vec<u8>, n: usize) {
    out.extend_from_slice(&(n as u32).to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

fn put_bound(out: &mut Vec<u8>, b: Bound<&Value>) {
    match b {
        Bound::Unbounded => out.push(0),
        Bound::Included(v) => {
            out.push(1);
            write_value(out, v);
        }
        Bound::Excluded(v) => {
            out.push(2);
            write_value(out, v);
        }
    }
}

fn put_range(out: &mut Vec<u8>, r: &ColRange) {
    put_u32(out, r.column);
    match r.eq_value() {
        Some(v) => {
            out.push(0);
            write_value(out, v);
        }
        None => {
            out.push(1);
            put_bound(out, r.lo_ref());
            put_bound(out, r.hi_ref());
        }
    }
}

/// Cursor over a record payload; every read is bounds-checked and advances
/// `pos` only over bytes it consumed, so `pos <= bytes.len()` always holds.
struct PayloadReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        let bytes: &'a [u8] = self.bytes;
        let s = bytes[self.pos..]
            .get(..n)
            .ok_or_else(|| codec_err(&format!("truncated at {what}")))?;
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N]> {
        let a = *self.bytes[self.pos..]
            .first_chunk::<N>()
            .ok_or_else(|| codec_err(&format!("truncated at {what}")))?;
        self.pos += N;
        Ok(a)
    }

    fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.array::<1>(what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    fn flag(&mut self, what: &str) -> Result<bool> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(codec_err(&format!("{what} is {other}, not 0 or 1"))),
        }
    }

    /// A `u32` count of items that each take at least `min_bytes`, bounded
    /// by the bytes that remain — checked before the caller allocates.
    fn count(&mut self, min_bytes: usize, what: &str) -> Result<usize> {
        let n = self.u32(what)? as usize;
        let left = self.bytes.len() - self.pos;
        if n > left / min_bytes {
            return Err(codec_err(&format!(
                "{what} {n} exceeds what the remaining {left} bytes can hold"
            )));
        }
        Ok(n)
    }

    fn str(&mut self, what: &str) -> Result<&'a str> {
        let len = self.u32(what)? as usize;
        std::str::from_utf8(self.take(len, what)?)
            .map_err(|_| codec_err(&format!("{what} is not UTF-8")))
    }

    fn json(&mut self, what: &str) -> Result<Json> {
        Json::parse(self.str(what)?).map_err(json_err)
    }

    fn value(&mut self) -> Result<Value> {
        read_value(self.bytes, &mut self.pos)
    }

    fn bound(&mut self) -> Result<Bound<Value>> {
        match self.u8("bound kind")? {
            0 => Ok(Bound::Unbounded),
            1 => Ok(Bound::Included(self.value()?)),
            2 => Ok(Bound::Excluded(self.value()?)),
            other => Err(codec_err(&format!("unknown bound kind {other}"))),
        }
    }

    fn range(&mut self) -> Result<ColRange> {
        let column = self.u32("filter column")? as usize;
        match self.u8("filter kind")? {
            0 => Ok(ColRange::eq(column, self.value()?)),
            1 => {
                let lo = self.bound()?;
                Ok(ColRange::range(column, lo, self.bound()?))
            }
            other => Err(codec_err(&format!("unknown filter kind {other}"))),
        }
    }
}

/// The WAL routing tag of a table name (CRC-32 of its bytes).
pub fn table_tag(table: &str) -> u32 {
    wal::crc32(table.as_bytes())
}

pub(crate) fn schema_to_json(s: &TableSchema) -> Json {
    Json::obj([
        ("name", Json::Str(s.name.clone())),
        (
            "columns",
            Json::Arr(
                s.columns
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("name", Json::Str(c.name.clone())),
                            ("ty", Json::Str(c.ty.name().into())),
                            ("nullable", Json::Bool(c.nullable)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "primary_key",
            Json::Arr(s.primary_key.iter().map(|&i| Json::Int(i as i64)).collect()),
        ),
    ])
}

pub(crate) fn schema_from_json(j: &Json) -> JsonResult<TableSchema> {
    let columns = j
        .get("columns")?
        .as_arr()?
        .iter()
        .map(|c| {
            let name = c.get("name")?.as_str()?.to_string();
            let ty = column_type_from_name(c.get("ty")?.as_str()?)?;
            Ok(if c.get("nullable")?.as_bool()? {
                ColumnDef::nullable(name, ty)
            } else {
                ColumnDef::new(name, ty)
            })
        })
        .collect::<JsonResult<Vec<_>>>()?;
    let primary_key = j
        .get("primary_key")?
        .as_arr()?
        .iter()
        .map(Json::as_usize)
        .collect::<JsonResult<Vec<_>>>()?;
    TableSchema::new(j.get("name")?.as_str()?, columns, primary_key)
        .map_err(|e| JsonError(e.to_string()))
}

fn column_type_from_name(s: &str) -> JsonResult<ColumnType> {
    ColumnType::ALL
        .iter()
        .copied()
        .find(|t| t.name() == s)
        .ok_or_else(|| JsonError(format!("unknown column type `{s}`")))
}

/// A table quarantined read-only by recovery, with the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedTable {
    /// Table name (or `<unresolved tag 0x...>` when the corruption hit the
    /// table's own create record and the name never replayed).
    pub table: String,
    /// Human-readable cause.
    pub reason: String,
}

/// What recovery found and did (surfaced as a health report by
/// `hsd_core::health::render_health`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Records successfully replayed.
    pub records_replayed: usize,
    /// Records skipped (corrupt, undecodable, quarantined table, or replay
    /// failure).
    pub records_skipped: usize,
    /// [`WalRecord::MergeComplete`] records re-applied.
    pub merges_replayed: usize,
    /// Offset at which a torn/garbage tail was truncated, if one was found.
    pub torn_tail: Option<u64>,
    /// End of the structurally sound log prefix (the length appends resume
    /// from).
    pub recovered_len: u64,
    /// Total log bytes scanned.
    pub scanned_len: u64,
    /// Tables quarantined read-only, with reasons.
    pub degraded: Vec<DegradedTable>,
    /// Sequence number of the checkpoint recovery restored from (`None`
    /// when recovery fell all the way back to full-log replay).
    pub checkpoint_seq: Option<u64>,
    /// WAL frontier of the restored checkpoint: replay started at this
    /// byte offset (0 for full-log replay).
    pub checkpoint_wal_len: u64,
    /// Newer checkpoint files passed over as unreadable or invalid before
    /// one restored (or before falling back to full replay).
    pub checkpoints_skipped: usize,
}

impl RecoveryReport {
    /// Whether recovery was entirely clean: no torn tail, no skipped
    /// records, no degraded tables.
    pub fn is_clean(&self) -> bool {
        self.torn_tail.is_none() && self.records_skipped == 0 && self.degraded.is_empty()
    }
}

/// Replay a WAL image into a fresh database (the pure core of recovery —
/// no file handling, no writer attachment). Never panics on damaged input.
pub fn replay(bytes: &[u8]) -> (HybridDatabase, RecoveryReport) {
    let db = HybridDatabase::new();
    let report = replay_into(&db, bytes, 0);
    (db, report)
}

/// Replay the WAL suffix at byte offset `start` into `db` (which already
/// holds the state the prefix produced — an empty database for `start == 0`,
/// a restored checkpoint otherwise). All reported offsets are absolute.
pub(crate) fn replay_into(db: &HybridDatabase, bytes: &[u8], start: u64) -> RecoveryReport {
    // `start` is a frame boundary recorded by a checkpoint; clamp defends
    // against a log that is somehow shorter than the checkpoint said.
    let start = start.min(bytes.len() as u64);
    let scan = wal::scan_frames(&bytes[start as usize..]);
    let mut report = RecoveryReport {
        torn_tail: scan.torn_tail.map(|off| start + off),
        recovered_len: start + scan.recovered_len,
        scanned_len: start + scan.scanned_len,
        ..RecoveryReport::default()
    };
    // Replay with the auto-merge fallback off: the only physical
    // reorganizations during replay are the logged ones. (Merge timing is
    // logically transparent, so this only affects physical shape.)
    db.set_merge_config(MergeConfig::disabled());

    // Interleave valid and corrupt frames in log order, so a quarantine
    // takes effect exactly from its corruption point onward: records of the
    // damaged table *before* the corruption are its committed prefix and
    // replay normally.
    enum Ev<'a> {
        Frame(&'a wal::Frame),
        Corrupt(&'a wal::CorruptFrame),
    }
    let mut events: Vec<(u64, Ev<'_>)> = scan
        .frames
        .iter()
        .map(|f| (f.offset, Ev::Frame(f)))
        .chain(scan.corrupt.iter().map(|c| (c.offset, Ev::Corrupt(c))))
        .collect();
    events.sort_by_key(|(off, _)| *off);

    let mut quarantined: HashMap<u32, String> = HashMap::new();
    for (_, ev) in events {
        match ev {
            Ev::Corrupt(c) => {
                quarantined
                    .entry(c.table_tag)
                    .or_insert_with(|| format!("corrupt WAL record at byte {}", start + c.offset));
            }
            Ev::Frame(f) => {
                if quarantined.contains_key(&f.table_tag) {
                    report.records_skipped += 1;
                    continue;
                }
                let rec = match WalRecord::from_payload(&f.payload) {
                    Ok(r) => r,
                    Err(e) => {
                        // CRC-valid but undecodable: defensive — same
                        // quarantine as corruption.
                        quarantined.insert(
                            f.table_tag,
                            format!("undecodable WAL record at byte {}: {e}", start + f.offset),
                        );
                        report.records_skipped += 1;
                        continue;
                    }
                };
                let is_merge = matches!(rec, WalRecord::MergeComplete { .. });
                match apply_record(db, rec) {
                    Ok(()) => {
                        report.records_replayed += 1;
                        if is_merge {
                            report.merges_replayed += 1;
                        }
                    }
                    Err(e) => {
                        quarantined.insert(
                            f.table_tag,
                            format!("replay failed at byte {}: {e}", start + f.offset),
                        );
                        report.records_skipped += 1;
                    }
                }
            }
        }
    }

    // Resolve quarantine tags back to table names and mark the database.
    for (tag, reason) in quarantined {
        match db.table_names().into_iter().find(|n| table_tag(n) == tag) {
            Some(name) => {
                db.mark_degraded(&name, &reason);
                report.degraded.push(DegradedTable {
                    table: name,
                    reason,
                });
            }
            None => report.degraded.push(DegradedTable {
                table: format!("<unresolved tag {tag:#010x}>"),
                reason,
            }),
        }
    }
    report.degraded.sort_by(|a, b| a.table.cmp(&b.table));
    // Hand the database back under the default policy; callers that ran a
    // custom merge config before the crash reconfigure after recovery.
    db.set_merge_config(MergeConfig::default());
    report
}

/// Re-apply one decoded record, moving its rows, sets and filters into the
/// statement that replays it.
fn apply_record(db: &HybridDatabase, rec: WalRecord) -> Result<()> {
    match rec {
        WalRecord::CreateTable { schema, placement } => {
            db.create_table(schema, placement)?;
            Ok(())
        }
        WalRecord::Insert { table, rows, load } => {
            if load {
                db.bulk_load(&table, rows)?;
            } else {
                db.execute(&Query::Insert(InsertQuery { table, rows }))?;
            }
            Ok(())
        }
        WalRecord::Update {
            table,
            sets,
            filter,
        } => {
            db.execute(&Query::Update(UpdateQuery {
                table,
                sets,
                filter,
            }))?;
            Ok(())
        }
        WalRecord::CreateIndex { table, column } => db.create_index(&table, column),
        WalRecord::Move { table, placement } => mover::move_table(db, &table, &placement),
        WalRecord::Rebalance { table, split_value } => {
            mover::rebalance_horizontal(db, &table, &split_value)?;
            Ok(())
        }
        WalRecord::MergeComplete {
            table, partition, ..
        } => {
            mover::merge_delta(db, &table, partition)?;
            Ok(())
        }
        WalRecord::Demote { table } => {
            mover::demote_cold(db, &table)?;
            Ok(())
        }
        WalRecord::Promote { table } => mover::promote_cold(db, &table),
    }
}

impl HybridDatabase {
    /// Recover a database from the WAL at `path` with default durability
    /// settings: scan, truncate any torn tail, replay the committed prefix,
    /// and reattach a writer so the instance keeps logging. A missing file
    /// yields an empty database with a fresh log.
    pub fn recover(path: impl AsRef<Path>) -> Result<(Self, RecoveryReport)> {
        Self::open(path, DurabilityConfig::default())
    }

    /// [`HybridDatabase::recover`] with explicit durability settings.
    pub fn open(path: impl AsRef<Path>, cfg: DurabilityConfig) -> Result<(Self, RecoveryReport)> {
        let path = path.as_ref();
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(Error::Io(e.to_string())),
        };
        let (db, report) = replay(&bytes);
        let backend = FileBackend::open_truncated(path, report.recovered_len)
            .map_err(|e| Error::Io(e.to_string()))?;
        db.attach_wal(WalWriter::with_retry(
            Box::new(backend),
            cfg.sync,
            cfg.retry,
        ));
        Ok((db, report))
    }

    /// Replay a WAL image without attaching a writer — the entry point the
    /// fault-injection harness uses to simulate "the process died, this is
    /// what was on disk".
    pub fn recover_bytes(bytes: &[u8]) -> (Self, RecoveryReport) {
        replay(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsd_storage::wal::{MemBackend, WalBackend};
    use hsd_storage::StoreKind;
    use hsd_types::ColumnType;

    fn schema(name: &str) -> TableSchema {
        TableSchema::new(
            name,
            vec![
                ColumnDef::new("id", ColumnType::BigInt),
                ColumnDef::new("v", ColumnType::Double),
                ColumnDef::nullable("note", ColumnType::Varchar),
            ],
            vec![0],
        )
        .unwrap()
    }

    fn round_trip(rec: &WalRecord) {
        let payload = rec.to_payload();
        let back = WalRecord::from_payload(&payload).unwrap();
        assert_eq!(&back, rec);
        assert_eq!(back.to_payload(), payload);
    }

    /// One record of every variant, and every filter and value shape.
    fn corpus() -> Vec<WalRecord> {
        vec![
            WalRecord::CreateTable {
                schema: schema("t"),
                placement: TablePlacement::Single(StoreKind::Column),
            },
            WalRecord::CreateTable {
                schema: schema("t"),
                placement: TablePlacement::Partitioned(hsd_catalog::PartitionSpec {
                    horizontal: Some(hsd_catalog::HorizontalSpec {
                        split_column: 0,
                        split_value: Value::BigInt(7),
                    }),
                    vertical: Some(hsd_catalog::VerticalSpec { row_cols: vec![2] }),
                    ..Default::default()
                }),
            },
            WalRecord::Insert {
                table: "t".into(),
                rows: vec![
                    vec![Value::BigInt(1), Value::Double(0.5), Value::Null],
                    vec![Value::BigInt(2), Value::Double(-0.0), Value::text("x")],
                    vec![Value::Int(-3), Value::Decimal(125), Value::text("")],
                    vec![Value::Date(19_000), Value::Bool(true), Value::text("ü→漢")],
                ],
                load: true,
            },
            WalRecord::Insert {
                table: "t".into(),
                rows: vec![vec![Value::Double(f64::NAN), Value::Bool(false)]],
                load: false,
            },
            WalRecord::Update {
                table: "t".into(),
                sets: vec![(1, Value::Double(9.0)), (2, Value::text("y"))],
                filter: vec![
                    // `eq` and the degenerate range it denotes stay distinct.
                    ColRange::eq(0, Value::BigInt(3)),
                    ColRange::between(0, Value::BigInt(3), Value::BigInt(3)),
                    ColRange::between(1, Value::Double(0.0), Value::Double(1.0)),
                    ColRange::lt(0, Value::BigInt(100)),
                    ColRange::ge(0, Value::BigInt(-5)),
                    ColRange::range(2, Bound::Excluded(Value::text("a")), Bound::Unbounded),
                ],
            },
            WalRecord::CreateIndex {
                table: "t".into(),
                column: 1,
            },
            WalRecord::Move {
                table: "t".into(),
                placement: TablePlacement::Single(StoreKind::Row),
            },
            WalRecord::Rebalance {
                table: "t".into(),
                split_value: Value::BigInt(42),
            },
            WalRecord::MergeComplete {
                table: "t".into(),
                partition: MergePartition::Cold,
                merge_epoch: 9,
            },
            WalRecord::Demote { table: "t".into() },
            WalRecord::Promote { table: "t".into() },
        ]
    }

    #[test]
    fn records_round_trip_through_payloads() {
        for rec in corpus() {
            round_trip(&rec);
        }
        // The exact round trip keeps the predicate's meaning too.
        let update = corpus()
            .into_iter()
            .find(|r| matches!(r, WalRecord::Update { .. }))
            .unwrap();
        let WalRecord::Update { filter, .. } =
            WalRecord::from_payload(&update.to_payload()).unwrap()
        else {
            panic!("wrong variant");
        };
        assert_eq!(filter[0].eq_value(), Some(&Value::BigInt(3)));
        assert_eq!(filter[1].eq_value(), None);
        assert!(filter[0].matches(&Value::BigInt(3)));
        assert!(!filter[0].matches(&Value::BigInt(4)));
    }

    mod codec_props {
        use super::*;
        use proptest::prelude::*;

        /// Doubles whose bit patterns a lossy codec would change.
        const DOUBLES: [u64; 8] = [
            0x7FF8_0000_0000_0000, // quiet NaN
            0xFFF8_0000_0000_0000, // negative quiet NaN
            0x7FF0_0000_0000_0001, // signalling NaN
            0x7FFD_EAD0_BEEF_0001, // NaN with a payload
            0x8000_0000_0000_0000, // -0.0
            0x7FF0_0000_0000_0000, // +inf
            0xFFF0_0000_0000_0000, // -inf
            0x0000_0000_0000_0001, // smallest subnormal
        ];

        fn text() -> impl Strategy<Value = String> {
            // Code points across the planes; surrogates are dropped, and an
            // empty draw gives the empty string.
            prop::collection::vec(0u32..0x11_0000, 0..6)
                .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
        }

        fn value() -> impl Strategy<Value = Value> {
            prop_oneof![
                any::<u8>().prop_map(|_| Value::Null),
                any::<i32>().prop_map(Value::Int),
                any::<u64>().prop_map(|b| Value::BigInt(b as i64)),
                any::<u64>().prop_map(|b| Value::Double(f64::from_bits(b))),
                (0..DOUBLES.len()).prop_map(|i| Value::Double(f64::from_bits(DOUBLES[i]))),
                any::<u64>().prop_map(|b| Value::Decimal(b as i64)),
                text().prop_map(Value::text),
                any::<i32>().prop_map(Value::Date),
                any::<bool>().prop_map(Value::Bool),
            ]
        }

        fn bound() -> impl Strategy<Value = Bound<Value>> {
            prop_oneof![
                any::<u8>().prop_map(|_| Bound::Unbounded),
                value().prop_map(Bound::Included),
                value().prop_map(Bound::Excluded),
            ]
        }

        fn range() -> impl Strategy<Value = ColRange> {
            prop_oneof![
                (0usize..64, value()).prop_map(|(c, v)| ColRange::eq(c, v)),
                (0usize..64, bound(), bound()).prop_map(|(c, lo, hi)| ColRange::range(c, lo, hi)),
            ]
        }

        fn record() -> impl Strategy<Value = WalRecord> {
            prop_oneof![
                (0..corpus().len()).prop_map(|i| corpus().swap_remove(i)),
                (
                    text(),
                    prop::collection::vec(prop::collection::vec(value(), 0..5), 0..4),
                    any::<bool>(),
                )
                    .prop_map(|(table, rows, load)| WalRecord::Insert {
                        table,
                        rows,
                        load
                    }),
                (
                    text(),
                    prop::collection::vec((0usize..64, value()), 0..4),
                    prop::collection::vec(range(), 0..4),
                )
                    .prop_map(|(table, sets, filter)| WalRecord::Update {
                        table,
                        sets,
                        filter,
                    }),
                (text(), any::<u32>()).prop_map(|(table, c)| WalRecord::CreateIndex {
                    table,
                    column: c as usize,
                }),
                (text(), value())
                    .prop_map(|(table, split_value)| WalRecord::Rebalance { table, split_value }),
                (text(), any::<bool>(), any::<u64>()).prop_map(|(table, cold, merge_epoch)| {
                    WalRecord::MergeComplete {
                        table,
                        partition: if cold {
                            MergePartition::Cold
                        } else {
                            MergePartition::Whole
                        },
                        merge_epoch,
                    }
                }),
                text().prop_map(|table| WalRecord::Demote { table }),
                text().prop_map(|table| WalRecord::Promote { table }),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            #[test]
            fn every_record_round_trips_exactly(rec in record()) {
                let payload = rec.to_payload();
                let back = WalRecord::from_payload(&payload);
                prop_assert!(back.is_ok(), "{rec:?}: {back:?}");
                let back = back.unwrap();
                prop_assert_eq!(&back, &rec);
                prop_assert_eq!(back.to_payload(), payload);
            }
        }
    }

    #[test]
    fn hostile_payloads_are_errors_not_panics() {
        for rec in corpus() {
            let payload = rec.to_payload();
            // A record consumes its payload exactly, so every proper prefix
            // is short.
            for cut in 0..payload.len() {
                assert!(
                    WalRecord::from_payload(&payload[..cut]).is_err(),
                    "{rec:?} cut at {cut}"
                );
            }
            let mut flipped = payload.clone();
            for bit in 0..payload.len() * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                let _ = WalRecord::from_payload(&flipped);
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
            let mut trailing = payload;
            trailing.push(0);
            assert!(WalRecord::from_payload(&trailing).is_err(), "{rec:?}");
        }
    }

    #[test]
    fn counts_are_bounded_before_allocating() {
        // op, empty table name, load flag, then u32::MAX rows in 10 bytes.
        let mut payload = vec![OP_INSERT, 0, 0, 0, 0, 1];
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(payload.len(), 10);
        let err = WalRecord::from_payload(&payload).unwrap_err();
        assert!(err.to_string().contains("row count"), "{err}");
        // The same bound holds for a row's arity and an update's counts.
        let mut payload = vec![OP_INSERT, 0, 0, 0, 0, 0, 1, 0, 0, 0];
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(WalRecord::from_payload(&payload).is_err());
        let mut payload = vec![OP_UPDATE, 0, 0, 0, 0];
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(WalRecord::from_payload(&payload).is_err());
    }

    #[test]
    fn json_records_get_a_named_error() {
        let err = WalRecord::from_payload(br#"{"op":"demote","table":"t"}"#).unwrap_err();
        assert!(err.to_string().contains("pre-binary JSON record"), "{err}");
        // Replay quarantines the table the frame is tagged with.
        let image = wal::encode_frame(table_tag("t"), br#"{"op":"demote","table":"t"}"#);
        let (_, report) = replay(&image);
        assert_eq!(report.records_skipped, 1);
        assert!(report.degraded[0].reason.contains("pre-binary JSON record"));
    }

    /// A backend whose first sync fails (the bytes still go in).
    #[derive(Debug, Default)]
    struct FirstSyncFails {
        inner: MemBackend,
        syncs: u32,
    }

    impl WalBackend for FirstSyncFails {
        fn append(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.inner.append(buf)
        }

        fn sync(&mut self) -> std::io::Result<()> {
            self.syncs += 1;
            if self.syncs == 1 {
                return Err(std::io::Error::other("injected sync failure"));
            }
            Ok(())
        }

        fn len(&self) -> u64 {
            self.inner.len()
        }
    }

    #[test]
    fn failed_inline_sync_leaves_the_record_for_the_next_sync() {
        let db = HybridDatabase::new();
        db.create_single(schema("t"), StoreKind::Row).unwrap();
        assert!(!db.wal_active());
        db.attach_wal(WalWriter::new(
            Box::new(FirstSyncFails::default()),
            SyncPolicy::EveryN(1),
        ));
        assert!(db.wal_active());
        let err = db
            .execute(&Query::Insert(InsertQuery {
                table: "t".into(),
                rows: vec![vec![Value::BigInt(1), Value::Double(1.0), Value::Null]],
            }))
            .unwrap_err();
        assert!(matches!(err, Error::Io(_)), "{err}");
        let stats = db.wal_stats().unwrap();
        assert_eq!((stats.records, stats.syncs), (1, 0));
        // The record is appended but not durable: `sync_wal` must reach
        // the device instead of trusting a stale append mark.
        db.sync_wal().unwrap();
        assert_eq!(db.wal_stats().unwrap().syncs, 1);
        assert!(db.detach_wal().is_some());
        assert!(!db.wal_active());
    }

    #[test]
    fn logged_statements_replay_to_identical_state() {
        let mem = MemBackend::new();
        let db = HybridDatabase::new();
        db.attach_wal(WalWriter::new(Box::new(mem.share()), SyncPolicy::Always));
        db.create_single(schema("t"), StoreKind::Column).unwrap();
        db.bulk_load(
            "t",
            (0..40i64).map(|i| vec![Value::BigInt(i), Value::Double(i as f64), Value::Null]),
        )
        .unwrap();
        db.execute(&Query::Update(UpdateQuery {
            table: "t".into(),
            sets: vec![(1, Value::Double(777.0))],
            filter: vec![ColRange::eq(0, Value::BigInt(3))],
        }))
        .unwrap();
        db.execute(&Query::Insert(InsertQuery {
            table: "t".into(),
            rows: vec![vec![Value::BigInt(100), Value::Double(0.25), Value::Null]],
        }))
        .unwrap();
        mover::merge_delta(&db, "t", MergePartition::Whole).unwrap();
        db.create_index("t", 1).unwrap();

        let (rec, report) = HybridDatabase::recover_bytes(&mem.snapshot());
        assert!(report.is_clean(), "{report:?}");
        assert!(report.records_replayed >= 5);
        assert_eq!(rec.row_count("t").unwrap(), 41);
        assert_eq!(rec.delta_tail("t").unwrap(), db.delta_tail("t").unwrap());
        let probe = Query::Select(hsd_query::SelectQuery {
            table: "t".into(),
            columns: None,
            filter: vec![ColRange::eq(0, Value::BigInt(3))],
        });
        assert_eq!(
            rec.execute(&probe).unwrap(),
            db.execute(&probe).unwrap(),
            "recovered row must carry the update"
        );
        assert_eq!(
            rec.catalog().entry_by_name("t").unwrap().indexed_columns,
            vec![1]
        );
    }

    #[test]
    fn degraded_table_rejects_writes_but_serves_reads() {
        let mem = MemBackend::new();
        let db = HybridDatabase::new();
        db.attach_wal(WalWriter::new(Box::new(mem.share()), SyncPolicy::Always));
        db.create_single(schema("t"), StoreKind::Column).unwrap();
        db.bulk_load(
            "t",
            (0..10i64).map(|i| vec![Value::BigInt(i), Value::Double(i as f64), Value::Null]),
        )
        .unwrap();
        db.execute(&Query::Insert(InsertQuery {
            table: "t".into(),
            rows: vec![vec![Value::BigInt(50), Value::Double(1.0), Value::Null]],
        }))
        .unwrap();
        let mut image = mem.snapshot();
        // Corrupt the *last* frame's payload (the insert).
        let scan = wal::scan_frames(&image);
        let last = scan.frames.last().unwrap().offset as usize;
        image[last + wal::HEADER_LEN] ^= 0xFF;

        let (rec, report) = HybridDatabase::recover_bytes(&image);
        assert_eq!(report.degraded.len(), 1);
        assert_eq!(report.degraded[0].table, "t");
        assert!(rec.is_degraded("t"));
        assert_eq!(rec.row_count("t").unwrap(), 10, "pre-corruption prefix");
        // Reads still work; writes are rejected with Degraded.
        assert!(rec
            .execute(&Query::Select(hsd_query::SelectQuery {
                table: "t".into(),
                columns: None,
                filter: vec![],
            }))
            .is_ok());
        let err = rec
            .execute(&Query::Insert(InsertQuery {
                table: "t".into(),
                rows: vec![vec![Value::BigInt(60), Value::Double(1.0), Value::Null]],
            }))
            .unwrap_err();
        assert!(matches!(err, Error::Degraded(_)), "{err}");
        assert!(matches!(
            rec.bulk_load("t", std::iter::empty()).unwrap_err(),
            Error::Degraded(_)
        ));
        // Lifting the quarantine restores writability (operator override).
        assert!(rec.clear_degraded("t"));
        assert!(rec
            .execute(&Query::Insert(InsertQuery {
                table: "t".into(),
                rows: vec![vec![Value::BigInt(60), Value::Double(1.0), Value::Null]],
            }))
            .is_ok());
    }

    #[test]
    fn recover_from_file_truncates_torn_tail_and_resumes_logging() {
        let dir = std::env::temp_dir().join(format!("hsd_durability_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume.wal");
        let _ = std::fs::remove_file(&path);
        {
            let (db, report) = HybridDatabase::recover(&path).unwrap();
            assert!(report.is_clean());
            db.create_single(schema("t"), StoreKind::Column).unwrap();
            db.bulk_load(
                "t",
                (0..8i64).map(|i| vec![Value::BigInt(i), Value::Double(i as f64), Value::Null]),
            )
            .unwrap();
            db.sync_wal().unwrap();
        }
        // Tear the tail: append garbage, as a crashed half-write would.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(&[0xAB; 7]).unwrap();
        }
        let torn_len = std::fs::metadata(&path).unwrap().len();
        let (db, report) = HybridDatabase::recover(&path).unwrap();
        assert_eq!(report.torn_tail, Some(torn_len - 7));
        assert_eq!(db.row_count("t").unwrap(), 8);
        assert!(
            std::fs::metadata(&path).unwrap().len() < torn_len,
            "the torn tail must be truncated on disk"
        );
        // The recovered instance keeps logging: a new statement survives
        // the next recovery.
        db.execute(&Query::Insert(InsertQuery {
            table: "t".into(),
            rows: vec![vec![Value::BigInt(99), Value::Double(9.9), Value::Null]],
        }))
        .unwrap();
        db.sync_wal().unwrap();
        drop(db);
        let (db, report) = HybridDatabase::recover(&path).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(db.row_count("t").unwrap(), 9);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corruption_quarantines_only_the_affected_table() {
        let mem = MemBackend::new();
        let db = HybridDatabase::new();
        db.attach_wal(WalWriter::new(Box::new(mem.share()), SyncPolicy::Always));
        db.create_single(schema("a"), StoreKind::Column).unwrap();
        db.create_single(schema("b"), StoreKind::Row).unwrap();
        db.bulk_load(
            "a",
            (0..5i64).map(|i| vec![Value::BigInt(i), Value::Double(0.0), Value::Null]),
        )
        .unwrap();
        db.bulk_load(
            "b",
            (0..5i64).map(|i| vec![Value::BigInt(i), Value::Double(0.0), Value::Null]),
        )
        .unwrap();
        let mut image = mem.snapshot();
        // Corrupt b's bulk-load record (the last frame).
        let scan = wal::scan_frames(&image);
        let last = scan.frames.last().unwrap();
        assert_eq!(last.table_tag, table_tag("b"));
        let off = last.offset as usize;
        image[off + wal::HEADER_LEN + 1] ^= 0x10;

        let (rec, report) = HybridDatabase::recover_bytes(&image);
        assert_eq!(report.degraded.len(), 1);
        assert_eq!(report.degraded[0].table, "b");
        assert!(rec.is_degraded("b"));
        assert!(!rec.is_degraded("a"));
        assert_eq!(rec.row_count("a").unwrap(), 5);
        assert_eq!(rec.row_count("b").unwrap(), 0, "b's load was lost");
        // `a` stays fully writable.
        assert!(rec
            .execute(&Query::Insert(InsertQuery {
                table: "a".into(),
                rows: vec![vec![Value::BigInt(10), Value::Double(1.0), Value::Null]],
            }))
            .is_ok());
    }
}
