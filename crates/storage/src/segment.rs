//! Immutable on-disk column segments: the persistence format for demoted
//! (disk-tier) column fragments and for checkpointed column data, and the
//! reader that serves statements from a segment **in place**.
//!
//! A *segment* is one column-store fragment serialized byte-for-byte in
//! the in-memory layout this crate already uses: per column, the
//! order-preserving dictionary (sorted region + unsorted tail, so a
//! fragment with a live delta tail round-trips exactly) followed by the
//! delimiter-aligned bit-packed code words of [`crate::BitPackedVec`].
//! Restoring a column is therefore a *restore*, not a rebuild — no values
//! are re-interned, no codes re-assigned, and scans over a restored column
//! go through the same SWAR kernels as an always-resident one.
//!
//! # File format (`HSDSEG2`)
//!
//! All integers are little-endian. The file is the magic, two regions per
//! column, a footer directory and a trailer; the regions tile the space
//! between magic and footer exactly, so every byte of the file is covered
//! by exactly one check:
//!
//! ```text
//! offset   size  field
//! 0        8     magic  "HSDSEG2\0"  (format version is baked into the magic)
//! 8        …     column 0 dictionary region, column 0 code-word region,
//!                column 1 dictionary region, …            (schema order)
//! F        L     footer directory (see below)
//! F+L      4     L, the footer length (u32)
//! F+L+4    4     CRC-32 over bytes [F, F+L+4)   (same polynomial as the WAL)
//! ```
//!
//! A **dictionary region** is the sorted-region values followed by the tail
//! values in the tagged value encoding below, cut into *blocks* of 64
//! entries (the last block of the sorted region and of the tail may be
//! shorter; a block never straddles the two). A **code-word region** is the
//! packed words (8 bytes each, the exact layout of `BitPackedVec::words`),
//! cut into *zones* of 128 words — `128 × 64 / (width + 1)` rows, always a
//! multiple of 64. Blocks and zones are the units of verification and of
//! point access: each has its own CRC-32 in the footer.
//!
//! The **footer directory** is `column count (u32)`, `row count (u32)`, then
//! one record per column:
//!
//! ```text
//! size   field
//! 8      dictionary region length in bytes (u64); the regions tile the
//!        file, so each column's offset is the running sum of the lengths
//!        before it, and its code-word region follows its dictionary
//! 4      dictionary sorted-region entry count (u32)
//! 4      dictionary tail entry count (u32)
//! 8      merge epoch (u64) — dictionary generation, preserved across demote
//! 1      code width in bits (u8, 0..=32); the word count follows from it
//!        and the row count
//! 1      zone-map flag (0 or 1) — set for primary-key columns
//! 8×B    per dictionary block: end offset within the region (u32, so entry
//!        i of a variable-width dictionary is seekable), CRC-32 (u32)
//! 4×Z    per code zone: CRC-32 (u32)
//! 8×Z    if flagged, per code zone: smallest and largest code (u32, u32)
//! ```
//!
//! The **tagged value encoding** is one tag byte followed by the payload
//! (the WAL's binary records, in `hsd-engine`'s durability module, use it
//! too):
//!
//! ```text
//! tag  variant   payload
//! 0    Null      —
//! 1    Int       i32 LE
//! 2    BigInt    i64 LE
//! 3    Double    f64 LE bit pattern
//! 4    Decimal   i64 LE
//! 5    Text      u32 LE byte length + UTF-8 bytes
//! 6    Date      i32 LE
//! 7    Bool      u8 (0 or 1)
//! ```
//!
//! The format is **not schema-self-describing**: readers take the table
//! schema from the caller (the catalog is authoritative for it) and
//! validate the column count against the schema's arity. The primary-key
//! index is not persisted.
//!
//! # Which call serves which request
//!
//! The executor knows whether a statement scans named columns or fetches
//! single rows, and says so by the method it calls — storage never guesses,
//! and there is no size threshold between the paths:
//!
//! | request | call | reads |
//! |---|---|---|
//! | scan of named columns (filter, aggregate, group-by, join) | [`SegmentReader::column`] | that column's two regions, one positional read |
//! | primary-key lookup | [`SegmentReader::locate`] | ≈ log₂(blocks) dictionary blocks per key column, then the key column's zones the zone map admits |
//! | row fetch | [`SegmentReader::rows`] | one zone and one dictionary block per projected column and row cluster |
//! | whole fragment (promote, write-through, checkpoint, statistics) | [`SegmentStore::get`] + [`decode_segment`] | the file |
//!
//! Per open segment only the parsed footer is resident
//! ([`SegmentReader::resident_bytes`]: about 1 % of the file); no decoded
//! data is cached between statements.
//!
//! # Integrity and crash safety
//!
//! Every block and zone a read interprets is CRC-verified *on that read*,
//! whichever call made it, and the error names the column and the block or
//! zone; damage to one column leaves the others readable. The footer CRC is
//! verified at open. A valid CRC proves integrity, not honesty: every count
//! in the footer is bounded by the bytes that remain before anything is
//! allocated for it, so a hostile or version-skewed file is an
//! [`Error::Io`], never an abort.
//!
//! Segment files are a **derived cache** of WAL state: recovery re-creates
//! them from replayed in-memory data (see the engine's durability module),
//! so a corrupt or missing segment is an availability problem for reads on
//! that fragment, never a correctness problem for recovery. That is also
//! why there is no reader for the previous `HSDSEG1` format: a segment in
//! an old format is re-derived like a damaged one, and checkpoints — which
//! embed segment bytes — carry their own version and fall back to log
//! replay. [`SegmentStore`] writes files atomically (`tmp` + fsync +
//! rename) so a crash mid-write leaves either the old segment or none; a
//! reader opened on the old file keeps reading it.

use std::borrow::Cow;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use hsd_types::{ColumnIdx, Error, Result, TableSchema, Value};

use crate::bitpack::{BitPackedVec, BLOCK};
use crate::column_store::{ColumnData, ColumnTable};
use crate::dictionary::Dictionary;
use crate::wal::crc32;

/// File magic: `HSDSEG` + format version `2` + NUL.
pub const SEGMENT_MAGIC: [u8; 8] = *b"HSDSEG2\0";

// ---------------------------------------------------------------------------
// Tagged value encoding

/// Append the tagged encoding of `v` to `out` (see the module docs for the
/// byte layout).
pub fn write_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Int(x) => {
            out.push(1);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::BigInt(x) => {
            out.push(2);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::Double(x) => {
            out.push(3);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Decimal(x) => {
            out.push(4);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::Text(s) => {
            out.push(5);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Date(x) => {
            out.push(6);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::Bool(x) => {
            out.push(7);
            out.push(*x as u8);
        }
    }
}

/// Decode one tagged value at `*pos`, advancing `*pos` past it.
pub fn read_value(bytes: &[u8], pos: &mut usize) -> Result<Value> {
    let tag = *bytes
        .get(*pos)
        .ok_or_else(|| Error::Io("value encoding truncated at tag".into()))?;
    *pos += 1;
    let mut take = |n: usize| -> Result<&[u8]> {
        let s = bytes
            .get(*pos..*pos + n)
            .ok_or_else(|| Error::Io("value encoding truncated in payload".into()))?;
        *pos += n;
        Ok(s)
    };
    Ok(match tag {
        0 => Value::Null,
        1 => Value::Int(i32::from_le_bytes(take(4)?.try_into().unwrap())),
        2 => Value::BigInt(i64::from_le_bytes(take(8)?.try_into().unwrap())),
        3 => Value::Double(f64::from_bits(u64::from_le_bytes(
            take(8)?.try_into().unwrap(),
        ))),
        4 => Value::Decimal(i64::from_le_bytes(take(8)?.try_into().unwrap())),
        5 => {
            let len = u32::from_le_bytes(take(4)?.try_into().unwrap()) as usize;
            let s = std::str::from_utf8(take(len)?)
                .map_err(|_| Error::Io("value encoding: invalid UTF-8 in text".into()))?;
            Value::text(s)
        }
        6 => Value::Date(i32::from_le_bytes(take(4)?.try_into().unwrap())),
        7 => Value::Bool(take(1)?[0] != 0),
        other => return Err(Error::Io(format!("value encoding: unknown tag {other}"))),
    })
}

// ---------------------------------------------------------------------------
// Layout

/// Dictionary entries per independently CRC'd dictionary block — the unit a
/// point read fetches to decode one code.
const DICT_BLOCK: usize = 64;

/// Packed code words per independently CRC'd zone — the unit a point read
/// fetches to extract one code, and the granularity of the zone maps. A
/// multiple of 64, so every zone starts on a 64-row boundary whatever the
/// code width (what [`BitPackedVec::match_interval_into`] requires).
const ZONE_WORDS: usize = 128;

/// Trailer: footer length (u32) + footer CRC (u32).
const TRAILER_LEN: usize = 8;

/// Fixed part of a footer column record:
/// dictionary length, sorted/tail counts, epoch, width, zone-map flag.
const COLUMN_RECORD_LEN: usize = 8 + 4 + 4 + 8 + 1 + 1;

fn u32_at(bytes: &[u8], pos: &mut usize, what: &str) -> Result<u32> {
    let s = bytes
        .get(*pos..*pos + 4)
        .ok_or_else(|| Error::Io(format!("segment truncated at {what}")))?;
    *pos += 4;
    Ok(u32::from_le_bytes(s.try_into().unwrap()))
}

fn u64_at(bytes: &[u8], pos: &mut usize, what: &str) -> Result<u64> {
    let s = bytes
        .get(*pos..*pos + 8)
        .ok_or_else(|| Error::Io(format!("segment truncated at {what}")))?;
    *pos += 8;
    Ok(u64::from_le_bytes(s.try_into().unwrap()))
}

/// Packed words `rows` codes of `width` bits occupy.
fn word_count(rows: usize, width: u8) -> usize {
    if width == 0 {
        0
    } else {
        rows.div_ceil(64 / (width as usize + 1))
    }
}

/// Rows one code zone of a `width`-bit column covers (the whole column at
/// width 0, which has no words: one virtual all-zero zone).
fn zone_rows(width: u8, rows: usize) -> usize {
    match width {
        0 => rows.max(1),
        w => ZONE_WORDS * (64 / (w as usize + 1)),
    }
}

/// Footer directory entry of one column: where its two regions are and how
/// to verify and interpret any block or zone of them on its own.
#[derive(Debug)]
struct ColumnMeta {
    /// File offset of the dictionary region (the running sum of the region
    /// lengths before it); the code-word region follows it.
    offset: u64,
    dict_len: usize,
    sorted_len: usize,
    tail_len: usize,
    epoch: u64,
    width: u8,
    /// Per dictionary block: end offset within the dictionary region, CRC.
    blocks: Vec<(u32, u32)>,
    /// Per code zone: CRC of the zone's bytes.
    zone_crcs: Vec<u32>,
    /// Per code zone: smallest and largest code (primary-key columns only).
    zone_map: Vec<(u32, u32)>,
}

impl ColumnMeta {
    fn sorted_blocks(&self) -> usize {
        self.sorted_len.div_ceil(DICT_BLOCK)
    }

    /// Dictionary entries in block `b` (blocks never straddle the
    /// sorted/tail boundary).
    fn block_entries(&self, b: usize) -> usize {
        let (region_len, b) = match b.checked_sub(self.sorted_blocks()) {
            None => (self.sorted_len, b),
            Some(tb) => (self.tail_len, tb),
        };
        DICT_BLOCK.min(region_len - b * DICT_BLOCK)
    }

    /// Byte range of dictionary block `b` within the dictionary region.
    fn block_range(&self, b: usize) -> std::ops::Range<usize> {
        let start = if b == 0 { 0 } else { self.blocks[b - 1].0 };
        start as usize..self.blocks[b].0 as usize
    }

    fn region_len(&self, rows: usize) -> usize {
        self.dict_len + word_count(rows, self.width) * 8
    }

    fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.blocks.capacity() * 8
            + self.zone_crcs.capacity() * 4
            + self.zone_map.capacity() * 8
    }
}

/// The parsed footer: everything that stays resident per open segment.
#[derive(Debug)]
struct Footer {
    rows: usize,
    columns: Vec<ColumnMeta>,
}

fn corrupt(table: &str, what: impl std::fmt::Display) -> Error {
    Error::Io(format!("segment for {table}: {what}"))
}

impl Footer {
    /// Locate, verify and parse the footer of a segment of `len` bytes
    /// read through `read(offset, length)`.
    fn load<'a>(
        schema: &TableSchema,
        len: u64,
        read: impl Fn(u64, usize) -> Result<Cow<'a, [u8]>>,
    ) -> Result<Footer> {
        let table = &schema.name;
        let fixed = (SEGMENT_MAGIC.len() + TRAILER_LEN) as u64;
        if len < fixed {
            return Err(corrupt(table, format!("too short ({len} bytes)")));
        }
        if *read(0, SEGMENT_MAGIC.len())? != SEGMENT_MAGIC {
            return Err(corrupt(
                table,
                "bad magic (not a segment file, or an unsupported format version)",
            ));
        }
        let trailer = read(len - TRAILER_LEN as u64, TRAILER_LEN)?;
        let footer_len = u32::from_le_bytes(trailer[..4].try_into().unwrap()) as u64;
        let stored_crc = u32::from_le_bytes(trailer[4..].try_into().unwrap());
        if footer_len > len - fixed {
            return Err(corrupt(
                table,
                format!("footer length {footer_len} exceeds the file"),
            ));
        }
        let footer_start = len - TRAILER_LEN as u64 - footer_len;
        // The CRC covers the footer body and its length field.
        let body = read(footer_start, footer_len as usize + 4)?;
        let actual_crc = crc32(&body);
        if stored_crc != actual_crc {
            return Err(corrupt(
                table,
                format!(
                    "footer failed its CRC check (stored {stored_crc:#010x}, \
                     computed {actual_crc:#010x})"
                ),
            ));
        }
        let footer = Footer::parse(table, &body[..footer_len as usize], footer_start)?;
        if footer.columns.len() != schema.arity() {
            return Err(Error::InvalidOperation(format!(
                "segment for {table} has {} columns, schema expects {}",
                footer.columns.len(),
                schema.arity()
            )));
        }
        Ok(footer)
    }

    /// Parse a CRC-verified footer body. A valid CRC does not make the
    /// counts trustworthy (a hostile or version-skewed writer computes
    /// CRCs too): every count is bounded by the bytes that remain before
    /// anything is allocated for it, and the regions must tile
    /// `[magic, footer_start)` exactly.
    fn parse(table: &str, body: &[u8], footer_start: u64) -> Result<Footer> {
        let mut pos = 0;
        let column_count = u32_at(body, &mut pos, "column count")? as usize;
        let rows = u32_at(body, &mut pos, "row count")? as usize;
        if column_count > (body.len() - pos) / COLUMN_RECORD_LEN {
            return Err(corrupt(
                table,
                format!("{column_count} columns do not fit the footer"),
            ));
        }
        let mut columns = Vec::with_capacity(column_count);
        let mut offset = SEGMENT_MAGIC.len() as u64;
        for c in 0..column_count {
            let bad = |what: String| corrupt(table, format!("column {c} {what}"));
            let dict_len = u64_at(body, &mut pos, "dictionary length")?;
            let sorted_len = u32_at(body, &mut pos, "sorted length")? as usize;
            let tail_len = u32_at(body, &mut pos, "tail length")? as usize;
            let epoch = u64_at(body, &mut pos, "merge epoch")?;
            let (width, zone_mapped) = match body.get(pos..pos + 2) {
                Some(&[w, z]) => (w, z),
                _ => return Err(bad("record truncated".into())),
            };
            pos += 2;
            if width > 32 || zone_mapped > 1 {
                return Err(bad(format!(
                    "has invalid code width {width} / zone-map flag {zone_mapped}"
                )));
            }
            let words_len = word_count(rows, width) as u64 * 8;
            let end = offset
                .checked_add(dict_len)
                .and_then(|e| e.checked_add(words_len))
                .filter(|&e| e <= footer_start)
                .ok_or_else(|| {
                    bad(format!(
                        "regions at {offset}+{dict_len}+{words_len} overrun the footer"
                    ))
                })?;
            // Every entry is at least its tag byte.
            if (sorted_len + tail_len) as u64 > dict_len {
                return Err(bad(format!(
                    "claims {sorted_len}+{tail_len} dictionary entries in {dict_len} bytes"
                )));
            }
            let dict_len = dict_len as usize;
            let n_blocks = sorted_len.div_ceil(DICT_BLOCK) + tail_len.div_ceil(DICT_BLOCK);
            let n_zones = word_count(rows, width).div_ceil(ZONE_WORDS);
            let zone_bytes = if zone_mapped == 1 { 12 } else { 4 };
            if n_blocks * 8 + n_zones * zone_bytes > body.len() - pos {
                return Err(bad(format!(
                    "directory ({n_blocks} blocks, {n_zones} zones) does not fit the footer"
                )));
            }
            let mut blocks = Vec::with_capacity(n_blocks);
            let mut block_start = 0;
            for _ in 0..n_blocks {
                let block_end = u32_at(body, &mut pos, "block end")?;
                let crc = u32_at(body, &mut pos, "block crc")?;
                if block_end <= block_start || block_end as usize > dict_len {
                    return Err(bad("dictionary block offsets are not increasing".into()));
                }
                block_start = block_end;
                blocks.push((block_end, crc));
            }
            if block_start as usize != dict_len {
                return Err(bad("dictionary blocks do not cover the region".into()));
            }
            let mut zone_crcs = Vec::with_capacity(n_zones);
            for _ in 0..n_zones {
                zone_crcs.push(u32_at(body, &mut pos, "zone crc")?);
            }
            let mut zone_map = Vec::new();
            if zone_mapped == 1 {
                zone_map.reserve_exact(n_zones);
                for _ in 0..n_zones {
                    let min = u32_at(body, &mut pos, "zone min")?;
                    zone_map.push((min, u32_at(body, &mut pos, "zone max")?));
                }
            }
            columns.push(ColumnMeta {
                offset: std::mem::replace(&mut offset, end),
                dict_len,
                sorted_len,
                tail_len,
                epoch,
                width,
                blocks,
                zone_crcs,
                zone_map,
            });
        }
        if pos != body.len() || offset != footer_start {
            return Err(corrupt(
                table,
                "footer does not account for every byte of the file",
            ));
        }
        Ok(Footer { rows, columns })
    }
}

// ---------------------------------------------------------------------------
// Whole-fragment encode / decode

/// Serialize a column table into the segment byte format (see the module
/// docs). The table need not be compacted: a live dictionary tail is
/// persisted region-exact and restores identically. The output is a pure
/// function of the table (byte-stable across calls).
///
/// ```
/// use std::sync::Arc;
/// use hsd_storage::segment::{decode_segment, encode_segment};
/// use hsd_storage::ColumnTable;
/// use hsd_types::{ColumnDef, ColumnType, TableSchema, Value};
///
/// let schema = Arc::new(
///     TableSchema::new(
///         "t",
///         vec![
///             ColumnDef::new("id", ColumnType::Integer),
///             ColumnDef::new("name", ColumnType::Varchar),
///         ],
///         vec![0],
///     )
///     .unwrap(),
/// );
/// let mut t = ColumnTable::new(schema.clone());
/// t.insert(&[Value::Int(1), Value::text("a")]).unwrap();
/// t.insert(&[Value::Int(2), Value::text("b")]).unwrap();
/// let bytes = encode_segment(&t);
/// let back = decode_segment(schema, &bytes).unwrap();
/// assert_eq!(back.row_count(), 2);
/// assert_eq!(back.row(1), vec![Value::Int(2), Value::text("b")]);
/// ```
pub fn encode_segment(table: &ColumnTable) -> Vec<u8> {
    let schema = table.schema();
    let mut out = Vec::new();
    out.extend_from_slice(&SEGMENT_MAGIC);
    let mut footer = Vec::new();
    footer.extend_from_slice(&(schema.arity() as u32).to_le_bytes());
    footer.extend_from_slice(&(table.row_count() as u32).to_le_bytes());
    let mut codes = [0u32; BLOCK];
    for c in 0..schema.arity() {
        let col = table.column(c);
        let dict = col.dictionary();
        let packed = col.codes();
        let offset = out.len();
        // Dictionary region: sorted values then tail values, cut into
        // blocks that never straddle the sorted/tail boundary.
        let mut blocks: Vec<(u32, u32)> = Vec::new();
        let mut block_start = out.len();
        for (i, v) in dict.values().enumerate() {
            write_value(&mut out, v);
            let region_pos = if i < dict.sorted_len() {
                i
            } else {
                i - dict.sorted_len()
            };
            let last = i + 1 == dict.sorted_len() || i + 1 == dict.len();
            if last || (region_pos + 1) % DICT_BLOCK == 0 {
                let end = u32::try_from(out.len() - offset)
                    .expect("a column dictionary region stays under 4 GiB");
                blocks.push((end, crc32(&out[block_start..])));
                block_start = out.len();
            }
        }
        let dict_len = out.len() - offset;
        // Code-word region, cut into zones.
        let zone_mapped = schema.is_pk_column(c);
        let zone_rows = zone_rows(packed.width(), packed.len());
        let mut zone_crcs = Vec::new();
        let mut zone_map = Vec::new();
        for (z, zone) in packed.words().chunks(ZONE_WORDS).enumerate() {
            let start = out.len();
            for w in zone {
                out.extend_from_slice(&w.to_le_bytes());
            }
            zone_crcs.push(crc32(&out[start..]));
            if zone_mapped {
                let (mut min, mut max) = (u32::MAX, 0);
                let zone_end = packed.len().min((z + 1) * zone_rows);
                let mut row = z * zone_rows;
                while row < zone_end {
                    let run = &mut codes[..BLOCK.min(zone_end - row)];
                    packed.decode_into(row, run);
                    min = run.iter().fold(min, |m, &c| m.min(c));
                    max = run.iter().fold(max, |m, &c| m.max(c));
                    row += run.len();
                }
                zone_map.push((min, max));
            }
        }
        footer.extend_from_slice(&(dict_len as u64).to_le_bytes());
        footer.extend_from_slice(&(dict.sorted_len() as u32).to_le_bytes());
        footer.extend_from_slice(&(dict.tail_len() as u32).to_le_bytes());
        footer.extend_from_slice(&col.merge_epoch().to_le_bytes());
        footer.push(packed.width());
        footer.push(zone_mapped as u8);
        for (end, crc) in blocks {
            footer.extend_from_slice(&end.to_le_bytes());
            footer.extend_from_slice(&crc.to_le_bytes());
        }
        for crc in zone_crcs {
            footer.extend_from_slice(&crc.to_le_bytes());
        }
        for (min, max) in zone_map {
            footer.extend_from_slice(&min.to_le_bytes());
            footer.extend_from_slice(&max.to_le_bytes());
        }
    }
    let footer_len = u32::try_from(footer.len()).expect("a segment footer stays under 4 GiB");
    footer.extend_from_slice(&footer_len.to_le_bytes());
    let crc = crc32(&footer);
    out.extend_from_slice(&footer);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// The values of dictionary block `b` of column `c`, CRC-verified.
fn block_values(
    table: &str,
    c: usize,
    meta: &ColumnMeta,
    b: usize,
    block: &[u8],
    out: &mut Vec<Value>,
) -> Result<()> {
    if crc32(block) != meta.blocks[b].1 {
        return Err(corrupt(
            table,
            format!("column {c} dictionary block {b} failed its CRC check"),
        ));
    }
    let mut pos = 0;
    for _ in 0..meta.block_entries(b) {
        out.push(read_value(block, &mut pos)?);
    }
    if pos != block.len() {
        return Err(corrupt(
            table,
            format!("column {c} dictionary block {b} has trailing bytes"),
        ));
    }
    Ok(())
}

/// CRC-verify the bytes of code zone `z` of column `c`.
fn verify_zone(table: &str, c: usize, meta: &ColumnMeta, z: usize, zone: &[u8]) -> Result<()> {
    if crc32(zone) != meta.zone_crcs[z] {
        return Err(corrupt(
            table,
            format!("column {c} code zone {z} failed its CRC check"),
        ));
    }
    Ok(())
}

fn le_words(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
        .collect()
}

/// Restore one column from its two regions (`region` is the dictionary
/// region immediately followed by the code-word region): every block and
/// zone is CRC-verified, the dictionary is restored region-exact and the
/// packed words are adopted directly ([`BitPackedVec::from_raw_parts`]).
fn restore_column(
    table: &str,
    c: usize,
    meta: &ColumnMeta,
    rows: usize,
    region: &[u8],
) -> Result<ColumnData> {
    let (dict_bytes, word_bytes) = region.split_at(meta.dict_len);
    // Bounded: the footer parse checked the entry count against dict_len.
    let mut values = Vec::with_capacity(meta.sorted_len + meta.tail_len);
    for b in 0..meta.blocks.len() {
        block_values(
            table,
            c,
            meta,
            b,
            &dict_bytes[meta.block_range(b)],
            &mut values,
        )?;
    }
    let tail = values.split_off(meta.sorted_len);
    if !values.is_sorted() {
        return Err(corrupt(
            table,
            format!("column {c} sorted region out of order"),
        ));
    }
    let dict = Dictionary::from_regions(values, tail);
    for (z, zone) in word_bytes.chunks(ZONE_WORDS * 8).enumerate() {
        verify_zone(table, c, meta, z, zone)?;
    }
    let codes = BitPackedVec::from_raw_parts(le_words(word_bytes), meta.width, rows);
    ColumnData::try_from_parts(dict, codes, meta.epoch)
        .map_err(|e| corrupt(table, format!("column {c}: {e}")))
}

fn slice_at(bytes: &[u8], offset: u64, len: usize) -> Result<&[u8]> {
    usize::try_from(offset)
        .ok()
        .and_then(|start| bytes.get(start..start.checked_add(len)?))
        .ok_or_else(|| Error::Io(format!("segment read {offset}+{len} past the end")))
}

/// Decode a whole segment back into a [`ColumnTable`] under `schema` — the
/// whole-fragment path (promotion, write-through, checkpoints). Per-statement
/// reads go through [`SegmentReader`] instead.
///
/// Verifies the magic, the footer CRC and every block and zone CRC before
/// interpreting the bytes they cover; the primary-key index is rebuilt from
/// the decoded PK columns.
pub fn decode_segment(schema: Arc<TableSchema>, bytes: &[u8]) -> Result<ColumnTable> {
    let footer = Footer::load(&schema, bytes.len() as u64, |offset, len| {
        slice_at(bytes, offset, len).map(Cow::Borrowed)
    })?;
    let mut columns = Vec::with_capacity(footer.columns.len());
    for (c, meta) in footer.columns.iter().enumerate() {
        let region = slice_at(bytes, meta.offset, meta.region_len(footer.rows))?;
        columns.push(restore_column(&schema.name, c, meta, footer.rows, region)?);
    }
    ColumnTable::from_parts(schema, columns)
}

// ---------------------------------------------------------------------------
// In-place reads

/// A positional-read handle on one published segment
/// ([`SegmentStore::open`]). A handle keeps reading the bytes it was opened
/// on even after the name is republished or removed.
#[derive(Debug)]
pub enum SegmentHandle {
    /// The segment's bytes in the in-memory store.
    Mem(Arc<[u8]>),
    /// The open segment file of a directory store.
    File(std::fs::File),
}

impl SegmentHandle {
    /// Size of the segment in bytes.
    pub fn size(&self) -> Result<u64> {
        match self {
            SegmentHandle::Mem(bytes) => Ok(bytes.len() as u64),
            SegmentHandle::File(f) => f
                .metadata()
                .map(|m| m.len())
                .map_err(|e| Error::Io(format!("stat segment: {e}"))),
        }
    }

    /// The `len` bytes at `offset`.
    fn read_at(&self, offset: u64, len: usize) -> Result<Cow<'_, [u8]>> {
        match self {
            SegmentHandle::Mem(bytes) => slice_at(bytes, offset, len).map(Cow::Borrowed),
            SegmentHandle::File(f) => {
                let mut buf = vec![0u8; len];
                std::os::unix::fs::FileExt::read_exact_at(f, &mut buf, offset)
                    .map_err(|e| Error::Io(format!("segment read {offset}+{len}: {e}")))?;
                Ok(Cow::Owned(buf))
            }
        }
    }
}

/// Reads a segment in place. Only the footer directory is resident; the two
/// request classes fetch exactly what they need through the handle:
///
/// * **scan** — [`SegmentReader::column`] restores one whole column (one
///   positional read of its two adjacent regions) as a [`ColumnData`], so
///   filters, aggregation and joins run the ordinary batched kernels on it;
/// * **point** — [`SegmentReader::locate`] and [`SegmentReader::rows`]
///   resolve a primary key and materialise single rows from one code zone
///   and one dictionary block per column touched.
///
/// Every byte either class interprets was covered by a CRC verified on that
/// read.
///
/// ```
/// use std::sync::Arc;
/// use hsd_storage::segment::{encode_segment, SegmentReader, SegmentStore};
/// use hsd_storage::ColumnTable;
/// use hsd_types::{ColumnDef, ColumnType, TableSchema, Value};
///
/// let schema = Arc::new(
///     TableSchema::new(
///         "t",
///         vec![
///             ColumnDef::new("id", ColumnType::Integer),
///             ColumnDef::new("name", ColumnType::Varchar),
///         ],
///         vec![0],
///     )
///     .unwrap(),
/// );
/// let mut t = ColumnTable::new(schema.clone());
/// t.insert(&[Value::Int(1), Value::text("a")]).unwrap();
/// t.insert(&[Value::Int(2), Value::text("b")]).unwrap();
/// let store = SegmentStore::mem();
/// store.put("t.cold", encode_segment(&t)).unwrap();
///
/// let reader = SegmentReader::open(schema, store.open("t.cold").unwrap()).unwrap();
/// let idx = reader.locate(&[Value::Int(2)]).unwrap().unwrap();
/// assert_eq!(reader.rows(&[idx], Some(&[1])).unwrap(), vec![vec![Value::text("b")]]);
/// assert_eq!(reader.column(0).unwrap().value_at(0), &Value::Int(1));
/// ```
#[derive(Debug)]
pub struct SegmentReader {
    schema: Arc<TableSchema>,
    handle: SegmentHandle,
    footer: Footer,
    /// Bytes fetched through the handle since open (a statistic).
    bytes_read: AtomicU64,
}

impl SegmentReader {
    /// Open a segment for in-place reads: checks the magic, verifies and
    /// parses the footer, and validates the column count against `schema`.
    pub fn open(schema: Arc<TableSchema>, handle: SegmentHandle) -> Result<Self> {
        let bytes_read = AtomicU64::new(0);
        let footer = Footer::load(&schema, handle.size()?, |offset, len| {
            bytes_read.fetch_add(len as u64, Ordering::Relaxed);
            handle.read_at(offset, len)
        })?;
        Ok(SegmentReader {
            schema,
            handle,
            footer,
            bytes_read,
        })
    }

    /// Schema the segment was opened under.
    pub fn schema(&self) -> &Arc<TableSchema> {
        &self.schema
    }

    /// Rows in the segment.
    pub fn row_count(&self) -> usize {
        self.footer.rows
    }

    /// Merge epoch of the encoded table (sum of the per-column epochs, as
    /// [`ColumnTable::merge_epoch`] reports it).
    pub fn merge_epoch(&self) -> u64 {
        self.footer.columns.iter().map(|m| m.epoch).sum()
    }

    /// Heap bytes this reader keeps resident (the footer directory).
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .footer
                .columns
                .iter()
                .map(ColumnMeta::resident_bytes)
                .sum::<usize>()
    }

    /// Bytes fetched through the handle since [`SegmentReader::open`],
    /// footer included.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    fn read(&self, offset: u64, len: usize) -> Result<Cow<'_, [u8]>> {
        self.bytes_read.fetch_add(len as u64, Ordering::Relaxed);
        self.handle.read_at(offset, len)
    }

    fn meta(&self, col: ColumnIdx) -> Result<&ColumnMeta> {
        self.footer
            .columns
            .get(col)
            .ok_or_else(|| Error::UnknownColumn(format!("{}[{col}]", self.schema.name)))
    }

    /// Scan class: restore column `col` whole.
    pub fn column(&self, col: ColumnIdx) -> Result<ColumnData> {
        let meta = self.meta(col)?;
        let region = self.read(meta.offset, meta.region_len(self.footer.rows))?;
        restore_column(&self.schema.name, col, meta, self.footer.rows, &region)
    }

    /// The values of dictionary block `b` of column `col`.
    fn read_block(&self, col: ColumnIdx, meta: &ColumnMeta, b: usize) -> Result<Vec<Value>> {
        let range = meta.block_range(b);
        let block = self.read(meta.offset + range.start as u64, range.len())?;
        let mut values = Vec::with_capacity(meta.block_entries(b));
        block_values(&self.schema.name, col, meta, b, &block, &mut values)?;
        Ok(values)
    }

    /// The codes of zone `z` of column `col`.
    fn read_zone(&self, col: ColumnIdx, meta: &ColumnMeta, z: usize) -> Result<BitPackedVec> {
        let zone_rows = zone_rows(meta.width, self.footer.rows);
        let len = zone_rows.min(self.footer.rows - z * zone_rows);
        let words = if meta.width == 0 {
            Vec::new()
        } else {
            let first = z * ZONE_WORDS;
            let count = ZONE_WORDS.min(word_count(self.footer.rows, meta.width) - first);
            let offset = meta.offset + (meta.dict_len + first * 8) as u64;
            let zone = self.read(offset, count * 8)?;
            verify_zone(&self.schema.name, col, meta, z, &zone)?;
            le_words(&zone)
        };
        Ok(BitPackedVec::from_raw_parts(words, meta.width, len))
    }

    /// The dictionary codes of `rows` in column `col` (one zone fetched per
    /// run of rows sharing it).
    fn codes_at(&self, col: ColumnIdx, meta: &ColumnMeta, rows: &[u32]) -> Result<Vec<u32>> {
        let zone_rows = zone_rows(meta.width, self.footer.rows);
        let mut cached: Option<(usize, BitPackedVec)> = None;
        let mut codes = Vec::with_capacity(rows.len());
        for &row in rows {
            let row = row as usize;
            if row >= self.footer.rows {
                return Err(Error::NotFound(format!(
                    "row {row} in segment for {}",
                    self.schema.name
                )));
            }
            let z = row / zone_rows;
            if cached.as_ref().is_none_or(|(cz, _)| *cz != z) {
                cached = Some((z, self.read_zone(col, meta, z)?));
            }
            let (_, zone) = cached.as_ref().expect("zone cached above");
            codes.push(zone.get(row - z * zone_rows));
        }
        Ok(codes)
    }

    /// Decode `codes` of column `col`, fetching each dictionary block they
    /// fall in once.
    fn decode_codes(&self, col: ColumnIdx, meta: &ColumnMeta, codes: &[u32]) -> Result<Vec<Value>> {
        let mut order: Vec<usize> = (0..codes.len()).collect();
        order.sort_unstable_by_key(|&i| codes[i]);
        let mut out = vec![Value::Null; codes.len()];
        let mut cached: Option<(usize, Vec<Value>)> = None;
        for i in order {
            let code = codes[i] as usize;
            if code >= meta.sorted_len + meta.tail_len {
                return Err(corrupt(
                    &self.schema.name,
                    format!("column {col} has a code beyond its dictionary"),
                ));
            }
            let (b, entry) = match code.checked_sub(meta.sorted_len) {
                None => (code / DICT_BLOCK, code % DICT_BLOCK),
                Some(t) => (meta.sorted_blocks() + t / DICT_BLOCK, t % DICT_BLOCK),
            };
            if cached.as_ref().is_none_or(|(cb, _)| *cb != b) {
                cached = Some((b, self.read_block(col, meta, b)?));
            }
            out[i] = cached.as_ref().expect("block cached above").1[entry].clone();
        }
        Ok(out)
    }

    /// The code of `value` in column `col`'s dictionary: a binary search
    /// over the sorted region's blocks, then a pass over the tail's.
    fn code_for(&self, col: ColumnIdx, meta: &ColumnMeta, value: &Value) -> Result<Option<u32>> {
        let (mut lo, mut hi) = (0, meta.sorted_blocks());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let values = self.read_block(col, meta, mid)?;
            if value < &values[0] {
                hi = mid;
            } else if value > &values[values.len() - 1] {
                lo = mid + 1;
            } else {
                match values.binary_search(value) {
                    Ok(i) => return Ok(Some((mid * DICT_BLOCK + i) as u32)),
                    Err(_) => break,
                }
            }
        }
        for b in meta.sorted_blocks()..meta.blocks.len() {
            let values = self.read_block(col, meta, b)?;
            if let Some(i) = values.iter().position(|v| v == value) {
                let tail_pos = (b - meta.sorted_blocks()) * DICT_BLOCK + i;
                return Ok(Some((meta.sorted_len + tail_pos) as u32));
            }
        }
        Ok(None)
    }

    /// Point class: the row holding primary key `key`, if any.
    ///
    /// Each key part is resolved to its dictionary code (a value absent
    /// from a dictionary is a miss without touching a code word); the
    /// leading key column's zone map then names the zones that can hold
    /// that code, the code is SWAR-matched inside each candidate zone, and
    /// the remaining key columns are checked on the matching rows only.
    pub fn locate(&self, key: &[Value]) -> Result<Option<u32>> {
        let pk = &self.schema.primary_key;
        if key.len() != pk.len() || self.footer.rows == 0 {
            return Ok(None);
        }
        let mut codes = Vec::with_capacity(pk.len());
        for (&col, value) in pk.iter().zip(key) {
            match self.code_for(col, self.meta(col)?, value)? {
                Some(code) => codes.push(code),
                None => return Ok(None),
            }
        }
        let lead = self.meta(pk[0])?;
        let zone_rows = zone_rows(lead.width, self.footer.rows);
        let mut bits = vec![0u64; zone_rows.div_ceil(64)];
        for z in 0..self.footer.rows.div_ceil(zone_rows) {
            // A segment written without a zone map scans every zone.
            let may_hold = |&(min, max): &(u32, u32)| min <= codes[0] && codes[0] <= max;
            if !lead.zone_map.get(z).is_none_or(may_hold) {
                continue;
            }
            let zone = self.read_zone(pk[0], lead, z)?;
            zone.match_interval_into(
                0,
                zone.len(),
                codes[0],
                codes[0].saturating_add(1),
                &mut bits,
            );
            let mut candidates: Vec<u32> = Vec::new();
            for (w, &word) in bits[..zone.len().div_ceil(64)].iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    let row = z * zone_rows + w * 64 + word.trailing_zeros() as usize;
                    candidates.push(row as u32);
                    word &= word - 1;
                }
            }
            for (&col, &code) in pk.iter().zip(&codes).skip(1) {
                if candidates.is_empty() {
                    break;
                }
                let found = self.codes_at(col, self.meta(col)?, &candidates)?;
                let mut found = found.iter();
                candidates.retain(|_| found.next() == Some(&code));
            }
            if let Some(&row) = candidates.first() {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }

    /// Point class: materialise `rows`, optionally projected to `cols`
    /// (`None` = every column) — per column, the code zones and dictionary
    /// blocks those rows fall in, nothing else.
    pub fn rows(&self, rows: &[u32], cols: Option<&[ColumnIdx]>) -> Result<Vec<Vec<Value>>> {
        let all: Vec<ColumnIdx>;
        let cols = match cols {
            Some(c) => c,
            None => {
                all = (0..self.footer.columns.len()).collect();
                &all
            }
        };
        let mut out: Vec<Vec<Value>> = rows
            .iter()
            .map(|_| Vec::with_capacity(cols.len()))
            .collect();
        for &col in cols {
            let meta = self.meta(col)?;
            let codes = self.codes_at(col, meta, rows)?;
            for (row, value) in out.iter_mut().zip(self.decode_codes(col, meta, &codes)?) {
                row.push(value);
            }
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Segment store

/// Where segment files live: a real directory, or an in-memory map.
///
/// The in-memory backend exists for the same reason the WAL has
/// [`crate::MemBackend`]: WAL replay and the crash-point property tests
/// must be able to reconstruct demoted fragments without touching the
/// filesystem, and a database created with no directory
/// (`HybridDatabase::new`) still supports the full demote/promote
/// lifecycle. Both backends expose the same atomic-publish semantics:
/// [`SegmentStore::put`] makes the new bytes visible all-or-nothing (the
/// directory backend writes a temp file, fsyncs, and renames over the
/// final name).
///
/// ```
/// use hsd_storage::segment::SegmentStore;
/// let store = SegmentStore::mem();
/// store.put("t", vec![1, 2, 3]).unwrap();
/// assert_eq!(&*store.get("t").unwrap(), &[1, 2, 3]);
/// store.remove("t").unwrap();
/// assert!(store.get("t").is_err());
/// ```
#[derive(Debug)]
pub enum SegmentStore {
    /// Segments held in a process-local map (tests, replay, dir-less
    /// databases).
    Mem(Mutex<HashMap<String, Arc<[u8]>>>),
    /// Segments as files under a directory, one `<name>.seg` per segment.
    Dir(PathBuf),
}

impl Default for SegmentStore {
    /// Defaults to the in-memory backend (what a directory-less database
    /// uses).
    fn default() -> Self {
        SegmentStore::mem()
    }
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> Error {
    Error::Io(format!("{what} {}: {e}", path.display()))
}

/// Atomically publish `bytes` at `path`: write them to `tmp` (a sibling
/// of `path`), fsync the file, rename it over `path`, then fsync the
/// parent directory so the rename itself is durable.
///
/// Every step's failure — the directory fsync included — is returned as
/// [`Error::Io`]: a caller that goes on to retire older files (the
/// checkpoint retention loop) must not do so after a rename that was
/// never persisted. Used by [`SegmentStore::put`] and the engine's
/// checkpoint writer.
pub fn publish_atomic(tmp: &Path, path: &Path, bytes: &[u8]) -> Result<()> {
    std::fs::write(tmp, bytes).map_err(|e| io_err("write", tmp, e))?;
    std::fs::File::open(tmp)
        .and_then(|f| f.sync_all())
        .map_err(|e| io_err("sync", tmp, e))?;
    std::fs::rename(tmp, path).map_err(|e| io_err("publish", path, e))?;
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err("sync directory", dir, e))
}

impl SegmentStore {
    /// An empty in-memory store.
    pub fn mem() -> Self {
        SegmentStore::Mem(Mutex::new(HashMap::new()))
    }

    /// A directory-backed store rooted at `dir` (created if absent).
    pub fn dir(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| io_err("create segment dir", &dir, e))?;
        Ok(SegmentStore::Dir(dir))
    }

    fn path_of(dir: &Path, name: &str) -> PathBuf {
        dir.join(format!("{name}.seg"))
    }

    /// Publish `bytes` under `name`, replacing any previous segment
    /// atomically (temp file + fsync + rename for the directory backend).
    pub fn put(&self, name: &str, bytes: Vec<u8>) -> Result<()> {
        match self {
            SegmentStore::Mem(map) => {
                map.lock()
                    .expect("segment store poisoned")
                    .insert(name.to_string(), bytes.into());
                Ok(())
            }
            SegmentStore::Dir(dir) => {
                let tmp = dir.join(format!("{name}.seg.tmp"));
                publish_atomic(&tmp, &Self::path_of(dir, name), &bytes)
            }
        }
    }

    /// Fetch the current bytes of segment `name`.
    pub fn get(&self, name: &str) -> Result<Arc<[u8]>> {
        match self {
            SegmentStore::Mem(map) => map
                .lock()
                .expect("segment store poisoned")
                .get(name)
                .cloned()
                .ok_or_else(|| Error::NotFound(format!("segment {name}"))),
            SegmentStore::Dir(dir) => {
                let path = Self::path_of(dir, name);
                std::fs::read(&path)
                    .map(Arc::from)
                    .map_err(|e| io_err("read segment", &path, e))
            }
        }
    }

    /// Open segment `name` for positional reads (the handle a
    /// [`SegmentReader`] reads through).
    pub fn open(&self, name: &str) -> Result<SegmentHandle> {
        match self {
            SegmentStore::Mem(_) => self.get(name).map(SegmentHandle::Mem),
            SegmentStore::Dir(dir) => {
                let path = Self::path_of(dir, name);
                std::fs::File::open(&path)
                    .map(SegmentHandle::File)
                    .map_err(|e| io_err("open segment", &path, e))
            }
        }
    }

    /// Delete segment `name` (a no-op if it is already gone).
    pub fn remove(&self, name: &str) -> Result<()> {
        match self {
            SegmentStore::Mem(map) => {
                map.lock().expect("segment store poisoned").remove(name);
                Ok(())
            }
            SegmentStore::Dir(dir) => {
                let path = Self::path_of(dir, name);
                match std::fs::remove_file(&path) {
                    Ok(()) => Ok(()),
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
                    Err(e) => Err(io_err("remove segment", &path, e)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsd_types::{ColumnDef, ColumnType};

    fn schema() -> Arc<TableSchema> {
        Arc::new(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", ColumnType::Integer),
                    ColumnDef::new("price", ColumnType::Double),
                    ColumnDef::new("status", ColumnType::Varchar),
                ],
                vec![0],
            )
            .unwrap(),
        )
    }

    fn sample(rows: i32) -> ColumnTable {
        let mut t = ColumnTable::new(schema());
        let statuses = ["new", "paid", "shipped"];
        for i in 0..rows {
            t.insert(&[
                Value::Int(i),
                Value::Double((i % 7) as f64 / 2.0),
                Value::text(statuses[i as usize % 3]),
            ])
            .unwrap();
        }
        t.compact();
        t
    }

    #[test]
    fn value_codec_round_trips_every_variant() {
        let vals = [
            Value::Null,
            Value::Int(-42),
            Value::BigInt(i64::MIN),
            Value::Double(std::f64::consts::PI),
            Value::Double(-0.0),
            Value::Decimal(123_456_789),
            Value::text(""),
            Value::text("héllo wörld"),
            Value::Date(19_000),
            Value::Bool(true),
            Value::Bool(false),
        ];
        let mut buf = Vec::new();
        for v in &vals {
            write_value(&mut buf, v);
        }
        let mut pos = 0;
        for v in &vals {
            let got = read_value(&buf, &mut pos).unwrap();
            // Bit-exact doubles (incl. -0.0) matter for round-trips.
            match (&got, v) {
                (Value::Double(a), Value::Double(b)) => {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
                _ => assert_eq!(&got, v),
            }
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn value_codec_rejects_truncation_and_bad_tags() {
        let mut buf = Vec::new();
        write_value(&mut buf, &Value::text("abcdef"));
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(read_value(&buf[..cut], &mut pos).is_err(), "cut {cut}");
        }
        let mut pos = 0;
        assert!(read_value(&[99], &mut pos).is_err());
    }

    #[test]
    fn segment_round_trips_compacted_table() {
        let t = sample(500);
        let bytes = encode_segment(&t);
        let back = decode_segment(schema(), &bytes).unwrap();
        assert_eq!(back.row_count(), t.row_count());
        assert_eq!(back.merge_epoch(), t.merge_epoch());
        assert_eq!(back.tail_total(), 0);
        for r in 0..500u32 {
            assert_eq!(back.row(r), t.row(r), "row {r}");
        }
        // The restored PK index answers point lookups.
        assert_eq!(back.point_lookup(&[Value::Int(123)]), Some(123));
        // Scans agree (restored codes go through the same kernels).
        let range = ColRange::ge(1, Value::Double(2.0));
        assert_eq!(
            back.filter_rows(std::slice::from_ref(&range)),
            t.filter_rows(std::slice::from_ref(&range))
        );
    }

    use crate::predicate::ColRange;

    #[test]
    fn segment_round_trips_live_tail() {
        let mut t = sample(64);
        // Leave both updated codes and a dictionary tail in place.
        t.update_rows(&[3, 9], &[(1, Value::Double(99.5))]).unwrap();
        t.update_rows(&[5], &[(2, Value::text("returned"))])
            .unwrap();
        assert!(t.tail_total() > 0);
        let bytes = encode_segment(&t);
        let back = decode_segment(schema(), &bytes).unwrap();
        assert_eq!(back.tail_total(), t.tail_total());
        for r in 0..64u32 {
            assert_eq!(back.row(r), t.row(r), "row {r}");
        }
        // The restored tail lookup still interns to the same codes.
        let mut restored = back;
        restored
            .update_rows(&[4], &[(1, Value::Double(99.5))])
            .unwrap();
        assert_eq!(restored.tail_total(), t.tail_total(), "no re-interning");
    }

    #[test]
    fn segment_round_trips_empty_table() {
        let t = ColumnTable::new(schema());
        let bytes = encode_segment(&t);
        let back = decode_segment(schema(), &bytes).unwrap();
        assert_eq!(back.row_count(), 0);
    }

    #[test]
    fn corruption_is_detected_at_every_byte() {
        let t = sample(40);
        let bytes = encode_segment(&t);
        // Flip each byte (sampled stride to keep the test fast) — decode
        // must fail rather than return wrong data. Flips inside the magic
        // fail the magic check; anywhere else, the CRC.
        for i in (0..bytes.len()).step_by(3) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                decode_segment(schema(), &bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
        // Truncations too.
        for cut in [0, 7, 8, 15, 16, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_segment(schema(), &bytes[..cut]).is_err(),
                "truncation to {cut} went undetected"
            );
        }
    }

    /// `bytes` with its footer body rewritten by `edit` and re-sealed
    /// (length field and CRC recomputed): a CRC-valid hostile file.
    fn resealed(bytes: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let end = bytes.len() - TRAILER_LEN;
        let footer_len = u32::from_le_bytes(bytes[end..end + 4].try_into().unwrap()) as usize;
        let start = end - footer_len;
        let mut footer = bytes[start..end].to_vec();
        edit(&mut footer);
        let footer_len = footer.len() as u32;
        footer.extend_from_slice(&footer_len.to_le_bytes());
        let mut out = bytes[..start].to_vec();
        out.extend_from_slice(&footer);
        out.extend_from_slice(&crc32(&footer).to_le_bytes());
        out
    }

    fn mem_reader(bytes: Vec<u8>) -> Result<SegmentReader> {
        SegmentReader::open(schema(), SegmentHandle::Mem(bytes.into()))
    }

    #[test]
    fn hostile_counts_with_a_valid_crc_are_typed_errors() {
        let bytes = encode_segment(&sample(40));
        // Offsets inside the footer body: counts, then column 0's record.
        let col0 = 8;
        let edits: [(&str, usize, &[u8]); 6] = [
            ("column count", 0, &u32::MAX.to_le_bytes()),
            ("row count", 4, &u32::MAX.to_le_bytes()),
            ("dictionary length", col0, &u64::MAX.to_le_bytes()),
            ("sorted length", col0 + 8, &u32::MAX.to_le_bytes()),
            ("tail length", col0 + 12, &u32::MAX.to_le_bytes()),
            ("code width", col0 + 24, &[0]),
        ];
        for (what, at, value) in edits {
            let hostile = resealed(&bytes, |f| f[at..at + value.len()].copy_from_slice(value));
            for outcome in [
                decode_segment(schema(), &hostile).map(|_| ()),
                mem_reader(hostile.clone()).map(|_| ()),
            ] {
                assert!(
                    matches!(outcome, Err(Error::Io(_))),
                    "hostile {what}: {outcome:?}"
                );
            }
        }
        // A footer cut short anywhere (still CRC-valid) is rejected too.
        let footer_len = bytes.len() - TRAILER_LEN - {
            let end = bytes.len() - TRAILER_LEN;
            end - u32::from_le_bytes(bytes[end..end + 4].try_into().unwrap()) as usize
        };
        for keep in 0..footer_len {
            let hostile = resealed(&bytes, |f| f.truncate(keep));
            assert!(
                decode_segment(schema(), &hostile).is_err(),
                "footer cut to {keep}"
            );
        }
    }

    #[test]
    fn reader_answers_like_the_decoded_table() {
        let mut t = sample(700);
        t.update_rows(&[5, 640], &[(2, Value::text("returned"))])
            .unwrap();
        assert!(t.tail_total() > 0, "a live tail is part of the case");
        let bytes = encode_segment(&t);
        assert_eq!(encode_segment(&t), bytes, "encoding is byte-stable");
        let segment_len = bytes.len() as u64;
        let r = mem_reader(bytes).unwrap();
        assert_eq!(r.row_count(), 700);
        assert_eq!(r.merge_epoch(), t.merge_epoch());
        assert!(
            r.bytes_read() < segment_len / 4,
            "open reads the footer only"
        );
        for c in 0..3 {
            let col = r.column(c).unwrap();
            assert_eq!(col.tail_len(), t.column(c).tail_len());
            for row in 0..700 {
                assert_eq!(col.value_at(row), t.column(c).value_at(row));
            }
        }
        for id in [0, 1, 63, 64, 350, 699] {
            let idx = r.locate(&[Value::Int(id)]).unwrap();
            assert_eq!(idx, t.point_lookup(&[Value::Int(id)]));
            assert_eq!(
                r.rows(&[idx.unwrap()], None).unwrap(),
                vec![t.row(id as u32)]
            );
        }
        for miss in [Value::Int(-1), Value::Int(700), Value::text("x")] {
            assert_eq!(r.locate(&[miss]).unwrap(), None);
        }
        assert_eq!(r.locate(&[]).unwrap(), None, "wrong key arity is a miss");
        // Projection order and descending row order are the caller's.
        assert_eq!(
            r.rows(&[640, 5], Some(&[2, 0])).unwrap(),
            vec![
                vec![Value::text("returned"), Value::Int(640)],
                vec![Value::text("returned"), Value::Int(5)],
            ]
        );
        assert!(matches!(r.rows(&[700], None), Err(Error::NotFound(_))));
        assert!(matches!(r.column(3), Err(Error::UnknownColumn(_))));
    }

    #[test]
    fn a_flip_fails_reads_of_its_region_and_no_others() {
        let mut t = sample(300);
        t.update_rows(&[7], &[(2, Value::text("returned"))])
            .unwrap();
        let bytes = encode_segment(&t);
        let footer = Footer::load(&schema(), bytes.len() as u64, |offset, len| {
            slice_at(&bytes, offset, len).map(Cow::Borrowed)
        })
        .unwrap();
        let regions_end = footer
            .columns
            .last()
            .map_or(0, |m| m.offset as usize + m.region_len(footer.rows));
        let all: Vec<u32> = (0..300).collect();
        let expected: Vec<Vec<Vec<Value>>> = (0..3)
            .map(|c| {
                all.iter()
                    .map(|&r| vec![t.value_at(r, c).clone()])
                    .collect()
            })
            .collect();
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            let opened = mem_reader(bad);
            if pos < SEGMENT_MAGIC.len() || pos >= regions_end {
                // Magic, footer or trailer: nothing is readable.
                assert!(matches!(opened, Err(Error::Io(_))), "flip at {pos}");
                continue;
            }
            let r = opened.unwrap();
            let k = footer
                .columns
                .iter()
                .rposition(|m| m.offset as usize <= pos)
                .unwrap();
            let in_dict = pos < footer.columns[k].offset as usize + footer.columns[k].dict_len;
            let region = format!(
                "column {k} {}",
                if in_dict {
                    "dictionary block"
                } else {
                    "code zone"
                }
            );
            for (c, expected) in expected.iter().enumerate() {
                match r.column(c) {
                    Err(Error::Io(msg)) => {
                        assert_eq!(c, k, "flip at {pos} failed column {c}: {msg}");
                        assert!(msg.contains(&region), "flip at {pos}: {msg}");
                    }
                    Ok(col) => {
                        assert_ne!(c, k, "flip at {pos} went undetected");
                        assert!(all
                            .iter()
                            .all(|&row| col.value_at(row as usize) == t.value_at(row, c)));
                    }
                    Err(e) => panic!("flip at {pos}: unexpected {e}"),
                }
                // The point class reads only the blocks it needs, so it may
                // not notice the flip — but it never returns wrong data.
                match r.rows(&all, Some(&[c])) {
                    Ok(rows) => assert_eq!(&rows, expected, "flip at {pos}"),
                    Err(Error::Io(_)) => assert_eq!(c, k, "flip at {pos}"),
                    Err(e) => panic!("flip at {pos}: unexpected {e}"),
                }
            }
            match r.locate(&[Value::Int(150)]) {
                Ok(idx) => assert_eq!(idx, Some(150), "flip at {pos}"),
                Err(Error::Io(_)) => assert_eq!(k, 0, "flip at {pos}"),
                Err(e) => panic!("flip at {pos}: unexpected {e}"),
            }
        }
        for cut in 0..bytes.len() {
            assert!(
                matches!(mem_reader(bytes[..cut].to_vec()), Err(Error::Io(_))),
                "truncation to {cut} went undetected"
            );
        }
    }

    #[test]
    fn schema_arity_mismatch_rejected() {
        let t = sample(10);
        let bytes = encode_segment(&t);
        let narrow = Arc::new(
            TableSchema::new(
                "t",
                vec![ColumnDef::new("id", ColumnType::Integer)],
                vec![0],
            )
            .unwrap(),
        );
        assert!(decode_segment(narrow, &bytes).is_err());
    }

    #[test]
    fn mem_store_round_trip() {
        let store = SegmentStore::mem();
        assert!(store.get("x").is_err());
        store.put("x", vec![1, 2, 3]).unwrap();
        assert_eq!(&*store.get("x").unwrap(), &[1u8, 2, 3]);
        store.put("x", vec![9]).unwrap();
        assert_eq!(&*store.get("x").unwrap(), &[9u8]);
        store.remove("x").unwrap();
        assert!(store.get("x").is_err());
        store.remove("x").unwrap(); // idempotent
    }

    #[test]
    fn dir_store_round_trip() {
        let dir = std::env::temp_dir().join(format!("hsd_seg_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SegmentStore::dir(&dir).unwrap();
        store.put("t", vec![5, 6]).unwrap();
        assert_eq!(&*store.get("t").unwrap(), &[5u8, 6]);
        assert!(dir.join("t.seg").exists());
        assert!(!dir.join("t.seg.tmp").exists(), "temp file cleaned up");
        store.put("t", vec![7]).unwrap();
        assert_eq!(&*store.get("t").unwrap(), &[7u8]);
        store.remove("t").unwrap();
        assert!(store.get("t").is_err());
        store.remove("t").unwrap();
        assert!(store.open("t").is_err());

        // A reader over an open file keeps reading the version it was
        // opened on when the name is republished or removed.
        let old = sample(200);
        store.put("t", encode_segment(&old)).unwrap();
        let r = SegmentReader::open(schema(), store.open("t").unwrap()).unwrap();
        store.put("t", encode_segment(&sample(10))).unwrap();
        assert_eq!(r.locate(&[Value::Int(150)]).unwrap(), Some(150));
        store.remove("t").unwrap();
        assert_eq!(r.rows(&[150], None).unwrap(), vec![old.row(150)]);
        assert_eq!(r.column(1).unwrap().len(), 200);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
