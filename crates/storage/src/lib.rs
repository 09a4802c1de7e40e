//! In-memory hybrid storage: a row store and a dictionary-compressed column
//! store.
//!
//! This crate is the physical substrate the storage advisor reasons about.
//! It deliberately reproduces the asymmetries the paper's cost model is built
//! on (Section 2 of the paper):
//!
//! * **Row store** ([`row_store::RowTable`]): rows live contiguously in a
//!   fixed-width arena. Retrieving or updating a whole tuple touches one
//!   small memory region; appending is cheap. Scanning a *single attribute*
//!   strides across full tuples, so analytical scans are slow. A hash index
//!   on the primary key serves point queries; optional ordered secondary
//!   indexes accelerate range predicates ("if an index is available" in the
//!   paper's `f_selectivity`).
//! * **Column store** ([`column_store::ColumnTable`]): every column is
//!   dictionary-encoded — an order-preserving *sorted* dictionary plus an
//!   unsorted *tail* that absorbs newly arriving values (the delta of
//!   HANA-style stores), and a bit-packed code vector. Scans over one
//!   attribute read only that column's tightly packed codes, so aggregation
//!   is fast; the sorted dictionary acts as the "implicit index" the paper
//!   mentions for selections. Inserts must consult every column's dictionary
//!   and tuple reconstruction must gather one code per column, which is what
//!   makes OLTP work comparatively expensive.
//!
//! The [`table::Table`] enum gives the engine a store-agnostic interface, so
//! the same query executor runs against either store — exactly the situation
//! in which "where should this table live?" becomes the advisor's question.
//!
//! # The batched scan pipeline
//!
//! Column-store scans never decode element-at-a-time. The pipeline has
//! three layers:
//!
//! 1. **Word-level bit-packing** ([`bitpack::BitPackedVec`]): codes live in
//!    delimiter-aligned fields (`width + 1` bits, never straddling a word),
//!    so [`bitpack::BitPackedVec::decode_into`] unpacks whole words through
//!    per-width monomorphized kernels, and
//!    [`bitpack::BitPackedVec::match_interval_into`] range-tests every code
//!    in a word with three ALU ops — word-parallel SWAR over the packed
//!    data, no decode at all.
//! 2. **Selection vectors** ([`selvec::SelVec`]): predicates produce one
//!    match bit per row instead of materialized `Vec<u32>` id lists.
//!    Conjunctions combine with word-wise `AND`s, empty intermediate
//!    selections short-circuit the remaining conjuncts, and an all-zero
//!    word lets later predicates skip 64 rows (or a whole 1024-row block)
//!    at a time. Row-store filters convert into the same representation
//!    ([`row_store::RowTable::filter_selvec`]), which is what makes
//!    mixed-fragment conjunctions in vertically split tables cheap.
//! 3. **Block-decoded consumers**: aggregation visits codes in
//!    [`bitpack::BLOCK`]-sized decoded runs
//!    ([`column_store::ColumnData::for_each_numeric_sel`]), and the engine's
//!    aggregate kernel decodes group and aggregate columns block-at-a-time
//!    rather than calling `code_at` per row; both read numbers through one
//!    lookup-table rule ([`column_store::ColumnData::numeric_lut`]).
//!
//! The element-at-a-time path
//! ([`column_store::ColumnTable::filter_rows_scalar`]) is retained only as
//! the parity oracle of the property tests; the `benchmark/` harness
//! measures the batched kernels (`bitpack.*`, `column_store.*`).
//!
//! Platform: unix only — [`segment::SegmentHandle`] reads cold segments
//! positionally through `std::os::unix::fs::FileExt::read_at`.

#![deny(missing_docs)]

#[cfg(not(unix))]
compile_error!(
    "hsd-storage requires a unix target: SegmentHandle::read_at uses std::os::unix::fs::FileExt"
);

pub mod bitpack;
pub mod column_store;
pub mod dictionary;
pub mod hash;
pub mod predicate;
pub mod row_store;
pub mod segment;
pub mod selvec;
pub mod table;
pub mod wal;

pub use bitpack::{BitPackedVec, BLOCK};
pub use column_store::{
    ColumnBuilder, ColumnData, ColumnTable, Columns, MergePlan, MergeProgress, NumericLut,
};
pub use dictionary::Dictionary;
pub use hash::{FastHasher, FastState};
pub use predicate::{pk_point, ColRange, RowSel};
pub use row_store::{RowBuilder, RowTable};
pub use segment::{decode_segment, encode_segment, SegmentHandle, SegmentReader, SegmentStore};
pub use selvec::SelVec;
pub use table::{PkKey, RowSource, StoreKind, Table, TableBuilder};
pub use wal::{
    crc32, scan_frames, FaultFile, FaultPlan, FileBackend, Frame, MemBackend, RetryPolicy,
    ScanReport, SyncPolicy, WalBackend, WalStats, WalWriter,
};
