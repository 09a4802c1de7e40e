//! The column store: per-column dictionaries plus bit-packed code vectors,
//! with an unsorted dictionary tail absorbing new values (delta semantics)
//! and an explicit merge ([`ColumnTable::compact`]).
//!
//! Scans run through a batched pipeline: codes are block-decoded with
//! word-level unpacking ([`BitPackedVec::decode_into`]), range predicates
//! are evaluated branch-free over decoded blocks in the code domain, and
//! matches are collected in bitmap selection vectors ([`SelVec`]) that
//! conjunctions combine with word-wise `AND`s. The element-at-a-time path
//! ([`ColumnData::filter_scalar`], [`ColumnTable::filter_rows_scalar`])
//! remains only as the parity oracle for the batched pipeline's property
//! tests.

use std::collections::HashMap;
use std::sync::Arc;

use hsd_types::{ColumnIdx, Error, Result, TableSchema, Value};

use crate::bitpack::{bits_for, BitPackedVec, BLOCK};
use crate::dictionary::Dictionary;
use crate::hash::FastState;
use crate::predicate::{ColRange, RowSel};
use crate::selvec::SelVec;
use crate::table::{claim_pk, KeyIndex, PkKey, RowSource};

/// Progress of one bounded slice of an incremental delta merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MergeProgress {
    /// Code-vector entries remapped into the shadow vector by this slice
    /// (the unit the caller's remap-cost budget is expressed in).
    pub rows_remapped: usize,
    /// Dictionary-tail entries folded into sorted regions by merges that
    /// *completed* during this slice.
    pub entries_folded: usize,
    /// Whether the merge work is finished — for [`ColumnData::merge_step`],
    /// this column's shadow rebuild swapped in (or none was in flight); for
    /// [`ColumnTable::compact_step`], no column has an in-flight rebuild or
    /// a remaining dictionary tail.
    pub done: bool,
}

impl PendingMerge {
    /// New-domain code for an old-domain `code`, extending the remapping on
    /// demand for values interned after the rebuild snapshot was taken
    /// (those join the rebuilt dictionary's tail and are folded by the
    /// *next* merge).
    fn translate(&mut self, old_dict: &Dictionary, code: u32) -> u32 {
        for c in self.remap.len()..=code as usize {
            let new = self.new_dict.intern(old_dict.decode(c as u32));
            self.remap.push(new);
        }
        self.remap[code as usize]
    }
}

/// In-flight state of an incremental delta merge on one column.
///
/// The merge is a **shadow rebuild**: the rebuilt (fully sorted) dictionary
/// and a shadow code vector are prepared on the side while the current
/// dictionary and codes stay authoritative for every read. Each
/// [`ColumnData::merge_step`] remaps a bounded run of codes into the shadow
/// vector; when the copy catches up with the live vector, the shadow pair is
/// swapped in. Writes that land *behind* the copy cursor are mirrored into
/// the shadow vector at set time; values first interned *during* the merge
/// extend the remapping on demand and stay in the rebuilt dictionary's tail
/// (they are the next merge's problem, exactly as in a HANA-style
/// delta-into-main merge).
#[derive(Debug, Clone)]
struct PendingMerge {
    /// The rebuilt dictionary the column swaps to on completion.
    new_dict: Dictionary,
    /// `old_code -> new_code`; extended lazily for codes interned after the
    /// rebuild snapshot was taken.
    remap: Vec<u32>,
    /// Shadow code vector, filled for rows `[0, cursor)`.
    new_codes: BitPackedVec,
    /// Rows copied so far.
    cursor: usize,
    /// Tail entries the snapshot is folding (reported on completion).
    folding: usize,
}

/// A dictionary rebuild prepared **off the write path**, ready to be
/// installed as an incremental merge.
///
/// [`ColumnData::plan_merge`] computes the sort-heavy half of starting an
/// incremental merge — the rebuilt dictionary and the old-code → new-code
/// remapping — through `&self`, so a maintenance thread can do that work
/// under a shared read pin while scans proceed.
/// [`ColumnData::install_merge_plan`] then adopts the plan under the
/// (brief) exclusive latch, after validating it is not stale.
///
/// Staleness is judged by the merge epoch alone: writes between plan and
/// install only *append* to the dictionary tail, so the planned remapping
/// stays correct for every code it covers and later-interned codes are
/// translated lazily (`PendingMerge::translate`), exactly as writes
/// during an in-flight merge are. Only a dictionary handoff (epoch bump)
/// or an already-pending merge invalidates the plan.
#[derive(Debug, Clone)]
pub struct MergePlan {
    /// The rebuilt, fully sorted dictionary.
    new_dict: Dictionary,
    /// `old_code -> new_code` for every code that existed at plan time.
    remap: Vec<u32>,
    /// The column's merge epoch the plan was computed against.
    epoch: u64,
    /// Tail entries the plan folds (plan-time tail length).
    folding: usize,
}

impl MergePlan {
    /// Tail entries this plan folds when it completes.
    pub fn folding(&self) -> usize {
        self.folding
    }
}

/// One dictionary-encoded column.
#[derive(Debug, Clone)]
pub struct ColumnData {
    dict: Dictionary,
    codes: BitPackedVec,
    /// In-flight incremental merge, if any.
    pending: Option<PendingMerge>,
    /// Merge epoch: incremented at every dictionary handoff — the shadow
    /// swap completing an incremental merge, or a one-shot in-place rebuild.
    /// External observers (the online advisor, the maintenance worker) use
    /// the epoch to detect that a merge completed between two looks at the
    /// column without having watched every slice.
    epoch: u64,
}

impl ColumnData {
    /// Empty column.
    fn empty() -> Self {
        ColumnData {
            dict: Dictionary::new(),
            codes: BitPackedVec::new(),
            pending: None,
            epoch: 0,
        }
    }

    /// Append a value (interning it into the dictionary).
    pub fn push(&mut self, value: &Value) {
        let code = self.dict.intern(value);
        self.codes.push(code);
    }

    /// Borrow the decoded value at `row`.
    #[inline]
    pub fn value_at(&self, row: usize) -> &Value {
        self.dict.decode(self.codes.get(row))
    }

    /// Raw dictionary code at `row` (the engine's code-level grouping and
    /// dictionary-join fast paths operate directly on codes).
    #[inline]
    pub fn code_at(&self, row: usize) -> u32 {
        self.codes.get(row)
    }

    /// How a scan visiting `visited` rows reads this column's numbers — the
    /// one lookup-table rule every numeric scan shares. A per-code table
    /// pays off only when the dictionary is small against the visit
    /// (`dict.len() * 4 <= visited`); a near-unique column, or any column
    /// under a selective filter, decodes per row against the dictionary
    /// instead (O(visited), not O(dictionary)).
    pub fn numeric_lut(&self, visited: usize) -> NumericLut<'_> {
        if self.dict.len() * 4 > visited {
            return NumericLut::Direct(&self.dict);
        }
        let mut plain = Vec::with_capacity(self.dict.len());
        for v in self.dict.values() {
            match v.as_f64() {
                Some(x) => plain.push(x),
                None => return NumericLut::Sparse(self.dict.values().map(Value::as_f64).collect()),
            }
        }
        NumericLut::Plain(plain)
    }

    /// Overwrite the value at `row` (interning new values into the tail).
    ///
    /// If an incremental merge is in flight and `row` sits behind its copy
    /// cursor, the write is mirrored into the shadow code vector so the
    /// eventual swap observes it.
    pub fn set(&mut self, row: usize, value: &Value) {
        let code = self.dict.intern(value);
        self.codes.set(row, code);
        if let Some(pending) = &mut self.pending {
            if row < pending.cursor {
                let new_code = pending.translate(&self.dict, code);
                pending.new_codes.set(row, new_code);
            }
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Distinct values in the dictionary.
    pub fn distinct_count(&self) -> usize {
        self.dict.len()
    }

    /// Entries in the unsorted dictionary tail (delta size indicator).
    pub fn tail_len(&self) -> usize {
        self.dict.tail_len()
    }

    /// Access the dictionary (read-only).
    pub fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    /// Smallest and largest non-null value, straight from the dictionary.
    ///
    /// Note: dictionary entries may include values no longer referenced by
    /// any row after updates; bounds are therefore conservative (a superset
    /// of the live domain), which is the right direction for selectivity
    /// estimation.
    pub fn min_max(&self) -> (Option<Value>, Option<Value>) {
        self.dict.min_max()
    }

    /// Fold the dictionary tail into the sorted region and remap codes.
    ///
    /// One-shot: the full O(rows) remap runs in this call. An incremental
    /// merge in flight is first driven to completion (abandoning the copied
    /// prefix would waste it); values interned *during* that merge land in
    /// the rebuilt dictionary's tail, so the normal rebuild below then
    /// folds them too — `compact` always leaves an empty tail. Use
    /// [`ColumnData::plan_merge`] / [`ColumnData::install_merge_plan`] /
    /// [`ColumnData::merge_step`] to bound the per-call remap cost instead.
    pub fn compact(&mut self) {
        while self.pending.is_some() {
            self.merge_step(usize::MAX);
        }
        if let Some(remap) = self.dict.rebuild() {
            for i in 0..self.codes.len() {
                let old = self.codes.get(i);
                self.codes.set(i, remap[old as usize]);
            }
            self.epoch += 1;
        }
    }

    /// Whether an incremental merge is in flight on this column.
    pub fn merge_in_progress(&self) -> bool {
        self.pending.is_some()
    }

    /// The column's merge epoch — how many dictionary handoffs (shadow
    /// swaps or one-shot rebuilds) have completed. See the `epoch` field.
    pub fn merge_epoch(&self) -> u64 {
        self.epoch
    }

    /// Abandon an in-flight incremental merge, discarding the shadow
    /// dictionary and code vector. The live pair stayed authoritative for
    /// every read and write throughout the merge, so cancellation never
    /// loses data — only the remap work done so far. Returns whether a
    /// merge was actually cancelled.
    pub fn cancel_merge(&mut self) -> bool {
        self.pending.take().is_some()
    }

    /// Compute a [`MergePlan`] for this column's dictionary tail through
    /// `&self` — the concurrent-read half of starting an incremental merge
    /// (the rebuilt dictionary and the remapping; the shadow code vector is
    /// allocated at install). Returns `None` when there is nothing to merge
    /// (empty tail) or a merge is already in flight.
    pub fn plan_merge(&self) -> Option<MergePlan> {
        if self.pending.is_some() {
            return None;
        }
        let (new_dict, remap) = self.dict.rebuild_plan()?;
        Some(MergePlan {
            new_dict,
            remap,
            epoch: self.epoch,
            folding: self.dict.tail_len(),
        })
    }

    /// Adopt a previously computed [`MergePlan`] as the in-flight
    /// incremental merge (the install half of starting one; call under the
    /// exclusive latch). Returns `false` — discarding the plan — when it is
    /// stale: the epoch moved (a dictionary handoff completed since
    /// planning) or another merge is already pending.
    pub fn install_merge_plan(&mut self, plan: MergePlan) -> bool {
        if plan.epoch != self.epoch || self.pending.is_some() {
            return false;
        }
        self.pending = Some(PendingMerge {
            new_dict: plan.new_dict,
            remap: plan.remap,
            new_codes: BitPackedVec::new(),
            cursor: 0,
            folding: plan.folding,
        });
        true
    }

    /// Advance the in-flight incremental merge by at most `budget_rows`
    /// remapped codes. Returns progress for this slice; when the copy
    /// catches up with the live code vector, the rebuilt dictionary and
    /// shadow codes are swapped in and `done` is reported through the
    /// returned [`MergeProgress`] (`entries_folded` counts the tail entries
    /// the completed merge absorbed).
    ///
    /// A no-op returning `done` when no merge is in flight.
    pub fn merge_step(&mut self, budget_rows: usize) -> MergeProgress {
        let Some(pending) = &mut self.pending else {
            return MergeProgress {
                done: true,
                ..MergeProgress::default()
            };
        };
        let end = self
            .codes
            .len()
            .min(pending.cursor.saturating_add(budget_rows));
        let copied = end - pending.cursor;
        for i in pending.cursor..end {
            let code = pending.translate(&self.dict, self.codes.get(i));
            pending.new_codes.push(code);
        }
        pending.cursor = end;
        if pending.cursor < self.codes.len() {
            return MergeProgress {
                rows_remapped: copied,
                entries_folded: 0,
                done: false,
            };
        }
        // Copy complete: swap the shadow pair in — the epoch handoff. The
        // epoch bump is the externally visible signal that the dictionary
        // generation changed.
        let pending = self.pending.take().expect("checked above");
        self.dict = pending.new_dict;
        self.codes = pending.new_codes;
        self.epoch += 1;
        MergeProgress {
            rows_remapped: copied,
            entries_folded: pending.folding,
            done: true,
        }
    }

    /// Decode the codes `[start, start + out.len())` into `out` (block
    /// decode; see [`BitPackedVec::decode_into`]). Batch consumers — the
    /// engine's aggregation loops, the filter pipeline — use this instead
    /// of per-row [`ColumnData::code_at`] calls.
    #[inline]
    pub fn decode_codes_into(&self, start: usize, out: &mut [u32]) {
        self.codes.decode_into(start, out);
    }

    /// Write the values of rows `[start, start + rows.len() / width)` into
    /// slot `slot` of each `width`-wide row of the row-major `rows`, one
    /// block-decoded run of codes at a time — how bulk paths turn columns
    /// back into rows without a per-value [`ColumnData::value_at`].
    pub fn fill_rows(&self, start: usize, rows: &mut [Value], width: usize, slot: usize) {
        let mut codes = [0u32; BLOCK];
        for (b, block) in rows.chunks_mut(BLOCK * width).enumerate() {
            let run = &mut codes[..block.len() / width];
            self.codes.decode_into(start + b * BLOCK, run);
            for (row, &code) in block.chunks_exact_mut(width).zip(run.iter()) {
                row[slot] = self.dict.decode(code).clone();
            }
        }
    }

    /// The code-domain match set for `range`: the sorted-region interval
    /// `[lo, hi)` plus the (sorted) list of matching tail codes.
    fn code_matches(&self, range: &ColRange) -> (u32, u32, Vec<u32>) {
        let (lo, hi) = self.dict.sorted_code_range(range.lo_ref(), range.hi_ref());
        let mut tail = self
            .dict
            .tail_codes_in_range(range.lo_ref(), range.hi_ref());
        tail.sort_unstable();
        (lo, hi, tail)
    }

    /// Batched filter: the selection of rows whose value satisfies `range`,
    /// evaluated block-at-a-time without leaving the code domain.
    ///
    /// Bit-packed columns run the predicate through a fused per-width
    /// unpack+compare kernel ([`BitPackedVec::match_interval_into`]): each
    /// packed word is loaded once and 64 match bits are produced per
    /// selection-vector word with a single branch-free range test per code.
    /// When `prior` is given (an earlier conjunct's selection), blocks with
    /// no surviving candidate are skipped entirely and the result is
    /// pre-masked by `prior` — the cheap AND-combination that makes
    /// conjunctions scale. Dictionary-tail codes (rare between delta
    /// merges) take a block-decoded path with a sorted-list membership test.
    pub fn filter_selvec(&self, range: &ColRange, prior: Option<&SelVec>) -> SelVec {
        let n = self.codes.len();
        if let Some(p) = prior {
            assert_eq!(p.len(), n, "prior selection domain mismatch");
        }
        let (lo, hi, tail) = self.code_matches(range);
        let span = hi.wrapping_sub(lo);
        let mut out = SelVec::none(n);
        let mut buf = [0u32; BLOCK];
        {
            let out_words = out.words_mut();
            let mut start = 0;
            while start < n {
                let block_len = BLOCK.min(n - start);
                let word_base = start / 64; // exact: BLOCK is a multiple of 64
                let word_end = (start + block_len).div_ceil(64);
                if let Some(p) = prior {
                    if p.words()[word_base..word_end].iter().all(|&w| w == 0) {
                        start += block_len;
                        continue;
                    }
                }
                if tail.is_empty() {
                    self.codes.match_interval_into(
                        start,
                        block_len,
                        lo,
                        hi,
                        &mut out_words[word_base..word_end],
                    );
                } else {
                    // Tail codes present: decode the block and check the
                    // sorted tail list alongside the interval.
                    let codes = &mut buf[..block_len];
                    self.codes.decode_into(start, codes);
                    for (wi, chunk) in codes.chunks(64).enumerate() {
                        let mut bits = 0u64;
                        for (j, &c) in chunk.iter().enumerate() {
                            bits |= ((c.wrapping_sub(lo) < span) as u64) << j;
                        }
                        for (j, &c) in chunk.iter().enumerate() {
                            bits |= (tail.binary_search(&c).is_ok() as u64) << j;
                        }
                        out_words[word_base + wi] = bits;
                    }
                }
                start += block_len;
            }
        }
        if let Some(p) = prior {
            out.and_assign(p);
        }
        out
    }

    /// Row indexes (within `sel`) whose value satisfies `range`, evaluated
    /// element-at-a-time via [`ColumnData::code_at`]-style decoding.
    ///
    /// This is the pre-batching scan path, kept only as the parity oracle
    /// for the batched pipeline's property tests.
    pub fn filter_scalar(&self, range: &ColRange, sel: RowSel<'_>) -> Vec<u32> {
        let (lo, hi, tail) = self.code_matches(range);
        let hit = |code: u32| (code >= lo && code < hi) || tail.binary_search(&code).is_ok();
        let mut out = Vec::new();
        match sel {
            RowSel::All => {
                for i in 0..self.codes.len() {
                    if hit(self.codes.get(i)) {
                        out.push(i as u32);
                    }
                }
            }
            RowSel::Subset(rows) => {
                for &i in rows {
                    if hit(self.codes.get(i as usize)) {
                        out.push(i);
                    }
                }
            }
        }
        out
    }

    /// Visit the numeric interpretation of the selected rows, read through
    /// [`ColumnData::numeric_lut`]. Full scans block-decode the code vector
    /// (word-level unpacking) instead of per-row `get` calls.
    // Kept out of line: inlined into `for_each_numeric_sel`, its scan loops
    // lose registers to the selection path's state and a full-column scan
    // runs ~10 % slower.
    #[inline(never)]
    pub fn for_each_numeric(&self, sel: RowSel<'_>, mut f: impl FnMut(f64)) {
        let visited = match sel {
            RowSel::All => self.codes.len(),
            RowSel::Subset(rows) => rows.len(),
        };
        let lut = self.numeric_lut(visited);
        match sel {
            RowSel::All => self.for_each_code_block(|codes| {
                for &c in codes {
                    if let Some(v) = lut.get(c) {
                        f(v);
                    }
                }
            }),
            RowSel::Subset(rows) => {
                for &i in rows {
                    if let Some(v) = lut.get(self.codes.get(i as usize)) {
                        f(v);
                    }
                }
            }
        }
    }

    /// Visit the numeric interpretation of the rows selected by `sel`
    /// (`None` = all rows), decoding codes block-at-a-time and walking the
    /// selection's set bits; blocks with no selected candidate are skipped.
    pub fn for_each_numeric_sel(&self, sel: Option<&SelVec>, mut f: impl FnMut(f64)) {
        let Some(sv) = sel else {
            return self.for_each_numeric(RowSel::All, f);
        };
        let n = self.codes.len();
        debug_assert_eq!(sv.len(), n, "selection domain mismatch");
        let lut = self.numeric_lut(sv.count());
        let mut buf = [0u32; BLOCK];
        for start in (0..n).step_by(BLOCK) {
            let len = BLOCK.min(n - start);
            // exact: BLOCK is a multiple of 64
            let words = &sv.words()[start / 64..(start + len).div_ceil(64)];
            if words.iter().all(|&w| w == 0) {
                continue;
            }
            self.codes.decode_into(start, &mut buf[..len]);
            for (wi, &w) in words.iter().enumerate() {
                let mut bits = w;
                while bits != 0 {
                    let code = buf[wi * 64 + bits.trailing_zeros() as usize];
                    bits &= bits - 1;
                    if let Some(v) = lut.get(code) {
                        f(v);
                    }
                }
            }
        }
    }

    /// Visit the decoded value of each row in `rows`, calling
    /// `f(position_in_rows, value)`.
    ///
    /// Codes are fetched through a per-[`BLOCK`] decode cache instead of a
    /// per-element bit-extraction `get`: for ascending row lists (the shape
    /// every filter produces) each touched block is unpacked exactly once,
    /// which is what makes batched tuple materialization cheaper than
    /// per-cell [`ColumnData::value_at`] calls.
    pub fn gather_values(&self, rows: &[u32], mut f: impl FnMut(usize, &Value)) {
        let n = self.codes.len();
        let mut buf = [0u32; BLOCK];
        // usize::MAX = no block cached yet (no valid block starts there).
        let mut cached = usize::MAX;
        for (i, &r) in rows.iter().enumerate() {
            let r = r as usize;
            let block_start = r / BLOCK * BLOCK;
            if block_start != cached {
                let len = BLOCK.min(n - block_start);
                self.codes.decode_into(block_start, &mut buf[..len]);
                cached = block_start;
            }
            f(i, self.dict.decode(buf[r - block_start]));
        }
    }

    /// Feed every code to `f` in block-decoded runs of up to
    /// [`BLOCK`] codes.
    pub fn for_each_code_block(&self, mut f: impl FnMut(&[u32])) {
        let n = self.codes.len();
        let mut buf = [0u32; BLOCK];
        let mut start = 0;
        while start < n {
            let block_len = BLOCK.min(n - start);
            self.codes.decode_into(start, &mut buf[..block_len]);
            f(&buf[..block_len]);
            start += block_len;
        }
    }

    /// Visit the decoded value of the selected rows.
    pub fn for_each_value(&self, sel: RowSel<'_>, mut f: impl FnMut(&Value)) {
        match sel {
            RowSel::All => self.for_each_code_block(|codes| {
                for &c in codes {
                    f(self.dict.decode(c));
                }
            }),
            RowSel::Subset(rows) => {
                for &i in rows {
                    f(self.dict.decode(self.codes.get(i as usize)));
                }
            }
        }
    }

    /// Heap bytes of codes + dictionary.
    pub fn heap_bytes(&self) -> usize {
        self.codes.heap_bytes() + self.dict.heap_bytes()
    }

    /// The bit-packed code vector (always `Some`; the `Option` is kept for
    /// callers that pattern-match it).
    pub fn packed_codes(&self) -> Option<&BitPackedVec> {
        Some(&self.codes)
    }

    /// The bit-packed code vector the segment writer serializes zero-copy.
    pub(crate) fn codes(&self) -> &BitPackedVec {
        &self.codes
    }

    /// Rebuild a column from its persisted parts: a restored dictionary
    /// ([`Dictionary::from_regions`]), the bit-packed code vector
    /// ([`BitPackedVec::from_raw_parts`]), and the merge epoch the column
    /// had when it was serialized. No merge is in flight on the restored
    /// column (in-flight shadow state is never persisted — it is
    /// reconstructible and cancellation is lossless).
    ///
    /// Fails with [`Error::Io`] if any code is out of range for the
    /// dictionary (the parts come from outside the process).
    pub fn try_from_parts(dict: Dictionary, codes: BitPackedVec, epoch: u64) -> Result<Self> {
        let col = ColumnData {
            dict,
            codes,
            pending: None,
            epoch,
        };
        let mut max = 0u32;
        col.for_each_code_block(|codes| max = codes.iter().fold(max, |m, &c| m.max(c)));
        if !col.is_empty() && max as usize >= col.dict.len() {
            return Err(Error::Io(format!(
                "restored code {max} out of dictionary range {}",
                col.dict.len()
            )));
        }
        Ok(col)
    }

    /// [`ColumnData::try_from_parts`] for parts the caller built itself.
    ///
    /// # Panics
    /// Panics if any code is out of range for the dictionary.
    pub fn from_parts(dict: Dictionary, codes: BitPackedVec, epoch: u64) -> Self {
        Self::try_from_parts(dict, codes, epoch).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// How a scan reads one column's numbers ([`ColumnData::numeric_lut`]).
#[derive(Debug)]
pub enum NumericLut<'a> {
    /// Every dictionary entry is a non-null number: `lut[code]`, no branch.
    Plain(Vec<f64>),
    /// Some entry is NULL or non-numeric: `lut[code]` is `None` there.
    Sparse(Vec<Option<f64>>),
    /// The dictionary is large against the visit: decode each row's code.
    Direct(&'a Dictionary),
}

impl NumericLut<'_> {
    /// The number code `code` stands for, if it is one.
    #[inline]
    pub fn get(&self, code: u32) -> Option<f64> {
        match self {
            NumericLut::Plain(lut) => Some(lut[code as usize]),
            NumericLut::Sparse(lut) => lut[code as usize],
            NumericLut::Direct(dict) => dict.decode(code).as_f64(),
        }
    }
}

/// The read surface of a column-store fragment: a row count and borrowed
/// columns. Everything the batched scan pipeline needs — filters,
/// block-decoded aggregation, dictionary joins — runs on the
/// [`ColumnData`] this returns, so a resident [`ColumnTable`] and a view
/// holding only the columns a statement fetched from a disk segment are
/// scanned by the same code.
pub trait Columns {
    /// Number of rows in every column.
    fn row_count(&self) -> usize;

    /// Borrow column `col`.
    fn column(&self, col: ColumnIdx) -> &ColumnData;

    /// The selection matching *all* of `ranges` (conjunction) as a bitmap.
    ///
    /// Each conjunct is evaluated block-decoded and branch-free against the
    /// previous conjunct's selection ([`ColumnData::filter_selvec`]); the
    /// conjunction short-circuits as soon as any intermediate selection is
    /// empty, skipping the remaining predicates entirely.
    fn filter_selvec(&self, ranges: &[ColRange]) -> SelVec {
        let mut current: Option<SelVec> = None;
        for range in ranges {
            let next = self
                .column(range.column)
                .filter_selvec(range, current.as_ref());
            if next.is_none_selected() {
                return next;
            }
            current = Some(next);
        }
        current.unwrap_or_else(|| SelVec::all(self.row_count()))
    }
}

impl Columns for ColumnTable {
    fn row_count(&self) -> usize {
        self.rows
    }

    fn column(&self, col: ColumnIdx) -> &ColumnData {
        &self.columns[col]
    }
}

/// A column-oriented table.
#[derive(Debug, Clone)]
pub struct ColumnTable {
    schema: Arc<TableSchema>,
    columns: Vec<ColumnData>,
    pk: HashMap<PkKey, u32>,
    rows: usize,
}

impl ColumnTable {
    /// Empty table with bit-packed code vectors.
    pub fn new(schema: Arc<TableSchema>) -> Self {
        let columns = (0..schema.arity()).map(|_| ColumnData::empty()).collect();
        ColumnTable {
            schema,
            columns,
            pk: HashMap::new(),
            rows: 0,
        }
    }

    /// Table schema.
    pub fn schema(&self) -> &Arc<TableSchema> {
        &self.schema
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// Insert a row; enforces schema validity and primary-key uniqueness.
    ///
    /// Every column's dictionary must be consulted (and possibly extended),
    /// which is the structural reason column-store inserts cost more than
    /// row-store appends.
    pub fn insert(&mut self, row: &[Value]) -> Result<u32> {
        self.schema.validate_row(row)?;
        let idx = self.rows as u32;
        claim_pk(&mut self.pk, &self.schema, row, idx)?;
        for (col, value) in self.columns.iter_mut().zip(row) {
            col.push(value);
        }
        self.rows += 1;
        Ok(idx)
    }

    /// Borrow a single attribute of a row (no tuple reconstruction).
    #[inline]
    pub fn value_at(&self, idx: u32, col: ColumnIdx) -> &Value {
        self.columns[col].value_at(idx as usize)
    }

    /// Reconstruct the full tuple at `idx` — one dictionary decode per
    /// column, the "tuple reconstruction" cost of the paper's
    /// `f_#selectedColumns` adjustment.
    pub fn row(&self, idx: u32) -> Vec<Value> {
        self.columns
            .iter()
            .map(|c| c.value_at(idx as usize).clone())
            .collect()
    }

    /// Find the row index for a primary key, if present.
    pub fn point_lookup(&self, key: &[Value]) -> Option<u32> {
        self.pk.get(key).copied()
    }

    /// Row indexes matching *all* of `ranges` (conjunction), ascending.
    ///
    /// Runs the batched pipeline ([`ColumnTable::filter_selvec`]) and
    /// materializes the id list once at the end.
    pub fn filter_rows(&self, ranges: &[ColRange]) -> Vec<u32> {
        if ranges.is_empty() {
            return (0..self.rows as u32).collect();
        }
        self.filter_selvec(ranges).to_row_ids()
    }

    /// The selection matching *all* of `ranges` (conjunction) as a bitmap
    /// ([`Columns::filter_selvec`]).
    pub fn filter_selvec(&self, ranges: &[ColRange]) -> SelVec {
        Columns::filter_selvec(self, ranges)
    }

    /// Scalar (element-at-a-time) variant of [`ColumnTable::filter_rows`]:
    /// the parity oracle for the batched pipeline's property tests.
    pub fn filter_rows_scalar(&self, ranges: &[ColRange]) -> Vec<u32> {
        if ranges.is_empty() {
            return (0..self.rows as u32).collect();
        }
        let mut current: Option<Vec<u32>> = None;
        for range in ranges {
            let sel = match &current {
                None => RowSel::All,
                Some(rows) => RowSel::Subset(rows),
            };
            let next = self.columns[range.column].filter_scalar(range, sel);
            if next.is_empty() {
                return next;
            }
            current = Some(next);
        }
        current.unwrap_or_default()
    }

    /// Update the given rows, assigning each `(column, value)` pair.
    ///
    /// New values extend the affected columns' dictionary tails, degrading
    /// scan locality until [`ColumnTable::compact`] runs — the delta-merge
    /// trade-off.
    pub fn update_rows(&mut self, rows: &[u32], sets: &[(ColumnIdx, Value)]) -> Result<usize> {
        for (col, value) in sets {
            if self.schema.is_pk_column(*col) {
                return Err(Error::InvalidOperation(format!(
                    "cannot update primary-key column {} of {}",
                    self.schema.column(*col)?.name,
                    self.schema.name
                )));
            }
            self.schema.validate_value_at(*col, value)?;
        }
        for &idx in rows {
            if idx as usize >= self.rows {
                return Err(Error::NotFound(format!(
                    "row {idx} in {}",
                    self.schema.name
                )));
            }
        }
        for &idx in rows {
            for (col, value) in sets {
                self.columns[*col].set(idx as usize, value);
            }
        }
        Ok(rows.len())
    }

    /// Visit the numeric value of `col` for the selected rows.
    pub fn for_each_numeric(&self, col: ColumnIdx, sel: RowSel<'_>, f: impl FnMut(f64)) {
        self.columns[col].for_each_numeric(sel, f);
    }

    /// Visit the numeric value of `col` for the rows selected by `sel`
    /// (`None` = all rows), via the batched block-decode path.
    pub fn for_each_numeric_sel(&self, col: ColumnIdx, sel: Option<&SelVec>, f: impl FnMut(f64)) {
        self.columns[col].for_each_numeric_sel(sel, f);
    }

    /// Visit the value of `col` for the selected rows.
    pub fn for_each_value(&self, col: ColumnIdx, sel: RowSel<'_>, f: impl FnMut(&Value)) {
        self.columns[col].for_each_value(sel, f);
    }

    /// Materialize the selected rows, optionally projecting to `cols`.
    ///
    /// Batched: the output tuples are filled column-at-a-time through the
    /// block-decoded gather path ([`ColumnData::gather_values`]) instead of
    /// reconstructing each tuple with per-cell `value_at` calls — one code
    /// block decode per [`BLOCK`] selected rows per column, and the
    /// dictionary probe cost drops to one slot index per cell.
    pub fn collect_rows(&self, sel: RowSel<'_>, cols: Option<&[ColumnIdx]>) -> Vec<Vec<Value>> {
        let all_cols: Vec<ColumnIdx>;
        let proj: &[ColumnIdx] = match cols {
            Some(c) => c,
            None => {
                all_cols = (0..self.schema.arity()).collect();
                &all_cols
            }
        };
        let emit_width = proj.len();
        match sel {
            RowSel::All => {
                let mut out: Vec<Vec<Value>> = (0..self.rows)
                    .map(|_| Vec::with_capacity(emit_width))
                    .collect();
                for &c in proj {
                    let mut i = 0;
                    self.columns[c].for_each_value(RowSel::All, |v| {
                        out[i].push(v.clone());
                        i += 1;
                    });
                }
                out
            }
            RowSel::Subset(rows) => {
                let mut out: Vec<Vec<Value>> = rows
                    .iter()
                    .map(|_| Vec::with_capacity(emit_width))
                    .collect();
                for &c in proj {
                    self.columns[c].gather_values(rows, |i, v| out[i].push(v.clone()));
                }
                out
            }
        }
    }

    /// Merge every column's dictionary tail (the delta merge); returns how
    /// many tail entries were folded in.
    pub fn compact(&mut self) -> usize {
        let folded = self.tail_total();
        for col in &mut self.columns {
            col.compact();
        }
        folded
    }

    /// Merge a single column's dictionary tail (per-column delta merge).
    pub fn compact_column(&mut self, col: ColumnIdx) {
        self.columns[col].compact();
    }

    /// Advance the incremental (chunked) delta merge by at most
    /// `budget_rows` remapped code-vector entries, spread across columns.
    ///
    /// Columns are merged one after another, each through the shadow-rebuild
    /// protocol ([`ColumnData::plan_merge`] / [`ColumnData::merge_step`]):
    /// a column with a tail gets a merge started, the budget is spent
    /// remapping its codes, and the remainder rolls over to the next tailed
    /// column. The merge is **resumable** — state lives on the columns, so
    /// the next `compact_step` call continues exactly where this one
    /// stopped, and reads/writes between calls see a fully consistent
    /// table throughout. `done` is reported once no column has an in-flight
    /// rebuild or a remaining tail; very large tables therefore never pay a
    /// full-table O(rows × columns) remap inside one call.
    pub fn compact_step(&mut self, budget_rows: usize) -> MergeProgress {
        let mut remaining = budget_rows;
        let mut total = MergeProgress::default();
        for col in &mut self.columns {
            if remaining == 0 {
                break;
            }
            if !col.merge_in_progress() {
                let Some(plan) = col.plan_merge() else {
                    continue;
                };
                col.install_merge_plan(plan);
            }
            while remaining > 0 && col.merge_in_progress() {
                let p = col.merge_step(remaining);
                total.rows_remapped += p.rows_remapped;
                total.entries_folded += p.entries_folded;
                remaining = remaining.saturating_sub(p.rows_remapped.max(1));
            }
        }
        total.done = !self
            .columns
            .iter()
            .any(|c| c.merge_in_progress() || c.tail_len() > 0);
        total
    }

    /// Compute [`MergePlan`]s for every column with a dictionary tail and
    /// no in-flight merge, through `&self` (the concurrent-read phase of a
    /// two-phase merge slice). Columns with nothing to fold are skipped.
    pub fn plan_compact(&self) -> Vec<(ColumnIdx, MergePlan)> {
        self.columns
            .iter()
            .enumerate()
            .filter_map(|(i, col)| col.plan_merge().map(|p| (i, p)))
            .collect()
    }

    /// Adopt previously computed plans as in-flight incremental merges
    /// (call under the exclusive latch); stale plans are discarded per
    /// [`ColumnData::install_merge_plan`]. Returns how many installed.
    pub fn install_plans(&mut self, plans: Vec<(ColumnIdx, MergePlan)>) -> usize {
        let mut installed = 0;
        for (i, plan) in plans {
            if let Some(col) = self.columns.get_mut(i) {
                installed += col.install_merge_plan(plan) as usize;
            }
        }
        installed
    }

    /// Whether any column has an incremental merge in flight.
    pub fn merge_in_progress(&self) -> bool {
        self.columns.iter().any(ColumnData::merge_in_progress)
    }

    /// Sum of the per-column merge epochs: increases every time any
    /// column's dictionary generation is handed off (shadow swap or
    /// one-shot rebuild), so a changed value means "some merge completed
    /// since the last look".
    pub fn merge_epoch(&self) -> u64 {
        self.columns.iter().map(ColumnData::merge_epoch).sum()
    }

    /// Abandon every in-flight incremental merge (see
    /// [`ColumnData::cancel_merge`]); returns how many columns had one.
    pub fn cancel_merge(&mut self) -> usize {
        self.columns
            .iter_mut()
            .map(|c| c.cancel_merge() as usize)
            .sum()
    }

    /// Merge only the columns whose dictionary tail exceeds `min_tail`
    /// entries, leaving small tails in place; returns how many tail entries
    /// were folded in. This is the selective half of the hysteretic merge
    /// policy: columns below the low watermark skip the O(rows) code remap.
    pub fn compact_columns_over(&mut self, min_tail: usize) -> usize {
        let mut merged = 0;
        for col in &mut self.columns {
            if col.tail_len() > min_tail {
                merged += col.tail_len();
                col.compact();
            }
        }
        merged
    }

    /// Total dictionary-tail entries across columns (how much delta has
    /// accumulated since the last merge).
    pub fn tail_total(&self) -> usize {
        self.columns.iter().map(ColumnData::tail_len).sum()
    }

    /// Dictionary-tail entries of a single column.
    pub fn tail_len(&self, col: ColumnIdx) -> usize {
        self.columns[col].tail_len()
    }

    /// Distinct values in `col`'s dictionary.
    pub fn distinct_count(&self, col: ColumnIdx) -> usize {
        self.columns[col].distinct_count()
    }

    /// Access a column (read-only).
    pub fn column(&self, col: ColumnIdx) -> &ColumnData {
        &self.columns[col]
    }

    /// Approximate heap bytes (codes + dictionaries + PK index).
    pub fn memory_bytes(&self) -> usize {
        let value = std::mem::size_of::<Value>();
        let cols: usize = self.columns.iter().map(ColumnData::heap_bytes).sum();
        let pk = self.pk.capacity() * (value * self.schema.primary_key.len() + 8);
        cols + pk
    }

    /// Bulk-build a column table from `rows` ([`ColumnBuilder`]): the
    /// table inserting them one by one and merging the delta produces.
    /// Fails on the first invalid or duplicate row.
    pub fn build(schema: Arc<TableSchema>, mut rows: impl RowSource) -> Result<Self> {
        let mut builder = ColumnBuilder::new(schema.clone(), rows.rows_hint());
        if let Some(pk) = rows.take_pk_index(&schema.primary_key) {
            builder.adopt_pk_index(pk);
        }
        rows.drain_rows(&mut |row| builder.push(row))?;
        Ok(builder.finish())
    }

    /// Rebuild a table from restored columns (the segment decode path).
    ///
    /// The columns must all have the same row count and there must be one
    /// per schema attribute. The primary-key index is not persisted; it is
    /// reconstructed here by decoding the PK columns.
    pub fn from_parts(schema: Arc<TableSchema>, columns: Vec<ColumnData>) -> Result<Self> {
        if columns.len() != schema.arity() {
            return Err(Error::InvalidOperation(format!(
                "segment for {} has {} columns, schema expects {}",
                schema.name,
                columns.len(),
                schema.arity()
            )));
        }
        let rows = columns.first().map_or(0, ColumnData::len);
        if columns.iter().any(|c| c.len() != rows) {
            return Err(Error::InvalidOperation(format!(
                "segment for {} has ragged column lengths",
                schema.name
            )));
        }
        let mut pk = HashMap::with_capacity(rows);
        for idx in 0..rows {
            let key: PkKey = schema
                .primary_key
                .iter()
                .map(|&c| columns[c].value_at(idx).clone())
                .collect();
            if pk.insert(key, idx as u32).is_some() {
                return Err(Error::DuplicateKey(format!(
                    "{}: restored segment repeats a primary key at row {idx}",
                    schema.name
                )));
            }
        }
        Ok(ColumnTable {
            schema,
            columns,
            pk,
            rows,
        })
    }
}

/// Reading a column table as rows: a block of [`BLOCK`] rows is filled
/// column by column from block-decoded codes ([`ColumnData::fill_rows`]),
/// then handed out row by row.
impl RowSource for &ColumnTable {
    fn rows_hint(&self) -> usize {
        self.rows
    }

    fn drain_rows(self, sink: &mut dyn FnMut(&mut [Value]) -> Result<()>) -> Result<()> {
        let width = self.columns.len();
        let mut block = vec![Value::Null; BLOCK * width];
        for start in (0..self.rows).step_by(BLOCK) {
            let rows = &mut block[..BLOCK.min(self.rows - start) * width];
            for (slot, col) in self.columns.iter().enumerate() {
                col.fill_rows(start, rows, width, slot);
            }
            for row in rows.chunks_exact_mut(width) {
                sink(row)?;
            }
        }
        Ok(())
    }

    fn take_pk_index(&mut self, primary_key: &[ColumnIdx]) -> Option<HashMap<PkKey, u32>> {
        (self.schema.primary_key == primary_key).then(|| self.pk.clone())
    }
}

/// Draining a column table: the rows of [`&ColumnTable`](RowSource), and
/// the primary-key index handed over whole.
impl RowSource for ColumnTable {
    fn rows_hint(&self) -> usize {
        self.rows
    }

    fn drain_rows(self, sink: &mut dyn FnMut(&mut [Value]) -> Result<()>) -> Result<()> {
        (&self).drain_rows(sink)
    }

    fn take_pk_index(&mut self, primary_key: &[ColumnIdx]) -> Option<HashMap<PkKey, u32>> {
        (self.schema.primary_key == primary_key).then(|| std::mem::take(&mut self.pk))
    }
}

/// Builds a [`ColumnTable`] from rows handed over one at a time — the bulk
/// path of loads, moves, checkpoints and restores.
///
/// One pass over the rows gives every value its first-seen code (the code
/// the insert path's dictionary tail would give it) through a per-column
/// hash map; [`ColumnBuilder::finish`] then sorts each column's distinct
/// values straight into the sorted dictionary region and packs the
/// remapped codes once. The result is the table inserts plus
/// [`ColumnTable::compact`] produce — same dictionaries, codes, merge
/// epochs and capacities — without the tail interning and the per-row
/// remap.
#[derive(Debug)]
pub struct ColumnBuilder {
    schema: Arc<TableSchema>,
    keys: KeyIndex,
    columns: Vec<ColumnBuild>,
    rows: usize,
}

/// One column's share of a [`ColumnBuilder`].
#[derive(Debug, Default)]
struct ColumnBuild {
    /// First-seen code of every distinct value.
    codes: HashMap<Value, u32, FastState>,
    /// First-seen code of every row.
    seen: Vec<u32>,
    /// Row at which the largest power-of-two code first appeared: where
    /// the insert path's code vector last widened.
    widened_at: usize,
}

impl ColumnBuild {
    fn finish(self) -> ColumnData {
        let mut entries: Vec<(Value, u32)> = self.codes.into_iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut remap = vec![0u32; entries.len()];
        let mut sorted = Vec::with_capacity(entries.len());
        for (rank, (value, code)) in entries.into_iter().enumerate() {
            remap[code as usize] = rank as u32;
            sorted.push(value);
        }
        let width = bits_for(sorted.len().saturating_sub(1) as u32);
        let codes = BitPackedVec::pack(
            width,
            self.seen.iter().map(|&c| remap[c as usize]),
            self.widened_at,
        );
        ColumnData {
            dict: Dictionary::from_regions(sorted, Vec::new()),
            // The insert path's merge folds a non-empty tail: one handoff.
            epoch: u64::from(!codes.is_empty()),
            codes,
            pending: None,
        }
    }
}

impl ColumnBuilder {
    /// Start an empty build pre-sized for `rows_hint` rows.
    pub fn new(schema: Arc<TableSchema>, rows_hint: usize) -> Self {
        let columns = (0..schema.arity())
            .map(|_| ColumnBuild {
                seen: Vec::with_capacity(rows_hint),
                ..ColumnBuild::default()
            })
            .collect();
        ColumnBuilder {
            schema,
            keys: KeyIndex::with_capacity(rows_hint),
            columns,
            rows: 0,
        }
    }

    /// Append one row, moving its values out (they are left `NULL`); a row
    /// that fails schema validation or repeats a primary key is refused and
    /// nothing changes.
    pub fn push(&mut self, row: &mut [Value]) -> Result<()> {
        self.schema.validate_row(row)?;
        self.keys.claim(&self.schema, row, self.rows as u32)?;
        for (col, value) in self.columns.iter_mut().zip(row) {
            let next = col.codes.len() as u32;
            let code = *col
                .codes
                .entry(std::mem::replace(value, Value::Null))
                .or_insert(next);
            if code == next && next.is_power_of_two() {
                col.widened_at = self.rows;
            }
            col.seen.push(code);
        }
        self.rows += 1;
        Ok(())
    }

    /// Whether a row with primary key `key` was already pushed.
    pub fn contains_key(&self, key: &[Value]) -> bool {
        self.keys.contains(key)
    }

    /// Adopt a drained table's key index whole (see
    /// [`crate::RowBuilder::adopt_pk_index`]).
    pub fn adopt_pk_index(&mut self, pk: HashMap<PkKey, u32>) {
        self.keys.adopt(pk);
    }

    /// The table holding every accepted row.
    pub fn finish(self) -> ColumnTable {
        ColumnTable {
            pk: self.keys.finish(self.rows),
            schema: self.schema,
            columns: self.columns.into_iter().map(ColumnBuild::finish).collect(),
            rows: self.rows,
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

    fn sample() -> ColumnTable {
        let mut t = ColumnTable::new(schema());
        let statuses = ["new", "paid", "shipped"];
        for i in 0..12 {
            t.insert(&[
                Value::Int(i),
                Value::Double((i % 4) as f64),
                Value::text(statuses[i as usize % 3]),
            ])
            .unwrap();
        }
        t.compact();
        t
    }

    #[test]
    fn insert_and_reconstruct() {
        let t = sample();
        assert_eq!(t.row_count(), 12);
        assert_eq!(
            t.row(5),
            vec![Value::Int(5), Value::Double(1.0), Value::text("shipped")]
        );
        assert_eq!(t.value_at(5, 2), &Value::text("shipped"));
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut t = sample();
        let err = t
            .insert(&[Value::Int(3), Value::Double(0.0), Value::text("new")])
            .unwrap_err();
        assert!(matches!(err, Error::DuplicateKey(_)));
    }

    #[test]
    fn dictionary_compression_kicks_in() {
        let t = sample();
        assert_eq!(t.distinct_count(1), 4); // values 0..4 repeat
        assert_eq!(t.distinct_count(2), 3);
        assert_eq!(t.distinct_count(0), 12);
    }

    #[test]
    fn filter_uses_code_ranges() {
        let t = sample();
        let hits = t.filter_rows(&[ColRange::between(1, Value::Double(2.0), Value::Double(3.0))]);
        let expect: Vec<u32> = (0..12u32).filter(|i| (i % 4) >= 2).collect();
        assert_eq!(hits, expect);
    }

    #[test]
    fn filter_conjunction() {
        let t = sample();
        let hits = t.filter_rows(&[
            ColRange::eq(2, Value::text("paid")),
            ColRange::ge(0, Value::Int(6)),
        ]);
        assert_eq!(hits, vec![7, 10]);
    }

    #[test]
    fn filter_empty_short_circuits() {
        let t = sample();
        let hits = t.filter_rows(&[
            ColRange::eq(2, Value::text("missing")),
            ColRange::ge(0, Value::Int(0)),
        ]);
        assert!(hits.is_empty());
    }

    #[test]
    fn updates_extend_tail_and_compact_restores() {
        let mut t = sample();
        assert_eq!(t.tail_total(), 0);
        t.update_rows(&[2, 3], &[(1, Value::Double(99.5))]).unwrap();
        assert_eq!(t.value_at(2, 1), &Value::Double(99.5));
        assert!(t.tail_total() > 0, "new value should land in the tail");
        // range filters still see tail values
        let hits = t.filter_rows(&[ColRange::ge(1, Value::Double(50.0))]);
        assert_eq!(hits, vec![2, 3]);
        t.compact();
        assert_eq!(t.tail_total(), 0);
        let hits = t.filter_rows(&[ColRange::ge(1, Value::Double(50.0))]);
        assert_eq!(hits, vec![2, 3]);
        assert_eq!(t.value_at(2, 1), &Value::Double(99.5));
    }

    #[test]
    fn update_pk_rejected() {
        let mut t = sample();
        assert!(matches!(
            t.update_rows(&[0], &[(0, Value::Int(99))]).unwrap_err(),
            Error::InvalidOperation(_)
        ));
    }

    #[test]
    fn numeric_visitor_uses_lut() {
        let t = sample();
        let mut sum = 0.0;
        t.for_each_numeric(1, RowSel::All, |v| sum += v);
        assert_eq!(sum, (0..12).map(|i| (i % 4) as f64).sum::<f64>());
    }

    #[test]
    fn non_numeric_column_visits_nothing() {
        let t = sample();
        let mut count = 0;
        t.for_each_numeric(2, RowSel::All, |_| count += 1);
        assert_eq!(count, 0);
    }

    #[test]
    fn point_lookup_works() {
        let t = sample();
        assert_eq!(t.point_lookup(&[Value::Int(11)]), Some(11));
        assert_eq!(t.point_lookup(&[Value::Int(42)]), None);
    }

    #[test]
    fn into_rows_round_trip() {
        let t = sample();
        let rows = (&t).into_rows().unwrap();
        assert_eq!(rows.len(), 12);
        assert_eq!(rows[0][2], Value::text("new"));
        let rebuilt = ColumnTable::build(schema(), rows.clone().into_iter()).unwrap();
        assert_eq!((&rebuilt).into_rows().unwrap(), rows);
        assert_eq!(rebuilt.merge_epoch(), t.merge_epoch());
        assert_eq!(rebuilt.memory_bytes(), t.memory_bytes());
    }

    #[test]
    fn collect_rows_projects() {
        let t = sample();
        let rows = t.collect_rows(RowSel::Subset(&[1]), Some(&[2]));
        assert_eq!(rows, vec![vec![Value::text("paid")]]);
    }

    #[test]
    fn gathered_collect_matches_per_cell_reconstruction() {
        let mut t = sample();
        // leave a dictionary tail in place so the gather crosses regions
        t.update_rows(&[4, 9], &[(1, Value::Double(777.0))])
            .unwrap();
        let subset: Vec<u32> = vec![0, 3, 4, 9, 11];
        let batched = t.collect_rows(RowSel::Subset(&subset), None);
        let reference: Vec<Vec<Value>> = subset.iter().map(|&r| t.row(r)).collect();
        assert_eq!(batched, reference);
        let all = t.collect_rows(RowSel::All, Some(&[2, 0]));
        for (i, row) in all.iter().enumerate() {
            assert_eq!(row[0], *t.value_at(i as u32, 2));
            assert_eq!(row[1], *t.value_at(i as u32, 0));
        }
    }

    #[test]
    fn incremental_merge_matches_one_shot() {
        let mut a = sample();
        let mut b = sample();
        for t in [&mut a, &mut b] {
            t.update_rows(&[2, 3], &[(1, Value::Double(99.5))]).unwrap();
            t.update_rows(&[7], &[(2, Value::text("returned"))])
                .unwrap();
        }
        assert!(a.tail_total() > 0);
        a.compact();
        // Drive b through bounded slices: 3 rows of remap budget per call.
        let mut steps = 0;
        loop {
            let p = b.compact_step(3);
            steps += 1;
            assert!(p.rows_remapped <= 3);
            if p.done {
                break;
            }
            assert!(steps < 100, "chunked merge must terminate");
        }
        assert!(steps > 1, "a 3-row budget must take several slices");
        assert_eq!(b.tail_total(), 0);
        for r in 0..12u32 {
            assert_eq!(a.row(r), b.row(r), "row {r} diverged");
        }
        let range = ColRange::ge(1, Value::Double(50.0));
        assert_eq!(
            a.filter_rows(std::slice::from_ref(&range)),
            b.filter_rows(std::slice::from_ref(&range))
        );
    }

    #[test]
    fn incremental_merge_absorbs_interleaved_writes() {
        let mut t = sample();
        t.update_rows(&[0, 1, 2], &[(1, Value::Double(500.5))])
            .unwrap();
        // Start the merge, then write both behind and ahead of the cursor
        // while it is in flight.
        let p = t.compact_step(4);
        assert!(!p.done);
        t.update_rows(&[1], &[(1, Value::Double(600.5))]).unwrap(); // behind cursor
        t.update_rows(&[10], &[(1, Value::Double(700.5))]).unwrap(); // ahead of cursor
        t.insert(&[Value::Int(12), Value::Double(800.5), Value::text("shipped")])
            .unwrap();
        while !t.compact_step(4).done {}
        assert_eq!(t.value_at(1, 1), &Value::Double(600.5));
        assert_eq!(t.value_at(10, 1), &Value::Double(700.5));
        assert_eq!(t.value_at(12, 1), &Value::Double(800.5));
        assert_eq!(t.row_count(), 13);
        let hits = t.filter_rows(&[ColRange::ge(1, Value::Double(500.0))]);
        assert_eq!(hits, vec![0, 1, 2, 10, 12]);
    }

    #[test]
    fn compact_step_reports_done_on_clean_table() {
        let mut t = sample();
        let p = t.compact_step(1024);
        assert!(p.done);
        assert_eq!(p.rows_remapped, 0);
        assert_eq!(p.entries_folded, 0);
    }

    #[test]
    fn one_shot_compact_finishes_in_flight_merge() {
        let mut t = sample();
        t.update_rows(&[4, 5], &[(1, Value::Double(123.25))])
            .unwrap();
        let p = t.compact_step(2);
        assert!(!p.done);
        t.compact();
        assert_eq!(t.tail_total(), 0);
        assert_eq!(t.value_at(4, 1), &Value::Double(123.25));
        assert!(!t.column(1).merge_in_progress());
    }

    #[test]
    fn one_shot_compact_folds_values_interned_mid_merge() {
        let mut t = sample();
        t.update_rows(&[4, 5], &[(1, Value::Double(123.25))])
            .unwrap();
        // Start a chunked merge, then intern a fresh value while it is in
        // flight: it lands in the rebuilt dictionary's tail.
        assert!(!t.compact_step(2).done);
        t.update_rows(&[7], &[(1, Value::Double(456.75))]).unwrap();
        // A one-shot compact must fold that mid-merge value too.
        t.compact();
        assert_eq!(t.tail_total(), 0, "compact must always empty the tail");
        assert_eq!(t.value_at(7, 1), &Value::Double(456.75));
        let hits = t.filter_rows(&[ColRange::ge(1, Value::Double(400.0))]);
        assert_eq!(hits, vec![7]);
    }

    #[test]
    fn merge_epoch_bumps_on_every_handoff() {
        let mut t = sample();
        let e0 = t.merge_epoch();
        // A clean compact rebuilds nothing: no handoff, no bump.
        t.compact();
        assert_eq!(t.merge_epoch(), e0);
        // One-shot rebuild path.
        t.update_rows(&[0], &[(1, Value::Double(901.0))]).unwrap();
        t.compact();
        let e1 = t.merge_epoch();
        assert!(e1 > e0, "in-place rebuild must bump the epoch");
        // Shadow-swap path: the epoch moves only when the swap lands.
        t.update_rows(&[1], &[(1, Value::Double(902.0))]).unwrap();
        assert!(!t.compact_step(3).done);
        assert_eq!(t.merge_epoch(), e1, "no handoff before the swap");
        while !t.compact_step(3).done {}
        assert!(t.merge_epoch() > e1, "swap completion is the handoff");
    }

    #[test]
    fn cancel_merge_abandons_shadow_state_without_data_loss() {
        let mut t = sample();
        t.update_rows(&[2, 3], &[(1, Value::Double(77.5))]).unwrap();
        let tail = t.tail_total();
        let epoch = t.merge_epoch();
        assert!(!t.compact_step(4).done);
        assert!(t.merge_in_progress());
        assert_eq!(t.cancel_merge(), 1);
        assert!(!t.merge_in_progress());
        assert_eq!(t.merge_epoch(), epoch, "no handoff happened");
        assert_eq!(t.tail_total(), tail, "the tail is untouched");
        // Reads see the same data; a later merge starts from scratch and
        // still folds everything.
        assert_eq!(t.value_at(2, 1), &Value::Double(77.5));
        let mut steps = 0;
        while !t.compact_step(4).done {
            steps += 1;
            assert!(steps < 100);
        }
        assert_eq!(t.tail_total(), 0);
        assert_eq!(t.value_at(3, 1), &Value::Double(77.5));
        // Cancelling when nothing is in flight is a no-op.
        assert_eq!(t.cancel_merge(), 0);
    }

    #[test]
    fn per_column_compact_is_selective() {
        let mut t = sample();
        t.update_rows(&[0], &[(1, Value::Double(50.5))]).unwrap();
        t.update_rows(&[1], &[(2, Value::text("returned"))])
            .unwrap();
        assert_eq!(t.tail_len(1), 1);
        assert_eq!(t.tail_len(2), 1);
        t.compact_column(1);
        assert_eq!(t.tail_len(1), 0);
        assert_eq!(t.tail_len(2), 1, "other columns keep their tails");
        assert_eq!(t.value_at(0, 1), &Value::Double(50.5));
        // threshold-driven selective compact: only tails above min merge
        t.update_rows(
            &[2, 3],
            &[(1, Value::Double(60.5)), (1, Value::Double(61.5))],
        )
        .unwrap();
        assert_eq!(t.tail_len(1), 2);
        let merged = t.compact_columns_over(2);
        assert_eq!(merged, 0, "no tail exceeds 2 entries yet");
        t.update_rows(&[5], &[(1, Value::Double(62.5))]).unwrap();
        let merged = t.compact_columns_over(2);
        assert_eq!(merged, 3, "column 1's tail crossed the watermark");
        assert_eq!(t.tail_len(1), 0);
        assert_eq!(t.tail_len(2), 1);
    }
}
