//! Bit-packed vectors of dictionary codes, laid out for word-parallel scans.
//!
//! Column-store code vectors hold small integers (dictionary codes), so
//! storing them in a handful of bits instead of full 32-bit words is the
//! classic column-store compression the paper's `f_compression` adjustment
//! reacts to. The width grows on demand: when a push would not fit, the
//! vector repacks itself at a wider width (amortized O(1) per push).
//!
//! # Layout
//!
//! A `width`-bit code is stored in a **field** of `width + 1` bits — the
//! value in the low `width` bits plus one always-zero *delimiter* bit on
//! top — and `64 / (width + 1)` fields are packed per `u64` word. Codes
//! never straddle word boundaries (the few bits that do not fit a whole
//! field are left unused at the top of each word). This trades a little
//! compression (e.g. 16 instead of 13 bits per code at width 13) for scan
//! kernels that operate on whole words:
//!
//! * [`BitPackedVec::decode_into`] unpacks a word's worth of codes with
//!   constant shift/mask sequences (per-width monomorphized, so the
//!   compiler unrolls and vectorizes them);
//! * [`BitPackedVec::match_interval_into`] evaluates a code-domain range
//!   predicate **without decoding at all**: the delimiter bit makes the
//!   packed word a SIMD-within-a-register vector, so one 64-bit subtract
//!   range-tests every code in the word at once (the BitWeaving-H idea of
//!   Li & Patel, SIGMOD 2013).
//!
//! [`BLOCK`] is the block size the batched scan pipeline above this module
//! uses.

/// Number of codes the batched scan pipeline decodes per block.
///
/// 1024 codes keep the decode buffer (4 KiB) comfortably inside L1 while
/// amortizing per-block bookkeeping; it is also a multiple of 64, so one
/// block maps to exactly 16 selection-vector words.
pub const BLOCK: usize = 1024;

/// A growable vector of `u32` values stored at a fixed bit width.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitPackedVec {
    words: Vec<u64>,
    /// Bits per entry, 0..=32. Width 0 is valid and means "all values are 0".
    width: u8,
    /// Fields (codes) per word: `64 / (width + 1)`. 0 when `width == 0`.
    per_word: u8,
    /// Round-up reciprocal for dividing by `per_word` without a `div`
    /// instruction: `u64::MAX / per_word + 1`; 0 when `per_word <= 1`.
    div_magic: u64,
    len: usize,
}

/// Number of bits needed to represent `max_value`.
pub fn bits_for(max_value: u32) -> u8 {
    (32 - max_value.leading_zeros()) as u8
}

/// Fields per word at `width` bits per code.
#[inline]
fn fields_per_word(width: u8) -> usize {
    64 / (width as usize + 1)
}

#[inline]
fn mask_of(width: usize) -> u64 {
    if width == 0 {
        0
    } else if width >= 32 {
        u32::MAX as u64
    } else {
        (1u64 << width) - 1
    }
}

/// Word capacity after pushes fill `len` entries at `width > 0` bits into a
/// word vector of capacity `cap` (`Vec` doubling, at least 4 words).
fn grown_words(mut cap: usize, width: u8, len: usize) -> usize {
    let need = len.div_ceil(fields_per_word(width));
    while cap < need {
        cap = (cap * 2).max(4);
    }
    cap
}

/// Unpack every field of each word in `words` into `out`
/// (`out.len() == words.len() * K` where `K = 64 / (W + 1)`).
///
/// With `W` a const parameter the inner loop fully unrolls into constant
/// shift/mask pairs per field and the outer loop auto-vectorizes.
#[inline]
fn unpack_words<const W: usize>(words: &[u64], out: &mut [u32]) {
    let k = 64 / (W + 1);
    let mask = mask_of(W);
    debug_assert_eq!(out.len(), words.len() * k);
    for (w, chunk) in words.iter().zip(out.chunks_exact_mut(k)) {
        for (f, slot) in chunk.iter_mut().enumerate() {
            *slot = ((w >> (f * (W + 1))) & mask) as u32;
        }
    }
}

/// Word-parallel range test: for each word in `words`, produce one match
/// bit per field (`c.wrapping_sub(lo) < span`, i.e. `lo <= c < hi` for
/// `span = hi - lo`), pushed LSB-first through `emit(k_bits, k)`.
///
/// The delimiter bit on top of every field turns the subtraction into `K`
/// independent `width+1`-bit subtractions: setting the delimiter and
/// subtracting `lo` leaves the delimiter set exactly in fields whose code
/// is `>= lo` (no borrow), and likewise for `hi` — three word ops
/// range-test all `K` codes at once, never decoding them.
#[inline]
fn swar_match_words<const W: usize>(
    words: &[u64],
    lo: u64,
    hi: u64,
    mut emit: impl FnMut(u64, usize),
) {
    debug_assert!(
        lo <= 1 << W && hi <= 1 << W,
        "SWAR bounds must fit the field"
    );
    let k = 64 / (W + 1);
    let f = W + 1;
    let mut delim = 0u64;
    let mut lo_v = 0u64;
    let mut hi_v = 0u64;
    for i in 0..k {
        delim |= 1u64 << (i * f + W);
        lo_v |= lo << (i * f);
        hi_v |= hi << (i * f);
    }
    for &w in words {
        let ge = (w | delim).wrapping_sub(lo_v) & delim;
        let lt = !((w | delim).wrapping_sub(hi_v)) & delim;
        let m = (ge & lt) >> W;
        // Gather the K match bits (at stride `f`) into the low K bits.
        let mut bits = 0u64;
        for i in 0..k {
            bits |= ((m >> (i * f)) & 1) << i;
        }
        emit(bits, k);
    }
}

macro_rules! width_dispatch {
    ($width:expr, $f:ident) => {
        match $width {
            1 => $f::<1>,
            2 => $f::<2>,
            3 => $f::<3>,
            4 => $f::<4>,
            5 => $f::<5>,
            6 => $f::<6>,
            7 => $f::<7>,
            8 => $f::<8>,
            9 => $f::<9>,
            10 => $f::<10>,
            11 => $f::<11>,
            12 => $f::<12>,
            13 => $f::<13>,
            14 => $f::<14>,
            15 => $f::<15>,
            16 => $f::<16>,
            17 => $f::<17>,
            18 => $f::<18>,
            19 => $f::<19>,
            20 => $f::<20>,
            21 => $f::<21>,
            22 => $f::<22>,
            23 => $f::<23>,
            24 => $f::<24>,
            25 => $f::<25>,
            26 => $f::<26>,
            27 => $f::<27>,
            28 => $f::<28>,
            29 => $f::<29>,
            30 => $f::<30>,
            31 => $f::<31>,
            32 => $f::<32>,
            other => unreachable!("bit width {other} out of range"),
        }
    };
}

impl BitPackedVec {
    /// Empty vector with zero width.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty vector pre-sized for `capacity` entries of `width` bits.
    pub fn with_capacity(width: u8, capacity: usize) -> Self {
        assert!(width <= 32, "code width above 32 bits");
        let mut v = BitPackedVec::new();
        v.set_width(width);
        let words = if width == 0 {
            0
        } else {
            capacity.div_ceil(fields_per_word(width))
        };
        v.words = Vec::with_capacity(words);
        v
    }

    fn set_width(&mut self, width: u8) {
        self.width = width;
        if width == 0 {
            self.per_word = 0;
            self.div_magic = 0;
        } else {
            let k = fields_per_word(width) as u64;
            self.per_word = k as u8;
            // Round-up reciprocal: exact for all dividends < 2^32 (row
            // indexes are u32). Undefined (and unused) for k == 1.
            self.div_magic = if k > 1 { u64::MAX / k + 1 } else { 0 };
        }
    }

    /// Word index and field shift of entry `idx`.
    #[inline]
    fn slot(&self, idx: usize) -> (usize, u32) {
        let k = self.per_word as usize;
        debug_assert!(idx < (1usize << 32), "row index beyond fast-division range");
        let word = if k == 1 {
            idx
        } else {
            ((idx as u128 * self.div_magic as u128) >> 64) as usize
        };
        let field = idx - word * k;
        (word, (field * (self.width as usize + 1)) as u32)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current bits-per-entry.
    pub fn width(&self) -> u8 {
        self.width
    }

    /// Heap bytes occupied by the packed representation.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * 8
    }

    fn mask(width: u8) -> u64 {
        mask_of(width as usize)
    }

    /// Append a value, widening the representation if required.
    pub fn push(&mut self, value: u32) {
        let needed = bits_for(value);
        if needed > self.width {
            self.repack(needed);
        }
        if self.width == 0 {
            // All stored values are zero; nothing to write.
            self.len += 1;
            return;
        }
        let (word, shift) = self.slot(self.len);
        if word >= self.words.len() {
            self.words.push(0);
        }
        self.words[word] |= (value as u64) << shift;
        self.len += 1;
    }

    /// Read the entry at `idx`.
    ///
    /// # Panics
    /// Panics if `idx >= len`.
    #[inline]
    pub fn get(&self, idx: usize) -> u32 {
        assert!(
            idx < self.len,
            "BitPackedVec index {idx} out of bounds (len {})",
            self.len
        );
        if self.width == 0 {
            return 0;
        }
        let (word, shift) = self.slot(idx);
        ((self.words[word] >> shift) & Self::mask(self.width)) as u32
    }

    /// Overwrite the entry at `idx`, widening if required.
    ///
    /// # Panics
    /// Panics if `idx >= len`.
    pub fn set(&mut self, idx: usize, value: u32) {
        assert!(
            idx < self.len,
            "BitPackedVec index {idx} out of bounds (len {})",
            self.len
        );
        let needed = bits_for(value);
        if needed > self.width {
            self.repack(needed);
        }
        if self.width == 0 {
            return; // value must be 0 to have width 0 after repack
        }
        let (word, shift) = self.slot(idx);
        let mask = Self::mask(self.width);
        self.words[word] &= !(mask << shift);
        self.words[word] |= (value as u64) << shift;
    }

    /// Re-encode every entry at `new_width` bits. O(len).
    pub fn repack(&mut self, new_width: u8) {
        assert!(new_width <= 32, "code width above 32 bits");
        assert!(new_width >= self.width, "repack must not narrow the width");
        if new_width == self.width {
            return;
        }
        let mut wider = BitPackedVec::with_capacity(new_width, self.len);
        for i in 0..self.len {
            let v = self.get(i);
            // Inline push without the widen check: new_width is sufficient.
            let (word, shift) = wider.slot(wider.len);
            if word >= wider.words.len() {
                wider.words.push(0);
            }
            wider.words[word] |= (v as u64) << shift;
            wider.len += 1;
        }
        *self = wider;
    }

    /// Pack `codes` (every one below `2^width`) at `width` bits — the bulk
    /// counterpart of pushing them one by one. `widened_at` is the position
    /// at which the push order `codes` replace first needed `width` bits
    /// (the first code `2^(width-1)`). The vector reserves the word
    /// capacity that push order would have reached — the last widening
    /// repacks to an exact fit and pushes double from there — so a built
    /// column holds, and later grows, the same memory as an inserted one.
    pub(crate) fn pack(
        width: u8,
        codes: impl ExactSizeIterator<Item = u32>,
        widened_at: usize,
    ) -> Self {
        let mut v = BitPackedVec::with_capacity(width, 0);
        if width > 0 {
            let repacked = widened_at.div_ceil(fields_per_word(width));
            v.words
                .reserve_exact(grown_words(repacked, width, codes.len()));
        }
        for code in codes {
            v.push(code);
        }
        v
    }

    /// Iterate over all entries.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// The packed words backing this vector, in layout order.
    ///
    /// Together with [`BitPackedVec::width`] and [`BitPackedVec::len`] this
    /// is the vector's complete serialized form; feed the same three values
    /// to [`BitPackedVec::from_raw_parts`] to reconstruct it bit-for-bit.
    /// The segment file format persists code vectors this way.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuild a vector from its serialized parts (see
    /// [`BitPackedVec::words`]).
    ///
    /// `words` must use the delimiter-aligned layout this module produces:
    /// `64 / (width + 1)` fields per word, delimiter bits zero, unused top
    /// bits zero. The derived fields (`per_word`, the division magic) are
    /// recomputed, so only the three persisted values are needed.
    ///
    /// ```
    /// use hsd_storage::BitPackedVec;
    /// let v: BitPackedVec = [3u32, 1, 4, 1, 5].iter().copied().collect();
    /// let rebuilt =
    ///     BitPackedVec::from_raw_parts(v.words().to_vec(), v.width(), v.len());
    /// assert_eq!(rebuilt, v);
    /// ```
    ///
    /// # Panics
    /// Panics if `width > 32` or `words` is not exactly the number of words
    /// `len` entries occupy at `width` bits.
    pub fn from_raw_parts(words: Vec<u64>, width: u8, len: usize) -> Self {
        assert!(width <= 32, "code width above 32 bits");
        let expect_words = if width == 0 {
            0
        } else {
            len.div_ceil(fields_per_word(width))
        };
        assert_eq!(
            words.len(),
            expect_words,
            "word count does not match width {width} / len {len}"
        );
        let mut v = BitPackedVec::new();
        v.set_width(width);
        v.words = words;
        v.len = len;
        v
    }

    /// Decode the run `[start, start + out.len())` into `out` using
    /// word-level unpacking.
    ///
    /// Whole packed words go through a per-width monomorphized kernel
    /// (`unpack_words`) whose shifts are compile-time constants — each
    /// word is loaded once and unpacked with straight-line shift/mask code
    /// the compiler vectorizes. The few codes before/after the word-aligned
    /// middle use the scalar field extraction. Unlike [`BitPackedVec::get`]
    /// there is no per-element bounds assertion or index division.
    ///
    /// # Panics
    /// Panics if `start + out.len() > len`.
    pub fn decode_into(&self, start: usize, out: &mut [u32]) {
        let n = out.len();
        assert!(
            start + n <= self.len,
            "decode_into range {start}..{} out of bounds (len {})",
            start + n,
            self.len
        );
        if self.width == 0 || n == 0 {
            out.fill(0);
            return;
        }
        let width = self.width as usize;
        let k = self.per_word as usize;
        let mask = Self::mask(self.width);
        let field_bits = width + 1;
        // Scalar prologue up to the next word boundary.
        let (mut word, _) = self.slot(start);
        let lead = ((k - (start - word * k)) % k).min(n);
        for (i, slot) in out[..lead].iter_mut().enumerate() {
            let (w, shift) = self.slot(start + i);
            *slot = ((self.words[w] >> shift) & mask) as u32;
        }
        if lead > 0 {
            word += 1;
        }
        // Word-aligned middle through the per-width kernel.
        let mid_words = (n - lead) / k;
        if mid_words > 0 {
            let kernel = width_dispatch!(width, unpack_words);
            kernel(
                &self.words[word..word + mid_words],
                &mut out[lead..lead + mid_words * k],
            );
            word += mid_words;
        }
        // Scalar tail inside the final partial word.
        let done = lead + mid_words * k;
        for (f, slot) in out[done..].iter_mut().enumerate() {
            *slot = ((self.words[word] >> (f * field_bits)) & mask) as u32;
        }
    }

    /// Write match bits for the half-open code interval `[lo, hi)` over the
    /// run `[start, start + count)` into `out` (one bit per code, 64 codes
    /// per word, LSB first; bits past `count` in the final word are zero).
    ///
    /// The predicate runs word-parallel over the packed words
    /// (`swar_match_words`): codes are never decoded, each packed word is
    /// range-tested against the whole interval with three 64-bit ALU ops.
    ///
    /// # Panics
    /// Panics if `start` is not 64-aligned, `out` is shorter than
    /// `count.div_ceil(64)` words, or the run exceeds the vector.
    pub fn match_interval_into(
        &self,
        start: usize,
        count: usize,
        lo: u32,
        hi: u32,
        out: &mut [u64],
    ) {
        assert_eq!(
            start % 64,
            0,
            "match_interval_into start must be 64-aligned"
        );
        assert!(
            start + count <= self.len,
            "match_interval_into range {start}..{} out of bounds (len {})",
            start + count,
            self.len
        );
        let out_words = count.div_ceil(64);
        assert!(out.len() >= out_words, "match bitmap too short");
        out[..out_words].fill(0);
        if count == 0 {
            return;
        }
        if self.width == 0 {
            // Every code is 0: all rows match iff 0 ∈ [lo, hi).
            if lo == 0 && hi > 0 {
                for (i, w) in out[..out_words].iter_mut().enumerate() {
                    let bits_here = (count - i * 64).min(64);
                    *w = if bits_here == 64 {
                        u64::MAX
                    } else {
                        (1u64 << bits_here) - 1
                    };
                }
            }
            return;
        }
        let width = self.width as usize;
        let k = self.per_word as usize;
        let field_bits = width + 1;
        let mask = Self::mask(self.width);
        // Every stored code is < 2^width, so clamping both bounds to
        // 2^width preserves the predicate while keeping them representable
        // in a width+1-bit field (the SWAR kernel's requirement).
        let cap = 1u64 << width;
        let lo = (lo as u64).min(cap);
        let hi = (hi as u64).min(cap);
        let span = hi - lo;
        // Accumulator packing K match bits per packed word into 64-bit
        // output words (K rarely divides 64 evenly).
        let mut acc = 0u64;
        let mut acc_bits = 0usize;
        let mut o = 0usize;
        let mut flush = |bits: u64, n_bits: usize, acc: &mut u64, acc_bits: &mut usize| {
            *acc |= bits << *acc_bits;
            *acc_bits += n_bits;
            if *acc_bits >= 64 {
                out[o] = *acc;
                o += 1;
                *acc_bits -= 64;
                *acc = if *acc_bits == 0 {
                    0
                } else {
                    bits >> (n_bits - *acc_bits)
                };
            }
        };
        // Scalar prologue: fields of the first (possibly partial) word.
        let (first_word, _) = self.slot(start);
        let lead = ((k - (start - first_word * k)) % k).min(count);
        for i in 0..lead {
            let (w, shift) = self.slot(start + i);
            let c = (self.words[w] >> shift) & mask;
            flush(
                (c.wrapping_sub(lo) < span) as u64,
                1,
                &mut acc,
                &mut acc_bits,
            );
        }
        let mut word = first_word + usize::from(lead > 0);
        // Word-parallel middle.
        let mid_words = (count - lead) / k;
        if mid_words > 0 {
            let kernel = width_dispatch!(width, swar_match_words);
            kernel(
                &self.words[word..word + mid_words],
                lo,
                hi,
                |bits, n_bits| flush(bits, n_bits, &mut acc, &mut acc_bits),
            );
            word += mid_words;
        }
        // Scalar tail inside the final partial word.
        for f in 0..count - lead - mid_words * k {
            let c = (self.words[word] >> (f * field_bits)) & mask;
            flush(
                (c.wrapping_sub(lo) < span) as u64,
                1,
                &mut acc,
                &mut acc_bits,
            );
        }
        if acc_bits > 0 {
            out[o] = acc;
        }
    }
}

impl FromIterator<u32> for BitPackedVec {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut v = BitPackedVec::new();
        for x in iter {
            v.push(x);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_boundaries() {
        assert_eq!(bits_for(0), 0);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 3);
        assert_eq!(bits_for(u32::MAX), 32);
    }

    #[test]
    fn push_get_round_trip() {
        let vals = [0u32, 1, 7, 3, 200, 5, 65_535, 12];
        let v: BitPackedVec = vals.iter().copied().collect();
        assert_eq!(v.len(), vals.len());
        for (i, &x) in vals.iter().enumerate() {
            assert_eq!(v.get(i), x, "index {i}");
        }
    }

    #[test]
    fn zero_width_stores_zeros() {
        let mut v = BitPackedVec::new();
        for _ in 0..100 {
            v.push(0);
        }
        assert_eq!(v.width(), 0);
        assert_eq!(v.len(), 100);
        assert_eq!(v.get(99), 0);
        assert!(v.heap_bytes() == 0);
    }

    #[test]
    fn widening_preserves_existing_entries() {
        let mut v = BitPackedVec::new();
        for i in 0..50u32 {
            v.push(i % 4);
        }
        assert_eq!(v.width(), 2);
        v.push(1_000_000);
        assert_eq!(v.width(), bits_for(1_000_000));
        for i in 0..50usize {
            assert_eq!(v.get(i), (i % 4) as u32);
        }
        assert_eq!(v.get(50), 1_000_000);
    }

    #[test]
    fn set_updates_in_place() {
        let mut v: BitPackedVec = (0..100u32).collect();
        v.set(3, 42);
        assert_eq!(v.get(3), 42);
        assert_eq!(v.get(2), 2);
        assert_eq!(v.get(4), 4);
        // widening set
        v.set(10, u32::MAX);
        assert_eq!(v.get(10), u32::MAX);
        assert_eq!(v.get(9), 9);
        assert_eq!(v.get(11), 11);
    }

    #[test]
    fn entries_at_every_field_phase() {
        // Width 7 packs 8 codes per word; exercise every in-word position
        // plus repeated word crossings.
        let vals: Vec<u32> = (0..200).map(|i| (i * 13) % 128).collect();
        let v: BitPackedVec = vals.iter().copied().collect();
        assert_eq!(v.width(), 7);
        for (i, &x) in vals.iter().enumerate() {
            assert_eq!(v.get(i), x, "index {i}");
        }
        let mut w = v.clone();
        for (i, &x) in vals.iter().enumerate().rev() {
            w.set(i, 127 - x);
        }
        for (i, &x) in vals.iter().enumerate() {
            assert_eq!(w.get(i), 127 - x, "index {i}");
        }
    }

    #[test]
    fn width_32_round_trip() {
        let vals = [u32::MAX, 0, 123_456_789, u32::MAX - 1];
        let v: BitPackedVec = vals.iter().copied().collect();
        for (i, &x) in vals.iter().enumerate() {
            assert_eq!(v.get(i), x);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let v: BitPackedVec = [1u32, 2].iter().copied().collect();
        v.get(2);
    }

    #[test]
    fn iter_matches_get() {
        let vals: Vec<u32> = (0..77).map(|i| i * 3 % 23).collect();
        let v: BitPackedVec = vals.iter().copied().collect();
        let collected: Vec<u32> = v.iter().collect();
        assert_eq!(collected, vals);
    }

    fn domain_vals(domain: u64, n: u64) -> Vec<u32> {
        (0..n)
            .map(|i| ((i.wrapping_mul(0x9E37_79B9)) % (domain + 1)) as u32)
            .collect()
    }

    #[test]
    fn decode_into_matches_get() {
        // Exercise a spread of widths: tiny, mid, and full 32-bit (one code
        // per word), including non-power-of-two fields-per-word counts.
        for domain in [
            1u64,
            2,
            3,
            5,
            7,
            11,
            100,
            1 << 15,
            (1 << 21) - 1,
            u32::MAX as u64 - 1,
        ] {
            let vals = domain_vals(domain, 2500);
            let v: BitPackedVec = vals.iter().copied().collect();
            let mut buf = vec![0u32; vals.len()];
            v.decode_into(0, &mut buf);
            assert_eq!(buf, vals, "domain {domain}");
            // Unaligned starts and short runs.
            for (start, n) in [(0usize, 1usize), (1, 63), (63, 65), (100, 1000), (2499, 1)] {
                let mut buf = vec![0u32; n];
                v.decode_into(start, &mut buf);
                assert_eq!(
                    buf,
                    &vals[start..start + n],
                    "domain {domain} at {start}+{n}"
                );
            }
        }
    }

    #[test]
    fn decode_into_zero_width_and_empty() {
        let mut v = BitPackedVec::new();
        for _ in 0..100 {
            v.push(0);
        }
        let mut buf = vec![9u32; 50];
        v.decode_into(25, &mut buf);
        assert!(buf.iter().all(|&x| x == 0));
        let empty = BitPackedVec::new();
        let mut nothing: [u32; 0] = [];
        empty.decode_into(0, &mut nothing);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn decode_into_out_of_bounds_panics() {
        let v: BitPackedVec = [1u32, 2, 3].iter().copied().collect();
        let mut buf = [0u32; 2];
        v.decode_into(2, &mut buf);
    }

    #[test]
    fn match_interval_agrees_with_scalar() {
        for domain in [1u64, 3, 7, 100, 8191, (1 << 20) - 1] {
            let vals = domain_vals(domain, 1500);
            let v: BitPackedVec = vals.iter().copied().collect();
            let cases = [
                (0u32, 1u32),
                (0, domain as u32 + 1),
                (domain as u32 / 3, (2 * domain as u32 / 3).max(1)),
                (5, 5), // empty interval
            ];
            for (lo, hi) in cases {
                for (start, count) in [(0usize, vals.len()), (64, 1000), (128, 1), (64, 0)] {
                    let mut out = vec![u64::MAX; count.div_ceil(64).max(1)];
                    v.match_interval_into(start, count, lo, hi, &mut out);
                    for (j, idx) in (start..start + count).enumerate() {
                        let expect = vals[idx] >= lo && vals[idx] < hi;
                        let got = out[j / 64] >> (j % 64) & 1 == 1;
                        assert_eq!(
                            got, expect,
                            "domain {domain} [{lo},{hi}) idx {idx} (start {start})"
                        );
                    }
                    // Bits past `count` stay zero.
                    if count > 0 && count % 64 != 0 {
                        assert_eq!(out[(count - 1) / 64] >> (count % 64), 0);
                    }
                }
            }
        }
    }

    #[test]
    fn match_interval_zero_width() {
        let mut v = BitPackedVec::new();
        for _ in 0..130 {
            v.push(0);
        }
        let mut out = vec![0u64; 3];
        v.match_interval_into(0, 130, 0, 1, &mut out);
        assert_eq!(out[0], u64::MAX);
        assert_eq!(out[1], u64::MAX);
        assert_eq!(out[2], 0b11);
        v.match_interval_into(0, 130, 1, 2, &mut out);
        assert_eq!(&out[..3], &[0, 0, 0]);
    }

    #[test]
    fn layout_uses_field_alignment() {
        // Width 13 → 14-bit fields → 4 codes per word: 1000 codes need 250
        // words, not ceil(1000 * 13 / 64) = 204.
        let v: BitPackedVec = (0..1000u32).map(|i| i * 8).collect();
        assert_eq!(v.width(), 13);
        assert!(v.heap_bytes() >= 250 * 8);
    }
}
