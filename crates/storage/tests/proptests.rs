//! Property-based tests for the storage layer: the two stores must be
//! observationally equivalent, and compression must never change results.

use std::sync::Arc;

use proptest::prelude::*;

use hsd_storage::segment::{decode_segment, encode_segment};
use hsd_storage::{
    BitPackedVec, ColRange, ColumnData, ColumnTable, Dictionary, RowSel, RowTable, SegmentReader,
    SegmentStore, SelVec, StoreKind, Table,
};
use hsd_types::{ColumnDef, ColumnType, TableSchema, Value};

fn schema() -> Arc<TableSchema> {
    Arc::new(
        TableSchema::new(
            "p",
            vec![
                ColumnDef::new("id", ColumnType::Integer),
                ColumnDef::new("a", ColumnType::Integer),
                ColumnDef::new("b", ColumnType::Double),
            ],
            vec![0],
        )
        .unwrap(),
    )
}

/// Rows with a unique id, small-domain `a` (compresses well), and doubles.
fn rows_strategy() -> impl Strategy<Value = Vec<(i32, f64)>> {
    prop::collection::vec((0i32..20, -100.0f64..100.0), 0..120)
}

fn build_both(rows: &[(i32, f64)]) -> (RowTable, ColumnTable) {
    let mut rt = RowTable::new(schema());
    let mut ct = ColumnTable::new(schema());
    for (i, &(a, b)) in rows.iter().enumerate() {
        let row = [Value::Int(i as i32), Value::Int(a), Value::Double(b)];
        rt.insert(&row).unwrap();
        ct.insert(&row).unwrap();
    }
    (rt, ct)
}

/// Composite primary key `(k1, k2)`, a nullable integer (NULL entries
/// make the dictionary variable-width), variable-length text, a constant
/// column (code width 0) and a flag (code width 1).
fn segment_schema() -> Arc<TableSchema> {
    Arc::new(
        TableSchema::new(
            "seg",
            vec![
                ColumnDef::new("k1", ColumnType::Integer),
                ColumnDef::new("k2", ColumnType::Varchar),
                ColumnDef::nullable("v", ColumnType::Integer),
                ColumnDef::new("t", ColumnType::Varchar),
                ColumnDef::new("c", ColumnType::Integer),
                ColumnDef::new("f", ColumnType::Boolean),
            ],
            vec![0, 1],
        )
        .unwrap(),
    )
}

/// A table over [`segment_schema`]: `rows` are `(k1, v, text length)`;
/// `late` of them arrive (and `updates` land) after the delta merge, so
/// dictionary tails — the primary key's included — stay live; `widen`
/// re-packs every code vector to 31 or 32 bits (one or two codes per word).
fn segment_table(
    rows: &[(i32, i32, usize)],
    late: usize,
    updates: &[(usize, i32)],
    widen: u8,
) -> ColumnTable {
    let mut t = ColumnTable::new(segment_schema());
    for (i, &(k1, v, text_len)) in rows.iter().enumerate() {
        if i + late == rows.len() {
            t.compact();
        }
        t.insert(&[
            Value::Int(k1),
            Value::text(format!("key-{i}")),
            if v % 5 == 0 {
                Value::Null
            } else {
                Value::Int(v)
            },
            Value::text("x".repeat(text_len)),
            Value::Int(7),
            Value::Bool(i % 2 == 0),
        ])
        .unwrap();
    }
    if late == 0 {
        t.compact();
    }
    for &(row, v) in updates {
        if !rows.is_empty() {
            let row = (row % rows.len()) as u32;
            t.update_rows(
                &[row],
                &[(2, Value::Int(v)), (3, Value::text(format!("upd{v}")))],
            )
            .unwrap();
        }
    }
    if widen == 0 {
        return t;
    }
    let columns = (0..6)
        .map(|c| {
            let col = t.column(c);
            let mut codes = col.packed_codes().unwrap().clone();
            codes.repack(30 + widen);
            ColumnData::from_parts(col.dictionary().clone(), codes, col.merge_epoch())
        })
        .collect();
    ColumnTable::from_parts(segment_schema(), columns).unwrap()
}

proptest! {
    /// The in-place reader and the whole-fragment decoder are two views of
    /// the same bytes: every column, every point hit and every miss agree.
    #[test]
    fn segment_reader_matches_decoded_table(
        rows in prop::collection::vec((0i32..6, 0i32..40, 0usize..24), 0..420),
        late in 0usize..30,
        updates in prop::collection::vec((0usize..420, 1000i32..1010), 0..6),
        widen in 0u8..3,
        shape in 0usize..6,
    ) {
        // Empty and single-row tables are shapes of their own.
        let rows = &rows[..rows.len().min(if shape < 2 { shape } else { usize::MAX })];
        let table = segment_table(rows, late, &updates, widen);
        let bytes = encode_segment(&table);
        prop_assert_eq!(&encode_segment(&table), &bytes, "encoding is byte-stable");
        let decoded = decode_segment(segment_schema(), &bytes).unwrap();
        prop_assert_eq!(&encode_segment(&decoded), &bytes, "decode + encode is the identity");
        prop_assert_eq!(decoded.row_count(), rows.len());

        let store = SegmentStore::mem();
        store.put("seg", bytes).unwrap();
        let reader = SegmentReader::open(segment_schema(), store.open("seg").unwrap()).unwrap();
        prop_assert_eq!(reader.row_count(), rows.len());
        prop_assert_eq!(reader.merge_epoch(), decoded.merge_epoch());
        for c in 0..6 {
            let (got, want) = (reader.column(c).unwrap(), decoded.column(c));
            prop_assert_eq!(got.packed_codes(), want.packed_codes());
            prop_assert_eq!(got.dictionary().sorted_len(), want.dictionary().sorted_len());
            prop_assert!(got.dictionary().values().eq(want.dictionary().values()));
            prop_assert_eq!(got.merge_epoch(), want.merge_epoch());
        }
        let all: Vec<u32> = (0..rows.len() as u32).collect();
        prop_assert_eq!(
            reader.rows(&all, None).unwrap(),
            all.iter().map(|&r| decoded.row(r)).collect::<Vec<_>>()
        );
        for &r in &all {
            let key = [decoded.value_at(r, 0).clone(), decoded.value_at(r, 1).clone()];
            prop_assert_eq!(reader.locate(&key).unwrap(), Some(r));
            prop_assert_eq!(reader.rows(&[r], Some(&[3, 0])).unwrap(), vec![vec![
                decoded.value_at(r, 3).clone(),
                decoded.value_at(r, 0).clone(),
            ]]);
            // Both parts exist in their dictionaries, but not together.
            let crossed = [Value::Int((rows[r as usize].0 + 1) % 6), key[1].clone()];
            prop_assert_eq!(reader.locate(&crossed).unwrap(), decoded.point_lookup(&crossed));
        }
        for miss in [
            [Value::Int(99), Value::text("key-0")],
            [Value::Int(0), Value::text("absent")],
            [Value::Null, Value::Null],
        ] {
            prop_assert_eq!(reader.locate(&miss).unwrap(), None);
            prop_assert_eq!(decoded.point_lookup(&miss), None);
        }
    }

    #[test]
    fn bitpack_round_trip(vals in prop::collection::vec(0u32..1_000_000, 0..300)) {
        let v: BitPackedVec = vals.iter().copied().collect();
        prop_assert_eq!(v.len(), vals.len());
        for (i, &x) in vals.iter().enumerate() {
            prop_assert_eq!(v.get(i), x);
        }
    }

    #[test]
    fn bitpack_set_preserves_neighbours(
        vals in prop::collection::vec(0u32..10_000, 2..150),
        idx_frac in 0.0f64..1.0,
        new_val in 0u32..2_000_000,
    ) {
        let mut v: BitPackedVec = vals.iter().copied().collect();
        let idx = ((vals.len() - 1) as f64 * idx_frac) as usize;
        v.set(idx, new_val);
        for (i, &x) in vals.iter().enumerate() {
            let expect = if i == idx { new_val } else { x };
            prop_assert_eq!(v.get(i), expect);
        }
    }

    /// Word-level block decode must agree with scalar `get` for arbitrary
    /// widths and lengths, at arbitrary (also unaligned) starts.
    #[test]
    fn block_decode_matches_scalar_get(
        domain_bits in 0u32..32,
        vals_seed in prop::collection::vec(0u32..u32::MAX, 1..400),
        start_frac in 0.0f64..1.0,
        len_frac in 0.0f64..1.0,
    ) {
        let domain_mask = if domain_bits == 0 { 0 } else { u32::MAX >> (32 - domain_bits) };
        let vals: Vec<u32> = vals_seed.iter().map(|&v| v & domain_mask).collect();
        let v: BitPackedVec = vals.iter().copied().collect();
        // Whole-vector decode.
        let mut buf = vec![0u32; vals.len()];
        v.decode_into(0, &mut buf);
        for (i, &x) in vals.iter().enumerate() {
            prop_assert_eq!(x, v.get(i));
            prop_assert_eq!(buf[i], x);
        }
        // Arbitrary sub-run decode.
        let start = ((vals.len() - 1) as f64 * start_frac) as usize;
        let len = (((vals.len() - start) as f64) * len_frac) as usize;
        let mut run = vec![0u32; len];
        v.decode_into(start, &mut run);
        prop_assert_eq!(&run[..], &vals[start..start + len]);
    }

    /// The fused word-parallel interval kernel must agree with a scalar
    /// re-check on every code.
    #[test]
    fn match_interval_matches_scalar(
        domain in 1u32..100_000,
        vals_seed in prop::collection::vec(0u32..u32::MAX, 64..300),
        lo_frac in 0.0f64..1.2,
        span_frac in 0.0f64..1.2,
    ) {
        let vals: Vec<u32> = vals_seed.iter().map(|&v| v % domain).collect();
        let v: BitPackedVec = vals.iter().copied().collect();
        let lo = (domain as f64 * lo_frac) as u32;
        let hi = lo.saturating_add((domain as f64 * span_frac) as u32);
        let mut out = vec![0u64; vals.len().div_ceil(64)];
        v.match_interval_into(0, vals.len(), lo, hi, &mut out);
        for (i, &x) in vals.iter().enumerate() {
            let got = out[i / 64] >> (i % 64) & 1 == 1;
            prop_assert_eq!(got, x >= lo && x < hi, "value {} vs [{}, {})", x, lo, hi);
        }
    }

    #[test]
    fn dictionary_rebuild_preserves_decoding(ints in prop::collection::vec(-50i32..50, 1..200)) {
        let mut d = Dictionary::new();
        let codes: Vec<u32> = ints.iter().map(|&i| d.intern(&Value::Int(i))).collect();
        let decoded_before: Vec<Value> = codes.iter().map(|&c| d.decode(c).clone()).collect();
        let remap = d.rebuild();
        let codes_after: Vec<u32> = match remap {
            None => codes,
            Some(map) => codes.iter().map(|&c| map[c as usize]).collect(),
        };
        let decoded_after: Vec<Value> = codes_after.iter().map(|&c| d.decode(c).clone()).collect();
        prop_assert_eq!(decoded_before, decoded_after);
        prop_assert_eq!(d.tail_len(), 0);
        // after rebuild the dictionary is sorted: codes are order-preserving
        let values: Vec<Value> = d.values().cloned().collect();
        let mut sorted = values.clone();
        sorted.sort();
        prop_assert_eq!(values, sorted);
    }

    #[test]
    fn stores_agree_on_range_filters(
        rows in rows_strategy(),
        lo in -10i32..25,
        span in 0i32..15,
    ) {
        let (rt, ct) = build_both(&rows);
        let range = ColRange::between(1, Value::Int(lo), Value::Int(lo + span));
        prop_assert_eq!(rt.filter_rows(std::slice::from_ref(&range)), ct.filter_rows(&[range]));
    }

    /// The batched pipeline (`filter_rows` via SelVec) must agree with the
    /// element-at-a-time scalar path on both stores, with and without
    /// dictionary-tail codes (updates push new values into the tail).
    #[test]
    fn batched_filter_matches_scalar_path(
        rows in rows_strategy(),
        lo in -10i32..25,
        span in 0i32..15,
        a_eq in 0i32..20,
        upd_target in 0i32..20,
    ) {
        let (rt, mut ct) = build_both(&rows);
        let ranges = [
            ColRange::between(1, Value::Int(lo), Value::Int(lo + span)),
            ColRange::ge(2, Value::Double(-50.0)),
            ColRange::eq(1, Value::Int(a_eq)),
        ];
        for k in 1..=ranges.len() {
            let conj = &ranges[..k];
            prop_assert_eq!(ct.filter_rows(conj), ct.filter_rows_scalar(conj));
            // SelVec form agrees with the id list and with the row store.
            let sel = ct.filter_selvec(conj);
            prop_assert_eq!(sel.to_row_ids(), ct.filter_rows(conj));
            prop_assert_eq!(rt.filter_selvec(conj).to_row_ids(), rt.filter_rows(conj));
        }
        // Push values into the dictionary tail (no compact) and re-check.
        let hits = ct.filter_rows_scalar(&[ColRange::eq(1, Value::Int(upd_target))]);
        if !hits.is_empty() {
            ct.update_rows(&hits, &[(1, Value::Int(999))]).unwrap();
            let r = [ColRange::ge(1, Value::Int(500))];
            prop_assert_eq!(ct.filter_rows(&r), ct.filter_rows_scalar(&r));
        }
    }

    /// SelVec conjunction semantics: AND of single-predicate selections
    /// equals the conjunction selection.
    #[test]
    fn selvec_and_matches_conjunction(
        rows in rows_strategy(),
        lo in -10i32..25,
        a_eq in 0i32..20,
    ) {
        let (_, ct) = build_both(&rows);
        let r1 = ColRange::ge(1, Value::Int(lo));
        let r2 = ColRange::eq(1, Value::Int(a_eq));
        let mut a = ct.filter_selvec(std::slice::from_ref(&r1));
        let b = ct.filter_selvec(std::slice::from_ref(&r2));
        a.and_assign(&b);
        let both = ct.filter_selvec(&[r1, r2]);
        prop_assert_eq!(a.to_row_ids(), both.to_row_ids());
        let all = SelVec::all(ct.row_count());
        prop_assert_eq!(all.count(), ct.row_count());
    }

    #[test]
    fn stores_agree_on_conjunctions(
        rows in rows_strategy(),
        a_eq in 0i32..20,
        b_lo in -100.0f64..100.0,
    ) {
        let (rt, ct) = build_both(&rows);
        let ranges = [
            ColRange::eq(1, Value::Int(a_eq)),
            ColRange::ge(2, Value::Double(b_lo)),
        ];
        prop_assert_eq!(rt.filter_rows(&ranges), ct.filter_rows(&ranges));
    }

    #[test]
    fn stores_agree_after_updates(
        rows in rows_strategy(),
        target in 0i32..20,
        new_a in 100i32..200,
    ) {
        let (mut rt, mut ct) = build_both(&rows);
        let hits = rt.filter_rows(&[ColRange::eq(1, Value::Int(target))]);
        rt.update_rows(&hits, &[(1, Value::Int(new_a))]).unwrap();
        ct.update_rows(&hits, &[(1, Value::Int(new_a))]).unwrap();
        let r = ColRange::eq(1, Value::Int(new_a));
        prop_assert_eq!(rt.filter_rows(std::slice::from_ref(&r)), ct.filter_rows(std::slice::from_ref(&r)));
        // compaction must not change results
        ct.compact();
        prop_assert_eq!(rt.filter_rows(std::slice::from_ref(&r)), ct.filter_rows(&[r]));
    }

    #[test]
    fn numeric_aggregation_matches_across_stores(rows in rows_strategy()) {
        let (rt, ct) = build_both(&rows);
        let mut sum_r = 0.0;
        let mut sum_c = 0.0;
        rt.for_each_numeric(2, RowSel::All, |v| sum_r += v);
        ct.for_each_numeric(2, RowSel::All, |v| sum_c += v);
        prop_assert!((sum_r - sum_c).abs() < 1e-9);
    }

    #[test]
    fn secondary_index_never_changes_filter_results(
        rows in rows_strategy(),
        lo in -10i32..25,
        span in 0i32..15,
    ) {
        let (mut rt, _) = build_both(&rows);
        let range = ColRange::between(1, Value::Int(lo), Value::Int(lo + span));
        let without = rt.filter_rows(std::slice::from_ref(&range));
        rt.create_index(1).unwrap();
        let with = rt.filter_rows(&[range]);
        prop_assert_eq!(without, with);
    }

    #[test]
    fn store_migration_round_trips(rows in rows_strategy()) {
        let (rt, _) = build_both(&rows);
        let original: Vec<Vec<Value>> = rt.collect_rows(RowSel::All, None);
        let as_col =
            Table::from_rows(schema(), StoreKind::Column, original.clone().into_iter()).unwrap();
        let back = Table::from_rows(schema(), StoreKind::Row, as_col).unwrap();
        prop_assert_eq!(back.collect_rows(RowSel::All, None), original);
    }
}
