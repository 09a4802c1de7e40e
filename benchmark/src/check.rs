//! Correctness checks inside the run: statement-by-statement answer
//! comparison against the all-row reference, and whole-database state
//! digests for the end-state and crash-reopen checks.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use hsd_engine::{HybridDatabase, QueryOutput};
use hsd_types::{Result, Value};

/// Aggregates summed in a different order (row vs column store, merged
/// partitions) differ in the last bits; anything beyond this is a wrong
/// answer.
const REL_TOL: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// Whether two executions of one statement gave the same answer: affected
/// counts equal, row sets equal regardless of order, aggregate groups equal
/// key by key within [`REL_TOL`].
pub fn same_output(a: &QueryOutput, b: &QueryOutput) -> bool {
    match (a, b) {
        (QueryOutput::Affected(x), QueryOutput::Affected(y)) => x == y,
        (QueryOutput::Rows(x), QueryOutput::Rows(y)) => {
            let (mut x, mut y) = (x.clone(), y.clone());
            x.sort();
            y.sort();
            x == y
        }
        (QueryOutput::Aggregates(x), QueryOutput::Aggregates(y)) => {
            x.len() == y.len()
                && x.iter().zip(y).all(|(g, h)| {
                    g.key == h.key
                        && g.values.len() == h.values.len()
                        && g.values.iter().zip(&h.values).all(|(&v, &w)| close(v, w))
                })
        }
        _ => false,
    }
}

/// Row count and order-independent content digest of one table.
pub type TableDigest = (usize, u64);

/// Per-table `(rows, digest)` of a whole database, read through each
/// table's logical rows (hot, cold and disk-resident partitions alike).
pub fn state_digest(db: &HybridDatabase) -> Result<BTreeMap<String, TableDigest>> {
    let mut out = BTreeMap::new();
    for name in db.table_names() {
        let rows = db.with_table(&name, |d| d.snapshot_rows(db.segment_store()))??;
        out.insert(name, (rows.len(), rows_digest(&rows)));
    }
    Ok(out)
}

fn rows_digest(rows: &[Vec<Value>]) -> u64 {
    // Sum of per-row hashes: independent of physical row order, which
    // differs between stores and after merges.
    rows.iter().fold(0u64, |acc, row| {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        row.hash(&mut h);
        acc.wrapping_add(h.finish())
    })
}

/// Number of tables whose `(rows, digest)` differ between `expected` and
/// `actual` (a table missing on either side counts).
pub fn state_mismatches(
    expected: &BTreeMap<String, TableDigest>,
    actual: &BTreeMap<String, TableDigest>,
) -> usize {
    let missing = actual.keys().filter(|k| !expected.contains_key(*k)).count();
    expected
        .iter()
        .filter(|(name, digest)| actual.get(*name) != Some(digest))
        .count()
        + missing
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsd_engine::GroupRow;
    use hsd_storage::StoreKind;
    use hsd_types::{ColumnDef, ColumnType, TableSchema};

    fn db(store: StoreKind, rows: std::ops::Range<i64>) -> HybridDatabase {
        let db = HybridDatabase::new();
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", ColumnType::BigInt),
                ColumnDef::new("v", ColumnType::Double),
            ],
            vec![0],
        )
        .unwrap();
        db.create_single(schema, store).unwrap();
        db.bulk_load(
            "t",
            rows.rev()
                .map(|i| vec![Value::BigInt(i), Value::Double(i as f64)]),
        )
        .unwrap();
        db
    }

    #[test]
    fn state_digest_ignores_store_and_order_but_not_content() {
        let row = state_digest(&db(StoreKind::Row, 0..50)).unwrap();
        let col = state_digest(&db(StoreKind::Column, 0..50)).unwrap();
        assert_eq!(state_mismatches(&row, &col), 0);
        // A deliberately corrupted expectation: the check must fail.
        let mut corrupted = row.clone();
        corrupted.get_mut("t").unwrap().1 ^= 1;
        assert_eq!(state_mismatches(&corrupted, &col), 1);
        let short = state_digest(&db(StoreKind::Row, 0..49)).unwrap();
        assert_eq!(state_mismatches(&short, &col), 1);
        assert_eq!(state_mismatches(&BTreeMap::new(), &col), 1);
        assert_eq!(state_mismatches(&col, &BTreeMap::new()), 1);
    }

    #[test]
    fn same_output_tolerates_order_and_rounding_only() {
        let rows =
            |ids: &[i64]| QueryOutput::Rows(ids.iter().map(|&i| vec![Value::BigInt(i)]).collect());
        assert!(same_output(&rows(&[1, 2, 3]), &rows(&[3, 1, 2])));
        assert!(!same_output(&rows(&[1, 2, 3]), &rows(&[1, 2, 4])));
        let agg = |v: f64| {
            QueryOutput::Aggregates(vec![GroupRow {
                key: Some(Value::text("A")),
                values: vec![v],
            }])
        };
        assert!(same_output(&agg(1e6), &agg(1e6 * (1.0 + 1e-12))));
        assert!(!same_output(&agg(1e6), &agg(1e6 + 1.0)));
        assert!(!same_output(&agg(1.0), &QueryOutput::Affected(1)));
        assert!(!same_output(
            &QueryOutput::Affected(1),
            &QueryOutput::Affected(2)
        ));
    }
}
