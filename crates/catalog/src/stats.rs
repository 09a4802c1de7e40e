//! Basic table statistics ("data characteristics" in the paper).

use std::collections::HashSet;

use hsd_storage::{FastState, RowTable, Table};
use hsd_types::Value;

/// Per-column statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Number of distinct values.
    pub distinct: usize,
    /// Smallest non-null value, if the column is non-empty.
    pub min: Option<Value>,
    /// Largest value, if the column is non-empty.
    pub max: Option<Value>,
    /// Dictionary compression rate in `[0, 1]`: the fraction of value
    /// entries saved by dictionary encoding (`1 - distinct/rows`). The
    /// paper's `f_compression` adjustment consumes exactly this quantity
    /// (e.g. "the compression rate be 0.7").
    pub compression_rate: f64,
}

impl ColumnStats {
    /// Statistics of a column with `distinct` values and non-null bounds
    /// `(min, max)` in a `rows`-row table.
    fn new(distinct: usize, (min, max): (Option<Value>, Option<Value>), rows: usize) -> Self {
        let compression_rate = if rows == 0 {
            0.0
        } else {
            (1.0 - distinct as f64 / rows as f64).max(0.0)
        };
        ColumnStats {
            distinct,
            min,
            max,
            compression_rate,
        }
    }
}

/// Basic statistics for one table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Number of rows at collection time.
    pub row_count: usize,
    /// Per-column statistics, schema order.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Empty statistics for an `arity`-column table (all zero).
    pub fn empty(arity: usize) -> Self {
        TableStats {
            row_count: 0,
            columns: vec![
                ColumnStats {
                    distinct: 0,
                    min: None,
                    max: None,
                    compression_rate: 0.0
                };
                arity
            ],
        }
    }

    /// Scan `table` and collect fresh statistics.
    ///
    /// For column-store tables the dictionary answers distinct counts and
    /// min/max directly; row-store tables are scanned once, in row order,
    /// counting every column's distinct values (NULL included) and tracking
    /// its non-null minimum and maximum in the same pass.
    pub fn collect(table: &Table) -> Self {
        let rows = table.row_count();
        let columns = match table {
            Table::Column(ct) => (0..table.schema().arity())
                .map(|col| ColumnStats::new(ct.distinct_count(col), ct.column(col).min_max(), rows))
                .collect(),
            Table::Row(rt) => row_store_stats(rt),
        };
        TableStats {
            row_count: rows,
            columns,
        }
    }

    /// Mean compression rate over all columns — the table-level value the
    /// cost model uses when a query touches the table as a whole.
    pub fn avg_compression_rate(&self) -> f64 {
        if self.columns.is_empty() {
            return 0.0;
        }
        self.columns.iter().map(|c| c.compression_rate).sum::<f64>() / self.columns.len() as f64
    }

    /// Estimate the selectivity (fraction of rows) of a closed range
    /// `[lo, hi]` on `col`, assuming a uniform distribution between the
    /// column's min and max — the standard textbook estimate used when no
    /// histogram is available.
    pub fn estimate_range_selectivity(&self, col: usize, lo: &Value, hi: &Value) -> f64 {
        let stats = match self.columns.get(col) {
            Some(s) => s,
            None => return 1.0,
        };
        let (min, max) = match (&stats.min, &stats.max) {
            (Some(a), Some(b)) => (a, b),
            _ => return 1.0,
        };
        let (min_f, max_f) = match (min.as_numeric_key(), max.as_numeric_key()) {
            (Some(a), Some(b)) if b > a => (a, b),
            // Degenerate or non-numeric domain: fall back to equality logic.
            _ => {
                return if stats.distinct > 0 {
                    1.0 / stats.distinct as f64
                } else {
                    1.0
                };
            }
        };
        let lo_f = lo.as_numeric_key().unwrap_or(min_f).max(min_f);
        let hi_f = hi.as_numeric_key().unwrap_or(max_f).min(max_f);
        if hi_f < lo_f {
            return 0.0;
        }
        if lo == hi {
            // Point predicate: 1/distinct is sharper than width-based.
            return if stats.distinct > 0 {
                1.0 / stats.distinct as f64
            } else {
                0.0
            };
        }
        ((hi_f - lo_f) / (max_f - min_f)).clamp(0.0, 1.0)
    }
}

/// Per column of a row table: the distinct count (NULL counts as a value)
/// and the non-null `(min, max)`, from one pass over the rows. The arena
/// is row-major, so a pass per column would stream all of it once per
/// column; the distinct sets own their keys, so a repeat compares against
/// a set entry instead of reaching back into the arena.
fn row_store_stats(table: &RowTable) -> Vec<ColumnStats> {
    let arity = table.schema().arity();
    let rows = table.row_count();
    let mut seen: Vec<HashSet<Value, FastState>> = (0..arity).map(|_| HashSet::default()).collect();
    let mut bounds: Vec<Option<(&Value, &Value)>> = vec![None; arity];
    for row in 0..rows as u32 {
        let values = table.row(row).iter();
        for ((v, set), bound) in values.zip(&mut seen).zip(&mut bounds) {
            if set.contains(v) {
                continue;
            }
            set.insert(v.clone());
            if !v.is_null() {
                *bound = Some(bound.map_or((v, v), |(lo, hi)| (lo.min(v), hi.max(v))));
            }
        }
    }
    seen.iter()
        .zip(bounds)
        .map(|(set, bound)| {
            let bound = bound.map_or((None, None), |(lo, hi)| {
                (Some(lo.clone()), Some(hi.clone()))
            });
            ColumnStats::new(set.len(), bound, rows)
        })
        .collect()
}

/// Numeric ordering key for selectivity estimation (dates and booleans are
/// orderable numerics here, unlike in aggregation).
trait NumericKey {
    fn as_numeric_key(&self) -> Option<f64>;
}

impl NumericKey for Value {
    fn as_numeric_key(&self) -> Option<f64> {
        match self {
            Value::Date(d) => Some(*d as f64),
            Value::Bool(b) => Some(*b as i64 as f64),
            other => other.as_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsd_storage::StoreKind;
    use hsd_types::{ColumnDef, ColumnType, TableSchema};
    use std::sync::Arc;

    fn table() -> Table {
        let schema = Arc::new(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", ColumnType::Integer),
                    ColumnDef::new("grp", ColumnType::Integer),
                ],
                vec![0],
            )
            .unwrap(),
        );
        Table::from_rows(
            schema,
            StoreKind::Column,
            (0..100).map(|i| vec![Value::Int(i), Value::Int(i % 5)]),
        )
        .unwrap()
    }

    fn mixed_schema() -> Arc<TableSchema> {
        Arc::new(
            TableSchema::new(
                "m",
                vec![
                    ColumnDef::new("id", ColumnType::Integer),
                    ColumnDef::nullable("none", ColumnType::Integer),
                    ColumnDef::nullable("d", ColumnType::Double),
                    ColumnDef::nullable("t", ColumnType::Varchar),
                    ColumnDef::new("g", ColumnType::BigInt),
                ],
                vec![0],
            )
            .unwrap(),
        )
    }

    const DOUBLES: [f64; 6] = [0.0, -0.0, f64::NAN, -1.5, 7.25, f64::NEG_INFINITY];
    const TEXTS: [&str; 4] = ["", "b", "abc", "a longer value"];

    /// Rows over [`mixed_schema`]: an all-NULL column, a mixed-NULL double
    /// (signed zeros, NaN), mixed-NULL text and a small-domain integer.
    fn mixed_rows(spec: &[(u8, u8, u16)]) -> Vec<Vec<Value>> {
        spec.iter()
            .enumerate()
            .map(|(i, &(d, t, g))| {
                vec![
                    Value::Int(i as i32),
                    Value::Null,
                    DOUBLES
                        .get(d as usize % 8)
                        .map_or(Value::Null, |&x| Value::Double(x)),
                    TEXTS.get(t as usize % 6).map_or(Value::Null, Value::text),
                    Value::BigInt(i64::from(g % 40) - 20),
                ]
            })
            .collect()
    }

    /// The two-pass row statistics this module computed before: a SipHash
    /// set for the distinct count, then a second scan for min and max.
    fn two_pass_row_stats(table: &Table) -> TableStats {
        let rows = table.row_count();
        let columns = (0..table.schema().arity())
            .map(|col| {
                let mut seen = std::collections::HashSet::new();
                table.for_each_value(col, hsd_storage::RowSel::All, |v| {
                    seen.insert(v.clone());
                });
                let (mut min, mut max): (Option<Value>, Option<Value>) = (None, None);
                table.for_each_value(col, hsd_storage::RowSel::All, |v| {
                    if v.is_null() {
                        return;
                    }
                    if min.as_ref().is_none_or(|m| v < m) {
                        min = Some(v.clone());
                    }
                    if max.as_ref().is_none_or(|m| v > m) {
                        max = Some(v.clone());
                    }
                });
                let distinct = seen.len();
                let compression_rate = if rows == 0 {
                    0.0
                } else {
                    (1.0 - distinct as f64 / rows as f64).max(0.0)
                };
                ColumnStats {
                    distinct,
                    min,
                    max,
                    compression_rate,
                }
            })
            .collect();
        TableStats {
            row_count: rows,
            columns,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn one_pass_row_stats_match_two_pass_and_column_stats(
            spec in proptest::prop::collection::vec(
                (
                    proptest::prelude::any::<u8>(),
                    proptest::prelude::any::<u8>(),
                    0u16..1000,
                ),
                0..200,
            ),
        ) {
            let rows = mixed_rows(&spec);
            let row = Table::from_rows(mixed_schema(), StoreKind::Row, rows.clone().into_iter())
                .unwrap();
            let col = Table::from_rows(mixed_schema(), StoreKind::Column, rows.into_iter())
                .unwrap();
            let stats = TableStats::collect(&row);
            proptest::prop_assert_eq!(&stats, &two_pass_row_stats(&row));
            proptest::prop_assert_eq!(&stats, &TableStats::collect(&col));
        }
    }

    #[test]
    fn collect_basic_stats() {
        let stats = TableStats::collect(&table());
        assert_eq!(stats.row_count, 100);
        assert_eq!(stats.columns[0].distinct, 100);
        assert_eq!(stats.columns[1].distinct, 5);
        assert_eq!(stats.columns[0].min, Some(Value::Int(0)));
        assert_eq!(stats.columns[0].max, Some(Value::Int(99)));
        assert!((stats.columns[1].compression_rate - 0.95).abs() < 1e-9);
        assert!(stats.columns[0].compression_rate.abs() < 1e-9);
    }

    #[test]
    fn avg_compression() {
        let stats = TableStats::collect(&table());
        let expect = (0.0 + 0.95) / 2.0;
        assert!((stats.avg_compression_rate() - expect).abs() < 1e-9);
    }

    #[test]
    fn range_selectivity_uniform() {
        let stats = TableStats::collect(&table());
        let sel = stats.estimate_range_selectivity(0, &Value::Int(0), &Value::Int(49));
        assert!((sel - 49.0 / 99.0).abs() < 1e-9);
        // point predicate uses distinct counts
        let sel = stats.estimate_range_selectivity(1, &Value::Int(3), &Value::Int(3));
        assert!((sel - 0.2).abs() < 1e-9);
        // out-of-domain range
        let sel = stats.estimate_range_selectivity(0, &Value::Int(200), &Value::Int(300));
        assert_eq!(sel, 0.0);
    }

    #[test]
    fn empty_stats() {
        let stats = TableStats::empty(3);
        assert_eq!(stats.row_count, 0);
        assert_eq!(stats.columns.len(), 3);
        assert_eq!(stats.avg_compression_rate(), 0.0);
    }

    #[test]
    fn selectivity_of_unknown_column_is_one() {
        let stats = TableStats::empty(1);
        assert_eq!(
            stats.estimate_range_selectivity(9, &Value::Int(0), &Value::Int(1)),
            1.0
        );
    }
}
