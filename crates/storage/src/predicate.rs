//! Storage-level predicates.
//!
//! The query layer compiles its predicates down to conjunctions of
//! per-column range constraints ([`ColRange`]); point predicates are
//! degenerate ranges. Keeping the storage interface this narrow lets both
//! stores pick their own evaluation strategy (code-interval matching for the
//! column store, index probes or tuple scans for the row store).

use std::ops::Bound;

use hsd_types::{ColumnIdx, Value};

use crate::dictionary::value_in_range;

/// A range constraint on a single column: `lo <= col <= hi` with
/// configurable bound openness.
///
/// Equality is stored as its own variant holding the value **once**
/// (`ColRange::eq` used to clone the value into both bounds); range readers
/// see it as the degenerate interval `[v, v]` through
/// [`ColRange::lo_ref`] / [`ColRange::hi_ref`].
#[derive(Debug, Clone, PartialEq)]
pub struct ColRange {
    /// Column the constraint applies to.
    pub column: ColumnIdx,
    kind: RangeKind,
}

#[derive(Debug, Clone, PartialEq)]
enum RangeKind {
    /// `col = v`, the value stored once.
    Eq(Value),
    /// `lo <= col <= hi` with explicit bound openness.
    Range { lo: Bound<Value>, hi: Bound<Value> },
}

impl ColRange {
    /// Equality constraint `col = v`.
    pub fn eq(column: ColumnIdx, v: Value) -> Self {
        ColRange {
            column,
            kind: RangeKind::Eq(v),
        }
    }

    /// Closed range `lo <= col <= hi`.
    pub fn between(column: ColumnIdx, lo: Value, hi: Value) -> Self {
        ColRange {
            column,
            kind: RangeKind::Range {
                lo: Bound::Included(lo),
                hi: Bound::Included(hi),
            },
        }
    }

    /// Constraint `col < v`.
    pub fn lt(column: ColumnIdx, v: Value) -> Self {
        ColRange {
            column,
            kind: RangeKind::Range {
                lo: Bound::Unbounded,
                hi: Bound::Excluded(v),
            },
        }
    }

    /// Constraint `col >= v`.
    pub fn ge(column: ColumnIdx, v: Value) -> Self {
        ColRange {
            column,
            kind: RangeKind::Range {
                lo: Bound::Included(v),
                hi: Bound::Unbounded,
            },
        }
    }

    /// General range with explicit bound openness — the constructor that
    /// round-trips whatever [`ColRange::lo_ref`] / [`ColRange::hi_ref`]
    /// report (used by the WAL record codec).
    pub fn range(column: ColumnIdx, lo: Bound<Value>, hi: Bound<Value>) -> Self {
        ColRange {
            column,
            kind: RangeKind::Range { lo, hi },
        }
    }

    /// The same constraint applied to a different column (used when
    /// translating logical columns to fragment positions).
    pub fn with_column(&self, column: ColumnIdx) -> Self {
        ColRange {
            column,
            kind: self.kind.clone(),
        }
    }

    /// Borrowed lower bound.
    pub fn lo_ref(&self) -> Bound<&Value> {
        match &self.kind {
            RangeKind::Eq(v) => Bound::Included(v),
            RangeKind::Range { lo, .. } => bound_ref(lo),
        }
    }

    /// Borrowed upper bound.
    pub fn hi_ref(&self) -> Bound<&Value> {
        match &self.kind {
            RangeKind::Eq(v) => Bound::Included(v),
            RangeKind::Range { hi, .. } => bound_ref(hi),
        }
    }

    /// Whether `v` satisfies this constraint.
    pub fn matches(&self, v: &Value) -> bool {
        value_in_range(v, self.lo_ref(), self.hi_ref())
    }

    /// Whether this is an equality constraint, and on which value.
    /// `between(c, v, v)` counts: it denotes the same predicate.
    pub fn as_eq(&self) -> Option<&Value> {
        match &self.kind {
            RangeKind::Eq(v) => Some(v),
            RangeKind::Range {
                lo: Bound::Included(a),
                hi: Bound::Included(b),
            } if a == b => Some(a),
            _ => None,
        }
    }

    /// The value of a constraint built by [`ColRange::eq`]. Unlike
    /// [`ColRange::as_eq`] this is `None` for the degenerate range
    /// `between(c, v, v)`, so a codec can keep the two representations
    /// apart and round-trip either exactly.
    pub fn eq_value(&self) -> Option<&Value> {
        match &self.kind {
            RangeKind::Eq(v) => Some(v),
            RangeKind::Range { .. } => None,
        }
    }
}

/// The primary-key point rule the executor, the estimator and the
/// statistics recorder share: when `filter` is exactly one equality on each
/// primary-key column of `pk` and nothing else, the key values in `pk`
/// order.
pub fn pk_point<'a>(pk: &[ColumnIdx], filter: &'a [ColRange]) -> Option<Vec<&'a Value>> {
    if pk.is_empty() || filter.len() != pk.len() {
        return None;
    }
    pk.iter()
        .map(|&col| filter.iter().find(|r| r.column == col)?.as_eq())
        .collect()
}

fn bound_ref(b: &Bound<Value>) -> Bound<&Value> {
    match b {
        Bound::Unbounded => Bound::Unbounded,
        Bound::Included(v) => Bound::Included(v),
        Bound::Excluded(v) => Bound::Excluded(v),
    }
}

/// Row selection passed to scan-style operations: either every row or an
/// explicit, sorted list of row indexes.
#[derive(Debug, Clone, Copy)]
pub enum RowSel<'a> {
    /// Visit every row.
    All,
    /// Visit exactly these row indexes.
    Subset(&'a [u32]),
}

impl RowSel<'_> {
    /// Number of selected rows given the table's total row count.
    pub fn count(&self, total: usize) -> usize {
        match self {
            RowSel::All => total,
            RowSel::Subset(s) => s.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_matches_only_value() {
        let r = ColRange::eq(0, Value::Int(5));
        assert!(r.matches(&Value::Int(5)));
        assert!(!r.matches(&Value::Int(6)));
        assert_eq!(r.as_eq(), Some(&Value::Int(5)));
    }

    #[test]
    fn between_is_inclusive() {
        let r = ColRange::between(1, Value::Int(2), Value::Int(4));
        assert!(r.matches(&Value::Int(2)));
        assert!(r.matches(&Value::Int(4)));
        assert!(!r.matches(&Value::Int(5)));
        assert!(r.as_eq().is_none());
    }

    #[test]
    fn open_ranges() {
        assert!(ColRange::lt(0, Value::Int(3)).matches(&Value::Int(2)));
        assert!(!ColRange::lt(0, Value::Int(3)).matches(&Value::Int(3)));
        assert!(ColRange::ge(0, Value::Int(3)).matches(&Value::Int(3)));
    }

    #[test]
    fn null_never_matches_ordinary_ranges() {
        assert!(!ColRange::between(0, Value::Int(0), Value::Int(10)).matches(&Value::Null));
        assert!(!ColRange::lt(0, Value::Int(3)).matches(&Value::Null));
        // but an explicit NULL equality does match
        assert!(ColRange::eq(0, Value::Null).matches(&Value::Null));
    }

    #[test]
    fn pk_point_needs_one_equality_per_key_column_and_nothing_else() {
        let (a, b) = (Value::Int(1), Value::Int(2));
        let eq = |c, v: &Value| ColRange::eq(c, v.clone());
        assert_eq!(
            pk_point(&[0, 2], &[eq(2, &b), eq(0, &a)]),
            Some(vec![&a, &b])
        );
        assert_eq!(
            pk_point(&[0], &[ColRange::between(0, a.clone(), a.clone())]),
            Some(vec![&a])
        );
        assert_eq!(pk_point(&[0, 2], &[eq(0, &a)]), None);
        assert_eq!(pk_point(&[0], &[eq(0, &a), eq(1, &b)]), None);
        assert_eq!(pk_point(&[0, 2], &[eq(0, &a), eq(1, &b)]), None);
        assert_eq!(pk_point(&[0], &[ColRange::ge(0, a.clone())]), None);
        assert_eq!(pk_point(&[], &[]), None);
    }

    #[test]
    fn rowsel_count() {
        assert_eq!(RowSel::All.count(10), 10);
        assert_eq!(RowSel::Subset(&[1, 2, 3]).count(10), 3);
    }
}
