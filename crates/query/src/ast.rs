//! The query AST.

use hsd_storage::ColRange;
use hsd_types::{ColumnIdx, Value};

/// Aggregation functions supported by the engine and cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Sum of the (numeric) attribute.
    Sum,
    /// Arithmetic mean.
    Avg,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Count of non-null values.
    Count,
}

impl AggFunc {
    /// All functions, stable order (calibration sweeps iterate this).
    pub const ALL: [AggFunc; 5] = [
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Count,
    ];

    /// SQL-ish name.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Count => "COUNT",
        }
    }
}

impl std::fmt::Display for AggFunc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One aggregate expression: `func(column)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aggregate {
    /// Aggregation function.
    pub func: AggFunc,
    /// Input column (on the fact table for join queries).
    pub column: ColumnIdx,
}

/// Equi-join of the queried (fact) table against a dimension table.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinSpec {
    /// Name of the dimension table.
    pub dim_table: String,
    /// Foreign-key column on the fact table.
    pub fact_fk: ColumnIdx,
    /// Join column on the dimension table (its primary key).
    pub dim_pk: ColumnIdx,
    /// Optional GROUP BY on a dimension attribute.
    pub group_by_dim: Option<ColumnIdx>,
}

/// An aggregation (OLAP) query, optionally grouped and/or joined.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateQuery {
    /// Queried (fact) table.
    pub table: String,
    /// Aggregates to compute (at least one).
    pub aggregates: Vec<Aggregate>,
    /// Optional GROUP BY on a fact column.
    pub group_by: Option<ColumnIdx>,
    /// Conjunctive filter on fact columns (empty = full scan).
    pub filter: Vec<ColRange>,
    /// Optional dimension join.
    pub join: Option<JoinSpec>,
}

/// A point or range selection (OLTP read).
#[derive(Debug, Clone, PartialEq)]
pub struct SelectQuery {
    /// Queried table.
    pub table: String,
    /// Projected columns (`None` = all columns).
    pub columns: Option<Vec<ColumnIdx>>,
    /// Conjunctive filter.
    pub filter: Vec<ColRange>,
}

/// An insert of one or more rows.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertQuery {
    /// Target table.
    pub table: String,
    /// Rows to insert.
    pub rows: Vec<Vec<Value>>,
}

/// An update assigning values to matching rows.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateQuery {
    /// Target table.
    pub table: String,
    /// Column assignments.
    pub sets: Vec<(ColumnIdx, Value)>,
    /// Conjunctive filter selecting the affected rows.
    pub filter: Vec<ColRange>,
}

/// Any query the engine executes.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Aggregation (OLAP).
    Aggregate(AggregateQuery),
    /// Point/range selection (OLTP read).
    Select(SelectQuery),
    /// Insert (OLTP write).
    Insert(InsertQuery),
    /// Update (OLTP write).
    Update(UpdateQuery),
}

/// Coarse query classification, used for workload summaries and the cost
/// model's base-cost lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Aggregation over a single table.
    Aggregation,
    /// Aggregation joining a dimension table.
    AggregationJoin,
    /// Point or range selection.
    Select,
    /// Insert.
    Insert,
    /// Update.
    Update,
}

impl Query {
    /// The primary table the query addresses.
    pub fn table(&self) -> &str {
        match self {
            Query::Aggregate(q) => &q.table,
            Query::Select(q) => &q.table,
            Query::Insert(q) => &q.table,
            Query::Update(q) => &q.table,
        }
    }

    /// Coarse classification.
    pub fn kind(&self) -> QueryKind {
        match self {
            Query::Aggregate(q) if q.join.is_some() => QueryKind::AggregationJoin,
            Query::Aggregate(_) => QueryKind::Aggregation,
            Query::Select(_) => QueryKind::Select,
            Query::Insert(_) => QueryKind::Insert,
            Query::Update(_) => QueryKind::Update,
        }
    }

    /// Whether this is an analytical (OLAP) query.
    pub fn is_olap(&self) -> bool {
        matches!(self, Query::Aggregate(_))
    }

    /// The dimension table of a join query.
    pub fn join_dim(&self) -> Option<&str> {
        match self {
            Query::Aggregate(q) => q.join.as_ref().map(|j| j.dim_table.as_str()),
            _ => None,
        }
    }

    /// All tables the query touches (primary table plus join partner).
    pub fn tables(&self) -> Vec<&str> {
        std::iter::once(self.table())
            .chain(self.join_dim())
            .collect()
    }
}

/// Builder shorthands used throughout tests and generators.
impl AggregateQuery {
    /// Ungrouped, unfiltered single-aggregate query.
    pub fn simple(table: impl Into<String>, func: AggFunc, column: ColumnIdx) -> Self {
        AggregateQuery {
            table: table.into(),
            aggregates: vec![Aggregate { func, column }],
            group_by: None,
            filter: Vec::new(),
            join: None,
        }
    }
}

impl SelectQuery {
    /// Point select on a single-column primary key.
    pub fn point(table: impl Into<String>, pk_col: ColumnIdx, key: Value) -> Self {
        SelectQuery {
            table: table.into(),
            columns: None,
            filter: vec![ColRange::eq(pk_col, key)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_tables() {
        let agg = Query::Aggregate(AggregateQuery::simple("t", AggFunc::Sum, 1));
        assert_eq!(agg.kind(), QueryKind::Aggregation);
        assert!(agg.is_olap());
        assert_eq!(agg.tables(), vec!["t"]);

        let mut joined = AggregateQuery::simple("fact", AggFunc::Avg, 2);
        joined.join = Some(JoinSpec {
            dim_table: "dim".into(),
            fact_fk: 0,
            dim_pk: 0,
            group_by_dim: Some(1),
        });
        let joined = Query::Aggregate(joined);
        assert_eq!(joined.kind(), QueryKind::AggregationJoin);
        assert_eq!(joined.tables(), vec!["fact", "dim"]);

        let sel = Query::Select(SelectQuery::point("t", 0, Value::Int(5)));
        assert_eq!(sel.kind(), QueryKind::Select);
        assert!(!sel.is_olap());

        let ins = Query::Insert(InsertQuery {
            table: "t".into(),
            rows: vec![],
        });
        assert_eq!(ins.kind(), QueryKind::Insert);

        let upd = Query::Update(UpdateQuery {
            table: "t".into(),
            sets: vec![],
            filter: vec![],
        });
        assert_eq!(upd.kind(), QueryKind::Update);
        assert_eq!(upd.table(), "t");
    }

    #[test]
    fn agg_func_names() {
        assert_eq!(AggFunc::Sum.to_string(), "SUM");
        assert_eq!(AggFunc::ALL.len(), 5);
    }
}
