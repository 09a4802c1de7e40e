//! The differential oracle the integration suites share: a naive reference
//! interpreter ([`Model`]), the comparisons against it, and ([`case`]) one
//! scenario generator with the runner that drives the engine through it.
//! The interpreter shares only the value type, schema validation and
//! `ColRange::matches` with the engine: every table is a `Vec` of rows
//! scanned in full, so a bug common to every store shows up as a
//! disagreement instead of agreeing with itself.
#![allow(dead_code)]

pub mod case;

use std::collections::{BTreeMap, BTreeSet, HashMap};

use hybrid_store_advisor::engine::{GroupRow, QueryOutput};
use hybrid_store_advisor::prelude::*;
use hybrid_store_advisor::types::{Error, Result};

/// One table of the reference: schema, rows in insertion order, and the
/// columns the catalog lists as indexed.
#[derive(Debug, Clone)]
pub struct ModelTable {
    pub schema: TableSchema,
    pub rows: Vec<Vec<Value>>,
    pub indexed: BTreeSet<usize>,
}

/// The reference interpreter: `Insert`, `Update`, `Select` and `Aggregate`
/// (joined or not) with the engine's error and partial-prefix semantics.
#[derive(Debug, Clone, Default)]
pub struct Model {
    pub tables: BTreeMap<String, ModelTable>,
}

impl Model {
    /// Register a table holding `rows` (assumed valid and key-unique).
    pub fn create(&mut self, schema: TableSchema, rows: Vec<Vec<Value>>) {
        let table = ModelTable {
            schema: schema.clone(),
            rows,
            indexed: BTreeSet::new(),
        };
        self.tables.insert(schema.name, table);
    }

    fn table(&self, name: &str) -> Result<&ModelTable> {
        self.tables
            .get(name)
            .ok_or_else(|| Error::UnknownTable(name.into()))
    }

    fn table_mut(&mut self, name: &str) -> Result<&mut ModelTable> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| Error::UnknownTable(name.into()))
    }

    /// Rows of `table`, sorted by primary key.
    pub fn rows(&self, table: &str) -> Vec<Vec<Value>> {
        let t = &self.tables[table];
        let mut rows = t.rows.clone();
        rows.sort_by_cached_key(|r| key(&t.schema, r));
        rows
    }

    pub fn execute(&mut self, query: &Query) -> Result<QueryOutput> {
        match query {
            Query::Insert(q) => {
                let t = self.table_mut(&q.table)?;
                // Row by row: a failing row stops the statement and the
                // rows before it stay (there is no rollback).
                for row in &q.rows {
                    t.schema.validate_row(row)?;
                    let pk = &t.schema.primary_key;
                    if t.rows.iter().any(|r| pk.iter().all(|&c| r[c] == row[c])) {
                        return Err(Error::DuplicateKey(format!("{:?}", key(&t.schema, row))));
                    }
                    t.rows.push(row.clone());
                }
                Ok(QueryOutput::Affected(q.rows.len()))
            }
            Query::Update(q) => {
                let t = self.table_mut(&q.table)?;
                // The assignments are checked before any row changes.
                for (col, v) in &q.sets {
                    if t.schema.is_pk_column(*col) {
                        return Err(Error::InvalidOperation(format!("key column {col}")));
                    }
                    t.schema.validate_value_at(*col, v)?;
                }
                let mut affected = 0;
                for row in t.rows.iter_mut().filter(|r| matches(&q.filter, r)) {
                    for (col, v) in &q.sets {
                        row[*col] = v.clone();
                    }
                    affected += 1;
                }
                Ok(QueryOutput::Affected(affected))
            }
            Query::Select(q) => {
                let t = self.table(&q.table)?;
                let project = |r: &Vec<Value>| match &q.columns {
                    None => r.clone(),
                    Some(cols) => cols.iter().map(|&c| r[c].clone()).collect(),
                };
                let rows = t.rows.iter().filter(|r| matches(&q.filter, r));
                Ok(QueryOutput::Rows(rows.map(project).collect()))
            }
            Query::Aggregate(q) => self.aggregate(q),
        }
    }

    fn aggregate(&self, q: &AggregateQuery) -> Result<QueryOutput> {
        let t = self.table(&q.table)?;
        let dim = q
            .join
            .as_ref()
            .map(|j| self.table(&j.dim_table))
            .transpose()?;
        let check = |t: &ModelTable, col: usize| match col < t.schema.arity() {
            true => Ok(()),
            false => Err(Error::UnknownColumn(format!("{}[{col}]", t.schema.name))),
        };
        for col in q.aggregates.iter().map(|a| a.column).chain(q.group_by) {
            check(t, col)?;
        }
        // Inner join: dimension key -> group; a fact row whose key no
        // dimension row holds drops out.
        let mut groups_of: HashMap<&Value, Option<Value>> = HashMap::new();
        if let (Some(j), Some(d)) = (&q.join, dim) {
            check(t, j.fact_fk)?;
            for col in std::iter::once(j.dim_pk).chain(j.group_by_dim) {
                check(d, col)?;
            }
            for r in &d.rows {
                groups_of.insert(&r[j.dim_pk], j.group_by_dim.map(|g| r[g].clone()));
            }
        }
        // Each group's input values per aggregate, in row order.
        let mut groups: BTreeMap<Option<Value>, Vec<Vec<&Value>>> = BTreeMap::new();
        let width = q.aggregates.len();
        if q.join.is_none() && q.group_by.is_none() {
            groups.insert(None, vec![vec![]; width]);
        }
        for row in t.rows.iter().filter(|r| matches(&q.filter, r)) {
            let group = match (&q.join, q.group_by) {
                (Some(j), _) => match groups_of.get(&row[j.fact_fk]) {
                    Some(g) => g.clone(),
                    None => continue,
                },
                (None, g) => g.map(|g| row[g].clone()),
            };
            let inputs = groups.entry(group).or_insert_with(|| vec![vec![]; width]);
            for (agg, input) in q.aggregates.iter().zip(inputs) {
                input.push(&row[agg.column]);
            }
        }
        let rows = groups.into_iter().map(|(key, inputs)| GroupRow {
            key,
            values: q
                .aggregates
                .iter()
                .zip(&inputs)
                .map(|(a, vs)| finish(a.func, vs))
                .collect(),
        });
        Ok(QueryOutput::Aggregates(rows.collect()))
    }
}

/// The fixed table of the tests a generated case cannot express: key
/// `id`, keyfigure `kf`, small-domain `grp` and `st`.
pub fn kv_schema(name: &str) -> TableSchema {
    let cols = vec![
        ColumnDef::new("id", ColumnType::BigInt),
        ColumnDef::new("kf", ColumnType::Double),
        ColumnDef::new("grp", ColumnType::Integer),
        ColumnDef::new("st", ColumnType::Integer),
    ];
    TableSchema::new(name, cols, vec![0]).unwrap()
}

/// Rows `ids` of [`kv_schema`], keyfigure `kf(id)`.
pub fn kv_rows(ids: std::ops::Range<i64>, kf: impl Fn(i64) -> f64) -> Vec<Vec<Value>> {
    let int = |v: i64| Value::Int(v as i32);
    ids.map(|i| {
        vec![
            Value::BigInt(i),
            Value::Double(kf(i)),
            int(i % 5),
            int(i % 3),
        ]
    })
    .collect()
}

/// The primary-key values of `row`.
pub fn key(schema: &TableSchema, row: &[Value]) -> Vec<Value> {
    schema.primary_key.iter().map(|&c| row[c].clone()).collect()
}

fn matches(filter: &[ColRange], row: &[Value]) -> bool {
    filter.iter().all(|r| r.matches(&row[r.column]))
}

/// SQL aggregates: COUNT counts the non-NULL values, the others skip NULLs
/// and non-numbers; an empty AVG, MIN or MAX is 0.
fn finish(func: AggFunc, values: &[&Value]) -> f64 {
    let nums: Vec<f64> = values.iter().filter_map(|v| v.as_f64()).collect();
    match func {
        AggFunc::Count => values.iter().filter(|v| !v.is_null()).count() as f64,
        AggFunc::Sum => nums.iter().sum(),
        _ if nums.is_empty() => 0.0,
        AggFunc::Avg => nums.iter().sum::<f64>() / nums.len() as f64,
        AggFunc::Min => nums.into_iter().fold(f64::INFINITY, f64::min),
        AggFunc::Max => nums.into_iter().fold(f64::NEG_INFINITY, f64::max),
    }
}

/// `got` answers like `want`: rows as multisets, aggregates with equal
/// group keys and values within `1e-9` relative (sums accumulate in
/// store-specific orders), errors of the same kind.
pub fn assert_outputs_close(got: &Result<QueryOutput>, want: &Result<QueryOutput>, ctx: &str) {
    match (got, want) {
        (Ok(QueryOutput::Rows(a)), Ok(QueryOutput::Rows(b))) => {
            let (mut a, mut b) = (a.clone(), b.clone());
            a.sort();
            b.sort();
            assert_eq!(a, b, "rows diverge: {ctx}");
        }
        (Ok(QueryOutput::Aggregates(x)), Ok(QueryOutput::Aggregates(y))) => {
            let keys = |g: &[GroupRow]| g.iter().map(|r| r.key.clone()).collect::<Vec<_>>();
            assert_eq!(keys(x), keys(y), "group keys diverge: {ctx}");
            for (p, q) in x
                .iter()
                .flat_map(|r| &r.values)
                .zip(y.iter().flat_map(|r| &r.values))
            {
                let tol = 1e-9 * p.abs().max(q.abs()).max(1.0);
                assert!(
                    (p - q).abs() <= tol,
                    "{p} vs {q} diverges: {ctx}\n{x:?}\n{y:?}"
                );
            }
        }
        (Err(a), Err(b)) => assert_eq!(
            std::mem::discriminant(a),
            std::mem::discriminant(b),
            "errors diverge: {a:?} vs {b:?}: {ctx}"
        ),
        _ => assert_eq!(got, want, "outputs diverge: {ctx}"),
    }
}

/// The end state of `table` in `db` is the model's: rows (sorted by key),
/// the catalog's `indexed_columns`, and a built index on every row-store
/// part of the base region that holds an indexed column.
pub fn assert_state(db: &HybridDatabase, model: &Model, table: &str, ctx: &str) {
    use hybrid_store_advisor::engine::partition::{Loc, Region};
    use hybrid_store_advisor::storage::Table;
    let want = &model.tables[table];
    let mut rows = db
        .with_table(table, |d| d.snapshot_rows(db.segment_store()))
        .unwrap()
        .unwrap();
    rows.sort_by_cached_key(|r| key(&want.schema, r));
    assert_eq!(rows, model.rows(table), "rows of {table} diverge: {ctx}");
    let entry = db.catalog().entry_by_name(table).unwrap().clone();
    let listed: BTreeSet<usize> = entry.indexed_columns.iter().copied().collect();
    assert_eq!(listed, want.indexed, "indexed_columns of {table}: {ctx}");
    let built = db
        .with_table(table, |d| {
            let part = |c: usize| match d.base() {
                Region::Table(Table::Row(rt)) => Some((rt, c)),
                Region::Pair(p) => match (p.loc(c), p.row_fragment()) {
                    (Loc::Row(i), Table::Row(rt)) => Some((rt, i)),
                    _ => None,
                },
                _ => None,
            };
            (1..want.schema.arity())
                .filter_map(|c| part(c).map(|(rt, i)| (c, rt.has_index(i))))
                .collect::<Vec<_>>()
        })
        .unwrap();
    for (c, has) in built {
        let want_index = want.indexed.contains(&c) && !want.schema.is_pk_column(c);
        assert_eq!(has, want_index, "has_index({table}, {c}): {ctx}");
    }
}
