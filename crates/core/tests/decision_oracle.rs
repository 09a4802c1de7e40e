//! Decision equivalence against a naive oracle.
//!
//! The advisor prices one decision through a per-table query index and a
//! per-(query, placement) memo. The oracle below re-derives the same
//! decision the slow way — a full `StorageLayout` clone per candidate, the
//! whole workload re-scanned per table, every price recomputed through the
//! public `estimate_query_layout` — and the two must agree on the layout
//! exactly and on the reported costs to 1e-9 relative, over random catalogs
//! of 1–96 tables × random workloads × budget (none / loose / binding) ×
//! partitioning on/off.
//!
//! The memo is licensed by **locality** — a query's estimate depends on the
//! placement of its own table and the store of its join dimension, nothing
//! else — which gets its own property test.

use std::collections::BTreeMap;
use std::sync::Arc;

use hsd_catalog::{ColumnStats, StorageLayout, TablePlacement, TableStats, Tier};
use hsd_core::advisor::{analyze_workload, build_ctx};
use hsd_core::budget::{
    layout_footprint_bytes, placement_disk_bytes, placement_footprint_bytes, select_under_budget,
    PlacementCandidate, TableCandidates,
};
use hsd_core::estimator::{estimate_query_layout, estimate_workload_layout};
use hsd_core::partition::recommend_partition;
use hsd_core::{
    estimate_placement_maintenance, placement_fragment_drivers, AdjustmentFn, CostModel,
    EstimationCtx, StorageAdvisor, TierModel,
};
use hsd_query::{
    AggFunc, Aggregate, AggregateQuery, InsertQuery, JoinSpec, Query, SelectQuery, UpdateQuery,
    Workload,
};
use hsd_storage::{ColRange, StoreKind};
use hsd_types::{ColumnDef, ColumnType, TableSchema, Value};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Random cases

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

/// Every coefficient family active: store asymmetries, tail degradation,
/// merge cost, cross-store join factors, disk-tier surcharges.
fn model() -> CostModel {
    let mut m = CostModel::neutral();
    m.row.f_rows = AdjustmentFn::Linear {
        slope: 1e-3,
        intercept: 0.05,
    };
    m.column.f_rows = AdjustmentFn::Linear {
        slope: 1e-4,
        intercept: 0.05,
    };
    m.row.ins_row = AdjustmentFn::Constant(0.002);
    m.column.ins_row = AdjustmentFn::Constant(0.01);
    m.row.sel_point_ms = 0.002;
    m.column.sel_point_ms = 0.008;
    m.row.upd_row_ms = 0.002;
    m.column.upd_row_ms = 0.01;
    m.row.sel_per_row_scan = 2e-5;
    m.column.sel_per_row_scan = 2e-6;
    m.row.sel_per_row_indexed = 2e-6;
    m.column.f_tail = AdjustmentFn::Linear {
        slope: 20.0,
        intercept: 1.0,
    };
    m.column.merge_ms = AdjustmentFn::Linear {
        slope: 1e-4,
        intercept: 0.5,
    };
    m.join_factor = [[1.0, 2.5], [1.8, 1.1]];
    m.tier = TierModel::default_disk();
    m
}

struct Case {
    schemas: Vec<Arc<TableSchema>>,
    stats: BTreeMap<String, TableStats>,
    workload: Workload,
}

/// `tables` tables `t000…` (BigInt key, 2–5 payload columns, 0–50k rows,
/// some without statistics) and up to 160 statements whose table choice is
/// skewed toward the first few tables, so that update envelopes, insert
/// fractions and OLTP-dominated columns reach the partitioning heuristic's
/// thresholds on some of them.
fn case(seed: u64, tables: usize) -> Case {
    let mut r = Rng(seed | 1);
    let mut schemas = Vec::new();
    let mut stats = BTreeMap::new();
    let mut rows_of = Vec::new();
    for t in 0..tables {
        let name = format!("t{t:03}");
        let payload = 2 + r.below(4);
        let mut cols = vec![ColumnDef::new("id", ColumnType::BigInt)];
        for c in 0..payload {
            let ty = [ColumnType::Double, ColumnType::Integer, ColumnType::BigInt][r.below(3)];
            cols.push(ColumnDef::new(format!("c{c}"), ty));
        }
        let schema = Arc::new(TableSchema::new(&name, cols, vec![0]).unwrap());
        let rows = if r.chance(10) { 0 } else { 1 + r.below(50_000) };
        rows_of.push(rows);
        if rows > 0 && !r.chance(5) {
            let columns = (0..schema.arity())
                .map(|c| {
                    let distinct = if c == 0 {
                        rows
                    } else {
                        1 + r.below(rows.min(500))
                    };
                    let (min, max) = match schema.columns[c].ty {
                        ColumnType::Double => (Value::Double(0.0), Value::Double(distinct as f64)),
                        ColumnType::Integer => (Value::Int(0), Value::Int(distinct as i32)),
                        _ => (Value::BigInt(0), Value::BigInt(rows as i64 - 1)),
                    };
                    ColumnStats {
                        distinct,
                        min: Some(min),
                        max: Some(max),
                        compression_rate: 1.0 - distinct as f64 / rows as f64,
                    }
                })
                .collect();
            stats.insert(
                name,
                TableStats {
                    row_count: rows,
                    columns,
                },
            );
        }
        schemas.push(schema);
    }
    let hot_tables = tables.min(1 + r.below(4));
    let statements = r.below(160);
    let mut queries = Vec::with_capacity(statements);
    for i in 0..statements {
        let t = if r.chance(70) {
            r.below(hot_tables)
        } else {
            r.below(tables)
        };
        let schema = &schemas[t];
        let rows = rows_of[t].max(1) as i64;
        let col = 1 + r.below(schema.arity() - 1);
        // Updates mostly assign the last column and aggregates never read
        // it: the OLTP attribute a vertical split is proposed for.
        let oltp_col = if r.chance(70) {
            schema.arity() - 1
        } else {
            col
        };
        let value = |r: &mut Rng, c: usize| match schema.columns[c].ty {
            ColumnType::Double => Value::Double(r.below(1000) as f64 * 0.5),
            ColumnType::Integer => Value::Int(r.below(500) as i32),
            _ => Value::BigInt(r.below(rows as usize) as i64),
        };
        let key = Value::BigInt(rows - 1 - r.below((rows as usize / 8).max(1)) as i64);
        let q = match r.below(10) {
            0 | 1 => Query::Insert(InsertQuery {
                table: schema.name.clone(),
                rows: (0..1 + r.below(2))
                    .map(|k| {
                        (0..schema.arity())
                            .map(|c| match c {
                                0 => Value::BigInt(rows + (i * 4 + k) as i64),
                                c => value(&mut r, c),
                            })
                            .collect()
                    })
                    .collect(),
            }),
            2..=4 => Query::Update(UpdateQuery {
                table: schema.name.clone(),
                sets: (0..1 + r.below(2))
                    .map(|_| (oltp_col, value(&mut r, oltp_col)))
                    .collect(),
                filter: vec![if r.chance(80) {
                    ColRange::eq(0, key)
                } else {
                    ColRange::between(0, Value::BigInt(rows / 2), key)
                }],
            }),
            5 | 6 => Query::Select(SelectQuery {
                table: schema.name.clone(),
                columns: r.chance(60).then(|| vec![col]),
                filter: vec![match r.below(3) {
                    0 => ColRange::eq(0, key),
                    1 => ColRange::ge(col, value(&mut r, col)),
                    _ => ColRange::eq(col, value(&mut r, col)),
                }],
            }),
            _ => {
                let dim = r.below(tables);
                Query::Aggregate(AggregateQuery {
                    table: schema.name.clone(),
                    aggregates: (0..1 + r.below(2))
                        .map(|_| Aggregate {
                            func: [AggFunc::Sum, AggFunc::Avg, AggFunc::Count][r.below(3)],
                            column: 1 + r.below(schema.arity() - 2),
                        })
                        .collect(),
                    group_by: r.chance(30).then_some(col),
                    filter: if r.chance(30) {
                        vec![ColRange::ge(col, value(&mut r, col))]
                    } else {
                        Vec::new()
                    },
                    join: (dim != t && r.chance(35)).then(|| JoinSpec {
                        dim_table: schemas[dim].name.clone(),
                        fact_fk: col,
                        dim_pk: 0,
                        group_by_dim: r.chance(50).then_some(1),
                    }),
                })
            }
        };
        queries.push(q);
    }
    Case {
        schemas,
        stats,
        workload: Workload::from_queries(queries),
    }
}

// ---------------------------------------------------------------------------
// The naive oracle

struct Oracle<'a> {
    advisor: &'a StorageAdvisor,
    model: &'a CostModel,
    ctx: &'a EstimationCtx,
    workload: &'a Workload,
}

struct OracleDecision {
    layout: StorageLayout,
    estimated_ms: f64,
    rs_only_ms: f64,
    cs_only_ms: f64,
    footprint_bytes: f64,
    feasible: bool,
}

impl Oracle<'_> {
    fn tables(&self) -> impl Iterator<Item = &String> {
        self.ctx.tables.keys()
    }

    /// Upkeep of one placement, re-scanning the whole workload.
    fn upkeep(&self, table: &str, placement: &TablePlacement) -> f64 {
        placement_fragment_drivers(self.ctx, &self.workload.queries, table, placement)
            .map_or(0.0, |fragment| {
                estimate_placement_maintenance(self.model, fragment).total_ms()
            })
    }

    fn layout_upkeep(&self, layout: &StorageLayout) -> f64 {
        self.tables()
            .map(|t| self.upkeep(t, &layout.placement(t)))
            .sum()
    }

    fn total(&self, layout: &StorageLayout) -> f64 {
        estimate_workload_layout(self.model, self.ctx, layout, self.workload)
            + self.layout_upkeep(layout)
    }

    /// The workload share of `table` under `layout`: its own statements
    /// plus the joins using it as the dimension.
    fn share(&self, layout: &StorageLayout, table: &str) -> f64 {
        self.workload
            .queries
            .iter()
            .filter(|q| q.tables().contains(&table))
            .map(|q| estimate_query_layout(self.model, self.ctx, layout, q))
            .sum()
    }

    fn layout_of(&self, stores: &[StoreKind]) -> StorageLayout {
        let mut layout = StorageLayout::new();
        for (t, s) in self.tables().zip(stores) {
            layout.set(t.clone(), TablePlacement::Single(*s));
        }
        layout
    }

    /// Table-level search: per-table argmin over the join-free statements,
    /// then exhaustive enumeration up to the advisor's limit, greedy
    /// single-table flips beyond — each assignment priced from scratch.
    fn search(&self) -> Vec<StoreKind> {
        let n = self.ctx.tables.len();
        let mut best: Vec<StoreKind> = self
            .tables()
            .map(|t| {
                let own = |s: StoreKind| -> f64 {
                    let mut layout = StorageLayout::new();
                    layout.set(t.clone(), TablePlacement::Single(s));
                    let queries: f64 = self
                        .workload
                        .queries
                        .iter()
                        .filter(|q| q.table() == t && q.join_dim().is_none())
                        .map(|q| estimate_query_layout(self.model, self.ctx, &layout, q))
                        .sum();
                    queries + self.upkeep(t, &TablePlacement::Single(s))
                };
                if own(StoreKind::Row) <= own(StoreKind::Column) {
                    StoreKind::Row
                } else {
                    StoreKind::Column
                }
            })
            .collect();
        let cost_of = |stores: &[StoreKind]| self.total(&self.layout_of(stores));
        if n <= self.advisor.exact_search_limit {
            let mut best_cost = f64::INFINITY;
            for mask in 0u64..(1u64 << n) {
                let stores: Vec<StoreKind> = (0..n)
                    .map(|t| StoreKind::BOTH[((mask >> t) & 1) as usize])
                    .collect();
                let cost = cost_of(&stores);
                if cost < best_cost {
                    best_cost = cost;
                    best = stores;
                }
            }
        } else {
            let mut cost = cost_of(&best);
            loop {
                let mut improved = false;
                for t in 0..n {
                    best[t] = best[t].other();
                    let c = cost_of(&best);
                    if c + 1e-12 < cost {
                        cost = c;
                        improved = true;
                    } else {
                        best[t] = best[t].other();
                    }
                }
                if !improved {
                    break;
                }
            }
        }
        best
    }

    fn decide(&self, schemas: &[Arc<TableSchema>], partitioning: bool) -> OracleDecision {
        let n = self.ctx.tables.len();
        let single_layout = self.layout_of(&self.search());
        let rs_only_ms = self.total(&self.layout_of(&vec![StoreKind::Row; n]));
        let cs_only_ms = self.total(&self.layout_of(&vec![StoreKind::Column; n]));
        let activity = analyze_workload(schemas, self.workload).unwrap();
        let mut layout = single_layout.clone();
        if partitioning {
            for schema in schemas {
                let name = &schema.name;
                let Some(spec) = activity.tables.get(name).and_then(|act| {
                    let stats = &self.ctx.tables[name].stats;
                    recommend_partition(schema, stats, act, &self.advisor.partition_cfg)
                }) else {
                    continue;
                };
                let candidate = TablePlacement::Partitioned(spec);
                let mut cand_layout = single_layout.clone();
                cand_layout.set(name.clone(), candidate.clone());
                let single_ms = self.share(&single_layout, name)
                    + self.upkeep(name, &single_layout.placement(name));
                let cand_ms = self.share(&cand_layout, name) + self.upkeep(name, &candidate);
                if cand_ms < single_ms {
                    layout.set(name.clone(), candidate);
                }
            }
        }
        let mut footprint_bytes = layout_footprint_bytes(self.ctx, &layout);
        let mut feasible = true;
        if let Some(budget) = self.advisor.memory_budget.filter(|b| footprint_bytes > *b) {
            let chosen = layout.clone();
            let tables: Vec<TableCandidates> = self
                .ctx
                .tables
                .iter()
                .map(|(name, tctx)| {
                    let mut placements = vec![
                        TablePlacement::Single(StoreKind::Row),
                        TablePlacement::Single(StoreKind::Column),
                    ];
                    if let TablePlacement::Partitioned(spec) = chosen.placement(name) {
                        if spec.vertical.is_none() && spec.cold_tier == Tier::Memory {
                            let mut demoted = spec.clone();
                            demoted.cold_tier = Tier::Disk;
                            placements.push(TablePlacement::Partitioned(demoted));
                        }
                        placements.push(TablePlacement::Partitioned(spec));
                    }
                    let candidates = placements
                        .into_iter()
                        .map(|placement| {
                            let mut cand_layout = chosen.clone();
                            cand_layout.set(name.clone(), placement.clone());
                            PlacementCandidate {
                                cost_ms: self.share(&cand_layout, name)
                                    + self.upkeep(name, &placement),
                                footprint_bytes: placement_footprint_bytes(tctx, &placement),
                                disk_bytes: placement_disk_bytes(tctx, &placement),
                                placement,
                            }
                        })
                        .collect();
                    TableCandidates {
                        table: name.clone(),
                        candidates,
                    }
                })
                .collect();
            let selection = select_under_budget(&tables, Some(budget));
            for tc in &tables {
                let placement = tc.candidates[selection.choice[&tc.table]].placement.clone();
                layout.set(tc.table.clone(), placement);
            }
            footprint_bytes = selection.total_footprint_bytes;
            feasible = selection.feasible;
        }
        OracleDecision {
            estimated_ms: self.total(&layout),
            layout,
            rs_only_ms,
            cs_only_ms,
            footprint_bytes,
            feasible,
        }
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Same layout as the oracle, same costs to 1e-9 — and the reported
    /// costs are the plain `estimate_workload_layout` sum plus upkeep over
    /// the full workload.
    #[test]
    fn decisions_match_the_naive_oracle(seed in any::<u64>(), shape in 0usize..96) {
        // Small catalogs take the exhaustive search, large ones the greedy.
        let tables = if shape % 3 == 0 { 1 + shape % 5 } else { 1 + shape };
        let case = case(seed, tables);
        let model = model();
        let ctx = build_ctx(&case.schemas, &case.stats);
        let mut advisor = StorageAdvisor::new(model.clone());
        advisor.exact_search_limit = 4;
        for partitioning in [false, true] {
            let unbudgeted = advisor
                .recommend_offline(&case.schemas, &case.stats, &case.workload, partitioning)
                .unwrap();
            // No budget, a loose one, and two that bind.
            for share in [None, Some(2.0), Some(0.6), Some(0.05)] {
                let advisor = StorageAdvisor {
                    memory_budget: share.map(|s| s * unbudgeted.footprint_bytes),
                    ..advisor.clone()
                };
                let rec = advisor
                    .recommend_offline(&case.schemas, &case.stats, &case.workload, partitioning)
                    .unwrap();
                let oracle = Oracle {
                    advisor: &advisor,
                    model: &model,
                    ctx: &ctx,
                    workload: &case.workload,
                };
                let expected = oracle.decide(&case.schemas, partitioning);
                prop_assert_eq!(&rec.layout, &expected.layout);
                prop_assert_eq!(rec.budget_feasible, expected.feasible);
                prop_assert!(close(rec.estimated_ms, expected.estimated_ms));
                prop_assert!(close(rec.rs_only_ms, expected.rs_only_ms));
                prop_assert!(close(rec.cs_only_ms, expected.cs_only_ms));
                prop_assert!(close(rec.footprint_bytes, expected.footprint_bytes));
                prop_assert!(close(rec.estimated_ms, oracle.total(&rec.layout)));
            }
        }
    }

    /// Locality: tables a query does not touch — their statistics in the
    /// context, their placements in the layout — never change its estimate.
    #[test]
    fn unrelated_tables_never_change_an_estimate(seed in any::<u64>(), extra in 1usize..64) {
        let small = case(seed, 4);
        let model = model();
        let ctx = build_ctx(&small.schemas, &small.stats);
        // The same four tables among `extra` unrelated ones, the unrelated
        // ones spread over every kind of placement.
        let big = case(seed ^ 0x9E37_79B9_7F4A_7C15, 4 + extra);
        let mut schemas = small.schemas.clone();
        let mut stats = small.stats.clone();
        for schema in &big.schemas[4..] {
            if let Some(s) = big.stats.get(&schema.name) {
                stats.insert(schema.name.clone(), s.clone());
            }
            schemas.push(schema.clone());
        }
        let big_ctx = build_ctx(&schemas, &stats);
        let rec = StorageAdvisor::new(model.clone())
            .recommend_offline(&small.schemas, &small.stats, &small.workload, true)
            .unwrap();
        let noise = StorageAdvisor::new(model.clone())
            .recommend_offline(&big.schemas, &big.stats, &big.workload, true)
            .unwrap();
        let mut layouts = vec![rec.layout.clone()];
        for store in StoreKind::BOTH {
            let names = small.schemas.iter().map(|s| s.name.as_str());
            layouts.push(StorageLayout::uniform(names, store));
        }
        for layout in layouts {
            let mut crowded = layout.clone();
            for schema in &big.schemas[4..] {
                crowded.set(schema.name.clone(), noise.layout.placement(&schema.name));
            }
            for q in &small.workload.queries {
                let alone = estimate_query_layout(&model, &ctx, &layout, q);
                let among = estimate_query_layout(&model, &big_ctx, &crowded, q);
                prop_assert_eq!(alone.to_bits(), among.to_bits());
            }
        }
    }
}

/// The property above is only as strong as the cases it sees: the generator
/// must reach every branch of the decision — adopted hot/cold and vertical
/// splits, column stores, joins, budgets that re-select, demote to disk and
/// cannot be met.
#[test]
fn generated_cases_reach_every_decision_branch() {
    let advisor = StorageAdvisor::new(model());
    let [mut split, mut vertical, mut column, mut demoted, mut infeasible, mut joins] = [0; 6];
    for seed in 1..=32u64 {
        let c = case(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            1 + (seed as usize * 7) % 96,
        );
        joins += c
            .workload
            .queries
            .iter()
            .filter(|q| q.join_dim().is_some())
            .count();
        let recommend = |advisor: &StorageAdvisor| {
            advisor
                .recommend_offline(&c.schemas, &c.stats, &c.workload, true)
                .unwrap()
        };
        let unbudgeted = recommend(&advisor);
        for placement in unbudgeted.layout.placements.values() {
            match placement {
                TablePlacement::Partitioned(spec) => {
                    split += 1;
                    vertical += usize::from(spec.vertical.is_some());
                }
                TablePlacement::Single(store) => column += usize::from(*store == StoreKind::Column),
            }
        }
        for share in [0.6, 0.05] {
            let rec = recommend(
                &advisor
                    .clone()
                    .with_budget(unbudgeted.footprint_bytes * share),
            );
            infeasible += usize::from(!rec.budget_feasible);
            demoted += rec
                .layout
                .placements
                .values()
                .filter(
                    |p| matches!(p, TablePlacement::Partitioned(s) if s.cold_tier == Tier::Disk),
                )
                .count();
        }
    }
    for (what, seen) in [
        ("adopted splits", split),
        ("vertical splits", vertical),
        ("column stores", column),
        ("disk-demoted fragments", demoted),
        ("infeasible budgets", infeasible),
        ("joins", joins),
    ] {
        assert!(seen > 0, "no case with {what}");
    }
}
