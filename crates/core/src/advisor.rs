//! The storage advisor: table-level store recommendation plus store-aware
//! partitioning, bundled into offline/online entry points.

use std::collections::BTreeMap;
use std::sync::Arc;

use hsd_catalog::{
    Catalog, ExtendedStats, PartitionSpec, StorageLayout, TablePlacement, TableStats, Tier,
};
use hsd_engine::StatisticsRecorder;
use hsd_query::{Query, Workload};
use hsd_storage::StoreKind;
use hsd_types::{Result, TableSchema};

use crate::budget::GlobalSelection;
use crate::cost::{store_index, CostModel, ModelHandle};
use crate::estimator::{
    dim_store_of, estimate_query_layout, estimate_query_placed, placement_fragment_drivers,
    EstimationCtx, TableCtx,
};
use crate::partition::{recommend_partition, PartitionAdvisorConfig};

/// Per-table outcome of a recommendation.
#[derive(Debug, Clone)]
pub struct TableRecommendation {
    /// Table name.
    pub table: String,
    /// Estimated workload share on the row store (ms).
    pub cost_row_ms: f64,
    /// Estimated workload share on the column store (ms).
    pub cost_column_ms: f64,
    /// Recommended placement.
    pub placement: TablePlacement,
}

/// A complete recommendation.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// The recommended layout.
    pub layout: StorageLayout,
    /// Estimated workload runtime under the recommended layout (ms).
    pub estimated_ms: f64,
    /// Estimated runtime with every table in the row store (ms).
    pub rs_only_ms: f64,
    /// Estimated runtime with every table in the column store (ms).
    pub cs_only_ms: f64,
    /// Modeled in-memory footprint of the recommended layout (bytes).
    pub footprint_bytes: f64,
    /// Modeled on-disk bytes of the recommended layout (cold fragments
    /// demoted to the disk tier; zero for all-memory layouts).
    pub disk_bytes: f64,
    /// The memory budget the recommendation was selected under, if any
    /// ([`StorageAdvisor::memory_budget`]).
    pub budget_bytes: Option<f64>,
    /// Whether the budget was satisfiable: `false` only when even the
    /// smallest-footprint placement set exceeds it (the layout then is
    /// that smallest set).
    pub budget_feasible: bool,
    /// Per-table details.
    pub tables: Vec<TableRecommendation>,
    /// Data-movement statements implementing the layout.
    pub statements: Vec<String>,
}

/// The advisor: a calibrated cost model plus heuristic thresholds.
#[derive(Debug, Clone)]
pub struct StorageAdvisor {
    /// Calibrated cost model, behind a versioned refittable handle: every
    /// pricing pass takes one [`ModelHandle::snapshot`] at entry, so an
    /// online re-fit ([`crate::calibration::online::OnlineCalibrator`])
    /// published mid-pass can never mix coefficient versions within a
    /// single estimate. Cloning the advisor shares the handle — a re-fit
    /// reaches every clone's next pass.
    pub model: ModelHandle,
    /// Partitioning thresholds.
    pub partition_cfg: PartitionAdvisorConfig,
    /// Maximum table count for exhaustive store-combination search; larger
    /// schemas fall back to greedy local search.
    pub exact_search_limit: usize,
    /// Optional global memory budget (bytes). `None` keeps the
    /// unconstrained per-table choice (the greedy path, retained as the
    /// ablation baseline). `Some(b)` scales the advisor to the paper's
    /// *global* problem: when the unconstrained layout's modeled footprint
    /// exceeds `b`, the placement set is re-selected by knapsack-style
    /// search over every table's `(cost, footprint)` candidates
    /// ([`crate::budget::select_under_budget`]) so total workload cost is
    /// minimized *within* the budget. A budget the unconstrained layout
    /// already satisfies changes nothing — the greedy choice is the
    /// special case, not a separate mode.
    pub memory_budget: Option<f64>,
}

impl StorageAdvisor {
    /// Advisor with default heuristics. The model is wrapped in a fresh
    /// [`ModelHandle`]; use [`StorageAdvisor::with_handle`] to share an
    /// existing one (so online re-fits reach this advisor too).
    pub fn new(model: CostModel) -> Self {
        Self::with_handle(ModelHandle::new(model))
    }

    /// Advisor sharing an existing versioned model handle.
    pub fn with_handle(model: ModelHandle) -> Self {
        StorageAdvisor {
            model,
            partition_cfg: PartitionAdvisorConfig::default(),
            exact_search_limit: 12,
            memory_budget: None,
        }
    }

    /// The same advisor constrained to a global memory budget (bytes).
    pub fn with_budget(self, budget_bytes: f64) -> Self {
        StorageAdvisor {
            memory_budget: Some(budget_bytes),
            ..self
        }
    }

    /// **Offline mode**: recommend a layout from schema, basic statistics,
    /// and a recorded or expected workload. Workload characteristics are
    /// derived by static analysis (no execution).
    pub fn recommend_offline(
        &self,
        schemas: &[Arc<TableSchema>],
        stats: &BTreeMap<String, TableStats>,
        workload: &Workload,
        enable_partitioning: bool,
    ) -> Result<Recommendation> {
        let ctx = build_ctx(schemas, stats);
        let activity = analyze_workload(schemas, workload)?;
        let queries: Vec<&Query> = workload.queries.iter().collect();
        // One snapshot for the whole recommendation pass: a concurrent
        // re-fit can land mid-pass without mixing coefficient versions.
        let model = self.model.snapshot();
        let mut pass = DecisionPass::new(self, &model, &ctx, &queries);
        Ok(pass.recommend(schemas, &activity, enable_partitioning))
    }
}

/// Schemas (name order) and estimation context of a live catalog: basic
/// statistics plus the indexed columns — what the **online mode**
/// ([`crate::online::OnlineAdvisor::evaluate`]) decides from, next to the
/// recorded extended statistics and the recent query window.
///
/// The live delta tail is deliberately NOT part of it: placement is a
/// steady-state decision, and a tail-inflated column-store estimate could
/// tip it into recommending a full migration whose cheaper remedy is the
/// maintenance scheduler's own merge (`merge_ms` ≪ move cost). Tail costs
/// are charged where they are actionable — in
/// [`crate::maintenance::evaluate_merge`] — and where they were paid — in
/// [`crate::online::OnlineAdvisor::predict_ms`].
pub(crate) fn catalog_ctx(catalog: &Catalog) -> (Vec<Arc<TableSchema>>, EstimationCtx) {
    let mut schemas = Vec::with_capacity(catalog.len());
    let mut ctx = EstimationCtx::new();
    for entry in catalog.entries() {
        let mut tctx = table_ctx(&entry.schema, entry.stats.clone());
        tctx.indexed = entry.indexed_columns.clone();
        ctx.insert(entry.schema.name.clone(), tctx);
        schemas.push(entry.schema.clone());
    }
    (schemas, ctx)
}

// Candidate slots of a table in a [`DecisionPass`]: the two single stores
// (every table), then the proposed split and its disk-demoted variant.
const ROW: usize = 0;
const COLUMN: usize = 1;
const SPLIT: usize = 2;
const DEMOTED: usize = 3;
const SLOTS: usize = 4;

/// One decision's pricing state: a per-table query index and a
/// per-(query, placement of its tables) price memo, built once per
/// `recommend_*` call and read by every stage — the table-level search, the
/// `rs_only`/`cs_only` baselines, the partition candidates' shares, the
/// knapsack candidates, the final estimate, and (for the online mode) the
/// current layout's cost.
///
/// A query's price depends only on its own table's placement and its join
/// dimension's store (see [`estimate_query_placed`]), so each distinct
/// price is computed once and a stage costs a pass over the statements of
/// the tables it varies — O(queries × candidates per table) for the whole
/// decision, independent of how many tables the catalog holds.
pub(crate) struct DecisionPass<'a> {
    advisor: &'a StorageAdvisor,
    model: &'a CostModel,
    ctx: &'a EstimationCtx,
    queries: &'a [&'a Query],
    /// The context's tables, name order; a table's position is its id.
    names: Vec<&'a str>,
    /// Candidate placements per table, indexed by slot.
    placements: Vec<Vec<TablePlacement>>,
    /// `(fact, dimension)` table ids per query (`None`: not in the context,
    /// or no join).
    tables_of: Vec<(Option<usize>, Option<usize>)>,
    /// Per table, the workload-order indexes of the queries touching it as
    /// their primary table or join dimension.
    queries_of: Vec<Vec<usize>>,
    /// `price[query][fact slot][dimension store]`, NaN until computed.
    price: Vec<[[f64; 2]; SLOTS]>,
    /// `upkeep[table][slot]`, NaN until computed.
    upkeep: Vec<[f64; SLOTS]>,
}

impl<'a> DecisionPass<'a> {
    pub(crate) fn new(
        advisor: &'a StorageAdvisor,
        model: &'a CostModel,
        ctx: &'a EstimationCtx,
        queries: &'a [&'a Query],
    ) -> Self {
        let names: Vec<&str> = ctx.tables.keys().map(String::as_str).collect();
        let id_of = |name: &str| names.binary_search(&name).ok();
        let mut queries_of = vec![Vec::new(); names.len()];
        let tables_of: Vec<_> = queries
            .iter()
            .enumerate()
            .map(|(qi, q)| {
                let fact = id_of(q.table());
                let dim = q.join_dim().and_then(id_of);
                for t in fact.into_iter().chain(dim.filter(|d| Some(*d) != fact)) {
                    queries_of[t].push(qi);
                }
                (fact, dim)
            })
            .collect();
        let singles = StoreKind::BOTH.map(TablePlacement::Single).to_vec();
        DecisionPass {
            advisor,
            model,
            ctx,
            queries,
            placements: vec![singles; names.len()],
            tables_of,
            queries_of,
            price: vec![[[f64::NAN; 2]; SLOTS]; queries.len()],
            upkeep: vec![[f64::NAN; SLOTS]; names.len()],
            names,
        }
    }

    fn id_of(&self, table: &str) -> Option<usize> {
        self.names.binary_search(&table).ok()
    }

    /// Price of one query with its own table at `slot` and its join
    /// dimension (if any) in `dim_store`.
    fn price(&mut self, qi: usize, slot: usize, dim_store: StoreKind) -> f64 {
        let cell = &mut self.price[qi][slot][store_index(dim_store)];
        if cell.is_nan() {
            static UNKNOWN: TablePlacement = TablePlacement::Single(StoreKind::Row);
            let placement = match self.tables_of[qi].0 {
                Some(t) => &self.placements[t][slot],
                None => &UNKNOWN,
            };
            *cell =
                estimate_query_placed(self.model, self.ctx, self.queries[qi], placement, dim_store);
        }
        *cell
    }

    /// Price of one query when table `t` takes slot `slot_of(t)`.
    fn price_with(&mut self, qi: usize, slot_of: impl Fn(usize) -> usize) -> f64 {
        let (fact, dim) = self.tables_of[qi];
        let slot = fact.map_or(ROW, &slot_of);
        let dim_store = dim.map_or(StoreKind::Row, |d| {
            dim_store_of(&self.placements[d][slot_of(d)])
        });
        self.price(qi, slot, dim_store)
    }

    /// Query cost of the whole workload under one slot per table.
    fn workload_ms(&mut self, slots: &[usize]) -> f64 {
        (0..self.queries.len())
            .map(|qi| self.price_with(qi, |t| slots[t]))
            .sum()
    }

    /// Table `t`'s workload share at `slot`, every other table at `slots`:
    /// every query whose primary table is `t`, plus joins that use it as
    /// the dimension — a dimension kept columnar for join performance must
    /// not flip to another placement with the joins left unpriced.
    fn share_ms(&mut self, t: usize, slot: usize, slots: &[usize]) -> f64 {
        (0..self.queries_of[t].len())
            .map(|i| {
                let qi = self.queries_of[t][i];
                self.price_with(qi, |x| if x == t { slot } else { slots[x] })
            })
            .sum()
    }

    /// Modeled delta-upkeep cost (ms) table `t` pays under `placement` over
    /// the workload: zero when the placement keeps no column-store region,
    /// the fragment-level bill for partitioned placements.
    fn placement_upkeep_ms(&self, t: usize, placement: &TablePlacement) -> f64 {
        let own = self.queries_of[t].iter().map(|&qi| self.queries[qi]);
        placement_fragment_drivers(self.ctx, own, self.names[t], placement).map_or(
            0.0,
            |fragment| {
                crate::maintenance::estimate_placement_maintenance(self.model, fragment).total_ms()
            },
        )
    }

    /// [`DecisionPass::placement_upkeep_ms`] of a candidate slot, memoized.
    fn upkeep_ms(&mut self, t: usize, slot: usize) -> f64 {
        if self.upkeep[t][slot].is_nan() {
            self.upkeep[t][slot] = self.placement_upkeep_ms(t, &self.placements[t][slot]);
        }
        self.upkeep[t][slot]
    }

    /// Total delta-upkeep charge under one slot per table: every table pays
    /// the modeled upkeep of its own placement's column-store region.
    fn total_upkeep_ms(&mut self, slots: &[usize]) -> f64 {
        (0..slots.len()).map(|t| self.upkeep_ms(t, slots[t])).sum()
    }

    /// Modeled cost (ms) of the workload under an arbitrary layout — query
    /// estimates plus every placement's delta upkeep, priced with the same
    /// context, model and query index as the recommendation, so the online
    /// mode's current-vs-recommended comparison is like with like.
    pub(crate) fn layout_ms(&self, layout: &StorageLayout) -> f64 {
        let query_ms: f64 = self
            .queries
            .iter()
            .map(|q| estimate_query_layout(self.model, self.ctx, layout, q))
            .sum();
        let upkeep_ms: f64 = (0..self.names.len())
            .map(|t| self.placement_upkeep_ms(t, layout.placement_ref(self.names[t])))
            .sum();
        query_ms + upkeep_ms
    }

    /// Run the decision: table-level store search, partition candidates,
    /// budget re-selection, and the report.
    pub(crate) fn recommend(
        &mut self,
        schemas: &[Arc<TableSchema>],
        activity: &ExtendedStats,
        enable_partitioning: bool,
    ) -> Recommendation {
        let advisor = self.advisor;
        let n = self.names.len();
        // --- table level -------------------------------------------------
        let search = TableLevelSearch::new(self);
        let mut slots = search.solve(advisor.exact_search_limit);
        // --- baselines ---------------------------------------------------
        let rs_only_ms = self.workload_ms(&vec![ROW; n]);
        let cs_only_ms =
            self.workload_ms(&vec![COLUMN; n]) + self.total_upkeep_ms(&vec![COLUMN; n]);
        // --- partitioning ------------------------------------------------
        // The heuristic proposes a partition spec; the spec is then priced
        // as a first-class placement candidate — the table's workload share
        // under the partitioned placement plus its *fragment-level* delta
        // upkeep, against the chosen single store's share plus its upkeep,
        // every other table at its chosen store — and adopted only when it
        // models faster.
        if enable_partitioning {
            let stores = slots.clone();
            for schema in schemas {
                let Some(t) = self.id_of(&schema.name) else {
                    continue;
                };
                let Some(spec) = activity.tables.get(&schema.name).and_then(|act| {
                    let stats = &self.ctx.tables[&schema.name].stats;
                    recommend_partition(schema, stats, act, &advisor.partition_cfg)
                }) else {
                    continue;
                };
                // The split's disk-demoted variant: same hot/cold shape,
                // cold fragment priced out of memory and into tier
                // surcharges — one more point on the knapsack's
                // cost/footprint frontier, the relief valve when even the
                // compressed column store won't fit. (Vertical cold
                // fragments cannot demote; the engine keeps them
                // memory-resident.)
                let demoted =
                    (spec.vertical.is_none() && spec.cold_tier == Tier::Memory).then(|| {
                        PartitionSpec {
                            cold_tier: Tier::Disk,
                            ..spec.clone()
                        }
                    });
                self.placements[t].push(TablePlacement::Partitioned(spec));
                self.placements[t].extend(demoted.map(TablePlacement::Partitioned));
                let single_ms = self.share_ms(t, stores[t], &stores) + self.upkeep_ms(t, stores[t]);
                let split_ms = self.share_ms(t, SPLIT, &stores) + self.upkeep_ms(t, SPLIT);
                if split_ms < single_ms {
                    slots[t] = SPLIT;
                }
            }
        }
        // --- global memory budget ---------------------------------------
        // When a budget is set and the unconstrained choice exceeds it,
        // re-select the placement set by knapsack over every table's
        // (cost, footprint) candidates. A budget the unconstrained layout
        // already satisfies leaves it untouched, so the greedy path is the
        // exact unconstrained special case.
        let mut budget_feasible = true;
        let mut footprint_bytes = self.footprint_bytes(&slots);
        if let Some(budget) = advisor.memory_budget {
            if footprint_bytes > budget {
                let selection;
                (slots, selection) = self.select_under_budget(&slots, budget);
                budget_feasible = selection.feasible;
                footprint_bytes = selection.total_footprint_bytes;
            }
        }
        // Query cost of the recommended layout plus the delta upkeep of
        // every placement that keeps a column-store region, charged at the
        // fragment level for partitioned placements.
        let estimated_ms = self.workload_ms(&slots) + self.total_upkeep_ms(&slots);
        let mut layout = StorageLayout::new();
        let mut tables = Vec::with_capacity(schemas.len());
        for schema in schemas {
            let t = self.id_of(&schema.name);
            let placement = t.map_or(TablePlacement::Single(StoreKind::Row), |t| {
                self.placements[t][slots[t]].clone()
            });
            let (cost_row_ms, cost_column_ms) = t.map_or((0.0, 0.0), |t| search.per_table_costs(t));
            layout.set(schema.name.clone(), placement.clone());
            tables.push(TableRecommendation {
                table: schema.name.clone(),
                cost_row_ms,
                cost_column_ms,
                placement,
            });
        }
        Recommendation {
            statements: migration_statements(schemas, &layout),
            disk_bytes: crate::budget::layout_disk_bytes(self.ctx, &layout),
            layout,
            estimated_ms,
            rs_only_ms,
            cs_only_ms,
            footprint_bytes,
            budget_bytes: advisor.memory_budget,
            budget_feasible,
            tables,
        }
    }

    /// Modeled in-memory footprint of one slot per table.
    fn footprint_bytes(&self, slots: &[usize]) -> f64 {
        self.ctx
            .tables
            .values()
            .zip(slots)
            .zip(&self.placements)
            .map(|((tctx, &slot), placements)| {
                crate::budget::placement_footprint_bytes(tctx, &placements[slot])
            })
            .sum()
    }

    /// Re-select every table's placement under a binding memory budget:
    /// the new slot per table, and the selection's totals.
    ///
    /// Candidates per table: the two single stores plus — when the
    /// unconstrained pass adopted one — its partitioned placement and that
    /// placement's disk-demoted variant. Each candidate's cost is the
    /// table's workload share priced with only this table changed, plus the
    /// candidate's delta upkeep; its footprint comes from
    /// [`crate::budget::placement_footprint_bytes`]. The knapsack walk
    /// ([`crate::budget::select_under_budget`]) then picks the cheapest set
    /// that fits.
    fn select_under_budget(
        &mut self,
        chosen: &[usize],
        budget: f64,
    ) -> (Vec<usize>, GlobalSelection) {
        let ctx = self.ctx;
        let mut candidate_slots = Vec::with_capacity(chosen.len());
        let mut tables = Vec::with_capacity(chosen.len());
        for (t, tctx) in ctx.tables.values().enumerate() {
            let mut slots = vec![ROW, COLUMN];
            if chosen[t] == SPLIT {
                slots.extend((self.placements[t].len() > DEMOTED).then_some(DEMOTED));
                slots.push(SPLIT);
            }
            let candidates = slots
                .iter()
                .map(|&slot| {
                    let placement = self.placements[t][slot].clone();
                    crate::budget::PlacementCandidate {
                        cost_ms: self.share_ms(t, slot, chosen) + self.upkeep_ms(t, slot),
                        footprint_bytes: crate::budget::placement_footprint_bytes(tctx, &placement),
                        disk_bytes: crate::budget::placement_disk_bytes(tctx, &placement),
                        placement,
                    }
                })
                .collect();
            candidate_slots.push(slots);
            tables.push(crate::budget::TableCandidates {
                table: self.names[t].to_string(),
                candidates,
            });
        }
        let selection = crate::budget::select_under_budget(&tables, Some(budget));
        let slots = candidate_slots
            .iter()
            .zip(&tables)
            .map(|(slots, tc)| slots[selection.choice[&tc.table]])
            .collect();
        (slots, selection)
    }
}

/// Build the estimation context from schemas + stats.
pub fn build_ctx(
    schemas: &[Arc<TableSchema>],
    stats: &BTreeMap<String, TableStats>,
) -> EstimationCtx {
    let mut ctx = EstimationCtx::new();
    for schema in schemas {
        let s = stats
            .get(&schema.name)
            .cloned()
            .unwrap_or_else(|| TableStats::empty(schema.arity()));
        ctx.insert(schema.name.clone(), table_ctx(schema, s));
    }
    ctx
}

/// Estimation inputs of one table: no index annotations, no delta tail, no
/// observed tail rate.
fn table_ctx(schema: &TableSchema, stats: TableStats) -> TableCtx {
    TableCtx {
        stats,
        indexed: Vec::new(),
        column_types: schema.columns.iter().map(|c| c.ty).collect(),
        pk_columns: schema.primary_key.clone(),
        delta_tail: 0,
        observed_tail_rate: None,
    }
}

/// Feed the recorder's observed per-write tail rates into an estimation
/// context, so [`placement_fragment_drivers`] tightens its static upper
/// bound with live evidence. Online-mode helper (offline recommendations
/// have no live dictionaries to observe).
pub(crate) fn apply_observed_tail_rates(ctx: &mut EstimationCtx, recorded: &ExtendedStats) {
    for (name, tctx) in &mut ctx.tables {
        tctx.observed_tail_rate = recorded.table(name).and_then(|a| a.observed_tail_rate());
    }
}

/// Statically derive extended workload statistics from a workload (the
/// offline mode's workload analysis — no queries are executed).
pub fn analyze_workload(
    schemas: &[Arc<TableSchema>],
    workload: &Workload,
) -> Result<ExtendedStats> {
    Ok(StatisticsRecorder::analyze(schemas, &workload.queries))
}

// ---------------------------------------------------------------------------
// Table-level search

/// Decomposed workload costs: per-table single-store sums plus per-join-pair
/// combination sums, enabling fast evaluation of any store assignment.
struct TableLevelSearch {
    /// `single[t][s]`: cost of all single-table queries on table `t` under
    /// store `s`.
    single: Vec<[f64; 2]>,
    /// Join query costs: `(fact_idx, dim_idx, cost[fact_store][dim_store])`.
    joins: Vec<(usize, usize, [[f64; 2]; 2])>,
}

impl TableLevelSearch {
    /// Decompose the pass's workload into per-table and per-join-pair store
    /// costs. Each table's column-store side is charged its modeled delta
    /// maintenance (zero for maintenance-blind comparisons) — the upkeep
    /// depends only on the table's own store, so it stays separable and the
    /// search machinery is unchanged.
    fn new(pass: &mut DecisionPass) -> Self {
        let mut single = vec![[0.0f64; 2]; pass.names.len()];
        let mut join_map: BTreeMap<(usize, usize), [[f64; 2]; 2]> = BTreeMap::new();
        for qi in 0..pass.queries.len() {
            match (pass.queries[qi].join_dim(), pass.tables_of[qi]) {
                (Some(_), (Some(f), Some(d))) => {
                    let entry = join_map.entry((f, d)).or_insert([[0.0; 2]; 2]);
                    for fs in [ROW, COLUMN] {
                        for ds in StoreKind::BOTH {
                            entry[fs][store_index(ds)] += pass.price(qi, fs, ds);
                        }
                    }
                }
                (None, (Some(t), _)) => {
                    for s in [ROW, COLUMN] {
                        single[t][s] += pass.price(qi, s, StoreKind::Row);
                    }
                }
                // Statements on tables outside the context cost the same
                // under every assignment.
                _ => {}
            }
        }
        for (t, costs) in single.iter_mut().enumerate() {
            costs[COLUMN] += pass.upkeep_ms(t, COLUMN);
        }
        let joins = join_map.into_iter().map(|((f, d), c)| (f, d, c)).collect();
        TableLevelSearch { single, joins }
    }

    fn cost_of(&self, stores: &[usize]) -> f64 {
        let mut total = 0.0;
        for (t, s) in stores.iter().enumerate() {
            total += self.single[t][*s];
        }
        for (f, d, costs) in &self.joins {
            total += costs[stores[*f]][stores[*d]];
        }
        total
    }

    /// Exhaustive store-combination search for small schemas ("for the join
    /// of two tables this means four estimates ... a negligible overhead"),
    /// greedy local search beyond `exact_limit` tables. Returns one store
    /// slot ([`ROW`] / [`COLUMN`]) per table.
    fn solve(&self, exact_limit: usize) -> Vec<usize> {
        let n = self.single.len();
        let mut best: Vec<usize> = (0..n)
            .map(|t| {
                if self.single[t][ROW] <= self.single[t][COLUMN] {
                    ROW
                } else {
                    COLUMN
                }
            })
            .collect();
        if n == 0 {
            return best;
        }
        if n <= exact_limit {
            let mut best_cost = f64::INFINITY;
            for mask in 0u64..(1u64 << n) {
                let stores: Vec<usize> = (0..n).map(|t| ((mask >> t) & 1) as usize).collect();
                let cost = self.cost_of(&stores);
                if cost < best_cost {
                    best_cost = cost;
                    best = stores;
                }
            }
        } else {
            // Greedy local search: flip single tables while it helps.
            let mut cost = self.cost_of(&best);
            loop {
                let mut improved = false;
                for t in 0..n {
                    best[t] ^= 1;
                    let c = self.cost_of(&best);
                    if c + 1e-12 < cost {
                        cost = c;
                        improved = true;
                    } else {
                        best[t] ^= 1;
                    }
                }
                if !improved {
                    break;
                }
            }
        }
        best
    }

    /// Single-table cost split for reporting (join costs are attributed to
    /// the fact table, at the dimension's cheaper store).
    fn per_table_costs(&self, t: usize) -> (f64, f64) {
        let mut rs = self.single[t][ROW];
        let mut cs = self.single[t][COLUMN];
        for (f, _, costs) in &self.joins {
            if *f == t {
                rs += costs[0][0].min(costs[0][1]);
                cs += costs[1][0].min(costs[1][1]);
            }
        }
        (rs, cs)
    }
}

/// Render the data-movement statements for a layout (the "respective
/// statements to move the data into the recommended store").
fn migration_statements(schemas: &[Arc<TableSchema>], layout: &StorageLayout) -> Vec<String> {
    let mut out = Vec::new();
    for schema in schemas {
        let name = &schema.name;
        match layout.placement(name) {
            TablePlacement::Single(StoreKind::Row) => {
                out.push(format!("ALTER TABLE {name} MOVE TO ROW STORE;"));
            }
            TablePlacement::Single(StoreKind::Column) => {
                out.push(format!("ALTER TABLE {name} MOVE TO COLUMN STORE;"));
            }
            TablePlacement::Partitioned(spec) => {
                if let Some(h) = &spec.horizontal {
                    let col = &schema.columns[h.split_column].name;
                    out.push(format!(
                        "ALTER TABLE {name} PARTITION HORIZONTALLY WHERE {col} >= {} \
                         (HOT -> ROW STORE, HISTORIC -> COLUMN STORE);",
                        h.split_value
                    ));
                }
                if let Some(v) = &spec.vertical {
                    let cols: Vec<&str> = v
                        .row_cols
                        .iter()
                        .map(|&c| schema.columns[c].name.as_str())
                        .collect();
                    out.push(format!(
                        "ALTER TABLE {name} PARTITION VERTICALLY ({}) -> ROW STORE \
                         (REMAINING ATTRIBUTES -> COLUMN STORE, PRIMARY KEY IN BOTH);",
                        cols.join(", ")
                    ));
                }
                if spec.cold_tier == hsd_catalog::Tier::Disk {
                    out.push(format!("ALTER TABLE {name} DEMOTE COLD PARTITION TO DISK;"));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::AdjustmentFn;
    use hsd_catalog::ColumnStats;
    use hsd_query::{
        AggFunc, AggregateQuery, InsertQuery, MixedWorkloadConfig, TableSpec, WorkloadGenerator,
    };
    use hsd_types::{ColumnDef, ColumnType, Value};

    /// A hand-built model with the canonical asymmetries: CS 10× faster at
    /// aggregation, RS 5× faster at OLTP.
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
        m.column.sel_point_ms = 0.01;
        m.row.upd_row_ms = 0.002;
        m.column.upd_row_ms = 0.01;
        m.row.sel_per_row_scan = 1e-4;
        m.column.sel_per_row_scan = 1e-5;
        m
    }

    fn spec() -> TableSpec {
        TableSpec::paper_wide("w", 20_000, 3)
    }

    fn schema_stats() -> (Vec<Arc<TableSchema>>, BTreeMap<String, TableStats>) {
        let s = spec();
        let schema = Arc::new(s.schema().unwrap());
        let mut stats = TableStats::empty(schema.arity());
        stats.row_count = s.rows;
        stats.columns = (0..schema.arity())
            .map(|c| ColumnStats {
                distinct: if c == 0 { s.rows } else { 100 },
                min: Some(Value::BigInt(0)),
                max: Some(Value::BigInt(s.rows as i64 - 1)),
                compression_rate: 0.5,
            })
            .collect();
        let mut map = BTreeMap::new();
        map.insert("w".to_string(), stats);
        (vec![schema], map)
    }

    fn workload(olap_fraction: f64) -> Workload {
        WorkloadGenerator::single_table(
            &spec(),
            &MixedWorkloadConfig {
                queries: 200,
                olap_fraction,
                hot_fraction: Some(0.1),
                ..Default::default()
            },
        )
    }

    #[test]
    fn pure_oltp_prefers_row_store() {
        let advisor = StorageAdvisor::new(model());
        let (schemas, stats) = schema_stats();
        let rec = advisor
            .recommend_offline(&schemas, &stats, &workload(0.0), false)
            .unwrap();
        assert_eq!(
            rec.layout.placement("w"),
            TablePlacement::Single(StoreKind::Row)
        );
        assert!(rec.rs_only_ms <= rec.cs_only_ms);
        assert!(rec.estimated_ms <= rec.rs_only_ms + 1e-9);
    }

    #[test]
    fn olap_heavy_prefers_column_store() {
        let advisor = StorageAdvisor::new(model());
        let (schemas, stats) = schema_stats();
        let rec = advisor
            .recommend_offline(&schemas, &stats, &workload(0.3), false)
            .unwrap();
        assert_eq!(
            rec.layout.placement("w"),
            TablePlacement::Single(StoreKind::Column)
        );
        assert!(rec.cs_only_ms < rec.rs_only_ms);
    }

    #[test]
    fn advisor_picks_argmin_of_its_own_estimates() {
        let advisor = StorageAdvisor::new(model());
        let (schemas, stats) = schema_stats();
        for frac in [0.0, 0.01, 0.05, 0.2] {
            let rec = advisor
                .recommend_offline(&schemas, &stats, &workload(frac), false)
                .unwrap();
            let best = rec.rs_only_ms.min(rec.cs_only_ms);
            assert!(
                rec.estimated_ms <= best + 1e-9,
                "frac {frac}: estimated {} > best single {}",
                rec.estimated_ms,
                best
            );
        }
    }

    /// Insert-heavy mixed workload: the heuristic proposes an empty hot
    /// insert partition above the current max id, and the candidate prices
    /// *below* the single-store choice (the hot row-store partition absorbs
    /// the inserts at row cost and pays no modeled delta upkeep, while the
    /// cold column fragment keeps serving the scans) — so the advisor both
    /// proposes and *adopts* the partitioned placement.
    #[test]
    fn partitioning_recommended_for_mixed_workload() {
        let advisor = StorageAdvisor::new(model());
        let (schemas, stats) = schema_stats();
        let w = insert_scan_workload(&schemas[0], stats["w"].row_count, 160, 10);
        let rec = advisor
            .recommend_offline(&schemas, &stats, &w, true)
            .unwrap();
        match rec.layout.placement("w") {
            TablePlacement::Partitioned(spec) => {
                assert!(spec.horizontal.is_some() || spec.vertical.is_some());
            }
            other => panic!("expected partitioned placement, got {other:?}"),
        }
        assert!(!rec.statements.is_empty());
    }

    /// Fresh-id single-row inserts against a thin stream of full-table
    /// aggregations — the hot/cold shape partitioning exists for.
    fn insert_scan_workload(
        schema: &TableSchema,
        base_rows: usize,
        inserts: usize,
        scans: usize,
    ) -> Workload {
        let mut queries: Vec<Query> = (0..inserts)
            .map(|i| {
                let row: Vec<Value> = schema
                    .columns
                    .iter()
                    .enumerate()
                    .map(|(c, col)| match col.ty {
                        ColumnType::BigInt => Value::BigInt((base_rows + i) as i64),
                        ColumnType::Double => Value::Double(5e8 + (i * schema.arity() + c) as f64),
                        _ => Value::Int((i % 5) as i32),
                    })
                    .collect();
                Query::Insert(InsertQuery {
                    table: schema.name.clone(),
                    rows: vec![row],
                })
            })
            .collect();
        for _ in 0..scans {
            queries.push(Query::Aggregate(AggregateQuery::simple(
                &schema.name,
                AggFunc::Sum,
                1,
            )));
        }
        Workload::from_queries(queries)
    }

    /// The pricing gate is real: a partition spec whose modeled cost
    /// exceeds the single-store choice is proposed by the heuristic but
    /// *rejected* by the advisor. A scan-dominated stream with a thin
    /// trickle of hot-region updates makes the update-envelope split (10 %
    /// of the rows hot) a net loss — every aggregation would pay an extra
    /// row-store scan over the hot partition that dwarfs the update
    /// savings.
    #[test]
    fn unprofitable_partition_candidate_is_rejected() {
        use hsd_query::UpdateQuery;
        use hsd_storage::ColRange;
        let advisor = StorageAdvisor::new(model());
        let (schemas, stats) = schema_stats();
        let rows = stats["w"].row_count as i64;
        let mut queries: Vec<Query> = (0..20)
            .map(|i| {
                Query::Update(UpdateQuery {
                    table: "w".into(),
                    sets: vec![(2, Value::BigInt(8_000_000 + i))],
                    filter: vec![ColRange::eq(0, Value::BigInt(rows - 1 - (i % (rows / 10))))],
                })
            })
            .collect();
        for _ in 0..60 {
            queries.push(Query::Aggregate(AggregateQuery::simple(
                "w",
                AggFunc::Sum,
                1,
            )));
        }
        let w = Workload::from_queries(queries);
        let rec = advisor
            .recommend_offline(&schemas, &stats, &w, true)
            .unwrap();
        assert_eq!(
            rec.layout.placement("w"),
            TablePlacement::Single(StoreKind::Column),
            "a partition that models slower must not be adopted"
        );
    }

    #[test]
    fn join_coupling_can_move_dimension() {
        // Two tables; the workload only joins them. With a punitive
        // cross-store join factor the advisor must co-locate.
        let mut m = model();
        m.join_factor = [[1.0, 10.0], [10.0, 1.0]];
        let advisor = StorageAdvisor::new(m);
        let fact = Arc::new(
            TableSchema::new(
                "fact",
                vec![
                    ColumnDef::new("id", ColumnType::BigInt),
                    ColumnDef::new("fk", ColumnType::BigInt),
                    ColumnDef::new("kf", ColumnType::Double),
                ],
                vec![0],
            )
            .unwrap(),
        );
        let dim = Arc::new(
            TableSchema::new(
                "dim",
                vec![
                    ColumnDef::new("dk", ColumnType::BigInt),
                    ColumnDef::new("g", ColumnType::Integer),
                ],
                vec![0],
            )
            .unwrap(),
        );
        let mut stats = BTreeMap::new();
        let mut fs = TableStats::empty(3);
        fs.row_count = 100_000;
        stats.insert("fact".into(), fs);
        let mut ds = TableStats::empty(2);
        ds.row_count = 100;
        stats.insert("dim".into(), ds);
        let mut q = AggregateQuery::simple("fact", AggFunc::Sum, 2);
        q.join = Some(hsd_query::JoinSpec {
            dim_table: "dim".into(),
            fact_fk: 1,
            dim_pk: 0,
            group_by_dim: Some(1),
        });
        let w = Workload::from_queries(vec![Query::Aggregate(q); 10]);
        let rec = advisor
            .recommend_offline(&[fact, dim], &stats, &w, false)
            .unwrap();
        let f = rec.layout.placement("fact");
        let d = rec.layout.placement("dim");
        assert_eq!(
            f, d,
            "punitive cross-store joins must co-locate: {f:?} vs {d:?}"
        );
        assert_eq!(
            f,
            TablePlacement::Single(StoreKind::Column),
            "OLAP-only workload"
        );
    }

    #[test]
    fn statements_cover_all_tables() {
        let advisor = StorageAdvisor::new(model());
        let (schemas, stats) = schema_stats();
        let rec = advisor
            .recommend_offline(&schemas, &stats, &workload(0.02), false)
            .unwrap();
        assert_eq!(rec.statements.len(), 1);
        assert!(rec.statements[0].contains("ALTER TABLE w MOVE TO"));
    }

    #[test]
    fn analyze_workload_counts_statically() {
        let (schemas, _) = schema_stats();
        let w = Workload::from_queries(vec![
            Query::Insert(InsertQuery {
                table: "w".into(),
                rows: vec![],
            }),
            Query::Aggregate(AggregateQuery::simple("w", AggFunc::Sum, 1)),
        ]);
        let stats = analyze_workload(&schemas, &w).unwrap();
        let t = stats.table("w").unwrap();
        assert_eq!(t.inserts, 1);
        assert_eq!(t.aggregations, 1);
    }

    #[test]
    fn maintenance_aware_placement_flips_write_heavy_table_to_row_store() {
        use hsd_query::UpdateQuery;
        use hsd_storage::ColRange;
        // Model where scans strongly favor the column store but the column
        // store pays for its delta upkeep: tails degrade scans steeply and
        // a merge costs a flat 40 ms.
        let mut m = model();
        m.column.f_tail = AdjustmentFn::Linear {
            slope: 50.0,
            intercept: 1.0,
        };
        m.column.merge_ms = AdjustmentFn::Constant(60.0);
        let (schemas, stats) = schema_stats();
        let rows = stats["w"].row_count as i64;
        // Write-heavy stream: 4000 fresh-value point updates against 10
        // full-table aggregations.
        let mut queries: Vec<Query> = (0..4000)
            .map(|i| {
                Query::Update(UpdateQuery {
                    table: "w".into(),
                    sets: vec![(2, Value::BigInt(7_000_000 + i))],
                    filter: vec![ColRange::eq(0, Value::BigInt(i % rows))],
                })
            })
            .collect();
        for _ in 0..10 {
            queries.push(Query::Aggregate(AggregateQuery::simple(
                "w",
                AggFunc::Sum,
                2,
            )));
        }
        let w = Workload::from_queries(queries);
        // Query cost alone favors the column store: the scans save far
        // more than the updates cost extra.
        let ctx = build_ctx(&schemas, &stats);
        let query_ms = |store| {
            crate::estimator::estimate_workload_layout(
                &m,
                &ctx,
                &StorageLayout::uniform(["w"], store),
                &w,
            )
        };
        let (query_cs, query_rs) = (query_ms(StoreKind::Column), query_ms(StoreKind::Row));
        assert!(
            query_cs < query_rs,
            "query-cost-only pricing keeps the write-heavy table columnar: {query_cs} vs {query_rs}"
        );
        // The advisor also charges delta upkeep: the modeled merge
        // amortization of 4000 tail entries dominates the scan savings and
        // flips the placement.
        let rec = StorageAdvisor::new(m)
            .recommend_offline(&schemas, &stats, &w, false)
            .unwrap();
        assert_eq!(
            rec.layout.placement("w"),
            TablePlacement::Single(StoreKind::Row),
            "delta upkeep must flip the write-heavy table to the row store"
        );
        // The reported per-table column cost carries the upkeep; the row
        // cost is the query cost alone.
        let charged_cs = rec.tables[0].cost_column_ms;
        assert!(
            charged_cs > query_cs,
            "column-side cost must include upkeep: {charged_cs} vs {query_cs}"
        );
        let charged_rs = rec.tables[0].cost_row_ms;
        assert!((charged_rs - query_rs).abs() <= 1e-9 * query_rs.max(1.0));
        // And the argmin invariant still holds under the charged estimates.
        assert!(rec.estimated_ms <= rec.rs_only_ms.min(rec.cs_only_ms) + 1e-9);
    }

    /// A budget the unconstrained layout already satisfies changes
    /// nothing: same layout, same estimate, footprint recorded.
    #[test]
    fn loose_budget_is_the_unconstrained_special_case() {
        let (schemas, stats) = schema_stats();
        let w = workload(0.3);
        let unconstrained = StorageAdvisor::new(model())
            .recommend_offline(&schemas, &stats, &w, false)
            .unwrap();
        assert!(unconstrained.footprint_bytes > 0.0);
        assert_eq!(unconstrained.budget_bytes, None);
        let budgeted = StorageAdvisor::new(model())
            .with_budget(unconstrained.footprint_bytes * 2.0)
            .recommend_offline(&schemas, &stats, &w, false)
            .unwrap();
        assert_eq!(unconstrained.layout, budgeted.layout);
        assert_eq!(unconstrained.estimated_ms, budgeted.estimated_ms);
        assert!(budgeted.budget_feasible);
    }

    /// A binding budget flips the row-store choice (big uncompressed
    /// footprint) to the compressed column store even though it models
    /// slower — and the recommendation reports the degradation honestly.
    #[test]
    fn binding_budget_trades_cost_for_footprint() {
        let (schemas, stats) = schema_stats();
        let w = workload(0.0); // pure OLTP: greedy wants the row store
        let unconstrained = StorageAdvisor::new(model())
            .recommend_offline(&schemas, &stats, &w, false)
            .unwrap();
        assert_eq!(
            unconstrained.layout.placement("w"),
            TablePlacement::Single(StoreKind::Row)
        );
        let budget = unconstrained.footprint_bytes * 0.5;
        let budgeted = StorageAdvisor::new(model())
            .with_budget(budget)
            .recommend_offline(&schemas, &stats, &w, false)
            .unwrap();
        assert_eq!(
            budgeted.layout.placement("w"),
            TablePlacement::Single(StoreKind::Column),
            "the only placement fitting half the row footprint is columnar"
        );
        assert!(budgeted.budget_feasible);
        assert!(
            budgeted.footprint_bytes <= budget,
            "footprint {} exceeds budget {budget}",
            budgeted.footprint_bytes
        );
        assert!(
            budgeted.estimated_ms >= unconstrained.estimated_ms,
            "a constrained optimum cannot beat the unconstrained one"
        );
    }

    /// A memory budget below even the compressed column store forces the
    /// knapsack onto the *disk-demoted* variant of the adopted split: the
    /// cold fragment's bytes leave the memory account for the disk one,
    /// the selection becomes feasible, and the recommendation reports the
    /// disk residency and emits the demotion statement.
    #[test]
    fn binding_budget_demotes_cold_fragment_to_disk() {
        let mut m = model();
        m.tier = crate::cost::TierModel::default_disk();
        let (schemas, stats) = schema_stats();
        let w = insert_scan_workload(&schemas[0], stats["w"].row_count, 160, 10);
        let unconstrained = StorageAdvisor::new(m.clone())
            .recommend_offline(&schemas, &stats, &w, true)
            .unwrap();
        let spec = match unconstrained.layout.placement("w") {
            TablePlacement::Partitioned(spec) => spec,
            other => panic!("expected partitioned placement, got {other:?}"),
        };
        assert_eq!(spec.cold_tier, hsd_catalog::Tier::Memory);
        assert_eq!(unconstrained.disk_bytes, 0.0);
        // Budget far below every memory-resident placement of "w".
        let ctx = build_ctx(&schemas, &stats);
        let col_fp = crate::budget::placement_footprint_bytes(
            &ctx.tables["w"],
            &TablePlacement::Single(StoreKind::Column),
        );
        let budgeted = StorageAdvisor::new(m)
            .with_budget(col_fp * 0.01)
            .recommend_offline(&schemas, &stats, &w, true)
            .unwrap();
        match budgeted.layout.placement("w") {
            TablePlacement::Partitioned(spec) => {
                assert_eq!(spec.cold_tier, hsd_catalog::Tier::Disk);
            }
            other => panic!("expected disk-demoted split, got {other:?}"),
        }
        assert!(budgeted.budget_feasible);
        assert!(budgeted.footprint_bytes <= col_fp * 0.01);
        assert!(budgeted.disk_bytes > 0.0, "disk residency reported");
        assert!(
            budgeted
                .statements
                .iter()
                .any(|s| s.contains("DEMOTE COLD PARTITION TO DISK")),
            "statements: {:?}",
            budgeted.statements
        );
    }

    /// An unsatisfiable budget still returns the smallest-footprint
    /// layout, flagged infeasible rather than panicking or lying.
    #[test]
    fn infeasible_budget_reports_itself() {
        let (schemas, stats) = schema_stats();
        let rec = StorageAdvisor::new(model())
            .with_budget(1.0)
            .recommend_offline(&schemas, &stats, &workload(0.0), false)
            .unwrap();
        assert!(!rec.budget_feasible);
        assert_eq!(
            rec.layout.placement("w"),
            TablePlacement::Single(StoreKind::Column),
            "least-infeasible answer is the smallest-footprint placement"
        );
    }

    #[test]
    fn greedy_matches_exact_on_small_instance() {
        let advisor = StorageAdvisor::new(model());
        let (schemas, stats) = schema_stats();
        let w = workload(0.05);
        let exact = advisor
            .recommend_offline(&schemas, &stats, &w, false)
            .unwrap();
        let mut greedy_advisor = StorageAdvisor::new(model());
        greedy_advisor.exact_search_limit = 0; // force greedy
        let greedy = greedy_advisor
            .recommend_offline(&schemas, &stats, &w, false)
            .unwrap();
        assert_eq!(exact.layout, greedy.layout);
    }
}
