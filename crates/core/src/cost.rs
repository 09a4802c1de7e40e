//! The cost model: store-specific base costs and adjustment functions.
//!
//! All costs are in **milliseconds** of estimated runtime. Multiplicative
//! adjustments are unitless factors normalized to `1.0` at the calibration
//! reference setting, exactly as in the paper's examples
//! (`Costs = BaseSUMCosts^RS · c^RS_NoGroupBy · c^RS_Double ·
//! f^RS_#rows(1000) · f^RS_compression(0.7)`).

use std::collections::BTreeSet;
use std::sync::{Arc, RwLock};

use hsd_query::AggFunc;
use hsd_storage::StoreKind;
use hsd_types::{ColumnType, Json, JsonError, JsonResult};

/// An adjustment function `f` of the cost model. The paper observes that
/// "most of these functions are simple linear functions (e.g., `f_#rows`),
/// piecewise linear functions (e.g., `f_compression`) or even constants
/// (e.g., `c_dataType`)" — these are exactly the three variants.
#[derive(Debug, Clone, PartialEq)]
pub enum AdjustmentFn {
    /// Constant factor, independent of the characteristic.
    Constant(f64),
    /// `slope * x + intercept`.
    Linear {
        /// Per-unit coefficient.
        slope: f64,
        /// Offset at `x = 0`.
        intercept: f64,
    },
    /// Piecewise-linear interpolation through `(x, y)` control points
    /// (sorted by `x`; clamped outside the covered range).
    Piecewise {
        /// Control points.
        points: Vec<(f64, f64)>,
    },
}

impl AdjustmentFn {
    /// Evaluate the function at `x`.
    pub fn eval(&self, x: f64) -> f64 {
        match self {
            AdjustmentFn::Constant(c) => *c,
            AdjustmentFn::Linear { slope, intercept } => slope * x + intercept,
            AdjustmentFn::Piecewise { points } => {
                if points.is_empty() {
                    return 1.0;
                }
                if x <= points[0].0 {
                    return points[0].1;
                }
                if x >= points[points.len() - 1].0 {
                    return points[points.len() - 1].1;
                }
                for w in points.windows(2) {
                    let (x0, y0) = w[0];
                    let (x1, y1) = w[1];
                    if x <= x1 {
                        if (x1 - x0).abs() < f64::EPSILON {
                            return y1;
                        }
                        let t = (x - x0) / (x1 - x0);
                        return y0 + t * (y1 - y0);
                    }
                }
                points[points.len() - 1].1
            }
        }
    }

    /// The same function with every output multiplied by `factor` — the
    /// shape-preserving step the online calibrator applies when a
    /// coefficient family's measured/modeled ratio drifts: the fitted
    /// curve keeps its form (constant stays constant, a piecewise profile
    /// keeps its knees), only its scale moves.
    pub fn scaled(&self, factor: f64) -> Self {
        match self {
            AdjustmentFn::Constant(c) => AdjustmentFn::Constant(c * factor),
            AdjustmentFn::Linear { slope, intercept } => AdjustmentFn::Linear {
                slope: slope * factor,
                intercept: intercept * factor,
            },
            AdjustmentFn::Piecewise { points } => AdjustmentFn::Piecewise {
                points: points.iter().map(|&(x, y)| (x, y * factor)).collect(),
            },
        }
    }

    /// Least-squares linear fit through `(x, y)` samples. Falls back to a
    /// constant when fewer than two distinct x-values are given.
    pub fn fit_linear(samples: &[(f64, f64)]) -> Self {
        if samples.is_empty() {
            return AdjustmentFn::Constant(0.0);
        }
        let n = samples.len() as f64;
        let sx: f64 = samples.iter().map(|(x, _)| x).sum();
        let sy: f64 = samples.iter().map(|(_, y)| y).sum();
        let sxx: f64 = samples.iter().map(|(x, _)| x * x).sum();
        let sxy: f64 = samples.iter().map(|(x, y)| x * y).sum();
        let denom = n * sxx - sx * sx;
        if denom.abs() < 1e-12 {
            return AdjustmentFn::Constant(sy / n);
        }
        let slope = (n * sxy - sx * sy) / denom;
        let intercept = (sy - slope * sx) / n;
        AdjustmentFn::Linear { slope, intercept }
    }

    /// Piecewise-linear function through the given samples (sorted, deduped
    /// by x; averaged on duplicate x).
    pub fn fit_piecewise(mut samples: Vec<(f64, f64)>) -> Self {
        samples.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut points: Vec<(f64, f64)> = Vec::with_capacity(samples.len());
        for (x, y) in samples {
            match points.last_mut() {
                Some((px, py)) if (*px - x).abs() < 1e-12 => *py = (*py + y) / 2.0,
                _ => points.push((x, y)),
            }
        }
        AdjustmentFn::Piecewise { points }
    }
}

fn agg_index(f: AggFunc) -> usize {
    match f {
        AggFunc::Sum => 0,
        AggFunc::Avg => 1,
        AggFunc::Min => 2,
        AggFunc::Max => 3,
        AggFunc::Count => 4,
    }
}

fn type_index(t: ColumnType) -> usize {
    ColumnType::ALL
        .iter()
        .position(|x| *x == t)
        .expect("type in ALL")
}

/// Calibrated cost parameters for one store.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreModel {
    // --- aggregation -----------------------------------------------------
    /// Unitless multiplier per aggregation function (SUM = 1 reference).
    pub base_agg: [f64; 5],
    /// Multiplier applied when the query has a GROUP BY (`c_groupBy`).
    pub c_group_by: f64,
    /// Multiplier per aggregated data type (`c_dataType`, Double = 1).
    pub c_data_type: [f64; 7],
    /// Milliseconds for the reference aggregation as a function of the row
    /// count (`f_#rows`).
    pub f_rows: AdjustmentFn,
    /// Multiplier as a function of the aggregated attribute's compression
    /// rate (`f_compression`), normalized to 1 at the reference rate.
    pub f_compression: AdjustmentFn,
    // --- point/range selection -------------------------------------------
    /// Milliseconds for a primary-key point lookup (including one-tuple
    /// reconstruction).
    pub sel_point_ms: f64,
    /// Per-table-row milliseconds when the predicate is evaluated without a
    /// (secondary) index — the paper's "a table scan is executed". For the
    /// column store this is the cheap packed-code scan of the implicit
    /// dictionary index.
    pub sel_per_row_scan: f64,
    /// Per-table-row milliseconds when a secondary index serves the
    /// predicate (≈ 0 for the row store's B-tree range probe).
    pub sel_per_row_indexed: f64,
    /// Milliseconds per matched (emitted) row.
    pub sel_per_match: f64,
    /// Multiplier by the number of selected columns
    /// (`f_#selectedColumns`): tuple-reconstruction cost, constant for the
    /// row store, increasing for the column store.
    pub f_selected_columns: AdjustmentFn,
    // --- insert ------------------------------------------------------------
    /// Milliseconds per inserted row as a function of the table's current
    /// row count (uniqueness verification grows with the table).
    pub ins_row: AdjustmentFn,
    // --- update ------------------------------------------------------------
    /// Milliseconds per updated row (single attribute).
    pub upd_row_ms: f64,
    /// Multiplier by the number of assigned columns (`f_#affectedColumns`).
    pub f_affected_columns: AdjustmentFn,
    // --- delta maintenance --------------------------------------------------
    /// Multiplier on scan-type costs as a function of the accumulated
    /// dictionary-tail *fraction* (tail entries / rows), normalized to 1 at
    /// an empty tail. The column store's delta region disables the fused
    /// scan kernels and adds per-code tail membership tests, so scans
    /// degrade as the tail grows; the row store has no delta region and
    /// keeps the neutral constant 1.
    pub f_tail: AdjustmentFn,
    /// Milliseconds for a full delta merge as a function of the row count
    /// (dictionary rebuild + code-vector remap). Constant 0 for the row
    /// store. This is the cost side of the advisor's merge-scheduling
    /// decision ([`crate::maintenance::evaluate_merge`]).
    pub merge_ms: AdjustmentFn,
}

impl StoreModel {
    /// The calibrated cost of one reference scan-type statement over `rows`
    /// rows: the reference aggregation (`f_rows`) plus full-table predicate
    /// evaluation (`sel_per_row_scan`) — exactly the two terms the `f_tail`
    /// degradation multiplies in the estimator. This is the base quantity
    /// both merge scheduling ([`crate::maintenance::evaluate_merge`]) and
    /// maintenance-aware placement
    /// ([`crate::maintenance::estimate_maintenance`]) price the
    /// dictionary-tail penalty against.
    pub fn scan_base_ms(&self, rows: f64) -> f64 {
        self.f_rows.eval(rows).max(0.0) + self.sel_per_row_scan.max(0.0) * rows
    }

    /// A neutral model (all factors 1, all costs 0) — useful as a building
    /// block in tests.
    pub fn neutral() -> Self {
        StoreModel {
            base_agg: [1.0; 5],
            c_group_by: 1.0,
            c_data_type: [1.0; 7],
            f_rows: AdjustmentFn::Constant(0.0),
            f_compression: AdjustmentFn::Constant(1.0),
            sel_point_ms: 0.0,
            sel_per_row_scan: 0.0,
            sel_per_row_indexed: 0.0,
            sel_per_match: 0.0,
            f_selected_columns: AdjustmentFn::Constant(1.0),
            ins_row: AdjustmentFn::Constant(0.0),
            upd_row_ms: 0.0,
            f_affected_columns: AdjustmentFn::Constant(1.0),
            f_tail: AdjustmentFn::Constant(1.0),
            merge_ms: AdjustmentFn::Constant(0.0),
        }
    }

    /// Base-cost multiplier for an aggregation function.
    pub fn base_agg_of(&self, f: AggFunc) -> f64 {
        self.base_agg[agg_index(f)]
    }

    /// Set the base-cost multiplier for an aggregation function.
    pub fn set_base_agg(&mut self, f: AggFunc, v: f64) {
        self.base_agg[agg_index(f)] = v;
    }

    /// `c_dataType` for a column type.
    pub fn c_type_of(&self, t: ColumnType) -> f64 {
        self.c_data_type[type_index(t)]
    }

    /// Set `c_dataType` for a column type.
    pub fn set_c_type(&mut self, t: ColumnType, v: f64) {
        self.c_data_type[type_index(t)] = v;
    }
}

/// Disk-tier pricing: what persistent-tier residency of a cold partition
/// adds to each access class, on top of the store-specific costs above.
///
/// The engine keeps a demoted cold partition as an on-disk segment. The
/// terms below were shaped when every access decoded the whole segment;
/// the engine now reads segments in place (only the columns or blocks a
/// statement needs), so until they are re-fitted they over-price scans of
/// few columns. The tier dimension prices three things:
///
/// * **scans** pay a decode cost proportional to the segment size
///   ([`TierModel::scan_mib_ms`]);
/// * **point reads** that miss the hot partition pay a segment fetch
///   ([`TierModel::point_ms`]);
/// * **writes** routed to the cold partition pay the write-through cycle —
///   load, apply, re-encode, republish — proportional to the segment size
///   ([`TierModel::rewrite_mib_ms`]).
///
/// All three are zero in [`TierModel::neutral`] (disk is free — placement
/// collapses to the memory-only model) and strictly positive in
/// [`TierModel::default_disk`], so demotion is only chosen when the
/// workload's cold-access share is low enough that the saved memory is
/// worth the slower accesses — the budget trade
/// [`crate::budget::select_under_budget`] arbitrates.
#[derive(Debug, Clone, PartialEq)]
pub struct TierModel {
    /// Milliseconds per MiB of cold segment decoded by a scan-type access.
    pub scan_mib_ms: f64,
    /// Milliseconds added to a point read that must hit the segment.
    pub point_ms: f64,
    /// Milliseconds per MiB for one write-through rewrite of the segment.
    pub rewrite_mib_ms: f64,
}

impl TierModel {
    /// Free disk: tier residency adds nothing (tests; memory-only
    /// deployments).
    pub fn neutral() -> Self {
        TierModel {
            scan_mib_ms: 0.0,
            point_ms: 0.0,
            rewrite_mib_ms: 0.0,
        }
    }

    /// Conservative local-flash profile used when no measured tier
    /// calibration exists: ~170 MiB/s effective segment decode for scans,
    /// tens of microseconds per point fetch, and a rewrite roughly 3x the
    /// decode (encode + fsync + rename dominate).
    pub fn default_disk() -> Self {
        TierModel {
            scan_mib_ms: 6.0,
            point_ms: 0.05,
            rewrite_mib_ms: 20.0,
        }
    }
}

/// Metadata recorded at calibration time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CalibrationMeta {
    /// Base row count of the calibration tables.
    pub base_rows: usize,
    /// Compression rate of the reference aggregation attribute.
    pub reference_compression: f64,
    /// Arity of the calibration table (the reference for
    /// `f_selected_columns`).
    pub table_arity: usize,
    /// Timing repeats per micro-benchmark.
    pub repeats: usize,
    /// How many online re-fits ([`ModelHandle::refit`]) have amended this
    /// model since its one-shot calibration. `0` for a freshly calibrated
    /// (or pre-self-calibration) artifact.
    pub refits: u64,
    /// Overall modeled-vs-measured drift gauge at the last re-fit (mean
    /// absolute log error; `0.0` when never refit). Provenance only — the
    /// live gauge belongs to the calibrator, not the artifact.
    pub drift: f64,
}

/// The complete calibrated cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Row-store parameters.
    pub row: StoreModel,
    /// Column-store parameters.
    pub column: StoreModel,
    /// Join overhead multiplier indexed by `[fact_store][dim_store]`
    /// (0 = row, 1 = column): the paper's store-combination base costs
    /// (`BaseSUMCosts^{RS,CS}`), normalized against the fact-side
    /// aggregation.
    pub join_factor: [[f64; 2]; 2],
    /// Dimension-side hash-build milliseconds vs. dimension rows, per dim
    /// store.
    pub dim_build: [AdjustmentFn; 2],
    /// Fixed overhead per additional partition in a horizontal union
    /// (partial-aggregate merging).
    pub union_overhead_ms: f64,
    /// Disk-tier pricing for demoted cold partitions.
    pub tier: TierModel,
    /// Calibration provenance.
    pub meta: CalibrationMeta,
}

/// Index into the per-store arrays of [`CostModel`].
pub fn store_index(s: StoreKind) -> usize {
    match s {
        StoreKind::Row => 0,
        StoreKind::Column => 1,
    }
}

impl CostModel {
    /// Neutral model for tests.
    pub fn neutral() -> Self {
        CostModel {
            row: StoreModel::neutral(),
            column: StoreModel::neutral(),
            join_factor: [[1.0; 2]; 2],
            dim_build: [AdjustmentFn::Constant(0.0), AdjustmentFn::Constant(0.0)],
            union_overhead_ms: 0.0,
            tier: TierModel::neutral(),
            meta: CalibrationMeta::default(),
        }
    }

    /// Parameters of one store.
    pub fn store(&self, s: StoreKind) -> &StoreModel {
        match s {
            StoreKind::Row => &self.row,
            StoreKind::Column => &self.column,
        }
    }

    /// Mutable parameters of one store.
    pub fn store_mut(&mut self, s: StoreKind) -> &mut StoreModel {
        match s {
            StoreKind::Row => &mut self.row,
            StoreKind::Column => &mut self.column,
        }
    }

    /// Join factor for a store combination.
    pub fn join_factor_of(&self, fact: StoreKind, dim: StoreKind) -> f64 {
        self.join_factor[store_index(fact)][store_index(dim)]
    }

    /// Serialize to JSON (the "system-specific cost model" artifact the
    /// offline mode produces).
    pub fn to_json(&self) -> String {
        let join_factor = Json::Arr(
            self.join_factor
                .iter()
                .map(|row| Json::Arr(row.iter().map(|&v| Json::Num(v)).collect()))
                .collect(),
        );
        Json::obj([
            ("row", store_model_to_json(&self.row)),
            ("column", store_model_to_json(&self.column)),
            ("join_factor", join_factor),
            (
                "dim_build",
                Json::Arr(self.dim_build.iter().map(adjustment_to_json).collect()),
            ),
            ("union_overhead_ms", Json::Num(self.union_overhead_ms)),
            (
                "tier",
                Json::obj([
                    ("scan_mib_ms", Json::Num(self.tier.scan_mib_ms)),
                    ("point_ms", Json::Num(self.tier.point_ms)),
                    ("rewrite_mib_ms", Json::Num(self.tier.rewrite_mib_ms)),
                ]),
            ),
            (
                "meta",
                Json::obj([
                    ("base_rows", Json::Int(self.meta.base_rows as i64)),
                    (
                        "reference_compression",
                        Json::Num(self.meta.reference_compression),
                    ),
                    ("table_arity", Json::Int(self.meta.table_arity as i64)),
                    ("repeats", Json::Int(self.meta.repeats as i64)),
                    ("refits", Json::Int(self.meta.refits as i64)),
                    ("drift", Json::Num(self.meta.drift)),
                ]),
            ),
        ])
        .to_string_pretty()
    }

    /// Deserialize a model written by [`CostModel::to_json`].
    pub fn from_json(s: &str) -> JsonResult<Self> {
        let root = Json::parse(s)?;
        let jf = root.get("join_factor")?.as_arr()?;
        if jf.len() != 2 {
            return Err(JsonError("join_factor must be 2x2".to_string()));
        }
        let mut join_factor = [[0.0; 2]; 2];
        for (i, row) in jf.iter().enumerate() {
            let row = row.as_arr()?;
            if row.len() != 2 {
                return Err(JsonError("join_factor must be 2x2".to_string()));
            }
            for (j, v) in row.iter().enumerate() {
                join_factor[i][j] = v.as_f64()?;
            }
        }
        let db = root.get("dim_build")?.as_arr()?;
        if db.len() != 2 {
            return Err(JsonError("dim_build must have 2 entries".to_string()));
        }
        let meta = root.get("meta")?;
        // Models written before the tier dimension existed have no "tier"
        // key; they load with free-disk pricing (the behavior they encoded).
        let tier = match root.get_opt("tier") {
            Some(t) => TierModel {
                scan_mib_ms: t.get("scan_mib_ms")?.as_f64()?,
                point_ms: t.get("point_ms")?.as_f64()?,
                rewrite_mib_ms: t.get("rewrite_mib_ms")?.as_f64()?,
            },
            None => TierModel::neutral(),
        };
        Ok(CostModel {
            row: store_model_from_json(root.get("row")?)?,
            column: store_model_from_json(root.get("column")?)?,
            join_factor,
            dim_build: [adjustment_from_json(&db[0])?, adjustment_from_json(&db[1])?],
            union_overhead_ms: root.get("union_overhead_ms")?.as_f64()?,
            tier,
            meta: CalibrationMeta {
                base_rows: meta.get("base_rows")?.as_usize()?,
                reference_compression: meta.get("reference_compression")?.as_f64()?,
                table_arity: meta.get("table_arity")?.as_usize()?,
                repeats: meta.get("repeats")?.as_usize()?,
                // Pre-self-calibration artifacts carry no refit provenance;
                // they load as never-refit models (the behavior they encoded).
                refits: match meta.get_opt("refits") {
                    Some(v) => v.as_usize()? as u64,
                    None => 0,
                },
                drift: match meta.get_opt("drift") {
                    Some(v) => v.as_f64()?,
                    None => 0.0,
                },
            },
        })
    }
}

// ---------------------------------------------------------------------------
// Versioned model handle (the self-calibrating pipeline's shared artifact)

/// Versioned, shared, refittable handle to a [`CostModel`].
///
/// Before the self-calibrating pipeline, every advisor path owned its own
/// `CostModel` snapshot, so a re-fit would have had to rebuild the advisor.
/// The handle replaces the owned snapshot: cloning it shares the same
/// underlying model, [`ModelHandle::snapshot`] yields a cheap immutable
/// `Arc` view for one pricing pass, and [`ModelHandle::refit`] publishes an
/// amended model atomically while bumping the version counter — readers
/// mid-estimate keep pricing against the snapshot they took, and the next
/// pass picks up the re-fitted coefficients.
#[derive(Debug, Clone)]
pub struct ModelHandle {
    inner: Arc<RwLock<VersionedModel>>,
}

#[derive(Debug)]
struct VersionedModel {
    model: Arc<CostModel>,
    version: u64,
}

impl ModelHandle {
    /// Wrap a model at version 0.
    pub fn new(model: CostModel) -> Self {
        ModelHandle {
            inner: Arc::new(RwLock::new(VersionedModel {
                model: Arc::new(model),
                version: 0,
            })),
        }
    }

    /// An immutable snapshot of the current model. Pricing passes take one
    /// snapshot at entry so a concurrent re-fit can never mix coefficient
    /// versions within a single estimate.
    pub fn snapshot(&self) -> Arc<CostModel> {
        self.read().model.clone()
    }

    /// Version counter: 0 at construction, bumped by every
    /// [`ModelHandle::refit`] / [`ModelHandle::replace`].
    pub fn version(&self) -> u64 {
        self.read().version
    }

    /// Re-fit the model in place: `adjust` mutates a private copy, which is
    /// then published atomically with a bumped version (and a bumped
    /// [`CalibrationMeta::refits`] provenance counter). Returns the new
    /// version.
    pub fn refit(&self, adjust: impl FnOnce(&mut CostModel)) -> u64 {
        let mut guard = self.write();
        let mut model = (*guard.model).clone();
        adjust(&mut model);
        model.meta.refits += 1;
        guard.model = Arc::new(model);
        guard.version += 1;
        guard.version
    }

    /// Replace the model wholesale (e.g. a fresh offline calibration).
    /// Returns the new version.
    pub fn replace(&self, model: CostModel) -> u64 {
        let mut guard = self.write();
        guard.model = Arc::new(model);
        guard.version += 1;
        guard.version
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, VersionedModel> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, VersionedModel> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }
}

// ---------------------------------------------------------------------------
// Schema self-check (committed cost_model.json vs the current CostModel)

/// Result of [`CostModel::schema_diff`]: how a serialized artifact's key
/// paths differ from the current [`CostModel`] schema.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SchemaDiff {
    /// Key paths the current schema has but the artifact lacks. These are
    /// exactly the fields that would load as silent defaults — the drift
    /// the check exists to fail loudly on.
    pub missing: Vec<String>,
    /// Key paths the artifact has but the current schema does not (a field
    /// was removed or renamed; the artifact is stale).
    pub unknown: Vec<String>,
}

impl SchemaDiff {
    /// No differences: the artifact matches the current schema exactly.
    pub fn is_clean(&self) -> bool {
        self.missing.is_empty() && self.unknown.is_empty()
    }
}

/// Collect the dotted key paths of a serialized model. An adjustment
/// function serializes as a single-variant object (`{"Constant": ...}` /
/// `{"Linear": ...}` / `{"Piecewise": ...}`); the variant is a fitted
/// *value*, not schema, so the path stops at the field holding it.
fn collect_key_paths(prefix: &str, j: &Json, out: &mut BTreeSet<String>) {
    let Json::Obj(map) = j else {
        if !prefix.is_empty() {
            out.insert(prefix.to_string());
        }
        return;
    };
    let is_adjustment = map.len() == 1
        && map
            .keys()
            .all(|k| matches!(k.as_str(), "Constant" | "Linear" | "Piecewise"));
    if is_adjustment && !prefix.is_empty() {
        out.insert(prefix.to_string());
        return;
    }
    for (k, v) in map {
        let path = if prefix.is_empty() {
            k.clone()
        } else {
            format!("{prefix}.{k}")
        };
        collect_key_paths(&path, v, out);
    }
}

impl CostModel {
    /// The canonical key paths of the current `CostModel` JSON schema,
    /// derived from a neutral model's own serialization — so the check can
    /// never drift from the struct the way a hand-maintained key list
    /// would.
    pub fn schema_key_paths() -> BTreeSet<String> {
        let json = Json::parse(&CostModel::neutral().to_json()).expect("own serialization parses");
        let mut out = BTreeSet::new();
        collect_key_paths("", &json, &mut out);
        out
    }

    /// Compare a serialized artifact (e.g. the committed `cost_model.json`)
    /// against the current schema. Back-compat defaults make *loading* an
    /// old artifact legal; this check is deliberately strict so the
    /// **committed** reference artifact cannot silently rely on them —
    /// `calibrate_model --check` fails CI on any difference.
    pub fn schema_diff(artifact: &str) -> JsonResult<SchemaDiff> {
        let json = Json::parse(artifact)?;
        let mut have = BTreeSet::new();
        collect_key_paths("", &json, &mut have);
        let want = CostModel::schema_key_paths();
        Ok(SchemaDiff {
            missing: want.difference(&have).cloned().collect(),
            unknown: have.difference(&want).cloned().collect(),
        })
    }
}

fn adjustment_to_json(f: &AdjustmentFn) -> Json {
    match f {
        AdjustmentFn::Constant(c) => Json::obj([("Constant", Json::Num(*c))]),
        AdjustmentFn::Linear { slope, intercept } => Json::obj([(
            "Linear",
            Json::obj([
                ("slope", Json::Num(*slope)),
                ("intercept", Json::Num(*intercept)),
            ]),
        )]),
        AdjustmentFn::Piecewise { points } => Json::obj([(
            "Piecewise",
            Json::obj([(
                "points",
                Json::Arr(
                    points
                        .iter()
                        .map(|&(x, y)| Json::Arr(vec![Json::Num(x), Json::Num(y)]))
                        .collect(),
                ),
            )]),
        )]),
    }
}

fn adjustment_from_json(j: &Json) -> JsonResult<AdjustmentFn> {
    if let Some(c) = j.get_opt("Constant") {
        return Ok(AdjustmentFn::Constant(c.as_f64()?));
    }
    if let Some(l) = j.get_opt("Linear") {
        return Ok(AdjustmentFn::Linear {
            slope: l.get("slope")?.as_f64()?,
            intercept: l.get("intercept")?.as_f64()?,
        });
    }
    let p = j.get("Piecewise")?;
    let points = p
        .get("points")?
        .as_arr()?
        .iter()
        .map(|pt| {
            let pt = pt.as_arr()?;
            if pt.len() != 2 {
                return Err(JsonError("piecewise point must be [x, y]".to_string()));
            }
            Ok((pt[0].as_f64()?, pt[1].as_f64()?))
        })
        .collect::<JsonResult<Vec<_>>>()?;
    Ok(AdjustmentFn::Piecewise { points })
}

fn f64_array_to_json(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

fn f64_array_from_json<const N: usize>(j: &Json) -> JsonResult<[f64; N]> {
    let arr = j.as_arr()?;
    if arr.len() != N {
        return Err(JsonError(format!(
            "expected array of {N} numbers, got {}",
            arr.len()
        )));
    }
    let mut out = [0.0; N];
    for (slot, v) in out.iter_mut().zip(arr) {
        *slot = v.as_f64()?;
    }
    Ok(out)
}

fn store_model_to_json(m: &StoreModel) -> Json {
    Json::obj([
        ("base_agg", f64_array_to_json(&m.base_agg)),
        ("c_group_by", Json::Num(m.c_group_by)),
        ("c_data_type", f64_array_to_json(&m.c_data_type)),
        ("f_rows", adjustment_to_json(&m.f_rows)),
        ("f_compression", adjustment_to_json(&m.f_compression)),
        ("sel_point_ms", Json::Num(m.sel_point_ms)),
        ("sel_per_row_scan", Json::Num(m.sel_per_row_scan)),
        ("sel_per_row_indexed", Json::Num(m.sel_per_row_indexed)),
        ("sel_per_match", Json::Num(m.sel_per_match)),
        (
            "f_selected_columns",
            adjustment_to_json(&m.f_selected_columns),
        ),
        ("ins_row", adjustment_to_json(&m.ins_row)),
        ("upd_row_ms", Json::Num(m.upd_row_ms)),
        (
            "f_affected_columns",
            adjustment_to_json(&m.f_affected_columns),
        ),
        ("f_tail", adjustment_to_json(&m.f_tail)),
        ("merge_ms", adjustment_to_json(&m.merge_ms)),
    ])
}

fn store_model_from_json(j: &Json) -> JsonResult<StoreModel> {
    Ok(StoreModel {
        base_agg: f64_array_from_json(j.get("base_agg")?)?,
        c_group_by: j.get("c_group_by")?.as_f64()?,
        c_data_type: f64_array_from_json(j.get("c_data_type")?)?,
        f_rows: adjustment_from_json(j.get("f_rows")?)?,
        f_compression: adjustment_from_json(j.get("f_compression")?)?,
        sel_point_ms: j.get("sel_point_ms")?.as_f64()?,
        sel_per_row_scan: j.get("sel_per_row_scan")?.as_f64()?,
        sel_per_row_indexed: j.get("sel_per_row_indexed")?.as_f64()?,
        sel_per_match: j.get("sel_per_match")?.as_f64()?,
        f_selected_columns: adjustment_from_json(j.get("f_selected_columns")?)?,
        ins_row: adjustment_from_json(j.get("ins_row")?)?,
        upd_row_ms: j.get("upd_row_ms")?.as_f64()?,
        f_affected_columns: adjustment_from_json(j.get("f_affected_columns")?)?,
        f_tail: adjustment_from_json(j.get("f_tail")?)?,
        merge_ms: adjustment_from_json(j.get("merge_ms")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_eval() {
        assert_eq!(AdjustmentFn::Constant(2.5).eval(100.0), 2.5);
    }

    #[test]
    fn linear_eval_and_fit() {
        let f = AdjustmentFn::Linear {
            slope: 2.0,
            intercept: 1.0,
        };
        assert_eq!(f.eval(3.0), 7.0);
        // perfect fit recovery
        let samples: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 + 5.0)).collect();
        let fit = AdjustmentFn::fit_linear(&samples);
        match fit {
            AdjustmentFn::Linear { slope, intercept } => {
                assert!((slope - 3.0).abs() < 1e-9);
                assert!((intercept - 5.0).abs() < 1e-9);
            }
            other => panic!("expected linear, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_linear_fit_is_constant() {
        let fit = AdjustmentFn::fit_linear(&[(2.0, 5.0), (2.0, 7.0)]);
        assert_eq!(fit, AdjustmentFn::Constant(6.0));
        assert_eq!(AdjustmentFn::fit_linear(&[]), AdjustmentFn::Constant(0.0));
    }

    #[test]
    fn piecewise_interpolates_and_clamps() {
        let f = AdjustmentFn::fit_piecewise(vec![(1.0, 10.0), (0.0, 0.0), (2.0, 40.0)]);
        assert_eq!(f.eval(0.5), 5.0);
        assert_eq!(f.eval(1.5), 25.0);
        assert_eq!(f.eval(-1.0), 0.0); // clamped left
        assert_eq!(f.eval(9.0), 40.0); // clamped right
        assert_eq!(f.eval(1.0), 10.0); // exact point
    }

    #[test]
    fn piecewise_duplicate_x_averages() {
        let f = AdjustmentFn::fit_piecewise(vec![(1.0, 10.0), (1.0, 20.0)]);
        assert_eq!(f.eval(1.0), 15.0);
    }

    #[test]
    fn empty_piecewise_is_identity_factor() {
        assert_eq!(AdjustmentFn::fit_piecewise(vec![]).eval(3.0), 1.0);
    }

    #[test]
    fn store_model_accessors() {
        let mut m = StoreModel::neutral();
        m.set_base_agg(AggFunc::Avg, 1.4);
        assert_eq!(m.base_agg_of(AggFunc::Avg), 1.4);
        assert_eq!(m.base_agg_of(AggFunc::Sum), 1.0);
        m.set_c_type(ColumnType::Integer, 0.8);
        assert_eq!(m.c_type_of(ColumnType::Integer), 0.8);
        assert_eq!(m.c_type_of(ColumnType::Double), 1.0);
    }

    #[test]
    fn cost_model_json_round_trip() {
        let mut m = CostModel::neutral();
        m.row.f_rows = AdjustmentFn::Linear {
            slope: 0.001,
            intercept: 0.2,
        };
        m.join_factor[0][1] = 1.7;
        m.column.f_tail = AdjustmentFn::Piecewise {
            points: vec![(0.0, 1.0), (0.1, 1.8)],
        };
        m.column.merge_ms = AdjustmentFn::Linear {
            slope: 2e-4,
            intercept: 0.5,
        };
        let json = m.to_json();
        let back = CostModel::from_json(&json).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn tier_model_json_round_trip_and_back_compat() {
        let mut m = CostModel::neutral();
        m.tier = TierModel::default_disk();
        let json = m.to_json();
        let back = CostModel::from_json(&json).unwrap();
        assert_eq!(back.tier, TierModel::default_disk());
        // A model serialized before tier pricing existed (no "tier" key)
        // must parse with the neutral tier — disk residency priced free,
        // exactly the pre-tier behaviour.
        let Json::Obj(mut fields) = Json::parse(&json).unwrap() else {
            panic!("cost model serializes as an object");
        };
        assert!(fields.remove("tier").is_some(), "tier object serialized");
        let old = CostModel::from_json(&Json::Obj(fields).to_string()).unwrap();
        assert_eq!(old.tier, TierModel::neutral());
    }

    #[test]
    fn store_lookup() {
        let m = CostModel::neutral();
        assert_eq!(m.store(StoreKind::Row), &m.row);
        assert_eq!(m.store(StoreKind::Column), &m.column);
        assert_eq!(m.join_factor_of(StoreKind::Row, StoreKind::Column), 1.0);
    }

    /// Price a small scan+point workload — the "does an old artifact price
    /// identically" probe of the back-compat tests.
    fn probe_estimates(m: &CostModel) -> Vec<f64> {
        use crate::estimator::{EstimationCtx, TableCtx};
        use hsd_query::{AggFunc, AggregateQuery, Query, SelectQuery};
        use hsd_storage::ColRange;
        use hsd_types::Value;

        let mut ctx = EstimationCtx::new();
        ctx.insert(
            "t",
            TableCtx {
                stats: hsd_catalog::TableStats {
                    row_count: 10_000,
                    columns: vec![
                        hsd_catalog::ColumnStats {
                            distinct: 10_000,
                            min: Some(Value::BigInt(0)),
                            max: Some(Value::BigInt(9_999)),
                            compression_rate: 0.0,
                        },
                        hsd_catalog::ColumnStats {
                            distinct: 100,
                            min: Some(Value::Double(0.0)),
                            max: Some(Value::Double(100.0)),
                            compression_rate: 0.7,
                        },
                    ],
                },
                indexed: vec![],
                column_types: vec![ColumnType::BigInt, ColumnType::Double],
                pk_columns: vec![0],
                delta_tail: 500,
                observed_tail_rate: None,
            },
        );
        let queries = [
            Query::Aggregate(AggregateQuery::simple("t", AggFunc::Sum, 1)),
            Query::Select(SelectQuery {
                table: "t".into(),
                columns: Some(vec![1]),
                filter: vec![ColRange::eq(0, Value::BigInt(7))],
            }),
        ];
        let mut out = Vec::new();
        for store in [StoreKind::Row, StoreKind::Column] {
            let layout = hsd_catalog::StorageLayout::uniform(["t"], store);
            for q in &queries {
                out.push(crate::estimator::estimate_query_layout(m, &ctx, &layout, q));
            }
        }
        out
    }

    /// Pre-tier AND pre-drift artifacts (written before the `tier` object
    /// and the `meta.refits`/`meta.drift` provenance keys existed) must
    /// deserialize with neutral defaults and price identically to the same
    /// model serialized today.
    #[test]
    fn pre_tier_and_pre_drift_artifacts_load_and_price_identically() {
        let mut m = CostModel::neutral();
        m.row.f_rows = AdjustmentFn::Linear {
            slope: 1e-3,
            intercept: 0.1,
        };
        m.column.f_rows = AdjustmentFn::Linear {
            slope: 1e-4,
            intercept: 0.2,
        };
        m.column.f_tail = AdjustmentFn::Linear {
            slope: 10.0,
            intercept: 1.0,
        };
        m.row.sel_point_ms = 0.002;
        m.column.sel_point_ms = 0.01;
        let Json::Obj(mut fields) = Json::parse(&m.to_json()).unwrap() else {
            panic!("cost model serializes as an object");
        };
        // Strip everything a pre-tier, pre-drift writer never emitted.
        assert!(fields.remove("tier").is_some());
        let Some(Json::Obj(meta)) = fields.get_mut("meta") else {
            panic!("meta object serialized");
        };
        assert!(meta.remove("refits").is_some());
        assert!(meta.remove("drift").is_some());
        let old = CostModel::from_json(&Json::Obj(fields).to_string()).unwrap();
        assert_eq!(old.tier, TierModel::neutral());
        assert_eq!(old.meta.refits, 0);
        assert_eq!(old.meta.drift, 0.0);
        assert_eq!(
            probe_estimates(&old),
            probe_estimates(&m),
            "neutral defaults must not change a single estimate"
        );
    }

    #[test]
    fn model_handle_versions_refits_and_shares_across_clones() {
        let handle = ModelHandle::new(CostModel::neutral());
        assert_eq!(handle.version(), 0);
        let before = handle.snapshot();
        let shared = handle.clone();
        let v = handle.refit(|m| m.row.sel_point_ms = 0.5);
        assert_eq!(v, 1);
        // The pre-refit snapshot is immutable; new snapshots (including via
        // the clone) see the published re-fit and its provenance bump.
        assert_eq!(before.row.sel_point_ms, 0.0);
        assert_eq!(shared.snapshot().row.sel_point_ms, 0.5);
        assert_eq!(shared.version(), 1);
        assert_eq!(shared.snapshot().meta.refits, 1);
        let mut fresh = CostModel::neutral();
        fresh.column.sel_point_ms = 0.9;
        assert_eq!(handle.replace(fresh), 2);
        assert_eq!(shared.snapshot().column.sel_point_ms, 0.9);
        assert_eq!(shared.snapshot().meta.refits, 0, "replace is wholesale");
    }

    #[test]
    fn schema_diff_is_clean_for_current_serialization() {
        let diff = CostModel::schema_diff(&CostModel::neutral().to_json()).unwrap();
        assert!(diff.is_clean(), "{diff:?}");
        // The fitted adjustment variant is a value, not schema: swapping a
        // Constant for a Piecewise must not register as a difference.
        let mut m = CostModel::neutral();
        m.column.f_tail = AdjustmentFn::Piecewise {
            points: vec![(0.0, 1.0), (0.5, 3.0)],
        };
        assert!(CostModel::schema_diff(&m.to_json()).unwrap().is_clean());
    }

    #[test]
    fn schema_diff_flags_missing_and_unknown_keys() {
        let Json::Obj(mut fields) = Json::parse(&CostModel::neutral().to_json()).unwrap() else {
            panic!("cost model serializes as an object");
        };
        fields.remove("tier");
        fields.insert("bogus_extra".to_string(), Json::Num(1.0));
        let diff = CostModel::schema_diff(&Json::Obj(fields).to_string()).unwrap();
        assert!(diff.missing.iter().any(|p| p.starts_with("tier")));
        assert_eq!(diff.unknown, vec!["bogus_extra".to_string()]);
        assert!(!diff.is_clean());
    }
}
