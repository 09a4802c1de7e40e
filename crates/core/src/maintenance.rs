//! Workload-aware delta-merge scheduling: the decision model behind the
//! online advisor's `MaintenanceAction::Merge` recommendations.
//!
//! The column store's delta tail is a *deferred cost*: every scan between
//! merges pays the `f_tail` degradation, and the merge itself costs
//! `merge_ms`. A size-only trigger ignores the workload — it merges a
//! write-only table (pure cost, no scans ever collect the benefit) exactly
//! as eagerly as a scan-heavy one. The scheduler here instead compares the
//! *modeled* quantities the calibrated cost model already knows: schedule a
//! merge when the scan savings expected over the next observation interval
//! exceed the modeled merge cost.

use hsd_engine::{mover, HybridDatabase};
use hsd_types::Result;

use crate::cost::CostModel;
use crate::estimator::MaintenanceDrivers;

pub use hsd_engine::MergePartition;

/// A maintenance operation the online advisor recommends, alongside (and
/// independently of) its placement adaptations.
#[derive(Debug, Clone, PartialEq)]
pub enum MaintenanceAction {
    /// Fold the dictionary tails of `table`'s column-store partition back
    /// into the sorted region (the delta merge).
    Merge {
        /// Table to merge.
        table: String,
        /// Region label, logged with the completed merge (the merge itself
        /// always folds the table's one delta region).
        partition: MergePartition,
    },
    /// Withdraw a previously emitted [`MaintenanceAction::Merge`] whose
    /// justification evaporated before the work started (the table's scan
    /// pressure collapsed while the job sat in a worker's queue). A worker
    /// holding the job should drop it and cancel any in-flight shadow
    /// rebuild ([`hsd_engine::MaintenanceWorker::retract`]); applying the
    /// action directly does the cancellation half.
    Retract {
        /// Table whose scheduled merge is withdrawn.
        table: String,
    },
}

impl MaintenanceAction {
    /// The table this action targets.
    pub fn table(&self) -> &str {
        match self {
            MaintenanceAction::Merge { table, .. } => table,
            MaintenanceAction::Retract { table } => table,
        }
    }

    /// The physical region a [`MaintenanceAction::Merge`] targets (`None`
    /// for retractions, which are table-level).
    pub fn partition(&self) -> Option<MergePartition> {
        match self {
            MaintenanceAction::Merge { partition, .. } => Some(*partition),
            MaintenanceAction::Retract { .. } => None,
        }
    }

    /// Apply the action to the database via the engine's explicit
    /// maintenance entry point ([`mover::merge_delta`]); returns how many
    /// tail entries were merged. The merge folds the table's one delta
    /// region; `partition` labels the logged completion record.
    pub fn apply(&self, db: &HybridDatabase) -> Result<usize> {
        match self {
            MaintenanceAction::Merge { table, partition } => {
                mover::merge_delta(db, table, *partition)
            }
            MaintenanceAction::Retract { table } => {
                mover::cancel_merge(db, table)?;
                Ok(0)
            }
        }
    }

    /// Apply one bounded slice of the action through the engine's
    /// incremental merge ([`mover::merge_slice`]): at most
    /// `budget_rows` code-vector entries are remapped before control
    /// returns. Call repeatedly — interleaved with regular statements —
    /// until the returned progress reports `done`; queries between slices
    /// see a fully consistent table. This is how large tables take their
    /// scheduled merges without a full-table stop-the-world pause.
    pub fn apply_chunked(
        &self,
        db: &HybridDatabase,
        budget_rows: usize,
    ) -> Result<hsd_storage::MergeProgress> {
        match self {
            MaintenanceAction::Merge { table, partition } => {
                mover::merge_slice(db, table, *partition, budget_rows)
            }
            MaintenanceAction::Retract { table } => {
                mover::cancel_merge(db, table)?;
                Ok(hsd_storage::MergeProgress {
                    done: true,
                    ..Default::default()
                })
            }
        }
    }
}

/// The two sides of a merge-scheduling decision, in modeled milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergeDecision {
    /// Scan cost the accumulated tail is expected to add over the next
    /// `expected_scans` scans if left unmerged.
    pub scan_savings_ms: f64,
    /// Modeled cost of running the merge now.
    pub merge_cost_ms: f64,
}

impl MergeDecision {
    /// Whether the merge pays for itself: modeled savings must exceed the
    /// modeled cost by `safety_factor` (1.0 = break-even scheduling; larger
    /// values demand a margin before interrupting the workload).
    pub fn beneficial(&self, safety_factor: f64) -> bool {
        self.scan_savings_ms > self.merge_cost_ms * safety_factor
    }
}

/// Evaluate the merge trade-off for a column-store region of `rows` rows
/// carrying `tail` accumulated dictionary-tail entries, over
/// `expected_scans` scan-type statements (aggregations, range selects).
///
/// Savings per scan are the calibrated scan base cost — reference
/// aggregation plus predicate evaluation over the table, the two terms
/// `f_tail` multiplies in the estimator — times the `f_tail` degradation
/// in excess of 1; the merge cost is the calibrated `merge_ms` at the
/// current row count.
///
/// The online advisor does not compare one interval's savings against the
/// full merge cost (that would starve merges under steady moderate scan
/// rates); it *accrues* each interval's modeled penalty and schedules the
/// merge once the total paid since the last merge exceeds the merge cost —
/// the classic rent-or-buy rule, within a constant factor of the optimal
/// offline schedule regardless of how the scan rate fluctuates.
pub fn evaluate_merge(
    model: &CostModel,
    rows: usize,
    tail: usize,
    expected_scans: f64,
) -> MergeDecision {
    let m = &model.column;
    let n = rows as f64;
    let frac = tail as f64 / n.max(1.0);
    let per_scan = m.scan_base_ms(n);
    let penalty_per_scan = per_scan * (m.f_tail.eval(frac).max(1.0) - 1.0);
    MergeDecision {
        scan_savings_ms: penalty_per_scan * expected_scans.max(0.0),
        merge_cost_ms: m.merge_ms.eval(n).max(0.0),
    }
}

// ---------------------------------------------------------------------------
// Maintenance-aware placement: amortized delta upkeep of a column placement

/// The modeled delta-upkeep bill of keeping one table in the column store
/// over a workload window, in model milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MaintenanceEstimate {
    /// Tail penalty the window's scans pay between merges.
    pub scan_penalty_ms: f64,
    /// Merge cost of the merges the rent-or-buy schedule runs.
    pub merge_cost_ms: f64,
    /// Modeled merge count (fractional: an amortized rate, not a tally).
    pub merges: f64,
}

impl MaintenanceEstimate {
    /// Total upkeep: scan penalty plus merge cost.
    pub fn total_ms(&self) -> f64 {
        self.scan_penalty_ms + self.merge_cost_ms
    }
}

/// Estimate the amortized delta-upkeep cost of a column-store placement for
/// a table of `rows` rows over a window with the given
/// [`MaintenanceDrivers`] — the term maintenance-aware placement adds to
/// every column-store candidate before comparing stores.
///
/// The model assumes writes and scans interleave uniformly and that the
/// advisor's own rent-or-buy schedule runs the merges: the tail grows by
/// one entry per modeled write, each scan at tail size `t` pays
/// `scan_base_ms · (f_tail(t/rows) − 1)`, and a merge fires once the
/// penalty accrued since the last merge reaches the modeled merge cost.
/// Under that schedule each merge cycle pays the merge cost twice — once as
/// accrued scan penalty ("rent"), once as the merge itself ("buy") — so the
/// window's upkeep is `2 · merges · merge_ms`, with the cycle length found
/// by solving the accrual equation. When the window's total accrual never
/// reaches one merge cost, no merge fires and only the accrued penalty is
/// charged. Write-only windows (no scans) and scan-only windows (no tail
/// growth) cost nothing, exactly like the scheduler that never merges them.
pub fn estimate_maintenance(
    model: &CostModel,
    rows: usize,
    drivers: MaintenanceDrivers,
) -> MaintenanceEstimate {
    let m = &model.column;
    let n = (rows as f64).max(1.0);
    let growth = drivers.tail_growth;
    let scans = drivers.scans;
    if growth < 1.0 || scans <= 0.0 {
        return MaintenanceEstimate::default();
    }
    let merge_cost = m.merge_ms.eval(n).max(0.0);
    let per_scan = m.scan_base_ms(n);
    // Scans arriving per unit of tail growth (uniform interleave).
    let rate = scans / growth;
    // Accrued penalty while the tail grows from 0 to `t` entries: each of
    // the `rate · t` scans pays the penalty of the then-current tail;
    // approximated by the midpoint tail (exact for linear `f_tail`).
    let accrued =
        |t: f64| -> f64 { rate * t * per_scan * (m.f_tail.eval(t / (2.0 * n)).max(1.0) - 1.0) };
    let window_accrual = accrued(growth);
    if merge_cost <= 0.0 {
        // Free merges: the scheduler merges eagerly and the tail never
        // accumulates a noticeable penalty.
        return MaintenanceEstimate::default();
    }
    if window_accrual <= merge_cost {
        // The whole window never pays for one merge: rent only.
        return MaintenanceEstimate {
            scan_penalty_ms: window_accrual,
            merge_cost_ms: 0.0,
            merges: 0.0,
        };
    }
    // Solve accrued(T*) = merge_cost for the cycle length T* (entries of
    // tail growth per merge cycle); `accrued` is monotone for any
    // non-decreasing f_tail, so bisection converges.
    let (mut lo, mut hi) = (1.0f64, growth);
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if accrued(mid) < merge_cost {
            lo = mid;
        } else {
            hi = mid;
        }
        if (hi - lo) < 1e-6 * growth {
            break;
        }
    }
    let cycle = 0.5 * (lo + hi);
    let merges = growth / cycle;
    MaintenanceEstimate {
        scan_penalty_ms: merges * merge_cost,
        merge_cost_ms: merges * merge_cost,
        merges,
    }
}

/// Price the delta upkeep of one placement's column-store region: the
/// [`FragmentDrivers`](crate::estimator::FragmentDrivers) are amortized by
/// the same rent-or-buy rule as [`estimate_maintenance`], at the
/// **fragment's own row count** (merge cost scales with the rows the remap
/// covers, and a cold-fragment merge never remaps the hot partition).
///
/// Together with [`crate::estimator::placement_fragment_drivers`] this is
/// fragment-level upkeep charging: the hot row-store partition of a
/// hot/cold split pays zero by construction (its writes intern nothing),
/// the cold column fragment pays its scaled bill, and vertical fragments
/// pay only for their column-subset assignments.
pub fn estimate_placement_maintenance(
    model: &CostModel,
    fragment: crate::estimator::FragmentDrivers,
) -> MaintenanceEstimate {
    estimate_maintenance(model, fragment.rows, fragment.drivers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::AdjustmentFn;

    /// Model with hand-set maintenance terms: reference scan 1 ms, tail
    /// factor `1 + 10·frac`, merge cost flat 10 ms.
    fn model() -> CostModel {
        let mut m = CostModel::neutral();
        m.column.f_rows = AdjustmentFn::Constant(1.0);
        m.column.f_tail = AdjustmentFn::Linear {
            slope: 10.0,
            intercept: 1.0,
        };
        m.column.merge_ms = AdjustmentFn::Constant(10.0);
        m
    }

    #[test]
    fn decision_boundary_scales_with_expected_scans() {
        let m = model();
        // tail fraction 0.1 -> factor 2.0 -> 1 ms penalty per scan.
        let few = evaluate_merge(&m, 1000, 100, 5.0);
        assert!((few.scan_savings_ms - 5.0).abs() < 1e-9);
        assert!((few.merge_cost_ms - 10.0).abs() < 1e-9);
        assert!(!few.beneficial(1.0), "5 ms savings < 10 ms merge");
        let many = evaluate_merge(&m, 1000, 100, 20.0);
        assert!(many.beneficial(1.0), "20 ms savings > 10 ms merge");
        // exactly break-even is NOT beneficial (strict inequality)
        let even = evaluate_merge(&m, 1000, 100, 10.0);
        assert!(!even.beneficial(1.0));
        // a safety factor demands margin
        assert!(!many.beneficial(2.5), "20 < 10 * 2.5");
    }

    #[test]
    fn decision_boundary_scales_with_tail() {
        let m = model();
        // No tail -> no savings, never beneficial.
        let clean = evaluate_merge(&m, 1000, 0, 1000.0);
        assert_eq!(clean.scan_savings_ms, 0.0);
        assert!(!clean.beneficial(1.0));
        // Bigger tail -> bigger per-scan penalty.
        let small = evaluate_merge(&m, 1000, 50, 10.0);
        let large = evaluate_merge(&m, 1000, 500, 10.0);
        assert!(large.scan_savings_ms > small.scan_savings_ms);
    }

    #[test]
    fn write_only_workloads_never_schedule() {
        let m = model();
        let d = evaluate_merge(&m, 1000, 900, 0.0);
        assert_eq!(d.scan_savings_ms, 0.0);
        assert!(!d.beneficial(0.0), "zero scans -> zero benefit");
    }

    #[test]
    fn maintenance_estimate_zero_without_writes_or_scans() {
        let m = model();
        let no_writes = estimate_maintenance(
            &m,
            1000,
            MaintenanceDrivers {
                tail_growth: 0.0,
                scans: 500.0,
            },
        );
        assert_eq!(no_writes.total_ms(), 0.0);
        let no_scans = estimate_maintenance(
            &m,
            1000,
            MaintenanceDrivers {
                tail_growth: 500.0,
                scans: 0.0,
            },
        );
        assert_eq!(no_scans.total_ms(), 0.0, "no scans -> no rent, no merges");
        let neutral = estimate_maintenance(
            &CostModel::neutral(),
            1000,
            MaintenanceDrivers {
                tail_growth: 500.0,
                scans: 500.0,
            },
        );
        assert_eq!(neutral.total_ms(), 0.0, "neutral model charges nothing");
    }

    #[test]
    fn maintenance_estimate_rent_only_below_one_merge() {
        let m = model();
        // Tiny window: accrual can't reach the 10 ms merge cost, so only
        // the rent is charged and no merges are modeled.
        let e = estimate_maintenance(
            &m,
            1000,
            MaintenanceDrivers {
                tail_growth: 10.0,
                scans: 10.0,
            },
        );
        assert_eq!(e.merges, 0.0);
        assert_eq!(e.merge_cost_ms, 0.0);
        assert!(e.scan_penalty_ms > 0.0 && e.scan_penalty_ms < 10.0);
    }

    #[test]
    fn maintenance_estimate_rent_or_buy_cycles() {
        let m = model();
        // Big window: per-scan penalty at tail T is 10·T/1000 ms (f_tail
        // slope 10, base 1 ms); with one scan per write the accrual over a
        // cycle of length T is T²/200 ms, so a 10 ms merge fires every
        // T* ≈ √2000 ≈ 44.7 entries.
        let e = estimate_maintenance(
            &m,
            1000,
            MaintenanceDrivers {
                tail_growth: 1000.0,
                scans: 1000.0,
            },
        );
        let expected_cycle = 2000.0f64.sqrt();
        let expected_merges = 1000.0 / expected_cycle;
        assert!(
            (e.merges - expected_merges).abs() / expected_merges < 0.05,
            "merges {} vs analytic {}",
            e.merges,
            expected_merges
        );
        // Each cycle pays the merge cost twice: as accrued rent and as the
        // merge itself.
        assert!((e.total_ms() - 2.0 * e.merges * 10.0).abs() < 1e-6);
        // More scans per write -> shorter cycles -> more upkeep.
        let heavier = estimate_maintenance(
            &m,
            1000,
            MaintenanceDrivers {
                tail_growth: 1000.0,
                scans: 4000.0,
            },
        );
        assert!(heavier.total_ms() > e.total_ms());
        assert!(heavier.merges > e.merges);
    }
}
