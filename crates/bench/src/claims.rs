//! The paper's Section 5 figures as checked claims.
//!
//! Each figure's verdict is a pure function of its measured series, so the
//! `reproduce` bin only measures and these functions only judge. Every
//! claim compares orderings measured within one process, never absolute
//! times; its margin is the constant next to it.

use std::fmt;
use std::ops::RangeInclusive;

/// A figure claim's verdict line: `claim <fig>: PASS|FAIL|OPEN (<measured>
/// vs <bound>)`. An ungated claim prints `OPEN` whether or not it holds.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// Figure id, e.g. `"8"` or `"9a"`.
    pub fig: &'static str,
    /// Whether the measured series satisfies the bound.
    pub holds: bool,
    /// Whether a violation fails the run (`false`: printed as `OPEN`).
    pub gated: bool,
    /// What was measured.
    pub measured: String,
    /// What it is checked against.
    pub bound: String,
}

impl Claim {
    /// A gated claim that does not hold.
    pub fn failed(&self) -> bool {
        self.gated && !self.holds
    }
}

impl fmt::Display for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = match (self.gated, self.holds) {
            (false, _) => "OPEN",
            (true, true) => "PASS",
            (true, false) => "FAIL",
        };
        write!(
            f,
            "claim {}: {verdict} ({} vs {})",
            self.fig, self.measured, self.bound
        )
    }
}

/// Figs. 6(a)/6(b): bound on the row store's mean relative estimation
/// error `|est − run| / run`. 0.8 is the under-estimate edge of the
/// per-point `est / run ∈ [0.2, 5]` band `tests/estimation_sanity.rs`
/// holds the model to, and every point must also stay inside that band.
pub const FIG6_MEAN_ERR: f64 = 0.8;
/// The per-point `est / run` band of Figs. 6(a)/6(b).
pub const FIG6_BAND: RangeInclusive<f64> = 0.2..=5.0;

/// Figs. 6(a)/6(b): estimation accuracy from each store's `(estimate,
/// measured)` pairs, both in the same unit. Only the row store's side is
/// gated. The column store's side is printed against the same bound but
/// not gated: at `HSD_SCALE=0.01` its est/run moved between 0.38 and 1.86
/// from one process to the next (mean error up to 97.5 %), so its spread
/// on a shared CI runner is not known.
pub fn fig6_claim(fig: &'static str, rs: &[(f64, f64)], cs: &[(f64, f64)]) -> Claim {
    let side = |points: &[(f64, f64)]| {
        let ratios = points.iter().map(|&(est, run)| est / run);
        let lo = ratios.clone().fold(f64::INFINITY, f64::min);
        let hi = ratios.fold(0.0, f64::max);
        let err: f64 = points
            .iter()
            .map(|&(est, run)| (est - run).abs() / run)
            .sum();
        let mean = err / points.len() as f64;
        let holds = mean <= FIG6_MEAN_ERR && FIG6_BAND.contains(&lo) && FIG6_BAND.contains(&hi);
        let text = format!(
            "mean rel err {:.1} %, est/run {lo:.2}–{hi:.2}",
            mean * 100.0
        );
        (holds, text)
    };
    let (holds, rs) = side(rs);
    let (_, cs) = side(cs);
    Claim {
        fig,
        holds,
        gated: true,
        measured: format!("RS {rs}; CS (not gated) {cs}"),
        bound: format!(
            "mean ≤ {:.0} %, est/run in {FIG6_BAND:?}",
            FIG6_MEAN_ERR * 100.0
        ),
    }
}

/// Figs. 7(a)/7(b): the advisor picks the measured-optimal store in every
/// setting. Each setting is `(rs_secs, cs_secs, picked_row_store)`; the
/// pick must be the faster store, with no tie margin.
pub fn fig7_claim(fig: &'static str, settings: &[(f64, f64, bool)]) -> Claim {
    let hits = settings
        .iter()
        .filter(|&&(rs, cs, row)| row == (rs <= cs))
        .count();
    let n = settings.len();
    Claim {
        fig,
        holds: hits == n && n > 0,
        gated: true,
        measured: format!("optimal pick in {hits}/{n} settings"),
        bound: format!("{n}/{n}"),
    }
}

/// Fig. 8: the sweep's step in percent of the table held by the row store.
pub const FIG8_STEP_PCT: f64 = 2.5;

/// Fig. 8: the advisor's recommended hot (row-store) fraction is within one
/// sweep step of the measured runtime minimum. `series` holds `(percent,
/// secs)`; `recommended` is `None` when the advisor proposed no horizontal
/// split. Not gated: at scale 0.01 the curve is flat from 5 to 10 %, so
/// the measured minimum moves between runs, and with some in-process
/// calibrations the advisor keeps the table in the column store instead
/// of recommending its 10 % split.
pub fn fig8_claim(series: &[(f64, f64)], recommended: Option<f64>) -> Claim {
    let best = series
        .iter()
        .copied()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map_or(f64::NAN, |(pct, _)| pct);
    let holds = recommended.is_some_and(|r| (r - best).abs() <= FIG8_STEP_PCT + 1e-9);
    Claim {
        fig: "8",
        holds,
        gated: false,
        measured: match recommended {
            Some(r) => format!("recommended {r:.1} %, measured minimum {best:.1} %"),
            None => format!("no horizontal split recommended, measured minimum {best:.1} %"),
        },
        bound: format!("|recommended − minimum| ≤ {FIG8_STEP_PCT} %"),
    }
}

/// Figs. 9(a)/9(b): a vertical partitioning within this share of the
/// faster single store counts as no slower — the same 25 % the
/// benchmark's end-to-end timings are bounded by between two runs of one
/// commit.
pub const FIG9_MARGIN: f64 = 0.25;

/// Figs. 9(a)/9(b): the vertical partitioning is no slower than
/// `(1 + FIG9_MARGIN) × min(RS, CS)` at every OLAP fraction. Each point is
/// `(rs_secs, cs_secs, vertical_secs)`. Only 9(a) is gated: 9(b)'s worst
/// ratio reached 1.21 in ten quiet local runs at `HSD_SCALE=0.01`, too
/// close to the bound to gate on a shared CI runner whose spread is not
/// known.
pub fn fig9_claim(fig: &'static str, series: &[(f64, f64, f64)]) -> Claim {
    let worst = series
        .iter()
        .map(|&(rs, cs, vp)| vp / rs.min(cs))
        .fold(0.0f64, f64::max);
    Claim {
        fig,
        holds: !series.is_empty() && worst <= 1.0 + FIG9_MARGIN,
        gated: fig == "9a",
        measured: format!("worst vertical / min(RS, CS) = {worst:.2}"),
        bound: format!("≤ {:.2}", 1.0 + FIG9_MARGIN),
    }
}

/// Fig. 10: the table-level layout beats the best single store and the
/// partitioned layout beats the table-level one. Not gated: on this engine
/// the column store wins the TPC-H mix outright, which the cost model does
/// not yet predict.
pub fn fig10_claim(rs: f64, cs: f64, table: f64, partitioned: f64) -> Claim {
    let single = rs.min(cs);
    let pct = |a: f64, b: f64| 100.0 * (a - b) / b;
    Claim {
        fig: "10",
        holds: table <= single && partitioned <= table,
        gated: false,
        measured: format!(
            "Table vs best single store {:+.1} %, Partitioned vs Table {:+.1} %, \
             Partitioned vs CS only {:+.1} %",
            pct(table, single),
            pct(partitioned, table),
            pct(partitioned, cs)
        ),
        bound: "Table ≤ best single store, Partitioned ≤ Table".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_lines() {
        let c = fig9_claim("9a", &[(1.0, 2.0, 1.0)]);
        assert_eq!(
            c.to_string(),
            "claim 9a: PASS (worst vertical / min(RS, CS) = 1.00 vs ≤ 1.25)"
        );
        let c = fig9_claim("9a", &[(1.0, 2.0, 2.0)]);
        assert!(c.to_string().starts_with("claim 9a: FAIL ("), "{c}");
        assert!(c.failed());
        for c in [
            fig8_claim(&[(0.0, 2.0), (10.0, 1.0)], Some(0.0)),
            fig9_claim("9b", &[(1.0, 2.0, 2.0)]),
            fig10_claim(1.0, 1.0, 2.0, 3.0),
        ] {
            assert!(!c.holds && !c.failed(), "ungated: never fails the run");
            assert!(c.to_string().contains(": OPEN ("), "{c}");
        }
    }

    #[test]
    fn fig6_gates_the_row_store_side() {
        let good = [(1.1, 1.0), (0.9, 1.0)];
        let c = fig6_claim("6a", &good, &good);
        assert!(c.holds);
        assert_eq!(
            c.measured,
            "RS mean rel err 10.0 %, est/run 0.90–1.10; \
             CS (not gated) mean rel err 10.0 %, est/run 0.90–1.10"
        );
        // Mean error exactly at the bound passes; just above fails.
        assert!(fig6_claim("6a", &[(1.8, 1.0), (1.8, 1.0)], &good).holds);
        assert!(!fig6_claim("6a", &[(1.81, 1.0), (1.8, 1.0)], &good).holds);
        // One point outside the band fails even with a low mean error.
        let outlier = [vec![(1.0, 1.0); 9], vec![(0.19, 1.0)]].concat();
        assert!(!fig6_claim("6b", &outlier, &good).holds);
        let edge = [vec![(1.0, 1.0); 9], vec![(0.2, 1.0)]].concat();
        assert!(fig6_claim("6b", &edge, &good).holds);
        assert!(!fig6_claim("6b", &[], &good).holds);
        // The column store's side never decides the verdict.
        assert!(fig6_claim("6b", &good, &outlier).holds);
        assert!(fig6_claim("6b", &good, &[(3.0, 1.0)]).holds);
    }

    #[test]
    fn fig7_needs_the_faster_store() {
        let clear = [(1.0, 5.0, true), (5.0, 1.0, false)];
        assert!(fig7_claim("7a", &clear).holds);
        let wrong = [(1.0, 5.0, true), (5.0, 1.0, true)];
        let c = fig7_claim("7a", &wrong);
        assert!(!c.holds);
        assert!(c.measured.starts_with("optimal pick in 1/2"), "{c}");
        // No tie margin: a pick 1 % slower than the other store fails.
        assert!(!fig7_claim("7b", &[(1.01, 1.0, true)]).holds);
        assert!(fig7_claim("7b", &[(1.0, 1.0, true)]).holds, "equal times");
        assert!(!fig7_claim("7b", &[]).holds);
    }

    #[test]
    fn fig8_within_one_step_of_the_minimum() {
        let u = [(0.0, 3.0), (2.5, 2.0), (5.0, 1.5), (7.5, 1.0), (10.0, 1.2)];
        assert!(fig8_claim(&u, Some(7.5)).holds);
        assert!(fig8_claim(&u, Some(10.0)).holds, "one step above");
        assert!(fig8_claim(&u, Some(5.0)).holds, "one step below");
        assert!(fig8_claim(&u, Some(9.96)).holds, "split rounding");
        assert!(!fig8_claim(&u, Some(2.5)).holds, "two steps off");
        assert!(!fig8_claim(&u, None).holds);
    }

    #[test]
    fn fig9_vertical_within_margin_everywhere() {
        let ok = [(1.0, 2.0, 0.5), (2.0, 1.0, 1.0)];
        assert!(fig9_claim("9a", &ok).holds);
        assert!(fig9_claim("9a", &[(1.0, 2.0, 1.25)]).holds, "at the margin");
        let slow = [(1.0, 2.0, 0.5), (2.0, 1.0, 1.3)];
        let c = fig9_claim("9a", &slow);
        assert!(!c.holds);
        assert_eq!(c.measured, "worst vertical / min(RS, CS) = 1.30");
    }

    #[test]
    fn fig10_orders_all_three() {
        assert!(fig10_claim(2.0, 3.0, 2.0, 1.0).holds);
        assert!(!fig10_claim(2.0, 1.0, 1.5, 1.0).holds, "Table loses to CS");
        assert!(!fig10_claim(2.0, 3.0, 1.5, 1.6).holds, "Partitioned loses");
    }
}
