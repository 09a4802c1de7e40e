//! `hsd-benchmark compare <a.json> <b.json>`: two sets of runs (the files
//! `--out` writes), one row per workload × end-to-end metric.
//!
//! `a` is the base: every ratio is `b ÷ a`. A metric is **worse** when b's
//! median is worse than a's by more than the metric's bound; otherwise it
//! is **unresolved** when either set's own run-to-run spread (interquartile
//! distance over the median) is wider than the bound — the sets cannot
//! show that nothing moved — and **ok** when neither.

use hsd_types::Json;

use crate::metrics::{Better, Def, END_TO_END};
use crate::run::Res;
use crate::stats::{median, spread};
use crate::workloads::SPECS;

/// Outcome for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the spread is narrow enough to say so.
    Ok,
    /// b's median is worse than a's by more than the bound.
    Worse,
    /// Not worse, but the run-to-run spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One compared row.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Median of set a (the base).
    pub a: f64,
    /// Median of set b.
    pub b: f64,
    /// Share of a's median by which b is worse (negative: better).
    pub worse_by: f64,
    /// The wider of the two sets' spreads.
    pub spread: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compare two samples of one metric.
pub fn judge(def: &Def, a: &[f64], b: &[f64]) -> Row {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match def.better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let spread = spread(a).max(spread(b));
    let verdict = if worse_by > def.bound {
        Verdict::Worse
    } else if spread > def.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    Row {
        a: ma,
        b: mb,
        worse_by,
        spread,
        verdict,
    }
}

/// The measured (untraced) runs of one workload in a result set.
struct Runs {
    metrics: Vec<Json>,
    attempted: i64,
    failed: i64,
}

fn runs_of(set: &Json, workload: &str) -> Res<Runs> {
    let mut runs = Runs {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    for run in set.get("runs")?.as_arr()? {
        if run.get("workload")?.as_str()? == workload && !run.get("trace")?.as_bool()? {
            runs.metrics.push(run.get("metrics")?.clone());
            runs.attempted += run.get("attempted")?.as_i64()?;
            runs.failed += run.get("failed")?.as_i64()?;
        }
    }
    Ok(runs)
}

impl Runs {
    fn values(&self, metric: &str) -> Res<Vec<f64>> {
        self.metrics
            .iter()
            .map(|m| Ok(m.get(metric)?.get("value")?.as_f64()?))
            .collect()
    }

    fn failed_share(&self) -> f64 {
        self.failed as f64 / (self.attempted as f64).max(1.0)
    }
}

/// Seeds whose traced `htap_mixed` runs within one set disagree on the
/// online advisor's decisions: the workload is then bimodal and its numbers
/// are two populations, not one.
fn diverging_seeds(set: &Json) -> Res<Vec<i64>> {
    let mut seen: std::collections::BTreeMap<i64, (f64, f64)> = Default::default();
    let mut diverging = Vec::new();
    for run in set.get("runs")?.as_arr()? {
        if run.get("workload")?.as_str()? != "htap_mixed" || !run.get("trace")?.as_bool()? {
            continue;
        }
        let metric =
            |name: &str| -> Res<f64> { Ok(run.get("metrics")?.get(name)?.get("value")?.as_f64()?) };
        let decisions = (
            metric("online.replans")?,
            metric("online.final_layout_digest")?,
        );
        let seed = run.get("seed")?.as_i64()?;
        if *seen.entry(seed).or_insert(decisions) != decisions && !diverging.contains(&seed) {
            diverging.push(seed);
        }
    }
    Ok(diverging)
}

/// Print the comparison; `Ok(true)` when nothing is worse and no failed
/// share rose.
pub fn compare(path_a: &str, path_b: &str) -> Res<bool> {
    let load = |p: &str| -> Res<Json> { Ok(Json::parse(&std::fs::read_to_string(p)?)?) };
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!("base a = {path_a}, b = {path_b}; ratio = b / a");
    for (path, set) in [(path_a, &a), (path_b, &b)] {
        let seeds = diverging_seeds(set)?;
        if !seeds.is_empty() {
            println!(
                "warning: {path}: traced htap_mixed runs of seed(s) {seeds:?} disagree on \
                 online.replans / online.final_layout_digest — the workload is bimodal there"
            );
        }
    }
    println!(
        "{:<13} {:<24} {:>12} {:>12} {:>7} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "a", "b", "ratio", "worse by", "bound", "spread"
    );
    let mut pass = true;
    for spec in &SPECS {
        let (ra, rb) = (runs_of(&a, spec.name)?, runs_of(&b, spec.name)?);
        if ra.metrics.is_empty() || rb.metrics.is_empty() {
            println!("{:<13} (no runs in one of the sets)", spec.name);
            continue;
        }
        for def in &END_TO_END {
            let row = judge(def, &ra.values(def.name)?, &rb.values(def.name)?);
            pass &= row.verdict != Verdict::Worse;
            println!(
                "{:<13} {:<24} {:>12.4} {:>12.4} {:>7.3} {:>+7.1}% {:>6.0}% {:>6.1}%  {}",
                spec.name,
                format!("{} [{}]", def.name, def.unit),
                row.a,
                row.b,
                row.b / row.a,
                row.worse_by * 100.0,
                def.bound * 100.0,
                row.spread * 100.0,
                row.verdict.name(),
            );
        }
        let (fa, fb) = (ra.failed_share(), rb.failed_share());
        let rose = fb > fa;
        pass &= !rose;
        println!(
            "{:<13} {:<24} {:>12.6} {:>12.6} {:>7} {:>8} {:>7} {:>7}  {} ({} and {} runs)",
            spec.name,
            "failed_share",
            fa,
            fb,
            "",
            "",
            "",
            "",
            if rose { "worse" } else { "ok" },
            ra.metrics.len(),
            rb.metrics.len(),
        );
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Def = Def {
        name: "latency",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    };
    const HIGHER: Def = Def {
        name: "rate",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    };

    #[test]
    fn verdicts_at_inside_and_outside_the_bound() {
        // Exactly at the bound is not worse; just past it is.
        assert_eq!(judge(&LOWER, &[100.0], &[110.0]).verdict, Verdict::Ok);
        assert_eq!(judge(&LOWER, &[100.0], &[110.5]).verdict, Verdict::Worse);
        assert_eq!(judge(&LOWER, &[100.0], &[95.0]).verdict, Verdict::Ok);
        // Direction: a higher-is-better metric gets worse by falling.
        assert_eq!(judge(&HIGHER, &[100.0], &[89.0]).verdict, Verdict::Worse);
        assert_eq!(judge(&HIGHER, &[100.0], &[90.0]).verdict, Verdict::Ok);
        assert_eq!(judge(&HIGHER, &[100.0], &[130.0]).verdict, Verdict::Ok);
        let row = judge(&HIGHER, &[100.0], &[80.0]);
        assert!((row.worse_by - 0.2).abs() < 1e-12 && row.a == 100.0 && row.b == 80.0);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_ok() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let noisy = [100.0, 130.0, 80.0, 120.0, 85.0];
        assert_eq!(judge(&LOWER, &steady, &steady).verdict, Verdict::Ok);
        assert_eq!(judge(&LOWER, &steady, &noisy).verdict, Verdict::Unresolved);
        assert_eq!(judge(&LOWER, &noisy, &steady).verdict, Verdict::Unresolved);
        // Worse stays worse however wide the spread.
        let noisy_and_slow: Vec<f64> = noisy.iter().map(|x| x * 1.5).collect();
        assert_eq!(
            judge(&LOWER, &steady, &noisy_and_slow).verdict,
            Verdict::Worse
        );
    }
}
