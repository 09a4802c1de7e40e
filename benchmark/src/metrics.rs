//! The metric catalog (names, units, direction, regression bounds — the
//! same list `BENCHMARK.json` declares) and the metrics that come straight
//! out of a run's own spans and counters. Direct probes of single layers
//! and the comparison arms of the traced run are in [`crate::probes`].

use std::collections::BTreeMap;

use crate::run::{Measured, Served, Timing};
use crate::stats::{mean, median, percentile, sorted};
use crate::workloads::{Kind, Shape, Spec, Stmt};

/// Which way a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, bytes, work done for the same result).
    Lower,
    /// Larger is better (rates, speed-ups, shares explained).
    Higher,
}

impl Better {
    /// As written in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may get worse before a
    /// change counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    e2e(name, unit, Better::Higher, 0.0)
}

/// End-to-end metrics: what a user of the system sees. Measured with
/// tracing off, reported by every workload.
///
/// The bounds are what this sandbox can resolve, not what one would like
/// to gate: it is a microVM on a shared host whose clock frequency, memory
/// system and disk flushes all change speed in phases of seconds to
/// minutes, so one 10 s window repeats to 5–15 % on a quiet host and to
/// 30 % on a busy one (README, "End-to-end metrics"). `mem_mib` moves with
/// the seed on `htap_mixed` only (the advised layout depends on the sample).
pub const END_TO_END: [Def; 8] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("stmts_per_s", "1/s", Better::Higher, 0.25),
    e2e("oltp_mean_us", "us", Better::Lower, 0.25),
    e2e("olap_mean_ms", "ms", Better::Lower, 0.25),
    e2e("recovery_s", "s", Better::Lower, 0.25),
    e2e("advisor_decide_ms", "ms", Better::Lower, 0.25),
    e2e("mem_mib", "MiB", Better::Lower, 0.10),
    e2e("disk_mib", "MiB", Better::Lower, 0.02),
];

/// Per-layer metrics of the traced run; layer = module name. A value of 0
/// means the layer did no such work on the workload (or, for a
/// percentile, that too few samples lie beyond it).
pub const PER_LAYER: [Def; 83] = [
    // serve: the driver boundary around `db.execute`.
    lower("serve.insert_p50_us", "us"),
    lower("serve.update_p50_us", "us"),
    lower("serve.select_p50_us", "us"),
    lower("serve.oltp_p99_us", "us"),
    lower("serve.oltp_p999_us", "us"),
    lower("serve.aggregate_p50_ms", "ms"),
    lower("serve.join_p50_ms", "ms"),
    lower("serve.olap_p99_ms", "ms"),
    lower("serve.max_stall_ms", "ms"),
    higher("serve.samples", "count"),
    // storage kernels, probed on copies of the workload's lineitem.
    lower("bitpack.decode_ns_per_value", "ns"),
    lower("bitpack.match_ns_per_value", "ns"),
    lower("column_store.scan_ns_per_row", "ns"),
    lower("column_store.filter_ns_per_row", "ns"),
    lower("column_store.insert_ns", "ns"),
    lower("column_store.delta_tail_entries", "count"),
    lower("column_store.bytes_per_row", "B"),
    lower("row_store.point_lookup_ns", "ns"),
    lower("row_store.insert_ns", "ns"),
    lower("row_store.scan_ns_per_row", "ns"),
    lower("row_store.bytes_per_row", "B"),
    // executor: statement latency by shape without a WAL.
    lower("executor.aggregate_ms_p50", "ms"),
    lower("executor.grouped_ms_p50", "ms"),
    lower("executor.join_ms_p50", "ms"),
    lower("executor.select_us_p50", "us"),
    lower("executor.insert_us_p50", "us"),
    lower("executor.update_us_p50", "us"),
    higher("database.two_client_scaling", "ratio"),
    // wal / durability / checkpoint.
    lower("wal.records", "count"),
    lower("wal.frame_bytes", "B"),
    lower("wal.syncs", "count"),
    higher("wal.records_per_sync", "ratio"),
    lower("wal.bytes_per_stmt", "B"),
    lower("wal.retries", "count"),
    lower("wal.append_us_per_record", "us"),
    lower("wal.sync_us_p50", "us"),
    lower("durability.encode_us_per_record", "us"),
    lower("durability.logging_overhead_ratio", "ratio"),
    lower("durability.replay_us_per_record", "us"),
    lower("checkpoint.write_ms", "ms"),
    lower("checkpoint.bytes", "B"),
    lower("checkpoint.stall_ms", "ms"),
    // worker: background merges.
    lower("worker.slices", "count"),
    lower("worker.rows_remapped", "count"),
    lower("worker.busy_ms", "ms"),
    lower("worker.ns_per_row", "ns"),
    lower("worker.jobs_completed", "count"),
    lower("worker.jobs_retracted", "count"),
    lower("worker.slice_panics", "count"),
    lower("worker.drain_ms", "ms"),
    // mover.
    lower("mover.apply_layout_ms", "ms"),
    lower("mover.moves", "count"),
    lower("mover.demote_ms", "ms"),
    // segment: the disk tier.
    higher("segment.encode_mib_s", "MiB/s"),
    higher("segment.decode_mib_s", "MiB/s"),
    lower("segment.get_us", "us"),
    lower("segment.cold_mib", "MiB"),
    lower("segment.cold_scan_ms_p50", "ms"),
    lower("segment.cold_point_us_p50", "us"),
    lower("segment.hot_point_us_p50", "us"),
    // estimator / advisor: the paper's estimated-vs-actual quantities.
    higher("estimator.estimates_per_s", "1/s"),
    lower("estimator.modeled_over_measured", "ratio"),
    lower("estimator.abs_log_err", "ratio"),
    lower("advisor.decide_unbudgeted_ms", "ms"),
    lower("advisor.footprint_over_budget", "ratio"),
    higher("advisor.speedup_vs_all_row", "ratio"),
    higher("advisor.speedup_vs_all_col", "ratio"),
    higher("advisor.winner_agrees", "count"),
    // online advisor in the serving path.
    lower("online.observe_us_p50", "us"),
    lower("online.observe_us_p99", "us"),
    lower("online.busy_share", "ratio"),
    lower("online.replans", "count"),
    lower("online.apply_ms_total", "ms"),
    lower("online.model_refits", "count"),
    lower("online.drift_overall", "ratio"),
    lower("online.merges_scheduled", "count"),
    lower("online.retracts", "count"),
    lower("online.final_layout_digest", "hash"),
    lower("online.selfcal_replans", "count"),
    lower("online.selfcal_refits", "count"),
    lower("online.selfcal_slowdown", "ratio"),
    // the trace itself.
    higher("trace.coverage_share", "ratio"),
    lower("trace.overhead_share", "ratio"),
];

/// Metric values by declared name.
pub type Values = BTreeMap<&'static str, f64>;

/// Served latencies of the statements `keep` selects, in `unit_ns`
/// nanoseconds (1e3 → µs, 1e6 → ms).
pub fn latencies(
    stmts: &[Stmt],
    served: &Served,
    unit_ns: f64,
    keep: impl Fn(&Stmt) -> bool,
) -> Vec<f64> {
    stmts[served.range.clone()]
        .iter()
        .zip(&served.timings)
        .filter(|(s, _)| keep(s))
        .map(|(_, t)| t.dur_ns as f64 / unit_ns)
        .collect()
}

/// The `q`-quantile of a sample, or 0 when fewer than ten samples lie
/// beyond it.
pub fn quantile_or_zero(xs: &[f64], q: f64) -> f64 {
    percentile(&sorted(xs), q).unwrap_or(0.0)
}

const MIB: f64 = 1024.0 * 1024.0;

/// The end-to-end metrics of a measured run.
pub fn end_to_end(m: &Measured) -> Values {
    let served = &m.served;
    Values::from([
        ("setup_s", median(&m.setup_s)),
        ("stmts_per_s", served.range.len() as f64 / served.window_s()),
        (
            "oltp_mean_us",
            mean(&latencies(&m.stream, served, 1e3, |s| s.shape.is_oltp())),
        ),
        (
            "olap_mean_ms",
            mean(&latencies(&m.stream, served, 1e6, |s| !s.shape.is_oltp())),
        ),
        (
            "recovery_s",
            median(&m.recoveries.iter().map(|r| r.seconds).collect::<Vec<_>>()),
        ),
        ("advisor_decide_ms", median(&m.decide_ms)),
        ("mem_mib", m.memory_bytes as f64 / MIB),
        ("disk_mib", m.disk_bytes as f64 / MIB),
    ])
}

/// Worst latency among statements that overlap `[start_ns, end_ns]`, ms.
fn worst_overlapping_ms(timings: &[Timing], start_ns: u64, end_ns: u64) -> f64 {
    timings
        .iter()
        .filter(|t| t.start_ns <= end_ns && t.start_ns + t.dur_ns >= start_ns)
        .map(|t| t.dur_ns as f64 / 1e6)
        .fold(0.0, f64::max)
}

fn fnv32(text: &str) -> f64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    // Folded to 32 bits so the digest survives a trip through an f64.
    f64::from((h ^ (h >> 32)) as u32)
}

/// Per-layer metrics read off the run's own spans and counters: `serve.*`,
/// the exact `wal.*` counts, `checkpoint.*`, `worker.*`, `mover.*`,
/// `online.*` and the hot/cold split of `segment.*`.
pub fn from_run(spec: &Spec, m: &Measured) -> Values {
    let served = &m.served;
    let lat = |unit, keep: &dyn Fn(&Stmt) -> bool| latencies(&m.stream, served, unit, keep);
    let oltp_us = lat(1e3, &|s| s.shape.is_oltp());
    let olap_ms = lat(1e6, &|s| !s.shape.is_oltp());
    let mut v = Values::from([
        (
            "serve.insert_p50_us",
            quantile_or_zero(&lat(1e3, &|s| s.shape == Shape::Insert), 0.5),
        ),
        (
            "serve.update_p50_us",
            quantile_or_zero(&lat(1e3, &|s| s.shape == Shape::Update), 0.5),
        ),
        (
            "serve.select_p50_us",
            quantile_or_zero(&lat(1e3, &|s| s.shape == Shape::Select), 0.5),
        ),
        ("serve.oltp_p99_us", quantile_or_zero(&oltp_us, 0.99)),
        ("serve.oltp_p999_us", quantile_or_zero(&oltp_us, 0.999)),
        (
            "serve.aggregate_p50_ms",
            quantile_or_zero(&lat(1e6, &|s| s.shape == Shape::Aggregate), 0.5),
        ),
        (
            "serve.join_p50_ms",
            quantile_or_zero(&lat(1e6, &|s| s.shape == Shape::Join), 0.5),
        ),
        ("serve.olap_p99_ms", quantile_or_zero(&olap_ms, 0.99)),
        (
            "serve.max_stall_ms",
            oltp_us.iter().copied().fold(0.0, f64::max) / 1e3,
        ),
        ("serve.samples", served.range.len() as f64),
    ]);

    let writes = m.stream[served.range.clone()]
        .iter()
        .filter(|s| matches!(s.shape, Shape::Insert | Shape::Update))
        .count();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let wal = &served.wal;
    v.extend([
        ("wal.records", wal.records as f64),
        ("wal.frame_bytes", wal.frame_bytes as f64),
        ("wal.syncs", wal.syncs as f64),
        (
            "wal.records_per_sync",
            ratio(wal.records as f64, wal.syncs as f64),
        ),
        (
            "wal.bytes_per_stmt",
            ratio(wal.frame_bytes as f64, writes as f64),
        ),
        ("wal.retries", wal.retries as f64),
    ]);

    let (cp_ms, cp_bytes, cp_stall) = served.checkpoint.map_or((0.0, 0.0, 0.0), |c| {
        (
            (c.end_ns - c.start_ns) as f64 / 1e6,
            c.bytes as f64,
            worst_overlapping_ms(&served.timings, c.start_ns, c.end_ns),
        )
    });
    let w = &served.worker;
    v.extend([
        ("checkpoint.write_ms", cp_ms),
        ("checkpoint.bytes", cp_bytes),
        ("checkpoint.stall_ms", cp_stall),
        ("worker.slices", w.slices as f64),
        ("worker.rows_remapped", w.rows_remapped as f64),
        ("worker.busy_ms", w.slice_ns as f64 / 1e6),
        ("worker.ns_per_row", w.ns_per_row().unwrap_or(0.0)),
        ("worker.jobs_completed", w.jobs_completed as f64),
        ("worker.jobs_retracted", w.jobs_retracted as f64),
        ("worker.slice_panics", w.slice_panics as f64),
        (
            "worker.drain_ms",
            (served.drained_ns - served.served_ns) as f64 / 1e6,
        ),
        (
            "column_store.delta_tail_entries",
            served.tail_entries as f64,
        ),
        ("mover.apply_layout_ms", m.built.times.apply_layout_ms),
        ("mover.moves", m.built.times.moves as f64),
        ("mover.demote_ms", m.built.times.demote_ms),
    ]);

    let online = served.online.clone().unwrap_or_default();
    let observe_us: Vec<f64> = online
        .observe_ns
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    v.extend([
        ("online.observe_us_p50", quantile_or_zero(&observe_us, 0.5)),
        ("online.observe_us_p99", quantile_or_zero(&observe_us, 0.99)),
        (
            "online.busy_share",
            (online.observe_ns.iter().sum::<u64>() + online.apply_ns) as f64
                / 1e9
                / served.window_s(),
        ),
        ("online.replans", online.replans as f64),
        ("online.apply_ms_total", online.apply_ns as f64 / 1e6),
        ("online.model_refits", online.model_refits as f64),
        ("online.drift_overall", online.drift_overall),
        ("online.merges_scheduled", online.merges_scheduled as f64),
        ("online.retracts", online.retracts as f64),
        (
            "online.final_layout_digest",
            match served.online {
                Some(_) => fnv32(&m.built.db.current_layout().to_json()),
                None => 0.0,
            },
        ),
    ]);

    let cold = spec.kind == Kind::ColdTier;
    let split = |unit, shape: Shape, is_cold: bool| match cold {
        true => quantile_or_zero(&lat(unit, &|s| s.shape == shape && s.cold == is_cold), 0.5),
        false => 0.0,
    };
    v.extend([
        (
            "segment.cold_scan_ms_p50",
            split(1e6, Shape::Aggregate, true),
        ),
        ("segment.cold_point_us_p50", split(1e3, Shape::Select, true)),
        ("segment.hot_point_us_p50", split(1e3, Shape::Select, false)),
    ]);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsd_types::Json;

    /// `BENCHMARK.json` at the repository root declares exactly the catalog
    /// above and the four workloads.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let declared = |key: &str, with_bound: bool| -> Vec<(String, String, String, f64)> {
            doc.get(key)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).unwrap().as_str().unwrap().to_string();
                    let bound = match with_bound {
                        true => m.get("bound").unwrap().as_f64().unwrap(),
                        false => 0.0,
                    };
                    (s("name"), s("unit"), s("better"), bound)
                })
                .collect()
        };
        let catalog = |defs: &[Def]| -> Vec<(String, String, String, f64)> {
            defs.iter()
                .map(|d| {
                    (
                        d.name.into(),
                        d.unit.into(),
                        d.better.name().into(),
                        d.bound,
                    )
                })
                .collect()
        };
        assert_eq!(declared("end_to_end", true), catalog(&END_TO_END));
        assert_eq!(declared("per_layer", false), catalog(&PER_LAYER));
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).unwrap().as_str().unwrap().to_string();
                (s("name"), s("why"))
            })
            .collect();
        let specs: Vec<(String, String)> = crate::workloads::SPECS
            .iter()
            .map(|s| (s.name.into(), crate::workloads::why(s.kind).into()))
            .collect();
        assert_eq!(workloads, specs);
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64().unwrap(),
            crate::DEFAULT_SECONDS
        );
    }

    #[test]
    fn catalog_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        assert!(names.iter().all(|n| n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
    }

    #[test]
    fn stall_is_the_worst_statement_overlapping_the_span() {
        let t = |start_ns, dur_ns| Timing { start_ns, dur_ns };
        let timings = [
            t(0, 5_000_000),
            t(10_000_000, 1_000_000),
            t(30_000_000, 9_000_000),
        ];
        // [8ms, 12ms] overlaps only the second statement.
        assert_eq!(worst_overlapping_ms(&timings, 8_000_000, 12_000_000), 1.0);
        // [4ms, 31ms] overlaps all three.
        assert_eq!(worst_overlapping_ms(&timings, 4_000_000, 31_000_000), 9.0);
        assert_eq!(worst_overlapping_ms(&timings, 50_000_000, 60_000_000), 0.0);
    }
}
