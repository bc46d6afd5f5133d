//! The metric registry (names, units, bounds — `BENCHMARK.json` carries
//! the same table and a test keeps the two equal), the per-operation
//! log every workload fills, and its reduction to end-to-end metrics.

use crate::json::Json;
use crate::procstat::Usage;
use crate::stats::{median, quartile_spread, tail};
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn token(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: 0.0 }
}

/// What a user of the system sees. Every workload reports every one.
/// CPU per operation is reported beside them ([`RunResult::cpu_ms_per_prepare`])
/// and carries no bound: on this shared machine it does not repeat within
/// one (see the README).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("prepare_p50_ms", "ms", Better::Lower, 0.25),
    e2e("prepares_per_s", "1/s", Better::Higher, 0.25),
    e2e("verify_p50_ms", "ms", Better::Lower, 0.25),
    e2e("redeem_hit_p50_ms", "ms", Better::Lower, 0.25),
    e2e("requests_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
];

use Better::{Higher, Lower};

/// Single layers, from the traced replay. A workload reports 0 for a
/// layer it does not touch.
pub const PER_LAYER: &[MetricDef] = &[
    layer("core.primes_s", "s", Lower),
    layer("core.recover_s", "s", Lower),
    layer("core.spot_check_s", "s", Lower),
    layer("core.verification_evals", "count", Lower),
    layer("core.cert_encode_s", "s", Lower),
    layer("core.cert_parse_s", "s", Lower),
    layer("core.cert_bytes", "bytes", Lower),
    layer("core.replay_gap_ratio", "ratio", Lower),
    layer("core.prepare_to_verify_ratio", "ratio", Higher),
    layer("core.prepare_tail_ms", "ms", Lower),
    layer("core.prepare_tail_pct", "%", Higher),
    layer("rscode.build_s", "s", Lower),
    layer("rscode.decode_s", "s", Lower),
    layer("rscode.decode_first_s", "s", Lower),
    layer("rscode.decode_repeat_s", "s", Lower),
    layer("rscode.decode_interpolate_s", "s", Lower),
    layer("rscode.decode_xgcd_s", "s", Lower),
    layer("rscode.decode_reencode_s", "s", Lower),
    layer("rscode.decodes", "count", Lower),
    layer("rscode.erasures", "count", Lower),
    layer("rscode.errors_corrected", "count", Lower),
    layer("poly.ntt_mul_s", "s", Lower),
    layer("ff.mul_melem_s", "s", Lower),
    layer("cluster.evaluate_s", "s", Lower),
    layer("cluster.evaluate_critical_s", "s", Lower),
    layer("cluster.balance_ratio", "ratio", Lower),
    layer("problem.evaluator_build_s", "s", Lower),
    layer("triangles.eval_point_us", "us", Lower),
    layer("triangles.prepare_p50_ms", "ms", Lower),
    layer("cliques.eval_point_us", "us", Lower),
    layer("cliques.prepare_p50_ms", "ms", Lower),
    layer("partition.eval_point_us", "us", Lower),
    layer("partition.prepare_p50_ms", "ms", Lower),
    layer("algebraic.eval_point_us", "us", Lower),
    layer("algebraic.prepare_p50_ms", "ms", Lower),
    layer("csp.eval_point_us", "us", Lower),
    layer("csp.prepare_p50_ms", "ms", Lower),
    layer("cluster.round_s", "s", Lower),
    layer("cluster.task_encode_s", "s", Lower),
    layer("cluster.task_parse_s", "s", Lower),
    layer("cluster.reply_encode_s", "s", Lower),
    layer("cluster.reply_parse_s", "s", Lower),
    layer("cluster.assemble_s", "s", Lower),
    layer("cluster.transport_overhead_s", "s", Lower),
    layer("cluster.bytes_modelled", "bytes", Lower),
    layer("cluster.bytes_framed", "bytes", Lower),
    layer("cluster.symbols", "count", Lower),
    layer("cluster.rounds", "count", Lower),
    layer("cluster.pool_start_s", "s", Lower),
    layer("cluster.demotions", "count", Lower),
    layer("cluster.retries", "count", Lower),
    layer("cluster.escalations", "count", Lower),
    layer("cluster.deadline_waits", "count", Lower),
    layer("cluster.quiet_twin_prepare_ms", "ms", Lower),
    layer("store.key_s", "s", Lower),
    layer("store.put_s", "s", Lower),
    layer("store.get_hit_s", "s", Lower),
    layer("store.get_miss_s", "s", Lower),
    layer("store.hit_ratio", "ratio", Higher),
    layer("server.request_encode_s", "s", Lower),
    layer("server.request_parse_s", "s", Lower),
    layer("server.response_encode_s", "s", Lower),
    layer("server.response_parse_s", "s", Lower),
    layer("server.inproc_prepare_s", "s", Lower),
    layer("server.tcp_overhead_s", "s", Lower),
    layer("server.admission_window_s", "s", Lower),
    layer("server.coalescing_factor", "ratio", Higher),
    layer("server.prepare_tail_ms", "ms", Lower),
    layer("server.prepare_tail_pct", "%", Higher),
    layer("server.respawns", "count", Lower),
    layer("server.worker_failures", "count", Lower),
    layer("server.cpu_user_ms", "ms", Lower),
    layer("server.cpu_sys_ms", "ms", Lower),
    layer("trace.span_cover_ratio", "ratio", Higher),
    layer("trace.replays", "count", Higher),
];

/// Per-layer values by registered name.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// # Panics
    ///
    /// On a name missing from [`PER_LAYER`] — a typo in the harness.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("per-layer metric {name:?} is not registered"));
        self.0.insert(def.name, value);
    }

    /// The value set for `name`, 0 where unset.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Every registered metric in registry order, 0 where unset.
    pub fn into_metrics(self) -> Vec<(&'static str, f64)> {
        PER_LAYER.iter().map(|m| (m.name, self.get(m.name))).collect()
    }
}

/// One closed-loop operation (a catalogue pass, a prepare with its
/// verify and repeat, a daemon session).
#[derive(Clone, Debug, Default)]
pub struct OpRecord {
    /// Seconds from the start of the measured window to completion.
    pub end_s: f64,
    /// Latencies of verified-correct answers, by kind.
    pub prepare_ms: Vec<f64>,
    pub verify_ms: Vec<f64>,
    pub hit_ms: Vec<f64>,
    /// Requests issued (every verb, answered or not).
    pub requests: u32,
    /// The first thing that went wrong, if anything did.
    pub failure: Option<String>,
}

/// The outcome of one run of one workload.
pub struct RunResult {
    pub workload: &'static str,
    /// A traced run reports [`PER_LAYER`], an untraced one
    /// [`END_TO_END`].
    pub traced: bool,
    pub digest: u64,
    pub attempted: u64,
    pub failed: u64,
    /// A run can be wrong beyond its operations (a surviving child, a
    /// replay that disagrees with the engine).
    pub violations: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    /// Within-run spread of an end-to-end metric: quartile distance over
    /// median of the metric taken on five consecutive slices of the run.
    pub spreads: BTreeMap<&'static str, f64>,
    pub prepare_tail: (f64, f64),
    /// User + system CPU of the harness and all its child processes over
    /// the measured window, per correct operation (0 in a traced run).
    pub cpu_ms_per_prepare: f64,
    /// CPU time stolen by the hypervisor during the measured window, all
    /// CPUs, over the window's wall time: how disturbed the run was.
    pub steal_share: f64,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    #[cfg(test)]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The registry entry of one of this run's metrics.
    pub fn def(&self, name: &str) -> Option<&'static MetricDef> {
        let defs = if self.traced { PER_LAYER } else { END_TO_END };
        defs.iter().find(|m| m.name == name)
    }

    /// `{"value": …, "unit": …}` per metric, with its within-run spread
    /// where `spreads` is set and one was taken.
    pub fn metrics_json(&self, spreads: bool) -> Json {
        Json::obj(self.metrics.iter().map(|(name, value)| {
            let unit = self.def(name).map_or("", |m| m.unit);
            let mut fields = vec![("value", Json::Num(*value)), ("unit", Json::str(unit))];
            if let Some(spread) = self.spreads.get(name).filter(|_| spreads) {
                fields.push(("spread", Json::Num(*spread)));
            }
            (*name, Json::obj(fields))
        }))
    }

    /// The driver's result line.
    pub fn driver_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json(false)),
        ])
    }
}

const SLICES: usize = 5;

fn p50(ops: &[OpRecord], pick: fn(&OpRecord) -> &Vec<f64>) -> f64 {
    median(&ops.iter().flat_map(|op| pick(op).iter().copied()).collect::<Vec<f64>>())
}

/// The five metrics that come from the operation log alone, over `ops`
/// completed in `wall_s` seconds.
fn from_log(ops: &[OpRecord], wall_s: f64) -> [(&'static str, f64); 5] {
    let good = ops.iter().filter(|op| op.failure.is_none()).count() as f64;
    let requests: f64 = ops.iter().map(|op| f64::from(op.requests)).sum();
    [
        ("prepare_p50_ms", p50(ops, |op| &op.prepare_ms)),
        ("prepares_per_s", good / wall_s),
        ("verify_p50_ms", p50(ops, |op| &op.verify_ms)),
        ("redeem_hit_p50_ms", p50(ops, |op| &op.hit_ms)),
        ("requests_per_s", requests / wall_s),
    ]
}

/// Sets a workload up `setups` times and keeps the last: `build` is
/// timed, `tear_down` of the set-up before it is not. Returns what was
/// built and each set-up's seconds.
pub fn set_up_repeatedly<T>(
    setups: usize,
    mut build: impl FnMut() -> Result<T, String>,
    mut tear_down: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, Vec<f64>), String> {
    let started = std::time::Instant::now();
    let mut current = build()?;
    let mut seconds = vec![started.elapsed().as_secs_f64()];
    for _ in 1..setups {
        tear_down(current)?;
        let started = std::time::Instant::now();
        current = build()?;
        seconds.push(started.elapsed().as_secs_f64());
    }
    Ok((current, seconds))
}

/// Resources a run used besides its operations.
pub struct Resources {
    /// Each set-up's duration; the median is reported.
    pub setups_s: Vec<f64>,
    pub wall_s: f64,
    pub cpu_ms: f64,
    pub peak_rss_mb: f64,
    pub stolen_ms: f64,
}

impl Resources {
    /// The resources of a measured window of `wall_s` seconds between two
    /// samples of the process family.
    pub fn between(setups_s: Vec<f64>, wall_s: f64, before: Usage, after: Usage) -> Resources {
        Resources {
            setups_s,
            wall_s,
            cpu_ms: after.cpu_ms - before.cpu_ms,
            peak_rss_mb: after.peak_rss_mb,
            stolen_ms: after.stolen_ms - before.stolen_ms,
        }
    }
}

/// Reduces an operation log (ordered by completion) to the end-to-end
/// metrics of [`END_TO_END`], in that order.
pub fn summarize(
    workload: &'static str,
    digest: u64,
    ops: &[OpRecord],
    resources: &Resources,
    violations: Vec<String>,
) -> RunResult {
    let good = ops.iter().filter(|op| op.failure.is_none()).count();
    let mut values: BTreeMap<&'static str, f64> =
        from_log(ops, resources.wall_s).into_iter().collect();
    values.insert("setup_s", median(&resources.setups_s));
    values.insert("peak_rss_mb", resources.peak_rss_mb);

    let mut spreads = BTreeMap::new();
    if ops.len() >= 2 * SLICES {
        let mut per_slice: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut start_s = 0.0;
        for slice in ops.chunks(ops.len().div_ceil(SLICES)) {
            let end_s = slice.last().map_or(start_s, |op| op.end_s);
            for (name, value) in from_log(slice, (end_s - start_s).max(f64::EPSILON)) {
                per_slice.entry(name).or_default().push(value);
            }
            start_s = end_s;
        }
        for (name, slices) in per_slice {
            if let Some(spread) = quartile_spread(&slices) {
                spreads.insert(name, spread);
            }
        }
    }
    if let Some(spread) = quartile_spread(&resources.setups_s) {
        spreads.insert("setup_s", spread);
    }

    let prepares: Vec<f64> = ops.iter().flat_map(|op| op.prepare_ms.iter().copied()).collect();
    RunResult {
        workload,
        traced: false,
        digest,
        attempted: ops.len() as u64,
        failed: (ops.len() - good) as u64,
        violations,
        metrics: END_TO_END.iter().map(|m| (m.name, values[m.name])).collect(),
        spreads,
        prepare_tail: tail(&prepares),
        cpu_ms_per_prepare: resources.cpu_ms / good.max(1) as f64,
        steal_share: resources.stolen_ms / (resources.wall_s * 1e3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(end_s: f64, prepare: f64, fail: bool) -> OpRecord {
        OpRecord {
            end_s,
            prepare_ms: vec![prepare],
            verify_ms: vec![1.0],
            hit_ms: vec![2.0, 2.0],
            requests: 4,
            failure: fail.then(|| "wrong".to_string()),
        }
    }

    #[test]
    fn summary_counts_failures_and_reports_every_registered_metric() {
        let ops: Vec<OpRecord> =
            (1..=10).map(|i| op(f64::from(i), 100.0 + f64::from(i), i == 3)).collect();
        let resources = Resources {
            setups_s: vec![0.5, 0.7, 0.6],
            wall_s: 10.0,
            cpu_ms: 900.0,
            peak_rss_mb: 12.5,
            stolen_ms: 200.0,
        };
        let run = summarize("w", 7, &ops, &resources, Vec::new());
        assert_eq!((run.attempted, run.failed), (10, 1));
        assert!(!run.correct());
        assert_eq!(run.metrics.len(), END_TO_END.len());
        assert_eq!(run.metric("setup_s"), Some(0.6));
        assert_eq!(run.metric("prepare_p50_ms"), Some(105.5));
        assert_eq!(run.metric("prepares_per_s"), Some(0.9));
        assert_eq!(run.metric("requests_per_s"), Some(4.0));
        assert_eq!(run.cpu_ms_per_prepare, 100.0);
        assert_eq!(run.steal_share, 0.02);
        assert!(run.spreads.contains_key("prepare_p50_ms"));
        let line = run.driver_json();
        assert_eq!(line.get("failed"), Some(&Json::Num(1.0)));
        assert_eq!(
            line.get("metrics").and_then(|m| m.get("setup_s")).and_then(|m| m.get("unit")),
            Some(&Json::str("s"))
        );
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let manifest = Json::parse(include_str!("../../../BENCHMARK.json")).unwrap();
        let table = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            let Some(Json::Arr(rows)) = manifest.get(key) else { panic!("{key} missing") };
            rows.iter()
                .map(|row| {
                    let text = |k: &str| row.get(k).and_then(Json::as_str).unwrap().to_string();
                    (
                        text("name"),
                        text("unit"),
                        text("better"),
                        row.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let ours =
            |defs: &[MetricDef], bounded: bool| -> Vec<(String, String, String, Option<f64>)> {
                defs.iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            m.unit.to_string(),
                            m.better.token().to_string(),
                            bounded.then_some(m.bound),
                        )
                    })
                    .collect()
            };
        assert_eq!(table("end_to_end"), ours(END_TO_END, true));
        assert_eq!(table("per_layer"), ours(PER_LAYER, false));
        let Some(Json::Arr(workloads)) = manifest.get("workloads") else { panic!("workloads") };
        let names: Vec<&str> =
            workloads.iter().map(|w| w.get("name").and_then(Json::as_str).unwrap()).collect();
        assert_eq!(names, crate::WORKLOADS);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unregistered_layer_names_are_rejected() {
        Layers::default().set("cluster.tpyo_s", 1.0);
    }
}
