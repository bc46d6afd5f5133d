//! `bench_e2e` — the repository's end-to-end benchmark.
//!
//! Four workloads, each measured with tracing off for the end-to-end
//! metrics and replayed stage by stage for the per-layer metrics; see
//! `README.md` beside this file for what each workload loads and why.
//!
//! ```text
//! bench_e2e [--seed N] [--seconds S] [--smoke] [--repeat-check]
//!           [--compare FILE] [--out FILE] [--spans FILE]
//! bench_e2e --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--workload` one run is made and the last line is the driver's
//! result object. Without it every workload runs, untraced then traced,
//! each run in a child process of its own, and the last thing printed is
//! one JSON document.

mod cases;
mod daemon;
mod inproc;
mod inputs;
mod json;
mod layers;
mod metrics;
mod procstat;
mod replay;
mod stats;
mod trace;

use inputs::Size;
use json::Json;
use metrics::{Better, MetricDef, RunResult, END_TO_END};
use procstat::Family;
use std::process::ExitCode;
use std::time::Duration;
use trace::Tracer;

/// The workloads, in the order they run. Later issues refer to these
/// names.
pub const WORKLOADS: [&str; 4] =
    ["catalogue_inproc", "poly_faulted_fulldecode", "daemon_socket_mix", "poly_chaos_socket"];

/// Seconds one run measures unless `--seconds` says otherwise
/// (`run_seconds` of `BENCHMARK.json`).
const RUN_SECONDS: f64 = 20.0;

const USAGE: &str = "usage: bench_e2e [--seed N] [--seconds S] [--smoke] [--repeat-check] \
[--compare FILE] [--out FILE] [--spans FILE]\n       bench_e2e --workload NAME --seed N \
--seconds S --trace 0|1";

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat_check: bool,
    compare: Option<String>,
    out: Option<String>,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        repeat_check: false,
        compare: None,
        out: None,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(WORKLOADS.iter().copied().find(|w| *w == name).ok_or_else(|| {
                        format!("unknown workload {name:?}; one of {WORKLOADS:?}")
                    })?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|_| "bad --seconds".to_string())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--smoke" => args.smoke = true,
            "--repeat-check" => args.repeat_check = true,
            "--compare" => args.compare = Some(value()?),
            "--out" => args.out = Some(value()?),
            "--spans" => args.spans = Some(value()?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// One run of one workload, followed by the check that it left no
/// process behind.
fn run(
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    tracer: &mut Tracer,
) -> Result<RunResult, String> {
    let setups = if size == Size::Full { inproc::SETUPS } else { 1 };
    let mut family = Family::default();
    let inproc_run = |build: &dyn Fn() -> inproc::Inproc,
                      twin: Option<&dyn Fn() -> inproc::Inproc>,
                      tracer: &mut Tracer,
                      family: &mut Family| {
        if trace {
            inproc::run_traced(build, twin, seconds, tracer, family).map(inproc::Traced::finish)
        } else {
            inproc::run_end_to_end(build, seconds, setups, family)
        }
    };
    let mut result = match workload {
        "catalogue_inproc" => {
            inproc_run(&|| inproc::catalogue_inproc(seed, size), None, tracer, &mut family)
        }
        "poly_faulted_fulldecode" => {
            inproc_run(&|| inproc::poly_faulted_fulldecode(seed, size), None, tracer, &mut family)
        }
        "poly_chaos_socket" => inproc_run(
            &|| inproc::poly_chaos_socket(seed, size, false),
            Some(&|| inproc::poly_chaos_socket(seed, size, true)),
            tracer,
            &mut family,
        ),
        "daemon_socket_mix" if trace => {
            daemon::run_traced(seed, size, seconds, tracer, &mut family).map(inproc::Traced::finish)
        }
        "daemon_socket_mix" => daemon::run_end_to_end(seed, seconds, setups, &mut family),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    let alive = family.survivors(Duration::from_secs(3));
    if !alive.is_empty() {
        result.violations.push(format!("child processes survived the run: {}", alive.join(", ")));
    }
    Ok(result)
}

fn print_run(result: &RunResult, seed: u64) {
    let kind = if result.traced { "traced replay" } else { "end to end" };
    println!(
        "== {} — {kind} (seed {seed}, input digest {:016x}) ==",
        result.workload, result.digest
    );
    for (name, value) in &result.metrics {
        let def = result.def(name);
        let unit = def.map_or("", |m| m.unit);
        let bound = def
            .filter(|m| m.bound > 0.0)
            .map(|m| format!("  [may worsen by {:.0} %]", m.bound * 100.0))
            .unwrap_or_default();
        println!("  {name:<32} {value:>16.6} {unit}{bound}");
    }
    if !result.traced {
        println!("  {:<32} {:>16.6} share", "failed_share", result.failed_share());
        println!("  {:<32} {:>16} count", "sample_count", result.attempted);
        println!("  {:<32} {:>16.6} ms", "cpu_ms_per_prepare", result.cpu_ms_per_prepare);
        let (pct, value) = result.prepare_tail;
        println!("  {:<32} {value:>16.6} ms  (p{pct})", "prepare tail");
        println!("  {:<32} {:>16.6} share", "hypervisor steal", result.steal_share);
    }
    for violation in &result.violations {
        println!("  WRONG: {violation}");
    }
}

/// Marks the line a single-workload run prints for the full run that
/// spawned it: everything the driver's result object has no key for.
const RECORD_PREFIX: &str = "record: ";

/// One run as the full run's document keeps it.
fn run_record(result: &RunResult) -> Json {
    Json::obj([
        ("digest", Json::Str(format!("{:016x}", result.digest))),
        ("correct", Json::Bool(result.correct())),
        ("sample_count", Json::Num(result.attempted as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("failed_share", Json::Num(result.failed_share())),
        ("cpu_ms_per_prepare", Json::Num(result.cpu_ms_per_prepare)),
        ("steal_share", Json::Num(result.steal_share)),
        (
            "prepare_tail",
            Json::obj([
                ("percentile", Json::Num(result.prepare_tail.0)),
                ("ms", Json::Num(result.prepare_tail.1)),
            ]),
        ),
        ("metrics", result.metrics_json(true)),
    ])
}

/// Runs one workload in a process of its own — exactly what the driver
/// does, so that peak memory, warm caches and leftover threads of one
/// workload never reach the next — and returns its record.
fn run_in_child(args: &Args, workload: &str, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut command = std::process::Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child; its stderr is ours.
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut record = None;
    for line in stdout.lines() {
        match line.strip_prefix(RECORD_PREFIX) {
            Some(json) => record = Some(Json::parse(json)?),
            // The driver's result object is for the driver.
            None if line.starts_with('{') => {}
            None => println!("{line}"),
        }
    }
    record.ok_or_else(|| format!("the {workload} run ended with {} and no record", output.status))
}

/// Every workload once: untraced for `seconds`, then traced for half of
/// that. Returns the `workloads` object of the document.
fn run_all(args: &Args, seconds: f64) -> Result<Json, String> {
    let mut workloads = Vec::new();
    for workload in WORKLOADS {
        let end_to_end = run_in_child(args, workload, seconds, false)?;
        let traced = run_in_child(args, workload, seconds / 2.0, true)?;
        let correct = [&end_to_end, &traced]
            .iter()
            .all(|record| record.get("correct") == Some(&Json::Bool(true)));
        let mut fields: Vec<(String, Json)> = Vec::new();
        if let Json::Obj(record) = end_to_end {
            for (key, value) in record {
                match key.as_str() {
                    "correct" => fields.push((key, Json::Bool(correct))),
                    "metrics" => fields.push(("end_to_end".to_string(), value)),
                    _ => fields.push((key, value)),
                }
            }
        }
        fields
            .push(("per_layer".to_string(), traced.get("metrics").cloned().unwrap_or(Json::Null)));
        workloads.push((workload, Json::Obj(fields)));
    }
    Ok(Json::obj(workloads))
}

fn all_correct(workloads: &Json) -> bool {
    WORKLOADS
        .iter()
        .all(|w| workloads.get(w).and_then(|r| r.get("correct")) == Some(&Json::Bool(true)))
}

fn document(args: &Args, seconds: f64, workloads: Json) -> Json {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("benchmark", Json::str("bench_e2e")),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(args.smoke)),
        ("cores", Json::Num(cores as f64)),
        ("workloads", workloads),
    ])
}

/// One end-to-end metric of one workload in an older or a newer
/// document.
struct Reading {
    value: f64,
    spread: Option<f64>,
}

fn reading(doc: &Json, workload: &str, metric: &str) -> Option<Reading> {
    let entry = doc.get("workloads")?.get(workload)?.get("end_to_end")?.get(metric)?;
    Some(Reading {
        value: entry.get("value")?.as_f64()?,
        spread: entry.get("spread").and_then(Json::as_f64),
    })
}

/// By what share of `old` the metric got worse (negative: better).
fn worsening(def: &MetricDef, old: f64, new: f64) -> f64 {
    match def.better {
        Better::Lower => (new - old) / old,
        Better::Higher => (old - new) / old,
    }
}

/// Share of a run's wall time the hypervisor may steal before `--compare`
/// stops judging the run's timings.
const STEAL_LIMIT: f64 = 0.05;

/// Prints old/new/ratio rows for every workload × end-to-end metric and
/// returns how many regressed. With `noise`, a metric whose within-run
/// spread exceeds its bound, or whose run lost more than [`STEAL_LIMIT`]
/// to the hypervisor, is `unresolved`, not judged.
fn compare(old: &Json, new: &Json, noise: bool) -> usize {
    let mut regressed = 0;
    println!(
        "{:<24} {:<20} {:>14} {:>14} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "old", "new", "new/old", "worse by", "bound"
    );
    for workload in WORKLOADS {
        let field = |doc: &Json, key: &str| {
            doc.get("workloads")?.get(workload)?.get(key).and_then(Json::as_f64)
        };
        let stolen =
            [old, new].iter().filter_map(|doc| field(doc, "steal_share")).fold(0.0, f64::max);
        for def in END_TO_END {
            let (Some(a), Some(b)) =
                (reading(old, workload, def.name), reading(new, workload, def.name))
            else {
                println!("{workload:<24} {:<20} missing from one side", def.name);
                continue;
            };
            let worse = worsening(def, a.value, b.value);
            let spread = a.spread.unwrap_or(0.0).max(b.spread.unwrap_or(0.0));
            let verdict = if noise && (spread > def.bound || stolen > STEAL_LIMIT) {
                "unresolved"
            } else if worse > def.bound {
                regressed += 1;
                "regressed"
            } else {
                "ok"
            };
            println!(
                "{workload:<24} {:<20} {:>14.6} {:>14.6} {:>9.4} {:>8.2}% {:>6.0}%  {verdict}",
                def.name,
                a.value,
                b.value,
                b.value / a.value,
                worse * 100.0,
                def.bound * 100.0
            );
        }
        if let (Some(a), Some(b)) = (field(old, "failed_share"), field(new, "failed_share")) {
            let verdict = if b > a {
                regressed += 1;
                "regressed"
            } else {
                "ok"
            };
            println!(
                "{workload:<24} {:<20} {a:>14.6} {b:>14.6} {:>9} {:>9} {:>7}  {verdict}",
                "failed_share", "", "", "any"
            );
        }
    }
    regressed
}

fn full(args: &Args) -> Result<bool, String> {
    daemon::sibling("camelot-serve")?;
    daemon::sibling("camelot-node")?;
    if args.spans.is_some() {
        return Err("--spans goes with --workload: one file holds one traced run".to_string());
    }
    let seconds = args.seconds.unwrap_or(if args.smoke { 0.6 } else { RUN_SECONDS });
    let workloads = run_all(args, seconds)?;
    let mut good = all_correct(&workloads);
    let doc = document(args, seconds, workloads);

    if args.repeat_check {
        println!("== repeat check: the whole set once more, same code, same seed ==");
        let again = run_all(args, seconds)?;
        good &= all_correct(&again);
        let regressed = compare(&doc, &document(args, seconds, again), false);
        println!("repeat check: {regressed} metric(s) beyond their bound");
        good &= regressed == 0;
    }
    if let Some(path) = &args.compare {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let old = Json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
        println!("== compare: {path} (old) against this run (new) ==");
        let regressed = compare(&old, &doc, true);
        println!("compare: {regressed} metric(s) regressed");
        good &= regressed == 0;
    }
    if let Some(path) = &args.out {
        std::fs::write(path, doc.encode_pretty(4)).map_err(|e| format!("writing {path}: {e}"))?;
    }
    println!("{}", doc.encode());
    Ok(good)
}

fn driver(args: &Args, workload: &'static str) -> Result<bool, String> {
    let seconds = args.seconds.unwrap_or(RUN_SECONDS);
    let size = if args.smoke { Size::Smoke } else { Size::Full };
    let mut tracer = Tracer::new();
    let result = run(workload, args.seed, seconds, args.trace, size, &mut tracer)?;
    print_run(&result, args.seed);
    if let Some(path) = &args.spans {
        // Spans stay in memory while a run measures; this is the end.
        std::fs::write(path, tracer.to_json().encode())
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    println!("{RECORD_PREFIX}{}", run_record(&result).encode());
    println!("{}", result.driver_json().encode());
    Ok(result.correct())
}

fn main() -> ExitCode {
    // One thread budget for every layer that splits work, whatever the
    // environment says: the workloads are sized for it.
    camelot::core::set_thread_budget(1);
    let outcome = parse_args().and_then(|args| match args.workload {
        Some(workload) => driver(&args, workload),
        None => full(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("bench_e2e: a workload returned a wrong answer or broke an invariant");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("bench_e2e: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = &END_TO_END[1];
        let higher = &END_TO_END[2];
        assert_eq!((lower.better, higher.better), (Better::Lower, Better::Higher));
        assert!((worsening(lower, 100.0, 112.0) - 0.12).abs() < 1e-12);
        assert!((worsening(higher, 100.0, 88.0) - 0.12).abs() < 1e-12);
        assert!(worsening(lower, 100.0, 90.0) < 0.0);
    }

    #[test]
    fn compare_flags_regressions_and_leaves_wide_spreads_unresolved() {
        let doc_with_steal = |latency: f64, spread: f64, failed_share: f64, steal: f64| {
            let workloads = WORKLOADS.map(|w| {
                let metrics = END_TO_END.iter().map(|m| {
                    let value = if m.name == "prepare_p50_ms" { latency } else { 1.0 };
                    let spread = if m.name == "prepare_p50_ms" { spread } else { 0.0 };
                    (
                        m.name,
                        Json::obj([("value", Json::Num(value)), ("spread", Json::Num(spread))]),
                    )
                });
                (
                    w,
                    Json::obj([
                        ("failed_share", Json::Num(failed_share)),
                        ("steal_share", Json::Num(steal)),
                        ("end_to_end", Json::obj(metrics)),
                    ]),
                )
            });
            Json::obj([("workloads", Json::obj(workloads))])
        };
        let doc =
            |latency, spread, failed_share| doc_with_steal(latency, spread, failed_share, 0.0);
        assert_eq!(compare(&doc(100.0, 0.0, 0.0), &doc_with_steal(130.0, 0.0, 0.0, 0.2), true), 0);
        assert_eq!(compare(&doc(100.0, 0.0, 0.0), &doc(105.0, 0.0, 0.0), true), 0);
        assert_eq!(compare(&doc(100.0, 0.0, 0.0), &doc(130.0, 0.0, 0.0), true), WORKLOADS.len());
        assert_eq!(compare(&doc(100.0, 0.0, 0.0), &doc(130.0, 0.3, 0.0), true), 0);
        assert_eq!(compare(&doc(100.0, 0.0, 0.0), &doc(130.0, 0.3, 0.0), false), WORKLOADS.len());
        assert_eq!(compare(&doc(100.0, 0.0, 0.0), &doc(100.0, 0.0, 0.1), true), WORKLOADS.len());
    }
}
