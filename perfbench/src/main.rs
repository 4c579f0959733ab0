//! `soct-perfbench`: the repository benchmark.
//!
//! ```text
//! soct-perfbench --workload sl-large|l-dstar|serve-mix --seed N --seconds S
//!                --trace 0|1 [--heldout-seed N] [--soct PATH] [--out-dir DIR]
//! ```
//!
//! Every input is generated from `--seed`; the program under test only
//! receives the generated inputs. With `--trace 0` the last stdout line
//! carries the end-to-end metrics, with `--trace 1` the per-layer ones
//! (see `perfbench/README.md` for what each metric means). Every output is
//! checked against a reference computed by another code path, outside the
//! timed region. `--heldout-seed` repeats the run on a second seed, in a
//! process of its own, and prints its result line first, so a gain can be
//! confirmed on a seed nobody tuned against.

mod inproc;
mod loadgen;
mod serve;
mod spin;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What a workload run produced.
pub struct Outcome {
    /// Operations attempted in the measured region.
    pub attempted: u64,
    /// Failed, refused, or wrong operations among them.
    pub failed: u64,
    /// End-to-end metrics (reported with `--trace 0`).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics, and end-to-end figures too noisy to gate
    /// on (printed always, on the result line with `--trace 1`).
    pub per_layer: Vec<Metric>,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
}

/// Settings shared by every workload.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub soct: PathBuf,
    pub out_dir: PathBuf,
}

const WORKLOADS: [&str; 3] = ["sl-large", "l-dstar", "serve-mix"];

/// End-to-end metrics, reported by every workload with `--trace 0`; the
/// same names and units are listed in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("verdict_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_rate", "ratio"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a
/// layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 48] = [
    ("verdict_ms_p90", "ms"),
    ("rules_per_s", "1/s"),
    ("parser.parse_ms", "ms"),
    ("parser.mb_per_s", "MB/s"),
    ("core.derivable_ms", "ms"),
    ("core.find_shapes_ms", "ms"),
    ("core.dynsimpl_ms", "ms"),
    ("graph.build_ms", "ms"),
    ("graph.scc_ms", "ms"),
    ("pipeline.traced_verdict_ms", "ms"),
    ("pipeline.residual_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("storage.relaxed_queries", "count"),
    ("storage.exact_queries", "count"),
    ("storage.pruned_nodes", "count"),
    ("core.db_shapes", "count"),
    ("core.shapes_derived", "count"),
    ("core.simplified_tgds", "count"),
    ("graph.nodes", "count"),
    ("graph.edges", "count"),
    ("graph.special_edges", "count"),
    ("graph.special_sccs", "count"),
    ("serve.req_ms_p99", "ms"),
    ("serve.write_ms_p50", "ms"),
    ("serve.write_ms_p99", "ms"),
    ("serve.slo_rps", "1/s"),
    ("serve.check_miss_ms_p50", "ms"),
    ("serve.check_hit_ms_p50", "ms"),
    ("serve.check_live_ms_p50", "ms"),
    ("loadgen.lag_ms_p50", "ms"),
    ("loadgen.lag_ms_p99", "ms"),
    ("serve.service_us_p50.check", "us"),
    ("serve.service_us_p50.db", "us"),
    ("serve.wire_residual_ms_p50", "ms"),
    ("core.phase_us.parse", "us"),
    ("core.phase_us.fingerprint", "us"),
    ("core.phase_us.lookup", "us"),
    ("core.phase_us.shapes", "us"),
    ("core.phase_us.graph", "us"),
    ("core.phase_us.comp", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.designed_hit_share", "ratio"),
    ("livedb.revalidations", "count"),
    ("wal.appends", "count"),
    ("wal.fsyncs", "count"),
    ("wal.checkpoints", "count"),
    ("wal.bytes_per_user_byte", "ratio"),
    ("serve.shed", "count"),
];

/// `given` in the order and units of `list`, with 0 for a metric the
/// workload does not produce. A name outside `list` is a bug.
fn complete(list: &[(&'static str, &'static str)], given: &[Metric]) -> Vec<Metric> {
    for m in given {
        assert!(
            list.iter()
                .any(|(name, unit)| *name == m.name && *unit == m.unit),
            "metric {} ({}) is not in the benchmark's list",
            m.name,
            m.unit
        );
    }
    list.iter()
        .map(|&(name, unit)| {
            let value = given
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            metric(name, value, unit)
        })
        .collect()
}

fn parse_args() -> Result<(String, Opts, Option<u64>), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut heldout = None;
    let mut soct = None;
    let mut out_dir = PathBuf::from(".bench_out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(parse_num::<u64>(&flag, &value()?)?),
            "--seconds" => seconds = Some(parse_num::<f64>(&flag, &value()?)?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
                })
            }
            "--heldout-seed" => heldout = Some(parse_num::<u64>(&flag, &value()?)?),
            "--soct" => soct = Some(PathBuf::from(value()?)),
            "--out-dir" => out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got `{workload}`"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let opts = Opts {
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        soct: soct.unwrap_or_else(|| PathBuf::from("target/release/soct")),
        out_dir,
    };
    Ok((workload, opts, heldout))
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag} expects a number, got `{v}`"))
}

fn run(workload: &str, opts: &Opts) -> Result<Outcome, String> {
    // Spinners hide vCPU wake-up latency, which only the served requests
    // wait on; the in-process workloads are single-threaded closed loops
    // with no wake-ups to hide.
    let (spinners, note) = if workload != "serve-mix" {
        (None, None)
    } else {
        let (s, note) = spin::Spinners::start();
        (Some(s), note)
    };
    let mut outcome = match workload {
        "sl-large" => inproc::run(inproc::Kind::SlLarge, opts),
        "l-dstar" => inproc::run(inproc::Kind::LDstar, opts),
        "serve-mix" => serve::run(opts),
        _ => unreachable!("validated in parse_args"),
    };
    drop(spinners);
    if let (Ok(o), Some(note)) = (&mut outcome, note) {
        o.notes.push(note);
    }
    outcome
}

/// Prints the human-readable lines and returns the JSON result line.
fn report(workload: &str, seed: u64, trace: bool, o: &Outcome) -> String {
    for n in &o.notes {
        println!("# {workload} seed={seed}: {n}");
    }
    let error_rate = o.failed as f64 / o.attempted.max(1) as f64;
    println!(
        "{workload} seed={seed} error_rate = {error_rate} ratio ({} of {} operations failed)",
        o.failed, o.attempted
    );
    let end_to_end = complete(&END_TO_END, &o.end_to_end);
    let per_layer = complete(&PER_LAYER, &o.per_layer);
    let printed = if trace { &per_layer } else { &o.per_layer };
    for m in end_to_end.iter().chain(printed) {
        println!("{workload} seed={seed} {} = {} {}", m.name, m.value, m.unit);
    }
    let chosen = if trace { &per_layer } else { &end_to_end };
    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.failed == 0 && o.attempted > 0,
        o.attempted,
        o.failed
    );
    for (i, m) in chosen.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            line,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    line.push_str("}}");
    line
}

fn main() -> ExitCode {
    let (workload, opts, heldout) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("soct-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(seed) = heldout {
        if let Err(e) = run_heldout(seed) {
            eprintln!("soct-perfbench: {workload} (held-out seed {seed}): {e}");
            return ExitCode::FAILURE;
        }
    }
    finish(&workload, &opts)
}

/// Runs the held-out seed in a process of its own, so none of its state
/// (peak RSS above all) leaks into the main seed's figures, and prints
/// its output with the result line prefixed `heldout`.
fn run_heldout(seed: u64) -> Result<(), String> {
    let mut args: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--heldout-seed" => {
                it.next();
            }
            "--seed" => {
                it.next();
                args.extend(["--seed".to_string(), seed.to_string()]);
            }
            _ => args.push(a),
        }
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(&args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        print!("{stdout}");
        return Err(format!("exited with {}", out.status));
    }
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for l in lines {
        println!("{l}");
    }
    println!("heldout {last}");
    Ok(())
}

fn finish(workload: &str, opts: &Opts) -> ExitCode {
    match run(workload, opts) {
        Ok(o) => {
            println!("{}", report(workload, opts.seed, opts.trace, &o));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("soct-perfbench: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{entry} missing from BENCHMARK.json");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn missing_metrics_read_zero() {
        let done = complete(&END_TO_END, &[metric("peak_rss_mb", 5.0, "MB")]);
        assert_eq!(done.len(), END_TO_END.len());
        assert_eq!(done[2].value, 5.0);
        assert_eq!(done[0].value, 0.0);
    }
}
