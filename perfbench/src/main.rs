//! Wall-clock benchmark of the F2C write and read paths.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest_flush|serve_steady|serve_mixed|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds the Barcelona deployment at 1/2000 scale through
//! the public API of `f2c-core`, `f2c-query` and `f2c-compress`, makes
//! its inputs from `--seed` before any timed region, repeats a fixed unit
//! of work (a fresh set-up, then a timed loop) until `--seconds` of loop
//! time have been measured, and checks the program's outputs. The last
//! line of standard output is one JSON object: with `--trace 0` it holds
//! the end-to-end metrics, with `--trace 1` the per-layer metrics of a
//! traced run (spans around every call into a layer, written to
//! `perfbench/out/`). A failed output check exits with code 1 and prints
//! no result. `--workload all` runs the three workloads in turn, each in
//! its own process, and prints each one's report.

mod ingest_flush;
mod inputs;
mod measure;
mod replay;
mod serve;
mod span;

use std::process::ExitCode;

use measure::Report;

/// End-to-end metrics (`--trace 0`): every workload reports each one.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("bytes_per_record", "B"),
];

/// Per-layer metrics (`--trace 1`). A layer a workload leaves idle
/// reports 0.
const PER_LAYER: [(&str, &str); 38] = [
    ("ingest.ns_per_reading", "ns"),
    ("ingest.stored_ratio", "ratio"),
    ("flush.records_per_wave", "count"),
    ("flush.ns_per_record", "ns"),
    ("flush.deferred_waves", "count"),
    ("tsenc.encode_ns_per_record", "ns"),
    ("tsenc.decode_ns_per_record", "ns"),
    ("deflate.ns_per_record", "ns"),
    ("tsenc.columnar_share", "ratio"),
    ("tsenc.hop1_bytes_per_record", "B"),
    ("tsenc.hop2_bytes_per_record", "B"),
    ("sketch.fold_ns_per_partial", "ns"),
    ("anti_entropy.healed", "count"),
    ("anti_entropy.blocked", "count"),
    ("plan.ns_per_query", "ns"),
    ("serve.edge_cache_us_p50", "us"),
    ("serve.edge_cache_share", "ratio"),
    ("serve.source_cache_us_p50", "us"),
    ("serve.source_cache_share", "ratio"),
    ("serve.store_us_p50", "us"),
    ("serve.store_share", "ratio"),
    ("serve.scatter_us_p50", "us"),
    ("serve.scatter_share", "ratio"),
    ("cache.hit_rate", "ratio"),
    ("cache.partial_hit_rate", "ratio"),
    ("sketch.prefold_share", "ratio"),
    ("store.records_scanned_per_req", "count"),
    ("admission.shed_fog1", "count"),
    ("admission.shed_fog2", "count"),
    ("admission.shed_cloud", "count"),
    ("admission.deadline_shed", "count"),
    ("scatter.legs_per_query", "count"),
    ("scatter.fanout_win_rate", "ratio"),
    ("parallel.req_per_s_1t", "1/s"),
    ("obs.trace_dropped_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.loop_covered_share", "ratio"),
    ("gen.s", "s"),
];

/// The unit of a metric of the result line.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, unit)| unit)
        .unwrap_or_else(|| panic!("{name} is not a metric of the result line"))
}

const WORKLOADS: [&str; 3] = ["ingest_flush", "serve_steady", "serve_mixed"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Worker threads for the sharded phases: pinned to at most two and
    /// to the host's cores. The `PARALLELISM` variable is ignored.
    pub threads: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        threads: cores.min(2),
    })
}

fn run_workload(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "ingest_flush" => ingest_flush::run(args),
        "serve_steady" => serve::run_steady(args),
        "serve_mixed" => serve::run_mixed(args),
        other => unreachable!("workload {other} was validated"),
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(report: &Report, trace: bool) -> String {
    let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = names
        .iter()
        .map(|&(name, unit)| {
            let value = match report.get(name) {
                Some(v) => v,
                None if trace => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// Runs the three workloads in turn, each in a fresh process, so that
/// one's peak memory cannot carry into the next.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running binary has a path");
    for workload in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            other => {
                eprintln!("perfbench: {workload} failed: {other:?}");
                return ExitCode::from(1);
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    println!("# {}", measure::environment_json(&args));
    println!(
        "== {} (seed {}, trace {}) ==",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    match run_workload(&args) {
        Ok(report) => {
            for line in &report.notes {
                println!("  {line}");
            }
            println!("{}", result_json(&report, args.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: output check failed: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}
