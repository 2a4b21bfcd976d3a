//! Result plumbing and the statistics the workloads report.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use f2c_core::F2cCity;

use crate::Args;

/// What one workload measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: requests issued plus readings offered.
    pub attempted: u64,
    /// Failed operations: requests shed (capacity, deadline or fault),
    /// unanswerable or answered with an error, plus readings lost at a
    /// downed node.
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines: every metric with its unit, including the
    /// workload-specific ones that are not part of the result line.
    pub notes: Vec<String>,
}

impl Report {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Records a metric of the result line and prints it as a note.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
        self.note(name, crate::unit_of(name), value);
    }

    /// Prints a value without adding it to the result line.
    pub fn note(&mut self, name: &str, unit: &str, value: f64) {
        self.notes.push(format!("{name:<32} {value:>14.4} {unit}"));
    }

    /// Sets the end-to-end metrics every workload shares.
    pub fn end_to_end(
        &mut self,
        setup: &[f64],
        throughput: &[f64],
        rss_mb: f64,
        bytes_per_record: f64,
    ) {
        self.put("setup_s", median(setup));
        self.put("peak_rss_mb", rss_mb);
        self.put("throughput_per_s", median(throughput));
        self.put("bytes_per_record", bytes_per_record);
        self.note(
            "ops_failed_ratio",
            "ratio",
            ratio(self.failed, self.attempted),
        );
        let per_loop: Vec<String> = throughput.iter().map(|v| format!("{v:.0}")).collect();
        self.notes.push(format!(
            "({} timed loops, each after its own set-up; throughput per loop: {})",
            throughput.len(),
            per_loop.join(" ")
        ));
    }
}

/// Timed loops per run, at least.
const MIN_LOOPS: usize = 3;

/// Runs `unit` once as a warm-up that fills the allocator's heap, reads
/// the process's peak memory, then runs it again until `args.seconds` of
/// loop time are measured. `absorb` takes each timed unit's figures and
/// returns its loop time; every unit is dropped before the next starts,
/// so the peak is that of one unit. Returns the peak, in MB.
pub fn repeat<U>(
    args: &Args,
    mut unit: impl FnMut() -> Result<U, String>,
    mut absorb: impl FnMut(U) -> f64,
) -> Result<f64, String> {
    drop(unit()?);
    let rss_mb = peak_rss_mb();
    let (mut measured, mut loops) = (0.0, 0);
    while measured < args.seconds || loops < MIN_LOOPS {
        measured += absorb(unit()?);
        loops += 1;
    }
    Ok(rss_mb)
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile (0 for an empty sample).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, read from `.git` when there is one.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_owned(),
        Err(_) => return "unknown".to_owned(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return hash.trim().to_owned();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|hash| hash.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The run's environment: cores, pinned threads, commit and compiler.
pub fn environment_json(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"nproc\": {nproc}, \"threads\": {}, \"commit\": \"{}\", \"rustc\": \"{}\", \
         \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        args.threads,
        commit(),
        rustc_version(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )
}

/// Encoded uplink bytes on both hops per cloud-stored record.
pub fn bytes_per_record(city: &F2cCity) -> f64 {
    let (up1, up2) = city.uplink_flush_bytes();
    ratio(up1 + up2, city.cloud().store().len() as u64)
}

/// Per-layer metrics the city counts itself: deferred flush waves,
/// anti-entropy outcomes and the share of sim-time spans its trace rings
/// dropped.
pub fn city_layer_metrics(report: &mut Report, city: &F2cCity) {
    let incidents = city.timeline().summary();
    let deferred: u64 = ["flush-blocked", "shipment-lost", "shipment-corrupted"]
        .iter()
        .filter_map(|k| incidents.get(k))
        .sum();
    report.put("flush.deferred_waves", deferred as f64);
    let snapshot = city.metrics().snapshot();
    let heal = |kind: &str| {
        snapshot
            .counter(&format!("heal_outcomes{{service=sketch,kind={kind}}}"))
            .unwrap_or(0) as f64
    };
    report.put("anti_entropy.healed", heal("healed"));
    report.put("anti_entropy.blocked", heal("blocked"));
    let dropped: u64 = city.tracer().dropped_by_phase().values().sum();
    let kept = city.tracer().span_count() as u64;
    report.put("obs.trace_dropped_share", ratio(dropped, dropped + kept));
}

/// Where a traced run writes its spans.
pub fn spans_path(args: &Args) -> PathBuf {
    PathBuf::from(format!(
        "perfbench/out/spans-{}-seed{}.csv",
        args.workload, args.seed
    ))
}
