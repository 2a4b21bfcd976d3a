//! Experiment E2: regenerates **Fig. 7 (a)–(e)** — per-category daily
//! volume raw → after redundant-data elimination → after compression —
//! twice: once with the paper's Zip ratio, once with the measured
//! `f2c-compress` ratio, and cross-validates against the event simulation.
//!
//! The simulation table lists, per category, the raw and after-dedup
//! volumes measured on `F2cCity`'s write path, scaled back up. Its
//! compression figure is the overall ratio of the `tsenc` payloads the
//! fog-1 nodes actually shipped to their wire-encoded batches.
//!
//! Run with `cargo run --release -p f2c-bench --bin fig7`.

use f2c_bench::measure_compression_ratios;
use f2c_core::report::{gb, render_fig7};
use f2c_core::runtime::{simulate, SimConfig};
use f2c_core::traffic::TrafficModel;

fn main() {
    // (a) Analytic, paper's Zip ratio.
    let paper = TrafficModel::paper();
    println!(
        "== E2: Fig. 7 — analytic, paper Zip ratio ({:.1}% reduction) ==\n",
        (1.0 - paper.compression_ratio()) * 100.0
    );
    println!("{}", render_fig7(&paper.fig7_rows()));

    // (b) Analytic, measured ratio from this repo's codec.
    let measured = measure_compression_ratios(2017, 120, 120);
    let ours = TrafficModel::paper().with_compression_ratio(measured.overall);
    println!(
        "== E2: Fig. 7 — analytic, measured f2c-compress ratio ({:.1}% reduction) ==\n",
        measured.overall_reduction_percent()
    );
    println!("{}", render_fig7(&ours.fig7_rows()));

    // (c) Event-driven simulation at 1/1000 scale, scaled back up.
    println!("== E2: Fig. 7 — event simulation (scale 1/1000, scaled back) ==\n");
    let report = simulate(SimConfig::paper_scaled()).expect("simulation runs");
    println!("{:<22} {:>12} {:>14}", "Category", "Raw", "After dedup");
    println!("{}", "-".repeat(50));
    for (category, t) in &report.per_category {
        println!(
            "{:<22} {:>12} {:>14}",
            category.to_string(),
            gb(report.scaled_up(t.raw)),
            gb(report.scaled_up(t.after_dedup)),
        );
    }
    println!(
        "\nsim dedup rate {:.1}% | sim compression ratio {:.3} | {} readings simulated",
        report.dedup_rate() * 100.0,
        report.compression_ratio(),
        report.generated_readings
    );

    // Shape assertions: who wins and by what class of factor.
    for row in paper.fig7_rows() {
        let sim = &report.per_category[&row.category];
        let raw_err = (report.scaled_up(sim.raw) as f64 - row.raw as f64).abs() / row.raw as f64;
        assert!(
            raw_err < 0.15,
            "{}: raw diverged {raw_err:.2}",
            row.category
        );
    }
    println!("\nAll per-category raw volumes within 15% of Table I. SHAPE OK");

    // Diffable JSON artifact (analytic rows, both ratios). Hand-rendered:
    // the build environment vendors serde as a derive-only shim, and the
    // payload is flat enough that a formatter dependency buys nothing.
    let rows_json = |rows: &[f2c_core::traffic::Fig7Row]| -> String {
        rows.iter()
            .map(|r| {
                format!(
                    "    {{\"category\": \"{}\", \"raw\": {}, \"after_dedup\": {}, \
                     \"after_dedup_and_compression\": {}, \"compressed_raw\": {}}}",
                    r.category,
                    r.raw,
                    r.after_dedup,
                    r.after_dedup_and_compression,
                    r.compressed_raw
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let artifact = format!(
        "{{\n  \"experiment\": \"E2-fig7\",\n  \"paper_ratio\": {},\n  \
         \"measured_ratio\": {},\n  \"rows_paper_ratio\": [\n{}\n  ],\n  \
         \"rows_measured_ratio\": [\n{}\n  ]\n}}\n",
        paper.compression_ratio(),
        measured.overall,
        rows_json(&paper.fig7_rows()),
        rows_json(&ours.fig7_rows()),
    );
    let path = "fig7.json";
    std::fs::write(path, artifact).expect("artifact writable");
    println!("wrote {path}");
}
