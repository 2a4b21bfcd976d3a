//! Cross-validation: the event-driven simulation must agree with the
//! analytic Table I model, and the F2C architecture must beat the
//! centralized baseline by the paper's factors.

use f2c_smartcity::core::baseline::{simulate_baseline, BaselineConfig};
use f2c_smartcity::core::runtime::{simulate, SimConfig};
use f2c_smartcity::core::traffic::TrafficModel;

fn f2c_small() -> SimConfig {
    let mut c = SimConfig::paper_scaled();
    c.scale = 4_000;
    c.horizon_s = 6 * 3600;
    c
}

#[test]
fn sim_and_model_agree_on_totals() {
    let report = simulate(f2c_small()).unwrap();
    let model = TrafficModel::paper();
    let totals = model.table1_totals();
    // Scale the 6-hour run to a day and back up by population.
    let day_factor = 86_400.0 / report.horizon_s as f64;
    let raw = report.scaled_up(report.raw_acct_bytes) as f64 * day_factor;
    let dedup = report.scaled_up(report.fog1_uplink_acct_bytes) as f64 * day_factor;
    let raw_err = (raw - totals.daily_fog1 as f64).abs() / totals.daily_fog1 as f64;
    let dedup_err = (dedup - totals.daily_fog2 as f64).abs() / totals.daily_fog2 as f64;
    assert!(raw_err < 0.12, "raw {:.1}% off", raw_err * 100.0);
    assert!(dedup_err < 0.15, "dedup {:.1}% off", dedup_err * 100.0);
}

#[test]
fn f2c_to_baseline_ratio_matches_table1() {
    // Table I predicts F2C ships 5.036/8.583 ≈ 58.7% of the baseline's
    // bytes to the cloud.
    let f2c = simulate(f2c_small()).unwrap();
    let mut bc = BaselineConfig::paper_scaled();
    bc.scale = 4_000;
    bc.horizon_s = 6 * 3600;
    let baseline = simulate_baseline(bc).unwrap();
    let measured = f2c.fog2_uplink_acct_bytes as f64 / baseline.cloud_ingress_acct_bytes as f64;
    let predicted = 5_036_071_584.0 / 8_583_503_168.0;
    assert!(
        (measured - predicted).abs() < 0.08,
        "cloud-ingress ratio {measured:.3}, Table I predicts {predicted:.3}"
    );
}

#[test]
fn per_category_dedup_rates_match_table1() {
    // Full-day horizon: every sensor's first reading is admitted
    // unconditionally, adding redundancy/waves excess keep, so short
    // horizons bias the keep rate upward (garbage at 50 tx/day over 6 h
    // would carry ≈ +0.06 bias plus small-population noise — right at the
    // tolerance). Over 24 h the bias falls below +0.015.
    let mut config = f2c_small();
    config.horizon_s = 86_400;
    let report = simulate(config).unwrap();
    for row in TrafficModel::paper().fig7_rows() {
        let t = report.per_category[&row.category];
        if t.raw == 0 {
            continue;
        }
        let measured_keep = t.after_dedup as f64 / t.raw as f64;
        let predicted_keep = row.after_dedup as f64 / row.raw as f64;
        assert!(
            (measured_keep - predicted_keep).abs() < 0.09,
            "{}: keep rate {measured_keep:.3} vs Table I {predicted_keep:.3}",
            row.category
        );
        assert!(
            measured_keep >= predicted_keep - 0.02,
            "{}: dedup cannot beat the generator's redundancy",
            row.category
        );
    }
}

#[test]
fn compression_ratio_improves_with_batch_size() {
    // Scaled-down simulations ship tiny flush batches, which encode
    // poorly: the tsenc frame (magic, mode, column headers, CRC) is
    // spread over few readings, and every sensor's first shipment
    // carries its full id into the stream dictionary. The ratio must
    // improve monotonically as populations (hence batches) grow.
    let ratio_at = |scale: u64| {
        let mut c = SimConfig::paper_scaled();
        c.scale = scale;
        c.horizon_s = 2 * 3600;
        simulate(c).unwrap().compression_ratio()
    };
    let small = ratio_at(4_000);
    let large = ratio_at(400);
    assert!(
        large < small,
        "bigger batches must compress better ({large:.3} vs {small:.3})"
    );
    assert!(
        large < 0.55,
        "scale-400 batches should be below 0.55, got {large:.3}"
    );
}
