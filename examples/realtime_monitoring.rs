//! A latency-critical service from the paper's motivation: real-time noise
//! monitoring. Shows (a) the placement engine putting the service at fog
//! layer 1, and (b) why the same service could not meet its deadline from
//! a centralized cloud.
//!
//! Run with `cargo run --example realtime_monitoring`.

use f2c_smartcity::citysim::barcelona::{BarcelonaTopology, LatencyProfile};
use f2c_smartcity::citysim::time::Duration;
use f2c_smartcity::core::placement::{PlacementEngine, ServiceSpec};
use f2c_smartcity::core::request::AccessSimulator;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // (a) Place the service: 10 ms deadline on section-local real-time data.
    let engine = PlacementEngine::new(LatencyProfile::default());
    let spec = ServiceSpec::realtime_critical(Duration::from_millis(10));
    let placement = engine.place(&spec)?;
    println!(
        "noise-alert service placed at {} (access latency {})",
        placement.layer, placement.access_latency
    );

    // (b) The deadline argument: fog vs centralized access latency.
    let mut sim = AccessSimulator::new(BarcelonaTopology::build(&LatencyProfile::default()));
    let fog = sim.realtime_read_f2c(12, 1_000);
    let cloud = sim.realtime_read_centralized(12, 1_000)?;
    println!(
        "\nreal-time read: {} at fog-1 vs {} centralized -> only {} meets the 10 ms deadline",
        fog.latency, cloud.latency, placement.layer
    );
    Ok(())
}
