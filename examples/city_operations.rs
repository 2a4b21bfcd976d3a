//! City operations day: the assembled `F2cCity` ingesting fixed sensors
//! *and* participatory smartphone data, and serving a placed service
//! through the §IV.C cost model.
//!
//! Run with `cargo run --release --example city_operations`.

use f2c_smartcity::citysim::barcelona::LatencyProfile;
use f2c_smartcity::citysim::time::Duration;
use f2c_smartcity::core::placement::ServiceSpec;
use f2c_smartcity::core::service::CityService;
use f2c_smartcity::core::F2cCity;
use f2c_smartcity::sensors::sources::{ParticipatorySource, ThirdPartyFeed};
use f2c_smartcity::sensors::{ReadingGenerator, SensorType};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut city = F2cCity::barcelona()?;

    // Fixed infrastructure: traffic sensors in three sections.
    let mut traffic: Vec<ReadingGenerator> = (0..3)
        .map(|i| ReadingGenerator::for_population(SensorType::Traffic, 20, i))
        .collect();
    // Citizens: 300 smartphones contributing noise readings while moving.
    let mut phones = ParticipatorySource::new(300, 73, 42);
    // A third-party weather API, polled at the cloud (tiny volumes).
    let mut feed = ThirdPartyFeed::new(SensorType::Weather, 10, 7);

    let mut ingested = 0u64;
    for round in 0..12u64 {
        let t = round * 300;
        for (i, gen) in traffic.iter_mut().enumerate() {
            ingested += city.ingest(i * 20, gen.wave(t), t + 1)?.stored;
        }
        let mut per_section: Vec<Vec<_>> = (0..73).map(|_| Vec::new()).collect();
        for (section, reading) in phones.tick(t) {
            per_section[section as usize].push(reading);
        }
        for (section, readings) in per_section.into_iter().enumerate() {
            if !readings.is_empty() {
                ingested += city.ingest(section, readings, t + 1)?.stored;
            }
        }
        let _ = feed.poll(t); // collected at cloud level in the paper
    }
    println!("ingested {ingested} records across 73 fog-1 nodes (after dedup)");

    let (fog1_b, fog2_b) = city.flush_all(3_600)?;
    println!("flushed upward: fog1->fog2 {fog1_b} B, fog2->cloud {fog2_b} B (accounting)");
    println!(
        "cloud archive now holds {} records",
        city.cloud().store().len()
    );

    // A latency-critical congestion service, placed at fog layer 1.
    let mut svc = CityService::place(
        "congestion-control",
        ServiceSpec::realtime_critical(Duration::from_millis(25)),
        &LatencyProfile::default(),
        Duration::from_millis(2),
    )?;
    println!("\n'{}' placed at {}", svc.name(), svc.layer());
    for section in [0usize, 20, 40] {
        let out = svc.execute(&mut city, section, SensorType::Traffic, 0, 10_000, 3_600)?;
        println!(
            "  section {section:>2}: {} records via {:?} in {} (deadline {})",
            out.records_read,
            out.source,
            out.latency,
            if out.deadline_met { "met" } else { "MISSED" }
        );
    }
    println!(
        "service latency: p50 {} / max {} over {} requests",
        svc.latencies().quantile(0.5),
        svc.latencies().max(),
        svc.request_count()
    );
    Ok(())
}
