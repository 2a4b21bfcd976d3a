//! Integration over the assembled city: `F2cCity` + services +
//! participatory sensing + the COSA check, across all crates.

use f2c_smartcity::citysim::barcelona::LatencyProfile;
use f2c_smartcity::citysim::time::Duration;
use f2c_smartcity::core::hierarchy::DataSource;
use f2c_smartcity::core::placement::ServiceSpec;
use f2c_smartcity::core::service::CityService;
use f2c_smartcity::core::F2cCity;
use f2c_smartcity::dlc::cosa::scc_instantiation;
use f2c_smartcity::sensors::sources::ParticipatorySource;
use f2c_smartcity::sensors::{ReadingGenerator, SensorType};

#[test]
fn participatory_readings_flow_through_the_hierarchy() {
    let mut city = F2cCity::barcelona().unwrap();
    let mut phones = ParticipatorySource::new(200, 73, 11);
    let mut offered = 0u64;
    let mut stored = 0u64;
    for round in 0..10u64 {
        let t = round * 300;
        // Group contributions by the section the device is currently in.
        let mut per_section: Vec<Vec<_>> = (0..73).map(|_| Vec::new()).collect();
        for (section, reading) in phones.tick(t) {
            per_section[section as usize].push(reading);
        }
        for (section, readings) in per_section.into_iter().enumerate() {
            if readings.is_empty() {
                continue;
            }
            let out = city.ingest(section, readings, t + 1).unwrap();
            offered += out.offered;
            stored += out.stored;
        }
    }
    assert_eq!(offered, 2_000);
    assert!(stored < offered, "phone noise repeats get deduped too");
    let (fog1_bytes, fog2_bytes) = city.flush_all(4_000).unwrap();
    assert!(fog1_bytes > 0);
    assert_eq!(fog1_bytes, fog2_bytes);
    assert_eq!(city.cloud().store().len() as u64, stored);
}

#[test]
fn a_placed_service_reads_roaming_data_via_the_cost_model() {
    let mut city = F2cCity::barcelona().unwrap();
    // Fixed infrastructure data in section 30.
    let mut gen = ReadingGenerator::for_population(SensorType::AirQuality, 15, 2);
    for w in 0..3u64 {
        city.ingest(30, gen.wave(w * 900), w * 900 + 1).unwrap();
    }
    let mut svc = CityService::place(
        "air-dashboard",
        ServiceSpec::realtime_critical(Duration::from_millis(50)),
        &LatencyProfile::default(),
        Duration::from_millis(1),
    )
    .unwrap();
    // A consumer in section 30 reads locally...
    let local = svc
        .execute(&mut city, 30, SensorType::AirQuality, 0, 10_000, 2_000)
        .unwrap();
    assert_eq!(local.source, DataSource::Local);
    // ...a consumer elsewhere in the same district fetches via the ring.
    let d = (0..73)
        .find(|&s| s != 30 && city.fog1(s).district() == city.fog1(30).district())
        .unwrap();
    let remote = svc
        .execute(&mut city, d, SensorType::AirQuality, 0, 10_000, 2_000)
        .unwrap();
    assert_eq!(remote.source, DataSource::Neighbor(30));
    assert!(remote.latency > local.latency);
}

#[test]
fn the_scc_dlc_instantiation_is_comprehensive() {
    // The architecture the city runs is the verified SCC instantiation of
    // the COSA-DLC model: all 6 Vs covered, all three blocks populated.
    let scc = scc_instantiation();
    assert!(scc.is_comprehensive());
}

#[test]
fn failed_neighbor_fetch_surfaces_as_an_error_not_a_wrong_answer() {
    let mut city = F2cCity::barcelona().unwrap();
    let err = city
        .fetch(0, SensorType::Temperature, 0, 1_000, 500)
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("no tier holds"), "got: {msg}");
}
