//! The SCC-DLC acquisition block checks quality exactly once (the
//! paper's design invariant), so later phases inherit its report.

use f2c_smartcity::dlc::acquisition::AcquisitionBlock;
use f2c_smartcity::dlc::phase::PhaseContext;
use f2c_smartcity::sensors::{ReadingGenerator, SensorType};

#[test]
fn quality_is_checked_exactly_once_in_acquisition() {
    // The paper: "it is not necessary to implement any data quality phase
    // in the data processing nor in the data preservation blocks".
    let mut acquisition = AcquisitionBlock::new("Barcelona", 0, 0);
    let mut gen = ReadingGenerator::for_population(SensorType::AirQuality, 10, 3);
    let out = acquisition.ingest(gen.wave(0), &PhaseContext::at(1));
    for rec in &out {
        assert!(rec.quality().is_some(), "quality tagged in acquisition");
    }
}
