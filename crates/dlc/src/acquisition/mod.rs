//! The data acquisition block (Fig. 2): collection → filtering → quality →
//! description. Runs at fog layer 1 in the F2C mapping (Fig. 5, §IV.A).

mod collection;
mod description;
mod filtering;
mod quality_phase;

pub use collection::CollectionPhase;
pub use description::DescriptionPhase;
pub use filtering::FilteringPhase;
pub use quality_phase::QualityPhase;

use crate::phase::{Phase, PhaseContext, PhaseStats};
use crate::record::DataRecord;
use scc_sensors::Reading;

/// The full acquisition block as one convenient unit: wraps raw readings
/// into records and runs them through the four acquisition phases.
///
/// # Examples
///
/// ```
/// use scc_dlc::acquisition::AcquisitionBlock;
/// use scc_dlc::phase::PhaseContext;
/// use scc_sensors::{Reading, SensorId, SensorType, Value};
///
/// let mut block = AcquisitionBlock::new("Barcelona", 3, 21);
/// let r = Reading::new(SensorId::new(SensorType::Weather, 0), 10, Value::from_f64(19.0));
/// let out = block.ingest(vec![r], &PhaseContext::at(12));
/// assert_eq!(out.len(), 1);
/// assert!(out[0].descriptor().is_fully_described());
/// assert!(out[0].quality().unwrap().passed());
/// ```
pub struct AcquisitionBlock {
    phases: Vec<(Box<dyn Phase>, PhaseStats)>,
}

impl std::fmt::Debug for AcquisitionBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.phases.iter().map(|(p, _)| p.name()).collect();
        f.debug_struct("AcquisitionBlock")
            .field("phases", &names)
            .finish()
    }
}

impl AcquisitionBlock {
    /// The paper's fog-1 configuration for a node covering `section` of
    /// `district` in `city`: collection, redundant-data elimination,
    /// quality (dropping failures), description.
    pub fn new(city: &str, district: u16, section: u16) -> Self {
        Self::of(vec![
            Box::new(CollectionPhase::new()),
            Box::new(FilteringPhase::paper_default()),
            Box::new(QualityPhase::dropping_failures()),
            Box::new(DescriptionPhase::new(city, district, section)),
        ])
    }

    /// Shorthand used in examples: Barcelona, district derived elsewhere.
    pub fn paper_default(section: u16) -> Self {
        Self::new("Barcelona", section / 8, section)
    }

    /// A variant *without* the filtering phase — the centralized-baseline
    /// configuration, where no aggregation happens before the cloud.
    pub fn without_filtering(city: &str, district: u16, section: u16) -> Self {
        Self::of(vec![
            Box::new(CollectionPhase::new()),
            Box::new(QualityPhase::dropping_failures()),
            Box::new(DescriptionPhase::new(city, district, section)),
        ])
    }

    fn of(phases: Vec<Box<dyn Phase>>) -> Self {
        Self {
            phases: phases
                .into_iter()
                .map(|p| (p, PhaseStats::default()))
                .collect(),
        }
    }

    /// Ingests raw readings: wrap → collect → filter → quality → describe.
    pub fn ingest(&mut self, readings: Vec<Reading>, ctx: &PhaseContext) -> Vec<DataRecord> {
        let mut batch: Vec<DataRecord> =
            readings.into_iter().map(DataRecord::from_reading).collect();
        for (phase, stats) in &mut self.phases {
            let before = batch.len();
            batch = phase.run(batch, ctx);
            stats.record_run(before, batch.len());
        }
        batch
    }

    /// Per-phase throughput statistics.
    pub fn stats(&self) -> Vec<(&'static str, PhaseStats)> {
        self.phases.iter().map(|(p, s)| (p.name(), *s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_sensors::{ReadingGenerator, SensorType};

    #[test]
    fn block_reduces_redundant_traffic_and_tags_everything() {
        let mut block = AcquisitionBlock::new("Barcelona", 2, 17);
        let mut gen = ReadingGenerator::for_population(SensorType::NoiseTrafficZone, 50, 4);
        let mut seen = 0u64;
        let mut kept = 0u64;
        for w in 0..60u64 {
            let wave = gen.wave(w * 60);
            seen += wave.len() as u64;
            let out = block.ingest(wave, &PhaseContext::at(w * 60 + 1));
            kept += out.len() as u64;
            for rec in &out {
                assert!(rec.descriptor().is_fully_described());
                assert_eq!(rec.descriptor().district(), Some(2));
                assert_eq!(rec.descriptor().section(), Some(17));
                assert!(rec.quality().is_some());
            }
        }
        // Noise redundancy is 75% (Table I).
        let rate = 1.0 - kept as f64 / seen as f64;
        assert!((rate - 0.75).abs() < 0.05, "reduction {rate:.3}");
    }

    #[test]
    fn stats_cover_all_four_phases() {
        let mut block = AcquisitionBlock::new("Barcelona", 0, 0);
        let mut gen = ReadingGenerator::for_population(SensorType::ParkingSpot, 5, 1);
        block.ingest(gen.wave(0), &PhaseContext::at(0));
        let names: Vec<&str> = block.stats().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec![
                "data-collection",
                "data-filtering",
                "data-quality",
                "data-description"
            ]
        );
    }
}
