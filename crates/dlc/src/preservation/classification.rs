//! Data classification: "classifying and ordering data before storing, and
//! eventually implementing the appropriate techniques for data versioning,
//! data lineage or data provenance" (§IV.B).

use std::collections::HashMap;

use scc_sensors::SensorId;

use crate::phase::{Phase, PhaseContext};
use crate::record::DataRecord;

/// Version and provenance chain for one sensor's record stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lineage {
    /// Number of records classified for this sensor so far.
    pub version: u64,
    /// Hash chained over every classified record (provenance digest).
    pub digest: u64,
}

/// Orders batches canonically (category, type, creation time, sensor) and
/// maintains a per-sensor version counter and provenance hash chain.
#[derive(Debug, Clone, Default)]
pub struct ClassificationPhase {
    lineage: HashMap<SensorId, Lineage>,
}

impl ClassificationPhase {
    /// Creates the phase.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current lineage for a sensor, if any record was classified.
    pub fn lineage_of(&self, sensor: SensorId) -> Option<Lineage> {
        self.lineage.get(&sensor).copied()
    }

    fn chain(digest: u64, rec: &DataRecord) -> u64 {
        // FNV-1a over the record's wire form, seeded with the prior digest.
        let mut h = digest ^ 0xcbf2_9ce4_8422_2325;
        for b in scc_sensors::wire::encode(rec.reading()).bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

impl Phase for ClassificationPhase {
    fn name(&self) -> &'static str {
        "data-classification"
    }

    fn run(&mut self, mut batch: Vec<DataRecord>, _ctx: &PhaseContext) -> Vec<DataRecord> {
        batch.sort_by_key(|r| {
            (
                r.sensor_type().category(),
                r.sensor_type(),
                r.descriptor().created_s(),
                r.reading().sensor(),
            )
        });
        for rec in &batch {
            let entry = self
                .lineage
                .entry(rec.reading().sensor())
                .or_insert(Lineage {
                    version: 0,
                    digest: 0,
                });
            entry.version += 1;
            entry.digest = Self::chain(entry.digest, rec);
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_sensors::{Reading, SensorType, Value};

    fn rec(ty: SensorType, idx: u32, t: u64, v: u64) -> DataRecord {
        DataRecord::from_reading(Reading::new(SensorId::new(ty, idx), t, Value::Counter(v)))
    }

    #[test]
    fn batches_are_canonically_ordered() {
        let mut phase = ClassificationPhase::new();
        let batch = vec![
            rec(SensorType::Weather, 0, 50, 1),
            rec(SensorType::ElectricityMeter, 0, 99, 2),
            rec(SensorType::ElectricityMeter, 0, 10, 3),
            rec(SensorType::ParkingSpot, 0, 1, 4),
        ];
        let out = phase.run(batch, &PhaseContext::at(0));
        let types: Vec<SensorType> = out.iter().map(DataRecord::sensor_type).collect();
        // Energy < Parking < Urban in category order; within energy by time.
        assert_eq!(
            types,
            vec![
                SensorType::ElectricityMeter,
                SensorType::ElectricityMeter,
                SensorType::ParkingSpot,
                SensorType::Weather
            ]
        );
        assert_eq!(out[0].descriptor().created_s(), 10);
        assert_eq!(out[1].descriptor().created_s(), 99);
    }

    #[test]
    fn versions_count_per_sensor() {
        let mut phase = ClassificationPhase::new();
        let id_a = SensorId::new(SensorType::Traffic, 1);
        phase.run(
            vec![
                rec(SensorType::Traffic, 1, 0, 1),
                rec(SensorType::Traffic, 1, 1, 2),
                rec(SensorType::Traffic, 2, 0, 3),
            ],
            &PhaseContext::at(0),
        );
        assert_eq!(phase.lineage_of(id_a).unwrap().version, 2);
        assert_eq!(
            phase
                .lineage_of(SensorId::new(SensorType::Traffic, 2))
                .unwrap()
                .version,
            1
        );
        assert_eq!(
            phase.lineage_of(SensorId::new(SensorType::Traffic, 9)),
            None
        );
    }

    #[test]
    fn digest_depends_on_content_and_order() {
        let mut a = ClassificationPhase::new();
        let mut b = ClassificationPhase::new();
        // Same records, same order (classification sorts them identically).
        a.run(
            vec![
                rec(SensorType::Traffic, 1, 0, 1),
                rec(SensorType::Traffic, 1, 60, 2),
            ],
            &PhaseContext::at(0),
        );
        b.run(
            vec![rec(SensorType::Traffic, 1, 0, 1)],
            &PhaseContext::at(0),
        );
        b.run(
            vec![rec(SensorType::Traffic, 1, 60, 2)],
            &PhaseContext::at(60),
        );
        let id = SensorId::new(SensorType::Traffic, 1);
        // Chaining is incremental: batch split must not change the digest.
        assert_eq!(a.lineage_of(id), b.lineage_of(id));

        // Different content -> different digest.
        let mut c = ClassificationPhase::new();
        c.run(
            vec![
                rec(SensorType::Traffic, 1, 0, 9),
                rec(SensorType::Traffic, 1, 60, 2),
            ],
            &PhaseContext::at(0),
        );
        assert_ne!(
            a.lineage_of(id).unwrap().digest,
            c.lineage_of(id).unwrap().digest
        );
    }
}
