//! Replays of captured write-path output through single layers: the
//! flush codec (`f2c-compress::tsenc` and `deflate`) and the sketch
//! ledger (`f2c-aggregate::sketch`). Each replay checks that the layer
//! reproduces what the system produced, and its spans time the layer in
//! isolation.

use std::collections::HashMap;

use f2c_aggregate::sketch::{SketchKey, SketchLedger};
use f2c_compress::tsenc::MODE_COLUMNAR;
use f2c_compress::{StreamDecoder, StreamEncoder};
use f2c_core::{F2cCity, ShipmentRecord, SKETCH_BUCKET_S};
use scc_sensors::wire;

use crate::span::{Spans, ROOT};

/// What the codec replay saw, per hop (index 0: fog 1 → fog 2, index 1:
/// fog 2 → cloud).
#[derive(Debug, Default)]
pub struct CodecReplay {
    pub shipments: u64,
    pub columnar: u64,
    pub records: [u64; 2],
    pub payload_bytes: [u64; 2],
}

impl CodecReplay {
    pub fn total_records(&self) -> u64 {
        self.records[0] + self.records[1]
    }
}

/// Re-encodes every captured shipment through a fresh encoder per
/// `(hop, origin)` stream and decodes it through a fresh decoder; every
/// payload must equal its captured bytes and decode to its wire batch.
/// With tracing on, each shipment's wire text also goes through
/// `f2c_compress::compress`, the DEFLATE probe the encoder runs.
pub fn codec(shipments: &[ShipmentRecord], spans: &mut Spans) -> Result<CodecReplay, String> {
    let mut encoders: HashMap<(u8, u16), StreamEncoder> = HashMap::new();
    let mut decoders: HashMap<(u8, u16), StreamDecoder> = HashMap::new();
    let mut out = CodecReplay::default();
    for (i, shipment) in shipments.iter().enumerate() {
        let stream = (shipment.hop, shipment.origin);
        let hop = usize::from(shipment.hop - 1);
        let readings = wire::parse_batch(&shipment.wire)
            .map_err(|e| format!("shipment {i}: captured wire text does not parse: {e}"))?;
        let encoder = encoders.entry(stream).or_default();
        let payload = spans
            .time("tsenc.encode", ROOT, || encoder.encode_batch(&readings))
            .map_err(|e| format!("shipment {i}: re-encode failed: {e}"))?;
        if payload != shipment.payload {
            return Err(format!(
                "shipment {i} (hop {} origin {}) re-encodes to different bytes",
                shipment.hop, shipment.origin
            ));
        }
        let decoder = decoders.entry(stream).or_default();
        let decoded = spans
            .time("tsenc.decode", ROOT, || {
                decoder.decode_batch(&shipment.payload)
            })
            .map_err(|e| format!("shipment {i}: decode failed: {e}"))?;
        if decoded != readings {
            return Err(format!(
                "shipment {i} (hop {} origin {}) decodes to different records",
                shipment.hop, shipment.origin
            ));
        }
        if spans.is_on() {
            spans
                .time("deflate.compress", ROOT, || {
                    f2c_compress::compress(&shipment.wire)
                })
                .map_err(|e| format!("shipment {i}: DEFLATE failed: {e}"))?;
        }
        out.shipments += 1;
        out.columnar += u64::from(shipment.payload.get(4) == Some(&MODE_COLUMNAR));
        out.records[hop] += readings.len() as u64;
        out.payload_bytes[hop] += shipment.payload.len() as u64;
    }
    Ok(out)
}

/// Folds every bucket partial held in the fog-1 ledgers, encoded as it
/// ships, into a fresh ledger per section; each fold must reproduce the
/// partial's count. Returns the number of partials folded.
pub fn sketch_fold(city: &F2cCity, spans: &mut Spans) -> Result<u64, String> {
    let mut folded = 0;
    for section in 0..city.section_count() {
        let ledger = city.fog1(section).sketches();
        let mut keys: Vec<SketchKey> = ledger.keys().copied().collect();
        keys.sort_unstable();
        let encoded: Vec<(SketchKey, u64, Vec<u8>)> = keys
            .into_iter()
            .map(|key| {
                let (partial, _) = ledger.entry(&key).expect("key listed by the ledger");
                (key, partial.count(), partial.encode())
            })
            .collect();
        let mut fresh = SketchLedger::new(SKETCH_BUCKET_S).expect("bucket width is positive");
        for (epoch, (key, count, bytes)) in encoded.iter().enumerate() {
            let partial = spans
                .time("sketch.fold", ROOT, || {
                    fresh.fold_encoded(*key, bytes, epoch as u64)
                })
                .map_err(|e| format!("section {section}: partial {key:?} refused: {e}"))?;
            if partial.count() != *count {
                return Err(format!(
                    "section {section}: partial {key:?} changed its count"
                ));
            }
            folded += 1;
        }
    }
    Ok(folded)
}
