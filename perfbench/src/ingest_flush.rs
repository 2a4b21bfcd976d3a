//! `ingest_flush`: the write path as a batch job. Barcelona at 1/2000
//! scale takes its sensor waves at Table-I intervals and a hierarchy-wide
//! `F2cCity::flush_all` every 900 simulated seconds, with no queries, for
//! one simulated day. Flushing — fog-1 fold and encode, receiver decode
//! and verify, fog-2 relay, cloud fold, anti-entropy — takes nearly all
//! of the time, and no read layer runs.

use std::time::Instant;

use f2c_core::{F2cCity, Parallelism};

use crate::inputs::{table1_schedule, WriteOp};
use crate::measure::{
    bytes_per_record, city_layer_metrics, median, quantile, ratio, repeat, secs_since, spans_path,
    Report,
};
use crate::replay;
use crate::span::{Spans, ROOT};
use crate::Args;

/// Simulated horizon of one unit of work.
const HORIZON_S: u64 = 86_400;
const FLUSH_PERIOD_S: u64 = 900;

/// One set-up plus timed loop.
struct Unit {
    city: F2cCity,
    setup_s: f64,
    loop_s: f64,
    wave_ms: Vec<f64>,
    offered: u64,
    stored: u64,
    /// Records the cloud received during the timed loop.
    delivered: u64,
}

/// Set-up replays the schedule through the first flush wave, so stream
/// dictionaries and ledgers are filled before timing starts; the timed
/// loop replays the rest.
fn unit(ops: Vec<WriteOp>, args: &Args, capture: bool, spans: &mut Spans) -> Result<Unit, String> {
    let first_flush = ops
        .iter()
        .position(|op| matches!(op, WriteOp::Flush { .. }))
        .expect("the schedule flushes");
    let mut ops = ops.into_iter();
    let t = Instant::now();
    let mut city = F2cCity::barcelona().map_err(|e| e.to_string())?;
    city.set_parallelism(Parallelism::new(args.threads));
    city.set_capture_shipments(capture);
    let mut warm_stored = 0;
    for op in ops.by_ref().take(first_flush + 1) {
        match op {
            WriteOp::Wave {
                at_s,
                section,
                readings,
            } => {
                warm_stored += city
                    .ingest(section, readings, at_s)
                    .map_err(|e| e.to_string())?
                    .stored
            }
            WriteOp::Flush { at_s } => {
                city.flush_all(at_s).map_err(|e| e.to_string())?;
            }
        }
    }
    let setup_s = secs_since(t);
    let cloud_before = city.cloud().store().len() as u64;

    let mut wave_ms = Vec::new();
    let (mut offered, mut stored) = (0, 0);
    let t = Instant::now();
    let root = spans.open("loop", ROOT);
    for op in ops {
        match op {
            WriteOp::Wave {
                at_s,
                section,
                readings,
            } => {
                let outcome = spans
                    .time("ingest", root, || city.ingest(section, readings, at_s))
                    .map_err(|e| e.to_string())?;
                offered += outcome.offered;
                stored += outcome.stored;
            }
            WriteOp::Flush { at_s } => {
                let w = Instant::now();
                spans
                    .time("flush_all", root, || city.flush_all(at_s))
                    .map_err(|e| e.to_string())?;
                wave_ms.push(secs_since(w) * 1e3);
            }
        }
    }
    spans.close(root);
    let loop_s = secs_since(t);

    // No faults are injected, so the final wave leaves every record
    // stored at fog 1 in the cloud.
    let cloud = city.cloud().store().len() as u64;
    if cloud != warm_stored + stored {
        return Err(format!(
            "the cloud holds {cloud} records, fog 1 stored {}",
            warm_stored + stored
        ));
    }
    Ok(Unit {
        city,
        setup_s,
        loop_s,
        wave_ms,
        offered,
        stored,
        delivered: cloud - cloud_before,
    })
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let t = Instant::now();
    let ops = table1_schedule(args.seed, HORIZON_S, FLUSH_PERIOD_S);
    let gen_s = secs_since(t);

    // Output check: a capturing run whose every shipment must replay to
    // the same bytes and decode to its wire batch. It runs after the timed
    // loops, so peak memory is read before the capture log exists.
    let check = |spans: &mut Spans, report: &mut Report| -> Result<replay::CodecReplay, String> {
        let captured = unit(ops.clone(), args, true, &mut Spans::new(false))?;
        let shipments = captured.city.shipment_log();
        let codec = replay::codec(shipments, spans)?;
        report.notes.push(format!(
            "check: {} of {} captured shipments re-encode and decode exactly; \
             the cloud holds every record stored at fog 1",
            codec.shipments,
            shipments.len()
        ));
        Ok(codec)
    };

    if args.trace {
        let mut spans = Spans::new(true);
        let codec = check(&mut spans, &mut report)?;
        let untraced = unit(ops.clone(), args, false, &mut Spans::new(false))?;
        let traced = unit(ops, args, false, &mut spans)?;
        let partials = replay::sketch_fold(&traced.city, &mut spans)?;
        let city = &traced.city;
        let waves = traced.wave_ms.len() as f64;
        report.put(
            "ingest.ns_per_reading",
            spans.ns_per("ingest", traced.offered),
        );
        report.put("ingest.stored_ratio", ratio(traced.stored, traced.offered));
        report.put("flush.records_per_wave", traced.delivered as f64 / waves);
        report.put(
            "flush.ns_per_record",
            spans.ns_per("flush_all", traced.delivered),
        );
        let records = codec.total_records();
        report.put(
            "tsenc.encode_ns_per_record",
            spans.ns_per("tsenc.encode", records),
        );
        report.put(
            "tsenc.decode_ns_per_record",
            spans.ns_per("tsenc.decode", records),
        );
        report.put(
            "deflate.ns_per_record",
            spans.ns_per("deflate.compress", records),
        );
        report.put(
            "tsenc.columnar_share",
            ratio(codec.columnar, codec.shipments),
        );
        report.put(
            "tsenc.hop1_bytes_per_record",
            ratio(codec.payload_bytes[0], codec.records[0]),
        );
        report.put(
            "tsenc.hop2_bytes_per_record",
            ratio(codec.payload_bytes[1], codec.records[1]),
        );
        report.put(
            "sketch.fold_ns_per_partial",
            spans.ns_per("sketch.fold", partials),
        );
        city_layer_metrics(&mut report, city);
        report.put("trace.overhead_ratio", traced.loop_s / untraced.loop_s);
        report.put("trace.loop_covered_share", spans.covered_share("loop"));
        report.put("gen.s", gen_s);
        report.attempted = traced.offered;
        spans
            .write_csv(&spans_path(args))
            .map_err(|e| format!("writing spans: {e}"))?;
        return Ok(report);
    }

    let (mut setup, mut throughput, mut wave_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut bpr) = (0, 0.0);
    let rss = repeat(
        args,
        || unit(ops.clone(), args, false, &mut Spans::new(false)),
        |u| {
            setup.push(u.setup_s);
            throughput.push(u.offered as f64 / u.loop_s);
            wave_ms.extend_from_slice(&u.wave_ms);
            attempted += u.offered;
            bpr = bytes_per_record(&u.city);
            u.loop_s
        },
    )?;
    report.attempted = attempted;
    check(&mut Spans::new(false), &mut report)?;
    report.end_to_end(&setup, &throughput, rss, bpr);
    report.note("write.readings_per_s", "1/s", median(&throughput));
    report.note("write.wave_ms_p50", "ms", median(&wave_ms));
    report.note("write.wave_ms_p90", "ms", quantile(&wave_ms, 0.9));
    report.note("flush.bytes_per_record", "B", bpr);
    report.note("gen.s", "s", gen_s);
    report
        .notes
        .push(format!("({} flush waves timed)", wave_ms.len()));
    Ok(report)
}
