//! The read-path workloads, both against a city warmed by
//! `populate_city` (1/2000 scale, four simulated hours).
//!
//! * `serve_steady`: `parallel::run` as a closed loop of 600 users on the
//!   40/10/40/10 dashboard / analytics / real-time / city-wide mix, with
//!   no flushes and no ingest while it runs. Planning, caches, admission,
//!   store scans, scatter-gather and the sharded runtime do all the work;
//!   the write path is idle.
//! * `serve_mixed`: one benchmark client in a closed loop calling
//!   `QueryEngine::serve_sync` once per request from a seeded generator,
//!   with an ingest wave and `flush_all` every 300 simulated seconds and
//!   seeded shipment-loss and corruption coins (no crash windows). This
//!   loads the per-request serve path, flush-epoch cache invalidation and
//!   anti-entropy healing, which the other two workloads never do.

use std::time::Instant;

use citysim::net::FailurePlan;
use citysim::Histogram;
use f2c_core::runtime::populate_city;
use f2c_core::{ChaosSite, F2cCity, Parallelism};
use f2c_query::workload::Mix;
use f2c_query::{
    parallel, plan, EngineConfig, EngineStats, Outcome, Query, QueryAnswer, QueryEngine, QueryKind,
    Scope, Selector, ServedVia, ServiceClass, TimeWindow, WorkloadConfig, WorkloadReport,
};
use scc_sensors::{Category, Reading};

use crate::inputs::{BackgroundWaves, QueryGen, SCALE};
use crate::measure::{
    bytes_per_record, city_layer_metrics, median, quantile, ratio, repeat, secs_since, spans_path,
    Report,
};
use crate::replay;
use crate::span::{Spans, ROOT};
use crate::Args;

/// Simulated warm-up before serving starts.
const WARM_S: u64 = 4 * 3_600;
/// Requests of one `serve_steady` closed-loop pass.
const STEADY_REQUESTS: u64 = 400_000;
/// Requests of one `serve_mixed` loop.
const MIXED_REQUESTS: u64 = 60_000;
/// Simulated spacing of `serve_mixed` requests.
const MIXED_GAP_MS: u64 = 25;
/// Simulated period of `serve_mixed`'s ingest wave plus flush.
const MIXED_WRITE_PERIOD_S: u64 = 300;
/// Requests planned by the traced run's planner probe.
const PLAN_PROBES: usize = 20_000;

/// Set-up: city build, warm-up and its final flush wave.
fn warm(seed: u64, threads: usize) -> Result<(QueryEngine, f64), String> {
    let t = Instant::now();
    let mut city = F2cCity::barcelona().map_err(|e| e.to_string())?;
    city.set_parallelism(Parallelism::new(threads));
    populate_city(&mut city, SCALE, seed, WARM_S, 900).map_err(|e| e.to_string())?;
    let engine = QueryEngine::new(city, EngineConfig::default());
    Ok((engine, secs_since(t)))
}

/// Serving-counter deltas over a loop, as per-layer metrics.
fn engine_layer_metrics(report: &mut Report, before: &EngineStats, after: &EngineStats) {
    let d = |f: fn(&EngineStats) -> u64| f(after) - f(before);
    let requests = d(|s| s.requests);
    let answered = d(|s| s.answered);
    let hits = d(|s| s.edge_hits) + d(|s| s.source_hits);
    let (partial_hits, partial_fills) = (d(|s| s.partial_hits), d(|s| s.partial_fills));
    report.put("cache.hit_rate", ratio(hits, answered));
    report.put(
        "cache.partial_hit_rate",
        ratio(partial_hits, partial_hits + partial_fills),
    );
    let prefold = d(|s| s.prefold_hits);
    report.put(
        "sketch.prefold_share",
        ratio(prefold, prefold + partial_fills),
    );
    report.put(
        "store.records_scanned_per_req",
        ratio(d(|s| s.records_scanned), requests),
    );
    report.put("admission.shed_fog1", d(|s| s.shed[0]) as f64);
    report.put("admission.shed_fog2", d(|s| s.shed[1]) as f64);
    report.put("admission.shed_cloud", d(|s| s.shed[2]) as f64);
    report.put(
        "admission.deadline_shed",
        d(EngineStats::deadline_shed_total) as f64,
    );
    report.put(
        "scatter.legs_per_query",
        ratio(d(|s| s.scatter_legs), d(|s| s.scatter_served)),
    );
    let (wins, cloud_wins) = (d(|s| s.scatter_wins), d(|s| s.cloud_wins));
    report.put("scatter.fanout_win_rate", ratio(wins, wins + cloud_wins));
}

/// Times `planner::plan` on each query; the planner only reads the city.
fn plan_probe(report: &mut Report, city: &F2cCity, queries: &[Query], spans: &mut Spans) {
    for q in queries {
        // Unanswerable windows still cost a full planning pass.
        let _ =
            std::hint::black_box(spans.time("plan", ROOT, || plan(city, std::hint::black_box(q))));
    }
    report.put(
        "plan.ns_per_query",
        spans.ns_per("plan", queries.len() as u64),
    );
}

/// Cost-model latency of answered requests: the paper's model outputs,
/// read as log-bucket upper bounds. They repeat exactly whenever routing
/// does, so they are printed but are not measured times of the result
/// line.
fn sim_ms(report: &mut Report, hist: &Histogram) {
    let ms = |q: f64| hist.quantile(q).as_secs_f64() * 1e3;
    report.note("serve.sim_ms_p50", "ms", ms(0.5));
    report.note("serve.sim_ms_p99", "ms", ms(0.99));
}

// ---------------------------------------------------------------------------
// serve_steady
// ---------------------------------------------------------------------------

struct SteadyUnit {
    engine: QueryEngine,
    setup_s: f64,
    wall_s: f64,
    run: WorkloadReport,
    before: EngineStats,
}

fn steady_unit(args: &Args, threads: usize, spans: &mut Spans) -> Result<SteadyUnit, String> {
    let (mut engine, setup_s) = warm(args.seed, threads)?;
    let config = WorkloadConfig {
        seed: args.seed,
        requests: STEADY_REQUESTS,
        users: 600,
        mix: Mix {
            dashboard: 40,
            analytics: 10,
            realtime: 40,
            city: 10,
        },
        start_s: WARM_S,
        flush_period_s: 0,
        ingest_period_s: 0,
        ingest_scale: SCALE,
        ..WorkloadConfig::default()
    };
    let before = engine.stats();
    let t = Instant::now();
    let root = spans.open("loop", ROOT);
    let run = spans
        .time("parallel::run", root, || {
            parallel::run(&mut engine, &config)
        })
        .map_err(|e| e.to_string())?;
    spans.close(root);
    let wall_s = secs_since(t);
    Ok(SteadyUnit {
        engine,
        setup_s,
        wall_s,
        run,
        before,
    })
}

fn merged_sim_latency(run: &WorkloadReport) -> Histogram {
    let mut all = Histogram::new();
    for h in &run.latency_by_class {
        all.merge(h);
    }
    all
}

pub fn run_steady(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    // Output check: a one-thread pass and every pass on the pinned
    // thread count must produce the same transcript.
    let single = steady_unit(args, 1, &mut Spans::new(false))?;
    let reference = single.run.transcript_hash;
    let req_per_s_1t = single.run.issued as f64 / single.wall_s;
    drop(single);
    let same = |unit: &SteadyUnit| -> Result<(), String> {
        if unit.run.transcript_hash == reference {
            Ok(())
        } else {
            Err(format!(
                "transcript {:#018x} on {} threads differs from {reference:#018x} on one",
                unit.run.transcript_hash, args.threads
            ))
        }
    };
    let check_note = format!(
        "check: every pass on {} thread(s) reproduces the one-thread transcript {reference:#018x}",
        args.threads
    );

    if args.trace {
        let untraced = steady_unit(args, args.threads, &mut Spans::new(false))?;
        same(&untraced)?;
        let mut spans = Spans::new(true);
        let traced = steady_unit(args, args.threads, &mut spans)?;
        same(&traced)?;
        report.notes.push(check_note);
        let after = traced.engine.stats();
        engine_layer_metrics(&mut report, &traced.before, &after);
        sim_ms(&mut report, &merged_sim_latency(&traced.run));
        report.put("parallel.req_per_s_1t", req_per_s_1t);
        let city = traced.engine.city();
        let mut gen = QueryGen::new(args.seed);
        let settled = traced.engine.last_flush_s();
        let queries: Vec<Query> = (0..PLAN_PROBES)
            .map(|_| gen.next(traced.run.sim_end_s, settled, city))
            .collect();
        plan_probe(&mut report, city, &queries, &mut spans);
        city_layer_metrics(&mut report, city);
        report.put("trace.overhead_ratio", traced.wall_s / untraced.wall_s);
        report.put("trace.loop_covered_share", spans.covered_share("loop"));
        report.attempted = traced.run.issued;
        report.failed = traced.run.issued - traced.run.answered;
        spans
            .write_csv(&spans_path(args))
            .map_err(|e| format!("writing spans: {e}"))?;
        return Ok(report);
    }

    let (mut setup, mut throughput) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut bpr) = (0, 0, 0.0);
    let mut sim = Histogram::new();
    let rss = repeat(
        args,
        || {
            let unit = steady_unit(args, args.threads, &mut Spans::new(false))?;
            same(&unit)?;
            Ok(unit)
        },
        |unit| {
            setup.push(unit.setup_s);
            throughput.push(unit.run.issued as f64 / unit.wall_s);
            attempted += unit.run.issued;
            failed += unit.run.issued - unit.run.answered;
            bpr = bytes_per_record(unit.engine.city());
            sim = merged_sim_latency(&unit.run);
            unit.wall_s
        },
    )?;
    report.attempted = attempted;
    report.failed = failed;
    report.notes.push(check_note);
    report.end_to_end(&setup, &throughput, rss, bpr);
    report.note("serve.req_per_s", "1/s", median(&throughput));
    report.put("parallel.req_per_s_1t", req_per_s_1t);
    report.note("flush.bytes_per_record", "B", bpr);
    sim_ms(&mut report, &sim);
    Ok(report)
}

// ---------------------------------------------------------------------------
// serve_mixed
// ---------------------------------------------------------------------------

#[derive(Clone)]
enum MixedOp {
    Request {
        now_s: u64,
        query: Query,
    },
    Write {
        at_s: u64,
        waves: Vec<(usize, Vec<Reading>)>,
    },
}

/// The client's requests, one every `MIXED_GAP_MS` simulated, with an
/// ingest wave and flush every `MIXED_WRITE_PERIOD_S`.
fn mixed_schedule(seed: u64, city: &F2cCity) -> Vec<MixedOp> {
    let mut queries = QueryGen::new(seed);
    let mut background = BackgroundWaves::new(seed);
    let mut ops = Vec::new();
    let mut settled = WARM_S;
    for k in 1..=MIXED_REQUESTS {
        let now_s = WARM_S + k * MIXED_GAP_MS / 1_000;
        while now_s >= settled + MIXED_WRITE_PERIOD_S {
            settled += MIXED_WRITE_PERIOD_S;
            ops.push(MixedOp::Write {
                at_s: settled,
                waves: background.wave(settled),
            });
        }
        ops.push(MixedOp::Request {
            now_s,
            query: queries.next(now_s, settled, city),
        });
    }
    ops
}

struct MixedUnit {
    engine: QueryEngine,
    setup_s: f64,
    loop_s: f64,
    /// Wall time of each `serve_sync` call, with its path (`None` when it
    /// failed).
    requests: Vec<(f64, Option<usize>)>,
    wave_ms: Vec<f64>,
    sim: Histogram,
    offered: u64,
    stored: u64,
    /// Records the cloud received during the timed loop.
    delivered: u64,
    failed: u64,
    before: EngineStats,
}

fn mixed_unit(args: &Args, ops: Vec<MixedOp>, spans: &mut Spans) -> Result<MixedUnit, String> {
    let (mut engine, setup_s) = warm(args.seed, args.threads)?;
    let mut faults = FailurePlan::with_seed(args.seed);
    faults.set_shipment_loss(0.10);
    faults.set_shipment_corruption(0.08);
    engine.city_mut().set_failures(faults);
    let before = engine.stats();
    let cloud_before = engine.city().cloud().store().len() as u64;

    let mut requests = Vec::with_capacity(MIXED_REQUESTS as usize);
    let mut wave_ms = Vec::new();
    let mut sim = Histogram::new();
    let (mut offered, mut stored, mut failed, mut end_s) = (0, 0, 0, WARM_S);
    let t = Instant::now();
    let root = spans.open("loop", ROOT);
    for op in ops {
        match op {
            MixedOp::Request { now_s, query } => {
                let w = Instant::now();
                let outcome = spans.time("serve_sync", root, || engine.serve_sync(&query, now_s));
                let us = secs_since(w) * 1e6;
                let path = match outcome {
                    Ok(Outcome::Answered(resp)) => {
                        sim.record(resp.est_latency);
                        Some(match resp.via {
                            ServedVia::EdgeCache => 0,
                            ServedVia::SourceCache(_) => 1,
                            ServedVia::Store(_) => 2,
                            ServedVia::Scatter { .. } => 3,
                        })
                    }
                    Ok(Outcome::Shed { .. }) | Err(_) => {
                        failed += 1;
                        None
                    }
                };
                requests.push((us, path));
                end_s = now_s;
            }
            MixedOp::Write { at_s, waves } => {
                for (section, readings) in waves {
                    let n = readings.len() as u64;
                    // A downed fog-1 node loses its wave.
                    if engine.city().site_is_down(ChaosSite::Fog1(section), at_s) {
                        failed += n;
                    }
                    let outcome = spans
                        .time("ingest", root, || engine.ingest(section, readings, at_s))
                        .map_err(|e| e.to_string())?;
                    offered += n;
                    stored += outcome.stored;
                }
                let w = Instant::now();
                spans
                    .time("flush_all", root, || engine.flush_all(at_s))
                    .map_err(|e| e.to_string())?;
                wave_ms.push(secs_since(w) * 1e3);
            }
        }
    }
    spans.close(root);
    let loop_s = secs_since(t);
    let delivered = engine.city().cloud().store().len() as u64 - cloud_before;
    heal_check(&mut engine, end_s)?;
    Ok(MixedUnit {
        engine,
        setup_s,
        loop_s,
        requests,
        wave_ms,
        sim,
        offered,
        stored,
        delivered,
        failed,
        before,
    })
}

/// Output check: after two clean flushes no ledger has holes, and settled
/// district aggregates equal the raw archive's record counts.
fn heal_check(engine: &mut QueryEngine, end_s: u64) -> Result<(), String> {
    engine.city_mut().set_failures(FailurePlan::none());
    for at_s in [end_s + 300, end_s + 600] {
        engine.flush_all(at_s).map_err(|e| e.to_string())?;
    }
    let city = engine.city();
    let fog1 = (0..city.section_count()).map(|s| city.fog1(s));
    let fog2 = (0..city.district_count()).map(|d| city.fog2(d));
    for node in fog1.chain(fog2).chain(std::iter::once(city.cloud())) {
        let holes = node.sketches().holes_sorted();
        if !holes.is_empty() {
            return Err(format!(
                "{} keeps {} ledger holes",
                node.label(),
                holes.len()
            ));
        }
    }
    let settled = (end_s / 900) * 900;
    let at_s = end_s + 601;
    for district in 0..engine.city().district_count() {
        let aggregate = Query {
            origin: engine.city().sections_in_district(district)[0],
            class: ServiceClass::Dashboard,
            selector: Selector::Category(Category::Urban),
            scope: Scope::District(district),
            window: TimeWindow::new(WARM_S, settled),
            kind: QueryKind::Aggregate,
        };
        let raw = Query {
            class: ServiceClass::Analytics,
            kind: QueryKind::Range,
            ..aggregate
        };
        let answer = |engine: &mut QueryEngine, q: &Query| match engine.serve_sync(q, at_s) {
            Ok(Outcome::Answered(resp)) => Ok(resp.answer),
            other => Err(format!(
                "district {district}: check query not answered: {other:?}"
            )),
        };
        let count = match answer(engine, &aggregate)? {
            QueryAnswer::Aggregate(a) => a.count,
            other => return Err(format!("expected an aggregate, got {other:?}")),
        };
        let records = match answer(engine, &raw)? {
            QueryAnswer::Records(recs) => recs.len() as u64,
            other => return Err(format!("expected records, got {other:?}")),
        };
        if count != records {
            return Err(format!(
                "district {district}: settled aggregate counts {count}, the archive holds {records}"
            ));
        }
    }
    Ok(())
}

fn request_us(unit: &MixedUnit, path: Option<usize>) -> Vec<f64> {
    unit.requests
        .iter()
        .filter(|(_, p)| path.is_none() || *p == path)
        .map(|&(us, _)| us)
        .collect()
}

pub fn run_mixed(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let topology = F2cCity::barcelona().map_err(|e| e.to_string())?;
    let t = Instant::now();
    let schedule = mixed_schedule(args.seed, &topology);
    let gen_s = secs_since(t);
    let check_note = "check: after two clean flushes no ledger has holes, and every \
                      settled district aggregate equals the raw archive count";

    if args.trace {
        let untraced = mixed_unit(args, schedule.clone(), &mut Spans::new(false))?;
        let mut spans = Spans::new(true);
        let queries: Vec<Query> = schedule
            .iter()
            .filter_map(|op| match op {
                MixedOp::Request { query, .. } => Some(*query),
                MixedOp::Write { .. } => None,
            })
            .take(PLAN_PROBES)
            .collect();
        let traced = mixed_unit(args, schedule, &mut spans)?;
        report.notes.push(check_note.to_owned());
        let n = traced.requests.len() as f64;
        for (i, (p50, share)) in [
            ("serve.edge_cache_us_p50", "serve.edge_cache_share"),
            ("serve.source_cache_us_p50", "serve.source_cache_share"),
            ("serve.store_us_p50", "serve.store_share"),
            ("serve.scatter_us_p50", "serve.scatter_share"),
        ]
        .into_iter()
        .enumerate()
        {
            let us = request_us(&traced, Some(i));
            report.put(p50, median(&us));
            report.put(share, us.len() as f64 / n);
        }
        let city = traced.engine.city();
        engine_layer_metrics(&mut report, &traced.before, &traced.engine.stats());
        sim_ms(&mut report, &traced.sim);
        report.put(
            "ingest.ns_per_reading",
            spans.ns_per("ingest", traced.offered),
        );
        report.put("ingest.stored_ratio", ratio(traced.stored, traced.offered));
        let waves = traced.wave_ms.len() as f64;
        report.put("flush.records_per_wave", traced.delivered as f64 / waves);
        report.put(
            "flush.ns_per_record",
            spans.ns_per("flush_all", traced.delivered),
        );
        plan_probe(&mut report, city, &queries, &mut spans);
        let partials = replay::sketch_fold(city, &mut spans)?;
        report.put(
            "sketch.fold_ns_per_partial",
            spans.ns_per("sketch.fold", partials),
        );
        city_layer_metrics(&mut report, city);
        report.put("trace.overhead_ratio", traced.loop_s / untraced.loop_s);
        report.put("trace.loop_covered_share", spans.covered_share("loop"));
        report.put("gen.s", gen_s);
        report.attempted = traced.requests.len() as u64 + traced.offered;
        report.failed = traced.failed;
        spans
            .write_csv(&spans_path(args))
            .map_err(|e| format!("writing spans: {e}"))?;
        return Ok(report);
    }

    let (mut setup, mut throughput) = (Vec::new(), Vec::new());
    let (mut req_us, mut wave_ms, mut readings_per_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut bpr) = (0, 0, 0.0);
    let mut sim = Histogram::new();
    let rss = repeat(
        args,
        || mixed_unit(args, schedule.clone(), &mut Spans::new(false)),
        |unit| {
            setup.push(unit.setup_s);
            throughput.push(unit.requests.len() as f64 / unit.loop_s);
            readings_per_s.push(unit.offered as f64 / unit.loop_s);
            req_us.extend(request_us(&unit, None));
            wave_ms.extend_from_slice(&unit.wave_ms);
            attempted += unit.requests.len() as u64 + unit.offered;
            failed += unit.failed;
            bpr = bytes_per_record(unit.engine.city());
            sim = unit.sim;
            unit.loop_s
        },
    )?;
    report.attempted = attempted;
    report.failed = failed;
    report.notes.push(check_note.to_owned());
    report.end_to_end(&setup, &throughput, rss, bpr);
    report.note("serve.req_per_s", "1/s", median(&throughput));
    report.note("serve.req_us_p50", "us", median(&req_us));
    report.note("serve.req_us_p99", "us", quantile(&req_us, 0.99));
    report.note("write.readings_per_s", "1/s", median(&readings_per_s));
    report.note("write.wave_ms_p50", "ms", median(&wave_ms));
    report.note("write.wave_ms_p90", "ms", quantile(&wave_ms, 0.9));
    report.note("flush.bytes_per_record", "B", bpr);
    sim_ms(&mut report, &sim);
    report.note("gen.s", "s", gen_s);
    report.notes.push(format!(
        "({} requests and {} flush waves timed)",
        req_us.len(),
        wave_ms.len()
    ));
    Ok(report)
}
