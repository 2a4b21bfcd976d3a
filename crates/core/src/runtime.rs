//! The event-driven F2C simulation: synthetic Sentilo waves flow into the
//! 73 fog-1 nodes of an [`F2cCity`], climb to its 10 fog-2 nodes and then
//! the cloud, with aggregation and compression applied per the flush
//! policies. Every experiment drives the same write path that ships:
//! chaos gate, `tsenc` payloads with mirror-decode verification, the
//! metrics registry and tracing. One private event loop serves both
//! [`simulate`], whose traffic accounting cross-validates the analytic
//! [`crate::traffic::TrafficModel`] at a configurable population scale,
//! and [`populate_city`], the warm-up of the query-serving benches.

use std::collections::BTreeMap;

use citysim::barcelona::LatencyProfile;
use citysim::event::EventQueue;
use citysim::time::SimTime;
use scc_sensors::{Catalog, Category, ReadingGenerator, SensorType};

use crate::hierarchy::F2cCity;
use crate::policy::{FlushPolicy, RetentionPolicy};
use crate::{Error, Result};

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Divide every sensor population by this factor (≥ 1).
    pub scale: u64,
    /// RNG seed for the generators.
    pub seed: u64,
    /// Simulated horizon in seconds (one day reproduces the paper).
    pub horizon_s: u64,
    /// Fog-1 flush policy (aggregation/compression live here).
    pub fog1_flush: FlushPolicy,
    /// Fog-2 flush policy.
    pub fog2_flush: FlushPolicy,
    /// Link parameters for the Barcelona topology.
    pub profile: LatencyProfile,
    /// Drain all tiers at the end of the horizon so record conservation
    /// holds (disable to study steady-state scheduling effects — e.g. the
    /// off-peak window share — without the artificial final flush).
    pub drain_at_end: bool,
}

impl SimConfig {
    /// The paper's configuration at 1/1000 population scale: one day,
    /// 15-minute aggregated+compressed fog-1 flushes, hourly fog-2 flushes.
    pub fn paper_scaled() -> Self {
        Self {
            scale: 1000,
            seed: 2017,
            horizon_s: 86_400,
            fog1_flush: FlushPolicy::paper_fog1(),
            fog2_flush: FlushPolicy::plain(3600),
            profile: LatencyProfile::default(),
            drain_at_end: true,
        }
    }

    fn validated(self) -> Result<Self> {
        if self.scale == 0 {
            return Err(Error::BadConfig {
                field: "scale",
                reason: "must be >= 1",
            });
        }
        if self.horizon_s == 0 {
            return Err(Error::BadConfig {
                field: "horizon_s",
                reason: "must be positive",
            });
        }
        let fog1_flush = self.fog1_flush.validated()?;
        let fog2_flush = self.fog2_flush.validated()?;
        Ok(Self {
            fog1_flush,
            fog2_flush,
            ..self
        })
    }
}

/// Per-category traffic accounting (Table-I byte convention).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CategoryTraffic {
    /// Raw bytes generated by sensors.
    pub raw: u64,
    /// Bytes surviving fog-1 aggregation (accounting sizes).
    pub after_dedup: u64,
}

/// What one simulated run measured.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Population scale of the run.
    pub scale: u64,
    /// Simulated horizon.
    pub horizon_s: u64,
    /// Readings generated at the sensors.
    pub generated_readings: u64,
    /// Records surviving fog-1 acquisition.
    pub stored_after_dedup: u64,
    /// Raw accounting bytes offered to fog 1.
    pub raw_acct_bytes: u64,
    /// Accounting bytes shipped fog1→fog2.
    pub fog1_uplink_acct_bytes: u64,
    /// Accounting bytes shipped fog2→cloud.
    pub fog2_uplink_acct_bytes: u64,
    /// Wire bytes of fog-1 uplink batches (before compression).
    pub fog1_uplink_wire_bytes: u64,
    /// Shipped `tsenc` payload bytes of fog-1 uplink batches (0 when the
    /// fog-1 policy does not compress).
    pub fog1_uplink_compressed_bytes: u64,
    /// Per-category breakdown.
    pub per_category: BTreeMap<Category, CategoryTraffic>,
    /// Bytes metered on fog1→fog2 links (what actually crossed the wire).
    pub network_fog1_fog2_bytes: u64,
    /// Bytes metered on fog2→cloud links.
    pub network_fog2_cloud_bytes: u64,
    /// Records resting at the cloud after the final drain.
    pub cloud_records: u64,
    /// Bytes metered per simulated hour across all links.
    pub hourly_network_bytes: BTreeMap<u64, u64>,
}

impl SimReport {
    /// Measured dedup rate (fraction of readings suppressed at fog 1).
    pub fn dedup_rate(&self) -> f64 {
        if self.generated_readings == 0 {
            0.0
        } else {
            1.0 - self.stored_after_dedup as f64 / self.generated_readings as f64
        }
    }

    /// Measured compression ratio on the shipped fog-1 batches: payload
    /// bytes over wire-encoded bytes.
    pub fn compression_ratio(&self) -> f64 {
        if self.fog1_uplink_wire_bytes == 0 || self.fog1_uplink_compressed_bytes == 0 {
            1.0
        } else {
            self.fog1_uplink_compressed_bytes as f64 / self.fog1_uplink_wire_bytes as f64
        }
    }

    /// Scales a measured byte count back to full deployment size.
    pub fn scaled_up(&self, bytes: u64) -> u64 {
        bytes * self.scale
    }

    /// Fraction of metered network bytes that moved inside the daily
    /// time-of-day window `[start_s, end_s)`.
    pub fn window_share(&self, start_s: u64, end_s: u64) -> f64 {
        let total: u64 = self.hourly_network_bytes.values().sum();
        if total == 0 {
            return 0.0;
        }
        let inside: u64 = self
            .hourly_network_bytes
            .iter()
            .filter(|(hour, _)| {
                let tod = (*hour % 24) * 3600;
                tod >= start_s && tod < end_s
            })
            .map(|(_, b)| *b)
            .sum();
        inside as f64 / total as f64
    }
}

/// Runs the F2C architecture over one simulated horizon on a fresh
/// [`F2cCity`] built from the configured profile and flush policies
/// (fog-1 retention one day). Each hop flushes on its own policy's
/// [`FlushPolicy::next_flush_at`] chain; with `drain_at_end` a final
/// wave ships both hops at the horizon. The report reads the city's
/// flush counters, link meters and cloud archive, so every figure is
/// measured on the write path that ships.
///
/// # Errors
///
/// Configuration and network errors.
///
/// # Examples
///
/// ```
/// use f2c_core::runtime::{simulate, SimConfig};
///
/// let mut config = SimConfig::paper_scaled();
/// config.scale = 20_000;     // tiny population: fast doctest
/// config.horizon_s = 7_200;  // two hours
/// let report = simulate(config)?;
/// assert!(report.generated_readings > 0);
/// assert!(report.cloud_records as f64 >= 0.9 * report.stored_after_dedup as f64);
/// # Ok::<(), f2c_core::Error>(())
/// ```
pub fn simulate(config: SimConfig) -> Result<SimReport> {
    let config = config.validated()?;
    let mut city = F2cCity::new(
        &config.profile,
        config.fog1_flush,
        config.fog2_flush,
        RetentionPolicy::keep(86_400),
    )?;
    simulate_on(&mut city, &config)
}

/// [`simulate`] on an assembled city (built with `config`'s policies).
fn simulate_on(city: &mut F2cCity, config: &SimConfig) -> Result<SimReport> {
    let run = drive(
        city,
        config.scale,
        config.seed,
        config.horizon_s,
        [config.fog1_flush, config.fog2_flush],
        config.drain_at_end,
    )?;
    let (fog1_uplink_acct_bytes, fog2_uplink_acct_bytes) = city.raw_flush_bytes();
    let mut report = SimReport {
        scale: config.scale,
        horizon_s: config.horizon_s,
        generated_readings: run.offered,
        stored_after_dedup: run.stored,
        raw_acct_bytes: run.per_category.values().map(|c| c.raw).sum(),
        fog1_uplink_acct_bytes,
        fog2_uplink_acct_bytes,
        fog1_uplink_wire_bytes: run.fog1_wire_bytes,
        fog1_uplink_compressed_bytes: if config.fog1_flush.compress {
            city.uplink_flush_bytes().0
        } else {
            0
        },
        per_category: run.per_category,
        cloud_records: city.cloud().store().len() as u64,
        ..SimReport::default()
    };

    // Read the meters: fog1→fog2 links vs fog2→cloud links.
    let topology = city.topology();
    let net = topology.network();
    let cloud_node = topology.cloud();
    let mut fog2_cloud = 0u64;
    for &f2 in topology.fog2_nodes() {
        for &(peer, link) in net.topology().neighbors(f2) {
            if peer == cloud_node {
                fog2_cloud += net.meter().link_traffic(link).bytes;
            }
        }
    }
    report.network_fog2_cloud_bytes = fog2_cloud;
    report.network_fog1_fog2_bytes = net.meter().total_bytes() - fog2_cloud;
    report.hourly_network_bytes = net.meter().hourly_bytes().clone();
    Ok(report)
}

/// What one run of the event loop ingested and shipped.
#[derive(Default)]
struct DriveOutcome {
    /// Readings offered by the sensors.
    offered: u64,
    /// Records stored at fog 1 after acquisition.
    stored: u64,
    /// Raw and kept accounting bytes per category.
    per_category: BTreeMap<Category, CategoryTraffic>,
    /// Flush waves run, the settling wave included.
    waves: u64,
    /// Wire-encoded bytes of the shipped fog-1 batches.
    fog1_wire_bytes: u64,
}

/// The one write-path event loop behind [`simulate`] and
/// [`populate_city`]: every catalog type's waves at its Table-I
/// interval (population divided by `scale`) over `horizon_s`, plus one flush wave at each instant of the
/// two hops' `schedules` (fog 1, fog 2) that ships exactly the hops whose
/// [`FlushPolicy::next_flush_at`] chain lands there. With `settle`, a
/// last wave at the horizon ships both hops, so fog 2 and the cloud hold
/// everything ingested. Waves run before flushes at the same instant.
fn drive(
    city: &mut F2cCity,
    scale: u64,
    seed: u64,
    horizon_s: u64,
    schedules: [FlushPolicy; 2],
    settle: bool,
) -> Result<DriveOutcome> {
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Event {
        /// All sensors of this type report.
        Wave(SensorType),
        /// A flush wave shipping the marked hops (fog 1, fog 2).
        Flush([bool; 2]),
    }
    let scaled = city.catalog().scaled_down(scale);
    let mut generators = section_generators(&scaled, seed);
    let mut queue: EventQueue<Event> = EventQueue::new();
    for spec in scaled.iter() {
        let interval = spec.tx_interval_secs();
        let mut t = interval;
        while t <= horizon_s as f64 {
            queue.schedule_at(
                SimTime::from_micros((t * 1e6) as u64),
                Event::Wave(spec.sensor_type()),
            );
            t += interval;
        }
    }
    let mut flushes: BTreeMap<u64, [bool; 2]> = BTreeMap::new();
    for (hop, policy) in schedules.iter().enumerate() {
        let mut t = policy.next_flush_at(0);
        while t <= horizon_s {
            flushes.entry(t).or_default()[hop] = true;
            t = policy.next_flush_at(t);
        }
    }
    for (t, hops) in flushes {
        queue.schedule_at(SimTime::from_secs(t), Event::Flush(hops));
    }
    if settle {
        // Scheduled last, so it pops after every other event at the
        // horizon.
        queue.schedule_at(SimTime::from_secs(horizon_s), Event::Flush([true, true]));
    }

    let mut out = DriveOutcome {
        per_category: Category::ALL
            .into_iter()
            .map(|c| (c, CategoryTraffic::default()))
            .collect(),
        ..DriveOutcome::default()
    };
    while let Some((at, event)) = queue.pop() {
        let now_s = at.as_secs();
        match event {
            Event::Wave(ty) => {
                for (section, per_section) in generators.iter_mut().enumerate() {
                    if let Some(gen) = per_section.get_mut(&ty) {
                        let ingest = city.ingest(section, gen.wave(now_s), now_s)?;
                        out.offered += ingest.offered;
                        out.stored += ingest.stored;
                        let ct = out.per_category.get_mut(&ty.category()).expect("prefilled");
                        ct.raw += ingest.raw_bytes;
                        ct.after_dedup += ingest.kept_bytes;
                    }
                }
            }
            Event::Flush([fog1, fog2]) => {
                out.fog1_wire_bytes += city.flush_wave(now_s, fog1, fog2)?.fog1_wire_bytes;
                out.waves += 1;
            }
        }
    }
    Ok(out)
}

/// Deterministic mixing hash (splitmix64 finalizer) used to spread
/// population remainders across sections without an RNG dependency.
fn spread_hash(ty: SensorType, section: usize) -> u64 {
    let mut z = (ty as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0xBF58_476D_1CE4_E5B9)
        .wrapping_add(section as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Splits each catalog type's population across the 73 sections and
/// builds one deterministic generator per (section, type) share —
/// `generators[section][type]`. Shared by [`simulate`], the warm-up in
/// [`populate_city`], and the query workload's background ingest, so all
/// three agree on which sensors live where.
///
/// The `n % 73` remainder sensors land on the sections that rank first
/// under a per-type deterministic hash, *not* on sections `0..extra`:
/// [`Catalog::scaled_down`] truncates populations hard, and at small
/// scales (where most types keep fewer than 73 sensors) a
/// lowest-index-first split would concentrate the entire city in the
/// first few districts. Hash-spreading keeps every district populated at
/// every scale while remaining a pure function of the catalog.
pub fn section_generators(
    catalog: &Catalog,
    seed: u64,
) -> Vec<BTreeMap<SensorType, ReadingGenerator>> {
    let mut generators: Vec<BTreeMap<SensorType, ReadingGenerator>> =
        (0..73).map(|_| BTreeMap::new()).collect();
    for spec in catalog.iter() {
        let n = spec.sensors();
        let base = n / 73;
        let extra = (n % 73) as usize;
        let mut ranked: Vec<usize> = (0..73).collect();
        ranked.sort_by_key(|&s| spread_hash(spec.sensor_type(), s));
        let mut gets_extra = [false; 73];
        for &s in &ranked[..extra] {
            gets_extra[s] = true;
        }
        for (section, per_section) in generators.iter_mut().enumerate() {
            let count = base + u64::from(gets_extra[section]);
            if count > 0 {
                per_section.insert(
                    spec.sensor_type(),
                    ReadingGenerator::for_population(
                        spec.sensor_type(),
                        count as u32,
                        seed ^ ((section as u64) << 32),
                    ),
                );
            }
        }
    }
    generators
}

/// What [`populate_city`] ingested and shipped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PopulateOutcome {
    /// Readings offered by the sensors.
    pub offered: u64,
    /// Records stored at fog 1 after acquisition.
    pub stored: u64,
    /// Number of hierarchy-wide flushes performed (including the final
    /// settling flush).
    pub flushes: u64,
}

/// Event-driven warm-up of an assembled [`F2cCity`]: schedules every
/// sensor type's waves at its Table-I transmission interval (population
/// divided by `scale`) and hierarchy-wide flushes every
/// `flush_period_s`, over `horizon_s` of simulated time, then settles
/// with one final flush so fog-2 and the cloud hold everything ingested.
///
/// This is the runtime integration point for the `f2c-query` serving
/// subsystem: a bench warms the hierarchy here, then drives a query
/// workload against the populated city.
///
/// # Errors
///
/// [`Error::BadConfig`] on a zero scale/horizon/period; network errors
/// from flush shipping.
pub fn populate_city(
    city: &mut F2cCity,
    scale: u64,
    seed: u64,
    horizon_s: u64,
    flush_period_s: u64,
) -> Result<PopulateOutcome> {
    if scale == 0 {
        return Err(Error::BadConfig {
            field: "scale",
            reason: "must be >= 1",
        });
    }
    if horizon_s == 0 || flush_period_s == 0 {
        return Err(Error::BadConfig {
            field: "horizon_s/flush_period_s",
            reason: "must be positive",
        });
    }
    let every_period = FlushPolicy::plain(flush_period_s);
    let run = drive(
        city,
        scale,
        seed,
        horizon_s,
        [every_period, every_period],
        true,
    )?;
    Ok(PopulateOutcome {
        offered: run.offered,
        stored: run.stored,
        flushes: run.waves,
    })
}

/// Runs the paper's ablation: six simulated hours with a different fog-1
/// flush period, returning `(period_s, average bytes per fog-1 flush on
/// one uplink)` — used by the E6 experiment to show how the flush period
/// trades batch size for data freshness upstream.
pub fn flush_period_ablation(periods_s: &[u64], scale: u64) -> Result<Vec<(u64, u64)>> {
    let mut out = Vec::with_capacity(periods_s.len());
    for &period in periods_s {
        let mut config = SimConfig::paper_scaled();
        config.scale = scale;
        config.horizon_s = 6 * 3600;
        config.fog1_flush = FlushPolicy {
            period_s: period,
            ..FlushPolicy::paper_fog1()
        };
        let report = simulate(config)?;
        // Average per-flush bytes: uplink bytes / number of flushes.
        let flushes = (6 * 3600 / period).max(1) * 73;
        let avg_per_flush = report
            .fog1_uplink_compressed_bytes
            .max(report.fog1_uplink_acct_bytes)
            / flushes;
        out.push((period, avg_per_flush));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::Parallelism;
    use crate::traffic::TrafficModel;
    use citysim::barcelona::DISTRICTS;

    fn small_config() -> SimConfig {
        // 1/2500 scale (~400 sensors). Smaller populations leave many
        // sections with one sensor now that the remainder split covers
        // every district, and single-reading flush batches are too small
        // to compress — representative batches need a few sensors per
        // section.
        let mut c = SimConfig::paper_scaled();
        c.scale = 2_500;
        c.horizon_s = 4 * 3600;
        c
    }

    #[test]
    fn conservation_no_record_lost_between_layers() {
        let report = simulate(small_config()).unwrap();
        assert_eq!(
            report.cloud_records, report.stored_after_dedup,
            "every deduped record must reach the cloud after the final drain"
        );
    }

    #[test]
    fn dedup_rate_is_in_the_papers_band() {
        let report = simulate(small_config()).unwrap();
        // Mixed-category rate: between urban's 30% and noise's 75%.
        let rate = report.dedup_rate();
        assert!((0.3..0.75).contains(&rate), "dedup rate {rate:.3}");
    }

    #[test]
    fn uplink_sees_fewer_bytes_than_raw() {
        let report = simulate(small_config()).unwrap();
        assert!(report.fog1_uplink_acct_bytes < report.raw_acct_bytes);
        assert!(report.fog1_uplink_compressed_bytes < report.fog1_uplink_wire_bytes);
        assert_eq!(report.fog1_uplink_acct_bytes, report.fog2_uplink_acct_bytes);
    }

    #[test]
    fn simulation_cross_validates_the_analytic_model() {
        // A full scaled day: per-category dedup output must match Table I
        // within sampling tolerance.
        let mut config = SimConfig::paper_scaled();
        config.scale = 2_000;
        let report = simulate(config).unwrap();
        let model = TrafficModel::paper();
        for row in model.fig7_rows() {
            let measured = report.per_category[&row.category];
            let scaled_raw = report.scaled_up(measured.raw) as f64;
            let scaled_dedup = report.scaled_up(measured.after_dedup) as f64;
            let raw_err = (scaled_raw - row.raw as f64).abs() / row.raw as f64;
            let dedup_err = (scaled_dedup - row.after_dedup as f64).abs() / row.after_dedup as f64;
            assert!(
                raw_err < 0.12,
                "{}: raw off by {:.1}% (sim {scaled_raw:.3e} vs model {})",
                row.category,
                raw_err * 100.0,
                row.raw,
            );
            assert!(
                dedup_err < 0.15,
                "{}: dedup off by {:.1}%",
                row.category,
                dedup_err * 100.0
            );
        }
    }

    #[test]
    fn network_meters_agree_with_uplink_accounting() {
        let report = simulate(small_config()).unwrap();
        // Compression on: the fog1->fog2 wire carries the compressed bytes.
        assert_eq!(
            report.network_fog1_fog2_bytes, report.fog1_uplink_compressed_bytes,
            "metered fog1->fog2 bytes match compressed shipments"
        );
        assert!(report.network_fog2_cloud_bytes > 0);
    }

    #[test]
    fn simulation_is_identical_at_every_thread_count() {
        // The paper simulation runs sharded flush waves: its report and
        // every shipped payload must not depend on the worker count.
        let config = small_config().validated().unwrap();
        let run = |threads: usize| {
            let mut city = F2cCity::new(
                &config.profile,
                config.fog1_flush,
                config.fog2_flush,
                RetentionPolicy::keep(86_400),
            )
            .unwrap();
            city.set_parallelism(Parallelism::new(threads));
            city.set_capture_shipments(true);
            let report = simulate_on(&mut city, &config).unwrap();
            (format!("{report:?}"), city.take_shipment_log())
        };
        let (report1, log1) = run(1);
        assert!(!log1.is_empty(), "compressed fog-1 shipments are captured");
        for threads in [2, 4, 8] {
            let (report, log) = run(threads);
            assert_eq!(report, report1, "SimReport at {threads} threads");
            assert!(log == log1, "shipment log at {threads} threads");
        }
    }

    #[test]
    fn bad_configs_rejected() {
        let mut c = SimConfig::paper_scaled();
        c.scale = 0;
        assert!(simulate(c).is_err());
        let mut c = SimConfig::paper_scaled();
        c.horizon_s = 0;
        assert!(simulate(c).is_err());
    }

    #[test]
    fn populate_city_settles_everything_at_the_cloud() {
        let mut city = F2cCity::barcelona().unwrap();
        let out = populate_city(&mut city, 20_000, 7, 2 * 3600, 900).unwrap();
        assert!(out.offered > 0);
        assert!(out.stored > 0 && out.stored <= out.offered);
        assert_eq!(out.flushes, 9, "8 periodic + 1 settling flush");
        assert_eq!(
            city.cloud().store().len() as u64,
            out.stored,
            "final settle ships every stored record to the cloud"
        );
        assert_eq!(city.flush_epoch(), 9);
        // Warm-up is a pure function of its seed.
        let mut city2 = F2cCity::barcelona().unwrap();
        let out2 = populate_city(&mut city2, 20_000, 7, 2 * 3600, 900).unwrap();
        assert_eq!(out, out2);
    }

    #[test]
    fn scaled_down_populations_cover_every_district() {
        // At 1/2000 scale most types keep < 73 sensors; the hash-spread
        // remainder must still leave every district with sensors instead
        // of concentrating the city in the low section indices.
        let catalog = Catalog::barcelona().scaled_down(2_000);
        let generators = section_generators(&catalog, 7);
        let mut district_sensors = [0u64; 10];
        let mut section = 0usize;
        for (d, (_, sections)) in DISTRICTS.iter().enumerate() {
            for _ in 0..*sections {
                district_sensors[d] += generators[section]
                    .values()
                    .map(|g| g.population() as u64)
                    .sum::<u64>();
                section += 1;
            }
        }
        for (d, &count) in district_sensors.iter().enumerate() {
            assert!(
                count > 0,
                "district {d} has no sensors: {district_sensors:?}"
            );
        }
        // Determinism: the split is a pure function of the catalog.
        let again = section_generators(&catalog, 7);
        for s in 0..73 {
            let a: Vec<_> = generators[s].keys().collect();
            let b: Vec<_> = again[s].keys().collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn populate_city_rejects_zero_parameters() {
        let mut city = F2cCity::barcelona().unwrap();
        assert!(populate_city(&mut city, 0, 7, 3600, 900).is_err());
        assert!(populate_city(&mut city, 1000, 7, 0, 900).is_err());
        assert!(populate_city(&mut city, 1000, 7, 3600, 0).is_err());
    }

    #[test]
    fn flush_period_ablation_trades_period_for_batch_size() {
        let rows = flush_period_ablation(&[900, 3600], 20_000).unwrap();
        assert_eq!(rows.len(), 2);
        // Longer periods accumulate bigger batches per flush.
        assert!(rows[1].1 > rows[0].1);
    }
}
