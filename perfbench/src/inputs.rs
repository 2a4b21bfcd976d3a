//! Seeded input generation. Every reading and query a workload feeds the
//! system is made here, before any timed region starts; the timed loops
//! only hand the prepared values to the program.

use std::collections::BTreeMap;

use f2c_core::runtime::section_generators;
use f2c_core::F2cCity;
use f2c_query::{Query, QueryKind, Scope, Selector, ServiceClass, TimeWindow};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scc_sensors::{Catalog, Category, Reading, ReadingGenerator, SensorType};

/// Population divisor of every workload: Barcelona at 1/2000 scale.
pub const SCALE: u64 = 2_000;

/// One write-path call, in simulated-time order.
#[derive(Debug, Clone)]
pub enum WriteOp {
    /// `F2cCity::ingest(section, readings, at_s)`.
    Wave {
        at_s: u64,
        section: usize,
        readings: Vec<Reading>,
    },
    /// `F2cCity::flush_all(at_s)`.
    Flush { at_s: u64 },
}

/// The event-driven write schedule of `f2c_core::runtime::populate_city`:
/// every sensor type's waves at its Table-I transmission interval and a
/// hierarchy-wide flush every `flush_period_s`, over `(0, horizon_s]`,
/// ending with a flush at `horizon_s`.
pub fn table1_schedule(seed: u64, horizon_s: u64, flush_period_s: u64) -> Vec<WriteOp> {
    let scaled = Catalog::barcelona().scaled_down(SCALE);
    let mut gens = section_generators(&scaled, seed);
    // (instant in µs, insertion order, type or flush); waves sort before a
    // flush at the same instant, as in the warm-up's event queue.
    let mut events: Vec<(u64, u64, Option<SensorType>)> = Vec::new();
    for spec in scaled.iter() {
        let interval = spec.tx_interval_secs();
        let mut t = interval;
        while t <= horizon_s as f64 {
            events.push((
                (t * 1e6) as u64,
                events.len() as u64,
                Some(spec.sensor_type()),
            ));
            t += interval;
        }
    }
    let mut t = flush_period_s;
    while t <= horizon_s {
        events.push((t * 1_000_000, events.len() as u64, None));
        t += flush_period_s;
    }
    events.sort_unstable();
    let mut ops = Vec::new();
    for (at_us, _, ty) in events {
        let at_s = at_us / 1_000_000;
        match ty {
            Some(ty) => {
                for (section, per_section) in gens.iter_mut().enumerate() {
                    if let Some(gen) = per_section.get_mut(&ty) {
                        ops.push(WriteOp::Wave {
                            at_s,
                            section,
                            readings: gen.wave(at_s),
                        });
                    }
                }
            }
            None => ops.push(WriteOp::Flush { at_s }),
        }
    }
    if !matches!(ops.last(), Some(WriteOp::Flush { at_s }) if *at_s == horizon_s) {
        ops.push(WriteOp::Flush { at_s: horizon_s });
    }
    ops
}

/// One wave of every sensor of the scaled city at each section, stamped
/// `at_s` — the background ingest the serving workloads apply between
/// requests. Returns one `(section, readings)` per populated section.
pub struct BackgroundWaves {
    gens: Vec<BTreeMap<SensorType, ReadingGenerator>>,
}

impl BackgroundWaves {
    pub fn new(seed: u64) -> Self {
        let scaled = Catalog::barcelona().scaled_down(SCALE);
        Self {
            gens: section_generators(&scaled, seed ^ 0x9E37_79B9_7F4A_7C15),
        }
    }

    pub fn wave(&mut self, at_s: u64) -> Vec<(usize, Vec<Reading>)> {
        self.gens
            .iter_mut()
            .enumerate()
            .filter(|(_, per_section)| !per_section.is_empty())
            .map(|(section, per_section)| {
                let readings = per_section
                    .values_mut()
                    .flat_map(|gen| gen.wave(at_s))
                    .collect();
                (section, readings)
            })
            .collect()
    }
}

/// The dashboard / analytics / real-time / city-wide request mix, in
/// percent.
pub const MIX: [(ServiceClass, u32); 4] = [
    (ServiceClass::Dashboard, 40),
    (ServiceClass::Analytics, 10),
    (ServiceClass::RealTime, 40),
    (ServiceClass::CityWide, 10),
];

/// Seeded request generator with the shapes of the library's closed-loop
/// users: real-time point reads of the requester's section, dashboards
/// (recent raw feed or settled district aggregate), long-window district
/// analytics, and city-wide panels or status probes.
pub struct QueryGen {
    rng: SmallRng,
}

impl QueryGen {
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed ^ 0xF2C0_5EED),
        }
    }

    /// The next request issued at `now_s`, with `settled_s` the instant of
    /// the last flush wave.
    pub fn next(&mut self, now_s: u64, settled_s: u64, city: &F2cCity) -> Query {
        let rng = &mut self.rng;
        let mut pick = rng.gen_range(0..100u32);
        let class = MIX
            .iter()
            .find(|(_, share)| {
                let hit = pick < *share;
                pick = pick.saturating_sub(*share);
                hit
            })
            .map(|(class, _)| *class)
            .expect("mix shares sum to 100");
        let origin = rng.gen_range(0..city.section_count());
        let any_type =
            |rng: &mut SmallRng| SensorType::ALL[rng.gen_range(0..SensorType::ALL.len())];
        let any_category =
            |rng: &mut SmallRng| Category::ALL[rng.gen_range(0..Category::ALL.len())];
        let recent = |back_s: u64| TimeWindow::new(now_s.saturating_sub(back_s), now_s + 1);
        let settled_hour = TimeWindow::new(settled_s.saturating_sub(3_600), settled_s);
        let (selector, scope, window, kind) = match class {
            ServiceClass::RealTime => (
                Selector::Type(any_type(rng)),
                Scope::Section(origin),
                recent(1_800),
                QueryKind::Point,
            ),
            ServiceClass::Dashboard if rng.gen_bool(0.25) => (
                Selector::Type(any_type(rng)),
                Scope::Section(origin),
                recent(900),
                QueryKind::Range,
            ),
            ServiceClass::Dashboard => (
                Selector::Category(any_category(rng)),
                Scope::District(city.district_of(origin)),
                settled_hour,
                QueryKind::Aggregate,
            ),
            ServiceClass::Analytics => (
                Selector::Category(any_category(rng)),
                Scope::District(rng.gen_range(0..city.district_count())),
                TimeWindow::new(rng.gen_range(0..settled_s / 2 + 1), settled_s),
                QueryKind::Aggregate,
            ),
            ServiceClass::CityWide if rng.gen_bool(0.2) => (
                Selector::Type(any_type(rng)),
                Scope::City,
                recent(1_800),
                QueryKind::Point,
            ),
            ServiceClass::CityWide => (
                Selector::Category(any_category(rng)),
                Scope::City,
                settled_hour,
                QueryKind::Aggregate,
            ),
        };
        Query {
            origin,
            class,
            selector,
            scope,
            window,
            kind,
        }
    }
}
