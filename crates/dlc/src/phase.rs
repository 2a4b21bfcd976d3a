//! The phase abstraction: every SCC-DLC phase consumes a batch of records
//! and produces a (possibly smaller, possibly annotated) batch.

use std::fmt;

use crate::record::DataRecord;

/// The three blocks of the SCC-DLC model (Fig. 2), as declared by
/// [`crate::cosa::scc_instantiation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Block {
    /// Data acquisition: collection, filtering, quality, description.
    Acquisition,
    /// Data processing: process, analysis.
    Processing,
    /// Data preservation: classification, archive, dissemination.
    Preservation,
}

impl Block {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Block::Acquisition => "acquisition",
            Block::Processing => "processing",
            Block::Preservation => "preservation",
        }
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Ambient information a phase may need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseContext {
    /// Current time, seconds (collection/flush time at the hosting node).
    pub now_s: u64,
}

impl PhaseContext {
    /// A context at time `now_s`.
    pub fn at(now_s: u64) -> Self {
        Self { now_s }
    }
}

/// Per-phase throughput counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Records offered to the phase.
    pub records_in: u64,
    /// Records emitted by the phase.
    pub records_out: u64,
    /// Invocations.
    pub runs: u64,
}

impl PhaseStats {
    /// Records the outcome of one run.
    pub fn record_run(&mut self, records_in: usize, records_out: usize) {
        self.records_in += records_in as u64;
        self.records_out += records_out as u64;
        self.runs += 1;
    }

    /// Fraction of records dropped across all runs.
    pub fn drop_rate(&self) -> f64 {
        if self.records_in == 0 {
            0.0
        } else {
            1.0 - self.records_out as f64 / self.records_in as f64
        }
    }
}

/// One life-cycle phase.
///
/// Implementations live in [`crate::acquisition`] and
/// [`crate::preservation`]; [`crate::acquisition::AcquisitionBlock`]
/// runs the four acquisition phases in order.
///
/// `Send + Sync` so nodes embedding phases can be owned by district
/// shards on worker threads (phases hold plain configuration and
/// counters, never shared handles).
pub trait Phase: Send + Sync {
    /// Stable phase name (e.g. `"data-filtering"`).
    fn name(&self) -> &'static str;

    /// Processes one batch.
    fn run(&mut self, batch: Vec<DataRecord>, ctx: &PhaseContext) -> Vec<DataRecord>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_names_are_stable() {
        assert_eq!(Block::Acquisition.name(), "acquisition");
        assert_eq!(Block::Processing.to_string(), "processing");
        assert_eq!(Block::Preservation.name(), "preservation");
    }

    #[test]
    fn stats_accumulate() {
        let mut s = PhaseStats::default();
        s.record_run(10, 6);
        s.record_run(10, 8);
        assert_eq!(s.records_in, 20);
        assert_eq!(s.records_out, 14);
        assert_eq!(s.runs, 2);
        assert!((s.drop_rate() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_drop_nothing() {
        assert_eq!(PhaseStats::default().drop_rate(), 0.0);
    }
}
