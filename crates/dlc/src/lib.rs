//! The SCC-DLC model: Smart City Comprehensive Data Life-Cycle (§II,
//! Figs. 1–2 of the paper), reduced to the parts the F2C system runs.
//!
//! * **Acquisition** — [`acquisition`]: collection, filtering
//!   (redundant-data elimination), quality, description. Every fog-1
//!   node runs an [`acquisition::AcquisitionBlock`] on ingest.
//! * **Classification and archive** — [`preservation`]: the cloud runs
//!   [`preservation::ClassificationPhase`] on every received batch, and
//!   [`preservation::ArchiveStore`] is the storage tier under every
//!   node's `TieredStore` in `f2c-core`.
//! * **Age classes** — [`AgeClass`] implements the age characterization
//!   of §II ("we characterize data according to its age"); service
//!   placement maps each class to the layer that holds it.
//! * **The COSA check** — [`cosa`] declares the nine phases of Fig. 2
//!   and verifies that the instantiation covers the 6 Vs and all three
//!   blocks. The processing phases and dissemination are declared there
//!   by name only: no system path runs them.
//!
//! # Quickstart
//!
//! ```
//! use scc_dlc::acquisition::AcquisitionBlock;
//! use scc_dlc::phase::PhaseContext;
//! use scc_sensors::{ReadingGenerator, SensorType};
//!
//! let mut block = AcquisitionBlock::paper_default(7 /* section id */);
//! let mut gen = ReadingGenerator::for_population(SensorType::Temperature, 20, 42);
//! let out = block.ingest(gen.wave(0), &PhaseContext::at(0));
//! assert!(!out.is_empty());
//! assert!(out.iter().all(|r| r.descriptor().section() == Some(7)));
//! ```

pub mod acquisition;
pub mod age;
pub mod cosa;
pub mod descriptor;
mod error;
pub mod phase;
pub mod preservation;
pub mod quality;
pub mod record;

pub use age::AgeClass;
pub use descriptor::{Descriptor, PrivacyLevel};
pub use error::{Error, Result};
pub use phase::{Block, Phase, PhaseContext, PhaseStats};
pub use quality::{QualityPolicy, QualityReport};
pub use record::DataRecord;
