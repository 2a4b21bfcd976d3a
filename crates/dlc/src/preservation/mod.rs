//! The data preservation block (Fig. 2) as the system runs it:
//! classification orders and versions every batch the cloud receives, and
//! [`ArchiveStore`] is the storage tier at every F2C layer, temporary at
//! fog 1 and fog 2 and permanent at the cloud (§IV.B). Dissemination is
//! declared in [`crate::cosa`] but not implemented: records are read
//! through the query engine.

mod archive;
mod classification;

pub use archive::ArchiveStore;
pub use classification::{ClassificationPhase, Lineage};
