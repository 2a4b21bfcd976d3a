//! Data age characterization (§II): "we characterize data according to its
//! age, ranging from real-time to historical data".

use serde::{Deserialize, Serialize};

/// Age class of a piece of data at some observation instant.
///
/// The paper fixes only the ordering: real-time data is just-generated
/// and consumed near its fog-1 node, historical data has accumulated in
/// storage (presumably at higher layers), with a recent band in between.
/// The placement engine maps each class to the layer that holds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum AgeClass {
    /// Just generated; candidates for critical low-latency consumption.
    RealTime,
    /// No longer real-time but typically still at a fog layer.
    Recent,
    /// Accumulated/archived data, typically at the cloud.
    Historical,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn age_classes_are_ordered() {
        assert!(AgeClass::RealTime < AgeClass::Recent);
        assert!(AgeClass::Recent < AgeClass::Historical);
    }
}
