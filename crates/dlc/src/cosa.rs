//! The COSA-DLC model (§II): the *Comprehensive Scenario-Agnostic* data
//! life-cycle the authors proposed in \[9\], from which the SCC-DLC used in
//! this paper was instantiated. COSA's claim is twofold: **comprehensive**
//! — the model addresses all "6 Vs" of big-data management — and
//! **scenario-agnostic** — any scenario instantiates the same three
//! blocks with its own phases.
//!
//! This module encodes that claim checkably: an instantiation declares
//! which Vs each of its phases addresses, and [`Instantiation::verify`]
//! confirms the 6V coverage and block structure. [`scc_instantiation`] is
//! the smart-city instantiation of Fig. 2, and its comprehensiveness is a
//! unit-tested fact rather than prose.

use std::collections::BTreeSet;

use crate::phase::Block;

/// The six challenges ("6 Vs") of big-data management the COSA-DLC model
/// is designed around (§II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SixV {
    /// Extracting value from data (analysis, dissemination).
    Value,
    /// Handling data volume (aggregation, compression, tiering).
    Volume,
    /// Handling data variety (classification, description).
    Variety,
    /// Handling data velocity (real-time collection and consumption).
    Velocity,
    /// Handling variability over time (windows, retention, removal).
    Variability,
    /// Ensuring veracity (quality assessment, lineage).
    Veracity,
}

impl SixV {
    /// All six challenges.
    pub const ALL: [SixV; 6] = [
        SixV::Value,
        SixV::Volume,
        SixV::Variety,
        SixV::Velocity,
        SixV::Variability,
        SixV::Veracity,
    ];
}

/// One phase of an instantiation: its name, block, and the Vs it covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseDecl {
    /// Phase name (matches the `Phase::name` of the implementation).
    pub name: &'static str,
    /// Which block it belongs to.
    pub block: Block,
    /// The challenges this phase addresses.
    pub addresses: &'static [SixV],
}

/// A scenario instantiation of the COSA-DLC model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instantiation {
    /// Scenario name (e.g. "smart city").
    pub scenario: &'static str,
    /// Declared phases.
    pub phases: Vec<PhaseDecl>,
}

/// Why an instantiation is not a valid COSA-DLC model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CosaViolation {
    /// One of the 6 Vs is addressed by no phase.
    UncoveredV(SixV),
    /// A block has no phases at all.
    EmptyBlock(Block),
    /// Two phases share a name.
    DuplicatePhase(&'static str),
}

impl Instantiation {
    /// Checks comprehensiveness (all 6 Vs covered), structural completeness
    /// (all three blocks populated), and naming sanity. Returns all
    /// violations, empty when valid.
    pub fn verify(&self) -> Vec<CosaViolation> {
        let mut violations = Vec::new();
        let covered: BTreeSet<SixV> = self
            .phases
            .iter()
            .flat_map(|p| p.addresses.iter().copied())
            .collect();
        for v in SixV::ALL {
            if !covered.contains(&v) {
                violations.push(CosaViolation::UncoveredV(v));
            }
        }
        for block in [Block::Acquisition, Block::Processing, Block::Preservation] {
            if !self.phases.iter().any(|p| p.block == block) {
                violations.push(CosaViolation::EmptyBlock(block));
            }
        }
        let mut seen = BTreeSet::new();
        for p in &self.phases {
            if !seen.insert(p.name) {
                violations.push(CosaViolation::DuplicatePhase(p.name));
            }
        }
        violations
    }

    /// Whether the instantiation is a comprehensive COSA-DLC model.
    pub fn is_comprehensive(&self) -> bool {
        self.verify().is_empty()
    }

    /// Phases of one block, in declaration order.
    pub fn phases_in(&self, block: Block) -> Vec<&PhaseDecl> {
        self.phases.iter().filter(|p| p.block == block).collect()
    }
}

/// The SCC-DLC: the smart-city instantiation of Fig. 2, with the 6V
/// coverage each phase provides. The acquisition and classification
/// names match the implementations in [`crate::acquisition`] and
/// [`crate::preservation`]; the other four phases are declared by name.
pub fn scc_instantiation() -> Instantiation {
    use Block::*;
    use SixV::*;
    Instantiation {
        scenario: "smart city",
        phases: vec![
            PhaseDecl {
                name: "data-collection",
                block: Acquisition,
                addresses: &[Velocity, Volume],
            },
            PhaseDecl {
                name: "data-filtering",
                block: Acquisition,
                addresses: &[Volume, Variability],
            },
            PhaseDecl {
                name: "data-quality",
                block: Acquisition,
                addresses: &[Veracity],
            },
            PhaseDecl {
                name: "data-description",
                block: Acquisition,
                addresses: &[Variety],
            },
            PhaseDecl {
                name: "data-process",
                block: Processing,
                addresses: &[Value, Variety],
            },
            PhaseDecl {
                name: "data-analysis",
                block: Processing,
                addresses: &[Value],
            },
            PhaseDecl {
                name: "data-classification",
                block: Preservation,
                addresses: &[Variety, Veracity],
            },
            PhaseDecl {
                name: "data-archive",
                block: Preservation,
                addresses: &[Volume, Variability],
            },
            PhaseDecl {
                name: "data-dissemination",
                block: Preservation,
                addresses: &[Value],
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scc_instantiation_is_comprehensive() {
        let scc = scc_instantiation();
        assert!(scc.is_comprehensive(), "violations: {:?}", scc.verify());
        assert_eq!(scc.phases.len(), 9, "Fig. 2 has nine phases");
        assert_eq!(scc.phases_in(Block::Acquisition).len(), 4);
        assert_eq!(scc.phases_in(Block::Processing).len(), 2);
        assert_eq!(scc.phases_in(Block::Preservation).len(), 3);
    }

    #[test]
    fn phase_names_match_the_implementations() {
        use crate::acquisition::*;
        use crate::phase::Phase;
        use crate::preservation::*;
        let impls: Vec<&'static str> = vec![
            CollectionPhase::new().name(),
            FilteringPhase::paper_default().name(),
            QualityPhase::dropping_failures().name(),
            DescriptionPhase::new("x", 0, 0).name(),
            // No system path runs processing; declared by name.
            "data-process",
            "data-analysis",
            ClassificationPhase::new().name(),
            // The archive is `ArchiveStore`, not a `Phase`; records are
            // read back through `f2c-query`, which has no dissemination
            // phase. Both declared by name.
            "data-archive",
            "data-dissemination",
        ];
        let declared: Vec<&'static str> =
            scc_instantiation().phases.iter().map(|p| p.name).collect();
        assert_eq!(impls, declared);
    }

    #[test]
    fn missing_v_is_detected() {
        let mut scc = scc_instantiation();
        // Drop the only Veracity providers.
        scc.phases
            .retain(|p| !p.addresses.contains(&SixV::Veracity));
        let violations = scc.verify();
        assert!(violations.contains(&CosaViolation::UncoveredV(SixV::Veracity)));
    }

    #[test]
    fn empty_block_is_detected() {
        let mut scc = scc_instantiation();
        scc.phases.retain(|p| p.block != Block::Processing);
        let violations = scc.verify();
        assert!(violations.contains(&CosaViolation::EmptyBlock(Block::Processing)));
        // Value was only provided by processing+dissemination; dissemination
        // remains, so Value is still covered.
        assert!(!violations.contains(&CosaViolation::UncoveredV(SixV::Value)));
    }

    #[test]
    fn duplicate_phase_names_are_detected() {
        let mut scc = scc_instantiation();
        let dup = scc.phases[0].clone();
        scc.phases.push(dup);
        assert!(scc
            .verify()
            .contains(&CosaViolation::DuplicatePhase("data-collection")));
    }

    #[test]
    fn scenario_agnosticism_another_instantiation_verifies() {
        // A minimal eScience instantiation with different phases: the model
        // is agnostic as long as the 6 Vs and 3 blocks are covered.
        use Block::*;
        use SixV::*;
        let escience = Instantiation {
            scenario: "eScience",
            phases: vec![
                PhaseDecl {
                    name: "ingest",
                    block: Acquisition,
                    addresses: &[Velocity, Veracity],
                },
                PhaseDecl {
                    name: "curate",
                    block: Acquisition,
                    addresses: &[Variety],
                },
                PhaseDecl {
                    name: "simulate",
                    block: Processing,
                    addresses: &[Value],
                },
                PhaseDecl {
                    name: "archive",
                    block: Preservation,
                    addresses: &[Volume, Variability],
                },
            ],
        };
        assert!(escience.is_comprehensive());
    }
}
