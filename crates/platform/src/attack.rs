//! Host behaviours: honest execution or a concrete attack.
//!
//! The attacks map onto the areas of the paper's Fig. 2 taxonomy that a
//! reference-state mechanism is (or is deliberately *not*) able to detect.
//! Each variant documents which area it instantiates and whether the paper
//! says reference states can catch it.

use std::fmt;

use refstate_vm::Value;

use crate::host::HostId;

/// A concrete malicious-host strategy.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Attack {
    /// Fig. 2 area 5 (manipulation of data): overwrite a state variable
    /// after honest execution. **Detectable** — the resulting state differs
    /// from the reference state.
    TamperVariable {
        /// Variable to overwrite.
        name: String,
        /// The forged value.
        value: Value,
    },
    /// Fig. 2 area 5: delete a state variable (e.g. drop a competitor's
    /// offer). **Detectable**.
    DeleteVariable {
        /// Variable to remove.
        name: String,
    },
    /// Fig. 2 area 7 (incorrect execution): do not run the agent at all and
    /// pass its initial state on unchanged. **Detectable** when the session
    /// should have changed state.
    SkipExecution,
    /// Fig. 2 area 7: run the agent but corrupt one integer result by a
    /// multiplicative factor (a biased computation). **Detectable**.
    ScaleIntVariable {
        /// Variable to scale.
        name: String,
        /// The multiplier applied to the honest result.
        factor: i64,
    },
    /// Fig. 2 area 6 (manipulation of control flow): force the agent to
    /// migrate to a host of the attacker's choosing instead of the one the
    /// agent computed. **Detectable** via re-execution (the reference
    /// session ends with a different destination).
    RedirectMigration {
        /// Where the attacker sends the agent.
        to: HostId,
    },
    /// Input suppression: remove the host-supplied input for a tag before
    /// the session. The paper classifies this as **undetectable** by
    /// reference states ("attacks where the party that compiles the input
    /// modifies or suppresses input").
    DropInput {
        /// The input tag to starve.
        tag: String,
    },
    /// Input forgery: replace the genuine input value with a lie. Also
    /// **undetectable** by plain reference states; the §4.3 extension
    /// (signed inputs) catches it.
    ForgeInput {
        /// The input tag to forge.
        tag: String,
        /// The forged value.
        value: Value,
    },
    /// Read attack (Fig. 2 area 2): copy the agent's state for the host's
    /// own use, executing honestly otherwise. **Undetectable** by design —
    /// it leaves no trace in the agent state; included so the detection
    /// matrix can show the mechanism's stated limits.
    ReadState,
    /// Collaboration: execute maliciously (tamper `name` like
    /// [`Attack::TamperVariable`]) while a colluding *next* host promises
    /// to skip checking. The example protocol **cannot detect** collusion
    /// between consecutive hosts (§5.1).
    CollaborateTamper {
        /// Variable to overwrite.
        name: String,
        /// The forged value.
        value: Value,
        /// The colluding next host that will vouch for the session.
        accomplice: HostId,
    },
    /// Chain truncation (Karjoth's "stemming" attack): drop the most
    /// recent `drop` entries of the per-hop result chain the agent
    /// carries — e.g. erase a competitor's offer. Acts on the
    /// chained-integrity protocol data, not the agent state: hosts
    /// executing under a mechanism that carries no chain run honestly.
    /// **Undetectable** by reference states; **detectable** by chained
    /// integrity (the surviving entries' next-hop commitments break).
    TruncateChainTail {
        /// How many tail entries to drop (clamped to the chain length).
        drop: usize,
    },
    /// Chain reordering: swap the two most recent entries of the carried
    /// result chain (a no-op when fewer than two predecessors recorded).
    /// **Undetectable** by reference states; **detectable** by chained
    /// integrity (sequence numbers and chain bindings break).
    SwapChainEntries,
    /// Partial-result substitution: overwrite the most recent
    /// predecessor's recorded partial result in the carried chain with a
    /// forgery. **Undetectable** by reference states; **detectable** by
    /// chained integrity (the victim's MAC/signature no longer covers the
    /// entry).
    ReplacePartialResult,
    /// Colluding-predecessor forgery: the immediate predecessor shared
    /// its chain key, so the attacker rewrites the predecessor's chain
    /// entry *validly* (fresh MAC/signature under the predecessor's key)
    /// and re-chains its own entry on top. **Undetectable** by both
    /// reference states and chained integrity — the chained family's
    /// structural analogue of the §5.1 consecutive-host collusion.
    ForgeChainEntry {
        /// The colluding immediate predecessor whose key the attacker
        /// borrows.
        accomplice: HostId,
    },
    /// Cross-journey replay (Fig. 2 area 5, staged over time): the host
    /// remembered a result variable from a *previous* journey of the same
    /// owner and presents that stale value instead of executing honestly
    /// for the current one. **Detectable** — the replayed state differs
    /// from the reference state computed for the current journey's
    /// inputs.
    ReplayStaleState {
        /// Variable to overwrite with the remembered value.
        name: String,
        /// The stale value, captured from an earlier journey.
        value: Value,
    },
}

impl Attack {
    /// Returns `true` if the paper's reference-state schemes should detect
    /// this attack (used by tests asserting the protection bandwidth).
    pub fn detectable_by_reference_state(&self) -> bool {
        match self {
            Attack::TamperVariable { .. }
            | Attack::DeleteVariable { .. }
            | Attack::SkipExecution
            | Attack::ScaleIntVariable { .. }
            | Attack::RedirectMigration { .. }
            | Attack::ReplayStaleState { .. } => true,
            Attack::DropInput { .. }
            | Attack::ForgeInput { .. }
            | Attack::ReadState
            | Attack::CollaborateTamper { .. }
            | Attack::TruncateChainTail { .. }
            | Attack::SwapChainEntries
            | Attack::ReplacePartialResult
            | Attack::ForgeChainEntry { .. } => false,
        }
    }

    /// Returns `true` if chained-integrity mechanisms (hop-chained
    /// MACs / signed partial-result encapsulation) should detect this
    /// attack. The complement of [`Attack::detectable_by_reference_state`]
    /// on the chain attacks: chained integrity detects manipulation of
    /// *recorded* partial results without re-execution, but is blind to
    /// computation lies (a host MACs/signs its own lie consistently) and
    /// to a predecessor that colludes by sharing its chain key.
    pub fn detectable_by_chained_integrity(&self) -> bool {
        matches!(
            self,
            Attack::TruncateChainTail { .. }
                | Attack::SwapChainEntries
                | Attack::ReplacePartialResult
        )
    }

    /// Returns `true` for attacks that act on the per-hop result chain
    /// some mechanisms make the agent carry (applied by the chained
    /// journey drivers; a no-op for every other mechanism).
    pub fn targets_result_chain(&self) -> bool {
        matches!(
            self,
            Attack::TruncateChainTail { .. }
                | Attack::SwapChainEntries
                | Attack::ReplacePartialResult
                | Attack::ForgeChainEntry { .. }
        )
    }

    /// A short machine-readable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Attack::TamperVariable { .. } => "tamper-variable",
            Attack::DeleteVariable { .. } => "delete-variable",
            Attack::SkipExecution => "skip-execution",
            Attack::ScaleIntVariable { .. } => "scale-int",
            Attack::RedirectMigration { .. } => "redirect-migration",
            Attack::DropInput { .. } => "drop-input",
            Attack::ForgeInput { .. } => "forge-input",
            Attack::ReadState => "read-state",
            Attack::CollaborateTamper { .. } => "collaborate-tamper",
            Attack::TruncateChainTail { .. } => "truncate-tail",
            Attack::SwapChainEntries => "swap-two-hops",
            Attack::ReplacePartialResult => "replace-partial-result",
            Attack::ForgeChainEntry { .. } => "collude-predecessor",
            Attack::ReplayStaleState { .. } => "replay-stale-state",
        }
    }
}

impl fmt::Display for Attack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Attack::TamperVariable { name, value } => write!(f, "tamper {name}={value}"),
            Attack::DeleteVariable { name } => write!(f, "delete {name}"),
            Attack::SkipExecution => f.write_str("skip execution"),
            Attack::ScaleIntVariable { name, factor } => write!(f, "scale {name} by {factor}"),
            Attack::RedirectMigration { to } => write!(f, "redirect migration to {to}"),
            Attack::DropInput { tag } => write!(f, "drop input {tag}"),
            Attack::ForgeInput { tag, value } => write!(f, "forge input {tag}={value}"),
            Attack::ReadState => f.write_str("read state"),
            Attack::CollaborateTamper {
                name,
                value,
                accomplice,
            } => {
                write!(f, "tamper {name}={value} with accomplice {accomplice}")
            }
            Attack::TruncateChainTail { drop } => {
                write!(f, "truncate result chain by {drop} tail entries")
            }
            Attack::SwapChainEntries => f.write_str("swap two result-chain entries"),
            Attack::ReplacePartialResult => f.write_str("replace a recorded partial result"),
            Attack::ForgeChainEntry { accomplice } => {
                write!(
                    f,
                    "forge chain entry with colluding predecessor {accomplice}"
                )
            }
            Attack::ReplayStaleState { name, value } => {
                write!(f, "replay stale {name}={value} from a previous journey")
            }
        }
    }
}

/// How a host treats the agents it executes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Behaviour {
    /// Reference behaviour: execute exactly as specified.
    #[default]
    Honest,
    /// Apply the given attack during (or after) the session.
    Malicious(Attack),
}

impl Behaviour {
    /// Returns the attack, if malicious.
    pub fn attack(&self) -> Option<&Attack> {
        match self {
            Behaviour::Honest => None,
            Behaviour::Malicious(a) => Some(a),
        }
    }

    /// Returns `true` for honest behaviour.
    pub fn is_honest(&self) -> bool {
        matches!(self, Behaviour::Honest)
    }
}

impl fmt::Display for Behaviour {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Behaviour::Honest => f.write_str("honest"),
            Behaviour::Malicious(a) => write!(f, "malicious ({a})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_attacks() -> Vec<Attack> {
        vec![
            Attack::TamperVariable {
                name: "x".into(),
                value: Value::Int(0),
            },
            Attack::DeleteVariable { name: "x".into() },
            Attack::SkipExecution,
            Attack::ScaleIntVariable {
                name: "x".into(),
                factor: 2,
            },
            Attack::RedirectMigration {
                to: HostId::new("evil"),
            },
            Attack::DropInput { tag: "t".into() },
            Attack::ForgeInput {
                tag: "t".into(),
                value: Value::Int(1),
            },
            Attack::ReadState,
            Attack::CollaborateTamper {
                name: "x".into(),
                value: Value::Int(0),
                accomplice: HostId::new("h3"),
            },
            Attack::TruncateChainTail { drop: 1 },
            Attack::SwapChainEntries,
            Attack::ReplacePartialResult,
            Attack::ForgeChainEntry {
                accomplice: HostId::new("h2"),
            },
            Attack::ReplayStaleState {
                name: "x".into(),
                value: Value::Int(0),
            },
        ]
    }

    #[test]
    fn detectability_matches_paper_claims() {
        let detectable: Vec<&'static str> = all_attacks()
            .iter()
            .filter(|a| a.detectable_by_reference_state())
            .map(|a| a.label())
            .collect();
        assert_eq!(
            detectable,
            vec![
                "tamper-variable",
                "delete-variable",
                "skip-execution",
                "scale-int",
                "redirect-migration",
                "replay-stale-state"
            ]
        );
    }

    #[test]
    fn chained_integrity_bandwidth_matches_design() {
        let detectable: Vec<&'static str> = all_attacks()
            .iter()
            .filter(|a| a.detectable_by_chained_integrity())
            .map(|a| a.label())
            .collect();
        assert_eq!(
            detectable,
            vec!["truncate-tail", "swap-two-hops", "replace-partial-result"]
        );
        // Every chain attack targets the carried chain; collusion does too
        // but evades detection (the structural blind spot).
        for attack in all_attacks() {
            if attack.detectable_by_chained_integrity() {
                assert!(attack.targets_result_chain());
                assert!(!attack.detectable_by_reference_state(), "{attack:?}");
            }
        }
        let collude = Attack::ForgeChainEntry {
            accomplice: HostId::new("h2"),
        };
        assert!(collude.targets_result_chain());
        assert!(!collude.detectable_by_chained_integrity());
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::BTreeSet<_> =
            all_attacks().iter().map(|a| a.label()).collect();
        assert_eq!(labels.len(), all_attacks().len());
    }

    #[test]
    fn behaviour_accessors() {
        assert!(Behaviour::Honest.is_honest());
        assert!(Behaviour::Honest.attack().is_none());
        let b = Behaviour::Malicious(Attack::SkipExecution);
        assert!(!b.is_honest());
        assert_eq!(b.attack(), Some(&Attack::SkipExecution));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Behaviour::Honest.to_string(), "honest");
        let b = Behaviour::Malicious(Attack::DropInput { tag: "p".into() });
        assert_eq!(b.to_string(), "malicious (drop input p)");
    }
}
