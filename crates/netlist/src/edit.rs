//! Deterministic scripted netlist edits for incremental-simulation
//! testing: gate retype, fanin rewire, and dead-logic insertion.
//!
//! Each edit is applied to the circuit's canonical [`write_bench`]
//! serialization and re-parsed, so the result is always a valid circuit
//! whose textual diff against the canonical base is exactly one edit.
//! `fsim mutate` exposes them on the command line and the bench harness's
//! `-incremental` twins use them directly; both need the same edit for
//! the same `(circuit, choice)` every time, so nothing here draws
//! randomness — `choice` indexes the candidate list deterministically.

use std::fmt;

use cfs_logic::GateFn;

use crate::{parse_bench, write_bench, Circuit, GateId};

/// A scripted single edit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchEdit {
    /// Swap one combinational gate's function for its arity-preserving
    /// dual (`AND↔NAND`, `OR↔NOR`, `XOR↔XNOR`, `NOT↔BUF`).
    Retype,
    /// Replace pin 0 of one multi-input gate with a primary input.
    Rewire,
    /// Append a small cone of gates no output consumes.
    DeadLogic,
}

impl BenchEdit {
    /// All edits, in display order.
    pub const ALL: [BenchEdit; 3] = [BenchEdit::Retype, BenchEdit::Rewire, BenchEdit::DeadLogic];

    /// The kebab-case name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            BenchEdit::Retype => "retype",
            BenchEdit::Rewire => "rewire",
            BenchEdit::DeadLogic => "dead-logic",
        }
    }

    /// Parses a command-line edit name.
    pub fn parse(s: &str) -> Option<BenchEdit> {
        BenchEdit::ALL.into_iter().find(|e| e.name() == s)
    }
}

impl fmt::Display for BenchEdit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why an edit could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditError {
    /// The circuit has no gate the edit applies to.
    NoCandidate(BenchEdit),
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::NoCandidate(e) => write!(f, "no gate the {e} edit applies to"),
        }
    }
}

impl std::error::Error for EditError {}

/// An applied edit: the mutated circuit, its `.bench` text, and a
/// description of what changed.
#[derive(Debug, Clone)]
pub struct AppliedEdit {
    /// The mutated circuit (already re-parsed and validated).
    pub circuit: Circuit,
    /// Canonical `.bench` text of the mutated circuit's source lines.
    pub text: String,
    /// What the edit did, with names (`"retyped y: AND -> NAND"`).
    pub description: String,
}

/// The arity-preserving dual of a gate function.
pub fn retype_swap(f: GateFn) -> GateFn {
    match f {
        GateFn::Buf => GateFn::Not,
        GateFn::Not => GateFn::Buf,
        GateFn::And => GateFn::Nand,
        GateFn::Nand => GateFn::And,
        GateFn::Or => GateFn::Nor,
        GateFn::Nor => GateFn::Or,
        GateFn::Xor => GateFn::Xnor,
        GateFn::Xnor => GateFn::Xor,
    }
}

/// The number of distinct candidate sites `edit` has in `circuit`
/// (`choice` in [`apply_edit`] indexes them modulo this count).
pub fn edit_candidates(circuit: &Circuit, edit: BenchEdit) -> usize {
    match edit {
        BenchEdit::Retype => circuit.num_comb_gates(),
        BenchEdit::Rewire => rewire_candidates(circuit).len(),
        BenchEdit::DeadLogic => 1,
    }
}

/// Comb gates with at least two pins whose pin 0 can change to some
/// primary input, in id order.
fn rewire_candidates(circuit: &Circuit) -> Vec<GateId> {
    circuit
        .gates()
        .iter()
        .enumerate()
        .filter(|(_, g)| g.kind().is_comb() && g.fanin().len() >= 2)
        .map(|(i, _)| GateId::from_index(i))
        .filter(|&id| rewire_target(circuit, id).is_some())
        .collect()
}

/// The first primary input that differs from `gate`'s pin 0 driver.
fn rewire_target(circuit: &Circuit, gate: GateId) -> Option<GateId> {
    let current = circuit.gate(gate).fanin()[0];
    circuit.inputs().iter().copied().find(|&pi| pi != current)
}

/// `gate`'s line in the [`write_bench`] text, with function `f` and pins
/// `fanin`.
fn gate_line(circuit: &Circuit, gate: GateId, f: GateFn, fanin: &[GateId]) -> String {
    let args: Vec<&str> = fanin.iter().map(|&src| circuit.gate(src).name()).collect();
    format!(
        "{} = {}({})",
        circuit.gate(gate).name(),
        f.name().to_uppercase(),
        args.join(", ")
    )
}

/// `text` with every line equal to `old` replaced by `new`: the whole
/// line, so a gate whose name ends in another's is never touched.
fn replace_line(text: &str, old: &str, new: &str) -> String {
    let mut out = String::with_capacity(text.len() + new.len());
    for line in text.lines() {
        out.push_str(if line == old { new } else { line });
        out.push('\n');
    }
    out
}

/// Applies `edit` to `circuit`, choosing among candidate sites with
/// `choice` (taken modulo the candidate count).
///
/// # Errors
///
/// Returns [`EditError::NoCandidate`] when the circuit has no applicable
/// site (e.g. `rewire` on a circuit with no multi-input gate).
///
/// # Panics
///
/// Panics if the mutated text fails to re-parse — impossible for edits
/// produced here, and a bug worth crashing on otherwise.
pub fn apply_edit(
    circuit: &Circuit,
    edit: BenchEdit,
    choice: usize,
) -> Result<AppliedEdit, EditError> {
    let base_text = write_bench(circuit);
    let (text, description) = match edit {
        BenchEdit::Retype => {
            let comb: Vec<(GateId, GateFn)> = circuit
                .gates()
                .iter()
                .enumerate()
                .filter_map(|(i, g)| Some((GateId::from_index(i), g.kind().gate_fn()?)))
                .collect();
            if comb.is_empty() {
                return Err(EditError::NoCandidate(edit));
            }
            let (id, f) = comb[choice % comb.len()];
            let fanin = circuit.gate(id).fanin();
            let new_fn = retype_swap(f);
            (
                replace_line(
                    &base_text,
                    &gate_line(circuit, id, f, fanin),
                    &gate_line(circuit, id, new_fn, fanin),
                ),
                format!(
                    "retyped {}: {} -> {}",
                    circuit.gate(id).name(),
                    f.name().to_uppercase(),
                    new_fn.name().to_uppercase()
                ),
            )
        }
        BenchEdit::Rewire => {
            let candidates = rewire_candidates(circuit);
            if candidates.is_empty() {
                return Err(EditError::NoCandidate(edit));
            }
            let id = candidates[choice % candidates.len()];
            let gate = circuit.gate(id);
            let f = gate.kind().gate_fn().expect("rewire candidates are comb");
            let pi = rewire_target(circuit, id).expect("candidates have a target");
            let mut new_fanin = gate.fanin().to_vec();
            let old_driver = circuit.gate(new_fanin[0]).name().to_owned();
            new_fanin[0] = pi;
            (
                replace_line(
                    &base_text,
                    &gate_line(circuit, id, f, gate.fanin()),
                    &gate_line(circuit, id, f, &new_fanin),
                ),
                format!(
                    "rewired pin 0 of {}: {} -> {}",
                    gate.name(),
                    old_driver,
                    circuit.gate(pi).name()
                ),
            )
        }
        BenchEdit::DeadLogic => {
            let pins: Vec<&str> = circuit
                .inputs()
                .iter()
                .map(|&id| circuit.gate(id).name())
                .collect();
            let fresh = |stem: &str| -> String {
                let mut i = 0usize;
                loop {
                    let name = format!("{stem}{i}");
                    if circuit.find(&name).is_none() {
                        return name;
                    }
                    i += 1;
                }
            };
            let d0 = fresh("deadx");
            let d1 = fresh("deady");
            let first = pins.first().expect("circuits have inputs");
            let last = pins.last().expect("circuits have inputs");
            let text = format!("{base_text}{d0} = NOT({first})\n{d1} = NAND({d0}, {last})\n");
            (text, format!("inserted dead cone {d0}, {d1}"))
        }
    };
    assert_ne!(text, base_text, "edit must change the netlist");
    let mutated = parse_bench(circuit.name(), &text)
        .unwrap_or_else(|e| panic!("scripted edit produced an invalid netlist: {e}"));
    Ok(AppliedEdit {
        circuit: mutated,
        text,
        description,
    })
}

/// Like [`apply_edit`], but also returns the canonical base text the
/// edit was applied to — the pair of sources a differential test needs.
pub fn apply_edit_with_base(
    circuit: &Circuit,
    edit: BenchEdit,
    choice: usize,
) -> Result<(String, AppliedEdit), EditError> {
    let base = write_bench(circuit);
    apply_edit(circuit, edit, choice).map(|applied| (base, applied))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::s27;
    use crate::GateKind;

    #[test]
    fn retype_swaps_exactly_one_gate() {
        let c = s27();
        for choice in 0..edit_candidates(&c, BenchEdit::Retype) {
            let applied = apply_edit(&c, BenchEdit::Retype, choice).unwrap();
            assert_eq!(applied.circuit.num_comb_gates(), c.num_comb_gates());
            assert_eq!(applied.circuit.num_nodes(), c.num_nodes());
            let changed: Vec<&str> = c
                .gates()
                .iter()
                .filter(|g| {
                    let id2 = applied.circuit.find(g.name()).unwrap();
                    applied.circuit.gate(id2).kind() != g.kind()
                })
                .map(|g| g.name())
                .collect();
            assert_eq!(changed.len(), 1, "choice {choice}: {changed:?}");
            assert!(applied.description.contains(changed[0]));
        }
    }

    #[test]
    fn retype_swap_is_an_involution() {
        for f in GateFn::ALL {
            assert_eq!(retype_swap(retype_swap(f)), f);
            assert_ne!(retype_swap(f), f);
            assert_eq!(f.is_unary(), retype_swap(f).is_unary());
        }
    }

    #[test]
    fn rewire_changes_one_pin_to_an_input() {
        let c = s27();
        let applied = apply_edit(&c, BenchEdit::Rewire, 0).unwrap();
        assert_eq!(applied.circuit.num_nodes(), c.num_nodes());
        let mut rewired = 0;
        for g in c.gates() {
            let g2 = applied
                .circuit
                .gate(applied.circuit.find(g.name()).unwrap());
            let names = |c: &Circuit, f: &[GateId]| -> Vec<String> {
                f.iter().map(|&i| c.gate(i).name().to_owned()).collect()
            };
            if names(&c, g.fanin()) != names(&applied.circuit, g2.fanin()) {
                rewired += 1;
                let new_driver = g2.fanin()[0];
                assert!(matches!(
                    applied.circuit.gate(new_driver).kind(),
                    GateKind::Input
                ));
            }
        }
        assert_eq!(rewired, 1);
    }

    #[test]
    fn dead_logic_appends_an_unconsumed_cone() {
        let c = s27();
        let applied = apply_edit(&c, BenchEdit::DeadLogic, 0).unwrap();
        assert_eq!(applied.circuit.num_nodes(), c.num_nodes() + 2);
        let d1 = applied.circuit.find("deady0").unwrap();
        assert!(applied.circuit.gate(d1).fanout().is_empty());
        assert_eq!(
            applied.circuit.num_outputs(),
            c.num_outputs(),
            "dead logic must not touch the outputs"
        );
    }

    /// `xg`'s line holds `g = AND(a, b)` as a substring: only `g`'s own
    /// line may change.
    #[test]
    fn edits_touch_only_the_chosen_gate_line() {
        let c = crate::parse_bench(
            "suffix",
            "INPUT(a)\nINPUT(b)\nOUTPUT(xg)\nOUTPUT(g)\n\
             xg = AND(a, b)\ng = AND(a, b)\n",
        )
        .unwrap();
        let g = c.find("g").unwrap();
        let gate_fn = |c: &Circuit, name: &str| c.gate(c.find(name).unwrap()).kind().gate_fn();
        let pins = |c: &Circuit, name: &str| -> Vec<String> {
            let id = c.find(name).unwrap();
            c.gate(id)
                .fanin()
                .iter()
                .map(|&src| c.gate(src).name().to_owned())
                .collect()
        };
        let choice = (0..c.num_nodes())
            .find(|&i| {
                apply_edit(&c, BenchEdit::Retype, i)
                    .unwrap()
                    .description
                    .starts_with("retyped g:")
            })
            .unwrap();
        let retyped = apply_edit(&c, BenchEdit::Retype, choice).unwrap().circuit;
        assert_eq!(gate_fn(&retyped, "g"), Some(GateFn::Nand));
        assert_eq!(gate_fn(&retyped, "xg"), Some(GateFn::And));

        let choice = rewire_candidates(&c)
            .iter()
            .position(|&id| id == g)
            .unwrap();
        let applied = apply_edit(&c, BenchEdit::Rewire, choice).unwrap();
        assert!(
            applied.description.contains(" of g:"),
            "{}",
            applied.description
        );
        assert_eq!(pins(&applied.circuit, "g"), ["b", "b"]);
        assert_eq!(pins(&applied.circuit, "xg"), ["a", "b"]);
    }

    #[test]
    fn edits_are_deterministic() {
        let c = s27();
        for edit in BenchEdit::ALL {
            let a = apply_edit(&c, edit, 3).unwrap();
            let b = apply_edit(&c, edit, 3).unwrap();
            assert_eq!(a.text, b.text, "{edit}");
        }
    }

    #[test]
    fn edit_names_round_trip() {
        for edit in BenchEdit::ALL {
            assert_eq!(BenchEdit::parse(edit.name()), Some(edit));
        }
        assert_eq!(BenchEdit::parse("nonsense"), None);
    }
}
