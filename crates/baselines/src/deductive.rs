//! Deductive fault simulation (Armstrong, 1972) — the method whose
//! per-gate fault-list *simplicity* the paper's data structure borrows.
//!
//! Deductive simulation propagates *fault lists* (sets of faults whose
//! machine differs from the good machine at a line) by set algebra: for a
//! gate with controlling value `c`, with `S` the set of inputs at `c`,
//!
//! * `S = ∅`: the output list is the union of the input lists,
//! * `S ≠ ∅`: the output list is the intersection of the lists of `S` minus
//!   the union of the lists of the other inputs,
//!
//! with XOR handled by membership parity and fault-site lines adjusted for
//! their local fault. The deduction is exact only while every line is
//! binary, which is the method's classic limitation for sequential circuits
//! — this implementation therefore requires a binary reset state and binary
//! patterns, and reports an error otherwise.

use std::fmt;
use std::time::Instant;

use cfs_faults::{FaultSimReport, FaultSite, FaultStatus, StuckAt};
use cfs_logic::{GateFn, Logic};
use cfs_netlist::Circuit;

/// Error returned when the deductive simulator's binary-domain requirement
/// is violated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeductiveError {
    /// A pattern contained an `X`.
    NonBinaryPattern {
        /// Pattern index.
        pattern: usize,
    },
    /// The reset state contained an `X` or was missing.
    NonBinaryReset,
}

impl fmt::Display for DeductiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeductiveError::NonBinaryPattern { pattern } => {
                write!(
                    f,
                    "pattern {pattern} contains X; deductive simulation is binary-only"
                )
            }
            DeductiveError::NonBinaryReset => {
                f.write_str("deductive simulation requires a binary reset state")
            }
        }
    }
}

impl std::error::Error for DeductiveError {}

/// The deductive fault simulator.
///
/// # Examples
///
/// ```
/// use cfs_baselines::DeductiveSim;
/// use cfs_faults::enumerate_stuck_at;
/// use cfs_logic::{parse_pattern, Logic};
/// use cfs_netlist::data::s27;
///
/// let circuit = s27();
/// let faults = enumerate_stuck_at(&circuit);
/// let sim = DeductiveSim::new(&circuit, &faults, vec![Logic::Zero; 3]);
/// let report = sim.run(&[parse_pattern("0101")?])?;
/// assert_eq!(report.total_faults(), faults.len());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct DeductiveSim<'c> {
    circuit: &'c Circuit,
    faults: Vec<StuckAt>,
    reset_state: Vec<Logic>,
    /// Local faults per node: `(fault index, pin or output, stuck value)`.
    locals: Vec<Vec<(u32, Option<u8>, Logic)>>,
}

impl<'c> DeductiveSim<'c> {
    /// Creates a deductive simulator starting from `reset_state`.
    ///
    /// # Panics
    ///
    /// Panics if `reset_state.len()` differs from the flip-flop count.
    pub fn new(circuit: &'c Circuit, faults: &[StuckAt], reset_state: Vec<Logic>) -> Self {
        assert_eq!(reset_state.len(), circuit.num_dffs(), "state width");
        let mut locals: Vec<Vec<(u32, Option<u8>, Logic)>> = vec![Vec::new(); circuit.num_nodes()];
        for (i, f) in faults.iter().enumerate() {
            let (g, pin) = match f.site {
                FaultSite::Output { gate } => (gate, None),
                FaultSite::Pin { gate, pin } => (gate, Some(pin)),
            };
            locals[g.index()].push((i as u32, pin, f.value()));
        }
        DeductiveSim {
            circuit,
            faults: faults.to_vec(),
            reset_state,
            locals,
        }
    }

    /// Runs the pattern sequence.
    ///
    /// # Errors
    ///
    /// Returns [`DeductiveError`] if the reset state or any pattern is not
    /// fully binary.
    pub fn run(&self, patterns: &[Vec<Logic>]) -> Result<FaultSimReport, DeductiveError> {
        if self.reset_state.iter().any(|v| !v.is_binary()) {
            return Err(DeductiveError::NonBinaryReset);
        }
        for (t, p) in patterns.iter().enumerate() {
            if p.iter().any(|v| !v.is_binary()) {
                return Err(DeductiveError::NonBinaryPattern { pattern: t });
            }
        }
        let start = Instant::now();
        let n = self.circuit.num_nodes();
        let mut values = vec![Logic::X; n];
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (&q, &v) in self.circuit.dffs().iter().zip(&self.reset_state) {
            values[q.index()] = v;
        }
        let mut detected_at: Vec<Option<usize>> = vec![None; self.faults.len()];
        let mut peak_entries = 0usize;

        for (t, pattern) in patterns.iter().enumerate() {
            // Good values + PI fault lists.
            for (&pi, &v) in self.circuit.inputs().iter().zip(pattern) {
                values[pi.index()] = v;
                lists[pi.index()] = self.local_output_list(pi.index(), v, &detected_at);
            }
            // Reset-persistent DFF output faults re-assert each cycle below
            // at latch; at cycle 0 the reset list is local-only.
            if t == 0 {
                for &q in self.circuit.dffs() {
                    let v = values[q.index()];
                    lists[q.index()] = self.local_output_list(q.index(), v, &detected_at);
                }
            }
            // Deduce lists in topological order.
            for &id in self.circuit.topo_order() {
                let gate = self.circuit.gate(id);
                let f = gate.kind().gate_fn().expect("combinational");
                let ins: Vec<usize> = gate.fanin().iter().map(|g| g.index()).collect();
                let good_out = {
                    let vals: Vec<Logic> = ins.iter().map(|&k| values[k]).collect();
                    f.eval(&vals)
                };
                let mut out = self.deduce(f, &ins, &values, &lists);
                // Local fault adjustment: evaluate each site fault exactly.
                for &(fid, pin, stuck) in &self.locals[id.index()] {
                    if detected_at[fid as usize].is_some() {
                        continue;
                    }
                    let faulty_out = match pin {
                        None => stuck,
                        Some(p) => {
                            let mut vals: Vec<Logic> = ins
                                .iter()
                                .map(|&k| {
                                    let flip = lists[k].binary_search(&fid).is_ok();
                                    if flip {
                                        !values[k]
                                    } else {
                                        values[k]
                                    }
                                })
                                .collect();
                            vals[p as usize] = stuck;
                            f.eval(&vals)
                        }
                    };
                    set_membership(&mut out, fid, faulty_out != good_out);
                }
                // Purge detected faults lazily.
                out.retain(|&fid| detected_at[fid as usize].is_none());
                values[id.index()] = good_out;
                lists[id.index()] = out;
            }
            // Detect at primary outputs (every line is binary).
            for &po in self.circuit.outputs() {
                let plist = lists[po.index()].clone();
                for fid in plist {
                    if detected_at[fid as usize].is_none() {
                        detected_at[fid as usize] = Some(t);
                    }
                }
            }
            // Latch.
            let updates: Vec<(usize, Logic, Vec<u32>)> = self
                .circuit
                .dffs()
                .iter()
                .map(|&q| {
                    let d = self.circuit.gate(q).fanin()[0].index();
                    let mut list = lists[d].clone();
                    let good_q = values[d];
                    for &(fid, pin, stuck) in &self.locals[q.index()] {
                        if detected_at[fid as usize].is_some() {
                            continue;
                        }
                        // Both Q-stuck and D-stuck latch the stuck value.
                        let _ = pin;
                        set_membership(&mut list, fid, stuck != good_q);
                    }
                    list.retain(|&fid| detected_at[fid as usize].is_none());
                    (q.index(), good_q, list)
                })
                .collect();
            for (qi, v, list) in updates {
                values[qi] = v;
                lists[qi] = list;
            }
            peak_entries = peak_entries.max(lists.iter().map(Vec::len).sum());
        }

        let statuses = detected_at
            .iter()
            .map(|d| match d {
                Some(p) => FaultStatus::Detected { pattern: *p },
                None => FaultStatus::Undetected,
            })
            .collect();
        Ok(FaultSimReport {
            simulator: "deductive".to_owned(),
            circuit: self.circuit.name().to_owned(),
            patterns: patterns.len(),
            statuses,
            cpu: start.elapsed(),
            memory_bytes: peak_entries * 4 + self.faults.len() * 8,
            events: 0,
            evaluations: 0,
        })
    }

    fn local_output_list(
        &self,
        node: usize,
        good: Logic,
        detected_at: &[Option<usize>],
    ) -> Vec<u32> {
        let mut out: Vec<u32> = self.locals[node]
            .iter()
            .filter(|(fid, pin, stuck)| {
                pin.is_none() && *stuck != good && detected_at[*fid as usize].is_none()
            })
            .map(|&(fid, _, _)| fid)
            .collect();
        out.sort_unstable();
        out
    }

    /// Set-algebra deduction of the propagated output list (ignoring local
    /// faults, adjusted by the caller).
    fn deduce(&self, f: GateFn, ins: &[usize], values: &[Logic], lists: &[Vec<u32>]) -> Vec<u32> {
        match f {
            GateFn::Buf | GateFn::Not => lists[ins[0]].clone(),
            GateFn::And | GateFn::Nand | GateFn::Or | GateFn::Nor => {
                let c = f.controlling_value().expect("controlling gate");
                let at_c: Vec<&Vec<u32>> = ins
                    .iter()
                    .filter(|&&k| values[k] == c)
                    .map(|&k| &lists[k])
                    .collect();
                let not_c: Vec<&Vec<u32>> = ins
                    .iter()
                    .filter(|&&k| values[k] != c)
                    .map(|&k| &lists[k])
                    .collect();
                if at_c.is_empty() {
                    union_all(&not_c)
                } else {
                    let mut acc = at_c[0].clone();
                    for l in &at_c[1..] {
                        acc = intersect(&acc, l);
                    }
                    let minus = union_all(&not_c);
                    difference(&acc, &minus)
                }
            }
            GateFn::Xor | GateFn::Xnor => {
                // A fault flips the output iff it flips an odd number of
                // inputs.
                let all: Vec<&Vec<u32>> = ins.iter().map(|&k| &lists[k]).collect();
                let union = union_all(&all);
                union
                    .into_iter()
                    .filter(|fid| {
                        let flips = ins
                            .iter()
                            .filter(|&&k| lists[k].binary_search(fid).is_ok())
                            .count();
                        flips % 2 == 1
                    })
                    .collect()
            }
        }
    }
}

impl fmt::Debug for DeductiveSim<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeductiveSim")
            .field("circuit", &self.circuit.name())
            .field("faults", &self.faults.len())
            .finish()
    }
}

fn union_all(lists: &[&Vec<u32>]) -> Vec<u32> {
    let mut out: Vec<u32> = Vec::new();
    for l in lists {
        out = union2(&out, l);
    }
    out
}

fn union2(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x == y => {
                out.push(x);
                i += 1;
                j += 1;
            }
            (Some(&x), Some(&y)) if x < y => {
                out.push(x);
                i += 1;
            }
            (Some(_), Some(&y)) => {
                out.push(y);
                j += 1;
            }
            (Some(&x), None) => {
                out.push(x);
                i += 1;
            }
            (None, Some(&y)) => {
                out.push(y);
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    out
}

fn intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
    out
}

fn difference(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() {
        if j >= b.len() || a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else if a[i] == b[j] {
            i += 1;
            j += 1;
        } else {
            j += 1;
        }
    }
    out
}

fn set_membership(set: &mut Vec<u32>, fid: u32, member: bool) {
    match set.binary_search(&fid) {
        Ok(pos) => {
            if !member {
                set.remove(pos);
            }
        }
        Err(pos) => {
            if member {
                set.insert(pos, fid);
            }
        }
    }
}

/// Returns a circuit's all-zero reset state (helper for deductive runs).
pub fn zero_state(circuit: &Circuit) -> Vec<Logic> {
    vec![Logic::Zero; circuit.num_dffs()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SerialSim;
    use cfs_faults::enumerate_stuck_at;
    use cfs_logic::parse_pattern;
    use cfs_netlist::data::s27;

    #[test]
    fn matches_serial_with_reset_on_s27() {
        let c = s27();
        let faults = enumerate_stuck_at(&c);
        let pats: Vec<_> = ["0000", "1111", "0101", "1010", "0011", "1100", "1001"]
            .iter()
            .map(|p| parse_pattern(p).unwrap())
            .collect();
        let reset = zero_state(&c);
        let serial = SerialSim::new(&c, &faults)
            .with_reset_state(reset.clone())
            .run(&pats);
        let ded = DeductiveSim::new(&c, &faults, reset).run(&pats).unwrap();
        for (i, (a, b)) in serial.statuses.iter().zip(&ded.statuses).enumerate() {
            assert_eq!(a, b, "fault {i}: {}", faults[i].describe(&c));
        }
    }

    #[test]
    fn rejects_x_patterns() {
        let c = s27();
        let faults = enumerate_stuck_at(&c);
        let sim = DeductiveSim::new(&c, &faults, zero_state(&c));
        let err = sim.run(&[parse_pattern("01x1").unwrap()]).unwrap_err();
        assert_eq!(err, DeductiveError::NonBinaryPattern { pattern: 0 });
        let sim = DeductiveSim::new(&c, &faults, vec![Logic::X; 3]);
        let err = sim.run(&[parse_pattern("0101").unwrap()]).unwrap_err();
        assert_eq!(err, DeductiveError::NonBinaryReset);
    }

    #[test]
    fn xor_parity_rule() {
        // y = XOR(a, b) where both inputs carry the same fault effect (a
        // stem feeding both pins): the effects cancel.
        let c = cfs_netlist::parse_bench(
            "xx",
            "INPUT(a)\nOUTPUT(y)\nn = NOT(a)\nm = BUF(a)\ny = XOR(n, m)\n",
        )
        .unwrap();
        let a = c.find("a").unwrap();
        let faults = [StuckAt::output(a, true)];
        let ded = DeductiveSim::new(&c, &faults, vec![])
            .run(&[parse_pattern("0").unwrap()])
            .unwrap();
        // a/sa1 flips both n and m, so y is unchanged: undetected.
        assert_eq!(ded.detected(), 0);
        // Cross-check with serial.
        let serial = SerialSim::new(&c, &faults).run(&[parse_pattern("0").unwrap()]);
        assert_eq!(serial.detected(), 0);
    }

    #[test]
    fn set_ops_are_correct() {
        assert_eq!(union2(&[1, 3, 5], &[2, 3, 6]), vec![1, 2, 3, 5, 6]);
        assert_eq!(intersect(&[1, 3, 5], &[3, 5, 7]), vec![3, 5]);
        assert_eq!(difference(&[1, 3, 5], &[3]), vec![1, 5]);
        let mut s = vec![2, 4];
        set_membership(&mut s, 3, true);
        assert_eq!(s, vec![2, 3, 4]);
        set_membership(&mut s, 3, false);
        assert_eq!(s, vec![2, 4]);
        set_membership(&mut s, 2, false);
        assert_eq!(s, vec![4]);
    }
}
