//! Seeded synthetic generator for ISCAS-like synchronous sequential circuits.
//!
//! The paper evaluates on the ISCAS-89 benchmark suite, whose netlists are
//! not redistributable artifacts we can embed (except the tiny `s27`). This
//! module generates circuits matched to each benchmark's published interface
//! and size statistics — PI/PO/DFF/gate counts, NAND/NOR-dominated gate mix,
//! realistic fanin and fanout distributions, and feedback through flip-flops
//! — so the tables measure simulators on workloads of the same scale and
//! shape. Generation is fully deterministic in the seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cfs_logic::GateFn;

use crate::{Circuit, CircuitBuilder, GateId};

/// Parameters of a synthetic circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitSpec {
    /// Circuit name.
    pub name: String,
    /// Primary input count.
    pub inputs: usize,
    /// Primary output count.
    pub outputs: usize,
    /// Flip-flop count.
    pub dffs: usize,
    /// Combinational gate count.
    pub comb_gates: usize,
    /// RNG seed; equal specs generate identical circuits.
    pub seed: u64,
}

impl CircuitSpec {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        inputs: usize,
        outputs: usize,
        dffs: usize,
        comb_gates: usize,
        seed: u64,
    ) -> Self {
        CircuitSpec {
            name: name.into(),
            inputs,
            outputs,
            dffs,
            comb_gates,
            seed,
        }
    }

    /// Returns a copy scaled to `ratio` of the original size (interface
    /// width preserved, at least one gate/DFF kept). Useful for keeping
    /// table and benchmark runs short on the largest circuits.
    pub fn scaled(&self, ratio: f64) -> CircuitSpec {
        let scale = |n: usize| ((n as f64 * ratio).round() as usize).max(1);
        CircuitSpec {
            name: self.name.clone(),
            inputs: self.inputs,
            outputs: self.outputs,
            dffs: scale(self.dffs),
            comb_gates: scale(self.comb_gates).max(self.outputs),
            seed: self.seed,
        }
    }
}

/// Published interface/size statistics of the ISCAS-89 circuits used in the
/// paper's tables, as `(name, PIs, POs, DFFs, gates)`. Generated circuits
/// carry a `g` suffix (`s298g`, …) to mark them as synthetic equivalents.
pub const ISCAS89_SPECS: &[(&str, usize, usize, usize, usize)] = &[
    ("s298g", 3, 6, 14, 119),
    ("s344g", 9, 11, 15, 160),
    ("s349g", 9, 11, 15, 161),
    ("s382g", 3, 6, 21, 158),
    ("s386g", 7, 7, 6, 159),
    ("s400g", 3, 6, 21, 162),
    ("s444g", 3, 6, 21, 181),
    ("s526g", 3, 6, 21, 193),
    ("s641g", 35, 24, 19, 379),
    ("s713g", 35, 23, 19, 393),
    ("s820g", 18, 19, 5, 289),
    ("s832g", 18, 19, 5, 287),
    ("s1196g", 14, 14, 18, 529),
    ("s1238g", 14, 14, 18, 508),
    ("s1423g", 17, 5, 74, 657),
    ("s1488g", 8, 19, 6, 653),
    ("s1494g", 8, 19, 6, 647),
    ("s5378g", 35, 49, 179, 2779),
    ("s35932g", 35, 320, 1728, 16065),
];

/// Looks up the spec of a named ISCAS-like benchmark (`s298g`, `s1494g`, …).
///
/// The seed is derived from the name so every caller gets the same circuit.
pub fn benchmark_spec(name: &str) -> Option<CircuitSpec> {
    ISCAS89_SPECS
        .iter()
        .find(|(n, ..)| *n == name)
        .map(|&(n, pi, po, dff, gates)| {
            let seed = n.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
            CircuitSpec::new(n, pi, po, dff, gates, seed)
        })
}

/// Generates the named ISCAS-like benchmark circuit.
///
/// # Examples
///
/// ```
/// let c = cfs_netlist::generate::benchmark("s298g").expect("known benchmark");
/// assert_eq!(c.num_dffs(), 14);
/// assert_eq!(c.num_comb_gates(), 119);
/// ```
pub fn benchmark(name: &str) -> Option<Circuit> {
    benchmark_spec(name).map(|s| generate(&s))
}

/// Generates a synthetic synchronous sequential circuit from a spec.
///
/// Properties guaranteed by construction:
///
/// * exact PI/PO/DFF/gate counts,
/// * acyclic combinational logic (feedback only through flip-flops),
/// * every PI, DFF output, and gate output has at least one consumer
///   (no dangling logic, so no structurally undetectable fault sites
///   beyond functional redundancy),
/// * deterministic in `spec.seed`.
///
/// # Panics
///
/// Panics if `spec.inputs == 0`, `spec.outputs == 0`, or
/// `spec.comb_gates == 0`.
pub fn generate(spec: &CircuitSpec) -> Circuit {
    assert!(spec.inputs > 0, "need at least one primary input");
    assert!(spec.outputs > 0, "need at least one primary output");
    assert!(spec.comb_gates > 0, "need at least one gate");
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut b = CircuitBuilder::new(spec.name.clone());

    let mut sources: Vec<GateId> = Vec::new();
    // Sources not yet consumed as a fanin anywhere.
    let mut pool: Vec<GateId> = Vec::new();
    for i in 0..spec.inputs {
        let id = b.input(format!("pi{i}"));
        sources.push(id);
        pool.push(id);
    }
    let mut dff_ids = Vec::with_capacity(spec.dffs);
    for i in 0..spec.dffs {
        let id = b.dff(format!("ff{i}"));
        sources.push(id);
        pool.push(id);
        dff_ids.push(id);
    }
    // Track fanout counts and levels ourselves (the builder only computes
    // them at finish time).
    let mut fanout_count = vec![0usize; spec.inputs + spec.dffs + spec.comb_gates];
    let mut level = vec![0u32; spec.inputs + spec.dffs + spec.comb_gates];
    // Target depth scales logarithmically, matching the 10–30 level range
    // of the ISCAS-89 suite.
    let depth_target = (3.0 + (spec.comb_gates as f64).ln() * 1.4).min(30.0) as u32;

    // Reserve gates for flip-flop toggle structures (D = XOR(Q, excite)):
    // without them a random FSM with few inputs falls into a tiny attractor
    // and most of its logic freezes, which no real benchmark does.
    let toggles = (spec.dffs / 2).min(spec.comb_gates / 6);
    let plain_gates = spec.comb_gates - 2 * toggles;

    let mut gate_ids = Vec::with_capacity(spec.comb_gates);
    for i in 0..plain_gates {
        // Allowed level ramps up across the gate sequence so every level is
        // populated and the final depth approaches the target.
        let lmax = 1 + (i as u64 * u64::from(depth_target - 1) / plain_gates.max(1) as u64) as u32;
        let arity = pick_arity(&mut rng).min(sources.len());
        let f = pick_fn(&mut rng, arity);
        let mut fanin: Vec<GateId> = Vec::with_capacity(arity);
        for _ in 0..arity {
            let pick = pick_source(&mut rng, &sources, &mut pool, &fanin, &level, lmax);
            fanin.push(pick);
        }
        let mut lvl = 0;
        for &src in &fanin {
            fanout_count[src.index()] += 1;
            lvl = lvl.max(level[src.index()] + 1);
        }
        let id = b
            .gate(format!("n{i}"), f, fanin)
            .expect("generator produces valid arities");
        level[id.index()] = lvl;
        sources.push(id);
        pool.push(id);
        gate_ids.push(id);
    }

    // Toggle structures: the first `toggles` flip-flops get D = XOR(Q, e)
    // where `e` is an existing signal — counter/LFSR-like state that keeps
    // the machine moving under any input sequence.
    for (k, &q) in dff_ids.iter().take(toggles).enumerate() {
        let excite = pick_source(&mut rng, &sources, &mut pool, &[q], &level, u32::MAX);
        let t = b
            .gate(format!("t{k}"), GateFn::Xor, vec![q, excite])
            .expect("binary arity");
        level[t.index()] = level[excite.index()].max(level[q.index()]) + 1;
        // Gate the toggle with a primary input so the flip-flop is
        // initializable (XOR alone would lock at X forever): pi = 0 clears,
        // pi = 1 toggles by `excite`.
        let gate_pi = b
            .find(&format!("pi{}", k % spec.inputs))
            .expect("pi exists");
        let d = b
            .gate(format!("tl{k}"), GateFn::And, vec![gate_pi, t])
            .expect("binary arity");
        level[d.index()] = level[t.index()] + 1;
        fanout_count[q.index()] += 1;
        fanout_count[excite.index()] += 1;
        fanout_count[gate_pi.index()] += 1;
        fanout_count[t.index()] += 1;
        fanout_count[d.index()] += 1; // consumed by the D pin below
        b.set_dff_input(q, d).expect("q is a flip-flop");
        sources.push(t);
        sources.push(d);
        gate_ids.push(t);
        gate_ids.push(d);
    }
    // Remaining flip-flop D inputs: prefer unconsumed gates, else recent.
    for &q in dff_ids.iter().skip(toggles) {
        let d = take_from_pool_comb(&mut rng, &mut pool, &gate_ids)
            .unwrap_or_else(|| recent(&mut rng, &gate_ids));
        fanout_count[d.index()] += 1;
        b.set_dff_input(q, d).expect("q is a flip-flop");
    }
    // Primary outputs: prefer unconsumed gates, else distinct late gates.
    let mut taken = vec![false; fanout_count.len()];
    for _ in 0..spec.outputs {
        let tap = take_from_pool_comb(&mut rng, &mut pool, &gate_ids)
            .or_else(|| {
                // A distinct not-yet-tapped late gate.
                (0..4 * gate_ids.len())
                    .map(|_| recent(&mut rng, &gate_ids))
                    .find(|id| !taken[id.index()])
            })
            .unwrap_or_else(|| recent(&mut rng, &gate_ids));
        taken[tap.index()] = true;
        fanout_count[tap.index()] += 1;
        b.output(tap);
    }
    // Anything still unconsumed (PIs, DFF outputs, or gates) is spliced into
    // an existing gate pin whose current driver can spare a connection. A
    // source can only feed strictly later gates to preserve acyclicity.
    pool.retain(|&src| fanout_count[src.index()] == 0);
    let leftovers: Vec<GateId> = std::mem::take(&mut pool);
    for src in leftovers {
        let mut spliced = false;
        for &g in gate_ids.iter().filter(|g| g.index() > src.index()) {
            if let Some(pin) = b.splice_candidate(g, &fanout_count, src) {
                let old = b.replace_fanin(g, pin, src);
                fanout_count[old.index()] -= 1;
                fanout_count[src.index()] += 1;
                spliced = true;
                break;
            }
        }
        if !spliced {
            // Extremely unlikely (needs every later pin to be load-bearing);
            // tap it as an extra observation point to avoid dangling logic.
            fanout_count[src.index()] += 1;
            b.output(src);
        }
    }

    b.finish().expect("generator output is structurally valid")
}

impl CircuitBuilder {
    /// Returns a pin of `gate` whose driver has more than one consumer and
    /// differs from `incoming` (so replacing it cannot create duplicates).
    fn splice_candidate(
        &self,
        gate: GateId,
        fanout_count: &[usize],
        incoming: GateId,
    ) -> Option<usize> {
        let g = &self.gates[gate.index()];
        if g.fanin.contains(&incoming) {
            return None;
        }
        g.fanin
            .iter()
            .position(|&src| fanout_count[src.index()] > 1)
    }

    /// Replaces pin `pin` of `gate` with `src`, returning the old driver.
    fn replace_fanin(&mut self, gate: GateId, pin: usize, src: GateId) -> GateId {
        std::mem::replace(&mut self.gates[gate.index()].fanin[pin], src)
    }
}

fn pick_arity(rng: &mut StdRng) -> usize {
    match rng.gen_range(0..100u32) {
        0..=34 => 1,
        35..=84 => 2,
        85..=94 => 3,
        95..=98 => 4,
        _ => 5,
    }
}

fn pick_fn(rng: &mut StdRng, arity: usize) -> GateFn {
    if arity == 1 {
        if rng.gen_bool(0.8) {
            GateFn::Not
        } else {
            GateFn::Buf
        }
    } else {
        match rng.gen_range(0..100u32) {
            0..=33 => GateFn::Nand,
            34..=67 => GateFn::Nor,
            68..=81 => GateFn::And,
            82..=95 => GateFn::Or,
            96..=97 => GateFn::Xor,
            _ => GateFn::Xnor,
        }
    }
}

/// Picks a fanin source: half the time consume from the unconsumed pool,
/// otherwise a uniform choice over all earlier sources. Uniform selection
/// keeps logic depth logarithmic in circuit size (≈ e·ln n), matching the
/// 10–25 level range of the ISCAS-89 suite, while the pool guarantees full
/// connectivity.
fn pick_source(
    rng: &mut StdRng,
    sources: &[GateId],
    pool: &mut Vec<GateId>,
    already: &[GateId],
    level: &[u32],
    lmax: u32,
) -> GateId {
    let ok =
        |cand: GateId, already: &[GateId]| level[cand.index()] < lmax && !already.contains(&cand);
    if !pool.is_empty() && rng.gen_bool(0.7) {
        for _ in 0..4 {
            let k = rng.gen_range(0..pool.len());
            if ok(pool[k], already) {
                return pool.swap_remove(k);
            }
        }
    }
    for _ in 0..16 {
        let cand = sources[rng.gen_range(0..sources.len())];
        if ok(cand, already) {
            if let Some(p) = pool.iter().position(|&x| x == cand) {
                pool.swap_remove(p);
            }
            return cand;
        }
    }
    // Fall back to a linear scan (level-0 primary inputs always qualify
    // unless already used on another pin of the same gate).
    *sources
        .iter()
        .find(|&&c| ok(c, already))
        .unwrap_or(&sources[0])
}

/// Pops a random *combinational* member of the pool (DFF D inputs and PO
/// taps must be driven by logic or inputs, and we prefer logic).
fn take_from_pool_comb(
    rng: &mut StdRng,
    pool: &mut Vec<GateId>,
    gate_ids: &[GateId],
) -> Option<GateId> {
    let first_gate = gate_ids.first()?.index();
    let candidates: Vec<usize> = (0..pool.len())
        .filter(|&k| pool[k].index() >= first_gate)
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let k = candidates[rng.gen_range(0..candidates.len())];
    Some(pool.swap_remove(k))
}

fn recent(rng: &mut StdRng, gate_ids: &[GateId]) -> GateId {
    let r: f64 = rng.gen();
    let back = (r * r * gate_ids.len() as f64 * 0.5) as usize;
    gate_ids[gate_ids.len() - 1 - back.min(gate_ids.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateKind;

    #[test]
    fn exact_counts() {
        let spec = CircuitSpec::new("t", 5, 4, 6, 80, 42);
        let c = generate(&spec);
        assert_eq!(c.num_inputs(), 5);
        assert!(c.num_outputs() >= 4, "extra observation taps are allowed");
        assert_eq!(c.num_dffs(), 6);
        assert_eq!(c.num_comb_gates(), 80);
    }

    #[test]
    fn deterministic_in_seed() {
        let spec = CircuitSpec::new("t", 4, 3, 5, 60, 7);
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(crate::write_bench(&a), crate::write_bench(&b));
        let spec2 = CircuitSpec { seed: 8, ..spec };
        let c = generate(&spec2);
        assert_ne!(crate::write_bench(&a), crate::write_bench(&c));
    }

    #[test]
    fn no_dangling_logic() {
        for seed in [1, 2, 3] {
            let spec = CircuitSpec::new("t", 6, 5, 8, 120, seed);
            let c = generate(&spec);
            for (i, g) in c.gates().iter().enumerate() {
                let tapped = c.outputs().contains(&crate::GateId::from_index(i));
                assert!(
                    !g.fanout().is_empty() || tapped,
                    "node {} ({:?}) dangles",
                    g.name(),
                    g.kind()
                );
            }
        }
    }

    #[test]
    fn no_duplicate_pins() {
        let spec = CircuitSpec::new("t", 6, 5, 8, 200, 99);
        let c = generate(&spec);
        for g in c.gates() {
            if let GateKind::Comb(_) = g.kind() {
                let mut pins = g.fanin().to_vec();
                pins.sort();
                pins.dedup();
                assert_eq!(
                    pins.len(),
                    g.fanin().len(),
                    "{} has duplicate pins",
                    g.name()
                );
            }
        }
    }

    #[test]
    fn benchmarks_resolve() {
        let c = benchmark("s298g").unwrap();
        let s = c.stats();
        assert_eq!((s.inputs, s.dffs, s.comb_gates), (3, 14, 119));
        assert!(benchmark("s999g").is_none());
    }

    #[test]
    fn scaled_spec_shrinks() {
        let spec = benchmark_spec("s5378g").unwrap();
        let small = spec.scaled(0.1);
        assert_eq!(small.inputs, spec.inputs);
        assert!(small.comb_gates < spec.comb_gates / 5);
        generate(&small); // must not panic
    }

    #[test]
    fn tiny_circuit_works() {
        let spec = CircuitSpec::new("tiny", 1, 1, 0, 1, 0);
        let c = generate(&spec);
        assert_eq!(c.num_comb_gates(), 1);
    }
}
