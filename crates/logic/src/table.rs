//! Binary truth tables and three-valued look-up tables.
//!
//! Macro extraction (§2.2 of the paper) collapses a fanout-free region into a
//! single cell evaluated by table look-up, and represents stuck-at faults
//! internal to the region as *functional faults*: alternate table entries
//! carried in the fault descriptor. [`TruthTable`] is the binary function of
//! such a cell and [`Lut3`] is its precomputed three-valued extension, so a
//! macro evaluation is a single indexed load regardless of how many gates
//! were collapsed.

use std::fmt;

use crate::{GateFn, Logic, PackedLogic, LANES};

/// Maximum number of inputs for which a [`Lut3`] may be built.
///
/// `3^10` entries at two bits each is ≈ 15 KiB; the paper caps macro inputs
/// well below this ("combinational circuits with limited number of inputs").
pub const MAX_LUT_INPUTS: usize = 10;

/// Powers of three up to `3^MAX_LUT_INPUTS`, used for mixed-radix indexing.
pub const POW3: [usize; MAX_LUT_INPUTS + 1] = [1, 3, 9, 27, 81, 243, 729, 2187, 6561, 19683, 59049];

/// A complete binary truth table over `n ≤ 16` inputs.
///
/// Bit `i` of the table is the output for the input assignment whose bit `j`
/// is input `j` of the cell.
///
/// # Examples
///
/// ```
/// use cfs_logic::{GateFn, TruthTable};
///
/// let t = TruthTable::from_gate_fn(GateFn::Nand, 2);
/// assert!(t.eval_bits(0b00));
/// assert!(!t.eval_bits(0b11));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TruthTable {
    inputs: usize,
    words: Vec<u64>,
}

impl TruthTable {
    /// Maximum supported input count.
    pub const MAX_INPUTS: usize = 16;

    /// Builds a table by evaluating `f` on every input assignment.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is zero or exceeds [`TruthTable::MAX_INPUTS`].
    pub fn from_fn(inputs: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        assert!(
            (1..=Self::MAX_INPUTS).contains(&inputs),
            "truth table supports 1..={} inputs, got {inputs}",
            Self::MAX_INPUTS
        );
        let rows = 1usize << inputs;
        let mut words = vec![0u64; rows.div_ceil(64)];
        for row in 0..rows {
            if f(row) {
                words[row / 64] |= 1 << (row % 64);
            }
        }
        TruthTable { inputs, words }
    }

    /// The table of a primitive gate function with the given arity.
    pub fn from_gate_fn(f: GateFn, arity: usize) -> Self {
        TruthTable::from_fn(arity, |bits| f.eval_bits(bits, arity))
    }

    /// Number of inputs.
    #[inline]
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Output for the binary input assignment `bits` (bit `i` = input `i`).
    #[inline]
    pub fn eval_bits(&self, bits: usize) -> bool {
        debug_assert!(bits < 1 << self.inputs);
        self.words[bits / 64] >> (bits % 64) & 1 != 0
    }

    /// Evaluates the table over three-valued inputs by enumerating the
    /// completions of every `X` input and merging the outcomes.
    ///
    /// This is the slow path; hot loops should go through a precomputed
    /// [`Lut3`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the table arity.
    pub fn eval(&self, inputs: &[Logic]) -> Logic {
        assert_eq!(inputs.len(), self.inputs, "arity mismatch");
        let mut base = 0usize;
        let mut x_positions = Vec::new();
        for (i, v) in inputs.iter().enumerate() {
            match v {
                Logic::Zero => {}
                Logic::One => base |= 1 << i,
                Logic::X => x_positions.push(i),
            }
        }
        let mut out: Option<bool> = None;
        for combo in 0..(1usize << x_positions.len()) {
            let mut bits = base;
            for (k, &pos) in x_positions.iter().enumerate() {
                if combo >> k & 1 != 0 {
                    bits |= 1 << pos;
                }
            }
            let v = self.eval_bits(bits);
            match out {
                None => out = Some(v),
                Some(prev) if prev != v => return Logic::X,
                Some(_) => {}
            }
        }
        Logic::from_bool(out.expect("table has at least one row"))
    }

    /// Returns `true` if the two tables compute the same function.
    pub fn equivalent(&self, other: &TruthTable) -> bool {
        self.inputs == other.inputs
            && (0..1usize << self.inputs).all(|b| self.eval_bits(b) == other.eval_bits(b))
    }
}

impl fmt::Display for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruthTable/{}[", self.inputs)?;
        for bits in 0..1usize << self.inputs {
            write!(f, "{}", u8::from(self.eval_bits(bits)))?;
        }
        write!(f, "]")
    }
}

/// Computes the mixed-radix (base-3) index of a three-valued assignment.
///
/// # Panics
///
/// Panics if `values.len()` exceeds [`MAX_LUT_INPUTS`].
#[inline]
pub fn index3(values: &[Logic]) -> usize {
    assert!(values.len() <= MAX_LUT_INPUTS);
    let mut idx = 0usize;
    for (i, v) in values.iter().enumerate() {
        idx += (v.code() as usize) * POW3[i];
    }
    idx
}

/// A fully precomputed three-valued look-up table.
///
/// Every `X` completion has been folded in at construction time, so an
/// evaluation is one table read — the "fast evaluation … through table look
/// up" that the paper calls extremely important for concurrent simulation.
/// Entries are packed two bits apiece.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Lut3 {
    inputs: usize,
    packed: Vec<u8>,
}

impl Lut3 {
    /// Precomputes the three-valued extension of a binary table.
    ///
    /// # Panics
    ///
    /// Panics if the table has more than [`MAX_LUT_INPUTS`] inputs.
    pub fn from_table(table: &TruthTable) -> Self {
        let n = table.inputs();
        assert!(
            n <= MAX_LUT_INPUTS,
            "3-valued LUT supports up to {MAX_LUT_INPUTS} inputs, got {n}"
        );
        let entries = POW3[n];
        let mut values = vec![Logic::X; entries];
        // Process entries in order of increasing number of X digits: an entry
        // whose lowest X digit is at position `p` merges the two entries that
        // replace that digit with 0 and 1, both of which have fewer X digits.
        let mut order: Vec<usize> = (0..entries).collect();
        order.sort_by_key(|&idx| x_digit_count(idx, n));
        for idx in order {
            match lowest_x_digit(idx, n) {
                None => {
                    // Fully binary entry: read the binary table directly.
                    let mut bits = 0usize;
                    let mut rem = idx;
                    for i in 0..n {
                        if rem % 3 == 1 {
                            bits |= 1 << i;
                        }
                        rem /= 3;
                    }
                    values[idx] = Logic::from_bool(table.eval_bits(bits));
                }
                Some(p) => {
                    let lo = idx - 2 * POW3[p];
                    let hi = idx - POW3[p];
                    let (a, b) = (values[lo], values[hi]);
                    values[idx] = if a == b { a } else { Logic::X };
                }
            }
        }
        let mut packed = vec![0u8; entries.div_ceil(4)];
        for (idx, v) in values.iter().enumerate() {
            packed[idx / 4] |= v.code() << ((idx % 4) * 2);
        }
        Lut3 { inputs: n, packed }
    }

    /// The LUT of a primitive gate function.
    pub fn from_gate_fn(f: GateFn, arity: usize) -> Self {
        Lut3::from_table(&TruthTable::from_gate_fn(f, arity))
    }

    /// Builds a LUT from a lane-parallel three-valued function, evaluated
    /// on [`LANES`] assignments per call: lane `l` of input word `j` holds
    /// digit `j` of entry `base + l`, and lane `l` of the result is that
    /// entry (lanes past the last entry read `X` and are ignored).
    ///
    /// Unlike [`Lut3::from_table`], which computes the *exact* three-valued
    /// extension of a binary function (merging all `X` completions), this
    /// records whatever the supplied function returns — e.g. the
    /// pessimistic gate-by-gate Kleene evaluation of a multi-gate macro,
    /// which macro cells must use to stay bit-identical with gate-level
    /// simulation.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is zero or exceeds [`MAX_LUT_INPUTS`].
    pub fn from_packed_fn(inputs: usize, mut f: impl FnMut(&[PackedLogic]) -> PackedLogic) -> Self {
        assert!(
            (1..=MAX_LUT_INPUTS).contains(&inputs),
            "3-valued LUT supports 1..={MAX_LUT_INPUTS} inputs, got {inputs}"
        );
        let entries = POW3[inputs];
        let mut packed = vec![0u8; entries.div_ceil(4)];
        let mut words = [PackedLogic::ALL_X; MAX_LUT_INPUTS];
        for base in (0..entries).step_by(LANES) {
            let lanes = (entries - base).min(LANES);
            for (j, w) in words[..inputs].iter_mut().enumerate() {
                let (mut zero, mut one) = (0u64, 0u64);
                for l in 0..LANES {
                    let bit = 1u64 << l;
                    match if l < lanes {
                        (base + l) / POW3[j] % 3
                    } else {
                        2
                    } {
                        0 => zero |= bit,
                        1 => one |= bit,
                        _ => {
                            zero |= bit;
                            one |= bit;
                        }
                    }
                }
                *w = PackedLogic::from_planes(zero, one);
            }
            let out = f(&words[..inputs]);
            for l in 0..lanes {
                let idx = base + l;
                packed[idx / 4] |= out.lane(l).code() << ((idx % 4) * 2);
            }
        }
        Lut3 { inputs, packed }
    }

    /// The binary function the LUT's fully binary entries spell out.
    pub fn binary_table(&self) -> TruthTable {
        TruthTable::from_fn(self.inputs, |bits| {
            let idx = (0..self.inputs)
                .filter(|&i| bits >> i & 1 != 0)
                .map(|i| POW3[i])
                .sum();
            self.eval_index(idx) == Logic::One
        })
    }

    /// Number of inputs.
    #[inline]
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Looks up the output for a precomputed base-3 index (see [`index3`]).
    #[inline]
    pub fn eval_index(&self, idx: usize) -> Logic {
        Logic::from_code(self.packed[idx / 4] >> ((idx % 4) * 2) & 0b11)
    }

    /// Looks up the output for a three-valued input assignment.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the LUT arity.
    #[inline]
    pub fn eval(&self, inputs: &[Logic]) -> Logic {
        assert_eq!(inputs.len(), self.inputs, "arity mismatch");
        self.eval_index(index3(inputs))
    }

    /// Approximate memory footprint in bytes (for the paper's MEM columns).
    pub fn memory_bytes(&self) -> usize {
        self.packed.len() + std::mem::size_of::<Self>()
    }
}

fn x_digit_count(mut idx: usize, n: usize) -> u32 {
    let mut count = 0;
    for _ in 0..n {
        if idx % 3 == 2 {
            count += 1;
        }
        idx /= 3;
    }
    count
}

fn lowest_x_digit(mut idx: usize, n: usize) -> Option<usize> {
    for p in 0..n {
        if idx % 3 == 2 {
            return Some(p);
        }
        idx /= 3;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_assignments(n: usize) -> Vec<Vec<Logic>> {
        let mut out = Vec::with_capacity(POW3[n]);
        for idx in 0..POW3[n] {
            let mut rem = idx;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(Logic::from_code((rem % 3) as u8));
                rem /= 3;
            }
            out.push(v);
        }
        out
    }

    #[test]
    fn lut_matches_direct_gate_eval_for_all_primitives() {
        for f in GateFn::ALL {
            let arity = if f.is_unary() { 1 } else { 3 };
            let lut = Lut3::from_gate_fn(f, arity);
            for assignment in all_assignments(arity) {
                assert_eq!(
                    lut.eval(&assignment),
                    f.eval(&assignment),
                    "{f} {assignment:?}"
                );
            }
        }
    }

    #[test]
    fn packed_builder_matches_scalar_gate_eval() {
        // Kleene gates are their own exact extension, so the lane-parallel
        // fold must reproduce the scalar LUT for every arity (including
        // 3^5 = 243 entries, which spans four 64-lane calls).
        for f in GateFn::ALL {
            let arities: &[usize] = if f.is_unary() { &[1] } else { &[2, 3, 5] };
            for &arity in arities {
                let lut = Lut3::from_packed_fn(arity, |w| PackedLogic::eval_gate(f, w));
                for assignment in all_assignments(arity) {
                    assert_eq!(
                        lut.eval(&assignment),
                        f.eval(&assignment),
                        "{f} {assignment:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn lut_matches_slow_table_eval() {
        // An arbitrary non-symmetric function of 4 inputs.
        let t = TruthTable::from_fn(4, |b| (b.count_ones() * 7 + b as u32) % 3 == 1);
        let lut = Lut3::from_table(&t);
        for assignment in all_assignments(4) {
            assert_eq!(lut.eval(&assignment), t.eval(&assignment), "{assignment:?}");
        }
    }

    #[test]
    fn index3_round_trips_entry_order() {
        let assignments = all_assignments(3);
        for (i, a) in assignments.iter().enumerate() {
            assert_eq!(index3(a), i);
        }
    }

    #[test]
    fn slow_eval_handles_redundant_x() {
        // f = a OR !a is constant 1, so X input must still give 1.
        let t = TruthTable::from_fn(1, |_| true);
        assert_eq!(t.eval(&[Logic::X]), Logic::One);
        // Through the LUT as well.
        let lut = Lut3::from_table(&t);
        assert_eq!(lut.eval(&[Logic::X]), Logic::One);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let lut = Lut3::from_gate_fn(GateFn::And, 2);
        let _ = lut.eval(&[Logic::One]);
    }

    #[test]
    fn display_is_nonempty() {
        let t = TruthTable::from_gate_fn(GateFn::Xor, 2);
        assert_eq!(t.to_string(), "TruthTable/2[0110]");
    }
}
