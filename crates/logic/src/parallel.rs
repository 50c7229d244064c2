//! 64-way bit-parallel three-valued signal encoding.
//!
//! This is the machine-word parallelism that PROOFS-style simulators exploit:
//! each bit position of a [`PackedLogic`] word carries one independent
//! machine (one fault, or one pattern). The encoding is the classic
//! two-plane scheme: plane `zero` has bit *i* set when machine *i* may be 0,
//! plane `one` when it may be 1; `X` sets both planes.

use std::fmt;

use crate::{GateFn, Logic};

/// Number of independent machines carried by one [`PackedLogic`] word.
pub const LANES: usize = 64;

/// Sixty-four three-valued signals packed into two bit planes.
///
/// # Examples
///
/// ```
/// use cfs_logic::{Logic, PackedLogic};
///
/// let mut w = PackedLogic::splat(Logic::One);
/// w.set(3, Logic::Zero);
/// let v = w.and(PackedLogic::splat(Logic::One));
/// assert_eq!(v.lane(3), Logic::Zero);
/// assert_eq!(v.lane(0), Logic::One);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PackedLogic {
    /// Bit *i* set ⇒ lane *i* may be 0.
    zero: u64,
    /// Bit *i* set ⇒ lane *i* may be 1.
    one: u64,
}

impl PackedLogic {
    /// All lanes `0`.
    pub const ALL_ZERO: PackedLogic = PackedLogic { zero: !0, one: 0 };
    /// All lanes `1`.
    pub const ALL_ONE: PackedLogic = PackedLogic { zero: 0, one: !0 };
    /// All lanes `X`.
    pub const ALL_X: PackedLogic = PackedLogic { zero: !0, one: !0 };

    /// Broadcasts one value to all lanes.
    #[inline]
    pub const fn splat(v: Logic) -> Self {
        match v {
            Logic::Zero => Self::ALL_ZERO,
            Logic::One => Self::ALL_ONE,
            Logic::X => Self::ALL_X,
        }
    }

    /// Builds a word from the raw bit planes.
    ///
    /// Lanes with neither plane bit set are invalid; callers are expected to
    /// keep the invariant that every lane has at least one bit set.
    #[inline]
    pub const fn from_planes(zero: u64, one: u64) -> Self {
        PackedLogic { zero, one }
    }

    /// The `(zero, one)` bit planes.
    #[inline]
    pub const fn planes(self) -> (u64, u64) {
        (self.zero, self.one)
    }

    /// Reads lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= LANES` (debug builds) via shift overflow checks.
    #[inline]
    pub fn lane(self, i: usize) -> Logic {
        let z = self.zero >> i & 1;
        let o = self.one >> i & 1;
        match (z, o) {
            (1, 0) => Logic::Zero,
            (0, 1) => Logic::One,
            _ => Logic::X,
        }
    }

    /// Writes lane `i`.
    #[inline]
    pub fn set(&mut self, i: usize, v: Logic) {
        let bit = 1u64 << i;
        match v {
            Logic::Zero => {
                self.zero |= bit;
                self.one &= !bit;
            }
            Logic::One => {
                self.zero &= !bit;
                self.one |= bit;
            }
            Logic::X => {
                self.zero |= bit;
                self.one |= bit;
            }
        }
    }

    /// Lane-wise Kleene AND.
    #[inline]
    pub const fn and(self, rhs: Self) -> Self {
        PackedLogic {
            zero: self.zero | rhs.zero,
            one: self.one & rhs.one,
        }
    }

    /// Lane-wise Kleene OR.
    #[inline]
    pub const fn or(self, rhs: Self) -> Self {
        PackedLogic {
            zero: self.zero & rhs.zero,
            one: self.one | rhs.one,
        }
    }

    /// Lane-wise negation.
    #[inline]
    pub const fn not(self) -> Self {
        PackedLogic {
            zero: self.one,
            one: self.zero,
        }
    }

    /// Lane-wise XOR.
    #[inline]
    pub const fn xor(self, rhs: Self) -> Self {
        // 0^0=0, 1^1=0 contribute to zero-plane; 0^1 contribute to one-plane.
        // X in either operand yields both.
        PackedLogic {
            zero: (self.zero & rhs.zero) | (self.one & rhs.one),
            one: (self.zero & rhs.one) | (self.one & rhs.zero),
        }
    }

    /// Mask of lanes whose value is exactly `0`.
    #[inline]
    pub const fn is_zero_mask(self) -> u64 {
        self.zero & !self.one
    }

    /// Mask of lanes whose value is exactly `1`.
    #[inline]
    pub const fn is_one_mask(self) -> u64 {
        self.one & !self.zero
    }

    /// Mask of lanes whose value is `X`.
    #[inline]
    pub const fn is_x_mask(self) -> u64 {
        self.zero & self.one
    }

    /// Mask of lanes where `self` and `rhs` are *detectably different*: both
    /// binary and opposite. This is the bit-parallel fault-detection test.
    #[inline]
    pub const fn detect_mask(self, rhs: Self) -> u64 {
        (self.is_zero_mask() & rhs.is_one_mask()) | (self.is_one_mask() & rhs.is_zero_mask())
    }

    /// Mask of lanes where the two words hold different values (including a
    /// binary value vs. `X`).
    #[inline]
    pub const fn diff_mask(self, rhs: Self) -> u64 {
        (self.zero ^ rhs.zero) | (self.one ^ rhs.one)
    }

    /// Overrides the lanes selected by `mask` with the corresponding lanes of
    /// `other`, leaving the rest unchanged. This is how fault effects are
    /// injected at a fault site in bit-parallel simulation.
    #[inline]
    pub const fn select(self, other: Self, mask: u64) -> Self {
        PackedLogic {
            zero: (self.zero & !mask) | (other.zero & mask),
            one: (self.one & !mask) | (other.one & mask),
        }
    }

    /// Evaluates a primitive gate function lane-wise over `inputs`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty.
    pub fn eval_gate(f: GateFn, inputs: &[PackedLogic]) -> PackedLogic {
        assert!(!inputs.is_empty(), "gate evaluated with no inputs");
        Self::fold_gate(f, inputs.iter().copied())
    }

    /// Evaluates a primitive gate function lane-wise over the operands an
    /// iterator yields: the same Kleene fold as [`GateFn::eval`], so each
    /// lane computes exactly the scalar value. `Buf` and `Not` read only
    /// the first operand.
    #[inline]
    pub fn fold_gate(f: GateFn, mut inputs: impl Iterator<Item = PackedLogic>) -> PackedLogic {
        match f {
            GateFn::Buf => inputs.next().unwrap_or(Self::ALL_X),
            GateFn::Not => inputs.next().unwrap_or(Self::ALL_X).not(),
            GateFn::And => inputs.fold(Self::ALL_ONE, Self::and),
            GateFn::Nand => inputs.fold(Self::ALL_ONE, Self::and).not(),
            GateFn::Or => inputs.fold(Self::ALL_ZERO, Self::or),
            GateFn::Nor => inputs.fold(Self::ALL_ZERO, Self::or).not(),
            GateFn::Xor => inputs.fold(Self::ALL_ZERO, Self::xor),
            GateFn::Xnor => inputs.fold(Self::ALL_ZERO, Self::xor).not(),
        }
    }
}

impl fmt::Display for PackedLogic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..LANES {
            write!(f, "{}", self.lane(i))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Logic::*;

    fn lanes3() -> [Logic; 3] {
        [Zero, One, X]
    }

    #[test]
    fn lane_round_trip() {
        let mut w = PackedLogic::default();
        for (i, v) in lanes3().iter().cycle().take(LANES).enumerate() {
            w.set(i, *v);
        }
        for (i, v) in lanes3().iter().cycle().take(LANES).enumerate() {
            assert_eq!(w.lane(i), *v, "lane {i}");
        }
    }

    #[test]
    fn packed_ops_match_scalar_ops() {
        // Exhaustively test all 9 value pairs in parallel lanes.
        let mut a = PackedLogic::default();
        let mut b = PackedLogic::default();
        let mut idx = 0;
        for va in lanes3() {
            for vb in lanes3() {
                a.set(idx, va);
                b.set(idx, vb);
                idx += 1;
            }
        }
        let and = a.and(b);
        let or = a.or(b);
        let xor = a.xor(b);
        let not = a.not();
        let mut idx = 0;
        for va in lanes3() {
            for vb in lanes3() {
                assert_eq!(and.lane(idx), va & vb, "and {va} {vb}");
                assert_eq!(or.lane(idx), va | vb, "or {va} {vb}");
                assert_eq!(xor.lane(idx), va ^ vb, "xor {va} {vb}");
                assert_eq!(not.lane(idx), !va, "not {va}");
                idx += 1;
            }
        }
    }

    #[test]
    fn gate_eval_matches_scalar() {
        for f in GateFn::ALL {
            let arity = if f.is_unary() { 1 } else { 2 };
            let mut inputs = vec![PackedLogic::default(); arity];
            // Pack all 3^arity assignments into distinct lanes.
            let combos = 3usize.pow(arity as u32);
            for c in 0..combos {
                let mut rem = c;
                for w in inputs.iter_mut() {
                    w.set(c, Logic::from_code((rem % 3) as u8));
                    rem /= 3;
                }
            }
            let out = PackedLogic::eval_gate(f, &inputs);
            for c in 0..combos {
                let scalar: Vec<Logic> = inputs.iter().map(|w| w.lane(c)).collect();
                assert_eq!(out.lane(c), f.eval(&scalar), "{f} lane {c}");
            }
        }
    }

    #[test]
    fn detect_mask_requires_opposite_binary() {
        let good = PackedLogic::splat(One);
        let mut faulty = PackedLogic::splat(One);
        faulty.set(0, Zero);
        faulty.set(1, X);
        let m = good.detect_mask(faulty);
        assert_eq!(m, 1, "only lane 0 is a detection");
    }

    #[test]
    fn select_overrides_only_masked_lanes() {
        let a = PackedLogic::splat(Zero);
        let b = PackedLogic::splat(One);
        let s = a.select(b, 0b101);
        assert_eq!(s.lane(0), One);
        assert_eq!(s.lane(1), Zero);
        assert_eq!(s.lane(2), One);
        assert_eq!(s.lane(3), Zero);
    }

    #[test]
    fn constants_are_consistent() {
        for i in 0..LANES {
            assert_eq!(PackedLogic::ALL_ZERO.lane(i), Zero);
            assert_eq!(PackedLogic::ALL_ONE.lane(i), One);
            assert_eq!(PackedLogic::ALL_X.lane(i), X);
        }
    }
}
