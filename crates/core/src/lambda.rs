//! The pruning factors λ and λ′ (Theorems 1 and 2).
//!
//! If a length-`l` pattern `P` is frequent, every length-(l−d)
//! sub-pattern `Q` must have support ratio at least `λ(l,d) · ρs` where
//! `λ(l,d) = N_l / (N_(l−d) · W^d)` (Theorem 1 / Equation 2). With the
//! sequence statistic `e_m` (Theorem 2) the factor tightens to
//! `λ′(l,d) = N_l / (N_(l−d) · e_m^s · W^t)` with `s = ⌊d/m⌋`,
//! `t = d − s·m` — but only for *leading* sub-patterns
//! `Q = P[1] … P[l−d]`.
//!
//! Rather than multiplying λ back into ρs with floats, the miner uses
//! the equivalent exact test on support counts:
//!
//! ```text
//! sup(Q) ≥ λ(l,d)·ρs·N_(l−d)  ⇔  sup(Q) · W^d ≥ ρs · N_l
//! ```
//!
//! [`PruneBound`] packages that comparison with exact rational
//! arithmetic so threshold decisions can never flip with rounding.

use crate::counts::OffsetCounts;
use perigap_math::{BigRatio, BigUint};

/// λ(l, d) as an exact rational: `N_l / (N_(l−d) · W^d)`.
///
/// Returns 0 when `N_l = 0` (no length-`l` offset sequences exist).
///
/// # Panics
/// Panics if `d > l` or `N_(l−d) = 0` while `N_l > 0` (impossible for
/// valid inputs).
pub fn lambda(counts: &OffsetCounts, l: usize, d: usize) -> BigRatio {
    assert!(d <= l, "λ(l,d) requires d ≤ l");
    let n_l = counts.n(l);
    if n_l.is_zero() {
        return BigRatio::zero();
    }
    let w = counts.gap().flexibility() as u64;
    let mut denom = counts.n(l - d);
    assert!(!denom.is_zero(), "N_(l-d) must be positive when N_l is");
    denom = denom.mul_ref(&BigUint::from_u64(w).pow(d as u32));
    BigRatio::new(n_l, denom)
}

/// λ′(l, d) under Theorem 2: `N_l / (N_(l−d) · e_m^s · W^t)`.
///
/// `em` is the sequence statistic for window size `m` (see
/// [`crate::em`]); `s = ⌊d/m⌋`, `t = d − s·m`.
pub fn lambda_prime(counts: &OffsetCounts, l: usize, d: usize, m: usize, em: u64) -> BigRatio {
    assert!(d <= l, "λ'(l,d) requires d ≤ l");
    assert!(m >= 1, "m must be ≥ 1");
    assert!(
        em >= 1,
        "e_m is a max over counts of non-empty sets, so ≥ 1"
    );
    let n_l = counts.n(l);
    if n_l.is_zero() {
        return BigRatio::zero();
    }
    let w = counts.gap().flexibility() as u64;
    let s = d / m;
    let t = d - s * m;
    let mut denom = counts.n(l - d);
    assert!(!denom.is_zero(), "N_(l-d) must be positive when N_l is");
    denom = denom.mul_ref(&BigUint::from_u64(em).pow(s as u32));
    denom = denom.mul_ref(&BigUint::from_u64(w).pow(t as u32));
    BigRatio::new(n_l, denom)
}

/// An exact threshold test for one pruning level: decides
/// `sup ≥ λ·ρs·N_(l−d)` (equivalently `sup · divisor ≥ ρs · N_l`)
/// without constructing λ explicitly.
#[derive(Clone, Debug)]
pub struct PruneBound {
    /// `ρs · N_l` as an exact rational (numerator side of the test).
    rhs: BigRatio,
    /// `W^d` (Theorem 1) or `e_m^s · W^t` (Theorem 2).
    divisor: BigUint,
}

impl PruneBound {
    /// Theorem 1 bound for sub-patterns `d` characters shorter than a
    /// hypothetical frequent length-`l` pattern.
    pub fn theorem1(counts: &OffsetCounts, rho: &BigRatio, l: usize, d: usize) -> PruneBound {
        assert!(d <= l, "requires d ≤ l");
        let w = counts.gap().flexibility() as u64;
        PruneBound {
            rhs: rho.mul(&BigRatio::from_integer(counts.n(l))),
            divisor: BigUint::from_u64(w).pow(d as u32),
        }
    }

    /// Theorem 2 bound (leading sub-patterns only), using `e_m`.
    pub fn theorem2(
        counts: &OffsetCounts,
        rho: &BigRatio,
        l: usize,
        d: usize,
        m: usize,
        em: u64,
    ) -> PruneBound {
        assert!(d <= l, "requires d ≤ l");
        assert!(m >= 1 && em >= 1, "need m ≥ 1 and e_m ≥ 1");
        let w = counts.gap().flexibility() as u64;
        let s = d / m;
        let t = d - s * m;
        let divisor = BigUint::from_u64(em)
            .pow(s as u32)
            .mul_ref(&BigUint::from_u64(w).pow(t as u32));
        PruneBound {
            rhs: rho.mul(&BigRatio::from_integer(counts.n(l))),
            divisor,
        }
    }

    /// The plain frequency test `sup ≥ ρs · N_l` (divisor 1).
    pub fn exact(counts: &OffsetCounts, rho: &BigRatio, l: usize) -> PruneBound {
        PruneBound {
            rhs: rho.mul(&BigRatio::from_integer(counts.n(l))),
            divisor: BigUint::one(),
        }
    }

    /// Decide whether a support count passes the bound:
    /// `sup · divisor ≥ ρs · N_l`.
    pub fn admits(&self, sup: u64) -> bool {
        self.admits_u128(sup as u128)
    }

    /// [`PruneBound::admits`] for the full-width support counts the PIL
    /// machinery produces.
    pub fn admits_u128(&self, sup: u128) -> bool {
        let lhs = BigUint::from_u128(sup).mul_ref(&self.divisor);
        // rhs = num/den; lhs ≥ num/den ⇔ lhs·den ≥ num.
        lhs.mul_ref(self.rhs.denom()) >= *self.rhs.numer()
    }

    /// The smallest integer support that passes the bound (useful for
    /// reporting thresholds in the harness).
    pub fn min_support(&self) -> BigUint {
        // ceil(num / (den · divisor))
        let denom = self.rhs.denom().mul_ref(&self.divisor);
        ceil_div(self.rhs.numer(), &denom)
    }
}

/// One level's worth of prune machinery: the exact frequency test and
/// the Theorem 1 look-ahead bound toward level `n`, each as an integer
/// support threshold, and `N_l` as `f64` for ratio reporting.
///
/// A bound admits `sup` exactly when `sup ≥ min_support()`, so one
/// ceiling per row replaces two big-integer products per pattern. A
/// minimum beyond `u128` is stored as `u128::MAX`, which no support
/// reaches (a PIL sums at most 2^32 `u64` counts).
#[derive(Clone, Copy)]
pub(crate) struct BoundRow {
    /// `sup ≥ exact_min` ⇔ `sup ≥ ρ·N_l` — decides frequency at this
    /// level.
    pub exact_min: u128,
    /// `sup ≥ lhat_min` ⇔ `sup·W^(n−l) ≥ ρ·N_n` — decides extension
    /// toward level `n` (equals `exact_min` once `l ≥ n`).
    pub lhat_min: u128,
    /// `N_l` as `f64`, the ratio denominator.
    pub n_f64: f64,
}

/// `bound.min_support()` as a `u128` threshold, saturating at
/// `u128::MAX`.
fn min_u128(bound: &PruneBound) -> u128 {
    bound.min_support().to_u128().unwrap_or(u128::MAX)
}

/// Lazily built per-level [`BoundRow`] table, shared by the BFS and DFS
/// engines so each bound is constructed once per depth instead of once
/// per candidate. The two engines consulting the same rows is what
/// keeps their keep/frequent decisions — and therefore their stats —
/// identical.
pub(crate) struct BoundTable<'a> {
    counts: &'a OffsetCounts,
    rho: &'a BigRatio,
    n: usize,
    rows: Vec<Option<BoundRow>>,
}

impl<'a> BoundTable<'a> {
    /// A table for mining toward level `n` under threshold `rho`.
    pub fn new(counts: &'a OffsetCounts, rho: &'a BigRatio, n: usize) -> BoundTable<'a> {
        BoundTable {
            counts,
            rho,
            n,
            rows: Vec::new(),
        }
    }

    /// The bounds for `level`, built on first use.
    pub fn row(&mut self, level: usize) -> &BoundRow {
        if level >= self.rows.len() {
            self.rows.resize_with(level + 1, || None);
        }
        if self.rows[level].is_none() {
            let exact = PruneBound::exact(self.counts, self.rho, level);
            let lhat = if level < self.n {
                PruneBound::theorem1(self.counts, self.rho, self.n, self.n - level)
            } else {
                exact.clone()
            };
            self.rows[level] = Some(BoundRow {
                exact_min: min_u128(&exact),
                lhat_min: min_u128(&lhat),
                n_f64: self.counts.n_f64(level),
            });
        }
        self.rows[level].as_ref().expect("row just built")
    }

    /// The keep floor for a generation of length-`level` patterns (see
    /// `PilSet::set_keep_floor`): the L̂ threshold its filter will
    /// apply, or `u128::MAX` when the generation is never joined —
    /// `level ≥ hard_cap` or `N_level = 0`. Exact, because
    /// `lhat.admits_u128(sup) ⇔ sup ≥ lhat_min`: every pattern the
    /// filter keeps still has its entries.
    pub fn keep_floor(&mut self, level: usize, hard_cap: usize) -> u128 {
        if level >= hard_cap || self.counts.n(level).is_zero() {
            u128::MAX
        } else {
            self.row(level).lhat_min
        }
    }
}

/// `⌈a / b⌉` for big integers (b > 0) via shift-and-subtract long
/// division on the top bits.
fn ceil_div(a: &BigUint, b: &BigUint) -> BigUint {
    if a.is_zero() {
        return BigUint::zero();
    }
    if let Some(small) = b.to_u64() {
        let (q, r) = a.div_rem_u64(small);
        return if r == 0 { q } else { &q + &BigUint::one() };
    }
    // Binary long division.
    let mut rem = a.clone();
    let mut quot = BigUint::zero();
    let shift_max = a.bit_len().saturating_sub(b.bit_len());
    for s in (0..=shift_max).rev() {
        let d = b.shl_bits(s);
        if let Some(next) = rem.checked_sub(&d) {
            rem = next;
            quot.add_assign_ref(&BigUint::one().shl_bits(s));
        }
    }
    if !rem.is_zero() {
        quot.add_assign_ref(&BigUint::one());
    }
    quot
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gap::GapRequirement;

    fn counts(seq_len: usize, n: usize, m: usize) -> OffsetCounts {
        OffsetCounts::new(seq_len, GapRequirement::new(n, m).unwrap())
    }

    #[test]
    fn lambda_closed_form_matches_equation4() {
        // For l ≤ l1: λ(l,d) = [L−(l−1)(c)]/[L−(l−d−1)(c)], c = (M+N)/2+1.
        let c = counts(1000, 9, 12);
        let cc = (12.0 + 9.0) / 2.0 + 1.0;
        for (l, d) in [(13, 3), (10, 2), (20, 10), (5, 4)] {
            let expected =
                (1000.0 - (l as f64 - 1.0) * cc) / (1000.0 - (l as f64 - d as f64 - 1.0) * cc);
            let got = lambda(&c, l, d).to_f64();
            assert!(
                (got - expected).abs() < 1e-12,
                "λ({l},{d}) = {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn lambda_is_at_most_one() {
        let c = counts(200, 3, 6);
        for l in 1..=c.l2() {
            // Theorem 1 concerns non-empty sub-patterns: d < l.
            for d in 0..l.min(6) {
                let v = lambda(&c, l, d);
                assert!(v <= BigRatio::one(), "λ({l},{d}) > 1");
            }
        }
    }

    #[test]
    fn lambda_transitivity_equation3() {
        // λ(l, d1+d2) = λ(l, d1) · λ(l−d1, d2).
        let c = counts(500, 4, 7);
        for (l, d1, d2) in [(12, 3, 4), (20, 5, 5), (8, 0, 3), (15, 7, 8)] {
            let lhs = lambda(&c, l, d1 + d2);
            let rhs = lambda(&c, l, d1).mul(&lambda(&c, l - d1, d2));
            assert_eq!(lhs, rhs, "transitivity fails at l={l}, d1={d1}, d2={d2}");
        }
    }

    #[test]
    fn lambda_zero_when_no_offset_sequences() {
        let c = counts(20, 9, 12);
        assert!(c.n(c.l2() + 1).is_zero());
        assert!(lambda(&c, c.l2() + 1, 2).is_zero());
    }

    #[test]
    fn lambda_prime_tightens_lambda() {
        let c = counts(1000, 9, 12);
        // W = 4, m = 3, e_m = 2 < W^m: λ′ multiplies λ by (W^m/e_m)^s ≥ 1.
        let base = lambda(&c, 13, 8);
        let tight = lambda_prime(&c, 13, 8, 3, 2);
        assert!(tight >= base, "λ′ must be ≥ λ");
        // s = ⌊8/3⌋ = 2, t = 2 → ratio = (W^3/e)^2 = (64/2)^2 = 1024.
        let ratio = tight.div(&base);
        assert_eq!(ratio, BigRatio::from_u64s(1024, 1));
    }

    #[test]
    fn lambda_prime_with_em_equal_wm_reduces_to_lambda() {
        let c = counts(1000, 9, 12);
        // e_m = W^m means Theorem 2 gives no improvement.
        let em = 4u64.pow(3);
        assert_eq!(lambda_prime(&c, 13, 9, 3, em), lambda(&c, 13, 9));
    }

    #[test]
    fn prune_bound_matches_lambda_rho() {
        let c = counts(1000, 9, 12);
        let rho = BigRatio::from_f64_exact(0.00003);
        let (l, d) = (13, 5);
        let bound = PruneBound::theorem1(&c, &rho, l, d);
        // Compare against the literal λ·ρs·N_(l−d) formulation.
        let literal = lambda(&c, l, d)
            .mul(&rho)
            .mul(&BigRatio::from_integer(c.n(l - d)));
        let threshold = bound.min_support();
        // min_support is the smallest integer ≥ literal.
        assert!(literal.cmp_integer(&threshold) != std::cmp::Ordering::Greater);
        let below = threshold.checked_sub(&BigUint::one()).unwrap();
        assert!(literal.cmp_integer(&below) == std::cmp::Ordering::Greater);
        // admits agrees with min_support.
        let t = threshold.to_u64().unwrap();
        assert!(bound.admits(t));
        assert!(!bound.admits(t - 1));
    }

    #[test]
    fn exact_bound_is_plain_frequency_test() {
        let c = counts(100, 1, 2);
        let rho = BigRatio::from_u64s(1, 10);
        let bound = PruneBound::exact(&c, &rho, 2);
        let n2 = c.n(2).to_u64().unwrap();
        let threshold = n2.div_ceil(10);
        assert!(bound.admits(threshold));
        assert!(!bound.admits(threshold - 1));
    }

    #[test]
    fn theorem2_bound_is_no_looser() {
        let c = counts(1000, 9, 12);
        let rho = BigRatio::from_f64_exact(0.00003);
        let b1 = PruneBound::theorem1(&c, &rho, 13, 10);
        let b2 = PruneBound::theorem2(&c, &rho, 13, 10, 3, 2);
        // Theorem 2's divisor is smaller, so its minimum support is larger.
        assert!(b2.min_support() >= b1.min_support());
    }

    /// A row's exact and L̂ bounds, built directly.
    fn direct_bounds(
        c: &OffsetCounts,
        rho: &BigRatio,
        n: usize,
        level: usize,
    ) -> (PruneBound, PruneBound) {
        let exact = PruneBound::exact(c, rho, level);
        let lhat = if level < n {
            PruneBound::theorem1(c, rho, n, n - level)
        } else {
            exact.clone()
        };
        (exact, lhat)
    }

    #[test]
    fn bound_table_rows_match_direct_construction() {
        let c = counts(500, 2, 5);
        let rho = BigRatio::from_f64_exact(0.001);
        let n = 8;
        let mut table = BoundTable::new(&c, &rho, n);
        for level in [3usize, 5, 8, 10, 3] {
            let row = *table.row(level);
            let (exact, lhat) = direct_bounds(&c, &rho, n, level);
            assert_eq!(
                Some(row.exact_min),
                exact.min_support().to_u128(),
                "level {level}"
            );
            assert_eq!(
                Some(row.lhat_min),
                lhat.min_support().to_u128(),
                "level {level}"
            );
            assert!((row.n_f64 - c.n_f64(level)).abs() <= row.n_f64.abs() * 1e-12);
        }
    }

    #[test]
    fn integer_thresholds_decide_like_the_exact_bounds() {
        // `sup >= *_min` must agree with the big-rational test on both
        // sides of every row's threshold, across flexible, rigid and
        // wide gaps and thresholds from tiny to 1.
        let configs: [(usize, (usize, usize), f64, usize); 5] = [
            (1000, (9, 12), 0.00003, 13),
            (10_000, (0, 9), 0.00003, 8),
            (500, (2, 5), 0.001, 8),
            (2000, (0, 0), 0.01, 6),
            (300, (1, 3), 0.5, 20),
        ];
        for (len, (gn, gm), rho, n) in configs {
            let c = counts(len, gn, gm);
            let rho = BigRatio::from_f64_exact(rho);
            let mut table = BoundTable::new(&c, &rho, n);
            for level in 1..=c.l2().min(40) {
                let row = *table.row(level);
                let (exact, lhat) = direct_bounds(&c, &rho, n, level);
                for (min, bound) in [(row.exact_min, exact), (row.lhat_min, lhat)] {
                    assert_ne!(min, u128::MAX, "level {level}: minimum fits u128");
                    for sup in [min.saturating_sub(1), min, min + 1] {
                        assert_eq!(
                            sup >= min,
                            bound.admits_u128(sup),
                            "L={len} gap [{gn},{gm}] level {level} sup {sup}"
                        );
                    }
                }
            }
        }
        // ρ = 1 at gap [0,9] over L = 1000: N_l passes 2^128 near
        // l = 40, so those rows' minimum saturates and admits nothing.
        let c = counts(1000, 0, 9);
        let rho = BigRatio::one();
        let mut table = BoundTable::new(&c, &rho, 60);
        let mut saturated = 0;
        for level in 1..=60 {
            let row = *table.row(level);
            let (exact, lhat) = direct_bounds(&c, &rho, 60, level);
            for (min, bound) in [(row.exact_min, exact), (row.lhat_min, lhat)] {
                if bound.min_support().to_u128().is_some() {
                    continue;
                }
                saturated += 1;
                assert_eq!(min, u128::MAX, "level {level}");
                for sup in [0, u128::from(u64::MAX), 1u128 << 96, u128::MAX - 1] {
                    assert!(sup < min, "level {level}: {sup} passes the integer test");
                    assert!(!bound.admits_u128(sup), "level {level}: {sup} admitted");
                }
            }
        }
        assert!(saturated > 0, "some row must exceed u128");
    }

    #[test]
    fn ceil_div_cases() {
        let a = BigUint::from_u64(10);
        assert_eq!(ceil_div(&a, &BigUint::from_u64(3)).to_u64(), Some(4));
        assert_eq!(ceil_div(&a, &BigUint::from_u64(5)).to_u64(), Some(2));
        assert_eq!(ceil_div(&BigUint::zero(), &a).to_u64(), Some(0));
        // Multi-word divisor path.
        let big = BigUint::from_u64(7).pow(60);
        let d = BigUint::from_u64(7).pow(30);
        assert_eq!(ceil_div(&big, &d), BigUint::from_u64(7).pow(30));
        let bigger = &big + &BigUint::one();
        assert_eq!(
            ceil_div(&bigger, &d),
            &BigUint::from_u64(7).pow(30) + &BigUint::one()
        );
    }
}
