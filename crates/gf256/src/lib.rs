//! Arithmetic over the finite field GF(2^8).
//!
//! This crate is the lowest substrate of the SHARQFEC reproduction: the
//! Reed–Solomon erasure codec in `sharqfec-fec` (the "FEC" half of the
//! paper's hybrid ARQ/FEC recovery) performs all of its matrix algebra over
//! this field.
//!
//! The field is realised as `GF(2)[x] / (x^8 + x^4 + x^3 + x^2 + 1)`, i.e.
//! the irreducible polynomial `0x11D` used by Rizzo's `fec` library
//! ("Effective Erasure Codes for Reliable Computer Communication
//! Protocols", CCR 1997) which the paper builds on.  The scalar product
//! looks up two nibble tables; inverses and powers go through discrete
//! logarithms with respect to the generator `α = 0x02`, which is primitive
//! for this polynomial.
//!
//! The codec's inner loops shift-and-add over 16-byte blocks that the
//! baseline target vectorizes (SSE2, NEON) in safe Rust.  Encoding runs
//! [`dot_rows`]: a block of up to four parity rows summed in registers over
//! every source, with coefficients [`Expanded`] once per codec.  Decoding
//! runs [`mul_acc_rows`]: `dst += c · src` for up to four `(dst, c)` rows
//! per pass over `src`, each block's bit masks built once for all the rows.
//! [`mul_acc_slice`] is its one-row case and [`mul_slice`] the in-place
//! product.
//!
//! # Example
//!
//! ```
//! use sharqfec_gf256::Gf256;
//!
//! let a = Gf256(0x53);
//! let b = Gf256(0xCA);
//! let p = a * b;
//! assert_eq!(p / b, a);
//! assert_eq!(a + a, Gf256::ZERO); // characteristic 2: addition is XOR
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod tables;

pub use tables::{EXP_TABLE, LOG_TABLE, MUL_HI_TABLE, MUL_LO_TABLE};

use core::fmt;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// The reduction polynomial `x^8 + x^4 + x^3 + x^2 + 1` (bit pattern
/// `1_0001_1101`), as used by Rizzo's erasure-code library.
pub const POLYNOMIAL: u16 = 0x11D;

/// The generator element `α = 0x02`, primitive for [`POLYNOMIAL`].
pub const GENERATOR: u8 = 0x02;

/// Number of elements in the field.
pub const FIELD_SIZE: usize = 256;

/// Order of the multiplicative group (`FIELD_SIZE - 1`).
pub const GROUP_ORDER: usize = 255;

/// An element of GF(2^8).
///
/// The wrapped byte is the coefficient vector of a degree-<8 polynomial over
/// GF(2).  All arithmetic operators are implemented; addition and
/// subtraction coincide (characteristic 2) and are plain XOR, while
/// multiplication and division go through log/antilog tables.
///
/// Division by zero panics, mirroring integer division.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Gf256(pub u8);

impl Gf256 {
    /// The additive identity.
    pub const ZERO: Gf256 = Gf256(0);
    /// The multiplicative identity.
    pub const ONE: Gf256 = Gf256(1);
    /// The generator `α` of the multiplicative group.
    pub const ALPHA: Gf256 = Gf256(GENERATOR);

    /// Returns `α^power` for any integer power (reduced mod 255).
    ///
    /// ```
    /// use sharqfec_gf256::Gf256;
    /// assert_eq!(Gf256::alpha_pow(0), Gf256::ONE);
    /// assert_eq!(Gf256::alpha_pow(255), Gf256::ONE);
    /// ```
    #[inline]
    pub fn alpha_pow(power: usize) -> Gf256 {
        Gf256(EXP_TABLE[power % GROUP_ORDER])
    }

    /// Whether this element is the additive identity.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Discrete logarithm with respect to `α`.
    ///
    /// Returns `None` for zero, which has no logarithm.
    #[inline]
    pub fn log(self) -> Option<u8> {
        if self.is_zero() {
            None
        } else {
            Some(LOG_TABLE[self.0 as usize])
        }
    }

    /// Multiplicative inverse.
    ///
    /// Returns `None` for zero.
    ///
    /// ```
    /// use sharqfec_gf256::Gf256;
    /// let x = Gf256(0x9A);
    /// assert_eq!(x * x.inverse().unwrap(), Gf256::ONE);
    /// ```
    #[inline]
    pub fn inverse(self) -> Option<Gf256> {
        let log = self.log()?;
        Some(Gf256(EXP_TABLE[(GROUP_ORDER - log as usize) % GROUP_ORDER]))
    }

    /// Raises this element to an arbitrary non-negative integer power.
    ///
    /// `0^0` is defined as `1`, consistent with polynomial evaluation.
    /// The exponent is reduced mod 255 before it scales the logarithm, so
    /// no exponent overflows.
    pub fn pow(self, exp: usize) -> Gf256 {
        if exp == 0 {
            return Gf256::ONE;
        }
        match self.log() {
            None => Gf256::ZERO,
            Some(log) => Gf256(EXP_TABLE[log as usize * (exp % GROUP_ORDER) % GROUP_ORDER]),
        }
    }
}

impl fmt::Debug for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf256(0x{:02X})", self.0)
    }
}

impl fmt::Display for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02X}", self.0)
    }
}

impl From<u8> for Gf256 {
    #[inline]
    fn from(v: u8) -> Self {
        Gf256(v)
    }
}

impl From<Gf256> for u8 {
    #[inline]
    fn from(v: Gf256) -> Self {
        v.0
    }
}

impl Add for Gf256 {
    type Output = Gf256;
    // GF(2^8) has characteristic 2: field addition is carry-less, i.e. XOR.
    #[allow(clippy::suspicious_arithmetic_impl)]
    #[inline]
    fn add(self, rhs: Gf256) -> Gf256 {
        Gf256(self.0 ^ rhs.0)
    }
}

impl AddAssign for Gf256 {
    #[allow(clippy::suspicious_op_assign_impl)]
    #[inline]
    fn add_assign(&mut self, rhs: Gf256) {
        self.0 ^= rhs.0;
    }
}

impl Sub for Gf256 {
    type Output = Gf256;
    #[allow(clippy::suspicious_arithmetic_impl)]
    #[inline]
    fn sub(self, rhs: Gf256) -> Gf256 {
        // Characteristic 2: subtraction equals addition.
        Gf256(self.0 ^ rhs.0)
    }
}

impl SubAssign for Gf256 {
    #[allow(clippy::suspicious_op_assign_impl)]
    #[inline]
    fn sub_assign(&mut self, rhs: Gf256) {
        self.0 ^= rhs.0;
    }
}

impl Neg for Gf256 {
    type Output = Gf256;
    #[inline]
    fn neg(self) -> Gf256 {
        // Every element is its own additive inverse.
        self
    }
}

impl Mul for Gf256 {
    type Output = Gf256;
    #[inline]
    fn mul(self, rhs: Gf256) -> Gf256 {
        // Nibble-split lookup: branchless (no zero guards, no mod-255
        // reduction); matrix inversion needs a fast single product.
        let row_lo = &MUL_LO_TABLE[self.0 as usize];
        let row_hi = &MUL_HI_TABLE[self.0 as usize];
        Gf256(row_lo[(rhs.0 & 0x0F) as usize] ^ row_hi[(rhs.0 >> 4) as usize])
    }
}

impl MulAssign for Gf256 {
    #[inline]
    fn mul_assign(&mut self, rhs: Gf256) {
        *self = *self * rhs;
    }
}

impl Div for Gf256 {
    type Output = Gf256;
    // Field division is multiplication by the inverse.
    #[allow(clippy::suspicious_arithmetic_impl)]
    #[inline]
    fn div(self, rhs: Gf256) -> Gf256 {
        let inv = rhs.inverse().expect("division by zero in GF(256)");
        self * inv
    }
}

impl DivAssign for Gf256 {
    #[inline]
    fn div_assign(&mut self, rhs: Gf256) {
        *self = *self / rhs;
    }
}

impl Sum for Gf256 {
    fn sum<I: Iterator<Item = Gf256>>(iter: I) -> Gf256 {
        iter.fold(Gf256::ZERO, |a, b| a + b)
    }
}

impl Product for Gf256 {
    fn product<I: Iterator<Item = Gf256>>(iter: I) -> Gf256 {
        iter.fold(Gf256::ONE, |a, b| a * b)
    }
}

/// Bytes per block of the slice kernels: one 16-byte vector register, so
/// four rows' accumulators, the source block and its mask fit the baseline
/// target's sixteen.
const BLOCK: usize = 16;

/// `coeff · 2^7, coeff · 2^6, …, coeff`: the multiples [`mul_block`] adds,
/// the field's reduction folded in once per call.
fn multiples(coeff: Gf256) -> [u8; 8] {
    core::array::from_fn(|j| (coeff * Gf256(0x80 >> j)).0)
}

/// `coeff · x` for every byte of a block and each of `R` coefficients, by
/// shift-and-add: bit `7 - j` of each byte, moved into its sign bit by `j`
/// doublings, is a mask built once that selects every row's
/// `multiples[j]`.  Shifts, signed byte compares, ANDs and XORs over
/// fixed-size arrays are what the baseline target's vector unit has (SSE2
/// on x86-64, NEON on aarch64), so this vectorizes with no byte shuffle
/// and no table.
#[inline(always)]
fn mul_block<const R: usize>(mut x: [u8; BLOCK], multiples: &[[u8; 8]; R]) -> [[u8; BLOCK]; R] {
    let mut acc = [[0u8; BLOCK]; R];
    for j in 0..8 {
        let mask: [u8; BLOCK] = core::array::from_fn(|i| ((x[i] as i8) >> 7) as u8);
        for (acc, m) in acc.iter_mut().zip(multiples) {
            for i in 0..BLOCK {
                acc[i] ^= mask[i] & m[j];
            }
        }
        x = x.map(|b| b.wrapping_add(b));
    }
    acc
}

/// A coefficient expanded once for [`dot_rows`]: its eight multiples
/// `coeff · 2^7, …, coeff`, each broadcast over an aligned block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(align(16))]
pub struct Expanded([[u8; BLOCK]; 8]);

impl From<Gf256> for Expanded {
    fn from(coeff: Gf256) -> Expanded {
        Expanded(multiples(coeff).map(|m| [m; BLOCK]))
    }
}

/// `dst = Σ_i coeffs[i] · src(i)` for every `(dst, coeffs)` of `rows`: the
/// column kernel of encoding.  Each 16-byte column of up to four rows is
/// summed in registers over all sources and stored once, so `dst` needs no
/// zeroing; a shorter tail uses the scalar product.
///
/// # Panics
///
/// Panics unless every row, and every source, has one length and every
/// row the same number of coefficients.
pub fn dot_rows<'a, 's>(
    rows: impl IntoIterator<Item = (&'a mut [u8], &'a [Expanded])>,
    src: impl Fn(usize) -> &'s [u8],
) {
    let mut rows = rows.into_iter().fuse();
    loop {
        match [rows.next(), rows.next(), rows.next(), rows.next()] {
            [Some(a), Some(b), Some(c), Some(d)] => dot([a, b, c, d], &src),
            [Some(a), Some(b), Some(c), None] => return dot([a, b, c], &src),
            [Some(a), Some(b), None, _] => return dot([a, b], &src),
            [Some(a), None, ..] => return dot([a], &src),
            [None, ..] => return,
        }
    }
}

/// [`dot_rows`] for `R` rows at once.
fn dot<'s, const R: usize>(rows: [(&mut [u8], &[Expanded]); R], src: &impl Fn(usize) -> &'s [u8]) {
    let (coeffs, mut dst) = (rows.each_ref().map(|&(_, c)| c), rows.map(|(d, _)| d));
    let (len, k) = (dst[0].len(), coeffs[0].len());
    let fit = |d: &[u8], c: &[Expanded]| d.len() == len && c.len() == k;
    let rows_fit = dst.iter().zip(coeffs).all(|(d, c)| fit(d, c));
    let fits = rows_fit && (0..k).all(|i| src(i).len() == len);
    assert!(fits, "dot_rows: equal-length slices only");
    let whole = len - len % BLOCK;
    for at in (0..whole).step_by(BLOCK) {
        let mut acc = [[0u8; BLOCK]; R];
        for i in 0..k {
            let mut x: [u8; BLOCK] = src(i)[at..at + BLOCK].try_into().expect("whole block");
            let e = coeffs.map(|c| &c[i].0);
            // Shift-and-add as in `mul_block`, each row's accumulator
            // rebuilt as a value so the rows stay in registers.
            for j in 0..8 {
                let mask: [u8; BLOCK] = core::array::from_fn(|b| ((x[b] as i8) >> 7) as u8);
                for (acc, e) in acc.iter_mut().zip(e) {
                    *acc = core::array::from_fn(|b| acc[b] ^ (mask[b] & e[j][b]));
                }
                x = x.map(|b| b.wrapping_add(b));
            }
        }
        for (d, acc) in dst.iter_mut().zip(&acc) {
            d[at..at + BLOCK].copy_from_slice(acc);
        }
    }
    dst.iter_mut().for_each(|d| d[whole..].fill(0));
    for i in 0..k {
        for (d, c) in dst.iter_mut().zip(coeffs) {
            // Multiple 7 is `coeff · 1`.
            let c = Gf256(c[i].0[7][0]);
            for (d, s) in d[whole..].iter_mut().zip(&src(i)[whole..]) {
                *d ^= (c * Gf256(*s)).0;
            }
        }
    }
}

/// Multiplies `dst[i] += coeff * src[i]` for whole slices: one row of
/// [`mul_acc_rows`].
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn mul_acc_slice(dst: &mut [u8], src: &[u8], coeff: Gf256) {
    mul_acc_rows([(dst, coeff)], src);
}

/// `dst[i] += coeff * src[i]` for every `(dst, coeff)` of `rows`.
///
/// This is the inner loop of Reed–Solomon encoding and decoding: a parity
/// or rebuilt packet is one row, and one pass over a source packet feeds
/// up to four rows, each 16-byte block's bit masks built once for all of
/// them.  Whole blocks go through the vectorized shift-and-add product; a
/// shorter tail uses the scalar product.  Rows with `coeff = 0` are
/// skipped.
///
/// # Panics
///
/// Panics if a row's length differs from `src`'s.
pub fn mul_acc_rows<'a>(rows: impl IntoIterator<Item = (&'a mut [u8], Gf256)>, src: &[u8]) {
    let mut rows = rows
        .into_iter()
        .inspect(|(d, _)| assert_eq!(d.len(), src.len(), "mul_acc_rows: equal-length slices only"))
        .filter(|(_, coeff)| !coeff.is_zero())
        .fuse();
    loop {
        match [rows.next(), rows.next(), rows.next(), rows.next()] {
            [Some(a), Some(b), Some(c), Some(d)] => acc_rows([a, b, c, d], src),
            [Some(a), Some(b), Some(c), None] => return acc_rows([a, b, c], src),
            [Some(a), Some(b), None, _] => return acc_rows([a, b], src),
            [Some(a), None, ..] => return acc_rows([a], src),
            [None, ..] => return,
        }
    }
}

/// [`mul_acc_rows`] for `R` rows at once.
fn acc_rows<const R: usize>(rows: [(&mut [u8], Gf256); R], src: &[u8]) {
    let coeffs = rows.each_ref().map(|&(_, c)| c);
    let (m, mut dst) = (coeffs.map(multiples), rows.map(|(d, _)| d));
    let whole = src.len() - src.len() % BLOCK;
    for (at, s) in (0..whole).step_by(BLOCK).zip(src.chunks_exact(BLOCK)) {
        let p = mul_block(s.try_into().expect("exact chunk"), &m);
        for (d, p) in dst.iter_mut().zip(&p) {
            let d = &mut d[at..at + BLOCK];
            for i in 0..BLOCK {
                d[i] ^= p[i];
            }
        }
    }
    for (d, c) in dst.iter_mut().zip(coeffs) {
        for (d, s) in d[whole..].iter_mut().zip(&src[whole..]) {
            *d ^= (c * Gf256(*s)).0;
        }
    }
}

/// Multiplies a slice in place by a scalar: `dst[i] *= coeff`, by the same
/// block product as [`mul_acc_rows`].
pub fn mul_slice(dst: &mut [u8], coeff: Gf256) {
    if coeff == Gf256::ONE {
        return;
    }
    if coeff.is_zero() {
        dst.fill(0);
        return;
    }
    let m = [multiples(coeff)];
    let mut blocks = dst.chunks_exact_mut(BLOCK);
    for d in &mut blocks {
        let [p] = mul_block(d[..].try_into().expect("exact chunk"), &m);
        d.copy_from_slice(&p);
    }
    for d in blocks.into_remainder() {
        *d = (coeff * Gf256(*d)).0;
    }
}

/// Evaluates the polynomial with the given coefficients (highest degree
/// first) at point `x`, via Horner's rule.
pub fn poly_eval(coeffs: &[Gf256], x: Gf256) -> Gf256 {
    coeffs.iter().fold(Gf256::ZERO, |acc, &c| acc * x + c)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-by-bit "schoolbook" multiply used as an oracle for the tables.
    fn slow_mul(a: u8, b: u8) -> u8 {
        let mut a = a as u16;
        let mut b = b as u16;
        let mut acc: u16 = 0;
        while b != 0 {
            if b & 1 != 0 {
                acc ^= a;
            }
            a <<= 1;
            if a & 0x100 != 0 {
                a ^= POLYNOMIAL;
            }
            b >>= 1;
        }
        acc as u8
    }

    #[test]
    fn tables_match_schoolbook_multiplication_exhaustively() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(
                    (Gf256(a) * Gf256(b)).0,
                    slow_mul(a, b),
                    "mismatch at {a} * {b}"
                );
            }
        }
    }

    #[test]
    fn nibble_tables_recombine_to_the_full_product() {
        // The scalar product relies on c·v = LO[c][v&0xF] ⊕ HI[c][v>>4];
        // verify the split against the schoolbook oracle exhaustively.
        for c in 0..=255u8 {
            for v in 0..=255u8 {
                let split = MUL_LO_TABLE[c as usize][(v & 0x0F) as usize]
                    ^ MUL_HI_TABLE[c as usize][(v >> 4) as usize];
                assert_eq!(split, slow_mul(c, v), "mismatch at {c} * {v}");
            }
        }
    }

    #[test]
    fn exp_log_are_inverse_bijections() {
        for v in 1..=255u8 {
            let l = LOG_TABLE[v as usize];
            assert_eq!(EXP_TABLE[l as usize], v);
        }
        // EXP over 0..255 must be a permutation of 1..=255.
        let mut seen = [false; 256];
        for &e in EXP_TABLE.iter().take(GROUP_ORDER) {
            assert_ne!(e, 0);
            assert!(!seen[e as usize], "EXP_TABLE repeats {e}");
            seen[e as usize] = true;
        }
    }

    #[test]
    fn addition_is_xor_and_self_inverse() {
        for a in 0..=255u8 {
            assert_eq!(Gf256(a) + Gf256(a), Gf256::ZERO);
            assert_eq!(Gf256(a) - Gf256(a), Gf256::ZERO);
            assert_eq!(-Gf256(a), Gf256(a));
        }
    }

    #[test]
    fn every_nonzero_element_has_an_inverse() {
        for a in 1..=255u8 {
            let inv = Gf256(a).inverse().expect("nonzero must invert");
            assert_eq!(Gf256(a) * inv, Gf256::ONE, "inverse failed for {a}");
        }
        assert_eq!(Gf256::ZERO.inverse(), None);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = Gf256(7) / Gf256::ZERO;
    }

    #[test]
    fn multiplication_is_associative_on_a_sample() {
        // Full 256^3 exhaustion is slow in debug builds; sample a lattice.
        for a in (0..=255u8).step_by(7) {
            for b in (0..=255u8).step_by(11) {
                for c in (0..=255u8).step_by(13) {
                    let (a, b, c) = (Gf256(a), Gf256(b), Gf256(c));
                    assert_eq!((a * b) * c, a * (b * c));
                }
            }
        }
    }

    #[test]
    fn distributivity_holds_on_a_sample() {
        for a in (0..=255u8).step_by(5) {
            for b in (0..=255u8).step_by(9) {
                for c in (0..=255u8).step_by(17) {
                    let (a, b, c) = (Gf256(a), Gf256(b), Gf256(c));
                    assert_eq!(a * (b + c), a * b + a * c);
                }
            }
        }
    }

    #[test]
    fn generator_has_full_order() {
        // α must generate all 255 nonzero elements.
        let mut x = Gf256::ONE;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..GROUP_ORDER {
            x *= Gf256::ALPHA;
            assert!(seen.insert(x.0));
        }
        assert_eq!(x, Gf256::ONE, "α^255 must be 1");
        assert_eq!(seen.len(), GROUP_ORDER);
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        for a in [0u8, 1, 2, 3, 0x53, 0xCA, 0xFF] {
            let mut acc = Gf256::ONE;
            for e in 0..520 {
                assert_eq!(Gf256(a).pow(e), acc, "a={a} e={e}");
                acc *= Gf256(a);
            }
        }
    }

    #[test]
    fn alpha_pow_wraps_at_group_order() {
        for p in 0..1024 {
            assert_eq!(Gf256::alpha_pow(p), Gf256::ALPHA.pow(p % GROUP_ORDER));
        }
    }

    #[test]
    fn pow_reduces_huge_exponents_without_overflow() {
        // 255 divides 2^64 - 1, so 4^usize::MAX = 1; the oracle is the
        // unreduced product of logarithm and exponent, taken in u128.
        assert_eq!(Gf256(4).pow(usize::MAX), Gf256::ONE);
        for a in [0u8, 1, 2, 4, 0x53, 0xFF] {
            for exp in usize::MAX - 600..=usize::MAX {
                let expect = match Gf256(a).log() {
                    None => Gf256::ZERO,
                    Some(log) => Gf256(EXP_TABLE[(log as u128 * exp as u128 % 255) as usize]),
                };
                assert_eq!(Gf256(a).pow(exp), expect, "a={a} exp={exp}");
            }
        }
    }

    /// Lengths on both sides of one to four 16-byte blocks, so every tail
    /// length class is reached, and the paper's 1000-byte shard.
    const KERNEL_LENS: [usize; 15] = [0, 1, 15, 16, 17, 31, 32, 33, 47, 48, 49, 63, 64, 65, 1000];

    #[test]
    fn mul_acc_slice_matches_scalar_loop() {
        for len in KERNEL_LENS {
            let src: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            for coeff in 0..=255u8 {
                let mut dst: Vec<u8> = (0..len).map(|i| (i * 13 + 200) as u8).collect();
                let expect: Vec<u8> = dst
                    .iter()
                    .zip(&src)
                    .map(|(&d, &s)| (Gf256(d) + Gf256(coeff) * Gf256(s)).0)
                    .collect();
                mul_acc_slice(&mut dst, &src, Gf256(coeff));
                assert_eq!(dst, expect, "coeff={coeff} len={len}");
            }
        }
    }

    #[test]
    fn mul_acc_rows_matches_one_row_at_a_time() {
        // 0-9 rows: whole fours and every remainder, with 0 and 1 among
        // the coefficients at shifting positions.
        let coeffs = [0, 1, 0x53, 0xCA, 2, 0xFF, 0x1D, 0x80, 7].map(Gf256);
        for len in KERNEL_LENS {
            let src: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            for n in 0..10 {
                let c = |r: usize| coeffs[(r + n) % 9];
                let dst = |r: usize| (0..len).map(|i| (i * 13 + r * 29 + 200) as u8).collect();
                let mut want: Vec<Vec<u8>> = (0..n).map(dst).collect();
                let mut got = want.clone();
                (0..n).for_each(|r| mul_acc_slice(&mut want[r], &src, c(r)));
                mul_acc_rows(
                    got.iter_mut().map(Vec::as_mut_slice).zip((0..n).map(c)),
                    &src,
                );
                assert_eq!(got, want, "rows={n} len={len}");
            }
        }
    }

    #[test]
    fn dot_rows_matches_a_scalar_sum() {
        // 1-8 rows (whole fours and every remainder) of 1 or 5 sources,
        // over stale `dst` bytes.
        let coeffs = [0, 1, 0x53, 0xCA, 2, 0xFF, 0x1D, 0x80, 7].map(Gf256);
        for (k, len) in [1, 5].into_iter().flat_map(|k| KERNEL_LENS.map(|n| (k, n))) {
            let data: Vec<u8> = (0..k * len).map(|b| (b * 7 + 3) as u8).collect();
            let src = |i: usize| &data[i * len..(i + 1) * len];
            let c = |r: usize, i: usize| coeffs[(r * k + i) % 9];
            let dot = |r, b| (0..k).map(|i| c(r, i) * Gf256(src(i)[b])).sum::<Gf256>().0;
            for h in 1..=8 {
                let expanded: Vec<Expanded> = (0..h * k).map(|n| coeffs[n % 9].into()).collect();
                let mut got = vec![vec![0xA5; len]; h];
                let rows = got.iter_mut().map(Vec::as_mut_slice);
                dot_rows(rows.zip(expanded.chunks(k)), src);
                let want: Vec<Vec<u8>> = (0..h)
                    .map(|r| (0..len).map(|b| dot(r, b)).collect())
                    .collect();
                assert_eq!(got, want, "rows={h} k={k} len={len}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn mul_acc_rows_rejects_length_mismatch_even_at_coefficient_zero() {
        mul_acc_rows([(&mut [0u8; 4][..], Gf256::ZERO)], &[1, 2, 3]);
    }

    #[test]
    fn mul_slice_matches_scalar_loop() {
        for len in KERNEL_LENS {
            for coeff in 0..=255u8 {
                let mut dst: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
                let expect: Vec<u8> = dst.iter().map(|&d| (Gf256(d) * Gf256(coeff)).0).collect();
                mul_slice(&mut dst, Gf256(coeff));
                assert_eq!(dst, expect, "coeff={coeff} len={len}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn mul_acc_slice_rejects_length_mismatch() {
        let mut dst = [0u8; 4];
        mul_acc_slice(&mut dst, &[1, 2, 3], Gf256::ONE);
    }

    #[test]
    fn poly_eval_horner_matches_naive() {
        let coeffs = [Gf256(3), Gf256(0), Gf256(7), Gf256(0x1D)];
        for x in 0..=255u8 {
            let x = Gf256(x);
            let naive = coeffs
                .iter()
                .rev()
                .enumerate()
                .fold(Gf256::ZERO, |acc, (i, &c)| acc + c * x.pow(i));
            assert_eq!(poly_eval(&coeffs, x), naive);
        }
    }

    #[test]
    fn sum_and_product_fold_correctly() {
        let xs = [Gf256(1), Gf256(2), Gf256(3)];
        assert_eq!(xs.iter().copied().sum::<Gf256>(), Gf256(1 ^ 2 ^ 3));
        assert_eq!(
            xs.iter().copied().product::<Gf256>(),
            Gf256(1) * Gf256(2) * Gf256(3)
        );
    }

    #[test]
    fn display_and_debug_format() {
        assert_eq!(format!("{}", Gf256(0x1D)), "1D");
        assert_eq!(format!("{:?}", Gf256(0x1D)), "Gf256(0x1D)");
    }
}
