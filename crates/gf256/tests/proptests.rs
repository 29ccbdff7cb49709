//! Property-based tests for the GF(2^8) field axioms.

use proptest::prelude::*;
use sharqfec_gf256::{mul_acc_rows, mul_acc_slice, poly_eval, Gf256};

fn gf() -> impl Strategy<Value = Gf256> {
    any::<u8>().prop_map(Gf256)
}

proptest! {
    #[test]
    fn addition_commutes(a in gf(), b in gf()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn multiplication_commutes(a in gf(), b in gf()) {
        prop_assert_eq!(a * b, b * a);
    }

    #[test]
    fn addition_associates(a in gf(), b in gf(), c in gf()) {
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn multiplication_associates(a in gf(), b in gf(), c in gf()) {
        prop_assert_eq!((a * b) * c, a * (b * c));
    }

    #[test]
    fn distributive_law(a in gf(), b in gf(), c in gf()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn additive_identity(a in gf()) {
        prop_assert_eq!(a + Gf256::ZERO, a);
    }

    #[test]
    fn multiplicative_identity(a in gf()) {
        prop_assert_eq!(a * Gf256::ONE, a);
    }

    #[test]
    fn division_inverts_multiplication(a in gf(), b in gf()) {
        prop_assume!(!b.is_zero());
        prop_assert_eq!((a * b) / b, a);
    }

    #[test]
    fn inverse_is_involutive(a in gf()) {
        prop_assume!(!a.is_zero());
        let inv = a.inverse().unwrap();
        prop_assert_eq!(inv.inverse().unwrap(), a);
    }

    #[test]
    fn pow_is_homomorphic(a in gf(), e1 in 0usize..64, e2 in 0usize..64) {
        prop_assert_eq!(a.pow(e1) * a.pow(e2), a.pow(e1 + e2));
    }

    #[test]
    fn freshman_dream_squaring(a in gf(), b in gf()) {
        // In characteristic 2: (a + b)^2 = a^2 + b^2.
        prop_assert_eq!((a + b).pow(2), a.pow(2) + b.pow(2));
    }

    #[test]
    fn mul_acc_is_linear_in_coefficient(
        src in proptest::collection::vec(any::<u8>(), 1..64),
        c1 in gf(),
        c2 in gf(),
    ) {
        // acc with c1 then c2 == acc with (c1 + c2) once.
        let mut lhs = vec![0u8; src.len()];
        mul_acc_slice(&mut lhs, &src, c1);
        mul_acc_slice(&mut lhs, &src, c2);
        let mut rhs = vec![0u8; src.len()];
        mul_acc_slice(&mut rhs, &src, c1 + c2);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn mul_acc_slice_matches_scalar_product(
        (src, dst) in (0usize..200).prop_flat_map(|n| {
            let bytes = || proptest::collection::vec(any::<u8>(), n);
            (bytes(), bytes())
        }),
        c in gf(),
    ) {
        // Linearity alone would pass a kernel reducing by the wrong
        // polynomial; the scalar product pins the field itself.
        let expect: Vec<u8> = dst.iter().zip(&src).map(|(&d, &s)| (Gf256(d) + c * Gf256(s)).0).collect();
        let mut got = dst;
        mul_acc_slice(&mut got, &src, c);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn mul_acc_rows_matches_mul_acc_slice(
        (src, rows) in (0usize..200).prop_flat_map(|n| {
            let bytes = move || proptest::collection::vec(any::<u8>(), n);
            (bytes(), proptest::collection::vec(bytes(), 0..10))
        }),
        coeffs in proptest::collection::vec(gf(), 10),
    ) {
        let mut want = rows.clone();
        for (row, &c) in want.iter_mut().zip(&coeffs) {
            mul_acc_slice(row, &src, c);
        }
        let mut got = rows;
        mul_acc_rows(got.iter_mut().map(Vec::as_mut_slice).zip(coeffs), &src);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn poly_eval_at_zero_is_constant_term(
        coeffs in proptest::collection::vec(any::<u8>().prop_map(Gf256), 1..16)
    ) {
        prop_assert_eq!(poly_eval(&coeffs, Gf256::ZERO), *coeffs.last().unwrap());
    }
}
