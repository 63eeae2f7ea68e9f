//! Property-based tests for the exact arithmetic substrate.
//!
//! Every law is checked against `u128`/`i128` ground truth where the values
//! fit, and against algebraic identities (ring/field axioms, division
//! invariants) for values that do not fit machine integers.

use dioph_arith::{Integer, Natural, Rational};
use proptest::prelude::*;

/// Strategy for naturals with up to ~256 bits, biased towards interesting
/// small values and limb boundaries.
fn natural_strategy() -> impl Strategy<Value = Natural> {
    prop_oneof![
        3 => any::<u64>().prop_map(Natural::from),
        2 => any::<u128>().prop_map(Natural::from),
        1 => Just(Natural::zero()),
        1 => Just(Natural::one()),
        1 => Just(Natural::from(u64::MAX)),
        3 => proptest::collection::vec(any::<u64>(), 1..5).prop_map(Natural::from_limbs),
    ]
}

/// Strategy for `u128` values hugging the `u64` boundary from both sides —
/// exactly where the hybrid representation switches between its inline and
/// limb forms.
fn boundary_u128() -> impl Strategy<Value = u128> {
    let b = u64::MAX as u128;
    prop_oneof![
        (0u128..=8).prop_map(move |d| b - d),
        (1u128..=8).prop_map(move |d| b + d),
        Just(b),
        Just(b + 1),
        0u128..=16,
    ]
}

/// Strategy for `i128` values hugging both `i64` boundaries.
fn boundary_i128() -> impl Strategy<Value = i128> {
    let lo = i64::MIN as i128;
    let hi = i64::MAX as i128;
    prop_oneof![
        (0i128..=8).prop_map(move |d| hi - d),
        (1i128..=8).prop_map(move |d| hi + d),
        (0i128..=8).prop_map(move |d| lo + d),
        (1i128..=8).prop_map(move |d| lo - d),
        -16i128..=16,
    ]
}

/// Asserts that a natural equals its `u128` ground truth **and** is stored
/// canonically: the inline form exactly when the value fits a word.
fn assert_canonical_natural(value: &Natural, expect: u128) {
    assert_eq!(value, &Natural::from(expect));
    if expect <= u64::MAX as u128 {
        assert_eq!(value.to_u64(), Some(expect as u64), "must demote to the inline form");
        assert!(value.limbs().len() <= 1);
    } else {
        assert_eq!(value.to_u64(), None, "must promote to the limb form");
        assert!(value.limbs().len() >= 2);
    }
}

/// Asserts that an integer equals its `i128` ground truth **and** is stored
/// canonically: the inline form exactly when the value fits `i64`.
fn assert_canonical_integer(value: &Integer, expect: i128) {
    assert_eq!(value, &Integer::from(expect));
    if i64::try_from(expect).is_ok() {
        assert_eq!(value.to_i64(), Some(expect as i64), "must demote to the inline form");
    } else {
        assert_eq!(value.to_i64(), None, "must promote to the big form");
    }
}

fn integer_strategy() -> impl Strategy<Value = Integer> {
    (natural_strategy(), any::<bool>()).prop_map(|(n, neg)| {
        let i = Integer::from(n);
        if neg {
            -i
        } else {
            i
        }
    })
}

fn rational_strategy() -> impl Strategy<Value = Rational> {
    (any::<i64>(), 1..10_000i64).prop_map(|(n, d)| Rational::from_i64s(n, d))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // ---------------- Natural: agreement with u128 ----------------

    #[test]
    fn natural_add_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let expect = Natural::from(a as u128 + b as u128);
        prop_assert_eq!(&Natural::from(a) + &Natural::from(b), expect);
    }

    #[test]
    fn natural_mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let expect = Natural::from(a as u128 * b as u128);
        prop_assert_eq!(&Natural::from(a) * &Natural::from(b), expect);
    }

    #[test]
    fn natural_div_rem_matches_u128(a in any::<u128>(), b in 1..=u128::MAX) {
        let (q, r) = Natural::from(a).div_rem(&Natural::from(b));
        prop_assert_eq!(q, Natural::from(a / b));
        prop_assert_eq!(r, Natural::from(a % b));
    }

    #[test]
    fn natural_cmp_matches_u128(a in any::<u128>(), b in any::<u128>()) {
        prop_assert_eq!(Natural::from(a).cmp(&Natural::from(b)), a.cmp(&b));
    }

    // ---------------- Natural: algebraic laws on big values ----------------

    #[test]
    fn natural_add_commutative_associative(a in natural_strategy(), b in natural_strategy(), c in natural_strategy()) {
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn natural_mul_commutative_associative_distributive(a in natural_strategy(), b in natural_strategy(), c in natural_strategy()) {
        prop_assert_eq!(&a * &b, &b * &a);
        prop_assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn natural_sub_inverts_add(a in natural_strategy(), b in natural_strategy()) {
        prop_assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn natural_division_invariant(a in natural_strategy(), b in natural_strategy()) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn natural_gcd_laws(a in natural_strategy(), b in natural_strategy()) {
        let g = a.gcd(&b);
        prop_assert_eq!(&g, &b.gcd(&a));
        if !g.is_zero() {
            prop_assert!((&a % &g).is_zero());
            prop_assert!((&b % &g).is_zero());
        } else {
            prop_assert!(a.is_zero() && b.is_zero());
        }
        // gcd * lcm == a * b
        prop_assert_eq!(&a.lcm(&b) * &g, &a * &b);
    }

    #[test]
    fn natural_shift_roundtrip(a in natural_strategy(), s in 0usize..200) {
        prop_assert_eq!(&(&a << s) >> s, a.clone());
        // Shifting left by s multiplies by 2^s.
        prop_assert_eq!(&a << s, &a * &Natural::from(2u64).pow(s as u64));
    }

    #[test]
    fn natural_pow_law(a in any::<u32>(), e in 0u64..6, f in 0u64..6) {
        let a = Natural::from(a);
        prop_assert_eq!(&a.pow(e) * &a.pow(f), a.pow(e + f));
    }

    #[test]
    fn natural_decimal_roundtrip(a in natural_strategy()) {
        let s = a.to_decimal_string();
        prop_assert_eq!(s.parse::<Natural>().unwrap(), a);
    }

    // ---------------- Integer ----------------

    #[test]
    fn integer_matches_i128(a in any::<i64>(), b in any::<i64>()) {
        let (ia, ib) = (Integer::from(a), Integer::from(b));
        prop_assert_eq!(&ia + &ib, Integer::from(a as i128 + b as i128));
        prop_assert_eq!(&ia - &ib, Integer::from(a as i128 - b as i128));
        prop_assert_eq!(&ia * &ib, Integer::from(a as i128 * b as i128));
        prop_assert_eq!(ia.cmp(&ib), a.cmp(&b));
    }

    #[test]
    fn integer_div_rem_matches_i128(a in any::<i64>(), b in any::<i64>()) {
        prop_assume!(b != 0);
        let (q, r) = Integer::from(a).div_rem(&Integer::from(b));
        prop_assert_eq!(q, Integer::from(a as i128 / b as i128));
        prop_assert_eq!(r, Integer::from(a as i128 % b as i128));
    }

    #[test]
    fn integer_ring_laws(a in integer_strategy(), b in integer_strategy(), c in integer_strategy()) {
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
        prop_assert_eq!(&a + &(-&a), Integer::zero());
        prop_assert_eq!(&a * &Integer::one(), a.clone());
    }

    #[test]
    fn integer_division_invariant(a in integer_strategy(), b in integer_strategy()) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert_eq!(&(&q * &b) + &r, a.clone());
        prop_assert!(r.magnitude() < b.magnitude());
        // Remainder carries the sign of the dividend (or is zero).
        if !r.is_zero() {
            prop_assert_eq!(r.sign(), a.sign());
        }
    }

    // ---------------- Rational ----------------

    #[test]
    fn rational_field_laws(a in rational_strategy(), b in rational_strategy(), c in rational_strategy()) {
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!(&a * &b, &b * &a);
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
        prop_assert_eq!(&a - &a, Rational::zero());
        if !a.is_zero() {
            prop_assert_eq!(&a * &a.recip(), Rational::one());
            prop_assert_eq!(&(&b / &a) * &a, b.clone());
        }
    }

    #[test]
    fn rational_is_reduced(n in any::<i64>(), d in 1..10_000i64) {
        let r = Rational::from_i64s(n, d);
        let g = r.numer().magnitude().gcd(r.denom());
        prop_assert!(g.is_one() || r.is_zero());
        prop_assert!(!r.denom().is_zero());
    }

    #[test]
    fn rational_ordering_consistent_with_f64(a in rational_strategy(), b in rational_strategy()) {
        // f64 comparison agrees whenever the difference is not microscopic.
        let (fa, fb) = (a.to_f64_lossy(), b.to_f64_lossy());
        if (fa - fb).abs() > 1e-6 {
            prop_assert_eq!(a < b, fa < fb);
        }
    }

    #[test]
    fn rational_floor_ceil_bracket(a in rational_strategy()) {
        let fl = Rational::from(a.floor());
        let ce = Rational::from(a.ceil());
        prop_assert!(fl <= a && a <= ce);
        prop_assert!(&ce - &fl <= Rational::one());
        if a.is_integer() {
            prop_assert_eq!(fl, ce);
        }
    }

    #[test]
    fn rational_parse_roundtrip(a in rational_strategy()) {
        prop_assert_eq!(a.to_string().parse::<Rational>().unwrap(), a);
    }

    // ---------------- Hybrid representation: differential suites ----------------
    //
    // The hybrid tower must be *bit-identical* to a big-only build. Since the
    // representation is canonical, value equality (`Eq` compares canonical
    // forms) plus explicit canonicity checks give exactly that: the suites
    // below drive random operations across the i64/u64 promotion boundary and
    // compare against wide-machine ground truth, and route the *same* values
    // through the limb path (via scaling homomorphisms and unreduced big
    // constructions) to confirm both paths land on the same canonical object.

    #[test]
    fn natural_boundary_ops_are_canonical(a in boundary_u128(), b in boundary_u128()) {
        let (na, nb) = (Natural::from(a), Natural::from(b));
        assert_canonical_natural(&(&na + &nb), a + b);
        if a >= b {
            assert_canonical_natural(&(&na - &nb), a - b);
        } else {
            prop_assert_eq!(na.checked_sub(&nb), None);
        }
        if let Some(p) = a.checked_mul(b) {
            assert_canonical_natural(&(&na * &nb), p);
        }
        if let (Some(qe), Some(re)) = (a.checked_div(b), a.checked_rem(b)) {
            let (q, r) = na.div_rem(&nb);
            assert_canonical_natural(&q, qe);
            assert_canonical_natural(&r, re);
        }
        prop_assert_eq!(na.cmp(&nb), a.cmp(&b));
    }

    #[test]
    fn natural_small_and_limb_paths_agree_via_scaling(a in any::<u64>(), b in any::<u64>(), s in 64usize..130) {
        // Scaling is a homomorphism for +, gcd and *: computing on shifted
        // operands forces the limb algorithms, and the result must be the
        // shifted small-path result, bit-identically.
        let (na, nb) = (Natural::from(a), Natural::from(b));
        let (ba, bb) = (&na << s, &nb << s);
        prop_assert_eq!(&ba + &bb, &(&na + &nb) << s);
        prop_assert_eq!(ba.gcd(&bb), &na.gcd(&nb) << s);
        prop_assert_eq!(&ba * &nb, &(&na * &nb) << s);
        if b != 0 {
            let (q_big, r_big) = ba.div_rem(&bb);
            let (q, r) = na.div_rem(&nb);
            prop_assert_eq!(q_big, q);
            prop_assert_eq!(r_big, &r << s);
        }
        prop_assert_eq!(ba.cmp(&bb), na.cmp(&nb));
    }

    #[test]
    fn integer_boundary_ops_are_canonical(a in boundary_i128(), b in boundary_i128()) {
        let (ia, ib) = (Integer::from(a), Integer::from(b));
        assert_canonical_integer(&(&ia + &ib), a + b);
        assert_canonical_integer(&(&ia - &ib), a - b);
        if let Some(p) = a.checked_mul(b) {
            assert_canonical_integer(&(&ia * &ib), p);
        }
        if b != 0 {
            let (q, r) = ia.div_rem(&ib);
            assert_canonical_integer(&q, a / b);
            assert_canonical_integer(&r, a % b);
        }
        assert_canonical_integer(&(-&ia), -a);
        assert_canonical_integer(&ia.abs(), a.abs());
        prop_assert_eq!(ia.cmp(&ib), a.cmp(&b));
    }

    #[test]
    fn word_gcd_divides_by_the_integer_gcd(
        common in prop_oneof![1i128..=12, Just(1i128 << 62), Just(1i128 << 63)],
        parts in proptest::collection::vec(prop_oneof![boundary_i128(), -64i128..=64], 0..6),
    ) {
        // Values with a shared factor, around and past both i64 boundaries
        // (`i64::MIN` and a gcd of exactly 2^63 among them): the word path
        // must either refuse or return the gcd that `Integer::gcd` folds to,
        // and then divide every value exactly, without wrapping.
        let values: Vec<Integer> = parts
            .iter()
            .filter_map(|&part| part.checked_mul(common))
            .map(Integer::from)
            .collect();
        let fold = values.iter().fold(Natural::zero(), |g, v| v.gcd(&Integer::from(g)));
        match Integer::word_gcd(&values) {
            Some(g) => {
                prop_assert_eq!(Natural::from(g.unsigned_abs()), fold.clone());
                prop_assert!(g >= 0);
                if g > 1 {
                    let divisor = Integer::from(g);
                    for v in &values {
                        let word = v.to_i64().expect("a gcd above 1 reads every value");
                        prop_assert_eq!(Integer::from(word / g), v.exact_div(&divisor));
                    }
                }
            }
            None => prop_assert!(
                fold == Natural::from(1u64 << 63) || values.iter().any(|v| v.to_i64().is_none()),
                "the word path refused {:?} with gcd {}", values, fold
            ),
        }
    }

    #[test]
    fn rational_fast_and_big_paths_are_bit_identical(
        an in any::<i64>(), ad in 1..10_000i64,
        bn in any::<i64>(), bd in 1..10_000i64,
    ) {
        // The same values built with machine-word components (fast path
        // eligible) and with hugely scaled, unreduced components (big path
        // only) must produce equal — hence canonically identical — results
        // for every field operation.
        let scale = Natural::from(2u64).pow(90);
        let big = |n: i64, d: i64| {
            Rational::new(
                &Integer::from(n) * &Integer::from(scale.clone()),
                &Natural::from(d.unsigned_abs()) * &scale,
            )
        };
        let (fa, fb) = (Rational::from_i64s(an, ad), Rational::from_i64s(bn, bd));
        let (ba, bb) = (big(an, ad), big(bn, bd));
        prop_assert_eq!(&fa, &ba);
        prop_assert_eq!(&fa + &fb, &ba + &bb);
        prop_assert_eq!(&fa - &fb, &ba - &bb);
        prop_assert_eq!(&fa * &fb, &ba * &bb);
        if bn != 0 {
            prop_assert_eq!(&fa / &fb, &ba / &bb);
        }
        prop_assert_eq!(fa.cmp(&fb), ba.cmp(&bb));
        // Results are reduced regardless of route.
        let sum = &fa + &fb;
        prop_assert!(sum.is_zero() || sum.numer().gcd(&Integer::from(sum.denom().clone())).is_one());
    }

    #[test]
    fn rational_boundary_numerators_survive_overflowing_cross_sums(
        an in boundary_i128(), bn in boundary_i128(), d in 1..=u64::MAX,
    ) {
        // Numerators just outside i64 force the big path; just inside allow
        // the fast path whose cross sums may overflow i128 and fall back.
        // Either way the result must match exact integer arithmetic.
        let (a, b) = (Rational::new(Integer::from(an), Natural::from(d)),
                      Rational::new(Integer::from(bn), Natural::from(d)));
        let sum = &a + &b;
        prop_assert_eq!(sum, Rational::new(Integer::from(an + bn), Natural::from(d)));
        let product = &a * &b;
        prop_assert_eq!(
            product,
            Rational::new(
                &Integer::from(an) * &Integer::from(bn),
                &Natural::from(d) * &Natural::from(d),
            )
        );
    }
}
