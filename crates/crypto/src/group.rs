//! Diffie–Hellman groups over safe primes.
//!
//! A [`DhGroup`] carries a safe prime `p`, a generator `g` of the
//! prime-order subgroup of quadratic residues, and the subgroup order
//! `q = (p - 1) / 2`. Two parameter sets ship with the crate:
//!
//! * [`DhGroup::modp_2048`] — the RFC 3526 group 14 modulus, realistic
//!   production parameters;
//! * [`DhGroup::test_512`] — a locally generated 512-bit safe prime so unit
//!   tests and benches run in microseconds rather than milliseconds.

use std::fmt;
use std::sync::OnceLock;

use crate::bignum::{Comb, Montgomery, U2048};
use crate::entropy::EntropySource;

/// RFC 3526 group 14 (2048-bit MODP) modulus.
const MODP_2048_P: &str = "
    FFFFFFFF FFFFFFFF C90FDAA2 2168C234 C4C6628B 80DC1CD1 29024E08 8A67CC74
    020BBEA6 3B139B22 514A0879 8E3404DD EF9519B3 CD3A431B 302B0A6D F25F1437
    4FE1356D 6D51C245 E485B576 625E7EC6 F44C42E9 A637ED6B 0BFF5CB6 F406B7ED
    EE386BFB 5A899FA5 AE9F2411 7C4B1FE6 49286651 ECE45B3D C2007CB8 A163BF05
    98DA4836 1C55D39A 69163FA8 FD24CF5F 83655D23 DCA3AD96 1C62F356 208552BB
    9ED52907 7096966D 670C354E 4ABC9804 F1746C08 CA18217C 32905E46 2E36CE3B
    E39E772C 180E8603 9B2783A2 EC07A28F B5C55DF0 6F4C52C9 DE2BCBF6 95581718
    3995497C EA956AE5 15D22618 98FA0510 15728E5A 8AACAA68 FFFFFFFF FFFFFFFF";

/// Locally generated 512-bit safe prime (seeded, reproducible; see DESIGN.md).
const TEST_512_P: &str = "
    e436cc12cc40f7d99dda4196ff7c95e079e89758fb4d1a238d9034267aaaced3
    cda249dd0ca53cce9ac2dfbfad68b840d02a01837ec075b1dc145ad6bdbb28bf";

/// A safe-prime Diffie–Hellman group.
#[derive(Clone, PartialEq, Eq)]
pub struct DhGroup {
    name: &'static str,
    p: U2048,
    q: U2048,
    g: U2048,
    /// Montgomery context for `p`.
    mont: Montgomery,
    /// Fixed-base table for `g`, covering exponents below `2^bits(p)`.
    comb: Comb,
}

impl fmt::Debug for DhGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DhGroup({}, {} bits)", self.name, self.p.bits())
    }
}

impl DhGroup {
    /// The RFC 3526 2048-bit MODP group (generator 2 squared to 4, which
    /// generates the order-`q` subgroup of quadratic residues).
    pub fn modp_2048() -> &'static DhGroup {
        static GROUP: OnceLock<DhGroup> = OnceLock::new();
        GROUP.get_or_init(|| DhGroup::new("modp-2048", MODP_2048_P))
    }

    /// A 512-bit safe-prime group for fast tests (generator 4).
    pub fn test_512() -> &'static DhGroup {
        static GROUP: OnceLock<DhGroup> = OnceLock::new();
        GROUP.get_or_init(|| DhGroup::new("test-512", TEST_512_P))
    }

    /// The group of the safe prime `p_hex` with generator 4, its Montgomery
    /// context and the comb table for `g`.
    fn new(name: &'static str, p_hex: &str) -> DhGroup {
        let p = U2048::from_hex(p_hex);
        let q = p.checked_sub(&U2048::ONE).shr1();
        let g = U2048::from_u64(4);
        let mont = Montgomery::new(&p).expect("a safe prime is odd");
        let comb = Comb::new(&mont, &g, p.bits());
        DhGroup {
            name,
            p,
            q,
            g,
            mont,
            comb,
        }
    }

    /// Group name (`"modp-2048"` or `"test-512"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The prime modulus `p`.
    pub fn modulus(&self) -> &U2048 {
        &self.p
    }

    /// The subgroup order `q = (p - 1) / 2`.
    pub fn order(&self) -> &U2048 {
        &self.q
    }

    /// The subgroup generator `g`.
    pub fn generator(&self) -> &U2048 {
        &self.g
    }

    /// `g^e mod p`, from the group's fixed-base comb table.
    pub fn pow_g(&self, e: &U2048) -> U2048 {
        self.comb.pow(&self.mont, e)
    }

    /// `base^e mod p`.
    pub fn pow(&self, base: &U2048, e: &U2048) -> U2048 {
        self.mont.pow(base, e)
    }

    /// `g^a · y^b mod p` in one simultaneous exponentiation, for any `y`.
    pub(crate) fn pow_g_mul_pow(&self, a: &U2048, y: &U2048, b: &U2048) -> U2048 {
        self.mont.pow2(&self.g, a, y, b)
    }

    /// Multiplies two group elements mod `p`.
    pub fn mul(&self, a: &U2048, b: &U2048) -> U2048 {
        a.mul_mod(b, &self.p)
    }

    /// Draws a uniformly random scalar in `[1, q)`.
    pub fn random_scalar(&self, entropy: &mut dyn EntropySource) -> U2048 {
        // Rejection-sample 2048-bit candidates masked to the order's bit
        // length; expected < 2 iterations.
        let qbits = self.q.bits();
        let nbytes = qbits.div_ceil(8);
        loop {
            let mut buf = vec![0u8; nbytes];
            entropy.fill(&mut buf);
            // Mask excess high bits.
            let excess = nbytes * 8 - qbits;
            if excess > 0 {
                buf[0] &= 0xFF >> excess;
            }
            let candidate = U2048::from_be_bytes(&buf);
            if !candidate.is_zero() && candidate < self.q {
                return candidate;
            }
        }
    }

    /// Whether `x` is a valid group element in `[1, p)`.
    pub fn contains(&self, x: &U2048) -> bool {
        !x.is_zero() && x < &self.p
    }

    /// Hashes arbitrary bytes to a scalar mod `q` (SHA-256 output reduced).
    pub fn hash_to_scalar(&self, data: &[u8]) -> U2048 {
        let digest = crate::sha256::sha256(data);
        let wide = U2048::from_be_bytes(digest.as_bytes());
        let r = wide.rem(&self.q);
        if r.is_zero() {
            U2048::ONE
        } else {
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entropy::ChaChaEntropy;

    #[test]
    fn modp_2048_has_expected_size() {
        let g = DhGroup::modp_2048();
        assert_eq!(g.modulus().bits(), 2048);
        assert_eq!(g.order().bits(), 2047);
    }

    #[test]
    fn test_512_generator_has_order_q() {
        let g = DhGroup::test_512();
        assert_eq!(g.modulus().bits(), 512);
        // g^q == 1 (g generates the order-q subgroup).
        assert_eq!(g.pow_g(g.order()), U2048::ONE);
        // g^1 != 1.
        assert_ne!(g.pow_g(&U2048::ONE), U2048::ONE);
    }

    #[test]
    fn safe_prime_relation_holds() {
        for g in [DhGroup::test_512(), DhGroup::modp_2048()] {
            // p == 2q + 1
            let (two_q, carry) = g.order().overflowing_add(g.order());
            assert!(!carry);
            let expect = g.modulus().checked_sub(&U2048::ONE);
            assert_eq!(two_q, expect, "p = 2q+1 for {}", g.name());
        }
    }

    #[test]
    fn exponent_laws() {
        let g = DhGroup::test_512();
        let a = U2048::from_u64(12345);
        let b = U2048::from_u64(67890);
        // g^a * g^b == g^(a+b)
        let lhs = g.mul(&g.pow_g(&a), &g.pow_g(&b));
        let (sum, _) = a.overflowing_add(&b);
        assert_eq!(lhs, g.pow_g(&sum));
    }

    #[test]
    fn random_scalars_are_in_range_and_distinct() {
        let g = DhGroup::test_512();
        let mut e = ChaChaEntropy::from_u64_seed(1);
        let mut seen = Vec::new();
        for _ in 0..10 {
            let s = g.random_scalar(&mut e);
            assert!(!s.is_zero());
            assert!(&s < g.order());
            assert!(!seen.contains(&s));
            seen.push(s);
        }
    }

    #[test]
    fn hash_to_scalar_is_reduced_and_deterministic() {
        let g = DhGroup::test_512();
        let s1 = g.hash_to_scalar(b"hello");
        let s2 = g.hash_to_scalar(b"hello");
        assert_eq!(s1, s2);
        assert!(&s1 < g.order());
        assert_ne!(g.hash_to_scalar(b"a"), g.hash_to_scalar(b"b"));
    }

    #[test]
    fn contains_checks_bounds() {
        let g = DhGroup::test_512();
        assert!(!g.contains(&U2048::ZERO));
        assert!(g.contains(&U2048::ONE));
        assert!(!g.contains(g.modulus()));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A value of up to `max_bytes` random big-endian bytes.
    fn arb_value(max_bytes: usize) -> impl Strategy<Value = U2048> {
        proptest::collection::vec(any::<u8>(), 1..=max_bytes).prop_map(|v| U2048::from_be_bytes(&v))
    }

    /// `y` reduced into `[1, p)`: any element `from_element` accepts, in
    /// or out of the order-`q` subgroup.
    fn element(group: &DhGroup, y: &U2048) -> U2048 {
        let y = y.rem(group.modulus());
        if y.is_zero() {
            U2048::ONE
        } else {
            y
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Exponents up to 1024 bits: the comb covers those below 2^512
        /// and the rest take the windowed fallback.
        #[test]
        fn comb_pow_g_matches_schoolbook(e in arb_value(128)) {
            let group = DhGroup::test_512();
            let expect = group.generator().pow_mod_schoolbook(&e, group.modulus());
            prop_assert_eq!(group.pow_g(&e), expect);
        }

        #[test]
        fn shamir_matches_pow_g_times_pow(a in arb_value(64), y in arb_value(64), b in arb_value(64)) {
            let group = DhGroup::test_512();
            let y = element(group, &y);
            let expect = group.mul(&group.pow_g(&a), &group.pow(&y, &b));
            prop_assert_eq!(group.pow_g_mul_pow(&a, &y, &b), expect);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        #[test]
        fn modp_2048_comb_and_shamir_match_schoolbook(a in arb_value(256), y in arb_value(256), b in arb_value(256)) {
            let group = DhGroup::modp_2048();
            let p = group.modulus();
            let y = element(group, &y);
            let g_a = group.pow_g(&a);
            prop_assert_eq!(g_a, group.generator().pow_mod_schoolbook(&a, p));
            let expect = group.mul(&g_a, &y.pow_mod_schoolbook(&b, p));
            prop_assert_eq!(group.pow_g_mul_pow(&a, &y, &b), expect);
        }
    }
}
