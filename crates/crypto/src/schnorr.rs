//! Schnorr signatures over a prime-order subgroup.
//!
//! Each FLock module "has a unique built-in (public, private) key pair" and
//! signs protocol messages with its private key; web servers do the same
//! (Figs. 9 and 10). Schnorr over a safe-prime group gives those semantics
//! with only the [`crate::bignum`] machinery.
//!
//! Scheme (group `(p, q, g)`, secret `x`, public `y = g^x`):
//!
//! * sign(m): pick `k ∈ [1, q)`, compute `r = g^k`, challenge
//!   `e = H(group ∥ y ∥ r ∥ m) mod q`, response `s = k + x·e mod q`;
//!   signature is `(e, s)`.
//! * verify(m, (e, s)): recompute `r' = g^s · y^(−e) = g^s · (y^e)^(−1)` and
//!   accept iff `H(group ∥ y ∥ r' ∥ m) mod q == e`.

use std::fmt;

use crate::bignum::U2048;
use crate::entropy::EntropySource;
use crate::group::DhGroup;
use crate::sha256::Sha256;

/// A Schnorr public key bound to its group.
#[derive(Clone, PartialEq, Eq)]
pub struct PublicKey {
    group: &'static DhGroup,
    y: U2048,
}

/// A Schnorr key pair.
#[derive(Clone)]
pub struct KeyPair {
    public: PublicKey,
    x: U2048,
}

/// A Schnorr signature `(e, s)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Signature {
    /// Challenge scalar.
    pub e: U2048,
    /// Response scalar.
    pub s: U2048,
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hex = self.y.to_hex();
        write!(
            f,
            "PublicKey({}, y=0x{}…)",
            self.group.name(),
            &hex[..hex.len().min(12)]
        )
    }
}

impl fmt::Debug for KeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KeyPair({:?}, secret: <redacted>)", self.public)
    }
}

impl PublicKey {
    /// Reconstructs a public key from a group element.
    ///
    /// # Panics
    ///
    /// Panics if `y` is not a valid group element.
    pub fn from_element(group: &'static DhGroup, y: U2048) -> Self {
        assert!(group.contains(&y), "public key must be a group element");
        PublicKey { group, y }
    }

    /// The group this key lives in.
    pub fn group(&self) -> &'static DhGroup {
        self.group
    }

    /// The public group element `y = g^x`.
    pub fn element(&self) -> &U2048 {
        &self.y
    }

    /// Canonical byte encoding (big-endian element, fixed 256 bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.y.to_be_bytes().to_vec()
    }

    /// A short fingerprint of the key for logs and audit records.
    pub fn fingerprint(&self) -> String {
        let digest = crate::sha256::sha256(&self.to_bytes());
        digest.to_hex()[..16].to_owned()
    }

    /// Verifies `sig` over `message`.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        let q = self.group.order();
        if sig.e.is_zero() || &sig.e >= q || &sig.s >= q {
            return false;
        }
        // r' = g^s · (y^e)^(−1) = g^s · y^(p−1−e) mod p, since y^(p−1) = 1
        // for every y in [1, p). The exponent q−e would agree only for y in
        // the order-q subgroup, and `from_element` accepts any y in [1, p).
        let p_minus_1 = self.group.modulus().checked_sub(&U2048::ONE);
        let r = self
            .group
            .pow_g_mul_pow(&sig.s, &self.y, &p_minus_1.checked_sub(&sig.e));
        let e2 = challenge(self.group, &self.y, &r, message);
        e2 == sig.e
    }
}

impl KeyPair {
    /// Generates a fresh key pair from `entropy`.
    pub fn generate(group: &'static DhGroup, entropy: &mut dyn EntropySource) -> Self {
        let x = group.random_scalar(entropy);
        let y = group.pow_g(&x);
        KeyPair {
            public: PublicKey { group, y },
            x,
        }
    }

    /// Reconstructs a key pair from a stored secret scalar (identity
    /// transfer moves key material between devices this way).
    ///
    /// # Panics
    ///
    /// Panics if `x` is zero or not below the group order.
    pub fn from_secret(group: &'static DhGroup, x: U2048) -> Self {
        assert!(!x.is_zero() && &x < group.order(), "invalid secret scalar");
        let y = group.pow_g(&x);
        KeyPair {
            public: PublicKey { group, y },
            x,
        }
    }

    /// The public half.
    pub fn public_key(&self) -> &PublicKey {
        &self.public
    }

    /// The secret scalar (exposed so protected storage can persist it; the
    /// simulation's FLock flash is the only intended consumer).
    pub fn secret_scalar(&self) -> &U2048 {
        &self.x
    }

    /// Signs `message`.
    pub fn sign(&self, message: &[u8], entropy: &mut dyn EntropySource) -> Signature {
        let group = self.public.group;
        let q = group.order();
        let k = group.random_scalar(entropy);
        let r = group.pow_g(&k);
        let e = challenge(group, &self.public.y, &r, message);
        // s = k + x*e mod q
        let xe = self.x.mul_mod(&e, q);
        let s = k.rem(q).add_mod(&xe, q);
        Signature { e, s }
    }
}

/// Fiat–Shamir challenge `H(group ∥ y ∥ r ∥ m) mod q`.
fn challenge(group: &DhGroup, y: &U2048, r: &U2048, message: &[u8]) -> U2048 {
    let mut h = Sha256::new();
    h.update_field(group.name().as_bytes());
    h.update_field(&y.to_be_bytes());
    h.update_field(&r.to_be_bytes());
    h.update_field(message);
    let digest = h.finalize();
    let wide = U2048::from_be_bytes(digest.as_bytes());
    let e = wide.rem(group.order());
    if e.is_zero() {
        U2048::ONE
    } else {
        e
    }
}

impl Signature {
    /// Canonical byte encoding (fixed 512 bytes: `e ∥ s`).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(512);
        out.extend_from_slice(&self.e.to_be_bytes());
        out.extend_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Decodes from [`Signature::to_bytes`] output.
    ///
    /// # Errors
    ///
    /// Returns `None` if `bytes` is not exactly 512 bytes.
    pub fn from_bytes(bytes: &[u8]) -> Option<Signature> {
        if bytes.len() != 512 {
            return None;
        }
        Some(Signature {
            e: U2048::from_be_bytes(&bytes[..256]),
            s: U2048::from_be_bytes(&bytes[256..]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entropy::ChaChaEntropy;

    fn keys(seed: u64) -> (KeyPair, ChaChaEntropy) {
        let mut e = ChaChaEntropy::from_u64_seed(seed);
        let kp = KeyPair::generate(DhGroup::test_512(), &mut e);
        (kp, e)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let (kp, mut e) = keys(1);
        let sig = kp.sign(b"hello trust", &mut e);
        assert!(kp.public_key().verify(b"hello trust", &sig));
    }

    #[test]
    fn tampered_message_rejected() {
        let (kp, mut e) = keys(2);
        let sig = kp.sign(b"amount=10", &mut e);
        assert!(!kp.public_key().verify(b"amount=1000", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let (kp1, mut e) = keys(3);
        let kp2 = KeyPair::generate(DhGroup::test_512(), &mut e);
        let sig = kp1.sign(b"msg", &mut e);
        assert!(!kp2.public_key().verify(b"msg", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let (kp, mut e) = keys(4);
        let mut sig = kp.sign(b"msg", &mut e);
        sig.s = sig.s.add_mod(&U2048::ONE, kp.public_key().group().order());
        assert!(!kp.public_key().verify(b"msg", &sig));
    }

    #[test]
    fn out_of_range_scalars_rejected() {
        let (kp, mut e) = keys(5);
        let sig = kp.sign(b"msg", &mut e);
        let big = *kp.public_key().group().order();
        assert!(!kp
            .public_key()
            .verify(b"msg", &Signature { e: big, s: sig.s }));
        assert!(!kp.public_key().verify(
            b"msg",
            &Signature {
                e: U2048::ZERO,
                s: sig.s
            }
        ));
    }

    #[test]
    fn signature_bytes_roundtrip() {
        let (kp, mut e) = keys(6);
        let sig = kp.sign(b"wire", &mut e);
        let bytes = sig.to_bytes();
        assert_eq!(bytes.len(), 512);
        let back = Signature::from_bytes(&bytes).unwrap();
        assert_eq!(back, sig);
        assert!(Signature::from_bytes(&bytes[..100]).is_none());
    }

    #[test]
    fn from_secret_restores_same_identity() {
        let (kp, mut e) = keys(7);
        let restored = KeyPair::from_secret(DhGroup::test_512(), *kp.secret_scalar());
        assert_eq!(restored.public_key(), kp.public_key());
        let sig = restored.sign(b"migrated", &mut e);
        assert!(kp.public_key().verify(b"migrated", &sig));
    }

    #[test]
    fn signatures_are_randomized() {
        let (kp, mut e) = keys(8);
        let s1 = kp.sign(b"m", &mut e);
        let s2 = kp.sign(b"m", &mut e);
        assert_ne!(s1, s2, "fresh k per signature");
        assert!(kp.public_key().verify(b"m", &s1));
        assert!(kp.public_key().verify(b"m", &s2));
    }

    #[test]
    fn public_key_encoding_roundtrip() {
        let (kp, _) = keys(9);
        let bytes = kp.public_key().to_bytes();
        let restored = PublicKey::from_element(DhGroup::test_512(), U2048::from_be_bytes(&bytes));
        assert_eq!(&restored, kp.public_key());
        assert_eq!(restored.fingerprint().len(), 16);
    }

    /// The verify formula before the one-pass exponentiation, kept as the
    /// oracle: `g^s · (y^e)^(−1)`.
    fn verify_reference(key: &PublicKey, message: &[u8], sig: &Signature) -> bool {
        let group = key.group();
        let q = group.order();
        if sig.e.is_zero() || &sig.e >= q || &sig.s >= q {
            return false;
        }
        let g_s = group.pow_g(&sig.s);
        let y_e_inv = group.pow(&key.y, &sig.e).inv_mod_prime(group.modulus());
        let r = group.mul(&g_s, &y_e_inv);
        challenge(group, &key.y, &r, message) == sig.e
    }

    #[test]
    fn verify_matches_reference_outside_the_subgroup() {
        // y = p − 1 has order 2, so y^(−e) = (−1)^e. A "signature" (e, s = k)
        // with r = g^k and e = H(… r …) is accepted by the reference formula
        // exactly when e is even.
        let group = DhGroup::test_512();
        let p = group.modulus();
        let p_minus_1 = p.checked_sub(&U2048::ONE);
        let key = PublicKey::from_element(group, p_minus_1);
        let mut accepted = 0;
        for k in 1..=32u64 {
            let k = U2048::from_u64(k);
            let e = challenge(group, &key.y, &group.pow_g(&k), b"outside");
            let sig = Signature { e, s: k };
            let expect = verify_reference(&key, b"outside", &sig);
            assert_eq!(key.verify(b"outside", &sig), expect, "k = {k:?}");
            assert_eq!(expect, e.is_even(), "k = {k:?}");
            if expect {
                accepted += 1;
                // With the exponent q − e (odd here) the same signature would
                // recompute −g^k and be rejected.
                let q_minus_e = group.order().checked_sub(&e);
                let r_q = group.mul(&group.pow_g(&k), &group.pow(&key.y, &q_minus_e));
                assert_ne!(challenge(group, &key.y, &r_q, b"outside"), e);
            }
        }
        assert!(
            accepted > 0,
            "some signature must exercise the accepting path"
        );

        // In-subgroup keys agree too, on both valid and tampered signatures.
        let (kp, mut entropy) = keys(11);
        let sig = kp.sign(b"inside", &mut entropy);
        let tampered = Signature {
            e: sig.e,
            s: sig.s.add_mod(&U2048::ONE, group.order()),
        };
        for s in [&sig, &tampered] {
            assert_eq!(
                kp.public_key().verify(b"inside", s),
                verify_reference(kp.public_key(), b"inside", s)
            );
        }
    }

    #[test]
    fn works_on_production_group_too() {
        // One (slower) smoke test on the 2048-bit group.
        let mut e = ChaChaEntropy::from_u64_seed(10);
        let kp = KeyPair::generate(DhGroup::modp_2048(), &mut e);
        let sig = kp.sign(b"production", &mut e);
        assert!(kp.public_key().verify(b"production", &sig));
        assert!(!kp.public_key().verify(b"other", &sig));
    }
}
