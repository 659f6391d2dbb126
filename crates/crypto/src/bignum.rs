//! Fixed-width 2048-bit unsigned integer arithmetic.
//!
//! [`U2048`] stores 32 little-endian `u64` limbs. The crate needs exactly
//! the operations required by discrete-log cryptography over ≤2048-bit
//! moduli: comparison, addition/subtraction with carry, full 4096-bit
//! multiplication, Knuth Algorithm D division (for reduction mod `p` and
//! mod `q`), and modular exponentiation: Montgomery multiplication with
//! a fixed exponent window for odd moduli, a fixed-base comb table, and
//! schoolbook square-and-multiply for even moduli and as the test oracle.

use std::cmp::Ordering;
use std::fmt;

/// Number of 64-bit limbs in a [`U2048`].
pub const LIMBS: usize = 32;

/// A 2048-bit unsigned integer (little-endian limbs).
///
/// # Example
///
/// ```
/// use btd_crypto::bignum::U2048;
///
/// let a = U2048::from_u64(10);
/// let b = U2048::from_u64(3);
/// let m = U2048::from_u64(7);
/// assert_eq!(a.mul_mod(&b, &m), U2048::from_u64(2)); // 30 mod 7
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct U2048 {
    limbs: [u64; LIMBS],
}

impl U2048 {
    /// The value 0.
    pub const ZERO: U2048 = U2048 { limbs: [0; LIMBS] };

    /// The value 1.
    pub const ONE: U2048 = {
        let mut limbs = [0u64; LIMBS];
        limbs[0] = 1;
        U2048 { limbs }
    };

    /// Creates a value from a single `u64`.
    pub const fn from_u64(v: u64) -> Self {
        let mut limbs = [0u64; LIMBS];
        limbs[0] = v;
        U2048 { limbs }
    }

    /// Creates a value from big-endian bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is longer than 256 bytes.
    pub fn from_be_bytes(bytes: &[u8]) -> Self {
        assert!(bytes.len() <= LIMBS * 8, "input exceeds 2048 bits");
        let mut limbs = [0u64; LIMBS];
        for (i, &b) in bytes.iter().rev().enumerate() {
            limbs[i / 8] |= (b as u64) << (8 * (i % 8));
        }
        U2048 { limbs }
    }

    /// The value as 256 big-endian bytes (zero-padded on the left).
    pub fn to_be_bytes(&self) -> [u8; LIMBS * 8] {
        let mut out = [0u8; LIMBS * 8];
        for (i, limb) in self.limbs.iter().enumerate() {
            let be = limb.to_be_bytes();
            let start = (LIMBS - 1 - i) * 8;
            out[start..start + 8].copy_from_slice(&be);
        }
        out
    }

    /// Parses a (case-insensitive) hexadecimal string, ignoring ASCII
    /// whitespace.
    ///
    /// # Panics
    ///
    /// Panics on non-hex characters or input longer than 512 hex digits.
    pub fn from_hex(hex: &str) -> Self {
        let digits: Vec<u8> = hex
            .bytes()
            .filter(|b| !b.is_ascii_whitespace())
            .map(|b| match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                b'A'..=b'F' => b - b'A' + 10,
                _ => panic!("invalid hex digit {:?}", b as char),
            })
            .collect();
        assert!(digits.len() <= LIMBS * 16, "hex input exceeds 2048 bits");
        let mut limbs = [0u64; LIMBS];
        for (i, &d) in digits.iter().rev().enumerate() {
            limbs[i / 16] |= (d as u64) << (4 * (i % 16));
        }
        U2048 { limbs }
    }

    /// Lowercase hex rendering without leading zeros (`"0"` for zero).
    pub fn to_hex(&self) -> String {
        let mut s = String::new();
        let mut started = false;
        for limb in self.limbs.iter().rev() {
            if started {
                s.push_str(&format!("{:016x}", limb));
            } else if *limb != 0 {
                s.push_str(&format!("{:x}", limb));
                started = true;
            }
        }
        if s.is_empty() {
            s.push('0');
        }
        s
    }

    /// The raw limbs, least-significant first.
    pub fn limbs(&self) -> &[u64; LIMBS] {
        &self.limbs
    }

    /// Whether the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|l| *l == 0)
    }

    /// Whether the value is even.
    pub fn is_even(&self) -> bool {
        self.limbs[0] & 1 == 0
    }

    /// Value of bit `i` (little-endian bit order).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 2048`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < LIMBS * 64, "bit index out of range");
        (self.limbs[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Position of the highest set bit plus one (0 for the value zero).
    pub fn bits(&self) -> usize {
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            if *limb != 0 {
                return i * 64 + (64 - limb.leading_zeros() as usize);
            }
        }
        0
    }

    /// `self + other`, returning the sum and the carry-out bit.
    #[allow(clippy::needless_range_loop)] // limb indexing mirrors the maths
    pub fn overflowing_add(&self, other: &U2048) -> (U2048, bool) {
        let mut out = [0u64; LIMBS];
        let mut carry = false;
        for i in 0..LIMBS {
            let (s1, c1) = self.limbs[i].overflowing_add(other.limbs[i]);
            let (s2, c2) = s1.overflowing_add(carry as u64);
            out[i] = s2;
            carry = c1 || c2;
        }
        (U2048 { limbs: out }, carry)
    }

    /// `self - other`, returning the difference and the borrow-out bit.
    #[allow(clippy::needless_range_loop)] // limb indexing mirrors the maths
    pub fn overflowing_sub(&self, other: &U2048) -> (U2048, bool) {
        let mut out = [0u64; LIMBS];
        let mut borrow = false;
        for i in 0..LIMBS {
            let (d1, b1) = self.limbs[i].overflowing_sub(other.limbs[i]);
            let (d2, b2) = d1.overflowing_sub(borrow as u64);
            out[i] = d2;
            borrow = b1 || b2;
        }
        (U2048 { limbs: out }, borrow)
    }

    /// `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`.
    pub fn checked_sub(&self, other: &U2048) -> U2048 {
        let (diff, borrow) = self.overflowing_sub(other);
        assert!(!borrow, "bignum subtraction underflow");
        diff
    }

    /// Full 4096-bit product as 64 little-endian limbs.
    ///
    /// Both loops are bounded by the operands' occupied limbs: residues in
    /// a 512-bit group fill 8 of the 32 limbs, and scanning the zero tail
    /// would quadruple the work of every modular multiply.
    pub fn mul_wide(&self, other: &U2048) -> [u64; LIMBS * 2] {
        let mut out = [0u64; LIMBS * 2];
        let an = trim(&self.limbs).len();
        let bn = trim(&other.limbs).len();
        for i in 0..an {
            if self.limbs[i] == 0 {
                continue;
            }
            let mut carry: u128 = 0;
            for j in 0..bn {
                let cur =
                    out[i + j] as u128 + (self.limbs[i] as u128) * (other.limbs[j] as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            // Row i's carry slot i+bn sits strictly above everything rows
            // 0..i wrote, so plain assignment is exact.
            out[i + bn] = carry as u64;
        }
        out
    }

    /// `(self + other) mod m`. Inputs must already be `< m`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if an input is not reduced.
    pub fn add_mod(&self, other: &U2048, m: &U2048) -> U2048 {
        debug_assert!(self < m && other < m, "add_mod inputs must be reduced");
        let (sum, carry) = self.overflowing_add(other);
        if carry || &sum >= m {
            // carry implies sum+2^2048 >= m, so wrapping subtraction of m is
            // the correct residue in both branches.
            let (r, _) = sum.overflowing_sub(m);
            r
        } else {
            sum
        }
    }

    /// `(self - other) mod m`. Inputs must already be `< m`.
    pub fn sub_mod(&self, other: &U2048, m: &U2048) -> U2048 {
        debug_assert!(self < m && other < m, "sub_mod inputs must be reduced");
        let (diff, borrow) = self.overflowing_sub(other);
        if borrow {
            let (r, _) = diff.overflowing_add(m);
            r
        } else {
            diff
        }
    }

    /// `(self * other) mod m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn mul_mod(&self, other: &U2048, m: &U2048) -> U2048 {
        let wide = self.mul_wide(other);
        rem_wide(&wide, m)
    }

    /// `self mod m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn rem(&self, m: &U2048) -> U2048 {
        let mut wide = [0u64; LIMBS * 2];
        wide[..LIMBS].copy_from_slice(&self.limbs);
        rem_wide(&wide, m)
    }

    /// `self^exp mod m`.
    ///
    /// An odd modulus runs Montgomery multiplication with a fixed
    /// 4-bit exponent window; an even one falls back to schoolbook
    /// square-and-multiply. Both are variable-time.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero. `m == 1` yields zero.
    pub fn pow_mod(&self, exp: &U2048, m: &U2048) -> U2048 {
        match Montgomery::new(m) {
            Some(mont) => mont.pow(self, exp),
            None => self.pow_mod_schoolbook(exp, m),
        }
    }

    /// `self^exp mod m` by left-to-right square-and-multiply with a full
    /// division per step: the path for even moduli and the reference the
    /// Montgomery path is tested against.
    pub(crate) fn pow_mod_schoolbook(&self, exp: &U2048, m: &U2048) -> U2048 {
        assert!(!m.is_zero(), "modulus must be non-zero");
        if m == &U2048::ONE {
            return U2048::ZERO;
        }
        let base = self.rem(m);
        let nbits = exp.bits();
        if nbits == 0 {
            return U2048::ONE;
        }
        let mut acc = U2048::ONE;
        for i in (0..nbits).rev() {
            acc = acc.mul_mod(&acc, m);
            if exp.bit(i) {
                acc = acc.mul_mod(&base, m);
            }
        }
        acc
    }

    /// `self^(-1) mod m` for prime `m`, via Fermat's little theorem.
    ///
    /// # Panics
    ///
    /// Panics if `self` reduces to zero mod `m` (no inverse) or if `m < 2`.
    pub fn inv_mod_prime(&self, m: &U2048) -> U2048 {
        assert!(m > &U2048::ONE, "modulus must exceed 1");
        let reduced = self.rem(m);
        assert!(!reduced.is_zero(), "zero has no modular inverse");
        let exp = m.checked_sub(&U2048::from_u64(2));
        reduced.pow_mod(&exp, m)
    }

    /// Shifts right by one bit.
    #[allow(clippy::needless_range_loop)] // limb indexing mirrors the maths
    pub fn shr1(&self) -> U2048 {
        let mut out = [0u64; LIMBS];
        for i in 0..LIMBS {
            out[i] = self.limbs[i] >> 1;
            if i + 1 < LIMBS {
                out[i] |= self.limbs[i + 1] << 63;
            }
        }
        U2048 { limbs: out }
    }
}

impl Ord for U2048 {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..LIMBS).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for U2048 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Default for U2048 {
    fn default() -> Self {
        U2048::ZERO
    }
}

impl fmt::Debug for U2048 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U2048(0x{})", self.to_hex())
    }
}

impl fmt::Display for U2048 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl From<u64> for U2048 {
    fn from(v: u64) -> Self {
        U2048::from_u64(v)
    }
}

/// Exponent window width in bits for [`Montgomery::pow`] and
/// [`Montgomery::pow2`].
const WINDOW: usize = 4;

/// Montgomery arithmetic modulo an odd `m > 1`.
///
/// With `w` the limb width of the context and `R = 2^(64w)`, a residue `a`
/// is held in Montgomery form `aR mod m` in `w` limbs, and
/// [`Montgomery::mul`] returns `abR⁻¹ mod m` by CIOS (coarsely integrated
/// operand scanning): no division on the hot path. `w` is the modulus's
/// occupied limbs rounded up to 8, 16 or 32 (8 for a 512-bit group, 32 for
/// a 2048-bit one), so the multiply is compiled for a fixed width and its
/// loops unroll. Conversion into the form costs one [`rem_wide`];
/// conversion out is one multiply by 1.
///
/// Every operation is variable-time: the simulation needs correct results,
/// not side-channel resistance.
#[derive(Clone, PartialEq, Eq)]
pub(crate) struct Montgomery {
    m: U2048,
    /// Limbs per residue: 8, 16 or 32.
    width: usize,
    /// `-m⁻¹ mod 2^64`.
    m_inv: u64,
}

impl Montgomery {
    /// The context for `m`, or `None` unless `m` is odd (so invertible
    /// mod `R`) and above 1.
    pub(crate) fn new(m: &U2048) -> Option<Montgomery> {
        if m.is_even() || m == &U2048::ONE {
            return None;
        }
        // Newton–Hensel lifting: each step doubles the correct low bits of
        // the inverse, and `m0` is its own inverse mod 8 (3 bits).
        let m0 = m.limbs[0];
        let mut inv = m0;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        }
        Some(Montgomery {
            m: *m,
            width: trim(&m.limbs).len().next_power_of_two().max(8),
            m_inv: inv.wrapping_neg(),
        })
    }

    /// `xR mod m`, for any `x` (no need to be reduced).
    fn to_mont(&self, x: &U2048) -> U2048 {
        let mut wide = [0u64; LIMBS * 2];
        wide[self.width..self.width + LIMBS].copy_from_slice(&x.limbs);
        rem_wide(&wide, &self.m)
    }

    /// `aR⁻¹ mod m` (Montgomery reduction): converts a residue out of
    /// Montgomery form.
    fn redc(&self, a: &U2048) -> U2048 {
        self.mul(&a.limbs, &U2048::ONE.limbs)
    }

    /// `abR⁻¹ mod m` for `a, b < m`; reads the low `width` limbs of each.
    fn mul(&self, a: &[u64], b: &[u64]) -> U2048 {
        let mut out = U2048::ZERO;
        match self.width {
            8 => mont_mul::<8>(a, b, self, &mut out.limbs),
            16 => mont_mul::<16>(a, b, self, &mut out.limbs),
            _ => mont_mul::<32>(a, b, self, &mut out.limbs),
        }
        out
    }

    /// `a²R⁻¹ mod m`.
    fn square(&self, a: &U2048) -> U2048 {
        self.mul(&a.limbs, &a.limbs)
    }

    /// `[x⁰, x¹, …, x¹⁵]` in Montgomery form, for `x` already in it.
    /// Entry 0 is never read: zero digits skip the multiply.
    fn window_table(&self, x: &U2048) -> [U2048; 1 << WINDOW] {
        let mut table = [U2048::ZERO; 1 << WINDOW];
        table[1] = *x;
        for i in 2..table.len() {
            table[i] = self.mul(&table[i - 1].limbs, &x.limbs);
        }
        table
    }

    /// `base^exp mod m` (normal form in and out) by a fixed 4-bit window.
    pub(crate) fn pow(&self, base: &U2048, exp: &U2048) -> U2048 {
        let table = self.window_table(&self.to_mont(base));
        self.windowed(&[(&table, exp)])
    }

    /// `a^ea · b^eb mod m` (normal form in and out) in one pass: the
    /// squarings are shared and each exponent's window digits multiply in
    /// from its own table (Shamir's trick).
    pub(crate) fn pow2(&self, a: &U2048, ea: &U2048, b: &U2048, eb: &U2048) -> U2048 {
        let ta = self.window_table(&self.to_mont(a));
        let tb = self.window_table(&self.to_mont(b));
        self.windowed(&[(&ta, ea), (&tb, eb)])
    }

    /// Left-to-right fixed-window multi-exponentiation `Π table_i[1]^e_i`,
    /// converted out of Montgomery form; all-zero exponents yield 1.
    fn windowed(&self, terms: &[(&[U2048; 1 << WINDOW], &U2048)]) -> U2048 {
        let digits = terms
            .iter()
            .map(|(_, e)| e.bits().div_ceil(WINDOW))
            .max()
            .unwrap_or(0);
        // `None` until the first nonzero digit: leading squarings of 1 are
        // skipped, and no Montgomery form of 1 is needed.
        let mut acc: Option<U2048> = None;
        for i in (0..digits).rev() {
            if let Some(a) = &mut acc {
                for _ in 0..WINDOW {
                    *a = self.square(a);
                }
            }
            let bit = i * WINDOW;
            for (table, e) in terms {
                let digit = (e.limbs[bit / 64] >> (bit % 64)) as usize & ((1 << WINDOW) - 1);
                if digit != 0 {
                    acc = Some(match acc {
                        None => table[digit],
                        Some(a) => self.mul(&a.limbs, &table[digit].limbs),
                    });
                }
            }
        }
        acc.map_or(U2048::ONE, |a| self.redc(&a))
    }
}

/// Teeth of a [`Comb`]: its table holds `2^COMB_TEETH` entries.
const COMB_TEETH: usize = 8;

/// Fixed-base comb (Lim–Lee) table for `base^e mod m`.
///
/// An exponent of up to `COMB_TEETH · spacing` bits is read as
/// `COMB_TEETH` rows of `spacing` bits. Entry `i` holds
/// `Π_{j ∈ bits(i)} base^(2^(j·spacing))` in Montgomery form, so one column
/// of bits picks one entry, and the whole exponentiation is `spacing`
/// squarings and at most `spacing` multiplies: a quarter of the work of a
/// 4-bit window, paid for by a table built once per base.
#[derive(Clone, PartialEq, Eq)]
pub(crate) struct Comb {
    base: U2048,
    spacing: usize,
    /// `2^COMB_TEETH` entries of `width` limbs each, flattened.
    table: Vec<u64>,
}

impl Comb {
    /// Builds the table for exponents of up to `exp_bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `exp_bits` exceeds 2048.
    pub(crate) fn new(mont: &Montgomery, base: &U2048, exp_bits: usize) -> Comb {
        assert!(exp_bits <= LIMBS * 64, "comb exponent exceeds 2048 bits");
        let spacing = exp_bits.div_ceil(COMB_TEETH).max(1);
        let w = mont.width;
        let mut table = vec![0u64; (1 << COMB_TEETH) * w];
        let mut tooth = mont.to_mont(base);
        for j in 0..COMB_TEETH {
            if j > 0 {
                for _ in 0..spacing {
                    tooth = mont.square(&tooth);
                }
            }
            // Entries [2^j, 2^(j+1)) are tooth j times entries [0, 2^j).
            let top = 1 << j;
            table[top * w..(top + 1) * w].copy_from_slice(&tooth.limbs[..w]);
            for i in top + 1..2 * top {
                let entry = mont.mul(&table[(i - top) * w..], &tooth.limbs);
                table[i * w..(i + 1) * w].copy_from_slice(&entry.limbs[..w]);
            }
        }
        Comb {
            base: *base,
            spacing,
            table,
        }
    }

    /// `base^e mod m` (normal form); an exponent wider than the table
    /// falls back to the windowed [`Montgomery::pow`].
    pub(crate) fn pow(&self, mont: &Montgomery, e: &U2048) -> U2048 {
        if e.bits() > COMB_TEETH * self.spacing {
            return mont.pow(&self.base, e);
        }
        let w = mont.width;
        let mut acc: Option<U2048> = None;
        for col in (0..self.spacing).rev() {
            if let Some(a) = &mut acc {
                *a = mont.square(a);
            }
            let idx = (0..COMB_TEETH).fold(0, |idx, j| {
                idx | (e.bit(j * self.spacing + col) as usize) << j
            });
            if idx != 0 {
                let entry = &self.table[idx * w..(idx + 1) * w];
                acc = Some(match acc {
                    None => {
                        let mut first = U2048::ZERO;
                        first.limbs[..w].copy_from_slice(entry);
                        first
                    }
                    Some(a) => mont.mul(&a.limbs, entry),
                });
            }
        }
        acc.map_or(U2048::ONE, |a| mont.redc(&a))
    }
}

/// CIOS Montgomery multiply at a fixed width `N`: writes `abR⁻¹ mod m`
/// (`R = 2^(64N)`) into `out[..N]`, for `a, b < m` given in their low `N`
/// limbs.
fn mont_mul<const N: usize>(a: &[u64], b: &[u64], ctx: &Montgomery, out: &mut [u64; LIMBS]) {
    let a: &[u64; N] = a.first_chunk().expect("residue narrower than its context");
    let b: &[u64; N] = b.first_chunk().expect("residue narrower than its context");
    let m: &[u64; N] = ctx.m.limbs.first_chunk().expect("width is at most LIMBS");
    // The CIOS accumulator is N+2 limbs: `t`, `hi`, and each row's
    // transient top carry.
    let mut t = [0u64; N];
    let mut hi = 0u64;
    for &ai in a {
        // t += ai * b
        let mut carry = 0u64;
        for (tj, &bj) in t.iter_mut().zip(b) {
            let s = *tj as u128 + ai as u128 * bj as u128 + carry as u128;
            *tj = s as u64;
            carry = (s >> 64) as u64;
        }
        let s = hi as u128 + carry as u128;
        let (top, top_carry) = (s as u64, (s >> 64) as u64);

        // t = (t + u*m) / 2^64, with u chosen so the low limb cancels.
        let u = t[0].wrapping_mul(ctx.m_inv);
        let mut carry = ((t[0] as u128 + u as u128 * m[0] as u128) >> 64) as u64;
        for j in 1..N {
            let s = t[j] as u128 + u as u128 * m[j] as u128 + carry as u128;
            t[j - 1] = s as u64;
            carry = (s >> 64) as u64;
        }
        let s = top as u128 + carry as u128;
        t[N - 1] = s as u64;
        hi = top_carry + (s >> 64) as u64;
    }

    // t < 2m: one conditional subtraction makes it canonical.
    let mut borrow = false;
    for ((o, &tj), &mj) in out.iter_mut().zip(&t).zip(m) {
        let (d1, b1) = tj.overflowing_sub(mj);
        let (d2, b2) = d1.overflowing_sub(borrow as u64);
        *o = d2;
        borrow = b1 || b2;
    }
    if borrow && hi == 0 {
        out[..N].copy_from_slice(&t);
    }
}

/// Reduces a 4096-bit value (64 little-endian limbs) modulo `m`.
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn rem_wide(wide: &[u64; LIMBS * 2], m: &U2048) -> U2048 {
    assert!(!m.is_zero(), "modulus must be non-zero");
    let num = trim(wide);
    let den = trim(&m.limbs);

    // num < den: the remainder is num itself (it fits — trimmed num can be
    // no longer than the trimmed modulus here).
    if cmp_limbs(num, den) == Ordering::Less {
        let mut limbs = [0u64; LIMBS];
        limbs[..num.len()].copy_from_slice(num);
        return U2048 { limbs };
    }

    // Single-limb divisor: schoolbook remainder.
    if den.len() == 1 {
        let d = den[0] as u128;
        let mut r: u128 = 0;
        for i in (0..num.len()).rev() {
            r = ((r << 64) | num[i] as u128) % d;
        }
        return U2048::from_u64(r as u64);
    }

    // Knuth Algorithm D, remainder only, on stack buffers: this sits on
    // the hot path of every modular multiply, so the quotient is never
    // materialised and nothing is heap-allocated.
    //
    // Normalize: shift so the divisor's top limb has its high bit set.
    let n = den.len();
    let shift = den[n - 1].leading_zeros() as usize;
    let mut v = [0u64; LIMBS];
    v[..n].copy_from_slice(den);
    if shift > 0 {
        for i in (1..n).rev() {
            v[i] = (v[i] << shift) | (v[i - 1] >> (64 - shift));
        }
        v[0] <<= shift;
    }

    // u = num << shift; u[num.len()] starts zero, so the top iteration
    // catches the shifted-out spill, and one further limb stays zero for
    // the algorithm's extra high digit.
    let mut u = [0u64; LIMBS * 2 + 2];
    u[..num.len()].copy_from_slice(num);
    if shift > 0 {
        for i in (1..=num.len()).rev() {
            u[i] = (u[i] << shift) | (u[i - 1] >> (64 - shift));
        }
        u[0] <<= shift;
    }
    let sn = if u[num.len()] != 0 {
        num.len() + 1
    } else {
        num.len()
    };

    let v_hi = v[n - 1] as u128;
    let v_next = v[n - 2] as u128;
    for j in (0..=sn - n).rev() {
        // Estimate the quotient digit from the top limbs.
        let top = ((u[j + n] as u128) << 64) | u[j + n - 1] as u128;
        let mut qhat = top / v_hi;
        let mut rhat = top % v_hi;
        while qhat >= 1u128 << 64 || qhat * v_next > ((rhat << 64) | u[j + n - 2] as u128) {
            qhat -= 1;
            rhat += v_hi;
            if rhat >= 1u128 << 64 {
                break;
            }
        }

        // Multiply-and-subtract qhat * v from u[j .. j+n]; the quotient
        // digit itself is discarded.
        let mut borrow: i128 = 0;
        let mut carry: u128 = 0;
        for i in 0..n {
            let p = qhat * v[i] as u128 + carry;
            carry = p >> 64;
            let sub = (u[j + i] as i128) - (p as u64 as i128) - borrow;
            u[j + i] = sub as u64;
            borrow = if sub < 0 { 1 } else { 0 };
        }
        let sub = (u[j + n] as i128) - (carry as i128) - borrow;
        u[j + n] = sub as u64;

        if sub < 0 {
            // Estimate was one too large: add back.
            let mut c: u128 = 0;
            for i in 0..n {
                let s = u[j + i] as u128 + v[i] as u128 + c;
                u[j + i] = s as u64;
                c = s >> 64;
            }
            u[j + n] = u[j + n].wrapping_add(c as u64);
        }
    }

    // The remainder is u[..n] shifted back down.
    let mut limbs = [0u64; LIMBS];
    limbs[..n].copy_from_slice(&u[..n]);
    if shift > 0 {
        for i in 0..n {
            limbs[i] >>= shift;
            if i + 1 < n {
                limbs[i] |= u[i + 1] << (64 - shift);
            }
        }
    }
    U2048 { limbs }
}

/// Strips high zero limbs (returns at least one limb).
fn trim(a: &[u64]) -> &[u64] {
    let mut n = a.len();
    while n > 1 && a[n - 1] == 0 {
        n -= 1;
    }
    &a[..n]
}

/// Compares two little-endian limb slices (any lengths).
fn cmp_limbs(a: &[u64], b: &[u64]) -> Ordering {
    let a = trim(a);
    let b = trim(b);
    match a.len().cmp(&b.len()) {
        Ordering::Equal => {}
        ord => return ord,
    }
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            Ordering::Equal => continue,
            ord => return ord,
        }
    }
    Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(v: u64) -> U2048 {
        U2048::from_u64(v)
    }

    #[test]
    fn hex_roundtrip() {
        let x = U2048::from_hex("deadbeef00112233445566778899aabbccddeeff");
        assert_eq!(x.to_hex(), "deadbeef00112233445566778899aabbccddeeff");
        assert_eq!(U2048::ZERO.to_hex(), "0");
        assert_eq!(U2048::from_hex("0"), U2048::ZERO);
    }

    #[test]
    fn be_bytes_roundtrip() {
        let x = U2048::from_hex("0102030405060708090a0b0c");
        let bytes = x.to_be_bytes();
        assert_eq!(U2048::from_be_bytes(&bytes), x);
        // Short input is left-padded.
        assert_eq!(U2048::from_be_bytes(&[1, 0]), u(256));
    }

    #[test]
    fn ordering_and_bits() {
        assert!(u(5) < u(7));
        let big = U2048::from_hex("1".repeat(512).as_str());
        assert!(big > u(u64::MAX));
        assert_eq!(u(0).bits(), 0);
        assert_eq!(u(1).bits(), 1);
        assert_eq!(u(0x8000_0000_0000_0000).bits(), 64);
        assert_eq!(U2048::from_hex("1 00000000 00000000").bits(), 65);
    }

    #[test]
    fn add_sub_carry_chain() {
        let max64 = u(u64::MAX);
        let (sum, carry) = max64.overflowing_add(&U2048::ONE);
        assert!(!carry);
        assert_eq!(sum.bits(), 65);
        assert_eq!(sum.checked_sub(&U2048::ONE), max64);
    }

    #[test]
    fn full_width_overflow_carries_out() {
        let mut limbs = [u64::MAX; LIMBS];
        limbs[0] = u64::MAX;
        let all_ones = U2048 { limbs };
        let (wrapped, carry) = all_ones.overflowing_add(&U2048::ONE);
        assert!(carry);
        assert!(wrapped.is_zero());
    }

    #[test]
    fn mul_wide_small_values() {
        let p = u(0xFFFF_FFFF).mul_wide(&u(0xFFFF_FFFF));
        assert_eq!(p[0], 0xFFFF_FFFE_0000_0001);
        assert!(p[1..].iter().all(|l| *l == 0));
    }

    #[test]
    fn mul_wide_cross_limb() {
        // (2^64)^2 = 2^128 → limb 2.
        let two64 = U2048::from_hex("1 0000000000000000");
        let p = two64.mul_wide(&two64);
        assert_eq!(p[2], 1);
        assert!(p.iter().enumerate().all(|(i, l)| i == 2 || *l == 0));
    }

    #[test]
    fn rem_and_mul_mod() {
        assert_eq!(u(100).rem(&u(7)), u(2));
        assert_eq!(u(100).mul_mod(&u(100), &u(97)), u(10_000 % 97));
    }

    #[test]
    fn add_mod_wraps() {
        let m = u(97);
        assert_eq!(u(96).add_mod(&u(5), &m), u(4));
        assert_eq!(u(3).sub_mod(&u(5), &m), u(95));
    }

    #[test]
    fn add_mod_handles_carry_out_with_large_modulus() {
        // m just below 2^2048 so a+b overflows the limb array.
        let mut limbs = [u64::MAX; LIMBS];
        limbs[0] = u64::MAX - 10;
        let m = U2048 { limbs };
        let a = m.checked_sub(&U2048::ONE);
        let b = m.checked_sub(&U2048::from_u64(2));
        // (m-1) + (m-2) mod m == m-3
        assert_eq!(a.add_mod(&b, &m), m.checked_sub(&U2048::from_u64(3)));
    }

    #[test]
    fn pow_mod_matches_reference() {
        // 5^117 mod 19 == 1 (order of 5 mod 19 is 9, 117 = 9*13).
        assert_eq!(u(5).pow_mod(&u(117), &u(19)), u(1));
        assert_eq!(u(2).pow_mod(&u(10), &u(1_000_000)), u(1024));
        assert_eq!(u(7).pow_mod(&U2048::ZERO, &u(13)), U2048::ONE);
        assert_eq!(u(7).pow_mod(&u(5), &U2048::ONE), U2048::ZERO);
    }

    #[test]
    fn pow_mod_edge_cases_match_schoolbook() {
        let p = *crate::group::DhGroup::test_512().modulus();
        let exp = U2048::from_hex("f1e2d3c4b5a69788 0123456789abcdef");
        let (p_plus_5, _) = p.overflowing_add(&u(5));
        let cases = [
            (p_plus_5, exp, p),     // base >= m
            (U2048::ZERO, exp, p),  // base 0
            (u(7), U2048::ZERO, p), // exponent 0
            (U2048::ZERO, U2048::ZERO, p),
            (u(7), exp, U2048::ONE), // m = 1
            (u(7), U2048::ZERO, U2048::ONE),
            (u(3), exp, u(1 << 40)), // even modulus
            (u(3), exp, u(1_000_000)),
        ];
        for (base, e, m) in cases {
            assert_eq!(
                base.pow_mod(&e, &m),
                base.pow_mod_schoolbook(&e, &m),
                "{base:?}^{e:?} mod {m:?}"
            );
        }
        assert!(
            Montgomery::new(&u(1_000_000)).is_none(),
            "even moduli take the reference path"
        );
        assert!(Montgomery::new(&U2048::ONE).is_none());
    }

    #[test]
    fn pow_mod_large_modulus() {
        // Fermat: a^(p-1) = 1 mod p for prime p (use the 512-bit test prime).
        let p = U2048::from_hex(
            "e436cc12cc40f7d99dda4196ff7c95e079e89758fb4d1a238d9034267aaaced3\
             cda249dd0ca53cce9ac2dfbfad68b840d02a01837ec075b1dc145ad6bdbb28bf",
        );
        let a = u(123_456_789);
        let exp = p.checked_sub(&U2048::ONE);
        assert_eq!(a.pow_mod(&exp, &p), U2048::ONE);
    }

    #[test]
    fn inverse_mod_prime() {
        let p = u(101);
        for a in [2u64, 3, 50, 100] {
            let inv = u(a).inv_mod_prime(&p);
            assert_eq!(u(a).mul_mod(&inv, &p), U2048::ONE, "a = {a}");
        }
    }

    #[test]
    #[should_panic(expected = "no modular inverse")]
    fn inverse_of_zero_panics() {
        let _ = U2048::ZERO.inv_mod_prime(&u(101));
    }

    #[test]
    fn shr1_halves() {
        assert_eq!(u(10).shr1(), u(5));
        let two64 = U2048::from_hex("1 0000000000000000");
        assert_eq!(two64.shr1(), u(1u64 << 63));
    }

    #[test]
    fn division_reconstruction_small() {
        // Exhaustive-ish check against u128 arithmetic.
        let cases: [(u128, u128); 6] = [
            (12345678901234567890, 97),
            (u128::from(u64::MAX) + 5, u64::MAX as u128),
            (1 << 100, (1 << 50) + 3),
            (999, 1000),
            (1000, 1000),
            (0, 5),
        ];
        for (n, d) in cases {
            let nb = U2048::from_be_bytes(&n.to_be_bytes());
            let db = U2048::from_be_bytes(&d.to_be_bytes());
            let r = nb.rem(&db);
            let expect = U2048::from_be_bytes(&(n % d).to_be_bytes());
            assert_eq!(r, expect, "{} mod {}", n, d);
        }
    }

    #[test]
    fn division_add_back_branch() {
        // A case engineered to hit Knuth D's rare "add back" correction:
        // numerator with a run of high ones against a divisor of the form
        // 2^k - small.
        let n =
            U2048::from_hex("7fffffffffffffff ffffffffffffffff 0000000000000000 0000000000000003");
        let d = U2048::from_hex("8000000000000000 0000000000000001");
        let r = n.rem(&d);
        // Cross-check with an independent route: subtract d*q step by step
        // using mul_mod identity r = n mod d  ⇒  (n - r) mod d == 0.
        let diff = n.checked_sub(&r);
        assert_eq!(diff.rem(&d), U2048::ZERO);
        assert!(r < d);
    }

    #[test]
    fn rem_wide_reduces_product() {
        let a = U2048::from_hex("ffffffffffffffffffffffffffffffff");
        let m = u(1_000_003);
        let wide = a.mul_wide(&a);
        let r = rem_wide(&wide, &m);
        assert!(r < m);
        // (a mod m)^2 mod m must agree.
        let a_red = a.rem(&m);
        assert_eq!(a_red.mul_mod(&a_red, &m), r);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_u2048(max_limbs: usize) -> impl Strategy<Value = U2048> {
        proptest::collection::vec(any::<u64>(), 1..=max_limbs).prop_map(|v| {
            let mut limbs = [0u64; LIMBS];
            limbs[..v.len()].copy_from_slice(&v);
            U2048 { limbs }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Full-width exponents on both shipped groups.
        #[test]
        fn montgomery_pow_mod_matches_schoolbook_on_groups(
            base in arb_u2048(32),
            e512 in arb_u2048(8),
            e2048 in arb_u2048(32),
        ) {
            let p512 = crate::group::DhGroup::test_512().modulus();
            let p2048 = crate::group::DhGroup::modp_2048().modulus();
            prop_assert_eq!(base.pow_mod(&e512, p512), base.pow_mod_schoolbook(&e512, p512));
            prop_assert_eq!(base.pow_mod(&e2048, p2048), base.pow_mod_schoolbook(&e2048, p2048));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn add_then_sub_roundtrips(a in arb_u2048(16), b in arb_u2048(16)) {
            let (sum, carry) = a.overflowing_add(&b);
            prop_assert!(!carry);
            prop_assert_eq!(sum.checked_sub(&b), a);
        }

        #[test]
        fn mul_mod_commutes(a in arb_u2048(8), b in arb_u2048(8), m in arb_u2048(8)) {
            prop_assume!(!m.is_zero());
            prop_assert_eq!(a.mul_mod(&b, &m), b.mul_mod(&a, &m));
        }

        #[test]
        fn rem_is_canonical(a in arb_u2048(16), m in arb_u2048(8)) {
            prop_assume!(!m.is_zero());
            let r = a.rem(&m);
            prop_assert!(r < m);
            // (a - r) divisible by m: check via second reduction.
            let diff = a.checked_sub(&r);
            prop_assert_eq!(diff.rem(&m), U2048::ZERO);
        }

        #[test]
        fn pow_mod_addition_law(a in arb_u2048(2), e1 in any::<u16>(), e2 in any::<u16>(), m in arb_u2048(2)) {
            prop_assume!(m > U2048::ONE);
            let lhs = a.pow_mod(&U2048::from_u64(e1 as u64 + e2 as u64), &m);
            let rhs = a
                .pow_mod(&U2048::from_u64(e1 as u64), &m)
                .mul_mod(&a.pow_mod(&U2048::from_u64(e2 as u64), &m), &m);
            prop_assert_eq!(lhs, rhs);
        }

        #[test]
        fn montgomery_pow_mod_matches_schoolbook(
            base in arb_u2048(32),
            exp in arb_u2048(4),
            m in arb_u2048(32),
        ) {
            let mut m = m;
            m.limbs[0] |= 1;
            prop_assert_eq!(base.pow_mod(&exp, &m), base.pow_mod_schoolbook(&exp, &m));
        }

        #[test]
        fn montgomery_pow2_matches_two_pows(
            a in arb_u2048(32),
            ea in arb_u2048(2),
            b in arb_u2048(32),
            eb in arb_u2048(3),
            m in arb_u2048(32),
        ) {
            let mut m = m;
            m.limbs[0] |= 1;
            prop_assume!(m > U2048::ONE);
            let mont = Montgomery::new(&m).unwrap();
            let expect = a
                .pow_mod_schoolbook(&ea, &m)
                .mul_mod(&b.pow_mod_schoolbook(&eb, &m), &m);
            prop_assert_eq!(mont.pow2(&a, &ea, &b, &eb), expect);
        }

        #[test]
        fn bytes_roundtrip(a in arb_u2048(32)) {
            prop_assert_eq!(U2048::from_be_bytes(&a.to_be_bytes()), a);
        }

        #[test]
        fn hex_roundtrip_prop(a in arb_u2048(32)) {
            prop_assert_eq!(U2048::from_hex(&a.to_hex()), a);
        }
    }
}
