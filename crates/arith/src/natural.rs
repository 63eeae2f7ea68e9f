//! Arbitrary-precision natural numbers (unsigned integers).
//!
//! [`Natural`] is a **hybrid** representation: values that fit a machine word
//! are stored inline (no heap allocation), and only values above `u64::MAX`
//! promote to little-endian 64-bit limbs. The representation is canonical —
//! the limb form is used *only* for values of at least two limbs — so the
//! derived equality and hashing are value equality, and every constructor
//! re-normalises. All arithmetic is exact; subtraction of a larger number
//! from a smaller one is reported through [`Natural::checked_sub`] returning
//! `None` (the `Sub` operator panics, mirroring the standard library
//! behaviour for unsigned overflow).
//!
//! The small path covers the quantities the bag-containment pipeline
//! manipulates most of the time (Equation-2 multiplicities, MPI coefficients,
//! simplex pivots); the big path favours clarity and correctness over raw
//! speed: schoolbook multiplication and Knuth's Algorithm D for division
//! (run over 32-bit half-limbs so all intermediate quotient estimates fit in
//! `u64`).

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Rem, Shl, Shr, Sub, SubAssign};
use core::str::FromStr;

/// The internal representation. Invariant (canonical form): `Big` is used
/// only for values that do **not** fit in a `u64`, i.e. with at least two
/// little-endian limbs and no trailing zero limb. This makes the derived
/// `PartialEq`/`Hash` agree with value equality.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// A value `<= u64::MAX`, stored inline.
    Small(u64),
    /// A value `> u64::MAX`: little-endian limbs, `len() >= 2`, no trailing
    /// zero limb.
    Big(Vec<u64>),
}

/// An arbitrary-precision natural number (non-negative integer).
///
/// # Examples
///
/// ```
/// use dioph_arith::Natural;
///
/// let a = Natural::from(10u64).pow(30);
/// let b = Natural::from(2u64).pow(64);
/// assert!(a > b);
/// assert_eq!(&(&a * &b) / &b, a);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Natural(Repr);

impl Default for Natural {
    fn default() -> Self {
        Natural::zero()
    }
}

impl Natural {
    /// The natural number zero.
    pub const fn zero() -> Self {
        Natural(Repr::Small(0))
    }

    /// The natural number one.
    pub const fn one() -> Self {
        Natural(Repr::Small(1))
    }

    /// Builds a natural from little-endian limbs, normalising trailing zeros
    /// (and demoting to the inline form when the value fits a word).
    pub fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        match limbs.len() {
            0 => Natural(Repr::Small(0)),
            1 => Natural(Repr::Small(limbs[0])),
            _ => Natural(Repr::Big(limbs)),
        }
    }

    /// Returns the little-endian limb slice (no trailing zeros; empty for 0).
    pub fn limbs(&self) -> &[u64] {
        match &self.0 {
            Repr::Small(0) => &[],
            Repr::Small(v) => core::slice::from_ref(v),
            Repr::Big(limbs) => limbs,
        }
    }

    /// The inline value, if this natural is on the small path.
    fn small(&self) -> Option<u64> {
        match self.0 {
            Repr::Small(v) => Some(v),
            Repr::Big(_) => None,
        }
    }

    /// `true` iff this number is zero.
    pub fn is_zero(&self) -> bool {
        matches!(self.0, Repr::Small(0))
    }

    /// `true` iff this number is one.
    pub fn is_one(&self) -> bool {
        matches!(self.0, Repr::Small(1))
    }

    /// Number of significant bits (zero has zero bits).
    pub fn bit_len(&self) -> usize {
        let limbs = self.limbs();
        match limbs.last() {
            None => 0,
            Some(&top) => (limbs.len() - 1) * 64 + (64 - top.leading_zeros() as usize),
        }
    }

    /// Returns bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        let off = i % 64;
        self.limbs().get(limb).is_some_and(|&l| (l >> off) & 1 == 1)
    }

    /// `true` iff the value is even.
    fn is_even(&self) -> bool {
        self.limbs().first().is_none_or(|&l| l & 1 == 0)
    }

    /// Converts to `u64` if the value fits (always on the small path, by the
    /// canonical-representation invariant).
    pub fn to_u64(&self) -> Option<u64> {
        self.small()
    }

    /// Approximate conversion to `f64` (may lose precision, saturates to
    /// `f64::INFINITY` for huge values). Useful only for reporting.
    pub fn to_f64_lossy(&self) -> f64 {
        let mut acc = 0.0f64;
        for &limb in self.limbs().iter().rev() {
            acc = acc * 1.8446744073709552e19 + limb as f64;
        }
        acc
    }

    /// Builds the canonical form of a 128-bit value.
    fn from_u128_value(v: u128) -> Natural {
        if v <= u64::MAX as u128 {
            Natural(Repr::Small(v as u64))
        } else {
            Natural(Repr::Big(vec![v as u64, (v >> 64) as u64]))
        }
    }

    /// Addition producing a new value.
    fn add_impl(a: &[u64], b: &[u64]) -> Vec<u64> {
        let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &x) in long.iter().enumerate() {
            let y = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = x.overflowing_add(y);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        out
    }

    /// Subtraction `a - b`; returns `None` if `b > a`.
    pub fn checked_sub(&self, other: &Natural) -> Option<Natural> {
        if let (Some(a), Some(b)) = (self.small(), other.small()) {
            return a.checked_sub(b).map(|d| Natural(Repr::Small(d)));
        }
        if self < other {
            return None;
        }
        let a = self.limbs();
        let b = other.limbs();
        let mut out = Vec::with_capacity(a.len());
        let mut borrow = 0u64;
        for (i, &x) in a.iter().enumerate() {
            let y = b.get(i).copied().unwrap_or(0);
            let (d1, b1) = x.overflowing_sub(y);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        Some(Natural::from_limbs(out))
    }

    /// Schoolbook multiplication.
    fn mul_impl(a: &[u64], b: &[u64]) -> Vec<u64> {
        if a.is_empty() || b.is_empty() {
            return Vec::new();
        }
        let mut out = vec![0u64; a.len() + b.len()];
        for (i, &x) in a.iter().enumerate() {
            if x == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &y) in b.iter().enumerate() {
                let cur = out[i + j] as u128 + (x as u128) * (y as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + b.len();
            while carry != 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        out
    }

    /// Multiplies by a single `u64` in place.
    fn mul_assign_u64(&mut self, m: u64) {
        match &mut self.0 {
            Repr::Small(v) => {
                let wide = (*v as u128) * (m as u128);
                *self = Natural::from_u128_value(wide);
            }
            Repr::Big(limbs) => {
                if m == 0 {
                    *self = Natural::zero();
                    return;
                }
                let mut carry = 0u128;
                for limb in limbs.iter_mut() {
                    let cur = (*limb as u128) * (m as u128) + carry;
                    *limb = cur as u64;
                    carry = cur >> 64;
                }
                if carry != 0 {
                    limbs.push(carry as u64);
                }
            }
        }
    }

    /// Adds a single `u64` in place.
    pub fn add_assign_u64(&mut self, a: u64) {
        match &mut self.0 {
            Repr::Small(v) => {
                let wide = (*v as u128) + (a as u128);
                *self = Natural::from_u128_value(wide);
            }
            Repr::Big(limbs) => {
                let mut carry = a;
                let mut i = 0;
                while carry != 0 {
                    if i == limbs.len() {
                        limbs.push(carry);
                        return;
                    }
                    let (s, c) = limbs[i].overflowing_add(carry);
                    limbs[i] = s;
                    carry = c as u64;
                    i += 1;
                }
            }
        }
    }

    /// Divides by a single non-zero `u64`, returning `(quotient, remainder)`.
    fn div_rem_u64(&self, d: u64) -> (Natural, u64) {
        assert!(d != 0, "division by zero");
        if let Some(v) = self.small() {
            return (Natural(Repr::Small(v / d)), v % d);
        }
        let limbs = self.limbs();
        let mut out = vec![0u64; limbs.len()];
        let mut rem = 0u128;
        for i in (0..limbs.len()).rev() {
            let cur = (rem << 64) | limbs[i] as u128;
            out[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        (Natural::from_limbs(out), rem as u64)
    }

    /// Euclidean division: returns `(quotient, remainder)` with
    /// `self = quotient * divisor + remainder` and `remainder < divisor`.
    ///
    /// # Panics
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &Natural) -> (Natural, Natural) {
        assert!(!divisor.is_zero(), "division by zero");
        if let (Some(a), Some(b)) = (self.small(), divisor.small()) {
            return (Natural(Repr::Small(a / b)), Natural(Repr::Small(a % b)));
        }
        if self < divisor {
            return (Natural::zero(), self.clone());
        }
        if let Some(d) = divisor.small() {
            let (q, r) = self.div_rem_u64(d);
            return (q, Natural::from(r));
        }
        // Knuth Algorithm D over 32-bit half-limbs so quotient estimation
        // fits comfortably in u64 arithmetic.
        let u = to_half_limbs(self.limbs());
        let v = to_half_limbs(divisor.limbs());
        let (q32, r32) = knuth_div(&u, &v);
        (Natural::from_limbs(from_half_limbs(&q32)), Natural::from_limbs(from_half_limbs(&r32)))
    }

    /// Exponentiation by squaring.
    pub fn pow(&self, mut exp: u64) -> Natural {
        let mut base = self.clone();
        let mut acc = Natural::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            exp >>= 1;
            if exp > 0 {
                base = &base * &base;
            }
        }
        acc
    }

    /// Greatest common divisor (binary GCD; `gcd(0, x) = x`).
    pub fn gcd(&self, other: &Natural) -> Natural {
        if let (Some(a), Some(b)) = (self.small(), other.small()) {
            return Natural(Repr::Small(gcd_u64(a, b)));
        }
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let shift_a = a.trailing_zeros();
        let shift_b = b.trailing_zeros();
        let shift = shift_a.min(shift_b);
        a = &a >> shift_a;
        b = &b >> shift_b;
        loop {
            // Once both operands have shed their high limbs, finish on the
            // machine-word path instead of looping limb subtractions.
            if let (Some(sa), Some(sb)) = (a.small(), b.small()) {
                return &Natural(Repr::Small(gcd_u64(sa, sb))) << shift;
            }
            debug_assert!(!a.is_even() && !b.is_even());
            if a > b {
                core::mem::swap(&mut a, &mut b);
            }
            b = b.checked_sub(&a).expect("b >= a by construction");
            if b.is_zero() {
                return &a << shift;
            }
            b = &b >> b.trailing_zeros();
        }
    }

    /// Least common multiple; `lcm(0, x) = 0`.
    pub fn lcm(&self, other: &Natural) -> Natural {
        if self.is_zero() || other.is_zero() {
            return Natural::zero();
        }
        let g = self.gcd(other);
        &(self / &g) * other
    }

    /// Number of trailing zero bits (zero input returns 0).
    fn trailing_zeros(&self) -> usize {
        for (i, &limb) in self.limbs().iter().enumerate() {
            if limb != 0 {
                return i * 64 + limb.trailing_zeros() as usize;
            }
        }
        0
    }

    /// Parses a decimal string (optionally with `_` separators).
    pub fn from_decimal_str(s: &str) -> Result<Natural, ParseNaturalError> {
        let s = s.trim();
        if s.is_empty() {
            return Err(ParseNaturalError::Empty);
        }
        let mut out = Natural::zero();
        let mut seen = false;
        for ch in s.chars() {
            if ch == '_' {
                continue;
            }
            let d = ch.to_digit(10).ok_or(ParseNaturalError::InvalidDigit(ch))? as u64;
            out.mul_assign_u64(10);
            out.add_assign_u64(d);
            seen = true;
        }
        if !seen {
            return Err(ParseNaturalError::Empty);
        }
        Ok(out)
    }

    /// Renders the value as a decimal string.
    pub fn to_decimal_string(&self) -> String {
        if let Some(v) = self.small() {
            return v.to_string();
        }
        // Peel 19 decimal digits at a time (10^19 fits in u64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut chunks = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_u64(CHUNK);
            chunks.push(r);
            cur = q;
        }
        let mut out = String::new();
        for (i, chunk) in chunks.iter().rev().enumerate() {
            if i == 0 {
                out.push_str(&chunk.to_string());
            } else {
                out.push_str(&format!("{chunk:019}"));
            }
        }
        out
    }
}

/// Binary GCD on machine words (`gcd(0, x) = x`); shared with
/// [`crate::Integer::gcd`]'s small path.
pub(crate) fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            core::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// Error produced when parsing a [`Natural`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseNaturalError {
    /// The input contained no digits.
    Empty,
    /// The input contained a non-decimal-digit character.
    InvalidDigit(char),
}

impl fmt::Display for ParseNaturalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseNaturalError::Empty => write!(f, "empty natural-number literal"),
            ParseNaturalError::InvalidDigit(c) => {
                write!(f, "invalid digit {c:?} in natural-number literal")
            }
        }
    }
}

impl std::error::Error for ParseNaturalError {}

fn to_half_limbs(limbs: &[u64]) -> Vec<u32> {
    let mut out = Vec::with_capacity(limbs.len() * 2);
    for &l in limbs {
        out.push(l as u32);
        out.push((l >> 32) as u32);
    }
    while out.last() == Some(&0) {
        out.pop();
    }
    out
}

fn from_half_limbs(half: &[u32]) -> Vec<u64> {
    let mut out = Vec::with_capacity(half.len().div_ceil(2));
    let mut i = 0;
    while i < half.len() {
        let lo = half[i] as u64;
        let hi = half.get(i + 1).copied().unwrap_or(0) as u64;
        out.push(lo | (hi << 32));
        i += 2;
    }
    out
}

/// Knuth Algorithm D on 32-bit digits. Requires `v.len() >= 2` and `u >= v`
/// element-wise comparison not required (handled by the caller for the
/// single-digit and `u < v` cases). Returns `(quotient, remainder)` as
/// normalised half-limb vectors.
fn knuth_div(u: &[u32], v: &[u32]) -> (Vec<u32>, Vec<u32>) {
    const BASE: u64 = 1 << 32;
    let n = v.len();
    let m = u.len() - n;
    debug_assert!(n >= 2);

    // D1: normalise so the top digit of v is >= BASE/2.
    let shift = v[n - 1].leading_zeros();
    let vn = shl_digits(v, shift);
    let mut un = shl_digits(u, shift);
    un.resize(u.len() + 1, 0); // extra top digit

    let mut q = vec![0u32; m + 1];

    // D2..D7 main loop.
    for j in (0..=m).rev() {
        // D3: estimate q_hat.
        let top = (un[j + n] as u64) * BASE + un[j + n - 1] as u64;
        let mut q_hat = top / vn[n - 1] as u64;
        let mut r_hat = top % vn[n - 1] as u64;
        while q_hat >= BASE || q_hat * vn[n - 2] as u64 > r_hat * BASE + un[j + n - 2] as u64 {
            q_hat -= 1;
            r_hat += vn[n - 1] as u64;
            if r_hat >= BASE {
                break;
            }
        }
        // D4: multiply and subtract.
        let mut borrow: i64 = 0;
        let mut carry: u64 = 0;
        for i in 0..n {
            let p = q_hat * vn[i] as u64 + carry;
            carry = p >> 32;
            let sub = (un[i + j] as i64) - ((p & 0xFFFF_FFFF) as i64) + borrow;
            un[i + j] = sub as u32;
            borrow = sub >> 32;
        }
        let sub = (un[j + n] as i64) - (carry as i64) + borrow;
        un[j + n] = sub as u32;
        borrow = sub >> 32;

        // D5/D6: if we subtracted too much, add back.
        if borrow < 0 {
            q_hat -= 1;
            let mut carry = 0u64;
            for i in 0..n {
                let s = un[i + j] as u64 + vn[i] as u64 + carry;
                un[i + j] = s as u32;
                carry = s >> 32;
            }
            un[j + n] = (un[j + n] as u64).wrapping_add(carry) as u32;
        }
        q[j] = q_hat as u32;
    }

    // D8: denormalise remainder.
    let rem = shr_digits(&un[..n], shift);
    let mut q_norm = q;
    while q_norm.last() == Some(&0) {
        q_norm.pop();
    }
    (q_norm, rem)
}

fn shl_digits(d: &[u32], shift: u32) -> Vec<u32> {
    if shift == 0 {
        return d.to_vec();
    }
    let mut out = Vec::with_capacity(d.len() + 1);
    let mut carry = 0u32;
    for &x in d {
        out.push((x << shift) | carry);
        carry = x >> (32 - shift);
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

fn shr_digits(d: &[u32], shift: u32) -> Vec<u32> {
    let mut out = vec![0u32; d.len()];
    if shift == 0 {
        out.copy_from_slice(d);
    } else {
        for i in 0..d.len() {
            let hi = if i + 1 < d.len() { d[i + 1] << (32 - shift) } else { 0 };
            out[i] = (d[i] >> shift) | hi;
        }
    }
    while out.last() == Some(&0) {
        out.pop();
    }
    out
}

// ---------------------------------------------------------------------------
// Conversions
// ---------------------------------------------------------------------------

macro_rules! impl_from_unsigned {
    ($($t:ty),*) => {
        $(impl From<$t> for Natural {
            fn from(v: $t) -> Self {
                Natural(Repr::Small(v as u64))
            }
        })*
    };
}

impl_from_unsigned!(u8, u16, u32, u64);

impl From<usize> for Natural {
    fn from(v: usize) -> Self {
        Natural(Repr::Small(v as u64))
    }
}

impl From<u128> for Natural {
    fn from(v: u128) -> Self {
        Natural::from_u128_value(v)
    }
}

impl FromStr for Natural {
    type Err = ParseNaturalError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Natural::from_decimal_str(s)
    }
}

// ---------------------------------------------------------------------------
// Ordering and formatting
// ---------------------------------------------------------------------------

impl Ord for Natural {
    fn cmp(&self, other: &Self) -> Ordering {
        match (&self.0, &other.0) {
            (Repr::Small(a), Repr::Small(b)) => a.cmp(b),
            // Canonical form: Big is always at least two limbs, i.e. > u64.
            (Repr::Small(_), Repr::Big(_)) => Ordering::Less,
            (Repr::Big(_), Repr::Small(_)) => Ordering::Greater,
            (Repr::Big(a), Repr::Big(b)) => match a.len().cmp(&b.len()) {
                Ordering::Equal => {
                    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
                        match x.cmp(y) {
                            Ordering::Equal => continue,
                            ord => return ord,
                        }
                    }
                    Ordering::Equal
                }
                ord => ord,
            },
        }
    }
}

impl PartialOrd for Natural {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Natural {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad_integral(true, "", &self.to_decimal_string())
    }
}

impl fmt::Debug for Natural {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Natural({})", self.to_decimal_string())
    }
}

// ---------------------------------------------------------------------------
// Operator implementations (owned and borrowed forms)
// ---------------------------------------------------------------------------

impl Add for &Natural {
    type Output = Natural;
    fn add(self, rhs: &Natural) -> Natural {
        if let (Some(a), Some(b)) = (self.small(), rhs.small()) {
            // u64 + u64 always fits u128; promotion happens on demand.
            return Natural::from_u128_value(a as u128 + b as u128);
        }
        Natural::from_limbs(Natural::add_impl(self.limbs(), rhs.limbs()))
    }
}

impl Add for Natural {
    type Output = Natural;
    fn add(self, rhs: Natural) -> Natural {
        &self + &rhs
    }
}

impl AddAssign<&Natural> for Natural {
    fn add_assign(&mut self, rhs: &Natural) {
        *self = &*self + rhs;
    }
}

impl AddAssign for Natural {
    fn add_assign(&mut self, rhs: Natural) {
        *self += &rhs;
    }
}

impl Sub for &Natural {
    type Output = Natural;
    fn sub(self, rhs: &Natural) -> Natural {
        self.checked_sub(rhs).expect("Natural subtraction underflow")
    }
}

impl Sub for Natural {
    type Output = Natural;
    fn sub(self, rhs: Natural) -> Natural {
        &self - &rhs
    }
}

impl SubAssign<&Natural> for Natural {
    fn sub_assign(&mut self, rhs: &Natural) {
        *self = &*self - rhs;
    }
}

impl Mul for &Natural {
    type Output = Natural;
    fn mul(self, rhs: &Natural) -> Natural {
        if let (Some(a), Some(b)) = (self.small(), rhs.small()) {
            // u64 × u64 always fits u128; promotion happens on demand.
            return Natural::from_u128_value(a as u128 * b as u128);
        }
        Natural::from_limbs(Natural::mul_impl(self.limbs(), rhs.limbs()))
    }
}

impl Mul for Natural {
    type Output = Natural;
    fn mul(self, rhs: Natural) -> Natural {
        &self * &rhs
    }
}

impl MulAssign<&Natural> for Natural {
    fn mul_assign(&mut self, rhs: &Natural) {
        *self = &*self * rhs;
    }
}

impl Div for &Natural {
    type Output = Natural;
    fn div(self, rhs: &Natural) -> Natural {
        self.div_rem(rhs).0
    }
}

impl Div for Natural {
    type Output = Natural;
    fn div(self, rhs: Natural) -> Natural {
        &self / &rhs
    }
}

impl Rem for &Natural {
    type Output = Natural;
    fn rem(self, rhs: &Natural) -> Natural {
        self.div_rem(rhs).1
    }
}

impl Rem for Natural {
    type Output = Natural;
    fn rem(self, rhs: Natural) -> Natural {
        &self % &rhs
    }
}

impl Shl<usize> for &Natural {
    type Output = Natural;
    fn shl(self, shift: usize) -> Natural {
        if self.is_zero() || shift == 0 {
            return self.clone();
        }
        if let Some(v) = self.small() {
            if shift < 64 && (v >> (64 - shift)) == 0 {
                return Natural(Repr::Small(v << shift));
            }
        }
        self.shl_general(shift)
    }
}

impl Natural {
    /// Limb-level left shift (the general path of `<<`).
    fn shl_general(&self, shift: usize) -> Natural {
        if shift == 0 {
            return self.clone();
        }
        let limb_shift = shift / 64;
        let bit_shift = shift % 64;
        let src = self.limbs();
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            let mut carry = 0u64;
            for &l in src {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        Natural::from_limbs(out)
    }
}

impl Shr<usize> for &Natural {
    type Output = Natural;
    fn shr(self, shift: usize) -> Natural {
        if let Some(v) = self.small() {
            return Natural(Repr::Small(if shift >= 64 { 0 } else { v >> shift }));
        }
        let limbs = self.limbs();
        let limb_shift = shift / 64;
        if limb_shift >= limbs.len() {
            return Natural::zero();
        }
        let bit_shift = shift % 64;
        let src = &limbs[limb_shift..];
        let mut out = vec![0u64; src.len()];
        if bit_shift == 0 {
            out.copy_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = if i + 1 < src.len() { src[i + 1] << (64 - bit_shift) } else { 0 };
                out[i] = (src[i] >> bit_shift) | hi;
            }
        }
        Natural::from_limbs(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nat(v: u128) -> Natural {
        Natural::from(v)
    }

    #[test]
    fn zero_and_one_are_canonical() {
        assert!(Natural::zero().is_zero());
        assert!(Natural::one().is_one());
        assert_eq!(Natural::from(0u64), Natural::zero());
        assert_eq!(Natural::from_limbs(vec![0, 0, 0]), Natural::zero());
        assert_eq!(Natural::from_limbs(vec![1, 0, 0]), Natural::one());
    }

    #[test]
    fn canonical_representation_across_the_boundary() {
        // One-limb values constructed through the limb door must compare and
        // hash equal to the inline form.
        for v in [0u64, 1, 42, u64::MAX] {
            assert_eq!(Natural::from_limbs(vec![v]), Natural::from(v));
            assert_eq!(Natural::from_limbs(vec![v, 0, 0]), Natural::from(v));
        }
        // Values just over the boundary must be on the limb path (two limbs).
        let big = nat(u64::MAX as u128 + 1);
        assert_eq!(big.limbs().len(), 2);
        assert_eq!(big.to_u64(), None);
        // Arithmetic that shrinks a value back under the boundary demotes it.
        let shrunk = &big - &nat(1);
        assert_eq!(shrunk.limbs().len(), 1);
        assert_eq!(shrunk.to_u64(), Some(u64::MAX));
        assert_eq!(shrunk, nat(u64::MAX as u128));
    }

    #[test]
    fn addition_matches_u128() {
        let cases = [
            (0u128, 0u128),
            (1, 1),
            (u64::MAX as u128, 1),
            (u64::MAX as u128, u64::MAX as u128),
            (1 << 100, 1 << 99),
        ];
        for (a, b) in cases {
            assert_eq!(&nat(a) + &nat(b), nat(a + b), "{a} + {b}");
        }
    }

    #[test]
    fn subtraction_matches_u128() {
        let cases =
            [(5u128, 3u128), (u64::MAX as u128 + 5, 6), (1 << 100, 1), ((1 << 100) + 7, 1 << 100)];
        for (a, b) in cases {
            assert_eq!(&nat(a) - &nat(b), nat(a - b), "{a} - {b}");
        }
        assert_eq!(nat(3).checked_sub(&nat(5)), None);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        let _ = &nat(1) - &nat(2);
    }

    #[test]
    fn multiplication_matches_u128() {
        let cases = [
            (0u128, 17u128),
            (1, 1),
            (u64::MAX as u128, u64::MAX as u128),
            (123456789, 987654321),
            (1 << 63, 1 << 63),
        ];
        for (a, b) in cases {
            assert_eq!(&nat(a) * &nat(b), nat(a * b), "{a} * {b}");
        }
    }

    #[test]
    fn large_multiplication_and_division_roundtrip() {
        let a = Natural::from(123_456_789_012_345_678_901_234_567_890u128);
        let b = Natural::from(987_654_321_098_765_432_109_876_543_210u128);
        let prod = &a * &b;
        let (q, r) = prod.div_rem(&b);
        assert_eq!(q, a);
        assert!(r.is_zero());
        let prod_plus = &prod + &Natural::from(42u64);
        let (q2, r2) = prod_plus.div_rem(&b);
        assert_eq!(q2, a);
        assert_eq!(r2, Natural::from(42u64));
    }

    #[test]
    fn division_by_single_limb() {
        let a = Natural::from(1_000_000_000_000_000_000_000_000u128);
        let (q, r) = a.div_rem(&Natural::from(7u64));
        assert_eq!(&(&q * &Natural::from(7u64)) + &r, a);
        assert!(r < Natural::from(7u64));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = nat(5).div_rem(&Natural::zero());
    }

    #[test]
    fn division_smaller_than_divisor() {
        let (q, r) = nat(5).div_rem(&nat(100));
        assert!(q.is_zero());
        assert_eq!(r, nat(5));
    }

    #[test]
    fn knuth_division_add_back_case() {
        // Construct a case known to trigger the D6 add-back branch:
        // u = BASE^2 * (BASE - 1), v = BASE^2 - 1 over 32-bit digits.
        let base = Natural::from(1u128 << 32);
        let u = &base.pow(2) * &(&base - &Natural::one());
        let v = &base.pow(2) - &Natural::one();
        let (q, r) = u.div_rem(&v);
        assert_eq!(&(&q * &v) + &r, u);
        assert!(r < v);
    }

    #[test]
    fn pow_matches_u128() {
        assert_eq!(nat(2).pow(10), nat(1024));
        assert_eq!(nat(3).pow(0), nat(1));
        assert_eq!(nat(0).pow(0), nat(1), "0^0 = 1 by convention");
        assert_eq!(nat(0).pow(5), nat(0));
        assert_eq!(nat(10).pow(30).to_decimal_string(), "1000000000000000000000000000000");
    }

    #[test]
    fn gcd_and_lcm() {
        assert_eq!(nat(12).gcd(&nat(18)), nat(6));
        assert_eq!(nat(0).gcd(&nat(7)), nat(7));
        assert_eq!(nat(7).gcd(&nat(0)), nat(7));
        assert_eq!(nat(17).gcd(&nat(13)), nat(1));
        assert_eq!(nat(12).lcm(&nat(18)), nat(36));
        assert_eq!(nat(0).lcm(&nat(3)), nat(0));
        let a = nat(1 << 100);
        let b = nat(3 * (1 << 50));
        assert_eq!(a.gcd(&b), nat(1 << 50));
    }

    #[test]
    fn gcd_mixed_small_big_operands() {
        // Exercise the mixed path: one operand beyond u64, one inside.
        let big = nat((1u128 << 90) * 3);
        let small = nat(1 << 20);
        assert_eq!(big.gcd(&small), nat(1 << 20));
        assert_eq!(small.gcd(&big), nat(1 << 20));
        let odd_big = &nat(1 << 100) + &nat(1); // odd, > u64
        assert_eq!(odd_big.gcd(&nat(1)), nat(1));
    }

    #[test]
    fn shifts() {
        assert_eq!(&nat(1) << 100, nat(1 << 100));
        assert_eq!(&nat(1 << 100) >> 100, nat(1));
        assert_eq!(&nat(0b1011) << 3, nat(0b1011000));
        assert_eq!(&nat(0b1011000) >> 3, nat(0b1011));
        assert_eq!(&nat(5) >> 200, Natural::zero());
        // Shifts that cross the word boundary in both directions.
        assert_eq!(&nat(u64::MAX as u128) << 1, nat((u64::MAX as u128) << 1));
        assert_eq!(&nat(1) << 63, nat(1 << 63));
        assert_eq!(&nat(1) << 64, nat(1 << 64));
        assert_eq!(&nat(1 << 64) >> 1, nat(1 << 63));
        assert_eq!(&nat(3) << 126, nat(3 << 126));
    }

    #[test]
    fn bit_accessors() {
        let x = nat(0b1010);
        assert!(!x.bit(0));
        assert!(x.bit(1));
        assert!(!x.bit(2));
        assert!(x.bit(3));
        assert!(!x.bit(64));
        assert_eq!(x.bit_len(), 4);
        assert_eq!(Natural::zero().bit_len(), 0);
        assert_eq!(nat(1 << 127).bit_len(), 128);
        assert_eq!(nat(6).trailing_zeros(), 1);
    }

    #[test]
    fn decimal_roundtrip() {
        for s in [
            "0",
            "1",
            "42",
            "18446744073709551616",
            "340282366920938463463374607431768211456",
            "99999999999999999999999999999999999999999999",
        ] {
            let n: Natural = s.parse().unwrap();
            assert_eq!(n.to_decimal_string(), s);
        }
        assert_eq!("1_000".parse::<Natural>().unwrap(), nat(1000));
        assert!("".parse::<Natural>().is_err());
        assert!("12x".parse::<Natural>().is_err());
    }

    #[test]
    fn ordering() {
        assert!(nat(5) < nat(6));
        assert!(nat(1 << 100) > nat(u64::MAX as u128));
        assert_eq!(nat(77).cmp(&nat(77)), Ordering::Equal);
    }

    #[test]
    fn conversions() {
        assert_eq!(nat(42).to_u64(), Some(42));
        assert_eq!(nat(1 << 100).to_u64(), None);
        assert_eq!(Natural::from(3u8), nat(3));
        assert_eq!(Natural::from(3usize), nat(3));
        assert!((nat(1 << 80).to_f64_lossy() - (1u128 << 80) as f64).abs() < 1e10);
    }

    #[test]
    fn single_limb_multiplication_in_place_matches_multiplication() {
        let values =
            [0u128, 1, 7, u64::MAX as u128, u64::MAX as u128 + 1, 1 << 100, u128::MAX >> 3];
        for a in values {
            for m in [0u64, 1, 10, u64::MAX] {
                let mut x = nat(a);
                x.mul_assign_u64(m);
                assert_eq!(x, &nat(a) * &Natural::from(m), "{a} * {m}");
            }
        }
        // The carry out of the top limb grows the value by one limb.
        let mut x = nat(u128::MAX);
        x.mul_assign_u64(u64::MAX);
        assert_eq!(x.limbs().len(), 3);
        assert_eq!(x, &nat(u128::MAX) * &nat(u64::MAX as u128));
    }

    #[test]
    fn single_limb_addition_in_place_carries_across_limbs() {
        let cases = [
            (0u128, 0u64),
            (5, 7),
            (u64::MAX as u128, 1),
            (u64::MAX as u128, u64::MAX),
            ((1 << 64) + 3, 4),
            (u128::MAX - 1, 1),
        ];
        for (a, b) in cases {
            let mut x = nat(a);
            x.add_assign_u64(b);
            assert_eq!(x, nat(a + b as u128), "{a} + {b}");
        }
        // A carry through every limb grows the value by one limb.
        let mut x = nat(u128::MAX);
        x.add_assign_u64(1);
        assert_eq!(x.limbs(), &[0, 0, 1]);
        assert_eq!(x, &nat(1) << 128);
    }

    #[test]
    fn single_limb_division_satisfies_the_division_identity() {
        let values = [
            nat(0),
            nat(99),
            nat(u64::MAX as u128),
            nat(1 << 64),
            nat(u128::MAX),
            &nat(u128::MAX) * &nat(u128::MAX),
        ];
        for v in &values {
            for d in [1u64, 3, 10_000_000_000_000_000_000, u64::MAX] {
                let (q, r) = v.div_rem_u64(d);
                assert!(r < d, "{v} % {d} = {r}");
                assert_eq!(&(&q * &Natural::from(d)) + &Natural::from(r), *v, "{v} / {d}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn single_limb_division_by_zero_panics() {
        let _ = nat(5).div_rem_u64(0);
    }

    #[test]
    fn parity_and_trailing_zeros_across_limbs() {
        assert!(Natural::zero().is_even());
        assert_eq!(Natural::zero().trailing_zeros(), 0, "zero input returns 0");
        let cases = [
            (1u128, 0usize),
            (2, 1),
            (12, 2),
            (1 << 63, 63),
            (1 << 64, 64),
            (3 << 100, 100),
            (u128::MAX, 0),
        ];
        for (v, zeros) in cases {
            assert_eq!(nat(v).trailing_zeros(), zeros, "{v}");
            assert_eq!(nat(v).is_even(), zeros > 0, "{v}");
        }
    }
}
