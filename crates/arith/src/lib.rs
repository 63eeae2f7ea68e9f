//! # dioph-arith — exact arithmetic substrate
//!
//! Arbitrary-precision natural numbers, signed integers and rationals used
//! throughout the `diophantus` workspace (the reproduction of
//! *"Attacking Diophantus: Solving a Special Case of Bag Containment"*,
//! PODS 2019).
//!
//! The bag-containment decision procedure manipulates quantities that
//! overflow machine integers almost immediately:
//!
//! * multiplicities of answer tuples under bag semantics are *products of
//!   powers* of atom multiplicities (Equation 2 of the paper);
//! * counterexample extraction raises a base `ζ*` to exponents obtained from
//!   an LP solution (`ξ_j = ζ*^{d_j}`);
//! * Fourier–Motzkin elimination and exact simplex pivoting require exact
//!   rational arithmetic to stay sound.
//!
//! This crate provides the three number types — [`Natural`], [`Integer`] and
//! [`Rational`] — with exact, panic-on-misuse semantics and no external
//! dependencies.
//!
//! ## Hybrid representation
//!
//! While the *semantics* are arbitrary precision, the *representation* is
//! hybrid: [`Natural`] stores values up to `u64::MAX` inline, [`Integer`]
//! stores the whole `i64` range inline, and both promote to the little-endian
//! limb form only when a result genuinely leaves the machine range. The forms
//! are canonical (a value is always stored in the smallest representation
//! that fits), so equality, ordering and hashing never observe the split.
//! [`Rational`] is built on the two and inherits their machine-word paths.
//! The [`stats`] module counts how often the integer kernel operations of
//! the LP stay on machine words.
//!
//! ```
//! use dioph_arith::{Natural, Integer, Rational};
//!
//! // 2^200 is far beyond u128 but exact here.
//! let big = Natural::from(2u64).pow(200);
//! assert_eq!(big.to_decimal_string().len(), 61);
//!
//! // Exact rational arithmetic.
//! let third = Rational::from_i64s(1, 3);
//! assert_eq!(&(&third + &third) + &third, Rational::one());
//!
//! // Signed arithmetic.
//! assert_eq!(Integer::from(-3) * Integer::from(-4), Integer::from(12));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod integer;
mod natural;
mod rational;
pub mod stats;

pub use integer::{Integer, ParseIntegerError, Sign};
pub use natural::{Natural, ParseNaturalError};
pub use rational::{ParseRationalError, Rational};
