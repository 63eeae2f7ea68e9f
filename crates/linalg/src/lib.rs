//! # dioph-linalg — exact linear algebra and feasibility
//!
//! The decision procedure of *"Attacking Diophantus"* (PODS 2019) hinges on
//! Theorem 4.1: a monomial–polynomial inequality has a Diophantine solution
//! iff an associated **strict homogeneous linear system** is feasible, and
//! (Theorem 4.2) the latter question is decidable in polynomial time.
//!
//! This crate provides that substrate, fully self-contained:
//!
//! * [`LinearSystem`] / [`Constraint`] — general rational linear constraints
//!   (strict and non-strict inequalities and equalities);
//! * [`Row`] / [`SparseRow`] — the shared coefficient-row abstraction the
//!   engines pivot and eliminate over, generic over the coefficient type
//!   ([`GenRow`]); the mostly-zero rows of the paper's strict homogeneous
//!   systems are stored sparsely, so zero-skipping comes from the
//!   representation instead of per-loop checks;
//! * [`bareiss`] — the one production LP kernel: an exact fraction-free
//!   phase-1 simplex whose intermediate values all stay integers
//!   ([`IntRow`]), with a single exact gcd division per row per pivot;
//! * [`fourier_motzkin`] — Fourier–Motzkin elimination with witness
//!   extraction: the "obviously correct" differential oracle that tests and
//!   benches check the kernel against;
//! * [`StrictHomogeneousSystem`] — the exact shape produced by the paper's
//!   reduction, with natural-number witness extraction
//!   ([`StrictHomogeneousSystem::natural_solution`]).
//!
//! ```
//! use dioph_linalg::{FeasibilityEngine, StrictHomogeneousSystem};
//!
//! // The homogeneous system derived from the paper's running 3-MPI.
//! let mut sys = StrictHomogeneousSystem::new(3);
//! sys.push_row_i64(&[-5, 1, 3]);
//! sys.push_row_i64(&[-3, -1, 3]);
//! sys.push_row_i64(&[-1, 1, -1]);
//! let witness = sys.natural_solution(FeasibilityEngine::Simplex).unwrap().unwrap();
//! assert!(sys.is_satisfied_by_naturals(&witness));
//! // The Fourier–Motzkin oracle agrees on the verdict.
//! assert!(sys.is_feasible(FeasibilityEngine::FourierMotzkin).unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bareiss;
mod error;
mod feasibility;
pub mod fourier_motzkin;
pub mod row;
pub mod scratch;
mod system;

pub use bareiss::SimplexOutcome;
pub use error::LinalgError;
pub use feasibility::{scale_to_naturals, FeasibilityEngine, StrictHomogeneousSystem};
pub use fourier_motzkin::FmOutcome;
pub use row::{Coeff, GenRow, GenSparseRow, IntRow, Row, SparseRow};
pub use scratch::{LpScratch, RowPool};
pub use system::{dot, dot_int, dot_int_int, dot_int_nat, Constraint, LinearSystem, Relation};
