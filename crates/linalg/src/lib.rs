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
//! * [`IntRow`] — the one row type: a sparse integer row holding only its
//!   non-zero entries, so the mostly-zero rows of the paper's strict
//!   homogeneous systems cost only their non-zeros;
//! * [`bareiss`] — the one production LP kernel: an exact fraction-free
//!   phase-1 simplex over [`IntRow`]s whose intermediate values all stay
//!   integers, with a single exact gcd division per row per pivot;
//! * [`fourier_motzkin`] — Fourier–Motzkin elimination with witness
//!   extraction over dense rational rows: the "obviously correct"
//!   differential oracle that the tests check the kernel against,
//!   sharing no row code with it;
//! * [`StrictHomogeneousSystem`] — the exact shape produced by the paper's
//!   reduction, decided through its Gordan dual on the same kernel, with
//!   natural-number witness extraction
//!   ([`StrictHomogeneousSystem::natural_solution`]) and the dual's
//!   certificate of infeasibility
//!   ([`StrictHomogeneousSystem::dual_weights`]).
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
mod row;
pub mod scratch;
mod system;

pub use bareiss::SimplexOutcome;
pub use error::LinalgError;
pub use feasibility::{FeasibilityEngine, StrictHomogeneousSystem};
pub use fourier_motzkin::FmOutcome;
pub use row::IntRow;
pub use scratch::{LpScratch, RowPool};
pub use system::{dot, Constraint, LinearSystem, Relation};
