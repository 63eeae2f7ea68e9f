//! # dioph-containment — bag-containment decision procedures
//!
//! The primary contribution of *"Attacking Diophantus: Solving a Special Case
//! of Bag Containment"* (Konstantinidis & Mogavero, PODS 2019), as a library:
//! deciding `q1 ⊑b q2` — bag containment of a **projection-free** conjunctive
//! query `q1` into an arbitrary conjunctive query `q2` — in Π₂ᵖ, with
//! explicit, machine-verified counterexample bags when containment fails.
//!
//! ## Pipeline
//!
//! 1. [`CompiledProbe`] compiles (containee, containing, probe tuple) into a
//!    Monomial–Polynomial Inequality (Definitions 3.2/3.3);
//! 2. `dioph-poly` decides the MPI through the strict homogeneous linear
//!    system of Theorem 4.1, solved by `dioph-linalg` (Theorem 4.2);
//! 3. [`BagContainmentDecider`] wires it together following Theorem 5.3
//!    (most-general probe tuple), with Corollary 3.1 (all probes) and the
//!    Lemma 5.1 enumeration (guess & check) available as baselines; the MPI
//!    routes first try the exponent-vector [`Rung`]s, which decide most
//!    probes without the LP (and most contained pairs without enumerating
//!    every containment mapping);
//! 4. failures come with a [`Counterexample`] bag which is re-evaluated by
//!    the independent `dioph-bagdb` engine.
//!
//! ```
//! use dioph_containment::{is_bag_contained, set_containment};
//! use dioph_cq::paper_examples;
//!
//! let q1 = paper_examples::section2_query_q1();
//! let q2 = paper_examples::section2_query_q2();
//!
//! // q1 ⊑b q2 (the paper's Section 2 example) ...
//! assert!(is_bag_contained(&q1, &q2).unwrap().holds());
//!
//! // ... but q2 ⋢b q1, with an explicit violating bag.
//! let result = is_bag_contained(&q2, &q1).unwrap();
//! let witness = result.counterexample().unwrap();
//! assert!(witness.verify(&q2, &q1));
//!
//! // Both are set-equivalent, though — bag semantics is strictly finer.
//! assert!(set_containment(&q2, &q1).holds());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod certificate;
mod compile;
mod decider;
pub mod json;
mod scratch;
mod set;

pub use certificate::{BagContainment, ContainmentError, Counterexample};
pub use compile::{CompiledPair, CompiledProbe, EarlyStop, MostGeneral, Rung};
pub use decider::{
    are_bag_equivalent, bag_equivalence, is_bag_contained, observe_verdict, Algorithm,
    BagContainmentDecider,
};
pub use scratch::ProbeScratch;
pub use set::{
    are_set_equivalent, bag_set_containment, is_bag_set_contained, set_containment, SetContainment,
};

// Re-export the configuration enum callers need to select an LP engine.
pub use dioph_linalg::FeasibilityEngine;
