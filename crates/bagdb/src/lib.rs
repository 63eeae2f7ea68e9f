//! # dioph-bagdb — a bag relational engine
//!
//! Set and bag database instances plus conjunctive-query evaluation under
//! both semantics, following Section 2 (in particular Equation 2) of
//! *"Attacking Diophantus"* (PODS 2019).
//!
//! The engine plays three roles in the reproduction:
//!
//! 1. it re-computes the paper's worked evaluation examples exactly
//!    (experiment E1);
//! 2. it *independently verifies* the counterexample bags extracted by the
//!    containment decider — the witness produced via the Diophantine
//!    machinery is re-evaluated here with plain Equation-2 semantics;
//! 3. it provides the workload substrate for the sound-but-incomplete
//!    random-refutation baseline (experiment E8).
//!
//! ```
//! use dioph_bagdb::{BagInstance, bag_answer_multiplicity};
//! use dioph_cq::{paper_examples, Term};
//! use dioph_arith::Natural;
//!
//! // The paper's Section 2 example: qµ(c1, c2) = 10.
//! let q = paper_examples::section2_query_q3();
//! let bag = BagInstance::from_u64_multiplicities(paper_examples::section2_bag());
//! let c = |s: &str| Term::constant(s);
//! assert_eq!(bag_answer_multiplicity(&q, &bag, &[c("c1"), c("c2")]), Natural::from(10u64));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod enumerate;
mod evaluate;
mod instance;

pub use enumerate::{bounded_bag_count, enumerate_bounded_bags, ground_atoms, BoundedBags};
pub use evaluate::{
    bag_answer_multiplicity, bag_answers, bag_containment_holds_on, set_answers, BagViolation,
};
pub use instance::{BagInstance, SetInstance};
