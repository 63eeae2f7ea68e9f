//! # diophantus — bag containment for conjunctive queries
//!
//! A complete, from-scratch reproduction of *"Attacking Diophantus: Solving a
//! Special Case of Bag Containment"* (Konstantinidis & Mogavero, PODS 2019)
//! as a Rust workspace. This facade crate re-exports the public API of every
//! member crate so downstream users can depend on a single package:
//!
//! * [`arith`] — arbitrary-precision naturals, integers and rationals;
//! * [`linalg`] — exact LP feasibility (Fourier–Motzkin and simplex);
//! * [`poly`] — monomials, polynomials and Monomial–Polynomial Inequalities;
//! * [`cq`] — conjunctive queries, homomorphisms, probe tuples, parsing;
//! * [`analyze`] — span-carrying static analysis: lints with stable codes,
//!   fragment classification and static cost bounds (the machinery behind
//!   `diophantus check`);
//! * [`bagdb`] — set/bag instances and Equation-2 evaluation;
//! * [`containment`] — the set- and bag-containment deciders with
//!   counterexample extraction (the paper's contribution);
//! * [`engine`] — the parallel batch decision engine with its shared
//!   compilation cache (the machinery behind `diophantus batch` and
//!   `--jobs`);
//! * [`workloads`] — graphs, reductions and random query generators;
//! * [`fuzz`] — the differential fuzzing oracle cross-checking the MPI
//!   decider against bounded bag-database ground truth (the machinery
//!   behind `diophantus fuzz`).
//!
//! The most common entry points are re-exported at the crate root.
//!
//! ```
//! use diophantus::{parse_query, is_bag_contained};
//!
//! let containee = parse_query("q(x) <- R^2(x, x)").unwrap();
//! let containing = parse_query("p(x) <- R(x, y), R(y, x)").unwrap();
//! assert!(is_bag_contained(&containee, &containing).unwrap().holds());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod jsonv;

pub use dioph_analyze as analyze;
pub use dioph_arith as arith;
pub use dioph_bagdb as bagdb;
pub use dioph_containment as containment;
pub use dioph_cq as cq;
pub use dioph_engine as engine;
pub use dioph_fuzz as fuzz;
pub use dioph_linalg as linalg;
pub use dioph_obs as obs;
pub use dioph_poly as poly;
pub use dioph_workloads as workloads;

pub use dioph_analyze::{
    analyze_source, classify_pair, estimate_cost, CostEstimate, Diagnostic, FragmentClass,
    LintConfig, ProgramAnalysis, Severity,
};
pub use dioph_arith::{Integer, Natural, Rational};
pub use dioph_bagdb::{bag_answer_multiplicity, bag_answers, BagInstance, SetInstance};
pub use dioph_containment::{
    are_bag_equivalent, bag_equivalence, bag_set_containment, is_bag_contained, set_containment,
    Algorithm, BagContainment, BagContainmentDecider, ContainmentError, Counterexample,
    FeasibilityEngine,
};
pub use dioph_cq::{parse_program, parse_query, ConjunctiveQuery, Term};
pub use dioph_engine::{DecisionEngine, EngineConfig};
pub use dioph_poly::{Monomial, Mpi, Polynomial};
