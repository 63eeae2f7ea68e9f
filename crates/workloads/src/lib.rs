//! # dioph-workloads — workload generators for the diophantus workspace
//!
//! Everything the examples, property tests and benchmarks feed into the
//! bag-containment machinery:
//!
//! * [`graphs`] — undirected graphs, generators and a brute-force
//!   3-colorability oracle;
//! * [`threecol`] — the Theorem 5.4 reduction from 3-colorability to bag
//!   containment (NP-hardness workload, experiment E5);
//! * [`random`] — random conjunctive queries, including pairs that are
//!   bag-contained by construction (specialisation pairs) and pairs designed
//!   to break containment (experiments E4, E6, E9);
//! * [`joins`] — optimizer-trace-style join shapes (chains, stars, cliques
//!   over a shared relation pool) with specialisation containees;
//! * [`refutation`] — the sound-but-incomplete random-bag refutation baseline
//!   (experiment E8);
//! * [`suite`] — named, seed-reproducible workload suites (the generator
//!   plumbing behind `diophantus gen` and the E4 sweep shapes).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graphs;
pub mod joins;
pub mod random;
pub mod refutation;
pub mod suite;
pub mod threecol;

pub use graphs::Graph;
pub use joins::{chain_pair, clique_pair, star_pair};
pub use random::QueryShape;
pub use refutation::{refute_by_random_bags, RefutationConfig};
pub use suite::{generate_pairs, WorkloadKind, WorkloadPair};
