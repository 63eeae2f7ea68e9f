//! # dioph-analyze — static analysis for query programs
//!
//! A span-carrying lint pass over the programs the `diophantus` CLI and
//! the batch engine consume, run **before** anything is compiled:
//!
//! * a [lint registry](LINTS) with stable codes (`D001 unsafe-query`,
//!   `D013 duplicate-atom`, …), default severities and rustc-style
//!   `--deny/--allow/-W` configuration ([`LintConfig`]);
//! * [fragment classification](classify_pair) of every
//!   `(containee, containing)` pair into the decidability matrix of the
//!   source paper and its related work;
//! * a [static cost pass](estimate_cost) bounding the probe space and the
//!   strict-homogeneous-system dimensions without compiling the pair.
//!
//! Diagnostics carry byte [`Span`](dioph_cq::Span)s resolved to 1-based
//! line/column positions in the original source, via the span side-table
//! that [`dioph_cq::parse_program_spanned`] threads out of the parser.
//!
//! ```
//! use dioph_analyze::{analyze_source, LintConfig, Severity};
//!
//! let source = "q(x) <- R(x, y).\np(x) <- R(x, x).";
//! let analysis = analyze_source(source, &LintConfig::new());
//! let d = &analysis.pairs[0].diagnostics[0];
//! assert_eq!((d.code, d.severity), ("D002", Severity::Error));
//! assert_eq!(d.render("demo.dl"),
//!     "demo.dl:1:14: error[D002] containee-not-projection-free: \
//!      the containee must be projection-free; existential variables: y");
//! ```
//!
//! ---
//!
#![doc = include_str!("../../../docs/diagnostics.md")]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod classify;
mod cost;
mod registry;

pub use analysis::{
    analyze_source, containee_fragment_diagnostics, first_fragment_error, Diagnostic, PairAnalysis,
    ProgramAnalysis, LP_DIMENSION_NOTE_THRESHOLD, PROBE_SPACE_NOTE_THRESHOLD,
};
pub use classify::{classify_pair, FragmentClass};
pub use cost::{estimate_cost, CostEstimate};
pub use registry::{lint, Lint, LintConfig, Severity, LINTS};
