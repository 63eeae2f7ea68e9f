//! The lint registry: stable codes, default severities, and the
//! `--deny/--allow/-W` configuration model.

use core::fmt;

/// How serious a diagnostic is. The ordering is meaningful:
/// `Allow < Note < Warning < Error`, and a `check` run exits with the
/// numeric code of the worst emitted severity (`Note` and below map to 0,
/// `Warning` to 1, `Error` to 2).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Severity {
    /// Suppressed: the diagnostic is not emitted at all.
    Allow,
    /// An advisory (cost estimates, admission-control signals). Printed,
    /// but never fails a run and is not promoted by `--deny warnings`.
    Note,
    /// A likely mistake. Exit code 1; promoted to `Error` by
    /// `--deny warnings`.
    Warning,
    /// A defect the engine would reject (or source that does not parse).
    /// Exit code 2.
    Error,
}

impl Severity {
    /// The lowercase name used in human output and in JSON
    /// (`"allow"`, `"note"`, `"warning"`, `"error"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Allow => "allow",
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }

    /// The process exit code a run whose worst diagnostic is `self` ends
    /// with: 0 for `Allow`/`Note`, 1 for `Warning`, 2 for `Error`.
    pub fn exit_code(self) -> i32 {
        match self {
            Severity::Allow | Severity::Note => 0,
            Severity::Warning => 1,
            Severity::Error => 2,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One registered lint: a stable code (`D013`), a human name
/// (`duplicate-atom`), the severity it fires at unless configured
/// otherwise, and a one-line summary for `docs/diagnostics.md`-style
/// listings.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Lint {
    /// Stable machine-readable code (`D000`–`D031`). Codes are never
    /// reused or renumbered; retired lints leave a hole.
    pub code: &'static str,
    /// Stable kebab-case name, accepted interchangeably with the code by
    /// `--deny/--allow/-W`.
    pub name: &'static str,
    /// Severity when no configuration overrides it. Some lints fire below
    /// this default in weaker positions (see `docs/diagnostics.md`): an
    /// empty body is an error for a containee but only a warning for a
    /// containing query.
    pub default_severity: Severity,
    /// One-line description.
    pub summary: &'static str,
}

/// Every lint `dioph-analyze` can emit, in code order.
pub const LINTS: &[Lint] = &[
    Lint {
        code: "D000",
        name: "syntax-error",
        default_severity: Severity::Error,
        summary: "the source text does not parse as a datalog program",
    },
    Lint {
        code: "D001",
        name: "unsafe-query",
        default_severity: Severity::Error,
        summary: "a head variable does not occur in the body",
    },
    Lint {
        code: "D002",
        name: "containee-not-projection-free",
        default_severity: Severity::Error,
        summary: "the containee has existential variables, outside the paper's decidable fragment",
    },
    Lint {
        code: "D003",
        name: "empty-body",
        default_severity: Severity::Error,
        summary: "a query has an empty body (`true`)",
    },
    Lint {
        code: "D004",
        name: "odd-query-count",
        default_severity: Severity::Error,
        summary: "the program holds an odd number of queries, leaving the last one unpaired",
    },
    Lint {
        code: "D010",
        name: "unused-variable",
        default_severity: Severity::Allow,
        summary: "a body variable occurs exactly once, constraining nothing",
    },
    Lint {
        code: "D011",
        name: "cartesian-product-body",
        default_severity: Severity::Allow,
        summary: "the body splits into variable-disjoint groups (a cartesian product)",
    },
    Lint {
        code: "D012",
        name: "predicate-arity-mismatch",
        default_severity: Severity::Warning,
        summary: "the same relation name is used with different arities",
    },
    Lint {
        code: "D013",
        name: "duplicate-atom",
        default_severity: Severity::Warning,
        summary: "the same atom is written more than once in a body; multiplicities accumulate",
    },
    Lint {
        code: "D030",
        name: "probe-space-blowup",
        default_severity: Severity::Note,
        summary: "the all-probes enumeration space is large",
    },
    Lint {
        code: "D031",
        name: "lp-dimension-warning",
        default_severity: Severity::Note,
        summary: "the strict homogeneous system may be large enough for seconds-scale LP solves",
    },
];

/// Looks a lint up by stable code (`"D013"`) or name (`"duplicate-atom"`).
pub fn lint(code_or_name: &str) -> Option<&'static Lint> {
    LINTS.iter().find(|l| l.code == code_or_name || l.name == code_or_name)
}

/// Looks a lint up by code, panicking on an unregistered one — for internal
/// use by the analysis passes, whose codes are compile-time constants.
pub(crate) fn registered(code: &'static str) -> &'static Lint {
    lint(code).unwrap_or_else(|| panic!("lint {code} is not registered"))
}

/// Severity configuration in the rustc style: per-lint overrides
/// (`--allow D013`, `-W unused-variable`, `--deny D011`) plus the blanket
/// `--deny warnings` promotion. Later overrides win over earlier ones.
#[derive(Clone, Debug, Default)]
pub struct LintConfig {
    overrides: Vec<(&'static str, Severity)>,
    deny_warnings: bool,
}

impl LintConfig {
    /// The default configuration: every lint at its registered severity.
    pub fn new() -> LintConfig {
        LintConfig::default()
    }

    /// Overrides one lint (by code or name) to a fixed severity. Returns an
    /// error message naming the unknown lint if it is not registered.
    pub fn set(&mut self, code_or_name: &str, severity: Severity) -> Result<(), String> {
        match lint(code_or_name) {
            Some(l) => {
                self.overrides.push((l.code, severity));
                Ok(())
            }
            None => Err(format!(
                "unknown lint '{code_or_name}' (expected a code like D013 or a name like \
                 duplicate-atom; see docs/diagnostics.md)"
            )),
        }
    }

    /// Enables the blanket `--deny warnings` promotion: every diagnostic
    /// that would be emitted at `Warning` becomes an `Error`. Notes are not
    /// warnings and are not promoted.
    pub fn deny_warnings(&mut self) {
        self.deny_warnings = true;
    }

    /// The severity `lint` fires at in the given situation: the last
    /// explicit override if any, else `situational` (which the analysis
    /// passes set to the lint's default or a position-weakened severity),
    /// with `--deny warnings` promoting a resulting `Warning` to `Error`.
    pub fn effective(&self, lint: &Lint, situational: Severity) -> Severity {
        let base = self
            .overrides
            .iter()
            .rev()
            .find(|(code, _)| *code == lint.code)
            .map_or(situational, |(_, sev)| *sev);
        if self.deny_warnings && base == Severity::Warning {
            Severity::Error
        } else {
            base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_and_names_are_unique_and_ordered() {
        let mut codes: Vec<&str> = LINTS.iter().map(|l| l.code).collect();
        let sorted = codes.clone();
        codes.dedup();
        assert_eq!(codes, sorted, "duplicate lint code");
        let mut sorted_codes = codes.clone();
        sorted_codes.sort_unstable();
        assert_eq!(codes, sorted_codes, "LINTS must stay in code order");
        let mut names: Vec<&str> = LINTS.iter().map(|l| l.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), LINTS.len(), "duplicate lint name");
    }

    #[test]
    fn lookup_by_code_and_name() {
        assert_eq!(lint("D013").unwrap().name, "duplicate-atom");
        assert_eq!(lint("duplicate-atom").unwrap().code, "D013");
        assert!(lint("D999").is_none());
        assert!(lint("").is_none());
    }

    #[test]
    fn severity_ordering_and_exit_codes() {
        assert!(Severity::Allow < Severity::Note);
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(Severity::Note.exit_code(), 0);
        assert_eq!(Severity::Warning.exit_code(), 1);
        assert_eq!(Severity::Error.exit_code(), 2);
        assert_eq!(Severity::Warning.to_string(), "warning");
    }

    #[test]
    fn config_overrides_and_deny_warnings() {
        let d013 = lint("D013").unwrap();
        let mut config = LintConfig::new();
        assert_eq!(config.effective(d013, d013.default_severity), Severity::Warning);

        config.set("duplicate-atom", Severity::Allow).unwrap();
        assert_eq!(config.effective(d013, d013.default_severity), Severity::Allow);

        // Later overrides win.
        config.set("D013", Severity::Error).unwrap();
        assert_eq!(config.effective(d013, d013.default_severity), Severity::Error);

        let mut config = LintConfig::new();
        config.deny_warnings();
        assert_eq!(config.effective(d013, d013.default_severity), Severity::Error);
        // Notes are not promoted.
        let d030 = lint("D030").unwrap();
        assert_eq!(config.effective(d030, d030.default_severity), Severity::Note);
        // An explicit --allow survives --deny warnings.
        config.set("D013", Severity::Allow).unwrap();
        assert_eq!(config.effective(d013, d013.default_severity), Severity::Allow);

        assert!(config.set("D999", Severity::Allow).is_err());
    }

    #[test]
    fn situational_severity_feeds_the_promotion() {
        // D003 fires at Warning for a containing query; --deny warnings
        // promotes that situational warning like any other.
        let d003 = lint("D003").unwrap();
        let mut config = LintConfig::new();
        assert_eq!(config.effective(d003, Severity::Warning), Severity::Warning);
        config.deny_warnings();
        assert_eq!(config.effective(d003, Severity::Warning), Severity::Error);
    }
}
