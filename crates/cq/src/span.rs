//! Source spans for parsed queries.
//!
//! The core IR ([`ConjunctiveQuery`], [`Atom`], [`Term`]) is deliberately
//! span-free: queries are compared, hashed and deduplicated structurally, and
//! a byte offset baked into an `Atom` would break `Eq`/`Hash` (and the
//! `BTreeMap` bag representation that merges repeated atoms). Spans therefore
//! live in a **side table**: the parser records, for every query it reads,
//! where the head, each body-atom *occurrence* and each term occurrence sit
//! in the source text, and [`SpannedQuery`] carries that table next to the
//! query. Downstream analyses (`dioph-analyze`, the `diophantus check`
//! subcommand) resolve spans back to 1-based line/column coordinates with
//! [`line_column`] — the same resolution the parser's own
//! `ProgramParseError` uses, so analyzer diagnostics and parse errors point
//! into files identically.

use crate::atom::Atom;
use crate::query::ConjunctiveQuery;
use crate::term::Term;

/// A half-open byte range `[start, end)` into the source text a query was
/// parsed from.
///
/// Offsets are bytes (not characters) so they can index back into the
/// original `&str` cheaply; use [`line_column`] to render them for humans.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Span {
    /// Byte offset of the first byte of the spanned text.
    pub start: usize,
    /// Byte offset one past the last byte of the spanned text.
    pub end: usize,
}

impl Span {
    /// Builds a span from its byte endpoints.
    pub fn new(start: usize, end: usize) -> Span {
        debug_assert!(start <= end, "span endpoints out of order: {start}..{end}");
        Span { start, end }
    }

    /// The spanned slice of `source`.
    ///
    /// Returns an empty string if the span does not lie on character
    /// boundaries of `source` (which cannot happen for parser-produced spans
    /// on the text they were parsed from).
    pub fn slice<'a>(&self, source: &'a str) -> &'a str {
        source.get(self.start..self.end).unwrap_or("")
    }
}

/// One body-atom occurrence as written in the source, **before** the bag
/// representation merges repeated atoms.
///
/// `R(x, x), R(x, x)` parses to a single IR atom with multiplicity 2 but two
/// `AtomOccurrence`s — which is exactly what a duplicate-atom lint needs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AtomOccurrence {
    /// The parsed atom (terms in source order).
    pub atom: Atom,
    /// The multiplicity superscript of this occurrence (1 if absent).
    pub multiplicity: u64,
    /// The whole occurrence, from the relation name to the closing `)`.
    pub span: Span,
    /// The relation name alone.
    pub relation_span: Span,
    /// One span per term, aligned with `atom.terms()`.
    pub term_spans: Vec<Span>,
}

/// The span side table of one parsed query: where the query and each of its
/// pieces sit in the source text.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct QuerySpans {
    /// The whole query, from the head name to the last body token
    /// (excluding the optional trailing `.`).
    pub span: Span,
    /// The head predicate name.
    pub name_span: Span,
    /// One span per head term, aligned with `ConjunctiveQuery::head()`.
    pub head_term_spans: Vec<Span>,
    /// Body-atom occurrences in source order.
    pub atoms: Vec<AtomOccurrence>,
}

/// A parsed query together with its span side table, as produced by
/// [`parse_program_spanned`](crate::parse_program_spanned) and
/// [`parse_query_spanned`](crate::parse_query_spanned).
///
/// ```
/// use dioph_cq::parse_query_spanned;
///
/// let sq = parse_query_spanned("q(x1) <- R(x1, y1).").unwrap();
/// let input = "q(x1) <- R(x1, y1).";
/// let y1 = sq.variable_span("y1").unwrap();
/// assert_eq!(y1.slice(input), "y1");
/// assert_eq!(sq.spans.name_span.slice(input), "q");
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SpannedQuery {
    /// The parsed query (span-free, `Eq`/`Hash`-clean).
    pub query: ConjunctiveQuery,
    /// Its span side table.
    pub spans: QuerySpans,
}

impl SpannedQuery {
    /// The span of the first occurrence of variable `name` in the head.
    pub fn head_variable_span(&self, name: &str) -> Option<Span> {
        self.query
            .head()
            .iter()
            .zip(&self.spans.head_term_spans)
            .find(|(t, _)| t.as_var() == Some(name))
            .map(|(_, s)| *s)
    }

    /// The span of the first occurrence of variable `name` in the body, in
    /// source order.
    fn body_variable_span(&self, name: &str) -> Option<Span> {
        for occ in &self.spans.atoms {
            for (term, span) in occ.atom.terms().iter().zip(&occ.term_spans) {
                if term.as_var() == Some(name) {
                    return Some(*span);
                }
            }
        }
        None
    }

    /// The span of the first occurrence of variable `name` anywhere in the
    /// query (head first, then body in source order).
    pub fn variable_span(&self, name: &str) -> Option<Span> {
        self.head_variable_span(name).or_else(|| self.body_variable_span(name))
    }

    /// All spans of terms equal to `term` in the body, in source order.
    pub fn term_spans(&self, term: &Term) -> Vec<Span> {
        let mut spans = Vec::new();
        for occ in &self.spans.atoms {
            for (t, span) in occ.atom.terms().iter().zip(&occ.term_spans) {
                if t == term {
                    spans.push(*span);
                }
            }
        }
        spans
    }
}

/// Resolves a byte offset into 1-based `(line, column)` coordinates, where
/// the column counts characters (UTF-8 code points), not bytes — the same
/// convention as the parser's `ProgramParseError`, so analyzer diagnostics
/// and parse errors agree on positions.
///
/// Offsets past the end of the input resolve to the position just past the
/// last character.
///
/// ```
/// use dioph_cq::line_column;
///
/// let text = "q(x) <- R(x, x).\np(x) <- S(x, y).";
/// assert_eq!(line_column(text, 0), (1, 1));
/// assert_eq!(line_column(text, 17), (2, 1));
/// assert_eq!(line_column(text, 30), (2, 14));
/// ```
pub fn line_column(input: &str, position: usize) -> (usize, usize) {
    let position = position.min(input.len());
    let bytes = input.as_bytes();
    let mut line = 1;
    let mut line_start = 0;
    for (i, &b) in bytes.iter().enumerate().take(position) {
        if b == b'\n' {
            line += 1;
            line_start = i + 1;
        }
    }
    // Count characters by counting non-continuation bytes.
    let column = 1 + bytes[line_start..position].iter().filter(|b| (*b & 0xC0) != 0x80).count();
    (line, column)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_program_spanned, parse_query_spanned};

    #[test]
    fn spans_slice_back_to_the_source_text() {
        let input = "q3(x1, x2) <- R^2(x1, y1), R(x1, y2), P^2(y2, y3), P(x2, y4).";
        let sq = parse_query_spanned(input).unwrap();
        assert_eq!(sq.spans.name_span.slice(input), "q3");
        assert_eq!(sq.spans.span.slice(input), &input[..input.len() - 1]);
        assert_eq!(sq.spans.head_term_spans.len(), 2);
        assert_eq!(sq.spans.head_term_spans[1].slice(input), "x2");
        // Four occurrences in source order, even though the bag merges none here.
        let occs = &sq.spans.atoms;
        assert_eq!(occs.len(), 4);
        assert_eq!(occs[0].span.slice(input), "R^2(x1, y1)");
        assert_eq!(occs[0].relation_span.slice(input), "R");
        assert_eq!(occs[0].multiplicity, 2);
        assert_eq!(occs[3].term_spans[1].slice(input), "y4");
    }

    #[test]
    fn variable_spans_prefer_the_head_then_source_order() {
        let input = "q(x1) <- R(y1, x1), S(y1, y2)";
        let sq = parse_query_spanned(input).unwrap();
        assert_eq!(sq.variable_span("x1").unwrap(), sq.head_variable_span("x1").unwrap());
        assert_eq!(sq.variable_span("x1").unwrap().start, 2);
        // y1's first occurrence is in the first atom, not the second.
        assert_eq!(sq.variable_span("y1").unwrap().start, 11);
        assert_eq!(sq.body_variable_span("y2").unwrap().slice(input), "y2");
        assert_eq!(sq.variable_span("zz"), None);
        assert_eq!(sq.head_variable_span("y1"), None);
    }

    #[test]
    fn duplicate_written_atoms_keep_both_occurrences() {
        let input = "q(x) <- R(x, x), R(x, x).";
        let sq = parse_query_spanned(input).unwrap();
        assert_eq!(sq.query.distinct_atom_count(), 1);
        assert_eq!(sq.query.total_atom_count(), 2);
        assert_eq!(sq.spans.atoms.len(), 2);
        assert_eq!(sq.spans.atoms[0].atom, sq.spans.atoms[1].atom);
        assert!(sq.spans.atoms[0].span.start < sq.spans.atoms[1].span.start);
    }

    #[test]
    fn constant_and_canonical_terms_span_their_sigils() {
        let input = "q(x) <- R(x, 'c2'), S(^x, 42)";
        let sq = parse_query_spanned(input).unwrap();
        let occs = &sq.spans.atoms;
        assert_eq!(occs[0].term_spans[1].slice(input), "'c2'");
        assert_eq!(occs[1].term_spans[0].slice(input), "^x");
        assert_eq!(occs[1].term_spans[1].slice(input), "42");
        assert_eq!(sq.term_spans(&Term::constant("c2")).len(), 1);
    }

    #[test]
    fn program_spans_survive_comments_and_multiple_queries() {
        let input = "% header\nq(x) <- R^2(x, x). % trailing\np(x) <- R(x, y), R(y, x).";
        let program = parse_program_spanned(input).unwrap();
        assert_eq!(program.len(), 2);
        assert_eq!(program[0].spans.name_span.slice(input), "q");
        assert_eq!(program[1].spans.name_span.slice(input), "p");
        let (line, column) = line_column(input, program[1].spans.name_span.start);
        assert_eq!((line, column), (3, 1));
        let y = program[1].variable_span("y").unwrap();
        assert_eq!(y.slice(input), "y");
        assert_eq!(line_column(input, y.start), (3, 14));
    }

    #[test]
    fn line_column_clamps_and_counts_characters() {
        assert_eq!(line_column("", 0), (1, 1));
        assert_eq!(line_column("ab", 99), (1, 3));
        // Multi-byte characters count as one column each.
        let text = "% línea\nq(x) <- R(x, x)";
        assert_eq!(line_column(text, text.len()), (2, 16));
    }

    #[test]
    fn span_helpers() {
        let s = Span::new(3, 7);
        assert_eq!(s.slice("0123456789"), "3456");
        // Out-of-bounds or non-boundary spans degrade to empty.
        assert_eq!(Span::new(3, 42).slice("short"), "");
    }
}
