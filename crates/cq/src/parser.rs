//! A small parser for conjunctive queries in the paper's datalog notation.
//!
//! Two entry points, in increasing granularity:
//!
//! * [`parse_query`] — a single query (byte-offset errors);
//! * [`parse_program`] — a whole file of `.`-terminated queries with
//!   `%`/`#` line comments and line/column error spans, the entry point the
//!   `diophantus` CLI uses for its diagnostics.
//!
//! The normative grammar (with one runnable example per production) lives in
//! `docs/grammar.md`, which is also included verbatim in the crate-root
//! documentation so its examples run as doctests.
//!
//! Example (the paper's Section 2 running query):
//!
//! ```
//! use dioph_cq::parse_query;
//! let q = parse_query("q(x1, x2) <- R^2(x1, y1), R(x1, y2), P^2(y2, y3), P(x2, y4).").unwrap();
//! assert_eq!(q.total_atom_count(), 6);
//! assert_eq!(q.distinct_atom_count(), 4);
//! ```

use core::fmt;

use crate::atom::Atom;
use crate::query::ConjunctiveQuery;
use crate::span::{line_column, AtomOccurrence, QuerySpans, Span, SpannedQuery};
use crate::term::Term;

/// Error produced when parsing a query fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseQueryError {
    /// Human-readable description of the problem.
    message: String,
    /// Byte offset in the input at which the problem was detected.
    position: usize,
}

impl ParseQueryError {
    fn new(message: impl Into<String>, position: usize) -> Self {
        ParseQueryError { message: message.into(), position }
    }

    /// The byte offset at which parsing failed.
    pub fn position(&self) -> usize {
        self.position
    }
}

impl fmt::Display for ParseQueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseQueryError {}

/// Parses a conjunctive query written in datalog notation with optional
/// multiplicity superscripts (see the module documentation for the grammar).
pub fn parse_query(input: &str) -> Result<ConjunctiveQuery, ParseQueryError> {
    parse_query_spanned(input).map(|sq| sq.query)
}

/// Like [`parse_query`], but also returns the span side table recording
/// where the head, every body-atom occurrence and every term sit in `input`
/// (see [`SpannedQuery`]).
pub fn parse_query_spanned(input: &str) -> Result<SpannedQuery, ParseQueryError> {
    let mut p = Parser::new(input);
    let q = p.query()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(ParseQueryError::new("unexpected trailing input", p.pos));
    }
    Ok(q)
}

/// Error produced when parsing a multi-query program fails. Unlike
/// [`ParseQueryError`], the position is resolved to a 1-based line and
/// column, ready for CLI-style `file:line:column` diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramParseError {
    message: String,
    line: usize,
    column: usize,
}

impl ProgramParseError {
    fn at(input: &str, position: usize, message: String) -> Self {
        let (line, column) = line_column(input, position);
        ProgramParseError { message, line, column }
    }

    /// The 1-based line on which parsing failed.
    pub fn line(&self) -> usize {
        self.line
    }

    /// The 1-based column (in characters) at which parsing failed.
    pub fn column(&self) -> usize {
        self.column
    }

    /// Human-readable description of the problem.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for ProgramParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}, column {}: {}", self.line, self.column, self.message)
    }
}

impl std::error::Error for ProgramParseError {}

/// Replaces `%`/`#` line comments with spaces, keeping every byte offset
/// (and the line structure) identical so error positions computed on the
/// stripped text remain valid in the original.
fn blank_comments(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    let mut in_comment = false;
    for ch in input.chars() {
        if ch == '\n' {
            in_comment = false;
            out.push('\n');
        } else if in_comment || ch == '%' || ch == '#' {
            in_comment = true;
            for _ in 0..ch.len_utf8() {
                out.push(' ');
            }
        } else {
            out.push(ch);
        }
    }
    out
}

/// Parses a whole *program*: any number of queries, each terminated by `.`
/// (the final terminator is optional), with `%` and `#` line comments.
///
/// This is the file-level entry point behind the `diophantus` CLI: errors
/// come with the line and column of the offending token (see
/// [`ProgramParseError`]), so malformed workload files produce actionable
/// diagnostics. An empty (or comment-only) input yields an empty vector.
///
/// ```
/// use dioph_cq::parse_program;
///
/// let queries = parse_program("q(x) <- R^2(x, x). % containee\np(x) <- R(x, y), R(y, x).")
///     .unwrap();
/// assert_eq!(queries.len(), 2);
///
/// let err = parse_program("q(x) <- R(x, x).\np(x) <- R(x, ").unwrap_err();
/// assert_eq!((err.line(), err.column()), (2, 14));
/// ```
pub fn parse_program(input: &str) -> Result<Vec<ConjunctiveQuery>, ProgramParseError> {
    parse_program_spanned(input).map(|queries| queries.into_iter().map(|sq| sq.query).collect())
}

/// Like [`parse_program`], but each query comes with its span side table
/// (see [`SpannedQuery`]). Comment blanking keeps byte offsets identical, so
/// every span indexes into the **original** `input`, comments and all.
pub fn parse_program_spanned(input: &str) -> Result<Vec<SpannedQuery>, ProgramParseError> {
    let cleaned = blank_comments(input);
    let mut p = Parser::new(&cleaned);
    let mut queries = Vec::new();
    loop {
        p.skip_ws();
        if p.at_end() {
            break;
        }
        let q = p.query().map_err(|e| ProgramParseError::at(input, e.position, e.message))?;
        p.skip_ws();
        if !p.terminated && !p.at_end() {
            return Err(ProgramParseError::at(
                input,
                p.pos,
                "expected '.' before the next query".to_string(),
            ));
        }
        queries.push(q);
    }
    Ok(queries)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Whether the most recently parsed query consumed its trailing `.`.
    terminated: bool,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser { input, bytes: input.as_bytes(), pos: 0, terminated: false }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b) if b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, expected: u8) -> Result<(), ParseQueryError> {
        self.skip_ws();
        match self.peek() {
            Some(b) if b == expected => {
                self.pos += 1;
                Ok(())
            }
            other => Err(ParseQueryError::new(
                format!(
                    "expected '{}', found {}",
                    expected as char,
                    other.map_or("end of input".to_string(), |b| format!("'{}'", b as char))
                ),
                self.pos,
            )),
        }
    }

    fn identifier(&mut self) -> Result<String, ParseQueryError> {
        self.skip_ws();
        let start = self.pos;
        while matches!(self.peek(), Some(b) if b.is_ascii_alphanumeric() || b == b'_') {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(ParseQueryError::new("expected an identifier", self.pos));
        }
        Ok(self.input[start..self.pos].to_string())
    }

    fn number(&mut self) -> Result<u64, ParseQueryError> {
        self.skip_ws();
        let start = self.pos;
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(ParseQueryError::new("expected a number", self.pos));
        }
        self.input[start..self.pos]
            .parse()
            .map_err(|_| ParseQueryError::new("number too large", start))
    }

    fn query(&mut self) -> Result<SpannedQuery, ParseQueryError> {
        self.skip_ws();
        let name_start = self.pos;
        let name = self.identifier()?;
        let name_span = Span::new(name_start, self.pos);
        self.expect(b'(')?;
        let (head, head_term_spans) = self.term_list(b')')?;
        self.expect(b')')?;
        // Arrow: "<-" or ":-".
        self.skip_ws();
        match (self.bump(), self.bump()) {
            (Some(b'<'), Some(b'-')) | (Some(b':'), Some(b'-')) => {}
            _ => {
                return Err(ParseQueryError::new(
                    "expected '<-' or ':-'",
                    self.pos.saturating_sub(2),
                ))
            }
        }
        self.skip_ws();
        // Body: the keyword "true" (not merely a relation name that starts
        // with it, like `trueness`) or a list of atoms.
        let mut occurrences: Vec<AtomOccurrence> = Vec::new();
        let rest = &self.bytes[self.pos..];
        let true_keyword = rest.starts_with(b"true")
            && !matches!(rest.get(4), Some(b) if b.is_ascii_alphanumeric() || *b == b'_');
        let mut body_end;
        if true_keyword {
            self.pos += 4;
            body_end = self.pos;
        } else {
            loop {
                occurrences.push(self.atom()?);
                body_end = self.pos;
                self.skip_ws();
                if self.peek() == Some(b',') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        self.skip_ws();
        self.terminated = self.peek() == Some(b'.');
        if self.terminated {
            self.pos += 1;
        }
        let atoms = occurrences.iter().map(|occ| (occ.atom.clone(), occ.multiplicity));
        let query = ConjunctiveQuery::new(name, head, atoms);
        let spans = QuerySpans {
            span: Span::new(name_start, body_end),
            name_span,
            head_term_spans,
            atoms: occurrences,
        };
        Ok(SpannedQuery { query, spans })
    }

    fn atom(&mut self) -> Result<AtomOccurrence, ParseQueryError> {
        self.skip_ws();
        let start = self.pos;
        let relation = self.identifier()?;
        let relation_span = Span::new(start, self.pos);
        self.skip_ws();
        let mult = if self.peek() == Some(b'^') {
            self.pos += 1;
            let position = self.pos;
            let mult = self.number()?;
            if mult == 0 {
                return Err(ParseQueryError::new("multiplicity must be at least 1", position));
            }
            mult
        } else {
            1
        };
        self.expect(b'(')?;
        let (terms, term_spans) = self.term_list(b')')?;
        self.expect(b')')?;
        Ok(AtomOccurrence {
            atom: Atom::new(relation, terms),
            multiplicity: mult,
            span: Span::new(start, self.pos),
            relation_span,
            term_spans,
        })
    }

    fn term_list(&mut self, closing: u8) -> Result<(Vec<Term>, Vec<Span>), ParseQueryError> {
        let mut terms = Vec::new();
        let mut spans = Vec::new();
        self.skip_ws();
        if self.peek() == Some(closing) {
            return Ok((terms, spans));
        }
        loop {
            let (term, span) = self.term()?;
            terms.push(term);
            spans.push(span);
            self.skip_ws();
            if self.peek() == Some(b',') {
                self.pos += 1;
            } else {
                break;
            }
        }
        Ok((terms, spans))
    }

    fn term(&mut self) -> Result<(Term, Span), ParseQueryError> {
        self.skip_ws();
        let start = self.pos;
        let term = match self.peek() {
            Some(b'\'') => {
                self.pos += 1;
                let name = self.identifier()?;
                self.expect(b'\'')?;
                Term::constant(name)
            }
            Some(b'^') => {
                self.pos += 1;
                let name = self.identifier()?;
                Term::canon(name)
            }
            Some(b) if b.is_ascii_digit() => {
                let n = self.number()?;
                Term::constant(n.to_string())
            }
            Some(b) if b.is_ascii_alphabetic() || b == b'_' => Term::var(self.identifier()?),
            other => {
                return Err(ParseQueryError::new(
                    format!(
                        "expected a term, found {}",
                        other.map_or("end of input".to_string(), |b| format!("'{}'", b as char))
                    ),
                    self.pos,
                ))
            }
        };
        Ok((term, Span::new(start, self.pos)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_examples;

    #[test]
    fn parses_paper_section2_query() {
        let q =
            parse_query("q3(x1, x2) <- R^2(x1, y1), R(x1, y2), P^2(y2, y3), P(x2, y4).").unwrap();
        assert_eq!(q, paper_examples::section2_query_q3());
    }

    #[test]
    fn parses_constants_and_canonical_constants() {
        let q = parse_query("q(x1, x2) <- R^2(x1, x2), R('c1', x2), R^3(x1, 'c2')").unwrap();
        assert_eq!(q, paper_examples::section3_query_q1().with_name("q"));
        let g = parse_query("g(^x1, ^x2) <- R(^x1, ^x2)").unwrap();
        assert_eq!(g.head(), &[Term::canon("x1"), Term::canon("x2")]);
        assert!(g.body_atoms().all(Atom::is_ground));
    }

    #[test]
    fn numeric_constants() {
        let q = parse_query("q(x) <- R(x, 42)").unwrap();
        let atom = q.body_atoms().next().unwrap();
        assert_eq!(atom.terms()[1], Term::constant("42"));
    }

    #[test]
    fn boolean_and_empty_body_queries() {
        let b = parse_query("b() <- R('a', 'b'), R('b', 'c')").unwrap();
        assert!(b.is_boolean());
        assert_eq!(b.total_atom_count(), 2);
        let t = parse_query("t() <- true.").unwrap();
        assert!(t.is_boolean());
        assert_eq!(t.total_atom_count(), 0);
    }

    #[test]
    fn relations_starting_with_true_are_ordinary_atoms() {
        // "true" is a keyword only on a word boundary; `trueness(x)` and
        // `true_edge(x, y)` are legal relation names per the grammar's NAME.
        let q = parse_query("q(x) <- trueness(x, x).").unwrap();
        assert_eq!(q.body_atoms().next().unwrap().relation(), "trueness");
        let q = parse_query("q(x, y) <- true_edge(x, y)").unwrap();
        assert_eq!(q.total_atom_count(), 1);
        // A relation literally named "true" still cannot follow the keyword
        // interpretation — `true(x)` is the keyword then trailing input.
        assert!(parse_query("q(x) <- true(x)").is_err());
    }

    #[test]
    fn zero_multiplicities_are_rejected() {
        // The grammar requires a positive multiplicity; silently dropping
        // the atom would change verdicts without a diagnostic.
        let err = parse_query("q(x) <- R^0(x, x)").unwrap_err();
        assert!(err.to_string().contains("multiplicity"), "{err}");
        let err = parse_program("q(x) <- S(x), R^0(x, x).").unwrap_err();
        assert!(err.message().contains("multiplicity"), "{err}");
        assert!(parse_query("q(x) <- R^1(x, x)").is_ok());
    }

    #[test]
    fn prolog_style_arrow_and_no_period() {
        let q = parse_query("q(x) :- R(x, x)").unwrap();
        assert_eq!(q.arity(), 1);
    }

    #[test]
    fn roundtrip_through_display() {
        // Display output re-parses to the same query.
        for q in [
            paper_examples::section2_query_q1(),
            paper_examples::section2_query_q2(),
            paper_examples::section2_query_q3(),
            paper_examples::section3_query_q1(),
            paper_examples::section3_query_q2(),
        ] {
            let reparsed = parse_query(&q.to_string()).unwrap();
            assert_eq!(reparsed, q, "round-trip failed for {q}");
        }
    }

    #[test]
    fn error_positions_and_messages() {
        let err = parse_query("q(x) <- ").unwrap_err();
        assert!(err.to_string().contains("identifier"));
        let err = parse_query("q(x R(x)").unwrap_err();
        assert!(err.position() > 0);
        assert!(parse_query("q(x) - R(x)").is_err());
        assert!(parse_query("q(x) <- R(x, )").is_err());
        assert!(parse_query("q(x) <- R(x) extra").is_err());
        assert!(parse_query("").is_err());
        assert!(parse_query("q(x) <- R^(x)").is_err());
        assert!(parse_query("q(x) <- R('unterminated)").is_err());
    }

    #[test]
    fn parses_programs() {
        let queries = parse_program(
            "% Section 2 containment pair\n\
             q1(x1, x2) <- R^2(x1, x2), P^3(x2, x2).  # containee\n\
             q2(x1, x2) <- R^3(x1, x2), P^3(x2, x2)\n",
        )
        .unwrap();
        assert_eq!(queries.len(), 2);
        assert_eq!(queries[0], paper_examples::section2_query_q1());
        assert_eq!(queries[1], paper_examples::section2_query_q2());
        // One line, two terminated queries (the CLI acceptance shape).
        let queries = parse_program("q(x) <- R^2(x, x). p(x) <- R(x, y), R(y, x).").unwrap();
        assert_eq!(queries.len(), 2);
        // Empty and comment-only programs are fine (and empty).
        assert_eq!(parse_program("").unwrap(), vec![]);
        assert_eq!(parse_program("  % nothing here\n# or here\n").unwrap(), vec![]);
    }

    #[test]
    fn program_queries_must_be_separated_by_periods() {
        let err = parse_program("q(x) <- R(x, x)\np(x) <- S(x, x).").unwrap_err();
        assert!(err.message().contains("expected '.'"), "{err}");
        assert_eq!(err.line(), 2);
        assert_eq!(err.column(), 1);
    }

    #[test]
    fn program_errors_name_the_offending_line_and_column() {
        // Error on line 3: missing closing parenthesis in the head.
        let input = "% header comment\nq(x) <- R(x, x).\np(x <- R(x, x).\n";
        let err = parse_program(input).unwrap_err();
        assert_eq!(err.line(), 3);
        assert_eq!(err.column(), 5, "error should point at the '<' of line 3: {err}");
        let rendered = err.to_string();
        assert!(rendered.contains("line 3") && rendered.contains("column 5"), "{rendered}");

        // The same malformed text on line 1 reports line 1 — positions are
        // not cumulative across earlier successful queries.
        let err = parse_program("p(x <- R(x, x).").unwrap_err();
        assert_eq!((err.line(), err.column()), (1, 5));

        // Errors inside a comment-free region are unaffected by comment
        // blanking on earlier lines (offsets are preserved byte-for-byte).
        let err = parse_program("% a long comment línea\nq(x) <- R(x, ) .").unwrap_err();
        assert_eq!(err.line(), 2);
        assert_eq!(err.column(), 14);
    }

    #[test]
    fn union_separators_are_rejected_where_they_occur() {
        // Unions of conjunctive queries are outside the decidable fragment,
        // so `;` is not a separator: a single query stops right at it, and a
        // program reports its line and column.
        let input = "q1(x) <- R(x, x); q2(x) <- S(x)";
        let err = parse_query(input).unwrap_err();
        assert_eq!(err.position(), input.find(';').unwrap(), "{err}");
        assert!(err.to_string().contains("trailing input"), "{err}");
        let err = parse_program("q(x) <- R(x).\nq1(x) <- R(x, x); q2(x) <- S(x).").unwrap_err();
        assert_eq!((err.line(), err.column()), (2, 17), "{err}");
    }

    #[test]
    fn program_error_display_and_accessors() {
        let err = parse_program("q(x) <-").unwrap_err();
        assert!(err.line() == 1 && err.column() >= 8);
        assert!(!err.message().is_empty());
        let cloned = err.clone();
        assert_eq!(cloned, err);
    }
}
