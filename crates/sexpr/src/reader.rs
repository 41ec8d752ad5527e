//! A recursive-descent S-expression reader with source positions.
//!
//! The reader is a governed entry point: nesting depth is capped by
//! [`Limits::max_syntax_depth`] and total node count by
//! [`Limits::max_heap`], so hostile input (a megabyte of `(`, a huge
//! quoted datum) produces a positioned [`ReadError`] instead of a stack
//! overflow or unbounded allocation.  The depth check fires *before*
//! deep structure is built, which also keeps drop glue shallow.

use crate::{Pos, Sexpr};
use pe_governor::Limits;
use std::fmt;

/// An error produced while reading S-expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadError {
    /// Where in the input the error occurred.
    pub pos: Pos,
    /// What went wrong.
    pub kind: ReadErrorKind,
}

/// The kinds of reader errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadErrorKind {
    /// Input ended inside a list or other composite token.
    UnexpectedEof,
    /// A `)` with no matching `(`.
    UnbalancedClose,
    /// A malformed `#...` token.
    BadHash(String),
    /// A string literal was not terminated.
    UnterminatedString,
    /// An integer literal overflowed `i64`.
    IntOverflow(String),
    /// Dotted pairs are not part of the subject language.
    DottedPair,
    /// Nesting exceeded [`Limits::max_syntax_depth`].
    TooDeep { limit: usize },
    /// Node count exceeded [`Limits::max_heap`].
    TooLarge { limit: u64 },
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ReadErrorKind::UnexpectedEof => write!(f, "{}: unexpected end of input", self.pos),
            ReadErrorKind::UnbalancedClose => write!(f, "{}: unbalanced ')'", self.pos),
            ReadErrorKind::BadHash(t) => write!(f, "{}: bad token #{t}", self.pos),
            ReadErrorKind::UnterminatedString => write!(f, "{}: unterminated string", self.pos),
            ReadErrorKind::IntOverflow(t) => write!(f, "{}: integer overflows fixnum: {t}", self.pos),
            ReadErrorKind::DottedPair => {
                write!(f, "{}: dotted pairs are not supported", self.pos)
            }
            ReadErrorKind::TooDeep { limit } => {
                write!(f, "{}: nesting exceeds the depth limit of {limit}", self.pos)
            }
            ReadErrorKind::TooLarge { limit } => {
                write!(f, "{}: input exceeds the size limit of {limit} nodes", self.pos)
            }
        }
    }
}

impl std::error::Error for ReadError {}

struct Reader<'a> {
    src: &'a str,
    bytes: &'a [u8],
    offset: usize,
    line: u32,
    col: u32,
    nodes: u64,
    limits: Limits,
}

impl<'a> Reader<'a> {
    fn new(src: &'a str, limits: &Limits) -> Self {
        Reader {
            src,
            bytes: src.as_bytes(),
            offset: 0,
            line: 1,
            col: 1,
            nodes: 0,
            limits: *limits,
        }
    }

    fn pos(&self) -> Pos {
        Pos { offset: self.offset, line: self.line, col: self.col }
    }

    fn err(&self, kind: ReadErrorKind) -> ReadError {
        ReadError { pos: self.pos(), kind }
    }

    /// Charges one constructed node against the size budget.
    fn charge(&mut self) -> Result<(), ReadError> {
        self.nodes += 1;
        if self.nodes > self.limits.max_heap {
            return Err(self.err(ReadErrorKind::TooLarge { limit: self.limits.max_heap }));
        }
        Ok(())
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.offset).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.offset += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn skip_ws_and_comments(&mut self) {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b';') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => return,
            }
        }
    }

    /// Reads one expression with an explicit frame stack: the host stack
    /// never grows with input nesting, so the depth limit is a purely
    /// structural bound and an over-deep input traps instead of
    /// overflowing (the old recursive reader aborted on ~100k-deep
    /// input even in release builds).
    fn read_expr(&mut self) -> Result<Sexpr, ReadError> {
        enum Frame {
            List(Vec<Sexpr>),
            Quote,
        }
        let mut stack: Vec<Frame> = Vec::new();
        loop {
            self.skip_ws_and_comments();
            let completed = match self.peek() {
                None => return Err(self.err(ReadErrorKind::UnexpectedEof)),
                Some(b'(') | Some(b'[') => {
                    if stack.len() >= self.limits.max_syntax_depth {
                        return Err(
                            self.err(ReadErrorKind::TooDeep { limit: self.limits.max_syntax_depth })
                        );
                    }
                    self.bump();
                    stack.push(Frame::List(Vec::new()));
                    continue;
                }
                Some(b')') | Some(b']') => match stack.pop() {
                    Some(Frame::List(items)) => {
                        self.bump();
                        self.charge()?;
                        Sexpr::List(items)
                    }
                    // `)` at top level, or right after a quote mark.
                    _ => return Err(self.err(ReadErrorKind::UnbalancedClose)),
                },
                Some(b'\'') => {
                    if stack.len() >= self.limits.max_syntax_depth {
                        return Err(
                            self.err(ReadErrorKind::TooDeep { limit: self.limits.max_syntax_depth })
                        );
                    }
                    self.bump();
                    stack.push(Frame::Quote);
                    continue;
                }
                Some(b'"') => self.read_string()?,
                Some(b'#') => self.read_hash()?,
                Some(b'.') if matches!(stack.last(), Some(Frame::List(_))) => {
                    // A lone dot inside a list introduces a dotted pair,
                    // which the subject language excludes; `.5`-style
                    // atoms do not occur because floats are not in the
                    // language either.
                    let next = self.bytes.get(self.offset + 1).copied();
                    if next.is_none() || next.is_some_and(|b| b.is_ascii_whitespace() || b == b')') {
                        return Err(self.err(ReadErrorKind::DottedPair));
                    }
                    self.read_atom()?
                }
                Some(_) => self.read_atom()?,
            };
            // A complete expression: unwind pending quotes, then either
            // attach it to the enclosing list or return it.
            let mut expr = completed;
            loop {
                match stack.last_mut() {
                    Some(Frame::Quote) => {
                        stack.pop();
                        self.charge()?;
                        self.charge()?;
                        expr = Sexpr::list_of([Sexpr::sym_of("quote"), expr]);
                    }
                    Some(Frame::List(items)) => {
                        items.push(expr);
                        break;
                    }
                    None => return Ok(expr),
                }
            }
        }
    }

    /// Reads a string literal.  Its bytes are collected and decoded
    /// once: an escape inserts an ASCII byte (`\n`, `\t`, or the
    /// escaped byte itself), so a multi-byte character passes through
    /// whole and the bytes stay the UTF-8 of the source.
    fn read_string(&mut self) -> Result<Sexpr, ReadError> {
        self.bump(); // consume '"'
        let mut bytes = Vec::new();
        loop {
            match self.bump() {
                None => return Err(self.err(ReadErrorKind::UnterminatedString)),
                Some(b'"') => {
                    self.charge()?;
                    return Ok(Sexpr::Str(String::from_utf8_lossy(&bytes).into()));
                }
                Some(b'\\') => match self.bump() {
                    None => return Err(self.err(ReadErrorKind::UnterminatedString)),
                    Some(b'n') => bytes.push(b'\n'),
                    Some(b't') => bytes.push(b'\t'),
                    Some(b) => bytes.push(b),
                },
                Some(b) => bytes.push(b),
            }
        }
    }

    fn read_hash(&mut self) -> Result<Sexpr, ReadError> {
        let start = self.pos();
        self.bump(); // consume '#'
        match self.peek() {
            Some(b't') => {
                self.bump();
                self.charge()?;
                Ok(Sexpr::Bool(true))
            }
            Some(b'f') => {
                self.bump();
                self.charge()?;
                Ok(Sexpr::Bool(false))
            }
            Some(b'\\') => {
                self.bump();
                let tok_start = self.offset;
                // A character token is at least one character long, all
                // of whose bytes it takes; named characters extend while
                // alphabetic.
                let Some(first) = self.src[tok_start..].chars().next() else {
                    return Err(ReadError { pos: start, kind: ReadErrorKind::UnexpectedEof });
                };
                for _ in 0..first.len_utf8() {
                    self.bump();
                }
                while self.peek().is_some_and(|b| b.is_ascii_alphanumeric() || b == b'-') {
                    self.bump();
                }
                let tok = &self.src[tok_start..self.offset];
                let single = {
                    let mut it = tok.chars();
                    match (it.next(), it.next()) {
                        (Some(c), None) => Some(c),
                        _ => None,
                    }
                };
                match tok {
                    "space" => Ok(Sexpr::Char(' ')),
                    "newline" => Ok(Sexpr::Char('\n')),
                    "tab" => Ok(Sexpr::Char('\t')),
                    _ => match single {
                        Some(c) => {
                            self.charge()?;
                            Ok(Sexpr::Char(c))
                        }
                        None => Err(ReadError {
                            pos: start,
                            kind: ReadErrorKind::BadHash(format!("\\{tok}")),
                        }),
                    },
                }
            }
            _ => {
                let tok_start = self.offset;
                while self.peek().is_some_and(|b| !b.is_ascii_whitespace() && b != b'(' && b != b')')
                {
                    self.bump();
                }
                Err(ReadError {
                    pos: start,
                    kind: ReadErrorKind::BadHash(self.src[tok_start..self.offset].to_string()),
                })
            }
        }
    }

    fn read_atom(&mut self) -> Result<Sexpr, ReadError> {
        let start = self.offset;
        while self.peek().is_some_and(|b| {
            !b.is_ascii_whitespace()
                && b != b'('
                && b != b')'
                && b != b'['
                && b != b']'
                && b != b';'
                && b != b'"'
                && b != b'\''
        }) {
            self.bump();
        }
        let tok = &self.src[start..self.offset];
        debug_assert!(!tok.is_empty());
        self.charge()?;
        // Integer literals: optional sign followed by digits.
        let body = tok.strip_prefix(['-', '+']).unwrap_or(tok);
        if !body.is_empty() && body.bytes().all(|b| b.is_ascii_digit()) {
            match tok.parse::<i64>() {
                Ok(n) => return Ok(Sexpr::Int(n)),
                Err(_) => {
                    return Err(self.err(ReadErrorKind::IntOverflow(tok.to_string())));
                }
            }
        }
        Ok(Sexpr::Sym(tok.into()))
    }
}

/// Reads every S-expression in `src` under explicit [`Limits`].
///
/// # Errors
///
/// Returns a [`ReadError`] with position information on malformed input
/// or input exceeding the depth/size limits.
pub fn read_with(src: &str, limits: &Limits) -> Result<Vec<Sexpr>, ReadError> {
    Ok(read_positioned_with(src, limits)?.into_iter().map(|(e, _)| e).collect())
}

/// Reads every top-level S-expression in `src` together with the source
/// position where each form starts — parsers above the reader use this
/// to attach positions to their own diagnostics.
///
/// # Errors
///
/// See [`read_with`].
pub fn read_positioned_with(
    src: &str,
    limits: &Limits,
) -> Result<Vec<(Sexpr, Pos)>, ReadError> {
    let mut r = Reader::new(src, limits);
    let mut out = Vec::new();
    loop {
        r.skip_ws_and_comments();
        if r.peek().is_none() {
            return Ok(out);
        }
        let pos = r.pos();
        out.push((r.read_expr()?, pos));
    }
}

/// Reads every top-level S-expression with its start position, under
/// default [`Limits`].
///
/// # Errors
///
/// See [`read_with`].
pub fn read_positioned(src: &str) -> Result<Vec<(Sexpr, Pos)>, ReadError> {
    read_positioned_with(src, &Limits::default())
}

/// Reads every S-expression in `src` under default [`Limits`].
///
/// # Errors
///
/// Returns a [`ReadError`] with position information on malformed input.
pub fn read(src: &str) -> Result<Vec<Sexpr>, ReadError> {
    read_with(src, &Limits::default())
}

/// Reads exactly one S-expression under explicit [`Limits`]; trailing
/// input after the first expression is ignored.
///
/// # Errors
///
/// Returns a [`ReadError`] on malformed or empty input.
pub fn read_one_with(src: &str, limits: &Limits) -> Result<Sexpr, ReadError> {
    let mut r = Reader::new(src, limits);
    r.read_expr()
}

/// Reads exactly one S-expression under default [`Limits`]; trailing
/// input after the first expression is ignored.
///
/// # Errors
///
/// Returns a [`ReadError`] on malformed or empty input.
pub fn read_one(src: &str) -> Result<Sexpr, ReadError> {
    read_one_with(src, &Limits::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    type R = Result<(), ReadError>;

    #[test]
    fn reads_atoms() -> R {
        assert_eq!(read_one("42")?, Sexpr::Int(42));
        assert_eq!(read_one("-42")?, Sexpr::Int(-42));
        assert_eq!(read_one("+42")?, Sexpr::Int(42));
        assert_eq!(read_one("#t")?, Sexpr::Bool(true));
        assert_eq!(read_one("#f")?, Sexpr::Bool(false));
        assert_eq!(read_one("null?")?, Sexpr::sym_of("null?"));
        assert_eq!(read_one("-")?, Sexpr::sym_of("-"));
        assert_eq!(read_one("+")?, Sexpr::sym_of("+"));
        assert_eq!(read_one("1+")?, Sexpr::sym_of("1+"));
        Ok(())
    }

    #[test]
    fn reads_chars() -> R {
        assert_eq!(read_one("#\\a")?, Sexpr::Char('a'));
        assert_eq!(read_one("#\\space")?, Sexpr::Char(' '));
        assert_eq!(read_one("#\\newline")?, Sexpr::Char('\n'));
        assert_eq!(read_one("#\\0")?, Sexpr::Char('0'));
        assert_eq!(read_one("#\\é")?, Sexpr::Char('é'));
        assert_eq!(
            read("(#\\λ #\\→)")?,
            vec![Sexpr::list_of([Sexpr::Char('λ'), Sexpr::Char('→')])]
        );
        Ok(())
    }

    #[test]
    fn reads_strings() -> R {
        assert_eq!(read_one("\"hi\"")?, Sexpr::Str("hi".into()));
        assert_eq!(read_one("\"a\\\"b\"")?, Sexpr::Str("a\"b".into()));
        assert_eq!(read_one("\"a\\nb\"")?, Sexpr::Str("a\nb".into()));
        assert_eq!(read_one("\"é\\λ\"")?, Sexpr::Str("éλ".into()));
        Ok(())
    }

    #[test]
    fn reads_lists_and_brackets() -> R {
        let e = read_one("(+ 1 (  * 2 3 ))")?;
        assert_eq!(e.to_string(), "(+ 1 (* 2 3))");
        let e = read_one("[+ 1 2]")?;
        assert_eq!(e.to_string(), "(+ 1 2)");
        assert_eq!(read_one("()")?, Sexpr::nil());
        Ok(())
    }

    #[test]
    fn reads_quote_sugar() -> R {
        let e = read_one("'(a b)")?;
        assert_eq!(e.to_string(), "(quote (a b))");
        let e = read_one("''x")?;
        assert_eq!(e.to_string(), "(quote (quote x))");
        Ok(())
    }

    #[test]
    fn skips_comments() -> R {
        let es = read("; hello\n(a) ; trailing\n(b)")?;
        assert_eq!(es.len(), 2);
        assert_eq!(es[0].to_string(), "(a)");
        assert_eq!(es[1].to_string(), "(b)");
        Ok(())
    }

    #[test]
    fn error_positions() {
        let e = read("(a\n   b").unwrap_err();
        assert_eq!(e.kind, ReadErrorKind::UnexpectedEof);
        assert_eq!(e.pos.line, 2);
        let e = read(")").unwrap_err();
        assert_eq!(e.kind, ReadErrorKind::UnbalancedClose);
        assert_eq!(e.pos.line, 1);
        assert_eq!(e.pos.col, 1);
    }

    #[test]
    fn rejects_dotted_pairs() {
        let e = read("(a . b)").unwrap_err();
        assert_eq!(e.kind, ReadErrorKind::DottedPair);
    }

    #[test]
    fn rejects_overflow_and_bad_hash() {
        let e = read("99999999999999999999").unwrap_err();
        assert!(matches!(e.kind, ReadErrorKind::IntOverflow(_)));
        let e = read("#q").unwrap_err();
        assert!(matches!(e.kind, ReadErrorKind::BadHash(_)));
        let e = read("#\\spaces").unwrap_err();
        assert!(matches!(e.kind, ReadErrorKind::BadHash(_)));
    }

    #[test]
    fn unterminated_string() {
        let e = read("\"abc").unwrap_err();
        assert_eq!(e.kind, ReadErrorKind::UnterminatedString);
    }

    #[test]
    fn reads_many() -> R {
        let es = read("1 2 (3 4) five")?;
        assert_eq!(es.len(), 4);
        Ok(())
    }

    #[test]
    fn empty_input_is_empty_vec() -> R {
        assert_eq!(read("")?, vec![]);
        assert_eq!(read("  ; only a comment")?, vec![]);
        Ok(())
    }

    #[test]
    fn positions_of_top_level_forms() -> R {
        let forms = read_positioned("(a)\n  (b)")?;
        assert_eq!(forms.len(), 2);
        assert_eq!((forms[0].1.line, forms[0].1.col), (1, 1));
        assert_eq!((forms[1].1.line, forms[1].1.col), (2, 3));
        Ok(())
    }

    /// Regression test for the unbounded-recursion bug: a 100k-deep
    /// nest used to overflow the host stack; now it traps at the depth
    /// limit before building any deep structure.
    #[test]
    fn hundred_thousand_deep_nest_traps_not_overflows() {
        let deep = "(".repeat(100_000);
        let e = read(&deep).unwrap_err();
        assert!(matches!(e.kind, ReadErrorKind::TooDeep { .. }), "{e}");
        // Same for a closed (well-formed) nest and for quote chains.
        let closed = format!("{}{}", "(".repeat(100_000), ")".repeat(100_000));
        let e = read(&closed).unwrap_err();
        assert!(matches!(e.kind, ReadErrorKind::TooDeep { .. }), "{e}");
        let quotes = format!("{}x", "'".repeat(100_000));
        let e = read(&quotes).unwrap_err();
        assert!(matches!(e.kind, ReadErrorKind::TooDeep { .. }), "{e}");
    }

    #[test]
    fn depth_limit_is_configurable() {
        let lim = Limits { max_syntax_depth: 4, ..Limits::default() };
        assert!(read_with("((((0))))", &lim).is_ok());
        let e = read_with("(((((0)))))", &lim).unwrap_err();
        assert_eq!(e.kind, ReadErrorKind::TooDeep { limit: 4 });
        // Quote sugar counts toward nesting depth too.
        let e = read_with("''''' x", &lim).unwrap_err();
        assert_eq!(e.kind, ReadErrorKind::TooDeep { limit: 4 });
    }

    #[test]
    fn node_budget_caps_huge_data() {
        let lim = Limits { max_heap: 10, ..Limits::default() };
        let big = format!("({})", "x ".repeat(1_000));
        let e = read_with(&big, &lim).unwrap_err();
        assert_eq!(e.kind, ReadErrorKind::TooLarge { limit: 10 });
        // Small input is unaffected.
        assert!(read_with("(x y z)", &lim).is_ok());
    }
}
