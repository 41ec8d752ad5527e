//! S-expressions: the concrete syntax shared by every component of the
//! realistic-pe compiler suite.
//!
//! The paper's subject language, its desugared tail form, the residual
//! target language S₀, and the first-order input language of the Unmix
//! clone are all written as S-expressions.  This crate provides the
//! [`Sexpr`] data type, a [`read`] function (a classic
//! recursive-descent reader with source positions), and a pretty printer.
//!
//! # Example
//!
//! ```
//! use pe_sexpr::{read_one, Sexpr};
//!
//! let e = read_one("(define (append x y) (if (null? x) y 42))").unwrap();
//! assert!(e.is_list());
//! assert_eq!(e.list().unwrap()[0].sym(), Some("define"));
//! ```

mod print;
mod reader;

pub use pe_governor::Limits;
pub use print::{pretty, pretty_width};
pub use reader::{
    read, read_one, read_one_with, read_positioned, read_positioned_with, read_with, ReadError,
    ReadErrorKind,
};

use std::fmt;
use std::sync::Arc;

/// A source position (byte offset, 1-based line and column) attached to
/// reader errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    /// Byte offset into the input string.
    pub offset: usize,
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// An S-expression.
///
/// Symbols are interned per-expression via `Arc<str>` so that cloning large
/// trees (which the compiler pipeline does freely) stays cheap.
#[derive(Clone, PartialEq, Eq)]
pub enum Sexpr {
    /// A symbol such as `append` or `null?`.
    Sym(Arc<str>),
    /// A fixnum integer.
    Int(i64),
    /// A boolean written `#t` / `#f`.
    Bool(bool),
    /// A character written `#\a`, `#\space`, `#\newline`.
    Char(char),
    /// A string literal.
    Str(Arc<str>),
    /// A proper list `(e1 e2 ...)`; the empty list is `List(vec![])`.
    List(Vec<Sexpr>),
}

impl Sexpr {
    /// Builds a symbol.
    pub fn sym_of(name: &str) -> Sexpr {
        Sexpr::Sym(name.into())
    }

    /// Builds a proper list.
    pub fn list_of<I: IntoIterator<Item = Sexpr>>(items: I) -> Sexpr {
        Sexpr::List(items.into_iter().collect())
    }

    /// The empty list `()`.
    pub fn nil() -> Sexpr {
        Sexpr::List(Vec::new())
    }

    /// Returns the symbol name if this is a symbol.
    pub fn sym(&self) -> Option<&str> {
        match self {
            Sexpr::Sym(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the integer value if this is a fixnum.
    pub fn int(&self) -> Option<i64> {
        match self {
            Sexpr::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// Returns the elements if this is a list.
    pub fn list(&self) -> Option<&[Sexpr]> {
        match self {
            Sexpr::List(xs) => Some(xs),
            _ => None,
        }
    }

    /// True if this is a list (possibly empty).
    pub fn is_list(&self) -> bool {
        matches!(self, Sexpr::List(_))
    }

    /// True if this is the empty list.
    pub fn is_nil(&self) -> bool {
        matches!(self, Sexpr::List(xs) if xs.is_empty())
    }

    /// True if this is a list whose head is the symbol `head`.
    pub fn is_form(&self, head: &str) -> bool {
        match self {
            Sexpr::List(xs) => xs.first().and_then(Sexpr::sym) == Some(head),
            _ => false,
        }
    }

    /// If this is `(head a b ...)`, returns the arguments `[a, b, ...]`.
    pub fn form_args(&self, head: &str) -> Option<&[Sexpr]> {
        match self {
            Sexpr::List(xs) if xs.first().and_then(Sexpr::sym) == Some(head) => Some(&xs[1..]),
            _ => None,
        }
    }
}

impl Drop for Sexpr {
    fn drop(&mut self) {
        // Flatten nested lists iteratively before the automatic drop
        // glue runs: a 100k-deep residual must be droppable, not just
        // printable, without overflowing the host stack.
        if let Sexpr::List(xs) = self {
            let mut stack = std::mem::take(xs);
            while let Some(mut e) = stack.pop() {
                if let Sexpr::List(inner) = &mut e {
                    stack.append(inner);
                }
            }
        }
    }
}

impl fmt::Debug for Sexpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Sexpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_flat(self, f)
    }
}

/// Writes the single-line form of `e` using an explicit work stack, so
/// printing is total: residual programs from the specializer can nest
/// hundreds of thousands of levels deep, and a recursive `Display` would
/// overflow the host stack exactly where the reader (iterative since the
/// governor change) no longer does.  `Display` and the pretty printer
/// both funnel through here.
pub(crate) fn write_flat<W: fmt::Write>(e: &Sexpr, f: &mut W) -> fmt::Result {
    enum Step<'a> {
        Node(&'a Sexpr),
        Text(&'static str),
    }
    let mut work = vec![Step::Node(e)];
    while let Some(step) = work.pop() {
        let e = match step {
            Step::Text(s) => {
                f.write_str(s)?;
                continue;
            }
            Step::Node(e) => e,
        };
        match e {
            Sexpr::Sym(s) => f.write_str(s)?,
            Sexpr::Int(n) => write!(f, "{n}")?,
            Sexpr::Bool(true) => f.write_str("#t")?,
            Sexpr::Bool(false) => f.write_str("#f")?,
            Sexpr::Char(c) => match c {
                ' ' => f.write_str("#\\space")?,
                '\n' => f.write_str("#\\newline")?,
                '\t' => f.write_str("#\\tab")?,
                c => write!(f, "#\\{c}")?,
            },
            Sexpr::Str(s) => {
                f.write_str("\"")?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        '\n' => f.write_str("\\n")?,
                        c => write!(f, "{c}")?,
                    }
                }
                f.write_str("\"")?;
            }
            Sexpr::List(xs) => {
                f.write_str("(")?;
                work.push(Step::Text(")"));
                for (i, x) in xs.iter().enumerate().rev() {
                    work.push(Step::Node(x));
                    if i > 0 {
                        work.push(Step::Text(" "));
                    }
                }
            }
        }
    }
    Ok(())
}

impl From<i64> for Sexpr {
    fn from(n: i64) -> Sexpr {
        Sexpr::Int(n)
    }
}

impl From<bool> for Sexpr {
    fn from(b: bool) -> Sexpr {
        Sexpr::Bool(b)
    }
}

impl From<&str> for Sexpr {
    fn from(s: &str) -> Sexpr {
        Sexpr::Sym(s.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_atoms() {
        assert_eq!(Sexpr::Int(42).to_string(), "42");
        assert_eq!(Sexpr::Int(-7).to_string(), "-7");
        assert_eq!(Sexpr::Bool(true).to_string(), "#t");
        assert_eq!(Sexpr::Bool(false).to_string(), "#f");
        assert_eq!(Sexpr::sym_of("car").to_string(), "car");
        assert_eq!(Sexpr::Char('x').to_string(), "#\\x");
        assert_eq!(Sexpr::Char(' ').to_string(), "#\\space");
        assert_eq!(Sexpr::Char('\n').to_string(), "#\\newline");
    }

    #[test]
    fn display_strings_escape() {
        assert_eq!(
            Sexpr::Str("a\"b\\c\nd".into()).to_string(),
            "\"a\\\"b\\\\c\\nd\""
        );
    }

    #[test]
    fn display_lists() {
        let e = Sexpr::list_of([Sexpr::sym_of("+"), Sexpr::Int(1), Sexpr::nil()]);
        assert_eq!(e.to_string(), "(+ 1 ())");
    }

    #[test]
    fn form_accessors() {
        let e = read_one("(define (f x) x)").unwrap();
        assert!(e.is_form("define"));
        assert!(!e.is_form("lambda"));
        let args = e.form_args("define").unwrap();
        assert_eq!(args.len(), 2);
        assert_eq!(args[1].sym(), Some("x"));
    }

    #[test]
    fn display_is_total_on_deep_trees() {
        // 200k nested lists: a recursive Display would overflow the
        // host stack long before this depth.
        let mut e = Sexpr::Int(7);
        for _ in 0..200_000 {
            e = Sexpr::list_of([e]);
        }
        let s = e.to_string();
        assert_eq!(s.len(), 2 * 200_000 + 1);
        assert!(s.starts_with("((") && s.ends_with("))"));
        assert!(s.contains('7'));
    }

    #[test]
    fn is_nil_only_for_empty_list() {
        assert!(Sexpr::nil().is_nil());
        assert!(!Sexpr::Int(0).is_nil());
        assert!(!Sexpr::list_of([Sexpr::Int(0)]).is_nil());
    }
}
