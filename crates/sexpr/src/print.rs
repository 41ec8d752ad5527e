//! A simple indentation-based pretty printer for S-expressions.
//!
//! Residual programs produced by the specializer can be deeply nested;
//! the pretty printer keeps them readable in golden tests, examples and
//! `EXPERIMENTS.md` listings.  Like the reader, it is fully iterative:
//! layout decisions and emission run over explicit work stacks, so a
//! 100k-deep residual pretty-prints without touching the host stack.
//!
//! The printer lays out any [`Layout`] tree — a node is an [`Atom`] or
//! a list of nodes — so a program representation can be printed as it
//! would print as an [`Sexpr`] without first being built as one: the S₀
//! printer of pe-flow walks its own types through this trait.  The
//! layout rules (the line width, the flat-fit test, the head rule and
//! the indent clamp) and the atoms' spelling exist only here.

use crate::Sexpr;
use std::fmt::{self, Write as _};

/// The default line width, in columns.
const WIDTH: usize = 78;

/// A leaf of a [`Layout`] tree, spelled as [`Sexpr`]'s atoms are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Atom<'a> {
    /// A symbol, written as is.
    Sym(&'a str),
    /// A fixnum.
    Int(i64),
    /// `#t` / `#f`.
    Bool(bool),
    /// A character literal.
    Char(char),
    /// A string literal, written with escapes.
    Str(&'a str),
}

/// What a [`Layout`] node is: an atom, or a list of its elements.
pub enum Node<'a, I> {
    /// A leaf.
    Atom(Atom<'a>),
    /// A list, by an iterator over its elements in order.
    List(I),
}

/// A tree the pretty printer lays out: every node is an [`Atom`] or a
/// list of nodes.  [`Sexpr`] is one; a program representation that
/// prints as S-expressions can be another, viewed in place.
pub trait Layout<'a>: Copy {
    /// The elements of a list node.
    type Elems: Iterator<Item = Self> + Clone;

    /// This node as an atom or a list.
    fn node(self) -> Node<'a, Self::Elems>;
}

impl<'a> Layout<'a> for &'a Sexpr {
    type Elems = std::slice::Iter<'a, Sexpr>;

    fn node(self) -> Node<'a, Self::Elems> {
        Node::Atom(match self {
            Sexpr::Sym(s) => Atom::Sym(s),
            Sexpr::Int(n) => Atom::Int(*n),
            Sexpr::Bool(b) => Atom::Bool(*b),
            Sexpr::Char(c) => Atom::Char(*c),
            Sexpr::Str(s) => Atom::Str(s),
            Sexpr::List(xs) => return Node::List(xs.iter()),
        })
    }
}

/// Pretty-prints `e` with the default line width of 78 columns.
pub fn pretty(e: &Sexpr) -> String {
    pretty_width(e, WIDTH)
}

/// Pretty-prints `e`, breaking lists that would exceed `width` columns.
pub fn pretty_width(e: &Sexpr, width: usize) -> String {
    let mut out = String::new();
    layout(e, width, &mut out);
    out
}

/// Appends the layout of `t` at the default line width of 78 columns
/// to `out`: exactly what [`pretty`] returns for the [`Sexpr`] `t`
/// stands for.
pub fn write_pretty<'a, T: Layout<'a>>(t: T, out: &mut String) {
    layout(t, WIDTH, out);
}

/// Heads whose first arguments stay on the head line when broken, in the
/// style of Lisp pretty printers (`define`, `lambda`, `let`, `if`).
fn head_args_on_line(head: &str) -> usize {
    match head {
        "define" | "lambda" | "let" => 1,
        "if" => 1,
        _ => 0,
    }
}

fn write_atom<W: fmt::Write>(a: Atom<'_>, f: &mut W) -> fmt::Result {
    match a {
        Atom::Sym(s) => f.write_str(s),
        Atom::Int(n) => write!(f, "{n}"),
        Atom::Bool(true) => f.write_str("#t"),
        Atom::Bool(false) => f.write_str("#f"),
        Atom::Char(' ') => f.write_str("#\\space"),
        Atom::Char('\n') => f.write_str("#\\newline"),
        Atom::Char('\t') => f.write_str("#\\tab"),
        Atom::Char(c) => write!(f, "#\\{c}"),
        Atom::Str(s) => {
            f.write_str("\"")?;
            for c in s.chars() {
                match c {
                    '"' => f.write_str("\\\"")?,
                    '\\' => f.write_str("\\\\")?,
                    '\n' => f.write_str("\\n")?,
                    c => f.write_char(c)?,
                }
            }
            f.write_str("\"")
        }
    }
}

/// A writer that counts the bytes it passes on.
struct Counted<'w, W> {
    w: &'w mut W,
    bytes: usize,
}

impl<W: fmt::Write> fmt::Write for Counted<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes += s.len();
        self.w.write_str(s)
    }
}

/// The lists [`write_flat`] has open, each with whether an element was
/// written yet; kept by callers that write many nodes, so the stack is
/// allocated once.
type Open<'a, T> = Vec<(<T as Layout<'a>>::Elems, bool)>;

/// Writes the single-line form of `t` using an explicit work stack, so
/// printing is total: residual programs from the specializer can nest
/// hundreds of thousands of levels deep, and a recursive `Display` would
/// overflow the host stack exactly where the reader (iterative since the
/// governor change) no longer does.  `Display` and the pretty printer
/// both funnel through here.
///
/// This is also the flat-fit test: the write stops once it has passed
/// `budget` bytes and returns `Ok(false)`, so a test costs
/// O(min(size, budget)) and the printer stays linear in practice.
pub(crate) fn write_flat<'a, T: Layout<'a>, W: fmt::Write>(
    t: T,
    w: &mut W,
    budget: usize,
    open: &mut Open<'a, T>,
) -> Result<bool, fmt::Error> {
    open.clear();
    flat_from(Some(t), w, budget, open)
}

/// The walk of [`write_flat`]: writes `next`, then closes the lists
/// `open` holds, each after its remaining elements.
fn flat_from<'a, T: Layout<'a>, W: fmt::Write>(
    mut next: Option<T>,
    w: &mut W,
    budget: usize,
    open: &mut Open<'a, T>,
) -> Result<bool, fmt::Error> {
    let f = &mut Counted { w, bytes: 0 };
    loop {
        if let Some(t) = next.take() {
            match t.node() {
                Node::Atom(a) => write_atom(a, f)?,
                Node::List(elems) => {
                    f.write_str("(")?;
                    open.push((elems, false));
                }
            }
        }
        if f.bytes > budget {
            return Ok(false);
        }
        let Some((elems, started)) = open.last_mut() else {
            return Ok(true);
        };
        match elems.next() {
            Some(x) => {
                if std::mem::replace(started, true) {
                    f.write_str(" ")?;
                }
                next = Some(x);
            }
            None => {
                f.write_str(")")?;
                open.pop();
            }
        }
    }
}

/// One pending step of [`layout`].
enum Step<'a, T: Layout<'a>> {
    /// Lay out a node at the given indentation.
    Node(T, usize),
    /// The elements of a broken list after its head line: each starts a
    /// line indented by `indent`, and the list closes after the last.
    Rest { elems: T::Elems, indent: usize },
}

/// Lays `root` out in `width` columns: a list whose flat form does not
/// fit in the columns left of its indentation breaks, its head's first
/// arguments on the head line (see [`head_args_on_line`]; they stay flat
/// however long) and every other element on a line of its own, two
/// columns in.
fn layout<'a, T: Layout<'a>>(root: T, width: usize, out: &mut String) {
    let mut open = Vec::new();
    let mut work = vec![Step::Node(root, 0)];
    // Writing to a String cannot fail.
    while let Some(step) = work.pop() {
        match step {
            Step::Node(t, indent) => {
                let Node::List(mut elems) = t.node() else {
                    let _ = write_flat(t, out, usize::MAX, &mut open);
                    continue;
                };
                let budget = width.saturating_sub(indent);
                // Clamp runaway indentation: past `width` columns the
                // indent no longer aids readability, and letting it
                // grow makes output size quadratic in nesting depth.
                let indent_rest = (indent + 2).min(width);
                let start = out.len();
                let head = elems.next();
                let Some(Node::Atom(atom)) = head.map(|h| h.node()) else {
                    // An empty list, or a list head whose own layout
                    // may break: try the list flat, else break it.
                    if write_flat(t, out, budget, &mut open) == Ok(true) {
                        continue;
                    }
                    out.truncate(start);
                    let Some(head) = head else {
                        out.push_str("()");
                        continue;
                    };
                    out.push('(');
                    work.push(Step::Rest { elems, indent: indent_rest });
                    work.push(Step::Node(head, (indent + 1).min(width)));
                    continue;
                };
                // An atom head and the arguments its rule keeps on the
                // head line read the same flat or broken: write them,
                // then try the rest of the list flat in what is left of
                // the budget, and break the rest if it does not fit.
                out.push('(');
                let _ = write_atom(atom, out);
                let keep = match atom {
                    Atom::Sym(s) => head_args_on_line(s),
                    _ => 0,
                };
                for x in elems.by_ref().take(keep) {
                    out.push(' ');
                    let _ = write_flat(x, out, usize::MAX, &mut open);
                }
                let line = out.len();
                if let Some(left) = budget.checked_sub(line - start) {
                    open.clear();
                    open.push((elems.clone(), true));
                    if flat_from(None::<T>, out, left, &mut open) == Ok(true) {
                        continue;
                    }
                    out.truncate(line);
                }
                work.push(Step::Rest { elems, indent: indent_rest });
            }
            Step::Rest { mut elems, indent } => match elems.next() {
                Some(x) => {
                    out.push('\n');
                    out.extend(std::iter::repeat_n(' ', indent));
                    work.push(Step::Rest { elems, indent });
                    work.push(Step::Node(x, indent));
                }
                None => out.push(')'),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read_one;

    #[test]
    fn short_expressions_stay_flat() {
        let e = read_one("(+ 1 2)").unwrap();
        assert_eq!(pretty(&e), "(+ 1 2)");
    }

    #[test]
    fn long_expressions_break() {
        let e = read_one(
            "(define (f x) (if (null? x) something-quite-long-here \
             (another-long-function-name x x x x)))",
        )
        .unwrap();
        let p = pretty_width(&e, 40);
        assert!(p.contains('\n'));
        // Re-reading the pretty-printed form yields the same tree.
        assert_eq!(read_one(&p).unwrap(), e);
    }

    #[test]
    fn pretty_roundtrips() {
        for src in [
            "(define (append x y) (cps-append x y (lambda (v) v)))",
            "(a (b (c (d (e (f (g (h (i (j 1 2 3 4 5 6 7 8 9 10))))))))))",
            "(quote (1 2 3 #t #\\a \"str\"))",
        ] {
            let e = read_one(src).unwrap();
            let p = pretty_width(&e, 20);
            assert_eq!(read_one(&p).unwrap(), e, "roundtrip failed for {src}");
        }
    }

    #[test]
    fn fits_flat_matches_display_length() {
        for src in [
            "(+ 1 2)",
            "()",
            "(a (b -10 0 1024) #t #f #\\x #\\space \"a\\\"b\\\\c\\nd\")",
            "(define (f x) (if (null? x) y (g x 1)))",
        ] {
            let e = read_one(src).unwrap();
            let n = e.to_string().len();
            let fits = |budget| write_flat(&e, &mut String::new(), budget, &mut Vec::new());
            assert_eq!(fits(n), Ok(true), "{src} should fit in its own length");
            assert_eq!(fits(n - 1), Ok(false), "{src} should not fit in one less");
        }
    }

    #[test]
    fn pretty_is_total_on_deep_trees() {
        // 100k nested single-element lists: the recursive printer
        // overflowed the stack here, and the O(n²) flat_len made it
        // quadratic well before that.
        let mut e = Sexpr::Int(1);
        for _ in 0..100_000 {
            e = Sexpr::list_of([e]);
        }
        let p = pretty_width(&e, 10);
        assert_eq!(p.len(), 2 * 100_000 + 1);
        assert!(p.starts_with('(') && p.ends_with(')'));
    }

    #[test]
    fn deep_defines_break_without_recursion() {
        // Nested defines force the "broken list" path at every level.
        let mut e = read_one("(f x)").unwrap();
        for _ in 0..50_000 {
            e = Sexpr::list_of([
                Sexpr::sym_of("begin"),
                Sexpr::sym_of("this-symbol-is-long-enough-to-break-lines"),
                e,
            ]);
        }
        let p = pretty_width(&e, 30);
        assert!(p.contains('\n'));
        assert!(p.ends_with(')'));
    }
}
