//! Runtime values, shared by every execution engine in the suite.
//!
//! [`Value`] is generic over the closure representation `C`: the standard
//! interpreter (Fig. 3) uses environment-capturing closures, the
//! closure-converted ones (Fig. 4/6) and the S₀ virtual machine use flat
//! closure records, and first-order *results* use the uninhabited
//! [`NoClosure`] so that [`Datum`] is statically closure-free.
//! Primitive application ([`apply_prim`]) is shared across all engines.
//!
//! Representation note: strings and symbols are `Arc<str>` so they can
//! be shared pointer-for-pointer with the *program* representation
//! (`Constant`, `Sexpr`), which must be `Send` for the compile service.
//! Pairs and closure records are `Rc`: runtime values are engine-local
//! and never cross threads — only compiled programs do — and the
//! cons/car/cdr loop is every engine's hottest path, where atomic
//! reference counting costs a measurable 7–20%.

use pe_frontend::ast::{Constant, Prim};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// A runtime value with closure representation `C`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value<C> {
    /// A fixnum.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// A character.
    Char(char),
    /// A string.
    Str(Arc<str>),
    /// A symbol.
    Sym(Arc<str>),
    /// The empty list.
    Nil,
    /// A pair.
    Pair(Rc<(Value<C>, Value<C>)>),
    /// A closure.
    Closure(C),
}

/// The uninhabited closure type of first-order data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoClosure {}

/// First-order data — the result type of every engine, directly
/// comparable across engines.
pub type Datum = Value<NoClosure>;

impl<C> Value<C> {
    /// Scheme truthiness: everything except `#f` is true.
    pub fn is_truthy(&self) -> bool {
        !matches!(self, Value::Bool(false))
    }

    /// Builds a runtime value from a program constant.
    pub fn from_constant(k: &Constant) -> Value<C> {
        match k {
            Constant::Int(n) => Value::Int(*n),
            Constant::Bool(b) => Value::Bool(*b),
            Constant::Char(c) => Value::Char(*c),
            Constant::Str(s) => Value::Str(s.clone()),
            Constant::Sym(s) => Value::Sym(s.clone()),
            Constant::Nil => Value::Nil,
            Constant::Pair(a, d) => Value::Pair(Rc::new((
                Value::from_constant(a),
                Value::from_constant(d),
            ))),
        }
    }

    /// Converts to first-order data; `None` if a closure occurs anywhere.
    pub fn to_datum(&self) -> Option<Datum> {
        Some(match self {
            Value::Int(n) => Value::Int(*n),
            Value::Bool(b) => Value::Bool(*b),
            Value::Char(c) => Value::Char(*c),
            Value::Str(s) => Value::Str(s.clone()),
            Value::Sym(s) => Value::Sym(s.clone()),
            Value::Nil => Value::Nil,
            Value::Pair(p) => {
                Value::Pair(Rc::new((p.0.to_datum()?, p.1.to_datum()?)))
            }
            Value::Closure(_) => return None,
        })
    }

    /// Builds a proper list.
    pub fn list<I: IntoIterator<Item = Value<C>>>(items: I) -> Value<C>
    where
        I::IntoIter: DoubleEndedIterator,
    {
        let mut acc = Value::Nil;
        for v in items.into_iter().rev() {
            acc = Value::Pair(Rc::new((v, acc)));
        }
        acc
    }
}

impl Datum {
    /// Parses first-order data from S-expression source, e.g. `(1 2 3)`.
    ///
    /// # Errors
    ///
    /// Returns the reader error message on malformed input.
    pub fn parse(src: &str) -> Result<Datum, String> {
        let s = pe_sexpr::read_one(src).map_err(|e| e.to_string())?;
        Ok(Self::from_sexpr(&s))
    }

    /// Converts an S-expression to first-order data (symbols stay
    /// symbols; lists become pair spines).
    pub fn from_sexpr(s: &pe_sexpr::Sexpr) -> Datum {
        match s {
            pe_sexpr::Sexpr::Int(n) => Value::Int(*n),
            pe_sexpr::Sexpr::Bool(b) => Value::Bool(*b),
            pe_sexpr::Sexpr::Char(c) => Value::Char(*c),
            pe_sexpr::Sexpr::Str(s) => Value::Str(s.clone()),
            pe_sexpr::Sexpr::Sym(s) => Value::Sym(s.clone()),
            pe_sexpr::Sexpr::List(xs) => Value::list(xs.iter().map(Self::from_sexpr)),
        }
    }

    /// Injects first-order data into any value domain.
    pub fn embed<C>(&self) -> Value<C> {
        match self {
            Value::Int(n) => Value::Int(*n),
            Value::Bool(b) => Value::Bool(*b),
            Value::Char(c) => Value::Char(*c),
            Value::Str(s) => Value::Str(s.clone()),
            Value::Sym(s) => Value::Sym(s.clone()),
            Value::Nil => Value::Nil,
            Value::Pair(p) => Value::Pair(Rc::new((p.0.embed(), p.1.embed()))),
            Value::Closure(c) => match *c {},
        }
    }
}

impl<C: fmt::Debug> fmt::Display for Value<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Bool(true) => write!(f, "#t"),
            Value::Bool(false) => write!(f, "#f"),
            Value::Char(c) => write!(f, "#\\{c}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Sym(s) => write!(f, "{s}"),
            Value::Nil => write!(f, "()"),
            Value::Pair(_) => {
                write!(f, "(")?;
                let mut cur = self;
                let mut first = true;
                loop {
                    match cur {
                        Value::Pair(p) => {
                            if !first {
                                write!(f, " ")?;
                            }
                            first = false;
                            write!(f, "{}", p.0)?;
                            cur = &p.1;
                        }
                        Value::Nil => return write!(f, ")"),
                        v => return write!(f, " . {v})"),
                    }
                }
            }
            Value::Closure(c) => write!(f, "#<procedure {c:?}>"),
        }
    }
}

/// An error raised by primitive application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrimError {
    /// The operand had the wrong type, e.g. `(car 5)`.
    TypeError { prim: Prim, expected: &'static str, got: String },
    /// Division by zero in `quotient`/`remainder`.
    DivisionByZero(Prim),
    /// Fixnum overflow in arithmetic.
    Overflow(Prim),
    /// Wrong number of arguments (internal invariant; the parser checks
    /// arities, so only hand-built programs can trigger this).
    Arity { prim: Prim, expected: usize, got: usize },
}

impl fmt::Display for PrimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrimError::TypeError { prim, expected, got } => {
                write!(f, "{prim}: expected {expected}, got {got}")
            }
            PrimError::DivisionByZero(p) => write!(f, "{p}: division by zero"),
            PrimError::Overflow(p) => write!(f, "{p}: fixnum overflow"),
            PrimError::Arity { prim, expected, got } => {
                write!(f, "{prim}: expected {expected} argument(s), got {got}")
            }
        }
    }
}

impl std::error::Error for PrimError {}

fn int<C: fmt::Debug>(p: Prim, v: &Value<C>) -> Result<i64, PrimError> {
    match v {
        Value::Int(n) => Ok(*n),
        v => Err(type_error(p, "number", v)),
    }
}

#[cold]
#[inline(never)]
fn type_error<C: fmt::Debug>(prim: Prim, expected: &'static str, v: &Value<C>) -> PrimError {
    PrimError::TypeError { prim, expected, got: v.to_string() }
}

#[cold]
#[inline(never)]
fn arity_error(prim: Prim, got: usize) -> PrimError {
    PrimError::Arity { prim, expected: prim.arity(), got }
}

impl<C: fmt::Debug> Value<C> {
    /// `(car v)` by reference: the pair's first field.
    ///
    /// # Errors
    ///
    /// The `car` type error when `v` is not a pair.
    pub fn car(&self) -> Result<&Value<C>, PrimError> {
        match self {
            Value::Pair(p) => Ok(&p.0),
            v => Err(type_error(Prim::Car, "pair", v)),
        }
    }

    /// `(cdr v)` by reference: the pair's second field.
    ///
    /// # Errors
    ///
    /// The `cdr` type error when `v` is not a pair.
    pub fn cdr(&self) -> Result<&Value<C>, PrimError> {
        match self {
            Value::Pair(p) => Ok(&p.1),
            v => Err(type_error(Prim::Cdr, "pair", v)),
        }
    }
}

/// Structural equality (`equal?`).  Closures compare by their `PartialEq`
/// (flat closures: label + captured values), a documented deviation from
/// R5RS's unspecified behaviour.
fn equal<C: PartialEq>(a: &Value<C>, b: &Value<C>) -> bool {
    match (a, b) {
        (Value::Pair(x), Value::Pair(y)) => equal(&x.0, &y.0) && equal(&x.1, &y.1),
        _ => a == b,
    }
}

/// Identity-ish equality (`eq?`): atoms by value, pairs and strings by
/// allocation identity.
fn eq_identity<C: PartialEq>(a: &Value<C>, b: &Value<C>) -> bool {
    match (a, b) {
        (Value::Pair(x), Value::Pair(y)) => Rc::ptr_eq(x, y),
        (Value::Str(x), Value::Str(y)) => Arc::ptr_eq(x, y),
        _ => a == b,
    }
}

/// Applies a primitive to argument values.
///
/// # Errors
///
/// Returns a [`PrimError`] on type errors, division by zero, overflow or
/// (for hand-built programs) arity mismatch.
pub fn apply_prim<C: Clone + PartialEq + fmt::Debug>(
    p: Prim,
    args: &[Value<C>],
) -> Result<Value<C>, PrimError> {
    match (p.arity(), args) {
        (1, [a]) => apply_prim1(p, a),
        (2, [a, b]) => apply_prim2(p, a, b),
        _ => Err(arity_error(p, args.len())),
    }
}

/// Applies a unary primitive to a borrowed operand.
///
/// # Errors
///
/// As [`apply_prim`]; a binary `p` is an arity error.
pub fn apply_prim1<C: Clone + PartialEq + fmt::Debug>(
    p: Prim,
    a: &Value<C>,
) -> Result<Value<C>, PrimError> {
    use Prim::*;
    Ok(match p {
        Car => a.car()?.clone(),
        Cdr => a.cdr()?.clone(),
        NullP => Value::Bool(matches!(a, Value::Nil)),
        PairP => Value::Bool(matches!(a, Value::Pair(_))),
        Not => Value::Bool(!a.is_truthy()),
        ZeroP => Value::Bool(int(p, a)? == 0),
        Add1 => Value::Int(int(p, a)?.checked_add(1).ok_or(PrimError::Overflow(p))?),
        Sub1 => Value::Int(int(p, a)?.checked_sub(1).ok_or(PrimError::Overflow(p))?),
        SymbolP => Value::Bool(matches!(a, Value::Sym(_))),
        NumberP => Value::Bool(matches!(a, Value::Int(_))),
        BooleanP => Value::Bool(matches!(a, Value::Bool(_))),
        _ => return Err(arity_error(p, 1)),
    })
}

/// Applies a binary primitive to borrowed operands; only `cons` clones
/// them, into the new pair.
///
/// # Errors
///
/// As [`apply_prim`]; a unary `p` is an arity error.
pub fn apply_prim2<C: Clone + PartialEq + fmt::Debug>(
    p: Prim,
    a: &Value<C>,
    b: &Value<C>,
) -> Result<Value<C>, PrimError> {
    use Prim::*;
    Ok(match p {
        Cons => Value::Pair(Rc::new((a.clone(), b.clone()))),
        EqP | EqvP => Value::Bool(eq_identity(a, b)),
        EqualP => Value::Bool(equal(a, b)),
        Add => Value::Int(int(p, a)?.checked_add(int(p, b)?).ok_or(PrimError::Overflow(p))?),
        Sub => Value::Int(int(p, a)?.checked_sub(int(p, b)?).ok_or(PrimError::Overflow(p))?),
        Mul => Value::Int(int(p, a)?.checked_mul(int(p, b)?).ok_or(PrimError::Overflow(p))?),
        Quotient => {
            let (a, b) = (int(p, a)?, int(p, b)?);
            if b == 0 {
                return Err(PrimError::DivisionByZero(p));
            }
            Value::Int(a.checked_div(b).ok_or(PrimError::Overflow(p))?)
        }
        Remainder => {
            let (a, b) = (int(p, a)?, int(p, b)?);
            if b == 0 {
                return Err(PrimError::DivisionByZero(p));
            }
            Value::Int(a.checked_rem(b).ok_or(PrimError::Overflow(p))?)
        }
        NumEq => Value::Bool(int(p, a)? == int(p, b)?),
        Lt => Value::Bool(int(p, a)? < int(p, b)?),
        Gt => Value::Bool(int(p, a)? > int(p, b)?),
        Le => Value::Bool(int(p, a)? <= int(p, b)?),
        Ge => Value::Bool(int(p, a)? >= int(p, b)?),
        _ => return Err(arity_error(p, 2)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i(n: i64) -> Datum {
        Value::Int(n)
    }

    #[test]
    fn arithmetic() {
        assert_eq!(apply_prim(Prim::Add, &[i(2), i(3)]), Ok(i(5)));
        assert_eq!(apply_prim(Prim::Sub, &[i(2), i(3)]), Ok(i(-1)));
        assert_eq!(apply_prim(Prim::Mul, &[i(4), i(3)]), Ok(i(12)));
        assert_eq!(apply_prim(Prim::Quotient, &[i(7), i(2)]), Ok(i(3)));
        assert_eq!(apply_prim(Prim::Remainder, &[i(7), i(2)]), Ok(i(1)));
        assert_eq!(apply_prim(Prim::Remainder, &[i(-7), i(2)]), Ok(i(-1)));
        assert_eq!(apply_prim(Prim::Add1, &[i(41)]), Ok(i(42)));
        assert_eq!(apply_prim(Prim::Sub1, &[i(43)]), Ok(i(42)));
    }

    #[test]
    fn arithmetic_errors() {
        assert_eq!(
            apply_prim(Prim::Quotient, &[i(1), i(0)]),
            Err(PrimError::DivisionByZero(Prim::Quotient))
        );
        assert_eq!(
            apply_prim(Prim::Add, &[i(i64::MAX), i(1)]),
            Err(PrimError::Overflow(Prim::Add))
        );
        assert!(matches!(
            apply_prim(Prim::Add, &[Value::Nil, i(1)]),
            Err(PrimError::TypeError { .. })
        ));
    }

    #[test]
    fn pairs_and_predicates() {
        let p = apply_prim(Prim::Cons, &[i(1), Value::Nil]).unwrap();
        assert_eq!(apply_prim(Prim::Car, std::slice::from_ref(&p)), Ok(i(1)));
        assert_eq!(apply_prim(Prim::Cdr, std::slice::from_ref(&p)), Ok(Value::Nil));
        assert_eq!(apply_prim(Prim::PairP, std::slice::from_ref(&p)), Ok(Value::Bool(true)));
        assert_eq!(apply_prim(Prim::NullP, &[p]), Ok(Value::Bool(false)));
        assert_eq!(apply_prim::<NoClosure>(Prim::NullP, &[Value::Nil]), Ok(Value::Bool(true)));
        assert!(matches!(apply_prim(Prim::Car, &[i(5)]), Err(PrimError::TypeError { .. })));
    }

    #[test]
    fn equality_flavours() {
        let a: Datum = Value::list([i(1), i(2)]);
        let b: Datum = Value::list([i(1), i(2)]);
        // equal? is structural…
        assert_eq!(apply_prim(Prim::EqualP, &[a.clone(), b.clone()]), Ok(Value::Bool(true)));
        // …eq? is identity on pairs…
        assert_eq!(apply_prim(Prim::EqP, &[a.clone(), b]), Ok(Value::Bool(false)));
        assert_eq!(apply_prim(Prim::EqP, &[a.clone(), a.clone()]), Ok(Value::Bool(true)));
        // …and by value on atoms.
        assert_eq!(
            apply_prim::<NoClosure>(Prim::EqP, &[Value::Sym("x".into()), Value::Sym("x".into())]),
            Ok(Value::Bool(true))
        );
    }

    #[test]
    fn truthiness_and_not() {
        assert_eq!(apply_prim::<NoClosure>(Prim::Not, &[Value::Bool(false)]), Ok(Value::Bool(true)));
        assert_eq!(apply_prim::<NoClosure>(Prim::Not, &[Value::Int(0)]), Ok(Value::Bool(false)));
        assert_eq!(apply_prim::<NoClosure>(Prim::Not, &[Value::Nil]), Ok(Value::Bool(false)));
    }

    #[test]
    fn display_lists() {
        let v: Datum = Value::list([i(1), Value::Sym("a".into()), Value::list([i(2)])]);
        assert_eq!(v.to_string(), "(1 a (2))");
        assert_eq!(Datum::Nil.to_string(), "()");
    }

    #[test]
    fn datum_parse_and_embed() {
        let d = Datum::parse("(1 (2 3) x)").unwrap();
        assert_eq!(d.to_string(), "(1 (2 3) x)");
        let v: Value<()> = d.embed();
        assert_eq!(v.to_datum().unwrap(), d);
    }

    #[test]
    fn constants_convert() {
        let k = Constant::Pair(
            Arc::new(Constant::Sym("a".into())),
            Arc::new(Constant::Nil),
        );
        let v: Datum = Value::from_constant(&k);
        assert_eq!(v.to_string(), "(a)");
    }
}
