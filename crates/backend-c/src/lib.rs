//! The S₀ → C translator of §5.1.
//!
//! The translation produces a single C function `program`:
//!
//! * procedure headers become **labels**, tail calls become assignments
//!   to **global parameter variables** followed by `goto`;
//! * on entry to a procedure a fresh scope copies the global parameter
//!   variables into private ones, so argument lists can be built without
//!   interference;
//! * every simple expression is an assignment to a **single-use
//!   temporary**, sequentialized with C's comma operator — register
//!   allocation is left to the C compiler.  Constants are the exception:
//!   they have no effect to sequence, so they are emitted in place;
//! * closures are **flat vectors** (label + captured values) and closure
//!   application compiles to the same sequential label dispatch as in
//!   the Scheme residual code, each test comparing the label unboxed;
//! * data objects are a tagged union.  Values without identity are never
//!   allocated: `#t`, `#f`, `'()` and the program's symbols are static
//!   objects, and small integers come from one static table.
//!
//! The paper uses the Boehm collector with "no cooperation between the
//! translation and the garbage collector".  The emitted runtime instead
//! cooperates with the translation: it is a precise two-space copying
//! (Cheney) collector that runs only at procedure labels.  A body
//! allocates a bounded number of bytes on any path, and the emitter
//! counts them as it writes each allocating call.  Each label checks,
//! before its prologue copies, that the free space holds its body's
//! bound, and collects when it does not.  At a label no temporary is
//! live, so the roots are exactly the global parameter variables the
//! label's body names; the collector resets every other global to a
//! static object, so none dangles into a reused space and none keeps
//! garbage alive.  The first space is 64 KiB, or larger when the entry
//! arguments need it; the spaces double when live data plus the largest
//! bound passes half of one, up to `RT_HEAP_CAP`, past which the program
//! dies with `heap exhausted`.  A program without tail calls runs one
//! body and allocates from its first space, with no collector and no
//! checks.
//!
//! The runtime header holds only what the program uses: the emitter
//! records each runtime function or table as it writes a call to it
//! (`Rt`), and the header holds those and what they call.
//!
//! Strings and symbols live in C string tables, written with C escapes
//! (`c_string`), and print as the VM prints them: a string with the
//! S-expression printer's escapes, a symbol as its bytes, a character
//! as its UTF-8.  The string table carries each string's length, so a
//! string prints every byte, NUL included; a symbol prints up to its
//! first NUL byte, where its C string ends.
//!
//! S₀ holds positions: parameter *k* of a procedure is the C variable
//! `pₖ` (and the global `gₖ`), and a callee position names its
//! procedure's label.  A program with a position past its list — a
//! variable past its procedure's parameters, a callee or the entry past
//! the procedures — which the VM refuses to load, becomes a file whose
//! `#error` line, written where the position is used, makes cc refuse
//! it.

use pe_core::{S0Program, S0Simple, S0Tail};
use pe_frontend::ast::{Constant, Prim};
use pe_interp::Datum;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Bytes of one heap object: `sizeof(Obj)` on LP64, and no less than it
/// on ILP32, so a bound counted in these is never short.
const OBJ_BYTES: usize = 24;
/// Bytes of one captured value, stored after its closure record.
const CAPTURE_BYTES: usize = 8;
/// The first space's size, unless the entry arguments need more.
const FIRST_SPACE: usize = 64 << 10;

/// Options for the C translation.
#[derive(Debug, Clone)]
pub struct COptions {
    /// Elide global-parameter moves that dataflow analysis proves
    /// redundant: identity moves (`gᵢ = pᵢ` when argument *i* is the
    /// caller's own *i*-th parameter, so the global already holds the
    /// value), trivial moves into parameters the callee never reads, and
    /// prologue copies of parameters the emitted body never reads
    /// (the body reads them nowhere, or their only reads were elided
    /// identity moves).
    pub elide_moves: bool,
}

impl Default for COptions {
    fn default() -> Self {
        COptions { elide_moves: true }
    }
}

/// The result of a translation.
#[derive(Debug, Clone)]
pub struct CProgram {
    /// The complete C source text.
    pub source: String,
    /// Global-parameter moves and prologue copies elided because the
    /// value is already in place or never read.
    pub moves_elided: usize,
}

impl CProgram {
    /// Size of the generated C text in bytes (§8 code-size experiment).
    pub fn size_bytes(&self) -> usize {
        self.source.len()
    }
}

/// A piece of the runtime header: a table or a function.  The header
/// holds a piece only when the emitted code, or a piece it holds,
/// reaches it; [`Rt::ALL`] is the order they are written in, each after
/// the pieces it calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[rustfmt::skip]
enum Rt {
    Consts, Ints, Die, Heap, New, Int, Bool, Char, Str, Cons, Truthy, Car, Cdr, NullP, PairP, Not,
    SymbolP, NumberP, BooleanP, Ival, Checked, Add, Sub, Mul, Add1, Sub1, Quotient, Remainder,
    NumEq, Lt, Gt, Le, Ge, ZeroP, EqRaw, EqP, EqualRaw, EqualP, Closure, Label, ClosureLabel,
    LabelIs, ClosureFreeval,
}

impl Rt {
    #[rustfmt::skip]
    const ALL: [Rt; 43] = {
        use Rt::*;
        [
            Consts, Ints, Die, Heap, New, Int, Bool, Char, Str, Cons, Truthy, Car, Cdr, NullP,
            PairP, Not, SymbolP, NumberP, BooleanP, Ival, Checked, Add, Sub, Mul, Add1, Sub1,
            Quotient, Remainder, NumEq, Lt, Gt, Le, Ge, ZeroP, EqRaw, EqP, EqualRaw, EqualP,
            Closure, Label, ClosureLabel, LabelIs, ClosureFreeval,
        ]
    };

    fn bit(self) -> u64 {
        1 << self as u32
    }

    /// The pieces this one calls, and its C text.  [`Rt::Heap`]'s text
    /// depends on whether the program collects; the header writes it.
    fn piece(self) -> (&'static [Rt], &'static str) {
        match self {
            Rt::Consts => (
                &[],
                "static Obj rt_consts[3] = {{T_BOOL, 0, {0}}, {T_BOOL, 0, {1}}, {T_NIL, 0, {0}}};
#define RT_FALSE (&rt_consts[0])
#define RT_TRUE (&rt_consts[1])
#define RT_NIL (&rt_consts[2])
",
            ),
            Rt::Ints => (&[], "static Obj rt_ints[272];\n"),
            Rt::Die => (
                &[],
                r#"static void rt_die(const char *msg) {
  fprintf(stderr, "runtime error: %s\n", msg);
  exit(1);
}
"#,
            ),
            Rt::Heap => (&[Rt::Die], ""),
            Rt::New => (
                &[Rt::Heap],
                "static Obj *rt_new(int tag) {
  Obj *o = (Obj *)rt_hp;
  rt_hp += sizeof(Obj);
  o->tag = tag;
  return o;
}
",
            ),
            Rt::Int => (
                &[Rt::Ints, Rt::New],
                "static Obj *rt_int(long n) {
  Obj *o;
  if ((unsigned long)n + 16 < 272) return &rt_ints[n + 16];
  o = rt_new(T_INT); o->u.i = n; return o;
}
",
            ),
            Rt::Bool => (&[Rt::Consts], "static Obj *rt_bool(int b) { return b ? RT_TRUE : RT_FALSE; }\n"),
            Rt::Char => (
                &[Rt::New],
                "static Obj *rt_char(long c) { Obj *o = rt_new(T_CHAR); o->u.i = c; return o; }\n",
            ),
            Rt::Str => (
                &[Rt::New],
                "static Obj *rt_str(long i) { Obj *o = rt_new(T_STR); o->u.i = i; return o; }\n",
            ),
            // Out of line: a body that conses a large tree in one
            // expression would otherwise leave `cc -O2` one huge block
            // of inlined stores to optimize, at no gain in run time.
            Rt::Cons => (
                &[Rt::New],
                "__attribute__((noinline)) static Obj *rt_cons(Obj *a, Obj *d) {
  Obj *o = rt_new(T_PAIR); o->u.pair.car = a; o->u.pair.cdr = d; return o;
}
",
            ),
            Rt::Truthy => (&[Rt::Consts], "static int rt_truthy(Obj *o) { return o != RT_FALSE; }\n"),
            Rt::Car => (
                &[Rt::Die],
                "static Obj *rt_car(Obj *o) { if (o->tag != T_PAIR) rt_die(\"car: not a pair\"); return o->u.pair.car; }\n",
            ),
            Rt::Cdr => (
                &[Rt::Die],
                "static Obj *rt_cdr(Obj *o) { if (o->tag != T_PAIR) rt_die(\"cdr: not a pair\"); return o->u.pair.cdr; }\n",
            ),
            Rt::NullP => (&[Rt::Bool], "static Obj *rt_nullp(Obj *o) { return rt_bool(o->tag == T_NIL); }\n"),
            Rt::PairP => (&[Rt::Bool], "static Obj *rt_pairp(Obj *o) { return rt_bool(o->tag == T_PAIR); }\n"),
            Rt::Not => (
                &[Rt::Bool, Rt::Truthy],
                "static Obj *rt_not(Obj *o) { return rt_bool(!rt_truthy(o)); }\n",
            ),
            Rt::SymbolP => (&[Rt::Bool], "static Obj *rt_symbolp(Obj *o) { return rt_bool(o->tag == T_SYM); }\n"),
            Rt::NumberP => (&[Rt::Bool], "static Obj *rt_numberp(Obj *o) { return rt_bool(o->tag == T_INT); }\n"),
            Rt::BooleanP => (
                &[Rt::Bool],
                "static Obj *rt_booleanp(Obj *o) { return rt_bool(o->tag == T_BOOL); }\n",
            ),
            Rt::Ival => (
                &[Rt::Die],
                "static long rt_ival(Obj *o) { if (o->tag != T_INT) rt_die(\"expected number\"); return o->u.i; }\n",
            ),
            Rt::Checked => (
                &[Rt::Ival, Rt::Int],
                "#define RT_CHECKED(op, x, y, name) \\
  long r; if (__builtin_##op##_overflow(x, y, &r)) rt_die(name \": fixnum overflow\"); return rt_int(r)
",
            ),
            Rt::Add => (
                &[Rt::Checked],
                "static Obj *rt_add(Obj *a, Obj *b) { RT_CHECKED(add, rt_ival(a), rt_ival(b), \"+\"); }\n",
            ),
            Rt::Sub => (
                &[Rt::Checked],
                "static Obj *rt_sub(Obj *a, Obj *b) { RT_CHECKED(sub, rt_ival(a), rt_ival(b), \"-\"); }\n",
            ),
            Rt::Mul => (
                &[Rt::Checked],
                "static Obj *rt_mul(Obj *a, Obj *b) { RT_CHECKED(mul, rt_ival(a), rt_ival(b), \"*\"); }\n",
            ),
            Rt::Add1 => (
                &[Rt::Checked],
                "static Obj *rt_add1(Obj *o) { RT_CHECKED(add, rt_ival(o), 1L, \"add1\"); }\n",
            ),
            Rt::Sub1 => (
                &[Rt::Checked],
                "static Obj *rt_sub1(Obj *o) { RT_CHECKED(sub, rt_ival(o), 1L, \"sub1\"); }\n",
            ),
            Rt::Quotient => (
                &[Rt::Ival, Rt::Int],
                r#"static Obj *rt_quotient(Obj *a, Obj *b) {
  long n = rt_ival(a), d = rt_ival(b);
  if (d == 0) rt_die("quotient: division by zero");
  if (d == -1 && n == LONG_MIN) rt_die("quotient: fixnum overflow");
  return rt_int(n / d);
}
"#,
            ),
            Rt::Remainder => (
                &[Rt::Ival, Rt::Int],
                r#"static Obj *rt_remainder(Obj *a, Obj *b) {
  long n = rt_ival(a), d = rt_ival(b);
  if (d == 0) rt_die("remainder: division by zero");
  if (d == -1 && n == LONG_MIN) rt_die("remainder: fixnum overflow");
  return rt_int(n % d);
}
"#,
            ),
            Rt::NumEq => (
                &[Rt::Bool, Rt::Ival],
                "static Obj *rt_numeq(Obj *a, Obj *b) { return rt_bool(rt_ival(a) == rt_ival(b)); }\n",
            ),
            Rt::Lt => (
                &[Rt::Bool, Rt::Ival],
                "static Obj *rt_lt(Obj *a, Obj *b) { return rt_bool(rt_ival(a) < rt_ival(b)); }\n",
            ),
            Rt::Gt => (
                &[Rt::Bool, Rt::Ival],
                "static Obj *rt_gt(Obj *a, Obj *b) { return rt_bool(rt_ival(a) > rt_ival(b)); }\n",
            ),
            Rt::Le => (
                &[Rt::Bool, Rt::Ival],
                "static Obj *rt_le(Obj *a, Obj *b) { return rt_bool(rt_ival(a) <= rt_ival(b)); }\n",
            ),
            Rt::Ge => (
                &[Rt::Bool, Rt::Ival],
                "static Obj *rt_ge(Obj *a, Obj *b) { return rt_bool(rt_ival(a) >= rt_ival(b)); }\n",
            ),
            Rt::ZeroP => (
                &[Rt::Bool, Rt::Ival],
                "static Obj *rt_zerop(Obj *o) { return rt_bool(rt_ival(o) == 0); }\n",
            ),
            Rt::EqRaw => (
                &[],
                "static int rt_eq_raw(Obj *a, Obj *b) {
  if (a == b) return 1;
  if (a->tag != b->tag) return 0;
  switch (a->tag) {
    case T_INT: case T_BOOL: case T_CHAR: case T_SYM: case T_STR: return a->u.i == b->u.i;
    case T_NIL: return 1;
    default: return 0;
  }
}
",
            ),
            Rt::EqP => (
                &[Rt::EqRaw, Rt::Bool],
                "static Obj *rt_eqp(Obj *a, Obj *b) { return rt_bool(rt_eq_raw(a, b)); }\n",
            ),
            Rt::EqualRaw => (
                &[Rt::EqRaw],
                "static int rt_equal_raw(Obj *a, Obj *b) {
  if (rt_eq_raw(a, b)) return 1;
  if (a->tag == T_PAIR && b->tag == T_PAIR)
    return rt_equal_raw(a->u.pair.car, b->u.pair.car) &&
           rt_equal_raw(a->u.pair.cdr, b->u.pair.cdr);
  return 0;
}
",
            ),
            Rt::EqualP => (
                &[Rt::EqualRaw, Rt::Bool],
                "static Obj *rt_equalp(Obj *a, Obj *b) { return rt_bool(rt_equal_raw(a, b)); }\n",
            ),
            Rt::Closure => (
                &[Rt::Heap],
                "static Obj *rt_closure(long label, int n, ...) {
  __builtin_va_list ap;
  Obj *o = (Obj *)rt_hp;
  int i;
  rt_hp += sizeof(Obj) + sizeof(Obj *) * n;
  o->tag = T_CLO;
  o->n = n;
  o->u.i = label;
  __builtin_va_start(ap, n);
  for (i = 0; i < n; i++) RT_FV(o)[i] = __builtin_va_arg(ap, Obj *);
  __builtin_va_end(ap);
  return o;
}
",
            ),
            Rt::Label => (
                &[Rt::Die],
                "static long rt_label(Obj *o) {
  if (o->tag != T_CLO) rt_die(\"closure-label: not a closure\");
  return o->u.i;
}
",
            ),
            Rt::ClosureLabel => (
                &[Rt::Label, Rt::Int],
                "static Obj *rt_closure_label(Obj *o) { return rt_int(rt_label(o)); }\n",
            ),
            Rt::LabelIs => (
                &[Rt::Label],
                "static int rt_label_is(Obj *o, long l) { return rt_label(o) == l; }\n",
            ),
            Rt::ClosureFreeval => (
                &[Rt::Die],
                "static Obj *rt_closure_freeval(Obj *o, int i) {
  if (o->tag != T_CLO) rt_die(\"closure-freeval: not a closure\");
  if (i >= o->n) rt_die(\"closure-freeval: index out of range\");
  return RT_FV(o)[i];
}
",
            ),
        }
    }
}

struct Emitter {
    /// Each procedure's C label, by position ([`labels`]).
    labels: Vec<String>,
    /// Each procedure's parameters, by position: `true` where its body
    /// never reads the parameter.
    dead: Vec<Vec<bool>>,
    symbols: Vec<String>,
    strings: Vec<String>,
    /// Whether a character constant lies outside ASCII.
    wide_chars: bool,
    next_temp: usize,
    max_arity: usize,
    elide: bool,
    moves_elided: usize,
    /// The runtime pieces the emitted code calls, one [`Rt::bit`] each.
    rt: u64,
    /// Bytes the path being emitted allocates so far.
    bytes: usize,
}

/// Each procedure's C label, by position: its name with every
/// character outside `[A-Za-z0-9]` made `_`, after `L_` (and `p_` when
/// it starts with a digit), numbered `_1`, `_2`, … apart from an earlier
/// label of the same spelling.  Labels are numbered in the order the
/// emitter meets them: each procedure's own, then its callees' in its
/// body's order.
fn labels(p: &S0Program) -> Vec<String> {
    let mut labels = vec![String::new(); p.procs.len()];
    let mut used: HashMap<String, usize> = HashMap::new();
    let mut label = |i: usize, labels: &mut [String]| {
        if labels.get(i).is_none_or(|l| !l.is_empty()) {
            return;
        }
        let base: String = p.procs[i]
            .name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let base = if base.starts_with(|c: char| c.is_ascii_digit()) {
            format!("p_{base}")
        } else {
            base
        };
        let n = used.entry(base.clone()).or_insert(0);
        labels[i] = if *n == 0 { format!("L_{base}") } else { format!("L_{base}_{n}") };
        *n += 1;
    };
    for (i, q) in p.procs.iter().enumerate() {
        label(i, &mut labels);
        q.body.calls(&mut |callee| label(callee, &mut labels));
    }
    labels
}

impl Emitter {
    fn sym_index(&mut self, s: &str) -> usize {
        if let Some(i) = self.symbols.iter().position(|x| x == s) {
            return i;
        }
        self.symbols.push(s.to_string());
        self.symbols.len() - 1
    }

    fn str_index(&mut self, s: &str) -> usize {
        if let Some(i) = self.strings.iter().position(|x| x == s) {
            return i;
        }
        self.strings.push(s.to_string());
        self.strings.len() - 1
    }

    fn temp(&mut self) -> String {
        let t = format!("t{}", self.next_temp);
        self.next_temp += 1;
        t
    }

    /// Records a call to `piece` that allocates `bytes` on the heap.
    fn call(&mut self, piece: Rt, bytes: usize) {
        self.rt |= piece.bit();
        self.bytes += bytes;
    }

    /// Emits a constant as a C expression.  Only a quoted pair, a
    /// character, a string or an integer outside the small-integer
    /// table allocates.
    fn constant(&mut self, k: &Constant) -> String {
        match k {
            Constant::Int(i64::MIN) => {
                self.call(Rt::Int, OBJ_BYTES);
                "rt_int(LONG_MIN)".to_string()
            }
            Constant::Int(n) => {
                self.call(Rt::Int, if (-16..256).contains(n) { 0 } else { OBJ_BYTES });
                format!("rt_int({n}L)")
            }
            Constant::Bool(b) => {
                self.call(Rt::Consts, 0);
                if *b { "RT_TRUE" } else { "RT_FALSE" }.to_string()
            }
            Constant::Char(c) => {
                self.wide_chars |= !c.is_ascii();
                self.call(Rt::Char, OBJ_BYTES);
                format!("rt_char({})", *c as u32)
            }
            Constant::Nil => {
                self.call(Rt::Consts, 0);
                "RT_NIL".to_string()
            }
            Constant::Sym(s) => {
                let i = self.sym_index(s);
                format!("&rt_syms[{i}]")
            }
            Constant::Str(s) => {
                let i = self.str_index(s);
                self.call(Rt::Str, OBJ_BYTES);
                format!("rt_str({i})")
            }
            Constant::Pair(a, d) => {
                let a = self.constant(a);
                let d = self.constant(d);
                self.call(Rt::Cons, OBJ_BYTES);
                format!("rt_cons({a}, {d})")
            }
        }
    }

    /// Translates a simple expression into a C expression that assigns
    /// every intermediate result to a fresh single-use temporary,
    /// sequenced with the comma operator (§5.1), and evaluates to the
    /// final temporary; a variable or constant is emitted in place.
    /// Temporary declarations accumulate in `temps`, and every
    /// parameter read is marked in `read`, one flag per parameter of the
    /// procedure; parameter *k* is the C variable `pₖ`.  A variable
    /// past the parameters is an `#error` line in the expression.
    fn simple(&mut self, s: &S0Simple, read: &mut [bool], temps: &mut Vec<String>) -> String {
        let expr = match s {
            S0Simple::Var(k) => {
                let Some(r) = read.get_mut(*k) else {
                    self.call(Rt::Consts, 0);
                    let n = read.len();
                    let msg = format!("unbound variable at position {k} ({n} parameter(s))");
                    return format!("\n#error {}\nRT_NIL", c_string(&msg));
                };
                *r = true;
                return format!("p{k}");
            }
            // A constant has no effect to sequence.
            S0Simple::Const(k) => return self.constant(k),
            S0Simple::Prim(..) if s.dispatch_test().is_some() => {
                self.call(Rt::Bool, 0);
                format!("rt_bool({})", self.condition(s, read, temps))
            }
            S0Simple::Prim(op, args) => {
                let xs: Vec<String> =
                    args.iter().map(|a| self.simple(a, read, temps)).collect();
                let (piece, name, boxes) = prim(*op);
                self.call(piece, if boxes { OBJ_BYTES } else { 0 });
                format!("{name}({})", xs.join(", "))
            }
            S0Simple::MakeClosure(l, args) => {
                let xs: Vec<String> =
                    args.iter().map(|a| self.simple(a, read, temps)).collect();
                self.call(Rt::Closure, OBJ_BYTES + CAPTURE_BYTES * xs.len());
                let mut call = format!("rt_closure({l}, {}", xs.len());
                for x in &xs {
                    let _ = write!(call, ", {x}");
                }
                call.push(')');
                call
            }
            S0Simple::ClosureLabel(a) => {
                let x = self.simple(a, read, temps);
                self.call(Rt::ClosureLabel, OBJ_BYTES);
                format!("rt_closure_label({x})")
            }
            S0Simple::ClosureFreeval(a, i) => {
                let x = self.simple(a, read, temps);
                self.call(Rt::ClosureFreeval, 0);
                format!("rt_closure_freeval({x}, {i})")
            }
        };
        let t = self.temp();
        temps.push(t.clone());
        format!("({t} = {expr}, {t})")
    }

    /// Translates a condition into a C truth value.  A closure-dispatch
    /// test (`S0Simple::dispatch_test`) compares the label unboxed;
    /// `rt_label_is` keeps `closure-label`'s type check.
    fn condition(&mut self, c: &S0Simple, read: &mut [bool], temps: &mut Vec<String>) -> String {
        match c.dispatch_test() {
            Some((subject, label)) => {
                let x = self.simple(subject, read, temps);
                self.call(Rt::LabelIs, 0);
                format!("rt_label_is({x}, {label})")
            }
            None => {
                let x = self.simple(c, read, temps);
                self.call(Rt::Truthy, 0);
                format!("rt_truthy({x})")
            }
        }
    }

    /// Translates a tail expression; [`Emitter::bytes`] ends at the
    /// most any path through it allocates, on top of what it was.
    fn tail(
        &mut self,
        t: &S0Tail,
        read: &mut [bool],
        temps: &mut Vec<String>,
        indent: usize,
        body: &mut String,
    ) {
        let pad = "  ".repeat(indent);
        match t {
            S0Tail::Return(s) => {
                let e = self.simple(s, read, temps);
                let _ = writeln!(body, "{pad}return {e};");
            }
            S0Tail::If(c, a, b) => {
                let e = self.condition(c, read, temps);
                let _ = writeln!(body, "{pad}if ({e}) {{");
                let before = self.bytes;
                self.tail(a, read, temps, indent + 1, body);
                let then_bytes = std::mem::replace(&mut self.bytes, before);
                let _ = writeln!(body, "{pad}}} else {{");
                self.tail(b, read, temps, indent + 1, body);
                self.bytes = self.bytes.max(then_bytes);
                let _ = writeln!(body, "{pad}}}");
            }
            S0Tail::TailCall(callee, args) => {
                // Arguments are simple expressions over private variables
                // (never over the globals), so computing and storing each
                // one in turn is safe.  Two moves are provably redundant:
                //
                // * **identity** — argument *i* is the caller's own *i*-th
                //   parameter.  Globals are written only at a tail call,
                //   and each path through a body reaches exactly one, so
                //   `gᵢ` still holds the entry value of `pᵢ`;
                // * **dead target** — the callee's body never reads
                //   parameter *i*, and the argument is a variable or
                //   constant, so skipping its evaluation cannot suppress a
                //   runtime error.
                //
                // Neither applies to a variable past the parameters,
                // which must reach its `#error`.
                let arity = read.len();
                for (i, a) in args.iter().enumerate() {
                    if self.elide {
                        let identity = matches!(a, S0Simple::Var(k) if *k == i && *k < arity);
                        let trivial = match a {
                            S0Simple::Var(k) => *k < arity,
                            a => matches!(a, S0Simple::Const(_)),
                        };
                        let dead = trivial
                            && self.dead.get(*callee).and_then(|d| d.get(i)) == Some(&true);
                        if identity || dead {
                            self.moves_elided += 1;
                            continue;
                        }
                    }
                    let x = self.simple(a, read, temps);
                    let _ = writeln!(body, "{pad}g{i} = {x};");
                }
                match self.labels.get(*callee) {
                    Some(l) => {
                        let _ = writeln!(body, "{pad}goto {l};");
                    }
                    None => {
                        let n = self.labels.len();
                        let msg = format!(
                            "call to undefined procedure at position {callee} ({n} procedure(s))"
                        );
                        let _ = writeln!(body, "#error {}", c_string(&msg));
                    }
                }
            }
            S0Tail::Fail(m) => {
                self.call(Rt::Die, 0);
                let _ = writeln!(body, "{pad}rt_die({});", c_string(m));
            }
        }
    }
}

/// A primitive's runtime piece, C function, and whether its result may
/// be a fresh heap object (a pair, or an integer outside the
/// small-integer table).
fn prim(op: Prim) -> (Rt, &'static str, bool) {
    match op {
        Prim::Cons => (Rt::Cons, "rt_cons", true),
        Prim::Car => (Rt::Car, "rt_car", false),
        Prim::Cdr => (Rt::Cdr, "rt_cdr", false),
        Prim::NullP => (Rt::NullP, "rt_nullp", false),
        Prim::PairP => (Rt::PairP, "rt_pairp", false),
        Prim::Not => (Rt::Not, "rt_not", false),
        Prim::EqP | Prim::EqvP => (Rt::EqP, "rt_eqp", false),
        Prim::EqualP => (Rt::EqualP, "rt_equalp", false),
        Prim::Add => (Rt::Add, "rt_add", true),
        Prim::Sub => (Rt::Sub, "rt_sub", true),
        Prim::Mul => (Rt::Mul, "rt_mul", true),
        Prim::Quotient => (Rt::Quotient, "rt_quotient", true),
        Prim::Remainder => (Rt::Remainder, "rt_remainder", true),
        Prim::NumEq => (Rt::NumEq, "rt_numeq", false),
        Prim::Lt => (Rt::Lt, "rt_lt", false),
        Prim::Gt => (Rt::Gt, "rt_gt", false),
        Prim::Le => (Rt::Le, "rt_le", false),
        Prim::Ge => (Rt::Ge, "rt_ge", false),
        Prim::ZeroP => (Rt::ZeroP, "rt_zerop", false),
        Prim::Add1 => (Rt::Add1, "rt_add1", true),
        Prim::Sub1 => (Rt::Sub1, "rt_sub1", true),
        Prim::SymbolP => (Rt::SymbolP, "rt_symbolp", false),
        Prim::NumberP => (Rt::NumberP, "rt_numberp", false),
        Prim::BooleanP => (Rt::BooleanP, "rt_booleanp", false),
    }
}

/// Whether a body makes a tail call, and so may enter another label.
fn calls(t: &S0Tail) -> bool {
    match t {
        S0Tail::TailCall(..) => true,
        S0Tail::If(_, a, b) => calls(a) || calls(b),
        S0Tail::Return(_) | S0Tail::Fail(_) => false,
    }
}

/// The constant a first-order entry argument denotes.
fn datum_constant(d: &Datum) -> Constant {
    match d {
        Datum::Int(n) => Constant::Int(*n),
        Datum::Bool(b) => Constant::Bool(*b),
        Datum::Char(c) => Constant::Char(*c),
        Datum::Nil => Constant::Nil,
        Datum::Sym(s) => Constant::Sym(s.clone()),
        Datum::Str(s) => Constant::Str(s.clone()),
        Datum::Pair(p) => {
            Constant::Pair(Arc::new(datum_constant(&p.0)), Arc::new(datum_constant(&p.1)))
        }
        Datum::Closure(c) => match *c {},
    }
}

/// Translates an S₀ program to a standalone C source file whose `main`
/// runs the entry procedure on `args` and prints the result as an
/// S-expression.
pub fn emit_c(p: &S0Program, args: &[Datum], opts: &COptions) -> CProgram {
    // Parameter positions each body never names, computed once up
    // front.  S₀ binds only at procedure entry, so the body's variable
    // set is what is live there: the named positions are the roots of a
    // collection at the procedure's label, and the others drive
    // dead-target move elision.
    let dead = p
        .procs
        .iter()
        .map(|q| {
            let mut dead = vec![true; q.params.len()];
            q.body.vars(&mut |k| {
                if let Some(d) = dead.get_mut(k) {
                    *d = false;
                }
            });
            dead
        })
        .collect();
    let mut e = Emitter {
        labels: labels(p),
        dead,
        symbols: Vec::new(),
        strings: Vec::new(),
        wide_chars: false,
        next_temp: 0,
        max_arity: p.procs.iter().map(|q| q.params.len()).max().unwrap_or(0),
        elide: opts.elide_moves,
        moves_elided: 0,
        rt: 0,
        bytes: 0,
    };

    // Only a program whose bodies make tail calls enters a second
    // label; otherwise its one body allocates from the first space.
    let collects = p.procs.iter().any(|q| calls(&q.body));

    // Bodies first, so the symbol/string tables fill up.
    let mut bodies = String::new();
    let mut max_need = 0;
    for (i, q) in p.procs.iter().enumerate() {
        let mut read = vec![false; q.params.len()];
        let mut temps = Vec::new();
        let mut body = String::new();
        e.bytes = 0;
        e.tail(&q.body, &mut read, &mut temps, 1, &mut body);
        max_need = max_need.max(e.bytes);
        let _ = writeln!(bodies, "{}: {{", e.labels[i]);
        // Before the prologue copies: room for the body's worst path,
        // or a collection whose roots are the globals the body names
        // (`1` per named position; the rest are reset).
        if collects && e.bytes > 0 {
            let dead = &e.dead[i];
            let n = dead.iter().rposition(|d| !d).map_or(0, |i| i + 1);
            let live: String = dead[..n].iter().map(|&d| if d { '0' } else { '1' }).collect();
            let _ = writeln!(bodies, "  RT_NEED({}, \"{live}\");", e.bytes);
        }
        // Fresh scope: copy the globals into private parameter
        // variables — only the ones the body reads.  A parameter the
        // body never reads, or whose only reads were elided identity
        // moves, needs no copy.
        for (i, &read) in read.iter().enumerate() {
            if e.elide && !read {
                e.moves_elided += 1;
                continue;
            }
            let _ = writeln!(bodies, "  Obj *p{i} = g{i};");
        }
        if !temps.is_empty() {
            let _ = writeln!(bodies, "  Obj *{};", temps.join(", *"));
        }
        bodies.push_str(&body);
        let _ = writeln!(bodies, "}}");
    }

    e.bytes = 0;
    let mut main_args = String::new();
    for (i, a) in args.iter().enumerate() {
        let a = e.constant(&datum_constant(a));
        let _ = writeln!(main_args, "  g{i} = {a};");
    }
    // The first space holds the entry arguments with half of it still
    // free for the largest bound, as after every collection.
    let mut space = FIRST_SPACE;
    while e.bytes + max_need > space / 2 {
        space *= 2;
    }
    let heap = Heap {
        globals: e.max_arity.max(args.len()),
        collects: collects && max_need > 0,
        max_need,
        space,
    };

    // Now assemble the file.
    let mut out = e.runtime(&heap);
    let _ = writeln!(out, "\nstatic Obj *program(void) {{");
    match e.labels.get(p.entry) {
        Some(l) => {
            let _ = writeln!(out, "  goto {l};");
        }
        None => {
            let n = p.procs.len();
            let msg =
                format!("entry procedure at position {} is not defined ({n} procedure(s))", p.entry);
            let _ = writeln!(out, "#error {}", c_string(&msg));
        }
    }
    out.push_str(&bodies);
    let _ = writeln!(out, "}}");
    let _ = writeln!(out, "\nint main(void) {{");
    if e.rt & (Rt::Heap.bit() | Rt::Ints.bit()) != 0 {
        let _ = writeln!(out, "  rt_init();");
    }
    out.push_str(&main_args);
    let _ = writeln!(out, "  rt_print(program());");
    let _ = writeln!(out, "  printf(\"\\n\");");
    let _ = writeln!(out, "  return 0;");
    let _ = writeln!(out, "}}");

    CProgram { source: out, moves_elided: e.moves_elided }
}

/// `s` as a C string literal: `"`, `\`, newline, tab and carriage
/// return as their C escapes, every other byte outside printable ASCII
/// as a three-digit octal escape.
fn c_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for b in s.bytes() {
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            b' '..=b'~' => out.push(char::from(b)),
            _ => {
                let _ = write!(out, "\\{b:03o}");
            }
        }
    }
    out.push('"');
    out
}

/// How the emitted program manages its heap.
struct Heap {
    /// Global parameter variables: the widest procedure or entry.
    globals: usize,
    /// Whether labels check for room and collect.
    collects: bool,
    /// The largest bound of any body, in bytes.
    max_need: usize,
    /// The first space's size in bytes.
    space: usize,
}

/// The collector.  A label's `RT_NEED` calls `rt_gc` when the free
/// space is short of its body's bound.  `rt_gc` resets every global its
/// `live` string does not mark `1`, copies what the globals reach into
/// the spare space (`rt_copy`, breadth first, forwarding through
/// `rt_fwd`), and doubles the spaces while live data plus the largest
/// bound, `{max_need}`, passes half of one.
const COLLECTOR: &str = r#"
/* Cheney collector, run at labels: the roots are the globals the body names. */
#include <string.h>
#define RT_HEAP_CAP (256UL << 20)
#define RT_NEED(n, live) if ((unsigned long)(rt_lim - rt_hp) < (n)) rt_gc(n, live)
#define RT_BYTES(o) (sizeof(Obj) + ((o)->tag == T_CLO ? sizeof(Obj *) * (o)->n : 0))
static Obj *rt_fwd(Obj *o) {
  Obj *c = (Obj *)rt_hp;
  if ((size_t)o - (size_t)rt_lo >= (size_t)(rt_hi - rt_lo)) return o;
  if (o->tag == T_FWD) return o->u.pair.car;
  rt_hp += RT_BYTES(o);
  memcpy(c, o, RT_BYTES(o));
  o->tag = T_FWD;
  o->u.pair.car = c;
  return c;
}
static void rt_copy(char *to) {
  char *scan = to;
  unsigned i;
  rt_lo = rt_base;
  rt_hi = rt_hp;
  rt_base = rt_hp = to;
  for (i = 0; i < sizeof rt_g / sizeof *rt_g; i++) rt_g[i] = rt_fwd(rt_g[i]);
  for (; scan < rt_hp; scan += RT_BYTES((Obj *)scan)) {
    Obj *o = (Obj *)scan;
    int j;
    if (o->tag == T_PAIR) {
      o->u.pair.car = rt_fwd(o->u.pair.car);
      o->u.pair.cdr = rt_fwd(o->u.pair.cdr);
    } else if (o->tag == T_CLO) {
      for (j = 0; j < o->n; j++) RT_FV(o)[j] = rt_fwd(RT_FV(o)[j]);
    }
  }
}
__attribute__((noinline, cold)) static void rt_gc(unsigned long need, const char *live) {
  char *old = rt_base;
  unsigned long size = rt_size;
  unsigned i;
  for (i = 0; i < sizeof rt_g / sizeof *rt_g; i++, live += *live != 0)
    if (*live != '1') rt_g[i] = RT_NIL;
  rt_copy(rt_spare);
  rt_spare = old;
  while (size < RT_HEAP_CAP && (unsigned long)(rt_hp - rt_base) + {max_need} > size / 2) size *= 2;
  if (size > rt_size) {
    old = rt_base;
    free(rt_spare);
    rt_copy(rt_space(size));
    free(old);
    rt_spare = rt_space(size);
    rt_size = size;
  }
  rt_lim = rt_base + rt_size;
  if ((unsigned long)(rt_lim - rt_hp) < need) rt_die("heap exhausted");
}
"#;

impl Emitter {
    /// The runtime header for what the emitted code calls, and the
    /// global parameter variables.  Marks in [`Emitter::rt`] every piece
    /// it writes.
    fn runtime(&mut self, heap: &Heap) -> String {
        if heap.collects {
            self.rt |= Rt::Heap.bit() | Rt::Consts.bit();
        }
        // Every piece comes after the pieces it calls, so one backward
        // sweep closes the set.
        for r in Rt::ALL.iter().rev() {
            if self.rt & r.bit() != 0 {
                for d in r.piece().0 {
                    self.rt |= d.bit();
                }
            }
        }
        let has = |r: Rt| self.rt & r.bit() != 0;
        let mut h = String::from(
            r#"/* generated by pe-backend-c — S0-to-C translation (Sperber/Thiemann §5.1) */
#include <limits.h>
#include <stdio.h>
#include <stdlib.h>

enum { T_INT, T_BOOL, T_CHAR, T_NIL, T_SYM, T_STR, T_PAIR, T_CLO, T_FWD };

/* A closure's label is u.i; its n captured values follow it (RT_FV). */
typedef struct Obj Obj;
struct Obj {
  int tag, n;
  union {
    long i;
    struct { Obj *car, *cdr; } pair;
  } u;
};
#define RT_FV(o) ((Obj **)((o) + 1))

/* Values without identity are static: #t, #f, '(), symbols, integers -16..255. */
"#,
        );
        for r in [Rt::Consts, Rt::Ints] {
            if has(r) {
                h.push_str(r.piece().1);
            }
        }
        // A table, and its print case, exists only when it has entries: a
        // program without symbols (strings) has no object to print from it,
        // and `printf("%s")` on a sentinel-only table warns at -O2.  So do
        // the string printer and the UTF-8 character printer, which only
        // programs with strings (characters outside ASCII) need.
        let mut print_tables = String::new();
        if !self.symbols.is_empty() {
            let _ = writeln!(h, "static const char *rt_symbols[] = {{");
            for s in &self.symbols {
                let _ = writeln!(h, "  {},", c_string(s));
            }
            let _ = writeln!(h, "}};");
            let objs: Vec<String> =
                (0..self.symbols.len()).map(|i| format!("{{T_SYM, 0, {{{i}}}}}")).collect();
            let _ = writeln!(h, "static Obj rt_syms[] = {{{}}};", objs.join(", "));
            print_tables.push_str("    case T_SYM: printf(\"%s\", rt_symbols[o->u.i]); break;\n");
        }
        if !self.strings.is_empty() {
            let _ = writeln!(h, "static const char *rt_strings[] = {{");
            for s in &self.strings {
                let _ = writeln!(h, "  {},", c_string(s));
            }
            let _ = writeln!(h, "}};");
            let lens: Vec<String> = self.strings.iter().map(|s| s.len().to_string()).collect();
            let _ =
                writeln!(h, "static const unsigned long rt_string_lens[] = {{{}}};", lens.join(", "));
            h.push_str(
                r#"static void rt_print_str(const char *s, unsigned long n) {
  putchar('"');
  for (; n; n--, s++) {
    if (*s == '"' || *s == '\\') putchar('\\');
    if (*s == '\n') fputs("\\n", stdout); else putchar(*s);
  }
  putchar('"');
}
"#,
            );
            print_tables.push_str(
                "    case T_STR: rt_print_str(rt_strings[o->u.i], rt_string_lens[o->u.i]); break;\n",
            );
        }
        let print_char = if self.wide_chars {
            h.push_str(
                r##"static void rt_print_char(unsigned long c) {
  static const int lead[] = {0, 0xC0, 0xE0, 0xF0};
  int n = c < 0x80 ? 0 : c < 0x800 ? 1 : c < 0x10000 ? 2 : 3;
  fputs("#\\", stdout);
  putchar(lead[n] | c >> 6 * n);
  while (n--) putchar(0x80 | (c >> 6 * n & 0x3F));
}
"##,
            );
            "rt_print_char(o->u.i)"
        } else {
            "printf(\"#\\\\%c\", (char)o->u.i)"
        };

        let _ = writeln!(h, "\n/* global parameter variables (§5.1) */");
        if heap.collects {
            // An array, so the collector can walk them.
            let _ = writeln!(h, "static Obj *rt_g[{}];", heap.globals.max(1));
            for i in 0..heap.globals {
                let _ = writeln!(h, "#define g{i} rt_g[{i}]");
            }
        } else {
            for i in 0..heap.globals {
                let _ = writeln!(h, "static Obj *g{i};");
            }
        }
        h.push('\n');
        for r in &Rt::ALL[2..] {
            if !has(*r) {
                continue;
            }
            if *r != Rt::Heap {
                h.push_str(r.piece().1);
            } else {
                h.push_str(if heap.collects {
                    "static char *rt_hp, *rt_lim, *rt_base, *rt_spare, *rt_lo, *rt_hi;\n\
                     static unsigned long rt_size;\n"
                } else {
                    "static char *rt_hp;\n"
                });
                h.push_str(
                    "static char *rt_space(unsigned long n) {
  char *s = (char *)malloc(n);
  if (!s) rt_die(\"heap exhausted\");
  return s;
}
",
                );
            }
        }
        if heap.collects {
            h.push_str(&COLLECTOR.replace("{max_need}", &heap.max_need.to_string()));
        }
        if has(Rt::Heap) || has(Rt::Ints) {
            h.push_str("static void rt_init(void) {\n");
            if has(Rt::Ints) {
                h.push_str(
                    "  int i;\n  for (i = 0; i < 272; i++) { rt_ints[i].tag = T_INT; rt_ints[i].u.i = i - 16; }\n",
                );
            }
            if heap.collects {
                let _ = write!(
                    h,
                    "  rt_size = {};
  rt_base = rt_hp = rt_space(rt_size);
  rt_spare = rt_space(rt_size);
  rt_lim = rt_hp + rt_size;
",
                    heap.space
                );
            } else if has(Rt::Heap) {
                let _ = writeln!(h, "  rt_hp = rt_space({});", heap.space);
            }
            h.push_str("}\n");
        }
        let _ = write!(
            h,
            r##"static void rt_print(Obj *o) {{
  switch (o->tag) {{
    case T_INT: printf("%ld", o->u.i); break;
    case T_BOOL: printf(o->u.i ? "#t" : "#f"); break;
    case T_CHAR: {print_char}; break;
    case T_NIL: printf("()"); break;
{print_tables}    case T_CLO: printf("#<procedure %ld>", o->u.i); break;
    case T_PAIR: {{
      printf("(");
      for (;;) {{
        rt_print(o->u.pair.car);
        o = o->u.pair.cdr;
        if (o->tag == T_NIL) break;
        if (o->tag != T_PAIR) {{ printf(" . "); rt_print(o); break; }}
        printf(" ");
      }}
      printf(")");
      break;
    }}
  }}
}}
"##
        );
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_core::{compile, CompileOptions};
    use pe_frontend::{desugar, parse_source};
    use std::process::Command;

    fn cc_available() -> bool {
        Command::new("cc").arg("--version").output().is_ok()
    }

    /// Builds `c` with `cc -O1` and runs it: (exit status ok, stdout,
    /// stderr).
    fn build_and_run(c: &CProgram, tag: &str) -> (bool, String, String) {
        let dir = std::env::temp_dir().join(format!("pe-backend-c-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("prog.c");
        let bin = dir.join("prog");
        std::fs::write(&src, &c.source).unwrap();
        let out = Command::new("cc")
            .arg("-O1")
            .arg("-o")
            .arg(&bin)
            .arg(&src)
            .output()
            .expect("cc runs");
        assert!(
            out.status.success(),
            "cc failed:\n{}\n--- source ---\n{}",
            String::from_utf8_lossy(&out.stderr),
            c.source
        );
        let out = Command::new(&bin).output().expect("binary runs");
        let _ = std::fs::remove_dir_all(&dir);
        (
            out.status.success(),
            String::from_utf8_lossy(&out.stdout).trim().to_string(),
            String::from_utf8_lossy(&out.stderr).to_string(),
        )
    }

    fn run_c(c: &CProgram, tag: &str) -> String {
        let (ok, stdout, stderr) = build_and_run(c, tag);
        assert!(ok, "{stderr}");
        stdout
    }

    fn emit(src: &str, entry: &str, args: &[Datum]) -> CProgram {
        let p = parse_source(src).unwrap();
        let d = desugar(&p).unwrap();
        let s0 = compile(&d, entry, &CompileOptions::default()).unwrap();
        emit_c(&s0, args, &COptions::default())
    }

    fn compile_and_run(src: &str, entry: &str, args: &[Datum], tag: &str) -> String {
        run_c(&emit(src, entry, args), tag)
    }

    #[test]
    fn emitted_c_has_the_paper_shape() {
        let p = parse_source("(define (f x) (g (+ x 1))) (define (g y) (cons y '()))").unwrap();
        let d = desugar(&p).unwrap();
        let s0 = compile(&d, "f", &CompileOptions::default()).unwrap();
        let c = emit_c(&s0, &[Datum::Int(1)], &COptions::default());
        // labels + gotos + global parameter variables + temporaries
        assert!(c.source.contains("goto L_"), "{}", c.source);
        assert!(c.source.contains("static Obj *g0;"), "{}", c.source);
        assert!(c.source.contains("Obj *p0 = g0;"), "{}", c.source);
        assert!(c.source.contains("(t0 = "), "{}", c.source);
    }

    const CPS_APPEND: &str = "(define (append x y) (cps-append x y (lambda (v) v)))
        (define (cps-append x y c)
          (if (null? x) (c y)
              (cps-append (cdr x) y (lambda (xy) (c (cons (car x) xy))))))";

    #[test]
    fn dispatch_tests_and_constants_are_unboxed() {
        let c = emit(CPS_APPEND, "append", &[Datum::parse("(a 2)").unwrap(), Datum::Nil]);
        // Every closure dispatch compares the label in place, keeping
        // closure-label's type check, instead of boxing label and answer.
        assert!(c.source.contains("if (rt_label_is("), "{}", c.source);
        assert!(!c.source.contains("rt_eqp(rt_int("), "{}", c.source);
        // Constants are emitted in place, never through a temporary.
        for piece in c.source.split("(t").skip(1) {
            let digits_stripped = piece.trim_start_matches(|ch: char| ch.is_ascii_digit());
            let Some(expr) = digits_stripped.strip_prefix(" = ") else {
                continue;
            };
            for k in ["rt_int(", "RT_", "&rt_syms["] {
                assert!(!expr.starts_with(k), "constant in a temporary: (t{piece}");
            }
        }
        // The entry arguments' symbol and nil are static objects.
        let entry = "g0 = rt_cons(&rt_syms[0], rt_cons(rt_int(2L), RT_NIL));";
        assert!(c.source.contains(entry), "{}", c.source);
    }

    #[test]
    fn c_runs_cps_append() {
        if !cc_available() {
            eprintln!("cc not available; skipping");
            return;
        }
        let out = compile_and_run(
            CPS_APPEND,
            "append",
            &[Datum::parse("(1 2)").unwrap(), Datum::parse("(3 4)").unwrap()],
            "append",
        );
        assert_eq!(out, "(1 2 3 4)");
    }

    #[test]
    fn c_runs_tak() {
        if !cc_available() {
            eprintln!("cc not available; skipping");
            return;
        }
        let src = "(define (tak x y z)
                     (if (not (< y x)) z
                         (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))))";
        let out = compile_and_run(
            src,
            "tak",
            &[Datum::Int(14), Datum::Int(7), Datum::Int(3)],
            "tak",
        );
        assert_eq!(out, "7");
    }

    #[test]
    fn c_prints_symbols_and_structures() {
        if !cc_available() {
            eprintln!("cc not available; skipping");
            return;
        }
        let src = "(define (f) (cons 'alpha (cons #t (cons #\\x '()))))";
        let out = compile_and_run(src, "f", &[], "syms");
        assert_eq!(out, "(alpha #t #\\x)");
    }

    #[test]
    fn identity_moves_are_elided() {
        // `acc` rides along in its own position on the self call, so
        // `g1` already holds it at the goto; the move disappears.
        let src = "(define (count n acc) (if (zero? n) acc (count (- n 1) acc)))";
        let p = parse_source(src).unwrap();
        let d = desugar(&p).unwrap();
        let s0 = compile(&d, "count", &CompileOptions::default()).unwrap();
        let on = emit_c(&s0, &[Datum::Int(5), Datum::Int(0)], &COptions::default());
        let off = emit_c(
            &s0,
            &[Datum::Int(5), Datum::Int(0)],
            &COptions { elide_moves: false },
        );
        assert!(on.moves_elided >= 1, "no move elided:\n{}", on.source);
        assert_eq!(off.moves_elided, 0);
        assert!(!on.source.contains("g1 = p1;"), "{}", on.source);
        assert!(off.source.contains("g1 = p1;"), "{}", off.source);
        assert!(on.size_bytes() < off.size_bytes());
        if cc_available() {
            assert_eq!(run_c(&on, "elide-on"), "0");
            assert_eq!(run_c(&off, "elide-off"), "0");
        }
    }

    #[test]
    fn dead_parameter_prologue_and_moves_are_skipped() {
        use pe_core::{S0Proc, S0Program};
        // `sink`'s second parameter is never read: its prologue copy is
        // skipped, and the constant argument's move is elided outright.
        // The effectful `cons` argument still evaluates into the global.
        let p = S0Program {
            entry: 0,
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["x".into()],
                    body: S0Tail::TailCall(
                        1,
                        vec![S0Simple::Var(0), S0Simple::Const(pe_frontend::ast::Constant::Int(9))],
                    ),
                },
                S0Proc {
                    name: "sink".into(),
                    params: vec!["v".into(), "junk".into()],
                    body: S0Tail::Return(S0Simple::Var(0)),
                },
            ],
        };
        let c = emit_c(&p, &[Datum::Int(1)], &COptions::default());
        assert!(!c.source.contains("Obj *p1 = g1;"), "{}", c.source);
        assert!(!c.source.contains("g1 = "), "{}", c.source);
        assert!(c.moves_elided >= 2, "{}", c.source);
        if cc_available() {
            assert_eq!(run_c(&c, "dead-param"), "1");
        }
    }

    /// Whether cc refuses `c`, printing `message`; true without cc.
    fn cc_refuses(c: &CProgram, message: &str, tag: &str) -> bool {
        if !cc_available() {
            return true;
        }
        let dir = std::env::temp_dir().join(format!("pe-backend-c-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("prog.c");
        std::fs::write(&src, &c.source).unwrap();
        let out = Command::new("cc").arg("-fsyntax-only").arg(&src).output().expect("cc runs");
        let _ = std::fs::remove_dir_all(&dir);
        !out.status.success() && String::from_utf8_lossy(&out.stderr).contains(message)
    }

    #[test]
    fn an_unbound_variable_is_a_cc_error() {
        use pe_core::{S0Proc, S0Program};
        // The VM refuses to load these programs; each emitted file
        // carries an `#error` that makes cc refuse it too: a variable
        // past its procedure's parameters, even where the move would
        // otherwise be elided, a call past the procedures and an entry
        // past them.
        let main = |body| S0Proc { name: "main".into(), params: vec!["x".into()], body };
        let unbound = "unbound variable at position 1 (1 parameter(s))";
        let callee = "call to undefined procedure at position 3 (1 procedure(s))";
        let entry = "entry procedure at position 2 is not defined (1 procedure(s))";
        let cases = [
            (0, S0Tail::Return(S0Simple::Var(1)), unbound),
            (0, S0Tail::TailCall(0, vec![S0Simple::Var(1)]), unbound),
            (0, S0Tail::TailCall(3, vec![S0Simple::Var(0)]), callee),
            (2, S0Tail::Return(S0Simple::Var(0)), entry),
        ];
        for (i, (entry, body, message)) in cases.into_iter().enumerate() {
            let p = S0Program { entry, procs: vec![main(body)] };
            let c = emit_c(&p, &[Datum::Int(1)], &COptions::default());
            assert!(c.source.contains(&format!("\n#error \"{message}\"\n")), "{}", c.source);
            assert!(cc_refuses(&c, message, &format!("unbound-{i}")), "{}", c.source);
        }
    }

    /// The arguments of the `RT_NEED` check that opens `label`'s block.
    fn need_at(c: &CProgram, label: &str) -> Option<String> {
        let block = c.source.split(&format!("\n{label}: {{\n")).nth(1)?;
        let line = block.lines().next()?.trim();
        line.strip_prefix("RT_NEED(")?.strip_suffix(");").map(str::to_string)
    }

    #[test]
    fn each_label_checks_its_worst_path_and_names_its_roots() {
        use pe_core::{S0Proc, S0Program};
        let v = S0Simple::Var;
        let k = |c: Constant| S0Simple::Const(c);
        let op = |p: Prim, args: Vec<S0Simple>| S0Simple::Prim(p, args);
        // `main` allocates a pair and a two-capture closure on one path
        // (24 + 24 + 2 * 8 bytes) and a boxed 1000 on the other; `walk`
        // allocates four objects on one path and two on the other, and
        // never names its middle parameter, so a collection there resets
        // `g1` instead of tracing it.
        let p = S0Program {
            entry: 0,
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["a".into(), "b".into(), "c".into()],
                    body: S0Tail::If(
                        op(Prim::NullP, vec![v(0)]),
                        Box::new(S0Tail::TailCall(
                            1,
                            vec![
                                op(Prim::Car, vec![op(Prim::Cons, vec![v(2), v(1)])]),
                                S0Simple::MakeClosure(1, vec![v(0), v(1)]),
                                k(Constant::Int(9)),
                            ],
                        )),
                        Box::new(S0Tail::TailCall(
                            1,
                            vec![k(Constant::Int(1000)), v(2), v(2)],
                        )),
                    ),
                },
                S0Proc {
                    name: "walk".into(),
                    params: vec!["x".into(), "y".into(), "z".into()],
                    body: S0Tail::If(
                        op(Prim::ZeroP, vec![v(2)]),
                        Box::new(S0Tail::Return(op(
                            Prim::Cons,
                            vec![
                                v(0),
                                op(
                                    Prim::Cons,
                                    vec![k(Constant::Str("s".into())), k(Constant::Char('a'))],
                                ),
                            ],
                        ))),
                        Box::new(S0Tail::TailCall(
                            1,
                            vec![
                                op(Prim::Add1, vec![v(0)]),
                                k(Constant::Int(5)),
                                op(Prim::Sub1, vec![v(2)]),
                            ],
                        )),
                    ),
                },
            ],
        };
        for elide_moves in [true, false] {
            let c = emit_c(&p, &[Datum::Nil, Datum::Int(2), Datum::Int(3)], &COptions { elide_moves });
            assert_eq!(need_at(&c, "L_main").as_deref(), Some("64, \"111\""), "{}", c.source);
            assert_eq!(need_at(&c, "L_walk").as_deref(), Some("96, \"101\""), "{}", c.source);
            assert!(c.source.contains("rt_size = 65536;"), "{}", c.source);
            if cc_available() {
                assert_eq!(run_c(&c, &format!("bounds-{elide_moves}")), "(12 \"s\" . #\\a)");
            }
        }
        // Entry arguments past a quarter of the first space double it:
        // 3,000 boxed integers and their pairs take 144,000 bytes.
        let big = Datum::parse(&format!("({})", vec!["1000"; 3000].join(" "))).unwrap();
        let c = emit_c(&p, &[big, Datum::Int(2), Datum::Int(3)], &COptions::default());
        assert!(c.source.contains("rt_size = 524288;"), "{}", c.source);
    }

    #[test]
    fn the_header_holds_only_what_the_program_uses() {
        // The header's one backward sweep closes the set of pieces only
        // if each piece comes after every piece it calls.
        for (i, r) in Rt::ALL.iter().enumerate() {
            assert_eq!(1 << i, r.bit(), "{r:?} out of order");
            for d in r.piece().0 {
                assert!(Rt::ALL[..i].contains(d), "{r:?} calls {d:?}, written after it");
            }
        }
        // One body and no tail call: no collector, no label checks, no
        // static booleans or pairs; arithmetic boxes from one space.
        let c = emit("(define (f x) (+ x 1))", "f", &[Datum::Int(1)]);
        for absent in ["rt_gc", "RT_NEED", "rt_consts", "rt_cons", "rt_closure", "rt_car", "rt_g["] {
            assert!(!c.source.contains(absent), "{absent} in:\n{}", c.source);
        }
        for present in ["static Obj *rt_add(", "rt_hp = rt_space(65536);", "static Obj *g0;"] {
            assert!(c.source.contains(present), "{present} missing:\n{}", c.source);
        }
        // A loop collects: its globals are an array the collector walks.
        let c = emit(CPS_APPEND, "append", &[Datum::parse("(1 2)").unwrap(), Datum::Nil]);
        for present in ["static void rt_gc(", "RT_NEED(", "static Obj *rt_g[", "#define g0 rt_g[0]"] {
            assert!(c.source.contains(present), "{present} missing:\n{}", c.source);
        }
        assert!(!c.source.contains("rt_mul"), "{}", c.source);
    }

    #[test]
    fn c_string_escapes_what_c_cannot_hold_raw() {
        assert_eq!(c_string("a\"b\\c\nd\te\rf"), r#""a\"b\\c\nd\te\rf""#);
        assert_eq!(c_string("\u{1}\u{7f}é"), r#""\001\177\303\251""#);
    }

    #[test]
    fn c_runtime_faults_cleanly() {
        if !cc_available() {
            eprintln!("cc not available; skipping");
            return;
        }
        let c = emit("(define (f x) (car x))", "f", &[Datum::Int(7)]);
        let (ok, _, stderr) = build_and_run(&c, "fault");
        assert!(!ok);
        assert!(stderr.contains("car: not a pair"), "{stderr}");
    }

    #[test]
    fn c_arithmetic_traps_on_overflow_like_the_vm() {
        if !cc_available() {
            eprintln!("cc not available; skipping");
            return;
        }
        let cases: [(&str, i64, &str); 7] = [
            ("(+ x 1)", i64::MAX, "+: fixnum overflow"),
            ("(- x 2)", i64::MIN + 1, "-: fixnum overflow"),
            ("(* x x)", 1 << 32, "*: fixnum overflow"),
            ("(add1 x)", i64::MAX, "add1: fixnum overflow"),
            ("(sub1 (sub1 x))", i64::MIN + 1, "sub1: fixnum overflow"),
            ("(quotient (- x 1) -1)", i64::MIN + 1, "quotient: fixnum overflow"),
            ("(remainder (- x 1) -1)", i64::MIN + 1, "remainder: fixnum overflow"),
        ];
        for (i, (body, x, msg)) in cases.into_iter().enumerate() {
            let c = emit(&format!("(define (f x) {body})"), "f", &[Datum::Int(x)]);
            let (ok, stdout, stderr) = build_and_run(&c, &format!("overflow-{i}"));
            assert!(!ok, "{body} at {x} printed {stdout}");
            assert!(stderr.contains(msg), "{body} at {x}: {stderr}");
        }
        // In range, including the most negative fixnum as a literal.
        let src = "(define (f x) (cons (* x -1) (cons (- x 9223372036854775807) '())))";
        let c = emit(src, "f", &[Datum::Int(i64::MAX)]);
        assert_eq!(run_c(&c, "no-overflow"), "(-9223372036854775807 0)");
        let c = emit("(define (f x) (quotient x -1))", "f", &[Datum::Int(i64::MIN)]);
        let (ok, _, stderr) = build_and_run(&c, "min-literal");
        assert!(!ok && stderr.contains("quotient: fixnum overflow"), "{stderr}");
    }
}
