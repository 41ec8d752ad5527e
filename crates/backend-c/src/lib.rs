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
//! translation and the garbage collector"; allocation strategy being
//! orthogonal, the emitted runtime uses a self-contained bump arena
//! (documented substitution — benchmarks are sized for it).
//!
//! Strings and symbols live in C string tables, written with C escapes
//! (`c_string`), and print as the VM prints them: a string with the
//! S-expression printer's escapes, a symbol as its bytes, a character
//! as its UTF-8.  The string table carries each string's length, so a
//! string prints every byte, NUL included; a symbol prints up to its
//! first NUL byte, where its C string ends.  A program that
//! reads an unbound variable, which the VM refuses to load, becomes a
//! file that `#error` makes cc refuse.

use pe_core::{S0Program, S0Simple, S0Tail};
use pe_frontend::ast::{Constant, Prim};
use pe_interp::Datum;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;

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

struct Emitter {
    /// S₀ name → sanitized unique C label.
    labels: HashMap<String, String>,
    used: HashMap<String, usize>,
    symbols: Vec<String>,
    strings: Vec<String>,
    /// Whether a character constant lies outside ASCII.
    wide_chars: bool,
    /// Variables read where no parameter binds them, in reading order.
    unbound: Vec<String>,
    next_temp: usize,
    max_arity: usize,
    elide: bool,
    moves_elided: usize,
}

/// What translating one procedure body consults and records.
struct ProcScope<'a> {
    /// Procedure name → one flag per parameter, `true` when its body
    /// never reads it.
    dead: &'a HashMap<&'a str, Vec<bool>>,
    /// The current procedure's parameter name → position; parameter *i*
    /// is the C variable `pᵢ`.
    index: HashMap<&'a str, usize>,
    /// Positions the emitted body reads: the prologue copies only these.
    read: Vec<bool>,
}

impl Emitter {
    fn label_of(&mut self, name: &str) -> String {
        if let Some(l) = self.labels.get(name) {
            return l.clone();
        }
        let base: String = name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let base = if base.starts_with(|c: char| c.is_ascii_digit()) {
            format!("p_{base}")
        } else {
            base
        };
        let n = self.used.entry(base.clone()).or_insert(0);
        let unique = if *n == 0 { format!("L_{base}") } else { format!("L_{base}_{n}") };
        *n += 1;
        self.labels.insert(name.to_string(), unique.clone());
        unique
    }

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

    /// Emits a constant as a C expression.  Only a quoted pair, a
    /// character, a string or an integer outside the small-integer
    /// table allocates.
    fn constant(&mut self, k: &Constant) -> String {
        match k {
            Constant::Int(i64::MIN) => "rt_int(LONG_MIN)".to_string(),
            Constant::Int(n) => format!("rt_int({n}L)"),
            Constant::Bool(true) => "RT_TRUE".to_string(),
            Constant::Bool(false) => "RT_FALSE".to_string(),
            Constant::Char(c) => {
                self.wide_chars |= !c.is_ascii();
                format!("rt_char({})", *c as u32)
            }
            Constant::Nil => "RT_NIL".to_string(),
            Constant::Sym(s) => {
                let i = self.sym_index(s);
                format!("&rt_syms[{i}]")
            }
            Constant::Str(s) => {
                let i = self.str_index(s);
                format!("rt_str({i})")
            }
            Constant::Pair(a, d) => {
                let a = self.constant(a);
                let d = self.constant(d);
                format!("rt_cons({a}, {d})")
            }
        }
    }

    /// Translates a simple expression into a C expression that assigns
    /// every intermediate result to a fresh single-use temporary,
    /// sequenced with the comma operator (§5.1), and evaluates to the
    /// final temporary; a variable or constant is emitted in place.
    /// Temporary declarations accumulate in `temps`, and every
    /// parameter read is marked in `scope`.
    fn simple(
        &mut self,
        s: &S0Simple,
        scope: &mut ProcScope<'_>,
        temps: &mut Vec<String>,
    ) -> String {
        let expr = match s {
            S0Simple::Var(v) => {
                let Some(&i) = scope.index.get(v.as_str()) else {
                    self.unbound.push(v.clone());
                    return "RT_NIL".to_string();
                };
                scope.read[i] = true;
                return format!("p{i}");
            }
            // A constant has no effect to sequence.
            S0Simple::Const(k) => return self.constant(k),
            S0Simple::Prim(..) if s.dispatch_test().is_some() => {
                format!("rt_bool({})", self.condition(s, scope, temps))
            }
            S0Simple::Prim(op, args) => {
                let xs: Vec<String> =
                    args.iter().map(|a| self.simple(a, scope, temps)).collect();
                prim_call(*op, &xs)
            }
            S0Simple::MakeClosure(l, args) => {
                let xs: Vec<String> =
                    args.iter().map(|a| self.simple(a, scope, temps)).collect();
                let mut call = format!("rt_closure({l}, {}", xs.len());
                for x in &xs {
                    let _ = write!(call, ", {x}");
                }
                call.push(')');
                call
            }
            S0Simple::ClosureLabel(a) => {
                let x = self.simple(a, scope, temps);
                format!("rt_closure_label({x})")
            }
            S0Simple::ClosureFreeval(a, i) => {
                let x = self.simple(a, scope, temps);
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
    fn condition(
        &mut self,
        c: &S0Simple,
        scope: &mut ProcScope<'_>,
        temps: &mut Vec<String>,
    ) -> String {
        match c.dispatch_test() {
            Some((subject, label)) => {
                let x = self.simple(subject, scope, temps);
                format!("rt_label_is({x}, {label})")
            }
            None => format!("rt_truthy({})", self.simple(c, scope, temps)),
        }
    }

    fn tail(
        &mut self,
        t: &S0Tail,
        scope: &mut ProcScope<'_>,
        temps: &mut Vec<String>,
        indent: usize,
        body: &mut String,
    ) {
        let pad = "  ".repeat(indent);
        match t {
            S0Tail::Return(s) => {
                let e = self.simple(s, scope, temps);
                let _ = writeln!(body, "{pad}return {e};");
            }
            S0Tail::If(c, a, b) => {
                let e = self.condition(c, scope, temps);
                let _ = writeln!(body, "{pad}if ({e}) {{");
                self.tail(a, scope, temps, indent + 1, body);
                let _ = writeln!(body, "{pad}}} else {{");
                self.tail(b, scope, temps, indent + 1, body);
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
                let dead_target = scope.dead.get(callee.as_str());
                for (i, a) in args.iter().enumerate() {
                    if self.elide {
                        let identity = matches!(a, S0Simple::Var(v)
                            if scope.index.get(v.as_str()) == Some(&i));
                        let dead = dead_target
                            .is_some_and(|d| d.get(i).copied().unwrap_or(false))
                            && matches!(a, S0Simple::Var(_) | S0Simple::Const(_));
                        if identity || dead {
                            self.moves_elided += 1;
                            continue;
                        }
                    }
                    let x = self.simple(a, scope, temps);
                    let _ = writeln!(body, "{pad}g{i} = {x};");
                }
                let l = self.label_of(callee);
                let _ = writeln!(body, "{pad}goto {l};");
            }
            S0Tail::Fail(m) => {
                let _ = writeln!(body, "{pad}rt_die({});", c_string(m));
            }
        }
    }
}

fn prim_call(op: Prim, args: &[String]) -> String {
    let f = match op {
        Prim::Cons => "rt_cons",
        Prim::Car => "rt_car",
        Prim::Cdr => "rt_cdr",
        Prim::NullP => "rt_nullp",
        Prim::PairP => "rt_pairp",
        Prim::Not => "rt_not",
        Prim::EqP | Prim::EqvP => "rt_eqp",
        Prim::EqualP => "rt_equalp",
        Prim::Add => "rt_add",
        Prim::Sub => "rt_sub",
        Prim::Mul => "rt_mul",
        Prim::Quotient => "rt_quotient",
        Prim::Remainder => "rt_remainder",
        Prim::NumEq => "rt_numeq",
        Prim::Lt => "rt_lt",
        Prim::Gt => "rt_gt",
        Prim::Le => "rt_le",
        Prim::Ge => "rt_ge",
        Prim::ZeroP => "rt_zerop",
        Prim::Add1 => "rt_add1",
        Prim::Sub1 => "rt_sub1",
        Prim::SymbolP => "rt_symbolp",
        Prim::NumberP => "rt_numberp",
        Prim::BooleanP => "rt_booleanp",
    };
    format!("{f}({})", args.join(", "))
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
    let mut e = Emitter {
        labels: HashMap::new(),
        used: HashMap::new(),
        symbols: Vec::new(),
        strings: Vec::new(),
        wide_chars: false,
        unbound: Vec::new(),
        next_temp: 0,
        max_arity: p.procs.iter().map(|q| q.params.len()).max().unwrap_or(0),
        elide: opts.elide_moves,
        moves_elided: 0,
    };

    // Parameter positions each body never reads, computed once up
    // front: they drive dead-target move elision.  S₀ binds only at
    // procedure entry, so the body's variable set is what is live there.
    let dead: HashMap<&str, Vec<bool>> = if opts.elide_moves {
        p.procs
            .iter()
            .map(|q| {
                let mut read = HashSet::new();
                q.body.vars(&mut read);
                (q.name.as_str(), q.params.iter().map(|v| !read.contains(v)).collect())
            })
            .collect()
    } else {
        HashMap::new()
    };

    // Bodies first, so the symbol/string tables fill up.
    let mut bodies = String::new();
    for q in &p.procs {
        let label = e.label_of(&q.name);
        let mut scope = ProcScope {
            dead: &dead,
            index: q.params.iter().enumerate().map(|(i, v)| (v.as_str(), i)).collect(),
            read: vec![false; q.params.len()],
        };
        let mut temps = Vec::new();
        let mut body = String::new();
        e.tail(&q.body, &mut scope, &mut temps, 1, &mut body);
        let _ = writeln!(bodies, "{label}: {{");
        // Fresh scope: copy the globals into private parameter
        // variables — only the ones the body reads.  A parameter the
        // body never reads, or whose only reads were elided identity
        // moves, needs no copy.
        let mut copied = 0usize;
        for (i, &read) in scope.read.iter().enumerate() {
            if e.elide && !read {
                e.moves_elided += 1;
                continue;
            }
            let _ = writeln!(bodies, "  Obj *p{i} = g{i};");
            copied += 1;
        }
        if copied == 0 {
            let _ = writeln!(bodies, "  ;");
        }
        if !temps.is_empty() {
            let _ = writeln!(bodies, "  Obj *{};", temps.join(", *"));
        }
        bodies.push_str(&body);
        let _ = writeln!(bodies, "}}");
    }

    let mut main_args = String::new();
    for (i, a) in args.iter().enumerate() {
        let a = e.constant(&datum_constant(a));
        let _ = writeln!(main_args, "  g{i} = {a};");
    }

    // Now assemble the file.
    let mut out = runtime_header(&e.symbols, &e.strings, e.wide_chars);
    for v in &e.unbound {
        let _ = writeln!(out, "#error {}", c_string(&format!("unbound variable {v}")));
    }
    let _ = writeln!(out, "/* global parameter variables (§5.1) */");
    for i in 0..e.max_arity.max(args.len()) {
        let _ = writeln!(out, "static Obj *g{i};");
    }
    let _ = writeln!(out, "\nstatic Obj *program(void) {{");
    let entry_label = e.label_of(&p.entry);
    let _ = writeln!(out, "  goto {entry_label};");
    out.push_str(&bodies);
    let _ = writeln!(out, "}}");
    let _ = writeln!(out, "\nint main(void) {{");
    let _ = writeln!(out, "  rt_init();");
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

fn runtime_header(symbols: &[String], strings: &[String], wide_chars: bool) -> String {
    let mut h = String::from(
        r#"/* generated by pe-backend-c — S0-to-C translation (Sperber/Thiemann §5.1) */
#include <limits.h>
#include <stdio.h>
#include <stdlib.h>

enum { T_INT, T_BOOL, T_CHAR, T_NIL, T_SYM, T_STR, T_PAIR, T_CLO };

typedef struct Obj Obj;
struct Obj {
  int tag;
  union {
    long i;
    struct { Obj *car, *cdr; } pair;
    struct { long label; int n; Obj **fv; } clo;
  } u;
};

/* Values without identity are static: #t, #f, '(), symbols, integers -16..255. */
static Obj rt_consts[3] = {{T_BOOL, {0}}, {T_BOOL, {1}}, {T_NIL, {0}}};
#define RT_FALSE (&rt_consts[0])
#define RT_TRUE (&rt_consts[1])
#define RT_NIL (&rt_consts[2])
static Obj rt_ints[272];
"#,
    );
    // A table, and its print case, exists only when it has entries: a
    // program without symbols (strings) has no object to print from it,
    // and `printf("%s")` on a sentinel-only table warns at -O2.  So do
    // the string printer and the UTF-8 character printer, which only
    // programs with strings (characters outside ASCII) need.
    let mut print_tables = String::new();
    if !symbols.is_empty() {
        let _ = writeln!(h, "static const char *rt_symbols[] = {{");
        for s in symbols {
            let _ = writeln!(h, "  {},", c_string(s));
        }
        let _ = writeln!(h, "}};");
        let objs: Vec<String> = (0..symbols.len()).map(|i| format!("{{T_SYM, {{{i}}}}}")).collect();
        let _ = writeln!(h, "static Obj rt_syms[] = {{{}}};", objs.join(", "));
        print_tables.push_str("    case T_SYM: printf(\"%s\", rt_symbols[o->u.i]); break;\n");
    }
    if !strings.is_empty() {
        let _ = writeln!(h, "static const char *rt_strings[] = {{");
        for s in strings {
            let _ = writeln!(h, "  {},", c_string(s));
        }
        let _ = writeln!(h, "}};");
        let lens: Vec<String> = strings.iter().map(|s| s.len().to_string()).collect();
        let _ = writeln!(h, "static const unsigned long rt_string_lens[] = {{{}}};", lens.join(", "));
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
    let print_char = if wide_chars {
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
    let _ = write!(
        h,
        r##"
/* Bump arena: substitution for the Boehm collector (see DESIGN.md). */
#define RT_ARENA_BYTES (256L << 20)
static char *rt_free_ptr, *rt_end;
static void rt_init(void) {{
  int i;
  rt_free_ptr = (char *)malloc(RT_ARENA_BYTES);
  if (!rt_free_ptr) {{ fprintf(stderr, "arena allocation failed\n"); exit(2); }}
  rt_end = rt_free_ptr + RT_ARENA_BYTES;
  for (i = 0; i < 272; i++) {{ rt_ints[i].tag = T_INT; rt_ints[i].u.i = i - 16; }}
}}
static void rt_die(const char *msg) {{
  fprintf(stderr, "runtime error: %s\n", msg);
  exit(1);
}}
static void *rt_alloc(size_t n) {{
  n = (n + 15) & ~(size_t)15;
  if ((size_t)(rt_end - rt_free_ptr) < n) rt_die("arena exhausted");
  {{ void *p = rt_free_ptr; rt_free_ptr += n; return p; }}
}}
static Obj *rt_new(int tag) {{
  Obj *o = (Obj *)rt_alloc(sizeof(Obj));
  o->tag = tag;
  return o;
}}
static Obj *rt_int(long n) {{
  Obj *o;
  if ((unsigned long)n + 16 < 272) return &rt_ints[n + 16];
  o = rt_new(T_INT); o->u.i = n; return o;
}}
static Obj *rt_bool(int b) {{ return b ? RT_TRUE : RT_FALSE; }}
static Obj *rt_char(long c) {{ Obj *o = rt_new(T_CHAR); o->u.i = c; return o; }}
static Obj *rt_str(long i) {{ Obj *o = rt_new(T_STR); o->u.i = i; return o; }}
static Obj *rt_cons(Obj *a, Obj *d) {{
  Obj *o = rt_new(T_PAIR); o->u.pair.car = a; o->u.pair.cdr = d; return o;
}}
static int rt_truthy(Obj *o) {{ return o != RT_FALSE; }}
static Obj *rt_car(Obj *o) {{ if (o->tag != T_PAIR) rt_die("car: not a pair"); return o->u.pair.car; }}
static Obj *rt_cdr(Obj *o) {{ if (o->tag != T_PAIR) rt_die("cdr: not a pair"); return o->u.pair.cdr; }}
static Obj *rt_nullp(Obj *o) {{ return rt_bool(o->tag == T_NIL); }}
static Obj *rt_pairp(Obj *o) {{ return rt_bool(o->tag == T_PAIR); }}
static Obj *rt_not(Obj *o) {{ return rt_bool(!rt_truthy(o)); }}
static Obj *rt_symbolp(Obj *o) {{ return rt_bool(o->tag == T_SYM); }}
static Obj *rt_numberp(Obj *o) {{ return rt_bool(o->tag == T_INT); }}
static Obj *rt_booleanp(Obj *o) {{ return rt_bool(o->tag == T_BOOL); }}
static long rt_ival(Obj *o) {{ if (o->tag != T_INT) rt_die("expected number"); return o->u.i; }}
#define RT_CHECKED(op, x, y, name) \
  long r; if (__builtin_##op##_overflow(x, y, &r)) rt_die(name ": fixnum overflow"); return rt_int(r)
static Obj *rt_add(Obj *a, Obj *b) {{ RT_CHECKED(add, rt_ival(a), rt_ival(b), "+"); }}
static Obj *rt_sub(Obj *a, Obj *b) {{ RT_CHECKED(sub, rt_ival(a), rt_ival(b), "-"); }}
static Obj *rt_mul(Obj *a, Obj *b) {{ RT_CHECKED(mul, rt_ival(a), rt_ival(b), "*"); }}
static Obj *rt_add1(Obj *o) {{ RT_CHECKED(add, rt_ival(o), 1L, "add1"); }}
static Obj *rt_sub1(Obj *o) {{ RT_CHECKED(sub, rt_ival(o), 1L, "sub1"); }}
static Obj *rt_quotient(Obj *a, Obj *b) {{
  long n = rt_ival(a), d = rt_ival(b);
  if (d == 0) rt_die("quotient: division by zero");
  if (d == -1 && n == LONG_MIN) rt_die("quotient: fixnum overflow");
  return rt_int(n / d);
}}
static Obj *rt_remainder(Obj *a, Obj *b) {{
  long n = rt_ival(a), d = rt_ival(b);
  if (d == 0) rt_die("remainder: division by zero");
  if (d == -1 && n == LONG_MIN) rt_die("remainder: fixnum overflow");
  return rt_int(n % d);
}}
static Obj *rt_numeq(Obj *a, Obj *b) {{ return rt_bool(rt_ival(a) == rt_ival(b)); }}
static Obj *rt_lt(Obj *a, Obj *b) {{ return rt_bool(rt_ival(a) < rt_ival(b)); }}
static Obj *rt_gt(Obj *a, Obj *b) {{ return rt_bool(rt_ival(a) > rt_ival(b)); }}
static Obj *rt_le(Obj *a, Obj *b) {{ return rt_bool(rt_ival(a) <= rt_ival(b)); }}
static Obj *rt_ge(Obj *a, Obj *b) {{ return rt_bool(rt_ival(a) >= rt_ival(b)); }}
static Obj *rt_zerop(Obj *o) {{ return rt_bool(rt_ival(o) == 0); }}
static int rt_eq_raw(Obj *a, Obj *b) {{
  if (a == b) return 1;
  if (a->tag != b->tag) return 0;
  switch (a->tag) {{
    case T_INT: case T_BOOL: case T_CHAR: case T_SYM: case T_STR: return a->u.i == b->u.i;
    case T_NIL: return 1;
    default: return 0;
  }}
}}
static Obj *rt_eqp(Obj *a, Obj *b) {{ return rt_bool(rt_eq_raw(a, b)); }}
static int rt_equal_raw(Obj *a, Obj *b) {{
  if (rt_eq_raw(a, b)) return 1;
  if (a->tag == T_PAIR && b->tag == T_PAIR)
    return rt_equal_raw(a->u.pair.car, b->u.pair.car) &&
           rt_equal_raw(a->u.pair.cdr, b->u.pair.cdr);
  return 0;
}}
static Obj *rt_equalp(Obj *a, Obj *b) {{ return rt_bool(rt_equal_raw(a, b)); }}
static Obj *rt_closure(long label, int n, ...) {{
  __builtin_va_list ap;
  Obj *o = rt_new(T_CLO);
  int i;
  o->u.clo.label = label;
  o->u.clo.n = n;
  o->u.clo.fv = (Obj **)rt_alloc(sizeof(Obj *) * (n ? n : 1));
  __builtin_va_start(ap, n);
  for (i = 0; i < n; i++) o->u.clo.fv[i] = __builtin_va_arg(ap, Obj *);
  __builtin_va_end(ap);
  return o;
}}
static long rt_label(Obj *o) {{
  if (o->tag != T_CLO) rt_die("closure-label: not a closure");
  return o->u.clo.label;
}}
static Obj *rt_closure_label(Obj *o) {{ return rt_int(rt_label(o)); }}
static int rt_label_is(Obj *o, long l) {{ return rt_label(o) == l; }}
static Obj *rt_closure_freeval(Obj *o, int i) {{
  if (o->tag != T_CLO) rt_die("closure-freeval: not a closure");
  if (i >= o->u.clo.n) rt_die("closure-freeval: index out of range");
  return o->u.clo.fv[i];
}}
static void rt_print(Obj *o) {{
  switch (o->tag) {{
    case T_INT: printf("%ld", o->u.i); break;
    case T_BOOL: printf(o->u.i ? "#t" : "#f"); break;
    case T_CHAR: {print_char}; break;
    case T_NIL: printf("()"); break;
{print_tables}    case T_CLO: printf("#<procedure %ld>", o->u.clo.label); break;
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
            entry: "main".into(),
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["x".into()],
                    body: S0Tail::TailCall(
                        "sink".into(),
                        vec![
                            S0Simple::Var("x".into()),
                            S0Simple::Const(pe_frontend::ast::Constant::Int(9)),
                        ],
                    ),
                },
                S0Proc {
                    name: "sink".into(),
                    params: vec!["v".into(), "junk".into()],
                    body: S0Tail::Return(S0Simple::Var("v".into())),
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

    #[test]
    fn an_unbound_variable_is_a_cc_error() {
        use pe_core::{S0Proc, S0Program};
        // The VM refuses to load this program; the emitted file carries
        // an `#error` that makes cc refuse it too.
        let p = S0Program {
            entry: "main".into(),
            procs: vec![S0Proc {
                name: "main".into(),
                params: vec!["x".into()],
                body: S0Tail::Return(S0Simple::Var("y".into())),
            }],
        };
        let c = emit_c(&p, &[Datum::Int(1)], &COptions::default());
        assert!(c.source.contains("\n#error \"unbound variable y\"\n"), "{}", c.source);
        if cc_available() {
            let dir =
                std::env::temp_dir().join(format!("pe-backend-c-unbound-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let src = dir.join("prog.c");
            std::fs::write(&src, &c.source).unwrap();
            let out =
                Command::new("cc").arg("-fsyntax-only").arg(&src).output().expect("cc runs");
            let _ = std::fs::remove_dir_all(&dir);
            assert!(!out.status.success());
            assert!(String::from_utf8_lossy(&out.stderr).contains("unbound variable y"));
        }
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
