//! The "simple equational flow analysis" of §4.2 — a monovariant 0CFA
//! over the desugared tail form.
//!
//! The analysis computes, for every variable and every expression, which
//! lambda abstractions its value may be a closure of, and which `cons`
//! sites its value may be a pair of.  The specializer uses it to
//!
//! * restrict the set of lambdas The Trick must dispatch over when a
//!   dynamic closure is applied, and
//! * (via [`crate::gen_analysis`]) detect self-embedding closures and
//!   pairs that would make specialization diverge (§4.5).
//!
//! Abstract values track closure labels and cons-site labels precisely;
//! all other data collapses to a `base` flag.  Returned values merge in a
//! single global pool (`RET`) that feeds every context-lambda parameter —
//! the paper calls for exactly this kind of cheap equational analysis.

use crate::dast::{DProgram, LamId, SimpleExpr, TailExpr, VarId};
use crate::Prim;
use std::collections::BTreeSet;

/// A set of lambda labels — the dispatch candidates for The Trick.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LamSet(pub BTreeSet<LamId>);

impl LamSet {
    /// The empty set.
    pub fn new() -> LamSet {
        LamSet::default()
    }

    /// Set union.
    pub fn union(&self, other: &LamSet) -> LamSet {
        LamSet(self.0.union(&other.0).copied().collect())
    }

    /// Members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = LamId> + '_ {
        self.0.iter().copied()
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if no lambda can flow here.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, l: LamId) -> bool {
        self.0.contains(&l)
    }
}

impl FromIterator<LamId> for LamSet {
    fn from_iter<T: IntoIterator<Item = LamId>>(iter: T) -> Self {
        LamSet(iter.into_iter().collect())
    }
}

/// An abstract value: which closures / pairs / other data may flow here.
///
/// This is the decoded, set-based view the accessors hand out; the
/// solver itself keeps every fact as a bitset row (see [`FlowAnalysis`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AbsVal {
    /// Lambdas this value may be a closure of.
    pub lams: BTreeSet<LamId>,
    /// `cons` sites (by expression label `DLabel.0`) this value may be a
    /// pair of.
    pub pairs: BTreeSet<u32>,
    /// May be quoted (closure-free) structured data.
    pub quoted: bool,
    /// May be first-order base data (numbers, booleans, entry input, …).
    pub base: bool,
}

/// Flag bits of a fact row's last word.
const QUOTED: u64 = 1;
const BASE: u64 = 2;

/// The result of the flow analysis.
///
/// Every fact is a dense bitset row of `lam_words` words over [`LamId`]s,
/// `pair_words` words over cons-site *slots* (the sites numbered in
/// program order), and one flag word (`QUOTED`, `BASE`).  Rows are laid
/// out back to back in one vector: the variables by [`VarId`], then one
/// row per cons slot holding the join of both components, then the
/// global return pool.  A join is a word-wise OR, and `car`/`cdr` read
/// their components by slot.
#[derive(Debug)]
pub struct FlowAnalysis {
    lam_words: usize,
    pair_words: usize,
    rows: Vec<u64>,
    nvars: usize,
    /// Cons-site label per slot, in program order.
    sites: Vec<u32>,
    /// Slot per cons-site label (`u32::MAX` for labels of no cons site).
    slot_of: Vec<u32>,
    /// Lambdas that may occur in context position of a `PushApp` —
    /// everything a dynamic context stack may contain.
    context_lams: LamSet,
}

impl FlowAnalysis {
    /// Runs the analysis to fixpoint.
    pub fn analyze(p: &DProgram) -> FlowAnalysis {
        // Number cons sites up front so slots are stable; a label seen
        // twice keeps its first slot.
        let mut labels = Vec::new();
        for body in bodies(p) {
            collect_cons_sites_tail(body, &mut labels);
        }
        let mut slot_of = vec![u32::MAX; labels.iter().max().map_or(0, |&l| l as usize + 1)];
        let mut sites = Vec::new();
        for l in labels {
            if slot_of[l as usize] == u32::MAX {
                slot_of[l as usize] = sites.len() as u32;
                sites.push(l);
            }
        }
        let nvars = p.var_names.len();
        let lam_words = p.lambdas.len().div_ceil(64);
        let pair_words = sites.len().div_ceil(64);
        let stride = lam_words + pair_words + 1;
        let nrows = nvars + sites.len() + 1;
        let mut st = Solver {
            p,
            f: FlowAnalysis {
                lam_words,
                pair_words,
                rows: vec![0; nrows * stride],
                nvars,
                sites,
                slot_of,
                context_lams: LamSet::new(),
            },
            buf: vec![0; stride],
            changed: true,
        };
        // Entry assumption: any procedure may be called from outside with
        // first-order data.
        for d in &p.defs {
            for &v in &d.params {
                st.f.rows[v.0 as usize * stride + stride - 1] |= BASE;
            }
        }
        while st.changed {
            st.changed = false;
            for body in bodies(p) {
                st.tail(body);
            }
        }
        // Context lambdas: those that may flow into ctx position.
        let mut context = vec![0; lam_words];
        let mut buf = Vec::new();
        for body in bodies(p) {
            st.f.collect_context_lams(body, &mut context, &mut buf);
        }
        st.f.context_lams = st.f.lam_set(&context);
        st.f
    }

    fn stride(&self) -> usize {
        self.lam_words + self.pair_words + 1
    }

    fn row(&self, r: usize) -> &[u64] {
        let w = self.stride();
        &self.rows[r * w..(r + 1) * w]
    }

    fn cons_row(&self, slot: usize) -> usize {
        self.nvars + slot
    }

    fn ret_row(&self) -> usize {
        self.nvars + self.sites.len()
    }

    fn slot(&self, site: u32) -> Option<usize> {
        match self.slot_of.get(site as usize) {
            Some(&s) if s != u32::MAX => Some(s as usize),
            _ => None,
        }
    }

    /// ORs the value of `se` into `buf[at..at + stride]`; nested
    /// `car`/`cdr` arguments are evaluated in the rows of `buf` above
    /// `at`, which grows as deep as the nesting once and is reused.
    fn eval(&self, se: &SimpleExpr, buf: &mut Vec<u64>, at: usize) {
        let w = self.stride();
        match se {
            SimpleExpr::Var(_, v) => or_words(&mut buf[at..at + w], self.row(v.0 as usize)),
            SimpleExpr::Const(_, k) => {
                let quoted = if matches!(k, crate::Constant::Pair(_, _)) { QUOTED } else { 0 };
                buf[at + w - 1] |= BASE | quoted;
            }
            SimpleExpr::Lambda(_, id) => set_bit(&mut buf[at..at + self.lam_words], id.0 as usize),
            SimpleExpr::Prim(l, Prim::Cons, _) => {
                let slot = self.slot(l.0).expect("cons site numbered");
                set_bit(&mut buf[at + self.lam_words..at + w - 1], slot);
            }
            SimpleExpr::Prim(_, Prim::Car | Prim::Cdr, args) => {
                let x_at = at + w;
                if buf.len() < x_at + w {
                    buf.resize(x_at + w, 0);
                }
                buf[x_at..x_at + w].fill(0);
                self.eval(&args[0], buf, x_at);
                let (out, x) = buf.split_at_mut(x_at);
                let (out, x) = (&mut out[at..at + w], &x[..w]);
                // Components of quoted data are quoted data; base data is
                // closure-free so its components are base.
                let flags = x[w - 1];
                out[w - 1] |= (flags & QUOTED) | if flags != 0 { BASE } else { 0 };
                for slot in bits(&x[self.lam_words..w - 1]) {
                    or_words(out, self.row(self.cons_row(slot)));
                }
            }
            SimpleExpr::Prim(_, _, _) => buf[at + w - 1] |= BASE,
        }
    }

    /// The bitset row of a simple expression's value.
    fn value_row(&self, se: &SimpleExpr) -> Vec<u64> {
        let mut buf = vec![0; self.stride()];
        self.eval(se, &mut buf, 0);
        buf.truncate(self.stride());
        buf
    }

    fn decode(&self, row: &[u64]) -> AbsVal {
        let w = self.stride();
        AbsVal {
            lams: bits(&row[..self.lam_words]).map(|i| LamId(i as u32)).collect(),
            pairs: bits(&row[self.lam_words..w - 1]).map(|s| self.sites[s]).collect(),
            quoted: row[w - 1] & QUOTED != 0,
            base: row[w - 1] & BASE != 0,
        }
    }

    fn lam_set(&self, row: &[u64]) -> LamSet {
        LamSet(bits(&row[..self.lam_words]).map(|i| LamId(i as u32)).collect())
    }

    /// The abstract value of a variable.
    pub fn var(&self, v: VarId) -> AbsVal {
        self.decode(self.row(v.0 as usize))
    }

    /// The lambdas a simple expression may evaluate to — The Trick's
    /// dispatch candidates for this expression.
    pub fn lambdas_of(&self, se: &SimpleExpr) -> LamSet {
        match se {
            SimpleExpr::Var(_, v) => self.var_lambdas(*v),
            SimpleExpr::Lambda(_, id) => LamSet(BTreeSet::from([*id])),
            _ => self.lam_set(&self.value_row(se)),
        }
    }

    /// The lambdas a variable may hold.
    pub fn var_lambdas(&self, v: VarId) -> LamSet {
        self.lam_set(self.row(v.0 as usize))
    }

    /// Lambdas that may serve as evaluation contexts (may be pushed on
    /// the context stack) — the candidate set for a fully dynamic stack.
    pub fn context_lambdas(&self) -> &LamSet {
        &self.context_lams
    }

    /// Lambdas that may be returned through the global return pool.
    pub fn returned_lambdas(&self) -> LamSet {
        self.lam_set(self.row(self.ret_row()))
    }

    /// The joined components of a `cons` site, if the site exists.
    pub fn cons_components(&self, site: u32) -> Option<AbsVal> {
        self.slot(site).map(|s| self.decode(self.row(self.cons_row(s))))
    }

    /// The §4.5 containment graph over lambdas (nodes `0..L`, by
    /// [`LamId`]) and cons slots (nodes `L..L + S`): a lambda points at
    /// everything its free variables may hold, a cons slot at everything
    /// its components may hold.  A value reachable inside a closure of ℓ
    /// or a pair from site `s` is exactly a node reachable from ℓ or `s`.
    pub(crate) fn containment_graph(&self, p: &DProgram) -> Vec<Vec<u32>> {
        let nlams = p.lambdas.len();
        let succ_of = |row: &[u64]| -> Vec<u32> {
            bits(&row[..self.lam_words])
                .chain(bits(&row[self.lam_words..self.stride() - 1]).map(|s| nlams + s))
                .map(|n| n as u32)
                .collect()
        };
        let mut held = vec![0; self.stride()];
        let mut succ = Vec::with_capacity(nlams + self.sites.len());
        for lam in &p.lambdas {
            held.fill(0);
            for &fv in &lam.freevars {
                or_words(&mut held, self.row(fv.0 as usize));
            }
            succ.push(succ_of(&held));
        }
        for slot in 0..self.sites.len() {
            succ.push(succ_of(self.row(self.cons_row(slot))));
        }
        succ
    }

    /// The cons-site label of containment-graph slot `slot`.
    pub(crate) fn cons_site(&self, slot: usize) -> u32 {
        self.sites[slot]
    }

    fn collect_context_lams(&self, te: &TailExpr, out: &mut [u64], buf: &mut Vec<u64>) {
        match te {
            TailExpr::Simple(_) | TailExpr::CallProc(_, _, _) => {}
            TailExpr::If(_, _, t, e) => {
                self.collect_context_lams(t, out, buf);
                self.collect_context_lams(e, out, buf);
            }
            TailExpr::PushApp(_, ctx, body) => {
                buf.clear();
                buf.resize(self.stride(), 0);
                self.eval(ctx, buf, 0);
                or_words(out, &buf[..self.lam_words]);
                self.collect_context_lams(body, out, buf);
            }
        }
    }

    /// All lambdas and cons sites reachable *inside* an abstract value:
    /// its own closure and pair sets plus, transitively, anything stored
    /// in pairs it may contain and anything captured by closures it may
    /// be.  The walk-based definition the containment graph replaces,
    /// kept as the oracle its tests compare against.
    #[cfg(test)]
    pub(crate) fn deep_reach(&self, p: &DProgram, v: &AbsVal) -> (LamSet, BTreeSet<u32>) {
        let mut seen_lams: BTreeSet<LamId> = BTreeSet::new();
        let mut seen_pairs: BTreeSet<u32> = BTreeSet::new();
        let mut lam_work: Vec<LamId> = v.lams.iter().copied().collect();
        let mut pair_work: Vec<u32> = v.pairs.iter().copied().collect();
        while !lam_work.is_empty() || !pair_work.is_empty() {
            while let Some(site) = pair_work.pop() {
                if !seen_pairs.insert(site) {
                    continue;
                }
                if let Some(c) = self.cons_components(site) {
                    lam_work.extend(c.lams.iter().copied());
                    pair_work.extend(c.pairs.iter().copied());
                }
            }
            while let Some(lam) = lam_work.pop() {
                if !seen_lams.insert(lam) {
                    continue;
                }
                for &fv in &p.lambda(lam).freevars {
                    let fvv = self.var(fv);
                    lam_work.extend(fvv.lams.iter().copied());
                    pair_work.extend(fvv.pairs.iter().copied());
                }
            }
        }
        (LamSet(seen_lams), seen_pairs)
    }
}

/// Every body of the program: procedures, then the lambda table.
fn bodies(p: &DProgram) -> impl Iterator<Item = &TailExpr> {
    p.defs.iter().map(|d| &d.body).chain(p.lambdas.iter().map(|l| &l.body))
}

/// Indices of the set bits of `words`, ascending.
fn bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(i, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                i * 64 + b
            })
        })
    })
}

fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

fn or_words(into: &mut [u64], from: &[u64]) {
    for (a, b) in into.iter_mut().zip(from) {
        *a |= b;
    }
}

struct Solver<'p> {
    p: &'p DProgram,
    f: FlowAnalysis,
    /// Evaluation scratch rows.
    buf: Vec<u64>,
    changed: bool,
}

fn collect_cons_sites_tail(te: &TailExpr, out: &mut Vec<u32>) {
    match te {
        TailExpr::Simple(se) => collect_cons_sites_simple(se, out),
        TailExpr::If(_, c, t, e) => {
            collect_cons_sites_simple(c, out);
            collect_cons_sites_tail(t, out);
            collect_cons_sites_tail(e, out);
        }
        TailExpr::CallProc(_, _, args) => {
            for a in args {
                collect_cons_sites_simple(a, out);
            }
        }
        TailExpr::PushApp(_, ctx, body) => {
            collect_cons_sites_simple(ctx, out);
            collect_cons_sites_tail(body, out);
        }
    }
}

fn collect_cons_sites_simple(se: &SimpleExpr, out: &mut Vec<u32>) {
    if let SimpleExpr::Prim(l, op, args) = se {
        if *op == Prim::Cons {
            out.push(l.0);
        }
        for a in args {
            collect_cons_sites_simple(a, out);
        }
    }
}

impl Solver<'_> {
    /// ORs row `src` into row `dst`.
    fn join_rows(&mut self, dst: usize, src: usize) {
        let w = self.f.stride();
        for i in 0..w {
            let (old, add) = (self.f.rows[dst * w + i], self.f.rows[src * w + i]);
            if add & !old != 0 {
                self.f.rows[dst * w + i] = old | add;
                self.changed = true;
            }
        }
    }

    /// Joins the value of `se` into row `dst`.
    fn flow(&mut self, dst: usize, se: &SimpleExpr) {
        if let SimpleExpr::Var(_, v) = se {
            return self.join_rows(dst, v.0 as usize);
        }
        let w = self.f.stride();
        self.buf[..w].fill(0);
        self.f.eval(se, &mut self.buf, 0);
        for i in 0..w {
            let (old, add) = (self.f.rows[dst * w + i], self.buf[i]);
            if add & !old != 0 {
                self.f.rows[dst * w + i] = old | add;
                self.changed = true;
            }
        }
    }

    /// Records component flows for every `cons` nested in `se`.
    fn record_cons_flows(&mut self, se: &SimpleExpr) {
        if let SimpleExpr::Prim(l, op, args) = se {
            for a in args {
                self.record_cons_flows(a);
            }
            if *op == Prim::Cons {
                let row = self.f.cons_row(self.f.slot(l.0).expect("cons site numbered"));
                self.flow(row, &args[0]);
                self.flow(row, &args[1]);
            }
        }
    }

    fn tail(&mut self, te: &TailExpr) {
        match te {
            TailExpr::Simple(se) => {
                self.record_cons_flows(se);
                self.flow(self.f.ret_row(), se);
            }
            TailExpr::If(_, c, t, e) => {
                self.record_cons_flows(c);
                self.tail(t);
                self.tail(e);
            }
            TailExpr::CallProc(_, pid, args) => {
                let params = &self.p.proc(*pid).params;
                for (param, arg) in params.iter().zip(args) {
                    self.record_cons_flows(arg);
                    self.flow(param.0 as usize, arg);
                }
            }
            TailExpr::PushApp(_, ctx, body) => {
                self.record_cons_flows(ctx);
                // Whatever the body returns is delivered to the pushed
                // context's parameter; with the global return pool that
                // is RET.
                let ret = self.f.ret_row();
                if let SimpleExpr::Lambda(_, lam) = ctx {
                    self.join_rows(self.p.lambda(*lam).param.0 as usize, ret);
                } else {
                    let w = self.f.stride();
                    self.buf[..w].fill(0);
                    self.f.eval(ctx, &mut self.buf, 0);
                    for i in 0..self.f.lam_words {
                        let mut word = self.buf[i];
                        while word != 0 {
                            let lam = i * 64 + word.trailing_zeros() as usize;
                            word &= word - 1;
                            self.join_rows(self.p.lambdas[lam].param.0 as usize, ret);
                        }
                    }
                }
                self.tail(body);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::desugar::desugar;
    use crate::parse::parse_source;

    fn analyze(src: &str) -> (DProgram, FlowAnalysis) {
        let p = desugar(&parse_source(src).unwrap()).unwrap();
        let f = FlowAnalysis::analyze(&p);
        (p, f)
    }

    #[test]
    fn cps_append_continuation_candidates() {
        let (p, f) = analyze(
            "(define (append x y) (cps-append x y (lambda (v) v)))
             (define (cps-append x y c)
               (if (null? x) (c y)
                   (cps-append (cdr x) y (lambda (xy) (c (cons (car x) xy))))))",
        );
        // `c` can be the identity lambda or the inner continuation: 2
        // candidates, exactly the paper's dispatch over labels 10 and 24.
        let cps = p.proc_id("cps-append").unwrap();
        let c = p.proc(cps).params[2];
        let cands = f.var_lambdas(c);
        assert_eq!(cands.len(), 2, "candidates: {cands:?}");
    }

    #[test]
    fn first_order_program_has_no_closure_params() {
        let (p, f) = analyze(
            "(define (tak x y z)
               (if (not (< y x)) z
                   (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))))",
        );
        let tak = p.proc_id("tak").unwrap();
        for &param in &p.proc(tak).params {
            assert!(f.var_lambdas(param).is_empty());
        }
        // But desugaring introduced context lambdas.
        assert!(!f.context_lambdas().is_empty());
    }

    #[test]
    fn closures_through_pairs_are_tracked() {
        let (p, f) = analyze(
            "(define (mk x) (cons (lambda (v) x) '()))
             (define (use p a) ((car p) a))
             (define (main a) (use (mk a) a))",
        );
        let use_ = p.proc_id("use").unwrap();
        let pp = p.proc(use_).params[0];
        // p itself is a pair, not a closure…
        assert!(f.var_lambdas(pp).is_empty());
        // …but (car p) can be the stored lambda.
        let (deep, _) = f.deep_reach(&p, &f.var(pp));
        assert_eq!(deep.len(), 1);
    }

    #[test]
    fn quoted_data_never_contains_closures() {
        let (p, f) = analyze("(define (f) (car '(a b)))");
        let _ = p;
        assert!(f.returned_lambdas().is_empty());
    }

    #[test]
    fn deep_pairs_terminates_on_cycles() {
        // A self-embedding cons: (cons x acc) where acc comes back around.
        let (p, f) =
            analyze("(define (rev x acc) (if (null? x) acc (rev (cdr x) (cons (car x) acc))))");
        let rev = p.proc_id("rev").unwrap();
        let acc = p.proc(rev).params[1];
        let (_, deep) = f.deep_reach(&p, &f.var(acc));
        assert_eq!(deep.len(), 1, "one cons site, cyclically reachable");
    }

    #[test]
    fn lamset_operations() {
        let a: LamSet = [LamId(1), LamId(2)].into_iter().collect();
        let b: LamSet = [LamId(2), LamId(3)].into_iter().collect();
        let u = a.union(&b);
        assert_eq!(u.len(), 3);
        assert!(u.contains(LamId(1)) && u.contains(LamId(3)));
        assert!(!LamSet::new().contains(LamId(0)));
    }
}
