//! Value descriptions — the partially static data of the two-level
//! interpreter (Fig. 7):
//!
//! ```text
//! desc ::= quote(K) | cons(desc, desc) | clos(ℓ, desc*) | cv(i)
//! ```
//!
//! A description is a compile-time view of a runtime value: fully known
//! (`quote`), a pair or closure with known shape but possibly unknown
//! components, or completely unknown (`cv` — a *configuration variable*
//! whose runtime value lives in the residual program).  Each `cons`/`clos`
//! carries its creation site so the §4.5 self-embedding test can detect
//! data that grows under dynamic control, and each `cv` carries the flow
//! analysis' closure-candidate set so The Trick can dispatch on it.

use crate::s0::S0Simple;
use pe_frontend::ast::Constant;
use pe_frontend::dast::LamId;
use pe_frontend::flow::LamSet;
use pe_intern::FxHashMap;
use std::sync::Arc;

/// A configuration variable identifier (paper: `cv(i)`).
pub type CvId = u32;

/// A configuration variable without a σ binding (or absent from a
/// renaming) — an internal invariant violation that the specializer
/// reports as [`crate::SpecError::Internal`] instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissingCv(pub CvId);

impl std::fmt::Display for MissingCv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "configuration variable {} has no binding", self.0)
    }
}

impl std::error::Error for MissingCv {}

/// A value description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValDesc {
    /// A completely static value.
    Quote(Constant),
    /// A partially static pair, tagged with its creation site (the
    /// `DLabel` of the `cons` expression).
    Cons { site: u32, car: Arc<ValDesc>, cdr: Arc<ValDesc> },
    /// A partially static closure.
    Clos { lam: LamId, freevals: Vec<ValDesc> },
    /// A configuration variable: unknown at compile time; `cands` are the
    /// lambdas it may be a closure of (for The Trick).
    Cv { id: CvId, cands: LamSet },
}

impl ValDesc {
    /// Compile-time truthiness: `Some(b)` if statically decidable.
    pub fn truthiness(&self) -> Option<bool> {
        match self {
            ValDesc::Quote(k) => Some(k.is_truthy()),
            ValDesc::Cons { .. } | ValDesc::Clos { .. } => Some(true),
            ValDesc::Cv { .. } => None,
        }
    }

    /// True if the description contains no configuration variable — the
    /// value is completely static.
    pub fn is_fully_static(&self) -> bool {
        match self {
            ValDesc::Quote(_) => true,
            ValDesc::Cons { car, cdr, .. } => car.is_fully_static() && cdr.is_fully_static(),
            ValDesc::Clos { freevals, .. } => freevals.iter().all(ValDesc::is_fully_static),
            ValDesc::Cv { .. } => false,
        }
    }

    /// If the description is first-order and fully static, its constant.
    pub fn as_constant(&self) -> Option<Constant> {
        match self {
            ValDesc::Quote(k) => Some(k.clone()),
            ValDesc::Cons { car, cdr, .. } => Some(Constant::Pair(
                Arc::new(car.as_constant()?),
                Arc::new(cdr.as_constant()?),
            )),
            ValDesc::Clos { .. } | ValDesc::Cv { .. } => None,
        }
    }

    /// The lambdas this value may be a closure of.
    pub fn closure_candidates(&self) -> LamSet {
        match self {
            ValDesc::Clos { lam, .. } => [*lam].into_iter().collect(),
            ValDesc::Cv { cands, .. } => cands.clone(),
            ValDesc::Quote(_) | ValDesc::Cons { .. } => LamSet::new(),
        }
    }

    /// `D[·]`-lifting: the residual expression that rebuilds this value
    /// at runtime.  `σ` maps configuration variables to their residual
    /// expressions.
    ///
    /// # Errors
    ///
    /// [`MissingCv`] if a configuration variable has no σ binding.
    pub fn residualize(&self, sigma: &FxHashMap<CvId, S0Simple>) -> Result<S0Simple, MissingCv> {
        match self {
            ValDesc::Quote(k) => Ok(S0Simple::Const(k.clone())),
            ValDesc::Cons { car, cdr, .. } => Ok(S0Simple::Prim(
                pe_frontend::Prim::Cons,
                vec![car.residualize(sigma)?, cdr.residualize(sigma)?],
            )),
            ValDesc::Clos { lam, freevals } => Ok(S0Simple::MakeClosure(
                lam.0,
                freevals
                    .iter()
                    .map(|d| d.residualize(sigma))
                    .collect::<Result<Vec<_>, _>>()?,
            )),
            ValDesc::Cv { id, .. } => sigma.get(id).cloned().ok_or(MissingCv(*id)),
        }
    }

    /// The §4.5 self-embedding test: does this description contain a
    /// `cons` or `clos` nested (strictly) below a node from the *same*
    /// creation site?  Such descriptions can grow without bounds under
    /// dynamic control and must be generalized.
    pub fn is_self_embedding(&self) -> bool {
        fn walk(d: &ValDesc, lams: &mut Vec<LamId>, sites: &mut Vec<u32>) -> bool {
            match d {
                ValDesc::Quote(_) | ValDesc::Cv { .. } => false,
                ValDesc::Cons { site, car, cdr } => {
                    if sites.contains(site) {
                        return true;
                    }
                    sites.push(*site);
                    let r = walk(car, lams, sites) || walk(cdr, lams, sites);
                    sites.pop();
                    r
                }
                ValDesc::Clos { lam, freevals } => {
                    if lams.contains(lam) {
                        return true;
                    }
                    lams.push(*lam);
                    let r = freevals.iter().any(|f| walk(f, lams, sites));
                    lams.pop();
                    r
                }
            }
        }
        walk(self, &mut Vec::new(), &mut Vec::new())
    }

    /// Collects the configuration variables in first-occurrence order
    /// (depth-first, left-to-right).
    pub fn collect_cvs(&self, out: &mut Vec<CvId>) {
        match self {
            ValDesc::Quote(_) => {}
            ValDesc::Cons { car, cdr, .. } => {
                car.collect_cvs(out);
                cdr.collect_cvs(out);
            }
            ValDesc::Clos { freevals, .. } => freevals.iter().for_each(|f| f.collect_cvs(out)),
            ValDesc::Cv { id, .. } => {
                if !out.contains(id) {
                    out.push(*id);
                }
            }
        }
    }

    /// Rewrites configuration variables through `map` (used when a memo
    /// entry's descriptions are renamed to the residual procedure's
    /// parameters).
    ///
    /// # Errors
    ///
    /// [`MissingCv`] if a configuration variable is absent from `map`.
    pub fn rename_cvs(&self, map: &FxHashMap<CvId, CvId>) -> Result<ValDesc, MissingCv> {
        match self {
            ValDesc::Quote(_) => Ok(self.clone()),
            ValDesc::Cons { site, car, cdr } => Ok(ValDesc::Cons {
                site: *site,
                car: Arc::new(car.rename_cvs(map)?),
                cdr: Arc::new(cdr.rename_cvs(map)?),
            }),
            ValDesc::Clos { lam, freevals } => Ok(ValDesc::Clos {
                lam: *lam,
                freevals: freevals
                    .iter()
                    .map(|f| f.rename_cvs(map))
                    .collect::<Result<Vec<_>, _>>()?,
            }),
            ValDesc::Cv { id, cands } => Ok(ValDesc::Cv {
                id: *map.get(id).ok_or(MissingCv(*id))?,
                cands: cands.clone(),
            }),
        }
    }

    /// The canonical shape of this description with configuration
    /// variables replaced by their canonical index from `index`.
    pub fn shape(&self, index: &FxHashMap<CvId, u32>) -> DescShape {
        match self {
            ValDesc::Quote(k) => DescShape::Quote(k.clone()),
            ValDesc::Cons { site, car, cdr } => DescShape::Cons(
                *site,
                Box::new(car.shape(index)),
                Box::new(cdr.shape(index)),
            ),
            ValDesc::Clos { lam, freevals } => {
                DescShape::Clos(*lam, freevals.iter().map(|f| f.shape(index)).collect())
            }
            // `index` is always built from this very description set, so
            // a miss cannot happen; the sentinel keeps shape() total.
            ValDesc::Cv { id, cands } => {
                DescShape::Cv(index.get(id).copied().unwrap_or(u32::MAX), cands.clone())
            }
        }
    }

    /// Description tree size (guards against key explosion).
    pub fn size(&self) -> usize {
        match self {
            ValDesc::Quote(_) | ValDesc::Cv { .. } => 1,
            ValDesc::Cons { car, cdr, .. } => 1 + car.size() + cdr.size(),
            ValDesc::Clos { freevals, .. } => {
                1 + freevals.iter().map(ValDesc::size).sum::<usize>()
            }
        }
    }
}

/// A description shape: like [`ValDesc`] but with configuration variables
/// replaced by canonical indices — two specialization states with equal
/// shapes are the *same* state up to renaming of unknowns, which is the
/// memoization equality of the specializer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DescShape {
    /// Fully static constant.
    Quote(Constant),
    /// Pair from a creation site.
    Cons(u32, Box<DescShape>, Box<DescShape>),
    /// Closure with component shapes.
    Clos(LamId, Vec<DescShape>),
    /// Canonical configuration variable with its dispatch candidates
    /// (candidates are part of the state: different candidate sets
    /// generate different dispatch code).
    Cv(u32, LamSet),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cv(id: CvId) -> ValDesc {
        ValDesc::Cv { id, cands: LamSet::new() }
    }

    fn kint(n: i64) -> ValDesc {
        ValDesc::Quote(Constant::Int(n))
    }

    fn cons(site: u32, a: ValDesc, d: ValDesc) -> ValDesc {
        ValDesc::Cons { site, car: Arc::new(a), cdr: Arc::new(d) }
    }

    fn clos(lam: u32, fvs: Vec<ValDesc>) -> ValDesc {
        ValDesc::Clos { lam: LamId(lam), freevals: fvs }
    }

    #[test]
    fn truthiness() {
        assert_eq!(kint(0).truthiness(), Some(true));
        assert_eq!(ValDesc::Quote(Constant::Bool(false)).truthiness(), Some(false));
        assert_eq!(cons(1, kint(1), kint(2)).truthiness(), Some(true));
        assert_eq!(clos(0, vec![]).truthiness(), Some(true));
        assert_eq!(cv(3).truthiness(), None);
    }

    #[test]
    fn self_embedding_detection() {
        // Same cons site nested: critical.
        assert!(cons(7, kint(1), cons(7, kint(2), kint(3))).is_self_embedding());
        // Different sites: fine.
        assert!(!cons(7, kint(1), cons(8, kint(2), kint(3))).is_self_embedding());
        // Same lambda nested in a freeval: critical.
        assert!(clos(24, vec![cv(0), clos(24, vec![cv(1)])]).is_self_embedding());
        // Different lambdas: fine (the paper's identity-in-inner case).
        assert!(!clos(24, vec![cv(0), clos(10, vec![])]).is_self_embedding());
        // Sibling occurrences of the same site are NOT self-embedding.
        assert!(!cons(9, cons(7, kint(1), kint(2)), cons(7, kint(3), kint(4)))
            .is_self_embedding());
    }

    #[test]
    fn residualize_lifts_structure() -> Result<(), MissingCv> {
        let mut sigma = FxHashMap::default();
        sigma.insert(0, S0Simple::Var("cv-vals-$1".into()));
        let d = cons(1, ValDesc::Quote(Constant::Sym("foo".into())), cv(0));
        let e = d.residualize(&sigma)?;
        let s = format!("{:?}", e);
        assert!(s.contains("Cons") || matches!(e, S0Simple::Prim(pe_frontend::Prim::Cons, _)));
        let d = clos(5, vec![cv(0), kint(3)]);
        let e = d.residualize(&sigma)?;
        assert!(
            matches!(&e, S0Simple::MakeClosure(5, args)
                if args.len() == 2 && args[0] == S0Simple::Var("cv-vals-$1".into())),
            "expected make-closure, got {e:?}"
        );
        Ok(())
    }

    #[test]
    fn missing_cv_is_an_error_not_a_panic() {
        let sigma = FxHashMap::default();
        assert_eq!(cv(9).residualize(&sigma), Err(MissingCv(9)));
        let map = FxHashMap::default();
        assert_eq!(cv(9).rename_cvs(&map), Err(MissingCv(9)));
    }

    #[test]
    fn cv_collection_order_and_sharing() {
        let d = cons(1, cv(5), cons(2, cv(3), cv(5)));
        let mut cvs = Vec::new();
        d.collect_cvs(&mut cvs);
        assert_eq!(cvs, vec![5, 3], "first-occurrence order, deduplicated");
    }

    #[test]
    fn shapes_identify_states_up_to_renaming() {
        let d1 = cons(1, cv(10), cv(11));
        let d2 = cons(1, cv(99), cv(3));
        let idx1: FxHashMap<CvId, u32> = [(10, 0), (11, 1)].into_iter().collect();
        let idx2: FxHashMap<CvId, u32> = [(99, 0), (3, 1)].into_iter().collect();
        assert_eq!(d1.shape(&idx1), d2.shape(&idx2));
        // Sharing matters: (cv a, cv a) ≠ (cv a, cv b).
        let d3 = cons(1, cv(7), cv(7));
        let idx3: FxHashMap<CvId, u32> = [(7, 0)].into_iter().collect();
        assert_ne!(d3.shape(&idx3), d1.shape(&idx1));
    }

    #[test]
    fn as_constant_on_closed_data() {
        let d = cons(1, kint(1), ValDesc::Quote(Constant::Nil));
        assert_eq!(
            d.as_constant(),
            Some(Constant::Pair(Arc::new(Constant::Int(1)), Arc::new(Constant::Nil)))
        );
        assert_eq!(cons(1, cv(0), kint(1)).as_constant(), None);
        assert_eq!(clos(0, vec![]).as_constant(), None);
    }
}
