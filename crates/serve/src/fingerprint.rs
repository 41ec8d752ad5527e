//! Content-addressed compile keys.
//!
//! A [`Fingerprint`] names one compilation *by what it computes*: the
//! canonical source text, the entry procedure, every compiler option
//! that can change the residual program, and a format version.  Two
//! requests with the same fingerprint are guaranteed the same residual
//! S₀ program (compilation is deterministic), so the fingerprint is a
//! sound cache key; two requests that differ only in whitespace,
//! comments, or request metadata share one.
//!
//! Determinism matters more than speed here: the hash must be stable
//! across processes, runs, and platforms, so the cache gate in `ci.sh`
//! and the golden tests below can pin exact values.  The [`FxHasher`]
//! has no per-process seed and consumes explicit little-endian words,
//! and every variable-width field is written with its own length
//! separator — nothing about the hash depends on pointer identity,
//! `HashMap` iteration order, or `usize` width.

use pe_core::{CompileOptions, GenStrategy};
use pe_intern::FxHasher;
use pe_sexpr::ReadError;
use std::fmt;
use std::hash::Hasher;

/// Bumped whenever residual output or option semantics change in a way
/// that invalidates previously cached artifacts.  Part of every
/// fingerprint, so a version bump cold-starts the world instead of
/// serving stale residuals.
pub const FORMAT_VERSION: u32 = 1;

/// A 128-bit content address for one compilation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fp:{:032x}", self.0)
    }
}

/// The canonical form of subject-language source: read to S-expressions
/// and re-printed flat, one form per line.  Whitespace, comments, and
/// layout vanish; structure and spelling survive.
///
/// # Errors
///
/// The reader's [`ReadError`] on malformed input — which the service
/// reports as a rejected request rather than caching garbage.
pub fn canonical_source(source: &str) -> Result<String, ReadError> {
    let forms = pe_sexpr::read(source)?;
    let mut out = String::new();
    for form in &forms {
        out.push_str(&form.to_string());
        out.push('\n');
    }
    Ok(out)
}

/// One 64-bit half of the fingerprint.  `seed` domain-separates the two
/// halves; everything else is written in a fixed order with explicit
/// widths.
fn half(seed: u64, canon: &str, entry: &str, opts: &CompileOptions) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(seed);
    h.write_u32(FORMAT_VERSION);
    h.write_u64(canon.len() as u64);
    h.write(canon.as_bytes());
    // The tag byte keeps keys identical to those of earlier releases,
    // which also hashed entry-less program keys (tag 0).
    h.write_u8(1);
    h.write_u64(entry.len() as u64);
    h.write(entry.as_bytes());
    h.write_u8(match opts.strategy {
        GenStrategy::Online => 0,
        GenStrategy::Offline => 1,
    });
    h.write_u8(u8::from(opts.postprocess));
    h.write_u8(u8::from(opts.flow));
    h.write_u8(u8::from(opts.trick_flow));
    h.write_u8(u8::from(opts.sct));
    // pe-core's description-size cap and widening threshold, options in
    // earlier releases: hashing their values keeps keys identical.
    h.write_u64(512);
    h.write_u64(40);
    let l = &opts.limits;
    h.write_u64(l.fuel);
    h.write_u64(l.max_call_depth as u64);
    h.write_u64(l.max_syntax_depth as u64);
    h.write_u64(l.max_unfold_depth as u64);
    h.write_u64(l.max_heap);
    h.write_u64(l.max_residual as u64);
    h.finish()
}

fn combine(canon: &str, entry: &str, opts: &CompileOptions) -> Fingerprint {
    // Two independently seeded 64-bit passes; the golden-ratio and
    // SplitMix increment constants keep the domains disjoint.
    let hi = half(0x9e37_79b9_7f4a_7c15, canon, entry, opts);
    let lo = half(0x2545_f491_4f6c_dd1d, canon, entry, opts);
    Fingerprint((u128::from(hi) << 64) | u128::from(lo))
}

/// The full compile key: canonical source + entry + options + format
/// version.  This is the artifact-cache key — everything the residual
/// program depends on, nothing it doesn't.
///
/// # Errors
///
/// [`ReadError`] on unreadable source.
pub fn fingerprint(
    source: &str,
    entry: &str,
    opts: &CompileOptions,
) -> Result<Fingerprint, ReadError> {
    Ok(combine(&canonical_source(source)?, entry, opts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_governor::Limits;

    #[test]
    fn whitespace_and_comments_do_not_change_the_key() {
        let opts = CompileOptions::default();
        let a = fingerprint("(define (f x) (+ x 1))", "f", &opts).unwrap();
        let b = fingerprint(
            "; a comment\n(define (f x)\n   (+ x   1))\n",
            "f",
            &opts,
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn source_entry_and_options_all_separate_keys() {
        let opts = CompileOptions::default();
        let base = fingerprint("(define (f x) x)", "f", &opts).unwrap();
        assert_ne!(base, fingerprint("(define (f x) (+ x 0))", "f", &opts).unwrap());
        assert_ne!(
            base,
            fingerprint("(define (f x) x)", "g", &opts).unwrap(),
            "entry is part of the key"
        );
        for changed in [
            CompileOptions { strategy: GenStrategy::Online, ..CompileOptions::default() },
            CompileOptions { postprocess: false, ..CompileOptions::default() },
            CompileOptions { flow: false, ..CompileOptions::default() },
            CompileOptions { trick_flow: false, ..CompileOptions::default() },
            CompileOptions { sct: false, ..CompileOptions::default() },
            CompileOptions {
                limits: Limits { fuel: 1234, ..Limits::default() },
                ..CompileOptions::default()
            },
        ] {
            assert_ne!(
                base,
                fingerprint("(define (f x) x)", "f", &changed).unwrap(),
                "option change must change the key: {changed:?}"
            );
        }
    }

    #[test]
    fn unreadable_source_is_rejected() {
        assert!(fingerprint("(define (f", "f", &CompileOptions::default()).is_err());
    }
}
