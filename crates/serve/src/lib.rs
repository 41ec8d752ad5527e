//! pe-serve — a parallel, content-addressed compile service over the
//! realistic-pe [`Pipeline`](realistic_pe::Pipeline).
//!
//! The paper's compiler is a batch tool: one source, one entry, one
//! residual program.  A compile *service* answers a stream of such
//! requests from many tenants, and three properties make that
//! realistic rather than a thread-per-request free-for-all:
//!
//! * **Content addressing** ([`fingerprint()`]) — a request is named by
//!   what it computes: canonical source, entry, every residual-shaping
//!   option, and a format version.  Compilation is deterministic, so
//!   the fingerprint is a sound cache key and layout variants of the
//!   same program share one artifact.
//! * **Warm starts** ([`ResidualCache`]) — the specializer's memo table
//!   outlives the compile that built it ([`pe_core::MemoSnapshot`]).
//!   When the artifact is gone but the snapshot survives, a recompile
//!   replays every specialization point from the table: byte-identical
//!   output at a fraction of the cost.
//! * **Isolation** ([`Server`]) — requests run on scoped worker
//!   threads with per-request [`pe_governor`] limits clamped to the
//!   server ceiling; a tenant can starve itself, never the service.
//!
//! None of this was possible while the interner (and everything above
//! it) held `Rc<str>`: the whole artifact chain —
//! [`realistic_pe::Pipeline`], residual [`realistic_pe::S0Program`]s,
//! loaded [`realistic_pe::Vm`]s — is now `Send`, and the test below
//! enforces that at compile time.
//!
//! ```
//! use pe_serve::{CompileRequest, Server, ServerConfig};
//!
//! let server = Server::new(ServerConfig { threads: 2, ..ServerConfig::default() });
//! let req = CompileRequest::new("inc", "(define (inc x) (+ x 1))", "inc");
//! let first = server.serve(std::slice::from_ref(&req));
//! let again = server.serve(std::slice::from_ref(&req));
//! assert!(first[0].residual_source().is_some());
//! assert!(again[0].is_hit(), "same content, no second compile");
//! ```

pub mod cache;
pub mod fingerprint;
pub mod server;

pub use cache::{Artifact, CacheStats, ResidualCache};
pub use fingerprint::{canonical_source, fingerprint, Fingerprint, FORMAT_VERSION};
pub use server::{CompileRequest, CompileResponse, Outcome, Server, ServerConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use pe_intern::{assert_send, assert_sync};
    use realistic_pe::{Pipeline, S0Program, Vm};

    #[test]
    fn the_artifact_chain_is_send() {
        // The PR that introduced this crate exists because these types
        // were not `Send` (the interner held `Rc<str>`); keep the fix
        // pinned at compile time, one type per line so a regression
        // names its culprit.
        assert_send::<Pipeline>();
        assert_send::<S0Program>();
        assert_send::<Vm>();
        assert_send::<pe_core::MemoSnapshot>();
        assert_send::<Artifact>();
        assert_send::<CompileRequest>();
        assert_send::<CompileResponse>();
        assert_send::<Server>();
        assert_sync::<Server>();
    }
}
