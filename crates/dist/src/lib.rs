//! # `bside-dist`: shared wire, cache and report plumbing
//!
//! The std-only layer below both network services — the policy daemon
//! (`bside-serve`) and the analysis fleet (`bside-fleet`). Everything
//! two of them would otherwise each reinvent lives here once:
//!
//! * **transport** ([`net`]) — Unix-domain and TCP endpoints behind one
//!   [`Conn`]/[`Listener`](net::Listener) abstraction;
//! * **framing** ([`protocol`]) — the NDJSON codec with its line cap,
//!   tagged-object field helpers, trace propagation and shipped spans;
//! * **chaos** ([`fault`]) — the seeded fault injector every frame write
//!   passes through;
//! * **results** ([`cache`], [`report`]) — the content-addressed result
//!   cache keyed by `SHA-256(elf bytes, semantic options)`, the
//!   input-ordered [`CorpusRun`], and the one report renderer that keeps
//!   every deployment mode byte-identical to the in-process engine;
//! * **failures** ([`errors`]) — run-level [`DistError`], per-unit
//!   [`UnitFailure`], and the shared degraded-unit messages;
//! * **policies** ([`bundle`]) — the [`PolicyBundle`] both the daemon
//!   and fleet agents derive with [`derive_bundle`].
//!
//! # Example
//!
//! ```no_run
//! use bside_dist::{Conn, Endpoint};
//! use bside_dist::protocol::{read_message_capped, write_message};
//! use std::io::BufReader;
//!
//! let conn = Conn::connect(&Endpoint::parse("/run/bside.sock"))?;
//! write_message(&mut conn.try_clone()?, &serde::Value::Str("hello".into()))?;
//! let reply: Option<serde::Value> =
//!     read_message_capped(&mut BufReader::new(conn), 64 * 1024)?;
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bundle;
pub mod cache;
pub mod errors;
pub mod fault;
pub mod net;
pub mod protocol;
pub mod report;

pub use bundle::{derive_bundle, derive_bundle_parsed, PolicyBundle, RemoteAnalyzer};
pub use cache::{options_fingerprint, sha256_hex, ResultCache};
pub use errors::{parse_error_message, read_error_message, DistError, FailureKind, UnitFailure};
pub use net::{Conn, Endpoint};
pub use report::{report_of_in_process, report_of_run, CorpusRun, RunStats, UnitReport};

#[cfg(test)]
mod tests {
    use super::*;
    use bside_core::{Analyzer, AnalyzerOptions};
    use bside_syscalls::SyscallSet;

    /// The allow-set a bundle's lowered program actually accepts,
    /// recovered by evaluating it over the known table.
    fn bpf_allowed_set(bundle: &PolicyBundle) -> SyscallSet {
        use bside_filter::bpf::{execute, SeccompData, AUDIT_ARCH_X86_64, RET_ALLOW};
        bside_syscalls::table::iter()
            .filter(|(nr, _)| {
                execute(&bundle.bpf.insns, &SeccompData::new(AUDIT_ARCH_X86_64, *nr))
                    == Ok(RET_ALLOW)
            })
            .map(|(nr, _)| bside_syscalls::Sysno::new(nr).expect("table nr"))
            .collect()
    }

    #[test]
    fn derive_bundle_is_deterministic_and_consistent() {
        let profile = bside_gen::profiles::lighttpd();
        let options = AnalyzerOptions::default();
        let a = derive_bundle("lighttpd", &profile.program.image, &options, None).expect("derives");
        let b = derive_bundle("lighttpd", &profile.program.image, &options, None).expect("derives");
        assert_eq!(a, b, "same bytes, same bundle");
        assert_eq!(a.policy.allowed, bpf_allowed_set(&a), "bpf matches policy");
    }

    #[test]
    fn derive_bundle_rejects_garbage_and_reports_parsing() {
        let err = derive_bundle("junk", b"not an elf", &AnalyzerOptions::default(), None)
            .expect_err("must fail");
        assert!(err.contains("parsing junk"), "got: {err}");
    }

    #[test]
    fn dynamic_binary_without_libs_is_refused_with_guidance() {
        let corpus = bside_gen::corpus::corpus_with_size(5, 0, 1, 2);
        let binary = &corpus.binaries[0];
        assert!(!binary.program.elf.needed_libraries().is_empty());
        let err = derive_bundle(
            "dyn",
            &binary.program.image,
            &AnalyzerOptions::default(),
            None,
        )
        .expect_err("no libs");
        assert!(err.contains("--lib-dir"), "got: {err}");
    }

    #[test]
    fn dynamic_binary_derives_through_the_library_store() {
        let corpus = bside_gen::corpus::corpus_with_size(5, 0, 1, 2);
        let binary = &corpus.binaries[0];
        let analyzer = Analyzer::new(AnalyzerOptions::default());
        let refs: Vec<(&str, &bside_elf::Elf)> = corpus
            .libraries
            .iter()
            .map(|l| (l.spec.name.as_str(), &l.elf))
            .collect();
        let libs = analyzer.analyze_libraries(&refs).expect("libraries");
        let bundle = derive_bundle(
            "dyn",
            &binary.program.image,
            &AnalyzerOptions::default(),
            Some(&libs),
        )
        .expect("derives dynamically");
        // The bundle's allow-list is exactly the analyze_dynamic result.
        let local = analyzer
            .analyze_dynamic(&binary.program.elf, &libs, &[])
            .expect("local analysis");
        assert_eq!(bundle.policy.allowed, local.syscalls);
    }
}
