//! Content-addressed on-disk result cache.
//!
//! Key: `SHA-256(elf bytes ‖ 0x00 ‖ options fingerprint)`, where the
//! fingerprint is the canonical JSON of every [`AnalyzerOptions`] field
//! that can change the analysis *result* — `parallelism` is deliberately
//! excluded because the engine's determinism contract makes it
//! unobservable. Value: the `bside_core::wire` JSON of the analysis.
//!
//! The cache is safe to share between concurrent runs: entries are
//! written to a temporary file and atomically renamed into place, and a
//! corrupt or truncated entry reads as a miss, never as an error.
//!
//! The coordinator reads each corpus file once: the same bytes are
//! hashed for the key and shipped to the agent, so an entry always
//! describes the bytes it is filed under.
//!
//! The digest comes from the vendored `sha2` shim, the workspace's only
//! SHA-256, which runs on the CPU's SHA extensions where it has them and
//! on a portable block function elsewhere; [`sha256_hex`] only renders
//! it as the lowercase hex that keys, store entries and fleet nonces use.

use bside_core::{AnalyzerOptions, BinaryAnalysis};
use serde::{to_value, Value};
use sha2::Sha256;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// A directory of cached analysis results, keyed by content address.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    pub fn open(dir: &Path) -> std::io::Result<ResultCache> {
        std::fs::create_dir_all(dir)?;
        Ok(ResultCache {
            dir: dir.to_path_buf(),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The content address of `(elf bytes, options)`.
    pub fn key(elf_bytes: &[u8], options: &AnalyzerOptions) -> String {
        let fingerprint = options_fingerprint(options);
        sha256_hex(&[elf_bytes, b"\x00", fingerprint.as_bytes()])
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// Loads the cached analysis for `key`. Any unreadable or corrupt
    /// entry is a miss.
    pub fn load(&self, key: &str) -> Option<BinaryAnalysis> {
        let text = std::fs::read_to_string(self.entry_path(key)).ok()?;
        serde_json::from_str(&text).ok()
    }

    /// Stores an analysis under `key` (atomic write-then-rename, so a
    /// concurrent reader never observes a partial entry).
    pub fn store(&self, key: &str, analysis: &BinaryAnalysis) -> std::io::Result<()> {
        let json = serde_json::to_string(analysis)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let tmp = self.dir.join(format!("{key}.tmp.{}", std::process::id()));
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(json.as_bytes())?;
        }
        std::fs::rename(&tmp, self.entry_path(key))
    }

    /// Number of entries currently on disk (diagnostics only).
    pub fn len(&self) -> usize {
        std::fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// `true` when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Version of the cached-analysis semantics, mixed into every cache key.
/// Bump it whenever the analyzer's identification semantics, the
/// `bside_core::wire` format, or the policy-bundle derivation change in
/// a result-affecting way, so a persistent cache directory never serves
/// results computed by an older engine under an unchanged
/// `(bytes, options)` pair.
///
/// * v1 — original analysis semantics, naive cBPF lowering.
/// * v2 — policy bundles carry the optimized (BST-compiled) cBPF
///   program from `bside_filter::compile`; the flow through
///   [`options_fingerprint`] invalidates corpus caches, serve policy
///   stores, and fleet-agent hello compatibility alike, so naive and
///   optimized artifacts never mix.
pub const CACHE_FORMAT_VERSION: u32 = 2;

/// Canonical JSON of the result-affecting analyzer options. Excludes
/// `parallelism` (unobservable by the determinism contract) so
/// runs at any agent count share cache entries; includes
/// [`CACHE_FORMAT_VERSION`] so engine upgrades invalidate old entries.
pub fn options_fingerprint(options: &AnalyzerOptions) -> String {
    let value = Value::Object(vec![
        (
            "cache_format".to_string(),
            Value::UInt(CACHE_FORMAT_VERSION as u64),
        ),
        ("cfg".to_string(), to_value(&options.cfg)),
        ("limits".to_string(), to_value(&options.limits)),
        (
            "detect_wrappers".to_string(),
            Value::Bool(options.detect_wrappers),
        ),
        (
            "conservative_fallback".to_string(),
            Value::Bool(options.conservative_fallback),
        ),
    ]);
    serde_json::to_string(&value).expect("fingerprint serializes")
}

/// SHA-256 over the concatenation of `chunks`, as lowercase hex.
pub fn sha256_hex(chunks: &[&[u8]]) -> String {
    let mut hasher = Sha256::new();
    for chunk in chunks {
        hasher.update(chunk);
    }
    to_hex(&hasher.finalize())
}

/// `bytes` as lowercase hex, two digits per byte.
pub fn to_hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(2 * bytes.len());
    for &b in bytes {
        out.push(DIGITS[usize::from(b >> 4)] as char);
        out.push(DIGITS[usize::from(b & 0xf)] as char);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // NIST FIPS 180-4 test vectors.
    #[test]
    fn sha256_known_vectors() {
        assert_eq!(
            sha256_hex(&[b""]),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(&[b"abc"]),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha256_hex(&[b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"]),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // One million 'a's exercises multi-block streaming.
        let a = vec![b'a'; 1_000_000];
        assert_eq!(
            sha256_hex(&[&a]),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn chunk_splits_do_not_change_the_digest() {
        let whole = sha256_hex(&[b"abc"]);
        assert_eq!(sha256_hex(&[b"a", b"b", b"c"]), whole);
        assert_eq!(sha256_hex(&[b"ab", b"", b"c"]), whole);
        // Split straddling a block boundary.
        let long = vec![0x5au8; 200];
        let (l, r) = long.split_at(63);
        assert_eq!(sha256_hex(&[&long]), sha256_hex(&[l, r]));
    }

    #[test]
    fn key_depends_on_bytes_and_semantic_options_only() {
        let a = AnalyzerOptions::default();
        let b = AnalyzerOptions {
            parallelism: a.parallelism + 3,
            ..AnalyzerOptions::default()
        };
        assert_eq!(
            ResultCache::key(b"elf", &a),
            ResultCache::key(b"elf", &b),
            "parallelism must not split the cache"
        );
        let c = AnalyzerOptions {
            detect_wrappers: false,
            ..AnalyzerOptions::default()
        };
        assert_ne!(ResultCache::key(b"elf", &a), ResultCache::key(b"elf", &c));
        assert_ne!(ResultCache::key(b"elf", &a), ResultCache::key(b"fle", &a));
    }
}
