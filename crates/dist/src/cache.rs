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

use bside_core::{AnalyzerOptions, BinaryAnalysis};
use serde::{to_value, Value};
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

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4). The build environment has no registry access, so
// the digest is implemented here; it is only used for content addressing.
// ---------------------------------------------------------------------------

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

fn compress(state: &mut [u32; 8], block: &[u8]) {
    debug_assert_eq!(block.len(), 64);
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// SHA-256 over the concatenation of `chunks`, as lowercase hex.
pub fn sha256_hex(chunks: &[&[u8]]) -> String {
    let mut state: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    let total_len: u64 = chunks.iter().map(|c| c.len() as u64).sum();

    // Stream the chunks through a 64-byte block buffer.
    let mut buf = [0u8; 64];
    let mut buffered = 0usize;
    for chunk in chunks {
        let mut rest = *chunk;
        if buffered > 0 {
            let need = 64 - buffered;
            let take = need.min(rest.len());
            buf[buffered..buffered + take].copy_from_slice(&rest[..take]);
            buffered += take;
            rest = &rest[take..];
            if buffered < 64 {
                continue; // chunk fully absorbed into the partial block
            }
            compress(&mut state, &buf);
        }
        let mut blocks = rest.chunks_exact(64);
        for block in &mut blocks {
            compress(&mut state, block);
        }
        let tail = blocks.remainder();
        buf[..tail.len()].copy_from_slice(tail);
        buffered = tail.len();
    }

    // Padding: 0x80, zeros, then the bit length as a big-endian u64.
    let mut pad = Vec::with_capacity(128);
    pad.extend_from_slice(&buf[..buffered]);
    pad.push(0x80);
    while pad.len() % 64 != 56 {
        pad.push(0);
    }
    pad.extend_from_slice(&(total_len * 8).to_be_bytes());
    for block in pad.chunks_exact(64) {
        compress(&mut state, block);
    }

    let mut out = String::with_capacity(64);
    for word in state {
        out.push_str(&format!("{word:08x}"));
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
