//! Shared-secret link authentication: HMAC-SHA256 (RFC 2104) over the
//! vendored `sha2` shim, the same SHA-256 that addresses the result
//! cache (`bside_dist::cache`). The shim runs on the CPU's SHA
//! extensions where it has them, which makes the four MACs of a sealed
//! fleet unit (its unit and result bodies, each sealed and checked)
//! six to eight times cheaper than on its portable block function.
//! Digests stay raw `[u8; 32]` inside the HMAC; only the finished MAC
//! is rendered as hex for the wire.
//!
//! The fleet trusts any LAN peer that can speak the hello — which is
//! fine on a closed rack and fatal anywhere else, because an admitted
//! agent's results land in the shared result cache. Authentication is
//! woven into the existing capability handshake rather than bolted on
//! as a separate round trip:
//!
//! 1. the coordinator opens every connection with a `challenge` frame
//!    carrying a fresh random nonce (sent whether or not a secret is
//!    configured, so the handshake shape never depends on deployment);
//! 2. the agent's `hello` carries `auth = HMAC(secret, nonce ‖ version
//!    ‖ slots ‖ cache_format)` — binding the MAC to the hello fields
//!    means a relay cannot splice a genuine MAC onto a different
//!    capability claim;
//! 3. both sides derive a per-session key from `(secret, nonce)` and the
//!    agent **seals** every subsequent frame: `mac = HMAC(session_key,
//!    seq ‖ body)` with a strictly increasing sequence number, so a
//!    mid-session injector can neither forge a result frame nor replay a
//!    stale one into the cache.
//!
//! A received MAC is checked with `mac_matches`, whose time does not
//! depend on where the first differing byte is.
//!
//! The secret is a shared string (`--fleet-secret` /
//! `BSIDE_FLEET_SECRET`); no key exchange, no PKI — the deployment model
//! is "one secret per fleet", matching the single shared result cache.

use bside_dist::cache::{sha256_hex, to_hex};
use sha2::Sha256;

/// SHA-256's internal block size in bytes — the HMAC key pad width.
const BLOCK: usize = 64;

/// HMAC-SHA256 (RFC 2104) over the concatenation of `chunks`. Keys
/// longer than the block size are hashed first; shorter keys are
/// zero-padded, exactly per the RFC.
fn hmac_sha256(key: &[u8], chunks: &[&[u8]]) -> [u8; 32] {
    let hashed;
    let key = if key.len() > BLOCK {
        hashed = Sha256::digest(key);
        &hashed[..]
    } else {
        key
    };
    let mut ipad = [0x36u8; BLOCK];
    let mut opad = [0x5cu8; BLOCK];
    for (i, &b) in key.iter().enumerate() {
        ipad[i] ^= b;
        opad[i] ^= b;
    }
    let mut inner = Sha256::new();
    inner.update(ipad);
    for chunk in chunks {
        inner.update(chunk);
    }
    let mut outer = Sha256::new();
    outer.update(opad);
    outer.update(inner.finalize());
    outer.finalize()
}

/// HMAC-SHA256 as lowercase hex, the form MACs take on the wire.
pub fn hmac_sha256_hex(key: &[u8], chunks: &[&[u8]]) -> String {
    to_hex(&hmac_sha256(key, chunks))
}

/// Whether a received MAC equals the expected one, in time that depends
/// only on their lengths: every byte pair is compared, so a mismatch
/// early in the string takes as long to find as one at the end.
/// Accepts exactly the pairs `==` accepts.
pub(crate) fn mac_matches(expected: &str, received: &str) -> bool {
    let (expected, received) = (expected.as_bytes(), received.as_bytes());
    if expected.len() != received.len() {
        return false;
    }
    let diff = expected
        .iter()
        .zip(received)
        .fold(0u8, |acc, (a, b)| acc | (a ^ b));
    std::hint::black_box(diff) == 0
}

/// A fresh per-connection challenge nonce: 64 hex chars of SHA-256 over
/// process identity, wall-clock nanoseconds, and a process-wide counter.
/// Unpredictability (not just uniqueness) is not load-bearing here — the
/// MAC covers the hello fields and the per-frame sequence numbers, so
/// the nonce only has to never repeat for the same secret.
pub fn fresh_nonce() -> String {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let count = COUNTER.fetch_add(1, Ordering::Relaxed);
    sha256_hex(&[
        &std::process::id().to_le_bytes(),
        &nanos.to_le_bytes(),
        &count.to_le_bytes(),
    ])
}

/// The hello MAC: binds the challenge nonce to the hello's capability
/// fields, so an authenticated agent cannot have its announced version,
/// slot count, or cache format altered in flight.
pub fn hello_mac(
    secret: &str,
    nonce: &str,
    version: u32,
    slots: usize,
    cache_format: u32,
) -> String {
    let fields = format!("{version}|{slots}|{cache_format}");
    hmac_sha256_hex(
        secret.as_bytes(),
        &[
            b"bside-fleet-hello|",
            nonce.as_bytes(),
            b"|",
            fields.as_bytes(),
        ],
    )
}

/// Derives the per-session sealing key from the shared secret and the
/// connection's challenge nonce. Returned as the 32 raw digest bytes —
/// the HMAC key for [`frame_mac`].
pub fn session_key(secret: &str, nonce: &str) -> [u8; 32] {
    hmac_sha256(
        secret.as_bytes(),
        &[b"bside-fleet-session|", nonce.as_bytes()],
    )
}

/// The per-frame MAC sealing `body` (a serialized agent frame) under the
/// session key at sequence number `seq`. Covering `seq` is what turns
/// the MAC into replay protection: a duplicated or reordered sealed
/// frame fails the strictly-increasing sequence check without its MAC
/// ever verifying against a different number.
pub fn frame_mac(session_key: &[u8], seq: u64, body: &str) -> String {
    let seq = seq.to_string();
    hmac_sha256_hex(
        session_key,
        &[b"bside-fleet-frame|", seq.as_bytes(), b"|", body.as_bytes()],
    )
}

/// Resolves the fleet secret from an explicit flag value or the
/// `BSIDE_FLEET_SECRET` environment variable (flag wins). An empty
/// string from either source means "no secret".
pub fn resolve_secret(flag: Option<String>) -> Option<String> {
    flag.or_else(|| std::env::var("BSIDE_FLEET_SECRET").ok())
        .filter(|s| !s.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 4231 test case 1: 20 bytes of 0x0b, "Hi There".
    #[test]
    fn hmac_matches_rfc_4231_case_1() {
        let key = [0x0bu8; 20];
        assert_eq!(
            hmac_sha256_hex(&key, &[b"Hi There"]),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    /// RFC 4231 test case 2: key "Jefe", a key shorter than the block.
    #[test]
    fn hmac_matches_rfc_4231_case_2() {
        assert_eq!(
            hmac_sha256_hex(b"Jefe", &[b"what do ya want for nothing?"]),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    /// RFC 4231 test case 3: 50 bytes of 0xdd under 20 bytes of 0xaa, a
    /// message of bytes no text frame carries.
    #[test]
    fn hmac_matches_rfc_4231_case_3() {
        assert_eq!(
            hmac_sha256_hex(&[0xaau8; 20], &[&[0xddu8; 50]]),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    /// RFC 4231 test case 4: a 25-byte key 0x01..=0x19 over 50 bytes of
    /// 0xcd.
    #[test]
    fn hmac_matches_rfc_4231_case_4() {
        let key: Vec<u8> = (0x01..=0x19).collect();
        assert_eq!(
            hmac_sha256_hex(&key, &[&[0xcdu8; 50]]),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    /// RFC 4231 test case 6: a 131-byte key exercises the hash-the-key
    /// path (key longer than one SHA-256 block).
    #[test]
    fn hmac_hashes_oversized_keys_per_rfc_4231_case_6() {
        let key = [0xaau8; 131];
        assert_eq!(
            hmac_sha256_hex(
                &key,
                &[b"Test Using Larger Than Block-Size Key - Hash Key First"]
            ),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    /// RFC 4231 test case 7: an oversized key and a message longer than
    /// one block, here split across chunks.
    #[test]
    fn hmac_matches_rfc_4231_case_7() {
        let key = [0xaau8; 131];
        assert_eq!(
            hmac_sha256_hex(
                &key,
                &[
                    b"This is a test using a larger than block-size key and a larger than ",
                    b"block-size data. The key needs to be hashed before being used by the ",
                    b"HMAC algorithm."
                ]
            ),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    /// `mac_matches` accepts exactly what string equality accepts.
    #[test]
    fn mac_matches_agrees_with_equality() {
        let mac = hmac_sha256_hex(b"k", &[b"body"]);
        let mut flipped_last = mac.clone().into_bytes();
        flipped_last[63] ^= 1;
        let flipped_last = String::from_utf8(flipped_last).unwrap();
        let cases = [
            mac.clone(),
            flipped_last,
            mac.to_uppercase(),
            mac[..63].to_string(),
            format!("{mac}0"),
            String::new(),
        ];
        for received in &cases {
            assert_eq!(
                mac_matches(&mac, received),
                mac == *received,
                "{received:?}"
            );
        }
        assert!(mac_matches("", ""));
    }

    /// Chunked input hashes identically to the concatenation — the
    /// property every multi-field MAC in this module leans on.
    #[test]
    fn hmac_is_chunking_invariant() {
        assert_eq!(
            hmac_sha256_hex(b"k", &[b"hello world"]),
            hmac_sha256_hex(b"k", &[b"hello", b" ", b"world"]),
        );
    }

    #[test]
    fn nonces_are_distinct_and_well_formed() {
        let a = fresh_nonce();
        let b = fresh_nonce();
        assert_ne!(a, b);
        assert_eq!(a.len(), 64);
        assert!(a.bytes().all(|c| c.is_ascii_hexdigit()));
    }

    /// Every bound field changes the hello MAC — a spliced capability
    /// claim cannot reuse a genuine MAC.
    #[test]
    fn hello_mac_binds_every_field() {
        let base = hello_mac("s3cret", "nonce", 2, 4, 1);
        assert_ne!(base, hello_mac("other", "nonce", 2, 4, 1), "secret");
        assert_ne!(base, hello_mac("s3cret", "econon", 2, 4, 1), "nonce");
        assert_ne!(base, hello_mac("s3cret", "nonce", 3, 4, 1), "version");
        assert_ne!(base, hello_mac("s3cret", "nonce", 2, 5, 1), "slots");
        assert_ne!(base, hello_mac("s3cret", "nonce", 2, 4, 2), "cache format");
        assert_eq!(base, hello_mac("s3cret", "nonce", 2, 4, 1), "deterministic");
    }

    /// Frame MACs bind the sequence number, so a replayed frame cannot
    /// verify under a fresh sequence number.
    #[test]
    fn frame_mac_binds_sequence_and_body() {
        let key = session_key("s3cret", "nonce");
        let base = frame_mac(&key, 7, "{\"type\":\"heartbeat\"}");
        assert_ne!(base, frame_mac(&key, 8, "{\"type\":\"heartbeat\"}"), "seq");
        assert_ne!(base, frame_mac(&key, 7, "{\"type\":\"hello\"}"), "body");
        let other_key = session_key("s3cret", "other-nonce");
        assert_ne!(base, frame_mac(&other_key, 7, "{\"type\":\"heartbeat\"}"));
    }

    /// Field separators are unambiguous: moving a byte across the `|`
    /// boundary changes the MAC (no length-extension-style gluing).
    #[test]
    fn hello_mac_separates_nonce_from_fields() {
        assert_ne!(hello_mac("s", "ab", 2, 4, 1), hello_mac("s", "a", 2, 4, 1));
    }
}
