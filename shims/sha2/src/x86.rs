//! The SHA-256 block function on the x86-64 SHA extensions.
//!
//! `sha256rnds2` runs two rounds on a state split as `ABEF` and `CDGH`
//! with the next two message-plus-constant words in the low half of its
//! third operand; `sha256msg1` and `sha256msg2` compute four message
//! schedule words at a time. Sixteen steps of four rounds make a block.

use core::arch::x86_64::*;

use crate::K;

/// `true` when this CPU has every feature [`compress`] enables.
pub(crate) fn supported() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// Compresses each 64-byte block of `blocks` into `state`; the same
/// result as the portable block function, block by block.
///
/// Calling it is `unsafe` outside code compiled for these features: the
/// caller must first have seen [`supported`] return `true`.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
pub(crate) fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    // Reverses the bytes of each 32-bit lane: SHA-256 reads big-endian
    // words.
    let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    // SAFETY: `state` is 32 bytes, and the two unaligned loads read its
    // bytes 0..16 and 16..32.
    let (dcba, hgfe) = unsafe {
        let words = state.as_ptr().cast::<__m128i>();
        (_mm_loadu_si128(words), _mm_loadu_si128(words.add(1)))
    };
    let cdab = _mm_shuffle_epi32(dcba, 0xb1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        // SAFETY: `block` is 64 bytes, and the four unaligned loads read
        // its bytes 0..16, 16..32, 32..48 and 48..64.
        let loaded = unsafe {
            let bytes = block.as_ptr().cast::<__m128i>();
            [
                _mm_loadu_si128(bytes),
                _mm_loadu_si128(bytes.add(1)),
                _mm_loadu_si128(bytes.add(2)),
                _mm_loadu_si128(bytes.add(3)),
            ]
        };
        // `w` holds message words 4i..4i+16 at step i.
        let mut w = [
            _mm_shuffle_epi8(loaded[0], be_words),
            _mm_shuffle_epi8(loaded[1], be_words),
            _mm_shuffle_epi8(loaded[2], be_words),
            _mm_shuffle_epi8(loaded[3], be_words),
        ];
        for i in 0..16 {
            let k = &K[4 * i..4 * i + 4];
            let constants = _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32);
            let wk = _mm_add_epi32(w[0], constants);
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            let next = if i < 12 {
                // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16].
                let sigma0 = _mm_sha256msg1_epu32(w[0], w[1]);
                let w7 = _mm_alignr_epi8(w[3], w[2], 4);
                _mm_sha256msg2_epu32(_mm_add_epi32(sigma0, w7), w[3])
            } else {
                w[0]
            };
            w = [w[1], w[2], w[3], next];
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1b);
    let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
    let hgfe = _mm_alignr_epi8(dchg, feba, 8);
    // SAFETY: as for the loads above, the two unaligned stores write
    // bytes 0..16 and 16..32 of the 32-byte `state`.
    unsafe {
        let words = state.as_mut_ptr().cast::<__m128i>();
        _mm_storeu_si128(words, dcba);
        _mm_storeu_si128(words.add(1), hgfe);
    }
}
