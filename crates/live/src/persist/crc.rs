//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — frames,
//! snapshots, and the manifest all carry one, and recovery checksums
//! every byte it reads, so this walk is a floor under time-to-serve.
//!
//! Two kernels, one value:
//!
//! - **Carry-less multiply** (x86_64 with `pclmulqdq`, detected at run
//!   time): fold the input 4 × 128 bits at a time, then 128 bits at a
//!   time, then Barrett-reduce the last 64 bits to 32 — Intel's "Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ", bit-reflected
//!   variant, with the folding constants of zlib-ng and `crc32fast`. It
//!   runs at several GB/s.
//! - **Slice-by-8** tables everywhere else, and for inputs under 128
//!   bytes and the sub-16-byte tail of longer ones. A byte-at-a-time
//!   table loop is one dependent load per byte (under 300 MB/s on the
//!   hosts this was measured on); eight at a time reaches ~1 GB/s.

/// Slice-by-8 lookup tables: `CRC_TABLES[0]` is the classic byte-wise
/// table, `CRC_TABLES[k][b]` the CRC of byte `b` followed by `k` zero
/// bytes — eight lookups then advance the CRC over eight input bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    !update(!0, bytes)
}

/// Advances the raw (pre-inversion) CRC state over `bytes`, so a reader
/// can checksum a file piece by piece as it streams past: start from
/// `!0`, invert at the end. Runs the carry-less-multiply kernel where
/// the CPU has one and the piece is long enough to fold, slice-by-8
/// otherwise; both give the same value.
pub(crate) fn update(crc: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= clmul::MIN_LEN && clmul::available() {
        // SAFETY: `available` just confirmed the CPU has `pclmulqdq`.
        return unsafe { clmul::update(crc, bytes) };
    }
    update_table(crc, bytes)
}

/// Advances the raw (pre-inversion) CRC state over `bytes`, slice-by-8.
fn update_table(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest input worth folding: the four 128-bit accumulators are
    /// loaded from the first 64 bytes, and below 128 the set-up costs
    /// more than slice-by-8 spends on the whole input.
    pub(super) const MIN_LEN: usize = 128;

    // Folding constants for the reflected polynomial, as `x^n mod P`
    // (bit-reflected, shifted left by one): 4 × 128-bit folds, 1 × 128-bit
    // folds, the 64 → 32-bit step, then P(x) and μ = ⌊x^64 / P(x)⌋ for
    // the Barrett reduction.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P_X: i64 = 0x1_DB71_0641;
    const U_PRIME: i64 = 0x1_F701_1641;

    /// Whether this CPU can run [`update`] (cached by std after the
    /// first call).
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq")
    }

    /// Advances the raw (pre-inversion) CRC state over `bytes`; inputs
    /// shorter than [`MIN_LEN`] and the sub-16-byte tail go through the
    /// slice-by-8 tables. Calling it is `unsafe` on a CPU without
    /// `pclmulqdq` (see [`available`]).
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn update(crc: u32, mut data: &[u8]) -> u32 {
        if data.len() < MIN_LEN {
            return super::update_table(crc, data);
        }
        // Step 1: four independent 128-bit accumulators, each folded
        // 512 bits forward per round.
        let mut x3 = load(&mut data);
        let mut x2 = load(&mut data);
        let mut x1 = load(&mut data);
        let mut x0 = load(&mut data);
        x3 = _mm_xor_si128(x3, _mm_cvtsi32_si128(crc as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        while data.len() >= 64 {
            x3 = fold(x3, load(&mut data), k1k2);
            x2 = fold(x2, load(&mut data), k1k2);
            x1 = fold(x1, load(&mut data), k1k2);
            x0 = fold(x0, load(&mut data), k1k2);
        }
        // Step 2: merge the four into one, then fold 128 bits at a time.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(x3, x2, k3k4);
        x = fold(x, x1, k3k4);
        x = fold(x, x0, k3k4);
        while data.len() >= 16 {
            x = fold(x, load(&mut data), k3k4);
        }
        // Step 3: 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Step 4: Barrett reduction, 64 → 32 bits; the reflected variant
        // leaves the result in bits 32..64.
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let crc = _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x, t2), 4)) as u32;
        super::update_table(crc, data)
    }

    /// `a` carried 128 (K3/K4) or 512 (K1/K2) bits forward onto `b`.
    #[target_feature(enable = "pclmulqdq")]
    fn fold(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, keys, 0x00);
        let hi = _mm_clmulepi64_si128(a, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// Loads the next 16 bytes of `data` and advances past them.
    #[inline(always)]
    fn load(data: &mut &[u8]) -> __m128i {
        let (head, rest) = data.split_at(16);
        // SAFETY: `head` is 16 readable bytes, and `loadu` has no
        // alignment requirement.
        let v = unsafe { _mm_loadu_si128(head.as_ptr().cast()) };
        *data = rest;
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop, kept as the reference both kernels are
    /// held to.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    fn crc32_table(bytes: &[u8]) -> u32 {
        !update_table(!0, bytes)
    }

    /// The carry-less-multiply kernel on its own, or `None` on a CPU
    /// without it (where [`crc32`] runs the tables alone).
    fn crc32_clmul(bytes: &[u8]) -> Option<u32> {
        #[cfg(target_arch = "x86_64")]
        if clmul::available() {
            // SAFETY: `available` just confirmed the CPU has `pclmulqdq`.
            return Some(!unsafe { clmul::update(!0, bytes) });
        }
        let _ = bytes;
        None
    }

    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect()
    }

    /// Holds every kernel this CPU has to the byte-wise reference, and
    /// `crc32` and a piecewise `update` to whichever it dispatches to.
    fn check(s: &[u8], what: &str) {
        let want = crc32_bytewise(s);
        assert_eq!(crc32_table(s), want, "slice-by-8, {what}");
        if let Some(got) = crc32_clmul(s) {
            assert_eq!(got, want, "carry-less multiply, {what}");
        }
        assert_eq!(crc32(s), want, "crc32, {what}");
        // Streamed in three unequal pieces, which may each take a
        // different kernel.
        let (a, rest) = s.split_at(s.len() / 3);
        let (b, c) = rest.split_at(rest.len() / 4);
        assert_eq!(!update(update(update(!0, a), b), c), want, "pieces, {what}");
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        for f in [crc32, crc32_table, crc32_bytewise] {
            assert_eq!(f(b"123456789"), 0xCBF4_3926);
            assert_eq!(f(b""), 0);
        }
        if let Some(got) = crc32_clmul(b"123456789") {
            assert_eq!(got, 0xCBF4_3926);
        }
    }

    #[test]
    fn every_kernel_equals_bytewise_reference_at_every_length_and_offset() {
        // Every split between the 4 × 128-bit loop, the 128-bit loop and
        // the byte-wise tail, at every alignment of the first byte.
        let buf = noise(1024 + 16);
        for start in 0..16 {
            for len in 0..=1024 {
                check(
                    &buf[start..start + len],
                    &format!("start {start} len {len}"),
                );
            }
        }
    }

    #[test]
    fn every_kernel_equals_bytewise_reference_on_large_buffers() {
        let buf = noise(20 << 20);
        check(&buf[..1 << 20], "1 MiB");
        check(&buf, "20 MiB");
        check(&buf[3..(20 << 20) - 5], "20 MiB, unaligned");
    }
}
