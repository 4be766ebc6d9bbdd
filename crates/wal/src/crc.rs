//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the checksum
//! guarding every log record and the snapshot file. No dependencies.
//!
//! Two paths compute the same function:
//!
//! * **Slice-by-8**: eight tables, computed at compile time, fold eight
//!   bytes per step, and the byte loop (table 0 alone) takes the tail. It
//!   serves buffers shorter than [`FOLD_MIN`] (a log record's sequence
//!   number, a small record's payload), the tail after the last whole
//!   16-byte block, and CPUs without carry-less multiply.
//! * **Folding** (x86-64 with `PCLMULQDQ` and SSE4.1, detected at run
//!   time): Gopal et al., "Fast CRC Computation for Generic Polynomials
//!   Using PCLMULQDQ Instruction" (Intel, 2009). Four 128-bit accumulators
//!   fold 64 bytes per step by carry-less multiplication with `x^(512±32)`
//!   mod P, then fold into one, one 16-byte block at a time; a Barrett
//!   reduction takes the 128-bit remainder to the 32-bit CRC. A whole
//!   snapshot is checksummed at memory speed instead of table speed.
//!
//! `unsafe` in this crate lives here alone: calling the folding function,
//! whose CPU features the caller has detected, and its unaligned loads.

/// `TABLES[0]` is the classic byte table. `TABLES[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes, so the eight
/// lookups of one step are independent and combine by XOR.
const fn build_tables() -> [[u32; 256]; 8] {
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
    let mut i = 0;
    while i < 256 {
        let mut t = 1;
        while t < 8 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            t += 1;
        }
        i += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// A streaming CRC-32 state, for checksumming discontiguous parts (the
/// record's sequence number and payload) without concatenating them.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Crc32 {
    state: u32,
}

impl Crc32 {
    pub(crate) fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    pub(crate) fn update(&mut self, data: &[u8]) -> &mut Self {
        self.state = update(self.state, data);
        self
    }

    pub(crate) fn finish(&self) -> u32 {
        !self.state
    }
}

/// The shortest buffer the folding path takes: its four accumulators
/// start from four 16-byte blocks.
const FOLD_MIN: usize = 64;

/// Advance the CRC register `state` over `data` by the fastest path this
/// CPU has.
fn update(state: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if fold::detected() {
        // SAFETY: `detected` found PCLMULQDQ and SSE4.1 on this CPU.
        return unsafe { fold::update(state, data) };
    }
    update_table(state, data)
}

/// Slice-by-8 over the register `state`.
fn update_table(state: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = state;
    let mut chunks = data.chunks_exact(8);
    for w in &mut chunks {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The folding path. The constants are the reflected `x^k mod P` of the
/// paper (and of Linux's `crc32-pclmul`), each shifted left one bit for
/// the reflected domain: `K1`/`K2` fold by 512 bits, `K3`/`K4` by 128,
/// `K5` takes 96 bits to 64; `P` is the polynomial and `MU` Barrett's
/// `floor(x^64 / P)`, both reflected with their 33rd bit.
#[cfg(target_arch = "x86_64")]
mod fold {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    const K5: i64 = 0x1_63CD_6124;
    const P: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// Whether this CPU has what [`update`] needs (cached by `std`).
    #[inline]
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// One 16-byte block as a vector.
    #[inline]
    fn load(block: &[u8]) -> __m128i {
        assert_eq!(block.len(), 16);
        // SAFETY: `block` holds the 16 bytes read, and `loadu` takes any
        // alignment.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `acc` carried `k` bits forward and added to `next`: its low half
    /// times the low key, its high half times the high key.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold_into(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, keys);
        _mm_xor_si128(next, _mm_xor_si128(lo, hi))
    }

    /// Advance the CRC register `state` over `data`: every whole 16-byte
    /// block by folding, the tail by the tables. A buffer shorter than
    /// [`super::FOLD_MIN`] goes to the tables whole.
    ///
    /// # Safety
    ///
    /// The CPU must have PCLMULQDQ and SSE4.1: call it only where
    /// [`detected`] is true.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(state: u32, data: &[u8]) -> u32 {
        if data.len() < super::FOLD_MIN {
            return super::update_table(state, data);
        }
        let mut quads = data.chunks_exact(64);
        let first = quads.next().expect("at least 64 bytes");
        let mut lanes: [__m128i; 4] = std::array::from_fn(|i| load(&first[16 * i..16 * (i + 1)]));
        // The register enters as the first block's low 32 bits.
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(state as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        for quad in &mut quads {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = fold_into(*lane, load(&quad[16 * i..16 * (i + 1)]), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = fold_into(lanes[0], lanes[1], k3k4);
        acc = fold_into(acc, lanes[2], k3k4);
        acc = fold_into(acc, lanes[3], k3k4);
        let mut blocks = quads.remainder().chunks_exact(16);
        for block in &mut blocks {
            acc = fold_into(acc, load(block), k3k4);
        }

        // 128 bits to 96, then to 64.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let mut x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(acc, k3k4),
            _mm_srli_si128::<8>(acc),
        );
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );
        // Barrett: T1 = (R mod x^32)·µ, T2 = (T1 mod x^32)·P, and the
        // remainder is the high 32 bits of R + T2 (reflected).
        let pmu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pmu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pmu);
        let c = _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32;
        super::update_table(c, blocks.remainder())
    }
}

/// CRC-32 of one contiguous buffer.
pub fn crc32(data: &[u8]) -> u32 {
    Crc32::new().update(data).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The definition, one bit at a time: no table shared with the
    /// code under test.
    fn bitwise(data: &[u8]) -> u32 {
        !data.iter().fold(!0u32, |c, &b| bitwise_byte(c, b))
    }

    /// The register after one more byte, one bit at a time.
    fn bitwise_byte(mut c: u32, b: u8) -> u32 {
        c ^= b as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        c
    }

    /// A seeded byte buffer (xorshift64), the same on every run.
    fn seeded(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn slice_by_8_matches_bitwise_reference() {
        let buf = seeded(64 + 8);
        for start in 0..8 {
            for len in 0..=64 {
                let part = &buf[start..start + len];
                assert_eq!(crc32(part), bitwise(part), "start {start}, len {len}");
            }
        }
        let big = seeded(64 * 1024);
        assert_eq!(crc32(&big), bitwise(&big));
    }

    /// A register update by one path, and the path's name.
    type Path = (&'static str, fn(u32, &[u8]) -> u32);

    /// Every path this host runs, each called directly, as a register
    /// update: the tables everywhere, folding where the CPU has it.
    fn paths() -> Vec<Path> {
        let mut paths: Vec<Path> = vec![("slice-by-8", update_table)];
        #[cfg(target_arch = "x86_64")]
        if fold::detected() {
            // SAFETY: `detected` found the path's CPU features.
            paths.push(("folding", |state, data| unsafe {
                fold::update(state, data)
            }));
        }
        paths
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn this_host_folds() {
        if !fold::detected() {
            eprintln!("no PCLMULQDQ/SSE4.1 here: the folding path is not tested");
        }
        assert_eq!(paths().len(), 1 + fold::detected() as usize);
    }

    #[test]
    fn each_path_matches_bitwise_reference() {
        let buf = seeded(1024 + 16);
        for (name, update) in paths() {
            for start in 0..16 {
                let part = &buf[start..start + 1024];
                // `bitwise` of every prefix of `part`, in one pass.
                let mut want = Vec::with_capacity(part.len() + 1);
                let mut c = !0u32;
                want.push(!c);
                for &b in part {
                    c = bitwise_byte(c, b);
                    want.push(!c);
                }
                assert_eq!(want[part.len()], bitwise(part));
                for (len, &want) in want.iter().enumerate() {
                    let got = !update(!0, &part[..len]);
                    assert_eq!(got, want, "{name}: start {start}, len {len}");
                }
            }
            let big = seeded(64 * 1024);
            assert_eq!(!update(!0, &big), bitwise(&big), "{name}: 64 KiB");
        }
    }

    #[test]
    fn each_path_streams() {
        let buf = seeded(1024);
        let whole = bitwise(&buf);
        for (name, update) in paths() {
            for split in 0..=buf.len() {
                let (a, b) = buf.split_at(split);
                let got = !update(update(!0, a), b);
                assert_eq!(got, whole, "{name}: split {split}");
            }
        }
    }

    #[test]
    fn streaming_matches_contiguous() {
        let whole = crc32(b"hello, world");
        let mut s = Crc32::new();
        s.update(b"hello").update(b", ").update(b"world");
        assert_eq!(s.finish(), whole);

        let buf = seeded(100);
        let whole = crc32(&buf);
        for split in 0..=buf.len() {
            let (a, b) = buf.split_at(split);
            assert_eq!(
                Crc32::new().update(a).update(b).finish(),
                whole,
                "split {split}"
            );
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = b"record payload bytes".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), clean, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }
}
