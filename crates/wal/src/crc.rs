//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the checksum
//! guarding every log record and the snapshot file. Slice-by-8: eight
//! tables, computed at compile time, fold eight bytes per step, and the
//! byte loop (table 0 alone) takes the tail. No dependencies.

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
        let t = &TABLES;
        let mut c = self.state;
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
        self.state = c;
        self
    }

    pub(crate) fn finish(&self) -> u32 {
        !self.state
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
        let mut c = !0u32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
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
