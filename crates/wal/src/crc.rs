//! CRC-32 (IEEE 802.3 polynomial, the `crc32fast`/zlib variant) — the
//! per-record checksum of the write-ahead log, the whole-file checksum of
//! snapshots, and the frame checksum of the server's wire protocol.
//! Slicing-by-8: eight table lookups fold eight input bytes per step, so
//! the loop-carried dependency is one XOR chain per eight bytes instead of
//! one per byte. Tables are computed at compile time; no dependencies, no
//! `std::arch`.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 of `data` (initial value all-ones, final XOR all-ones).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// The byte-at-a-time loop [`crc32`] replaced, kept as the oracle the
/// slicing kernel is checked against.
#[cfg(test)]
pub(crate) fn reference_crc32(data: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &b in data {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC-32/ISO-HDLC check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let a = crc32(b"hello world");
        let b = crc32(b"hello worle");
        assert_ne!(a, b);
    }

    #[test]
    fn slicing_equals_the_bytewise_loop_at_every_alignment() {
        // One pseudo-random buffer; from every start offset 0..8 (so the
        // eight-byte steps fall on every alignment of the underlying
        // memory) every short length — all remainders, with and without a
        // full step before them — and random lengths up to 4096.
        let mut rng = aiql_fault::SmallRng::new(0xC4C3_2018);
        let buf: Vec<u8> = (0..4096 + 8).map(|_| rng.below(256) as u8).collect();
        for offset in 0..8 {
            let lengths: Vec<usize> = (0..=64)
                .chain((0..256).map(|_| rng.below(4097) as usize))
                .collect();
            for len in lengths {
                let data = &buf[offset..offset + len];
                assert_eq!(
                    crc32(data),
                    reference_crc32(data),
                    "offset {offset}, length {len}"
                );
            }
        }
    }
}
