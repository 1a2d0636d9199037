//! Lossless compression for buffered sensor batches.
//!
//! The paper's buffered strategy compresses each 64 KiB batch before
//! transmission, reaching "3 %−14.5 % of its original" size because WSN
//! data carries "many repeated patterns" (§5.1). The codec here is a
//! three-stage pipeline chosen for MCU-class footprints:
//!
//! 1. **Delta coding** — smooth signals become near-zero residues.
//! 2. **PackBits RLE** — collapses the long zero runs.
//! 3. **LZSS** (4 KiB window, hash-chained match search) — captures
//!    the periodic structure (heartbeats, vibration cycles).
//!
//! Every stage is bijective; [`decompress`] restores the input exactly.

#![expect(
    clippy::indexing_slicing,
    reason = "RLE/delta codec; window indices bounded by input length"
)]

use neofog_types::{NeoFogError, Result};

const LZSS_WINDOW: usize = 4096;
const LZSS_MIN_MATCH: usize = 3;
const LZSS_MAX_MATCH: usize = 18;
const CHAIN_LIMIT: usize = 64;

/// Compresses a byte batch (delta → RLE → LZSS).
///
/// # Examples
///
/// ```
/// use neofog_workloads::{compress, decompress};
///
/// let data = vec![42u8; 1000];
/// let packed = compress(&data);
/// assert!(packed.len() < 32);
/// assert_eq!(decompress(&packed)?, data);
/// # Ok::<(), neofog_types::NeoFogError>(())
/// ```
#[must_use]
pub fn compress(data: &[u8]) -> Vec<u8> {
    lzss_encode(&packbits_encode(&delta_encode(data)))
}

/// Decompresses a [`compress`]-produced buffer.
///
/// # Errors
///
/// Returns [`NeoFogError::InvalidConfig`] on malformed input.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>> {
    Ok(delta_decode(&packbits_decode(&lzss_decode(data)?)?))
}

/// Compressed size / original size; 1.0 for empty input.
#[must_use]
pub fn compression_ratio(data: &[u8]) -> f64 {
    if data.is_empty() {
        return 1.0;
    }
    compress(data).len() as f64 / data.len() as f64
}

/// Differences each byte from its predecessor (first byte verbatim).
#[must_use]
pub fn delta_encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len());
    let mut prev = 0u8;
    for &b in data {
        out.push(b.wrapping_sub(prev));
        prev = b;
    }
    out
}

/// Inverse of [`delta_encode`].
#[must_use]
pub fn delta_decode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len());
    let mut prev = 0u8;
    for &d in data {
        prev = prev.wrapping_add(d);
        out.push(prev);
    }
    out
}

/// PackBits run-length encoding: control byte `n < 128` copies `n+1`
/// literals; `n > 128` repeats the next byte `257-n` times; 128 is
/// unused.
#[must_use]
pub fn packbits_encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < data.len() {
        // Measure the run starting at i.
        let mut run = 1usize;
        while i + run < data.len() && data[i + run] == data[i] && run < 128 {
            run += 1;
        }
        if run >= 3 {
            out.push((257 - run) as u8);
            out.push(data[i]);
            i += run;
        } else {
            // Collect literals until a run of ≥3 starts or 128 cap.
            let start = i;
            let mut len = 0usize;
            while i < data.len() && len < 128 {
                let mut r = 1;
                while i + r < data.len() && data[i + r] == data[i] && r < 3 {
                    r += 1;
                }
                if r >= 3 {
                    break;
                }
                i += 1;
                len += 1;
            }
            out.push((len - 1) as u8);
            out.extend_from_slice(&data[start..start + len]);
        }
    }
    out
}

/// Inverse of [`packbits_encode`].
///
/// # Errors
///
/// Returns [`NeoFogError::InvalidConfig`] on truncated input or the
/// reserved control byte 128.
pub fn packbits_decode(data: &[u8]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < data.len() {
        let ctrl = data[i];
        i += 1;
        if ctrl < 128 {
            let n = ctrl as usize + 1;
            if i + n > data.len() {
                return Err(NeoFogError::invalid_config(
                    "packbits literal run truncated",
                ));
            }
            out.extend_from_slice(&data[i..i + n]);
            i += n;
        } else if ctrl == 128 {
            return Err(NeoFogError::invalid_config(
                "packbits reserved control byte",
            ));
        } else {
            let n = 257 - ctrl as usize;
            let b = *data
                .get(i)
                .ok_or_else(|| NeoFogError::invalid_config("packbits repeat truncated"))?;
            i += 1;
            out.extend(std::iter::repeat_n(b, n));
        }
    }
    Ok(out)
}

/// LZSS with flag-byte groups: each flag bit selects literal (1) or a
/// 2-byte `(offset, length)` reference (0) with a 12-bit offset and
/// 4-bit `length - 3`.
#[must_use]
pub fn lzss_encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    // Hash chains over 3-byte prefixes.
    let mut heads: Vec<i64> = vec![-1; 1 << 13];
    let mut links: Vec<i64> = vec![-1; data.len()];
    let hash = |d: &[u8]| -> usize {
        ((usize::from(d[0]) << 6) ^ (usize::from(d[1]) << 3) ^ usize::from(d[2])) & 0x1FFF
    };
    let mut i = 0usize;
    let mut flag_pos = usize::MAX;
    let mut flag_bit = 8u8;
    let push_unit = |out: &mut Vec<u8>, flag_pos: &mut usize, flag_bit: &mut u8, literal: bool| {
        if *flag_bit == 8 {
            *flag_pos = out.len();
            out.push(0);
            *flag_bit = 0;
        }
        if literal {
            out[*flag_pos] |= 1 << *flag_bit;
        }
        *flag_bit += 1;
    };
    while i < data.len() {
        let mut best_len = 0usize;
        let mut best_off = 0usize;
        if i + LZSS_MIN_MATCH <= data.len() {
            let h = hash(&data[i..]);
            let mut cand = heads[h];
            let mut tries = 0;
            while cand >= 0 && tries < CHAIN_LIMIT {
                let c = cand as usize;
                if i - c <= LZSS_WINDOW {
                    let limit = LZSS_MAX_MATCH.min(data.len() - i);
                    let mut l = 0;
                    while l < limit && data[c + l] == data[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_off = i - c;
                        if l == LZSS_MAX_MATCH {
                            break;
                        }
                    }
                } else {
                    break; // chains are ordered newest-first
                }
                cand = links[c];
                tries += 1;
            }
        }
        if best_len >= LZSS_MIN_MATCH {
            push_unit(&mut out, &mut flag_pos, &mut flag_bit, false);
            let token = (((best_off - 1) as u16) << 4) | ((best_len - LZSS_MIN_MATCH) as u16);
            out.extend_from_slice(&token.to_le_bytes());
            // Insert hash entries for every covered position.
            let end = i + best_len;
            while i < end {
                if i + LZSS_MIN_MATCH <= data.len() {
                    let h = hash(&data[i..]);
                    links[i] = heads[h];
                    heads[h] = i as i64;
                }
                i += 1;
            }
        } else {
            push_unit(&mut out, &mut flag_pos, &mut flag_bit, true);
            out.push(data[i]);
            if i + LZSS_MIN_MATCH <= data.len() {
                let h = hash(&data[i..]);
                links[i] = heads[h];
                heads[h] = i as i64;
            }
            i += 1;
        }
    }
    out
}

/// Inverse of [`lzss_encode`].
///
/// # Errors
///
/// Returns [`NeoFogError::InvalidConfig`] on truncated tokens or
/// references reaching before the start of the output.
pub fn lzss_decode(data: &[u8]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < data.len() {
        let flags = data[i];
        i += 1;
        for bit in 0..8 {
            if i >= data.len() {
                break;
            }
            if flags & (1 << bit) != 0 {
                out.push(data[i]);
                i += 1;
            } else {
                if i + 2 > data.len() {
                    return Err(NeoFogError::invalid_config("lzss token truncated"));
                }
                let token = u16::from_le_bytes([data[i], data[i + 1]]);
                i += 2;
                let off = (token >> 4) as usize + 1;
                let len = (token & 0xF) as usize + LZSS_MIN_MATCH;
                if off > out.len() {
                    return Err(NeoFogError::invalid_config("lzss back-reference underflow"));
                }
                let start = out.len() - off;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neofog_sensors::{SensorKind, SignalGenerator};

    fn round_trip(data: &[u8]) {
        let packed = compress(data);
        assert_eq!(decompress(&packed).unwrap(), data, "round trip failed");
    }

    #[test]
    fn round_trips_basic_patterns() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"abcabcabcabcabc");
        round_trip(&vec![0u8; 10_000]);
        round_trip(&(0..=255u8).collect::<Vec<_>>());
        let saw: Vec<u8> = (0..5000).map(|i| (i % 7) as u8 * 30).collect();
        round_trip(&saw);
    }

    #[test]
    fn round_trips_pseudorandom() {
        // Even incompressible data must survive (with expansion).
        let mut x = 0x243F_6A88u32;
        let noise: Vec<u8> = (0..8192)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (x >> 24) as u8
            })
            .collect();
        round_trip(&noise);
    }

    #[test]
    fn constant_data_compresses_hard() {
        let data = vec![7u8; 65_536];
        let ratio = compression_ratio(&data);
        assert!(ratio < 0.01, "ratio {ratio}");
    }

    #[test]
    fn sensor_batches_hit_paper_band() {
        // The paper's 3 %–14.5 % band on 64 KiB batches.
        for (kind, seed) in [
            (SensorKind::Tmp101, 1u64),
            (SensorKind::UvPhotodiode, 2),
            (SensorKind::EcgFrontend, 3),
        ] {
            let mut gen = SignalGenerator::new(kind, seed);
            let data = gen.generate(65_536);
            let ratio = compression_ratio(&data);
            assert!(ratio <= 0.145, "{kind:?}: ratio {ratio} outside paper band");
            round_trip(&data);
        }
    }

    #[test]
    fn vibration_compresses_worse_but_within_band() {
        let mut gen = SignalGenerator::new(SensorKind::Lis331dlh, 9);
        let data = gen.generate(65_536);
        let ratio = compression_ratio(&data);
        assert!(ratio < 0.5, "ratio {ratio}");
        round_trip(&data);
    }

    #[test]
    fn packbits_round_trip_edge_cases() {
        for data in [
            vec![],
            vec![1],
            vec![1, 1],
            vec![1, 1, 1],
            vec![1; 127],
            vec![1; 128],
            vec![1; 129],
            vec![1; 400],
            (0..200u8).collect::<Vec<_>>(),
        ] {
            let enc = packbits_encode(&data);
            assert_eq!(packbits_decode(&enc).unwrap(), data);
        }
    }

    #[test]
    fn delta_round_trip() {
        let data: Vec<u8> = (0..1000).map(|i| ((i * i) % 251) as u8).collect();
        assert_eq!(delta_decode(&delta_encode(&data)), data);
    }

    #[test]
    fn lzss_round_trip_with_long_matches() {
        let mut data = Vec::new();
        for _ in 0..100 {
            data.extend_from_slice(b"the quick brown fox ");
        }
        let enc = lzss_encode(&data);
        assert!(enc.len() < data.len() / 4);
        assert_eq!(lzss_decode(&enc).unwrap(), data);
    }

    #[test]
    fn corrupt_streams_error_cleanly() {
        assert!(lzss_decode(&[0x00, 0xFF]).is_err()); // truncated token
        assert!(packbits_decode(&[5, 1, 2]).is_err()); // short literals
        assert!(packbits_decode(&[128]).is_err()); // reserved byte
        assert!(packbits_decode(&[255]).is_err()); // repeat w/o byte
                                                   // Back-reference before start.
        assert!(lzss_decode(&[0b0000_0000, 0xFF, 0xFF]).is_err());
    }

    #[test]
    fn overlapping_references_decode_correctly() {
        // "aaaaaa..." forces overlapping copies (off=1, len>1).
        let data = vec![b'a'; 50];
        let enc = lzss_encode(&data);
        assert_eq!(lzss_decode(&enc).unwrap(), data);
    }
}
