//! Data compression for block transfers — implemented to *reject* it,
//! like the paper did (§4.3): "Data compression has been considered,
//! too, but has been found ineffective due to long runtimes and low
//! compression rates compared to transmission time."
//!
//! A byte-oriented PackBits (run-length) codec is provided together with
//! helpers that serialize a block payload and measure the achieved
//! ratio. Floating-point CFD fields have almost no byte-level runs, so
//! the ratio stays near 1 — the `ablation_compression` experiment
//! quantifies the break-even bandwidth and reproduces the paper's
//! conclusion.

use vira_grid::field::BlockData;

/// PackBits-style run-length encoding.
///
/// Control byte `n`:
/// * `0..=127` — copy the next `n + 1` literal bytes;
/// * `129..=255` — repeat the next byte `257 - n` times;
/// * `128` — unused (reserved), never emitted.
pub fn rle_compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 16 + 16);
    let mut i = 0;
    while i < data.len() {
        // Measure the run starting at i.
        let b = data[i];
        let mut run = 1;
        while i + run < data.len() && data[i + run] == b && run < 128 {
            run += 1;
        }
        if run >= 3 {
            out.push((257 - run) as u8);
            out.push(b);
            i += run;
            continue;
        }
        // Literal stretch: until the next run of ≥ 3 or 128 bytes.
        let start = i;
        let mut len = 0;
        while i < data.len() && len < 128 {
            let b = data[i];
            let mut run = 1;
            while i + run < data.len() && data[i + run] == b && run < 128 {
                run += 1;
            }
            if run >= 3 {
                break;
            }
            i += run;
            len += run;
        }
        // `len` may overshoot 128 by a byte or two from the last
        // mini-run; clamp by re-slicing.
        let len = len.min(128).min(data.len() - start);
        out.push((len - 1) as u8);
        out.extend_from_slice(&data[start..start + len]);
        i = start + len;
    }
    out
}

/// Inverse of [`rle_compress`]. Returns `None` on malformed input.
pub fn rle_decompress(data: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(data.len() * 2);
    let mut i = 0;
    while i < data.len() {
        let c = data[i];
        i += 1;
        if c == 128 {
            return None; // reserved
        }
        if c < 128 {
            let n = c as usize + 1;
            if i + n > data.len() {
                return None;
            }
            out.extend_from_slice(&data[i..i + n]);
            i += n;
        } else {
            let n = 257 - c as usize;
            let b = *data.get(i)?;
            i += 1;
            out.extend(std::iter::repeat_n(b, n));
        }
    }
    Some(out)
}

/// Serializes a block payload as little-endian `f32` triplets (positions
/// then velocities) — the transfer representation a compressor would see.
pub fn payload_bytes_f32(data: &BlockData) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.grid.points.len() * 24);
    let u = &data.velocity;
    let positions = data.grid.points.iter().map(|p| [p.x, p.y, p.z]);
    let velocities = (0..u.xs.len()).map(|n| [u.xs[n], u.ys[n], u.zs[n]]);
    for c in positions.chain(velocities).flatten() {
        out.extend_from_slice(&(c as f32).to_le_bytes());
    }
    out
}

/// Result of one compression measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionProbe {
    pub raw_bytes: usize,
    pub compressed_bytes: usize,
    /// Wall seconds spent compressing (real, not modeled).
    pub compress_wall_s: f64,
}

impl CompressionProbe {
    /// `raw / compressed`; > 1 means the data shrank.
    pub fn ratio(&self) -> f64 {
        self.raw_bytes as f64 / self.compressed_bytes.max(1) as f64
    }

    /// The link bandwidth (bytes/s) below which compressing pays off,
    /// given a compression throughput measured on this probe: transfer
    /// saving per byte must exceed compression cost per byte.
    pub fn breakeven_bandwidth_bps(&self) -> f64 {
        let saved_fraction = 1.0 - 1.0 / self.ratio();
        if saved_fraction <= 0.0 || self.compress_wall_s <= 0.0 {
            return 0.0; // never pays off
        }
        let compress_s_per_byte = self.compress_wall_s / self.raw_bytes as f64;
        saved_fraction / compress_s_per_byte
    }
}

/// Compresses a block payload and measures ratio and wall time.
pub fn probe_block_compression(data: &BlockData) -> CompressionProbe {
    let raw = payload_bytes_f32(data);
    let t0 = std::time::Instant::now();
    let compressed = rle_compress(&raw);
    let compress_wall_s = t0.elapsed().as_secs_f64();
    // Sanity: the codec must round-trip.
    debug_assert_eq!(rle_decompress(&compressed).as_deref(), Some(raw.as_slice()));
    CompressionProbe {
        raw_bytes: raw.len(),
        compressed_bytes: compressed.len(),
        compress_wall_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vira_grid::block::BlockStepId;
    use vira_grid::synth::test_cube;

    #[test]
    fn rle_roundtrip_simple_patterns() {
        for data in [
            b"".to_vec(),
            b"a".to_vec(),
            b"abcabc".to_vec(),
            vec![7u8; 1000],
            b"aaabbbcccabcabcxxxxxxxx".to_vec(),
        ] {
            let c = rle_compress(&data);
            assert_eq!(rle_decompress(&c).unwrap(), data, "input {data:?}");
        }
    }

    #[test]
    fn rle_compresses_runs_well() {
        let data = vec![0u8; 10_000];
        let c = rle_compress(&data);
        assert!(c.len() < 200, "run-heavy data must shrink: {}", c.len());
    }

    #[test]
    fn rle_handles_long_literals() {
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let c = rle_compress(&data);
        assert_eq!(rle_decompress(&c).unwrap(), data);
        // Pure literals cost ~1/128 overhead.
        assert!(c.len() <= data.len() + data.len() / 100 + 16);
    }

    #[test]
    fn rle_rejects_malformed() {
        assert!(rle_decompress(&[128]).is_none());
        assert!(rle_decompress(&[5, 1, 2]).is_none()); // truncated literal
        assert!(rle_decompress(&[200]).is_none()); // missing repeat byte
    }

    #[test]
    fn cfd_payload_barely_compresses() {
        // The paper's finding: float CFD data has low byte-level
        // redundancy.
        let data = test_cube(12, 1).generate(BlockStepId::new(0, 0));
        let probe = probe_block_compression(&data);
        assert!(probe.ratio() < 1.6, "ratio {}", probe.ratio());
        assert!(probe.raw_bytes > 0 && probe.compressed_bytes > 0);
    }

    #[test]
    fn breakeven_is_zero_when_data_grows() {
        let p = CompressionProbe {
            raw_bytes: 100,
            compressed_bytes: 120,
            compress_wall_s: 0.001,
        };
        assert_eq!(p.breakeven_bandwidth_bps(), 0.0);
        assert!(p.ratio() < 1.0);
    }

    #[test]
    fn breakeven_scales_with_savings() {
        let fast_good = CompressionProbe {
            raw_bytes: 1000,
            compressed_bytes: 500,
            compress_wall_s: 1e-6,
        };
        let slow_good = CompressionProbe {
            compress_wall_s: 1e-3,
            ..fast_good
        };
        assert!(fast_good.breakeven_bandwidth_bps() > slow_good.breakeven_bandwidth_bps());
    }
}
