//! A JPEG-style lossy image codec for camera nodes.
//!
//! The paper's buffered strategy compresses with "bzip or jpeg
//! depending on application" (§5.1); the RF-powered camera rows of
//! Table 1 ship raw pixels precisely because their volatile platforms
//! cannot afford local compression. This module implements the classic
//! transform-coding pipeline at MCU scale: 8×8 DCT-II, quality-scaled
//! quantization, zig-zag scan, and entropy packing via the workspace's
//! lossless back-end.

#![expect(
    clippy::indexing_slicing,
    reason = "8x8 DCT kernel; fixed-size block indices"
)]

use crate::compress::{compress as lossless_pack, decompress as lossless_unpack};
use neofog_types::{NeoFogError, Result};

/// Block edge length (classic JPEG: 8).
pub const BLOCK: usize = 8;

/// The JPEG luminance base quantization table (Annex K).
const BASE_Q: [u16; 64] = [
    16, 11, 10, 16, 24, 40, 51, 61, //
    12, 12, 14, 19, 26, 58, 60, 55, //
    14, 13, 16, 24, 40, 57, 69, 56, //
    14, 17, 22, 29, 51, 87, 80, 62, //
    18, 22, 37, 56, 68, 109, 103, 77, //
    24, 35, 55, 64, 81, 104, 113, 92, //
    49, 64, 78, 87, 103, 121, 120, 101, //
    72, 92, 95, 98, 112, 100, 103, 99,
];

/// Zig-zag scan order for an 8×8 block.
const ZIGZAG: [usize; 64] = [
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5, //
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28, //
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51, //
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
];

/// A grayscale image with 8-bit pixels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrayImage {
    width: usize,
    height: usize,
    pixels: Vec<u8>,
}

impl GrayImage {
    /// Creates an image from row-major pixels.
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len() != width * height`, or if either
    /// dimension is not a positive multiple of 8 (MCU camera tiles are
    /// block-aligned).
    #[must_use]
    pub fn new(width: usize, height: usize, pixels: Vec<u8>) -> Self {
        assert_eq!(
            pixels.len(),
            width * height,
            "pixel count must match dimensions"
        );
        assert!(
            width > 0 && height > 0 && width.is_multiple_of(BLOCK) && height.is_multiple_of(BLOCK),
            "dimensions must be positive multiples of {BLOCK}"
        );
        GrayImage {
            width,
            height,
            pixels,
        }
    }

    /// Image width in pixels.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Row-major pixel data.
    #[must_use]
    pub fn pixels(&self) -> &[u8] {
        &self.pixels
    }

    fn block(&self, bx: usize, by: usize) -> [f64; 64] {
        let mut out = [0.0; 64];
        for y in 0..BLOCK {
            for x in 0..BLOCK {
                let px = self.pixels[(by * BLOCK + y) * self.width + bx * BLOCK + x];
                out[y * BLOCK + x] = f64::from(px) - 128.0;
            }
        }
        out
    }
}

/// Forward 8×8 DCT-II on one block.
#[must_use]
pub fn dct2_block(block: &[f64; 64]) -> [f64; 64] {
    let mut out = [0.0; 64];
    for (v, out_row) in out.chunks_exact_mut(BLOCK).enumerate() {
        for (u, coeff) in out_row.iter_mut().enumerate() {
            let mut sum = 0.0;
            for y in 0..BLOCK {
                for x in 0..BLOCK {
                    sum += block[y * BLOCK + x]
                        * (std::f64::consts::PI * (2 * x + 1) as f64 * u as f64 / 16.0).cos()
                        * (std::f64::consts::PI * (2 * y + 1) as f64 * v as f64 / 16.0).cos();
                }
            }
            let cu = if u == 0 {
                std::f64::consts::FRAC_1_SQRT_2
            } else {
                1.0
            };
            let cv = if v == 0 {
                std::f64::consts::FRAC_1_SQRT_2
            } else {
                1.0
            };
            *coeff = 0.25 * cu * cv * sum;
        }
    }
    out
}

/// Inverse 8×8 DCT (DCT-III) on one coefficient block.
#[must_use]
pub fn idct2_block(coeffs: &[f64; 64]) -> [f64; 64] {
    let mut out = [0.0; 64];
    for (y, out_row) in out.chunks_exact_mut(BLOCK).enumerate() {
        for (x, px) in out_row.iter_mut().enumerate() {
            let mut sum = 0.0;
            for v in 0..BLOCK {
                for u in 0..BLOCK {
                    let cu = if u == 0 {
                        std::f64::consts::FRAC_1_SQRT_2
                    } else {
                        1.0
                    };
                    let cv = if v == 0 {
                        std::f64::consts::FRAC_1_SQRT_2
                    } else {
                        1.0
                    };
                    sum += cu
                        * cv
                        * coeffs[v * BLOCK + u]
                        * (std::f64::consts::PI * (2 * x + 1) as f64 * u as f64 / 16.0).cos()
                        * (std::f64::consts::PI * (2 * y + 1) as f64 * v as f64 / 16.0).cos();
                }
            }
            *px = 0.25 * sum;
        }
    }
    out
}

fn quant_table(quality: u8) -> [u16; 64] {
    // libjpeg's quality scaling.
    let q = quality.clamp(1, 100) as u32;
    let scale = if q < 50 { 5000 / q } else { 200 - 2 * q };
    let mut table = [0u16; 64];
    for (t, &b) in table.iter_mut().zip(&BASE_Q) {
        *t = (((u32::from(b) * scale + 50) / 100).clamp(1, 255)) as u16;
    }
    table
}

/// Encodes a grayscale image at the given JPEG-style quality (1–100).
///
/// The output begins with a 6-byte header (width/16 is not assumed:
/// u16 width, u16 height, u8 quality, u8 reserved) followed by the
/// entropy-packed coefficient stream.
#[must_use]
pub fn encode(image: &GrayImage, quality: u8) -> Vec<u8> {
    let quality = quality.clamp(1, 100);
    let qt = quant_table(quality);
    let blocks_x = image.width / BLOCK;
    let blocks_y = image.height / BLOCK;
    let mut symbols: Vec<u8> = Vec::with_capacity(image.pixels.len());
    let mut prev_dc: i32 = 0;
    for by in 0..blocks_y {
        for bx in 0..blocks_x {
            let coeffs = dct2_block(&image.block(bx, by));
            for (k, &zz) in ZIGZAG.iter().enumerate() {
                let q = (coeffs[zz] / f64::from(qt[zz])).round() as i32;
                let v = if k == 0 {
                    // DC is delta-coded across blocks.
                    let d = q - prev_dc;
                    prev_dc = q;
                    d
                } else {
                    q
                };
                // Symbol: zig-zag i16 little-endian (quantized values
                // fit comfortably).
                let clamped = v.clamp(i32::from(i16::MIN), i32::from(i16::MAX)) as i16;
                symbols.extend_from_slice(&clamped.to_le_bytes());
            }
        }
    }
    let mut out = Vec::with_capacity(symbols.len() / 8 + 8);
    out.extend_from_slice(&(image.width as u16).to_le_bytes());
    out.extend_from_slice(&(image.height as u16).to_le_bytes());
    out.push(quality);
    out.push(0);
    out.extend_from_slice(&lossless_pack(&symbols));
    out
}

/// Decodes an [`encode`]-produced stream back into an image.
///
/// # Errors
///
/// Returns [`NeoFogError::InvalidConfig`] on malformed input.
pub fn decode(data: &[u8]) -> Result<GrayImage> {
    if data.len() < 6 {
        return Err(NeoFogError::invalid_config("image stream truncated"));
    }
    let width = usize::from(u16::from_le_bytes([data[0], data[1]]));
    let height = usize::from(u16::from_le_bytes([data[2], data[3]]));
    let quality = data[4];
    if width == 0 || height == 0 || !width.is_multiple_of(BLOCK) || !height.is_multiple_of(BLOCK) {
        return Err(NeoFogError::invalid_config("bad image dimensions"));
    }
    let qt = quant_table(quality);
    let symbols = lossless_unpack(&data[6..])?;
    let expected = width * height * 2;
    if symbols.len() != expected {
        return Err(NeoFogError::invalid_config(
            "coefficient stream length mismatch",
        ));
    }
    let blocks_x = width / BLOCK;
    let mut pixels = vec![0u8; width * height];
    let mut prev_dc: i32 = 0;
    for (bi, chunk) in symbols.chunks_exact(128).enumerate() {
        let mut coeffs = [0.0f64; 64];
        for (k, pair) in chunk.chunks_exact(2).enumerate() {
            let mut v = i32::from(i16::from_le_bytes([pair[0], pair[1]]));
            if k == 0 {
                v += prev_dc;
                prev_dc = v;
            }
            let zz = ZIGZAG[k];
            coeffs[zz] = f64::from(v) * f64::from(qt[zz]);
        }
        let block = idct2_block(&coeffs);
        let bx = bi % blocks_x;
        let by = bi / blocks_x;
        for y in 0..BLOCK {
            for x in 0..BLOCK {
                let px = (block[y * BLOCK + x] + 128.0).round().clamp(0.0, 255.0) as u8;
                pixels[(by * BLOCK + y) * width + bx * BLOCK + x] = px;
            }
        }
    }
    Ok(GrayImage {
        width,
        height,
        pixels,
    })
}

/// Peak signal-to-noise ratio between two same-sized images, in dB.
///
/// # Panics
///
/// Panics if dimensions differ.
#[must_use]
pub fn psnr(a: &GrayImage, b: &GrayImage) -> f64 {
    assert_eq!(
        (a.width, a.height),
        (b.width, b.height),
        "image dimensions must match"
    );
    let mse: f64 = a
        .pixels
        .iter()
        .zip(&b.pixels)
        .map(|(&x, &y)| {
            let d = f64::from(x) - f64::from(y);
            d * d
        })
        .sum::<f64>()
        / a.pixels.len() as f64;
    if mse <= 0.0 {
        f64::INFINITY
    } else {
        10.0 * (255.0f64 * 255.0 / mse).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_image(w: usize, h: usize) -> GrayImage {
        // Smooth gradient with a bright disc — photographic-ish.
        let pixels = (0..w * h)
            .map(|i| {
                let (x, y) = ((i % w) as f64, (i / w) as f64);
                let base = 40.0 + 1.5 * x + 0.8 * y;
                let d = ((x - w as f64 / 2.0).powi(2) + (y - h as f64 / 2.0).powi(2)).sqrt();
                let disc = if d < w as f64 / 4.0 { 80.0 } else { 0.0 };
                (base + disc).clamp(0.0, 255.0) as u8
            })
            .collect();
        GrayImage::new(w, h, pixels)
    }

    #[test]
    fn dct_idct_round_trips() {
        let mut block = [0.0f64; 64];
        for (i, b) in block.iter_mut().enumerate() {
            *b = ((i * 37) % 251) as f64 - 125.0;
        }
        let back = idct2_block(&dct2_block(&block));
        for (a, b) in block.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn dc_coefficient_is_block_mean() {
        let block = [32.0f64; 64];
        let coeffs = dct2_block(&block);
        // DC of a constant block: 8 * value; AC all zero.
        assert!((coeffs[0] - 8.0 * 32.0).abs() < 1e-9);
        for &c in &coeffs[1..] {
            assert!(c.abs() < 1e-9);
        }
    }

    #[test]
    fn codec_round_trip_quality() {
        let img = test_image(64, 48);
        for quality in [30u8, 60, 90] {
            let packed = encode(&img, quality);
            let restored = decode(&packed).unwrap();
            let quality_db = psnr(&img, &restored);
            assert!(
                quality_db > 28.0,
                "q{quality}: psnr {quality_db:.1} dB too low"
            );
        }
    }

    #[test]
    fn higher_quality_is_more_faithful_and_bigger() {
        let img = test_image(64, 64);
        let low = encode(&img, 20);
        let high = encode(&img, 95);
        assert!(high.len() > low.len());
        let psnr_low = psnr(&img, &decode(&low).unwrap());
        let psnr_high = psnr(&img, &decode(&high).unwrap());
        assert!(psnr_high > psnr_low, "{psnr_high} vs {psnr_low}");
    }

    #[test]
    fn compresses_camera_tiles_hard() {
        // The WispCam motivation: raw pixels are very compressible.
        let img = test_image(128, 128);
        let packed = encode(&img, 50);
        let ratio = packed.len() as f64 / img.pixels().len() as f64;
        assert!(ratio < 0.145, "ratio {ratio} outside the paper's band");
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode(&[]).is_err());
        assert!(decode(&[0, 0, 0, 0, 50, 0]).is_err()); // zero dims
        assert!(decode(&[8, 0, 8, 0, 50, 0, 0xFF, 0xFF]).is_err()); // bad body
    }

    #[test]
    fn synthetic_sensor_tile_encodes() {
        use neofog_sensors::{SensorKind, SignalGenerator};
        let mut gen = SignalGenerator::new(SensorKind::Lupa1399, 4);
        let pixels = gen.generate(32 * 32);
        let img = GrayImage::new(32, 32, pixels);
        let packed = encode(&img, 70);
        let restored = decode(&packed).unwrap();
        assert!(psnr(&img, &restored) > 30.0);
        assert!(packed.len() < img.pixels().len() / 2);
    }

    #[test]
    #[should_panic(expected = "multiples of 8")]
    fn rejects_unaligned_dimensions() {
        let _ = GrayImage::new(10, 8, vec![0; 80]);
    }
}
