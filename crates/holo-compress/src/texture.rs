//! Block-truncation texture codec (DXT1/BTC family).
//!
//! §3.1 proposes delivering "the compressed 2D texture, given its high
//! compression ratio and thus relatively small data size" alongside
//! keypoint-reconstructed geometry. This codec is that channel: each 4x4
//! pixel block stores two RGB565 endpoint colors and sixteen 2-bit
//! interpolation indices — 8 bytes per block, a fixed 6x ratio versus
//! RGB888 (4 bits per pixel), decodable in constant time per block like
//! the ASTC/DXT codecs MR headsets use in hardware.

use holo_math::Vec3;
use holo_runtime::ser::{ByteReader, DecodeError};

/// A simple RGB8 image.
#[derive(Debug, Clone)]
pub struct Texture {
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
    /// RGB bytes, row-major, 3 bytes per pixel.
    pub data: Vec<u8>,
}

impl Texture {
    /// Allocate a black texture.
    pub fn new(width: u32, height: u32) -> Self {
        Self { width, height, data: vec![0; (width * height * 3) as usize] }
    }

    /// Raw (uncompressed) size in bytes.
    pub fn raw_size_bytes(&self) -> usize {
        self.data.len()
    }

    /// Pixel accessor (clamped to edges).
    pub fn get(&self, x: u32, y: u32) -> [u8; 3] {
        let x = x.min(self.width.saturating_sub(1));
        let y = y.min(self.height.saturating_sub(1));
        let i = ((y * self.width + x) * 3) as usize;
        [self.data[i], self.data[i + 1], self.data[i + 2]]
    }

    /// Pixel setter; out-of-range coordinates are ignored.
    pub fn set(&mut self, x: u32, y: u32, rgb: [u8; 3]) {
        if x >= self.width || y >= self.height {
            return;
        }
        let i = ((y * self.width + x) * 3) as usize;
        self.data[i..i + 3].copy_from_slice(&rgb);
    }

    /// Peak signal-to-noise ratio against another texture of identical
    /// dimensions, in dB.
    pub fn psnr(&self, other: &Texture) -> f64 {
        assert_eq!((self.width, self.height), (other.width, other.height));
        let mse: f64 = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| {
                let d = a as f64 - b as f64;
                d * d
            })
            .sum::<f64>()
            / self.data.len().max(1) as f64;
        if mse <= 1e-12 {
            return f64::INFINITY;
        }
        10.0 * (255.0f64 * 255.0 / mse).log10()
    }

    /// Fill with a deterministic procedural pattern (skin + clothing bands
    /// + high-frequency detail), the stand-in for a captured human texture.
    pub fn synthetic_body_texture(width: u32, height: u32) -> Self {
        let mut t = Self::new(width, height);
        for y in 0..height {
            for x in 0..width {
                let u = x as f32 / width.max(1) as f32;
                let v = y as f32 / height.max(1) as f32;
                // Upper third: skin; rest: clothing with stripes + noise.
                let (base, detail) = if v < 0.33 {
                    (Vec3::new(0.85, 0.66, 0.55), ((u * 40.0).sin() * (v * 55.0).cos()) * 0.03)
                } else {
                    let stripe = if ((v * 24.0) as u32).is_multiple_of(2) { 0.12 } else { -0.05 };
                    (Vec3::new(0.25, 0.35, 0.60) + Vec3::splat(stripe), ((u * 90.0).sin() * (v * 70.0).sin()) * 0.06)
                };
                let c = base + Vec3::splat(detail);
                t.set(x, y, [
                    (c.x.clamp(0.0, 1.0) * 255.0) as u8,
                    (c.y.clamp(0.0, 1.0) * 255.0) as u8,
                    (c.z.clamp(0.0, 1.0) * 255.0) as u8,
                ]);
            }
        }
        t
    }
}

/// The block codec.
pub struct TextureCodec;

fn to565(rgb: [u8; 3]) -> u16 {
    ((rgb[0] as u16 >> 3) << 11) | ((rgb[1] as u16 >> 2) << 5) | (rgb[2] as u16 >> 3)
}

fn from565(c: u16) -> [u8; 3] {
    let r = ((c >> 11) & 0x1F) as u32;
    let g = ((c >> 5) & 0x3F) as u32;
    let b = (c & 0x1F) as u32;
    [((r * 255 + 15) / 31) as u8, ((g * 255 + 31) / 63) as u8, ((b * 255 + 15) / 31) as u8]
}

fn palette(c0: [u8; 3], c1: [u8; 3]) -> [[u8; 3]; 4] {
    let mix = |a: u8, b: u8, num: u32, den: u32| (((a as u32) * (den - num) + (b as u32) * num) / den) as u8;
    [
        c0,
        c1,
        [mix(c0[0], c1[0], 1, 3), mix(c0[1], c1[1], 1, 3), mix(c0[2], c1[2], 1, 3)],
        [mix(c0[0], c1[0], 2, 3), mix(c0[1], c1[1], 2, 3), mix(c0[2], c1[2], 2, 3)],
    ]
}

fn color_dist(a: [u8; 3], b: [u8; 3]) -> u32 {
    let d = |x: u8, y: u8| {
        let d = x as i32 - y as i32;
        (d * d) as u32
    };
    d(a[0], b[0]) + d(a[1], b[1]) + d(a[2], b[2])
}

impl TextureCodec {
    /// Compressed size for a texture of the given dimensions: 8 bytes per
    /// 4x4 block plus an 8-byte header.
    pub fn compressed_size(width: u32, height: u32) -> usize {
        let bw = width.div_ceil(4) as usize;
        let bh = height.div_ceil(4) as usize;
        8 + bw * bh * 8
    }

    /// Compress a texture (4 bpp fixed rate).
    pub fn compress(tex: &Texture) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::compressed_size(tex.width, tex.height));
        out.extend_from_slice(&tex.width.to_le_bytes());
        out.extend_from_slice(&tex.height.to_le_bytes());
        for by in 0..tex.height.div_ceil(4) {
            for bx in 0..tex.width.div_ceil(4) {
                // Gather the block (edge-clamped).
                let mut pix = [[0u8; 3]; 16];
                for (i, p) in pix.iter_mut().enumerate() {
                    *p = tex.get(bx * 4 + (i % 4) as u32, by * 4 + (i / 4) as u32);
                }
                // Endpoints: min/max along the principal luminance axis.
                let lum = |p: [u8; 3]| p[0] as u32 * 2 + p[1] as u32 * 5 + p[2] as u32;
                let (mut lo, mut hi) = (pix[0], pix[0]);
                for &p in &pix {
                    if lum(p) < lum(lo) {
                        lo = p;
                    }
                    if lum(p) > lum(hi) {
                        hi = p;
                    }
                }
                let (c0, c1) = (to565(hi), to565(lo));
                let pal = palette(from565(c0), from565(c1));
                let mut indices = 0u32;
                for (i, &p) in pix.iter().enumerate() {
                    let best = (0..4).min_by_key(|&k| color_dist(p, pal[k])).unwrap() as u32;
                    indices |= best << (i * 2);
                }
                out.extend_from_slice(&c0.to_le_bytes());
                out.extend_from_slice(&c1.to_le_bytes());
                out.extend_from_slice(&indices.to_le_bytes());
            }
        }
        out
    }

    /// Decompress.
    ///
    /// Hostile-input contract: the declared dimensions are capped and
    /// the exact stream length is validated *before* the output texture
    /// is allocated, so a short header can never trigger a large
    /// allocation or an out-of-bounds block read.
    pub fn decompress(data: &[u8]) -> Result<Texture, DecodeError> {
        let mut r = ByteReader::new(data);
        let width = r.u32_le()?;
        let height = r.u32_le()?;
        if width > 16384 || height > 16384 {
            return Err(DecodeError::LimitExceeded {
                what: "texture dimension",
                requested: width.max(height) as u64,
                limit: 16384,
            });
        }
        let expected = Self::compressed_size(width, height);
        if data.len() != expected {
            return Err(if data.len() < expected {
                DecodeError::Truncated { needed: expected, available: data.len() }
            } else {
                DecodeError::corrupt(
                    "texture",
                    format!("stream {} bytes, expected {expected}", data.len()),
                )
            });
        }
        let mut tex = Texture::new(width, height);
        for by in 0..height.div_ceil(4) {
            for bx in 0..width.div_ceil(4) {
                let c0 = r.u16_le()?;
                let c1 = r.u16_le()?;
                let indices = r.u32_le()?;
                let pal = palette(from565(c0), from565(c1));
                for i in 0..16 {
                    let k = ((indices >> (i * 2)) & 3) as usize;
                    tex.set(bx * 4 + (i % 4) as u32, by * 4 + (i / 4) as u32, pal[k]);
                }
            }
        }
        Ok(tex)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_color_is_exact_modulo_565() {
        let mut tex = Texture::new(16, 16);
        for y in 0..16 {
            for x in 0..16 {
                tex.set(x, y, [120, 200, 48]);
            }
        }
        let c = TextureCodec::compress(&tex);
        let d = TextureCodec::decompress(&c).unwrap();
        // 565 quantization loses at most 8 levels per channel.
        for y in 0..16 {
            for x in 0..16 {
                let p = d.get(x, y);
                assert!((p[0] as i32 - 120).abs() <= 8);
                assert!((p[1] as i32 - 200).abs() <= 4);
                assert!((p[2] as i32 - 48).abs() <= 8);
            }
        }
    }

    #[test]
    fn ratio_is_six_x() {
        let tex = Texture::synthetic_body_texture(256, 256);
        let c = TextureCodec::compress(&tex);
        let ratio = tex.raw_size_bytes() as f64 / c.len() as f64;
        assert!((5.5..6.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn synthetic_texture_quality_reasonable() {
        let tex = Texture::synthetic_body_texture(128, 128);
        let d = TextureCodec::decompress(&TextureCodec::compress(&tex)).unwrap();
        let psnr = tex.psnr(&d);
        assert!(psnr > 25.0, "PSNR {psnr:.1} dB too low");
    }

    #[test]
    fn non_multiple_of_four_dimensions() {
        let tex = Texture::synthetic_body_texture(37, 21);
        let c = TextureCodec::compress(&tex);
        let d = TextureCodec::decompress(&c).unwrap();
        assert_eq!((d.width, d.height), (37, 21));
        assert!(tex.psnr(&d) > 20.0);
    }

    #[test]
    fn corrupt_input_errors() {
        assert!(TextureCodec::decompress(&[1, 2, 3]).is_err());
        let tex = Texture::synthetic_body_texture(16, 16);
        let mut c = TextureCodec::compress(&tex);
        c.pop();
        assert!(TextureCodec::decompress(&c).is_err());
    }

    #[test]
    fn psnr_identity_infinite() {
        let tex = Texture::synthetic_body_texture(32, 32);
        assert!(tex.psnr(&tex).is_infinite());
    }

    #[test]
    fn one_pixel_texture() {
        let mut tex = Texture::new(1, 1);
        tex.set(0, 0, [255, 0, 128]);
        let d = TextureCodec::decompress(&TextureCodec::compress(&tex)).unwrap();
        let p = d.get(0, 0);
        assert!((p[0] as i32 - 255).abs() <= 8);
        assert!((p[2] as i32 - 128).abs() <= 8);
    }
}
