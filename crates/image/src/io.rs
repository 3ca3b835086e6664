//! Binary PPM (P6) / PGM (P5) reading and writing.
//!
//! The visual-reconstruction figures (paper Figures 7–12 and 14) are
//! emitted as PPM files, which every image viewer and converter
//! understands without pulling in an image-codec dependency.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::{Image, ImageError, Result};

/// Writes a 3-channel image as binary PPM (P6).
///
/// # Errors
///
/// Returns an error if the image is not 3-channel or on IO failure.
pub fn write_ppm(path: impl AsRef<Path>, img: &Image) -> Result<()> {
    if img.channels() != 3 {
        return Err(ImageError::ChannelMismatch {
            op: "write_ppm",
            expected: 3,
            actual: img.channels(),
        });
    }
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "P6")?;
    writeln!(w, "{} {}", img.width(), img.height())?;
    writeln!(w, "255")?;
    let mut buf = Vec::with_capacity(img.height() * img.width() * 3);
    for y in 0..img.height() {
        for x in 0..img.width() {
            for c in 0..3 {
                let v = img.get(c, y, x).expect("in bounds");
                buf.push(quantize(v));
            }
        }
    }
    w.write_all(&buf)?;
    Ok(())
}

/// Writes a 1-channel image as binary PGM (P5).
///
/// # Errors
///
/// Returns an error if the image is not 1-channel or on IO failure.
pub fn write_pgm(path: impl AsRef<Path>, img: &Image) -> Result<()> {
    if img.channels() != 1 {
        return Err(ImageError::ChannelMismatch {
            op: "write_pgm",
            expected: 1,
            actual: img.channels(),
        });
    }
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "P5")?;
    writeln!(w, "{} {}", img.width(), img.height())?;
    writeln!(w, "255")?;
    let mut buf = Vec::with_capacity(img.height() * img.width());
    for y in 0..img.height() {
        for x in 0..img.width() {
            buf.push(quantize(img.get(0, y, x).expect("in bounds")));
        }
    }
    w.write_all(&buf)?;
    Ok(())
}

/// Reads a binary PPM (P6) or PGM (P5) file.
///
/// # Errors
///
/// Returns an error on IO failure or malformed headers.
pub fn read(path: impl AsRef<Path>) -> Result<Image> {
    let mut r = BufReader::new(File::open(path)?);
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    parse(&bytes)
}

fn parse(bytes: &[u8]) -> Result<Image> {
    let mut pos = 0usize;
    let magic = next_token(bytes, &mut pos)?;
    let channels = match magic.as_str() {
        "P6" => 3,
        "P5" => 1,
        other => return Err(ImageError::Format(format!("magic {other:?}"))),
    };
    let width: usize = next_token(bytes, &mut pos)?
        .parse()
        .map_err(|_| ImageError::Format("bad width".into()))?;
    let height: usize = next_token(bytes, &mut pos)?
        .parse()
        .map_err(|_| ImageError::Format("bad height".into()))?;
    let maxval: usize = next_token(bytes, &mut pos)?
        .parse()
        .map_err(|_| ImageError::Format("bad maxval".into()))?;
    if maxval != 255 {
        return Err(ImageError::Format(format!("unsupported maxval {maxval}")));
    }
    // Exactly one whitespace byte separates the header from pixel data.
    pos += 1;
    let expected = width * height * channels;
    let pixels = bytes
        .get(pos..pos + expected)
        .ok_or_else(|| ImageError::Format("truncated pixel data".into()))?;
    let mut img = Image::new(channels, height, width);
    for y in 0..height {
        for x in 0..width {
            for c in 0..channels {
                let b = pixels[(y * width + x) * channels + c];
                img.set(c, y, x, b as f32 / 255.0).expect("in bounds");
            }
        }
    }
    Ok(img)
}

fn next_token(bytes: &[u8], pos: &mut usize) -> Result<String> {
    // Skip whitespace and `#` comments.
    loop {
        while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
        if *pos < bytes.len() && bytes[*pos] == b'#' {
            while *pos < bytes.len() && bytes[*pos] != b'\n' {
                *pos += 1;
            }
        } else {
            break;
        }
    }
    let start = *pos;
    while *pos < bytes.len() && !bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
    if start == *pos {
        return Err(ImageError::Format("unexpected end of header".into()));
    }
    String::from_utf8(bytes[start..*pos].to_vec())
        .map_err(|_| ImageError::Format("non-utf8 header".into()))
}

fn quantize(v: f32) -> u8 {
    (v.clamp(0.0, 1.0) * 255.0).round() as u8
}

/// Lays out images side by side in a grid with `cols` columns and
/// 2-pixel light-grey padding — used for the figure panels.
///
/// # Errors
///
/// Returns an error if `images` is empty or shapes differ.
pub fn montage(images: &[Image], cols: usize) -> Result<Image> {
    let first = images
        .first()
        .ok_or_else(|| ImageError::Format("montage of zero images".into()))?;
    let (c, h, w) = first.dims();
    for img in images {
        if img.dims() != (c, h, w) {
            return Err(ImageError::DimensionMismatch {
                op: "montage",
                lhs: (c, h, w),
                rhs: img.dims(),
            });
        }
    }
    const PAD: usize = 2;
    let cols = cols.max(1);
    let rows = images.len().div_ceil(cols);
    let out_h = rows * h + (rows + 1) * PAD;
    let out_w = cols * w + (cols + 1) * PAD;
    let mut out = Image::new(c, out_h, out_w);
    out.fill(0.85);
    for (idx, img) in images.iter().enumerate() {
        let gy = idx / cols;
        let gx = idx % cols;
        let oy = PAD + gy * (h + PAD);
        let ox = PAD + gx * (w + PAD);
        for ch in 0..c {
            for y in 0..h {
                for x in 0..w {
                    let v = img.get(ch, y, x).expect("in bounds");
                    out.set(ch, oy + y, ox + x, v.clamp(0.0, 1.0))
                        .expect("in bounds");
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("oasis_image_test_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn ppm_round_trip() {
        let mut img = Image::new(3, 4, 5);
        for y in 0..4 {
            for x in 0..5 {
                for c in 0..3 {
                    img.set(c, y, x, ((y * 5 + x + c) % 7) as f32 / 7.0)
                        .unwrap();
                }
            }
        }
        let p = temp_path("rt.ppm");
        write_ppm(&p, &img).unwrap();
        let back = read(&p).unwrap();
        std::fs::remove_file(&p).ok();
        assert_eq!(back.dims(), img.dims());
        for (a, b) in img.data().iter().zip(back.data()) {
            assert!((a - b).abs() <= 1.0 / 255.0 + 1e-6);
        }
    }

    #[test]
    fn pgm_round_trip() {
        let mut img = Image::new(1, 3, 3);
        img.fill(0.25);
        let p = temp_path("rt.pgm");
        write_pgm(&p, &img).unwrap();
        let back = read(&p).unwrap();
        std::fs::remove_file(&p).ok();
        assert_eq!(back.dims(), (1, 3, 3));
        assert!((back.get(0, 1, 1).unwrap() - 0.25).abs() <= 1.0 / 255.0);
    }

    #[test]
    fn write_ppm_rejects_grayscale() {
        let img = Image::new(1, 2, 2);
        let p = temp_path("bad.ppm");
        assert!(write_ppm(&p, &img).is_err());
    }

    #[test]
    fn montage_dimensions() {
        let imgs = vec![Image::new(3, 8, 8); 5];
        let m = montage(&imgs, 3).unwrap();
        // 2 rows, 3 cols, pad 2: h = 2*8+3*2 = 22, w = 3*8+4*2 = 32.
        assert_eq!(m.dims(), (3, 22, 32));
    }

    #[test]
    fn montage_rejects_empty() {
        assert!(montage(&[], 2).is_err());
    }

    #[test]
    fn quantize_clamps() {
        assert_eq!(quantize(-1.0), 0);
        assert_eq!(quantize(2.0), 255);
        assert_eq!(quantize(0.5), 128);
    }
}
