//! Synthetic image datasets mirroring MNIST and Fashion-MNIST.
//!
//! Every image is a `size × size` grayscale grid with pixel values in
//! `[0, 1]`, flattened row-major — the same format the paper's generative
//! models consume (MNIST is 28×28; the evaluation harness defaults to a
//! reduced resolution for single-core runtimes, set by `p3gm-eval`'s
//! `Scale`).
//!
//! * [`mnist_like`] renders ten digit-like stroke classes (vertical bar,
//!   horizontal bar, the two diagonals, a cross, a ring, the four corner L
//!   shapes) with per-sample jitter in position, thickness and intensity.
//! * [`fashion_mnist_like`] renders ten clothing-like silhouette classes
//!   (filled rectangles, T shapes, trousers-like split rectangles, …) with
//!   textured interiors.
//!
//! The classes are deliberately *not* trivially separable at low resolution
//! once jitter and noise are added, so a classifier trained on synthetic
//! data has headroom to show quality differences between generative models,
//! which is what Table VII measures.

use crate::dataset::Dataset;
use p3gm_linalg::Matrix;
use p3gm_privacy::sampling;
use rand::Rng;

/// Renders an MNIST-like dataset of `n` images at `size × size` resolution
/// with balanced classes (10 classes, like the digits).
pub fn mnist_like<R: Rng + ?Sized>(rng: &mut R, n: usize, size: usize) -> Dataset {
    stroke_dataset(rng, n, size, StrokeStyle::Digit, "MNIST")
}

/// Renders a Fashion-MNIST-like dataset of `n` images at `size × size`
/// resolution with balanced classes.
pub fn fashion_mnist_like<R: Rng + ?Sized>(rng: &mut R, n: usize, size: usize) -> Dataset {
    stroke_dataset(rng, n, size, StrokeStyle::Fashion, "Fashion-MNIST")
}

#[derive(Clone, Copy)]
enum StrokeStyle {
    Digit,
    Fashion,
}

fn stroke_dataset<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    size: usize,
    style: StrokeStyle,
    name: &str,
) -> Dataset {
    assert!(size >= 6, "images must be at least 6x6");
    assert!(n >= 10, "need at least one image per class");
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let label = i % 10;
        let img = match style {
            StrokeStyle::Digit => render_digit_like(rng, size, label),
            StrokeStyle::Fashion => render_fashion_like(rng, size, label),
        };
        rows.push(img);
        labels.push(label);
    }
    use rand::seq::SliceRandom;
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let features = Matrix::from_rows(&rows)
        .expect("images have equal size")
        .select_rows(&order)
        .expect("shuffle order is a permutation");
    let labels: Vec<usize> = order.iter().map(|&i| labels[i]).collect();
    Dataset::new(features, labels, 10, name)
}

/// Paints a thick anti-aliased line segment into the image.
#[allow(clippy::too_many_arguments)]
fn paint_line(
    img: &mut [f64],
    size: usize,
    x0: f64,
    y0: f64,
    x1: f64,
    y1: f64,
    thickness: f64,
    intensity: f64,
) {
    let steps = (size * 3).max(8);
    for s in 0..=steps {
        let t = s as f64 / steps as f64;
        let cx = x0 + t * (x1 - x0);
        let cy = y0 + t * (y1 - y0);
        paint_disc(img, size, cx, cy, thickness, intensity);
    }
}

/// Paints a soft disc (Gaussian falloff) centred at `(cx, cy)`.
fn paint_disc(img: &mut [f64], size: usize, cx: f64, cy: f64, radius: f64, intensity: f64) {
    let r_int = radius.ceil() as isize + 1;
    let cxi = cx.round() as isize;
    let cyi = cy.round() as isize;
    for dy in -r_int..=r_int {
        for dx in -r_int..=r_int {
            let x = cxi + dx;
            let y = cyi + dy;
            if x < 0 || y < 0 || x >= size as isize || y >= size as isize {
                continue;
            }
            let dist2 = (x as f64 - cx).powi(2) + (y as f64 - cy).powi(2);
            let value = intensity * (-dist2 / (2.0 * radius * radius).max(1e-9)).exp();
            let idx = y as usize * size + x as usize;
            img[idx] = (img[idx] + value).min(1.0);
        }
    }
}

/// Paints an axis-aligned filled rectangle.
fn paint_rect(img: &mut [f64], size: usize, x0: f64, y0: f64, x1: f64, y1: f64, intensity: f64) {
    let xa = x0.max(0.0).round() as usize;
    let xb = (x1.min(size as f64 - 1.0)).round() as usize;
    let ya = y0.max(0.0).round() as usize;
    let yb = (y1.min(size as f64 - 1.0)).round() as usize;
    for y in ya..=yb.min(size - 1) {
        for x in xa..=xb.min(size - 1) {
            let idx = y * size + x;
            img[idx] = (img[idx] + intensity).min(1.0);
        }
    }
}

fn render_digit_like<R: Rng + ?Sized>(rng: &mut R, size: usize, label: usize) -> Vec<f64> {
    let s = size as f64;
    let mut img = vec![0.0; size * size];
    let jitter = || -> f64 { 0.0 };
    let _ = jitter;
    let jx = rng.gen_range(-0.08..0.08) * s;
    let jy = rng.gen_range(-0.08..0.08) * s;
    let thickness = s * rng.gen_range(0.06..0.12);
    let intensity = rng.gen_range(0.75..1.0);
    let lo = 0.2 * s;
    let hi = 0.8 * s;
    let mid = 0.5 * s;
    match label {
        // Ring ("0").
        0 => {
            let r = 0.3 * s;
            let steps = size * 4;
            for k in 0..steps {
                let a = std::f64::consts::TAU * k as f64 / steps as f64;
                paint_disc(
                    &mut img,
                    size,
                    mid + jx + r * a.cos(),
                    mid + jy + r * a.sin(),
                    thickness,
                    intensity / 3.0,
                );
            }
        }
        // Vertical bar ("1").
        1 => paint_line(
            &mut img,
            size,
            mid + jx,
            lo + jy,
            mid + jx,
            hi + jy,
            thickness,
            intensity / 3.0,
        ),
        // Horizontal bar.
        2 => paint_line(
            &mut img,
            size,
            lo + jx,
            mid + jy,
            hi + jx,
            mid + jy,
            thickness,
            intensity / 3.0,
        ),
        // Main diagonal.
        3 => paint_line(
            &mut img,
            size,
            lo + jx,
            lo + jy,
            hi + jx,
            hi + jy,
            thickness,
            intensity / 3.0,
        ),
        // Anti-diagonal.
        4 => paint_line(
            &mut img,
            size,
            lo + jx,
            hi + jy,
            hi + jx,
            lo + jy,
            thickness,
            intensity / 3.0,
        ),
        // Cross.
        5 => {
            paint_line(
                &mut img,
                size,
                mid + jx,
                lo + jy,
                mid + jx,
                hi + jy,
                thickness,
                intensity / 3.0,
            );
            paint_line(
                &mut img,
                size,
                lo + jx,
                mid + jy,
                hi + jx,
                mid + jy,
                thickness,
                intensity / 3.0,
            );
        }
        // L shapes in the four orientations.
        6 => {
            paint_line(
                &mut img,
                size,
                lo + jx,
                lo + jy,
                lo + jx,
                hi + jy,
                thickness,
                intensity / 3.0,
            );
            paint_line(
                &mut img,
                size,
                lo + jx,
                hi + jy,
                hi + jx,
                hi + jy,
                thickness,
                intensity / 3.0,
            );
        }
        7 => {
            paint_line(
                &mut img,
                size,
                hi + jx,
                lo + jy,
                hi + jx,
                hi + jy,
                thickness,
                intensity / 3.0,
            );
            paint_line(
                &mut img,
                size,
                lo + jx,
                lo + jy,
                hi + jx,
                lo + jy,
                thickness,
                intensity / 3.0,
            );
        }
        8 => {
            paint_line(
                &mut img,
                size,
                lo + jx,
                lo + jy,
                hi + jx,
                lo + jy,
                thickness,
                intensity / 3.0,
            );
            paint_line(
                &mut img,
                size,
                lo + jx,
                lo + jy,
                lo + jx,
                hi + jy,
                thickness,
                intensity / 3.0,
            );
            paint_line(
                &mut img,
                size,
                lo + jx,
                hi + jy,
                hi + jx,
                hi + jy,
                thickness,
                intensity / 3.0,
            );
        }
        // X plus vertical ("9"-ish asterisk).
        _ => {
            paint_line(
                &mut img,
                size,
                lo + jx,
                lo + jy,
                hi + jx,
                hi + jy,
                thickness,
                intensity / 3.0,
            );
            paint_line(
                &mut img,
                size,
                lo + jx,
                hi + jy,
                hi + jx,
                lo + jy,
                thickness,
                intensity / 3.0,
            );
            paint_line(
                &mut img,
                size,
                mid + jx,
                lo + jy,
                mid + jx,
                hi + jy,
                thickness,
                intensity / 3.0,
            );
        }
    }
    add_pixel_noise(rng, &mut img, 0.03);
    img
}

fn render_fashion_like<R: Rng + ?Sized>(rng: &mut R, size: usize, label: usize) -> Vec<f64> {
    let s = size as f64;
    let mut img = vec![0.0; size * size];
    let jx = rng.gen_range(-0.06..0.06) * s;
    let jy = rng.gen_range(-0.06..0.06) * s;
    let fill = rng.gen_range(0.5..0.8);
    let lo = 0.2 * s;
    let hi = 0.8 * s;
    let mid = 0.5 * s;
    match label {
        // Full square (coat-like).
        0 => paint_rect(&mut img, size, lo + jx, lo + jy, hi + jx, hi + jy, fill),
        // Wide top rectangle (t-shirt body).
        1 => paint_rect(&mut img, size, lo + jx, lo + jy, hi + jx, mid + jy, fill),
        // Tall narrow rectangle (dress).
        2 => paint_rect(
            &mut img,
            size,
            0.35 * s + jx,
            lo + jy,
            0.65 * s + jx,
            hi + jy,
            fill,
        ),
        // Two vertical legs (trousers).
        3 => {
            paint_rect(
                &mut img,
                size,
                lo + jx,
                lo + jy,
                0.4 * s + jx,
                hi + jy,
                fill,
            );
            paint_rect(
                &mut img,
                size,
                0.6 * s + jx,
                lo + jy,
                hi + jx,
                hi + jy,
                fill,
            );
        }
        // Bottom rectangle (shoe).
        4 => paint_rect(&mut img, size, lo + jx, mid + jy, hi + jx, hi + jy, fill),
        // T shape (pullover with arms).
        5 => {
            paint_rect(
                &mut img,
                size,
                lo + jx,
                lo + jy,
                hi + jx,
                0.4 * s + jy,
                fill,
            );
            paint_rect(
                &mut img,
                size,
                0.4 * s + jx,
                lo + jy,
                0.6 * s + jx,
                hi + jy,
                fill,
            );
        }
        // Left half (bag).
        6 => paint_rect(&mut img, size, lo + jx, lo + jy, mid + jx, hi + jy, fill),
        // Right half.
        7 => paint_rect(&mut img, size, mid + jx, lo + jy, hi + jx, hi + jy, fill),
        // Frame (hollow square).
        8 => {
            paint_rect(&mut img, size, lo + jx, lo + jy, hi + jx, hi + jy, fill);
            paint_rect(
                &mut img,
                size,
                0.35 * s + jx,
                0.35 * s + jy,
                0.65 * s + jx,
                0.65 * s + jy,
                -fill,
            );
            for v in img.iter_mut() {
                *v = v.max(0.0);
            }
        }
        // Diagonal band (sandal strap).
        _ => {
            let t = s * 0.12;
            paint_line(
                &mut img,
                size,
                lo + jx,
                hi + jy,
                hi + jx,
                lo + jy,
                t,
                fill / 2.5,
            );
        }
    }
    // Texture: multiplicative speckle inside the silhouette.
    for v in img.iter_mut() {
        if *v > 0.05 {
            *v = (*v * rng.gen_range(0.8..1.2)).clamp(0.0, 1.0);
        }
    }
    add_pixel_noise(rng, &mut img, 0.03);
    img
}

fn add_pixel_noise<R: Rng + ?Sized>(rng: &mut R, img: &mut [f64], std: f64) {
    for v in img.iter_mut() {
        *v = (*v + sampling::normal(rng, 0.0, std)).clamp(0.0, 1.0);
    }
}

/// Renders a grid of images (one flattened image per matrix row) as ASCII
/// art (one character per pixel), used by the Figure 2 reproduction to dump
/// sample sheets into a text report.
pub fn ascii_art(images: &Matrix, size: usize, per_row: usize) -> String {
    const SHADES: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    let mut out = String::new();
    for chunk in images.rows_chunks(per_row.max(1)) {
        for y in 0..size {
            for img in chunk.chunks(images.cols().max(1)) {
                for x in 0..size {
                    let v = img
                        .get(y * size + x)
                        .copied()
                        .unwrap_or(0.0)
                        .clamp(0.0, 1.0);
                    let idx = (v * (SHADES.len() - 1) as f64).round() as usize;
                    out.push(SHADES[idx]);
                }
                out.push(' ');
            }
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(43)
    }

    #[test]
    fn mnist_like_shape_and_range() {
        let mut r = rng();
        let d = mnist_like(&mut r, 200, 12);
        assert_eq!(d.n_samples(), 200);
        assert_eq!(d.n_features(), 144);
        assert_eq!(d.n_classes, 10);
        assert!(d
            .features
            .as_slice()
            .iter()
            .all(|&v| (0.0..=1.0).contains(&v)));
        // Roughly balanced classes.
        let counts = d.class_counts();
        assert!(counts.iter().all(|&c| c == 20), "{counts:?}");
    }

    #[test]
    fn fashion_like_shape_and_range() {
        let mut r = rng();
        let d = fashion_mnist_like(&mut r, 100, 10);
        assert_eq!(d.n_features(), 100);
        assert_eq!(d.n_classes, 10);
        assert!(d
            .features
            .as_slice()
            .iter()
            .all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn images_are_not_blank_and_not_saturated() {
        let mut r = rng();
        let d = mnist_like(&mut r, 50, 14);
        for row in d.features.row_iter() {
            let mean: f64 = row.iter().sum::<f64>() / row.len() as f64;
            assert!(mean > 0.01, "image nearly blank: mean {mean}");
            assert!(mean < 0.9, "image nearly saturated: mean {mean}");
        }
    }

    #[test]
    fn classes_differ_in_mean_image() {
        let mut r = rng();
        let d = mnist_like(&mut r, 400, 12);
        // Mean image of class 1 (vertical bar) differs strongly from class 2
        // (horizontal bar).
        let mean_img = |label: usize| -> Vec<f64> {
            let sub = d.filter_by_label(label);
            p3gm_linalg::stats::column_means(&sub.features).unwrap()
        };
        let v = mean_img(1);
        let h = mean_img(2);
        let dist = p3gm_linalg::vector::distance(&v, &h);
        assert!(
            dist > 1.0,
            "vertical and horizontal bars too similar: {dist}"
        );
        // Same class across two draws is much closer than different classes.
        let v2 = mean_img(1);
        assert!(p3gm_linalg::vector::distance(&v, &v2) < 1e-12);
    }

    #[test]
    fn fashion_classes_differ_in_mass_distribution() {
        let mut r = rng();
        let d = fashion_mnist_like(&mut r, 400, 12);
        // Trousers (3) leave the image centre darker than the full square (0).
        let centre_mass = |label: usize| -> f64 {
            let sub = d.filter_by_label(label);
            let means = p3gm_linalg::stats::column_means(&sub.features).unwrap();
            let size = 12;
            let mut acc = 0.0;
            for y in 5..7 {
                for x in 5..7 {
                    acc += means[y * size + x];
                }
            }
            acc
        };
        assert!(centre_mass(0) > centre_mass(3) + 0.2);
    }

    #[test]
    fn ascii_art_has_expected_dimensions() {
        let mut r = rng();
        let d = mnist_like(&mut r, 10, 8);
        let imgs = d.features.select_rows(&[0, 1, 2, 3]).unwrap();
        let art = ascii_art(&imgs, 8, 2);
        let lines: Vec<&str> = art.lines().collect();
        // 2 rows of images * 8 pixel rows + blank separators.
        assert!(lines.len() >= 16);
        // Each rendered line is 2 images * (8 px + 1 space).
        assert!(lines[0].len() >= 17);
        assert!(art.chars().any(|c| c != ' ' && c != '\n'));
    }

    #[test]
    #[should_panic(expected = "at least 6x6")]
    fn tiny_images_rejected() {
        let mut r = rng();
        let _ = mnist_like(&mut r, 20, 4);
    }

    #[test]
    #[should_panic(expected = "at least one image per class")]
    fn too_few_images_rejected() {
        let mut r = rng();
        let _ = mnist_like(&mut r, 5, 10);
    }
}
