//! Image-synthesis scenario (the paper's Figure 2): train VAE, DP-VAE,
//! DP-GM and P3GM on MNIST-like images and print ASCII sample sheets plus
//! fidelity/diversity statistics.
//!
//! Run with:
//! ```text
//! cargo run --release --example mnist_synthesis
//! ```

use p3gm::eval::common::GenerativeKind;
use p3gm::eval::fig2;
use p3gm::eval::Scale;

fn main() {
    // Smoke scale keeps the example under a minute; use Scale::Paper for the
    // configuration the `paper_figures` bench reports in
    // target/paper_reports/.
    let report = fig2::run_models(
        Scale::Smoke,
        &[
            GenerativeKind::Vae,
            GenerativeKind::DpVae,
            GenerativeKind::DpGm,
            GenerativeKind::P3gm,
        ],
    );
    println!("{}", report.to_text());
    println!(
        "Reading the numbers: lower fidelity = samples closer to real digits;\n\
         higher diversity = less mode collapse. The paper's claim is that P3GM\n\
         achieves both at (1, 1e-5)-DP, unlike DP-VAE (noisy) and DP-GM (collapsed)."
    );
}
