//! # p3gm-eval
//!
//! The experiment harness that regenerates every table and figure of the
//! P3GM paper's evaluation (§VI), at a scale that runs on a single CPU core.
//!
//! | Module     | Paper artefact | What it reports |
//! |------------|----------------|-----------------|
//! | [`table5`] | Table V        | AUROC/AUPRC of four classifiers trained on VAE / PGM / P3GM synthetic Credit data |
//! | [`table6`] | Table VI       | mean AUROC/AUPRC of PrivBayes / DP-GM / P3GM / original on four tabular datasets |
//! | [`table7`] | Table VII      | classification accuracy on MNIST-like / Fashion-like synthetic images |
//! | [`fig2`]   | Figure 2       | sample sheets (ASCII) + fidelity/diversity statistics for VAE / DP-VAE / DP-GM / P3GM |
//! | [`fig4`]   | Figure 4       | AUROC/AUPRC vs ε on the Credit-like data |
//! | [`fig5`]   | Figure 5       | accuracy vs number of PCA components (plus a MoG-component ablation) |
//! | [`fig6`]   | Figure 6       | ε vs σ_s under RDP composition vs the zCDP+MA baseline |
//! | [`fig7`]   | Figure 7       | reconstruction-loss and utility learning curves for DP-VAE / P3GM(AE) / P3GM |
//!
//! Every experiment takes a [`Scale`]: [`Scale::Smoke`] keeps the runs small
//! enough for `cargo test`, [`Scale::Paper`] is the configuration the
//! benchmark harness uses to regenerate the reported numbers. The dataset
//! sizes and network widths for both scales (and how they relate to the
//! paper's originals) are documented in [`scale`]; the `paper_tables` and
//! `paper_figures` benches of `p3gm-bench` write the regenerated reports
//! to `target/paper_reports/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod fig2;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod report;
pub mod scale;
pub mod table5;
pub mod table6;
pub mod table7;

pub use common::{GenerativeKind, TrainedGenerator};
pub use scale::Scale;
