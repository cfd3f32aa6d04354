//! The (ε, δ) stamps the repository produces, pinned to their IEEE-754
//! bits.
//!
//! Every stamp comes from the RDP accountant (paper Theorem 4, with
//! Eq. (4) for DP-SGD), and a served snapshot's header recomputes its
//! stamp from the stored configuration. A change to how the accountant
//! evaluates Eq. (4) must therefore keep every bit: these constants were
//! computed with Eq. (4) evaluated order by order, so a reordered
//! addition shows up here as a changed bit.

use p3gm::baselines::dpgm::{DpGm, DpGmConfig};
use p3gm::core::config::PgmConfig;
use p3gm::core::synthesis::LabelledSynthesizer;
use p3gm::core::vae::Vae;
use p3gm::eval::common::{pgm_config_for, vae_config_for, GenerativeKind};
use p3gm::eval::scale::Scale;
use p3gm::privacy::rdp::PrivacySpec;
use p3gm::privacy::zcdp::baseline_composition_epsilon;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Asserts a stamp's ε and optimal order bit for bit, and its δ.
fn assert_stamp(what: &str, spec: Option<PrivacySpec>, eps_bits: u64, order: f64) {
    let spec = spec.unwrap_or_else(|| panic!("{what}: a private configuration has a stamp"));
    assert_eq!(
        spec.epsilon.to_bits(),
        eps_bits,
        "{what}: epsilon {} (pinned {})",
        spec.epsilon,
        f64::from_bits(eps_bits)
    );
    assert_eq!(spec.optimal_order, order, "{what}: optimal order");
    assert_eq!(spec.delta, 1e-5, "{what}: delta");
}

/// The served adult-like model and the MNIST-like model at
/// `Scale::Paper`, configured as the serving benchmark trains them.
#[test]
fn served_model_stamps_keep_their_bits() {
    let adult = PgmConfig {
        latent_dim: 6,
        hidden_dim: 24,
        epochs: 2,
        batch_size: 64,
        ..PgmConfig::default()
    };
    assert_stamp(
        "adult n=400",
        adult.privacy_spec(400),
        0x4022_1508_c464_0959,
        3.0,
    );
    let paper = Scale::Paper;
    let mnist = PgmConfig {
        latent_dim: paper.latent_dim(),
        hidden_dim: paper.hidden_dim(),
        epochs: paper.epochs(),
        batch_size: paper.batch_size(),
        ..PgmConfig::default()
    };
    let n = paper.n_images();
    assert_eq!(n, 800);
    assert_stamp(
        "MNIST-like n=800",
        mnist.privacy_spec(n),
        0x401f_5f99_cf01_ed46,
        3.0,
    );
}

/// The paper's MNIST setting (q = 240/63,000, σ_s = 1.42, the default
/// DP-PCA and DP-EM charges) at the long runs where a low order wins.
#[test]
fn long_mnist_run_stamps_keep_their_bits() {
    for (epochs, eps_bits, order) in [
        (1_000, 0x4020_4e52_cba6_1d68, 4.0),
        (1_400, 0x4022_814e_7cda_2f56, 3.0),
        (3_000, 0x402a_4f9f_2454_5b46, 3.0),
    ] {
        let config = PgmConfig {
            batch_size: 240,
            epochs,
            ..PgmConfig::default()
        };
        let spec = config.privacy_spec(63_000);
        assert_stamp(&format!("{epochs} epochs"), spec, eps_bits, order);
    }
}

/// The evaluation harness's calibrations at `Scale::Smoke` bisect the
/// accountant for σ, so their noise multipliers pin it too.
#[test]
fn calibrated_smoke_stamps_keep_their_bits() {
    let p3gm = pgm_config_for(Scale::Smoke, GenerativeKind::P3gm, 1.0, 500, 30);
    assert_eq!(
        p3gm.sigma_s.to_bits(),
        0x400c_2855_70a3_d70a,
        "P3GM sigma_s"
    );
    assert_eq!(
        p3gm.sigma_e.to_bits(),
        0x4066_7d43_a999_9998,
        "P3GM sigma_e"
    );
    assert_stamp(
        "P3GM smoke",
        p3gm.privacy_spec(500),
        0x3fef_ffa7_016b_aef4,
        24.0,
    );

    let dp_vae = vae_config_for(Scale::Smoke, true, 1.0, 500, 30);
    assert_eq!(
        dp_vae.sigma_s.to_bits(),
        0x4008_f14d_eb85_1eb9,
        "DP-VAE sigma_s"
    );
    let vae = Vae::new(&mut StdRng::seed_from_u64(3), 30, dp_vae).expect("DP-VAE");
    assert_stamp(
        "DP-VAE smoke",
        vae.privacy_spec(500),
        0x3fef_ffa8_e4b3_6fdc,
        20.0,
    );
}

/// DP-GM configured as the evaluation harness configures it.
#[test]
fn dp_gm_stamp_keeps_its_bits() {
    let mut rng = StdRng::seed_from_u64(5);
    let data = p3gm::datasets::tabular::adult_like(&mut rng, 200);
    let (_, prepared) = LabelledSynthesizer::prepare(&data.features, &data.labels, data.n_classes)
        .expect("prepare");
    let mut vae = vae_config_for(Scale::Smoke, true, 0.75, 50, prepared.cols());
    vae.latent_dim = vae.latent_dim.min(4);
    vae.hidden_dim = vae.hidden_dim.min(32);
    let config = DpGmConfig {
        n_clusters: 4,
        kmeans_epsilon: 0.2,
        count_epsilon: 0.05,
        kmeans_iterations: 3,
        vae,
        delta: 1e-5,
    };
    let model = DpGm::fit(&mut rng, &prepared, config).expect("DP-GM");
    assert_stamp("DP-GM", model.privacy_spec(), 0x3fe4_cdc0_59b5_673c, 64.0);
}

/// Figure 6's baseline composition, which minimizes Eq. (4) over the
/// moment orders 1–64.
#[test]
fn baseline_composition_keeps_its_bits() {
    for (sigma, eps_bits) in [
        (1.0, 0x4024_543d_4b65_9bc0),
        (2.0, 0x4010_e8dd_5bed_3e6e),
        (4.0, 0x400d_2c89_fb26_0012),
        (8.0, 0x400b_2535_4538_68dc),
    ] {
        let eps = baseline_composition_epsilon(0.1, 20, 20.0, 3, 1000, 0.01, sigma, 1e-5)
            .expect("valid schedule");
        assert_eq!(eps.to_bits(), eps_bits, "sigma {sigma}: {eps}");
    }
}
