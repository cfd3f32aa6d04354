//! Property-based tests (proptest) on the core numerical invariants that
//! the P3GM pipeline relies on across crates.

use p3gm::classifiers::metrics::{auprc, auroc};
use p3gm::linalg::{stats, Cholesky, Matrix, SymmetricEigen};
use p3gm::mixture::Gmm;
use p3gm::nn::activation::Activation;
use p3gm::nn::loss::{bce_with_logits, kl_diag_gaussian_standard};
use p3gm::preprocess::pca::Pca;
use p3gm::preprocess::scaler::MinMaxScaler;
use p3gm::privacy::moments::{ma_dp_em, ma_dp_sgd, rdp_sampled_gaussian};
use p3gm::privacy::rdp::RdpAccountant;
use p3gm::privacy::zcdp::ZcdpAccountant;
use proptest::prelude::*;

/// Strategy: a small symmetric positive-definite matrix built as B·Bᵀ + c·I.
fn spd_matrix(dim: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-1.0..1.0f64, dim * dim).prop_map(move |values| {
        let b = Matrix::from_vec(dim, dim, values).unwrap();
        let mut a = b.matmul(&b.transpose()).unwrap();
        a.add_diagonal(0.5);
        a
    })
}

/// Strategy: a data matrix with values in a bounded range.
fn data_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0..10.0f64, rows * cols)
        .prop_map(move |values| Matrix::from_vec(rows, cols, values).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // ---------- linear algebra ----------

    #[test]
    fn eigen_reconstruction_and_trace(m in spd_matrix(4)) {
        let eig = SymmetricEigen::new(&m).unwrap();
        // Trace is preserved and all eigenvalues of an SPD matrix are positive.
        let trace: f64 = eig.eigenvalues.iter().sum();
        prop_assert!((trace - m.trace()).abs() < 1e-6 * m.trace().abs().max(1.0));
        prop_assert!(eig.eigenvalues.iter().all(|&l| l > 0.0));
        prop_assert!(eig.reconstruct().approx_eq(&m, 1e-6));
    }

    #[test]
    fn cholesky_solve_is_inverse(m in spd_matrix(4), b in proptest::collection::vec(-5.0..5.0f64, 4)) {
        let chol = Cholesky::new(&m).unwrap();
        let x = chol.solve(&b).unwrap();
        let back = m.matvec(&x).unwrap();
        for (got, want) in back.iter().zip(b.iter()) {
            prop_assert!((got - want).abs() < 1e-6);
        }
        // The quadratic form of any non-zero vector is positive.
        let q = chol.quadratic_form(&b).unwrap();
        prop_assert!(q >= -1e-12);
    }

    #[test]
    fn covariance_matrices_are_psd(data in data_matrix(12, 4)) {
        let cov = stats::covariance_matrix(&data, None).unwrap();
        let eig = SymmetricEigen::new(&cov).unwrap();
        prop_assert!(eig.eigenvalues.iter().all(|&l| l > -1e-9));
    }

    // ---------- preprocessing ----------

    #[test]
    fn pca_reconstruction_error_never_increases_with_components(data in data_matrix(16, 5)) {
        let e2 = Pca::fit(&data, 2).unwrap().reconstruction_error(&data).unwrap();
        let e4 = Pca::fit(&data, 4).unwrap().reconstruction_error(&data).unwrap();
        prop_assert!(e4 <= e2 + 1e-9);
    }

    #[test]
    fn minmax_scaler_bounds_and_roundtrip(data in data_matrix(10, 3)) {
        let scaler = MinMaxScaler::fit(&data).unwrap();
        let t = scaler.transform(&data).unwrap();
        prop_assert!(t.as_slice().iter().all(|&v| (-1e-12..=1.0 + 1e-12).contains(&v)));
        let back = scaler.inverse_transform(&t).unwrap();
        // Non-constant columns round-trip exactly.
        let (mins, maxs) = stats::column_min_max(&data).unwrap();
        for j in 0..data.cols() {
            if maxs[j] > mins[j] {
                for i in 0..data.rows() {
                    prop_assert!((back.get(i, j) - data.get(i, j)).abs() < 1e-9);
                }
            }
        }
    }

    // ---------- privacy accounting ----------

    #[test]
    fn moments_bounds_are_nonnegative_and_monotone_in_noise(
        sigma in 0.5..8.0f64,
        q in 1e-4..0.2f64,
        lambda in 1u32..16u32,
    ) {
        let a = ma_dp_sgd(lambda, q, sigma);
        let b = ma_dp_sgd(lambda, q, sigma * 2.0);
        prop_assert!(a >= 0.0);
        prop_assert!(b <= a + 1e-12);
        let em = ma_dp_em(f64::from(lambda), sigma, 3);
        prop_assert!(em >= 0.0);
    }

    #[test]
    fn rdp_epsilon_decreases_with_noise_and_increases_with_steps(
        sigma in 0.8..6.0f64,
        steps in 10usize..200usize,
    ) {
        let q = 0.02;
        let delta = 1e-5;
        let eps = RdpAccountant::p3gm_total(0.1, 5, 100.0, 3, steps, q, sigma, delta).unwrap().epsilon;
        let eps_more_noise = RdpAccountant::p3gm_total(0.1, 5, 100.0, 3, steps, q, sigma * 1.5, delta).unwrap().epsilon;
        let eps_more_steps = RdpAccountant::p3gm_total(0.1, 5, 100.0, 3, steps * 2, q, sigma, delta).unwrap().epsilon;
        prop_assert!(eps.is_finite() && eps > 0.0);
        prop_assert!(eps_more_noise <= eps + 1e-9);
        prop_assert!(eps_more_steps >= eps - 1e-9);
    }

    #[test]
    fn sampled_gaussian_rdp_is_sane(
        sigma in 1.0..6.0f64,
        q in 1e-3..0.1f64,
        alpha in 2u32..24u32,
    ) {
        // Both per-step bounds are non-negative; the sampled-Gaussian RDP is
        // monotone in the sampling rate and in the noise (the pointwise
        // comparison against paper Eq. (4) only holds in the composition
        // regime, which the unit tests in p3gm-privacy cover).
        let eq4 = ma_dp_sgd(alpha - 1, q, sigma) / f64::from(alpha - 1);
        let sg = rdp_sampled_gaussian(alpha, q, sigma);
        prop_assert!(eq4 >= 0.0);
        prop_assert!(sg >= 0.0);
        prop_assert!(rdp_sampled_gaussian(alpha, (q * 1.5).min(1.0), sigma) >= sg - 1e-15);
        prop_assert!(rdp_sampled_gaussian(alpha, q, sigma * 1.5) <= sg + 1e-15);
    }

    #[test]
    fn laplace_streams_are_always_finite(seed in 0u64..1_000_000u64, scale in 1e-3..100.0f64) {
        // Regression for the u = -0.5 boundary: the inverse-CDF sampler
        // used to return -inf on a boundary draw; every sample from any
        // seeded stream must now be finite.
        use p3gm::privacy::sampling::laplace;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..2_000 {
            let v = laplace(&mut rng, scale);
            prop_assert!(v.is_finite());
        }
    }

    #[test]
    fn dp_sgd_accounting_is_sound_at_fractional_low_orders(
        sigma in 0.8..4.0f64,
        q in 1e-3..0.5f64,
        steps in 1usize..500usize,
    ) {
        // Regression for the floor(α−1) bug: DP-SGD must carry a strictly
        // positive RDP cost at every tracked order, including α < 3.
        let mut acc = RdpAccountant::default();
        acc.add_dp_sgd(steps, q, sigma, p3gm::privacy::rdp::DpSgdBound::PaperEq4).unwrap();
        for (&order, &eps) in acc.orders().iter().zip(acc.rdp_epsilons().iter()) {
            prop_assert!(eps > 0.0, "order {} accounted free", order);
        }
    }

    #[test]
    fn zcdp_composition_is_additive(rho1 in 0.001..1.0f64, rho2 in 0.001..1.0f64) {
        let mut a = ZcdpAccountant::new();
        a.add_rho(rho1).unwrap();
        a.add_rho(rho2).unwrap();
        prop_assert!((a.rho() - (rho1 + rho2)).abs() < 1e-12);
        // Conversion is monotone in rho.
        let mut b = ZcdpAccountant::new();
        b.add_rho(rho1).unwrap();
        prop_assert!(a.to_dp(1e-5).unwrap() >= b.to_dp(1e-5).unwrap());
    }

    // ---------- neural-network losses ----------

    #[test]
    fn activations_match_finite_differences(x in -3.0..3.0f64) {
        let h = 1e-6;
        for act in [Activation::Identity, Activation::Relu] {
            // Skip the ReLU kink where the derivative is not defined.
            if act == Activation::Relu && x.abs() < 1e-4 {
                continue;
            }
            let numeric = (act.apply(x + h) - act.apply(x - h)) / (2.0 * h);
            prop_assert!((numeric - act.derivative(x)).abs() < 1e-4);
        }
    }

    #[test]
    fn bce_is_nonnegative_and_kl_is_nonnegative(
        logit in -10.0..10.0f64,
        target in 0.0..1.0f64,
        mu in -3.0..3.0f64,
        logvar in -3.0..3.0f64,
    ) {
        let (loss, _) = bce_with_logits(&[logit], &[target]);
        prop_assert!(loss >= -1e-12);
        let (kl, _, _) = kl_diag_gaussian_standard(&[mu], &[logvar]);
        prop_assert!(kl >= -1e-12);
    }

    // ---------- mixtures ----------

    #[test]
    fn gmm_responsibilities_are_a_distribution(
        x in -5.0..5.0f64,
        y in -5.0..5.0f64,
        w in 0.1..0.9f64,
    ) {
        let gmm = Gmm::isotropic(
            vec![w, 1.0 - w],
            p3gm::linalg::Matrix::from_rows(&[vec![-1.0, 0.0], vec![1.5, 0.5]]).unwrap(),
            0.7,
        ).unwrap();
        let r = gmm.responsibilities(&[x, y]);
        prop_assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(r.iter().all(|&v| (0.0..=1.0).contains(&v)));
        // The Hershey–Olsen KL to the mixture is non-negative within numerical slack.
        let (kl, _, _) = gmm.kl_diag_to_mixture(&[x, y], &[0.0, 0.0]);
        prop_assert!(kl > -1e-6);
    }

    // ---------- metrics ----------

    #[test]
    fn auroc_is_invariant_to_monotone_transforms(
        scores in proptest::collection::vec(0.0..1.0f64, 12),
        flips in proptest::collection::vec(any::<bool>(), 12),
    ) {
        let labels: Vec<usize> = flips.iter().map(|&b| usize::from(b)).collect();
        let a = auroc(&scores, &labels);
        let transformed: Vec<f64> = scores.iter().map(|s| s * 7.0 + 2.0).collect();
        let b = auroc(&transformed, &labels);
        prop_assert!((a - b).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&a));
        let ap = auprc(&scores, &labels);
        prop_assert!((0.0..=1.0).contains(&ap));
    }
}
