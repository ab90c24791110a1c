use maopt_linalg::Cholesky;

/// Gaussian-process regression with an isotropic RBF kernel.
///
/// The length-scale is chosen by a small grid search on the log marginal
/// likelihood; outputs are standardized internally. Fitting from scratch
/// is `O(N³)` (one Cholesky per grid point) — the cost profile the paper
/// attributes to BO. A GP kept across BO iterations instead grows by
/// [`GaussianProcess::push`]: the kernel matrix does not depend on the
/// targets, so each grid point's factor gains one row per new design, and
/// only the target-dependent part is recomputed, making an iteration
/// `O(N²)` with results bit for bit those of a refit.
///
/// # Example
///
/// ```
/// use maopt_bo::GaussianProcess;
///
/// let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 20.0]).collect();
/// let ys: Vec<f64> = xs.iter().map(|x| (6.0 * x[0]).sin()).collect();
/// let mut gp = GaussianProcess::fit(xs, ys);
/// let (mean, var) = gp.predict(&[0.52]);
/// assert!((mean - (6.0f64 * 0.52).sin()).abs() < 0.1);
/// assert!(var >= 0.0);
///
/// gp.push(vec![0.52], (6.0f64 * 0.52).sin());
/// assert_eq!(gp.len(), 21);
/// ```
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    x_train: Vec<Vec<f64>>,
    y_train: Vec<f64>,
    /// `(length-scale, factor of K + NOISE·I)` for every grid length-scale
    /// whose kernel matrix has factored so far, in grid order.
    factors: Vec<(f64, Cholesky)>,
    /// Index into `factors` of the length-scale with the best marginal
    /// likelihood.
    selected: usize,
    alpha: Vec<f64>,
    y_mean: f64,
    y_std: f64,
}

/// Relative noise added to the kernel diagonal for numerical stability.
const NOISE: f64 = 1e-6;

/// Length-scales searched by log marginal likelihood.
const LENGTHSCALES: [f64; 4] = [0.1, 0.2, 0.4, 0.8];

fn rbf(a: &[f64], b: &[f64], lengthscale: f64) -> f64 {
    let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    (-0.5 * d2 / (lengthscale * lengthscale)).exp()
}

impl GaussianProcess {
    /// Fits the GP to standardized targets, selecting the RBF length-scale
    /// from a small grid by log marginal likelihood.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or lengths disagree.
    pub fn fit(xs: Vec<Vec<f64>>, ys: Vec<f64>) -> Self {
        assert!(!xs.is_empty(), "GP needs at least one training point");
        assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
        let mut gp = GaussianProcess {
            x_train: Vec::with_capacity(xs.len()),
            y_train: Vec::with_capacity(ys.len()),
            factors: LENGTHSCALES
                .iter()
                .map(|&ls| (ls, Cholesky::default()))
                .collect(),
            selected: 0,
            alpha: Vec::new(),
            y_mean: 0.0,
            y_std: 1.0,
        };
        for (x, y) in xs.into_iter().zip(ys) {
            gp.append(x, y);
        }
        gp.select();
        gp
    }

    /// Adds one training point and refits, in `O(N²)`: the result equals
    /// [`GaussianProcess::fit`] on all points so far, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if no grid length-scale's kernel matrix factors any more.
    pub fn push(&mut self, x: Vec<f64>, y: f64) {
        self.append(x, y);
        self.select();
    }

    /// Appends `x`'s kernel row to every surviving factor. A factor that
    /// fails stays dropped: a refit would fail at the same row.
    fn append(&mut self, x: Vec<f64>, y: f64) {
        let mut row = Vec::with_capacity(self.x_train.len() + 1);
        self.factors.retain_mut(|(ls, chol)| {
            row.clear();
            row.extend(self.x_train.iter().map(|xt| rbf(&x, xt, *ls)));
            row.push(rbf(&x, &x, *ls) + NOISE);
            chol.push_row(&row).is_ok()
        });
        self.x_train.push(x);
        self.y_train.push(y);
    }

    /// Standardizes the targets and selects the length-scale whose factor
    /// gives the highest log marginal likelihood (the first on a tie).
    fn select(&mut self) {
        let ys = &self.y_train;
        let y_mean = maopt_linalg::stats::mean(ys);
        let mut y_std = maopt_linalg::stats::std_dev(ys);
        if !y_std.is_finite() || y_std < 1e-12 {
            y_std = 1.0;
        }
        let y_norm: Vec<f64> = ys.iter().map(|y| (y - y_mean) / y_std).collect();

        let n = ys.len() as f64;
        let mut best: Option<(f64, usize, Vec<f64>)> = None;
        for (k, (_, chol)) in self.factors.iter().enumerate() {
            let alpha = chol.solve(&y_norm).expect("factor spans the training set");
            // log p(y|X) = −½ yᵀα − ½ log|K| − (n/2) log 2π
            let fit_term: f64 = y_norm.iter().zip(&alpha).map(|(y, a)| y * a).sum();
            let lml = -0.5 * fit_term
                - 0.5 * chol.log_det()
                - 0.5 * n * (2.0 * std::f64::consts::PI).ln();
            match &best {
                Some((blml, ..)) if *blml >= lml => {}
                _ => best = Some((lml, k, alpha)),
            }
        }
        let (_, selected, alpha) =
            best.expect("at least one length-scale must factor (kernel is PD)");
        self.selected = selected;
        self.alpha = alpha;
        self.y_mean = y_mean;
        self.y_std = y_std;
    }

    /// Number of training points.
    pub fn len(&self) -> usize {
        self.x_train.len()
    }

    /// `true` when the GP has no training data (cannot occur after `fit`).
    pub fn is_empty(&self) -> bool {
        self.x_train.is_empty()
    }

    /// The selected RBF length-scale.
    pub fn lengthscale(&self) -> f64 {
        self.factors[self.selected].0
    }

    /// Posterior mean and variance at a query point (in original units).
    ///
    /// This is [`GaussianProcess::predict_many`] for one point.
    pub fn predict(&self, x: &[f64]) -> (f64, f64) {
        self.predict_many(x)[0]
    }

    /// Posterior mean and variance (in original units) at each query point
    /// of `xs`, the points' coordinates back to back.
    ///
    /// Points are scored [`Cholesky::BLOCK`] at a time through one blocked
    /// triangular solve; each result equals [`GaussianProcess::predict`] of
    /// that point bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len()` is not a multiple of the training designs'
    /// dimension.
    pub fn predict_many(&self, xs: &[f64]) -> Vec<(f64, f64)> {
        let d = self.x_train[0].len();
        assert!(
            d > 0 && xs.len().is_multiple_of(d),
            "query of {} values is not a set of {d}-dimensional points",
            xs.len()
        );
        let (ls, chol) = &self.factors[self.selected];
        let n = self.len();
        let mut out = Vec::with_capacity(xs.len() / d);
        let mut k_star = Vec::with_capacity(n * Cholesky::BLOCK.min(xs.len() / d));
        let mut v = Vec::with_capacity(k_star.capacity());
        for block in xs.chunks(Cholesky::BLOCK * d) {
            let w = block.len() / d;
            // k* is the n × w matrix with one column per query point.
            k_star.clear();
            for xt in &self.x_train {
                k_star.extend(block.chunks_exact(d).map(|x| rbf(x, xt, *ls)));
            }
            v.clone_from(&k_star);
            chol.solve_many(&mut v, w)
                .expect("k* has one row per training point");
            out.extend((0..w).map(|c| {
                let mean_norm: f64 = (0..n).map(|i| k_star[i * w + c] * self.alpha[i]).sum();
                let var_norm: f64 = 1.0 + NOISE
                    - (0..n)
                        .map(|i| k_star[i * w + c] * v[i * w + c])
                        .sum::<f64>();
                (
                    mean_norm * self.y_std + self.y_mean,
                    (var_norm.max(0.0)) * self.y_std * self.y_std,
                )
            }));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_1d(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect()
    }

    #[test]
    fn interpolates_training_points() {
        let xs = grid_1d(10);
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x[0] + 1.0).collect();
        let gp = GaussianProcess::fit(xs.clone(), ys.clone());
        for (x, y) in xs.iter().zip(&ys) {
            let (mean, var) = gp.predict(x);
            assert!((mean - y).abs() < 1e-2, "at {x:?}: {mean} vs {y}");
            assert!(var < 1e-2, "training-point variance should be tiny: {var}");
        }
    }

    #[test]
    fn variance_grows_away_from_data() {
        let xs = grid_1d(8);
        let ys: Vec<f64> = xs.iter().map(|x| x[0]).collect();
        let gp = GaussianProcess::fit(xs, ys);
        let (_, v_near) = gp.predict(&[0.5]);
        let (_, v_far) = gp.predict(&[3.0]);
        assert!(v_far > v_near * 10.0, "far {v_far} vs near {v_near}");
    }

    #[test]
    fn fits_smooth_nonlinearity() {
        let xs = grid_1d(25);
        let ys: Vec<f64> = xs.iter().map(|x| (4.0 * x[0]).cos()).collect();
        let gp = GaussianProcess::fit(xs, ys);
        let (mean, _) = gp.predict(&[0.33]);
        assert!((mean - (4.0f64 * 0.33).cos()).abs() < 0.05);
    }

    #[test]
    fn constant_targets_do_not_blow_up() {
        let xs = grid_1d(5);
        let ys = vec![2.5; 5];
        let gp = GaussianProcess::fit(xs, ys);
        let (mean, var) = gp.predict(&[0.5]);
        assert!((mean - 2.5).abs() < 1e-6);
        assert!(var.is_finite());
    }

    #[test]
    fn lengthscale_selected_from_grid() {
        let xs = grid_1d(20);
        // Rapidly varying target prefers a short length-scale.
        let wiggly: Vec<f64> = xs.iter().map(|x| (40.0 * x[0]).sin()).collect();
        let gp_w = GaussianProcess::fit(xs.clone(), wiggly);
        // Slowly varying target prefers a long one.
        let smooth: Vec<f64> = xs.iter().map(|x| x[0]).collect();
        let gp_s = GaussianProcess::fit(xs, smooth);
        assert!(gp_w.lengthscale() <= gp_s.lengthscale());
    }

    /// `n` pseudo-random points in `[0, 1)^d` and a smooth target.
    fn cloud(n: usize, d: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut s = seed;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 100_000) as f64 / 100_000.0
        };
        let xs: Vec<Vec<f64>> = (0..n).map(|_| (0..d).map(|_| next()).collect()).collect();
        let ys = xs
            .iter()
            .map(|x| (5.0 * x[0]).sin() + x.iter().sum::<f64>())
            .collect();
        (xs, ys)
    }

    fn bits(p: (f64, f64)) -> (u64, u64) {
        (p.0.to_bits(), p.1.to_bits())
    }

    /// The refit a BO iteration used to do: every grid length-scale's kernel
    /// matrix factored whole by `Cholesky::new`, best log marginal
    /// likelihood first on a tie, and one scalar solve per query point.
    fn reference_predict(
        xs: &[Vec<f64>],
        ys: &[f64],
        grid: &[f64],
        queries: &[Vec<f64>],
    ) -> (f64, Vec<(f64, f64)>) {
        let y_mean = maopt_linalg::stats::mean(ys);
        let mut y_std = maopt_linalg::stats::std_dev(ys);
        if !y_std.is_finite() || y_std < 1e-12 {
            y_std = 1.0;
        }
        let y_norm: Vec<f64> = ys.iter().map(|y| (y - y_mean) / y_std).collect();
        let n = xs.len();
        let mut best: Option<(f64, f64, Cholesky, Vec<f64>)> = None;
        for &ls in grid {
            let k = maopt_linalg::Mat::from_fn(n, n, |i, j| {
                let (a, b) = if j <= i { (i, j) } else { (j, i) };
                rbf(&xs[a], &xs[b], ls) + if i == j { NOISE } else { 0.0 }
            });
            let chol = Cholesky::new(&k).unwrap();
            let alpha = chol.solve(&y_norm).unwrap();
            let fit_term: f64 = y_norm.iter().zip(&alpha).map(|(y, a)| y * a).sum();
            let lml = -0.5 * fit_term
                - 0.5 * chol.log_det()
                - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();
            match &best {
                Some((blml, ..)) if *blml >= lml => {}
                _ => best = Some((lml, ls, chol, alpha)),
            }
        }
        let (_, ls, chol, alpha) = best.unwrap();
        let preds = queries
            .iter()
            .map(|x| {
                let k_star: Vec<f64> = xs.iter().map(|xt| rbf(x, xt, ls)).collect();
                let mean_norm: f64 = k_star.iter().zip(&alpha).map(|(k, a)| k * a).sum();
                let v = chol.solve(&k_star).unwrap();
                let var_norm: f64 =
                    1.0 + NOISE - k_star.iter().zip(&v).map(|(k, vi)| k * vi).sum::<f64>();
                (
                    mean_norm * y_std + y_mean,
                    (var_norm.max(0.0)) * y_std * y_std,
                )
            })
            .collect();
        (ls, preds)
    }

    #[test]
    fn predict_many_equals_predict_bitwise() {
        let (xs, ys) = cloud(70, 3, 11);
        let gp = GaussianProcess::fit(xs, ys);
        let (queries, _) = cloud(2 * Cholesky::BLOCK + 5, 3, 12);
        let flat: Vec<f64> = queries.concat();
        let many = gp.predict_many(&flat);
        assert_eq!(many.len(), queries.len());
        for (q, &p) in queries.iter().zip(&many) {
            assert_eq!(bits(p), bits(gp.predict(q)), "at {q:?}");
        }
    }

    #[test]
    fn fit_matches_whole_matrix_refit_bitwise() {
        let (xs, ys) = cloud(45, 2, 21);
        let (queries, _) = cloud(Cholesky::BLOCK + 3, 2, 22);
        let gp = GaussianProcess::fit(xs.clone(), ys.clone());
        let (ls, want) = reference_predict(&xs, &ys, &LENGTHSCALES, &queries);
        assert_eq!(gp.lengthscale(), ls);
        let got = gp.predict_many(&queries.concat());
        for (g, w) in got.into_iter().zip(want) {
            assert_eq!(bits(g), bits(w));
        }
    }

    #[test]
    fn grown_gp_equals_fit_bitwise() {
        let (xs, ys) = cloud(60, 4, 31);
        let (queries, _) = cloud(9, 4, 32);
        let mut grown = GaussianProcess::fit(xs[..20].to_vec(), ys[..20].to_vec());
        for (x, &y) in xs[20..].iter().zip(&ys[20..]) {
            grown.push(x.clone(), y);
            let n = grown.len();
            let refit = GaussianProcess::fit(xs[..n].to_vec(), ys[..n].to_vec());
            assert_eq!(grown.lengthscale(), refit.lengthscale(), "at n = {n}");
            for q in &queries {
                assert_eq!(bits(grown.predict(q)), bits(refit.predict(q)), "n = {n}");
            }
        }
    }

    /// A length-scale whose factor has failed stays out of the selection
    /// as the GP grows, exactly as a refit over the remaining grid selects.
    /// `K + NOISE·I` has every eigenvalue ≥ NOISE, far above Cholesky's
    /// rounding error, so no finite design set makes one grid point fail
    /// alone; the test drops the 0.8 factor by hand at 30 points.
    #[test]
    fn dropped_lengthscale_stays_dropped_bitwise() {
        // Smooth target: 0.8 wins the selection while it is present.
        let (xs, _) = cloud(50, 1, 41);
        let ys: Vec<f64> = xs.iter().map(|x| 0.3 * x[0]).collect();
        let (queries, _) = cloud(5, 1, 42);
        let mut gp = GaussianProcess::fit(xs[..30].to_vec(), ys[..30].to_vec());
        assert_eq!(gp.lengthscale(), 0.8);
        gp.factors.retain(|(ls, _)| *ls != 0.8);
        for (x, &y) in xs[30..].iter().zip(&ys[30..]) {
            gp.push(x.clone(), y);
        }
        let (ls, want) = reference_predict(&xs, &ys, &LENGTHSCALES[..3], &queries);
        assert_ne!(ls, 0.8);
        assert_eq!(gp.lengthscale(), ls);
        for (q, w) in queries.iter().zip(want) {
            assert_eq!(bits(gp.predict(q)), bits(w));
        }
    }

    #[test]
    #[should_panic(expected = "at least one length-scale must factor")]
    fn non_finite_design_drops_every_lengthscale() {
        let mut gp = GaussianProcess::fit(grid_1d(5), vec![1.0, 2.0, 3.0, 2.0, 1.0]);
        gp.push(vec![f64::NAN], 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one training point")]
    fn empty_fit_panics() {
        let _ = GaussianProcess::fit(vec![], vec![]);
    }
}
