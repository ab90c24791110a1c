//! Property-based tests for the linear-algebra foundation.

use maopt_linalg::{CLu, CMat, Cholesky, Complex, LinalgError, Lu, Mat};
use proptest::prelude::*;

/// Strategy: an n×n matrix with entries in [-1, 1] and a boosted diagonal so
/// the system is well conditioned.
fn well_conditioned(n: usize) -> impl Strategy<Value = Mat> {
    prop::collection::vec(-1.0f64..1.0, n * n).prop_map(move |data| {
        let mut m = Mat::from_vec(n, n, data);
        for i in 0..n {
            m[(i, i)] += n as f64 + 2.0;
        }
        m
    })
}

fn rhs(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-10.0f64..10.0, n)
}

/// Strategy: an arbitrary rows×cols matrix with a sprinkling of exact
/// zeros so the kernels' zero-skip fast paths are exercised.
fn any_mat(rows: usize, cols: usize) -> impl Strategy<Value = Mat> {
    prop::collection::vec(-10.0f64..10.0, rows * cols).prop_map(move |mut data| {
        for (i, v) in data.iter_mut().enumerate() {
            if i % 4 == 0 {
                *v = 0.0;
            }
        }
        Mat::from_vec(rows, cols, data)
    })
}

/// Reference matmul: the seed implementation's exact loop, kept here so
/// the kernel path is compared against the original reduction order.
fn reference_matmul(a: &Mat, b: &Mat) -> Mat {
    let mut out = Mat::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let aik = a[(i, k)];
            if aik == 0.0 {
                continue;
            }
            for j in 0..b.cols() {
                out[(i, j)] += aik * b[(k, j)];
            }
        }
    }
    out
}

/// Reference matvec: per-row `Iterator::sum` as in the seed code.
fn reference_matvec(a: &Mat, x: &[f64]) -> Vec<f64> {
    (0..a.rows())
        .map(|i| a.row(i).iter().zip(x).map(|(p, q)| p * q).sum())
        .collect()
}

/// Reference Cholesky: the seed implementation's whole-matrix loop.
fn reference_cholesky(a: &Mat) -> Result<Mat, usize> {
    let n = a.rows();
    let mut l = Mat::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return Err(i);
                }
                l[(i, j)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    Ok(l)
}

/// Reference solve: the seed implementation's scalar forward and backward
/// substitution on a dense factor.
fn reference_solve(l: &Mat, b: &[f64]) -> Vec<f64> {
    let n = l.rows();
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for j in 0..i {
            sum -= l[(i, j)] * y[j];
        }
        y[i] = sum / l[(i, i)];
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = y[i];
        for j in (i + 1)..n {
            sum -= l[(j, i)] * x[j];
        }
        x[i] = sum / l[(i, i)];
    }
    x
}

/// Strategy: an SPD matrix `BᵀB + I` of random size `1..=max_n`.
fn spd(max_n: usize) -> impl Strategy<Value = Mat> {
    (
        1..max_n + 1,
        prop::collection::vec(-1.0f64..1.0, max_n * max_n),
    )
        .prop_map(|(n, data)| {
            let b = Mat::from_vec(n, n, data[..n * n].to_vec());
            let mut a = b.transpose().matmul(&b);
            for i in 0..n {
                a[(i, i)] += 1.0;
            }
            a
        })
}

/// Reference transposed matvec: the seed implementation's exact loop.
fn reference_matvec_transposed(a: &Mat, x: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; a.cols()];
    for (i, &xi) in x.iter().enumerate() {
        if xi == 0.0 {
            continue;
        }
        for (o, &v) in out.iter_mut().zip(a.row(i)) {
            *o += v * xi;
        }
    }
    out
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Strategy: an `m×k` / `k×n` matmul pair plus an `m`-vector, with the
/// dimensions ranging over sizes that straddle the tiled kernels' 4-row /
/// 8-column block boundaries (exact multiples, ragged remainders and the
/// degenerate 1-sized edges). Entry pools are drawn at the maximum size
/// and truncated to the drawn dimensions, with every fourth entry forced
/// to an exact zero to exercise the zero-skip fast paths.
fn ragged_case() -> impl Strategy<Value = (Mat, Mat, Vec<f64>)> {
    const MAX_M: usize = 9;
    const MAX_K: usize = 10;
    const MAX_N: usize = 19;
    let entries = |len: usize| prop::collection::vec(-10.0f64..10.0, len);
    (
        1usize..MAX_M + 1,
        1usize..MAX_K + 1,
        1usize..MAX_N + 1,
        entries(MAX_M * MAX_K),
        entries(MAX_K * MAX_N),
        prop::collection::vec(-3.0f64..3.0, MAX_M),
    )
        .prop_map(|(m, k, n, da, db, xt)| {
            let sprinkle = |mut data: Vec<f64>| {
                for (i, v) in data.iter_mut().enumerate() {
                    if i % 4 == 0 {
                        *v = 0.0;
                    }
                }
                data
            };
            (
                Mat::from_vec(m, k, sprinkle(da[..m * k].to_vec())),
                Mat::from_vec(k, n, sprinkle(db[..k * n].to_vec())),
                xt[..m].to_vec(),
            )
        })
}

proptest! {
    #[test]
    fn lu_solution_satisfies_system(a in well_conditioned(6), b in rhs(6)) {
        let lu = Lu::new(a.clone()).expect("well-conditioned matrix must factor");
        let x = lu.solve(&b).unwrap();
        let ax = a.matvec(&x);
        for (axi, bi) in ax.iter().zip(&b) {
            prop_assert!((axi - bi).abs() < 1e-8, "residual too large: {axi} vs {bi}");
        }
    }

    #[test]
    fn lu_inverse_roundtrip(a in well_conditioned(5)) {
        let inv = Lu::new(a.clone()).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv);
        let err = (&prod - &Mat::identity(5)).max_abs();
        prop_assert!(err < 1e-8, "A·A⁻¹ deviates from I by {err}");
    }

    #[test]
    fn det_of_product_is_product_of_dets(
        a in well_conditioned(4),
        b in well_conditioned(4),
    ) {
        let dab = Lu::new(a.matmul(&b)).unwrap().det();
        let da = Lu::new(a).unwrap().det();
        let db = Lu::new(b).unwrap().det();
        let rel = (dab - da * db).abs() / (da * db).abs().max(1.0);
        prop_assert!(rel < 1e-8, "det(AB) != det(A)det(B): {dab} vs {}", da * db);
    }

    #[test]
    fn cholesky_agrees_with_lu_on_spd(base in well_conditioned(5), b in rhs(5)) {
        // BᵀB + I is SPD.
        let mut a = base.transpose().matmul(&base);
        for i in 0..5 {
            a[(i, i)] += 1.0;
        }
        let x_ch = Cholesky::new(&a).unwrap().solve(&b).unwrap();
        let x_lu = Lu::new(a).unwrap().solve(&b).unwrap();
        for (c, l) in x_ch.iter().zip(&x_lu) {
            prop_assert!((c - l).abs() < 1e-7);
        }
    }

    #[test]
    fn transpose_is_involution(data in prop::collection::vec(-5.0f64..5.0, 12)) {
        let m = Mat::from_vec(3, 4, data);
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_is_associative(
        a in well_conditioned(3),
        b in well_conditioned(3),
        c in well_conditioned(3),
    ) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!((&left - &right).max_abs() < 1e-9);
    }

    #[test]
    fn complex_lu_solves_shifted_systems(
        a in well_conditioned(4),
        b in rhs(4),
        omega in 0.1f64..10.0,
    ) {
        // Factor A + jω·I, a shape that mirrors G + jωC in AC analysis.
        let n = 4;
        let mut cm = CMat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                cm[(i, j)] = Complex::new(a[(i, j)], if i == j { omega } else { 0.0 });
            }
        }
        let bc: Vec<Complex> = b.iter().map(|&v| Complex::from_real(v)).collect();
        let x = CLu::new(cm.clone()).unwrap().solve(&bc).unwrap();
        let ax = cm.matvec(&x);
        for (axi, bi) in ax.iter().zip(&bc) {
            prop_assert!((*axi - *bi).abs() < 1e-8);
        }
    }

    /// The `_into` kernels (and the `Mat` methods now delegating to
    /// them) must be bitwise identical to the seed implementations —
    /// the determinism contract of the workspace-reuse layer.
    #[test]
    fn kernels_bitwise_match_seed_implementations(
        a in any_mat(5, 7),
        b in any_mat(7, 4),
        x in prop::collection::vec(-3.0f64..3.0, 7),
        xt in prop::collection::vec(-3.0f64..3.0, 5),
    ) {
        prop_assert_eq!(
            bits(a.matmul(&b).as_slice()),
            bits(reference_matmul(&a, &b).as_slice())
        );
        prop_assert_eq!(bits(&a.matvec(&x)), bits(&reference_matvec(&a, &x)));
        prop_assert_eq!(
            bits(&a.matvec_transposed(&xt)),
            bits(&reference_matvec_transposed(&a, &xt))
        );

        // Dirty, reused buffers must not leak into results.
        let mut out = Mat::from_rows(&[&[9.9; 3]]);
        maopt_linalg::kernels::matmul_into(&a, &b, &mut out);
        prop_assert_eq!(bits(out.as_slice()), bits(reference_matmul(&a, &b).as_slice()));
        let mut v = vec![4.2; 11];
        maopt_linalg::kernels::matvec_into(&a, &x, &mut v);
        prop_assert_eq!(bits(&v), bits(&reference_matvec(&a, &x)));
        let mut vt = vec![-1.0; 2];
        maopt_linalg::kernels::matvec_transposed_into(&a, &xt, &mut vt);
        prop_assert_eq!(bits(&vt), bits(&reference_matvec_transposed(&a, &xt)));
    }

    /// The register-tiled kernels must stay bitwise identical to the
    /// seed loops on ragged shapes — dimensions straddling the 4-row /
    /// 8-column tile boundaries, including exact multiples and the
    /// degenerate 1-sized edges where partial tiles do all the work.
    #[test]
    fn tiled_kernels_bitwise_match_seed_on_ragged_shapes(case in ragged_case()) {
        let (a, b, xt) = case;
        let mut out = Mat::zeros(0, 0);
        maopt_linalg::kernels::matmul_into(&a, &b, &mut out);
        prop_assert_eq!(
            bits(out.as_slice()),
            bits(reference_matmul(&a, &b).as_slice())
        );
        let mut vt = Vec::new();
        maopt_linalg::kernels::matvec_transposed_into(&a, &xt, &mut vt);
        prop_assert_eq!(bits(&vt), bits(&reference_matvec_transposed(&a, &xt)));
    }

    /// `dot` must fold exactly like `Iterator::sum` despite unrolling.
    #[test]
    fn dot_matches_iterator_sum(
        pairs in prop::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 0..40),
    ) {
        let a: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let b: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let reference: f64 = a.iter().zip(&b).map(|(p, q)| p * q).sum();
        prop_assert_eq!(
            maopt_linalg::kernels::dot(&a, &b).to_bits(),
            reference.to_bits()
        );
    }

    /// `resize_reset`/`copy_from` leave the matrix in the same state as
    /// a fresh construction.
    #[test]
    fn buffer_reuse_matches_fresh_construction(a in any_mat(4, 6), b in any_mat(2, 3)) {
        let mut m = a.clone();
        m.resize_reset(3, 5);
        prop_assert_eq!(&m, &Mat::zeros(3, 5));
        m.copy_from(&b);
        prop_assert_eq!(&m, &b);
    }

    #[test]
    fn complex_field_axioms(re1 in -5.0f64..5.0, im1 in -5.0f64..5.0,
                            re2 in -5.0f64..5.0, im2 in -5.0f64..5.0) {
        let a = Complex::new(re1, im1);
        let b = Complex::new(re2, im2);
        // Commutativity
        prop_assert!((a * b - b * a).abs() < 1e-12);
        prop_assert!((a + b - (b + a)).abs() < 1e-12);
        // |ab| = |a||b|
        prop_assert!(((a * b).abs() - a.abs() * b.abs()).abs() < 1e-9);
        // Conjugate distributes over multiplication
        prop_assert!(((a * b).conj() - a.conj() * b.conj()).abs() < 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn push_row_factor_equals_whole_matrix_factor_bitwise(a in spd(24)) {
        let n = a.rows();
        let mut grown = Cholesky::default();
        for i in 0..n {
            grown.push_row(&a.row(i)[..=i]).unwrap();
        }
        let whole = Cholesky::new(&a).unwrap();
        let seed = reference_cholesky(&a).unwrap();
        prop_assert_eq!(bits(grown.factor().as_slice()), bits(seed.as_slice()));
        prop_assert_eq!(bits(whole.factor().as_slice()), bits(seed.as_slice()));
        prop_assert_eq!(grown.log_det().to_bits(), whole.log_det().to_bits());
    }

    #[test]
    fn push_row_fails_where_the_whole_matrix_fails(
        n in 2usize..16,
        data in prop::collection::vec(-1.0f64..1.0, 16 * 16),
        shift in -3.0f64..0.5,
    ) {
        // Symmetric with a weak diagonal: usually indefinite.
        let mut a = Mat::from_fn(n, n, |i, j| data[i.min(j) * 16 + i.max(j)]);
        for i in 0..n {
            a[(i, i)] += shift;
        }
        let want = reference_cholesky(&a).err();
        let got = match Cholesky::new(&a) {
            Ok(_) => None,
            Err(LinalgError::NotPositiveDefinite { index }) => Some(index),
            Err(e) => panic!("unexpected error {e}"),
        };
        prop_assert_eq!(got, want);
        let mut grown = Cholesky::default();
        let mut failed = None;
        for i in 0..n {
            if let Err(e) = grown.push_row(&a.row(i)[..=i]) {
                prop_assert!(matches!(e, LinalgError::NotPositiveDefinite { index } if index == i));
                failed = Some(i);
                break;
            }
        }
        prop_assert_eq!(failed, want);
        // A failed row leaves the factor as it was.
        prop_assert_eq!(grown.dim(), want.unwrap_or(n));
    }

    #[test]
    fn block_solve_equals_solve_per_column_bitwise(
        a in spd(20),
        width_pick in 0usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let b = Cholesky::BLOCK;
        let width = [1, b - 1, b, b + 1, 2 * b + 3][width_pick];
        let n = a.rows();
        let ch = Cholesky::new(&a).unwrap();
        let l = ch.factor();
        let mut s = seed | 1;
        let mut rhs: Vec<f64> = (0..n * width)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 20_001) as f64 / 1000.0 - 10.0
            })
            .collect();
        let columns: Vec<Vec<f64>> = (0..width)
            .map(|c| (0..n).map(|i| rhs[i * width + c]).collect())
            .collect();
        ch.solve_many(&mut rhs, width).unwrap();
        for (c, col) in columns.iter().enumerate() {
            let got: Vec<f64> = (0..n).map(|i| rhs[i * width + c]).collect();
            let single = ch.solve(col).unwrap();
            prop_assert_eq!(bits(&got), bits(&single), "column {} of {}", c, width);
            prop_assert_eq!(bits(&single), bits(&reference_solve(&l, col)));
        }
    }
}
