//! Property-based tests for the linear-algebra kernels.
//!
//! These verify the mathematical invariants that every downstream physics
//! result rests on: eigendecompositions reconstruct their input, orthogonal
//! factors are orthogonal, and products keep their summation order.

use proptest::prelude::*;
use tbmd_linalg::{eig_residual, eigh, orthogonality_defect, Matrix, Vec3};

/// Strategy: a random symmetric n×n matrix with entries in [-1, 1].
fn symmetric_matrix(max_n: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_n).prop_flat_map(|n| {
        prop::collection::vec(-1.0f64..1.0, n * (n + 1) / 2).prop_map(move |tri| {
            let mut a = Matrix::zeros(n, n);
            let mut it = tri.into_iter();
            for i in 0..n {
                for j in 0..=i {
                    let v = it.next().unwrap();
                    a[(i, j)] = v;
                    a[(j, i)] = v;
                }
            }
            a
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn eigh_residual_small(a in symmetric_matrix(20)) {
        let n = a.rows();
        let eig = eigh(a.clone()).unwrap();
        let scale = a.max_abs().max(1.0);
        prop_assert!(eig_residual(&a, &eig) < 1e-9 * scale * n as f64);
        prop_assert!(orthogonality_defect(&eig.vectors) < 1e-10 * n as f64);
        // sorted ascending
        for w in eig.values.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn eigh_preserves_trace_and_frobenius(a in symmetric_matrix(16)) {
        let eig = eigh(a.clone()).unwrap();
        let tr: f64 = eig.values.iter().sum();
        prop_assert!((tr - a.trace()).abs() < 1e-8 * (1.0 + a.trace().abs()));
        // Frobenius norm equals the 2-norm of the spectrum for symmetric A.
        let fro2: f64 = eig.values.iter().map(|x| x * x).sum();
        let afro2 = a.frobenius_norm().powi(2);
        prop_assert!((fro2 - afro2).abs() < 1e-8 * (1.0 + afro2));
    }

    #[test]
    fn matmul_associative(
        dims in (1usize..8, 1usize..8, 1usize..8, 1usize..8),
        seed in 0u64..100
    ) {
        let (m, k, l, n) = dims;
        let fill = |rows: usize, cols: usize, s: u64| {
            let mut state = s.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            Matrix::from_fn(rows, cols, |_, _| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            })
        };
        let a = fill(m, k, seed + 1);
        let b = fill(k, l, seed + 2);
        let c = fill(l, n, seed + 3);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!((&left - &right).max_abs() < 1e-10);
    }

    #[test]
    fn syrk_matches_matmul_transpose(m in 1usize..12, k in 1usize..12, seed in 0u64..200) {
        let fill = |rows: usize, cols: usize, s: u64| {
            let mut state = s.wrapping_mul(0xA24BAED4963EE407) | 1;
            Matrix::from_fn(rows, cols, |_, _| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            })
        };
        let w = fill(m, k, seed);
        let reference = w.matmul(&w.transpose());
        let serial = w.syrk();
        let parallel = w.par_syrk();
        prop_assert!((&serial - &reference).max_abs() < 1e-12);
        // The parallel partition must not change any summation order:
        // bitwise agreement, not just tolerance.
        for i in 0..m {
            for j in 0..m {
                prop_assert_eq!(serial[(i, j)], parallel[(i, j)]);
                // Mirrored halves are exact copies.
                prop_assert_eq!(serial[(i, j)], serial[(j, i)]);
            }
        }
    }

    #[test]
    fn syrk_reuse_tracks_growth(m in 1usize..10, k in 1usize..10, seed in 0u64..50) {
        let fill = |rows: usize, cols: usize, s: u64| {
            let mut state = s.wrapping_mul(0xD1342543DE82EF95) | 1;
            Matrix::from_fn(rows, cols, |_, _| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            })
        };
        let w = fill(m, k, seed);
        let mut out = Matrix::zeros(0, 0);
        let grew_first = w.syrk_reuse(&mut out, false);
        prop_assert!(grew_first || m == 0);
        prop_assert!((&out - &w.syrk()).max_abs() == 0.0);
        // Second pass into the warm buffer: no growth, same answer.
        let grew_again = w.syrk_reuse(&mut out, true);
        prop_assert!(!grew_again);
        prop_assert!((&out - &w.syrk()).max_abs() == 0.0);
    }

    #[test]
    fn vec3_triangle_inequality(ax in -10.0f64..10.0, ay in -10.0f64..10.0, az in -10.0f64..10.0,
                                bx in -10.0f64..10.0, by in -10.0f64..10.0, bz in -10.0f64..10.0) {
        let a = Vec3::new(ax, ay, az);
        let b = Vec3::new(bx, by, bz);
        prop_assert!((a + b).norm() <= a.norm() + b.norm() + 1e-12);
        // Cauchy–Schwarz
        prop_assert!(a.dot(b).abs() <= a.norm() * b.norm() + 1e-12);
    }

    #[test]
    fn transpose_of_product(m in 1usize..6, k in 1usize..6, n in 1usize..6, seed in 0u64..50) {
        let fill = |rows: usize, cols: usize, s: u64| {
            let mut state = s.wrapping_mul(0x2545F4914F6CDD1D) | 1;
            Matrix::from_fn(rows, cols, |_, _| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            })
        };
        let a = fill(m, k, seed);
        let b = fill(k, n, seed + 9);
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!((&lhs - &rhs).max_abs() < 1e-12);
    }
}

// ---- Tiled-kernel equivalence (ISSUE 7) -----------------------------------
//
// The register-tiled microkernels claim two different equivalence levels
// against the textbook loops, and both are properties worth fuzzing:
//
//  * `matmul` routes every row through `rank1_tile`, whose per-element
//    accumulation order is strictly ascending in the inner index — the
//    same order as the naive i-k-j triple loop. Equivalence is therefore
//    *bitwise*, across the tile's row and column remainders and the 64-row
//    blocking boundary alike.
//  * `dot`/`matvec` reduce through 8 independent lanes, a genuinely
//    different (pairwise) summation order: equivalence is to roundoff,
//    pinned at 1e-13 relative to the absolute-value sum.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tiled_matmul_is_bitwise_naive_ikj(
        m in 1usize..40, k in 1usize..70, n in 1usize..40, seed in 0u64..200
    ) {
        let fill = |rows: usize, cols: usize, s: u64| {
            let mut state = s.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            Matrix::from_fn(rows, cols, |_, _| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            })
        };
        let a = fill(m, k, seed + 1);
        let b = fill(k, n, seed + 2);
        let tiled = a.matmul(&b);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                for p in 0..k {
                    acc += a[(i, p)] * b[(p, j)];
                }
                prop_assert_eq!(
                    tiled[(i, j)].to_bits(), acc.to_bits(),
                    "matmul[({}, {})] diverged from the naive i-k-j order", i, j
                );
            }
        }
    }

    #[test]
    fn tiled_dot_matches_naive_to_1e13(len in 1usize..300, seed in 0u64..500) {
        let mut state = seed.wrapping_mul(0xA24BAED4963EE407) | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let x: Vec<f64> = (0..len).map(|_| next()).collect();
        let y: Vec<f64> = (0..len).map(|_| next()).collect();
        let tiled = tbmd_linalg::kernels::dot(&x, &y);
        let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        let scale: f64 = x.iter().zip(&y).map(|(a, b)| (a * b).abs()).sum();
        prop_assert!(
            (tiled - naive).abs() <= 1e-13 * scale.max(1.0),
            "dot drifted: {} vs {}", tiled, naive
        );
    }

    #[test]
    fn tiled_matvec_matches_naive_to_1e13(
        m in 1usize..40, n in 1usize..120, seed in 0u64..200
    ) {
        let fill = |rows: usize, cols: usize, s: u64| {
            let mut state = s.wrapping_mul(0xD1342543DE82EF95) | 1;
            Matrix::from_fn(rows, cols, |_, _| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            })
        };
        let a = fill(m, n, seed);
        let x: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 13) as f64 * 0.1 - 0.6).collect();
        let y = a.matvec(&x);
        for i in 0..m {
            let naive: f64 = (0..n).map(|j| a[(i, j)] * x[j]).sum();
            let scale: f64 = (0..n).map(|j| (a[(i, j)] * x[j]).abs()).sum();
            prop_assert!(
                (y[i] - naive).abs() <= 1e-13 * scale.max(1.0),
                "matvec row {} drifted: {} vs {}", i, y[i], naive
            );
        }
    }
}
