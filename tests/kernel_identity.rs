//! Property test: every kernel dispatch reproduces the scalar reference.
//!
//! The `insitu::kernels` contract is that the SIMD paths change the
//! instruction mix, never the arithmetic: AVX2 follows the same
//! four-accumulator reduction tree as the restructured scalar code, so
//! their results are **bitwise identical** — including signed zeros,
//! subnormals, and catastrophic-cancellation mixes. The one sanctioned
//! exception is the `fma` feature's fused dispatch, which rounds each
//! multiply-add once and is held to a relative tolerance instead.
//!
//! This test sweeps every candidate vtable on this host over PRNG batches
//! seasoned with hostile values, at every length/row count around the
//! 4-lane boundaries (0..=8 covers empty, sub-lane, exact-lane, and
//! lane-plus-tail shapes) plus larger sizes, and at AR orders 1..=8.

use insitu::kernels::{self, Dispatch, Kernels};

/// Deterministic xorshift64* so failures reproduce exactly.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        Self(seed | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Roughly uniform in [-1, 1).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// Values chosen to break naive SIMD ports: signed zeros (max semantics),
/// subnormals (flush-to-zero bugs), and magnitudes that overflow or vanish
/// when squared or reassociated carelessly.
const HOSTILE: [f64; 12] = [
    0.0, -0.0, 5e-324, -5e-324, 1e-308, -1e-308, 1e300, -1e300, 1e-300, -1e-300, 17.25, -0.5,
];

/// Mostly PRNG noise with hostile values sprinkled at random positions.
fn fill(rng: &mut XorShift, buf: &mut [f64]) {
    for v in buf.iter_mut() {
        *v = rng.next_f64() * 3.0;
    }
    if buf.is_empty() {
        return;
    }
    let plants = buf.len() / 3 + 1;
    for _ in 0..plants {
        let at = rng.next_u64() as usize % buf.len();
        let which = rng.next_u64() as usize % HOSTILE.len();
        buf[at] = HOSTILE[which];
    }
}

/// Bitwise for every dispatch except the fused one, which gets the
/// documented 1e-9 relative tolerance.
fn assert_matches(reference: f64, candidate: f64, k: &Kernels, what: &str) {
    if k.dispatch() == Dispatch::Avx2Fma {
        // The tolerance contract covers finite arithmetic only: hostile
        // ±1e300 inputs can overflow, and past that point strict and fused
        // rounding legitimately disagree about inf vs NaN (an fma keeps an
        // intermediate finite where mul-then-add already overflowed). The
        // strict dispatches still compare such cases bit for bit.
        if !reference.is_finite() {
            return;
        }
        let tol = 1e-9 * reference.abs().max(candidate.abs()).max(1.0);
        assert!(
            (reference - candidate).abs() <= tol,
            "{what}: {} drifted past fma tolerance (scalar {reference:e}, got {candidate:e})",
            k.name()
        );
    } else {
        assert_eq!(
            reference.to_bits(),
            candidate.to_bits(),
            "{what}: {} is not bit-identical to scalar (scalar {reference:e}, got {candidate:e})",
            k.name()
        );
    }
}

fn non_scalar_candidates() -> Vec<&'static Kernels> {
    kernels::candidates()
        .into_iter()
        .filter(|k| k.dispatch() != Dispatch::Scalar)
        .collect()
}

/// Lengths around the 4-lane group boundary plus larger odd/even sizes.
const LENGTHS: [usize; 12] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 63, 256, 1021];

/// The reciprocal-multiply z-score variant: it is purely elementwise, so **every** dispatch — including the fused one, which has
/// no multiply-add to contract here — must reproduce the scalar reference
/// bit for bit for the same `inv_std`. Against the divide-based transform
/// it is the tolerance relationship: `(v - μ)·(1/σ)` differs from
/// `(v - μ)/σ` by at most the rounding of the reciprocal.
#[test]
fn transform_recip_is_bitwise_across_dispatches_and_near_the_divide() {
    let mut rng = XorShift::new(0x1CE);
    let candidates = non_scalar_candidates();
    for len in LENGTHS {
        let mut raw = vec![0.0; len];
        fill(&mut rng, &mut raw);
        for (mean, std) in [(0.0, 1.0), (3.5, 0.25), (-1e3, 42.0), (1e-3, 1e3)] {
            let inv = 1.0 / std;
            let mut want = raw.clone();
            kernels::scalar().transform_recip(&mut want, mean, inv);
            for k in &candidates {
                let mut got = raw.clone();
                k.transform_recip(&mut got, mean, inv);
                for (i, (w, g)) in want.iter().zip(&got).enumerate() {
                    assert_eq!(
                        w.to_bits(),
                        g.to_bits(),
                        "transform_recip len {len} elem {i}: {} diverged \
                         (scalar {w:e}, got {g:e})",
                        k.name()
                    );
                }
            }
            // Tolerance leg: recip-multiply vs the divide-based reference.
            let mut divided = raw.clone();
            kernels::transform(&mut divided, mean, std);
            for (i, (d, r)) in divided.iter().zip(&want).enumerate() {
                if !d.is_finite() {
                    continue;
                }
                let tol = 1e-9 * d.abs().max(r.abs()).max(1.0);
                assert!(
                    (d - r).abs() <= tol,
                    "transform_recip len {len} elem {i}: recip drifted past \
                     tolerance of the divide ({d:e} vs {r:e})"
                );
            }
        }
    }
}

#[test]
fn sum_squares_reduces_identically() {
    let mut rng = XorShift::new(0xB0B);
    for k in non_scalar_candidates() {
        for len in LENGTHS {
            for round in 0..8 {
                let mut values = vec![0.0; len];
                fill(&mut rng, &mut values);
                let want = kernels::scalar().sum_squares(&values);
                let got = k.sum_squares(&values);
                assert_matches(
                    want,
                    got,
                    k,
                    &format!("sum_squares len {len} round {round}"),
                );
            }
        }
    }
}

#[test]
fn affine_predict_is_identical_at_every_order() {
    let mut rng = XorShift::new(0xCAFE);
    for k in non_scalar_candidates() {
        for order in 1..=8 {
            for round in 0..16 {
                let mut coeffs = vec![0.0; order];
                let mut inputs = vec![0.0; order];
                fill(&mut rng, &mut coeffs);
                fill(&mut rng, &mut inputs);
                let intercept = rng.next_f64();
                let want = kernels::scalar().affine(intercept, &coeffs, &inputs);
                let got = k.affine(intercept, &coeffs, &inputs);
                assert_matches(want, got, k, &format!("affine order {order} round {round}"));
            }
        }
    }
}

#[test]
fn grad_epoch_and_loss_are_identical_over_batches() {
    let mut rng = XorShift::new(0xD00D);
    for k in non_scalar_candidates() {
        for order in 1..=8 {
            for rows in [0usize, 1, 2, 3, 4, 5, 6, 7, 8, 33, 128] {
                let mut inputs = vec![0.0; rows * order];
                let mut targets = vec![0.0; rows];
                let mut coeffs = vec![0.0; order];
                fill(&mut rng, &mut inputs);
                fill(&mut rng, &mut targets);
                fill(&mut rng, &mut coeffs);
                let intercept = rng.next_f64();

                let mut want_grads = vec![0.0; order + 1];
                let mut got_grads = vec![0.0; order + 1];
                let mut lanes = vec![0.0; 4 * (order + 1)];
                kernels::scalar().grad_epoch(
                    &inputs,
                    &targets,
                    intercept,
                    &coeffs,
                    &mut want_grads,
                    &mut lanes,
                );
                k.grad_epoch(
                    &inputs,
                    &targets,
                    intercept,
                    &coeffs,
                    &mut got_grads,
                    &mut lanes,
                );
                for (i, (w, g)) in want_grads.iter().zip(&got_grads).enumerate() {
                    assert_matches(
                        *w,
                        *g,
                        k,
                        &format!("grad order {order} rows {rows} component {i}"),
                    );
                }

                let want = kernels::scalar().loss_sum(&inputs, &targets, intercept, &coeffs);
                let got = k.loss_sum(&inputs, &targets, intercept, &coeffs);
                assert_matches(want, got, k, &format!("loss order {order} rows {rows}"));
            }
        }
    }
}

/// End-to-end check of the one call site that re-reduces history data:
/// under windowed retention, overwriting the visible peak with a smaller
/// same-iteration value forces the store to re-scan the survivors with the
/// four-lane `max_seeded` reduction, seeded by the evicted peak. The result
/// must equal a naive scan of everything ever recorded (with the overwrite
/// applied).
#[test]
fn windowed_peak_rescan_matches_a_naive_fold() {
    use insitu::collect::{Retention, Sample, SampleHistory};

    let mut rng = XorShift::new(0x5EED);
    for round in 0..32u64 {
        let mut history = SampleHistory::with_retention(Retention::Window(4));
        let mut log: Vec<f64> = Vec::new();
        // Push well past the window so early samples — including a planted
        // spike in some rounds — are evicted into the incremental peak.
        for it in 0..12u64 {
            let v = rng.next_f64() * 10.0 + if it == round % 14 { 1e6 } else { 0.0 };
            history.record(Sample::new(it, 1, v));
            log.push(v);
        }
        // Make the newest sample the visible peak, then overwrite it at the
        // same iteration with something smaller: the cold re-scan path.
        history.record(Sample::new(12, 1, 1e7));
        log.push(1e7);
        let replacement = rng.next_f64();
        history.record(Sample::new(12, 1, replacement));
        *log.last_mut().unwrap() = replacement;

        let want = log.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        assert_eq!(
            history.peak_profile(),
            &[(1, want)],
            "round {round}: windowed peak diverged after overwrite re-scan"
        );
    }
}
