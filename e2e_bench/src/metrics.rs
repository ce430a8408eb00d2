//! The metric math, kept apart from the timing loops so it can be tested
//! on hand-made inputs.

/// Fewest samples that must lie beyond a reported percentile. A p99 over
/// fewer than ten tail samples is one or two outliers, not a percentile.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile of `values` (`q` in `(0, 1]`), or `None` when
/// fewer than [`MIN_TAIL`] samples lie beyond it.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_TAIL {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The per-step ledger of a timed run: the host call (solver step, or
/// in-process session step) and the extra cost riding on it (engine
/// calls, or what the served round trip adds), step by step, plus the
/// once-per-input calls that end an analysis.
#[derive(Default)]
pub struct Ledger {
    pub host: Vec<f64>,
    pub extra: Vec<f64>,
    pub finish: f64,
}

impl Ledger {
    /// 100 × (Σ extra + finish) ÷ Σ host: a ratio of sums, so long steps
    /// weigh by their length.
    pub fn overhead_pct(&self) -> f64 {
        let extra: f64 = self.extra.iter().sum::<f64>() + self.finish;
        100.0 * extra / self.host.iter().sum::<f64>()
    }

    /// Percentile over steps of 100 × extra ÷ host for that step; every
    /// step weighs the same. NaN when the run has too few steps.
    pub fn step_pct(&self, q: f64) -> f64 {
        let ratios: Vec<f64> = self
            .extra
            .iter()
            .zip(&self.host)
            .map(|(e, h)| 100.0 * e / h)
            .collect();
        percentile(&ratios, q).unwrap_or(f64::NAN)
    }
}

/// The part of a served round trip that is neither the engine's work nor
/// the wire codec: reactor wake, lane handoff and the socket. Signed,
/// because a single request's clocks can disagree by a few nanoseconds.
pub fn transport_ns(rtt: f64, session_step: f64, encode: f64, decode: f64) -> f64 {
    rtt - session_step - encode - decode
}

/// The paper's accuracy: 100 × (1 − |extracted − truth| ÷ truth).
pub fn accuracy_pct(extracted: f64, truth: f64) -> f64 {
    100.0 * (1.0 - (extracted - truth).abs() / truth)
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Plain median, for small sets of whole-run figures (set-up rounds)
/// where a tail percentile is not asked for.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Rank 990 of 1000 leaves exactly ten samples above it.
        assert_eq!(percentile(&values, 0.99), Some(990.0));
        assert_eq!(percentile(&values[..999], 0.99), None);
        assert_eq!(percentile(&values[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&values[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut values: Vec<f64> = (0..100).map(|i| f64::from((i * 37) % 100)).collect();
        let forward = percentile(&values, 0.5);
        values.reverse();
        assert_eq!(forward, percentile(&values, 0.5));
        assert_eq!(forward, Some(49.0));
    }

    #[test]
    fn ratio_of_sums_weights_long_steps_median_of_ratios_does_not() {
        // Twenty cheap steps at 1 % and one long step at 50 %.
        let mut ledger = Ledger::default();
        for _ in 0..20 {
            ledger.host.push(100.0);
            ledger.extra.push(1.0);
        }
        ledger.host.push(1000.0);
        ledger.extra.push(500.0);
        assert!((ledger.overhead_pct() - 100.0 * 520.0 / 3000.0).abs() < 1e-12);
        assert_eq!(ledger.step_pct(0.5), 1.0);
        // The end-of-analysis calls count in the sum, not in any step.
        ledger.finish = 300.0;
        assert!((ledger.overhead_pct() - 100.0 * 820.0 / 3000.0).abs() < 1e-12);
        assert_eq!(ledger.step_pct(0.5), 1.0);
        // Too few steps for ten beyond the 99th percentile.
        assert!(ledger.step_pct(0.99).is_nan());
    }

    #[test]
    fn transport_is_what_the_other_layers_leave_of_the_round_trip() {
        assert_eq!(transport_ns(20_000.0, 4_000.0, 300.0, 200.0), 15_500.0);
        assert!(transport_ns(1_000.0, 990.0, 10.0, 5.0) < 0.0);
    }

    #[test]
    fn accuracy_matches_the_paper_formula() {
        assert_eq!(accuracy_pct(13.0, 13.0), 100.0);
        assert!((accuracy_pct(29.0, 30.5) - 100.0 * (1.0 - 1.5 / 30.5)).abs() < 1e-12);
        // Over- and under-estimates by the same amount score the same.
        assert_eq!(accuracy_pct(32.0, 30.0), accuracy_pct(28.0, 30.0));
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
