//! Assembling training rows from the sample history.
//!
//! The AR model relates a target value to `n` of its own past values. The
//! paper's formulation uses both dimensions at once:
//!
//! ```text
//! V(l, t) = β0 + β1 V(l-1, t-lag) + ... + βn V(l-n, t-lag) + ε
//! ```
//!
//! i.e. the predictors are values at *preceding locations* observed `lag`
//! iterations earlier. [`BatchAssembler`] builds such rows from the
//! [`SampleHistory`] and writes them **directly into a columnar
//! [`MiniBatch`]** (see the stride convention in
//! [`minibatch`](crate::collect::MiniBatch)) — no per-row allocation. Two
//! simpler layouts (purely temporal, purely spatial) are provided for the
//! ablation studies.

use serde::{Deserialize, Serialize};

use super::history::SampleHistory;
use super::minibatch::MiniBatch;
use crate::params::IterParam;

/// Which past values serve as predictors for `V(l, t)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PredictorLayout {
    /// `V(l-i, t-lag)` for `i = 1..=order` — the paper's dual-dimensional
    /// formulation.
    #[default]
    SpatioTemporal,
    /// `V(l, t - i*lag)` for `i = 1..=order` — classic temporal AR at a
    /// fixed location.
    Temporal,
    /// `V(l-i, t)` for `i = 1..=order` — spatial regression at a fixed
    /// iteration.
    Spatial,
}

/// Builds columnar training rows for target `(location, iteration)` pairs
/// from the collected history.
///
/// ```
/// use insitu::collect::{BatchAssembler, MiniBatch, PredictorLayout, Sample, SampleHistory};
/// use insitu::IterParam;
///
/// let spatial = IterParam::new(1, 5, 1).unwrap();
/// let temporal = IterParam::new(0, 100, 10).unwrap();
/// let asm = BatchAssembler::new(2, 10, PredictorLayout::SpatioTemporal, spatial, temporal);
///
/// let mut h = SampleHistory::new();
/// for it in (0..=100).step_by(10) {
///     for loc in 1..=5 {
///         h.record(Sample::new(it, loc, (loc as f64) + it as f64 / 100.0));
///     }
/// }
/// let mut batch = MiniBatch::new(2, 16);
/// asm.append_rows_for_iteration(&h, 20, &mut batch);
/// // Locations 3, 4, 5 have two predecessors each at iteration 20.
/// assert_eq!(batch.len(), 3);
/// assert_eq!(batch.targets()[0], 3.2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchAssembler {
    order: usize,
    lag: u64,
    layout: PredictorLayout,
    spatial: IterParam,
    temporal: IterParam,
}

impl BatchAssembler {
    /// Creates an assembler.
    ///
    /// * `order` — number of predictors (the AR model size `n`).
    /// * `lag` — the time-step lag, measured in iterations as in the paper.
    /// * `layout` — which past values serve as predictors.
    /// * `spatial` / `temporal` — the sampling characteristics, used to step
    ///   to "previous" locations/iterations in sampled units rather than raw
    ///   ids.
    ///
    /// # Panics
    ///
    /// Panics if `order` is zero.
    pub fn new(
        order: usize,
        lag: u64,
        layout: PredictorLayout,
        spatial: IterParam,
        temporal: IterParam,
    ) -> Self {
        assert!(order > 0, "AR order must be positive");
        Self {
            order,
            lag,
            layout,
            spatial,
            temporal,
        }
    }

    /// The AR model order this assembler produces rows for.
    pub fn order(&self) -> usize {
        self.order
    }

    /// The configured time-step lag in iterations.
    pub fn lag(&self) -> u64 {
        self.lag
    }

    /// The predictor layout.
    pub fn layout(&self) -> PredictorLayout {
        self.layout
    }

    /// The lagged iteration that predictors are read from, if it is sampled
    /// and non-negative.
    fn lagged_iteration(&self, iteration: u64) -> Option<u64> {
        let lagged = iteration.checked_sub(self.lag)?;
        // Snap to the nearest sampled iteration at or before the lagged time.
        let step = self.temporal.step();
        let begin = self.temporal.begin();
        if lagged < begin {
            return None;
        }
        Some(begin + ((lagged - begin) / step) * step)
    }

    /// Writes the predictor values that would be used to *predict*
    /// `V(location, iteration)` into `out` (which must hold exactly `order`
    /// elements). Returns `None` — leaving `out` in an unspecified state —
    /// when the history does not yet contain every value the row needs
    /// (early in the run, or at the low edge of the spatial range).
    ///
    /// This is the allocation-free kernel behind both batch assembly
    /// ([`BatchAssembler::append_rows_for_iteration`]) and forecasting
    /// ([`Collector::write_predictors_for`](crate::collect::Collector::write_predictors_for)).
    pub fn write_predictors_for(
        &self,
        history: &SampleHistory,
        location: usize,
        iteration: u64,
        out: &mut [f64],
    ) -> Option<()> {
        debug_assert_eq!(out.len(), self.order, "predictor buffer must match order");
        match self.layout {
            PredictorLayout::SpatioTemporal => {
                let lagged = self.lagged_iteration(iteration)?;
                let loc_index = self.spatial.index_of(location as u64)?;
                for (i, slot) in out.iter_mut().enumerate() {
                    let prev_index = loc_index.checked_sub(i + 1)?;
                    let prev_loc = self.spatial.nth(prev_index)? as usize;
                    *slot = history.value_at(prev_loc, lagged)?;
                }
            }
            PredictorLayout::Temporal => {
                let it_index = self.temporal.index_of(iteration)?;
                let lag_steps = (self.lag / self.temporal.step()).max(1) as usize;
                for (i, slot) in out.iter_mut().enumerate() {
                    let prev_index = it_index.checked_sub((i + 1) * lag_steps)?;
                    let prev_it = self.temporal.nth(prev_index)?;
                    *slot = history.value_at(location, prev_it)?;
                }
            }
            PredictorLayout::Spatial => {
                let loc_index = self.spatial.index_of(location as u64)?;
                for (i, slot) in out.iter_mut().enumerate() {
                    let prev_index = loc_index.checked_sub(i + 1)?;
                    let prev_loc = self.spatial.nth(prev_index)? as usize;
                    *slot = history.value_at(prev_loc, iteration)?;
                }
            }
        }
        Some(())
    }

    /// Appends every row that can be formed for a given iteration across
    /// the spatial characteristic directly into `batch` (predictors are
    /// written in place — zero per-row allocations). This is what the
    /// collector calls after recording an iteration's samples. Returns the
    /// number of rows appended.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `batch.order()` differs from the
    /// assembler's order.
    pub fn append_rows_for_iteration(
        &self,
        history: &SampleHistory,
        iteration: u64,
        batch: &mut MiniBatch,
    ) -> usize {
        debug_assert_eq!(
            batch.order(),
            self.order,
            "batch stride must match the assembler order"
        );
        let mut appended = 0;
        for loc in self.spatial.iter() {
            let location = loc as usize;
            let Some(target) = history.value_at(location, iteration) else {
                continue;
            };
            if batch.push_with(target, |out| {
                self.write_predictors_for(history, location, iteration, out)
            }) {
                appended += 1;
            }
        }
        appended
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::Sample;

    fn history() -> SampleHistory {
        // V(l, t) = l + t/100 over locations 1..=8, iterations 0..=200 step 10.
        let mut h = SampleHistory::new();
        for it in (0..=200u64).step_by(10) {
            for loc in 1..=8usize {
                h.record(Sample::new(it, loc, loc as f64 + it as f64 / 100.0));
            }
        }
        h
    }

    fn assembler(layout: PredictorLayout) -> BatchAssembler {
        BatchAssembler::new(
            3,
            20,
            layout,
            IterParam::new(1, 8, 1).unwrap(),
            IterParam::new(0, 200, 10).unwrap(),
        )
    }

    /// The row whose target is `V(location, iteration)`, assembled through
    /// the slice kernel.
    fn row_for(
        asm: &BatchAssembler,
        h: &SampleHistory,
        location: usize,
        iteration: u64,
    ) -> Option<(Vec<f64>, f64)> {
        let target = h.value_at(location, iteration)?;
        let mut inputs = vec![0.0; asm.order()];
        asm.write_predictors_for(h, location, iteration, &mut inputs)?;
        Some((inputs, target))
    }

    #[test]
    fn spatiotemporal_rows_use_previous_locations_at_lagged_time() {
        let h = history();
        let asm = assembler(PredictorLayout::SpatioTemporal);
        let (inputs, target) = row_for(&asm, &h, 5, 50).unwrap();
        assert_eq!(target, 5.5);
        // lag 20 => lagged iteration 30; predictors are locations 4, 3, 2.
        assert_eq!(inputs, vec![4.3, 3.3, 2.3]);
    }

    #[test]
    fn temporal_rows_use_previous_iterations_at_same_location() {
        let h = history();
        let asm = assembler(PredictorLayout::Temporal);
        let (inputs, target) = row_for(&asm, &h, 5, 100).unwrap();
        assert_eq!(target, 6.0);
        // lag 20 = 2 sampled steps; predictors at iterations 80, 60, 40.
        assert_eq!(inputs, vec![5.8, 5.6, 5.4]);
    }

    #[test]
    fn spatial_rows_use_previous_locations_at_same_iteration() {
        let h = history();
        let asm = assembler(PredictorLayout::Spatial);
        let (inputs, target) = row_for(&asm, &h, 4, 50).unwrap();
        assert_eq!(target, 4.5);
        assert_eq!(inputs, vec![3.5, 2.5, 1.5]);
    }

    #[test]
    fn rows_missing_history_are_skipped() {
        let h = history();
        let asm = assembler(PredictorLayout::SpatioTemporal);
        // Location 2 needs locations 1, 0, -1: impossible for order 3.
        assert!(row_for(&asm, &h, 2, 50).is_none());
        // Iteration 10 lags to -10: impossible.
        assert!(row_for(&asm, &h, 5, 10).is_none());
    }

    #[test]
    fn append_rows_builds_all_valid_targets_columnar() {
        let h = history();
        let asm = assembler(PredictorLayout::SpatioTemporal);
        let mut batch = MiniBatch::new(3, 16);
        let appended = asm.append_rows_for_iteration(&h, 100, &mut batch);
        // Locations 4..=8 have 3 predecessors; 1..=3 do not.
        assert_eq!(appended, 5);
        assert_eq!(batch.len(), 5);
        assert_eq!(batch.inputs().len(), 15, "stride 3 x 5 rows, contiguous");
        // Rolled-back rows must not leave partial predictors behind.
        for (inputs, target) in batch.rows() {
            assert_eq!(inputs.len(), 3);
            assert!(target > 0.0);
        }
        // Row for location 4 at iteration 100: predecessors 3, 2, 1 at
        // the lagged iteration 80.
        assert_eq!(batch.row(0), Some(&[3.8, 2.8, 1.8][..]));
        assert_eq!(batch.targets()[0], 5.0);
    }

    #[test]
    fn predictors_can_be_formed_without_observed_target() {
        let h = history();
        let asm = assembler(PredictorLayout::Spatial);
        // Location 9 itself was never sampled, but its predecessors were.
        let spatial = IterParam::new(1, 9, 1).unwrap();
        let asm2 = BatchAssembler::new(
            3,
            20,
            PredictorLayout::Spatial,
            spatial,
            IterParam::new(0, 200, 10).unwrap(),
        );
        assert!(row_for(&asm, &h, 9, 50).is_none());
        let mut predictors = [0.0; 3];
        asm2.write_predictors_for(&h, 9, 50, &mut predictors)
            .unwrap();
        assert_eq!(predictors, [8.5, 7.5, 6.5]);
    }

    #[test]
    #[should_panic(expected = "order must be positive")]
    fn zero_order_panics() {
        let _ = BatchAssembler::new(
            0,
            1,
            PredictorLayout::Temporal,
            IterParam::single(0),
            IterParam::single(0),
        );
    }
}
