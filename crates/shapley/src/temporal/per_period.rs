//! The original per-period Temporal Shapley pipeline, kept only as the
//! test oracle for the flat cascade, and the pins that hold the cascade
//! to it.
//!
//! The flat cascade ([`TemporalShapley::attribute`]) folds every period
//! in this pipeline's order, so it matches this path bit for bit on
//! random series and hierarchies, on the q → duration weight fallbacks,
//! and in the work counters.

use fairco2_trace::series::{SeriesError, TimeSeries};

use super::{peak_shapley, TemporalAttribution, TemporalShapley};

impl TemporalShapley {
    /// The original per-period pipeline: it clones the demand into owned
    /// [`TimeSeries`] at every level and rescans each period for its peak
    /// and integral.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`SeriesError`] if the hierarchy splits the
    /// series below one sample per period.
    fn attribute_per_period(
        &self,
        demand: &TimeSeries,
        total_carbon: f64,
    ) -> Result<TemporalAttribution, SeriesError> {
        // Per-sample carbon assignment, refined level by level.
        let mut carbon_per_period: Vec<(TimeSeries, f64)> = vec![(demand.clone(), total_carbon)];
        let mut level_intensity = Vec::with_capacity(self.splits.len() + 1);
        let mut naive = 0.0f64;
        let mut ops = 0u64;
        let mut stranded = 0.0f64;

        level_intensity.push(intensity_signal(demand, &carbon_per_period, &mut stranded));

        for &m in &self.splits {
            let mut next: Vec<(TimeSeries, f64)> = Vec::with_capacity(carbon_per_period.len() * m);
            for (period, carbon) in &carbon_per_period {
                let parts = period.split(m)?;
                let peaks: Vec<f64> = parts.iter().map(TimeSeries::peak).collect();
                let phi = peak_shapley(&peaks);
                ops += (m * m.ilog2().max(1) as usize) as u64;
                naive += (m as f64) * 2f64.powi(m as i32);
                let q: Vec<f64> = parts.iter().map(TimeSeries::integral).collect();
                let weights = attribution_weights(&phi, &q, &parts);
                for (part, w) in parts.into_iter().zip(weights) {
                    next.push((part, carbon * w));
                }
            }
            carbon_per_period = next;
            let mut level_stranded = 0.0;
            level_intensity.push(intensity_signal(
                demand,
                &carbon_per_period,
                &mut level_stranded,
            ));
            stranded = level_stranded;
        }

        let carbon_prefix = {
            let leaf = level_intensity
                .last()
                .expect("at least the root level exists");
            let step = f64::from(leaf.step());
            let mut carbon_prefix = Vec::with_capacity(leaf.len() + 1);
            carbon_prefix.push(0.0);
            let mut acc = 0.0;
            for v in leaf.values() {
                acc += v * step;
                carbon_prefix.push(acc);
            }
            carbon_prefix
        };
        Ok(TemporalAttribution {
            carbon_prefix,
            level_intensity,
            stranded_carbon: stranded,
            naive_subset_evaluations: naive,
            closed_form_operations: ops,
        })
    }
}

/// Shares of a period's carbon given to its children: φ·q-proportional
/// (Eq. 5); falls back to q-proportional when every φ·q vanishes and to
/// duration-proportional when even total demand is zero.
fn attribution_weights(phi: &[f64], q: &[f64], parts: &[TimeSeries]) -> Vec<f64> {
    let phi_q: Vec<f64> = phi.iter().zip(q).map(|(&p, &qi)| p * qi).collect();
    let denom: f64 = phi_q.iter().sum();
    if denom > 0.0 {
        return phi_q.iter().map(|v| v / denom).collect();
    }
    let q_total: f64 = q.iter().sum();
    if q_total > 0.0 {
        return q.iter().map(|v| v / q_total).collect();
    }
    let d_total: f64 = parts.iter().map(TimeSeries::duration).sum();
    parts.iter().map(|p| p.duration() / d_total).collect()
}

/// Expands a per-period carbon assignment to a per-sample intensity signal
/// on the original grid. Zero-demand periods contribute zero intensity and
/// their carbon is accumulated into `stranded`.
fn intensity_signal(
    demand: &TimeSeries,
    periods: &[(TimeSeries, f64)],
    stranded: &mut f64,
) -> TimeSeries {
    let mut values = vec![0.0f64; demand.len()];
    let step = i64::from(demand.step());
    for (period, carbon) in periods {
        let q = period.integral();
        if q <= 0.0 {
            *stranded += carbon;
            continue;
        }
        let intensity = carbon / q;
        let first = ((period.start() - demand.start()) / step) as usize;
        for k in 0..period.len() {
            values[first + k] = intensity;
        }
    }
    TimeSeries::from_values(demand.start(), demand.step(), values)
        .expect("demand series is non-empty")
}

mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Asserts the flat cascade equals the per-period reference bit for
    /// bit in every observable: grids, per-level intensity signals, the
    /// billing prefix, stranded carbon, and the work counters.
    fn assert_matches(label: &str, a: &TemporalAttribution, b: &TemporalAttribution) {
        assert_eq!(
            a.level_intensity().len(),
            b.level_intensity().len(),
            "{label}: level count"
        );
        for (level, (la, lb)) in a
            .level_intensity()
            .iter()
            .zip(b.level_intensity())
            .enumerate()
        {
            assert_eq!(la.start(), lb.start(), "{label}: level {level} start");
            assert_eq!(la.step(), lb.step(), "{label}: level {level} step");
            assert_eq!(la.len(), lb.len(), "{label}: level {level} len");
            for (k, (va, vb)) in la.values().iter().zip(lb.values()).enumerate() {
                assert_eq!(
                    va.to_bits(),
                    vb.to_bits(),
                    "{label}: level {level} sample {k}: {va} vs {vb}"
                );
            }
        }
        assert_eq!(
            a.carbon_prefix().len(),
            b.carbon_prefix().len(),
            "{label}: prefix len"
        );
        for (k, (va, vb)) in a.carbon_prefix().iter().zip(b.carbon_prefix()).enumerate() {
            assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "{label}: prefix entry {k}: {va} vs {vb}"
            );
        }
        assert_eq!(
            a.stranded_carbon().to_bits(),
            b.stranded_carbon().to_bits(),
            "{label}: stranded {} vs {}",
            a.stranded_carbon(),
            b.stranded_carbon()
        );
        assert_eq!(
            a.naive_subset_evaluations().to_bits(),
            b.naive_subset_evaluations().to_bits(),
            "{label}: naive counter"
        );
        assert_eq!(
            a.closed_form_operations(),
            b.closed_form_operations(),
            "{label}: ops counter"
        );
    }

    /// Builds a demand series from raw values and a zero mask (mask value 0
    /// forces the sample to zero so stranding paths get exercised).
    fn masked_series(values: &[f64], mask: &[u8], start: i64, step: u32) -> TimeSeries {
        let samples: Vec<f64> = values
            .iter()
            .zip(mask)
            .map(|(&v, &m)| if m == 0 { 0.0 } else { v })
            .collect();
        TimeSeries::from_values(start, step, samples).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn flat_cascade_matches_the_per_period_reference(
            splits in prop::collection::vec(2usize..=4, 0..=3),
            chunk in 1usize..=6,
            slack in 0usize..=17,
            raw in prop::collection::vec(0.0f64..50.0, 512),
            mask in prop::collection::vec(0u8..=3, 512),
            start in -86_400i64..86_400,
            carbon in 0.0f64..5_000.0,
        ) {
            // len >= product(splits) keeps every level splittable (each
            // child is at least the product of the remaining ratios long).
            let product: usize = splits.iter().product();
            let len = product * chunk + slack;
            prop_assume!(len >= product.max(1) && len <= raw.len());
            let series = masked_series(&raw[..len], &mask[..len], start, 300);
            let h = TemporalShapley::new(splits);
            let reference = h.attribute_per_period(&series, carbon).unwrap();
            let flat = h.attribute(&series, carbon).unwrap();
            assert_matches("flat vs reference", &reference, &flat);
        }
    }

    /// The q-proportional fallback requires Σ φ·q ≤ 0 with Σ q > 0 — only
    /// reachable with mixed-sign demand. This exact-arithmetic vector
    /// (children [1, 3] and [9, −10]: φ = [1.5, 7.5], q = [1200, −300],
    /// denom = −450, q_total = 900) pins the fallback on both paths.
    #[test]
    fn q_fallback_is_bit_identical_and_strands_negative_carbon() {
        let series = TimeSeries::from_values(0, 300, vec![1.0, 3.0, 9.0, -10.0]).unwrap();
        let h = TemporalShapley::new(vec![2]);
        let reference = h.attribute_per_period(&series, 90.0).unwrap();
        let flat = h.attribute(&series, 90.0).unwrap();
        assert_matches("q fallback", &reference, &flat);
        // q weights are [4/3, −1/3]; the second child's q ≤ 0 strands its
        // (negative) share: 90 · (−1/3) = −30 exactly.
        assert_eq!(flat.stranded_carbon(), -30.0);
        assert_eq!(flat.leaf_intensity().value_at(0), Some(0.1));
    }

    /// All-zero demand exercises the duration-proportional fallback at every
    /// level and strands the full carbon budget.
    #[test]
    fn duration_fallback_is_bit_identical_on_idle_series() {
        let series = TimeSeries::constant(0, 300, 36, 0.0).unwrap();
        let h = TemporalShapley::new(vec![3, 2]);
        let reference = h.attribute_per_period(&series, 64.0).unwrap();
        let flat = h.attribute(&series, 64.0).unwrap();
        assert_matches("duration fallback", &reference, &flat);
        assert!((flat.stranded_carbon() - 64.0).abs() < 1e-12);
        assert!(flat.leaf_intensity().values().iter().all(|&v| v == 0.0));
    }

    /// Uneven splits (remainder-bearing periods) on the paper hierarchy:
    /// the flat path matches the reference bit for bit. (The name is
    /// kept from the lane-parallel cascade this pin used to bound.)
    #[test]
    fn paper_hierarchy_lane_matches_the_reference() {
        let series = TimeSeries::from_fn(0, 300, 8641, |t| {
            let x = t as f64 / 300.0;
            40.0 + 25.0 * (x / 288.0 * std::f64::consts::PI).sin().abs() + (x % 13.0)
        })
        .unwrap();
        let h = TemporalShapley::paper_hierarchy();
        let reference = h.attribute_per_period(&series, 12_000.0).unwrap();
        let flat = h.attribute(&series, 12_000.0).unwrap();
        assert_matches("paper hierarchy", &reference, &flat);
    }

    /// The flat path reports the same error as the reference when a level
    /// would split a period below one sample.
    #[test]
    fn oversplit_errors_match_the_reference() {
        let series = TimeSeries::constant(0, 300, 6, 1.0).unwrap();
        let h = TemporalShapley::new(vec![4, 3]);
        let reference = h.attribute_per_period(&series, 10.0);
        let flat = h.attribute(&series, 10.0);
        assert!(reference.is_err());
        assert_eq!(reference.unwrap_err(), flat.unwrap_err());
    }
}
