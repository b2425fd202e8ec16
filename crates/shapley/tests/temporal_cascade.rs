//! Equality pins for the flat Temporal Shapley cascade:
//!
//! * a reused [`CascadeScratch`] reproduces fresh results exactly;
//! * batched billing queries through
//!   [`IntensityIndex::carbon_batch_into`](fairco2_shapley::cascade::IntensityIndex::carbon_batch_into)
//!   match per-call [`TemporalAttribution::workload_carbon`] bit-for-bit.
//!
//! The pins against the per-period reference pipeline are unit tests of
//! `fairco2_shapley::temporal`, where that test-only oracle lives.

use fairco2_shapley::cascade::{BillingQuery, CascadeScratch};
use fairco2_shapley::temporal::{TemporalAttribution, TemporalShapley};
use fairco2_trace::TimeSeries;
use proptest::prelude::*;

/// Asserts two attributions are bit-identical in every observable:
/// per-level intensity signals, stranded carbon, the billing prefix, and
/// the work counters.
fn assert_bits_eq(label: &str, a: &TemporalAttribution, b: &TemporalAttribution) {
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
    for (k, (va, vb)) in a.carbon_prefix().iter().zip(b.carbon_prefix()).enumerate() {
        assert_eq!(va.to_bits(), vb.to_bits(), "{label}: prefix entry {k}");
    }
    assert_eq!(
        a.stranded_carbon().to_bits(),
        b.stranded_carbon().to_bits(),
        "{label}: stranded"
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
    fn reused_scratch_reproduces_fresh_results(
        first_len in 24usize..=96,
        second_len in 24usize..=96,
        raw in prop::collection::vec(0.0f64..50.0, 96),
        mask in prop::collection::vec(0u8..=3, 96),
        carbon in 0.0f64..5_000.0,
    ) {
        // Two differently-shaped attributions through one scratch: the
        // second must match a fresh run bit-for-bit (no state leaks).
        let h = TemporalShapley::new(vec![3, 2]);
        let a = masked_series(&raw[..first_len], &mask[..first_len], 0, 300);
        let b = masked_series(&raw[..second_len], &mask[..second_len], 900, 60);
        let mut scratch = CascadeScratch::new();
        h.attribute_with_scratch(&a, carbon, &mut scratch).unwrap();
        assert_bits_eq(
            "scratch first run",
            &h.attribute(&a, carbon).unwrap(),
            &scratch.clone().into_attribution(),
        );
        h.attribute_with_scratch(&b, carbon * 0.5, &mut scratch).unwrap();
        assert_bits_eq(
            "scratch after reuse",
            &h.attribute(&b, carbon * 0.5).unwrap(),
            &scratch.clone().into_attribution(),
        );
    }

    #[test]
    fn batched_billing_queries_match_per_call_lookups(
        raw in prop::collection::vec(0.0f64..50.0, 96),
        mask in prop::collection::vec(0u8..=3, 96),
        carbon in 0.0f64..5_000.0,
        queries in prop::collection::vec(
            (-40_000i64..40_000, -40_000i64..40_000, 0.0f64..8.0),
            1..=64,
        ),
    ) {
        let series = masked_series(&raw, &mask, -7_200, 300);
        let att = TemporalShapley::new(vec![4, 3])
            .attribute(&series, carbon)
            .unwrap();
        let batch: Vec<BillingQuery> = queries.clone();
        let mut answers = Vec::new();
        att.intensity_index().carbon_batch_into(&batch, &mut answers);
        prop_assert_eq!(answers.len(), batch.len());
        for (answer, (t0, t1, alloc)) in answers.iter().zip(queries) {
            prop_assert_eq!(
                answer.to_bits(),
                att.workload_carbon(t0, t1, alloc).to_bits()
            );
        }
    }
}
