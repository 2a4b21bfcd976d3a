//! Property-based tests on the aggregation library's mathematical
//! invariants: sketch merge laws, decomposability laws, dedup output.

use f2c_aggregate::functions::{fold, Decomposable, MinMax, Moments};
use f2c_aggregate::sketch::HyperLogLog;
use f2c_aggregate::RedundancyFilter;
use proptest::prelude::*;
use scc_sensors::{Reading, SensorId, SensorType, Value};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hll_merge_is_idempotent_and_commutative(
        keys in proptest::collection::vec(any::<u32>(), 0..2000),
    ) {
        let mut a = HyperLogLog::new(10).unwrap();
        for k in &keys { a.add(&k.to_le_bytes()); }
        let mut twice = a.clone();
        twice.merge(&a);
        prop_assert_eq!(&twice, &a, "merge with self must be identity");
    }

    #[test]
    fn decomposable_types_obey_merge_associativity(
        xs in proptest::collection::vec(-1e5f64..1e5, 0..60),
        ys in proptest::collection::vec(-1e5f64..1e5, 0..60),
        zs in proptest::collection::vec(-1e5f64..1e5, 0..60),
    ) {
        fn assoc<S: Decomposable + PartialEq + std::fmt::Debug>(
            xs: &[f64], ys: &[f64], zs: &[f64],
        ) -> (S, S) {
            let (x, y, z): (S, S, S) = (
                fold(xs.iter().copied()),
                fold(ys.iter().copied()),
                fold(zs.iter().copied()),
            );
            let mut left = x.clone();
            left.merge(&y);
            left.merge(&z);
            let mut yz = y;
            yz.merge(&z);
            let mut right = x;
            right.merge(&yz);
            (left, right)
        }
        let (l, r) = assoc::<MinMax>(&xs, &ys, &zs);
        prop_assert_eq!(l, r);
        let (l, r) = assoc::<Moments>(&xs, &ys, &zs);
        prop_assert_eq!(l.count, r.count);
        prop_assert!((l.sum - r.sum).abs() <= 1e-6 * l.sum.abs().max(1.0));
    }

    #[test]
    fn tree_aggregation_is_population_exact(
        nodes in proptest::collection::vec(
            (any::<u32>(), proptest::collection::vec(-1e5f64..1e5, 0..8)),
            1..40,
        ),
    ) {
        // Node i > 0 reports to a parent among nodes 0..i, so the shapes
        // range from a star to a deep chain. Each node folds its own
        // readings; walking the nodes in reverse merges every child into
        // its parent before the parent is merged upward.
        let parent = |i: usize| nodes[i].0 as usize % i;
        let mut moments: Vec<Moments> =
            nodes.iter().map(|(_, xs)| fold(xs.iter().copied())).collect();
        let mut extremes: Vec<MinMax> =
            nodes.iter().map(|(_, xs)| fold(xs.iter().copied())).collect();
        for i in (1..nodes.len()).rev() {
            let (m, e) = (moments[i], extremes[i]);
            moments[parent(i)].merge(&m);
            extremes[parent(i)].merge(&e);
        }
        let all = || nodes.iter().flat_map(|(_, xs)| xs.iter().copied());
        let flat: Moments = fold(all());
        prop_assert_eq!(moments[0].count, flat.count);
        prop_assert!((moments[0].sum - flat.sum).abs() <= 1e-6 * flat.sum.abs().max(1.0));
        prop_assert_eq!(extremes[0], fold::<MinMax>(all()));
    }

    #[test]
    fn dedup_output_has_no_consecutive_repeats_per_sensor(
        raw in proptest::collection::vec((0u32..5, 0i64..50), 0..400),
    ) {
        let mut filter = RedundancyFilter::new();
        let readings: Vec<Reading> = raw
            .iter()
            .enumerate()
            .map(|(t, (idx, v))| {
                Reading::new(
                    SensorId::new(SensorType::Temperature, *idx),
                    t as u64,
                    Value::Scalar(*v),
                )
            })
            .collect();
        let kept = filter.filter_batch(readings);
        // Invariant: per sensor, consecutive kept values always differ.
        let mut last: std::collections::HashMap<SensorId, Value> =
            std::collections::HashMap::new();
        for r in kept {
            if let Some(prev) = last.get(&r.sensor()) {
                prop_assert_ne!(prev, r.value());
            }
            last.insert(r.sensor(), r.value().clone());
        }
    }
}
