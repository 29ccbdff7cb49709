//! Property-based tests for the injection-policy layer: under arbitrary
//! interleavings of loss evidence (ZLC measurements, NACKs, seat
//! changes), no policy ever asks to inject more than the group size, and
//! predictions stay finite.  This is the policy-level counterpart of the
//! auditor's `chosen h ≤ group_size` invariant on `PolicyDecision`
//! probes.

use proptest::prelude::*;
use sharqfec::PolicyConfig;

const LEVELS: usize = 3;

/// One step of evidence or decision traffic fed to a policy.
#[derive(Clone, Debug)]
enum Step {
    Measure { level: usize, observed: f64 },
    Nack { level: usize, needed: u32 },
    Seat { level: usize, is_zcr: bool },
    Decide { level: usize, group_size: u32 },
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..LEVELS, 0.0f64..64.0).prop_map(|(level, observed)| Step::Measure { level, observed }),
        (0..LEVELS, 0u32..64).prop_map(|(level, needed)| Step::Nack { level, needed }),
        (0..LEVELS, any::<bool>()).prop_map(|(level, is_zcr)| Step::Seat { level, is_zcr }),
        (0..LEVELS, 1u32..64).prop_map(|(level, group_size)| Step::Decide { level, group_size }),
    ]
}

/// Every configurable policy: the EWMA over its gain range, and the two
/// predictors whose constants are fixed.
fn policies() -> impl Strategy<Value = PolicyConfig> {
    prop_oneof![
        (0.01f64..1.0).prop_map(|gain| PolicyConfig::Ewma { gain }),
        Just(PolicyConfig::Percentile),
        Just(PolicyConfig::Optimizing),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// No policy, under any evidence history, injects more than the
    /// group size it was asked about, and its prediction stays finite.
    #[test]
    fn injected_never_exceeds_group_size(
        cfg in policies(),
        steps in proptest::collection::vec(step(), 0..80),
    ) {
        let mut policy = cfg.build(LEVELS);
        for s in &steps {
            match *s {
                Step::Measure { level, observed } => policy.on_zlc_measurement(level, observed),
                Step::Nack { level, needed } => policy.on_nack(level, needed),
                Step::Seat { level, is_zcr } => policy.on_seat_change(level, is_zcr),
                Step::Decide { level, group_size } => {
                    let h = policy.injected(level, group_size);
                    prop_assert!(
                        h <= group_size as usize,
                        "{} injected {h} > group_size {group_size}",
                        cfg.name()
                    );
                }
            }
            for level in 0..LEVELS {
                let p = policy.predicted(level);
                prop_assert!(p.is_finite(), "{} produced non-finite prediction {p}", cfg.name());
            }
        }
    }

    /// The named-policy constructors honour the same bound: a policy
    /// built from any `PolicyConfig` never overshoots the group.
    #[test]
    fn named_policies_respect_the_bound(
        name_idx in 0usize..3,
        observations in proptest::collection::vec(0.0f64..128.0, 1..40),
        group_size in 1u32..64,
    ) {
        let cfg = PolicyConfig::named(["ewma", "percentile", "optimizing"][name_idx])
            .expect("known policy");
        let mut policy = cfg.build(LEVELS);
        for (i, &obs) in observations.iter().enumerate() {
            policy.on_zlc_measurement(i % LEVELS, obs);
            let h = policy.injected(i % LEVELS, group_size);
            prop_assert!(
                h <= group_size as usize,
                "{} injected {h} > group_size {group_size}",
                cfg.name()
            );
        }
    }
}
