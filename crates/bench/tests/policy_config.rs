//! Regression pins for explicit injection-policy configuration.
//!
//! The deprecated loose `SharqfecConfig` knobs (`zlc_gain`,
//! `initial_zlc_pred`, `zlc_measure_rtt_factor`, `injection`) are gone;
//! [`sharqfec::PolicyConfig`] is the only way to shape injection.  These
//! tests pin the explicit paths the old shims folded into: tuned EWMA
//! parameters set through `policy.kind` are honoured end to end, and
//! `policy.enabled = false` is exactly the `ni` ablation variant.

use sharqfec::{PolicyKind, SharqfecConfig, Variant};
use sharqfec_bench::{Scenario, ScenarioOutcome, Workload};

const WORKLOAD: Workload = Workload {
    packets: 48,
    tail_secs: 20,
};

fn run(label: &str, cfg: SharqfecConfig) -> ScenarioOutcome {
    Scenario::sharqfec(label, cfg, WORKLOAD)
        .streaming()
        .audited()
        .run(7)
}

fn assert_identical(a: &ScenarioOutcome, b: &ScenarioOutcome) {
    assert_eq!(a.data_repair_per_rx, b.data_repair_per_rx);
    assert_eq!(a.nacks, b.nacks);
    assert_eq!(a.repairs, b.repairs);
    assert_eq!(a.unrecovered, b.unrecovered);
    assert_eq!(a.time_to_complete, b.time_to_complete);
    let (aa, ba) = (
        a.audit.as_ref().expect("audited"),
        b.audit.as_ref().expect("audited"),
    );
    assert_eq!(aa.events, ba.events, "probe streams diverged");
    assert_eq!(aa.violations, ba.violations);
}

fn tuned_ewma() -> SharqfecConfig {
    let mut cfg = SharqfecConfig::full();
    cfg.policy.kind = PolicyKind::Ewma {
        gain: 0.4,
        initial_pred: 2.0,
    };
    cfg.policy.measure_rtt_factor = 3.0;
    cfg
}

#[test]
fn explicit_ewma_tuning_is_deterministic_and_honoured() {
    let a = run("tuned-ewma", tuned_ewma());
    let b = run("tuned-ewma-again", tuned_ewma());
    assert_identical(&a, &b);

    // The tuning must actually reach the agents: a tuned run and the
    // paper-default run may not be bit-identical.
    let default_run = run("default-policy", SharqfecConfig::full());
    assert!(
        a.repairs != default_run.repairs
            || a.nacks != default_run.nacks
            || a.data_repair_per_rx != default_run.data_repair_per_rx,
        "tuned EWMA parameters had no observable effect"
    );
}

#[test]
fn disabled_policy_is_exactly_the_no_injection_variant() {
    let mut explicit = SharqfecConfig::full();
    explicit.policy.enabled = false;

    let (a, b) = (
        run("disabled-policy", explicit),
        run("ni-variant", SharqfecConfig::variant(Variant::NoInjection)),
    );
    assert_identical(&a, &b);
}
