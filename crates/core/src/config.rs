//! SHARQFEC configuration and the §6.2 ablation ladder.

use crate::policy::PolicyConfig;
use sharqfec_netsim::{SimDuration, SimTime};

/// The protocol variants the paper evaluates (its figures annotate
/// `ns` = no scoping, `ni` = no injection, `so` = sender-only repairs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Full SHARQFEC: scoping + injection + receiver repairs.
    Full,
    /// `SHARQFEC(ni)`: scoping, receiver repairs, no preemptive injection.
    NoInjection,
    /// `SHARQFEC(ns)`: no scoping; source injection + receiver repairs.
    NoScoping,
    /// `SHARQFEC(ns,ni)`: no scoping, no injection, receiver repairs.
    NoScopingNoInjection,
    /// `SHARQFEC(ns,ni,so)`: the paper's ECSRM-equivalent — reactive FEC
    /// from the sender only.
    Ecsrm,
}

impl Variant {
    /// The paper's figure annotation for this variant.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Full => "SHARQFEC",
            Variant::NoInjection => "SHARQFEC(ni)",
            Variant::NoScoping => "SHARQFEC(ns)",
            Variant::NoScopingNoInjection => "SHARQFEC(ns,ni)",
            Variant::Ecsrm => "SHARQFEC(ns,ni,so)/ECSRM",
        }
    }
}

/// Full parameter set for a SHARQFEC run.  Defaults reproduce the paper's
/// §6.2 workload and §4 constants.
#[derive(Clone, Debug)]
pub struct SharqfecConfig {
    // ---- workload (paper §6.2) ----
    /// Total data packets in the stream (paper: 1024).
    pub total_packets: u32,
    /// Data/FEC packet size in bytes (paper: 1000).
    pub packet_bytes: u32,
    /// CBR inter-packet interval (paper: 10 ms = 800 kbit/s).
    pub send_interval: SimDuration,
    /// When the source starts sending (paper: t = 6 s).
    pub data_start: SimTime,
    /// Data packets per group (paper: 16).
    pub group_size: u32,
    /// First sequence this source sends fresh (default 0).  A standby
    /// source taking over mid-stream (scenario sender handoff) is seeded
    /// with the count of sequences the retired sender already put on the
    /// wire, so the stream continues without gap or overlap; it can still
    /// *repair* any earlier sequence from its warm-replica history.
    pub first_seq: u32,

    // ---- feature switches (ablations) ----
    /// Administrative scoping (`false` ⇒ the `ns` variants: one global
    /// zone).
    pub scoping: bool,
    /// Receivers repair their peers (`false` ⇒ the `so` variant: sender
    /// only).
    pub receiver_repairs: bool,

    // ---- injection policy ----
    /// How preemptive FEC injection is sized: predictor selection and
    /// parameters (`policy.enabled = false` ⇒ the `ni` variants).
    pub policy: PolicyConfig,

    // ---- timers (paper §4; the fixed constants live beside their
    // reader in `agent.rs`) ----
    /// Cap on the request backoff exponent `i`.
    pub max_backoff: u32,
    /// §7 future-work extension: adapt C1/C2 per receiver from observed
    /// duplicate NACKs and recovery delay (SRM §V structure).  Off by
    /// default — the paper's evaluation uses fixed timers.
    pub adaptive_timers: bool,

    /// Fallback one-way distance used for timers before the session has
    /// produced an estimate.
    pub default_dist: SimDuration,
}

impl Default for SharqfecConfig {
    fn default() -> SharqfecConfig {
        SharqfecConfig {
            total_packets: 1024,
            packet_bytes: 1000,
            send_interval: SimDuration::from_millis(10),
            data_start: SimTime::from_secs(6),
            group_size: 16,
            first_seq: 0,
            scoping: true,
            receiver_repairs: true,
            max_backoff: 8,
            adaptive_timers: false,
            policy: PolicyConfig::default(),
            default_dist: SimDuration::from_millis(50),
        }
    }
}

impl SharqfecConfig {
    /// Configuration for a named variant.
    pub fn variant(v: Variant) -> SharqfecConfig {
        let mut c = SharqfecConfig::default();
        match v {
            Variant::Full => {}
            Variant::NoInjection => {
                c.policy.enabled = false;
            }
            Variant::NoScoping => {
                c.scoping = false;
            }
            Variant::NoScopingNoInjection => {
                c.scoping = false;
                c.policy.enabled = false;
            }
            Variant::Ecsrm => {
                c.scoping = false;
                c.policy.enabled = false;
                c.receiver_repairs = false;
            }
        }
        c
    }

    /// Full SHARQFEC.
    pub fn full() -> SharqfecConfig {
        Self::variant(Variant::Full)
    }

    /// Number of groups in the stream (last group may be short).
    pub fn group_count(&self) -> u32 {
        self.total_packets.div_ceil(self.group_size)
    }

    /// Data packets in group `g` (the tail group may be shorter).
    pub fn packets_in_group(&self, g: u32) -> u32 {
        let start = g * self.group_size;
        (self.total_packets - start).min(self.group_size)
    }

    /// Number of fresh sequences a source on this schedule has sent
    /// strictly before `t` — sends happen at `data_start + s·interval`,
    /// and a send scheduled exactly at `t` has not yet fired.  This is
    /// the `first_seq` to give a standby taking over at `t`: the retiring
    /// sender's send timer at the handoff instant dies with its crash
    /// epoch, so the standby's first send replaces it seamlessly.
    pub fn seqs_sent_before(&self, t: SimTime) -> u32 {
        let dt = t.saturating_since(self.data_start);
        let sent = dt.0.div_ceil(self.send_interval.0);
        sent.min(self.total_packets as u64) as u32
    }

    /// Validates invariants.
    ///
    /// # Panics
    ///
    /// Panics with a description of the violated invariant.
    pub fn validate(&self) {
        assert!(self.total_packets > 0, "need at least one packet");
        assert!(self.group_size > 0, "group size must be positive");
        assert!(
            self.group_size as usize <= sharqfec_fec::MAX_GROUP,
            "group size exceeds the GF(256) erasure-code limit"
        );
        assert!(self.packet_bytes > 0, "packets must have a size");
        assert!(
            self.send_interval > SimDuration::ZERO,
            "CBR interval must be positive"
        );
        assert!(
            self.first_seq <= self.total_packets,
            "first_seq must not pass the end of the stream"
        );
        self.policy.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;

    #[test]
    fn defaults_match_the_paper() {
        let c = SharqfecConfig::default();
        c.validate();
        assert_eq!(c.total_packets, 1024);
        assert_eq!(c.group_size, 16);
        assert_eq!(c.group_count(), 64);
        let p = &c.policy;
        assert!(p.enabled);
        assert_eq!(p.measure_rtt_factor, 2.5);
        assert_eq!(
            p.kind,
            PolicyKind::Ewma {
                gain: 0.25,
                initial_pred: 1.0
            }
        );
    }

    #[test]
    fn variant_ladder_flags() {
        let injection = |c: &SharqfecConfig| c.policy.enabled;
        assert!(SharqfecConfig::full().scoping);
        assert!(injection(&SharqfecConfig::full()));
        assert!(SharqfecConfig::full().receiver_repairs);

        let ecsrm = SharqfecConfig::variant(Variant::Ecsrm);
        assert!(!ecsrm.scoping && !injection(&ecsrm) && !ecsrm.receiver_repairs);

        let ns = SharqfecConfig::variant(Variant::NoScoping);
        assert!(!ns.scoping && injection(&ns) && ns.receiver_repairs);

        let ni = SharqfecConfig::variant(Variant::NoInjection);
        assert!(ni.scoping && !injection(&ni) && ni.receiver_repairs);

        let ns_ni = SharqfecConfig::variant(Variant::NoScopingNoInjection);
        assert!(!ns_ni.scoping && !injection(&ns_ni) && ns_ni.receiver_repairs);
    }

    #[test]
    fn explicit_policy_overrides_are_preserved() {
        let c = SharqfecConfig {
            policy: crate::policy::PolicyConfig::optimizing(),
            ..SharqfecConfig::default()
        };
        assert_eq!(c.policy.name(), "optimizing");
        assert!(c.policy.enabled);
        c.validate();
    }

    #[test]
    fn variant_labels_match_figures() {
        assert_eq!(Variant::Full.label(), "SHARQFEC");
        assert_eq!(Variant::Ecsrm.label(), "SHARQFEC(ns,ni,so)/ECSRM");
        assert_eq!(Variant::NoScoping.label(), "SHARQFEC(ns)");
    }

    #[test]
    fn tail_group_arithmetic() {
        let c = SharqfecConfig {
            total_packets: 20,
            group_size: 16,
            ..SharqfecConfig::default()
        };
        assert_eq!(c.group_count(), 2);
        assert_eq!(c.packets_in_group(0), 16);
        assert_eq!(c.packets_in_group(1), 4);
    }

    #[test]
    fn handoff_seq_arithmetic() {
        let c = SharqfecConfig::default(); // data_start 6 s, 10 ms interval
        assert_eq!(c.first_seq, 0, "plain sources start at the beginning");
        assert_eq!(c.seqs_sent_before(SimTime::from_secs(6)), 0);
        // At exactly 6 s + 40 ms the send of seq 4 has not fired yet.
        assert_eq!(c.seqs_sent_before(SimTime::from_millis(6040)), 4);
        assert_eq!(c.seqs_sent_before(SimTime::from_millis(6045)), 5);
        assert_eq!(c.seqs_sent_before(SimTime::from_secs(3)), 0, "before start");
        // Past the stream end the count saturates at the stream length.
        assert_eq!(c.seqs_sent_before(SimTime::from_secs(1000)), 1024);
        let bad = SharqfecConfig {
            first_seq: 2000,
            ..SharqfecConfig::default()
        };
        let err = std::panic::catch_unwind(move || bad.validate());
        assert!(err.is_err(), "first_seq past the stream is rejected");
    }

    #[test]
    #[should_panic(expected = "group size")]
    fn zero_group_size_rejected() {
        SharqfecConfig {
            group_size: 0,
            ..SharqfecConfig::default()
        }
        .validate();
    }
}
