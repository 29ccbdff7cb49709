//! SHARQFEC configuration and the §6.2 ablation ladder.
//!
//! A [`SharqfecConfig`] holds only what a sweep varies: the stream's
//! length, start and group size, the ladder rung ([`Variant`]), the
//! injection policy, the backoff cap and the §7 adaptive-timer switch.
//! What the paper fixes is a constant: the workload's [`PACKET_BYTES`]
//! and [`SEND_INTERVAL`] here, the timer constants beside their reader in
//! `agent.rs`, the predictors' constants in `policy.rs`.

use crate::policy::PolicyConfig;
use sharqfec_netsim::{SimDuration, SimTime};

/// Data/FEC packet size in bytes (paper §6.2: 1000).
pub const PACKET_BYTES: u32 = 1000;
/// CBR inter-packet interval (paper §6.2: 10 ms = 800 kbit/s at 1000 B).
pub const SEND_INTERVAL: SimDuration = SimDuration::from_millis(10);

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
    /// Whether zones are administratively scoped (every rung but the `ns`
    /// ones, which collapse to one global zone).
    pub fn scoped(self) -> bool {
        matches!(self, Variant::Full | Variant::NoInjection)
    }

    /// Whether receivers repair their peers (every rung but `so`, where
    /// only the sender repairs).
    pub fn receivers_repair(self) -> bool {
        self != Variant::Ecsrm
    }

    /// Whether zone representatives inject FEC preemptively (every rung
    /// but the `ni` ones).  An injecting rung also lets receivers repair.
    pub fn injects(self) -> bool {
        matches!(self, Variant::Full | Variant::NoScoping)
    }

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

/// Full parameter set for a SHARQFEC run: what a sweep varies.  Defaults
/// reproduce the paper's §6.2 workload and §4 constants; the packet size
/// and CBR interval are the constants [`PACKET_BYTES`] and
/// [`SEND_INTERVAL`].
#[derive(Clone, Debug)]
pub struct SharqfecConfig {
    // ---- workload (paper §6.2) ----
    /// Total data packets in the stream (paper: 1024).
    pub total_packets: u32,
    /// When the source starts sending (paper: t = 6 s).
    pub data_start: SimTime,
    /// Data packets per group (paper: 16).
    pub group_size: u32,

    /// The rung of the ablation ladder: whether zones are scoped,
    /// receivers repair, and zone representatives inject.
    pub variant: Variant,
    /// How preemptive FEC injection is sized where the variant injects.
    pub policy: PolicyConfig,

    // ---- timers (paper §4; the fixed constants live beside their
    // reader in `agent.rs`) ----
    /// Cap on the request backoff exponent `i`.
    pub max_backoff: u32,
    /// §7 future-work extension: adapt C1/C2 per receiver from observed
    /// duplicate NACKs and recovery delay (SRM §V structure).  Off by
    /// default — the paper's evaluation uses fixed timers.
    pub adaptive_timers: bool,
}

impl Default for SharqfecConfig {
    fn default() -> SharqfecConfig {
        SharqfecConfig {
            total_packets: 1024,
            data_start: SimTime::from_secs(6),
            group_size: 16,
            variant: Variant::Full,
            policy: PolicyConfig::default(),
            max_backoff: 8,
            adaptive_timers: false,
        }
    }
}

impl SharqfecConfig {
    /// Configuration for a named variant.
    pub fn variant(variant: Variant) -> SharqfecConfig {
        SharqfecConfig {
            variant,
            ..SharqfecConfig::default()
        }
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
    /// where a sender started at `t` begins: a standby taking over at `t`
    /// sends next what the retiring sender's send timer at the handoff
    /// instant would have, that timer having died in its crash.
    pub fn seqs_sent_before(&self, t: SimTime) -> u32 {
        let dt = t.saturating_since(self.data_start);
        let sent = dt.0.div_ceil(SEND_INTERVAL.0);
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
        self.policy.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = SharqfecConfig::default();
        c.validate();
        assert_eq!(c.total_packets, 1024);
        assert_eq!(c.group_size, 16);
        assert_eq!(c.group_count(), 64);
        assert_eq!(c.variant, Variant::Full);
        assert_eq!(c.policy, PolicyConfig::Ewma { gain: 0.25 });
    }

    #[test]
    fn variant_ladder_flags() {
        // (variant, scoped, receivers repair, injects)
        for (v, flags) in [
            (Variant::Full, (true, true, true)),
            (Variant::NoInjection, (true, true, false)),
            (Variant::NoScoping, (false, true, true)),
            (Variant::NoScopingNoInjection, (false, true, false)),
            (Variant::Ecsrm, (false, false, false)),
        ] {
            assert_eq!(SharqfecConfig::variant(v).variant, v);
            assert_eq!(
                (v.scoped(), v.receivers_repair(), v.injects()),
                flags,
                "{v:?}"
            );
        }
    }

    #[test]
    fn explicit_policy_overrides_are_preserved() {
        let c = SharqfecConfig {
            policy: PolicyConfig::Optimizing,
            ..SharqfecConfig::default()
        };
        assert_eq!(c.policy.name(), "optimizing");
        assert!(c.variant.injects());
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
        assert_eq!(c.seqs_sent_before(SimTime::from_secs(6)), 0);
        // At exactly 6 s + 40 ms the send of seq 4 has not fired yet.
        assert_eq!(c.seqs_sent_before(SimTime::from_millis(6040)), 4);
        assert_eq!(c.seqs_sent_before(SimTime::from_millis(6045)), 5);
        assert_eq!(c.seqs_sent_before(SimTime::from_secs(3)), 0, "before start");
        // Past the stream end the count saturates at the stream length.
        assert_eq!(c.seqs_sent_before(SimTime::from_secs(1000)), 1024);
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
