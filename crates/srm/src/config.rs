//! SRM configuration.

use sharqfec_netsim::{SimDuration, SimTime};

/// Parameters of an SRM run.  Workload defaults mirror the SHARQFEC
/// paper's §6.2 scenario (1024 × 1000-byte packets at 800 kbit/s from
/// t = 6 s); the packet size, the CBR interval and the timer constants sit
/// beside their readers (`receiver.rs`, `replier.rs`).  The §V adaptive
/// timers always run: the paper's comparison enables them "for best
/// possible performance".
#[derive(Clone, Debug)]
pub struct SrmConfig {
    /// Number of data packets in the stream.
    pub total_packets: u32,
    /// When the source starts transmitting.
    pub data_start: SimTime,
    /// Optional session-message layer (SRM's periodic session packets):
    /// every receiver multicasts a globally scoped announcement each
    /// interval, and every receiver records each announcer it hears in a
    /// peer table with a slot per member id — the O(n)-per-receiver state
    /// and O(n²) session traffic the scale sweep measures.  `None` (the
    /// default) disables the layer entirely, leaving the paper-scenario
    /// runs bit-identical.
    pub session_announce: Option<SimDuration>,
    /// Announcer rotation stride: in round `r`, only receivers whose
    /// `(node + r) % stride == 0` announce.  `1` (the default) is full
    /// SRM — every member announces every interval.  Large sweep cells use
    /// a constant stride to bound simulated event counts; a stride shared
    /// across cells rescales session traffic by `1/stride` without
    /// changing its growth exponent in `n` or the peer tables' size.
    pub announce_stride: u64,
}

impl Default for SrmConfig {
    fn default() -> SrmConfig {
        SrmConfig {
            total_packets: 1024,
            data_start: SimTime::from_secs(6),
            session_announce: None,
            announce_stride: 1,
        }
    }
}

impl SrmConfig {
    /// Validates invariants.
    ///
    /// # Panics
    ///
    /// Panics with a description of the violated invariant.
    pub fn validate(&self) {
        assert!(self.total_packets > 0, "need at least one packet");
        if let Some(iv) = self.session_announce {
            assert!(iv > SimDuration::ZERO, "announce interval must be positive");
            assert!(self.announce_stride > 0, "announce stride must be positive");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_workload() {
        let c = SrmConfig::default();
        c.validate();
        assert_eq!(c.total_packets, 1024);
        assert_eq!(c.data_start, SimTime::from_secs(6));
        assert!(c.session_announce.is_none(), "session layer is opt-in");
    }

    #[test]
    #[should_panic(expected = "announce stride must be positive")]
    fn zero_stride_rejected_when_session_layer_on() {
        SrmConfig {
            session_announce: Some(SimDuration::from_millis(500)),
            announce_stride: 0,
            ..SrmConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "at least one packet")]
    fn zero_packets_rejected() {
        SrmConfig {
            total_packets: 0,
            ..SrmConfig::default()
        }
        .validate();
    }
}
