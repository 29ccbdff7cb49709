//! Hierarchical receiver-report summarization — the paper's §7 proposal.
//!
//! "One key area where SHARQFEC may assist … would be in solving the RTCP
//! announcement problem.  SHARQFEC's hierarchical session management and
//! repair mechanisms could easily be modified to include summaries of
//! Receiver Report (RR) information, thereby increasing RTP's scalability
//! significantly."
//!
//! Implementation: every member attaches a [`LossReport`] describing its
//! own reception quality to its zone announcements; a ZCR *merges* the
//! reports it heard in its zone into the single report it announces into
//! the parent zone.  Only the members that read reports keep them: a
//! zone's ZCR, and the ZCR of a child zone taking part in the parent —
//! a plain receiver stores none.  The source therefore learns receiver count, worst
//! loss, and mean loss for the whole session from O(zones) traffic instead
//! of RTCP's O(receivers) — the same trick the RTT state plays in §5.1.

/// A summarized receiver report (the RR fields that aggregate losslessly:
/// counts, worst case, and a weighted mean).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LossReport {
    /// Number of receivers summarized in this report.
    pub receivers: u32,
    /// Worst loss fraction any summarized receiver observed.
    pub worst_loss: f64,
    /// Receiver-weighted mean loss fraction.
    pub mean_loss: f64,
}

impl LossReport {
    /// A report for one receiver with the given observed loss fraction.
    pub fn single(loss: f64) -> LossReport {
        let loss = loss.clamp(0.0, 1.0);
        LossReport {
            receivers: 1,
            worst_loss: loss,
            mean_loss: loss,
        }
    }

    /// Merges another report into this one (counts add, worst maxes,
    /// means combine receiver-weighted).
    pub fn merge(&mut self, other: &LossReport) {
        let total = self.receivers + other.receivers;
        if total == 0 {
            return;
        }
        self.mean_loss = (self.mean_loss * self.receivers as f64
            + other.mean_loss * other.receivers as f64)
            / total as f64;
        self.worst_loss = self.worst_loss.max(other.worst_loss);
        self.receivers = total;
    }

    /// Merges an iterator of reports into a single summary.
    pub fn summarize<'a>(reports: impl Iterator<Item = &'a LossReport>) -> Option<LossReport> {
        let mut acc: Option<LossReport> = None;
        for r in reports {
            match &mut acc {
                None => acc = Some(*r),
                Some(a) => a.merge(r),
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_clamps_and_seeds() {
        let r = LossReport::single(1.5);
        assert_eq!(r.receivers, 1);
        assert_eq!(r.worst_loss, 1.0);
        let r = LossReport::single(0.25);
        assert_eq!(r.mean_loss, 0.25);
    }

    #[test]
    fn merge_is_count_weighted() {
        let mut a = LossReport {
            receivers: 3,
            worst_loss: 0.3,
            mean_loss: 0.1,
        };
        let b = LossReport {
            receivers: 1,
            worst_loss: 0.5,
            mean_loss: 0.5,
        };
        a.merge(&b);
        assert_eq!(a.receivers, 4);
        assert_eq!(a.worst_loss, 0.5);
        assert!((a.mean_loss - 0.2).abs() < 1e-12);
    }

    #[test]
    fn merge_is_associative_enough() {
        // Merging in any order gives the same totals.
        let rs = [
            LossReport::single(0.1),
            LossReport::single(0.2),
            LossReport::single(0.6),
        ];
        let fwd = LossReport::summarize(rs.iter()).unwrap();
        let rev = LossReport::summarize(rs.iter().rev()).unwrap();
        assert_eq!(fwd.receivers, 3);
        assert!((fwd.mean_loss - rev.mean_loss).abs() < 1e-12);
        assert_eq!(fwd.worst_loss, rev.worst_loss);
        assert!((fwd.mean_loss - 0.3).abs() < 1e-12);
    }

    #[test]
    fn summarize_empty_is_none() {
        assert_eq!(LossReport::summarize([].iter()), None);
    }
}
