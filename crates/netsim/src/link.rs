//! Link specification and per-direction run-time state.

use crate::graph::{LinkParams, NodeId};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Static description of an undirected link.
#[derive(Clone, Debug)]
pub struct LinkSpec {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Physical parameters (latency, bandwidth, loss).
    pub params: LinkParams,
}

impl LinkSpec {
    /// The endpoint opposite `from`, if `from` is an endpoint at all.
    pub fn other(&self, from: NodeId) -> Option<NodeId> {
        if from == self.a {
            Some(self.b)
        } else if from == self.b {
            Some(self.a)
        } else {
            None
        }
    }
}

/// One direction of a link at run time: its transmit queue, its
/// Gilbert–Elliott chain state and its own loss stream.  The queue is an
/// infinite FIFO (store-and-forward), the same abstraction ns-2's DropTail
/// queue provides when it never overflows — at the paper's 800 kbit/s
/// workload on 10/45 Mbit/s links, queues stay far from any realistic
/// limit.  Only the direction's transmitting endpoint touches it, so loss
/// draws depend on that direction's own history alone.
#[derive(Clone, Debug)]
pub struct LinkDir {
    /// When the outgoing serializer frees up.
    pub busy_until: SimTime,
    /// Gilbert–Elliott chain state (`true` = bad); ignored by the
    /// Bernoulli loss model.
    pub bad: bool,
    /// The stream this direction's loss samples draw from.
    pub loss: SimRng,
}

impl LinkDir {
    /// An idle direction in the good state, sampling loss from `loss`.
    pub fn new(loss: SimRng) -> LinkDir {
        LinkDir {
            busy_until: SimTime::ZERO,
            bad: false,
            loss,
        }
    }

    /// Enqueues a transmission of `bytes` at time `now`.  Returns the
    /// arrival time at the far end and updates the serializer.
    pub fn transmit(&mut self, params: &LinkParams, now: SimTime, bytes: u32) -> SimTime {
        let tx = match params.bandwidth.as_bps() {
            Some(bps) => SimDuration::transmission(bytes, bps),
            None => SimDuration::ZERO,
        };
        let done = self.busy_until.max(now) + tx;
        self.busy_until = done;
        done + params.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn idle() -> LinkDir {
        LinkDir::new(SimRng::new(0))
    }

    #[test]
    fn other_endpoint() {
        let s = LinkSpec {
            a: NodeId(0),
            b: NodeId(1),
            params: LinkParams::lossless(ms(1), 800_000),
        };
        assert_eq!(s.other(NodeId(0)), Some(NodeId(1)));
        assert_eq!(s.other(NodeId(1)), Some(NodeId(0)));
        assert_eq!(s.other(NodeId(9)), None);
    }

    #[test]
    fn idle_link_arrival_is_tx_plus_latency() {
        let p = LinkParams::lossless(ms(10), 800_000); // 1000B => 10ms tx
        let arrive = idle().transmit(&p, SimTime::ZERO, 1000);
        assert_eq!(arrive, SimTime::from_millis(20));
    }

    #[test]
    fn back_to_back_packets_queue_fifo() {
        let p = LinkParams::lossless(ms(10), 800_000);
        let mut d = idle();
        let a1 = d.transmit(&p, SimTime::ZERO, 1000);
        let a2 = d.transmit(&p, SimTime::ZERO, 1000);
        assert_eq!(a1, SimTime::from_millis(20));
        assert_eq!(a2, SimTime::from_millis(30)); // waits for serializer
    }

    #[test]
    fn directions_do_not_interfere() {
        let p = LinkParams::lossless(ms(10), 800_000);
        let mut link = [idle(), idle()];
        let a1 = link[0].transmit(&p, SimTime::ZERO, 1000);
        let a2 = link[1].transmit(&p, SimTime::ZERO, 1000);
        assert_eq!(a1, a2); // full duplex
    }

    #[test]
    fn serializer_frees_up_over_time() {
        let p = LinkParams::lossless(ms(0), 800_000);
        let mut d = idle();
        let _ = d.transmit(&p, SimTime::ZERO, 1000); // busy till 10ms
        let a = d.transmit(&p, SimTime::from_millis(50), 1000);
        assert_eq!(a, SimTime::from_millis(60)); // no residual queueing
    }

    #[test]
    fn infinite_bandwidth_is_latency_only() {
        let p = LinkParams::lossless_infinite(ms(7));
        let a = idle().transmit(&p, SimTime::from_millis(3), 123456);
        assert_eq!(a, SimTime::from_millis(10));
    }
}
