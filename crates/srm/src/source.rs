//! The SRM data source: a CBR sender that also answers requests (it is
//! simply a member that happens to hold every packet).

use crate::config::SrmConfig;
use crate::msg::SrmMsg;
use crate::replier::Replier;
use sharqfec_netsim::prelude::*;

/// Data/repair packet size, bytes.
pub(crate) const PACKET_BYTES: u32 = 1000;
/// Inter-packet interval of the CBR source (10 ms = 800 kbit/s at
/// 1000 B).
pub(crate) const SEND_INTERVAL: SimDuration = SimDuration::from_millis(10);

const TOK_SEND: u64 = 0;
const TOK_REPAIR_BASE: u64 = 1 << 32;

/// CBR source agent.
#[derive(Clone, Debug)]
pub struct SrmSource {
    cfg: SrmConfig,
    chan: ChannelId,
    next_seq: u32,
    replier: Replier,
    /// Repairs transmitted (for post-run inspection).
    pub repairs_sent: u32,
}

impl SrmSource {
    /// Creates the source.
    pub fn new(cfg: SrmConfig, chan: ChannelId) -> SrmSource {
        SrmSource {
            replier: Replier::new(&cfg),
            cfg,
            chan,
            next_seq: 0,
            repairs_sent: 0,
        }
    }
}

impl Agent<SrmMsg> for SrmSource {
    fn state_bytes(&self) -> usize {
        std::mem::size_of::<SrmSource>() + self.replier.heap_bytes()
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, SrmMsg>) {
        let delay = self.cfg.data_start.saturating_since(ctx.now());
        ctx.set_timer(delay, TOK_SEND);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SrmMsg>, token: u64) {
        if token == TOK_SEND {
            if self.next_seq < self.cfg.total_packets {
                ctx.multicast(self.chan, SrmMsg::Data { seq: self.next_seq }, PACKET_BYTES);
                self.next_seq += 1;
                if self.next_seq < self.cfg.total_packets {
                    ctx.set_timer(SEND_INTERVAL, TOK_SEND);
                }
            }
            return;
        }
        let seq = (token & 0xFFFF_FFFF) as u32;
        if self.replier.fire(ctx, seq) {
            ctx.multicast(self.chan, SrmMsg::Repair { seq }, PACKET_BYTES);
            self.repairs_sent += 1;
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, SrmMsg>, pkt: &Packet<SrmMsg>) {
        match pkt.payload {
            SrmMsg::Request { seq } => {
                // Only packets already transmitted can be repaired.
                if seq < self.next_seq {
                    let token = TOK_REPAIR_BASE | seq as u64;
                    self.replier.schedule(ctx, seq, pkt.src, token);
                }
            }
            SrmMsg::Repair { seq } => {
                // Another member repaired it first: suppress ours.
                self.replier.heard_repair(ctx, seq);
            }
            SrmMsg::Data { .. } => {}
            // The source keeps no session peer table; its state is
            // measured by the receivers (see `SrmReceiver`).
            SrmMsg::Announce => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replier::{D1, D2, REPAIR_HOLDOFF_FACTOR};
    use crate::SrmReceiver;
    use sharqfec_netsim::agent::Action;
    use sharqfec_netsim::routing::DistanceOracle;
    use sharqfec_netsim::testkit::Rig;

    const CHAN: ChannelId = ChannelId(0);
    /// Packets 0..SENT are on the wire (or held) when a script starts.
    const SENT: u32 = 3;

    /// `agent` at the middle node of `chain(3)` — source on one side, a
    /// peer on the other — with no engine and no network.
    fn rig<A>(agent: A) -> (Rig<A>, [NodeId; 2]) {
        let built = sharqfec_topology::chain(3);
        let rig = Rig {
            agent,
            now: SrmConfig::default().data_start,
            node: built.receivers[0],
            rng: SimRng::new(5),
            oracle: DistanceOracle::compute(&built.topology),
            next_timer: 0,
            probes: ProbeSink::default(),
        };
        (rig, [built.source, built.receivers[1]])
    }

    /// A source that has sent packets `0..SENT`.
    fn sending_source() -> (Rig<SrmSource>, [NodeId; 2]) {
        let (mut d, peers) = rig(SrmSource::new(SrmConfig::default(), CHAN));
        for _ in 0..SENT {
            d.call(|s, ctx| s.on_timer(ctx, TOK_SEND));
        }
        (d, peers)
    }

    #[test]
    fn source_replies_once_per_request_round_and_honours_the_holdoff() {
        let (mut d, [p, q]) = sending_source();
        let request =
            |d: &mut Rig<SrmSource>, from, seq| d.hear(from, CHAN, SrmMsg::Request { seq });
        // Only packets already transmitted can be repaired.
        assert!(request(&mut d, p, SENT).is_empty());

        // The first request arms one reply timer inside [D1·d, (D1+D2)·d].
        let dist = d.oracle.one_way(d.node, p);
        let armed = request(&mut d, p, 1);
        let [Action::SetTimer { id, at, token }] = armed[..] else {
            panic!("one timer, got {armed:?}");
        };
        assert_eq!(token, TOK_REPAIR_BASE | 1);
        let delay = at.saturating_since(d.now);
        assert!(dist.mul_f64(D1) <= delay && delay <= dist.mul_f64(D1 + D2));

        // A duplicate arms nothing; the window folds it in when the round
        // ends: one duplicate request + the repair that beat ours, × 1/4.
        assert!(request(&mut d, q, 1).is_empty());
        let suppressed = d.hear(q, CHAN, SrmMsg::Repair { seq: 1 });
        assert!(matches!(suppressed[..], [Action::CancelTimer(c)] if c == id));
        assert_eq!(d.agent.replier.ave_dup(), 0.5);

        // The heard repair started the hold-off (3·d): requests inside it
        // are ignored, the first one after it is answered.
        assert!(request(&mut d, p, 1).is_empty());
        d.now += dist.mul_f64(REPAIR_HOLDOFF_FACTOR);
        assert_eq!(request(&mut d, p, 1).len(), 1);
        let fired = d.call(|s, ctx| s.on_timer(ctx, TOK_REPAIR_BASE | 1));
        let repair = SrmMsg::Repair { seq: 1 };
        assert!(matches!(&fired[..], [Action::Multicast { payload, .. }] if *payload == repair));
        assert_eq!(d.agent.repairs_sent, 1);
        // The timer is spent, and sending the repair began a new hold-off.
        assert!(d
            .call(|s, ctx| s.on_timer(ctx, TOK_REPAIR_BASE | 1))
            .is_empty());
        assert!(request(&mut d, q, 1).is_empty());
    }

    enum Step {
        Hear(NodeId, SrmMsg),
        /// The reply timer last armed for this sequence number fires.
        Fire(u32),
        Wait(SimDuration),
    }

    /// Runs `steps` and returns what each queued, reply-timer tokens
    /// reduced to their sequence number (the two agents tag them with
    /// different bases).
    fn run<A: Agent<SrmMsg>>(d: &mut Rig<A>, steps: &[Step]) -> Vec<String> {
        let mut tokens: IdHashMap<u32, u64> = IdHashMap::default();
        let mut queued = Vec::new();
        for step in steps {
            let actions = match step {
                Step::Hear(src, msg) => d.hear(*src, CHAN, msg.clone()),
                Step::Fire(seq) => {
                    let token = tokens[seq];
                    d.call(|agent, ctx| agent.on_timer(ctx, token))
                }
                Step::Wait(span) => {
                    d.now += *span;
                    Vec::new()
                }
            };
            let untagged = |action| match action {
                Action::SetTimer { id, at, token } => {
                    tokens.insert(token as u32, token);
                    let token = token & 0xFFFF_FFFF;
                    Action::SetTimer { id, at, token }
                }
                other => other,
            };
            let actions: Vec<Action<SrmMsg>> = actions.into_iter().map(untagged).collect();
            queued.push(format!("{actions:?}"));
        }
        queued
    }

    /// What lets the source and a receiver share `Replier`: a receiver
    /// holding the data answers a request / repair / timer sequence with
    /// the same actions, timer for timer and draw for draw, as the source.
    #[test]
    fn source_and_a_data_complete_receiver_reply_identically() {
        let (mut source, [p, q]) = sending_source();
        let (mut receiver, _) = rig(SrmReceiver::new(SrmConfig::default(), CHAN, p, 3));
        for seq in 0..SENT {
            receiver.hear(p, CHAN, SrmMsg::Data { seq });
        }
        // Getting there drew from each side's RNG and timer counter
        // differently; the script starts them level.
        (source.rng, source.next_timer) = (SimRng::new(9), 100);
        (receiver.rng, receiver.next_timer) = (SimRng::new(9), 100);
        let (request, repair) = (|seq| SrmMsg::Request { seq }, |seq| SrmMsg::Repair { seq });
        let steps = [
            Step::Hear(q, request(1)),
            Step::Hear(p, request(1)), // duplicate
            Step::Hear(q, request(2)),
            Step::Hear(p, repair(1)),  // beats ours: suppressed
            Step::Hear(q, request(1)), // inside the hold-off
            Step::Fire(2),
            Step::Fire(2), // spent
            Step::Wait(SimDuration::from_secs(1)),
            Step::Hear(q, request(1)), // hold-off over
            Step::Hear(q, request(2)),
            Step::Fire(1),
            Step::Fire(2),
        ];
        let replies = run(&mut source, &steps);
        assert_eq!(replies, run(&mut receiver, &steps));
        let count = |what: &str| replies.iter().filter(|r| r.contains(what)).count();
        let seen = (count("SetTimer"), count("CancelTimer"), count("Multicast"));
        assert_eq!(seen, (4, 1, 3), "{replies:#?}");
        assert_eq!(source.agent.repairs_sent, receiver.agent.repairs_sent);
    }
}
