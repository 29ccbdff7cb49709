//! The SRM data source: a CBR sender that also answers requests (it is
//! simply a member that happens to hold every packet).

use crate::adaptive_window;
use crate::config::SrmConfig;
use crate::msg::SrmMsg;
use sharqfec_netsim::adaptive::AdaptiveTimer;
use sharqfec_netsim::prelude::*;

const TOK_SEND: u64 = 0;
const TOK_REPAIR_BASE: u64 = 1 << 32;

/// CBR source agent.
pub struct SrmSource {
    cfg: SrmConfig,
    chan: ChannelId,
    next_seq: u32,
    /// Pending repair timers: seq → (timer, requester distance).
    pending: IdHashMap<u32, (TimerId, SimDuration)>,
    /// Per-seq hold-down after a repair was sent or heard.
    holdoff: IdHashMap<u32, SimTime>,
    params: AdaptiveTimer,
    /// Repairs transmitted (for post-run inspection).
    pub repairs_sent: u32,
}

impl SrmSource {
    /// Creates the source.
    pub fn new(cfg: SrmConfig, chan: ChannelId) -> SrmSource {
        let params = adaptive_window(cfg.d1, cfg.d2, cfg.adaptive);
        SrmSource {
            cfg,
            chan,
            next_seq: 0,
            pending: IdHashMap::default(),
            holdoff: IdHashMap::default(),
            params,
            repairs_sent: 0,
        }
    }

    fn schedule_repair(&mut self, ctx: &mut Ctx<'_, SrmMsg>, seq: u32, requester: NodeId) {
        if self.pending.contains_key(&seq) {
            self.params.saw_duplicate();
            return;
        }
        if let Some(&until) = self.holdoff.get(&seq) {
            if ctx.now() < until {
                return;
            }
        }
        let d_ab = ctx.one_way(requester);
        let delay = d_ab.mul_f64(
            ctx.rng()
                .range_f64(self.params.lo(), self.params.lo() + self.params.width()),
        );
        let id = ctx.set_timer(delay, TOK_REPAIR_BASE | seq as u64);
        self.pending.insert(seq, (id, d_ab));
    }
}

impl Agent<SrmMsg> for SrmSource {
    fn state_bytes(&self) -> usize {
        use std::mem::size_of;
        let map = |cap: usize, v: usize| cap * (size_of::<u32>() + v + size_of::<u64>());
        size_of::<SrmSource>()
            + map(self.pending.capacity(), size_of::<(TimerId, SimDuration)>())
            + map(self.holdoff.capacity(), size_of::<SimTime>())
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, SrmMsg>) {
        let delay = self.cfg.data_start.saturating_since(ctx.now());
        ctx.set_timer(delay, TOK_SEND);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SrmMsg>, token: u64) {
        if token == TOK_SEND {
            if self.next_seq < self.cfg.total_packets {
                ctx.multicast(
                    self.chan,
                    SrmMsg::Data { seq: self.next_seq },
                    self.cfg.packet_bytes,
                );
                self.next_seq += 1;
                if self.next_seq < self.cfg.total_packets {
                    ctx.set_timer(self.cfg.send_interval, TOK_SEND);
                }
            }
            return;
        }
        let seq = (token & 0xFFFF_FFFF) as u32;
        if let Some((_, d_ab)) = self.pending.remove(&seq) {
            ctx.multicast(self.chan, SrmMsg::Repair { seq }, self.cfg.packet_bytes);
            self.repairs_sent += 1;
            self.holdoff.insert(
                seq,
                ctx.now() + d_ab.mul_f64(self.cfg.repair_holdoff_factor),
            );
            self.params.end_round(1.0);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, SrmMsg>, pkt: &Packet<SrmMsg>) {
        match pkt.payload {
            SrmMsg::Request { seq } => {
                // Only packets already transmitted can be repaired.
                if seq < self.next_seq {
                    self.schedule_repair(ctx, seq, pkt.src);
                }
            }
            SrmMsg::Repair { seq } => {
                // Another member repaired it first: suppress ours.
                if let Some((id, d_ab)) = self.pending.remove(&seq) {
                    ctx.cancel_timer(id);
                    self.holdoff.insert(
                        seq,
                        ctx.now() + d_ab.mul_f64(self.cfg.repair_holdoff_factor),
                    );
                    self.params.saw_duplicate();
                    self.params.end_round(1.0);
                }
            }
            SrmMsg::Data { .. } => {}
            // The source keeps no session peer table; its state is
            // measured by the receivers (see `SrmReceiver`).
            SrmMsg::Announce => {}
        }
    }
}
