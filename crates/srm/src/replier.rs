//! SRM's repair-reply machine: the suppressed repair timer any member
//! holding a packet runs when it hears a request for it.

use crate::msg::SrmMsg;
use crate::DELAY_HIGH;
use sharqfec_netsim::adaptive::AdaptiveTimer;
use sharqfec_netsim::prelude::*;

/// Initial repair-timer window factors `[D1·d, (D1+D2)·d]`.
pub(crate) const D1: f64 = 1.0;
pub(crate) const D2: f64 = 1.0;
/// Ignore further requests for a packet for this multiple of `d_AB` after
/// sending its repair (SRM's repair hold-down).
pub(crate) const REPAIR_HOLDOFF_FACTOR: f64 = 3.0;

#[derive(Clone, Debug)]
pub(crate) struct Replier {
    /// Pending repair timers: seq → (timer, hold-off span once the repair
    /// is sent or heard — the requester's distance × the hold-off factor,
    /// worked out when armed, while the requester is at hand).
    pending: IdHashMap<u32, (TimerId, SimDuration)>,
    /// Per-seq hold-down after a repair was sent or heard.
    holdoff: IdHashMap<u32, SimTime>,
    /// The adaptive `[D1·d_AB, (D1+D2)·d_AB]` reply window.
    params: AdaptiveTimer,
}

impl Replier {
    pub(crate) fn new() -> Replier {
        Replier {
            pending: IdHashMap::default(),
            holdoff: IdHashMap::default(),
            params: AdaptiveTimer::new(D1, D2, true, DELAY_HIGH),
        }
    }

    /// A request for `seq`, which the caller holds, arrived from
    /// `requester`: arms the reply timer under `token` unless one is
    /// already pending (a duplicate request, which the window learns from)
    /// or the hold-off after the last repair is still running.
    pub(crate) fn schedule(
        &mut self,
        ctx: &mut Ctx<'_, SrmMsg>,
        seq: u32,
        requester: NodeId,
        token: u64,
    ) {
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
        let factor = ctx
            .rng()
            .range_f64(self.params.lo(), self.params.lo() + self.params.width());
        let timer = ctx.set_timer(d_ab.mul_f64(factor), token);
        let hold = d_ab.mul_f64(REPAIR_HOLDOFF_FACTOR);
        self.pending.insert(seq, (timer, hold));
    }

    /// The reply timer for `seq` fired.  `true` if it was still
    /// unsuppressed — the caller transmits the repair — and the hold-off
    /// starts.
    pub(crate) fn fire(&mut self, ctx: &Ctx<'_, SrmMsg>, seq: u32) -> bool {
        let Some((_, hold)) = self.pending.remove(&seq) else {
            return false;
        };
        self.holdoff.insert(seq, ctx.now() + hold);
        self.params.end_round(1.0);
        true
    }

    /// Another member repaired `seq` first: suppresses ours, if pending,
    /// and starts the hold-off.
    pub(crate) fn heard_repair(&mut self, ctx: &mut Ctx<'_, SrmMsg>, seq: u32) {
        if let Some((timer, hold)) = self.pending.remove(&seq) {
            ctx.cancel_timer(timer);
            self.holdoff.insert(seq, ctx.now() + hold);
            self.params.saw_duplicate();
            self.params.end_round(1.0);
        }
    }

    /// The window's duplicate-pressure EWMA, for the agents' tests.
    #[cfg(test)]
    pub(crate) fn ave_dup(&self) -> f64 {
        self.params.ave_dup()
    }

    /// Resident heap bytes of the two maps.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let map = |cap: usize, v: usize| cap * (size_of::<u32>() + v + size_of::<u64>());
        map(self.pending.capacity(), size_of::<(TimerId, SimDuration)>())
            + map(self.holdoff.capacity(), size_of::<SimTime>())
    }
}
