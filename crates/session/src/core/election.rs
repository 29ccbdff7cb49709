//! The ZCR election half of [`SessionCore`] (paper §5.2): periodic
//! challenges to the parent zone's ZCR, the challenge/response distance
//! arithmetic, distance-ordered takeover suppression, and reassert /
//! concede when a takeover is heard.  A child module of `core`, so it
//! reads the per-level state directly and nothing there is more visible
//! than before.

use super::{token, Pending, SessionCore, SessionCtx, KIND_CHALLENGE, KIND_TAKEOVER};
use crate::msg::SessionMsg;
use sharqfec_netsim::probe::{ProbeEvent, ZcrAction};
use sharqfec_netsim::{NodeId, SimDuration};
use sharqfec_scoping::ZoneId;

impl SessionCore {
    /// Whether this node competes in elections for chain level `l`: its own
    /// smallest zone, or a zone whose child it currently represents
    /// (paper §5: "the ZCR for a particular zone participates … also the
    /// next-largest scope zone").
    fn candidate(&self, l: usize) -> bool {
        if self.hier.parent(self.chain[l]).is_none() {
            return false; // root zone: fixed representative, no election
        }
        self.participates(l)
    }

    pub(super) fn arm_challenge(&mut self, ctx: &mut dyn SessionCtx, l: usize) {
        if self.hier.parent(self.chain[l]).is_none() {
            return; // root: no election
        }
        let base = self.cfg.challenge_period;
        let delay = if self.levels[l].zcr == Some(self.node) {
            base.mul_f64(ctx.rng().range_f64(0.9, 1.1))
        } else {
            base.mul_f64(self.cfg.liveness_factor * ctx.rng().range_f64(1.0, 1.1))
        };
        ctx.set_timer(delay, token(KIND_CHALLENGE, l));
    }

    pub(super) fn challenge_tick(&mut self, ctx: &mut dyn SessionCtx, l: usize) {
        if !self.candidate(l) {
            return;
        }
        let now = ctx.now();
        let am_zcr = self.levels[l].zcr == Some(self.node);
        if !am_zcr {
            // Back off while the sitting ZCR is alive, or while the parent
            // zone has not elected a representative yet (top-down order).
            let silence = now.saturating_since(self.levels[l].zcr_heard_at);
            let window = self.cfg.challenge_period.mul_f64(self.cfg.liveness_factor);
            let parent_known = l + 1 < self.levels.len() && self.levels[l + 1].zcr.is_some();
            if (self.levels[l].zcr.is_some() && silence < window) || !parent_known {
                return;
            }
        }
        self.issue_challenge(ctx, l);
    }

    fn issue_challenge(&mut self, ctx: &mut dyn SessionCtx, l: usize) {
        let zone = self.chain[l];
        let parent = self.chain[l + 1];
        let claimed = self.levels[l].my_dist_to_parent;
        // A non-ZCR only gets here via liveness expiry: the seat is vacant.
        let vacant = self.levels[l].zcr != Some(self.node);
        self.levels[l].pending = Some(Pending {
            challenger: self.node,
            claimed,
            heard_at: ctx.now(),
            mine: true,
            vacant,
        });
        ctx.send(
            parent,
            SessionMsg::ZcrChallenge {
                zone,
                challenger: self.node,
                claimed_dist: claimed,
            },
            self.cfg.control_bytes,
        );
    }

    pub(super) fn on_challenge(
        &mut self,
        ctx: &mut dyn SessionCtx,
        zone: ZoneId,
        challenger: NodeId,
        claimed: Option<SimDuration>,
    ) {
        let now = ctx.now();
        // Respond if we represent the parent zone.
        if let Some(parent) = self.hier.parent(zone) {
            if let Some(pl) = self.chain_index(parent) {
                if self.levels[pl].zcr == Some(self.node) {
                    ctx.send(
                        parent,
                        SessionMsg::ZcrResponse {
                            zone,
                            challenger,
                            // The simulator responds within the same event;
                            // a real implementation reports its queueing
                            // delay here.
                            hold: SimDuration::ZERO,
                        },
                        self.cfg.control_bytes,
                    );
                }
            }
        }
        // Election bookkeeping if the zone is in our chain.
        if let Some(l) = self.chain_index(zone) {
            // Corroborate a vacancy claim against our own liveness view:
            // the challenger is not the sitting ZCR *and* we have not
            // heard from that ZCR within the window either.
            let window = self.cfg.challenge_period.mul_f64(self.cfg.liveness_factor);
            let silence = now.saturating_since(self.levels[l].zcr_heard_at);
            let vacant = match self.levels[l].zcr {
                None => true,
                Some(z) => z != challenger && silence >= window,
            };
            self.levels[l].pending = Some(Pending {
                challenger,
                claimed,
                heard_at: now,
                mine: false,
                vacant,
            });
            // Challenge activity counts as ZCR liveness (an election is in
            // progress; don't pile on) — but only from a ZCR we still hear
            // inside the zone.  Challenges travel on the parent channel,
            // which can survive a cut that severs the zone's own channel;
            // a partitioned-off ZCR must not keep its seat alive through
            // election control traffic its zone can no longer benefit from.
            if Some(challenger) == self.levels[l].zcr && self.peer_fresh(l, challenger, now) {
                self.levels[l].zcr_heard_at = now;
                if claimed.is_some() {
                    self.levels[l].link_dist = claimed;
                }
            }
        }
    }

    pub(super) fn on_response(
        &mut self,
        ctx: &mut dyn SessionCtx,
        zone: ZoneId,
        challenger: NodeId,
        hold: SimDuration,
    ) {
        let Some(l) = self.chain_index(zone) else {
            return;
        };
        let Some(pending) = self.levels[l].pending.take() else {
            return;
        };
        if pending.challenger != challenger {
            // Response to a different (raced) challenge; drop ours too —
            // the next periodic round will retry.
            return;
        }
        let now = ctx.now();
        let elapsed = now.saturating_since(pending.heard_at);
        let elapsed = if elapsed >= hold {
            elapsed - hold
        } else {
            SimDuration::ZERO
        };

        let my_dist = if pending.mine {
            // I issued the challenge: elapsed is my full round trip.
            Some(elapsed / 2)
        } else if !self.peer_fresh(l, challenger, now) {
            // A challenger we have not heard inside the zone for a whole
            // liveness window is challenging from across a partition (its
            // challenge reached us via the parent channel).  Our cached
            // RTT to it predates the split, so the overheard measurement
            // would be garbage — often a flattering near-zero distance
            // that then wins elections it should not.
            None
        } else {
            // Paper §5.2: dist = dist_to_challenger + (t_reply − t_challenge)
            //                   − dist_challenger_to_parent   (one-way units)
            match (self.direct_rtt(challenger), pending.claimed) {
                (Some(rtt), Some(claimed)) => {
                    let base = rtt / 2 + elapsed;
                    Some(if base >= claimed {
                        base - claimed
                    } else {
                        SimDuration::ZERO
                    })
                }
                _ => None,
            }
        };
        let Some(my_dist) = my_dist else {
            return;
        };
        self.levels[l].my_dist_to_parent = Some(my_dist);

        if !self.candidate(l) {
            return;
        }
        // Would we beat the sitting ZCR?
        let incumbent_dist = if Some(pending.challenger) == self.levels[l].zcr {
            pending.claimed
        } else {
            self.levels[l].link_dist
        };
        let beats = if pending.vacant {
            // Dead or unknown incumbent: any live candidate with a measured
            // distance competes; takeover suppression sorts out who is
            // closest.
            self.levels[l].zcr != Some(self.node)
        } else {
            match self.levels[l].zcr {
                None => true,
                Some(z) if z == self.node => false,
                Some(_) => match incumbent_dist {
                    Some(d) => my_dist < d,
                    None => false,
                },
            }
        };
        if !beats {
            self.levels[l].usurp_rounds = 0;
            return;
        }
        if !pending.vacant {
            // Usurping a *live* incumbent needs two consecutive beating
            // rounds: a single overheard measurement can be garbage when a
            // link fault re-routes the exchange mid-flight.
            self.levels[l].usurp_rounds = self.levels[l].usurp_rounds.saturating_add(1);
            if self.levels[l].usurp_rounds < 2 {
                return;
            }
        }
        if self.levels[l].takeover.is_none() {
            // Suppression: delay proportional to distance so the closest
            // candidate declares first (paper §5.2: "other potential ZCRs
            // should perform suppression as appropriate").
            let delay = my_dist.mul_f64(ctx.rng().range_f64(
                self.cfg.takeover_c1,
                self.cfg.takeover_c1 + self.cfg.takeover_c2,
            ));
            let id = ctx.set_timer(delay, token(KIND_TAKEOVER, l));
            self.levels[l].takeover = Some((id, my_dist));
        }
    }

    pub(super) fn takeover_fire(&mut self, ctx: &mut dyn SessionCtx, l: usize) {
        let Some((_, my_dist)) = self.levels[l].takeover.take() else {
            return;
        };
        self.declare_takeover(ctx, l, my_dist, ZcrAction::Takeover);
    }

    pub(super) fn declare_takeover(
        &mut self,
        ctx: &mut dyn SessionCtx,
        l: usize,
        my_dist: SimDuration,
        action: ZcrAction,
    ) {
        let zone = self.chain[l];
        let parent = self.chain[l + 1];
        let msg = SessionMsg::ZcrTakeover {
            zone,
            new_zcr: self.node,
            dist_to_parent: my_dist,
        };
        // Two packets: one informs the child zone, one the parent (§5.2).
        ctx.send(zone, msg.clone(), self.cfg.control_bytes);
        ctx.send(parent, msg, self.cfg.control_bytes);
        ctx.probe(ProbeEvent::Zcr {
            zone: zone.idx() as u64,
            action,
            holder: self.node,
        });
        self.set_seat(l, Some(self.node));
        self.levels[l].zcr_heard_at = ctx.now();
        self.levels[l].my_dist_to_parent = Some(my_dist);
        self.levels[l].link_dist = Some(my_dist);
        self.levels[l].usurp_rounds = 0;
    }

    pub(super) fn on_takeover(
        &mut self,
        ctx: &mut dyn SessionCtx,
        zone: ZoneId,
        new_zcr: NodeId,
        dist: SimDuration,
    ) {
        let Some(l) = self.chain_index(zone) else {
            return;
        };
        // Suppress our own pending takeover if the declarer is closer.
        if let Some((id, my_dist)) = self.levels[l].takeover {
            if dist <= my_dist {
                ctx.cancel_timer(id);
                self.levels[l].takeover = None;
            }
        }
        // Sitting ZCR reasserts if it is still strictly closer (§5.2: "the
        // old ZCR will … reassert its superiority").
        if self.levels[l].zcr == Some(self.node) && new_zcr != self.node {
            if !self.zone_fresh(l, ctx.now()) {
                // We are cut off from the zone: the declarer is on the far
                // side of a partition and this takeover reached us through
                // the parent channel.  Neither fight back (reasserting
                // through the parent would flip the far side's freshly
                // elected ZCR and oscillate) nor concede a zone we can
                // still serve on our own side — the announce-time conflict
                // resolution arbitrates once the partition heals.
                return;
            }
            if let Some(mine) = self.levels[l].my_dist_to_parent {
                if mine < dist {
                    self.declare_takeover(ctx, l, mine, ZcrAction::Reassert);
                    return;
                }
            }
        }
        // Adopt — but only a declarer we can actually hear inside the
        // zone.  A takeover can arrive through the parent channel from
        // across a zone partition (the parent's channel survives a cut
        // that severs the zone's); adopting a representative whose
        // announcements cannot reach us would strand the zone behind a
        // silent ZCR and re-trigger elections forever.
        if new_zcr != self.node && !self.peer_fresh(l, new_zcr, ctx.now()) {
            return;
        }
        if new_zcr != self.node {
            // A sitting ZCR stepping aside concedes; everyone else adopts.
            let action = if self.levels[l].zcr == Some(self.node) {
                ZcrAction::Concede
            } else {
                ZcrAction::Adopt
            };
            ctx.probe(ProbeEvent::Zcr {
                zone: zone.idx() as u64,
                action,
                holder: new_zcr,
            });
        }
        self.set_seat(l, Some(new_zcr));
        self.levels[l].zcr_heard_at = ctx.now();
        self.levels[l].link_dist = Some(dist);
        self.levels[l].usurp_rounds = 0;
    }
}
