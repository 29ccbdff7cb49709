//! Per-group receiver bookkeeping: which packet indices are held, the
//! Local Loss Count, and per-zone ZLC / speculative-repair state.

use sharqfec_netsim::agent::TimerId;
use sharqfec_netsim::{SimDuration, SimTime};

/// Compact set of packet indices: bitset words, the first two inline.
///
/// Group indices are dense and small (data `0..k`, FEC a few dozen past
/// `k`), so a `HashSet<u32>` per group — tens of groups per receiver,
/// 10⁵–10⁶ receivers — wasted a heap table plus ~48 bytes of header on a
/// set that fits in one or two machine words — kept inline, so only
/// indices from 128 up reach the heap.  Iteration order is ascending.
#[derive(Clone, Debug, Default)]
struct IndexBitset {
    inline: [u64; 2],
    spill: Vec<u64>,
    len: u32,
}

impl IndexBitset {
    /// Inserts `idx`; `true` if it was absent.
    fn insert(&mut self, idx: u32) -> bool {
        let w = (idx / 64) as usize;
        if w >= 2 + self.spill.len() {
            self.spill.resize(w - 1, 0);
        }
        let word = match w {
            0 | 1 => &mut self.inline[w],
            _ => &mut self.spill[w - 2],
        };
        let bit = 1u64 << (idx % 64);
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
        self.len += 1;
        true
    }

    fn len(&self) -> u32 {
        self.len
    }

    /// Set members in ascending order.
    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        let words = self.inline.iter().chain(&self.spill);
        words.enumerate().flat_map(|(w, &word)| {
            (0..64)
                .filter(move |b| word & (1u64 << b) != 0)
                .map(move |b| (w as u32) * 64 + b)
        })
    }

    fn heap_bytes(&self) -> usize {
        self.spill.capacity() * std::mem::size_of::<u64>()
    }
}

/// Delivery phase of one group (paper §4's two-phase process).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Loss Detection Phase: the group is still on the wire.
    Ldp,
    /// Repair Phase: entered on LDP-timer expiry or on reconstruction.
    Repair,
}

/// One group's state for one zone of the member's chain.
#[derive(Clone, Debug, Default)]
pub struct ZoneState {
    /// Zone Loss Count (max LLC heard in NACKs).
    pub zlc: u32,
    /// Max `needed` count heard in NACKs — the zone's repair demand *net of
    /// upstream redundancy*, which is what the injection EWMA must track so
    /// that nested zones do not double-cover the same losses (paper §3.2:
    /// "Should too much redundancy be injected at one level in the
    /// hierarchy, receivers in subservient zones will add less
    /// redundancy").
    pub zone_needed: u32,
    /// Speculatively queued repairs.
    pub outstanding: u32,
    /// Pending reply timer.
    pub reply_timer: Option<TimerId>,
    /// Whether a repair-pacing chain (spacing timer) is running.
    pub pacing: bool,
    /// One-way distance to the most recent NACKer (reply-timer base).
    pub last_nack_dist: Option<SimDuration>,
    /// Whether the ZCR-injection for this group has fired.
    pub injected: bool,
    /// Whether the ZLC measurement fed the EWMA.
    pub measured: bool,
    /// How many times the ZLC measurement was deferred because no RTT was
    /// known yet (startup ordering — see `measure_fire`).
    pub measure_defers: u8,
}

/// State for one packet group at one session member.
///
/// Indices `0..k` are data, `>= k` FEC.  `k` distinct indices reconstruct
/// the group.  The Local Loss Count (LLC) is the number of indices at or
/// below the highest identifier known to exist that this member has not
/// received — the quantity NACKs advertise and zones aggregate into ZLCs.
#[derive(Clone, Debug)]
pub struct GroupState {
    /// Data packets in this group.
    pub k: u32,
    received: IndexBitset,
    /// Highest packet identifier known to exist (from local receptions or
    /// NACK advertisements); `None` until anything is known.
    max_idx: Option<u32>,
    /// Indices ≤ `max_idx` not yet received (the LLC).
    missing: u32,
    /// Highest LLC this group ever reached (feeds the ZLC EWMA when no
    /// NACK revealed a true ZLC).
    pub peak_llc: u32,
    /// Current phase.
    pub phase: Phase,
    /// Per-zone state, one entry per level of the member's zone chain —
    /// a single allocation per (member, group).
    pub zones: Vec<ZoneState>,
    /// Pending request (NACK) timer.
    pub request_timer: Option<TimerId>,
    /// Request backoff exponent `i` (paper: starts at 1).
    pub i: u32,
    /// Current NACK scope as an index into the member's zone chain.
    pub scope_idx: usize,
    /// NACK attempts at the current scope.
    pub attempts: u32,
    /// Pending LDP timer.
    pub ldp_timer: Option<TimerId>,
    /// When the first packet of this group arrived (for recovery-delay
    /// accounting in the adaptive-timer extension).
    pub first_heard: Option<SimTime>,
    /// When the group became reconstructable.
    pub complete_at: Option<SimTime>,
    /// Highest identifier *reserved* by an announced repair burst still in
    /// flight (paper §4's max-identifier rule).  Kept separate from
    /// `max_idx` so promised-but-unarrived packets never count as losses.
    reserved: u32,
}

impl GroupState {
    /// Fresh state for a group of `k` data packets under a chain of
    /// `levels` zones, with NACKs starting at scope `initial_scope`.
    pub fn new(k: u32, levels: usize, initial_scope: usize) -> GroupState {
        GroupState {
            k,
            received: IndexBitset::default(),
            max_idx: None,
            missing: 0,
            peak_llc: 0,
            phase: Phase::Ldp,
            zones: vec![ZoneState::default(); levels],
            request_timer: None,
            i: 1,
            scope_idx: initial_scope,
            attempts: 0,
            ldp_timer: None,
            first_heard: None,
            complete_at: None,
            reserved: 0,
        }
    }

    /// State for a member that originated the group and holds everything
    /// (the source).
    pub fn complete_source(k: u32, levels: usize) -> GroupState {
        let mut g = GroupState::new(k, levels, 0);
        for idx in 0..k {
            g.received.insert(idx);
        }
        g.max_idx = Some(k.saturating_sub(1));
        g.phase = Phase::Repair;
        g.complete_at = Some(SimTime::ZERO);
        g
    }

    /// Number of distinct indices held.
    pub fn held(&self) -> u32 {
        self.received.len()
    }

    /// All held packet indices, sorted ascending (data first, then FEC) —
    /// what an application would hand to the erasure decoder.
    pub fn held_indices(&self) -> Vec<u32> {
        self.received.iter().collect()
    }

    /// Approximate heap bytes retained by this group's state (bitset
    /// words plus the per-zone entries), for the scaling harness's
    /// resident-state accounting.
    pub fn heap_bytes(&self) -> usize {
        self.received.heap_bytes() + self.zones.capacity() * std::mem::size_of::<ZoneState>()
    }

    /// FEC packets still needed to reconstruct (`needed` in NACKs).
    pub fn deficit(&self) -> u32 {
        self.k.saturating_sub(self.held())
    }

    /// Whether the group can be reconstructed.
    pub fn complete(&self) -> bool {
        self.deficit() == 0
    }

    /// The Local Loss Count.
    pub fn llc(&self) -> u32 {
        self.missing
    }

    /// The largest ZLC known at the scope the next request would use or
    /// any wider one: a NACK there with `llc >= ours` provokes repairs
    /// that reach this member too.
    pub fn covered_by(&self) -> u32 {
        self.zones[self.scope_idx..]
            .iter()
            .map(|z| z.zlc)
            .max()
            .unwrap_or(0)
    }

    /// Highest identifier known to exist.
    pub fn max_idx(&self) -> Option<u32> {
        self.max_idx
    }

    /// The identifier a new repair should use: one past everything known
    /// *or reserved by an announced burst*.
    pub fn next_repair_idx(&self) -> u32 {
        let past_known = match self.max_idx {
            Some(m) => (m + 1).max(self.k),
            None => self.k,
        };
        past_known.max(self.reserved + 1).max(self.k)
    }

    /// Reserves identifiers through `idx` (a repairer announced a burst).
    pub fn reserve(&mut self, idx: u32) {
        self.reserved = self.reserved.max(idx);
    }

    /// Notes that identifier `idx` exists (without receiving it), counting
    /// any newly revealed gaps as losses.  Returns how many new losses were
    /// detected.
    pub fn note_exists(&mut self, idx: u32) -> u32 {
        let prev = self.max_idx;
        let newly = match prev {
            Some(m) if idx <= m => 0,
            Some(m) => idx - m,
            None => idx + 1,
        };
        if newly > 0 {
            self.max_idx = Some(idx);
            self.missing += newly;
            self.peak_llc = self.peak_llc.max(self.missing);
        }
        newly
    }

    /// Receives packet `idx`.  Returns `true` if it was new.
    pub fn receive(&mut self, idx: u32) -> bool {
        // Identifiers strictly below idx are revealed (and counted lost if
        // unseen); idx itself arrives in hand, so it is never transiently
        // counted as missing.
        let was_known = matches!(self.max_idx, Some(m) if m >= idx);
        if idx > 0 {
            self.note_exists(idx - 1);
        }
        if !was_known {
            self.max_idx = Some(idx);
        }
        if self.received.insert(idx) {
            if was_known {
                // It had been counted among the missing.
                debug_assert!(self.missing > 0);
                self.missing -= 1;
            }
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_reception_counts_no_losses() {
        let mut g = GroupState::new(4, 1, 0);
        for idx in 0..4 {
            assert!(g.receive(idx));
        }
        assert_eq!(g.llc(), 0);
        assert_eq!(g.peak_llc, 0);
        assert!(g.complete());
        assert_eq!(g.deficit(), 0);
    }

    #[test]
    fn gaps_raise_llc_and_repairs_lower_it() {
        let mut g = GroupState::new(4, 1, 0);
        g.receive(0);
        g.receive(3); // gap: 1, 2 missing
        assert_eq!(g.llc(), 2);
        assert_eq!(g.peak_llc, 2);
        assert_eq!(g.deficit(), 2);
        // FEC repairs with fresh identifiers don't reduce the loss count
        // for identifiers 1,2 but do reduce the deficit.
        g.receive(4);
        assert_eq!(g.llc(), 2);
        assert_eq!(g.deficit(), 1);
        g.receive(5);
        assert!(g.complete());
        assert_eq!(g.peak_llc, 2);
    }

    #[test]
    fn advertised_max_reveals_losses() {
        let mut g = GroupState::new(16, 2, 0);
        g.receive(0);
        assert_eq!(g.llc(), 0);
        // A NACK advertises identifier 17 (16 data + 2 FEC were sent).
        let newly = g.note_exists(17);
        assert_eq!(newly, 17);
        assert_eq!(g.llc(), 17);
        assert_eq!(g.deficit(), 15);
        // Re-advertising doesn't double-count.
        assert_eq!(g.note_exists(17), 0);
        assert_eq!(g.note_exists(5), 0);
    }

    #[test]
    fn duplicate_reception_is_idempotent() {
        let mut g = GroupState::new(4, 1, 0);
        assert!(g.receive(2));
        assert!(!g.receive(2));
        assert_eq!(g.held(), 1);
        assert_eq!(g.llc(), 2); // identifiers 0,1 revealed missing
        assert!(g.receive(200) && !g.receive(200)); // past the inline words
        assert_eq!(g.held_indices(), [2, 200]);
    }

    #[test]
    fn next_repair_idx_never_collides() {
        let mut g = GroupState::new(4, 1, 0);
        assert_eq!(g.next_repair_idx(), 4); // nothing known: first FEC id
        g.receive(0);
        assert_eq!(g.next_repair_idx(), 4); // ids 0..=0 known, FEC starts at k
        g.note_exists(6);
        assert_eq!(g.next_repair_idx(), 7);
    }

    #[test]
    fn source_state_is_born_complete() {
        let g = GroupState::complete_source(16, 1);
        assert!(g.complete());
        assert_eq!(g.held(), 16);
        assert_eq!(g.llc(), 0);
        assert_eq!(g.phase, Phase::Repair);
        assert_eq!(g.next_repair_idx(), 16);
    }

    #[test]
    fn per_zone_state_is_one_allocation_no_larger_than_the_nine_it_replaced() {
        // The nine per-level vectors held 4+4+4+16+1+16+1+1+1 bytes a level.
        let g = GroupState::new(16, 3, 0);
        assert_eq!(g.zones.len(), 3);
        assert_eq!(g.heap_bytes(), 3 * 48);
    }

    #[test]
    fn covered_by_ignores_scopes_narrower_than_the_next_request() {
        let mut g = GroupState::new(16, 3, 0);
        g.zones[0].zlc = 5;
        g.zones[1].zlc = 2;
        assert_eq!(g.covered_by(), 5);
        g.scope_idx = 1;
        assert_eq!(g.covered_by(), 2);
        g.scope_idx = 2;
        assert_eq!(g.covered_by(), 0);
    }

    #[test]
    fn first_packet_mid_group_reveals_predecessors() {
        let mut g = GroupState::new(8, 1, 0);
        g.receive(5);
        assert_eq!(g.llc(), 5); // 0..5 missing
        assert_eq!(g.held(), 1);
    }
}
