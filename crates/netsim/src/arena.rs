//! Per-run packet arena: one allocation per multicast, handles everywhere
//! else.
//!
//! The old forwarding path wrapped every transmitted packet in an
//! `Rc<Packet<M>>` and cloned the `Rc` once per hop, so a 112-receiver
//! multicast paid ~200 refcount increments/decrements plus a heap
//! allocation per packet.  The arena replaces that with:
//!
//! * one slab slot per in-flight packet, interned at `multicast_from`
//!   time and addressed by a `Copy` [`PacketRef`] handle;
//! * a cached [`PacketHeader`] (source, channel, wire bytes, traffic
//!   class) so the hot forwarding loop reads a 16-byte `Copy` struct
//!   instead of chasing the payload — and classifies the payload once per
//!   packet instead of once per hop;
//! * an explicit reference count equal to the number of `Arrive` events
//!   in the event queue holding the handle.  Each arrival lends its agent
//!   the packet where it lies — zero clones and zero moves — and the
//!   *last* one returns the slot to a free list for the next multicast.
//!
//! The arena is engine-internal: agents still receive `&Packet<M>` and
//! never see a handle.

use crate::channel::ChannelId;
use crate::graph::NodeId;
use crate::metrics::TrafficClass;
use crate::packet::Packet;

/// Handle to an in-flight packet interned in the [`PacketArena`].
///
/// Valid from `insert` until the reference count drops to zero; the
/// engine's invariant is one count per queued `Arrive` event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PacketRef(u32);

/// The forwarding-relevant subset of a packet, cached outside the payload
/// so hop processing never touches `M`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PacketHeader {
    pub src: NodeId,
    pub channel: ChannelId,
    pub bytes: u32,
    pub class: TrafficClass,
}

struct Slot<M> {
    /// `None` once the slot is freed.
    pkt: Option<Packet<M>>,
    header: PacketHeader,
    /// Number of queued `Arrive` events referencing this slot.
    refs: u32,
}

pub(crate) struct PacketArena<M> {
    slots: Vec<Slot<M>>,
    free: Vec<u32>,
    live: usize,
}

impl<M> PacketArena<M> {
    pub fn new() -> PacketArena<M> {
        PacketArena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Packets currently interned (in flight or being delivered).  Diagnostics;
    /// a drained engine must report zero.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Interns a freshly transmitted packet with a reference count of
    /// zero.  The caller forwards it (each queued `Arrive` takes a
    /// reference via [`PacketArena::add_ref`]) and then calls
    /// [`PacketArena::release_orphan`] in case nobody took one.
    pub fn insert(&mut self, pkt: Packet<M>, class: TrafficClass) -> PacketRef {
        self.live += 1;
        let header = PacketHeader {
            src: pkt.src,
            channel: pkt.channel,
            bytes: pkt.bytes,
            class,
        };
        match self.free.pop() {
            Some(i) => {
                let slot = &mut self.slots[i as usize];
                debug_assert!(slot.pkt.is_none() && slot.refs == 0);
                slot.pkt = Some(pkt);
                slot.header = header;
                PacketRef(i)
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("packet arena exceeds u32 slots");
                self.slots.push(Slot {
                    pkt: Some(pkt),
                    header,
                    refs: 0,
                });
                PacketRef(i)
            }
        }
    }

    /// An interned packet, lent where it lies.
    pub fn get(&self, r: PacketRef) -> &Packet<M> {
        let pkt = self.slots[r.0 as usize].pkt.as_ref();
        pkt.expect("packet ref outlived its slot")
    }

    /// Cached header of an interned packet.
    pub fn header(&self, r: PacketRef) -> PacketHeader {
        self.slots[r.0 as usize].header
    }

    /// Takes one reference on behalf of a queued `Arrive` event.
    pub fn add_ref(&mut self, r: PacketRef) {
        self.slots[r.0 as usize].refs += 1;
    }

    /// Drops the reference held by a popped `Arrive` event.  If it was
    /// the last one the packet moves out (no clone) and the slot is
    /// freed; otherwise the packet stays for the remaining arrivals.
    pub fn release(&mut self, r: PacketRef) -> Option<Packet<M>> {
        let slot = &mut self.slots[r.0 as usize];
        debug_assert!(slot.refs > 0, "release without a matching add_ref");
        slot.refs -= 1;
        if slot.refs == 0 {
            let pkt = slot.pkt.take().expect("freed slot still referenced");
            self.free.push(r.0);
            self.live -= 1;
            Some(pkt)
        } else {
            None
        }
    }

    /// Frees a just-inserted packet nobody forwarded (a multicast whose
    /// every first hop was pruned, down, or dropped).  No-op if any
    /// `Arrive` event took a reference.
    pub fn release_orphan(&mut self, r: PacketRef) {
        let slot = &mut self.slots[r.0 as usize];
        if slot.refs == 0 {
            slot.pkt = None;
            self.free.push(r.0);
            self.live -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn pkt(uid: u64) -> Packet<u64> {
        Packet {
            uid,
            src: NodeId(3),
            channel: ChannelId(1),
            sent_at: SimTime::ZERO,
            bytes: 1000,
            // The payload mirrors the uid at full width.  This used to be
            // `uid as u32`, silently aliasing packet identities past 2³²
            // interned payloads on long large-n runs.
            payload: uid,
        }
    }

    #[test]
    fn last_release_moves_the_packet_out_and_recycles_the_slot() {
        let mut a: PacketArena<u64> = PacketArena::new();
        let r = a.insert(pkt(7), TrafficClass::Data);
        a.add_ref(r);
        a.add_ref(r);
        assert_eq!(a.live(), 1);
        assert!(a.release(r).is_none());
        let owned = a.release(r).expect("last reference yields the packet");
        assert_eq!(owned.uid, 7);
        assert_eq!(a.live(), 0);
        // The freed slot is reused by the next insert.
        let r2 = a.insert(pkt(8), TrafficClass::Nack);
        assert_eq!(r2, r);
        assert_eq!(a.header(r2).class, TrafficClass::Nack);
        a.release_orphan(r2);
        assert_eq!(a.live(), 0);
    }

    #[test]
    fn uids_past_u32_boundary_do_not_alias() {
        // Regression: identities at and beyond 2³² must survive interning
        // intact — a u32-truncating mirror would alias 2³² with 0 and
        // 2³² + 7 with 7.
        let mut a: PacketArena<u64> = PacketArena::new();
        let big = 1u64 << 32;
        let r0 = a.insert(pkt(big), TrafficClass::Data);
        let r7 = a.insert(pkt(big + 7), TrafficClass::Data);
        a.add_ref(r0);
        a.add_ref(r7);
        let p0 = a.release(r0).expect("sole reference");
        let p7 = a.release(r7).expect("sole reference");
        assert_eq!((p0.uid, p0.payload), (big, big));
        assert_eq!((p7.uid, p7.payload), (big + 7, big + 7));
        assert_ne!(
            p0.payload as u32 as u64, p0.payload,
            "truncation would alias"
        );
    }

    #[test]
    fn header_caches_class_and_wire_fields() {
        let mut a: PacketArena<u64> = PacketArena::new();
        let r = a.insert(pkt(1), TrafficClass::Repair);
        let h = a.header(r);
        assert_eq!(h.src, NodeId(3));
        assert_eq!(h.channel, ChannelId(1));
        assert_eq!(h.bytes, 1000);
        assert_eq!(h.class, TrafficClass::Repair);
        a.release_orphan(r);
    }

    #[test]
    fn orphan_release_is_a_noop_once_referenced() {
        let mut a: PacketArena<u64> = PacketArena::new();
        let r = a.insert(pkt(1), TrafficClass::Data);
        a.add_ref(r);
        a.release_orphan(r); // someone holds it: must not free
        assert_eq!(a.live(), 1);
        assert!(a.release(r).is_some());
        assert_eq!(a.live(), 0);
    }
}
