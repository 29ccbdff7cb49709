//! Framing of an application byte stream into SHARQFEC packet groups.
//!
//! The simulator models packets abstractly, but a real deployment (and the
//! examples in this repository) must turn a byte object — the paper's
//! motivating "large newspaper" or a software update — into fixed-size
//! packets grouped `k` at a time.  [`GroupEncoder`] performs that split
//! (padding the tail group) and [`GroupDecoder`] reassembles the object
//! from whichever `k`-subsets of each group arrived.
//!
//! Frame layout: the object length is prepended as an 8-byte little-endian
//! header so the decoder can strip tail padding; everything after it is raw
//! object bytes.
//!
//! Each side moves the object through few buffers.  An [`EncodedObject`]
//! holds one buffer per encoding range, each group in it one contiguous
//! `(k + h) · payload_len` run filled straight from the object, parity
//! written behind the data in place.  The decoder keeps the header apart
//! and copies every arriving data packet directly into its slot of one
//! frame buffer that starts at object byte 0, holds parity only for groups
//! that are still short, rebuilds nothing but the missing data packets,
//! and hands the frame buffer over as the object where it lies.

use std::{iter, mem, num::NonZeroUsize, ops::Range, panic, sync::OnceLock, thread};

use crate::codec::{DecodeScratch, GroupCodec};
use crate::{FecError, MAX_GROUP};

/// Header bytes prepended to the object (little-endian u64 length).
pub const FRAME_HEADER_LEN: usize = 8;

/// One encoded packet group, borrowed from its [`EncodedObject`]: `k` data
/// packets followed by `h` parity packets, all `payload_len` bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodedGroup<'a> {
    /// Group sequence number, starting at 0.
    pub group_id: u64,
    payload_len: usize,
    /// Packet `i` at offset `i · payload_len`.
    bytes: &'a [u8],
}

impl<'a> EncodedGroup<'a> {
    /// Iterates `(index, payload)` over all `k + h` packets of the group.
    pub fn packets(&self) -> impl Iterator<Item = (usize, &'a [u8])> {
        self.bytes.chunks_exact(self.payload_len).enumerate()
    }

    /// Packet `index` of the group: data for `0..k`, parity for `k..k+h`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= k + h`.
    pub fn packet(&self, index: usize) -> &'a [u8] {
        &self.bytes[index * self.payload_len..(index + 1) * self.payload_len]
    }
}

/// An object's encoded groups, in one buffer per range of groups that
/// [`GroupEncoder::encode_object`] encoded on one thread.
#[derive(Debug, Clone)]
pub struct EncodedObject {
    n_groups: usize,
    payload_len: usize,
    /// `(k + h) · payload_len`.
    group_len: usize,
    /// Groups per range: group `g` is group `g % per` of range `g / per`.
    per: usize,
    /// Each range's groups back to back.
    ranges: Vec<Vec<u8>>,
}

impl EncodedObject {
    /// Number of groups.
    pub fn len(&self) -> usize {
        self.n_groups
    }

    /// Whether there are no groups (never: an object spans at least one).
    pub fn is_empty(&self) -> bool {
        self.n_groups == 0
    }

    /// Group `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g >= len()`.
    pub fn group(&self, g: usize) -> EncodedGroup<'_> {
        let size = self.group_len;
        EncodedGroup {
            group_id: g as u64,
            payload_len: self.payload_len,
            bytes: &self.ranges[g / self.per][g % self.per * size..][..size],
        }
    }

    /// Iterates the groups in order.
    pub fn iter(&self) -> Groups<'_> {
        iter::repeat(self)
            .zip(0..self.n_groups)
            .map(|(o, g)| o.group(g))
    }
}

/// The groups of an [`EncodedObject`], in order.
pub type Groups<'a> = iter::Map<
    iter::Zip<iter::Repeat<&'a EncodedObject>, Range<usize>>,
    fn((&'a EncodedObject, usize)) -> EncodedGroup<'a>,
>;

impl<'a> IntoIterator for &'a EncodedObject {
    type Item = EncodedGroup<'a>;
    type IntoIter = Groups<'a>;

    fn into_iter(self) -> Groups<'a> {
        self.iter()
    }
}

/// Splits a byte object into packet groups and encodes parity for each.
#[derive(Debug, Clone)]
pub struct GroupEncoder {
    codec: GroupCodec,
    payload_len: usize,
}

impl GroupEncoder {
    /// Creates an encoder producing groups of `k` data + `h` parity packets
    /// of `payload_len` bytes each.
    pub fn new(k: usize, h: usize, payload_len: usize) -> Result<GroupEncoder, FecError> {
        if payload_len == 0 {
            return Err(FecError::EmptyShards);
        }
        Ok(GroupEncoder {
            codec: GroupCodec::new(k, h)?,
            payload_len,
        })
    }

    /// The underlying codec.
    pub fn codec(&self) -> &GroupCodec {
        &self.codec
    }

    /// Packet payload size in bytes.
    pub fn payload_len(&self) -> usize {
        self.payload_len
    }

    /// Number of groups needed for an object of `object_len` bytes.
    pub fn groups_for(&self, object_len: usize) -> usize {
        let total = FRAME_HEADER_LEN + object_len;
        let group_bytes = self.codec.k() * self.payload_len;
        total.div_ceil(group_bytes)
    }

    /// Encodes a whole object into groups.
    pub fn encode_object(&self, object: &[u8]) -> Result<EncodedObject, FecError> {
        self.encode_split(object, cores())
    }

    /// [`GroupEncoder::encode_object`] with its groups filled and encoded
    /// in `ranges` contiguous ranges, one thread and one buffer each.
    fn encode_split(&self, object: &[u8], ranges: usize) -> Result<EncodedObject, FecError> {
        let (len, group_len) = (self.payload_len, self.codec.n() * self.payload_len);
        let n_groups = self.groups_for(object.len());
        let per = n_groups.div_ceil(ranges);
        // Each range's buffer is only named here; its worker reserves and
        // writes it, so the pages are first touched in parallel.
        let mut bufs = vec![Vec::new(); n_groups.div_ceil(per)];
        split(bufs.iter_mut().enumerate(), |(r, buf)| {
            let groups = r * per..n_groups.min(r * per + per);
            buf.reserve_exact(groups.len() * group_len);
            groups.into_iter().try_for_each(|g| {
                self.fill(buf, g, object);
                let at = buf.len() - group_len;
                self.codec.encode_flat(&mut buf[at..], len)
            })
        })?;
        Ok(EncodedObject {
            n_groups,
            payload_len: len,
            group_len,
            per,
            ranges: bufs,
        })
    }

    /// Appends group `g`'s window of the framed stream — header, object,
    /// zero padding — to `bytes`, then zeroed space for the parity
    /// packets.  The stream itself is never materialized; the header spans
    /// several groups when a group is under 8 bytes.
    fn fill(&self, bytes: &mut Vec<u8>, g: usize, object: &[u8]) {
        let group_bytes = self.codec.k() * self.payload_len;
        let end = bytes.len() + self.codec.n() * self.payload_len;
        let header = (object.len() as u64).to_le_bytes();
        let lo = g * group_bytes;
        if lo < FRAME_HEADER_LEN {
            bytes.extend_from_slice(&header[lo..FRAME_HEADER_LEN.min(lo + group_bytes)]);
        }
        let from = lo.saturating_sub(FRAME_HEADER_LEN);
        let to = (lo + group_bytes)
            .saturating_sub(FRAME_HEADER_LEN)
            .min(object.len());
        if from < to {
            bytes.extend_from_slice(&object[from..to]);
        }
        bytes.resize(end, 0);
    }
}

/// Cores this process may run on, looked up once.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Runs `work` on every range: the first on the caller's thread, each other
/// on a scoped thread of its own.  Groups share nothing, so the bytes are a
/// serial walk's.  Returns the lowest-indexed failing range's first error;
/// a worker's panic resumes here.
fn split<R: Send>(
    ranges: impl Iterator<Item = R>,
    work: impl Fn(R) -> Result<(), FecError> + Sync,
) -> Result<(), FecError> {
    let mut ranges = ranges.peekable();
    let first = ranges.next().expect("an object spans at least one group");
    if ranges.peek().is_none() {
        return work(first);
    }
    thread::scope(|s| {
        let work = &work;
        let workers: Vec<_> = ranges.map(|r| s.spawn(move || work(r))).collect();
        workers.into_iter().fold(work(first), |done, w| {
            done.and(w.join().unwrap_or_else(|p| panic::resume_unwind(p)))
        })
    })
}

/// Words in a bitmap over one group's packet indices.
const INDEX_WORDS: usize = MAX_GROUP.div_ceil(64);

/// What a [`GroupDecoder`] holds for one group besides its data packets'
/// slots in the frame buffer.
#[derive(Debug, Clone, Default)]
struct GroupSlot {
    /// Bitmap over the group's `k + h` packet indices: which are held.
    held: [u64; INDEX_WORDS],
    /// The held parity packets, packet `k + j` at offset `j · payload_len`.
    /// Allocated when the first one is kept, released once the group's data
    /// packets are all there.
    parity: Vec<u8>,
}

impl GroupSlot {
    fn has(&self, index: usize) -> bool {
        self.held[index / 64] & (1 << (index % 64)) != 0
    }

    fn set(&mut self, index: usize) {
        self.held[index / 64] |= 1 << (index % 64);
    }

    /// Distinct packets held, data and parity.
    fn count(&self) -> usize {
        self.held.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether all of data packets `0..k` are held.
    fn data_complete(&self, k: usize) -> bool {
        (0..k).all(|i| self.has(i))
    }

    /// The group's data is whole: parity has nothing left to rebuild.
    fn release_parity(&mut self, k: usize) {
        self.held = [0; INDEX_WORDS];
        (0..k).for_each(|i| self.set(i));
        self.parity = Vec::new();
    }
}

/// Reassembles an object from per-group packet subsets.
#[derive(Debug)]
pub struct GroupDecoder {
    codec: GroupCodec,
    payload_len: usize,
    n_groups: usize,
    /// `n_groups · k · payload_len`, the framed stream's, overflow-checked.
    frame_len: usize,
    /// The framed stream's first bytes: the object's length.
    header: [u8; FRAME_HEADER_LEN],
    /// The rest of the framed stream, object byte 0 first: data packet `i`
    /// of group `g` starts at stream offset `(g · k + i) · payload_len`
    /// (see [`spans`]), arrives there and is rebuilt there.  Empty until
    /// the first `push`; handed over by `finish`.
    frame: Vec<u8>,
    /// Per-group arrival state; empty until the first `push`.
    slots: Vec<GroupSlot>,
}

impl GroupDecoder {
    /// Creates a decoder for an object spanning `n_groups` groups with the
    /// same shape parameters as the encoder.
    ///
    /// Nothing sized by the object is allocated until the first
    /// [`GroupDecoder::push`]; an object too large to address is refused
    /// here with [`FecError::ObjectTooLarge`], and one of zero groups with
    /// [`FecError::ZeroGroups`].
    pub fn new(
        k: usize,
        h: usize,
        payload_len: usize,
        n_groups: usize,
    ) -> Result<GroupDecoder, FecError> {
        if payload_len == 0 {
            return Err(FecError::EmptyShards);
        }
        if n_groups == 0 {
            return Err(FecError::ZeroGroups);
        }
        let codec = GroupCodec::new(k, h)?;
        let frame_len = n_groups
            .checked_mul(k)
            .and_then(|packets| packets.checked_mul(payload_len))
            .filter(|&bytes| isize::try_from(bytes).is_ok())
            .ok_or(FecError::ObjectTooLarge)?;
        Ok(GroupDecoder {
            codec,
            payload_len,
            n_groups,
            frame_len,
            header: [0; FRAME_HEADER_LEN],
            frame: Vec::new(),
            slots: Vec::new(),
        })
    }

    /// Feeds one received packet.  Duplicate `(group, index)` pairs are
    /// ignored (multicast repair traffic routinely duplicates packets), and
    /// so is parity for a group that already holds `k` packets.
    pub fn push(&mut self, group_id: u64, index: usize, payload: &[u8]) -> Result<(), FecError> {
        let g = match usize::try_from(group_id) {
            Ok(g) if g < self.n_groups => g,
            _ => return Err(FecError::BadFrame("group id beyond object")),
        };
        if index >= self.codec.n() {
            return Err(FecError::IndexOutOfRange {
                index,
                group: self.codec.n(),
            });
        }
        if payload.len() != self.payload_len {
            return Err(FecError::UnequalShardLengths);
        }
        if self.slots.is_empty() {
            self.frame = vec![0; self.frame_len.saturating_sub(FRAME_HEADER_LEN)];
            self.slots.resize_with(self.n_groups, GroupSlot::default);
        }
        let (k, len) = (self.codec.k(), self.payload_len);
        let slot = &mut self.slots[g];
        if slot.has(index) {
            return Ok(()); // duplicate: drop silently
        }
        if index < k {
            let (head, body) = spans((g * k + index) * len, len);
            let (to_head, to_body) = payload.split_at(head.len());
            self.header[head].copy_from_slice(to_head);
            self.frame[body].copy_from_slice(to_body);
            slot.set(index);
            if !slot.parity.is_empty() && slot.data_complete(k) {
                slot.release_parity(k);
            }
        } else if slot.count() < k {
            if slot.parity.is_empty() {
                // `finish` rebuilds a group under the header behind its
                // parity: room for its data too.
                let data = if g * k * len < FRAME_HEADER_LEN { k } else { 0 };
                slot.parity = Vec::with_capacity((self.codec.h() + data) * len);
                slot.parity.resize(self.codec.h() * len, 0);
            }
            let at = (index - k) * len;
            slot.parity[at..at + len].copy_from_slice(payload);
            slot.set(index);
        }
        Ok(())
    }

    /// Distinct packets held for group `g` (0 before the first `push`).
    fn held(&self, g: usize) -> usize {
        self.slots.get(g).map_or(0, GroupSlot::count)
    }

    /// Whether group `g` has enough packets to reconstruct.
    pub fn group_complete(&self, group_id: u64) -> bool {
        usize::try_from(group_id).is_ok_and(|g| g < self.n_groups && self.held(g) >= self.codec.k())
    }

    /// How many more packets group `g` needs — the quantity a SHARQFEC NACK
    /// carries.
    pub fn deficit(&self, group_id: u64) -> usize {
        match usize::try_from(group_id) {
            Ok(g) if g < self.n_groups => self.codec.k().saturating_sub(self.held(g)),
            _ => 0,
        }
    }

    /// Whether the whole object can be reconstructed.
    pub fn complete(&self) -> bool {
        (0..self.n_groups).all(|g| self.held(g) >= self.codec.k())
    }

    /// Reconstructs the object and hands it over, leaving the decoder as
    /// [`GroupDecoder::new`] made it: a second `finish` without new packets
    /// finds every group short.  Fails, keeping everything pushed so far,
    /// if any group is still short.
    pub fn finish(&mut self) -> Result<Vec<u8>, FecError> {
        self.finish_split(cores())
    }

    /// [`GroupDecoder::finish`] with the missing data rebuilt in `ranges`
    /// contiguous ranges of groups, one thread each.
    fn finish_split(&mut self, ranges: usize) -> Result<Vec<u8>, FecError> {
        let (codec, k, len) = (&self.codec, self.codec.k(), self.payload_len);
        if let Some(got) = (0..self.n_groups)
            .map(|g| self.held(g))
            .find(|&got| got < k)
        {
            return Err(FecError::NotEnoughShards { needed: k, got });
        }
        if self.frame_len < FRAME_HEADER_LEN {
            return Err(FecError::BadFrame("object shorter than header"));
        }
        // The first range takes every group under the header, and rebuilds
        // each behind its parity and copies it back.  Every other group's
        // data slots are the object's layout already, so only what never
        // arrived is computed and nothing is copied.  One decode scratch
        // serves every group of a range.
        let gb = k * len;
        let head = FRAME_HEADER_LEN.div_ceil(gb);
        let per = self.n_groups.div_ceil(ranges).max(head);
        let (first, rest) = self.frame.split_at_mut(per * gb - FRAME_HEADER_LEN);
        let frames = iter::once(first).chain(rest.chunks_mut(per * gb));
        let headers = iter::once(Some(&mut self.header)).chain(iter::repeat_with(|| None));
        let ranges = self.slots.chunks_mut(per).zip(frames).zip(headers);
        split(ranges, |((slots, frame), mut header)| {
            let mut scratch = DecodeScratch::default();
            // Stream offset of the range's first group, as `spans` reads it.
            let base = FRAME_HEADER_LEN * usize::from(header.is_none());
            for (j, slot) in slots.iter_mut().enumerate() {
                let (to_head, to_body) = spans(base + j * gb, gb);
                if slot.data_complete(k) {
                    continue;
                } else if to_head.is_empty() {
                    let (data, parity) = (&mut frame[to_body], &slot.parity);
                    codec.reconstruct_flat(data, parity, len, |i| slot.has(i), &mut scratch)?;
                } else {
                    let header = header
                        .as_deref_mut()
                        .expect("the first range has the header");
                    let mut group = mem::take(&mut slot.parity);
                    group.extend_from_slice(&header[to_head.clone()]);
                    group.extend_from_slice(&frame[to_body.clone()]);
                    let (parity, data) = group.split_at_mut(codec.h() * len);
                    codec.reconstruct_flat(data, parity, len, |i| slot.has(i), &mut scratch)?;
                    let (from_head, from_body) = data.split_at(to_head.len());
                    header[to_head].copy_from_slice(from_head);
                    frame[to_body].copy_from_slice(from_body);
                }
                slot.release_parity(k);
            }
            Ok(())
        })?;
        let object_len = match usize::try_from(u64::from_le_bytes(self.header)) {
            Ok(n) if n <= self.frame.len() => n,
            _ => return Err(FecError::BadFrame("length header exceeds payload")),
        };
        self.slots.clear();
        let mut object = mem::take(&mut self.frame);
        object.truncate(object_len);
        Ok(object)
    }
}

/// Where `len` bytes at framed-stream offset `at` lie: the part in the
/// decoder's header, then the part in its frame.
fn spans(at: usize, len: usize) -> (Range<usize>, Range<usize>) {
    let (h, end) = (FRAME_HEADER_LEN, at + len);
    let head = at.min(h)..end.min(h);
    (head, at.saturating_sub(h)..end.saturating_sub(h))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn object(len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 37 + 11) % 256) as u8).collect()
    }

    /// Encodes and decodes `obj` in 1, 2, 3, `n_groups` and `n_groups + 1`
    /// ranges, each group losing its first `drop_each` packets: the groups
    /// must equal the one-range run's and the object must come back.
    fn round_trip_with_losses(obj: &[u8], k: usize, h: usize, plen: usize, drop_each: usize) {
        let enc = GroupEncoder::new(k, h, plen).unwrap();
        let serial = enc.encode_split(obj, 1).unwrap();
        let n = serial.len();
        for ranges in [1, 2, 3, n, n + 1] {
            let groups = enc.encode_split(obj, ranges).unwrap();
            assert!(groups.iter().eq(&serial), "{ranges} ranges");
            let mut dec = GroupDecoder::new(k, h, plen, n).unwrap();
            for g in &groups {
                for (idx, payload) in g.packets().skip(drop_each) {
                    dec.push(g.group_id, idx, payload).unwrap();
                }
            }
            assert!(dec.complete());
            assert_eq!(dec.finish_split(ranges).unwrap(), obj, "{ranges} ranges");
        }
    }

    #[test]
    fn lossless_round_trip() {
        round_trip_with_losses(&object(10_000), 16, 4, 100, 0);
    }

    #[test]
    fn round_trip_surviving_h_losses_per_group() {
        // 5 groups (a multiple of none of 2, 3, 6), each losing 4 data packets.
        round_trip_with_losses(&object(5_000), 16, 4, 64, 4);
    }

    #[test]
    fn empty_object_round_trips() {
        round_trip_with_losses(&[], 4, 2, 32, 2);
    }

    #[test]
    fn object_smaller_than_one_packet() {
        round_trip_with_losses(&object(3), 8, 2, 1000, 2);
    }

    #[test]
    fn object_exactly_group_sized() {
        // 16 packets of 100 bytes minus the 8-byte header.
        round_trip_with_losses(&object(16 * 100 - FRAME_HEADER_LEN), 16, 2, 100, 0);
    }

    #[test]
    fn groups_for_counts_header() {
        let enc = GroupEncoder::new(4, 0, 10).unwrap();
        // 40 bytes per group; 32 payload bytes + 8 header = exactly 1 group.
        assert_eq!(enc.groups_for(32), 1);
        assert_eq!(enc.groups_for(33), 2);
        assert_eq!(enc.groups_for(0), 1);
    }

    #[test]
    fn deficit_tracks_missing_count() {
        let enc = GroupEncoder::new(4, 2, 16).unwrap();
        let groups = enc.encode_object(&object(100)).unwrap();
        let mut dec = GroupDecoder::new(4, 2, 16, groups.len()).unwrap();
        assert_eq!(dec.deficit(0), 4);
        dec.push(0, 0, groups.group(0).packet(0)).unwrap();
        assert_eq!(dec.deficit(0), 3);
        // duplicates don't shrink the deficit
        dec.push(0, 0, groups.group(0).packet(0)).unwrap();
        assert_eq!(dec.deficit(0), 3);
        dec.push(0, 4, groups.group(0).packet(4)).unwrap();
        dec.push(0, 5, groups.group(0).packet(5)).unwrap();
        dec.push(0, 1, groups.group(0).packet(1)).unwrap();
        assert_eq!(dec.deficit(0), 0);
        assert!(dec.group_complete(0));
    }

    #[test]
    fn finish_fails_when_short() {
        let mut dec = GroupDecoder::new(4, 2, 16, 1).unwrap();
        assert!(!dec.complete());
        assert!(matches!(
            dec.finish().unwrap_err(),
            FecError::NotEnoughShards { needed: 4, got: 0 }
        ));
    }

    #[test]
    fn push_validates_inputs() {
        let mut dec = GroupDecoder::new(4, 2, 16, 1).unwrap();
        assert!(matches!(
            dec.push(5, 0, &[0; 16]).unwrap_err(),
            FecError::BadFrame(_)
        ));
        assert!(matches!(
            dec.push(0, 6, &[0; 16]).unwrap_err(),
            FecError::IndexOutOfRange { .. }
        ));
        assert!(matches!(
            dec.push(0, 0, &[0; 15]).unwrap_err(),
            FecError::UnequalShardLengths
        ));
    }

    #[test]
    fn zero_payload_len_rejected() {
        assert_eq!(
            GroupEncoder::new(4, 2, 0).unwrap_err(),
            FecError::EmptyShards
        );
        assert_eq!(
            GroupDecoder::new(4, 2, 0, 1).unwrap_err(),
            FecError::EmptyShards
        );
    }

    #[test]
    fn zero_groups_rejected() {
        let err = GroupDecoder::new(4, 2, 16, 0).unwrap_err();
        assert_eq!(err, FecError::ZeroGroups);
    }

    #[test]
    fn corrupted_length_header_detected() {
        // Hand-craft a group whose header claims more bytes than exist.
        let enc = GroupEncoder::new(2, 0, 8).unwrap();
        let groups = enc.encode_object(&object(4)).unwrap();
        let mut dec = GroupDecoder::new(2, 0, 8, 1).unwrap();
        dec.push(0, 0, &u64::MAX.to_le_bytes()).unwrap();
        dec.push(0, 1, groups.group(0).packet(1)).unwrap();
        assert!(matches!(dec.finish().unwrap_err(), FecError::BadFrame(_)));
    }

    #[test]
    fn header_and_padding_edges_round_trip() {
        // Shapes whose groups are smaller than, equal to and larger than
        // the 8-byte header; lengths around the header and the point where
        // the framed stream exactly fills its groups.
        for (k, h, plen) in [(2, 1, 3), (2, 2, 4), (4, 2, 5), (3, 1, 16)] {
            let gb = k * plen;
            let fill = |groups: usize| (groups * gb).saturating_sub(FRAME_HEADER_LEN);
            let mut lens = vec![0, 1, 7, 8, 9];
            for edge in [fill(1), fill(2), fill(3)] {
                lens.extend([edge.saturating_sub(1), edge, edge + 1]);
            }
            for len in lens {
                let obj = object(len);
                let enc = GroupEncoder::new(k, h, plen).unwrap();
                let groups = enc.encode_object(&obj).unwrap();
                assert_eq!(groups.len(), (FRAME_HEADER_LEN + len).div_ceil(gb));
                // The framed stream, read back off the data packets.
                let framed: Vec<u8> = groups
                    .iter()
                    .flat_map(|g| g.packets().take(k).flat_map(|(_, p)| p.to_vec()))
                    .collect();
                assert_eq!(framed[..8], (len as u64).to_le_bytes());
                assert_eq!(framed[8..8 + len], obj[..]);
                assert!(framed[8 + len..].iter().all(|&b| b == 0));
                round_trip_with_losses(&obj, k, h, plen, h);
            }
        }
    }

    /// A decoder for `groups`, fed packet `idx` of group 0 for each `idx`.
    fn feed(
        groups: &EncodedObject,
        k: usize,
        h: usize,
        plen: usize,
        order: &[usize],
    ) -> GroupDecoder {
        let mut dec = GroupDecoder::new(k, h, plen, groups.len()).unwrap();
        for &idx in order {
            dec.push(0, idx, groups.group(0).packet(idx)).unwrap();
        }
        dec
    }

    #[test]
    fn parity_is_held_only_while_the_group_is_short() {
        let obj = object(4 * 16 - FRAME_HEADER_LEN);
        let groups = GroupEncoder::new(4, 3, 16)
            .unwrap()
            .encode_object(&obj)
            .unwrap();
        assert_eq!(groups.len(), 1);

        // Parity ahead of data: held, and used for the one missing packet.
        let mut dec = feed(&groups, 4, 3, 16, &[5, 4, 0, 2]);
        assert_eq!(dec.slots[0].parity.len(), 3 * 16);
        assert_eq!(dec.finish().unwrap(), obj);

        // More than k: parity offered to a group that already has k packets
        // is not kept, duplicate or not.
        let mut dec = feed(&groups, 4, 3, 16, &[0, 1, 2, 3, 4, 4, 6]);
        assert!(dec.slots[0].parity.is_empty());
        assert_eq!(dec.slots[0].count(), 4);
        assert_eq!(dec.finish().unwrap(), obj);
        let mut dec = feed(&groups, 4, 3, 16, &[6, 1, 2, 4, 5]);
        assert_eq!(dec.slots[0].count(), 4);
        assert!(!dec.slots[0].has(5));
        assert_eq!(dec.finish().unwrap(), obj);

        // Data arriving after parity completed the group still lands in
        // its slot; the last one releases the parity.
        let mut dec = feed(&groups, 4, 3, 16, &[4, 5, 2, 3, 1]);
        assert_eq!(dec.slots[0].count(), 5);
        assert!(!dec.slots[0].parity.is_empty());
        dec.push(0, 0, groups.group(0).packet(0)).unwrap();
        assert!(dec.slots[0].parity.is_empty());
        assert_eq!(dec.deficit(0), 0);
        assert_eq!(dec.finish().unwrap(), obj);
    }

    #[test]
    fn nothing_sized_by_the_object_exists_before_the_first_push() {
        let mut dec = GroupDecoder::new(16, 4, 1000, 1 << 20).unwrap();
        assert_eq!(dec.frame.capacity() + dec.slots.capacity(), 0);
        assert_eq!(dec.deficit(7), 16);
        assert!(!dec.group_complete(7));
        assert!(!dec.complete());
        // A rejected packet allocates nothing either.
        assert!(dec.push(0, 0, &[0; 999]).is_err());
        assert_eq!(dec.frame.capacity() + dec.slots.capacity(), 0);
    }

    #[test]
    fn unaddressable_object_is_a_typed_error() {
        for (k, plen, n_groups) in [
            (16, usize::MAX / 8, 2),
            (16, 1000, usize::MAX / 1000),
            // Fits a usize, not an allocation.
            (1, 1, usize::MAX),
        ] {
            assert_eq!(
                GroupDecoder::new(k, 4, plen, n_groups).unwrap_err(),
                FecError::ObjectTooLarge
            );
        }
    }

    #[test]
    fn finish_hands_the_object_over_once_and_resets() {
        let obj = object(500);
        let groups = GroupEncoder::new(4, 2, 32)
            .unwrap()
            .encode_object(&obj)
            .unwrap();
        let mut dec = GroupDecoder::new(4, 2, 32, groups.len()).unwrap();
        let feed_all = |dec: &mut GroupDecoder| {
            for g in &groups {
                for (idx, p) in g.packets().skip(2) {
                    dec.push(g.group_id, idx, p).unwrap();
                }
            }
        };
        feed_all(&mut dec);
        assert_eq!(dec.finish().unwrap(), obj);
        // The buffer is gone: no panic, no empty "object".
        assert!(!dec.complete());
        assert_eq!(dec.deficit(0), 4);
        assert_eq!(
            dec.finish().unwrap_err(),
            FecError::NotEnoughShards { needed: 4, got: 0 }
        );
        // ... and the decoder takes the next object of the same shape.
        feed_all(&mut dec);
        assert_eq!(dec.finish().unwrap(), obj);
    }

    #[test]
    fn short_finish_keeps_what_was_pushed() {
        let obj = object(100);
        let groups = GroupEncoder::new(4, 2, 16)
            .unwrap()
            .encode_object(&obj)
            .unwrap();
        let mut dec = GroupDecoder::new(4, 2, 16, groups.len()).unwrap();
        for g in &groups {
            for (idx, p) in g.packets().skip(3) {
                dec.push(g.group_id, idx, p).unwrap();
            }
        }
        assert_eq!(
            dec.finish().unwrap_err(),
            FecError::NotEnoughShards { needed: 4, got: 3 }
        );
        for g in &groups {
            dec.push(g.group_id, 1, g.packet(1)).unwrap();
        }
        assert_eq!(dec.finish().unwrap(), obj);
    }

    #[test]
    fn paper_newspaper_scenario_shape() {
        // ~1 MB object, paper's group shape: k=16, 1000-byte packets.
        let obj = object(1_000_000);
        let enc = GroupEncoder::new(16, 4, 1000).unwrap();
        let groups = enc.encode_object(&obj).unwrap();
        assert_eq!(groups.len(), enc.groups_for(obj.len()));
        let mut dec = GroupDecoder::new(16, 4, 1000, groups.len()).unwrap();
        // Drop a different loss pattern in each group (rotate which packets die).
        for g in &groups {
            let skip = (g.group_id % 5) as usize;
            let mut fed = 0;
            for (idx, p) in g.packets() {
                if idx >= skip && fed < 16 {
                    dec.push(g.group_id, idx, p).unwrap();
                    fed += 1;
                }
            }
        }
        assert_eq!(dec.finish().unwrap(), obj);
    }
}
