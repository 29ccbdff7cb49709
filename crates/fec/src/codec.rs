//! The systematic "any k of n" erasure codec.
//!
//! Construction (Rizzo '97): start from the `n × k` Vandermonde matrix `V`
//! over GF(256) with distinct evaluation points, then post-multiply by the
//! inverse of its top `k × k` block: `W = V · (V_top)⁻¹`.  The top `k` rows
//! of `W` are the identity — so the first `k` output packets are the data
//! packets verbatim (systematic) — while any `k` rows of `W` remain
//! invertible, because they are the product of an invertible Vandermonde
//! row-selection with a fixed invertible matrix.
//!
//! Encoding writes each 16-byte column of up to four parity packets once:
//! [`dot_rows`] sums it in registers over the `k` data packets, with the
//! parity rows of `W` expanded when the codec is built.  Decoding solves
//! only for the `e` lost data packets: it inverts the `e × e` block of `W`
//! that the parity packets standing in for them have at the lost slots,
//! turns that into `e` weights per source packet, and reads each of the
//! `k` source packets once into all `e` rebuilt packets.

use crate::matrix::Matrix;
use crate::{FecError, MAX_GROUP};
use core::mem;
use sharqfec_gf256::{dot_rows, mul_acc_rows, Expanded, Gf256};

/// Reusable decode workspace.
///
/// [`GroupCodec::decode`] writes the recovered data shards into this
/// scratch's flat buffer and borrows the result back as a
/// [`RecoveredGroup`].  All buffers (input positions, slot sources, solve
/// matrices, output) are grown once and reused, so steady-state repair
/// decoding — the same codec shape group after group — performs no heap
/// allocation at all.
#[derive(Debug, Default, Clone)]
pub struct DecodeScratch {
    /// [`GroupCodec::decode`]: where each of the `n` packet indices sits in
    /// its input, [`ABSENT`] if nowhere.
    at: Vec<usize>,
    /// The packet feeding each of the `k` data slots: `i` itself when data
    /// packet `i` is there, else the parity packet standing in for it.
    rows: Vec<usize>,
    /// `Aᵀ`, where `A = W[R][M]` holds the `e` stand-ins' generator
    /// entries at the `e` lost slots (destroyed by inversion); then the
    /// `k × e` coefficients, row `i` the weights slot `i`'s packet gives
    /// the rebuilt packets.
    sub: Matrix,
    /// `(A⁻¹)ᵀ`, `e × e`: row `r` is what stand-in `r` gives each rebuilt
    /// packet.
    inv: Matrix,
    /// The rebuilt packets, `e × shard_len`.
    out: Vec<u8>,
    /// [`GroupCodec::decode`]'s group laid out flat, `n × shard_len`; its
    /// first `k` packets are the output.
    flat: Vec<u8>,
}

/// [`DecodeScratch::at`] of a packet index not in the input.
const ABSENT: usize = usize::MAX;

/// A borrowed view of the `k` recovered data shards of one group, laid out
/// contiguously inside a [`DecodeScratch`].
///
/// The view lives only as long as the scratch borrow; copy out what must
/// outlive it (or use [`RecoveredGroup::to_vecs`] in tests).
#[derive(Debug, Clone, Copy)]
pub struct RecoveredGroup<'a> {
    flat: &'a [u8],
    shard_len: usize,
}

impl<'a> RecoveredGroup<'a> {
    /// Number of data shards recovered (`k`).
    pub fn k(&self) -> usize {
        self.flat.len() / self.shard_len
    }

    /// Length of each shard in bytes.
    pub fn shard_len(&self) -> usize {
        self.shard_len
    }

    /// Data shard `i` (`0..k`).
    pub fn shard(&self, i: usize) -> &'a [u8] {
        &self.flat[i * self.shard_len..(i + 1) * self.shard_len]
    }

    /// Iterates the shards in index order.
    pub fn iter(&self) -> impl Iterator<Item = &'a [u8]> {
        self.flat.chunks_exact(self.shard_len)
    }

    /// The shards as one contiguous `k × shard_len` byte run — shard `i`
    /// starts at offset `i * shard_len`, which is exactly the layout a
    /// framed object wants.
    pub fn flat(&self) -> &'a [u8] {
        self.flat
    }

    /// Copies the shards out into owned vectors (convenience for tests and
    /// non-hot paths).
    pub fn to_vecs(&self) -> Vec<Vec<u8>> {
        self.iter().map(|s| s.to_vec()).collect()
    }
}

/// A fixed-rate systematic erasure codec for one packet-group shape.
///
/// `k` is the number of data packets per group and `h` the maximum number of
/// parity ("FEC") packets this codec can produce.  Construction cost is
/// O(k³); encoding one parity packet is O(k · len); decoding with `e`
/// erasures costs one `e × e` inversion, `O(e² · k)` for the weights, plus
/// O(e · k · len).
///
/// The codec is immutable and shareable; in the simulator one codec per
/// group shape is built once and reused for every group.
#[derive(Clone)]
pub struct GroupCodec {
    k: usize,
    h: usize,
    /// The full (k+h) × k generator matrix `W`; rows `0..k` are identity.
    generator: Matrix,
    /// Rows `k..k+h` of `W` expanded for [`dot_rows`], `k` per row.
    parity: Vec<Expanded>,
}

impl core::fmt::Debug for GroupCodec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "GroupCodec(k={}, h={})", self.k, self.h)
    }
}

impl GroupCodec {
    /// Creates a codec for groups of `k` data packets and up to `h` parity
    /// packets.
    pub fn new(k: usize, h: usize) -> Result<GroupCodec, FecError> {
        if k == 0 {
            return Err(FecError::ZeroDataShards);
        }
        if k + h > MAX_GROUP {
            return Err(FecError::GroupTooLarge { k, h });
        }
        let n = k + h;
        let v = Matrix::vandermonde(n, k);
        let top = v.select_rows(&(0..k).collect::<Vec<_>>());
        let top_inv = top
            .inverse()
            .expect("top block of a Vandermonde matrix is invertible");
        let generator = v.mul(&top_inv);
        debug_assert!(generator
            .select_rows(&(0..k).collect::<Vec<_>>())
            .is_identity());
        let parity = (0..h * k)
            .map(|n| generator[(k + n / k, n % k)].into())
            .collect();
        Ok(GroupCodec {
            k,
            h,
            generator,
            parity,
        })
    }

    /// Number of data packets per group.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Maximum number of parity packets.
    pub fn h(&self) -> usize {
        self.h
    }

    /// Total group size `k + h`.
    pub fn n(&self) -> usize {
        self.k + self.h
    }

    /// Encodes all `h` parity packets for a group of `k` equal-length data
    /// packets into caller-provided buffers — one per parity packet, each
    /// exactly the data packets' length.
    ///
    /// The buffers are overwritten; on error their contents are
    /// unspecified.  Callers own the storage, so a steady-state encoder
    /// reuses the same parity buffers group after group.
    pub fn encode_into(&self, data: &[&[u8]], parity: &mut [&mut [u8]]) -> Result<(), FecError> {
        self.check_data(data)?;
        if parity.len() != self.h {
            return Err(FecError::WrongShardCount {
                what: "parity buffers",
                expected: self.h,
                got: parity.len(),
            });
        }
        let len = data[0].len();
        if parity.iter().any(|out| out.len() != len) {
            return Err(FecError::UnequalShardLengths);
        }
        let rows = parity.iter_mut().map(|p| &mut **p);
        dot_rows(rows.zip(self.parity.chunks_exact(self.k)), |i| data[i]);
        Ok(())
    }

    /// [`GroupCodec::encode_into`] for a group held flat in one buffer:
    /// `group` is `(k + h) · len` bytes, packet `i` at offset `i · len`.
    /// The `k` data packets are read and the `h` parity packets behind
    /// them overwritten, with no per-group list of shard references.
    pub fn encode_flat(&self, group: &mut [u8], len: usize) -> Result<(), FecError> {
        if len == 0 {
            return Err(FecError::EmptyShards);
        }
        if self.n().checked_mul(len) != Some(group.len()) {
            return Err(FecError::WrongShardCount {
                what: "packets in the group",
                expected: self.n(),
                got: group.len() / len,
            });
        }
        let (data, parity) = group.split_at_mut(self.k * len);
        let rows = parity
            .chunks_exact_mut(len)
            .zip(self.parity.chunks_exact(self.k));
        dot_rows(rows, |i| &data[i * len..(i + 1) * len]);
        Ok(())
    }

    /// Encodes the single output packet with index `index` into `out`
    /// (`0..k` copies the data packet; `k..k+h` computes a parity packet).
    /// `out` must have the data packets' length.
    ///
    /// SHARQFEC repairers use this to generate *specific* FEC packets above
    /// the highest identifier already seen, so that concurrent repairers
    /// never duplicate each other's repair packets.
    pub fn encode_shard_into(
        &self,
        data: &[&[u8]],
        index: usize,
        out: &mut [u8],
    ) -> Result<(), FecError> {
        self.check_data(data)?;
        if index >= self.n() {
            return Err(FecError::IndexOutOfRange {
                index,
                group: self.n(),
            });
        }
        if out.len() != data[0].len() {
            return Err(FecError::UnequalShardLengths);
        }
        if index < self.k {
            out.copy_from_slice(data[index]);
            return Ok(());
        }
        let row = &self.parity[(index - self.k) * self.k..][..self.k];
        dot_rows([(out, row)], |i| data[i]);
        Ok(())
    }

    /// Reconstructs the `k` original data packets from any `k` received
    /// packets given as `(index, payload)` pairs, writing them into
    /// `scratch` and returning a borrowed [`RecoveredGroup`] view.
    ///
    /// Extra packets beyond `k` are ignored (the first `k` are used; all
    /// entries are still validated).  Indices must be distinct and in
    /// `0..k+h`; payloads must be non-empty and of equal length.  The first
    /// `k` are laid out flat and the missing data packets rebuilt by
    /// [`GroupCodec::reconstruct_flat`]: the lowest-indexed parity packets
    /// it takes are exactly the ones among them.
    ///
    /// The scratch may be shared across codecs of different shapes; its
    /// buffers grow to the largest shape seen and are then reused without
    /// further allocation.
    pub fn decode<'s>(
        &self,
        shards: &[(usize, &[u8])],
        scratch: &'s mut DecodeScratch,
    ) -> Result<RecoveredGroup<'s>, FecError> {
        let k = self.k;
        if shards.len() < k {
            return Err(FecError::NotEnoughShards {
                needed: k,
                got: shards.len(),
            });
        }
        let len = shards[0].1.len();
        if len == 0 {
            return Err(FecError::EmptyShards);
        }
        scratch.at.clear();
        scratch.at.resize(self.n(), ABSENT);
        for (pos, &(idx, payload)) in shards.iter().enumerate() {
            if idx >= self.n() {
                return Err(FecError::IndexOutOfRange {
                    index: idx,
                    group: self.n(),
                });
            }
            if scratch.at[idx] != ABSENT {
                return Err(FecError::DuplicateIndex(idx));
            }
            scratch.at[idx] = pos;
            if payload.len() != len {
                return Err(FecError::UnequalShardLengths);
            }
        }
        // Slots of packets not among the first k keep stale bytes, which
        // reconstruct_flat never reads.
        let (at, mut flat) = (mem::take(&mut scratch.at), mem::take(&mut scratch.flat));
        flat.resize(self.n() * len, 0);
        for (i, slot) in flat.chunks_exact_mut(len).enumerate() {
            if at[i] < k {
                slot.copy_from_slice(shards[at[i]].1);
            }
        }
        let (data, parity) = flat.split_at_mut(k * len);
        let rebuilt = self.reconstruct_flat(data, parity, len, |i| at[i] < k, scratch);
        (scratch.at, scratch.flat) = (at, flat);
        rebuilt?;
        Ok(RecoveredGroup {
            flat: &scratch.flat[..k * len],
            shard_len: len,
        })
    }

    /// Rebuilds, in place, the data packets a group is missing.
    ///
    /// The group is held flat: `data` is `k · len` bytes with data packet
    /// `i` at offset `i · len`, `parity` is `h · len` bytes with parity
    /// packet `k + j` at offset `j · len`, and `have(i)` says which of the
    /// `k + h` packets are really there (the rest of either buffer is
    /// never read).  Only the `e` missing data packets are computed — from
    /// the present data packets and the `e` lowest-indexed present parity
    /// packets — so a group that lost `e` packets costs one `e × e`
    /// inversion plus `O(e · k · len)`, not the `O(k² · len)` of
    /// rebuilding every data packet.
    pub fn reconstruct_flat(
        &self,
        data: &mut [u8],
        parity: &[u8],
        len: usize,
        have: impl Fn(usize) -> bool,
        scratch: &mut DecodeScratch,
    ) -> Result<(), FecError> {
        let k = self.k;
        if len == 0 {
            return Err(FecError::EmptyShards);
        }
        if k.checked_mul(len) != Some(data.len()) {
            return Err(FecError::WrongShardCount {
                what: "data packets",
                expected: k,
                got: data.len() / len,
            });
        }
        let e = (0..k).filter(|&i| !have(i)).count();
        if e == 0 {
            return Ok(());
        }
        if self.h.checked_mul(len) != Some(parity.len()) {
            return Err(FecError::WrongShardCount {
                what: "parity packets",
                expected: self.h,
                got: parity.len() / len,
            });
        }
        let rows = &mut scratch.rows;
        rows.clear();
        rows.extend(0..k);
        let stand_ins = (k..self.n()).filter(|&i| have(i));
        for (lost, stand_in) in (0..k).filter(|&i| !have(i)).zip(stand_ins) {
            rows[lost] = stand_in;
        }
        let covered = rows.iter().filter(|&&r| r >= k).count();
        if covered < e {
            return Err(FecError::NotEnoughShards {
                needed: k,
                got: k - e + covered,
            });
        }
        let packet = |i: usize| match i.checked_sub(k) {
            None => &data[i * len..(i + 1) * len],
            Some(j) => &parity[j * len..(j + 1) * len],
        };
        self.solve(scratch, len, packet)?;
        let lost = (0..k).filter(|&i| scratch.rows[i] >= k);
        for (i, packet) in lost.zip(scratch.out.chunks_exact(len)) {
            data[i * len..(i + 1) * len].copy_from_slice(packet);
        }
        Ok(())
    }

    /// Solves for the lost data packets into `scratch.out`, `e × len`.
    /// `scratch.rows[i]` is the packet feeding data slot `i` (see
    /// [`DecodeScratch`]); with `M` the `e` slots fed by parity and `R`
    /// those parity packets, only `A = W[R][M]` is inverted.  Since
    /// `A · d_M = p_R + W[R][P] · d_P` over the present data `P`, lost
    /// packet `M_q` is `Σ_r A⁻¹[q][r] · p_{R_r}` plus, for each present
    /// `i`, `(Σ_r A⁻¹[q][r] · W[R_r][i]) · d_i`: rows `M` of the full
    /// `k × k` inverse, which is unique, so every byte is what inverting
    /// all `k` rows gives.  Each source packet is then read once, by one
    /// [`mul_acc_rows`] call over the `e` rebuilt packets.
    fn solve<'p>(
        &self,
        scratch: &mut DecodeScratch,
        len: usize,
        packet: impl Fn(usize) -> &'p [u8],
    ) -> Result<(), FecError> {
        let (k, rows) = (self.k, &scratch.rows);
        let (sub, inv) = (&mut scratch.sub, &mut scratch.inv);
        let lost = || (0..k).filter(|&i| rows[i] >= k);
        let e = lost().count();
        // `Aᵀ`, so that its inverse `(A⁻¹)ᵀ` holds column `r` of `A⁻¹`,
        // the weights parity packet `R_r` gives the rebuilt packets, as a
        // row.
        sub.reset(e, e);
        for (r, m) in lost().enumerate() {
            for (q, stand_in) in lost().map(|i| rows[i]).enumerate() {
                sub[(r, q)] = self.generator[(stand_in, m)];
            }
        }
        if !sub.invert_into(inv) {
            return Err(FecError::SingularMatrix);
        }
        // The coefficients, `k × e`, in the inverted block's storage.
        sub.reset(k, e);
        for (r, m) in lost().enumerate() {
            (0..e).for_each(|q| sub[(m, q)] = inv[(r, q)]);
            for i in (0..k).filter(|&i| rows[i] < k) {
                let w = self.generator[(rows[m], i)];
                (0..e).for_each(|q| sub[(i, q)] += inv[(r, q)] * w);
            }
        }
        scratch.out.clear();
        scratch.out.resize(e * len, 0);
        for (i, &row) in rows.iter().enumerate() {
            let coeffs = sub.row(i).iter().copied();
            mul_acc_rows(scratch.out.chunks_exact_mut(len).zip(coeffs), packet(row));
        }
        Ok(())
    }

    fn check_data(&self, data: &[&[u8]]) -> Result<(), FecError> {
        if data.len() != self.k {
            return Err(FecError::WrongShardCount {
                what: "data shards",
                expected: self.k,
                got: data.len(),
            });
        }
        let len = data[0].len();
        if len == 0 {
            return Err(FecError::EmptyShards);
        }
        if data.iter().any(|s| s.len() != len) {
            return Err(FecError::UnequalShardLengths);
        }
        Ok(())
    }

    /// Coefficient row for output packet `index` (exposed for tests and for
    /// protocol implementations that serialize coefficients).
    pub fn generator_row(&self, index: usize) -> &[Gf256] {
        self.generator.row(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|j| ((i * 131 + j * 17 + 7) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    fn refs(data: &[Vec<u8>]) -> Vec<&[u8]> {
        data.iter().map(|v| v.as_slice()).collect()
    }

    /// Test convenience: encode all parity shards into fresh vectors.
    fn encode_parity(codec: &GroupCodec, data: &[&[u8]]) -> Vec<Vec<u8>> {
        let len = data.first().map_or(0, |d| d.len());
        let mut parity = vec![vec![0u8; len]; codec.h()];
        let mut bufs: Vec<&mut [u8]> = parity.iter_mut().map(|v| v.as_mut_slice()).collect();
        codec.encode_into(data, &mut bufs).unwrap();
        parity
    }

    /// Test convenience: decode through a throwaway scratch into vectors.
    fn decode_vecs(
        codec: &GroupCodec,
        shards: &[(usize, &[u8])],
    ) -> Result<Vec<Vec<u8>>, FecError> {
        let mut scratch = DecodeScratch::default();
        codec.decode(shards, &mut scratch).map(|r| r.to_vecs())
    }

    #[test]
    fn systematic_prefix_is_identity() {
        let codec = GroupCodec::new(16, 8).unwrap();
        for i in 0..16 {
            for j in 0..16 {
                let expect = if i == j { Gf256::ONE } else { Gf256::ZERO };
                assert_eq!(codec.generator_row(i)[j], expect);
            }
        }
    }

    #[test]
    fn paper_group_shape_k16_survives_any_loss_pattern_of_h() {
        // The paper sends groups of 16; test a few parity levels.
        for h in [1usize, 2, 4] {
            let codec = GroupCodec::new(16, h).unwrap();
            let data = sample_data(16, 64);
            let parity = encode_parity(&codec, &refs(&data));
            assert_eq!(parity.len(), h);

            // Drop the first h data packets, decode from the rest + parity.
            let mut shards: Vec<(usize, &[u8])> = Vec::new();
            for (i, d) in data.iter().enumerate().skip(h) {
                shards.push((i, d.as_slice()));
            }
            for (j, p) in parity.iter().enumerate() {
                shards.push((16 + j, p.as_slice()));
            }
            let rec = decode_vecs(&codec, &shards).unwrap();
            assert_eq!(rec, data, "h={h}");
        }
    }

    #[test]
    fn all_loss_patterns_recover_small_group() {
        // k=4, h=3: exhaustively try every subset of size 4 from the 7
        // transmitted packets.
        let (k, h) = (4usize, 3usize);
        let codec = GroupCodec::new(k, h).unwrap();
        let data = sample_data(k, 32);
        let parity = encode_parity(&codec, &refs(&data));
        let all: Vec<Vec<u8>> = data.iter().cloned().chain(parity.iter().cloned()).collect();

        // One scratch across every loss pattern — the steady-state shape.
        let mut scratch = DecodeScratch::default();
        let n = k + h;
        for mask in 0u32..(1 << n) {
            if mask.count_ones() as usize != k {
                continue;
            }
            let shards: Vec<(usize, &[u8])> = (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| (i, all[i].as_slice()))
                .collect();
            let rec = codec.decode(&shards, &mut scratch).unwrap();
            assert_eq!(rec.to_vecs(), data, "mask={mask:07b}");
        }
    }

    #[test]
    fn decode_uses_only_first_k_and_ignores_extras() {
        let codec = GroupCodec::new(3, 2).unwrap();
        let data = sample_data(3, 8);
        let parity = encode_parity(&codec, &refs(&data));
        let shards = vec![
            (0usize, data[0].as_slice()),
            (3, parity[0].as_slice()),
            (2, data[2].as_slice()),
            (4, parity[1].as_slice()), // extra
            (1, data[1].as_slice()),   // extra
        ];
        assert_eq!(decode_vecs(&codec, &shards).unwrap(), data);
    }

    #[test]
    fn decode_fast_path_with_all_data_shards() {
        let codec = GroupCodec::new(4, 2).unwrap();
        let data = sample_data(4, 10);
        let shards: Vec<(usize, &[u8])> = data
            .iter()
            .enumerate()
            .map(|(i, d)| (i, d.as_slice()))
            .collect();
        assert_eq!(decode_vecs(&codec, &shards).unwrap(), data);
        // Out-of-order data shards still land in the right slots.
        let shuffled = vec![
            (2usize, data[2].as_slice()),
            (0, data[0].as_slice()),
            (3, data[3].as_slice()),
            (1, data[1].as_slice()),
        ];
        assert_eq!(decode_vecs(&codec, &shuffled).unwrap(), data);
    }

    #[test]
    fn encode_shard_matches_batch_encode() {
        let codec = GroupCodec::new(5, 4).unwrap();
        let data = sample_data(5, 20);
        let parity = encode_parity(&codec, &refs(&data));
        let mut out = vec![0u8; 20];
        for (j, expected) in parity.iter().enumerate() {
            codec
                .encode_shard_into(&refs(&data), 5 + j, &mut out)
                .unwrap();
            assert_eq!(&out, expected);
        }
        for (i, expected) in data.iter().enumerate() {
            codec.encode_shard_into(&refs(&data), i, &mut out).unwrap();
            assert_eq!(&out, expected);
        }
    }

    #[test]
    fn error_cases_are_reported() {
        assert_eq!(GroupCodec::new(0, 1).unwrap_err(), FecError::ZeroDataShards);
        assert!(matches!(
            GroupCodec::new(200, 100).unwrap_err(),
            FecError::GroupTooLarge { .. }
        ));

        let codec = GroupCodec::new(3, 2).unwrap();
        let data = sample_data(3, 8);
        let mut parity = vec![vec![0u8; 8]; 2];

        let encode = |codec: &GroupCodec, data: &[&[u8]], parity: &mut [Vec<u8>]| {
            let mut bufs: Vec<&mut [u8]> = parity.iter_mut().map(|v| v.as_mut_slice()).collect();
            codec.encode_into(data, &mut bufs)
        };
        // wrong shard count
        assert!(matches!(
            encode(&codec, &refs(&data)[..2], &mut parity).unwrap_err(),
            FecError::WrongShardCount {
                what: "data shards",
                expected: 3,
                got: 2
            }
        ));
        // unequal lengths
        let bad = vec![&data[0][..], &data[1][..4], &data[2][..]];
        assert_eq!(
            encode(&codec, &bad, &mut parity).unwrap_err(),
            FecError::UnequalShardLengths
        );
        // empty shards
        let empty: Vec<&[u8]> = vec![&[], &[], &[]];
        assert_eq!(
            encode(&codec, &empty, &mut parity).unwrap_err(),
            FecError::EmptyShards
        );
        // wrong number of parity buffers
        assert!(matches!(
            encode(&codec, &refs(&data), &mut parity[..1]).unwrap_err(),
            FecError::WrongShardCount {
                what: "parity buffers",
                expected: 2,
                got: 1
            }
        ));
        // mis-sized parity buffer
        let mut short = vec![vec![0u8; 8], vec![0u8; 4]];
        assert_eq!(
            encode(&codec, &refs(&data), &mut short).unwrap_err(),
            FecError::UnequalShardLengths
        );
        // decode: not enough
        assert!(matches!(
            decode_vecs(&codec, &[(0, data[0].as_slice())]).unwrap_err(),
            FecError::NotEnoughShards { needed: 3, got: 1 }
        ));
        // decode: duplicate index
        let dup = vec![
            (0usize, data[0].as_slice()),
            (0, data[0].as_slice()),
            (1, data[1].as_slice()),
        ];
        assert_eq!(
            decode_vecs(&codec, &dup).unwrap_err(),
            FecError::DuplicateIndex(0)
        );
        // decode: index out of range
        let oor = vec![
            (0usize, data[0].as_slice()),
            (1, data[1].as_slice()),
            (9, data[2].as_slice()),
        ];
        assert!(matches!(
            decode_vecs(&codec, &oor).unwrap_err(),
            FecError::IndexOutOfRange { index: 9, group: 5 }
        ));
        // encode_shard_into: index out of range
        let mut out = vec![0u8; 8];
        assert!(matches!(
            codec
                .encode_shard_into(&refs(&data), 5, &mut out)
                .unwrap_err(),
            FecError::IndexOutOfRange { index: 5, group: 5 }
        ));
        // encode_shard_into: mis-sized output buffer
        let mut short_out = vec![0u8; 4];
        assert_eq!(
            codec
                .encode_shard_into(&refs(&data), 0, &mut short_out)
                .unwrap_err(),
            FecError::UnequalShardLengths
        );
    }

    /// A group laid out flat: the data packets, then `h` zeroed parity
    /// packets.
    fn flat_group(data: &[Vec<u8>], h: usize) -> Vec<u8> {
        let mut flat = data.concat();
        flat.resize(flat.len() + h * data[0].len(), 0);
        flat
    }

    #[test]
    fn flat_encode_matches_encode_into() {
        for (k, h) in [(16usize, 4usize), (5, 3), (1, 2), (4, 0)] {
            let codec = GroupCodec::new(k, h).unwrap();
            let data = sample_data(k, 24);
            let mut flat = flat_group(&data, h);
            // Stale parity bytes are overwritten, not accumulated into.
            flat[k * 24..].fill(0xEE);
            codec.encode_flat(&mut flat, 24).unwrap();
            let parity = encode_parity(&codec, &refs(&data));
            assert_eq!(flat[..k * 24], data.concat()[..]);
            assert_eq!(flat[k * 24..], parity.concat()[..], "k={k} h={h}");
        }
        let codec = GroupCodec::new(3, 2).unwrap();
        assert_eq!(
            codec.encode_flat(&mut [], 0).unwrap_err(),
            FecError::EmptyShards
        );
        assert_eq!(
            codec.encode_flat(&mut [0; 32], 8).unwrap_err(),
            FecError::WrongShardCount {
                what: "packets in the group",
                expected: 5,
                got: 4
            }
        );
    }

    #[test]
    fn flat_reconstruct_rebuilds_exactly_the_missing_data() {
        // k=4, h=3: every subset of at least k of the 7 packets.
        let (k, h, len) = (4usize, 3usize, 32usize);
        let codec = GroupCodec::new(k, h).unwrap();
        let data = sample_data(k, len);
        let mut group = flat_group(&data, h);
        codec.encode_flat(&mut group, len).unwrap();
        let (whole, parity) = group.split_at(k * len);

        let mut scratch = DecodeScratch::default();
        for mask in 0u32..(1 << (k + h)) {
            let have = |i: usize| mask & (1 << i) != 0;
            // Absent packets hold garbage the rebuild must not read.
            let mut held = whole.to_vec();
            let mut held_parity = parity.to_vec();
            for i in (0..k + h).filter(|&i| !have(i)) {
                let buf = if i < k {
                    &mut held[i * len..(i + 1) * len]
                } else {
                    &mut held_parity[(i - k) * len..(i - k + 1) * len]
                };
                buf.fill(0xA5);
            }
            let result = codec.reconstruct_flat(&mut held, &held_parity, len, have, &mut scratch);
            if (mask.count_ones() as usize) < k {
                assert_eq!(
                    result.unwrap_err(),
                    FecError::NotEnoughShards {
                        needed: k,
                        got: mask.count_ones() as usize
                    }
                );
            } else {
                result.unwrap();
                assert_eq!(held, whole, "mask={mask:07b}");
            }
        }

        // Mis-sized buffers are refused; a whole group needs no parity.
        let mut whole = whole.to_vec();
        assert_eq!(
            codec
                .reconstruct_flat(&mut whole[len..], parity, len, |_| true, &mut scratch)
                .unwrap_err(),
            FecError::WrongShardCount {
                what: "data packets",
                expected: 4,
                got: 3
            }
        );
        assert_eq!(
            codec
                .reconstruct_flat(&mut whole, &parity[len..], len, |i| i > 0, &mut scratch)
                .unwrap_err(),
            FecError::WrongShardCount {
                what: "parity packets",
                expected: 3,
                got: 2
            }
        );
        assert_eq!(
            codec
                .reconstruct_flat(&mut whole, &[], 0, |_| true, &mut scratch)
                .unwrap_err(),
            FecError::EmptyShards
        );
        codec
            .reconstruct_flat(&mut whole, &[], len, |i| i < k, &mut scratch)
            .unwrap();
    }

    #[test]
    fn wrong_shard_count_names_what_was_miscounted() {
        let (codec, data) = (GroupCodec::new(3, 2).unwrap(), sample_data(3, 8));
        let (d, mut parity) = (refs(&data), vec![vec![0u8; 8]; 2]);
        let mut bufs: Vec<&mut [u8]> = parity.iter_mut().map(|v| v.as_mut_slice()).collect();
        let mut scratch = DecodeScratch::default();
        let got = [
            codec.encode_into(&d[..2], &mut bufs),
            codec.encode_into(&d, &mut bufs[..1]),
            codec.encode_shard_into(&d[..1], 3, &mut [0; 8]),
            codec.encode_flat(&mut [0; 32], 8),
            codec.reconstruct_flat(&mut [0; 16], &[0; 16], 8, |_| true, &mut scratch),
            codec.reconstruct_flat(&mut [0; 24], &[0; 8], 8, |i| i > 0, &mut scratch),
        ];
        let want = [
            "expected 3 data shards, got 2",
            "expected 2 parity buffers, got 1",
            "expected 3 data shards, got 1",
            "expected 5 packets in the group, got 4",
            "expected 3 data packets, got 2",
            "expected 2 parity packets, got 1",
        ];
        for (got, want) in got.into_iter().zip(want) {
            assert_eq!(got.unwrap_err().to_string(), want);
        }
    }

    #[test]
    fn scratch_keeps_its_capacities_after_the_largest_shape() {
        let (k, h, len) = (16usize, 4usize, 48usize);
        let codec = GroupCodec::new(k, h).unwrap();
        let mut group = flat_group(&sample_data(k, len), h);
        codec.encode_flat(&mut group, len).unwrap();
        let (whole, parity) = group.split_at(k * len);
        let packet = |i: usize| &group[i * len..(i + 1) * len];
        let vecs = |s: &DecodeScratch| (s.at.capacity(), s.rows.capacity(), s.out.capacity());
        let rest = |s: &DecodeScratch| (s.flat.capacity(), s.sub.capacity(), s.inv.capacity());
        let caps = |s: &DecodeScratch| (vecs(s), rest(s));
        let mut scratch = DecodeScratch::default();
        let mut largest = None;
        // The largest erasure count first, then mixed ones, both paths.
        for e in [h, 0, 1, 3, 2, 4, 1, 0, 2] {
            // Data packets e.. and the first e parity packets come first.
            let shards: Vec<(usize, &[u8])> = (e..k + h).map(|i| (i, packet(i))).collect();
            assert_eq!(codec.decode(&shards, &mut scratch).unwrap().flat(), whole);
            let mut held = whole.to_vec();
            held[..e * len].fill(0xA5);
            codec
                .reconstruct_flat(&mut held, parity, len, |i| i >= e, &mut scratch)
                .unwrap();
            assert_eq!(held, whole, "e={e}");
            let now = caps(&scratch);
            assert_eq!(*largest.get_or_insert(now), now, "e={e}");
        }
    }

    #[test]
    fn one_byte_payloads_work() {
        let codec = GroupCodec::new(2, 1).unwrap();
        let data = vec![vec![0xAAu8], vec![0x55u8]];
        let parity = encode_parity(&codec, &refs(&data));
        let shards = vec![(1usize, data[1].as_slice()), (2, parity[0].as_slice())];
        assert_eq!(decode_vecs(&codec, &shards).unwrap(), data);
    }

    #[test]
    fn k_equals_one_repetition_code() {
        // With k=1 every parity packet is a copy of the single data packet.
        let codec = GroupCodec::new(1, 3).unwrap();
        let data = vec![vec![1u8, 2, 3]];
        let parity = encode_parity(&codec, &refs(&data));
        for p in &parity {
            assert_eq!(p, &data[0]);
        }
        let rec = decode_vecs(&codec, &[(3usize, parity[2].as_slice())]).unwrap();
        assert_eq!(rec, data);
    }

    #[test]
    fn zero_parity_codec_is_a_noop_pass_through() {
        let codec = GroupCodec::new(4, 0).unwrap();
        let data = sample_data(4, 6);
        assert!(encode_parity(&codec, &refs(&data)).is_empty());
        let shards: Vec<(usize, &[u8])> = data
            .iter()
            .enumerate()
            .map(|(i, d)| (i, d.as_slice()))
            .collect();
        assert_eq!(decode_vecs(&codec, &shards).unwrap(), data);
    }

    #[test]
    fn debug_format_names_shape() {
        let codec = GroupCodec::new(16, 4).unwrap();
        assert_eq!(format!("{codec:?}"), "GroupCodec(k=16, h=4)");
    }

    #[test]
    fn recovered_group_view_exposes_shards_and_flat_layout() {
        let codec = GroupCodec::new(3, 2).unwrap();
        let data = sample_data(3, 8);
        let parity = encode_parity(&codec, &refs(&data));
        let shards = vec![
            (1usize, data[1].as_slice()),
            (3, parity[0].as_slice()),
            (4, parity[1].as_slice()),
        ];
        let mut scratch = DecodeScratch::default();
        let rec = codec.decode(&shards, &mut scratch).unwrap();
        assert_eq!(rec.k(), 3);
        assert_eq!(rec.shard_len(), 8);
        for (i, d) in data.iter().enumerate() {
            assert_eq!(rec.shard(i), d.as_slice());
        }
        assert_eq!(rec.iter().count(), 3);
        // Flat layout: shard i at offset i * shard_len.
        assert_eq!(&rec.flat()[8..16], data[1].as_slice());
        assert_eq!(rec.flat().len(), 24);
    }

    #[test]
    fn one_scratch_serves_codecs_of_different_shapes() {
        // A session decodes tail groups (smaller k) with the same scratch
        // it used for full groups; shrinking shapes must not read stale
        // bytes from the previous, larger decode.
        let mut scratch = DecodeScratch::default();
        for (k, h) in [(16usize, 4usize), (4, 2), (7, 3), (2, 1)] {
            let codec = GroupCodec::new(k, h).unwrap();
            let data = sample_data(k, 32);
            let parity = encode_parity(&codec, &refs(&data));
            // Lose the first min(h, k) data shards.
            let lost = h.min(k);
            let shards: Vec<(usize, &[u8])> = data
                .iter()
                .enumerate()
                .skip(lost)
                .map(|(i, d)| (i, d.as_slice()))
                .chain(
                    parity
                        .iter()
                        .enumerate()
                        .map(|(j, p)| (k + j, p.as_slice())),
                )
                .collect();
            let rec = codec.decode(&shards, &mut scratch).unwrap();
            assert_eq!(rec.to_vecs(), data, "k={k} h={h}");
        }
    }
}
