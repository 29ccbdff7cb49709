//! The systematic "any k of n" erasure codec.
//!
//! Construction (Rizzo '97): start from the `n × k` Vandermonde matrix `V`
//! over GF(256) with distinct evaluation points, then post-multiply by the
//! inverse of its top `k × k` block: `W = V · (V_top)⁻¹`.  The top `k` rows
//! of `W` are the identity — so the first `k` output packets are the data
//! packets verbatim (systematic) — while any `k` rows of `W` remain
//! invertible, because they are the product of an invertible Vandermonde
//! row-selection with a fixed invertible matrix.

use crate::matrix::Matrix;
use crate::{FecError, MAX_GROUP};
use sharqfec_gf256::{mul_acc_slice, Gf256};

/// Reusable decode workspace.
///
/// [`GroupCodec::decode`] writes the recovered data shards into this
/// scratch's flat buffer and borrows the result back as a
/// [`RecoveredGroup`].  All buffers (seen-set, row selection, decode
/// matrices, output) are grown once and reused, so steady-state repair
/// decoding — the same codec shape group after group — performs no heap
/// allocation at all.
#[derive(Debug, Default, Clone)]
pub struct DecodeScratch {
    /// Dedup bitmap over shard indices, `n` entries.
    seen: Vec<bool>,
    /// Indices of the k shards used for reconstruction.
    rows: Vec<usize>,
    /// The selected k×k generator rows (destroyed by inversion).
    sub: Matrix,
    /// The inverse decode matrix.
    inv: Matrix,
    /// Flat `k × shard_len` output buffer.
    out: Vec<u8>,
}

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
/// erasures costs one k×k inversion plus O(e · k · len).
///
/// The codec is immutable and shareable; in the simulator one codec per
/// group shape is built once and reused for every group.
#[derive(Clone)]
pub struct GroupCodec {
    k: usize,
    h: usize,
    /// The full (k+h) × k generator matrix `W`; rows `0..k` are identity.
    generator: Matrix,
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
        Ok(GroupCodec { k, h, generator })
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
    /// The buffers are zeroed and overwritten; on error their contents are
    /// unspecified.  Callers own the storage, so a steady-state encoder
    /// reuses the same parity buffers group after group.
    pub fn encode_into(&self, data: &[&[u8]], parity: &mut [&mut [u8]]) -> Result<(), FecError> {
        self.check_data(data)?;
        if parity.len() != self.h {
            return Err(FecError::WrongShardCount {
                expected: self.h,
                got: parity.len(),
            });
        }
        let len = data[0].len();
        for (j, out) in parity.iter_mut().enumerate() {
            if out.len() != len {
                return Err(FecError::UnequalShardLengths);
            }
            self.combine(self.k + j, out, data.iter().copied());
        }
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
                expected: self.n(),
                got: group.len() / len,
            });
        }
        let (data, parity) = group.split_at_mut(self.k * len);
        for (j, out) in parity.chunks_exact_mut(len).enumerate() {
            self.combine(self.k + j, out, data.chunks_exact(len));
        }
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
        self.combine(index, out, data.iter().copied());
        Ok(())
    }

    /// Output packet `index` as the generator row's combination of the `k`
    /// data packets: `out = Σ W[index][i] · data[i]`.
    fn combine<'a>(&self, index: usize, out: &mut [u8], data: impl Iterator<Item = &'a [u8]>) {
        out.fill(0);
        for (shard, &coeff) in data.zip(self.generator.row(index)) {
            mul_acc_slice(out, shard, coeff);
        }
    }

    /// Reconstructs the `k` original data packets from any `k` received
    /// packets given as `(index, payload)` pairs, writing them into
    /// `scratch` and returning a borrowed [`RecoveredGroup`] view.
    ///
    /// Extra packets beyond `k` are ignored (the first `k` are used; all
    /// entries are still validated).  Indices must be distinct and in
    /// `0..k+h`; payloads must be non-empty and of equal length.
    ///
    /// The scratch may be shared across codecs of different shapes; its
    /// buffers grow to the largest shape seen and are then reused without
    /// further allocation.
    pub fn decode<'s>(
        &self,
        shards: &[(usize, &[u8])],
        scratch: &'s mut DecodeScratch,
    ) -> Result<RecoveredGroup<'s>, FecError> {
        if shards.len() < self.k {
            return Err(FecError::NotEnoughShards {
                needed: self.k,
                got: shards.len(),
            });
        }
        let len = shards[0].1.len();
        if len == 0 {
            return Err(FecError::EmptyShards);
        }
        scratch.seen.clear();
        scratch.seen.resize(self.n(), false);
        for &(idx, payload) in shards {
            if idx >= self.n() {
                return Err(FecError::IndexOutOfRange {
                    index: idx,
                    group: self.n(),
                });
            }
            if scratch.seen[idx] {
                return Err(FecError::DuplicateIndex(idx));
            }
            scratch.seen[idx] = true;
            if payload.len() != len {
                return Err(FecError::UnequalShardLengths);
            }
        }
        // Every entry is valid and indices are distinct, so the shards used
        // for reconstruction are simply the first k in input order.
        let use_shards = &shards[..self.k];
        scratch.out.clear();
        scratch.out.resize(self.k * len, 0);

        // Fast path: if the k selected shards are exactly the data shards,
        // no algebra is needed.
        if use_shards.iter().all(|&(idx, _)| idx < self.k) {
            for &(idx, payload) in use_shards {
                scratch.out[idx * len..(idx + 1) * len].copy_from_slice(payload);
            }
            // All k data indices are distinct and < k, so all slots filled.
            return Ok(RecoveredGroup {
                flat: &scratch.out,
                shard_len: len,
            });
        }

        scratch.rows.clear();
        scratch.rows.extend(use_shards.iter().map(|&(i, _)| i));
        scratch.sub.select_rows_into(&self.generator, &scratch.rows);
        if !scratch.sub.invert_into(&mut scratch.inv) {
            return Err(FecError::SingularMatrix);
        }

        for data_row in 0..self.k {
            let out_shard = &mut scratch.out[data_row * len..(data_row + 1) * len];
            let coeffs = scratch.inv.row(data_row);
            for (j, &(_, payload)) in use_shards.iter().enumerate() {
                mul_acc_slice(out_shard, payload, coeffs[j]);
            }
        }
        Ok(RecoveredGroup {
            flat: &scratch.out,
            shard_len: len,
        })
    }

    /// Rebuilds, in place, the data packets a group is missing.
    ///
    /// The group is held flat: `data` is `k · len` bytes with data packet
    /// `i` at offset `i · len`, `parity` is `h · len` bytes with parity
    /// packet `k + j` at offset `j · len`, and `have(i)` says which of the
    /// `k + h` packets are really there (the rest of either buffer is
    /// never read).  Only the missing data packets are computed — from the
    /// present data packets and the lowest-indexed present parity packets —
    /// so a group that lost `e` packets costs one `k × k` inversion plus
    /// `O(e · k · len)`, not the `O(k² · len)` of a full [`decode`].
    ///
    /// [`decode`]: GroupCodec::decode
    pub fn reconstruct_flat(
        &self,
        data: &mut [u8],
        parity: &[u8],
        len: usize,
        have: impl Fn(usize) -> bool,
        scratch: &mut DecodeScratch,
    ) -> Result<(), FecError> {
        if len == 0 {
            return Err(FecError::EmptyShards);
        }
        if self.k.checked_mul(len) != Some(data.len()) {
            return Err(FecError::WrongShardCount {
                expected: self.k,
                got: data.len() / len,
            });
        }
        scratch.rows.clear();
        scratch.rows.extend((0..self.k).filter(|&i| have(i)));
        if scratch.rows.len() == self.k {
            return Ok(());
        }
        if self.h.checked_mul(len) != Some(parity.len()) {
            return Err(FecError::WrongShardCount {
                expected: self.h,
                got: parity.len() / len,
            });
        }
        let short = self.k - scratch.rows.len();
        scratch
            .rows
            .extend((self.k..self.n()).filter(|&i| have(i)).take(short));
        if scratch.rows.len() < self.k {
            return Err(FecError::NotEnoughShards {
                needed: self.k,
                got: scratch.rows.len(),
            });
        }
        scratch.sub.select_rows_into(&self.generator, &scratch.rows);
        if !scratch.sub.invert_into(&mut scratch.inv) {
            return Err(FecError::SingularMatrix);
        }
        for missing in (0..self.k).filter(|&i| !have(i)) {
            let at = missing * len;
            data[at..at + len].fill(0);
            let coeffs = scratch.inv.row(missing);
            for (&row, &coeff) in scratch.rows.iter().zip(coeffs) {
                // Source and destination may be two packets of one buffer:
                // split it between them.
                let (out, src) = if row >= self.k {
                    let from = (row - self.k) * len;
                    (&mut data[at..at + len], &parity[from..from + len])
                } else if row < missing {
                    let (lo, hi) = data.split_at_mut(at);
                    (&mut hi[..len], &lo[row * len..(row + 1) * len])
                } else {
                    let (lo, hi) = data.split_at_mut(row * len);
                    (&mut lo[at..at + len], &hi[..len])
                };
                mul_acc_slice(out, src, coeff);
            }
        }
        Ok(())
    }

    fn check_data(&self, data: &[&[u8]]) -> Result<(), FecError> {
        if data.len() != self.k {
            return Err(FecError::WrongShardCount {
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
                expected: 4,
                got: 3
            }
        );
        assert_eq!(
            codec
                .reconstruct_flat(&mut whole, &parity[len..], len, |i| i > 0, &mut scratch)
                .unwrap_err(),
            FecError::WrongShardCount {
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
