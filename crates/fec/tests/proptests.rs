//! Property-based tests on the erasure codec's core guarantee:
//! *any k of the k+h transmitted packets reconstruct the group*.

use proptest::prelude::*;
use sharqfec_fec::codec::{DecodeScratch, GroupCodec};
use sharqfec_fec::group::{GroupDecoder, GroupEncoder};

/// Encodes all parity shards into fresh vectors (test convenience over the
/// buffer-reusing `encode_into`).
fn encode_parity(codec: &GroupCodec, data: &[&[u8]]) -> Vec<Vec<u8>> {
    let len = data.first().map_or(0, |d| d.len());
    let mut parity = vec![vec![0u8; len]; codec.h()];
    let mut bufs: Vec<&mut [u8]> = parity.iter_mut().map(|v| v.as_mut_slice()).collect();
    codec.encode_into(data, &mut bufs).unwrap();
    parity
}

/// Strategy: a group shape (k, h) within a budget, payload data, and a
/// random survival subset of exactly k indices.
fn group_shape() -> impl Strategy<Value = (usize, usize)> {
    (1usize..=24, 0usize..=8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_k_of_n_reconstructs(
        (k, h) in group_shape(),
        len in 1usize..128,
        seed in any::<u64>(),
    ) {
        let codec = GroupCodec::new(k, h).unwrap();
        let data: Vec<Vec<u8>> = (0..k)
            .map(|i| {
                (0..len)
                    .map(|j| (seed as usize + i * 251 + j * 41) as u8)
                    .collect()
            })
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
        let parity = encode_parity(&codec, &refs);
        let all: Vec<&[u8]> = refs
            .iter()
            .copied()
            .chain(parity.iter().map(|v| v.as_slice()))
            .collect();

        // Pick k surviving indices pseudo-randomly from the seed.
        let n = k + h;
        let mut indices: Vec<usize> = (0..n).collect();
        let mut state = seed | 1;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            indices.swap(i, j);
        }
        let survivors: Vec<(usize, &[u8])> =
            indices[..k].iter().map(|&i| (i, all[i])).collect();

        let mut scratch = DecodeScratch::default();
        let recovered = codec.decode(&survivors, &mut scratch).unwrap();
        prop_assert_eq!(recovered.to_vecs(), data);
    }

    #[test]
    fn parity_packets_differ_from_each_other(
        k in 2usize..=16,
        h in 2usize..=6,
        len in 4usize..64,
    ) {
        // Non-degenerate data must yield pairwise distinct parity packets;
        // identical parity would make the "count, not identity" NACK scheme
        // unsound.
        let codec = GroupCodec::new(k, h).unwrap();
        let data: Vec<Vec<u8>> = (0..k)
            .map(|i| (0..len).map(|j| ((i + 1) * (j + 3) % 256) as u8).collect())
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
        let parity = encode_parity(&codec, &refs);
        for a in 0..parity.len() {
            for b in (a + 1)..parity.len() {
                prop_assert_ne!(&parity[a], &parity[b]);
            }
        }
    }

    #[test]
    fn object_round_trip_with_per_group_loss(
        obj_len in 0usize..4096,
        k in 2usize..=16,
        h in 1usize..=4,
        plen in 16usize..256,
        seed in any::<u64>(),
    ) {
        let obj: Vec<u8> = (0..obj_len).map(|i| (i as u64 ^ seed) as u8).collect();
        let enc = GroupEncoder::new(k, h, plen).unwrap();
        let groups = enc.encode_object(&obj).unwrap();
        let mut dec = GroupDecoder::new(k, h, plen, groups.len()).unwrap();

        let mut state = seed | 1;
        for g in &groups {
            // Drop up to h packets per group, chosen pseudo-randomly.
            let n = k + h;
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let j = (state >> 33) as usize % (i + 1);
                order.swap(i, j);
            }
            let keep: std::collections::HashSet<usize> = order[..n - h].iter().copied().collect();
            for (idx, payload) in g.packets() {
                if keep.contains(&idx) {
                    dec.push(g.group_id, idx, payload).unwrap();
                }
            }
        }
        prop_assert!(dec.complete());
        prop_assert_eq!(dec.finish().unwrap(), obj);
    }

    /// The in-place decoder against `GroupCodec::decode` on the same shard
    /// sets, over arrival orders the simulator's repair traffic produces:
    /// parity ahead of data, duplicates, more than k shards, and data that
    /// turns up after parity had already completed its group.
    #[test]
    fn in_place_decoder_matches_group_codec_on_any_arrival_order(
        obj_len in 0usize..2048,
        k in 1usize..=12,
        h in 0usize..=6,
        plen in 1usize..48,
        seed in any::<u64>(),
    ) {
        let obj: Vec<u8> = (0..obj_len).map(|i| ((i as u64 * 31) ^ seed) as u8).collect();
        let enc = GroupEncoder::new(k, h, plen).unwrap();
        let groups = enc.encode_object(&obj).unwrap();
        prop_assert_eq!(groups.len(), enc.groups_for(obj.len()));
        let mut dec = GroupDecoder::new(k, h, plen, groups.len()).unwrap();
        let n = k + h;

        let mut state = seed | 1;
        let mut next = |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % bound
        };
        let mut scratch = DecodeScratch::default();
        let mut reference = Vec::new();
        for g in &groups {
            let mut order: Vec<usize> = (0..n).collect();
            match next(3) {
                // Every parity packet first, then the data: the parity
                // completes the group (when h >= k) or is all held.
                0 => order.rotate_left(k),
                // h data packets withheld until parity has stood in for them.
                1 => order.rotate_left(h.min(k)),
                _ => {
                    for i in (1..n).rev() {
                        order.swap(i, next(i + 1));
                    }
                }
            }
            // Any count from exactly k to everything, then some repeats.
            order.truncate(k + next(h + 1));
            for _ in 0..next(4) {
                let again = order[next(order.len())];
                order.insert(next(order.len() + 1), again);
            }
            for &idx in &order {
                dec.push(g.group_id, idx, g.packet(idx)).unwrap();
            }
            prop_assert!(dec.group_complete(g.group_id));
            prop_assert_eq!(dec.deficit(g.group_id), 0);

            let mut distinct: Vec<(usize, &[u8])> = Vec::new();
            for &idx in &order {
                if distinct.iter().all(|&(seen, _)| seen != idx) {
                    distinct.push((idx, g.packet(idx)));
                }
            }
            reference.extend_from_slice(codec_flat(enc.codec(), &distinct, &mut scratch));
        }
        prop_assert!(dec.complete());
        let decoded = dec.finish().unwrap();
        prop_assert_eq!(&decoded[..], &reference[8..8 + obj.len()]);
        prop_assert_eq!(decoded, obj);
    }
}

/// `GroupCodec::decode` of one group, as its flat `k · len` byte run.
fn codec_flat<'s>(
    codec: &GroupCodec,
    shards: &[(usize, &[u8])],
    scratch: &'s mut DecodeScratch,
) -> &'s [u8] {
    codec.decode(shards, scratch).unwrap().flat()
}
