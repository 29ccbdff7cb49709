//! An independent oracle for the codec: the generator `W = V · V_top⁻¹`
//! built from the Vandermonde definition, and erasures solved by naive
//! Gaussian elimination, all in scalar `Gf256` arithmetic (no slice kernel,
//! no `Matrix`), held against all four public paths: `encode_flat`,
//! `encode_into`, `encode_shard_into`, and `reconstruct_flat` and `decode`.

use proptest::prelude::*;
use sharqfec_fec::codec::{DecodeScratch, GroupCodec};
use sharqfec_gf256::Gf256;

/// The `k` solution rows of a rank-`k` system, by Gauss–Jordan elimination;
/// each row is `k` coefficients, then its right-hand sides.
fn solve(mut rows: Vec<Vec<Gf256>>, k: usize) -> Vec<Vec<Gf256>> {
    for c in 0..k {
        let p = (c..rows.len()).find(|&r| !rows[r][c].is_zero());
        rows.swap(c, p.expect("rank k"));
        let inv = rows[c][c].inverse().unwrap();
        let pivot: Vec<Gf256> = rows[c].iter().map(|&v| v * inv).collect();
        for row in &mut rows {
            let f = row[c];
            for (v, &p) in row.iter_mut().zip(&pivot) {
                *v -= f * p;
            }
        }
        rows[c] = pivot;
    }
    rows.iter().take(k).map(|r| r[k..].to_vec()).collect()
}

/// The `(k + h) × k` systematic generator `W = V · V_top⁻¹`, where
/// `V[r][c] = (α^r)^c` and α = 2 generates GF(256)*: `Wᵀ` solves
/// `V_topᵀ · Wᵀ = Vᵀ`, whose row `c` is column `c` of `V_top`, then of `V`.
fn generator(k: usize, h: usize) -> Vec<Vec<Gf256>> {
    let v = |r: usize, c: usize| (0..r * c).fold(Gf256(1), |p, _| p * Gf256(2));
    let system = (0..k).map(|c| (0..k).chain(0..k + h).map(|r| v(r, c)).collect());
    let wt = solve(system.collect(), k);
    (0..k + h)
        .map(|r| (0..k).map(|i| wt[i][r]).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn codec_matches_the_scalar_oracle(
        k in 1usize..=24,
        h in 0usize..=8,
        // Short packets, a few whole 16-byte kernel blocks with tails, and
        // the paper's 1000-byte packet.
        len in prop_oneof![1usize..48, 64usize..130, Just(1000)],
        seed in any::<u64>(),
    ) {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let (codec, w) = (GroupCodec::new(k, h).unwrap(), generator(k, h));
        let mut group: Vec<u8> = (0..(k + h) * len).map(|_| next() as u8).collect();
        codec.encode_flat(&mut group, len).unwrap();
        let packet = |i: usize| &group[i * len..(i + 1) * len];
        for (j, row) in w.iter().enumerate().skip(k) {
            let dot = |b: usize| (0..k).map(|i| row[i] * Gf256(packet(i)[b])).sum::<Gf256>().0;
            prop_assert_eq!(packet(j), &(0..len).map(dot).collect::<Vec<u8>>()[..]);
        }
        let data: Vec<&[u8]> = (0..k).map(packet).collect();
        let mut parity = vec![vec![0x5A; len]; h];
        let mut bufs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
        codec.encode_into(&data, &mut bufs).unwrap();
        prop_assert_eq!(&parity.concat()[..], &group[k * len..]);
        let mut out = vec![0x5A; len];
        for i in 0..k + h {
            codec.encode_shard_into(&data, i, &mut out).unwrap();
            prop_assert_eq!(&out[..], packet(i));
        }

        // Erase up to h packets, data or parity (exactly h in a quarter of
        // the cases), and solve one equation per surviving packet for the
        // k data packets' bytes.
        let mut order: Vec<usize> = (0..k + h).collect();
        (1..k + h).rev().for_each(|i| order.swap(i, next() % (i + 1)));
        let count = if next() % 4 == 0 { h } else { next() % (h + 1) };
        let (erased, survivors) = order.split_at(count);
        let have = |i: usize| !erased.contains(&i);
        let rows = (0..k + h).filter(|&i| have(i)).map(|i| {
            w[i].iter().copied().chain(packet(i).iter().map(|&b| Gf256(b))).collect()
        });
        let want: Vec<u8> = solve(rows.collect(), k).concat().iter().map(|v| v.0).collect();
        prop_assert_eq!(&want[..], &group[..k * len]);

        // decode takes the survivors in shuffled order, the first k used.
        let shards: Vec<(usize, &[u8])> = survivors.iter().map(|&i| (i, packet(i))).collect();
        let mut scratch = DecodeScratch::default();
        prop_assert_eq!(codec.decode(&shards, &mut scratch).unwrap().flat(), &want[..]);

        // reconstruct_flat sees garbage where a packet was erased.
        let (mut data, mut parity) = (group[..k * len].to_vec(), group[k * len..].to_vec());
        for &i in erased {
            let (buf, at) = if i < k { (&mut data, i) } else { (&mut parity, i - k) };
            buf[at * len..(at + 1) * len].fill(0xA5);
        }
        codec
            .reconstruct_flat(&mut data, &parity, len, have, &mut scratch)
            .unwrap();
        prop_assert_eq!(data, want);
    }
}
