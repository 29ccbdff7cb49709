//! The reference kernel: a fixed piece of std-only work that is timed
//! beside every repetition, so that a timing can be reported relative to
//! what the host was doing at that moment.
//!
//! The host's speed shifts by 10-40% for minutes at a time (README.md has
//! the measurements), longer than an invocation lasts, so nothing taken
//! from the workload's own timings repeats.  This kernel slows down with
//! the workloads: it is a miniature event loop (a binary heap of boxed
//! events, a 2 MiB table of node state touched at random, an occasional
//! short-lived `Vec`), which is the instruction and memory mix of the
//! simulated workloads.  `codec_object` is half that (it allocates, fills
//! and frees 124 MB per run) and half table-lookup arithmetic over byte
//! streams, which a busy host slows at other times than it slows memory
//! traffic, so its kernel adds a byte-stream pass of about the event
//! loop's own length.  No change to the repo's crates can move either: the
//! kernel calls nothing but std and does the same work on every call.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// What the event loop and the byte-stream pass take on this benchmark's
/// host when the host is quiet.  Normalised timings are `ratio x` the
/// kernel's [`Reference::nominal_s`], so they read as seconds on a quiet
/// host.  Constants, so they add no noise of their own.
const EVENT_LOOP_S: f64 = 0.036;
const BYTE_STREAM_S: f64 = 0.039;

const NODES: usize = 1 << 15;
const PENDING: u64 = 20_000;
const EVENTS: u64 = 200_000;
const STREAM_BYTES: usize = 64_000;
/// Odd, so that the XOR passes do not cancel and `dst` can be checked.
const STREAM_PASSES: usize = 1201;

/// The kernel and the state it keeps between calls.
pub struct Reference {
    nodes: Vec<[u64; 8]>,
    /// Source and destination of the byte-stream pass (`codec_object`'s
    /// kernel only).
    stream: Option<(Vec<u8>, Vec<u8>)>,
}

fn xorshift(z: &mut u64) -> u64 {
    *z ^= *z << 13;
    *z ^= *z >> 7;
    *z ^= *z << 17;
    *z
}

impl Reference {
    /// The simulated workloads' kernel: the event loop, its node table
    /// allocated and touched.
    pub fn event_loop() -> Reference {
        Reference {
            nodes: vec![[1; 8]; NODES],
            stream: None,
        }
    }

    /// `codec_object`'s kernel: the event loop, then the byte-stream pass.
    pub fn with_byte_stream() -> Reference {
        let src = (0..STREAM_BYTES as u32)
            .map(|i| ((i * 31) >> 3) as u8)
            .collect();
        Reference {
            stream: Some((src, vec![0; STREAM_BYTES])),
            ..Reference::event_loop()
        }
    }

    /// Seconds one call takes on a quiet host.
    pub fn nominal_s(&self) -> f64 {
        match self.stream {
            Some(_) => EVENT_LOOP_S + BYTE_STREAM_S,
            None => EVENT_LOOP_S,
        }
    }

    /// One call: `EVENTS` pops and pushes on a heap held at `PENDING`
    /// boxed events, then (if this kernel has one) the byte-stream pass.
    /// Returns the seconds it took and a checksum of the event order and
    /// the stream's bytes, which is the same on every call.
    pub fn run(&mut self) -> (f64, u64) {
        let t = Instant::now();
        let mut z = 88_172_645_463_325_252u64;
        let mut heap: BinaryHeap<(Reverse<u64>, Box<[u64; 8]>)> = BinaryHeap::new();
        for k in 0..PENDING {
            heap.push((Reverse(xorshift(&mut z) % 100_000), Box::new([k; 8])));
        }
        let mut order = 0u64;
        let mut acc = 0u64;
        for _ in 0..EVENTS {
            let (Reverse(at), event) = heap.pop().expect("the heap is held at PENDING");
            order = order.wrapping_mul(31).wrapping_add(at ^ event[0]);
            let r = xorshift(&mut z);
            let node = &mut self.nodes[(r >> 20) as usize % NODES];
            let slot = (at & 7) as usize;
            node[slot] = node[slot].wrapping_add(event[3]);
            acc = acc.wrapping_add(node[0]);
            if r & 7 == 0 {
                // A fan-out list: allocated, filled, dropped.
                let list: Vec<u64> = (0..(r >> 58)).collect();
                acc = acc.wrapping_add(black_box(&list).len() as u64);
            }
            heap.push((Reverse(at + r % 1000), Box::new([at; 8])));
        }
        black_box(acc);
        drop(heap);
        if let Some((src, dst)) = &mut self.stream {
            order = order.wrapping_add(byte_stream(src, dst));
        }
        (t.elapsed().as_secs_f64(), order)
    }
}

/// `STREAM_PASSES` multiply-accumulate passes of `src` into `dst` by two
/// 16-entry nibble tables, the shape of a GF(256) shard kernel.  Returns a
/// checksum of `dst`.
fn byte_stream(src: &[u8], dst: &mut [u8]) -> u64 {
    let lo: [u8; 16] = std::array::from_fn(|i| (i * 7 + 3) as u8);
    let hi: [u8; 16] = std::array::from_fn(|i| (i * 29 + 11) as u8);
    dst.fill(0);
    for _ in 0..STREAM_PASSES {
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= lo[usize::from(*s & 15)] ^ hi[usize::from(*s >> 4)];
        }
        black_box(&mut *dst);
    }
    dst.iter().map(|&b| u64::from(b)).sum()
}

/// The median of `values` (the mean of the middle two for an even count).
pub fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// A timing normalised to the quiet host: the median over `samples` of
/// (seconds / the mean of the two kernel calls around that sample), times
/// `nominal_s`, the kernel's quiet-host seconds.  A sample is `(seconds, i)`
/// with `refs[i]` the kernel call before it and `refs[i + 1]` the one after.
pub fn normalised(samples: &[(f64, usize)], refs: &[f64], nominal_s: f64) -> f64 {
    let ratios = samples
        .iter()
        .map(|&(secs, i)| secs / ((refs[i] + refs[i + 1]) / 2.0))
        .collect();
    median(ratios) * nominal_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_the_same_work_on_every_call() {
        for new in [Reference::event_loop, Reference::with_byte_stream] {
            let mut kernel = new();
            let (secs, first) = kernel.run();
            assert!(secs > 0.0);
            // The node table carries over between calls; the event order
            // and the stream, which are all the work depends on, do not.
            assert_eq!(kernel.run().1, first);
            assert_eq!(new().run().1, first);
        }
        // The byte-stream pass is in the checksum.
        assert_ne!(
            Reference::event_loop().run().1,
            Reference::with_byte_stream().run().1
        );
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(vec![7.0]), 7.0);
    }

    #[test]
    fn a_slow_stretch_that_hits_kernel_and_sample_alike_cancels() {
        // Three repetitions; the host runs 1.5x slow around the second.
        let refs = [0.040, 0.060, 0.060, 0.040];
        let samples = [(0.50, 0), (0.60, 1), (0.50, 2)];
        // Ratios 10, 10, 10: the slow stretch is gone.
        let got = normalised(&samples, &refs, 0.036);
        assert!((got - 10.0 * 0.036).abs() < 1e-12, "{got}");
        // Several samples may share a pair of kernel calls (set-up does).
        let setups = [(0.005, 0), (0.006, 1), (0.006, 1), (0.005, 2)];
        let got = normalised(&setups, &refs, 0.036);
        assert!((got - 0.1 * 0.036).abs() < 1e-12, "{got}");
    }
}
