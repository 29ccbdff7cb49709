//! Packet-level Forward Error Correction for SHARQFEC.
//!
//! The SHARQFEC paper (Kermode, SIGCOMM '98) transmits data in *packet
//! groups* of `k` packets and repairs losses by sending *FEC packets*
//! generated from the group, in the style of Rizzo's erasure-code library
//! ("Effective Erasure Codes for Reliable Computer Communication
//! Protocols", CCR 1997, the paper's reference \[14\]).  Any `k` distinct
//! packets out of the `k + h` transmitted reconstruct the original group —
//! which is exactly why SHARQFEC NACKs carry a *count* of missing packets
//! rather than packet identities.
//!
//! This crate provides that codec:
//!
//! * [`matrix`] — dense matrices over GF(256) with Gauss–Jordan inversion;
//! * [`codec`] — the systematic encoder/decoder ([`GroupCodec`]);
//! * [`group`] — framing of an application byte stream into packet groups
//!   ([`GroupEncoder`] / [`GroupDecoder`]), the shape used by the examples:
//!   one contiguous buffer per encoded group, and a decoder that assembles
//!   the object in the buffer it hands over.
//!
//! # Quickstart
//!
//! The codec works over borrowed shard views: encoding writes parity into
//! caller-provided buffers, and decoding reuses a [`DecodeScratch`]
//! workspace so steady-state repair decoding never allocates.
//!
//! ```
//! use sharqfec_fec::codec::{DecodeScratch, GroupCodec};
//!
//! // A group of k = 4 data packets, able to survive any 2 losses.
//! let codec = GroupCodec::new(4, 2).unwrap();
//! let data: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 16]).collect();
//! let shards: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
//! let mut parity = vec![vec![0u8; 16]; 2];
//! {
//!     let mut bufs: Vec<&mut [u8]> = parity.iter_mut().map(|v| v.as_mut_slice()).collect();
//!     codec.encode_into(&shards, &mut bufs).unwrap();
//! }
//!
//! // Lose packets 1 and 3; recover from 0, 2 and the two parity packets.
//! let received = vec![
//!     (0usize, data[0].as_slice()),
//!     (2, data[2].as_slice()),
//!     (4, parity[0].as_slice()),
//!     (5, parity[1].as_slice()),
//! ];
//! let mut scratch = DecodeScratch::default();
//! let recovered = codec.decode(&received, &mut scratch).unwrap();
//! assert_eq!(recovered.to_vecs(), data);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod group;
pub mod matrix;

pub use codec::{DecodeScratch, GroupCodec, RecoveredGroup};
pub use group::{GroupDecoder, GroupEncoder};

/// Maximum total number of packets (`k + h`) in one group.
///
/// The codec evaluates its generator rows at the 255 distinct nonzero
/// points of GF(256), so a group may contain at most 255 packets.
pub const MAX_GROUP: usize = 255;

/// Errors produced by the erasure codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FecError {
    /// `k` must be at least 1.
    ZeroDataShards,
    /// An object of zero groups: every object, even an empty one, has one.
    ZeroGroups,
    /// `k + h` exceeded [`MAX_GROUP`].
    GroupTooLarge {
        /// Requested number of data packets.
        k: usize,
        /// Requested number of parity packets.
        h: usize,
    },
    /// A codec call was handed the wrong number of shards or buffers.
    WrongShardCount {
        /// What was counted: data shards, parity buffers, ….
        what: &'static str,
        /// Shards expected.
        expected: usize,
        /// Shards received.
        got: usize,
    },
    /// Shards must all have the same length.
    UnequalShardLengths,
    /// Shards must be non-empty.
    EmptyShards,
    /// A shard index was out of range for this group.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// Number of shards in the group (`k + h`).
        group: usize,
    },
    /// The same shard index appeared twice in a decode call.
    DuplicateIndex(usize),
    /// Fewer than `k` shards were supplied to decode.
    NotEnoughShards {
        /// Shards needed (`k`).
        needed: usize,
        /// Shards supplied.
        got: usize,
    },
    /// Internal error: the decode matrix was singular.  With the systematic
    /// Vandermonde construction this cannot happen for valid inputs; seeing
    /// it indicates shard indices that lie, or memory corruption.
    SingularMatrix,
    /// The framed byte-stream header was malformed.
    BadFrame(&'static str),
    /// `n_groups · k · payload_len` does not fit in memory's address range,
    /// so no decoder for such an object can exist.
    ObjectTooLarge,
}

impl core::fmt::Display for FecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FecError::ZeroDataShards => write!(f, "k (data packets per group) must be >= 1"),
            FecError::ZeroGroups => write!(f, "an object spans at least one group"),
            FecError::GroupTooLarge { k, h } => write!(
                f,
                "group size k+h = {} exceeds the GF(256) limit of {}",
                k + h,
                MAX_GROUP
            ),
            FecError::WrongShardCount {
                what,
                expected,
                got,
            } => {
                write!(f, "expected {expected} {what}, got {got}")
            }
            FecError::UnequalShardLengths => write!(f, "all shards must have equal length"),
            FecError::EmptyShards => write!(f, "shards must be non-empty"),
            FecError::IndexOutOfRange { index, group } => {
                write!(f, "shard index {index} out of range for group of {group}")
            }
            FecError::DuplicateIndex(i) => write!(f, "duplicate shard index {i}"),
            FecError::NotEnoughShards { needed, got } => {
                write!(f, "need at least {needed} shards to decode, got {got}")
            }
            FecError::SingularMatrix => write!(f, "decode matrix is singular (corrupt input?)"),
            FecError::BadFrame(msg) => write!(f, "malformed frame: {msg}"),
            FecError::ObjectTooLarge => write!(f, "object size overflows the address range"),
        }
    }
}

impl std::error::Error for FecError {}
