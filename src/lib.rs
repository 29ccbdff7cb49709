//! # SHARQFEC — a reproduction of Kermode, SIGCOMM '98
//!
//! *Scoped Hybrid Automatic Repeat reQuest with Forward Error Correction*:
//! reliable multicast that localizes repair and session traffic with a
//! hierarchy of administratively scoped zones.
//!
//! This umbrella crate re-exports the whole workspace; see the individual
//! crates for the deep documentation:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`protocol`] | `sharqfec` | the SHARQFEC protocol and its §6.2 ablation ladder |
//! | [`session`] | `sharqfec-session` | scoped session management, indirect RTT, ZCR election |
//! | [`srm`] | `sharqfec-srm` | the SRM baseline (Floyd et al. '95) |
//! | [`fec`] | `sharqfec-fec` | the Reed–Solomon erasure codec |
//! | [`gf256`] | `sharqfec-gf256` | GF(2⁸) arithmetic |
//! | [`netsim`] | `sharqfec-netsim` | the deterministic discrete-event simulator |
//! | [`topology`] | `sharqfec-topology` | evaluation networks (paper Figure 10 et al.) |
//! | [`scoping`] | `sharqfec-scoping` | nested administrative zones |
//! | [`analysis`] | `sharqfec-analysis` | figure binning and the analytic models |
//!
//! ## Quickstart
//!
//! ```
//! use sharqfec_repro::protocol::{setup_sharqfec_builder, SfAgent, SharqfecConfig};
//! use sharqfec_repro::netsim::{RunSpec, SimTime};
//! use sharqfec_repro::topology::{figure10, Figure10Params};
//!
//! let built = figure10(&Figure10Params::default());
//! let cfg = SharqfecConfig {
//!     total_packets: 32,
//!     ..SharqfecConfig::full()
//! };
//! let mut engine = setup_sharqfec_builder(&built, 42, cfg, SimTime::from_secs(1)).build();
//! engine.advance(RunSpec::to(SimTime::from_secs(60)));
//! for &r in &built.receivers {
//!     assert!(engine.agent::<SfAgent>(r).unwrap().complete());
//! }
//! ```
//!
//! The examples (`cargo run --example …`) walk through the paper's
//! motivating scenarios, and `cargo run -p sharqfec-bench --bin …`
//! regenerates every table and figure (see `DESIGN.md` and
//! `EXPERIMENTS.md`).

#![forbid(unsafe_code)]

/// The SHARQFEC protocol (the paper's contribution).
pub use sharqfec as protocol;

/// Measurement analysis and the paper's analytic models.
pub use sharqfec_analysis as analysis;

/// The Reed–Solomon erasure codec.
pub use sharqfec_fec as fec;

/// GF(2⁸) arithmetic.
pub use sharqfec_gf256 as gf256;

/// The deterministic discrete-event network simulator.
pub use sharqfec_netsim as netsim;

/// Nested administratively scoped zones.
pub use sharqfec_scoping as scoping;

/// Scoped session management and ZCR election.
pub use sharqfec_session as session;

/// The SRM baseline protocol.
pub use sharqfec_srm as srm;

/// Evaluation topologies.
pub use sharqfec_topology as topology;
