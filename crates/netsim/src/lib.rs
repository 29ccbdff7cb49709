//! A deterministic discrete-event multicast network simulator.
//!
//! The SHARQFEC paper evaluated its protocol inside the UCB/LBNL/VINT
//! simulator *ns* with the *nam* animator.  Neither is a Rust substrate we
//! can build on, so this crate reimplements the slice of ns the paper's
//! experiments exercise:
//!
//! * **Topology** — an undirected graph of nodes and links, each link with a
//!   propagation latency, a bandwidth, and a pluggable loss process —
//!   i.i.d. Bernoulli or a bursty Gilbert–Elliott chain ([`graph`],
//!   [`link`], [`faults`]).
//! * **Routing** — one shortest-path spanning forest on latency, node
//!   0's tree plus one per component a link fault cuts off, that every
//!   source forwards over; on a tree, the only kind the generators build,
//!   that is each source's own shortest-path tree, which is how ns builds
//!   its multicast distribution trees.  It is recomputed in place against
//!   the *current* link-up mask whenever a fault plan takes a link down or
//!   up ([`routing`]).
//! * **Fault injection** — a declarative [`faults::FaultPlan`] schedules
//!   link flaps, loss changes, and node churn as ordinary DES events
//!   ([`faults`]).
//! * **Workload scenarios** — a declarative [`scenario::ScenarioPlan`]
//!   schedules dynamic membership the same way: late joins, flash crowds,
//!   leave/rejoin churn, and sender handoff compile to membership and
//!   agent start/stop events at build time ([`scenario`]).
//! * **Multicast channels** — named groups of member nodes.  A packet sent
//!   on a channel is forwarded hop-by-hop down the sender-rooted tree,
//!   store-and-forward, with per-directed-link FIFO serialization and
//!   independent per-link Bernoulli loss ([`channel`], [`engine`]).
//!   Administrative scoping is modelled by channel membership: forwarding
//!   prunes at non-member nodes, exactly like a border router configured to
//!   keep an admin-scoped group inside its region.
//! * **Agents** — protocol state machines attached to nodes, driven by
//!   packet-delivery and timer events ([`agent`]).
//! * **Deterministic RNG** — one seeded generator drives all loss sampling
//!   and is handed to agents for their timer jitter, so a run is a pure
//!   function of (topology, agents, seed) ([`rng`]).
//! * **Id-keyed maps** — one fixed-seed integer hasher for every map keyed
//!   by an id the program minted itself, so iteration order (and anything
//!   folded over it) is a function of the run, not of the process
//!   ([`idhash`]).
//! * **Metrics** — every transmission, delivery, and drop is recorded with
//!   a timestamp, node, and traffic class, which is precisely the data the
//!   paper's Figures 11–21 are plotted from ([`metrics`]).
//!
//! Loss is applied per traffic class following the paper's §6.2 setup:
//! data and repair packets traverse lossy links, session messages and NACKs
//! do not ("Session traffic and NACKs were not subject to losses").
//!
//! # Example
//!
//! ```
//! use sharqfec_netsim::prelude::*;
//!
//! // Two nodes joined by a 10 ms, 10 Mbit/s, lossless link.
//! let mut topo = TopologyBuilder::new();
//! let a = topo.add_node("a");
//! let b = topo.add_node("b");
//! topo.add_link(a, b, LinkParams::new(SimDuration::from_millis(10), 10_000_000, 0.0));
//!
//! #[derive(Clone, Debug)]
//! struct Ping;
//! impl Classify for Ping {
//!     fn class(&self) -> TrafficClass { TrafficClass::Data }
//! }
//!
//! struct Sender { chan: ChannelId }
//! impl Agent<Ping> for Sender {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, Ping>) {
//!         ctx.multicast(self.chan, Ping, 1000);
//!     }
//!     fn on_packet(&mut self, _: &mut Ctx<'_, Ping>, _: &Packet<Ping>) {}
//! }
//! struct Sink { got: u32 }
//! impl Agent<Ping> for Sink {
//!     fn on_packet(&mut self, _: &mut Ctx<'_, Ping>, _: &Packet<Ping>) {
//!         self.got += 1;
//!     }
//! }
//!
//! let mut builder = EngineBuilder::new(topo.build(), 42);
//! let chan = builder.add_channel(&[a, b]);
//! builder.add_agent(a, Box::new(Sender { chan }));
//! builder.add_agent(b, Box::new(Sink { got: 0 }));
//! let mut engine = builder.build();
//! engine.advance(RunSpec::to(SimTime::from_secs(1)));
//! assert_eq!(engine.recorder().deliveries.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod agent;
mod arena;
pub mod channel;
pub mod engine;
pub mod faults;
pub mod graph;
pub mod idhash;
pub mod json;
pub mod link;
pub mod metrics;
pub mod packet;
pub mod probe;
pub mod queue;
pub mod rng;
pub mod routing;
pub mod runner;
pub mod scenario;
pub mod shard;
pub mod testkit;
pub mod time;

/// One-stop import for simulator users.
pub mod prelude {
    pub use crate::agent::{Agent, Ctx, TimerId};
    pub use crate::channel::ChannelId;
    pub use crate::engine::{Engine, EngineBuilder};
    pub use crate::faults::{FaultEvent, FaultPlan, LossModel};
    pub use crate::graph::{LinkId, LinkParams, NodeId, Topology, TopologyBuilder};
    pub use crate::idhash::{IdHashMap, IdHashSet};
    pub use crate::metrics::{Recorder, RecorderMode, TrafficClass};
    pub use crate::packet::{Classify, Packet};
    pub use crate::probe::{
        AuditConfig, AuditReport, Auditor, NackOutcome, ProbeEvent, ProbeRecord, ProbeSink,
        ZcrAction,
    };
    pub use crate::rng::SimRng;
    pub use crate::scenario::{MembershipEvent, ScenarioPlan};
    pub use crate::shard::{RunSpec, ShardPlan};
    pub use crate::time::{SimDuration, SimTime};
}

pub use prelude::*;
