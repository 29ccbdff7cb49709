//! Analysis toolkit for regenerating the paper's tables and figures.
//!
//! * [`series`] — bins [`sharqfec_netsim::metrics::Recorder`] events into
//!   the 0.1-second intervals the paper's Figures 14–21 plot ("performance
//!   … was measured by comparing the sum of data and repair traffic
//!   visible at each session \[member\] over 0.1 second intervals");
//! * [`stats`] — means, percentiles, CDFs for the Figures 11–13 ratio
//!   plots;
//! * [`table`] — plain-text table/TSV rendering for the harness binaries;
//! * [`fig1`] — the §3.1 analytic example: compounded loss, the 27.0 %
//!   P(all receivers get a packet), and the normalized traffic of
//!   non-scoped FEC sized for the worst receiver;
//! * [`national`] — the §5.1 Figure 8 table: state and session-traffic
//!   reduction for the 10,000,210-receiver national hierarchy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fig1;
pub mod national;
pub mod series;
pub mod spark;
pub mod stats;
pub mod table;

pub use fig1::{ExampleTree, NonScopedFecModel};
pub use national::{NationalAnalysis, NationalLevel};
pub use series::{bin_deliveries, BinSpec};
pub use spark::{downsample, spark_row, sparkline};
pub use stats::{cdf, mean, percentile, Summary};
pub use table::Table;
