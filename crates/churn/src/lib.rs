//! # ta-churn — availability traces and the synthetic smartphone churn model
//!
//! Substrate crate of the token account reproduction. The paper evaluates
//! its protocols over a real smartphone availability trace (STUNner, ref. 8);
//! this crate provides:
//!
//! * [`schedule::AvailabilitySchedule`] — validated per-node availability,
//!   pluggable into the simulator via
//!   [`ta_sim::engine::AvailabilityModel`].
//! * [`synthetic::SmartphoneTraceModel`] — a diurnal two-state Markov model
//!   calibrated to the paper's Figure 1, standing in for the proprietary
//!   trace (the module docs of `synthetic.rs` say why that is sound).
//! * [`trace_io`] — a text format for loading real traces.
//! * [`stats::figure1_series`] — the Figure-1 statistics of any schedule.
//!
//! ```
//! use ta_churn::synthetic::SmartphoneTraceModel;
//! use ta_sim::paper;
//! use ta_sim::SimTime;
//!
//! let sched = SmartphoneTraceModel::default().generate(1_000, paper::TWO_DAYS, 42);
//! let noon = SimTime::from_secs(12 * 3600);
//! assert!(sched.online_fraction_at(noon) > 0.1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod schedule;
pub mod stats;
pub mod synthetic;
pub mod trace_io;

pub use schedule::{AvailabilitySchedule, Segment};
pub use stats::{figure1_series, ChurnBucket};
pub use synthetic::SmartphoneTraceModel;
