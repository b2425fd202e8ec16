//! Time-series substrate for the Fair-CO₂ reproduction.
//!
//! The attribution framework consumes two kinds of time series:
//!
//! * **resource demand traces** — aggregate data-center demand for a
//!   resource (e.g. CPU cores) over time, at a fixed sampling step; the
//!   paper uses the Azure 2017 VM trace, which we substitute with the
//!   statistically equivalent synthetic generator in [`demand`], and
//! * **grid carbon-intensity traces** — gCO₂e/kWh of the power grid over
//!   time; the paper uses Electricity Maps data for California and Sweden,
//!   substituted by the generators in [`grid`].
//!
//! Where attribution needs the individual VMs behind a demand curve, one
//! generator, [`scale::ScaleVmConfig`], draws a Hadary-style VM trace —
//! from a few thousand VMs to the ~2M-VM Azure-scale study — and streams
//! it or collects it into a [`vms::VmPopulation`].
//!
//! The core type is [`TimeSeries`], a uniformly sampled series with the
//! peak / integral / resampling operations that Temporal Shapley attribution
//! is built on.
//!
//! # Example
//!
//! ```
//! use fairco2_trace::{TimeSeries, demand::AzureLikeTrace};
//!
//! let trace = AzureLikeTrace::builder()
//!     .days(30)
//!     .step_seconds(300)
//!     .seed(7)
//!     .build();
//! let demand: &TimeSeries = trace.series();
//! assert!(demand.peak() > demand.mean());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod demand;
pub mod grid;
pub mod scale;
pub mod series;
pub mod stats;
pub mod vms;

pub use demand::AzureLikeTrace;
pub use grid::GridIntensityTrace;
pub use series::TimeSeries;
