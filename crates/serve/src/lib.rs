//! The always-on attribution service (`fairco2-serve`).
//!
//! Fair-CO2's attribution outputs are billing artifacts: tenants query
//! "how much carbon is my reservation responsible for over `[t0, t1)`?"
//! continuously, while 5-minute demand samples keep arriving. This
//! crate turns the frozen Temporal Shapley cascade into a service:
//!
//! * [`service`] — the single-writer [`AttributionService`]: samples
//!   stream into the [`IncrementalCascade`](fairco2_shapley::incremental),
//!   which closes each full window through the frozen cascade at
//!   amortized `O(levels)` per sample; every closed window publishes
//!   an immutable epoch snapshot via one atomic pointer swap, so
//!   readers never take a lock. A negative or non-finite carbon per
//!   window is refused at start, as a bad sample is at ingest. Closed
//!   windows are optionally persisted through the checkpoint layer's
//!   durable-write helper (tmp + fsync + rename + parent-directory
//!   fsync).
//! * [`epoch`] — the read side: [`EpochSnapshot`] answers billing
//!   queries over a segmented carbon prefix, bit-identical to a
//!   from-scratch rebuild of the same windows at any thread count;
//!   batches shard over `run_parallel` worker threads with an in-order
//!   merge.
//! * [`load`] — the deterministic ingest + query load harness behind
//!   the `serve` binary.
//!
//! The crate denies `unsafe_code`, and exactly one function opts out:
//! the lock-free reader's audited dereference in
//! [`ServiceHandle::epoch`], made sound by never freeing published
//! epochs while the service is alive. Everything else, the shared
//! window log included, is safe code. The crate cannot
//! `#![forbid(unsafe_code)]` like the solver crates until the reader
//! gets its epochs without a raw pointer.
//!
//! # Example
//!
//! ```
//! use fairco2_serve::{AttributionService, ServiceConfig};
//!
//! let config = ServiceConfig { splits: vec![2], leaf_samples: 2, ..Default::default() };
//! let mut service = AttributionService::start(config).unwrap();
//! let handle = service.handle();
//! assert_eq!(handle.epoch().epoch, 0); // empty epoch exists at startup
//! for i in 0..4 {
//!     service.ingest(1.0 + i as f64).unwrap();
//! }
//! let epoch = handle.epoch();
//! assert_eq!(epoch.epoch, 1);
//! // A tenant holding 1 unit for the whole window:
//! let billed = epoch.carbon((0, 4 * 300, 1.0));
//! assert!(billed > 0.0);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod epoch;
pub mod load;
pub mod service;

pub use epoch::{EpochSnapshot, WindowSegment, Windows};
pub use load::{demand_sample, run_load, LoadOptions, LoadReport};
pub use service::{
    read_persisted_window, AttributionService, ServeError, ServiceConfig, ServiceHandle,
};
