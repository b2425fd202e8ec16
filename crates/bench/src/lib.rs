//! Experiment harness shared by the per-figure binaries.
//!
//! Every table and figure of the paper has a binary in `src/bin/` —
//! `table1`, `fig1`, `fig2`, `fig4`, `fig5`, `fig6`, `fig7`, `fig8`,
//! `fig9`, `fig10`, `fig11`, `fig12`, `fig13` — that prints the rows or
//! series the paper reports and writes a machine-readable copy to
//! `results/<id>.json`. The repository benchmark (`benchmark/`) is the
//! one harness that times the library.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod dump;
pub mod netbench;
pub mod output;
pub mod resume;
pub mod sampling;
pub mod scale;
pub mod surrogate;

pub use args::Args;
pub use dump::{DumpSpec, TrialDump};
pub use output::{results_dir, write_json};
pub use resume::{exit_on_engine_error, study_options, CHECKPOINT_FLAGS, DEFAULT_CHECKPOINT_EVERY};
pub use sampling::{print_report, sample_schedule, sampling_permutations, SamplingReport};
pub use scale::{run_azure_scale, AzureScaleReport, AzureScaleStudy};
pub use surrogate::{run_surrogate, SurrogateReport, SurrogateStudy, Tolerancepoint};
