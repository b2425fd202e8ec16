//! Workload schedules with dynamic demand (the Section 6.3 generator's
//! underlying data model).

use std::fmt;

use serde::{Deserialize, Serialize};

use fairco2_trace::vms::VmPopulation;
use fairco2_trace::TimeSeries;

/// Error constructing a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// A workload's `[start, end)` window is empty or reversed.
    EmptyWindow,
    /// A workload runs past the schedule horizon.
    BeyondHorizon {
        /// End step of the offending workload.
        end: usize,
        /// Number of steps in the schedule.
        steps: usize,
    },
    /// The schedule has no time steps or a zero-second step.
    DegenerateGrid,
    /// The schedule has no workloads.
    NoWorkloads,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::EmptyWindow => write!(f, "workload window is empty"),
            ScheduleError::BeyondHorizon { end, steps } => {
                write!(
                    f,
                    "workload ends at step {end} beyond the {steps}-step horizon"
                )
            }
            ScheduleError::DegenerateGrid => write!(f, "schedule needs ≥1 step of ≥1 second"),
            ScheduleError::NoWorkloads => write!(f, "schedule has no workloads"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// One workload in a schedule: a core allocation held over a contiguous
/// window of time steps.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduledWorkload {
    cores: f64,
    start: usize,
    end: usize,
}

impl ScheduledWorkload {
    /// Creates a workload holding `cores` over steps `[start, end)`.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::EmptyWindow`] when `start >= end`.
    pub fn new(cores: f64, start: usize, end: usize) -> Result<Self, ScheduleError> {
        if start >= end {
            return Err(ScheduleError::EmptyWindow);
        }
        Ok(Self { cores, start, end })
    }

    /// Core allocation.
    pub fn cores(&self) -> f64 {
        self.cores
    }

    /// First active step.
    pub fn start(&self) -> usize {
        self.start
    }

    /// One past the last active step.
    pub fn end(&self) -> usize {
        self.end
    }

    /// Number of active steps.
    pub fn duration_steps(&self) -> usize {
        self.end - self.start
    }

    /// Whether the workload is active at `step`.
    pub fn active_at(&self, step: usize) -> bool {
        (self.start..self.end).contains(&step)
    }
}

/// A fixed-horizon schedule of workloads over uniform time steps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    step_seconds: u32,
    steps: usize,
    workloads: Vec<ScheduledWorkload>,
}

impl Schedule {
    /// Creates a schedule with `steps` steps of `step_seconds` each.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::DegenerateGrid`] for an empty grid,
    /// [`ScheduleError::NoWorkloads`] for an empty workload list, and
    /// [`ScheduleError::BeyondHorizon`] if any workload overruns.
    pub fn new(
        step_seconds: u32,
        steps: usize,
        workloads: Vec<ScheduledWorkload>,
    ) -> Result<Self, ScheduleError> {
        if steps == 0 || step_seconds == 0 {
            return Err(ScheduleError::DegenerateGrid);
        }
        if workloads.is_empty() {
            return Err(ScheduleError::NoWorkloads);
        }
        if let Some(w) = workloads.iter().find(|w| w.end > steps) {
            return Err(ScheduleError::BeyondHorizon { end: w.end, steps });
        }
        Ok(Self {
            step_seconds,
            steps,
            workloads,
        })
    }

    /// Step length in seconds.
    pub fn step_seconds(&self) -> u32 {
        self.step_seconds
    }

    /// Number of time steps.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The scheduled workloads.
    pub fn workloads(&self) -> &[ScheduledWorkload] {
        &self.workloads
    }

    /// Aggregate core demand at `step`.
    pub fn demand_at(&self, step: usize) -> f64 {
        self.workloads
            .iter()
            .filter(|w| w.active_at(step))
            .map(|w| w.cores)
            .sum()
    }

    /// Aggregate demand as a time series (start epoch 0).
    pub fn demand_series(&self) -> TimeSeries {
        TimeSeries::from_fn(0, self.step_seconds, self.steps, |t| {
            self.demand_at((t / i64::from(self.step_seconds)) as usize)
        })
        .expect("steps ≥ 1 by construction")
    }

    /// Per-workload demand matrix (`matrix[w][t]`), the input of the
    /// ground-truth [`PeakDemandGame`](fairco2_shapley::game::PeakDemandGame).
    pub fn demand_matrix(&self) -> Vec<Vec<f64>> {
        self.workloads
            .iter()
            .map(|w| {
                (0..self.steps)
                    .map(|t| if w.active_at(t) { w.cores } else { 0.0 })
                    .collect()
            })
            .collect()
    }

    /// Peak aggregate demand — the minimum capacity that must be
    /// provisioned (Figure 1's dashed line).
    pub fn peak_demand(&self) -> f64 {
        (0..self.steps)
            .map(|t| self.demand_at(t))
            .fold(0.0, f64::max)
    }

    /// Builds a schedule from a VM population: each VM becomes one
    /// workload holding its cores over the steps it overlaps (rounded
    /// outward to step boundaries).
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::DegenerateGrid`] for a zero step and
    /// [`ScheduleError::NoWorkloads`] for an empty population.
    pub fn from_vm_population(
        population: &VmPopulation,
        step_seconds: u32,
    ) -> Result<Self, ScheduleError> {
        if step_seconds == 0 {
            return Err(ScheduleError::DegenerateGrid);
        }
        let steps = (population.horizon_s() as u64).div_ceil(u64::from(step_seconds)) as usize;
        let workloads: Vec<ScheduledWorkload> = population
            .vms()
            .iter()
            .map(|vm| {
                let start = (vm.start / i64::from(step_seconds)) as usize;
                let end = ((vm.end as u64).div_ceil(u64::from(step_seconds)) as usize)
                    .clamp(start + 1, steps.max(start + 1));
                ScheduledWorkload::new(vm.cores, start, end.min(steps).max(start + 1))
                    .expect("end > start by construction")
            })
            .collect();
        Self::new(step_seconds, steps, workloads)
    }

    /// Total core-seconds over the schedule.
    pub fn total_core_seconds(&self) -> f64 {
        self.workloads
            .iter()
            .map(|w| w.cores * w.duration_steps() as f64 * f64::from(self.step_seconds))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairco2_trace::scale::ScaleVmConfig;

    fn demo() -> Schedule {
        Schedule::new(
            3600,
            4,
            vec![
                ScheduledWorkload::new(32.0, 0, 4).unwrap(),
                ScheduledWorkload::new(64.0, 1, 3).unwrap(),
                ScheduledWorkload::new(16.0, 3, 4).unwrap(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn demand_profile_and_peak() {
        let s = demo();
        assert_eq!(s.demand_at(0), 32.0);
        assert_eq!(s.demand_at(1), 96.0);
        assert_eq!(s.demand_at(2), 96.0);
        assert_eq!(s.demand_at(3), 48.0);
        assert_eq!(s.peak_demand(), 96.0);
    }

    #[test]
    fn demand_series_matches_steps() {
        let s = demo();
        let series = s.demand_series();
        assert_eq!(series.len(), 4);
        assert_eq!(series.values(), &[32.0, 96.0, 96.0, 48.0]);
        assert_eq!(series.step(), 3600);
    }

    #[test]
    fn demand_matrix_rows_are_workloads() {
        let s = demo();
        let m = s.demand_matrix();
        assert_eq!(m[0], vec![32.0, 32.0, 32.0, 32.0]);
        assert_eq!(m[1], vec![0.0, 64.0, 64.0, 0.0]);
        assert_eq!(m[2], vec![0.0, 0.0, 0.0, 16.0]);
    }

    #[test]
    fn total_core_seconds() {
        let s = demo();
        let expected = (32.0 * 4.0 + 64.0 * 2.0 + 16.0) * 3600.0;
        assert_eq!(s.total_core_seconds(), expected);
    }

    #[test]
    fn vm_population_converts_to_a_schedule() {
        let pop = ScaleVmConfig {
            long_vm_count: 40,
            seed: 5,
            ..ScaleVmConfig::for_total_vms(2_880, 1)
        }
        .collect_events(1);
        let schedule = Schedule::from_vm_population(&pop, 3600).unwrap();
        assert_eq!(schedule.steps(), 24);
        assert_eq!(schedule.workloads().len(), pop.vms().len());
        // Step-rounded demand brackets the exact 5-minute demand peak.
        let exact_peak = pop.demand_series(300).peak();
        assert!(schedule.peak_demand() >= exact_peak * 0.99);
        // Every VM covers at least one step.
        assert!(schedule.workloads().iter().all(|w| w.duration_steps() >= 1));
        assert!(matches!(
            Schedule::from_vm_population(&pop, 0),
            Err(ScheduleError::DegenerateGrid)
        ));
    }

    #[test]
    fn validation_errors() {
        assert_eq!(
            ScheduledWorkload::new(8.0, 2, 2),
            Err(ScheduleError::EmptyWindow)
        );
        let w = ScheduledWorkload::new(8.0, 0, 5).unwrap();
        assert_eq!(
            Schedule::new(3600, 4, vec![w]),
            Err(ScheduleError::BeyondHorizon { end: 5, steps: 4 })
        );
        assert_eq!(
            Schedule::new(0, 4, vec![w]),
            Err(ScheduleError::DegenerateGrid)
        );
        assert_eq!(
            Schedule::new(3600, 4, vec![]),
            Err(ScheduleError::NoWorkloads)
        );
    }
}
