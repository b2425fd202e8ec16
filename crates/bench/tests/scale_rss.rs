//! Peak-RSS budget of the fleet-scale pipeline: VM generation into the
//! materialized population, its demand sweep, the job stream and the
//! sharded cluster simulator, at 20k VMs over 2 days on 8 shards and 2
//! threads.
//!
//! `VmHWM` is a per-process high-water mark, so this file holds this one
//! test: its test binary runs nothing else that could raise the mark.
//! The mark comes from `/proc`, so the test is Linux-only.

#![cfg(target_os = "linux")]

use fairco2_cluster::policy::FirstFit;
use fairco2_cluster::{run_sharded, Job, JobStream, Simulator};
use fairco2_trace::scale::ScaleVmConfig;
use fairco2_trace::vms::VmEvent;
use fairco2_workloads::ALL_WORKLOADS;

/// The documented memory budget of the full 2M-VM pipeline, in KiB.
const RSS_BUDGET_KIB: u64 = 2 * 1024 * 1024;

/// `VmHWM` (peak resident set) in KiB from `/proc/self/status`.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("status reports VmHWM");
    line.split_whitespace()
        .nth(1)
        .and_then(|kib| kib.parse().ok())
        .expect("VmHWM is a KiB count")
}

/// Cluster jobs for a VM population: the workload kind is hashed from
/// the job index, the arrival is the VM's start. Populations come sorted
/// by start, so the stream needs no re-sort.
fn vm_jobs(vms: &[VmEvent]) -> Vec<Job> {
    vms.iter()
        .enumerate()
        .map(|(id, vm)| Job {
            id,
            kind: ALL_WORKLOADS[((id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize
                % ALL_WORKLOADS.len()],
            arrival_s: vm.start.max(0) as f64,
        })
        .collect()
}

#[test]
fn scale_pipeline_peak_rss_stays_within_budget() {
    let (threads, shards) = (2, 8);
    let cfg = ScaleVmConfig::for_total_vms(20_000, 2);
    let population = cfg.collect_events(threads);
    let demand = population.demand_series(300);
    let stream = JobStream::from_sorted(vm_jobs(population.vms()));
    let sim = Simulator::paper_default();
    let outcome = run_sharded(&sim, &stream, shards, threads, |_| Box::new(FirstFit));

    assert!(population.vms().len() > cfg.long_vm_count);
    assert!(demand.peak() > 0.0);
    assert_eq!(outcome.jobs.len(), population.vms().len());
    let kib = peak_rss_kib();
    assert!(
        kib <= RSS_BUDGET_KIB,
        "peak RSS {kib} KiB exceeds the {RSS_BUDGET_KIB} KiB budget"
    );
}
