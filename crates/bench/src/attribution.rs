//! Critical-path attribution helpers for the experiment binaries: re-run
//! a job through `vc_obs::analyze` and render compact per-category
//! columns for the result tables.

use vc_mapreduce::engine::SimParams;
use vc_mapreduce::{simulate_job_observed, JobConfig, JobObservation, VirtualCluster};
use vc_obs::{analyze, Category, JobAttribution, MemRecorder};

/// Run `job` on `cluster` with recording enabled and return its
/// critical-path attribution. Deterministic, so re-running alongside an
/// unrecorded measurement reproduces the same job.
pub fn job_attribution(
    cluster: &VirtualCluster,
    job: &JobConfig,
    params: &SimParams,
) -> JobAttribution {
    let rec = MemRecorder::new();
    let _ = simulate_job_observed(cluster, job, params, &JobObservation::new(&rec));
    analyze(&rec.into_dump())
        .into_iter()
        .next()
        .expect("job run records exactly one job span")
}

/// Percentage of the job's makespan attributed to `cat`.
pub fn pct(a: &JobAttribution, cat: Category) -> f64 {
    100.0 * a.total_us(cat) as f64 / a.makespan_us().max(1) as f64
}

/// Compact `map/shuffle/reduce/wait` percentage cell for result tables.
/// Straggler slack counts toward map, serialisation + network wait toward
/// shuffle, so the four numbers sum to ~100.
pub fn summary_cell(a: &JobAttribution) -> String {
    format!(
        "{:.0}/{:.0}/{:.0}/{:.0}%",
        pct(a, Category::Map) + pct(a, Category::StragglerSlack),
        pct(a, Category::ShuffleSerialisation) + pct(a, Category::ShuffleNetworkWait),
        pct(a, Category::Reduce),
        pct(a, Category::SchedulerWait),
    )
}

/// [`summary_cell`] over many jobs, weighted by makespan (total µs per
/// category over total makespan).
pub fn aggregate_cell(jobs: &[JobAttribution]) -> String {
    let total = jobs
        .iter()
        .map(JobAttribution::makespan_us)
        .sum::<u64>()
        .max(1) as f64;
    let sum = |cats: &[Category]| -> f64 {
        100.0
            * cats
                .iter()
                .map(|&c| jobs.iter().map(|j| j.total_us(c)).sum::<u64>())
                .sum::<u64>() as f64
            / total
    };
    format!(
        "{:.0}/{:.0}/{:.0}/{:.0}%",
        sum(&[Category::Map, Category::StragglerSlack]),
        sum(&[Category::ShuffleSerialisation, Category::ShuffleNetworkWait]),
        sum(&[Category::Reduce]),
        sum(&[Category::SchedulerWait]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;

    #[test]
    fn wordcount_attribution_tiles_makespan() {
        let job = JobConfig::paper_wordcount();
        let (_, cluster) = scenarios::fig7_clusters().remove(0);
        let a = job_attribution(&cluster, &job, &SimParams::default());
        assert_eq!(a.attributed_us(), a.makespan_us());
        let cell = summary_cell(&a);
        assert!(cell.ends_with('%'), "{cell}");
        assert_eq!(aggregate_cell(std::slice::from_ref(&a)), cell);
    }
}
