//! Job-subset selection (Algorithm 2, step 1): a 0/1 knapsack over GPUs,
//! and the batch policy around it that every batching loop shares — the
//! canonical order a batch is handed over in and the aging of the jobs it
//! defers.

use netpack_workload::Job;
use std::cmp::Ordering;

/// Value a deferred job gains every batch it waits: FindSubset's
/// starvation-avoidance aging (§5.2 step 1), so a job the knapsack keeps
/// leaving out eventually outweighs the jobs that beat it.
pub const DEFERRAL_AGING: f64 = 0.5;

/// FindSubset's canonical batch order: value descending, ties by
/// ascending id. A batch sorted by it does not depend on submission order,
/// so a shuffled submit sequence cannot leak into tie-breaks (the
/// knapsack is order-sensitive under exact value ties).
pub fn placement_order(a: &Job, b: &Job) -> Ordering {
    b.value.total_cmp(&a.value).then(a.id.cmp(&b.id))
}

/// Select the subset of `batch` to place this epoch: a 0/1 knapsack with
/// the cluster's free GPUs as capacity, each job weighing its GPU demand
/// and valued at its (starvation-aged) user value.
///
/// Returns indices into `batch`, in ascending order. Jobs demanding more
/// GPUs than `free_gpus` can never fit, and jobs demanding none have
/// nothing to place; both are excluded outright.
///
/// Every value must be finite and above 0, as `JobBuilder::build` makes
/// it (a debug build asserts it): the table never selects a NaN-valued
/// job, and takes nothing after an infinite one.
///
/// The DP is the standard `O(|Jobs| × |GPUs|)` table the paper cites
/// (Pisinger); values are compared with a deterministic tie-break toward
/// fewer GPUs used so results are stable across runs.
///
/// # Example
///
/// ```
/// use netpack_placement::select_job_subset;
/// use netpack_workload::{Job, ModelKind};
/// use netpack_topology::JobId;
///
/// let batch = vec![
///     Job::builder(JobId(0), ModelKind::Vgg16, 6).value(1.0).build(),
///     Job::builder(JobId(1), ModelKind::Vgg16, 4).value(2.0).build(),
///     Job::builder(JobId(2), ModelKind::Vgg16, 4).value(2.0).build(),
/// ];
/// // 8 free GPUs: the two high-value 4-GPU jobs beat the 6-GPU job.
/// assert_eq!(select_job_subset(&batch, 8), vec![1, 2]);
/// ```
pub fn select_job_subset(batch: &[Job], free_gpus: usize) -> Vec<usize> {
    debug_assert!(
        batch.iter().all(|j| j.value.is_finite() && j.value > 0.0),
        "a job value FindSubset cannot weigh"
    );
    if batch.is_empty() || free_gpus == 0 {
        return Vec::new();
    }
    let eligible: Vec<usize> = (0..batch.len())
        .filter(|&i| (1..=free_gpus).contains(&batch[i].gpus))
        .collect();
    if eligible.is_empty() {
        return Vec::new();
    }
    // Take-all fast path: when every eligible job fits at once and every
    // value clears the DP's tie-break epsilon, the table provably selects
    // all of them (each row strictly improves at every capacity ≥ its
    // prefix weight), so the O(|Jobs| × |GPUs|) sweep — 20M cells on a
    // 200K-GPU cluster — is skipped without changing a single pick.
    let total: usize = eligible.iter().map(|&i| batch[i].gpus).sum();
    if total <= free_gpus && eligible.iter().all(|&i| batch[i].value > 1e-12) {
        return eligible;
    }
    // value[w]: best total value using capacity exactly <= w.
    // choice[item][w]: whether eligible[item] is taken at capacity w.
    let n = eligible.len();
    let cap = free_gpus;
    let mut value = vec![0.0f64; cap + 1];
    let mut used = vec![0usize; cap + 1];
    let mut choice = vec![false; n * (cap + 1)];
    for (it, &bi) in eligible.iter().enumerate() {
        let w = batch[bi].gpus;
        let v = batch[bi].value;
        for c in (w..=cap).rev() {
            let cand = value[c - w] + v;
            let cand_used = used[c - w] + w;
            let better = cand > value[c] + 1e-12
                || ((cand - value[c]).abs() <= 1e-12 && cand_used < used[c]);
            if better {
                value[c] = cand;
                used[c] = cand_used;
                choice[it * (cap + 1) + c] = true;
            }
        }
    }
    // Backtrack from the full capacity.
    let mut c = cap;
    let mut picked = Vec::new();
    for it in (0..n).rev() {
        if choice[it * (cap + 1) + c] {
            picked.push(eligible[it]);
            c -= batch[eligible[it]].gpus;
        }
    }
    picked.sort_unstable();
    picked
}

/// Algorithm 2's batch prologue, shared by the production paths and the
/// reference: FindSubset over `free_gpus`, the jobs left out appended to
/// `deferred` in batch order, and the chosen jobs returned in
/// [`placement_order`].
pub(crate) fn subset_in_placement_order<'a>(
    batch: &'a [Job],
    free_gpus: usize,
    deferred: &mut Vec<Job>,
) -> Vec<&'a Job> {
    let subset = select_job_subset(batch, free_gpus);
    let mut in_subset = vec![false; batch.len()];
    for &i in &subset {
        in_subset[i] = true;
    }
    for (i, job) in batch.iter().enumerate() {
        if !in_subset[i] {
            deferred.push(job.clone());
        }
    }
    let mut ordered: Vec<&Job> = subset.iter().map(|&i| &batch[i]).collect();
    ordered.sort_by(|a, b| placement_order(a, b));
    ordered
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpack_topology::JobId;
    use netpack_workload::ModelKind;

    fn job(id: u64, gpus: usize, value: f64) -> Job {
        Job::builder(JobId(id), ModelKind::AlexNet, gpus)
            .value(value)
            .build()
    }

    #[test]
    fn picks_the_max_value_subset() {
        let batch = vec![job(0, 3, 4.0), job(1, 4, 5.0), job(2, 2, 3.0)];
        // Capacity 5: {0,2} worth 7 beats {1} worth 5.
        assert_eq!(select_job_subset(&batch, 5), vec![0, 2]);
    }

    #[test]
    fn oversized_jobs_are_excluded() {
        let batch = vec![job(0, 10, 100.0), job(1, 2, 1.0)];
        assert_eq!(select_job_subset(&batch, 4), vec![1]);
    }

    #[test]
    fn empty_inputs_yield_empty_subsets() {
        assert!(select_job_subset(&[], 8).is_empty());
        assert!(select_job_subset(&[job(0, 1, 1.0)], 0).is_empty());
    }

    #[test]
    fn everything_fits_when_capacity_allows() {
        let batch = vec![job(0, 2, 1.0), job(1, 2, 1.0), job(2, 2, 1.0)];
        assert_eq!(select_job_subset(&batch, 6), vec![0, 1, 2]);
    }

    #[test]
    fn ties_prefer_fewer_gpus() {
        // Same value, capacity for either; the 2-GPU job wins the tie.
        let batch = vec![job(0, 4, 2.0), job(1, 2, 2.0)];
        let picked = select_job_subset(&batch, 4);
        assert_eq!(picked, vec![1]);
    }

    #[test]
    fn take_all_fast_path_matches_the_dp() {
        // Mixed instances straddling the fast-path condition: whenever
        // everything fits, the answer must equal the DP's (all eligible),
        // including zero-value jobs that the DP's epsilon tie-break drops.
        let all_fit = vec![job(0, 3, 2.0), job(1, 5, 0.5), job(2, 1, 4.0)];
        assert_eq!(select_job_subset(&all_fit, 9), vec![0, 1, 2]);
        // A sub-epsilon value never beats the "fewer GPUs used" tie-break:
        // the slow path drops such a job, so the fast path must not engage.
        let with_eps = vec![job(0, 3, 2.0), job(1, 5, 1e-13)];
        assert_eq!(select_job_subset(&with_eps, 9), vec![0]);
    }

    #[test]
    fn matches_brute_force_on_small_instances() {
        // Deterministic pseudo-random small instances.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _case in 0..200 {
            let n = (next() % 7 + 1) as usize;
            let cap = (next() % 12 + 1) as usize;
            let batch: Vec<Job> = (0..n)
                .map(|i| {
                    job(
                        i as u64,
                        (next() % 6 + 1) as usize,
                        ((next() % 9) + 1) as f64,
                    )
                })
                .collect();
            let picked = select_job_subset(&batch, cap);
            let picked_value: f64 = picked.iter().map(|&i| batch[i].value).sum();
            let picked_weight: usize = picked.iter().map(|&i| batch[i].gpus).sum();
            assert!(picked_weight <= cap, "over capacity");
            // Brute force best value.
            let mut best = 0.0f64;
            for mask in 0u32..(1 << n) {
                let (mut w, mut v) = (0usize, 0.0f64);
                for (i, job) in batch.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        w += job.gpus;
                        v += job.value;
                    }
                }
                if w <= cap {
                    best = best.max(v);
                }
            }
            assert!(
                (picked_value - best).abs() < 1e-9,
                "dp {picked_value} vs brute {best}"
            );
        }
    }
}
