//! Bounded candidate selection for the `V[s][f][g]` worker-placement DP.
//!
//! At warehouse scale the DP cannot afford to consider every server: a
//! 50k-server sweep per job dominates the placement time long before the
//! table itself does. This module prunes the server list *before* the DP
//! runs, keeping only servers that can appear in some optimal plan.
//!
//! # The pruning bound, and why it is loss-free
//!
//! The DP's weight is two-dimensional: a server contributes all `w` of its
//! free GPUs and its flow count clamped to `f = min(flows, FS_max)`.
//! Servers with equal `(w, f)` are interchangeable for every DP cell —
//! only their values differ. Any feasible plan carries at most
//! `g_max = demand + slack` GPUs, so it uses at most `K_w = ⌊g_max / w⌋`
//! servers of weight `w` in total — and a fortiori at most `K_w` members
//! of any single `(w, f)` class. Keeping the top `K_w` members of each
//! class by `(value desc, server id asc)` therefore preserves every cell's
//! optimum: a plan using a dropped member also leaves some kept member of
//! the same class unused (there are `K_w` kept and the plan uses fewer),
//! and exchanging the two keeps the plan's `(f, g)` coordinates while not
//! decreasing its value (exact arithmetic).
//!
//! Floating-point caveat, and why production and the reference share this
//! filter: an exchange re-orders the value summation, which can move the
//! float sum by an ulp when a class holds exact value ties; a pruned and an
//! unpruned DP could then back-track different (equal-value) plans. Their
//! equivalence is therefore established *by construction*: both run this
//! **same** filter over the same inputs and feed the DP identical
//! candidate lists, rather than by comparing a pruned run against an
//! unpruned one. The caveat is real but rare: over the DP's 4 000 seeded
//! test instances, ties and twins included, pruned and unpruned runs
//! agree on every cell's exact value and differ in servers, by one ulp of
//! value, on four plans (`the_filter_never_changes_the_dp_plans`). See
//! `DESIGN.md` §3.11.
//!
//! # Determinism
//!
//! Selection is a top-`K` cut of a totally ordered set — `(value desc,
//! id asc)` has no ties because ids are unique — so the kept set is
//! independent of the order servers are offered in, and of whether
//! servers that cannot make the cut are offered at all. Production
//! exploits both: it offers only the first `⌊g_max / w⌋` members of each
//! class of its server index, in class order rather than id order
//! (`DESIGN.md` §3.11); the regression test
//! `selection_is_insertion_order_independent` pins the first property.

use crate::dp::ServerStats;

/// Bounded per-class candidate filter for the worker-placement DP.
///
/// Classes are `(w, f)` pairs — free-GPU weight times clamped flow count —
/// and each class keeps its top `⌊g_max / w⌋` servers by
/// `(value desc, id asc)`. The module docs of `select.rs` give the
/// loss-free argument.
///
/// # Example
///
/// ```
/// use netpack_placement::{CandidateFilter, ServerStats};
/// use netpack_topology::ServerId;
///
/// // demand 4, slack 0 => g_max 4 => a 4-GPU class keeps exactly 1 server.
/// let mut filter = CandidateFilter::new(4, 4, 0, Some(16));
/// for (id, value) in [(0, 1.0), (1, 9.0), (2, 5.0)] {
///     filter.offer(ServerStats { id: ServerId(id), gpus_free: 4, value, flows: 0 });
/// }
/// let kept = filter.candidates();
/// assert_eq!(kept.len(), 1);
/// assert_eq!(kept[0].id, ServerId(1));
/// ```
#[derive(Debug, Clone)]
pub struct CandidateFilter {
    /// `classes[(w-1) * nf + f]`, each sorted `(value desc, id asc)` and
    /// capped at `⌊g_max / w⌋` entries.
    classes: Vec<Vec<ServerStats>>,
    /// Flow-dimension width: `fs_max + 1`, or 1 when flows are untracked.
    nf: usize,
    /// Flow clamp; 0 when the flow dimension is disabled.
    fs_max: u32,
    /// Largest admissible plan size in GPUs (`demand + slack`).
    g_max: usize,
    /// Servers offered (kept or not) — the pruning denominator.
    offered: u64,
}

impl CandidateFilter {
    /// Filter for one job: `demand` GPUs with up to `slack` surplus on a
    /// cluster with `gpus_per_server` GPUs per server. `fs_max` is the
    /// DP's flow clamp, or `None` when the flow dimension is disabled
    /// (every server then lands in the `f = 0` class, exactly like
    /// [`WorkerDp::without_flow_dimension`](crate::WorkerDp::without_flow_dimension)
    /// ignores flows).
    pub fn new(gpus_per_server: usize, demand: usize, slack: usize, fs_max: Option<u32>) -> Self {
        let g_max = demand + slack;
        let nf = fs_max.map_or(1, |f| f as usize + 1);
        let widths = gpus_per_server.min(g_max);
        CandidateFilter {
            classes: vec![Vec::new(); widths * nf],
            nf,
            fs_max: fs_max.unwrap_or(0),
            g_max,
            offered: 0,
        }
    }

    /// Offer one server. Servers with no free GPUs or more free GPUs than
    /// any plan can carry are rejected outright (the DP would skip them
    /// anyway); the rest compete within their `(w, f)` class.
    pub fn offer(&mut self, stats: ServerStats) {
        self.offered += 1;
        let w = stats.gpus_free;
        if w == 0 || w > self.g_max {
            return;
        }
        let f = stats.flows.min(self.fs_max) as usize;
        let cap = self.g_max / w;
        let class = &mut self.classes[(w - 1) * self.nf + f];
        if class.len() == cap {
            // Full class: reject unless strictly better than the worst.
            match class.last() {
                Some(worst) if !Self::better(&stats, worst) => return,
                _ => {}
            }
        }
        let pos = class.partition_point(|e| Self::better(e, &stats));
        class.insert(pos, stats);
        if class.len() > cap {
            class.pop();
        }
    }

    /// The kept candidates in ascending server-id order — the order the
    /// DP consumes (its tie-breaks depend on it).
    pub fn candidates(&self) -> Vec<ServerStats> {
        let mut out: Vec<ServerStats> = self.classes.iter().flatten().copied().collect();
        out.sort_by_key(|s| s.id);
        out
    }

    /// Servers offered so far (kept or rejected).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Servers currently kept.
    pub fn kept(&self) -> usize {
        self.classes.iter().map(Vec::len).sum()
    }

    /// Strict total order: `a` before `b` under `(value desc, id asc)`.
    fn better(a: &ServerStats, b: &ServerStats) -> bool {
        match a.value.total_cmp(&b.value) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Equal => a.id < b.id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::tests::{dp_case, filter_clamp};
    use crate::dp::{WorkerDp, WorkerPlan};
    use netpack_topology::ServerId;

    fn stats(id: usize, w: usize, value: f64, flows: u32) -> ServerStats {
        ServerStats {
            id: ServerId(id),
            gpus_free: w,
            value,
            flows,
        }
    }

    /// Deterministic xorshift so instances are seeded and reproducible.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    fn random_servers(seed: u64, n: usize, gps: usize) -> Vec<ServerStats> {
        let mut rng = Rng(seed | 1);
        (0..n)
            .map(|i| {
                // Well-separated distinct values: pruning is then exactly
                // plan-preserving, not just value-preserving.
                let value = (rng.next() % 1000) as f64 + i as f64 * 1e-6;
                stats(
                    i,
                    (rng.next() % (gps as u64 + 1)) as usize,
                    value,
                    (rng.next() % 20) as u32,
                )
            })
            .collect()
    }

    #[test]
    fn keeps_top_k_per_class() {
        // g_max = 6: weight-2 classes keep 3, weight-3 classes keep 2.
        let mut f = CandidateFilter::new(4, 4, 2, Some(16));
        for (i, v) in [5.0, 1.0, 9.0, 7.0, 3.0].iter().enumerate() {
            f.offer(stats(i, 2, *v, 0));
        }
        let kept = f.candidates();
        let ids: Vec<usize> = kept.iter().map(|s| s.id.0).collect();
        assert_eq!(ids, vec![0, 2, 3], "top 3 by value, listed id-ascending");
        assert_eq!(f.offered(), 5);
        assert_eq!(f.kept(), 3);
    }

    #[test]
    fn zero_and_oversized_weights_are_rejected() {
        let mut f = CandidateFilter::new(8, 2, 1, Some(16));
        f.offer(stats(0, 0, 9.0, 0));
        f.offer(stats(1, 4, 9.0, 0)); // w=4 > g_max=3
        f.offer(stats(2, 3, 1.0, 0));
        assert_eq!(f.candidates().len(), 1);
        assert_eq!(f.offered(), 3);
    }

    #[test]
    fn equal_values_keep_the_lowest_ids() {
        let mut f = CandidateFilter::new(4, 4, 0, Some(16));
        for i in [7, 3, 9, 1] {
            f.offer(stats(i, 4, 5.0, 2));
        }
        // K = 1: the lowest id among the tied values survives.
        let kept = f.candidates();
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].id, ServerId(1));
    }

    #[test]
    fn flow_classes_are_separate_and_clamped() {
        let mut f = CandidateFilter::new(4, 4, 0, Some(2));
        f.offer(stats(0, 4, 1.0, 0));
        f.offer(stats(1, 4, 2.0, 1));
        f.offer(stats(2, 4, 3.0, 2));
        f.offer(stats(3, 4, 4.0, 9)); // clamps to f = 2, beats id 2
        let ids: Vec<usize> = f.candidates().iter().map(|s| s.id.0).collect();
        assert_eq!(ids, vec![0, 1, 3]);
    }

    #[test]
    fn untracked_flows_collapse_to_one_class() {
        let mut f = CandidateFilter::new(4, 4, 0, None);
        f.offer(stats(0, 4, 1.0, 0));
        f.offer(stats(1, 4, 2.0, 17));
        let kept = f.candidates();
        assert_eq!(kept.len(), 1, "one class, K = 1");
        assert_eq!(kept[0].id, ServerId(1));
    }

    #[test]
    fn selection_is_insertion_order_independent() {
        // The property the index-fed offer order rests on: a top-K cut
        // of a totally ordered set does not depend on scan order.
        for seed in 1..=20u64 {
            let servers = random_servers(seed, 60, 4);
            let mut forward = CandidateFilter::new(4, 9, 4, Some(8));
            for &s in &servers {
                forward.offer(s);
            }
            let mut shuffled: Vec<ServerStats> = servers.clone();
            // Deterministic shuffle.
            let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            for i in (1..shuffled.len()).rev() {
                let j = (rng.next() % (i as u64 + 1)) as usize;
                shuffled.swap(i, j);
            }
            let mut backward = CandidateFilter::new(4, 9, 4, Some(8));
            for &s in &shuffled {
                backward.offer(s);
            }
            assert_eq!(forward.candidates(), backward.candidates(), "seed {seed}");
        }
    }

    #[test]
    fn pruned_dp_matches_full_dp_on_separated_values() {
        // With well-separated values (no exact ties) pruning is exactly
        // plan-preserving: every (f, g) cell the full DP reaches, the
        // pruned DP reaches with the same value and the same servers.
        for seed in 1..=15u64 {
            let servers = random_servers(seed.wrapping_mul(31), 40, 4);
            let demand = 6 + (seed % 8) as usize;
            let slack = 4;
            let dp = WorkerDp::new(8);
            let full = dp.plans(&servers, demand, slack);
            let mut filter = CandidateFilter::new(4, demand, slack, Some(8));
            for &s in &servers {
                filter.offer(s);
            }
            let pruned = dp.plans(&filter.candidates(), demand, slack);
            assert_eq!(full, pruned, "seed {seed} demand {demand}");
        }
    }

    /// The filter never changes what the DP finds: on every one of the
    /// 4 000 instances of `dp.rs`'s generator (tied cells, twin servers,
    /// flows above `fs_max`, servers of no free GPU and of more than
    /// `g_max`, no flow dimension), `WorkerDp::plans` over every server and
    /// over the filter's kept set return plans for the same `(f, g)` cells,
    /// each of the same exact value (the generator's values are
    /// thousandths, so a plan's value in thousandths is an exact integer
    /// sum), and almost always the same servers and value bits. Four plans
    /// of four instances (seeds 278, 353, 1 612 and 2 452) are the
    /// exception, pinned here: the full DP reached its cell through a twin
    /// of higher id that the filter drops, summed in an order whose float
    /// rounds one ulp higher, and the kept set back-tracks the lower twin's
    /// subset one ulp below it (DESIGN.md §3.11). The filter is built for 10
    /// GPUs per server, the generator's largest free count.
    #[test]
    fn the_filter_never_changes_the_dp_plans() {
        let mut other_servers = Vec::new();
        for seed in 0..4000 {
            let (dp, servers, demand, slack) = dp_case(seed);
            let mut filter = CandidateFilter::new(10, demand, slack, filter_clamp(&dp));
            for &s in &servers {
                filter.offer(s);
            }
            let full = dp.plans(&servers, demand, slack);
            let kept = dp.plans(&filter.candidates(), demand, slack);
            let exact = |plan: &WorkerPlan| -> i64 {
                plan.servers
                    .iter()
                    .map(|id| (servers[id.0].value * 1000.0).round() as i64)
                    .sum()
            };
            assert_eq!(kept.len(), full.len(), "seed {seed}");
            for (a, b) in kept.iter().zip(&full) {
                assert_eq!(
                    (a.gpus, a.max_flows, exact(a)),
                    (b.gpus, b.max_flows, exact(b)),
                    "seed {seed}"
                );
                if a.servers == b.servers {
                    assert_eq!(a.value.to_bits(), b.value.to_bits(), "seed {seed}");
                } else {
                    assert_eq!(a.value.next_up(), b.value, "seed {seed}");
                    other_servers.push(seed);
                }
            }
        }
        assert_eq!(other_servers, [278, 353, 1612, 2452]);
    }
}
