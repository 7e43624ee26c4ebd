//! Worker-placement dynamic program (Algorithm 2, `WorkerPlacement`).
//!
//! A knapsack-style DP over servers with a two-dimensional weight
//! `(f, g)`: `V[s][f][g]` is the best total server value achievable by
//! choosing (all free GPUs of) a subset of the first `s` servers whose
//! total GPUs is `g` and whose maximum per-server steady-state flow count
//! is `f`. Tracking `f` is what lets the PS-placement step punish plans
//! with hot-spot servers.
//!
//! One table is updated in place, a server at a time and a row at a time,
//! and only the rows that hold a finite cell — the *live* rows, kept in a
//! sorted list — are read or written: a row of `-inf` never wins the
//! strict `>`, so skipping it changes no bit. The table has one row per
//! flow count up to the highest clamped flow among the servers that fit,
//! however large `fs_max` is. The row being written is first copied aside,
//! so every read sees a pre-update value and a row's cells update in
//! ascending `g` with no `-inf` test, in a forward loop over zipped
//! slices. Each cell holds the head of a chain instead of a per-server
//! decision: a cell that wins appends a node `(server, the source cell's
//! pre-update head)` to an arena, so a plan is read off its cell's chain
//! in O(plan size). The table, the chain heads, the nodes and the live
//! rows form a [`DpArena`], which the flat path keeps for a batch (or a
//! session) and [`WorkerDp::plans`] builds fresh per call. The tests keep
//! the earlier loop (`g` walked downward over every row up to the highest
//! live one, `-inf` sources skipped, a `servers × cells` table of `u8`
//! predecessor rows backtracked over every candidate) as `plans_literal`
//! and hold the two to the same bits.

use netpack_topology::ServerId;

/// Per-server inputs to the DP: the server's weight (its free GPUs, taken
/// all-or-none), its heuristic value, and its steady-state flow count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerStats {
    /// Which server this is.
    pub id: ServerId,
    /// Free GPUs (the all-or-none weight).
    pub gpus_free: usize,
    /// Heuristic value `bw̄ − (C − bw̄)/(flows+1)` (Algorithm 2 line 16).
    pub value: f64,
    /// Steady-state flow count on the server's access link.
    pub flows: u32,
}

/// One candidate worker plan produced by the DP: a server subset covering
/// `gpus ≥ demand` GPUs.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerPlan {
    /// Chosen servers (each contributes all of its free GPUs).
    pub servers: Vec<ServerId>,
    /// Total GPUs the plan provides (may exceed the demand by up to the
    /// per-server GPU count; the caller releases the surplus).
    pub gpus: usize,
    /// The plan's `f` coordinate: maximum per-server flow count among the
    /// chosen servers (clamped to the DP's `fs_max`).
    pub max_flows: u32,
    /// Total heuristic value of the chosen servers.
    pub value: f64,
}

/// The worker-placement dynamic program.
///
/// `fs_max` clamps the flow dimension (the paper bounds `FS_max` by a
/// constant); `fs_max = 0` collapses the `f` dimension to one row, a plain
/// GPU knapsack — the ablation that validates the two-dimensional weight.
///
/// # Example
///
/// ```
/// use netpack_placement::{ServerStats, WorkerDp};
/// use netpack_topology::ServerId;
///
/// let servers = vec![
///     ServerStats { id: ServerId(0), gpus_free: 4, value: 10.0, flows: 0 },
///     ServerStats { id: ServerId(1), gpus_free: 4, value: 5.0, flows: 2 },
///     ServerStats { id: ServerId(2), gpus_free: 4, value: 8.0, flows: 1 },
/// ];
/// let dp = WorkerDp::new(8);
/// let plans = dp.plans(&servers, 8, 4);
/// // The best exact-8-GPU plan picks the two most valuable servers.
/// let best = plans.iter().filter(|p| p.gpus == 8).max_by(|a, b| a.value.total_cmp(&b.value)).unwrap();
/// assert_eq!(best.servers, vec![ServerId(0), ServerId(2)]);
/// ```
#[derive(Debug, Clone)]
pub struct WorkerDp {
    fs_max: u32,
}

/// The end of a chain: the empty subset of cell `(0, 0)`.
const NO_NODE: u32 = u32::MAX;

/// The DP's working memory, reused across calls: [`WorkerDp::plans_in`]
/// resets what it reads, so one arena serves any sequence of instances.
#[derive(Debug, Default)]
pub(crate) struct DpArena {
    /// `value[f * width + g]`: best value of cell `(f, g)`, `-inf` if no
    /// subset reaches it.
    value: Vec<f64>,
    /// Per cell, the node of the server whose update set its value (or
    /// [`NO_NODE`]).
    head: Vec<u32>,
    /// `(server index, node of the source cell before the update)` — one
    /// per cell update, so a cell's chain lists its subset, last server
    /// first.
    nodes: Vec<(u32, u32)>,
    /// Rows holding a finite cell, ascending.
    live: Vec<usize>,
    /// The pre-update values and heads of the row being written.
    before: Vec<f64>,
    before_head: Vec<u32>,
}

impl WorkerDp {
    /// DP with the flow dimension clamped to `fs_max`.
    pub fn new(fs_max: u32) -> Self {
        WorkerDp { fs_max }
    }

    /// Run the DP and return every feasible plan with
    /// `demand ≤ gpus ≤ demand + slack`, one per reachable `(f, g)` cell.
    ///
    /// Returns an empty vector when no server subset covers the demand.
    pub fn plans(&self, servers: &[ServerStats], demand: usize, slack: usize) -> Vec<WorkerPlan> {
        self.plans_in(&mut DpArena::default(), servers, demand, slack)
    }

    /// [`plans`](Self::plans) in `arena`'s memory.
    pub(crate) fn plans_in(
        &self,
        arena: &mut DpArena,
        servers: &[ServerStats],
        demand: usize,
        slack: usize,
    ) -> Vec<WorkerPlan> {
        if demand == 0 {
            return vec![WorkerPlan {
                servers: Vec::new(),
                gpus: 0,
                max_flows: 0,
                value: 0.0,
            }];
        }
        let g_max = demand + slack;
        let width = g_max + 1;
        let fits = |srv: &&ServerStats| (1..=g_max).contains(&srv.gpus_free);
        let clamp = |srv: &ServerStats| srv.flows.min(self.fs_max) as usize;
        // No update writes above the highest clamped flow among the
        // servers that fit, so no row above it is ever live.
        let rows = servers
            .iter()
            .filter(fits)
            .map(clamp)
            .max()
            .map_or(1, |f| f + 1);
        let DpArena {
            value,
            head,
            nodes,
            live,
            before,
            before_head,
        } = arena;
        value.clear();
        value.resize(rows * width, f64::NEG_INFINITY);
        value[0] = 0.0;
        head.clear();
        head.resize(rows * width, NO_NODE);
        nodes.clear();
        live.clear();
        live.push(0);
        before.resize(width, 0.0);
        before_head.resize(width, NO_NODE);

        // 0/1 update, one server at a time. Taking server `s` moves
        // (i, g-w) to (max(i, clamped), g): writes land in live rows above
        // `clamped` (each from itself) and in row `clamped` (from every
        // live row at or below it). A row that is not live holds only
        // -inf, which never wins the strict `>`, so it is neither read nor
        // written; row `clamped` is live from this server on. The only row
        // both read and written is the one being written, whose pre-update
        // values and heads are copied aside first — so every read is a
        // pre-update value, exactly as a double buffer would give, and the
        // cells of a row update in any order. An unreachable source adds
        // up to -inf, so no cell is tested for it. Candidates for a cell
        // are applied in ascending row order with that strict test, so
        // tie-breaks (and hence the plans) match the buffered formulation
        // bit for bit. A win appends a node naming the server and the
        // source cell's pre-update head, and makes it the cell's head.
        for (si, srv) in servers.iter().enumerate().filter(|(_, srv)| fits(srv)) {
            let w = srv.gpus_free;
            let clamped = clamp(srv);
            // The cells (f, w..) of one row take `source[g - w] + value`
            // where that is strictly greater.
            let relax = |source: &[f64],
                         source_head: &[u32],
                         row: &mut [f64],
                         heads: &mut [u32],
                         nodes: &mut Vec<(u32, u32)>| {
                let sources = source.iter().zip(source_head);
                for ((cell, h), (&prev, &from)) in
                    row[w..].iter_mut().zip(&mut heads[w..]).zip(sources)
                {
                    let cand = prev + srv.value;
                    if cand > *cell {
                        *cell = cand;
                        *h = nodes.len() as u32;
                        nodes.push((si as u32, from));
                    }
                }
            };
            // Live rows at or below `clamped`, and whether `clamped` is one.
            let below = live.partition_point(|&f| f <= clamped);
            let own = below > 0 && live[below - 1] == clamped;
            // Live rows above `clamped`: the only candidate is i == f.
            for &f in &live[below..] {
                let row = f * width..(f + 1) * width;
                before.copy_from_slice(&value[row.clone()]);
                before_head.copy_from_slice(&head[row.clone()]);
                relax(
                    before,
                    before_head,
                    &mut value[row.clone()],
                    &mut head[row],
                    nodes,
                );
            }
            // Row `clamped` collects every live i <= clamped, its own from
            // the copy.
            let (lower, rest) = value.split_at_mut(clamped * width);
            let (lower_head, rest_head) = head.split_at_mut(clamped * width);
            let (own_row, own_head) = (&mut rest[..width], &mut rest_head[..width]);
            if own {
                before.copy_from_slice(own_row);
                before_head.copy_from_slice(own_head);
            }
            for &i in &live[..below] {
                let (source, source_head) = if i == clamped {
                    (&before[..], &before_head[..])
                } else {
                    (
                        &lower[i * width..(i + 1) * width],
                        &lower_head[i * width..(i + 1) * width],
                    )
                };
                relax(source, source_head, own_row, own_head, nodes);
            }
            if !own {
                live.insert(below, clamped);
            }
        }

        // Collect every feasible (f, g) cell in range, its subset read off
        // its chain.
        let mut plans = Vec::new();
        for &f in live.iter() {
            for g in demand..=g_max {
                let cell = f * width + g;
                if value[cell] == f64::NEG_INFINITY {
                    continue;
                }
                let mut chosen = Vec::new();
                let mut node = head[cell];
                while node != NO_NODE {
                    let (si, prev) = nodes[node as usize];
                    chosen.push(servers[si as usize].id);
                    node = prev;
                }
                chosen.reverse();
                plans.push(WorkerPlan {
                    servers: chosen,
                    gpus: g,
                    max_flows: f as u32,
                    value: value[cell],
                });
            }
        }
        plans
    }
}

impl Default for WorkerDp {
    fn default() -> Self {
        WorkerDp::new(16)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn srv(id: usize, gpus: usize, value: f64, flows: u32) -> ServerStats {
        ServerStats {
            id: ServerId(id),
            gpus_free: gpus,
            value,
            flows,
        }
    }

    /// `WorkerDp::plans` as it stood before its rows were updated from a
    /// snapshot, kept verbatim: in place, `g` walked downward so every read
    /// is a pre-update value, and each cell's `-inf` sources skipped.
    fn plans_literal(
        dp: &WorkerDp,
        servers: &[ServerStats],
        demand: usize,
        slack: usize,
    ) -> Vec<WorkerPlan> {
        if demand == 0 {
            return vec![WorkerPlan {
                servers: Vec::new(),
                gpus: 0,
                max_flows: 0,
                value: 0.0,
            }];
        }
        let nf = dp.fs_max as usize + 1;
        let g_max = demand + slack;
        let width = g_max + 1;
        let cells = nf * width;
        const NOT_CHOSEN: u8 = 0xFF;

        let mut value = vec![f64::NEG_INFINITY; cells];
        value[0] = 0.0;
        // decisions[s][f * width + g] = predecessor f if server s chosen.
        let mut decisions = vec![NOT_CHOSEN; servers.len() * cells];
        // Highest f row holding any finite cell; rows above it are all
        // -inf and can be skipped without changing any result.
        let mut top = 0usize;

        // In-place 0/1 update. Taking server `s` moves (i, g-w) to
        // (max(i, clamped), g), so writes land in rows >= clamped while
        // reads come from rows <= the written row; walking g downward
        // keeps every read a pre-update value, exactly as a double
        // buffer would. Candidates for a cell are applied in ascending
        // `i` order with a strict `>` test, so tie-breaks (and hence the
        // backtracked plans) match the buffered formulation bit for bit.
        for (si, srv) in servers.iter().enumerate() {
            let w = srv.gpus_free;
            if w == 0 || w > g_max {
                continue;
            }
            let clamped = srv.flows.min(dp.fs_max) as usize;
            let dec = &mut decisions[si * cells..(si + 1) * cells];
            // Rows above `clamped`: the only candidate is i == f.
            for f in clamped + 1..=top.min(nf - 1) {
                let row = f * width;
                for g in (w..=g_max).rev() {
                    let prev = value[row + g - w];
                    if prev == f64::NEG_INFINITY {
                        continue;
                    }
                    let cand = prev + srv.value;
                    if cand > value[row + g] {
                        value[row + g] = cand;
                        dec[row + g] = f as u8;
                    }
                }
            }
            // Row `clamped` collects every i <= clamped (rows above `top`
            // are all -inf and contribute nothing).
            let row = clamped * width;
            for g in (w..=g_max).rev() {
                for i in 0..=clamped.min(top) {
                    let prev = value[i * width + g - w];
                    if prev == f64::NEG_INFINITY {
                        continue;
                    }
                    let cand = prev + srv.value;
                    if cand > value[row + g] {
                        value[row + g] = cand;
                        dec[row + g] = i as u8;
                    }
                }
            }
            top = top.max(clamped);
        }

        // Collect and backtrack every feasible (f, g) cell in range.
        let mut plans = Vec::new();
        for f in 0..nf {
            for g in demand..=g_max {
                let cell = f * width + g;
                if value[cell] == f64::NEG_INFINITY {
                    continue;
                }
                let mut chosen = Vec::new();
                let (mut cf, mut cg) = (f, g);
                for si in (0..servers.len()).rev() {
                    let d = decisions[si * cells + cf * width + cg];
                    if d != NOT_CHOSEN {
                        chosen.push(servers[si].id);
                        cg -= servers[si].gpus_free;
                        cf = d as usize;
                    }
                }
                chosen.reverse();
                plans.push(WorkerPlan {
                    servers: chosen,
                    gpus: g,
                    max_flows: f as u32,
                    value: value[cell],
                });
            }
        }
        plans
    }

    fn best_exact(plans: &[WorkerPlan], gpus: usize) -> Option<&WorkerPlan> {
        plans
            .iter()
            .filter(|p| p.gpus == gpus)
            .max_by(|a, b| a.value.total_cmp(&b.value))
    }

    #[test]
    fn picks_highest_value_subset_for_exact_demand() {
        let servers = vec![
            srv(0, 2, 3.0, 0),
            srv(1, 2, 9.0, 0),
            srv(2, 2, 5.0, 0),
            srv(3, 2, 1.0, 0),
        ];
        let plans = WorkerDp::new(8).plans(&servers, 4, 0);
        let best = best_exact(&plans, 4).unwrap();
        assert_eq!(best.servers, vec![ServerId(1), ServerId(2)]);
        assert_eq!(best.value, 14.0);
    }

    #[test]
    fn overshoot_plans_cover_awkward_demands() {
        // Servers hold 4 GPUs each; demand 6 is only coverable with 8.
        let servers = vec![srv(0, 4, 1.0, 0), srv(1, 4, 2.0, 0)];
        let plans = WorkerDp::new(8).plans(&servers, 6, 4);
        assert!(best_exact(&plans, 6).is_none());
        let best = best_exact(&plans, 8).unwrap();
        assert_eq!(best.gpus, 8);
        assert_eq!(best.servers.len(), 2);
    }

    #[test]
    fn infeasible_demand_returns_no_plans() {
        let servers = vec![srv(0, 2, 1.0, 0)];
        assert!(WorkerDp::new(8).plans(&servers, 4, 2).is_empty());
    }

    #[test]
    fn f_dimension_separates_hot_and_cold_plans() {
        // Two ways to get 4 GPUs: hot server (8 flows, value 10) or two
        // cold servers (0 flows, value 4 each).
        let servers = vec![srv(0, 4, 10.0, 8), srv(1, 2, 4.0, 0), srv(2, 2, 4.0, 0)];
        let plans = WorkerDp::new(16).plans(&servers, 4, 0);
        let hot = plans.iter().find(|p| p.max_flows == 8).unwrap();
        let cold = plans.iter().find(|p| p.max_flows == 0).unwrap();
        assert_eq!(hot.servers, vec![ServerId(0)]);
        assert_eq!(cold.servers, vec![ServerId(1), ServerId(2)]);
        assert_eq!(cold.value, 8.0);
        // Both survive so the PS step can weigh value against hot-spots.
    }

    #[test]
    fn flows_clamp_to_fs_max() {
        let servers = vec![srv(0, 2, 1.0, 100)];
        let plans = WorkerDp::new(4).plans(&servers, 2, 0);
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].max_flows, 4);
    }

    #[test]
    fn zero_fs_max_collapses_to_plain_knapsack() {
        let servers = vec![srv(0, 2, 1.0, 9), srv(1, 2, 5.0, 0)];
        let dp = WorkerDp::new(0);
        let plans = dp.plans(&servers, 2, 0);
        // A single (f=0, g=2) cell holding the better server.
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].servers, vec![ServerId(1)]);
        assert_eq!(plans[0].max_flows, 0);
    }

    #[test]
    fn zero_demand_yields_the_empty_plan() {
        let plans = WorkerDp::new(8).plans(&[], 0, 4);
        assert_eq!(plans.len(), 1);
        assert!(plans[0].servers.is_empty());
    }

    #[test]
    fn negative_values_still_cover_demand() {
        let servers = vec![srv(0, 2, -5.0, 0), srv(1, 2, -1.0, 0)];
        let plans = WorkerDp::new(8).plans(&servers, 4, 0);
        let best = best_exact(&plans, 4).unwrap();
        assert_eq!(best.value, -6.0);
        assert_eq!(best.servers.len(), 2);
    }

    /// A random DP instance: 0–8 servers of 0–10 free GPUs (so some have
    /// none and some more than `demand + slack`), 0–12 flows against an
    /// `fs_max` of 0–8 (so some clamp), values that are small integers
    /// three times in four (so subsets tie), then up to three copies of
    /// earlier servers under new ids (so classes repeat); one instance in
    /// four without the flow dimension (`fs_max` 0).
    pub(crate) fn dp_case(seed: u64) -> (WorkerDp, Vec<ServerStats>, usize, usize) {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut below = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let dp = match below(4) {
            0 => WorkerDp::new(0),
            _ => WorkerDp::new(below(9) as u32),
        };
        let mut servers: Vec<ServerStats> = (0..below(9) as usize)
            .map(|i| {
                let value = below(10) as f64 - 3.0;
                let value = if below(4) == 0 {
                    value + below(1000) as f64 / 1000.0
                } else {
                    value
                };
                srv(i, below(11) as usize, value, below(13) as u32)
            })
            .collect();
        for _ in 0..below(4) {
            if !servers.is_empty() {
                let copy = servers[below(servers.len() as u64) as usize];
                servers.push(ServerStats {
                    id: ServerId(servers.len()),
                    ..copy
                });
            }
        }
        (dp, servers, 1 + below(12) as usize, below(5) as usize)
    }

    /// The flow clamp a [`CandidateFilter`](crate::CandidateFilter) in
    /// front of `dp` is built with: `fs_max`, or `None` — the same single
    /// flow column as `Some(0)` — when that is 0.
    pub(crate) fn filter_clamp(dp: &WorkerDp) -> Option<u32> {
        (dp.fs_max > 0).then_some(dp.fs_max)
    }

    /// Assert `a` and `b` are the same plans in the same order, each with
    /// the same servers, GPUs, `f` and value bits.
    fn assert_same_plans(a: &[WorkerPlan], b: &[WorkerPlan], seed: u64) {
        assert_eq!(a.len(), b.len(), "seed {seed}");
        for (a, b) in a.iter().zip(b) {
            assert_eq!(
                (&a.servers, a.gpus, a.max_flows, a.value.to_bits()),
                (&b.servers, b.gpus, b.max_flows, b.value.to_bits()),
                "seed {seed}"
            );
        }
    }

    /// The DP as it runs — live rows only, each updated from a snapshot,
    /// plans read off chains — is [`plans_literal`] on every output bit:
    /// the same plans in the same order, each with the same servers, GPUs,
    /// `f` and value bits. The instances ([`dp_case`]) reach, each in more
    /// than a hundred of the 4 000 cases: a cell two server subsets fill
    /// with the same value (the tie-break decides which is backtracked),
    /// two servers of equal weight, clamped flows and value, a server whose
    /// flows exceed `fs_max`, one with no free GPU, one too big for the
    /// plan, the DP without its flow dimension, a server taken while a dead
    /// row lies between two live ones (the literal loop relaxes it, the
    /// DP skips it), and a row made live after a higher one.
    ///
    /// One-line mutations of `WorkerDp::plans_in`, each failing this test
    /// in a debug build and under `--release`:
    ///
    /// * `cand >= *cell` for `cand > *cell` (a later tie wins);
    /// * `live[..below].iter().rev()` for the ascending candidate rows (a
    ///   higher row wins a tie);
    /// * the `before.copy_from_slice` of a live row above `clamped` dropped
    ///   (`relax` reads whatever row the snapshot held last);
    /// * either `before_head.copy_from_slice` dropped (a node links to a
    ///   head another row left in the snapshot);
    /// * `live.push(clamped)` for the sorted insert (rows relaxed and
    ///   plans listed out of order).
    ///
    /// A predecessor's head read from the row being written, after its
    /// update, instead of from the snapshot cannot be written against this
    /// loop: the row's heads are borrowed mutably by the loop that writes
    /// them, and the compiler refuses the read.
    #[test]
    fn plans_match_the_literal_loop_bit_for_bit() {
        let mut reached = [0usize; 8];
        for seed in 0..4000 {
            let (dp, servers, demand, slack) = dp_case(seed);
            assert_same_plans(
                &dp.plans(&servers, demand, slack),
                &plans_literal(&dp, &servers, demand, slack),
                seed,
            );
            let g_max = demand + slack;
            let clamp = |s: &ServerStats| s.flows.min(dp.fs_max);
            // Best value per (f, g) cell over every subset, and how many
            // subsets reach it.
            let mut best: std::collections::BTreeMap<(u32, usize), (f64, usize)> =
                Default::default();
            for mask in 0u32..1 << servers.len() {
                let chosen = servers
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| mask >> i & 1 == 1)
                    .map(|(_, s)| s);
                let (mut g, mut v, mut f) = (0, 0.0, 0);
                for s in chosen.filter(|s| s.gpus_free > 0) {
                    (g, v, f) = (g + s.gpus_free, v + s.value, f.max(clamp(s)));
                }
                let cell = best.entry((f, g)).or_insert((v, 0));
                if v > cell.0 {
                    *cell = (v, 1);
                } else if v == cell.0 {
                    cell.1 += 1;
                }
            }
            let live: Vec<&ServerStats> = servers
                .iter()
                .filter(|s| (1..=g_max).contains(&s.gpus_free))
                .collect();
            let twins = live.iter().enumerate().any(|(i, a)| {
                live[i + 1..]
                    .iter()
                    .any(|b| (a.gpus_free, clamp(a), a.value) == (b.gpus_free, clamp(b), b.value))
            });
            // Live rows as the servers that fit are taken in turn.
            let (mut rows, mut dead_between, mut late) = (vec![0], false, false);
            for s in &live {
                let top = *rows.iter().max().unwrap_or(&0);
                dead_between |= (1..top).any(|r| !rows.contains(&r));
                if !rows.contains(&clamp(s)) {
                    late |= clamp(s) < top;
                    rows.push(clamp(s));
                }
            }
            let seen = [
                best.iter()
                    .any(|(&(_, g), &(_, ways))| g >= demand && g <= g_max && ways > 1),
                twins,
                dp.fs_max > 0 && servers.iter().any(|s| s.flows > dp.fs_max),
                servers.iter().any(|s| s.gpus_free == 0),
                servers.iter().any(|s| s.gpus_free > g_max),
                dp.fs_max == 0,
                dead_between,
                late,
            ];
            for (count, seen) in reached.iter_mut().zip(seen) {
                *count += usize::from(seen);
            }
        }
        assert!(
            reached.iter().all(|&n| n > 100),
            "[tie, twins, flows > fs_max, w = 0, w > g_max, no flow dimension, dead row between live ones, row live after a higher one] = {reached:?}"
        );
    }

    /// One arena serves any sequence of instances: reused across the 4 000
    /// [`dp_case`] instances in a shuffled order, it returns what a fresh
    /// arena returns, bit for bit.
    #[test]
    fn a_reused_arena_plans_what_a_fresh_one_plans() {
        let mut order: Vec<u64> = (0..4000).collect();
        let mut state = 0x5EED_u64;
        for i in (1..order.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let mut arena = DpArena::default();
        for seed in order {
            let (dp, servers, demand, slack) = dp_case(seed);
            assert_same_plans(
                &dp.plans_in(&mut arena, &servers, demand, slack),
                &dp.plans(&servers, demand, slack),
                seed,
            );
        }
    }

    /// A flow clamp above every flow count changes nothing, however large:
    /// the DP's rows follow the highest clamped flow among its servers, not
    /// `fs_max`, so `WorkerDp::new(300)` (more than a `u8` row index holds)
    /// plans what `WorkerDp::new(m)` plans, `m` the instance's highest flow
    /// count, on the 4 000 [`dp_case`] instances.
    #[test]
    fn a_clamp_above_every_flow_count_plans_like_the_highest_count() {
        for seed in 0..4000 {
            let (_, servers, demand, slack) = dp_case(seed);
            let m = servers.iter().map(|s| s.flows).max().unwrap_or(0);
            let wide = WorkerDp::new(300).plans(&servers, demand, slack);
            assert_same_plans(
                &wide,
                &WorkerDp::new(m).plans(&servers, demand, slack),
                seed,
            );
        }
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        let mut state = 42u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..100 {
            let n = (next() % 6 + 1) as usize;
            let servers: Vec<ServerStats> = (0..n)
                .map(|i| {
                    srv(
                        i,
                        (next() % 4 + 1) as usize,
                        (next() % 20) as f64 - 5.0,
                        (next() % 6) as u32,
                    )
                })
                .collect();
            let demand = (next() % 8 + 1) as usize;
            let slack = 4;
            let plans = WorkerDp::new(8).plans(&servers, demand, slack);
            // Brute force: every subset; compare best value per (f, g).
            let mut best: std::collections::HashMap<(u32, usize), f64> =
                std::collections::HashMap::new();
            for mask in 0u32..(1 << n) {
                let (mut g, mut v, mut f) = (0usize, 0.0f64, 0u32);
                for (i, s) in servers.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        g += s.gpus_free;
                        v += s.value;
                        f = f.max(s.flows.min(8));
                    }
                }
                if g >= demand && g <= demand + slack {
                    let e = best.entry((f, g)).or_insert(f64::NEG_INFINITY);
                    *e = e.max(v);
                }
            }
            assert_eq!(plans.len(), best.len(), "cell count mismatch");
            for p in &plans {
                let b = best[&(p.max_flows, p.gpus)];
                assert!(
                    (p.value - b).abs() < 1e-9,
                    "plan value {} vs brute {b}",
                    p.value
                );
                // The reported server set must reproduce the coordinates.
                let g: usize = p
                    .servers
                    .iter()
                    .map(|id| servers.iter().find(|s| s.id == *id).unwrap().gpus_free)
                    .sum();
                assert_eq!(g, p.gpus);
            }
        }
    }
}
