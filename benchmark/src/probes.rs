//! The traced run: where each workload's time goes, layer by layer.
//!
//! A per-layer metric has one definition whatever workload the run names:
//! it is measured on the input of the workload it should move (the table
//! in `README.md`), from spans around the benchmark's calls into the layer
//! and from the counters the program already publishes. Only the three
//! `trace.*` metrics describe the named workload itself: one of its
//! repetitions run with and without spans.

use crate::adapter::{self, Command, Job, JobId, LatencyHistogram, NetPackSession, Trace};
use crate::batch::{self, BatchWorkload};
use crate::service::{self, Op};
use crate::sim::{self, SimSweep};
use crate::sys::{median, now_ns};
use crate::trace::{self, span, Span};
use crate::workload::{Tally, Workload};
use std::collections::BTreeMap;
use std::time::Duration;

/// Metric name -> value, checked against `report::PER_LAYER` by the caller.
pub type Values = BTreeMap<&'static str, f64>;

/// Paced replay: submissions per second, length, and producer tick.
const PACED_RATE: f64 = 2_000.0;
const PACED_SECONDS: f64 = 5.0;
const PACED_TICK: Duration = Duration::from_millis(1);

/// Σ duration of the spans named `name`.
fn span_ns(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end.saturating_sub(s.start))
        .sum::<u64>() as f64
}

/// Run every probe, then the named workload's own traced repetition.
/// Returns the metric values and every span recorded.
pub fn run(workload: &mut dyn Workload, seed: u64, tally: &mut Tally) -> (Values, Vec<Span>) {
    let mut values = Values::new();
    trace::enable();
    service_probe(seed, &mut values, tally);
    batch_probes(seed, &mut values, tally);
    sim_probe(seed, &mut values, tally);
    let mut spans = trace::disable_and_take();
    spans.extend(workload_ratios(workload, &mut values, tally));
    (values, spans)
}

/// `trace.*`: repetitions of the workload without spans and with, in
/// turn, for about `RATIO_SECONDS`. The overhead compares the fastest of
/// each kind: spans can only add time, and on a shared host so can
/// everything else, so the minima are the closest to the cost itself.
fn workload_ratios(
    workload: &mut dyn Workload,
    values: &mut Values,
    tally: &mut Tally,
) -> Vec<Span> {
    const RATIO_SECONDS: f64 = 8.0;
    workload.setup(tally);
    let mut scratch = Tally::default();
    let (mut plain_s, mut traced_s, mut coverage) = (Vec::new(), Vec::new(), Vec::new());
    let mut spans = Vec::new();
    let start = now_ns();
    while plain_s.len() < 2
        || ((now_ns() - start) as f64 / 1e9 < RATIO_SECONDS && plain_s.len() < 10)
    {
        // Repetition 0 every time: the same input.
        plain_s.push(workload.repetition(0, &mut scratch));
        trace::enable();
        trace::set_request(100 + traced_s.len() as u32);
        {
            let _root = span("bench.repetition");
            // Only the first traced repetition feeds the run's counts.
            let sink = if traced_s.is_empty() {
                &mut *tally
            } else {
                &mut scratch
            };
            traced_s.push(workload.repetition(0, sink));
        }
        let taken = trace::disable_and_take();
        coverage.push(trace::layer_self_ns(&taken) as f64 / span_ns(&taken, "bench.repetition"));
        if spans.is_empty() {
            spans = taken;
        }
    }
    workload.conclude(&traced_s, tally);
    let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    values.insert(
        "trace.overhead_ratio",
        fastest(&traced_s) / fastest(&plain_s) - 1.0,
    );
    values.insert("trace.coverage_ratio", median(&coverage));
    values.insert("trace.repetition_wall_ns", median(&traced_s) * 1e9);
    spans
}

/// The service core minus the service: a pending queue in front of a bare
/// session, making the passes `ServiceCore` makes, so the session's two
/// calls can be timed with nothing around them.
struct BareService {
    session: NetPackSession,
    pending: Vec<Job>,
}

impl BareService {
    fn apply(&mut self, trace: &Trace, op: Op) {
        match op {
            Op::Submit(i) => self.pending.push(trace.jobs()[i as usize].clone()),
            Op::Complete(id) => match self.pending.iter().position(|j| j.id == id) {
                Some(pos) => drop(self.pending.remove(pos)),
                None => drop(adapter::session_complete(&mut self.session, id)),
            },
        }
    }

    fn pass(&mut self) -> usize {
        if self.pending.is_empty() {
            return 0;
        }
        self.pending
            .sort_by(|a, b| b.value.total_cmp(&a.value).then(a.id.cmp(&b.id)));
        let outcome = adapter::session_place_batch(&mut self.session, &self.pending);
        self.pending = outcome.deferred;
        for job in &mut self.pending {
            // ServiceConfig::default().aging_value_bump
            job.value += 0.5;
        }
        outcome.placed.len()
    }

    fn running_ids(&self) -> Vec<JobId> {
        adapter::session_running(&self.session)
            .map(|(id, _, _)| id)
            .collect()
    }
}

fn service_probe(seed: u64, values: &mut Values, tally: &mut Tally) {
    let spec = adapter::paper_spec();
    let t0 = now_ns();
    let trace = adapter::service_trace(&spec, service::TRACE_JOBS, seed);
    values.insert("workload.trace_generate_ns", (now_ns() - t0) as f64);
    let ops = service::schedule(&trace);
    let jobs = service::TRACE_JOBS as f64;

    // In-thread core replay, spans around apply chunks and passes.
    trace::set_request(1);
    let mark = trace::mark();
    let config = adapter::service_config(Some(1));
    let quantum = adapter::service_config_echo(&config).1;
    let mut core = adapter::core_new(adapter::cluster_new(spec.clone()), config);
    let start = now_ns();
    service::drive_core(&mut core, quantum, &trace, &ops, |_| {});
    service::flush_core(&mut core);
    let core_wall_ns = (now_ns() - start) as f64;
    let core_running: Vec<JobId> = adapter::session_running(adapter::core_session(&core))
        .map(|(id, _, _)| id)
        .collect();
    let report = adapter::core_finish(core);
    let spans = trace::since(mark);
    let place_pass_ns = span_ns(&spans, "service.place_pass");
    values.insert("service.apply_ns", span_ns(&spans, "service.apply"));
    values.insert("service.place_pass_ns", place_pass_ns);
    let c = &report.counters;
    values.insert("service.batches", c.batches as f64);
    values.insert(
        "service.mean_batch_jobs",
        (c.placed + c.deferrals) as f64 / c.batches as f64,
    );
    values.insert("service.max_queue_depth", c.max_queue_depth as f64);
    values.insert("service.deferrals", c.deferrals as f64);
    values.insert("service.completed_pending", c.completed_pending as f64);
    values.insert("service.placed_share", c.placed as f64 / c.submitted as f64);
    // The session's own timer, same replay: two replays of the same
    // commands differ by more (+-5 %) than the core adds to its session.
    let session_ns = report.perf.timer_total("place_batch").as_nanos() as f64;
    values.insert("service.overhead_ns", place_pass_ns - session_ns);
    let per_job = |name| report.perf.timer_total(name).as_nanos() as f64 / jobs;
    values.insert("placement.place_one_ns", per_job("place_one"));
    values.insert("placement.single_scan_ns", per_job("single_scan"));

    // The same passes on a bare session.
    trace::set_request(2);
    let mark = trace::mark();
    let mut bare = BareService {
        session: adapter::session_new(adapter::cluster_new(spec.clone()), Some(1)),
        pending: Vec::new(),
    };
    for part in ops.chunks(quantum) {
        for &op in part {
            bare.apply(&trace, op);
        }
        if part.len() == quantum {
            bare.pass();
        }
    }
    while !bare.pending.is_empty() && bare.pass() > 0 {}
    let spans = trace::since(mark);
    values.insert(
        "placement.session_place_batch_ns",
        span_ns(&spans, "placement.session_place_batch"),
    );
    values.insert(
        "placement.session_complete_ns",
        span_ns(&spans, "placement.session_complete"),
    );
    tally.check(bare.running_ids() == core_running, || {
        "bare-session replay ended with a different running set than the core".to_string()
    });

    // The threaded front end on the same commands, flat out.
    trace::set_request(3);
    let r = service::replay_threaded(adapter::cluster_new(spec.clone()), Some(1), &trace, &ops);
    values.insert("service.runtime.send_block_ns", r.send_ns as f64);
    values.insert(
        "service.runtime.threaded_vs_core_ratio",
        r.wall_s * 1e9 / core_wall_ns,
    );
    let latency = r
        .report
        .perf
        .latency("placement_latency")
        .cloned()
        .unwrap_or_default();
    values.insert("service.latency_p99_ms", latency.p99() as f64 / 1e6);
    values.insert("service.latency_p999_ms", latency.p999() as f64 / 1e6);

    // The parallel machinery as a caller meets it: the first 15 000
    // submissions at one worker and at the library's default count.
    // (Not an end-to-end workload: between identical runs its median
    // moved by 30 % on two cores, thread spawns per round and all.)
    let part = service::prefix(&ops, 15_000);
    let single =
        service::replay_threaded(adapter::cluster_new(spec.clone()), Some(1), &trace, part);
    let default = service::replay_threaded(adapter::cluster_new(spec.clone()), None, &trace, part);
    service::check_report(&default.report, 15_000, tally);
    values.insert(
        "service.runtime.default_workers_ratio",
        default.wall_s / single.wall_s,
    );

    // ... and at a fixed rate, each command sent on the tick it is due.
    let (paced, late) = paced_replay(&trace, &ops);
    values.insert("service.runtime.paced_p50_us", paced.p50() as f64 / 1e3);
    values.insert("service.runtime.paced_p99_us", paced.p99() as f64 / 1e3);
    values.insert("bench.gen_late_p99_us", late.p99() as f64 / 1e3);

    // FindSubset alone, on a 256-job queue that does not all fit.
    let queue = &trace.jobs()[..256];
    let rounds = 200;
    let start = now_ns();
    let mut chosen = 0usize;
    for _ in 0..rounds {
        chosen += adapter::knapsack(std::hint::black_box(queue), spec.total_gpus() / 2);
    }
    values.insert(
        "placement.knapsack_ns",
        (now_ns() - start) as f64 / rounds as f64,
    );
    tally.check(chosen > 0, || "knapsack chose nothing".to_string());
}

/// Open-loop replay at `PACED_RATE`: returns the service's submit→placed
/// histogram and how late each command left the generator, both in ns.
fn paced_replay(trace: &Trace, ops: &[Op]) -> (LatencyHistogram, LatencyHistogram) {
    let ops = service::prefix(ops, (PACED_RATE * PACED_SECONDS) as usize);
    let svc = adapter::service_spawn(
        adapter::cluster_new(adapter::paper_spec()),
        adapter::service_config(Some(1)),
    );
    let mut late = LatencyHistogram::new();
    let start = now_ns();
    let mut due: Vec<u64> = Vec::new();
    let mut buf: Vec<Command> = Vec::new();
    let mut submitted = 0u64;
    let mut next = 0usize;
    while next < ops.len() {
        std::thread::sleep(PACED_TICK);
        let now = now_ns() - start;
        // A completion is due with the submission that follows it.
        while next < ops.len() {
            let due_ns = (submitted as f64 / PACED_RATE * 1e9) as u64;
            if due_ns > now {
                break;
            }
            if matches!(ops[next], Op::Submit(_)) {
                submitted += 1;
            }
            due.push(due_ns);
            buf.push(service::command(trace, ops[next]));
            next += 1;
        }
        if !buf.is_empty() {
            let _ = adapter::service_send_many(&svc, buf.drain(..));
            let sent = now_ns() - start;
            for d in due.drain(..) {
                late.record(sent.saturating_sub(d));
            }
        }
    }
    let report = adapter::service_shutdown(svc);
    let placed = report
        .perf
        .latency("placement_latency")
        .cloned()
        .unwrap_or_default();
    (placed, late)
}

/// Seconds per batch placing `batch` `times` times, and the placer used.
fn time_batches(
    cluster: &adapter::Cluster,
    workers: Option<usize>,
    batch: &[Job],
    times: usize,
) -> (f64, adapter::NetPackPlacer) {
    let mut placer = adapter::placer_new(workers);
    let start = now_ns();
    for _ in 0..times {
        let outcome = adapter::placer_place_batch(&mut placer, cluster, batch);
        std::hint::black_box(outcome);
    }
    ((now_ns() - start) as f64 / 1e9 / times as f64, placer)
}

fn batch_probes(seed: u64, values: &mut Values, tally: &mut Tally) {
    // Scan-bound: the warehouse batch.
    trace::set_request(4);
    let mark = trace::mark();
    let warehouse = adapter::cluster_new(adapter::warehouse_spec());
    let servers = adapter::flat_new(&warehouse);
    let spans = trace::since(mark);
    values.insert(
        "topology.cluster_new_ns",
        span_ns(&spans, "topology.cluster_new"),
    );
    values.insert("topology.flat_new_ns", span_ns(&spans, "topology.flat_new"));

    let wh_batch = BatchWorkload::batch_for(100, seed, 0);
    let times = 5;
    let (wh_one_s, placer) = time_batches(&warehouse, Some(1), &wh_batch, times);
    let perf = adapter::placer_perf(&placer);
    let per_batch = |name| perf.timer_total(name).as_nanos() as f64 / times as f64;
    values.insert("placement.class_build_ns", per_batch("class_build"));
    values.insert(
        "placement.candidate_select_ns",
        per_batch("candidate_select"),
    );
    let offered = perf.counter("dp_candidates_offered") as f64 / times as f64;
    let kept = perf.counter("dp_candidates_kept") as f64 / times as f64;
    values.insert("placement.dp_candidates_offered", offered);
    values.insert("placement.dp_candidates_kept", kept);
    values.insert("placement.filter_keep_ratio", kept / offered);

    // The candidate filter alone over every server of the warehouse:
    // free GPUs, values and flow counts spread by a fixed hash of the id.
    let (per_server, _) = adapter::cluster_shape(&warehouse);
    let offers: Vec<_> = (0..servers)
        .map(|id| {
            let h = (id as u64 ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
            adapter::server_stats(
                id,
                1 + (h as usize % per_server),
                (h % 1_000) as f64,
                (h % 5) as u32,
            )
        })
        .collect();
    let start = now_ns();
    let (seen, kept_n, candidates) = adapter::filter_offer(per_server, 32, &offers);
    values.insert("placement.filter_offer_ns", (now_ns() - start) as f64);
    tally.check(
        seen == servers as u64 && kept_n == candidates.len() && kept_n > 0,
        || format!("filter drill: offered {seen}, kept {kept_n}"),
    );
    let rounds = 20;
    let start = now_ns();
    let mut plans = 0usize;
    for _ in 0..rounds {
        plans += adapter::worker_dp_plans(std::hint::black_box(&candidates), 32, per_server - 1);
    }
    values.insert(
        "placement.worker_dp_plans_ns",
        (now_ns() - start) as f64 / rounds as f64,
    );
    tally.check(plans > 0, || "worker DP drill found no plan".to_string());

    // Scoring-bound: the dense batch.
    trace::set_request(5);
    let dense = adapter::cluster_new(adapter::scaled_spec(10_000));
    let dense_batch = BatchWorkload::batch_for(400, seed, 0);
    let mut placer = adapter::placer_new(Some(1));
    let start = now_ns();
    let outcome = adapter::placer_place_batch(&mut placer, &dense, &dense_batch);
    let dense_one_s = (now_ns() - start) as f64 / 1e9;
    batch::check_outcome(&dense, &dense_batch, &outcome, tally);
    let perf = adapter::placer_perf(&placer);
    let timer = |name| perf.timer_total(name).as_nanos() as f64;
    values.insert("placement.ps_scoring_ns", timer("ps_scoring"));
    values.insert("placement.worker_dp_ns", timer("worker_dp"));
    values.insert("placement.ina_enable_ns", timer("ina_enable"));
    values.insert(
        "placement.plans_considered",
        perf.counter("plans_considered") as f64,
    );
    values.insert(
        "placement.ps_candidates_scored",
        perf.counter("ps_candidates_scored") as f64,
    );
    values.insert("waterfill.solve_ns", timer("waterfill_solve"));
    let resolved = perf.counter("waterfill_jobs_resolved") as f64;
    let reused = perf.counter("waterfill_jobs_reused") as f64;
    values.insert("waterfill.jobs_resolved", resolved);
    values.insert("waterfill.jobs_reused", reused);
    values.insert("waterfill.reuse_ratio", reused / (resolved + reused));

    // Algorithm 1 alone on what the dense batch placed: from scratch,
    // then job by job through the incremental estimator.
    let placed: Vec<_> = outcome
        .placed
        .iter()
        .map(|(job, p)| adapter::placed_job(job.id, &dense, p))
        .collect();
    let start = now_ns();
    std::hint::black_box(adapter::waterfill_estimate(&dense, &placed));
    values.insert("waterfill.estimate_ns", (now_ns() - start) as f64);
    let mark = trace::mark();
    let mut est = adapter::estimator_new(&dense);
    for job in &placed {
        adapter::estimator_push(&mut est, &dense, job.clone());
    }
    let mut removed = 0usize;
    for job in placed.iter().step_by(4) {
        removed += usize::from(adapter::estimator_remove(&mut est, &dense, job.id()));
    }
    let mut popped = 0usize;
    while adapter::estimator_pop(&mut est, &dense) {
        popped += 1;
    }
    let spans = trace::since(mark);
    let n = placed.len();
    values.insert(
        "waterfill.push_ns",
        span_ns(&spans, "waterfill.push") / n as f64,
    );
    values.insert(
        "waterfill.remove_ns",
        span_ns(&spans, "waterfill.remove") / removed.max(1) as f64,
    );
    values.insert(
        "waterfill.pop_ns",
        span_ns(&spans, "waterfill.pop") / popped.max(1) as f64,
    );
    let stats = adapter::estimator_stats(&est);
    tally.check(stats.pushes == n as u64 && removed + popped == n, || {
        format!(
            "estimator drill: {} pushes, {removed} removed, {popped} popped of {n}",
            stats.pushes
        )
    });

    // The parallel machinery: the same two batches at the library's
    // default worker count.
    trace::set_request(6);
    let (wh_mt_s, wh_placer) = time_batches(&warehouse, None, &wh_batch, times);
    let (dense_mt_s, dense_placer) = time_batches(&dense, None, &dense_batch, 1);
    values.insert(
        "placement.mt_wall_ratio",
        (wh_mt_s + dense_mt_s) / (wh_one_s + dense_one_s),
    );
    let mut spec = adapter::placer_perf(&dense_placer).clone();
    spec.merge(adapter::placer_perf(&wh_placer));
    let scored = spec.counter("spec_scored") as f64;
    let offered_jobs = (times * wh_batch.len() + dense_batch.len()) as f64;
    values.insert("placement.spec_rounds", spec.counter("spec_rounds") as f64);
    values.insert("placement.spec_scored", scored);
    values.insert(
        "placement.spec_conflicts",
        spec.counter("spec_conflicts") as f64,
    );
    values.insert(
        "placement.spec_waste_ratio",
        (scored - offered_jobs) / scored,
    );
}

fn sim_probe(seed: u64, values: &mut Values, tally: &mut Tally) {
    trace::set_request(7);
    let mark = trace::mark();
    let mut perf = adapter::PerfCounters::new();
    for (i, servers) in sim::SIZES.into_iter().enumerate() {
        let trace = SimSweep::trace_for(seed, i);
        let (result, _) = sim::cell(servers, &trace);
        sim::check_result(&result, sim::JOBS, tally);
        perf.merge(&result.perf);
    }
    let spans = trace::since(mark);
    let run_ns = span_ns(&spans, "flowsim.run");
    let events = perf.counter("sim_events") as f64;
    let timer = |name| perf.timer_total(name).as_nanos() as f64;
    values.insert("flowsim.run_ns", run_ns);
    values.insert("flowsim.events", events);
    values.insert("flowsim.ns_per_event", run_ns / events);
    values.insert("flowsim.heap_ops", timer("heap_ops"));
    values.insert(
        "flowsim.heap_stale_ratio",
        perf.counter("heap_stale_pops") as f64 / perf.counter("heap_pushes").max(1) as f64,
    );
    values.insert("flowsim.resolve_component_ns", timer("resolve_component"));
    values.insert("core.run_epoch_ns", timer("place"));
    values.insert("flowsim.wf_removes", perf.counter("wf_removes") as f64);
}
