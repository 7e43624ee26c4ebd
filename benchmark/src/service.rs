//! `service_saturate`: the open-loop service replay of `bench_service`,
//! pushed as fast as backpressure allows.

use crate::adapter::{
    self, Cluster, Command, Job, JobId, LatencyHistogram, ServiceCore, ServiceReport, Trace,
};
use crate::sys::now_ns;
use crate::workload::{Tally, Workload};

/// Jobs in the generated trace.
pub const TRACE_JOBS: usize = 50_000;
/// Submissions in the 1-worker / default-workers event-log comparison.
const DIGEST_JOBS: usize = 5_000;

/// One entry of the merged command schedule.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// Submit `trace.jobs()[i]`.
    Submit(u32),
    Complete(JobId),
}

/// Submissions in arrival order, interleaved with each job's completion at
/// `arrival + ideal_time` in virtual-time order (ties by id).
pub fn schedule(trace: &Trace) -> Vec<Op> {
    let jobs = trace.jobs();
    let mut completions: Vec<(f64, JobId)> = jobs
        .iter()
        .map(|j| (j.arrival_s + j.ideal_time_s(), j.id))
        .collect();
    completions.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut ops = Vec::with_capacity(2 * jobs.len());
    let mut next_done = 0usize;
    for (i, job) in jobs.iter().enumerate() {
        while next_done < completions.len() && completions[next_done].0 <= job.arrival_s {
            ops.push(Op::Complete(completions[next_done].1));
            next_done += 1;
        }
        ops.push(Op::Submit(i as u32));
    }
    ops.extend(
        completions[next_done..]
            .iter()
            .map(|&(_, id)| Op::Complete(id)),
    );
    ops
}

/// The prefix of `ops` that ends with the `n`-th submission.
pub fn prefix(ops: &[Op], n: usize) -> &[Op] {
    let mut seen = 0usize;
    for (i, op) in ops.iter().enumerate() {
        if matches!(op, Op::Submit(_)) {
            seen += 1;
            if seen == n {
                return &ops[..=i];
            }
        }
    }
    ops
}

pub fn command(trace: &Trace, op: Op) -> Command {
    match op {
        Op::Submit(i) => Command::Submit(trace.jobs()[i as usize].clone()),
        Op::Complete(id) => Command::Complete(id),
    }
}

/// What one threaded replay measured.
pub struct Replay {
    pub report: ServiceReport,
    pub wall_s: f64,
    /// Time the producer spent inside `send_many`, blocked or copying.
    pub send_ns: u64,
}

/// Push `ops` through a spawned service in `chunk`-command bulk sends and
/// shut it down. The clock covers first send to shutdown, as in
/// `bench_service`.
pub fn replay_threaded(
    cluster: Cluster,
    workers: Option<usize>,
    trace: &Trace,
    ops: &[Op],
) -> Replay {
    let config = adapter::service_config(workers);
    let chunk = adapter::service_config_echo(&config).1.max(1);
    let svc = adapter::service_spawn(cluster, config);
    let start = now_ns();
    let mut send_ns = 0u64;
    let mut buf: Vec<Command> = Vec::with_capacity(chunk);
    for part in ops.chunks(chunk) {
        buf.extend(part.iter().map(|&op| command(trace, op)));
        let t = now_ns();
        let _ = adapter::service_send_many(&svc, buf.drain(..));
        send_ns += now_ns() - t;
    }
    let report = adapter::service_shutdown(svc);
    Replay {
        report,
        wall_s: (now_ns() - start) as f64 / 1e9,
        send_ns,
    }
}

/// Drive a core in-thread: apply `ops` in `max_batch` chunks with one
/// placement pass after each (the deterministic driver of
/// `bench_service`). The schedule, and so the event log, depends only on
/// the input. `after_pass` sees the core after every pass.
pub fn drive_core(
    core: &mut ServiceCore,
    quantum: usize,
    trace: &Trace,
    ops: &[Op],
    mut after_pass: impl FnMut(&ServiceCore),
) {
    let mut buf: Vec<Command> = Vec::with_capacity(quantum);
    for part in ops.chunks(quantum) {
        buf.extend(part.iter().map(|&op| command(trace, op)));
        adapter::core_apply_all(core, buf.drain(..));
        if part.len() == quantum {
            let _ = adapter::core_place_pass(core);
            after_pass(core);
        }
    }
}

/// Flush what is still pending, as the service thread does on close.
pub fn flush_core(core: &mut ServiceCore) {
    while adapter::core_pending_len(core) > 0 && adapter::core_place_pass(core) > 0 {}
}

/// FNV-1a over the lines of an event log.
pub fn digest(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Event-log digest of an in-thread replay of `ops` with `workers`.
fn logged_digest(workers: Option<usize>, trace: &Trace, ops: &[Op]) -> u64 {
    let config = adapter::service_config_logged(workers);
    let quantum = adapter::service_config_echo(&config).1;
    let mut core = adapter::core_new(adapter::cluster_new(adapter::paper_spec()), config);
    drive_core(&mut core, quantum, trace, ops, |_| {});
    flush_core(&mut core);
    digest(&adapter::core_finish(core).events)
}

/// Σ comm and Σ (compute + comm) per iteration, summed over the running
/// set at every snapshot, under the session's water-filled steady state.
#[derive(Default)]
pub struct Quality {
    comm_s: f64,
    iteration_s: f64,
    snapshots: u64,
    ledger_ok: bool,
}

impl Quality {
    pub fn new() -> Self {
        Quality {
            ledger_ok: true,
            ..Quality::default()
        }
    }

    /// Add the running set of `core` as it stands; also recounts the GPUs
    /// the running jobs hold against the session's free count.
    pub fn snapshot(&mut self, core: &ServiceCore, jobs: &[Job]) {
        let session = adapter::core_session(core);
        let state = adapter::session_state(session);
        let mut held = 0usize;
        for (id, gradient_gbits, placement) in adapter::session_running(session) {
            held += placement.workers().iter().map(|&(_, w)| w).sum::<usize>();
            // Trace ids are the positions in the trace.
            let job = &jobs[id.0 as usize];
            let comm = adapter::comm_time_s(state, id, gradient_gbits).unwrap_or(f64::INFINITY);
            self.comm_s += comm;
            self.iteration_s += comm + job.compute_time_s();
        }
        self.snapshots += 1;
        let total = adapter::paper_spec().total_gpus();
        self.ledger_ok &= adapter::session_free_gpus(session) + held == total;
    }

    pub fn ratio(&self) -> f64 {
        self.comm_s / self.iteration_s
    }
}

/// `service_saturate`: one placer worker, the whole schedule (~1.2 s a
/// replay), warmed up on its first `WARMUP_JOBS` submissions.
pub struct ServiceSaturate {
    seed: u64,
    trace: Trace,
    ops: Vec<Op>,
    latency: LatencyHistogram,
}

const WARMUP_JOBS: usize = 20_000;

/// The accounting identities every replay's report must satisfy.
pub fn check_report(report: &ServiceReport, submitted: usize, tally: &mut Tally) {
    let c = &report.counters;
    tally.check(c.submitted == submitted as u64, || {
        format!("submitted {} != {submitted}", c.submitted)
    });
    tally.check(c.rejected == 0, || format!("rejected {}", c.rejected));
    tally.check(
        c.placed + c.completed_pending + report.pending_left as u64 == c.submitted,
        || "placed + completed_pending + pending_left != submitted".to_string(),
    );
}

impl ServiceSaturate {
    pub fn new(seed: u64) -> Self {
        ServiceSaturate {
            seed,
            trace: Trace::from_jobs(Vec::new()),
            ops: Vec::new(),
            latency: LatencyHistogram::new(),
        }
    }
}

impl Workload for ServiceSaturate {
    fn setup(&mut self, tally: &mut Tally) {
        let spec = adapter::paper_spec();
        self.trace = adapter::service_trace(&spec, TRACE_JOBS, self.seed);
        let ids_are_positions =
            (self.trace.jobs().iter().enumerate()).all(|(i, j)| j.id.0 == i as u64);
        tally.check(ids_are_positions, || {
            "trace ids are not positions".to_string()
        });
        self.ops = schedule(&self.trace);
        let warm = prefix(&self.ops, WARMUP_JOBS);
        let r = replay_threaded(adapter::cluster_new(spec), Some(1), &self.trace, warm);
        check_report(&r.report, WARMUP_JOBS, tally);
    }

    fn repetition(&mut self, _rep: usize, tally: &mut Tally) -> f64 {
        let cluster = adapter::cluster_new(adapter::paper_spec());
        let r = replay_threaded(cluster, Some(1), &self.trace, &self.ops);
        check_report(&r.report, TRACE_JOBS, tally);
        tally.attempted += TRACE_JOBS as u64;
        tally.failed += adapter::service_failed(&r.report);
        if let Some(h) = r.report.perf.latency("placement_latency") {
            self.latency.merge(h);
        }
        // One worker pins the speculation window to one job, so every
        // round scores exactly one. Anything else means the worker count
        // set through the config fields did not take.
        let rounds = r.report.perf.counter("spec_rounds");
        let scored = r.report.perf.counter("spec_scored");
        tally.check(rounds == scored, || {
            format!("1-worker run speculated: rounds {rounds} != scored {scored}")
        });
        r.wall_s
    }

    fn conclude(&mut self, _walls_s: &[f64], tally: &mut Tally) {
        tally.latency_p50_ms = self.latency.p50() as f64 / 1e6;
        tally.info("latency_samples", self.latency.count());

        // Quality: a deterministic in-thread replay of the same commands,
        // the running set summed after every placement pass. (One
        // snapshot holds ~190 jobs and moved by 40 % between seeds.)
        let config = adapter::service_config(Some(1));
        let (threads, quantum) = adapter::service_config_echo(&config);
        tally.check(threads == 1, || {
            format!("ServiceConfig::threads echoes {threads}, not 1")
        });
        let mut core = adapter::core_new(adapter::cluster_new(adapter::paper_spec()), config);
        let mut quality = Quality::new();
        drive_core(&mut core, quantum, &self.trace, &self.ops, |core| {
            quality.snapshot(core, self.trace.jobs());
        });
        tally.comm_overhead_ratio = quality.ratio();
        tally.check(quality.ledger_ok, || {
            "GPU ledger: free + held by running jobs != total".to_string()
        });
        tally.info("quality_snapshots", quality.snapshots);

        // Determinism: the same commands give the same event log at one
        // worker and at the library's default worker count.
        let part = prefix(&self.ops, DIGEST_JOBS);
        let one = logged_digest(Some(1), &self.trace, part);
        let many = logged_digest(None, &self.trace, part);
        tally.check(one == many, || {
            format!("event log differs: 1 worker {one:016x}, default workers {many:016x}")
        });
        tally.info("event_log_digest", format!("{one:016x}"));
    }

    fn jobs_per_repetition(&self) -> f64 {
        TRACE_JOBS as f64
    }

    fn min_repetitions(&self) -> usize {
        3
    }
}
