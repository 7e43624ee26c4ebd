//! Threaded front end: a command queue in front of [`ServiceCore`].
//!
//! The shape is a classic multiplexer: submitters push [`Command`]s into a
//! bounded queue (a full queue is backpressure the caller sees
//! immediately), and a single service thread drains it in batches of up
//! to `max_batch` commands and runs one placement pass per batch. Dropping
//! every sender shuts the thread down; [`PlacementService::shutdown`] also
//! flushes whatever was still queued and returns the final
//! [`ServiceReport`].
//!
//! The queue is a hand-rolled `Mutex<VecDeque>` + condvar pair rather than
//! an `mpsc::sync_channel`: the service thread takes **one lock per
//! batch** ([`CommandReceiver::drain_into`] blocks for the first command
//! and moves up to `max_batch` out in the same critical section) where
//! the channel paid a synchronized `recv`/`try_recv` round-trip per
//! command. At open-loop replay rates the per-command wakeups were the
//! threaded mode's bottleneck — drain-many is what lets it clear the
//! deterministic loop.

use crate::config::ServiceConfig;
use crate::core::{Command, JobStatus, ServiceCore, ServiceReport};
use netpack_metrics::Stopwatch;
use netpack_topology::{Cluster, JobId};
use netpack_workload::Job;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Batching window of [`CommandReceiver::drain_into`].
const GATHER: Duration = Duration::from_millis(8);

#[derive(Debug)]
struct QueueInner {
    buf: VecDeque<Command>,
    closed: bool,
    /// Queue depth the consumer is waiting for. Producers skip the
    /// `not_empty` wakeup below this threshold, so a consumer sleeping
    /// through its gather window is woken once when the batch target is
    /// reached instead of once per push — on a single core every spare
    /// wakeup is a context-switch round-trip charged to the batch.
    wanted: usize,
}

#[derive(Debug)]
struct Shared {
    cap: usize,
    /// Live [`CommandSender`] count; the last one to drop closes the queue.
    senders: AtomicUsize,
    inner: Mutex<QueueInner>,
    not_empty: Condvar,
    not_full: Condvar,
}

/// A poisoned queue lock is still a valid queue (every mutation below
/// keeps the invariants before releasing), so reclaim it instead of
/// propagating the panic into unrelated submitter threads.
fn lock(m: &Mutex<QueueInner>) -> MutexGuard<'_, QueueInner> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn wait<'a>(cv: &Condvar, g: MutexGuard<'a, QueueInner>) -> MutexGuard<'a, QueueInner> {
    match cv.wait(g) {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn wait_for<'a>(
    cv: &Condvar,
    g: MutexGuard<'a, QueueInner>,
    dur: Duration,
) -> MutexGuard<'a, QueueInner> {
    match cv.wait_timeout(g, dur) {
        Ok((g, _)) => g,
        Err(poisoned) => poisoned.into_inner().0,
    }
}

/// Cloneable submission half of the command queue, for handing to
/// producer threads. The queue closes when every sender has dropped.
#[derive(Debug)]
pub struct CommandSender {
    shared: Arc<Shared>,
}

impl Clone for CommandSender {
    fn clone(&self) -> Self {
        // netpack-lint: allow(C2): refcount increment in the style of Arc — only the count matters, and the paired fetch_sub in Drop is AcqRel so the last-drop close is ordered
        self.shared.senders.fetch_add(1, Ordering::Relaxed);
        CommandSender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl Drop for CommandSender {
    fn drop(&mut self) {
        if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            lock(&self.shared.inner).closed = true;
            self.shared.not_empty.notify_all();
            self.shared.not_full.notify_all();
        }
    }
}

impl CommandSender {
    /// Non-blocking push; gives the command back on a full or closed
    /// queue so the caller can retry, shed, or queue it elsewhere.
    pub fn try_send(&self, cmd: Command) -> Result<(), Command> {
        let mut q = lock(&self.shared.inner);
        if q.closed || q.buf.len() >= self.shared.cap {
            return Err(cmd);
        }
        q.buf.push_back(cmd);
        let ready = q.buf.len() >= q.wanted.min(self.shared.cap);
        drop(q);
        if ready {
            self.shared.not_empty.notify_one();
        }
        Ok(())
    }

    /// Blocking push; returns `false` if the queue has closed.
    pub fn send(&self, cmd: Command) -> bool {
        let mut q = lock(&self.shared.inner);
        while !q.closed && q.buf.len() >= self.shared.cap {
            q = wait(&self.shared.not_full, q);
        }
        if q.closed {
            return false;
        }
        q.buf.push_back(cmd);
        let ready = q.buf.len() >= q.wanted.min(self.shared.cap);
        drop(q);
        if ready {
            self.shared.not_empty.notify_one();
        }
        true
    }

    /// Blocking bulk push: the batched dual of [`send`](Self::send). Moves
    /// as many commands per lock acquisition as the queue has room for,
    /// waiting out backpressure between fills — a producer replaying a
    /// trace pays one lock round-trip per queue's worth instead of one per
    /// command. Returns how many commands were enqueued; short only if the
    /// queue closed mid-stream.
    pub fn send_many<I: IntoIterator<Item = Command>>(&self, cmds: I) -> usize {
        let mut sent = 0usize;
        let mut it = cmds.into_iter().peekable();
        while it.peek().is_some() {
            let mut q = lock(&self.shared.inner);
            while !q.closed && q.buf.len() >= self.shared.cap {
                q = wait(&self.shared.not_full, q);
            }
            if q.closed {
                return sent;
            }
            while q.buf.len() < self.shared.cap {
                match it.next() {
                    Some(cmd) => {
                        q.buf.push_back(cmd);
                        sent += 1;
                    }
                    None => break,
                }
            }
            let ready = q.buf.len() >= q.wanted.min(self.shared.cap);
            drop(q);
            if ready {
                self.shared.not_empty.notify_one();
            }
        }
        sent
    }
}

/// Consuming half; owned by the service thread.
#[derive(Debug)]
struct CommandReceiver {
    shared: Arc<Shared>,
}

impl CommandReceiver {
    /// Block until at least one command is queued (or the queue closes),
    /// then move up to `max` commands into `into` under a single lock.
    /// Returns `false` when the queue is closed and drained — shutdown.
    ///
    /// [`GATHER`] is the batching window: once the first command is in,
    /// keep sleeping (up to that long in total) while fewer than `max`
    /// commands are queued, so a slow trickle of submissions coalesces
    /// into one placement pass instead of a pass per wakeup. Without the
    /// window the service thread wakes on every push and runs tiny
    /// batches, paying the per-pass fixed cost (pending sort, knapsack
    /// admission, estimator-tail reconcile) per handful of jobs — the
    /// measured cause of the threaded driver trailing the synchronous
    /// core. Wall-clock here only shapes batch boundaries, never
    /// placement outcomes; a driver that calls [`ServiceCore`] directly
    /// bypasses this queue entirely.
    fn drain_into(&self, into: &mut Vec<Command>, max: usize) -> bool {
        let mut q = lock(&self.shared.inner);
        while q.buf.is_empty() {
            if q.closed {
                return false;
            }
            q = wait(&self.shared.not_empty, q);
        }
        if q.buf.len() < max && !q.closed {
            // Raise the producers' notify threshold for the duration of
            // the window: the sleep below then ends on the batch target,
            // the close, or the timeout — not on every push.
            q.wanted = max;
            let started = Stopwatch::start();
            loop {
                let elapsed = started.elapsed();
                if q.buf.len() >= max || q.closed || elapsed >= GATHER {
                    break;
                }
                q = wait_for(&self.shared.not_empty, q, GATHER - elapsed);
            }
            q.wanted = 1;
        }
        let take = q.buf.len().min(max);
        into.extend(q.buf.drain(..take));
        drop(q);
        self.shared.not_full.notify_all();
        true
    }
}

fn queue(cap: usize) -> (CommandSender, CommandReceiver) {
    let shared = Arc::new(Shared {
        cap: cap.max(1),
        senders: AtomicUsize::new(1),
        inner: Mutex::new(QueueInner {
            buf: VecDeque::new(),
            closed: false,
            wanted: 1,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        CommandSender {
            shared: Arc::clone(&shared),
        },
        CommandReceiver { shared },
    )
}

/// Handle to a running placement service thread. Cloneable submission is
/// available via [`sender`](PlacementService::sender); the handle itself
/// owns the shutdown path.
#[derive(Debug)]
pub struct PlacementService {
    tx: Option<CommandSender>,
    handle: Option<JoinHandle<ServiceReport>>,
}

impl PlacementService {
    /// Start the service thread over `cluster`. The command queue is
    /// bounded at `config.channel_cap`.
    pub fn spawn(cluster: Cluster, config: ServiceConfig) -> Self {
        let (tx, rx) = queue(config.channel_cap);
        let handle = std::thread::spawn(move || run_loop(cluster, config, rx));
        PlacementService {
            tx: Some(tx),
            handle: Some(handle),
        }
    }

    /// A clone of the command sender, for handing to producer threads.
    pub fn sender(&self) -> Option<CommandSender> {
        self.tx.clone()
    }

    /// Submit a job without blocking. On backpressure (queue full) or a
    /// stopped service the job comes back as `Err` so the caller can
    /// retry, shed, or queue it elsewhere.
    pub fn submit(&self, job: Job) -> Result<(), Job> {
        match &self.tx {
            Some(tx) => tx.try_send(Command::Submit(job)).map_err(|cmd| match cmd {
                Command::Submit(j) => j,
                // try_send returns the command we passed in; only Submit
                // goes through this path.
                _ => unreachable!(),
            }),
            None => Err(job),
        }
    }

    /// Send any command, blocking while the queue is full. Returns
    /// `false` if the service has stopped.
    pub fn send(&self, cmd: Command) -> bool {
        match &self.tx {
            Some(tx) => tx.send(cmd),
            None => false,
        }
    }

    /// Bulk [`send`](Self::send): enqueue every command in order, blocking
    /// on backpressure, with one lock acquisition per queue's worth.
    /// Returns how many commands were accepted — all of them unless the
    /// service stopped mid-stream.
    pub fn send_many<I: IntoIterator<Item = Command>>(&self, cmds: I) -> usize {
        match &self.tx {
            Some(tx) => tx.send_many(cmds),
            None => 0,
        }
    }

    /// Ask where a job stands, round-tripping through the service thread
    /// (so the answer reflects every command sent before this call).
    /// `None` if the service has stopped.
    pub fn query(&self, id: JobId) -> Option<JobStatus> {
        let (reply_tx, reply_rx) = std::sync::mpsc::sync_channel(1);
        if !self.send(Command::Query(id, Some(reply_tx))) {
            return None;
        }
        reply_rx.recv().ok()
    }

    /// Stop the service: close the queue, let the thread drain and flush
    /// what is pending, and return its final report.
    pub fn shutdown(mut self) -> ServiceReport {
        drop(self.tx.take());
        match self.handle.take() {
            Some(handle) => match handle.join() {
                Ok(report) => report,
                Err(panic) => std::panic::resume_unwind(panic),
            },
            None => ServiceReport::default(),
        }
    }
}

/// The service thread: drain a batch, place, repeat; flush on close. The
/// drain buffer is reused across iterations — the loop allocates nothing
/// per batch.
fn run_loop(cluster: Cluster, config: ServiceConfig, rx: CommandReceiver) -> ServiceReport {
    let max = config.max_batch.max(1);
    let mut core = ServiceCore::new(cluster, config);
    let mut batch: Vec<Command> = Vec::new();
    loop {
        batch.clear();
        if !rx.drain_into(&mut batch, max) {
            break;
        }
        for cmd in batch.drain(..) {
            core.apply(cmd);
        }
        let _ = core.place_pass();
    }
    // Queue closed: flush what is still pending. Repeat while passes
    // make progress — a pass can place jobs that earlier passes deferred
    // only if something else freed capacity, so this converges fast.
    while core.pending_len() > 0 && core.place_pass() > 0 {}
    core.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpack_topology::ClusterSpec;
    use netpack_workload::ModelKind;

    fn cluster() -> Cluster {
        Cluster::new(ClusterSpec {
            racks: 2,
            servers_per_rack: 4,
            gpus_per_server: 4,
            ..ClusterSpec::paper_default()
        })
    }

    fn job(id: u64, gpus: usize) -> Job {
        Job::builder(JobId(id), ModelKind::Vgg16, gpus).build()
    }

    #[test]
    fn spawn_submit_query_shutdown_round_trip() {
        let svc = PlacementService::spawn(cluster(), ServiceConfig::default());
        for i in 0..8 {
            assert!(svc.send(Command::Submit(job(i, 2))));
        }
        // Query round-trips through the thread, so by the time it answers
        // all prior submits have been applied (though possibly not placed).
        let status = svc.query(JobId(0)).expect("service alive");
        assert_ne!(status, JobStatus::Unknown);
        assert!(svc.send(Command::Complete(JobId(0))));
        let report = svc.shutdown();
        assert_eq!(report.counters.submitted, 8);
        // Every submission is accounted for: placed, retired straight out
        // of the queue by the Complete, or still pending at shutdown.
        assert_eq!(
            report.counters.placed + report.counters.completed_pending + report.pending_left as u64,
            8
        );
        assert!(report.counters.batches > 0);
    }

    #[test]
    fn shutdown_flushes_the_pending_queue() {
        let svc = PlacementService::spawn(cluster(), ServiceConfig::default());
        for i in 0..4 {
            assert!(svc.send(Command::Submit(job(i, 4))));
        }
        let report = svc.shutdown();
        // 16 GPUs demanded, 32 available: everything must have landed.
        assert_eq!(report.counters.placed, 4);
        assert_eq!(report.pending_left, 0);
        assert_eq!(report.running_left, 4);
    }

    #[test]
    fn submit_reports_backpressure_instead_of_blocking() {
        let cfg = ServiceConfig {
            channel_cap: 1,
            ..ServiceConfig::default()
        };
        let svc = PlacementService::spawn(cluster(), cfg);
        // Slam the bounded queue; at least everything try_send rejects
        // must come back to us, and nothing may be silently dropped.
        let mut accepted = 0u64;
        let mut bounced = 0u64;
        for i in 0..256 {
            match svc.submit(job(i, 1)) {
                Ok(()) => accepted += 1,
                Err(returned) => {
                    assert_eq!(returned.id, JobId(i));
                    bounced += 1;
                }
            }
        }
        let report = svc.shutdown();
        assert_eq!(accepted + bounced, 256);
        assert_eq!(
            report.counters.submitted + report.counters.rejected,
            accepted
        );
    }

    #[test]
    fn send_many_delivers_every_command_through_backpressure() {
        // A 4-slot queue forces send_many to wait out backpressure
        // repeatedly; every command must still arrive, in order.
        let cfg = ServiceConfig {
            channel_cap: 4,
            ..ServiceConfig::default()
        };
        let svc = PlacementService::spawn(cluster(), cfg);
        let sent = svc.send_many((0..64).map(|i| Command::Submit(job(i, 1))));
        assert_eq!(sent, 64);
        let report = svc.shutdown();
        assert_eq!(report.counters.submitted, 64);
    }

    #[test]
    fn max_batch_bounds_every_pass() {
        // 64 commands land in the queue at once, but no pass may take more
        // than 4 of them: at least 16 passes, and every submit ends placed
        // (32 one-GPU jobs fill the 32 GPUs) or still pending.
        let cfg = ServiceConfig {
            max_batch: 4,
            ..ServiceConfig::default()
        };
        let svc = PlacementService::spawn(cluster(), cfg);
        let sent = svc.send_many((0..64).map(|i| Command::Submit(job(i, 1))));
        assert_eq!(sent, 64);
        let report = svc.shutdown();
        let c = &report.counters;
        assert!(
            c.batches >= 16,
            "{} passes for 64 commands at 4 a pass",
            c.batches
        );
        assert_eq!((c.submitted, c.rejected), (64, 0));
        assert_eq!(c.placed + report.pending_left as u64, 64);
        assert_eq!(c.placed, 32);
    }

    #[test]
    fn a_query_whose_asker_left_is_counted_and_the_service_carries_on() {
        let svc = PlacementService::spawn(cluster(), ServiceConfig::default());
        let (reply_tx, reply_rx) = std::sync::mpsc::sync_channel(1);
        drop(reply_rx);
        assert!(svc.send(Command::Query(JobId(0), Some(reply_tx))));
        assert!(svc.send(Command::Submit(job(1, 2))));
        let report = svc.shutdown();
        assert_eq!(report.counters.queries, 1);
        assert_eq!(report.counters.submitted, 1);
        assert_eq!(report.counters.placed, 1);
    }

    #[test]
    fn shutdown_while_a_sender_fills_the_queue_accounts_for_every_submit() {
        // A second thread keeps a 4-slot queue full while the handle shuts
        // down. The queue closes only when that sender drops, so every
        // command is drained, and 64 one-GPU jobs on 32 GPUs end placed,
        // retired from the queue or pending.
        let cfg = ServiceConfig {
            channel_cap: 4,
            ..ServiceConfig::default()
        };
        let svc = PlacementService::spawn(cluster(), cfg);
        let tx = svc.sender().expect("service alive");
        let start = Arc::new(std::sync::Barrier::new(2));
        let go = Arc::clone(&start);
        let producer = std::thread::spawn(move || {
            go.wait();
            tx.send_many((0..64).map(|i| Command::Submit(job(i, 1))))
        });
        start.wait();
        let report = svc.shutdown();
        let sent = producer.join().expect("the producer thread does not panic");
        assert_eq!(sent, 64);
        let c = &report.counters;
        assert_eq!(c.submitted, 64);
        assert_eq!(
            c.placed + c.completed_pending + report.pending_left as u64,
            64
        );
        assert_eq!(c.placed, 32);
    }

    #[test]
    fn a_producer_that_dies_inside_send_many_leaves_a_working_service() {
        // The producer's command iterator panics on its eleventh command,
        // in the middle of a `send_many` that waits out a 4-slot queue: its
        // thread unwinds with the queue lock held (poisoning it) and drops
        // its sender. The ten commands it did enqueue are served, nothing
        // more, and the service still shuts down with its report.
        let cfg = ServiceConfig {
            channel_cap: 4,
            ..ServiceConfig::default()
        };
        let svc = PlacementService::spawn(cluster(), cfg);
        let tx = svc.sender().expect("service alive");
        let producer = std::thread::spawn(move || {
            tx.send_many((0..64).map(|i| {
                assert!(i < 10, "the producer dies after 10 submits");
                Command::Submit(job(i, 1))
            }))
        });
        assert!(producer.join().is_err(), "the producer thread panicked");
        let report = svc.shutdown();
        let c = &report.counters;
        assert_eq!((c.submitted, c.rejected), (10, 0));
        assert_eq!(c.placed + report.pending_left as u64, 10);
    }

    #[test]
    fn cloned_senders_keep_the_queue_open_until_the_last_drop() {
        let svc = PlacementService::spawn(cluster(), ServiceConfig::default());
        let extra = svc.sender().expect("service alive");
        for i in 0..4 {
            assert!(extra.send(Command::Submit(job(i, 2))));
        }
        // Shutdown joins the thread, and the thread only exits once every
        // sender is gone — drop the clone first or the join would wait on
        // it forever.
        drop(extra);
        let report = svc.shutdown();
        assert_eq!(report.counters.submitted, 4);
    }
}
