//! Service tunables.

use netpack_placement::NetPackConfig;

/// Tunables of the placement service (see the [crate docs](crate) for the
/// architecture). A plain typed config: the library reads no environment
/// variable, so a binary that wants knobs parses them itself and fills
/// the fields (`bench_service` runs every field at its default).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Most commands the threaded drain loop takes before a placement
    /// pass (default 256).
    pub max_batch: usize,
    /// Pending-queue backpressure bound: submissions beyond this are
    /// rejected and counted (default 65536).
    pub queue_cap: usize,
    /// Command-channel depth in threaded mode; a full channel pushes
    /// back on submitters (default 1024).
    pub channel_cap: usize,
    /// Record one event-log line per submit/place/defer/complete/cancel.
    /// Off by default: a million-job bench would otherwise spend its time
    /// formatting strings.
    pub event_log: bool,
    /// Inert (default 1): the service places on one thread and reads no
    /// worker count. The field stays only because the benchmark adapter
    /// sets and echoes it; ROADMAP item 1(d) moves that pinning off it and
    /// deletes it. Nothing else sets it.
    pub threads: usize,
    /// Placer configuration.
    pub placer: NetPackConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_batch: 256,
            queue_cap: 65_536,
            channel_cap: 1_024,
            event_log: false,
            threads: 1,
            placer: NetPackConfig::default(),
        }
    }
}
