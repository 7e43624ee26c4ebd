//! Deterministic fan-out of a figure sweep's independent cells, and the
//! one repetition loop built on it.

/// Effective worker count for a sweep: `NETPACK_THREADS` (0 or unset →
/// all available cores), clamped to the hardware parallelism actually
/// present. Oversubscribing a core never speeds a CPU-bound sweep up —
/// it only adds spawn and scheduling overhead — so a request for more
/// workers than cores is treated as "all cores".
fn sweep_threads() -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    std::env::var("NETPACK_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(cores)
        .min(cores)
}

/// Run one closure per sweep cell across `std::thread::scope` workers and
/// return the results in cell order.
///
/// The deterministic ordered merge (chunk `i`'s results land before chunk
/// `i+1`'s, same as a sequential loop) is what lets the figure binaries
/// parallelize without changing a single printed byte. Each cell must be
/// independent; all callers' sweeps are.
///
/// Honors `NETPACK_THREADS` so perf comparisons can pin a worker count. A
/// panicking worker is resumed on the caller's thread, so a cell failure
/// surfaces exactly as it would in the sequential loop.
pub fn parallel_sweep<T, R, F>(cells: &[T], run: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_sweep_with(sweep_threads(), cells, run)
}

/// The repetition loop of every trace-replay figure: run `cell(point,
/// seed)` for each point on seeds `seed_base..seed_base + reps`, all
/// `points.len() * reps` cells fanned out over [`parallel_sweep`], and
/// return each point's results in seed order.
pub fn sweep<P, R, F>(points: &[P], reps: usize, seed_base: u64, cell: F) -> Vec<Vec<R>>
where
    P: Sync,
    R: Send,
    F: Fn(&P, u64) -> R + Sync,
{
    let cells: Vec<(&P, u64)> = points
        .iter()
        .flat_map(|p| (seed_base..seed_base + reps as u64).map(move |seed| (p, seed)))
        .collect();
    let mut results = parallel_sweep(&cells, |&(p, seed)| cell(p, seed)).into_iter();
    points
        .iter()
        .map(|_| results.by_ref().take(reps).collect())
        .collect()
}

/// [`parallel_sweep`] on `threads` workers; results are identical for any
/// `threads` by construction.
fn parallel_sweep_with<T, R, F>(threads: usize, cells: &[T], run: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.max(1).min(cells.len().max(1));
    if threads <= 1 || cells.len() <= 1 {
        return cells.iter().map(&run).collect();
    }
    let chunk = cells.len().div_ceil(threads);
    let run = &run;
    std::thread::scope(|scope| {
        let handles: Vec<_> = cells
            .chunks(chunk)
            .map(|cell_chunk| scope.spawn(move || cell_chunk.iter().map(run).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(results) => results,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_cell_order() {
        let cells: Vec<usize> = (0..37).collect();
        let got = parallel_sweep(&cells, |&c| c * 2);
        let want: Vec<usize> = cells.iter().map(|&c| c * 2).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn handles_degenerate_sizes() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_sweep(&empty, |&c| c).is_empty());
        assert_eq!(parallel_sweep(&[7u32], |&c| c + 1), vec![8]);
    }

    #[test]
    fn explicit_thread_counts_agree() {
        let cells: Vec<usize> = (0..101).collect();
        let want: Vec<usize> = cells.iter().map(|&c| c * 3 + 1).collect();
        for threads in [1, 2, 3, 4, 8, 101, 500] {
            let got = parallel_sweep_with(threads, &cells, |&c| c * 3 + 1);
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn sweep_threads_is_positive() {
        assert!(sweep_threads() >= 1);
    }
}
