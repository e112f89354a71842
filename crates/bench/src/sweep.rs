//! Parallel figure-cell executor.
//!
//! Every figure is a grid of independent experiment cells (config × kind ×
//! rate × seed). Each figure module enumerates its grid as boxed closures
//! in a fixed order; [`run_cells`] executes them across a scoped worker
//! pool and returns results **in input order**, so the rendered tables and
//! the emitted JSON are byte-identical to a sequential run regardless of
//! the worker count.
//!
//! The worker count comes from [`set_jobs`] (the `repro --jobs N` flag) and
//! defaults to [`std::thread::available_parallelism`]. Workers also drain
//! the engine's per-run perf records ([`drain_run_perf`]) around each cell,
//! so `repro --bench-out` can attribute simulator events/sec to individual
//! figure cells; see [`take_cell_perf`].

use neutrino_core::experiment::drain_run_perf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// One unit of figure work: runs on exactly one worker thread.
pub type Cell<T> = Box<dyn FnOnce() -> T + Send>;

/// Configured worker count; 0 = auto (`available_parallelism`).
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Engine perf attributed to the cells of the most recent sweep(s).
static CELL_PERF: PerfLog = PerfLog::new();

/// Per-cell perf records since the last drain, and the index the next
/// sweep's first cell takes.
struct PerfLog {
    cells: Mutex<Vec<CellPerf>>,
    next_index: AtomicUsize,
}

impl PerfLog {
    const fn new() -> Self {
        PerfLog {
            cells: Mutex::new(Vec::new()),
            next_index: AtomicUsize::new(0),
        }
    }

    /// Reserves indexes for a sweep of `n` cells; returns the first.
    fn reserve(&self, n: usize) -> usize {
        self.next_index.fetch_add(n, Ordering::Relaxed)
    }

    fn cells(&self) -> MutexGuard<'_, Vec<CellPerf>> {
        self.cells
            .lock()
            .expect("no thread panics while holding the perf log")
    }

    /// Drains the records in index order and restarts numbering at zero.
    fn take(&self) -> Vec<CellPerf> {
        let mut perf = std::mem::take(&mut *self.cells());
        self.next_index.store(0, Ordering::Relaxed);
        perf.sort_by_key(|p| p.index);
        perf
    }
}

/// Engine throughput of one executed cell (summed over the simulation runs
/// the cell performed — failure cells, for instance, run one experiment;
/// a cell that runs none reports zeros).
#[derive(Debug, Clone, Copy)]
pub struct CellPerf {
    /// The cell's index across every sweep since the last
    /// [`take_cell_perf`]: sweeps in the order they ran, each sweep's cells
    /// in its input order.
    pub index: usize,
    /// Simulation runs the cell executed.
    pub runs: usize,
    /// Engine events processed across those runs.
    pub events_processed: u64,
    /// Host time the engine spent inside `run_until` across those runs.
    pub sim_wall: std::time::Duration,
}

impl CellPerf {
    /// Engine throughput of this cell in events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.sim_wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.events_processed as f64 / secs
        }
    }
}

/// Overrides the worker count for all subsequent sweeps (0 = auto).
pub fn set_jobs(jobs: usize) {
    JOBS.store(jobs, Ordering::Relaxed);
}

/// The effective worker count: the [`set_jobs`] override, else the host's
/// available parallelism.
pub fn jobs() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

/// Drains the per-cell engine perf accumulated since the last call.
pub fn take_cell_perf() -> Vec<CellPerf> {
    CELL_PERF.take()
}

/// Executes `cells` across the configured worker pool, returning results in
/// input order. With one worker (or one cell) this degenerates to a plain
/// sequential loop on the calling thread.
pub fn run_cells<T: Send>(cells: Vec<Cell<T>>) -> Vec<T> {
    run_cells_with(jobs(), cells)
}

/// [`run_cells`] with an explicit worker count.
pub fn run_cells_with<T: Send>(jobs: usize, cells: Vec<Cell<T>>) -> Vec<T> {
    run_logged(&CELL_PERF, jobs, cells)
}

/// [`run_cells_with`], recording cell perf into `log`.
fn run_logged<T: Send>(log: &PerfLog, jobs: usize, cells: Vec<Cell<T>>) -> Vec<T> {
    let n = cells.len();
    let base = log.reserve(n);
    let jobs = jobs.max(1).min(n.max(1));
    if jobs <= 1 {
        return cells
            .into_iter()
            .enumerate()
            .map(|(index, cell)| run_one(log, base + index, cell))
            .collect();
    }

    // Work queue in reverse so `pop()` hands cells out in input order;
    // each worker writes its result into the cell's input-order slot.
    let queue: Mutex<Vec<(usize, Cell<T>)>> =
        Mutex::new(cells.into_iter().enumerate().rev().collect());
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let next = queue.lock().unwrap().pop();
                let Some((index, cell)) = next else { break };
                let out = run_one(log, base + index, cell);
                results.lock().unwrap()[index] = Some(out);
            });
        }
    });
    results
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|r| r.expect("worker pool ran every cell"))
        .collect()
}

/// Runs one cell on the current thread, attributing the engine perf of the
/// simulation runs it performs.
fn run_one<T>(log: &PerfLog, index: usize, cell: Cell<T>) -> T {
    // Anything left over belongs to no cell (e.g. a direct run_experiment
    // call outside a sweep); discard so attribution stays per-cell.
    let _ = drain_run_perf();
    let out = cell();
    let runs = drain_run_perf();
    let perf = CellPerf {
        index,
        runs: runs.len(),
        events_processed: runs.iter().map(|r| r.events_processed).sum(),
        sim_wall: runs.iter().map(|r| r.wall).sum(),
    };
    log.cells().push(perf);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let cells: Vec<Cell<usize>> = (0usize..32)
            .map(|i| {
                Box::new(move || {
                    // Uneven cell cost: later cells finish before earlier
                    // ones unless ordering is enforced at collection.
                    std::thread::sleep(std::time::Duration::from_micros(
                        ((32 - i) % 7) as u64 * 100,
                    ));
                    i * 10
                }) as Cell<usize>
            })
            .collect();
        let out = run_cells_with(8, cells);
        assert_eq!(out, (0..32).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_matches_parallel() {
        let make = || -> Vec<Cell<u64>> {
            (0..16)
                .map(|i| Box::new(move || (i as u64).wrapping_mul(0x9E37)) as Cell<u64>)
                .collect()
        };
        assert_eq!(run_cells_with(1, make()), run_cells_with(8, make()));
    }

    #[test]
    fn empty_and_oversized_pools_are_fine() {
        let none: Vec<Cell<u8>> = Vec::new();
        assert!(run_cells_with(8, none).is_empty());
        let one: Vec<Cell<u8>> = vec![Box::new(|| 7)];
        assert_eq!(run_cells_with(64, one), vec![7]);
    }

    #[test]
    fn cell_indexes_are_unique_across_sweeps() {
        // A private log: other tests' sweeps run concurrently on the global.
        let log = PerfLog::new();
        let cells = |n: usize| (0..n).map(|_| Box::new(|| ()) as Cell<()>).collect();
        run_logged(&log, 2, cells(3));
        run_logged(&log, 1, cells(4));
        let indexes: Vec<usize> = log.take().iter().map(|p| p.index).collect();
        assert_eq!(indexes, (0..7).collect::<Vec<_>>());
        // The next figure numbers from zero again.
        run_logged(&log, 2, cells(2));
        let indexes: Vec<usize> = log.take().iter().map(|p| p.index).collect();
        assert_eq!(indexes, vec![0, 1]);
    }

    #[test]
    fn jobs_default_is_host_parallelism() {
        set_jobs(0);
        assert!(jobs() >= 1);
        set_jobs(3);
        assert_eq!(jobs(), 3);
        set_jobs(0);
    }
}
