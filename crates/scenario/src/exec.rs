//! The deterministic multi-core execution plane: run independent jobs
//! across worker threads and merge their results in stable job order.
//!
//! # Why job-level parallelism
//!
//! A `World` is a pure function of `(shape, seed)` and is deliberately
//! `!Send` (`Rc`-backed frame buffers, single-threaded event loop).
//! Sharding one world across cores would put the event queue's total
//! order — the thing determinism hangs on — behind synchronization.
//! Sweeps and bench batteries, though, are *batches of independent
//! worlds*: the natural unit of parallelism is the job, not the frame.
//! Each worker constructs, runs and scores a whole world without its
//! `World` ever crossing a thread boundary; only the plain-data job
//! spec goes in and the plain-data result comes out (the
//! CloudflareST-style worker-fleet shape: fan measurement jobs out,
//! merge machine-readable results).
//!
//! # The determinism argument
//!
//! * job specs are `Send` plain data, results are `Send` plain data;
//! * every job's result depends only on its spec (worlds share nothing —
//!   no global RNG, no cross-world state);
//! * results land in a slot keyed by the job's index and are merged in
//!   index order after all workers join.
//!
//! Scheduling therefore cannot reorder, drop or duplicate anything: a
//! report assembled from an N-worker run is **byte-identical** to the
//! 1-worker run (`tests/scenario_exec.rs` asserts this across the
//! committed sweep, down to FNV trace digests).
//!
//! Workers may carry worker-local scratch state across jobs
//! ([`run_jobs_local`]) — the sweep runner hands each worker one
//! reusable [`netsim::World`] so consecutive scenarios amortize arena
//! and table allocations via `World::reset`.

use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Where one job's wall-clock time went, as seen by the pool.
///
/// Wall-clock values never enter byte-compared artifacts (reports, trace
/// JSON): the profile renders to stderr only, so timing jitter cannot
/// break the byte-identity guarantees of the result merge.
#[derive(Copy, Clone, Debug)]
pub struct JobProfile {
    /// Job index in spec order.
    pub id: usize,
    /// Worker that executed the job (0-based; 0 on the sequential path).
    pub worker: usize,
    /// Time between pool start and this job's dequeue.
    pub queue_wait_ns: u64,
    /// Time inside the job closure.
    pub run_ns: u64,
}

/// One worker's aggregate over a pool run.
#[derive(Copy, Clone, Debug, Default)]
pub struct WorkerProfile {
    /// Jobs executed.
    pub jobs: u64,
    /// Total time inside job closures.
    pub busy_ns: u64,
}

/// Pool self-profile: per-job timings **merged in job-id order** (so the
/// profile's shape is identical across `--jobs 1/2/4`; only the
/// wall-clock values differ) plus per-worker aggregates.
#[derive(Clone, Debug, Default)]
pub struct PoolProfile {
    /// Per-job timings, in job-id order.
    pub jobs: Vec<JobProfile>,
    /// Per-worker aggregates, indexed by worker id.
    pub workers: Vec<WorkerProfile>,
    /// Pool wall time, start to join.
    pub wall_ns: u64,
}

impl PoolProfile {
    /// Render a fixed-width utilization table (for stderr).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let wall_ms = self.wall_ns as f64 / 1e6;
        let busy_total: u64 = self.workers.iter().map(|w| w.busy_ns).sum();
        let _ = writeln!(
            out,
            "pool: {} jobs on {} workers, wall {:.1} ms, busy {:.1} ms ({:.0}% utilization)",
            self.jobs.len(),
            self.workers.len(),
            wall_ms,
            busy_total as f64 / 1e6,
            if self.wall_ns > 0 && !self.workers.is_empty() {
                100.0 * busy_total as f64 / (self.wall_ns as f64 * self.workers.len() as f64)
            } else {
                0.0
            },
        );
        let _ = writeln!(
            out,
            "  {:>6}  {:>6}  {:>10}  {:>6}",
            "worker", "jobs", "busy ms", "util"
        );
        for (i, w) in self.workers.iter().enumerate() {
            let util = if self.wall_ns > 0 {
                100.0 * w.busy_ns as f64 / self.wall_ns as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {i:>6}  {:>6}  {:>10.2}  {util:>5.0}%",
                w.jobs,
                w.busy_ns as f64 / 1e6,
            );
        }
        let mut slowest: Vec<&JobProfile> = self.jobs.iter().collect();
        slowest.sort_by(|a, b| b.run_ns.cmp(&a.run_ns).then(a.id.cmp(&b.id)));
        for j in slowest.iter().take(5) {
            let _ = writeln!(
                out,
                "  job {:>4}  worker {}  wait {:>8.2} ms  run {:>8.2} ms",
                j.id,
                j.worker,
                j.queue_wait_ns as f64 / 1e6,
                j.run_ns as f64 / 1e6,
            );
        }
        out
    }
}

/// The default worker count: what the OS reports as available
/// parallelism (1 when unknown).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parse a `--jobs` style argument: a positive integer, or `0`/`auto`
/// meaning [`default_jobs`].
pub fn parse_jobs(arg: &str) -> Option<usize> {
    if arg == "auto" {
        return Some(default_jobs());
    }
    match arg.parse::<usize>() {
        Ok(0) => Some(default_jobs()),
        Ok(n) => Some(n),
        Err(_) => None,
    }
}

/// Run every job in `specs` across up to `jobs` worker threads and
/// return the results **in spec order**, regardless of which worker ran
/// what when. `jobs <= 1` runs everything on the calling thread, in
/// order, with no thread machinery at all.
pub fn run_jobs<S, R>(specs: Vec<S>, jobs: usize, run: impl Fn(S) -> R + Sync) -> Vec<R>
where
    S: Send,
    R: Send,
{
    run_jobs_local(specs, jobs, || (), move |(), spec| run(spec))
}

/// [`run_jobs`] with worker-local state: each worker calls
/// `worker_state` once and threads the value through every job it
/// executes. The state never crosses threads, so it may be `!Send`
/// (this is how sweep workers each own a reusable `World`). The
/// sequential `jobs <= 1` path uses one state for the whole batch —
/// exactly what a one-worker pool would do.
pub fn run_jobs_local<S, R, W>(
    specs: Vec<S>,
    jobs: usize,
    worker_state: impl Fn() -> W + Sync,
    run: impl Fn(&mut W, S) -> R + Sync,
) -> Vec<R>
where
    S: Send,
    R: Send,
{
    run_jobs_local_profiled(specs, jobs, worker_state, run).0
}

/// [`run_jobs_local`] plus a [`PoolProfile`]: per-job queue-wait and run
/// times and per-worker utilization, merged in job-id order after the
/// join. Profiling is passive (two `Instant::now` reads per job) and
/// cannot affect results or their order.
pub fn run_jobs_local_profiled<S, R, W>(
    specs: Vec<S>,
    jobs: usize,
    worker_state: impl Fn() -> W + Sync,
    run: impl Fn(&mut W, S) -> R + Sync,
) -> (Vec<R>, PoolProfile)
where
    S: Send,
    R: Send,
{
    let n = specs.len();
    let pool_start = Instant::now();
    if jobs <= 1 || n <= 1 {
        let mut state = worker_state();
        let mut out = Vec::with_capacity(n);
        let mut profile = PoolProfile {
            workers: vec![WorkerProfile::default()],
            ..Default::default()
        };
        for (id, spec) in specs.into_iter().enumerate() {
            let dequeued = pool_start.elapsed();
            let t0 = Instant::now();
            out.push(run(&mut state, spec));
            let run_ns = t0.elapsed().as_nanos() as u64;
            profile.jobs.push(JobProfile {
                id,
                worker: 0,
                queue_wait_ns: dequeued.as_nanos() as u64,
                run_ns,
            });
            profile.workers[0].jobs += 1;
            profile.workers[0].busy_ns += run_ns;
        }
        profile.wall_ns = pool_start.elapsed().as_nanos() as u64;
        return (out, profile);
    }

    // Work-stealing-lite: one shared deque of `(job id, spec)`; idle
    // workers pop from the front. Results go into per-job slots so the
    // merge below is a plain in-order unwrap.
    //
    // A panicking job poisons whichever mutex it held; sibling workers
    // recover the guard with `PoisonError::into_inner` (the queue and
    // slots hold plain data that is never left half-updated across an
    // unwind) and keep draining. The handles are joined explicitly so
    // the *first* panic's real payload is resumed on the caller —
    // letting `thread::scope` do the join would replace it with an
    // opaque "a scoped thread panicked".
    let queue: Mutex<VecDeque<(usize, S)>> = Mutex::new(specs.into_iter().enumerate().collect());
    let results: Vec<Mutex<Option<(R, JobProfile)>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let workers = jobs.min(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                // `move` carries only the Copy bits (worker id, the pool
                // start instant); the shared structures go in by
                // reference.
                let (queue, results) = (&queue, &results);
                let (worker_state, run) = (&worker_state, &run);
                scope.spawn(move || {
                    let mut state = worker_state();
                    loop {
                        let job = queue
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .pop_front();
                        let Some((id, spec)) = job else { break };
                        let queue_wait_ns = pool_start.elapsed().as_nanos() as u64;
                        let t0 = Instant::now();
                        let result = run(&mut state, spec);
                        let prof = JobProfile {
                            id,
                            worker,
                            queue_wait_ns,
                            run_ns: t0.elapsed().as_nanos() as u64,
                        };
                        *results[id].lock().unwrap_or_else(PoisonError::into_inner) =
                            Some((result, prof));
                    }
                })
            })
            .collect();
        let mut first_panic = None;
        for handle in handles {
            if let Err(payload) = handle.join() {
                first_panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
    });
    let mut profile = PoolProfile {
        workers: vec![WorkerProfile::default(); workers],
        ..Default::default()
    };
    let out = results
        .into_iter()
        .map(|slot| {
            let (result, prof) = slot
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("pool joined with an unfinished job");
            profile.jobs.push(prof);
            profile.workers[prof.worker].jobs += 1;
            profile.workers[prof.worker].busy_ns += prof.run_ns;
            result
        })
        .collect();
    profile.wall_ns = pool_start.elapsed().as_nanos() as u64;
    (out, profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_spec_order() {
        for jobs in [1, 2, 4, 7] {
            let specs: Vec<u64> = (0..25).collect();
            let out = run_jobs(specs.clone(), jobs, |x| x * 3 + 1);
            let expect: Vec<u64> = specs.iter().map(|x| x * 3 + 1).collect();
            assert_eq!(out, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let ran = AtomicUsize::new(0);
        let out = run_jobs((0..100usize).collect(), 4, |x| {
            ran.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(ran.load(Ordering::Relaxed), 100);
        assert_eq!(out, (0..100usize).collect::<Vec<_>>());
    }

    #[test]
    fn worker_state_is_reused_not_shared() {
        // Each worker's state counts the jobs it ran; the total across
        // workers must equal the job count (no job lost or duplicated),
        // and with one worker a single state sees every job.
        let total = AtomicUsize::new(0);
        struct Local<'a> {
            mine: usize,
            total: &'a AtomicUsize,
        }
        impl Drop for Local<'_> {
            fn drop(&mut self) {
                self.total.fetch_add(self.mine, Ordering::Relaxed);
            }
        }
        let out = run_jobs_local(
            (0..40usize).collect(),
            3,
            || Local {
                mine: 0,
                total: &total,
            },
            |state, x| {
                state.mine += 1;
                x
            },
        );
        assert_eq!(out.len(), 40);
        assert_eq!(total.load(Ordering::Relaxed), 40);
    }

    #[test]
    fn empty_and_oversubscribed_batches_work() {
        assert_eq!(run_jobs(Vec::<u8>::new(), 4, |x| x), Vec::<u8>::new());
        assert_eq!(run_jobs(vec![9u8], 16, |x| x + 1), vec![10]);
    }

    #[test]
    fn panicking_job_propagates_its_own_payload() {
        // Before the poison fix, the panicking job poisoned the shared
        // queue mutex and sibling workers died on "job queue poisoned"
        // — a cascade that masked the original panic. The pool must
        // surface the real payload.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_jobs((0..20usize).collect(), 4, |x| {
                if x == 7 {
                    panic!("job 7 exploded");
                }
                x
            })
        }));
        let payload = caught.expect_err("the pool must propagate the panic");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            msg.contains("job 7 exploded"),
            "expected the original payload, got {msg:?}"
        );
    }

    #[test]
    fn surviving_workers_drain_the_queue_after_a_panic() {
        // The queue mutex is poisoned mid-drain; remaining jobs must
        // still run (recovered guards), observable via the counter.
        let ran = AtomicUsize::new(0);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_jobs((0..50usize).collect(), 2, |x| {
                ran.fetch_add(1, Ordering::Relaxed);
                if x == 0 {
                    panic!("first job dies");
                }
                x
            })
        }));
        // 49 survivors + the panicking job itself reached the closure.
        assert_eq!(ran.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn pool_profile_merges_in_job_order_for_any_worker_count() {
        for jobs in [1, 2, 4] {
            let (out, profile) =
                run_jobs_local_profiled((0..20usize).collect(), jobs, || (), |(), x| x * 2);
            assert_eq!(out, (0..20usize).map(|x| x * 2).collect::<Vec<_>>());
            let ids: Vec<usize> = profile.jobs.iter().map(|j| j.id).collect();
            assert_eq!(ids, (0..20).collect::<Vec<_>>(), "jobs={jobs}");
            assert_eq!(profile.workers.len(), jobs.max(1), "jobs={jobs}");
            let ran: u64 = profile.workers.iter().map(|w| w.jobs).sum();
            assert_eq!(ran, 20);
            for j in &profile.jobs {
                assert!(j.worker < profile.workers.len());
            }
            assert!(profile.render().starts_with("pool: 20 jobs"));
        }
    }

    #[test]
    fn parse_jobs_accepts_auto_and_rejects_junk() {
        assert_eq!(parse_jobs("3"), Some(3));
        assert_eq!(parse_jobs("auto"), Some(default_jobs()));
        assert_eq!(parse_jobs("0"), Some(default_jobs()));
        assert_eq!(parse_jobs("many"), None);
        assert!(default_jobs() >= 1);
    }
}
