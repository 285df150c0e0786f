//! The persistent thread team: every fan-out in the workspace is a hand-off
//! to threads that already exist.
//!
//! One team per process, created on first use with one worker per hardware
//! thread beyond the caller's ([`size`] asks the standard library for the
//! host's parallelism exactly once — the call re-parses the cgroup limits,
//! ≈ 12 µs on the reference host). [`run`] is the only
//! primitive: `run(width, task)` calls `task(tid)` exactly once for every
//! `tid` in `0..width`, the caller taking `tid 0` and then, like every worker
//! it has rung, claiming further `tid`s until none is left, and returns when
//! all have finished. Three shapes sit on it — [`map`] (ordered indexed map),
//! [`chunks_for_each`] (round-robin chunk loop) and [`fold`] (ordered fold of
//! a map) — and every one hands a `tid` state that depends on `(tid, width)`
//! alone, never on which thread ran it, so results do not depend on
//! scheduling.
//!
//! **Width.** [`width`] is what a fan-out site should ask for: the entered
//! [`crate::budget::ComputeLease`]'s width, the whole team when no lease is
//! entered, and 1 on a thread that is already inside a parallel region. A
//! width-2 lease on an 8-core host therefore takes 2 threads.
//!
//! **The inline rule.** A width of 1, a call from inside a task (a team
//! worker, the caller's own share), a call from a thread that declared itself
//! a region of its own ([`pin_inline`]: a message-passing rank is one thread)
//! and a call that finds the team busy with another caller's job all run
//! every `tid` on the calling thread, in order. Same result by construction;
//! no queue, no nesting, no deadlock.
//!
//! **Waiting.** A worker polls its mailbox for 200 µs after its last job
//! and then parks; a hand-off to a polling worker costs ≈ 1 µs, against
//! 40–100 µs for spawning and joining a thread. A parked worker needs a futex
//! wake and, on a virtual machine, the wake-up of an idle vCPU (20 µs to 1 ms
//! on the reference host, by the hour) — which the caller does not wait for:
//! it waits only for workers that have *joined* the job, and runs itself
//! every `tid` that none of them has claimed. A hand-off therefore never
//! costs more than the wake call plus running the job inline, however late
//! the workers are.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// How long a worker (and a caller waiting for its workers) keeps polling
/// before it parks. A *time*, not an iteration count, and longer than the
/// longest serial stretch between two fan-outs of a step that has no time to
/// wait for a futex: the ≈ 10 µs between two panel columns of the blocked
/// reduction, and the 56–100 µs one-stage `eigh` at n = 32 between the `H`
/// and density fan-outs of a Si-8 step. A budget the size of that stretch
/// makes the worker alternate between polling and parking. Measured on the
/// 2-vCPU reference host while a caller still waited for every worker it had
/// rung (≈ 110 µs a hand-off to an alternating worker, worse than the
/// 40–100 µs spawn it replaced), `si8-serve-mix` jobs/s (parent 21.9 the same
/// hour): 50 µs 17.4–18.5, 100 µs 18.5–31.9, 150 µs 26.0, 200 µs 24.9–33.5,
/// 300 µs 27.1, 400 µs 29.3–33.5, 1 ms 27.0 — flat from 200 µs up, which is
/// 1/700 of a Si-216 step polled away after its last fan-out. Since `tid`s
/// are claimed (see [`Team::run`]) a worker that parked too early costs its
/// share of the parallelism and one wake call (≈ 25 µs), not a wait: when the
/// host slows by half and the same stretch reaches 200 µs, the step runs at
/// serial speed instead of 1 ms late (waits summed over a 1 s round of
/// `si8-serve-mix`: 3–160 ms before, 1–4 ms now).
const SPIN: Duration = Duration::from_micros(200);

/// Block until `ready()`: poll for [`SPIN`], then park between polls (a
/// stale unpark token only costs one more poll). The poll is `yield_now`, not
/// `spin_loop`: when the host has fewer free cores than the team has threads
/// (a loaded 2-vCPU runner, `cargo test`'s thread per test) the thread being
/// waited for may need this very core, and a hand-off must then cost a
/// context switch, not [`SPIN`]. With a core to itself the call returns at
/// once; a hand-off to a polling worker reads 0.8 µs either way.
fn wait_until(ready: impl Fn() -> bool) {
    let deadline = Instant::now() + SPIN;
    while !ready() {
        if Instant::now() < deadline {
            std::thread::yield_now();
        } else {
            std::thread::park();
        }
    }
}

thread_local! {
    /// Set while the thread is inside a parallel region: for a team worker
    /// and a [`pin_inline`] thread always, for a caller while it runs its own
    /// share of a job.
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
}

type Task<'a> = dyn Fn(usize) + Sync + 'a;
type Payload = Box<dyn Any + Send>;

/// The job the team is running: `task(tid)` for every `tid` in `0..width`.
#[derive(Clone)]
struct Job {
    task: &'static Task<'static>,
    width: usize,
    caller: Thread,
}

/// One worker's doorbell, on a cache line of its own so that ringing one
/// worker does not disturb another's polling.
#[repr(align(64))]
struct Mailbox {
    /// Number of the last job handed to this worker.
    posted: AtomicUsize,
}

struct Shared {
    mail: Vec<Mailbox>,
    /// The open job; `None` between jobs, so the erased borrow never
    /// outlives the `run` that lent it. A worker joins a job — counts itself
    /// into `busy` — only while it holds this lock and finds a job here; the
    /// caller closes the job under the same lock.
    job: Mutex<Option<Job>>,
    /// The lowest `tid` of the open job that nobody has claimed yet.
    next: AtomicUsize,
    /// Workers that have joined the current job and not yet left it. A
    /// worker's decrement (release) is its last access to the job; the
    /// caller's load (acquire) of zero after it closed the job is what lets
    /// `run` return.
    busy: AtomicUsize,
    /// The first panic of the current job, the caller's share included.
    panic: Mutex<Option<Payload>>,
    shutdown: AtomicBool,
}

impl Shared {
    /// Claim and run `tid`s of `job` until none is left. A panicking `tid`
    /// is recorded and the claiming goes on.
    fn drain(&self, job: &Job) {
        loop {
            // Relaxed: the read-modify-write alone makes a claim unique; the
            // job's data travel through the slot's lock and `busy`.
            let tid = self.next.fetch_add(1, Ordering::Relaxed);
            if tid >= job.width {
                return;
            }
            self.run_one(job, tid);
        }
    }

    fn run_one(&self, job: &Job, tid: usize) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (job.task)(tid))) {
            self.panic
                .lock()
                .expect("held only to move a payload")
                .get_or_insert(payload);
        }
    }
}

/// A fixed set of worker threads that run one job at a time. The
/// process-wide instance is behind the free functions of this module; a
/// private one ([`Team::new`]) is for tests, which must depend neither on
/// the process-wide team nor on the runner's core count.
pub struct Team {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Held by a caller for the whole of its job; the value numbers the jobs.
    gate: Mutex<usize>,
}

fn worker_loop(shared: &Shared, me: usize) {
    IN_REGION.set(true);
    let mut seen = 0;
    loop {
        // Acquire pairs with the caller's release store in `Team::run`.
        let posted = &shared.mail[me].posted;
        wait_until(|| posted.load(Ordering::Acquire) != seen);
        seen = posted.load(Ordering::Acquire);
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Join whatever job is open now: the one this worker was rung for,
        // a later one if it was slow to wake, none if the caller has already
        // run every `tid` itself.
        let joined = {
            let slot = shared.job.lock().expect("held only to copy the job");
            slot.as_ref().map(|job| {
                shared.busy.fetch_add(1, Ordering::Relaxed);
                job.clone()
            })
        };
        let Some(job) = joined else { continue };
        shared.drain(&job);
        // The last use of the job's borrow is behind us; only the caller's
        // handle crosses the decrement.
        let caller = job.caller;
        if shared.busy.fetch_sub(1, Ordering::AcqRel) == 1 {
            caller.unpark();
        }
    }
}

impl Team {
    /// A team of `workers` threads beside the caller.
    pub fn new(workers: usize) -> Team {
        let shared = Arc::new(Shared {
            mail: (0..workers)
                .map(|_| Mailbox {
                    posted: AtomicUsize::new(0),
                })
                .collect(),
            job: Mutex::new(None),
            next: AtomicUsize::new(0),
            busy: AtomicUsize::new(0),
            panic: Mutex::new(None),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..workers)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tbmd-team-{}", me + 1))
                    .spawn(move || worker_loop(&shared, me))
                    .expect("spawn a team worker")
            })
            .collect();
        Team {
            shared,
            workers,
            gate: Mutex::new(0),
        }
    }

    /// Threads a job can run on: the workers and the caller.
    pub fn size(&self) -> usize {
        self.workers.len() + 1
    }

    /// Call `task(tid)` exactly once for every `tid` in `0..width` and return
    /// when all calls have returned. The caller runs `tid 0`; every further
    /// `tid` goes to whichever of the caller and the workers it has rung
    /// claims it first, so a worker that is slow to arrive (parked, or its
    /// vCPU descheduled) costs the caller the work it would have done and
    /// no wait. Runs everything inline under the module's inline rule. If a
    /// task panics, every other `tid` still runs to its end, then the first
    /// payload is re-raised on the caller; the team stays usable.
    pub fn run(&self, width: usize, task: &Task<'_>) {
        let crew = width.min(self.size());
        // `try_lock` fails when another caller holds the team (a caller
        // further up this thread's own stack is already `IN_REGION`).
        let gate = (crew > 1 && !IN_REGION.get()).then(|| self.gate.try_lock().ok());
        let Some(mut gate) = gate.flatten() else {
            return (0..width).for_each(task);
        };
        *gate += 1;
        // SAFETY: the `'static` is a lie told to the job slot, and it is
        // retracted before this function returns *or unwinds*: workers reach
        // `task` only through the slot, and only a worker that found the job
        // there and counted itself into `busy` under the slot's lock holds a
        // copy, which it drops before its release decrement of `busy`; below,
        // every `tid` the caller runs itself runs under `catch_unwind`, after
        // which it empties the slot under the same lock — from then on no
        // worker can join — and waits for `busy == 0` (acquire), on both
        // paths, before it returns or re-raises. No copy of the reference
        // survives that point.
        let task = unsafe { std::mem::transmute::<&Task<'_>, &'static Task<'static>>(task) };
        let job = Job {
            task,
            width,
            caller: std::thread::current(),
        };
        let shared = &*self.shared;
        shared.next.store(1, Ordering::Relaxed);
        *shared.job.lock().expect("held only to store the job") = Some(job.clone());
        for (mailbox, worker) in shared.mail.iter().zip(&self.workers).take(crew - 1) {
            // Release pairs with the worker's acquire load of its mailbox;
            // the job itself travels through the slot's lock.
            mailbox.posted.store(*gate, Ordering::Release);
            worker.thread().unpark();
        }
        IN_REGION.set(true);
        shared.run_one(&job, 0);
        shared.drain(&job);
        IN_REGION.set(false);
        *shared.job.lock().expect("held only to clear the job") = None;
        wait_until(|| shared.busy.load(Ordering::Acquire) == 0);
        let first = shared
            .panic
            .lock()
            .expect("held only to move a payload")
            .take();
        drop(gate);
        if let Some(payload) = first {
            resume_unwind(payload);
        }
    }

    /// Ordered indexed map: element `i` of the result is `f(i)`. Each of
    /// `width` threads takes one contiguous block of `0..len`.
    pub fn map<U, F>(&self, width: usize, len: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        let width = width.min(len);
        if width <= 1 {
            return (0..len).map(f).collect();
        }
        let block = len.div_ceil(width);
        let parts: Vec<Mutex<Vec<U>>> = (0..width).map(|_| Mutex::new(Vec::new())).collect();
        self.run(width, &|tid| {
            let part = (tid * block..((tid + 1) * block).min(len))
                .map(&f)
                .collect();
            *parts[tid].lock().expect("one thread per part") = part;
        });
        let mut out = Vec::with_capacity(len);
        for part in parts {
            out.append(&mut part.into_inner().expect("one thread per part"));
        }
        out
    }

    /// `f(i, chunk)` for chunk `i` of `data.chunks_mut(chunk)`, each chunk
    /// exactly once, the chunks dealt round-robin over `width` threads: thread
    /// `t` takes chunks `t, t + width, …`, so rows of a triangle (SYRK, the
    /// rank-2k update) split evenly.
    ///
    /// # Panics
    /// Panics if `chunk` is zero.
    pub fn chunks_for_each<T, F>(&self, width: usize, data: &mut [T], chunk: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        self.for_each_dealt(width, data.chunks_mut(chunk), f);
    }

    /// [`Team::chunks_for_each`] over any items, e.g. row groups of
    /// different lengths: `f(i, item)` for item `i`, dealt round-robin.
    pub fn for_each_dealt<I, F>(&self, width: usize, items: impl ExactSizeIterator<Item = I>, f: F)
    where
        I: Send,
        F: Fn(usize, I) + Sync,
    {
        let width = width.min(items.len());
        if width <= 1 {
            return items.enumerate().for_each(|(i, c)| f(i, c));
        }
        let hands: Vec<_> = deal_round_robin(items, width)
            .into_iter()
            .map(Mutex::new)
            .collect();
        // A hand is drained where it runs but its buffer is freed here, by
        // the thread that allocated it: a small buffer freed on a worker
        // lands in that worker's allocator cache, where it stays in use as
        // far as the caller's heap can tell and can keep the heap from
        // shrinking when the large buffers around it are freed (+6 MB peak
        // RSS on a Si-216 run).
        self.run(width, &|tid| {
            let mut hand = hands[tid].lock().expect("one thread per hand");
            hand.drain(..).for_each(|(i, c)| f(i, c));
        });
    }

    /// Ordered fold of a map: `op(… op(op(init, f(0)), f(1)) …, f(len − 1))`,
    /// the `f(i)` computed on `width` threads and combined left to right on
    /// the caller, so the result does not depend on `width`.
    pub fn fold<U, A, F, Op>(&self, width: usize, len: usize, f: F, init: A, op: Op) -> A
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
        Op: FnMut(A, U) -> A,
    {
        self.map(width, len, f).into_iter().fold(init, op)
    }
}

impl Drop for Team {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for (mailbox, worker) in self.shared.mail.iter().zip(&self.workers) {
            mailbox.posted.fetch_add(1, Ordering::Release);
            worker.thread().unpark();
        }
        for worker in self.workers.drain(..) {
            // A worker catches its tasks' panics, so it cannot have died of
            // one; nothing to report from a destructor either way.
            let _ = worker.join();
        }
    }
}

/// Deal `items` round-robin into `nt` hands: hand `t` holds items
/// `t, t + nt, t + 2·nt, …`, each with its index. When the cost of an item
/// grows with its index (rows of a triangle: SYRK, the rank-2k update),
/// contiguous blocks would give the last hand most of the work; round-robin
/// hands differ by at most one item's cost per round. Each hand is allocated
/// once at its final size: a fan-out per panel of a reduction that grew its
/// hands by doubling left freed blocks of every size under the solver's
/// `n × k` buffers, which then could not grow in place (+3 MB peak RSS on a
/// 20 MB run).
fn deal_round_robin<I>(items: impl ExactSizeIterator<Item = I>, nt: usize) -> Vec<Vec<(usize, I)>> {
    let per_hand = items.len().div_ceil(nt);
    let mut hands: Vec<Vec<(usize, I)>> = (0..nt).map(|_| Vec::with_capacity(per_hand)).collect();
    for (i, item) in items.enumerate() {
        hands[i % nt].push((i, item));
    }
    hands
}

fn global() -> &'static Team {
    static TEAM: OnceLock<Team> = OnceLock::new();
    TEAM.get_or_init(|| {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Team::new(threads - 1)
    })
}

/// Threads of the process-wide team, the caller included: the host's
/// available parallelism, read once.
pub fn size() -> usize {
    global().size()
}

/// The width a fan-out on the calling thread should ask for: 1 inside a
/// parallel region, else the entered lease's width, else [`size`].
pub fn width() -> usize {
    if IN_REGION.get() {
        return 1;
    }
    match crate::budget::effective_width() {
        0 => size(),
        leased => leased,
    }
}

/// Whether the calling thread is inside a parallel region, where every
/// [`run`] runs inline.
pub(crate) fn in_region() -> bool {
    IN_REGION.get()
}

/// Declare the calling thread a parallel region of its own for the rest of
/// its life: every [`run`] it reaches runs inline and [`width`] is 1. A
/// message-passing rank calls this first thing — P ranks are P threads.
pub fn pin_inline() {
    IN_REGION.set(true);
}

/// [`Team::run`] on the process-wide team.
pub fn run(width: usize, task: &(dyn Fn(usize) + Sync)) {
    global().run(width, task);
}

/// [`Team::map`] on the process-wide team.
pub fn map<U, F>(width: usize, len: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    global().map(width, len, f)
}

/// [`Team::chunks_for_each`] on the process-wide team.
pub fn chunks_for_each<T, F>(width: usize, data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    global().chunks_for_each(width, data, chunk, f);
}

/// [`Team::for_each_dealt`] on the process-wide team.
pub fn for_each_dealt<I, F>(width: usize, items: impl ExactSizeIterator<Item = I>, f: F)
where
    I: Send,
    F: Fn(usize, I) + Sync,
{
    global().for_each_dealt(width, items, f);
}

/// [`Team::fold`] on the process-wide team.
pub fn fold<U, A, F, Op>(width: usize, len: usize, f: F, init: A, op: Op) -> A
where
    U: Send,
    F: Fn(usize) -> U + Sync,
    Op: FnMut(A, U) -> A,
{
    global().fold(width, len, f, init, op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    /// Indices every `run(width, …)` visited, as per-tid counts.
    fn visits(team: &Team, width: usize) -> Vec<usize> {
        let seen: Vec<AtomicUsize> = (0..width).map(|_| AtomicUsize::new(0)).collect();
        team.run(width, &|tid| {
            seen[tid].fetch_add(1, Ordering::SeqCst);
        });
        seen.into_iter().map(AtomicUsize::into_inner).collect()
    }

    #[test]
    fn run_calls_every_tid_exactly_once() {
        // Narrower than, as wide as and wider than the team; no workers at
        // all (a 1-core runner's process-wide team).
        for workers in [0usize, 1, 3] {
            let team = Team::new(workers);
            for width in [0usize, 1, 2, 4, 7] {
                assert_eq!(
                    visits(&team, width),
                    vec![1; width],
                    "{workers} workers, width {width}"
                );
            }
        }
    }

    #[test]
    fn map_lands_every_index_in_order() {
        // len < width, len = width, ragged tails, len = 0.
        let team = Team::new(3);
        for (len, width) in [(3usize, 8usize), (4, 4), (11, 4), (1000, 3), (1, 2), (0, 4)] {
            let out = team.map(width, len, |i| 2 * i);
            let expect: Vec<usize> = (0..len).map(|i| 2 * i).collect();
            assert_eq!(out, expect, "len={len} width={width}");
        }
    }

    #[test]
    fn fold_combines_left_to_right_at_every_width() {
        let team = Team::new(2);
        let digits = |width| {
            team.fold(
                width,
                9,
                |i| i + 1,
                String::new(),
                |acc, d| format!("{acc}{d}"),
            )
        };
        for width in [1usize, 2, 3, 16] {
            assert_eq!(digits(width), "123456789", "width={width}");
        }
    }

    #[test]
    fn round_robin_deals_every_index_exactly_once() {
        // Fewer items than hands, a ragged last round, a single item, and
        // an even deal.
        for (total, nt) in [(3usize, 8usize), (11, 4), (1, 2), (1, 1), (12, 3), (0, 2)] {
            let hands = deal_round_robin(0..total, nt);
            assert_eq!(hands.len(), nt);
            let mut seen = vec![0usize; total];
            for (t, hand) in hands.iter().enumerate() {
                for (round, &(i, item)) in hand.iter().enumerate() {
                    assert_eq!(i, item, "index travels with its item");
                    assert_eq!(i, t + round * nt, "hand {t} takes t, t + nt, …");
                    seen[i] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "total={total} nt={nt}");
        }
    }

    #[test]
    fn chunks_for_each_visits_each_chunk_once_with_its_own_index() {
        // One chunk, fewer chunks than threads, a ragged tail chunk, an
        // empty slice — serial and on the team.
        let team = Team::new(3);
        for width in [1usize, 2, 4] {
            for (len, size) in [(5usize, 8usize), (7, 7), (103, 10), (64, 1), (0, 3)] {
                let mut data = vec![usize::MAX; len];
                team.chunks_for_each(width, &mut data, size, |i, chunk| {
                    for x in chunk.iter_mut() {
                        assert_eq!(*x, usize::MAX, "chunk visited twice");
                        *x = i;
                    }
                });
                for (pos, &i) in data.iter().enumerate() {
                    assert_eq!(i, pos / size, "len={len} size={size} width={width}");
                }
            }
        }
    }

    #[test]
    fn nested_run_completes_inline() {
        let team = Team::new(2);
        let inner_widths = Mutex::new(Vec::new());
        let out = team.map(3, 6, |i| {
            // Inside a task the team is taken: the inner map runs on this
            // thread, and asks for one thread to begin with.
            inner_widths.lock().unwrap().push(width());
            team.map(3, 4, |j| 10 * i + j).into_iter().sum::<usize>()
        });
        assert_eq!(out, (0..6).map(|i| 40 * i + 6).collect::<Vec<_>>());
        assert_eq!(inner_widths.into_inner().unwrap(), vec![1; 6]);
    }

    #[test]
    fn two_callers_on_one_team_both_complete() {
        // Both callers are inside `run` at the same time (the barrier sits
        // in tid 0, which the caller itself runs): one holds the team, the
        // other finds it taken and runs inline.
        let team = Arc::new(Team::new(2));
        let both_inside = Arc::new(Barrier::new(2));
        let callers: Vec<_> = (0..2)
            .map(|_| {
                let (team, both_inside) = (Arc::clone(&team), Arc::clone(&both_inside));
                std::thread::spawn(move || {
                    team.map(3, 300, |i| {
                        if i == 0 {
                            both_inside.wait();
                        }
                        i * i
                    })
                })
            })
            .collect();
        let expect: Vec<usize> = (0..300).map(|i| i * i).collect();
        for caller in callers {
            assert_eq!(caller.join().expect("caller"), expect);
        }
    }

    #[test]
    fn a_task_panic_reaches_the_caller_with_its_message_and_the_team_survives() {
        let team = Team::new(2);
        // From a worker's share (tid 1) and from the caller's own (tid 0).
        for bad in [1usize, 0] {
            let done = AtomicUsize::new(0);
            let payload = catch_unwind(AssertUnwindSafe(|| {
                team.run(3, &|tid| {
                    if tid == bad {
                        panic!("tid {tid} gave up");
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                })
            }))
            .expect_err("the panic must propagate");
            let message = payload.downcast_ref::<String>().expect("a formatted panic");
            assert_eq!(*message, format!("tid {bad} gave up"));
            assert_eq!(done.into_inner(), 2, "the other tids ran to their end");
            assert_eq!(visits(&team, 3), vec![1; 3], "usable after a panic");
        }
    }

    #[test]
    fn width_one_never_wakes_a_worker() {
        let team = Team::new(2);
        assert_eq!(visits(&team, 1), vec![1]);
        assert_eq!(team.map(1, 5, |i| i), vec![0, 1, 2, 3, 4]);
        assert_eq!(*team.gate.lock().unwrap(), 0, "no job was posted");
        for mailbox in &team.shared.mail {
            assert_eq!(mailbox.posted.load(Ordering::SeqCst), 0);
        }
        // And a width-2 job rings exactly one of the two.
        assert_eq!(visits(&team, 2), vec![1; 2]);
        let rung: Vec<usize> = team
            .shared
            .mail
            .iter()
            .map(|m| m.posted.load(Ordering::SeqCst))
            .collect();
        assert_eq!(rung, vec![1, 0]);
    }

    #[test]
    fn a_parked_team_still_completes() {
        let team = Team::new(2);
        assert_eq!(visits(&team, 3), vec![1; 3]);
        std::thread::sleep(20 * SPIN);
        assert_eq!(visits(&team, 3), vec![1; 3]);
    }

    #[test]
    fn late_workers_cost_no_tid_and_the_caller_keeps_tid_zero() {
        // Back to back and across the park boundary, so that workers arrive
        // early, late (joining a later job than the one they were rung for)
        // and not at all: every tid still runs exactly once, tid 0 on the
        // caller.
        let team = Team::new(2);
        let me = std::thread::current().id();
        for round in 0..2000 {
            if round % 500 == 499 {
                std::thread::sleep(2 * SPIN);
            }
            let width = 1 + round % 5;
            let seen: Vec<AtomicUsize> = (0..width).map(|_| AtomicUsize::new(0)).collect();
            team.run(width, &|tid| {
                assert!(tid != 0 || std::thread::current().id() == me);
                seen[tid].fetch_add(1, Ordering::SeqCst);
            });
            assert!(seen.iter().all(|c| c.load(Ordering::SeqCst) == 1));
        }
    }

    #[test]
    fn tasks_run_on_named_workers_and_drop_joins_them() {
        let team = Team::new(2);
        let names = Mutex::new(Vec::new());
        let arrived = Barrier::new(3);
        team.run(3, &|tid| {
            // All three tids are in flight at once: three distinct threads.
            arrived.wait();
            let name = std::thread::current().name().map(str::to_owned);
            names.lock().unwrap().push((tid, name));
        });
        // The caller took tid 0; the other two went to one worker each,
        // whichever claimed first.
        let mut names = names.into_inner().unwrap();
        names.sort();
        assert_eq!(names[0].1.as_deref(), std::thread::current().name());
        let mut workers = [names[1].1.as_deref(), names[2].1.as_deref()];
        workers.sort();
        assert_eq!(workers, [Some("tbmd-team-1"), Some("tbmd-team-2")]);
        let shared = Arc::clone(&team.shared);
        drop(team);
        assert_eq!(Arc::strong_count(&shared), 1, "every worker has exited");
    }

    #[test]
    fn a_pinned_thread_runs_the_process_team_inline() {
        let caller = std::thread::spawn(|| {
            pin_inline();
            let here = std::thread::current().id();
            let width = width();
            let all_here = map(4, 8, |_| std::thread::current().id() == here);
            (width, all_here)
        });
        let (width, all_here) = caller.join().expect("pinned caller");
        assert_eq!(width, 1);
        assert_eq!(all_here, vec![true; 8]);
    }
}
