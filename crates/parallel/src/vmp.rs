//! `Vmp` — a virtual message-passing machine.
//!
//! This is the hardware substitution documented in DESIGN.md: we do not have
//! a 1994 distributed-memory MPP, so we run the *same message-passing
//! algorithms* on OS threads connected by channels, with every send counted
//! (messages and bytes, per rank). The measured traffic is fed to the era
//! cost models in [`crate::cost_model`] to produce Delta/Paragon/CM-5-class
//! time estimates — the communication *pattern* is the algorithm's property
//! and is reproduced exactly; only the wire is simulated.
//!
//! Semantics follow early-MPI practice: ranked processes, blocking matched
//! `send`/`recv` with tags, and collectives (broadcast, reduce, allreduce,
//! allgather) built from point-to-point messages so that collective traffic
//! is accounted at the same level the 1994 codes paid for it.
//!
//! A launch is a [`std::thread::scope`] with one thread per rank and one
//! [`std::sync::mpsc`] channel into each rank; it cannot return while any
//! of its ranks is still alive.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

/// Shared cancellation flag of one launch: set by the first rank that
/// detects a failure (receive timeout, hung-up peer, or its own unwinding)
/// and observed by every blocked receive and every injected stall, so the
/// surviving ranks drain within one polling tick instead of each waiting
/// out its own full window.
#[derive(Debug, Clone, Default)]
struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Latch the token; idempotent.
    fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Held by each rank thread for its whole lifetime: if the rank unwinds for
/// any reason — including a panic in user code that never reaches a typed
/// failure site — it latches the launch's cancellation token so the
/// survivors drain.
struct CancelOnUnwind(CancelToken);

impl Drop for CancelOnUnwind {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.cancel();
        }
    }
}

/// Polling tick for cancellation checks while blocked in a receive: small
/// enough that survivors drain promptly after a peer failure, large enough
/// that idle wakeups stay negligible.
const CANCEL_POLL: Duration = Duration::from_millis(20);
/// Tick between cancellation checks inside an injected stall.
const STALL_POLL: Duration = Duration::from_millis(10);

/// One message on the virtual wire.
#[derive(Debug, Clone)]
struct Message {
    from: usize,
    tag: u64,
    payload: Vec<f64>,
}

/// How an injected fault manifests on the chosen rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The rank dies at the start of the run (its thread unwinds
    /// immediately, mid-collective from its peers' point of view).
    Kill,
    /// The rank freezes for `ms` milliseconds before proceeding — long
    /// enough, relative to the configured receive timeout, that its peers'
    /// message windows expire first.
    Stall { ms: u64 },
}

/// A scheduled rank failure: kill or stall `rank` at the `at_evaluation`-th
/// engine evaluation (1-based; evaluation 1 is the warm-up forces of
/// `MdState::new`, evaluation `s + 1` is MD step `s`). The distributed
/// engines arm at most one plan and fire it exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    pub rank: usize,
    pub at_evaluation: u64,
    pub kind: FaultKind,
}

/// One fault to inject into a single launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct VmpFault {
    pub rank: usize,
    pub kind: FaultKind,
}

/// Failure-detection window and fault injection of one [`vmp_run_opts`]
/// launch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VmpOptions {
    /// A blocking receive that sees no message within this window panics
    /// (with a typed payload the driver converts into [`VmpError`]) instead
    /// of hanging the collective.
    pub recv_timeout: Duration,
    /// Inject this fault into the launch.
    pub fault: Option<VmpFault>,
}

/// Receive window of a launch with an injected fault: long enough for real
/// Si-scale collectives between healthy ranks, short enough that tests
/// detect the dead rank quickly.
pub const DEFAULT_FAULT_RECV_TIMEOUT: Duration = Duration::from_millis(500);

/// Size-scaled failure-detection window of a launch without an injected
/// fault: a 2 s floor covering scheduler hiccups plus a term proportional
/// to the worst-case compute skew between ranks, capped at 10 min. The skew
/// term scales as the replicated O(n³) dense work times the rank count,
/// because the virtual ranks time-share physical cores and the slowest rank
/// may run an entire evaluation's compute after its peers posted their
/// receives. Since any arriving message restarts a rank's window, the
/// window only has to outlast one compute+communication gap, not a whole
/// evaluation chain.
pub fn default_recv_timeout(n: usize, ranks: usize) -> Duration {
    const FLOOR: Duration = Duration::from_secs(2);
    // ~2 ns per dense flop of skew budget, times the oversubscription factor.
    let n = n as u64;
    let skew_ns = n
        .saturating_mul(n)
        .saturating_mul(n)
        .saturating_mul(ranks.max(1) as u64)
        .saturating_mul(2)
        .min(600_000_000_000); // cap at 10 min
    FLOOR + Duration::from_nanos(skew_ns)
}

/// Typed panic payload raised inside a rank when it (or a peer) fails; the
/// driver downcasts these when classifying a failed launch.
#[derive(Debug, Clone)]
pub struct RankFault {
    pub rank: usize,
    pub detail: String,
    /// The rank this fault *blames*: the peer a receive timed out on, the
    /// rank itself for an injected or real death, `None` when the cause
    /// cannot be localised (disconnects, cancellation drains).
    pub culprit: Option<usize>,
}

/// A failed virtual-machine launch: every rank that unwound, with its cause.
#[derive(Debug)]
pub struct VmpError {
    pub faults: Vec<RankFault>,
}

impl VmpError {
    /// The distinct ranks actually *blamed* for the failure (deduplicated
    /// culprits), as opposed to every rank that unwound — peers that merely
    /// timed out or drained on cancellation are casualties, not causes.
    ///
    /// Self-blames (a rank that died or confessed a cancelled stall) are
    /// the strongest evidence and, when present, suppress peer-blames: in a
    /// near-simultaneous timeout cascade a healthy rank can wrongly blame
    /// another healthy rank that was itself stuck on the true culprit.
    /// Falls back to every faulted rank if no fault names a culprit at all.
    pub fn failed_ranks(&self) -> Vec<usize> {
        let self_blames: Vec<usize> = self
            .faults
            .iter()
            .filter(|f| f.culprit == Some(f.rank))
            .map(|f| f.rank)
            .collect();
        let mut ranks = if self_blames.is_empty() {
            self.faults.iter().filter_map(|f| f.culprit).collect()
        } else {
            self_blames
        };
        if ranks.is_empty() {
            ranks = self.faults.iter().map(|f| f.rank).collect();
        }
        ranks.sort_unstable();
        ranks.dedup();
        ranks
    }
}

impl std::fmt::Display for VmpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} rank(s) failed:", self.faults.len())?;
        for fault in &self.faults {
            write!(f, " [rank {}: {}]", fault.rank, fault.detail)?;
        }
        Ok(())
    }
}

impl std::error::Error for VmpError {}

fn rank_panic(rank: usize, detail: String, culprit: Option<usize>) -> ! {
    std::panic::panic_any(RankFault {
        rank,
        detail,
        culprit,
    })
}

/// Per-rank traffic counters (monotonic; read after the run).
#[derive(Debug, Default)]
pub struct RankCounters {
    messages_sent: AtomicU64,
    bytes_sent: AtomicU64,
    flops: AtomicU64,
}

/// A snapshot of one rank's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RankStats {
    /// Point-to-point messages sent (collectives decompose into these).
    pub messages_sent: u64,
    /// Payload bytes sent (8 bytes per `f64`).
    pub bytes_sent: u64,
    /// Floating-point operations attributed to this rank by the engines
    /// (analytic counts, see `cost_model`).
    pub flops: u64,
}

/// Aggregate statistics of a completed virtual-machine run.
#[derive(Debug, Clone, Default)]
pub struct VmpStats {
    /// Per-rank snapshots, indexed by rank id.
    pub ranks: Vec<RankStats>,
}

impl VmpStats {
    /// Total messages across all ranks.
    pub fn total_messages(&self) -> u64 {
        self.ranks.iter().map(|r| r.messages_sent).sum()
    }

    /// Total payload bytes across all ranks.
    pub fn total_bytes(&self) -> u64 {
        self.ranks.iter().map(|r| r.bytes_sent).sum()
    }

    /// Largest per-rank flop count — the critical-path compute load.
    pub fn max_flops(&self) -> u64 {
        self.ranks.iter().map(|r| r.flops).max().unwrap_or(0)
    }

    /// Largest per-rank message count.
    pub fn max_messages(&self) -> u64 {
        self.ranks
            .iter()
            .map(|r| r.messages_sent)
            .max()
            .unwrap_or(0)
    }

    /// Largest per-rank byte count.
    pub fn max_bytes(&self) -> u64 {
        self.ranks.iter().map(|r| r.bytes_sent).max().unwrap_or(0)
    }
}

/// A rank's handle onto the virtual machine. One per rank thread.
pub struct Rank {
    id: usize,
    size: usize,
    senders: Vec<Sender<Message>>,
    receiver: Receiver<Message>,
    /// Out-of-order messages parked until a matching recv.
    stash: VecDeque<Message>,
    counters: Arc<Vec<RankCounters>>,
    /// Failure-detection window for blocking receives.
    recv_timeout: Duration,
    /// Launch-wide cancellation flag; latched by the first failure.
    cancel: CancelToken,
}

impl Rank {
    /// Report a locally detected failure: latch the launch's cancellation
    /// token so every peer drains, then unwind with a typed fault.
    fn fail(&self, detail: String, culprit: Option<usize>) -> ! {
        self.cancel.cancel();
        rank_panic(self.id, detail, culprit)
    }

    /// Drain because some *other* rank already failed: unwind without
    /// blaming anyone (the detecting rank recorded the culprit).
    fn drain(&self, detail: String) -> ! {
        tbmd_trace::add(tbmd_trace::Counter::WorkerCancellations, 1);
        rank_panic(self.id, detail, None)
    }

    /// This rank's id in `0..size`.
    #[inline]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of ranks in the machine.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Attribute `flops` floating-point operations to this rank (analytic
    /// accounting used by the cost model).
    #[inline]
    pub fn count_flops(&self, flops: u64) {
        self.counters[self.id]
            .flops
            .fetch_add(flops, Ordering::Relaxed);
    }

    /// Blocking tagged send of an `f64` payload.
    pub fn send(&self, to: usize, tag: u64, payload: &[f64]) {
        assert!(to < self.size, "send to rank {to} out of range");
        assert_ne!(to, self.id, "self-sends are not modelled (copy locally)");
        let c = &self.counters[self.id];
        c.messages_sent.fetch_add(1, Ordering::Relaxed);
        c.bytes_sent
            .fetch_add(8 * payload.len() as u64, Ordering::Relaxed);
        if self.senders[to]
            .send(Message {
                from: self.id,
                tag,
                payload: payload.to_vec(),
            })
            .is_err()
        {
            self.fail(
                format!("send to rank {to} (tag {tag}) failed: peer rank hung up"),
                Some(to),
            );
        }
    }

    /// Blocking tagged receive from a specific source rank. A wait that
    /// outlasts the launch's failure-detection window unwinds with a typed
    /// [`RankFault`] instead of hanging the collective. The wait is chunked
    /// into short polling ticks so a launch-wide cancellation (a peer's
    /// detected failure) drains this rank within one tick.
    pub fn recv(&mut self, from: usize, tag: u64) -> Vec<f64> {
        // Check the stash for an already-arrived match.
        if let Some(pos) = self
            .stash
            .iter()
            .position(|m| m.from == from && m.tag == tag)
        {
            return self.stash.remove(pos).expect("position valid").payload;
        }
        let window = self.recv_timeout;
        let mut waited = Duration::ZERO;
        loop {
            if self.cancel.is_cancelled() {
                self.drain(format!(
                    "recv from rank {from} (tag {tag}) cancelled: peer failure detected, \
                     draining"
                ));
            }
            let tick = CANCEL_POLL
                .min(window.saturating_sub(waited))
                .max(Duration::from_millis(1));
            match self.receiver.recv_timeout(tick) {
                Ok(m) => {
                    if m.from == from && m.tag == tag {
                        return m.payload;
                    }
                    self.stash.push_back(m);
                    // Any arriving message restarts the failure-detection
                    // window.
                    waited = Duration::ZERO;
                }
                Err(RecvTimeoutError::Timeout) => {
                    waited += tick;
                    if waited >= window {
                        // If another rank already detected a failure, this
                        // expiry is a downstream casualty of that one —
                        // drain without issuing a second blame.
                        if self.cancel.is_cancelled() {
                            self.drain(format!(
                                "recv from rank {from} (tag {tag}) cancelled at window \
                                 expiry: peer failure already detected, draining"
                            ));
                        }
                        self.fail(
                            format!(
                                "recv from rank {from} (tag {tag}) timed out after \
                                 {window:?} (peer presumed dead)"
                            ),
                            Some(from),
                        );
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    self.fail(
                        format!("recv from rank {from} (tag {tag}) failed: all peers hung up"),
                        None,
                    );
                }
            }
        }
    }

    /// Broadcast `data` from `root` to every rank (binomial tree:
    /// ⌈log₂ P⌉ rounds, P − 1 messages total).
    pub fn broadcast(&mut self, root: usize, tag: u64, data: &mut Vec<f64>) {
        // Re-index so the root is virtual rank 0. In the binomial tree the
        // parent of virtual rank v > 0 is v with its lowest set bit cleared;
        // the children of v are v + m for every power of two m below v's
        // lowest set bit (below the tree size for the root).
        let vrank = (self.id + self.size - root) % self.size;
        if vrank != 0 {
            let b = lowest_set_bit_or_size(vrank, self.size);
            let parent = (vrank - b + root) % self.size;
            *data = self.recv(parent, tag);
        }
        let top = lowest_set_bit_or_size(vrank, self.size);
        let mut m = top >> 1;
        while m >= 1 {
            let child = vrank + m;
            if child < self.size {
                let dest = (child + root) % self.size;
                self.send(dest, tag, data);
            }
            m >>= 1;
        }
    }

    /// Wire bytes, summed over ranks, of one [`Rank::broadcast`] of `len`
    /// doubles over `p` ranks: the payload once over each of the tree's
    /// `p − 1` links.
    pub fn broadcast_bytes(len: usize, p: usize) -> u64 {
        8 * ((p - 1) * len) as u64
    }

    /// Element-wise sum-allreduce: binomial-tree reduce to rank 0
    /// (⌈log₂ P⌉ rounds, the mirror image of [`Rank::broadcast`]) followed
    /// by the binomial broadcast back. Every non-root rank still sends
    /// exactly one reduce message, but the root's P − 1 sequential receives
    /// of the linear gather collapse into at most ⌈log₂ P⌉, with the other
    /// partial sums formed concurrently down the tree.
    ///
    /// Reduction order is deterministic: rank `id` absorbs children
    /// `id + 1, id + 2, id + 4, …` in ascending order, so repeated runs sum
    /// in the same sequence bit-for-bit.
    pub fn allreduce_sum(&mut self, tag: u64, data: &mut Vec<f64>) {
        let top = lowest_set_bit_or_size(self.id, self.size);
        let mut m = 1;
        while m < top && self.id + m < self.size {
            let other = self.recv(self.id + m, tag);
            assert_eq!(other.len(), data.len(), "allreduce length mismatch");
            for (a, b) in data.iter_mut().zip(&other) {
                *a += b;
            }
            m <<= 1;
        }
        if self.id != 0 {
            // `top` is the lowest set bit of a non-zero id: the parent in
            // the binomial tree is the id with that bit cleared.
            self.send(self.id - top, tag, data);
        }
        self.broadcast(0, tag.wrapping_add(1), data);
    }

    /// Wire bytes, summed over ranks, of one [`Rank::allreduce_sum`] of `len`
    /// doubles over `p` ranks: up the reduce tree and back down the
    /// broadcast.
    pub fn allreduce_bytes(len: usize, p: usize) -> u64 {
        2 * Self::broadcast_bytes(len, p)
    }

    /// Gather variable-length chunks to `root`; returns all chunks in rank
    /// order on the root, `None` elsewhere.
    fn gather(&mut self, root: usize, tag: u64, chunk: &[f64]) -> Option<Vec<Vec<f64>>> {
        if self.id == root {
            let mut all: Vec<Vec<f64>> = vec![Vec::new(); self.size];
            all[root] = chunk.to_vec();
            for r in (0..self.size).filter(|&r| r != root) {
                let received = self.recv(r, tag);
                all[r] = received;
            }
            Some(all)
        } else {
            self.send(root, tag, chunk);
            None
        }
    }

    /// All ranks end up with every rank's chunk (gather + broadcast of the
    /// concatenation with a length header).
    pub fn allgather(&mut self, tag: u64, chunk: &[f64]) -> Vec<Vec<f64>> {
        let gathered = self.gather(0, tag, chunk);
        let mut flat: Vec<f64> = Vec::new();
        if let Some(parts) = &gathered {
            // Header: size lengths, then the concatenated payloads.
            flat.extend(parts.iter().map(|p| p.len() as f64));
            for p in parts {
                flat.extend_from_slice(p);
            }
        }
        self.broadcast(0, tag.wrapping_add(1), &mut flat);
        // Decode.
        let lens: Vec<usize> = flat[..self.size].iter().map(|&x| x as usize).collect();
        let mut out = Vec::with_capacity(self.size);
        let mut off = self.size;
        for len in lens {
            out.push(flat[off..off + len].to_vec());
            off += len;
        }
        out
    }

    /// Wire bytes, summed over ranks, of one [`Rank::allgather`] over `p`
    /// ranks of chunks totalling `total` doubles, `root_chunk` of them rank
    /// 0's own: the other chunks travel to rank 0, then the concatenation
    /// behind its `p`-word length header is broadcast.
    pub fn allgather_bytes(total: usize, root_chunk: usize, p: usize) -> u64 {
        8 * (total - root_chunk) as u64 + Self::broadcast_bytes(p + total, p)
    }
}

/// Lowest set bit of `v`, or `size.next_power_of_two()` for `v == 0`.
fn lowest_set_bit_or_size(v: usize, size: usize) -> usize {
    if v == 0 {
        size.next_power_of_two()
    } else {
        v & v.wrapping_neg()
    }
}

/// Run `f` on `n_ranks` virtual ranks (one OS thread each) and collect the
/// per-rank return values plus the traffic statistics. Every receive waits
/// at most the capped [`default_recv_timeout`]; panics if any rank fails.
pub fn vmp_run<T, F>(n_ranks: usize, f: F) -> (Vec<T>, VmpStats)
where
    T: Send,
    F: Fn(Rank) -> T + Sync,
{
    let opts = VmpOptions {
        recv_timeout: default_recv_timeout(usize::MAX, n_ranks),
        fault: None,
    };
    vmp_run_opts(&mut vec![(); n_ranks], opts, |rank, _| f(rank)).unwrap_or_else(|e| panic!("{e}"))
}

/// One rank per slot: rank `i` runs `f` with `&mut slots[i]`, under the
/// launch's failure-detection window and optional injected fault. A rank
/// that unwinds — killed by an injected fault, timed out waiting on a dead
/// peer, or victim of a real bug — is collected at join time and reported
/// as a typed [`VmpError`] instead of poisoning the whole process, so a
/// driver can recover (e.g. resume from a checkpoint).
pub(crate) fn vmp_run_opts<S, T, F>(
    slots: &mut [S],
    opts: VmpOptions,
    f: F,
) -> Result<(Vec<T>, VmpStats), VmpError>
where
    S: Send,
    T: Send,
    F: Fn(Rank, &mut S) -> T + Sync,
{
    let n_ranks = slots.len();
    assert!(n_ranks >= 1, "need at least one rank");
    if let Some(fault) = &opts.fault {
        assert!(
            fault.rank < n_ranks,
            "fault rank {} out of range for {n_ranks} ranks",
            fault.rank
        );
    }
    let counters: Arc<Vec<RankCounters>> =
        Arc::new((0..n_ranks).map(|_| RankCounters::default()).collect());
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..n_ranks).map(|_| mpsc::channel()).unzip();
    let cancel = CancelToken::default();
    // Rank threads re-enter the launching thread's scoped sinks, so whoever
    // is watching the launcher (a tenant's view, a test's own scope) also
    // sees what its ranks record. Empty, and free, when nobody is.
    let launcher_scopes = tbmd_trace::entered_scopes();
    let joined: Vec<std::thread::Result<T>> = std::thread::scope(|scope| {
        let handles: Vec<_> = slots
            .iter_mut()
            .zip(receivers)
            .enumerate()
            .map(|(id, (slot, receiver))| {
                let rank = Rank {
                    id,
                    size: n_ranks,
                    senders: senders.clone(),
                    receiver,
                    stash: VecDeque::new(),
                    counters: Arc::clone(&counters),
                    recv_timeout: opts.recv_timeout,
                    cancel: cancel.clone(),
                };
                let (f, launcher_scopes) = (&f, &launcher_scopes);
                scope.spawn(move || {
                    let _cancel_on_unwind = CancelOnUnwind(rank.cancel.clone());
                    // A rank is one thread: every team fan-out it reaches —
                    // rank-2k and back-transform included — runs inline, so
                    // P ranks on a width-P lease use P threads, not P × cores.
                    tbmd_linalg::team::pin_inline();
                    // Attribute everything this rank records (counters,
                    // phase spans) to the launcher's scopes and to the
                    // innermost one's view of this rank; nothing to enter
                    // when the launcher is not observed.
                    let _inherited: Vec<tbmd_trace::ScopeGuard> =
                        launcher_scopes.iter().map(|s| s.enter()).collect();
                    let _telemetry = launcher_scopes.last().map(|s| s.rank(id).enter());
                    if let Some(fault) = opts.fault.filter(|fault| fault.rank == id) {
                        inject(fault.kind, id, &rank.cancel);
                    }
                    f(rank, slot)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut results = Vec::with_capacity(n_ranks);
    let mut faults: Vec<RankFault> = Vec::new();
    for (id, joined) in joined.into_iter().enumerate() {
        match joined {
            Ok(value) => results.push(value),
            Err(payload) => faults.push(classify_panic(id, payload)),
        }
    }
    let stats = VmpStats {
        ranks: counters
            .iter()
            .map(|c| RankStats {
                messages_sent: c.messages_sent.load(Ordering::Relaxed),
                bytes_sent: c.bytes_sent.load(Ordering::Relaxed),
                flops: c.flops.load(Ordering::Relaxed),
            })
            .collect(),
    };
    // Every wire byte the virtual machine moved lands in the launcher's
    // scopes, and each rank's share in its rank view — also for failed
    // launches, where the traffic was still paid for.
    tbmd_trace::add(tbmd_trace::Counter::WireBytes, stats.total_bytes());
    tbmd_trace::add(tbmd_trace::Counter::WireMessages, stats.total_messages());
    if let Some(innermost) = launcher_scopes.last() {
        for (id, sent) in stats.ranks.iter().enumerate() {
            let view = innermost.rank(id);
            view.add(tbmd_trace::Counter::WireBytes, sent.bytes_sent);
            view.add(tbmd_trace::Counter::WireMessages, sent.messages_sent);
        }
    }
    if !faults.is_empty() {
        // Joined in rank order, so `faults` is sorted by rank already.
        let err = VmpError { faults };
        tbmd_trace::add(
            tbmd_trace::Counter::RankFailures,
            err.failed_ranks().len() as u64,
        );
        return Err(err);
    }
    Ok((results, stats))
}

/// Fire an injected fault on rank `id` before its closure runs: die at
/// once, or freeze — in short ticks, so a peer-side timeout reclaims the
/// rank promptly instead of blocking the join for the full stall.
fn inject(kind: FaultKind, id: usize, cancel: &CancelToken) {
    match kind {
        FaultKind::Kill => rank_panic(id, "injected fault: killed".to_string(), Some(id)),
        FaultKind::Stall { ms } => {
            let total = Duration::from_millis(ms);
            let mut slept = Duration::ZERO;
            while slept < total {
                if cancel.is_cancelled() {
                    tbmd_trace::add(tbmd_trace::Counter::WorkerCancellations, 1);
                    rank_panic(
                        id,
                        format!(
                            "injected stall cancelled after {slept:?} (peers detected the freeze)"
                        ),
                        Some(id),
                    );
                }
                let tick = STALL_POLL.min(total - slept);
                std::thread::sleep(tick);
                slept += tick;
            }
        }
    }
}

/// Turn a joined thread's panic payload into a [`RankFault`], preserving
/// typed payloads from [`rank_panic`] and stringifying everything else.
fn classify_panic(id: usize, payload: Box<dyn std::any::Any + Send>) -> RankFault {
    match payload.downcast::<RankFault>() {
        Ok(fault) => *fault,
        Err(payload) => {
            let detail = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "rank panicked".to_string());
            // A raw (untyped) panic is the rank's own bug: blame itself.
            RankFault {
                rank: id,
                detail,
                culprit: Some(id),
            }
        }
    }
}

/// Evenly partition `n` items over `size` ranks; returns rank `r`'s
/// half-open range. The first `n % size` ranks get one extra item.
pub fn partition_range(n: usize, size: usize, r: usize) -> std::ops::Range<usize> {
    let base = n / size;
    let extra = n % size;
    let start = r * base + r.min(extra);
    let len = base + usize::from(r < extra);
    start..(start + len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_everything() {
        for n in [0usize, 1, 7, 64, 65] {
            for p in [1usize, 2, 3, 8, 16] {
                let mut covered = vec![false; n];
                for r in 0..p {
                    for i in partition_range(n, p, r) {
                        assert!(!covered[i], "double coverage of {i}");
                        covered[i] = true;
                    }
                }
                assert!(covered.iter().all(|&c| c), "n={n}, p={p}");
            }
        }
    }

    #[test]
    fn partition_balanced() {
        for r in 0..5 {
            let range = partition_range(17, 5, r);
            let len = range.end - range.start;
            assert!((3..=4).contains(&len));
        }
    }

    #[test]
    fn point_to_point_roundtrip() {
        let (results, stats) = vmp_run(2, |mut rank| {
            if rank.id() == 0 {
                rank.send(1, 7, &[1.0, 2.0, 3.0]);
                rank.recv(1, 8)
            } else {
                let got = rank.recv(0, 7);
                rank.send(0, 8, &[got.iter().sum()]);
                got
            }
        });
        assert_eq!(results[0], vec![6.0]);
        assert_eq!(results[1], vec![1.0, 2.0, 3.0]);
        assert_eq!(stats.total_messages(), 2);
        assert_eq!(stats.total_bytes(), 8 * 4);
    }

    #[test]
    fn tagged_out_of_order_delivery() {
        // Rank 0 sends tag 2 then tag 1; rank 1 receives tag 1 first.
        let (results, _) = vmp_run(2, |mut rank| {
            if rank.id() == 0 {
                rank.send(1, 2, &[22.0]);
                rank.send(1, 1, &[11.0]);
                vec![]
            } else {
                let first = rank.recv(0, 1);
                let second = rank.recv(0, 2);
                vec![first[0], second[0]]
            }
        });
        assert_eq!(results[1], vec![11.0, 22.0]);
    }

    #[test]
    fn broadcast_all_sizes() {
        for p in 1..=9 {
            for root in [0, p - 1, p / 2] {
                let (results, stats) = vmp_run(p, move |mut rank| {
                    let mut data = if rank.id() == root {
                        vec![3.5, -1.0, 2.0]
                    } else {
                        vec![]
                    };
                    rank.broadcast(root, 40, &mut data);
                    data
                });
                assert_eq!(stats.total_bytes(), Rank::broadcast_bytes(3, p));
                for (r, v) in results.iter().enumerate() {
                    assert_eq!(v, &vec![3.5, -1.0, 2.0], "p={p} root={root} rank={r}");
                }
            }
        }
    }

    #[test]
    fn allreduce_sums() {
        for p in 1..=8 {
            let (results, stats) = vmp_run(p, move |mut rank| {
                let mut data = vec![rank.id() as f64, 1.0];
                rank.allreduce_sum(50, &mut data);
                data
            });
            assert_eq!(stats.total_bytes(), Rank::allreduce_bytes(2, p));
            let expect0 = (0..p).map(|r| r as f64).sum::<f64>();
            for v in results {
                assert_eq!(v, vec![expect0, p as f64]);
            }
        }
    }

    #[test]
    fn allreduce_reduce_side_is_binomial() {
        // Structural pin of the tree reduce: every non-root rank sends
        // exactly one reduce message (same as the old linear gather, so the
        // engine traffic assertions are unchanged), and the number of reduce
        // messages a rank *receives* equals its binomial child count — rank
        // 0 absorbs only ⌈log₂ P⌉ partial sums instead of P − 1.
        for p in [2usize, 3, 4, 5, 7, 8] {
            let (received, stats) = vmp_run(p, move |mut rank| {
                let mut data = vec![1.0];
                let id = rank.id();
                let top = lowest_set_bit_or_size(id, rank.size());
                let mut children = 0usize;
                let mut m = 1;
                while m < top && id + m < p {
                    children += 1;
                    m <<= 1;
                }
                rank.allreduce_sum(90, &mut data);
                assert_eq!(data, vec![p as f64]);
                children
            });
            // Root's receive count is logarithmic, not linear.
            assert_eq!(
                received[0],
                (usize::BITS - (p - 1).leading_zeros()) as usize
            );
            // Total reduce+broadcast messages: (P − 1) each.
            assert_eq!(stats.total_messages(), 2 * (p as u64 - 1));
            // Each non-root sends exactly one reduce message plus its
            // broadcast fan-out; root sends only broadcast messages.
            let bcast_children = |id: usize| {
                let top = lowest_set_bit_or_size(id, p);
                let mut n = 0u64;
                let mut m = top >> 1;
                while m >= 1 {
                    if id + m < p {
                        n += 1;
                    }
                    m >>= 1;
                }
                n
            };
            for (id, r) in stats.ranks.iter().enumerate() {
                let reduce_sends = u64::from(id != 0);
                assert_eq!(
                    r.messages_sent,
                    reduce_sends + bcast_children(id),
                    "p={p} rank={id}"
                );
            }
        }
    }

    #[test]
    fn killed_rank_is_detected_not_hung() {
        // Rank 1 dies before the collective; rank 0's recv window must
        // expire and the launch must come back as a typed error instead of
        // blocking forever.
        let started = std::time::Instant::now();
        let opts = VmpOptions {
            recv_timeout: Duration::from_millis(100),
            fault: Some(VmpFault {
                rank: 1,
                kind: FaultKind::Kill,
            }),
        };
        let err = vmp_run_opts(&mut [(); 2], opts, |mut rank, _| {
            let mut data = vec![rank.id() as f64];
            rank.allreduce_sum(7, &mut data);
            data[0]
        })
        .expect_err("killed rank must fail the launch");
        assert!(err.faults.iter().any(|f| f.rank == 1), "{err}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "failure detection took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn stalled_rank_trips_peer_timeouts() {
        let opts = VmpOptions {
            recv_timeout: Duration::from_millis(60),
            fault: Some(VmpFault {
                rank: 0,
                kind: FaultKind::Stall { ms: 250 },
            }),
        };
        let err = vmp_run_opts(&mut [(); 3], opts, |mut rank, _| {
            let mut data = vec![1.0];
            rank.allreduce_sum(9, &mut data);
            data[0]
        })
        .expect_err("stalled collective must fail");
        // The healthy ranks time out waiting for rank 0's contribution.
        assert!(
            err.faults.iter().any(|f| f.detail.contains("timed out")),
            "{err}"
        );
        // Only the stalled rank is blamed; the timed-out peers are
        // casualties, not causes.
        assert_eq!(err.failed_ranks(), vec![0]);
    }

    #[test]
    fn cancellation_reclaims_stalled_worker_promptly() {
        // The stall is 30 s but the peers' windows expire after 80 ms; the
        // cancellation token must reclaim the stalled worker within a few
        // polling ticks, so the whole launch joins in well under a second
        // instead of blocking for the full stall.
        let started = std::time::Instant::now();
        let opts = VmpOptions {
            recv_timeout: Duration::from_millis(80),
            fault: Some(VmpFault {
                rank: 2,
                kind: FaultKind::Stall { ms: 30_000 },
            }),
        };
        let err = vmp_run_opts(&mut [(); 3], opts, |mut rank, _| {
            let mut data = vec![1.0];
            rank.allreduce_sum(13, &mut data);
            data[0]
        })
        .expect_err("stalled collective must fail");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "stalled worker blocked the join for {:?}",
            started.elapsed()
        );
        assert!(
            err.faults
                .iter()
                .any(|f| f.rank == 2 && f.detail.contains("stall cancelled")),
            "{err}"
        );
        assert_eq!(err.failed_ranks(), vec![2]);
    }

    #[test]
    fn cancellation_drains_waiters_before_their_window() {
        // Rank 1 dies from a real (untyped) panic while its peers wait in a
        // 10 s window. The unwinding rank latches the cancellation token, so
        // the survivors must drain long before their window expires.
        let started = std::time::Instant::now();
        let opts = VmpOptions {
            recv_timeout: Duration::from_secs(10),
            fault: None,
        };
        let err = vmp_run_opts(&mut [(); 3], opts, |mut rank, _| {
            if rank.id() == 1 {
                panic!("synthetic rank bug");
            }
            let mut data = vec![1.0];
            rank.allreduce_sum(17, &mut data);
            data[0]
        })
        .expect_err("dead rank must fail the launch");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "waiters were not drained: {:?}",
            started.elapsed()
        );
        assert_eq!(err.failed_ranks(), vec![1], "{err}");
        assert!(
            err.faults
                .iter()
                .any(|f| f.detail.contains("cancelled") || f.detail.contains("hung up")),
            "survivors should drain via cancellation or disconnect: {err}"
        );
    }

    #[test]
    fn kill_blames_only_the_killed_rank() {
        let opts = VmpOptions {
            recv_timeout: Duration::from_millis(100),
            fault: Some(VmpFault {
                rank: 1,
                kind: FaultKind::Kill,
            }),
        };
        let err = vmp_run_opts(&mut [(); 3], opts, |mut rank, _| {
            let mut data = vec![1.0];
            rank.allreduce_sum(19, &mut data);
            data[0]
        })
        .expect_err("killed rank must fail the launch");
        assert_eq!(err.failed_ranks(), vec![1], "{err}");
    }

    #[test]
    fn default_recv_timeout_scales_with_problem_size() {
        let floor = default_recv_timeout(0, 1);
        assert!(floor >= Duration::from_secs(2));
        let small = default_recv_timeout(32, 2);
        let large = default_recv_timeout(864, 2);
        let wider = default_recv_timeout(864, 8);
        assert!(small <= large, "window must grow with n");
        assert!(large <= wider, "window must grow with rank count");
        // Never pathological: capped at floor + 10 min.
        assert!(default_recv_timeout(usize::MAX, usize::MAX) <= Duration::from_secs(2 + 600));
    }

    #[test]
    fn timeout_alone_does_not_perturb_healthy_runs() {
        let opts = VmpOptions {
            recv_timeout: Duration::from_secs(10),
            fault: None,
        };
        let (results, _) = vmp_run_opts(&mut [(); 4], opts, |mut rank, _| {
            let mut data = vec![rank.id() as f64];
            rank.allreduce_sum(11, &mut data);
            data[0]
        })
        .expect("healthy run");
        assert_eq!(results, vec![6.0; 4]);
    }

    #[test]
    fn gather_and_allgather() {
        let (results, _) = vmp_run(4, |mut rank| {
            let chunk = vec![rank.id() as f64; rank.id() + 1];
            let g = rank.gather(0, 60, &chunk);
            let ag = rank.allgather(62, &chunk);
            (g, ag)
        });
        let expected: Vec<Vec<f64>> = (0..4).map(|r| vec![r as f64; r + 1]).collect();
        assert_eq!(results[0].0.as_ref().unwrap(), &expected);
        assert!(results[1].0.is_none());
        for (g, ag) in &results {
            let _ = g;
            assert_eq!(ag, &expected);
        }
    }

    #[test]
    fn allgather_moves_the_bytes_its_formula_says() {
        for p in 1..=6 {
            let (_, stats) = vmp_run(p, |mut rank| {
                rank.allgather(64, &vec![0.5; rank.id() + 1]);
            });
            let total = p * (p + 1) / 2;
            assert_eq!(stats.total_bytes(), Rank::allgather_bytes(total, 1, p));
        }
    }

    #[test]
    fn each_rank_writes_only_its_own_slot() {
        let mut slots = vec![Vec::new(); 3];
        let healthy = VmpOptions {
            recv_timeout: Duration::from_secs(10),
            fault: None,
        };
        vmp_run_opts(&mut slots, healthy, |rank, slot: &mut Vec<usize>| {
            slot.push(rank.id())
        })
        .expect("healthy run");
        assert_eq!(slots, [vec![0], vec![1], vec![2]]);
        // A killed rank never reaches its slot; the others keep what they
        // wrote, and the launch still fails.
        let kill = VmpOptions {
            fault: Some(VmpFault {
                rank: 1,
                kind: FaultKind::Kill,
            }),
            ..healthy
        };
        let err = vmp_run_opts(&mut slots, kill, |rank, slot| slot.push(10 + rank.id()))
            .expect_err("killed rank must fail the launch");
        assert_eq!(err.failed_ranks(), vec![1], "{err}");
        assert_eq!(slots, [vec![0, 10], vec![1], vec![2, 12]]);
    }

    #[test]
    fn flop_accounting() {
        let (_, stats) = vmp_run(3, |rank| {
            rank.count_flops(100 * (rank.id() as u64 + 1));
        });
        assert_eq!(stats.ranks[0].flops, 100);
        assert_eq!(stats.ranks[2].flops, 300);
        assert_eq!(stats.max_flops(), 300);
    }

    #[test]
    fn single_rank_no_traffic() {
        let (results, stats) = vmp_run(1, |mut rank| {
            let mut d = vec![5.0];
            rank.allreduce_sum(2, &mut d);
            let ag = rank.allgather(3, &[7.0]);
            (d, ag)
        });
        assert_eq!(results[0].0, vec![5.0]);
        assert_eq!(results[0].1, vec![vec![7.0]]);
        assert_eq!(stats.total_messages(), 0);
    }
}
