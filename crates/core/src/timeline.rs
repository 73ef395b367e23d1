//! The scheduler kernel: every request-scheduling mode in one loop,
//! [`TimelineServerSim::run_directed`], over a global per-device kernel
//! timeline.
//!
//! [`ServerSim`](crate::ServerSim) drains arrivals FIFO at batch size 1
//! and stays the independent serial reference. Everything else the
//! crate schedules — gang and continuous batching, lockstep rounds,
//! event-driven windows, contention pricing and token joins — is this
//! loop under a [`TimelineConfig`]: an [`EventConfig`] (a
//! [`BatchConfig`](crate::BatchConfig) request policy plus a co-batch
//! window) and a [`TimelineTuning`] of two honesty features.
//!
//! # Modes
//!
//! * **fifo** ([`BatchConfig::fifo`](crate::BatchConfig::fifo)): batch
//!   1, no mid-flight admission. Groups are singletons under any
//!   window, so the run reproduces `ServerSim::run` bit for bit.
//! * **gang** ([`BatchConfig::gang`](crate::BatchConfig::gang)): admit
//!   up to `max_batch` only while the device is idle, then run the gang
//!   to completion.
//! * **continuous / fused**
//!   ([`BatchConfig::continuous`](crate::BatchConfig::continuous),
//!   [`BatchConfig::fused`](crate::BatchConfig::fused)): mid-flight
//!   admission, optionally with one fused verifier sweep per launch and
//!   demand-proportional KV shares.
//! * **lockstep** ([`EventConfig::lockstep`]): an infinite window.
//!   Every launch waits for the whole in-flight set, the launch instant
//!   is the round barrier (the wait books as `barrier_idle`), and the
//!   device floor advances to each round's end, so finished members
//!   hold the barrier as they would in a lockstep round.
//! * **windowed** ([`EventConfig::new`], [`EventConfig::windowed`]):
//!   iteration-granularity scheduling. Each request carries its own
//!   ready time; a launch groups every request ready within
//!   `window_secs` of the earliest event and the rest advance at their
//!   own cadence. Waits inside the window are plain `idle`, never
//!   `barrier_idle`.
//! * **anchored** ([`TimelineConfig::anchored`]): both honesty features
//!   off. The timeline records segments purely as an observer and never
//!   feeds back into scheduling.
//! * **honest** ([`TimelineConfig::honest`]): retroactive contention
//!   pricing on.
//! * **token joins** ([`TimelineConfig::with_token_joins`]):
//!   generation runs in chunks and arrivals join the running decode
//!   batch at chunk boundaries.
//!
//! # Execution model
//!
//! * **A ready queue instead of rounds.** Each in-flight request's next
//!   event is `started_at + RequestRun::next_event_at()`. The loop
//!   serves the earliest event: the earliest-ready request, or a pending
//!   arrival when mid-flight admission could open a fresh co-batch.
//! * **One iteration per launch, four phases.** A launch runs one TTS
//!   iteration for each group member through `RequestRun`'s split-phase
//!   API: **plan** (memory replan plus the decode, priced over the
//!   *whole* in-flight set's sequences — requests outside the launch are
//!   mid-iteration and share the weight sweep), **gather** (every
//!   member's pending verifier chunks), **cost** (the shared
//!   accelerator's verifier sweeps) and **commit** (charge the sweeps,
//!   reveal scores, branch). The split-phase protocol is re-entrant per
//!   run, so launches may interleave with other requests' iterations.
//! * **Cross-request verifier co-batching.** Without
//!   [`BatchConfig::fused_verify`](crate::BatchConfig::fused_verify) the
//!   members' prefill sweeps are distinct kernels that serialize in
//!   admission order; later members wait their turn as `idle`. With it,
//!   every member's wave-`w` chunks launch as one fused sweep
//!   (`Roofline::prefill_fused`) and each participant books its own
//!   slice as `verifier` time and the wait for earlier sub-batches as
//!   `idle`, so busy time is never double-counted.
//! * **Admission control and elastic shares.** The device KV budget is
//!   split through one [`PoolBudget`] ledger across the whole in-flight
//!   set: equal shares, or demand-proportional shares
//!   ([`BatchConfig::demand_shares`](crate::BatchConfig::demand_shares))
//!   rebalanced at admission, completion, preemption and demand-drift
//!   boundaries. Reservations never exceed the pool.
//! * **Preemption.** A group member whose KV demand outgrows its share
//!   is swapped out youngest-first (vLLM's victim rule, PCIe-costed),
//!   its reservation released, and requeued; it readmits when shares
//!   regrow. Accepted tokens are never lost. A lone request is never
//!   preempted.
//! * **First Finish cut (opt-in).** With
//!   [`BatchConfig::first_finish`](crate::BatchConfig::first_finish) a
//!   request whose best verified beam clears the bar completes at once.
//! * **Two-phase speculation** (the paper's Sec. 4.1.2 rule, lifted to
//!   requests). Speculative Beam Extension runs only while a request
//!   has the system to itself — no other active, queued or preempted
//!   request — and only until the next known arrival.
//! * **Faults, SLOs and directives at launch boundaries.** Directed
//!   prefix prewarms and cancels ([`RunDirectives`]), deadline sweeps
//!   and shedding apply before admission at each launch; injected
//!   faults ([`FaultPlan`]) are popped once per launch, in time order.
//!
//! # Honesty features
//!
//! Iteration-granularity scheduling prices each launch's decode
//! against the in-flight set at the launch instant, which leaves two
//! approximations. The timeline removes both:
//!
//! * **Retroactive contention** ([`TimelineTuning::contention`]): when
//!   a launch admits *new* device load (fresh arrivals or readmitted
//!   runs), every in-flight iteration it overlaps is stretched by the
//!   marginal co-batch slowdown over its remaining seconds
//!   ([`ftts_engine::RequestRun::contention_stretch`]), and the
//!   iteration's segment already on the timeline is stretched with it.
//!   Without it, overlapping a busy device is free for the requests
//!   already on it, and window 0 looks nearly as good as an oracle.
//! * **Token-granularity joins** ([`TimelineTuning::token_joins`]):
//!   the generation phase runs as chunked sub-iterations
//!   ([`ftts_engine::RequestRun::plan_decode_chunk`] /
//!   [`ftts_engine::RequestRun::apply_decode_chunk`]) capped at
//!   [`TimelineTuning::join_quantum`] tokens. All co-batched members
//!   synchronize at each chunk boundary (the wait books to the
//!   `join_wait` latency slice), arrivals due by the boundary admit
//!   *into the running launch* there, and the co-batch totals are
//!   re-derived every chunk. Without it, an arrival during a long
//!   generation phase waits for the whole phase.
//!
//! # Time model
//!
//! Launches are processed in non-decreasing order: a device `floor`,
//! raised by preemption transfers, drained-device completions and (in
//! lockstep mode) round ends, enforces it. KV reservations release at
//! the commit of a request's final iteration, which can precede its
//! finish instant by at most that iteration. The ledger is never
//! overcommitted.
//!
//! # Granularity limits
//!
//! Faults, SLO sweeps, directed cancels and elastic share rebalances
//! stay at *launch* granularity even in token-join mode (mid-launch
//! admission may still shrink shares through the shared admission
//! probe). One iteration per member per launch is preserved — chunking
//! splits the iteration's decode phase, not the TTS loop.
//!
//! # Resumable state
//!
//! Every loop local of the kernel lives in one crate-private, cloneable
//! `KernelState`: the device floor and drained-device instant, the
//! arrival and prewarm cursors, the waiting, paused and in-flight
//! requests (each a `RequestRun` with its search driver), the
//! [`PoolBudget`] ledger, the [`HostTier`], the fault cursor, the
//! [`DeviceTimeline`], the per-arrival served records and every
//! [`BatchRun`] counter. [`TimelineServerSim::run_directed`] is
//! `KernelState::new` plus one `resume` to completion; there is no
//! other loop. The inputs — arrivals, fault plan, directives — are not
//! state: `resume` re-reads them, so a state may be resumed over inputs
//! that changed.
//!
//! At the top of every iteration `resume` may hand out the state as a
//! checkpoint, labelled with its **horizon**: the latest instant at
//! which any earlier iteration read an input it had not ingested yet.
//! A checkpoint is exactly what a run from t = 0 over changed inputs
//! reaches at that boundary iff every change (an arrival, cancel or
//! prewarm added, moved or removed) lies strictly after the horizon.
//! The horizon covers:
//!
//! * each launch instant — arrivals and prewarms are ingested, and
//!   cancels swept, at `at <= launch` (the anchor decision before it
//!   reads the next arrival too, but the launch never precedes the
//!   anchor, and the idle jump to the next arrival lands the launch
//!   there);
//! * each token-join chunk boundary, where arrivals `at <= boundary`
//!   join the running launch;
//! * a lone iteration's decode end: its speculation cut-off is the next
//!   arrival, compared against the run clock at every decode segment.
//!
//! A device without cancels skips the cancel sweep, but a sweep with
//! nothing due changes nothing, so a checkpoint taken before a
//! device's first cancel stays valid for it. Finished records are
//! shared between clones, and the timeline folds its final prefix
//! (segments no later launch can overlap or stretch) into its
//! roll-up, so a state costs about its in-flight runs. The fleet
//! router keeps a short ladder of checkpoints per device
//! ([`FleetSim`](crate::FleetSim)); plain runs take none.
//!
//! # Anchors
//!
//! Batch 1 is checked live against `ServerSim::run` in
//! `crates/core/tests/batch_lockstep.rs` and `event_sched.rs`. The
//! lockstep and windowed modes are pinned to fingerprints frozen from
//! the separate lockstep and event-driven loops this kernel replaced
//! (`crates/core/tests/golden/`), and random fifo traces are checked
//! against `ServerSim` in `crates/core/tests/batch_properties.rs`.

use std::collections::VecDeque;
use std::sync::Arc;

use ftts_engine::{DecodeStatus, EngineError, RunPhase, StepStatus, VerifyCharge, VerifyChunk};
use ftts_kv::{HostTier, PoolBudget};
use ftts_metrics::TimelineOccupancy;
use ftts_search::SearchKind;
use ftts_workload::RequestArrival;

use crate::admission::{self, InFlight, SchedCtx};
use crate::batch_server::BatchRun;
use crate::event_server::{EventConfig, RunDirectives};
use crate::faults::{FaultCursor, FaultPlan, LaunchFaults};
use crate::server::{ServeOutcome, ServedRequest, TtsServer};

/// What kind of kernel a timeline segment covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Generator decode (one member's generation phase, or one decode
    /// chunk in token-join mode) — restore/offload transfers included.
    Decode,
    /// Verifier prefill sweep (fused or serialized, per launch).
    Verify,
    /// Preemption swap-out PCIe transfer.
    Swap,
}

/// One costed kernel launch on the device timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Absolute start instant, seconds.
    pub start: f64,
    /// Absolute end instant, seconds (`>= start`); grows under
    /// retroactive contention stretch.
    pub end: f64,
    /// Kernel kind.
    pub kind: SegmentKind,
    /// Sequences the kernel carried (decode frontier width, verifier
    /// sweep sequences, or 1 for a swap transfer).
    pub seqs: usize,
}

/// Unfolded segments past which the kernel folds a timeline's final
/// prefix into its roll-up.
const FOLD_AT: usize = 256;

/// The global per-device kernel timeline: every launch the scheduler
/// commits lands here as a [`Segment`] on one shared clock, and
/// segments already recorded can be retroactively stretched when a
/// later launch overlaps them.
///
/// The scheduler kernel folds the timeline's final prefix — segments no
/// later launch can overlap or stretch — into a running roll-up, so
/// the timeline it carries stays as small as the in-flight work. The
/// roll-up is bit-identical to one taken over every segment.
#[derive(Debug, Clone, Default)]
pub struct DeviceTimeline {
    /// Segments from id `folded.summed` on, in record order.
    segments: Vec<Segment>,
    stretch_secs: f64,
    folded: Folded,
    /// Unfolded segment count at which the kernel folds next.
    fold_at: usize,
}

/// The roll-up of a timeline's final prefix: the interval sweep over
/// every segment event before `upto`, and the span and per-kind sums of
/// the first `summed` segments (added in record order, as
/// [`DeviceTimeline::occupancy`] adds them).
#[derive(Debug, Clone)]
struct Folded {
    upto: f64,
    summed: usize,
    depth: i32,
    max_depth: i32,
    open_at: f64,
    busy_secs: f64,
    first: f64,
    last: f64,
    decode_secs: f64,
    verify_secs: f64,
    swap_secs: f64,
}

impl Default for Folded {
    fn default() -> Self {
        Self {
            upto: f64::NEG_INFINITY,
            summed: 0,
            depth: 0,
            max_depth: 0,
            open_at: 0.0,
            busy_secs: 0.0,
            first: f64::INFINITY,
            last: f64::NEG_INFINITY,
            decode_secs: 0.0,
            verify_secs: 0.0,
            swap_secs: 0.0,
        }
    }
}

impl Folded {
    /// Add one segment's duration and bounds.
    fn sum(&mut self, s: &Segment) {
        let dur = s.end - s.start;
        match s.kind {
            SegmentKind::Decode => self.decode_secs += dur,
            SegmentKind::Verify => self.verify_secs += dur,
            SegmentKind::Swap => self.swap_secs += dur,
        }
        self.first = self.first.min(s.start);
        self.last = self.last.max(s.end);
    }

    /// Sweep segment start (`+1`) and end (`-1`) events, all later than
    /// every event swept before, into the interval union. At equal
    /// instants ends close before starts open, so back-to-back segments
    /// never count as overlap.
    fn sweep(&mut self, events: &mut [(f64, i32)]) {
        events.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("finite segment bounds")
                .then(a.1.cmp(&b.1))
        });
        for &(t, d) in events.iter() {
            if self.depth == 0 && d > 0 {
                self.open_at = t;
            }
            self.depth += d;
            if self.depth == 0 {
                self.busy_secs += t - self.open_at;
            }
            self.max_depth = self.max_depth.max(self.depth);
        }
    }
}

impl DeviceTimeline {
    /// Record a segment; returns its id for later
    /// [`DeviceTimeline::stretch`] calls.
    pub fn record(&mut self, start: f64, duration: f64, kind: SegmentKind, seqs: usize) -> usize {
        assert!(start.is_finite(), "segment start must be finite");
        assert!(duration >= 0.0, "segment duration must be non-negative");
        debug_assert!(
            start >= self.folded.upto,
            "a segment never starts inside the folded prefix"
        );
        self.segments.push(Segment {
            start,
            end: start + duration,
            kind,
            seqs,
        });
        self.folded.summed + self.segments.len() - 1
    }

    /// Retroactively stretch segment `id` by `extra` seconds — a later
    /// launch overlapped it and slowed its kernel. Stretch never
    /// shrinks a segment.
    pub fn stretch(&mut self, id: usize, extra: f64) {
        assert!(extra >= 0.0, "stretch never shrinks a segment");
        assert!(id >= self.folded.summed, "folded segments are final");
        let segment = &mut self.segments[id - self.folded.summed];
        debug_assert!(
            segment.end >= self.folded.upto,
            "a stretched segment ends after the folded prefix"
        );
        segment.end += extra;
        self.stretch_secs += extra;
    }

    /// The recorded segments not yet folded into the roll-up, in record
    /// order — every segment of a timeline built outside the scheduler
    /// kernel, where segment `id` sits at index `id`.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// End instant of segment `id` (not folded yet).
    pub(crate) fn end_of(&self, id: usize) -> f64 {
        self.segments[id - self.folded.summed].end
    }

    /// Whether enough segments piled up since the last fold to fold
    /// again.
    pub(crate) fn wants_fold(&self) -> bool {
        self.segments.len() >= self.fold_at.max(FOLD_AT)
    }

    /// Fold every segment event before `before` into the roll-up, and
    /// drop the segments that leaves final. The caller guarantees that
    /// no later segment starts before `before` and that only segments
    /// ending at or after it are stretched later.
    pub(crate) fn fold(&mut self, before: f64) {
        self.fold_at = self.segments.len() + FOLD_AT;
        let lo = self.folded.upto;
        if before <= lo {
            return;
        }
        let mut events: Vec<(f64, i32)> = Vec::new();
        for s in &self.segments {
            if s.start >= lo && s.start < before {
                events.push((s.start, 1));
            }
            if s.end >= lo && s.end < before {
                events.push((s.end, -1));
            }
        }
        self.folded.sweep(&mut events);
        self.folded.upto = before;
        let done = self.segments.iter().take_while(|s| s.end < before).count();
        for s in &self.segments[..done] {
            self.folded.sum(s);
        }
        self.segments.drain(..done);
        self.folded.summed += done;
    }

    /// Total retroactive stretch applied so far, seconds.
    pub fn stretch_secs(&self) -> f64 {
        self.stretch_secs
    }

    /// Roll the timeline up into occupancy statistics: span, per-kind
    /// busy sums, the overlap-aware busy union and the peak overlap
    /// depth.
    pub fn occupancy(&self) -> TimelineOccupancy {
        let count = self.folded.summed + self.segments.len();
        if count == 0 {
            return TimelineOccupancy::default();
        }
        let mut f = self.folded.clone();
        let mut events: Vec<(f64, i32)> = Vec::with_capacity(self.segments.len() * 2);
        for s in &self.segments {
            f.sum(s);
            if s.start >= f.upto {
                events.push((s.start, 1));
            }
            if s.end >= f.upto {
                events.push((s.end, -1));
            }
        }
        f.sweep(&mut events);
        TimelineOccupancy {
            span_secs: (f.last - f.first).max(0.0),
            busy_secs: f.busy_secs,
            decode_secs: f.decode_secs,
            verify_secs: f.verify_secs,
            swap_secs: f.swap_secs,
            stretch_secs: self.stretch_secs,
            segments: count as u64,
            max_concurrency: f.max_depth.max(0) as u32,
        }
    }
}

/// Global-timeline scheduling knobs: the event-driven policy plus the
/// two honesty features layered on top of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineConfig {
    /// The event-driven policy (batching, window, admission, shares,
    /// preemption) the timeline scheduler inherits wholesale.
    pub event: EventConfig,
    /// The honesty features.
    pub tuning: TimelineTuning,
}

impl TimelineConfig {
    /// Both honesty features off: iteration-granularity scheduling of
    /// `event`, with the timeline recording segments only as an
    /// observer.
    pub fn anchored(event: EventConfig) -> Self {
        TimelineTuning::anchored().config(event)
    }

    /// Honest iteration-granularity scheduling: retroactive contention
    /// on, token joins off.
    pub fn honest(event: EventConfig) -> Self {
        TimelineTuning::honest().config(event)
    }

    /// Enable token-granularity decode joins (keeps the current
    /// contention setting).
    pub fn with_token_joins(self) -> Self {
        self.tuning.with_token_joins().config(self.event)
    }

    /// Override the join quantum (decode tokens per sequence between
    /// chunk boundaries).
    pub fn with_join_quantum(self, quantum: u64) -> Self {
        self.tuning.with_join_quantum(quantum).config(self.event)
    }
}

/// The honesty features of a [`TimelineConfig`]. A fleet attaches one
/// tuning to its per-device event policy, so every replica runs the
/// same kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineTuning {
    /// Price cross-launch decode overlap: a launch admitting new device
    /// load retroactively stretches every in-flight iteration it
    /// overlaps by the marginal co-batch slowdown.
    pub contention: bool,
    /// Run generation as chunked sub-iterations and admit arrivals into
    /// the running decode batch at chunk boundaries.
    pub token_joins: bool,
    /// Max decode tokens per sequence between join boundaries (ignored
    /// unless [`TimelineTuning::token_joins`] is set). Smaller quanta
    /// give arrivals earlier joins at the price of more `join_wait`
    /// synchronization among co-batched members.
    pub join_quantum: u64,
}

impl TimelineTuning {
    /// Pure bookkeeping: record segments, price nothing, join at launch
    /// boundaries (see [`TimelineConfig::anchored`]). The fleet default.
    pub fn anchored() -> Self {
        Self {
            contention: false,
            token_joins: false,
            join_quantum: 16,
        }
    }

    /// Retroactive contention pricing on, token joins off.
    pub fn honest() -> Self {
        Self {
            contention: true,
            ..Self::anchored()
        }
    }

    /// Enable token-granularity decode joins.
    pub fn with_token_joins(mut self) -> Self {
        self.token_joins = true;
        self
    }

    /// Override the join quantum.
    pub fn with_join_quantum(mut self, quantum: u64) -> Self {
        assert!(quantum >= 1, "join quantum must be at least one token");
        self.join_quantum = quantum;
        self
    }

    /// Attach the tuning to an event policy.
    pub fn config(self, event: EventConfig) -> TimelineConfig {
        TimelineConfig {
            event,
            tuning: self,
        }
    }
}

/// The scheduler kernel: replays a request arrival stream over one
/// shared accelerator and KV pool, every launch landing as a costed
/// segment on a global device timeline. See the module docs for the
/// modes and the execution model.
#[derive(Debug, Clone)]
pub struct TimelineServerSim {
    server: TtsServer,
    n: usize,
    kind: SearchKind,
    config: TimelineConfig,
}

impl TimelineServerSim {
    /// Simulate `server` answering requests with `n` beams each under
    /// the given timeline policy.
    pub fn new(server: TtsServer, n: usize, kind: SearchKind, config: TimelineConfig) -> Self {
        assert!(
            config.event.batch.max_batch >= 1,
            "need at least one batch slot"
        );
        assert!(
            config.event.window_secs >= 0.0,
            "window must be non-negative"
        );
        assert!(
            config.tuning.join_quantum >= 1,
            "join quantum must be at least one token"
        );
        Self {
            server,
            n,
            kind,
            config,
        }
    }

    /// The timeline policy in effect.
    pub fn config(&self) -> &TimelineConfig {
        &self.config
    }

    /// Serve the arrival stream to completion on a fault-free device.
    ///
    /// # Errors
    ///
    /// Propagates [`EngineError`] when a request cannot fit even with
    /// the entire pool to itself.
    pub fn run(&self, arrivals: &[RequestArrival]) -> Result<BatchRun, EngineError> {
        self.run_faulted(arrivals, &FaultPlan::none())
    }

    /// Serve the arrival stream to completion while `plan` injects
    /// faults into the simulated device, at launch granularity. The
    /// empty plan reproduces [`TimelineServerSim::run`] bit for bit;
    /// any plan is itself deterministic.
    ///
    /// # Errors
    ///
    /// Propagates [`EngineError`] when a request cannot fit even with
    /// the entire pool to itself.
    pub fn run_faulted(
        &self,
        arrivals: &[RequestArrival],
        plan: &FaultPlan,
    ) -> Result<BatchRun, EngineError> {
        self.run_directed(arrivals, plan, &RunDirectives::default())
    }

    /// Serve the arrival stream under `plan` while `directives` steer
    /// the timeline from outside: directed cancellations (crash
    /// failover, hedge losers) and mid-run host-tier prefix handoffs.
    /// Empty directives reproduce [`TimelineServerSim::run_faulted`]
    /// bit for bit — the fleet's 1-device pass-through anchor.
    ///
    /// # Errors
    ///
    /// Propagates [`EngineError`] when a request cannot fit even with
    /// the entire pool to itself.
    pub fn run_directed(
        &self,
        arrivals: &[RequestArrival],
        plan: &FaultPlan,
        directives: &RunDirectives,
    ) -> Result<BatchRun, EngineError> {
        let mut state = KernelState::new(self);
        state.resume(self, arrivals, plan, directives, &mut |_| {})?;
        Ok(state.into_run())
    }
}

/// The kernel loop's whole state at an iteration boundary: the device
/// clock and floor, the ingestion cursors, the queues and in-flight
/// runs, the KV ledger, host tier, fault cursor, device timeline and
/// every [`BatchRun`] counter. See "Resumable state" in the module
/// docs.
///
/// The inputs — arrivals, fault plan and directives — are not part of
/// the state: [`KernelState::resume`] re-reads them, so a state can be
/// resumed over inputs that changed after its
/// [`KernelState::horizon`].
#[derive(Clone)]
pub(crate) struct KernelState {
    /// Earliest instant the next launch may happen: raised by
    /// preemption PCIe transfers, by completions that drain the device,
    /// and (in lockstep mode) by every launch's round end.
    floor: f64,
    /// Latest completion instant seen — the device-drained floor.
    finish_max: f64,
    /// Arrivals ingested so far (a prefix of the stream).
    next_arrival: usize,
    /// Prewarm directives published so far (a prefix, in time order).
    prewarm_next: usize,
    waiting: VecDeque<usize>,
    paused: VecDeque<InFlight>,
    active: Vec<InFlight>,
    /// One slot per ingested arrival, filled when it completes, is
    /// shed or is cancelled. Filled slots never change, so clones of
    /// the state share them.
    served: Vec<Option<Arc<ServedRequest>>>,
    pool_bytes: u64,
    pool: PoolBudget,
    tier: HostTier,
    cursor: FaultCursor,
    /// The global device timeline; each in-flight request carries its
    /// latest decode segment (`InFlight::last_seg`), the stretch target
    /// when a later launch overlaps its iteration.
    timeline: DeviceTimeline,
    admit_seq: u64,
    rounds: u64,
    group_iters: u64,
    preemptions: u32,
    ver_sweeps: u64,
    ver_seqs: u64,
    ver_busy_secs: f64,
    kernel_faults: u32,
    fault_retries: u32,
    kv_loss_events: u32,
    lost_blocks: u64,
    shed: u32,
    cancelled: u32,
    degradations: u32,
    tier_dropped: u64,
    /// Latest instant at which an iteration so far read an input it
    /// had not yet ingested (`-∞` before the first launch).
    horizon: f64,
}

impl KernelState {
    /// The state before the first iteration of `sim`.
    pub(crate) fn new(sim: &TimelineServerSim) -> Self {
        let batch = &sim.config.event.batch;
        let pool_bytes = sim.server.config().kv_budget_bytes();
        let mut pool = PoolBudget::new(pool_bytes);
        if let Some(policy) = batch.tenants {
            for spec in policy.specs() {
                pool.set_tenant_cap(u64::from(spec.id), spec.kv_cap_bytes);
            }
        }
        Self {
            floor: 0.0,
            finish_max: 0.0,
            next_arrival: 0,
            prewarm_next: 0,
            waiting: VecDeque::new(),
            paused: VecDeque::new(),
            active: Vec::new(),
            served: Vec::new(),
            pool_bytes,
            pool,
            tier: HostTier::new(batch.tier),
            cursor: FaultCursor::default(),
            timeline: DeviceTimeline::default(),
            admit_seq: 0,
            rounds: 0,
            group_iters: 0,
            preemptions: 0,
            ver_sweeps: 0,
            ver_seqs: 0,
            ver_busy_secs: 0.0,
            kernel_faults: 0,
            fault_retries: 0,
            kv_loss_events: 0,
            lost_blocks: 0,
            shed: 0,
            cancelled: 0,
            degradations: 0,
            tier_dropped: 0,
            horizon: f64::NEG_INFINITY,
        }
    }

    /// The latest instant any iteration so far read an input it had
    /// not yet ingested. The state is exactly what a run from t = 0
    /// over changed inputs would reach at this iteration boundary,
    /// provided every change (an arrival, cancel or prewarm added,
    /// moved or removed) lies strictly after the horizon.
    pub(crate) fn horizon(&self) -> f64 {
        self.horizon
    }

    /// The record of served arrival `idx`.
    pub(crate) fn served(&self, idx: usize) -> &ServedRequest {
        self.served[idx].as_deref().expect("arrival served")
    }

    /// Move arrivals due by `t` onto the waiting queue.
    fn ingest(&mut self, arrivals: &[RequestArrival], t: f64) {
        while self.next_arrival < arrivals.len() && arrivals[self.next_arrival].at <= t {
            self.waiting.push_back(self.next_arrival);
            self.served.push(None);
            self.next_arrival += 1;
        }
    }

    /// Run the kernel loop from this state until every arrival is
    /// served, handing `checkpoint` the state at the top of every
    /// iteration. `arrivals`, `plan` and `directives` must agree with
    /// the inputs the state was built from up to its horizon, and
    /// `sim` must be the simulator it was created for.
    ///
    /// # Errors
    ///
    /// Propagates [`EngineError`] when a request cannot fit even with
    /// the entire pool to itself.
    #[allow(clippy::too_many_lines)]
    pub(crate) fn resume(
        &mut self,
        sim: &TimelineServerSim,
        arrivals: &[RequestArrival],
        plan: &FaultPlan,
        directives: &RunDirectives,
        checkpoint: &mut dyn FnMut(&KernelState),
    ) -> Result<(), EngineError> {
        debug_assert!(
            arrivals.windows(2).all(|w| w[0].at <= w[1].at),
            "arrival times must be non-decreasing"
        );
        debug_assert!(
            arrivals[..self.next_arrival]
                .iter()
                .all(|a| a.at <= self.horizon),
            "every ingested arrival lies within the horizon"
        );
        let batch = &sim.config.event.batch;
        let window = sim.config.event.window_secs;
        let lockstep = window.is_infinite();
        let device = sim.server.config().device.clone();
        let gen_bpt = sim.server.config().models.gen_spec.kv_bytes_per_token();
        let ctx = SchedCtx {
            server: &sim.server,
            n: sim.n,
            kind: sim.kind,
            config: batch,
        };
        // Directed cancels: earliest instant per arrival index (∞ =
        // never), applied at launch boundaries like deadline sweeps. A
        // device without cancels skips the sweep, which with nothing
        // due changes nothing.
        let has_cancels = !directives.cancels.is_empty();
        let mut cancel_at = vec![f64::INFINITY; arrivals.len()];
        for &(idx, t) in &directives.cancels {
            assert!(idx < arrivals.len(), "cancel index out of range");
            cancel_at[idx] = cancel_at[idx].min(t);
        }
        let mut prewarms = directives.prewarms.clone();
        prewarms.sort_by(|a, b| a.at.partial_cmp(&b.at).expect("finite prewarm times"));

        loop {
            if self.timeline.wants_fold() {
                // Later segments start at or after the floor, and only
                // in-flight runs' latest segments are ever stretched.
                let open = self
                    .active
                    .iter()
                    .chain(&self.paused)
                    .filter_map(|a| a.last_seg)
                    .map(|id| self.timeline.end_of(id))
                    .fold(self.floor, f64::min);
                self.timeline.fold(open);
            }
            checkpoint(self);
            // Next decision instant: the earliest ready request, or the
            // next arrival.
            let next_ready = self
                .active
                .iter()
                .map(InFlight::ready_at)
                .fold(f64::INFINITY, f64::min);
            let next_arr = arrivals
                .get(self.next_arrival)
                .map_or(f64::INFINITY, |a| a.at);

            if self.active.is_empty() {
                self.floor = self.floor.max(self.finish_max);
                if self.waiting.is_empty() && self.paused.is_empty() {
                    if self.next_arrival >= arrivals.len() {
                        break; // everything served
                    }
                    // Idle: jump to the next arrival (the launch below
                    // lands there, which puts it inside the horizon).
                    self.floor = self.floor.max(next_arr);
                }
            }

            // Anchor: the earliest instant a new co-batch can launch. A
            // pending arrival anchors its own launch only when mid-flight
            // admission could take it; otherwise it is ingested when the
            // next ready-driven launch forms.
            let arrival_anchor = next_arr.max(self.floor);
            let consider_arrival = batch.admit_mid_flight
                && self.active.len() < batch.max_batch
                && arrival_anchor < next_ready;
            let anchor = if self.active.is_empty() {
                self.floor
            } else if consider_arrival {
                arrival_anchor
            } else {
                next_ready
            };

            // Group: every in-flight request ready inside the window. The
            // partition is stable, so the group keeps admission order
            // (the order shares resize and unfused sweeps serialize in).
            let window_end = anchor + window;
            let mut group: Vec<InFlight> = Vec::new();
            let mut rest: Vec<InFlight> = Vec::new();
            for a in self.active.drain(..) {
                if a.ready_at() <= window_end {
                    group.push(a);
                } else {
                    rest.push(a);
                }
            }

            // Launch at the latest member's ready time, never before the
            // floor. Earlier members wait the gap: a window wait (plain
            // idle), or in lockstep mode the round barrier.
            let mut launch = group
                .iter()
                .map(InFlight::ready_at)
                .fold(anchor.max(self.floor), f64::max);
            for a in &mut group {
                if lockstep {
                    admission::pad_to_barrier(a, launch);
                } else {
                    admission::pad_to(a, launch);
                }
            }

            // The launch instant ingests arrivals and prewarms due by it
            // and sweeps cancels due by it. (The anchor decision above
            // read the next arrival too, but the launch never precedes
            // the anchor, so this covers it.)
            self.horizon = self.horizon.max(launch);
            self.ingest(arrivals, launch);
            while self.prewarm_next < prewarms.len() && prewarms[self.prewarm_next].at <= launch {
                let p = prewarms[self.prewarm_next];
                self.tier.publish_prefix(p.key, p.tokens, p.bytes);
                self.prewarm_next += 1;
            }
            if has_cancels {
                let sweep = admission::apply_cancels(
                    batch,
                    &cancel_at,
                    launch,
                    arrivals,
                    &mut self.waiting,
                    &mut self.paused,
                    &mut group,
                    &mut rest,
                    &mut self.pool,
                    &mut self.tier,
                    &mut self.served,
                );
                self.shed += sweep.shed;
                self.cancelled += sweep.cancelled;
            }
            let sweep = admission::enforce_slo(
                &ctx,
                launch,
                self.pool_bytes,
                arrivals,
                &mut self.waiting,
                &mut self.paused,
                &mut group,
                &mut rest,
                &mut self.pool,
                &mut self.tier,
                &mut self.served,
            );
            self.shed += sweep.shed;
            self.cancelled += sweep.cancelled;
            // Admission only appends to the group, so `group[before..]`
            // is the device load this launch adds.
            let before = group.len();
            let report = admission::admit(
                &ctx,
                &mut group,
                &mut rest,
                &mut self.paused,
                &mut self.waiting,
                &mut self.pool,
                &mut self.tier,
                arrivals,
                launch,
                &mut self.admit_seq,
            )?;
            self.degradations += report.degradations;
            if report.admitted && admission::elastic(batch) {
                admission::rebalance_elastic(batch, &mut group, &mut rest, &mut self.pool);
            }
            // Retroactive contention on the bystanders this launch
            // overlaps. (With an infinite window the rest is always
            // empty — lockstep mode needs no special case.)
            if sim.config.tuning.contention && report.admitted {
                stretch_bystanders(&group[before..], &mut rest, launch, &mut self.timeline);
            }

            if group.is_empty() && rest.is_empty() {
                if self.waiting.is_empty() && self.paused.is_empty() {
                    continue; // idle to the next arrival (or done)
                }
                let p = self.paused.front().expect("paused candidate");
                let (needed, capacity) = p.run.kv_demand();
                return Err(EngineError::PathExceedsMemory { needed, capacity });
            }
            if group.is_empty() {
                self.active = rest;
                continue;
            }

            // Memory-pressure preemption over the launching group: a
            // member that cannot progress at its share, or whose working
            // set would thrash it, is swapped out youngest-first. With a
            // host tier the swap-down is capped at the tier's free bytes
            // and the overflow is dropped (recomputed on readmission).
            while group.len() + rest.len() > 1 {
                let victim = group
                    .iter()
                    .enumerate()
                    .filter(|(_, a)| !a.run.can_progress() || !a.run.fits_working_set())
                    .max_by_key(|(_, a)| a.admit_seq)
                    .map(|(i, _)| i);
                let Some(vi) = victim else { break };
                let mut v = group.remove(vi);
                let bytes = if self.tier.enabled() {
                    let (swapped, dropped) = v.run.preempt_capped(self.tier.available_bytes());
                    self.tier.park(v.idx as u64, swapped);
                    self.tier_dropped += dropped;
                    swapped
                } else {
                    v.run.preempt()
                };
                let swap_start = launch;
                launch += device.pcie_transfer_seconds(bytes);
                if launch > swap_start {
                    self.timeline
                        .record(swap_start, launch - swap_start, SegmentKind::Swap, 1);
                }
                self.pool.release(v.idx as u64);
                v.preemptions += 1;
                self.preemptions += 1;
                v.paused_at = launch;
                v.probe = None;
                self.paused.push_back(v);
                admission::reshare(batch, &mut group, &mut rest, &mut self.pool);
            }
            // The launch (with any preemption PCIe time) is committed
            // device time: later launches never precede it.
            self.floor = self.floor.max(launch);
            if group.is_empty() {
                self.active = rest;
                continue;
            }

            self.rounds += 1;
            self.group_iters += group.len() as u64;
            let alone = group.len() == 1
                && rest.is_empty()
                && self.waiting.is_empty()
                && self.paused.is_empty();
            let next_at = arrivals.get(self.next_arrival).map(|a| a.at);
            let mut round_end = launch;
            let mut finished: Vec<usize> = Vec::new();

            // Phase 1 — plan: memory replan plus the co-batched decode,
            // recorded on the device timeline. Token-join mode runs it
            // as chunked sub-iterations with mid-launch admission at
            // chunk boundaries; otherwise each member runs its whole
            // generation phase. Decode is priced over the whole
            // in-flight set: requests outside the launch are
            // mid-iteration and share the weight sweep.
            let mut planned: Vec<bool>;
            if sim.config.tuning.token_joins {
                planned = vec![true; group.len()];
                let mut gen_done: Vec<bool> = group.iter().map(|a| a.run.is_finished()).collect();
                for (i, done) in gen_done.iter().enumerate() {
                    if *done {
                        planned[i] = false;
                    }
                }
                let quantum = sim.config.tuning.join_quantum;
                loop {
                    // Re-derive the co-batch every chunk: membership
                    // (joins, early generation finishes) and context
                    // both move at chunk boundaries.
                    let loads: Vec<(usize, u64)> =
                        group.iter().map(|a| a.run.decode_load()).collect();
                    let (rest_seqs, rest_ctx) = rest
                        .iter()
                        .map(|a| a.run.decode_load())
                        .fold((0usize, 0u64), |(s, c), (ls, lc)| (s + ls, c + lc));
                    let total_seqs: usize = loads.iter().map(|l| l.0).sum::<usize>() + rest_seqs;
                    let total_ctx: u64 = loads.iter().map(|l| l.1).sum::<u64>() + rest_ctx;
                    let chunk_alone = group.len() == 1
                        && rest.is_empty()
                        && self.waiting.is_empty()
                        && self.paused.is_empty();
                    let chunk_next_at = arrivals.get(self.next_arrival).map(|a| a.at);
                    let mut chunk_end: Vec<Option<f64>> = vec![None; group.len()];
                    let mut any = false;
                    for (i, a) in group.iter_mut().enumerate() {
                        if gen_done[i] {
                            continue;
                        }
                        a.run
                            .set_co_batch(total_seqs - loads[i].0, total_ctx - loads[i].1);
                        let spec_off = if !chunk_alone {
                            0.0
                        } else if let Some(at) = chunk_next_at {
                            (at - a.started_at).max(0.0)
                        } else {
                            f64::INFINITY
                        };
                        a.run.set_spec_off_after(spec_off);
                        match a.run.plan_decode_chunk(a.driver.as_mut(), quantum)? {
                            DecodeStatus::Planned(chunk) => {
                                chunk_end[i] = Some(
                                    a.started_at + a.run.clock() + a.run.chunk_seconds(&chunk),
                                );
                                any = true;
                            }
                            DecodeStatus::Generated => gen_done[i] = true,
                            DecodeStatus::Finished => {
                                gen_done[i] = true;
                                planned[i] = false;
                            }
                            DecodeStatus::Decoding => {
                                unreachable!("plan returns Planned, Generated or Finished")
                            }
                        }
                    }
                    if !any {
                        break;
                    }
                    // The join boundary: the slowest co-batched chunk's
                    // predicted end (chunk_seconds is bit-identical to
                    // the charge apply books).
                    let boundary = chunk_end.iter().flatten().fold(launch, |m, &e| m.max(e));
                    for (i, a) in group.iter_mut().enumerate() {
                        if chunk_end[i].is_none() {
                            continue;
                        }
                        let seg_start = a.started_at + a.run.clock();
                        let status = a.run.apply_decode_chunk(a.driver.as_mut())?;
                        let seg_end = a.started_at + a.run.clock();
                        if seg_end > seg_start {
                            let id = self.timeline.record(
                                seg_start,
                                seg_end - seg_start,
                                SegmentKind::Decode,
                                a.run.decode_load().0,
                            );
                            a.last_seg = Some(id);
                        }
                        if status == DecodeStatus::Generated {
                            gen_done[i] = true;
                        } else {
                            // Members still decoding wait for the
                            // slowest chunk — the token-join sync
                            // (boundary is absolute; the pad converts
                            // to this run's relative clock).
                            admission::pad_to_join(a, boundary);
                        }
                    }
                    // Token-granularity join: arrivals due by the
                    // boundary admit into the running decode batch here
                    // instead of waiting out the whole launch. (A lone
                    // chunk's speculation cut-off read the next arrival
                    // at the chunk's start, before the boundary.)
                    self.horizon = self.horizon.max(boundary);
                    self.ingest(arrivals, boundary);
                    if group.len() + rest.len() < batch.max_batch
                        && !(self.waiting.is_empty() && self.paused.is_empty())
                    {
                        let before = group.len();
                        let report = admission::admit(
                            &ctx,
                            &mut group,
                            &mut rest,
                            &mut self.paused,
                            &mut self.waiting,
                            &mut self.pool,
                            &mut self.tier,
                            arrivals,
                            boundary,
                            &mut self.admit_seq,
                        )?;
                        self.degradations += report.degradations;
                        if group.len() > before {
                            self.group_iters += (group.len() - before) as u64;
                            for _ in before..group.len() {
                                gen_done.push(false);
                                planned.push(true);
                            }
                            if sim.config.tuning.contention {
                                stretch_bystanders(
                                    &group[before..],
                                    &mut rest,
                                    boundary,
                                    &mut self.timeline,
                                );
                            }
                        }
                    }
                }
            } else {
                let loads: Vec<(usize, u64)> = group.iter().map(|a| a.run.decode_load()).collect();
                let (rest_seqs, rest_ctx) = rest
                    .iter()
                    .map(|a| a.run.decode_load())
                    .fold((0usize, 0u64), |(s, c), (ls, lc)| (s + ls, c + lc));
                let total_seqs: usize = loads.iter().map(|l| l.0).sum::<usize>() + rest_seqs;
                let total_ctx: u64 = loads.iter().map(|l| l.1).sum::<u64>() + rest_ctx;
                planned = Vec::with_capacity(group.len());
                for (i, a) in group.iter_mut().enumerate() {
                    a.run
                        .set_co_batch(total_seqs - loads[i].0, total_ctx - loads[i].1);
                    let spec_off = if !alone {
                        0.0
                    } else if let Some(at) = next_at {
                        (at - a.started_at).max(0.0)
                    } else {
                        f64::INFINITY
                    };
                    a.run.set_spec_off_after(spec_off);
                    let seg_start = a.started_at + a.run.clock();
                    planned.push(!a.run.plan_iteration(a.driver.as_mut())?.is_finished());
                    let seg_end = a.started_at + a.run.clock();
                    if alone {
                        // The speculation cut-off (the next arrival)
                        // was compared against the run clock at every
                        // decode segment of the phase.
                        self.horizon = self.horizon.max(seg_end);
                    }
                    if seg_end > seg_start {
                        let id = self.timeline.record(
                            seg_start,
                            seg_end - seg_start,
                            SegmentKind::Decode,
                            a.run.decode_load().0,
                        );
                        a.last_seg = Some(id);
                    }
                }
            }

            // Phase 2 — gather.
            let plans: Vec<Vec<VerifyChunk>> = group
                .iter_mut()
                .zip(&planned)
                .map(|(a, &p)| {
                    if p {
                        a.run.take_verify_batch().to_vec()
                    } else {
                        Vec::new()
                    }
                })
                .collect();

            // Phase 3 — cost, recorded as one verifier segment spanning
            // from the earliest member's generation end.
            let mut charges: Vec<Vec<VerifyCharge>> = vec![Vec::new(); group.len()];
            let sweep =
                admission::cost_verify_sweeps(batch.fused_verify, &mut group, &plans, &mut charges);
            self.ver_sweeps += sweep.sweeps;
            self.ver_seqs += sweep.seqs;
            self.ver_busy_secs += sweep.busy_secs;
            if sweep.busy_secs > 0.0 {
                let verify_start = group
                    .iter()
                    .map(|a| a.started_at + a.run.clock())
                    .fold(f64::INFINITY, f64::min);
                self.timeline.record(
                    verify_start,
                    sweep.busy_secs,
                    SegmentKind::Verify,
                    sweep.seqs as usize,
                );
            }

            // Phase 4 — commit.
            for (i, a) in group.iter_mut().enumerate() {
                let status = if planned[i] {
                    a.run.apply_verify_results(a.driver.as_mut(), &charges[i])?
                } else {
                    StepStatus::Finished
                };
                debug_assert!(
                    a.run.run_phase() == RunPhase::Ready || !planned[i],
                    "a committed run must be back between iterations"
                );
                let done = status.is_finished()
                    || batch
                        .first_finish
                        .is_some_and(|bar| a.run.first_finish_cut(bar));
                round_end = round_end.max(a.started_at + a.run.clock());
                if done {
                    finished.push(i);
                }
            }

            // Injected faults due this launch. Kernel faults and throttle
            // windows hit the group's kernels, booked to the `fault`
            // bucket in proportion to each member's busy seconds; device
            // KV loss hits every device-resident request, bystanders
            // included. Swapped-out requests survive in host RAM.
            let faults = LaunchFaults::at(&mut self.cursor, plan, &batch.robust, launch);
            if faults.fired() {
                self.kernel_faults += faults.kernel_faults;
                self.fault_retries += faults.retries;
                for a in group.iter_mut() {
                    let dt = (a.started_at + a.run.clock() - launch).max(0.0);
                    a.run
                        .stall_fault(dt * faults.busy_stretch + faults.backoff_secs);
                    if faults.kernel_faults > 0 {
                        a.run.note_kernel_faults(
                            faults.kernel_faults,
                            faults.retries,
                            faults.backoff_secs,
                        );
                    }
                    if faults.slowdown_stretch > 0.0 {
                        a.run.note_slowdown(dt * faults.slowdown_stretch);
                    }
                }
                if faults.kv_losses > 0 {
                    self.kv_loss_events += faults.kv_losses;
                    for a in group.iter_mut().chain(rest.iter_mut()) {
                        self.lost_blocks += a.run.lose_device_kv();
                    }
                }
                round_end = group
                    .iter()
                    .map(|a| a.started_at + a.run.clock())
                    .fold(launch, f64::max);
            }
            // In lockstep mode the round end is the barrier: nothing,
            // not even the next admission, happens before it.
            if lockstep {
                self.floor = self.floor.max(round_end);
            }

            // Completions leave at their own finish instant and offer
            // their prompt prefix to the host tier's shared store.
            for &i in finished.iter().rev() {
                let a = group.remove(i);
                self.pool.release(a.idx as u64);
                let prompt_tokens = arrivals[a.idx].problem.prompt_tokens;
                self.tier.publish_prefix(
                    arrivals[a.idx].problem.seed,
                    prompt_tokens,
                    prompt_tokens.saturating_mul(gen_bpt),
                );
                let stats = a.run.finish();
                let answer = ftts_metrics::top1_majority(&stats.answers());
                let finished_at = a.started_at + stats.latency();
                self.finish_max = self.finish_max.max(finished_at);
                self.served[a.idx] = Some(Arc::new(ServedRequest {
                    arrived_at: a.arrived_at,
                    started_at: a.started_at,
                    finished_at,
                    preemptions: a.preemptions,
                    preempted_secs: a.preempted_secs,
                    slo: a.slo,
                    deadline: a.deadline,
                    shed: false,
                    granted_n: a.granted_n,
                    outcome: ServeOutcome { stats, answer },
                }));
            }

            if !(group.is_empty() && rest.is_empty()) {
                if !finished.is_empty() {
                    admission::reshare(batch, &mut group, &mut rest, &mut self.pool);
                } else if admission::elastic(batch) && admission::demand_drifted(&group, &rest) {
                    admission::rebalance_elastic(batch, &mut group, &mut rest, &mut self.pool);
                }
            }

            // Survivors rejoin the in-flight set in admission order.
            rest.append(&mut group);
            self.active = rest;
            self.active.sort_by_key(|a| a.admit_seq);
        }
        Ok(())
    }

    /// The finished run. Every arrival must have been served.
    pub(crate) fn into_run(self) -> BatchRun {
        BatchRun {
            served: self
                .served
                .into_iter()
                .map(|r| {
                    let r = r.expect("every request served");
                    Arc::try_unwrap(r).unwrap_or_else(|shared| (*shared).clone())
                })
                .collect(),
            rounds: self.rounds,
            group_iters: self.group_iters,
            preemptions: self.preemptions,
            peak_reserved_bytes: self.pool.peak_reserved_bytes(),
            pool_bytes: self.pool_bytes,
            ver_sweeps: self.ver_sweeps,
            ver_seqs: self.ver_seqs,
            ver_busy_secs: self.ver_busy_secs,
            kernel_faults: self.kernel_faults,
            fault_retries: self.fault_retries,
            kv_loss_events: self.kv_loss_events,
            lost_blocks: self.lost_blocks,
            shed: self.shed,
            cancelled: self.cancelled,
            degradations: self.degradations,
            final_reserved_bytes: self.pool.reserved_bytes(),
            kv_tier_hits: self.tier.stats().prefix_hits,
            kv_tier_demotions: self.tier.stats().demotions,
            kv_tier_parked_bytes: self.tier.stats().parked_bytes,
            kv_tier_dropped_bytes: self.tier_dropped + self.tier.stats().overflow_dropped_bytes,
            kv_tier_unparked_bytes: self.tier.stats().unparked_bytes,
            tenant_peak_bytes: self
                .pool
                .tenant_peaks()
                .into_iter()
                .map(|(t, b)| (t as u32, b))
                .collect(),
            timeline: self.timeline.occupancy(),
        }
    }
}

/// Retroactive contention: the load `joined` adds to the device slows
/// every iteration still in flight outside the launch. Each bystander's
/// remaining time past `at` stretches by the marginal co-batch slowdown,
/// and its latest decode segment on the timeline stretches with it.
fn stretch_bystanders(
    joined: &[InFlight],
    rest: &mut [InFlight],
    at: f64,
    timeline: &mut DeviceTimeline,
) {
    let (new_seqs, new_ctx) = joined
        .iter()
        .map(|a| a.run.decode_load())
        .fold((0usize, 0u64), |(s, c), (ls, lc)| (s + ls, c + lc));
    for a in rest {
        let remaining = (a.ready_at() - at).max(0.0);
        let extra = a.run.contention_stretch(new_seqs, new_ctx, remaining);
        if let (true, Some(sid)) = (extra > 0.0, a.last_seg) {
            timeline.stretch(sid, extra);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftts_engine::ModelPairing;
    use ftts_hw::GpuDevice;
    use ftts_workload::{ArrivalPattern, Dataset};

    fn server(seed: u64, memory_fraction: f64) -> TtsServer {
        let mut s = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
        s.config_mut().seed = seed;
        s.config_mut().memory_fraction = memory_fraction;
        s
    }

    fn arrivals(count: usize, seed: u64, interval: f64) -> Vec<RequestArrival> {
        let problems = Dataset::Amc2023.problems(count, seed);
        ArrivalPattern::Uniform { interval }.schedule(&problems, 0)
    }

    /// Every iteration-boundary state of one run, in order.
    fn all_states(
        sim: &TimelineServerSim,
        arrivals: &[RequestArrival],
        directives: &RunDirectives,
    ) -> Vec<KernelState> {
        let mut states = Vec::new();
        let mut state = KernelState::new(sim);
        state
            .resume(sim, arrivals, &FaultPlan::none(), directives, &mut |s| {
                states.push(s.clone());
            })
            .expect("base run");
        states
    }

    /// Resume the newest few `states` whose horizon lies before `change`
    /// over the changed inputs; each must reproduce a fresh run over
    /// those inputs on every field. The change must fall before the end
    /// of the run. Returns how many states qualified (the first, before
    /// any launch, always does).
    fn assert_resumes_match(
        sim: &TimelineServerSim,
        states: &[KernelState],
        arrivals: &[RequestArrival],
        directives: &RunDirectives,
        change: f64,
    ) -> usize {
        let plan = FaultPlan::none();
        let want = sim
            .run_directed(arrivals, &plan, directives)
            .expect("fresh run")
            .full_fingerprint();
        let valid = states.partition_point(|s| s.horizon() < change);
        assert!(
            valid < states.len(),
            "the change at {change} must fall inside the run"
        );
        for s in &states[valid.saturating_sub(3)..valid] {
            let horizon = s.horizon();
            let mut s = s.clone();
            s.resume(sim, arrivals, &plan, directives, &mut |_| {})
                .expect("resumed run");
            assert_eq!(
                s.into_run().full_fingerprint(),
                want,
                "resumed from horizon {horizon} for a change at {change}"
            );
        }
        valid
    }

    fn insert(arrivals: &[RequestArrival], at: f64, seed: u64) -> Vec<RequestArrival> {
        let extra = Dataset::Amc2023.problems(1, seed)[0];
        let mut out = arrivals.to_vec();
        let pos = out.partition_point(|a| a.at <= at);
        out.insert(
            pos,
            ArrivalPattern::Burst { at }.schedule(&[extra], 0)[0].clone(),
        );
        out
    }

    fn windowed(seed: u64, config: TimelineConfig) -> TimelineServerSim {
        TimelineServerSim::new(server(seed, 0.6), 8, SearchKind::BeamSearch, config)
    }

    #[test]
    fn resume_handles_an_arrival_exactly_at_a_launch_instant() {
        let sim = windowed(11, TimelineConfig::anchored(EventConfig::windowed(4, 0.0)));
        let stream = arrivals(5, 41, 1.0);
        let states = all_states(&sim, &stream, &RunDirectives::default());
        // A boundary after a co-batched launch: its horizon is exactly
        // that launch instant.
        let k = states
            .iter()
            .rposition(|s| s.active.len() >= 2 && s.horizon().is_finite())
            .expect("a co-batched launch");
        let at = states[k].horizon();
        let changed = insert(&stream, at, 901);
        assert!(assert_resumes_match(&sim, &states, &changed, &RunDirectives::default(), at) > 1);
    }

    #[test]
    fn resume_handles_an_arrival_inside_a_token_join_chunk() {
        // Arrivals join the running decode batch at chunk boundaries, so
        // a state after a launch has read arrivals up to its last
        // boundary. Insert a new arrival just before each base arrival:
        // one of them lands inside a chunk that ingested the next.
        let sim = windowed(
            13,
            TimelineConfig::honest(EventConfig::windowed(4, 0.0))
                .with_token_joins()
                .with_join_quantum(4),
        );
        let stream = arrivals(5, 23, 3.0);
        let states = all_states(&sim, &stream, &RunDirectives::default());
        let mut resumed = 0;
        for next in &stream[1..] {
            let at = next.at - 1e-6;
            let changed = insert(&stream, at, 902);
            resumed +=
                assert_resumes_match(&sim, &states, &changed, &RunDirectives::default(), at) - 1;
        }
        assert!(resumed > 0, "some checkpoint precedes a new arrival");
    }

    #[test]
    fn resume_handles_an_arrival_during_a_lone_speculating_iteration() {
        // One request at a time: every iteration runs alone and
        // speculates up to the next known arrival, so an arrival landing
        // mid-decode moves the speculation cut-off of an iteration that
        // already started.
        let sim = windowed(17, TimelineConfig::anchored(EventConfig::windowed(4, 0.0)));
        let stream = arrivals(2, 7, 400.0);
        let states = all_states(&sim, &stream, &RunDirectives::default());
        let lone: Vec<usize> = (1..states.len())
            .filter(|&i| states[i - 1].active.len() == 1 && states[i].active.len() == 1)
            .collect();
        assert!(lone.len() >= 3, "the fixture runs lone iterations");
        for &i in &lone[..3] {
            let launch = states[i - 1].active[0].ready_at();
            let decode_end = states[i].horizon();
            assert!(decode_end > launch, "a lone iteration's decode takes time");
            let at = 0.5 * (launch + decode_end);
            let changed = insert(&stream, at, 903);
            assert!(
                assert_resumes_match(&sim, &states, &changed, &RunDirectives::default(), at) > 1
            );
        }
    }

    #[test]
    fn resume_handles_the_first_cancel_on_a_device_without_any() {
        let sim = windowed(19, TimelineConfig::honest(EventConfig::windowed(4, 0.0)));
        let stream = arrivals(5, 61, 1.0);
        let base = RunDirectives::default();
        let states = all_states(&sim, &stream, &base);
        let at = states[states.len() / 2].horizon() + 0.01;
        let changed = RunDirectives {
            cancels: vec![(4, at)],
            ..RunDirectives::default()
        };
        assert!(assert_resumes_match(&sim, &states, &stream, &changed, at) > 1);
    }

    #[test]
    fn resume_handles_a_cancel_older_than_the_newest_checkpoint() {
        // A hedge resolve cancels its loser at the winner's finish,
        // which may precede checkpoints already taken: only states from
        // before the cancel instant may be resumed.
        let sim = windowed(23, TimelineConfig::anchored(EventConfig::windowed(4, 0.25)));
        let stream = arrivals(5, 77, 1.5);
        let base = RunDirectives {
            cancels: vec![(0, 1.0e3)],
            ..RunDirectives::default()
        };
        let states = all_states(&sim, &stream, &base);
        let at = states[states.len() / 3].horizon() + 0.01;
        assert!(at < states.last().expect("states").horizon());
        let changed = RunDirectives {
            cancels: vec![(0, 1.0e3), (2, at)],
            ..RunDirectives::default()
        };
        assert!(assert_resumes_match(&sim, &states, &stream, &changed, at) > 1);
    }

    #[test]
    fn folding_keeps_the_roll_up_bit_identical() {
        let mut whole = DeviceTimeline::default();
        let mut folded = DeviceTimeline::default();
        let mut t = 0.0;
        for i in 0..600usize {
            let kind = [SegmentKind::Decode, SegmentKind::Verify, SegmentKind::Swap][i % 3];
            let dur = 0.1 + (i % 7) as f64 * 0.037;
            let a = whole.record(t, dur, kind, i % 5 + 1);
            let b = folded.record(t, dur, kind, i % 5 + 1);
            assert_eq!(a, b, "ids agree");
            if i % 11 == 0 {
                whole.stretch(a, 0.05);
                folded.stretch(b, 0.05);
            }
            t += 0.06 + (i % 3) as f64 * 0.05;
            if i % 50 == 49 {
                // Only the newest segment may still be stretched.
                folded.fold(t.min(folded.end_of(b)));
            }
        }
        assert!(
            folded.segments().len() < 100,
            "folding drops final segments"
        );
        let (x, y) = (whole.occupancy(), folded.occupancy());
        assert_eq!(format!("{x:?}"), format!("{y:?}"));
    }

    #[test]
    fn config_presets() {
        let event = EventConfig::windowed(4, 0.0);
        let anchored = TimelineConfig::anchored(event);
        assert!(!anchored.tuning.contention && !anchored.tuning.token_joins);
        let honest = TimelineConfig::honest(event);
        assert!(honest.tuning.contention && !honest.tuning.token_joins);
        let joins = TimelineConfig::honest(event)
            .with_token_joins()
            .with_join_quantum(8);
        assert!(joins.tuning.token_joins);
        assert_eq!(joins.tuning.join_quantum, 8);
    }

    #[test]
    #[should_panic(expected = "join quantum must be at least one token")]
    fn zero_quantum_is_rejected() {
        let _ = TimelineConfig::anchored(EventConfig::windowed(4, 0.0)).with_join_quantum(0);
    }

    #[test]
    fn segment_union_handles_overlap() {
        let mut tl = DeviceTimeline::default();
        tl.record(0.0, 2.0, SegmentKind::Decode, 4);
        tl.record(1.0, 2.0, SegmentKind::Decode, 4);
        tl.record(4.0, 1.0, SegmentKind::Verify, 8);
        let occ = tl.occupancy();
        assert_eq!(occ.segments, 3);
        assert!((occ.span_secs - 5.0).abs() < 1e-12);
        assert!((occ.busy_secs - 4.0).abs() < 1e-12, "union, not sum");
        assert!((occ.decode_secs - 4.0).abs() < 1e-12);
        assert!((occ.verify_secs - 1.0).abs() < 1e-12);
        assert_eq!(occ.max_concurrency, 2);
        assert!((occ.idle_secs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn adjacent_segments_do_not_overlap() {
        let mut tl = DeviceTimeline::default();
        tl.record(0.0, 1.0, SegmentKind::Decode, 1);
        tl.record(1.0, 1.0, SegmentKind::Decode, 1);
        let occ = tl.occupancy();
        assert_eq!(occ.max_concurrency, 1);
        assert!((occ.busy_secs - 2.0).abs() < 1e-12);
    }

    #[test]
    fn stretch_extends_segment_and_rollup() {
        let mut tl = DeviceTimeline::default();
        let id = tl.record(0.0, 1.0, SegmentKind::Decode, 2);
        tl.stretch(id, 0.5);
        assert!((tl.segments()[id].end - 1.5).abs() < 1e-12);
        let occ = tl.occupancy();
        assert!((occ.stretch_secs - 0.5).abs() < 1e-12);
        assert!((occ.busy_secs - 1.5).abs() < 1e-12);
    }

    #[test]
    fn timeline_run_serves_everyone_and_records_segments() {
        let stream = arrivals(5, 41, 1.0);
        let run = TimelineServerSim::new(
            server(5, 0.9),
            8,
            SearchKind::BeamSearch,
            TimelineConfig::honest(EventConfig::windowed(4, 0.0)),
        )
        .run(&stream)
        .expect("timeline run");
        assert_eq!(run.served.len(), 5);
        assert!(run.timeline.segments > 0, "segments were recorded");
        assert!(run.timeline.busy_secs > 0.0);
        assert!(run.timeline.busy_secs <= run.timeline.span_secs + 1e-9);
        assert!(run.peak_reserved_bytes <= run.pool_bytes);
    }

    #[test]
    fn token_joins_serve_everyone_with_same_answers() {
        // Chunked decode with mid-launch joins moves clocks, never
        // outcomes: answers and accepted tokens must match the
        // iteration-granularity run exactly.
        let stream = arrivals(5, 23, 1.0);
        let event = EventConfig::windowed(4, 0.0);
        let iter_run = TimelineServerSim::new(
            server(9, 0.9),
            8,
            SearchKind::BeamSearch,
            TimelineConfig::honest(event),
        )
        .run(&stream)
        .expect("iteration run");
        let joins_run = TimelineServerSim::new(
            server(9, 0.9),
            8,
            SearchKind::BeamSearch,
            TimelineConfig::honest(event).with_token_joins(),
        )
        .run(&stream)
        .expect("joins run");
        assert_eq!(joins_run.served.len(), 5);
        for (a, b) in iter_run.served.iter().zip(&joins_run.served) {
            assert_eq!(a.outcome.answer, b.outcome.answer);
            assert_eq!(a.accepted_tokens(), b.accepted_tokens());
        }
    }

    #[test]
    fn only_token_joins_book_join_wait() {
        let stream = arrivals(5, 61, 0.5);
        let event = EventConfig::windowed(4, 0.0);
        let iter_run = TimelineServerSim::new(
            server(3, 0.9),
            8,
            SearchKind::BeamSearch,
            TimelineConfig::honest(event),
        )
        .run(&stream)
        .expect("iteration run");
        for r in &iter_run.served {
            assert_eq!(
                r.outcome.stats.breakdown().join_wait,
                0.0,
                "iteration-granularity scheduling has no chunk boundary to wait at"
            );
        }
        let joins_run = TimelineServerSim::new(
            server(3, 0.9),
            8,
            SearchKind::BeamSearch,
            TimelineConfig::honest(event)
                .with_token_joins()
                .with_join_quantum(4),
        )
        .run(&stream)
        .expect("joins run");
        let total_join_wait: f64 = joins_run
            .served
            .iter()
            .map(|r| r.outcome.stats.breakdown().join_wait)
            .sum();
        assert!(
            total_join_wait > 0.0,
            "co-batched chunk boundaries must book join waits"
        );
        for r in &joins_run.served {
            let b = r.outcome.stats.breakdown();
            assert!(b.join_wait <= b.idle + 1e-9, "join_wait is a slice of idle");
        }
    }
}
