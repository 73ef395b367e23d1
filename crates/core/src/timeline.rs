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
//! window) and two honesty features.
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
//! * **Retroactive contention** ([`TimelineConfig::contention`]): when
//!   a launch admits *new* device load (fresh arrivals or readmitted
//!   runs), every in-flight iteration it overlaps is stretched by the
//!   marginal co-batch slowdown over its remaining seconds
//!   ([`ftts_engine::RequestRun::contention_stretch`]), and the
//!   iteration's segment already on the timeline is stretched with it.
//!   Without it, overlapping a busy device is free for the requests
//!   already on it, and window 0 looks nearly as good as an oracle.
//! * **Token-granularity joins** ([`TimelineConfig::token_joins`]):
//!   the generation phase runs as chunked sub-iterations
//!   ([`ftts_engine::RequestRun::plan_decode_chunk`] /
//!   [`ftts_engine::RequestRun::apply_decode_chunk`]) capped at
//!   [`TimelineConfig::join_quantum`] tokens. All co-batched members
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
//! # Anchors
//!
//! Batch 1 is checked live against `ServerSim::run` in
//! `crates/core/tests/batch_lockstep.rs` and `event_sched.rs`. The
//! lockstep and windowed modes are pinned to fingerprints frozen from
//! the separate lockstep and event-driven loops this kernel replaced
//! (`crates/core/tests/golden/`), and random fifo traces are checked
//! against `ServerSim` in `crates/core/tests/batch_properties.rs`.

use std::collections::VecDeque;

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

/// The global per-device kernel timeline: every launch the scheduler
/// commits lands here as a [`Segment`] on one shared clock, and
/// segments already recorded can be retroactively stretched when a
/// later launch overlaps them.
#[derive(Debug, Clone, Default)]
pub struct DeviceTimeline {
    segments: Vec<Segment>,
    stretch_secs: f64,
}

impl DeviceTimeline {
    /// Record a segment; returns its id for later
    /// [`DeviceTimeline::stretch`] calls.
    pub fn record(&mut self, start: f64, duration: f64, kind: SegmentKind, seqs: usize) -> usize {
        assert!(start.is_finite(), "segment start must be finite");
        assert!(duration >= 0.0, "segment duration must be non-negative");
        self.segments.push(Segment {
            start,
            end: start + duration,
            kind,
            seqs,
        });
        self.segments.len() - 1
    }

    /// Retroactively stretch segment `id` by `extra` seconds — a later
    /// launch overlapped it and slowed its kernel. Stretch never
    /// shrinks a segment.
    pub fn stretch(&mut self, id: usize, extra: f64) {
        assert!(extra >= 0.0, "stretch never shrinks a segment");
        self.segments[id].end += extra;
        self.stretch_secs += extra;
    }

    /// The recorded segments, in record order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Total retroactive stretch applied so far, seconds.
    pub fn stretch_secs(&self) -> f64 {
        self.stretch_secs
    }

    /// Roll the timeline up into occupancy statistics: span, per-kind
    /// busy sums, the overlap-aware busy union and the peak overlap
    /// depth.
    pub fn occupancy(&self) -> TimelineOccupancy {
        if self.segments.is_empty() {
            return TimelineOccupancy::default();
        }
        let mut occ = TimelineOccupancy {
            segments: self.segments.len() as u64,
            stretch_secs: self.stretch_secs,
            ..Default::default()
        };
        let mut first = f64::INFINITY;
        let mut last = f64::NEG_INFINITY;
        let mut events: Vec<(f64, i32)> = Vec::with_capacity(self.segments.len() * 2);
        for s in &self.segments {
            let dur = s.end - s.start;
            match s.kind {
                SegmentKind::Decode => occ.decode_secs += dur,
                SegmentKind::Verify => occ.verify_secs += dur,
                SegmentKind::Swap => occ.swap_secs += dur,
            }
            first = first.min(s.start);
            last = last.max(s.end);
            events.push((s.start, 1));
            events.push((s.end, -1));
        }
        occ.span_secs = (last - first).max(0.0);
        // Sweep the interval union; at equal instants ends close before
        // starts open, so back-to-back segments never count as overlap.
        events.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("finite segment bounds")
                .then(a.1.cmp(&b.1))
        });
        let mut depth = 0i32;
        let mut max_depth = 0i32;
        let mut open_at = 0.0f64;
        for (t, d) in events {
            if depth == 0 && d > 0 {
                open_at = t;
            }
            depth += d;
            if depth == 0 {
                occ.busy_secs += t - open_at;
            }
            max_depth = max_depth.max(depth);
        }
        occ.max_concurrency = max_depth.max(0) as u32;
        occ
    }
}

/// Global-timeline scheduling knobs: the event-driven policy plus the
/// two honesty features layered on top of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineConfig {
    /// The event-driven policy (batching, window, admission, shares,
    /// preemption) the timeline scheduler inherits wholesale.
    pub event: EventConfig,
    /// Price cross-launch decode overlap: a launch admitting new device
    /// load retroactively stretches every in-flight iteration it
    /// overlaps by the marginal co-batch slowdown.
    pub contention: bool,
    /// Run generation as chunked sub-iterations and admit arrivals into
    /// the running decode batch at chunk boundaries.
    pub token_joins: bool,
    /// Max decode tokens per sequence between join boundaries (ignored
    /// unless [`TimelineConfig::token_joins`] is set). Smaller quanta
    /// give arrivals earlier joins at the price of more `join_wait`
    /// synchronization among co-batched members.
    pub join_quantum: u64,
}

impl TimelineConfig {
    /// Both honesty features off: iteration-granularity scheduling of
    /// `event`, with the timeline recording segments only as an
    /// observer.
    pub fn anchored(event: EventConfig) -> Self {
        Self {
            event,
            contention: false,
            token_joins: false,
            join_quantum: 16,
        }
    }

    /// Honest iteration-granularity scheduling: retroactive contention
    /// on, token joins off.
    pub fn honest(event: EventConfig) -> Self {
        Self {
            contention: true,
            ..Self::anchored(event)
        }
    }

    /// Enable token-granularity decode joins (keeps the current
    /// contention setting).
    pub fn with_token_joins(mut self) -> Self {
        self.token_joins = true;
        self
    }

    /// Override the join quantum (decode tokens per sequence between
    /// chunk boundaries).
    pub fn with_join_quantum(mut self, quantum: u64) -> Self {
        assert!(quantum >= 1, "join quantum must be at least one token");
        self.join_quantum = quantum;
        self
    }
}

/// The honesty-feature subset of [`TimelineConfig`] — what a fleet
/// attaches to its per-device scheduling policy (the event policy is
/// specified once at the fleet level and shared by every replica).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineTuning {
    /// See [`TimelineConfig::contention`].
    pub contention: bool,
    /// See [`TimelineConfig::token_joins`].
    pub token_joins: bool,
    /// See [`TimelineConfig::join_quantum`].
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
            token_joins: false,
            join_quantum: 16,
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
            contention: self.contention,
            token_joins: self.token_joins,
            join_quantum: self.join_quantum,
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
            config.join_quantum >= 1,
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
    #[allow(clippy::too_many_lines)]
    pub fn run_directed(
        &self,
        arrivals: &[RequestArrival],
        plan: &FaultPlan,
        directives: &RunDirectives,
    ) -> Result<BatchRun, EngineError> {
        debug_assert!(
            arrivals.windows(2).all(|w| w[0].at <= w[1].at),
            "arrival times must be non-decreasing"
        );
        let batch = &self.config.event.batch;
        let window = self.config.event.window_secs;
        let lockstep = window.is_infinite();
        let pool_bytes = self.server.config().kv_budget_bytes();
        let device = self.server.config().device.clone();
        let gen_bpt = self.server.config().models.gen_spec.kv_bytes_per_token();
        let mut pool = PoolBudget::new(pool_bytes);
        if let Some(policy) = batch.tenants {
            for spec in policy.specs() {
                pool.set_tenant_cap(u64::from(spec.id), spec.kv_cap_bytes);
            }
        }
        let mut tier = HostTier::new(batch.tier);
        // Earliest instant the next launch may happen: raised by
        // preemption PCIe transfers, by completions that drain the
        // device, and (in lockstep mode) by every launch's round end.
        let mut floor = 0.0f64;
        // Latest completion instant seen — the device-drained floor.
        let mut finish_max = 0.0f64;
        let mut next_arrival = 0usize;
        let mut waiting: VecDeque<usize> = VecDeque::new();
        let mut paused: VecDeque<InFlight> = VecDeque::new();
        let mut active: Vec<InFlight> = Vec::new();
        let mut served: Vec<Option<ServedRequest>> = (0..arrivals.len()).map(|_| None).collect();
        let mut admit_seq = 0u64;
        let mut rounds = 0u64;
        let mut group_iters = 0u64;
        let mut preemptions = 0u32;
        let mut ver_sweeps = 0u64;
        let mut ver_seqs = 0u64;
        let mut ver_busy_secs = 0.0f64;
        let mut cursor = FaultCursor::default();
        let mut kernel_faults = 0u32;
        let mut fault_retries = 0u32;
        let mut kv_loss_events = 0u32;
        let mut lost_blocks = 0u64;
        let mut shed = 0u32;
        let mut cancelled = 0u32;
        let mut degradations = 0u32;
        let mut tier_dropped = 0u64;
        // Directed cancels: earliest instant per arrival index (∞ =
        // never), applied at launch boundaries like deadline sweeps.
        let has_cancels = !directives.cancels.is_empty();
        let mut cancel_at = vec![f64::INFINITY; arrivals.len()];
        for &(idx, t) in &directives.cancels {
            assert!(idx < arrivals.len(), "cancel index out of range");
            cancel_at[idx] = cancel_at[idx].min(t);
        }
        let mut prewarms = directives.prewarms.clone();
        prewarms.sort_by(|a, b| a.at.partial_cmp(&b.at).expect("finite prewarm times"));
        let mut prewarm_next = 0usize;
        // The global device timeline; each in-flight request carries
        // its latest decode segment (`InFlight::last_seg`), the stretch
        // target when a later launch overlaps its iteration.
        let mut timeline = DeviceTimeline::default();

        loop {
            // Next decision instant: the earliest ready request, or the
            // next arrival.
            let next_ready = active
                .iter()
                .map(InFlight::ready_at)
                .fold(f64::INFINITY, f64::min);
            let next_arr = arrivals.get(next_arrival).map_or(f64::INFINITY, |a| a.at);

            if active.is_empty() {
                floor = floor.max(finish_max);
                if waiting.is_empty() && paused.is_empty() {
                    if next_arrival >= arrivals.len() {
                        break; // everything served
                    }
                    floor = floor.max(next_arr);
                }
            }

            // Anchor: the earliest instant a new co-batch can launch. A
            // pending arrival anchors its own launch only when mid-flight
            // admission could take it; otherwise it is ingested when the
            // next ready-driven launch forms.
            let arrival_anchor = next_arr.max(floor);
            let consider_arrival = batch.admit_mid_flight
                && active.len() < batch.max_batch
                && arrival_anchor < next_ready;
            let anchor = if active.is_empty() {
                floor
            } else if consider_arrival {
                arrival_anchor
            } else {
                next_ready
            };

            // Group: every in-flight request ready inside the window. The
            // partition is stable, so the group keeps admission order
            // (the order shares resize and unfused sweeps serialize in).
            let horizon = anchor + window;
            let mut group: Vec<InFlight> = Vec::new();
            let mut rest: Vec<InFlight> = Vec::new();
            for a in active.drain(..) {
                if a.ready_at() <= horizon {
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
                .fold(anchor.max(floor), f64::max);
            for a in &mut group {
                if lockstep {
                    admission::pad_to_barrier(a, launch);
                } else {
                    admission::pad_to(a, launch);
                }
            }

            while next_arrival < arrivals.len() && arrivals[next_arrival].at <= launch {
                waiting.push_back(next_arrival);
                next_arrival += 1;
            }
            let ctx = SchedCtx {
                server: &self.server,
                n: self.n,
                kind: self.kind,
                config: batch,
            };
            while prewarm_next < prewarms.len() && prewarms[prewarm_next].at <= launch {
                let p = prewarms[prewarm_next];
                tier.publish_prefix(p.key, p.tokens, p.bytes);
                prewarm_next += 1;
            }
            if has_cancels {
                let sweep = admission::apply_cancels(
                    batch,
                    &cancel_at,
                    launch,
                    arrivals,
                    &mut waiting,
                    &mut paused,
                    &mut group,
                    &mut rest,
                    &mut pool,
                    &mut tier,
                    &mut served,
                );
                shed += sweep.shed;
                cancelled += sweep.cancelled;
            }
            let sweep = admission::enforce_slo(
                &ctx,
                launch,
                pool_bytes,
                arrivals,
                &mut waiting,
                &mut paused,
                &mut group,
                &mut rest,
                &mut pool,
                &mut tier,
                &mut served,
            );
            shed += sweep.shed;
            cancelled += sweep.cancelled;
            // Admission only appends to the group, so `group[before..]`
            // is the device load this launch adds.
            let before = group.len();
            let report = admission::admit(
                &ctx,
                &mut group,
                &mut rest,
                &mut paused,
                &mut waiting,
                &mut pool,
                &mut tier,
                arrivals,
                launch,
                &mut admit_seq,
            )?;
            degradations += report.degradations;
            if report.admitted && admission::elastic(batch) {
                admission::rebalance_elastic(batch, &mut group, &mut rest, &mut pool);
            }
            // Retroactive contention on the bystanders this launch
            // overlaps. (With an infinite window the rest is always
            // empty — lockstep mode needs no special case.)
            if self.config.contention && report.admitted {
                stretch_bystanders(&group[before..], &mut rest, launch, &mut timeline);
            }

            if group.is_empty() && rest.is_empty() {
                if waiting.is_empty() && paused.is_empty() {
                    continue; // idle to the next arrival (or done)
                }
                let p = paused.front().expect("paused candidate");
                let (needed, capacity) = p.run.kv_demand();
                return Err(EngineError::PathExceedsMemory { needed, capacity });
            }
            if group.is_empty() {
                active = rest;
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
                let bytes = if tier.enabled() {
                    let (swapped, dropped) = v.run.preempt_capped(tier.available_bytes());
                    tier.park(v.idx as u64, swapped);
                    tier_dropped += dropped;
                    swapped
                } else {
                    v.run.preempt()
                };
                let swap_start = launch;
                launch += device.pcie_transfer_seconds(bytes);
                if launch > swap_start {
                    timeline.record(swap_start, launch - swap_start, SegmentKind::Swap, 1);
                }
                pool.release(v.idx as u64);
                v.preemptions += 1;
                preemptions += 1;
                v.paused_at = launch;
                v.probe = None;
                paused.push_back(v);
                admission::reshare(batch, &mut group, &mut rest, &mut pool);
            }
            // The launch (with any preemption PCIe time) is committed
            // device time: later launches never precede it.
            floor = floor.max(launch);
            if group.is_empty() {
                active = rest;
                continue;
            }

            rounds += 1;
            group_iters += group.len() as u64;
            let alone =
                group.len() == 1 && rest.is_empty() && waiting.is_empty() && paused.is_empty();
            let next_at = arrivals.get(next_arrival).map(|a| a.at);
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
            if self.config.token_joins {
                planned = vec![true; group.len()];
                let mut gen_done: Vec<bool> = group.iter().map(|a| a.run.is_finished()).collect();
                for (i, done) in gen_done.iter().enumerate() {
                    if *done {
                        planned[i] = false;
                    }
                }
                let quantum = self.config.join_quantum;
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
                        && waiting.is_empty()
                        && paused.is_empty();
                    let chunk_next_at = arrivals.get(next_arrival).map(|a| a.at);
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
                            let id = timeline.record(
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
                    // instead of waiting out the whole launch.
                    while next_arrival < arrivals.len() && arrivals[next_arrival].at <= boundary {
                        waiting.push_back(next_arrival);
                        next_arrival += 1;
                    }
                    if group.len() + rest.len() < batch.max_batch
                        && !(waiting.is_empty() && paused.is_empty())
                    {
                        let before = group.len();
                        let report = admission::admit(
                            &ctx,
                            &mut group,
                            &mut rest,
                            &mut paused,
                            &mut waiting,
                            &mut pool,
                            &mut tier,
                            arrivals,
                            boundary,
                            &mut admit_seq,
                        )?;
                        degradations += report.degradations;
                        if group.len() > before {
                            group_iters += (group.len() - before) as u64;
                            for _ in before..group.len() {
                                gen_done.push(false);
                                planned.push(true);
                            }
                            if self.config.contention {
                                stretch_bystanders(
                                    &group[before..],
                                    &mut rest,
                                    boundary,
                                    &mut timeline,
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
                    if seg_end > seg_start {
                        let id = timeline.record(
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
            ver_sweeps += sweep.sweeps;
            ver_seqs += sweep.seqs;
            ver_busy_secs += sweep.busy_secs;
            if sweep.busy_secs > 0.0 {
                let verify_start = group
                    .iter()
                    .map(|a| a.started_at + a.run.clock())
                    .fold(f64::INFINITY, f64::min);
                timeline.record(
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
                let mut done = status.is_finished();
                if !done && batch.first_finish && a.run.first_finish_cut(batch.first_finish_bar) {
                    done = true;
                }
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
            let faults = LaunchFaults::at(&mut cursor, plan, &batch.robust, launch);
            if faults.fired() {
                kernel_faults += faults.kernel_faults;
                fault_retries += faults.retries;
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
                    kv_loss_events += faults.kv_losses;
                    for a in group.iter_mut().chain(rest.iter_mut()) {
                        lost_blocks += a.run.lose_device_kv();
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
                floor = floor.max(round_end);
            }

            // Completions leave at their own finish instant and offer
            // their prompt prefix to the host tier's shared store.
            for &i in finished.iter().rev() {
                let a = group.remove(i);
                pool.release(a.idx as u64);
                let prompt_tokens = arrivals[a.idx].problem.prompt_tokens;
                tier.publish_prefix(
                    arrivals[a.idx].problem.seed,
                    prompt_tokens,
                    prompt_tokens.saturating_mul(gen_bpt),
                );
                let stats = a.run.finish();
                let answer = ftts_metrics::top1_majority(&stats.answers());
                let finished_at = a.started_at + stats.latency();
                finish_max = finish_max.max(finished_at);
                served[a.idx] = Some(ServedRequest {
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
                });
            }

            if !(group.is_empty() && rest.is_empty()) {
                if !finished.is_empty() {
                    admission::reshare(batch, &mut group, &mut rest, &mut pool);
                } else if admission::elastic(batch) && admission::demand_drifted(&group, &rest) {
                    admission::rebalance_elastic(batch, &mut group, &mut rest, &mut pool);
                }
            }

            // Survivors rejoin the in-flight set in admission order.
            rest.append(&mut group);
            active = rest;
            active.sort_by_key(|a| a.admit_seq);
        }

        Ok(BatchRun {
            served: served
                .into_iter()
                .map(|r| r.expect("every request served"))
                .collect(),
            rounds,
            group_iters,
            preemptions,
            peak_reserved_bytes: pool.peak_reserved_bytes(),
            pool_bytes,
            ver_sweeps,
            ver_seqs,
            ver_busy_secs,
            kernel_faults,
            fault_retries,
            kv_loss_events,
            lost_blocks,
            shed,
            cancelled,
            degradations,
            final_reserved_bytes: pool.reserved_bytes(),
            kv_tier_hits: tier.stats().prefix_hits,
            kv_tier_demotions: tier.stats().demotions,
            kv_tier_parked_bytes: tier.stats().parked_bytes,
            kv_tier_dropped_bytes: tier_dropped + tier.stats().overflow_dropped_bytes,
            kv_tier_unparked_bytes: tier.stats().unparked_bytes,
            tenant_peak_bytes: pool
                .tenant_peaks()
                .into_iter()
                .map(|(t, b)| (t as u32, b))
                .collect(),
            timeline: timeline.occupancy(),
        })
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

    #[test]
    fn config_presets() {
        let event = EventConfig::windowed(4, 0.0);
        let anchored = TimelineConfig::anchored(event);
        assert!(!anchored.contention && !anchored.token_joins);
        let honest = TimelineConfig::honest(event);
        assert!(honest.contention && !honest.token_joins);
        let joins = TimelineConfig::honest(event)
            .with_token_joins()
            .with_join_quantum(8);
        assert!(joins.token_joins);
        assert_eq!(joins.join_quantum, 8);
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
