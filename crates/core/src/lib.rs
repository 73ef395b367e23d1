//! **FastTTS** — a serving system that makes verifier-guided Test-Time
//! Scaling practical on memory-constrained edge devices.
//!
//! This crate is the paper's primary contribution, layered on the
//! `ftts-engine` substrate as three synergistic optimizations plus a
//! plug-and-play serving facade:
//!
//! * **Speculative Beam Extension (S)** — configured via
//!   [`SpecConfig`]: idle GPU slots left by straggler reasoning paths are
//!   filled with speculative future steps, prioritized by SelectSPEC
//!   score bins, with LookAhead Verification piggybacking completed
//!   continuations onto the current verifier pass (Sec. 4.1).
//! * **Dynamic Prefix-Aware Scheduling (P)** — [`PrefixAwareOrder`]
//!   greedily orders the frontier to maximize consecutive shared
//!   prefixes, minimizing KV-cache evictions (Sec. 4.2, Appendix A).
//!   [`WorstCaseOrder`] is the adversarial ablation baseline.
//! * **Asymmetric Multi-Model Memory Allocation (M)** —
//!   [`RooflinePlanner`] runs the paper's linear search over verifier
//!   batch sizes to find the KV split minimizing total iteration time,
//!   and extends the search space with KV offloading when memory is
//!   extremely constrained (Sec. 4.3).
//!
//! [`TtsServer`] bundles it all: `TtsServer::fasttts(...)` serves with
//! every optimization on; `TtsServer::vllm_baseline(...)` reproduces the
//! paper's baseline (two statically-sized vLLM instances, FIFO
//! scheduling, no speculation). [`AblationFlags`] selects any subset for
//! the Fig. 16/18 breakdowns.
//!
//! # Serving request streams
//!
//! [`ServerSim`] replays an arrival stream FIFO at batch size 1 with
//! two-phase preemptive speculation (Sec. 4.1.2); it is the independent
//! serial reference. [`TimelineServerSim`] is the scheduler kernel: one
//! loop that serves a stream over one shared accelerator and KV pool,
//! recording every kernel launch on a global [`DeviceTimeline`]. Its
//! modes are configuration, not types:
//!
//! * the request policy, [`BatchConfig`]: `fifo` (batch 1,
//!   bit-identical to [`ServerSim`]), `gang`, `continuous` and `fused`
//!   (mid-flight admission, cross-request fused verifier sweeps,
//!   demand-proportional KV shares, vLLM-style preemption), plus the
//!   fault/SLO ([`RobustConfig`]), host-tier ([`KvTierConfig`]) and
//!   tenant ([`TenantPolicy`]) policies;
//! * the co-batch window, [`EventConfig`]: `lockstep` (infinite window:
//!   lockstep rounds with a barrier) or a finite window (event-driven,
//!   iteration-granularity scheduling);
//! * the honesty features, [`TimelineTuning`] (a [`TimelineConfig`] is
//!   an event policy plus a tuning): `anchored` (the timeline only
//!   observes), `honest` (retroactive contention pricing) and token
//!   joins (arrivals join the running decode batch at chunk
//!   boundaries).
//!
//! See `timeline`'s module docs for the execution model and its
//! equivalence anchors. [`FleetSim`] runs one kernel per device behind a
//! router with crash failover and hedging.
//!
//! For evaluation at scale, [`ServerSim::run_parallel`] replays
//! independent request streams across OS threads on [`parallel_map`],
//! with results guaranteed (and tested) bit-identical to sequential
//! execution thanks to the stack's stable-key deterministic seeding.
//! See `sweep`'s module docs for the exact determinism rules.
//!
//! # Quickstart
//!
//! ```
//! use ftts_core::TtsServer;
//! use ftts_engine::ModelPairing;
//! use ftts_hw::GpuDevice;
//! use ftts_search::SearchKind;
//! use ftts_workload::Dataset;
//!
//! let problem = Dataset::Aime2024.problems(1, 7)[0];
//! let server = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
//! let outcome = server.serve(&problem, 16, SearchKind::BeamSearch)?;
//! assert!(outcome.goodput() > 0.0);
//! # Ok::<(), ftts_engine::EngineError>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod batch_server;
mod eval;
mod event_server;
mod faults;
mod fingerprint;
mod fleet;
mod memalloc;
mod prefix_sched;
mod server;
mod sweep;
mod tenant;
mod timeline;

pub use batch_server::{BatchConfig, BatchRun};
pub use eval::{evaluate, EvalConfig, EvalSummary};
pub use event_server::{EventConfig, PrewarmPrefix, RunDirectives};
pub use faults::{
    degraded_beams, FaultEvent, FaultKind, FaultPlan, FaultPolicy, RobustConfig, StormConfig,
};
pub use fingerprint::served_fingerprint;
pub use fleet::{DeviceInput, FleetConfig, FleetRun, FleetSim, HedgeConfig, RoutePolicy};
pub use ftts_engine::{
    EngineError, RequestRun, RunPhase, SpecConfig, StepStatus, VerifyCharge, VerifyChunk,
};
pub use ftts_kv::{HostTier, KvTierConfig, TierStats};
pub use memalloc::RooflinePlanner;
pub use prefix_sched::{PrefixAwareOrder, WorstCaseOrder};
pub use server::{AblationFlags, ServeOutcome, ServedRequest, ServerSim, TtsServer};
pub use sweep::parallel_map;
pub use tenant::{TenantPolicy, TenantSpec, MAX_TENANTS};
pub use timeline::{
    DeviceTimeline, Segment, SegmentKind, TimelineConfig, TimelineServerSim, TimelineTuning,
};
