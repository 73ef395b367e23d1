//! The co-batch window ([`EventConfig`]) and the external directives a
//! fleet router steers a device run with ([`RunDirectives`],
//! [`PrewarmPrefix`]).
//!
//! [`EventConfig`] pairs a [`BatchConfig`] with the window that decides
//! how long a launch waits for co-batch partners: `0.0` co-batches only
//! simultaneously-ready requests, a finite window trades a short wait
//! for a wider decode and fused verifier sweep, and an infinite window
//! ([`EventConfig::lockstep`]) waits for the whole in-flight set — the
//! lockstep-rounds mode. The scheduler kernel
//! ([`TimelineServerSim`](crate::TimelineServerSim)) runs every window;
//! see the `timeline` module docs for the execution model.

use crate::batch_server::BatchConfig;

/// Event-driven scheduling knobs: a request-level batching policy plus
/// the co-batch window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventConfig {
    /// The request-level policy (admission, fusion, shares, preemption).
    pub batch: BatchConfig,
    /// How long a launch may wait for co-batch partners beyond the
    /// earliest ready request, in seconds. `0.0` co-batches only
    /// simultaneously-ready requests; `f64::INFINITY` waits for
    /// everyone — the degenerate lockstep mode.
    pub window_secs: f64,
}

impl EventConfig {
    /// Event-driven scheduling of `batch` with the given co-batch
    /// window.
    pub fn new(batch: BatchConfig, window_secs: f64) -> Self {
        assert!(window_secs >= 0.0, "window must be non-negative");
        Self { batch, window_secs }
    }

    /// The full PR-4 serving policy: fused verifier sweeps and
    /// demand-proportional shares ([`BatchConfig::fused`]) scheduled at
    /// iteration granularity with the given window.
    pub fn windowed(max_batch: usize, window_secs: f64) -> Self {
        Self::new(BatchConfig::fused(max_batch), window_secs)
    }

    /// The infinite-window mode: every launch waits for all in-flight
    /// requests, so the kernel runs lockstep rounds with a round
    /// barrier (booked as `barrier_idle`).
    pub fn lockstep(batch: BatchConfig) -> Self {
        Self {
            batch,
            window_secs: f64::INFINITY,
        }
    }
}

/// A prefix published into the host tier mid-run by an external
/// director (see [`RunDirectives`]): at the first launch boundary at or
/// after `at`, `bytes` of prompt KV for problem `key` appear in the
/// tier's shared store. A fleet uses this to hand a crashed replica's
/// host-resident prompt prefix to the failover target, so the migrated
/// request warm-starts there instead of re-prefilling from scratch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrewarmPrefix {
    /// Absolute simulated time the prefix becomes available, seconds.
    pub at: f64,
    /// The problem seed the prefix belongs to.
    pub key: u64,
    /// Prompt tokens covered by the prefix.
    pub tokens: u64,
    /// Host bytes the prefix occupies.
    pub bytes: u64,
}

/// External directives applied to one kernel run
/// ([`TimelineServerSim::run_directed`](crate::TimelineServerSim::run_directed))
/// — the interface a fleet router uses to steer a device timeline it
/// does not otherwise control. Empty directives change nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunDirectives {
    /// `(arrival index, instant)`: cancel the request at the first
    /// launch boundary at or after the instant (crash failover, hedge
    /// losers). Cancelled requests reclaim everything — pool
    /// reservation, parked tier bytes — but publish no prefix; a
    /// request already finished by its instant is untouched.
    pub cancels: Vec<(usize, f64)>,
    /// Prefixes to publish into the host tier mid-run (failover
    /// warm-start handoff).
    pub prewarms: Vec<PrewarmPrefix>,
}

impl RunDirectives {
    /// Whether the directives change nothing.
    pub fn is_empty(&self) -> bool {
        self.cancels.is_empty() && self.prewarms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TimelineConfig, TimelineServerSim, TtsServer};
    use ftts_engine::ModelPairing;
    use ftts_hw::GpuDevice;
    use ftts_search::SearchKind;
    use ftts_workload::{ArrivalPattern, Dataset, RequestArrival};

    fn server(seed: u64, memory_fraction: f64) -> TtsServer {
        let mut s = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
        s.config_mut().seed = seed;
        s.config_mut().memory_fraction = memory_fraction;
        s
    }

    /// The kernel at iteration granularity (no honesty features).
    fn kernel(server: TtsServer, n: usize, config: EventConfig) -> TimelineServerSim {
        TimelineServerSim::new(
            server,
            n,
            SearchKind::BeamSearch,
            TimelineConfig::anchored(config),
        )
    }

    fn overload_arrivals(count: usize, seed: u64) -> Vec<RequestArrival> {
        let problems = Dataset::Amc2023.problems(count, seed);
        ArrivalPattern::Uniform { interval: 1.0 }.schedule(&problems, 0)
    }

    #[test]
    fn config_presets() {
        let cfg = EventConfig::windowed(8, 0.25);
        assert!(cfg.batch.fused_verify && cfg.batch.demand_shares);
        assert_eq!(cfg.window_secs, 0.25);
        let anchor = EventConfig::lockstep(BatchConfig::continuous(4));
        assert!(anchor.window_secs.is_infinite());
    }

    #[test]
    #[should_panic(expected = "window must be non-negative")]
    fn negative_window_is_rejected() {
        let _ = EventConfig::new(BatchConfig::fifo(), -1.0);
    }

    #[test]
    fn event_scheduling_serves_everyone_within_budget() {
        let arrivals = overload_arrivals(6, 41);
        let run = kernel(server(5, 0.9), 8, EventConfig::windowed(4, 0.2))
            .run(&arrivals)
            .expect("event run");
        assert_eq!(run.served.len(), 6);
        assert!(run.peak_reserved_bytes <= run.pool_bytes);
        for r in &run.served {
            assert!(r.finished_at > r.arrived_at);
        }
        // Launches outnumber lockstep rounds (groups are narrower), but
        // every request still iterates to completion.
        assert!(run.group_iters >= run.rounds);
    }

    #[test]
    fn event_scheduling_preserves_answers() {
        // Scheduling moves clocks, never outcomes: the event-driven
        // replay must answer exactly like the lockstep replay.
        let arrivals = overload_arrivals(5, 23);
        let lockstep = kernel(
            server(9, 0.9),
            8,
            EventConfig::lockstep(BatchConfig::continuous(3)),
        )
        .run(&arrivals)
        .expect("lockstep");
        let event = kernel(
            server(9, 0.9),
            8,
            EventConfig::new(BatchConfig::continuous(3), 0.1),
        )
        .run(&arrivals)
        .expect("event");
        for (l, e) in lockstep.served.iter().zip(&event.served) {
            assert_eq!(l.outcome.answer, e.outcome.answer);
            assert_eq!(l.accepted_tokens(), e.accepted_tokens());
        }
    }

    #[test]
    fn finite_window_never_books_barrier_idle() {
        let arrivals = overload_arrivals(5, 61);
        let run = kernel(server(3, 0.9), 8, EventConfig::windowed(4, 0.5))
            .run(&arrivals)
            .expect("event run");
        for r in &run.served {
            assert_eq!(
                r.outcome.stats.breakdown().barrier_idle,
                0.0,
                "event-driven scheduling has no round barrier to wait at"
            );
        }
    }
}
