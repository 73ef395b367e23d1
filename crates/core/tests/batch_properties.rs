//! Scheduler-kernel invariants under randomized arrivals, batch caps
//! and pool sizes:
//!
//! 1. KV reservations never exceed the pool budget (the `PoolBudget`
//!    ledger's high-water mark stays within the device budget).
//! 2. Every admitted request eventually completes, with causally
//!    ordered timestamps and non-empty outcomes.
//! 3. Preempted requests lose no accepted tokens (also asserted inside
//!    the scheduler at completion), and scheduling never changes
//!    *outcomes* — answers and accepted tokens match the FIFO replay of
//!    the same stream, because batching may only move clocks and
//!    memory traffic.
//! 4. At batch 1 (`BatchConfig::fifo`) the kernel reproduces the
//!    independent serial reference, `ServerSim::run`, bit for bit over
//!    random Uniform and Poisson traces — at window 0, at a finite
//!    window and in lockstep mode.

mod golden;

use ftts_core::{
    BatchConfig, EventConfig, ServerSim, TimelineConfig, TimelineServerSim, TtsServer,
};
use ftts_engine::ModelPairing;
use ftts_hw::GpuDevice;
use ftts_search::SearchKind;
use ftts_workload::{ArrivalPattern, Dataset};
use proptest::prelude::*;

fn server(seed: u64, memory_fraction: f64) -> TtsServer {
    let mut s = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
    s.config_mut().seed = seed;
    s.config_mut().memory_fraction = memory_fraction;
    s
}

/// The scheduler kernel in lockstep mode (an infinite co-batch window).
fn lockstep(server: TtsServer, n: usize, config: BatchConfig) -> TimelineServerSim {
    TimelineServerSim::new(
        server,
        n,
        SearchKind::BeamSearch,
        TimelineConfig::anchored(EventConfig::lockstep(config)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn scheduler_invariants_hold(
        count in 2usize..5,
        max_batch in 1usize..5,
        interval in prop::sample::select(vec![0.5f64, 2.0, 20.0]),
        fraction in prop::sample::select(vec![0.33f64, 0.5, 0.9]),
        n in prop::sample::select(vec![4usize, 8]),
        seed in 0u64..1000,
    ) {
        let problems = Dataset::Amc2023.problems(count, seed);
        let arrivals = ArrivalPattern::Uniform { interval }.schedule(&problems, seed);
        let batched = lockstep(server(seed, fraction), n, BatchConfig::continuous(max_batch))
        .run(&arrivals)
        .expect("batched run completes");

        // (1) The pool is never overcommitted.
        prop_assert!(batched.peak_reserved_bytes <= batched.pool_bytes);

        // (2) Everyone admitted completes, in causal order.
        prop_assert_eq!(batched.served.len(), arrivals.len());
        for (r, a) in batched.served.iter().zip(&arrivals) {
            prop_assert_eq!(r.arrived_at, a.at);
            prop_assert!(r.started_at >= r.arrived_at);
            prop_assert!(r.finished_at >= r.started_at);
            prop_assert!(!r.outcome.stats.beams.is_empty());
            prop_assert!(r.outcome.stats.decoded_tokens > 0);
            prop_assert!(r.preempted_secs >= 0.0);
        }

        // (3) Scheduling moves clocks, never outcomes: answers and
        // accepted tokens match the preemption-free FIFO replay bit for
        // bit — which is exactly what "preemption loses no accepted
        // tokens" means (FIFO never preempts, so any loss would show as
        // a token mismatch here).
        let fifo = ServerSim::new(server(seed, fraction), n, SearchKind::BeamSearch)
            .run(&arrivals)
            .expect("fifo run completes");
        for (b, f) in batched.served.iter().zip(&fifo) {
            prop_assert_eq!(b.outcome.answer, f.outcome.answer);
            prop_assert_eq!(b.accepted_tokens(), f.accepted_tokens());
            prop_assert_eq!(
                b.outcome.stats.beams.len(),
                f.outcome.stats.beams.len()
            );
        }
    }

    #[test]
    fn fifo_kernel_matches_serversim_in_every_window(
        count in 2usize..5,
        poisson in prop::sample::select(vec![false, true]),
        spacing in prop::sample::select(vec![0.5f64, 2.0, 20.0]),
        fraction in prop::sample::select(vec![0.33f64, 0.5, 0.9]),
        seed in 0u64..1000,
    ) {
        let problems = Dataset::Amc2023.problems(count, seed);
        let pattern = if poisson {
            ArrivalPattern::Poisson { rate: 1.0 / spacing }
        } else {
            ArrivalPattern::Uniform { interval: spacing }
        };
        let arrivals = pattern.schedule(&problems, seed);
        let fifo = ServerSim::new(server(seed, fraction), 8, SearchKind::BeamSearch)
            .run(&arrivals)
            .expect("fifo run completes");
        let want = golden::served_fingerprint(&fifo);
        for event in [
            EventConfig::new(BatchConfig::fifo(), 0.0),
            EventConfig::new(BatchConfig::fifo(), 0.5),
            EventConfig::lockstep(BatchConfig::fifo()),
        ] {
            let run = TimelineServerSim::new(
                server(seed, fraction),
                8,
                SearchKind::BeamSearch,
                TimelineConfig::anchored(event),
            )
            .run(&arrivals)
            .expect("kernel run completes");
            prop_assert_eq!(golden::served_fingerprint(&run.served), want);
        }
    }
}
