//! Property tests for fault-injected serving (PR 6):
//!
//! 1. **Bit-determinism**: a `(workload seed, fault plan)` pair fully
//!    determines the run — replaying it yields identical timestamps,
//!    answers and fault counters.
//! 2. **Conservation under faults**: per request, `queue_delay +
//!    breakdown.total()` still equals arrival-to-completion wall-clock
//!    — the `fault` bucket closes the books, nothing leaks.
//! 3. **No double billing**: under compute-only storms (kernel faults
//!    and slowdowns, no KV loss) with burst admission, the faulty run's
//!    busy buckets — generator, verifier, recompute, offload — are
//!    *byte-identical* to the fault-free run; every injected second
//!    lands in the `fault` bucket. Retrying from the last committed
//!    state never re-executes committed device work.

use ftts_core::{
    BatchConfig, BatchRun, EventConfig, FaultPlan, FaultPolicy, RobustConfig, StormConfig,
    TimelineConfig, TimelineServerSim, TtsServer,
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

fn run_storm(seed: u64, count: usize, storm: &StormConfig, policy: FaultPolicy) -> BatchRun {
    let problems = Dataset::Amc2023.problems(count, seed);
    let arrivals = ArrivalPattern::Burst { at: 0.0 }.schedule(&problems, 0);
    let plan = FaultPlan::storm(seed ^ 0xF0F0, 60.0, storm);
    let cfg = BatchConfig::continuous(8).with_robust(RobustConfig::with_policy(policy));
    lockstep(server(seed, 0.9), 8, cfg)
        .run_faulted(&arrivals, &plan)
        .expect("faulted run completes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn faulty_runs_are_bit_deterministic(
        count in 2usize..5,
        kernel_faults in 0usize..8,
        slowdowns in 0usize..3,
        kv_losses in 0usize..3,
        seed in 0u64..1000,
    ) {
        let storm = StormConfig {
            kernel_faults,
            slowdowns,
            kv_losses,
            ..StormConfig::default()
        };
        let a = run_storm(seed, count, &storm, FaultPolicy::Retry);
        let b = run_storm(seed, count, &storm, FaultPolicy::Retry);
        prop_assert_eq!(a.served.len(), b.served.len());
        for (x, y) in a.served.iter().zip(&b.served) {
            prop_assert_eq!(x.finished_at, y.finished_at);
            prop_assert_eq!(x.outcome.answer, y.outcome.answer);
            prop_assert_eq!(
                &x.outcome.stats.completion.breakdown,
                &y.outcome.stats.completion.breakdown
            );
            prop_assert_eq!(x.outcome.stats.decoded_tokens, y.outcome.stats.decoded_tokens);
        }
        prop_assert_eq!(a.kernel_faults, b.kernel_faults);
        prop_assert_eq!(a.fault_retries, b.fault_retries);
        prop_assert_eq!(a.kv_loss_events, b.kv_loss_events);
        prop_assert_eq!(a.lost_blocks, b.lost_blocks);
        prop_assert_eq!(a.makespan(), b.makespan());
    }

    #[test]
    fn time_is_conserved_on_faulty_runs(
        count in 2usize..5,
        kernel_faults in 1usize..8,
        kv_losses in 0usize..3,
        seed in 0u64..1000,
        policy in prop::sample::select(vec![
            FaultPolicy::NoHandling,
            FaultPolicy::Retry,
            FaultPolicy::Degrade,
        ]),
    ) {
        let storm = StormConfig {
            kernel_faults,
            kv_losses,
            ..StormConfig::default()
        };
        let run = run_storm(seed, count, &storm, policy);
        prop_assert!(run.peak_reserved_bytes <= run.pool_bytes);
        prop_assert_eq!(run.final_reserved_bytes, 0);
        for (i, r) in run.served.iter().enumerate() {
            let b = r.outcome.stats.breakdown();
            let accounted = r.queue_delay() + b.total();
            let wall = r.finished_at - r.arrived_at;
            prop_assert!(
                (accounted - wall).abs() <= 1e-9 * wall.max(1.0),
                "request {}: accounted {} != wall-clock {}",
                i, accounted, wall
            );
            prop_assert!(b.fault >= 0.0);
        }
    }

    #[test]
    fn retries_never_double_bill_device_time(
        count in 2usize..5,
        kernel_faults in 1usize..8,
        slowdowns in 0usize..3,
        seed in 0u64..1000,
    ) {
        // Compute-only storms: KV loss would perturb the recompute
        // bucket (recovery legitimately re-runs prefill), but kernel
        // faults and slowdowns must be pure `fault`-bucket time.
        let storm = StormConfig {
            kernel_faults,
            slowdowns,
            kv_losses: 0,
            ..StormConfig::default()
        };
        let clean = run_storm(seed, count, &StormConfig {
            kernel_faults: 0,
            slowdowns: 0,
            kv_losses: 0,
            ..StormConfig::default()
        }, FaultPolicy::Retry);
        let faulty = run_storm(seed, count, &storm, FaultPolicy::Retry);
        prop_assert_eq!(clean.served.len(), faulty.served.len());
        let mut injected = 0.0f64;
        for (c, f) in clean.served.iter().zip(&faulty.served) {
            let (cb, fb) = (c.outcome.stats.breakdown(), f.outcome.stats.breakdown());
            prop_assert_eq!(cb.generator, fb.generator, "generator busy time");
            prop_assert_eq!(cb.verifier, fb.verifier, "verifier busy time");
            prop_assert_eq!(cb.recompute, fb.recompute, "recompute time");
            prop_assert_eq!(cb.offload, fb.offload, "offload time");
            prop_assert_eq!(cb.fault, 0.0, "fault-free run books no fault time");
            prop_assert_eq!(c.outcome.answer, f.outcome.answer);
            prop_assert_eq!(
                c.outcome.stats.decoded_tokens,
                f.outcome.stats.decoded_tokens,
                "accepted tokens survive retries"
            );
            injected += fb.fault;
        }
        if faulty.kernel_faults > 0 {
            prop_assert!(
                injected > 0.0,
                "fired faults must book fault-bucket time"
            );
        }
    }
}
