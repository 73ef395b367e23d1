//! Anchors for the scheduler kernel's lockstep and event-driven
//! (iteration-granularity) modes, plus the idle-attribution audit.
//!
//! * **Batch 1**: `BatchConfig::fifo()` under any window must reproduce
//!   `ServerSim::run` bit-for-bit, checked live.
//! * **Infinite window** (`EventConfig::lockstep`) and **anchored
//!   windows** (`TimelineConfig::anchored`) must reproduce the frozen
//!   fingerprints of the separate lockstep and event-driven loops the
//!   kernel replaced (`golden/anchors.txt`) across policies — fused
//!   verifier sweeps, demand shares, preemption pressure, fault storms
//!   and the host tier.
//! * **Idle attribution**: per request, `queue_delay + generator +
//!   verifier + recompute + offload + idle` must equal arrival-to-
//!   completion wall-clock in every mode; `barrier_idle` is a slice of
//!   `idle` that only lockstep rounds may book — a finite window never
//!   does.

mod golden;

use ftts_core::{
    BatchConfig, BatchRun, EventConfig, FaultPlan, KvTierConfig, ServedRequest, ServerSim,
    StormConfig, TimelineConfig, TimelineServerSim, TtsServer,
};
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

/// The kernel with both honesty features off.
fn kernel(seed: u64, memory_fraction: f64, n: usize, event: EventConfig) -> TimelineServerSim {
    TimelineServerSim::new(
        server(seed, memory_fraction),
        n,
        SearchKind::BeamSearch,
        TimelineConfig::anchored(event),
    )
}

// ---------------------------------------------------------------------
// Anchor 1: batch 1 == ServerSim, bit for bit, in every window.
// ---------------------------------------------------------------------

fn check_batch1(label: &str, seed: u64, arrivals: &[RequestArrival], n: usize) {
    let fifo = ServerSim::new(server(seed, 0.9), n, SearchKind::BeamSearch)
        .run(arrivals)
        .expect("fifo run");
    // Any finite window (and the infinite one) must degenerate at batch
    // 1: groups are singletons either way.
    for window in [0.0, 0.5, f64::INFINITY] {
        let event = kernel(seed, 0.9, n, EventConfig::new(BatchConfig::fifo(), window))
            .run(arrivals)
            .expect("event run");
        assert_eq!(
            golden::served_fingerprint(&fifo),
            golden::served_fingerprint(&event.served),
            "{label} (window {window})"
        );
        assert_eq!(event.preemptions, 0);
        assert!(event.peak_reserved_bytes <= event.pool_bytes);
        for r in &event.served {
            assert_eq!(
                r.outcome.stats.breakdown().barrier_idle,
                0.0,
                "a singleton group has no one to wait for"
            );
        }
    }
}

#[test]
fn batch1_matches_serversim_on_burst() {
    let problems = Dataset::Amc2023.problems(3, 9);
    let arrivals = ArrivalPattern::Burst { at: 0.0 }.schedule(&problems, 0);
    check_batch1("burst", 0, &arrivals, 8);
}

#[test]
fn batch1_matches_serversim_on_poisson() {
    let problems = Dataset::Amc2023.problems(4, 21);
    let arrivals = ArrivalPattern::Poisson { rate: 0.05 }.schedule(&problems, 5);
    check_batch1("poisson", 3, &arrivals, 8);
}

#[test]
fn batch1_matches_serversim_on_uniform_overload() {
    let problems = Dataset::Amc2023.problems(3, 33);
    let arrivals = ArrivalPattern::Uniform { interval: 0.5 }.schedule(&problems, 0);
    check_batch1("uniform", 11, &arrivals, 8);
}

// ---------------------------------------------------------------------
// Anchor 2: infinite window == the frozen lockstep-loop golden.
// ---------------------------------------------------------------------

fn check_infinite_window(
    label: &str,
    seed: u64,
    memory_fraction: f64,
    arrivals: &[RequestArrival],
    n: usize,
    config: BatchConfig,
) -> BatchRun {
    let run = kernel(seed, memory_fraction, n, EventConfig::lockstep(config))
        .run(arrivals)
        .expect("lockstep run");
    golden::assert_golden(&format!("event_sched/lockstep/{label}"), &run);
    run
}

#[test]
fn infinite_window_matches_lockstep_continuous() {
    let problems = Dataset::Amc2023.problems(6, 41);
    let arrivals = ArrivalPattern::Uniform { interval: 1.0 }.schedule(&problems, 0);
    check_infinite_window(
        "continuous-4",
        5,
        0.9,
        &arrivals,
        8,
        BatchConfig::continuous(4),
    );
}

#[test]
fn infinite_window_matches_lockstep_fused_demand() {
    let problems = Dataset::Amc2023.problems(5, 29);
    let arrivals = ArrivalPattern::Uniform { interval: 1.0 }.schedule(&problems, 0);
    check_infinite_window("fused-8", 17, 0.9, &arrivals, 16, BatchConfig::fused(8));
}

#[test]
fn infinite_window_matches_lockstep_gang() {
    let problems = Dataset::Amc2023.problems(5, 31);
    let arrivals = ArrivalPattern::Uniform { interval: 1.0 }.schedule(&problems, 0);
    check_infinite_window("gang-3", 3, 0.9, &arrivals, 8, BatchConfig::gang(3));
}

#[test]
fn infinite_window_matches_lockstep_under_preemption_pressure() {
    // The pressure fixture: a tight pool forces swap-outs and
    // readmissions. The event loop must reproduce the preemption
    // cascade — victims, PCIe stalls, pause durations — exactly.
    let problems = Dataset::Aime2024.problems(4, 51);
    let arrivals = ArrivalPattern::Burst { at: 0.0 }.schedule(&problems, 0);
    let run = check_infinite_window(
        "pressure",
        13,
        0.30,
        &arrivals,
        24,
        BatchConfig::continuous(4),
    );
    assert!(run.preemptions > 0, "the fixture must actually preempt");
}

// ---------------------------------------------------------------------
// Idle attribution.
// ---------------------------------------------------------------------

/// `queue + decode + verifier + recompute + offload + idle` must equal
/// arrival-to-completion wall-clock for every request, under any
/// scheduler. (`barrier_idle` is inside `idle`, not a sixth bucket.)
fn assert_time_conserved(label: &str, served: &[ServedRequest]) {
    for (i, r) in served.iter().enumerate() {
        let b = r.outcome.stats.breakdown();
        let accounted = r.queue_delay() + b.total();
        let wall = r.finished_at - r.arrived_at;
        assert!(
            (accounted - wall).abs() <= 1e-9 * wall.max(1.0),
            "{label} request {i}: accounted {accounted} != wall-clock {wall}"
        );
        assert!(
            b.barrier_idle <= b.idle + 1e-12,
            "{label} request {i}: barrier idle must be a slice of idle"
        );
    }
}

#[test]
fn idle_attribution_sums_to_wall_clock_under_lockstep() {
    let problems = Dataset::Amc2023.problems(6, 41);
    let arrivals = ArrivalPattern::Uniform { interval: 1.0 }.schedule(&problems, 0);
    let run = kernel(5, 0.9, 16, EventConfig::lockstep(BatchConfig::fused(8)))
        .run(&arrivals)
        .expect("lockstep run");
    assert_time_conserved("lockstep fused-8", &run.served);
    // Multi-request lockstep rounds must actually wait at barriers —
    // the idle source event-driven scheduling drains.
    let barrier: f64 = run
        .served
        .iter()
        .map(|r| r.outcome.stats.breakdown().barrier_idle)
        .sum();
    assert!(barrier > 0.0, "lockstep rounds must book barrier idle");
}

#[test]
fn idle_attribution_sums_to_wall_clock_under_event_scheduling() {
    let problems = Dataset::Amc2023.problems(6, 41);
    let arrivals = ArrivalPattern::Uniform { interval: 1.0 }.schedule(&problems, 0);
    for window in [0.0, 0.1, 1.0] {
        let run = kernel(5, 0.9, 16, EventConfig::windowed(8, window))
            .run(&arrivals)
            .expect("event run");
        assert_time_conserved(&format!("event window {window}"), &run.served);
        // The headline attribution guarantee: no finite-window launch
        // ever waits at a round barrier.
        for r in &run.served {
            assert_eq!(
                r.outcome.stats.breakdown().barrier_idle,
                0.0,
                "event-driven scheduling never reports barrier idle"
            );
        }
    }
}

#[test]
fn preempted_requests_conserve_time_too() {
    let problems = Dataset::Aime2024.problems(4, 51);
    let arrivals = ArrivalPattern::Burst { at: 0.0 }.schedule(&problems, 0);
    let run = kernel(
        13,
        0.30,
        24,
        EventConfig::new(BatchConfig::continuous(4), 0.2),
    )
    .run(&arrivals)
    .expect("pressured event run");
    assert!(run.preemptions > 0, "fixture must preempt");
    assert_time_conserved("event under pressure", &run.served);
}

// ---------------------------------------------------------------------
// Admission-order determinism.
// ---------------------------------------------------------------------

#[test]
fn simultaneous_arrivals_admit_in_stream_order_on_both_schedulers() {
    // A burst delivers every request at t = 0: the shared tiebreak must
    // admit them in arrival-index order in lockstep and windowed modes,
    // giving identical, deterministic admission instants.
    let problems = Dataset::Amc2023.problems(5, 77);
    let arrivals = ArrivalPattern::Burst { at: 0.0 }.schedule(&problems, 0);
    let lockstep = kernel(2, 0.9, 8, EventConfig::lockstep(BatchConfig::continuous(3)))
        .run(&arrivals)
        .expect("lockstep");
    let event = kernel(2, 0.9, 8, EventConfig::new(BatchConfig::continuous(3), 0.1))
        .run(&arrivals)
        .expect("event");
    for run in [&lockstep, &event] {
        // The first `max_batch` requests admit at t = 0 in stream
        // order; the rest queue behind them, also in stream order.
        assert!(run
            .served
            .windows(2)
            .all(|w| w[0].started_at <= w[1].started_at));
        for r in &run.served[..3] {
            assert_eq!(r.started_at, 0.0, "first wave admits at the burst");
        }
        for r in &run.served[3..] {
            assert!(r.queue_delay() > 0.0, "overflow waits for capacity");
        }
    }
}

// ---------------------------------------------------------------------
// Anchor 3: anchored windows == the frozen event-loop goldens; the
// timeline records segments purely as an observer.
// ---------------------------------------------------------------------

fn check_timeline_anchor(
    label: &str,
    seed: u64,
    memory_fraction: f64,
    arrivals: &[RequestArrival],
    n: usize,
    event: EventConfig,
    plan: &FaultPlan,
) {
    let run = kernel(seed, memory_fraction, n, event)
        .run_faulted(arrivals, plan)
        .expect("timeline run");
    golden::assert_golden(&format!("event_sched/anchored/{label}"), &run);
    assert!(
        run.timeline.segments > 0,
        "{label}: the observer records segments"
    );
    assert_eq!(
        run.timeline.stretch_secs, 0.0,
        "{label}: anchored mode never stretches"
    );
}

#[test]
fn timeline_anchored_matches_event_fault_free() {
    let problems = Dataset::Amc2023.problems(6, 41);
    let arrivals = ArrivalPattern::Uniform { interval: 1.0 }.schedule(&problems, 0);
    for window in [0.0, 0.1, 1.0] {
        check_timeline_anchor(
            &format!("window-{window}"),
            5,
            0.9,
            &arrivals,
            16,
            EventConfig::windowed(8, window),
            &FaultPlan::none(),
        );
    }
}

#[test]
fn timeline_anchored_matches_event_under_fault_storm() {
    let problems = Dataset::Amc2023.problems(5, 29);
    let arrivals = ArrivalPattern::Uniform { interval: 1.0 }.schedule(&problems, 0);
    let plan = FaultPlan::storm(0xBEEF, 80.0, &StormConfig::default());
    check_timeline_anchor(
        "faulted",
        17,
        0.9,
        &arrivals,
        16,
        EventConfig::windowed(8, 0.1),
        &plan,
    );
}

#[test]
fn timeline_anchored_matches_event_with_host_tier() {
    // The PR-7 pressure fixture: a tight pool plus an enabled host
    // tier, so preemption swap-downs, parks and warm readmissions all
    // exercise identically through the timeline loop.
    let problems = Dataset::Aime2024.problems(4, 51);
    let arrivals = ArrivalPattern::Burst { at: 0.0 }.schedule(&problems, 0);
    let tiered = BatchConfig::continuous(4).with_tier(KvTierConfig::with_capacity(1 << 30));
    check_timeline_anchor(
        "tiered",
        13,
        0.30,
        &arrivals,
        24,
        EventConfig::new(tiered, 0.2),
        &FaultPlan::none(),
    );
}

// ---------------------------------------------------------------------
// Honest-mode attribution: contention joins the conservation identity,
// join waits stay a slice of idle.
// ---------------------------------------------------------------------

#[test]
fn honest_timeline_conserves_time_and_prices_overlap() {
    let problems = Dataset::Amc2023.problems(6, 41);
    let arrivals = ArrivalPattern::Uniform { interval: 0.5 }.schedule(&problems, 0);
    let event = EventConfig::windowed(6, 0.0);
    let honest = TimelineServerSim::new(
        server(5, 0.9),
        16,
        SearchKind::BeamSearch,
        TimelineConfig::honest(event),
    )
    .run(&arrivals)
    .expect("honest run");
    assert_time_conserved("honest timeline", &honest.served);
    let stretched: f64 = honest
        .served
        .iter()
        .map(|r| r.outcome.stats.breakdown().contention)
        .sum();
    assert!(
        stretched > 0.0,
        "window-0 overlap under load must book contention stretch"
    );
    assert!(
        honest.timeline.stretch_secs > 0.0,
        "segments already on the timeline must stretch retroactively"
    );
    // The iteration-granularity reference books none.
    let anchored = TimelineServerSim::new(
        server(5, 0.9),
        16,
        SearchKind::BeamSearch,
        TimelineConfig::anchored(event),
    )
    .run(&arrivals)
    .expect("anchored run");
    for r in &anchored.served {
        assert_eq!(r.outcome.stats.breakdown().contention, 0.0);
    }
}

#[test]
fn token_join_timeline_conserves_time() {
    let problems = Dataset::Amc2023.problems(6, 41);
    let arrivals = ArrivalPattern::Uniform { interval: 0.5 }.schedule(&problems, 0);
    let joins = TimelineServerSim::new(
        server(5, 0.9),
        16,
        SearchKind::BeamSearch,
        TimelineConfig::honest(EventConfig::windowed(6, 0.0))
            .with_token_joins()
            .with_join_quantum(8),
    )
    .run(&arrivals)
    .expect("joins run");
    assert_time_conserved("token-join timeline", &joins.served);
    for r in &joins.served {
        let b = r.outcome.stats.breakdown();
        assert!(
            b.join_wait <= b.idle + 1e-9,
            "join_wait must stay a slice of idle"
        );
    }
}
