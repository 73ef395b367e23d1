//! Fault-injected serving: the same seeded fault storm — transient
//! kernel failures, a device slowdown window, KV-block loss — replayed
//! over an SLO-mixed overload under three policies:
//!
//! * **no handling** — blind re-execution of every faulted launch;
//! * **retry** — checkpointed retry with exponential backoff from the
//!   last committed iteration (warm KV, deterministic replay after a
//!   KV loss);
//! * **degrade** — retry plus the SLO stack: working-set-aware
//!   admission, earliest-deadline-first ordering, deadline
//!   cancellation, and graceful TTS-budget degradation that shrinks
//!   beam widths under backlog before shedding anyone.
//!
//! The storm is a `FaultPlan` — a pure function of `(seed, horizon)` —
//! so every run here is bit-reproducible.
//!
//! ```sh
//! cargo run --release --example fault_tolerance
//! ```

use fasttts::metrics::SloClass;
use fasttts::{
    ArrivalPattern, BatchConfig, Dataset, EventConfig, FaultPlan, FaultPolicy, GpuDevice,
    ModelPairing, RobustConfig, SearchKind, StormConfig, TimelineConfig, TimelineServerSim,
    TtsServer,
};

fn main() -> Result<(), fasttts::EngineError> {
    let server = || {
        let mut s = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
        s.config_mut().seed = 17;
        s.config_mut().memory_fraction = 0.9;
        s
    };

    // Nine requests at a one-second cadence, SLO classes round-robin:
    // interactive (25 s deadline), standard (50 s), batch (90 s).
    let problems = Dataset::Amc2023.problems(9, 47);
    let slos = [
        (SloClass::Interactive, 25.0),
        (SloClass::Standard, 50.0),
        (SloClass::Batch, 90.0),
    ];
    let arrivals: Vec<_> = ArrivalPattern::Uniform { interval: 1.0 }
        .schedule(&problems, 0)
        .into_iter()
        .enumerate()
        .map(|(i, a)| {
            let (class, slack) = slos[i % slos.len()];
            a.with_slo(class, slack)
        })
        .collect();

    // A deterministic storm: same seed, same faults, every time.
    let plan = FaultPlan::storm(101, 60.0, &StormConfig::default());
    println!("fault plan ({} events):", plan.events().len());
    for ev in plan.events() {
        println!("  t={:7.2}s  {:?}", ev.at, ev.kind);
    }

    println!("\npolicy comparison under the storm:");
    let mut runs = Vec::new();
    for (label, policy) in [
        ("no handling", FaultPolicy::NoHandling),
        ("retry", FaultPolicy::Retry),
        ("degrade", FaultPolicy::Degrade),
    ] {
        let cfg = BatchConfig::continuous(4).with_robust(RobustConfig::with_policy(policy));
        let run = TimelineServerSim::new(
            server(),
            16,
            SearchKind::BeamSearch,
            TimelineConfig::anchored(EventConfig::lockstep(cfg)),
        )
        .run_faulted(&arrivals, &plan)?;
        let s = run.stream_summary();
        println!(
            "  {label:<12} deadline hits {hit:>5.1}% | slo-goodput {slo:>7.1} tok/s | makespan {mk:>6.1} s | faults {kf} (retries {rt}) | kv-loss {kv} ({lost} blocks) | cancelled {cx} | beam degradations {deg}",
            hit = s.deadline_hit_rate * 100.0,
            slo = s.slo_goodput,
            mk = s.makespan,
            kf = run.kernel_faults,
            rt = run.fault_retries,
            kv = run.kv_loss_events,
            lost = run.lost_blocks,
            cx = run.cancelled,
            deg = run.degradations,
        );
        runs.push((label, run));
    }

    // Per-class view of the degrade run: interactive deadlines are
    // infeasible under this storm, so the controller sheds them early
    // instead of burning device time on work that will arrive late —
    // which is exactly what lets standard and batch traffic finish in
    // time.
    let degrade = &runs.last().expect("three runs").1;
    println!("\ndegrade policy, per SLO class:");
    let s = degrade.stream_summary();
    for class in SloClass::ALL {
        let cs = &s.per_class[class.index()];
        println!(
            "  {name:<12} {done}/{req} completed | {miss} deadline misses | {shed} shed | p50 {p50:>6.2} s | p99 {p99:>6.2} s",
            name = class.name(),
            done = cs.completed,
            req = cs.requests,
            miss = cs.deadline_misses,
            shed = cs.shed,
            p50 = cs.latency_p50,
            p99 = cs.latency_p99,
        );
    }

    // The whole point, in one line: under an identical fault schedule,
    // graceful degradation converts wasted retries into met deadlines.
    let hit = |i: usize| runs[i].1.stream_summary().deadline_hit_rate;
    assert!(hit(2) > hit(1) && hit(1) >= hit(0));
    println!(
        "\nRESULT fault_tolerance: degrade hit-rate {:.1}% vs retry {:.1}% vs no-handling {:.1}%",
        hit(2) * 100.0,
        hit(1) * 100.0,
        hit(0) * 100.0
    );
    Ok(())
}
