//! PR-3 benchmark: cross-request verifier co-batching and
//! demand-proportional elastic KV shares, with a machine-readable
//! `BENCH_PR3.json` report.
//!
//! Two fixtures:
//!
//! 1. **Overload stream** (8 requests, one arrival per second, n = 16
//!    beam search — PR 2's fixture): the PR-2 policy
//!    (`BatchConfig::continuous(4)`, per-request verifier sweeps
//!    serialized on the shared device) against the PR-3 policy
//!    (`BatchConfig::fused(8)`: one fused verifier sweep per round plus
//!    demand-proportional shares). The run asserts the acceptance
//!    criterion — **≥ 1.15x stream goodput over PR 2's
//!    `continuous_batch4`**, identical answers — and, to attribute the
//!    win honestly, reports an equal-share/per-request-sweep
//!    `continuous(8)` control and gates the fusion itself on it: fused
//!    sweeps must collapse kernel launches (≥ 4x fewer sweeps, higher
//!    occupancy) at no goodput tax (≥ 0.98x of the control) — on this
//!    roofline, verifier prefill is compute-bound, so fusion's win is
//!    the launch collapse and the amortized weight sweep, not kernel
//!    seconds. An opt-in First Finish variant is reported alongside.
//! 2. **Asymmetric pressure** (shallow MATH-500 and deep AIME requests
//!    bursting into a tight pool): demand-proportional shares must
//!    reduce preemptions vs the equal split at the same pool size —
//!    deep searches stop starving behind shallow hoarders.
//!
//! The JSON also records verifier-sweep occupancy and per-phase goodput
//! (`ftts_metrics::StreamSummary`) and the wall-clock distribution of
//! the fused scheduler itself through the criterion shim's IQR-filtered
//! statistics.
//!
//! Run with `cargo bench --bench pr3_fused_verify` (release profile).

use criterion::{Criterion, SampleStats};
use ftts_core::{BatchConfig, BatchRun, EventConfig, TimelineConfig, TimelineServerSim, TtsServer};
use ftts_engine::ModelPairing;
use ftts_hw::GpuDevice;
use ftts_search::SearchKind;
use ftts_workload::{ArrivalPattern, Dataset, RequestArrival};

const REQUESTS: usize = 8;
const N_BEAMS: usize = 16;
const ARRIVAL_INTERVAL_S: f64 = 1.0;
const GOODPUT_TARGET: f64 = 1.15;

fn server(seed: u64, memory_fraction: f64) -> TtsServer {
    let mut s = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
    s.config_mut().seed = seed;
    s.config_mut().memory_fraction = memory_fraction;
    s
}

fn overload_arrivals() -> Vec<RequestArrival> {
    let problems = Dataset::Amc2023.problems(REQUESTS, 29);
    ArrivalPattern::Uniform {
        interval: ARRIVAL_INTERVAL_S,
    }
    .schedule(&problems, 0)
}

/// Shallow MATH-500 interleaved with deep AIME: the demand asymmetry
/// the elastic shares exploit.
fn mixed_pressure_arrivals() -> Vec<RequestArrival> {
    let shallow = Dataset::Math500.problems(2, 51);
    let deep = Dataset::Aime2024.problems(2, 51);
    let problems = vec![shallow[0], deep[0], shallow[1], deep[1]];
    ArrivalPattern::Burst { at: 0.0 }.schedule(&problems, 0)
}

fn run_policy(
    config: BatchConfig,
    arrivals: &[RequestArrival],
    n: usize,
    seed: u64,
    memory_fraction: f64,
) -> BatchRun {
    TimelineServerSim::new(
        server(seed, memory_fraction),
        n,
        SearchKind::BeamSearch,
        TimelineConfig::anchored(EventConfig::lockstep(config)),
    )
    .run(arrivals)
    .expect("policy run")
}

fn policy_json(label: &str, run: &BatchRun) -> String {
    let s = run.stream_summary();
    format!(
        r#"    "{label}": {{
      "stream_goodput_tok_per_s": {goodput:.2},
      "makespan_s": {makespan:.3},
      "total_accepted_tokens": {tokens},
      "latency_mean_s": {lat_mean:.3},
      "latency_p95_s": {lat_p95:.3},
      "queue_delay_mean_s": {qd_mean:.3},
      "generator_goodput_tok_per_s": {gen_gp:.2},
      "verifier_goodput_tok_per_s": {ver_gp:.2},
      "verifier_occupancy_seqs_per_sweep": {occ:.3},
      "verifier_sweeps": {sweeps},
      "verifier_busy_s": {busy:.3},
      "preemptions": {preemptions},
      "rounds": {rounds},
      "peak_reserved_bytes": {peak},
      "pool_bytes": {pool}
    }}"#,
        goodput = s.stream_goodput,
        makespan = s.makespan,
        tokens = s.total_accepted_tokens,
        lat_mean = s.latency.mean,
        lat_p95 = s.latency.p95,
        qd_mean = s.queue_delay.mean,
        gen_gp = s.generator_goodput,
        ver_gp = s.verifier_goodput,
        occ = s.verifier_occupancy,
        sweeps = run.ver_sweeps,
        busy = run.ver_busy_secs,
        preemptions = run.preemptions,
        rounds = run.rounds,
        peak = run.peak_reserved_bytes,
        pool = run.pool_bytes,
    )
}

fn wall_json(stats: &SampleStats) -> String {
    format!(
        r#"  "fused8_wall_clock": {{
    "samples": {n},
    "outliers_rejected": {outliers},
    "mean_s": {mean:.6},
    "min_s": {min:.6},
    "variance_s2": {var:.9},
    "p50_s": {p50:.6},
    "p99_s": {p99:.6}
  }}"#,
        n = stats.n,
        outliers = stats.outliers_rejected,
        mean = stats.mean_seconds,
        min = stats.min_seconds,
        var = stats.variance_seconds2,
        p50 = stats.p50_seconds,
        p99 = stats.p99_seconds,
    )
}

fn main() {
    // Fixture 1: the overload stream.
    let arrivals = overload_arrivals();
    let cont4 = run_policy(BatchConfig::continuous(4), &arrivals, N_BEAMS, 17, 0.9);
    let cont8 = run_policy(BatchConfig::continuous(8), &arrivals, N_BEAMS, 17, 0.9);
    let fused8 = run_policy(BatchConfig::fused(8), &arrivals, N_BEAMS, 17, 0.9);
    let first_finish = run_policy(
        BatchConfig::fused(8).with_first_finish(0.62),
        &arrivals,
        N_BEAMS,
        17,
        0.9,
    );

    println!("== pr3: cross-request verifier co-batching under overload ==");
    println!(
        "{REQUESTS} requests, n={N_BEAMS} beam search, one arrival per {ARRIVAL_INTERVAL_S:.1} s"
    );
    for (label, run) in [
        ("continuous-4 (pr2)", &cont4),
        ("continuous-8", &cont8),
        ("fused-8 (pr3)", &fused8),
        ("fused-8 + first-finish", &first_finish),
    ] {
        let s = run.stream_summary();
        println!(
            "  {label:<22} goodput {goodput:>8.1} tok/s | makespan {makespan:>6.1} s | ver sweeps {sweeps:>4} | occupancy {occ:>5.1} seq/sweep",
            goodput = s.stream_goodput,
            makespan = s.makespan,
            sweeps = run.ver_sweeps,
            occ = s.verifier_occupancy,
        );
    }
    let (c4, f8) = (cont4.stream_summary(), fused8.stream_summary());
    let speedup = f8.stream_goodput / c4.stream_goodput.max(1e-12);
    println!("  fused-8 vs continuous-4 goodput: {speedup:.3}x");
    assert!(
        speedup >= GOODPUT_TARGET,
        "acceptance criterion: fused verifier co-batching + elastic shares must deliver \
         >= {GOODPUT_TARGET}x stream goodput over PR 2's continuous_batch4 ({} vs {} tok/s)",
        f8.stream_goodput,
        c4.stream_goodput
    );
    // Gate the fusion itself against the equal-width control, not just
    // the narrower PR-2 policy: the fused sweep must collapse kernel
    // launches without taxing goodput.
    let c8 = cont8.stream_summary();
    assert!(
        f8.stream_goodput >= 0.98 * c8.stream_goodput,
        "fused sweeps must not tax the wider batch ({} vs {} tok/s)",
        f8.stream_goodput,
        c8.stream_goodput
    );
    assert!(
        fused8.ver_sweeps * 4 <= cont8.ver_sweeps,
        "one fused sweep per wave must collapse kernel launches >= 4x ({} vs {})",
        fused8.ver_sweeps,
        cont8.ver_sweeps
    );
    assert!(
        f8.verifier_occupancy > c8.verifier_occupancy,
        "fused sweeps must raise verifier occupancy"
    );
    // Co-batching and elastic shares move clocks, never outcomes.
    for (a, b) in cont4.served.iter().zip(&fused8.served) {
        assert_eq!(
            a.outcome.answer, b.outcome.answer,
            "answers are schedule-invariant"
        );
    }

    // Fixture 2: asymmetric pressure — elastic shares vs the equal split.
    let pressure = mixed_pressure_arrivals();
    let equal = run_policy(BatchConfig::continuous(4), &pressure, 24, 13, 0.295);
    let demand = run_policy(
        BatchConfig {
            demand_shares: true,
            ..BatchConfig::continuous(4)
        },
        &pressure,
        24,
        13,
        0.295,
    );
    println!("\n== pr3: demand-proportional shares under asymmetric pressure ==");
    println!(
        "  equal-share  : {} preemptions, {:.1} tok/s",
        equal.preemptions,
        equal.stream_summary().stream_goodput
    );
    println!(
        "  demand-shares: {} preemptions, {:.1} tok/s",
        demand.preemptions,
        demand.stream_summary().stream_goodput
    );
    assert!(
        equal.preemptions > 0,
        "the pressure fixture must actually preempt under equal shares"
    );
    assert!(
        demand.preemptions < equal.preemptions,
        "demand-proportional shares must reduce preemptions at the same pool size \
         ({} vs {})",
        demand.preemptions,
        equal.preemptions
    );

    // Wall-clock distribution of the fused scheduler itself (IQR-robust).
    println!("\n== pr3: scheduler wall-clock (simulator hot path) ==");
    let mut criterion = Criterion::default().sample_size(15);
    let wall = criterion.bench_stats("fused_batch8_replay", |b| {
        b.iter(|| run_policy(BatchConfig::fused(8), &arrivals, N_BEAMS, 17, 0.9))
    });

    let ff = first_finish.stream_summary();
    let json = format!(
        "{{\n  \"bench\": \"pr3_fused_verify\",\n  \"workload\": {{\n    \"requests\": {REQUESTS},\n    \"n_beams\": {N_BEAMS},\n    \"arrival_interval_s\": {ARRIVAL_INTERVAL_S},\n    \"search\": \"beam\"\n  }},\n  \"policies\": {{\n{cont4_json},\n{cont8_json},\n{fused8_json},\n{ff_json}\n  }},\n  \"fused8_goodput_speedup_vs_continuous4\": {speedup:.3},\n  \"first_finish_makespan_reduction_vs_fused8\": {ff_makespan:.3},\n  \"pressure_fixture\": {{\n    \"equal_share_preemptions\": {eq_pre},\n    \"demand_share_preemptions\": {dm_pre},\n    \"equal_share_goodput\": {eq_gp:.2},\n    \"demand_share_goodput\": {dm_gp:.2}\n  }},\n{wall}\n}}\n",
        cont4_json = policy_json("continuous_batch4", &cont4),
        cont8_json = policy_json("continuous_batch8", &cont8),
        fused8_json = policy_json("fused_batch8", &fused8),
        ff_json = policy_json("fused_batch8_first_finish", &first_finish),
        ff_makespan = f8.makespan / ff.makespan.max(1e-12),
        eq_pre = equal.preemptions,
        dm_pre = demand.preemptions,
        eq_gp = equal.stream_summary().stream_goodput,
        dm_gp = demand.stream_summary().stream_goodput,
        wall = wall_json(&wall),
    );
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR3.json");
    std::fs::write(out_path, &json).expect("write BENCH_PR3.json");
    println!("\nwrote {out_path}");
}
