//! PR-2 benchmark: continuous batching across requests, with a
//! machine-readable `BENCH_PR2.json` report.
//!
//! An overload arrival stream (offered load well above single-request
//! capacity) is replayed through three request-level scheduling
//! policies over the same server:
//!
//! 1. **FIFO batch-1** — the paper's interactive baseline
//!    (`BatchConfig::fifo`, bit-identical to `ServerSim`).
//! 2. **Gang batching** — admit up to 4 while idle, then drain.
//! 3. **Continuous batching** — up to 4 requests joined and retired
//!    mid-flight against the shared KV pool.
//!
//! The report records stream goodput (accepted tokens per second of
//! makespan), latency and queue-delay distributions, preemption
//! counts, and — via the extended criterion shim — the wall-clock
//! distribution (mean/min/variance/p50/p99) of the continuous
//! scheduler itself. The run asserts the PR's acceptance criterion:
//! under overload, continuous batching beats FIFO batch-1 on goodput.
//!
//! Run with `cargo bench --bench pr2_batching` (release profile).

use criterion::{Criterion, SampleStats};
use ftts_core::{BatchConfig, BatchRun, EventConfig, TimelineConfig, TimelineServerSim, TtsServer};
use ftts_engine::ModelPairing;
use ftts_hw::GpuDevice;
use ftts_metrics::StreamSummary;
use ftts_search::SearchKind;
use ftts_workload::{ArrivalPattern, Dataset, RequestArrival};

const REQUESTS: usize = 8;
const N_BEAMS: usize = 16;
const ARRIVAL_INTERVAL_S: f64 = 1.0;

fn server() -> TtsServer {
    let mut s = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
    s.config_mut().seed = 17;
    s
}

fn arrivals() -> Vec<RequestArrival> {
    let problems = Dataset::Amc2023.problems(REQUESTS, 29);
    ArrivalPattern::Uniform {
        interval: ARRIVAL_INTERVAL_S,
    }
    .schedule(&problems, 0)
}

fn run_policy(config: BatchConfig, arrivals: &[RequestArrival]) -> BatchRun {
    TimelineServerSim::new(
        server(),
        N_BEAMS,
        SearchKind::BeamSearch,
        TimelineConfig::anchored(EventConfig::lockstep(config)),
    )
    .run(arrivals)
    .expect("policy run")
}

fn policy_json(label: &str, run: &BatchRun) -> String {
    let s: StreamSummary = run.stream_summary();
    format!(
        r#"    "{label}": {{
      "stream_goodput_tok_per_s": {goodput:.2},
      "makespan_s": {makespan:.3},
      "total_accepted_tokens": {tokens},
      "latency_mean_s": {lat_mean:.3},
      "latency_p50_s": {lat_p50:.3},
      "latency_p95_s": {lat_p95:.3},
      "queue_delay_mean_s": {qd_mean:.3},
      "preemptions": {preemptions},
      "rounds": {rounds},
      "peak_reserved_bytes": {peak},
      "pool_bytes": {pool}
    }}"#,
        goodput = s.stream_goodput,
        makespan = s.makespan,
        tokens = s.total_accepted_tokens,
        lat_mean = s.latency.mean,
        lat_p50 = s.latency.p50,
        lat_p95 = s.latency.p95,
        qd_mean = s.queue_delay.mean,
        preemptions = run.preemptions,
        rounds = run.rounds,
        peak = run.peak_reserved_bytes,
        pool = run.pool_bytes,
    )
}

fn wall_json(stats: &SampleStats) -> String {
    format!(
        r#"  "continuous_wall_clock": {{
    "samples": {n},
    "mean_s": {mean:.6},
    "min_s": {min:.6},
    "variance_s2": {var:.9},
    "p50_s": {p50:.6},
    "p99_s": {p99:.6}
  }}"#,
        n = stats.n,
        mean = stats.mean_seconds,
        min = stats.min_seconds,
        var = stats.variance_seconds2,
        p50 = stats.p50_seconds,
        p99 = stats.p99_seconds,
    )
}

fn main() {
    let arrivals = arrivals();
    let fifo = run_policy(BatchConfig::fifo(), &arrivals);
    let gang = run_policy(BatchConfig::gang(4), &arrivals);
    let cont = run_policy(BatchConfig::continuous(4), &arrivals);

    let (f, g, c) = (
        fifo.stream_summary(),
        gang.stream_summary(),
        cont.stream_summary(),
    );
    println!("== pr2: request-level batching under overload ==");
    println!(
        "{REQUESTS} requests, n={N_BEAMS} beam search, one arrival per {ARRIVAL_INTERVAL_S:.1} s"
    );
    for (label, s) in [
        ("fifo batch-1", &f),
        ("gang batch-4", &g),
        ("continuous-4", &c),
    ] {
        println!(
            "  {label:<14} goodput {goodput:>8.1} tok/s | makespan {makespan:>7.1} s | mean latency {lat:>7.1} s | mean queue {qd:>6.1} s",
            goodput = s.stream_goodput,
            makespan = s.makespan,
            lat = s.latency.mean,
            qd = s.queue_delay.mean,
        );
    }
    let speedup = c.stream_goodput / f.stream_goodput.max(1e-12);
    println!("  continuous vs fifo goodput: {speedup:.2}x");
    assert!(
        c.stream_goodput > f.stream_goodput,
        "acceptance criterion: continuous batching must beat FIFO under overload \
         ({} vs {} tok/s)",
        c.stream_goodput,
        f.stream_goodput
    );

    // Outcome equivalence across policies: scheduling moves clocks only.
    for (a, b) in fifo.served.iter().zip(&cont.served) {
        assert_eq!(
            a.outcome.answer, b.outcome.answer,
            "answers are schedule-invariant"
        );
    }

    // Wall-clock distribution of the continuous scheduler itself, via
    // the extended criterion shim (variance + p50/p99).
    println!("\n== pr2: scheduler wall-clock (simulator hot path) ==");
    let mut criterion = Criterion::default().sample_size(15);
    let wall = criterion.bench_stats("continuous_batch4_replay", |b| {
        b.iter(|| run_policy(BatchConfig::continuous(4), &arrivals))
    });

    let json = format!(
        "{{\n  \"bench\": \"pr2_continuous_batching\",\n  \"workload\": {{\n    \"requests\": {REQUESTS},\n    \"n_beams\": {N_BEAMS},\n    \"arrival_interval_s\": {ARRIVAL_INTERVAL_S},\n    \"search\": \"beam\"\n  }},\n  \"policies\": {{\n{fifo_json},\n{gang_json},\n{cont_json}\n  }},\n  \"continuous_goodput_speedup_vs_fifo\": {speedup:.2},\n{wall}\n}}\n",
        fifo_json = policy_json("fifo_batch1", &fifo),
        gang_json = policy_json("gang_batch4", &gang),
        cont_json = policy_json("continuous_batch4", &cont),
        wall = wall_json(&wall),
    );
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR2.json");
    std::fs::write(out_path, &json).expect("write BENCH_PR2.json");
    println!("\nwrote {out_path}");
}
