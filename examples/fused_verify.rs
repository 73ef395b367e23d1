//! Cross-request verifier co-batching and demand-proportional KV
//! shares: serve one overload stream under the PR-2 policy (per-request
//! verifier sweeps, equal shares) and the PR-3 policy (one fused
//! verifier sweep per round, elastic demand-proportional shares), then
//! an opt-in First Finish run that trades sibling beams for stream
//! completion time.
//!
//! Run with `cargo run --release --example fused_verify`.

use ftts_core::{BatchConfig, EventConfig, TimelineConfig, TimelineServerSim, TtsServer};
use ftts_engine::ModelPairing;
use ftts_hw::GpuDevice;
use ftts_search::SearchKind;
use ftts_workload::{ArrivalPattern, Dataset};

fn main() {
    let mut server = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
    server.config_mut().seed = 17;
    let problems = Dataset::Amc2023.problems(6, 29);
    let arrivals = ArrivalPattern::Uniform { interval: 1.0 }.schedule(&problems, 0);

    println!("6 requests, one arrival per second, n=16 beam search\n");
    let mut goodputs = Vec::new();
    for (label, config) in [
        (
            "continuous-4 (equal shares, per-request verify)",
            BatchConfig::continuous(4),
        ),
        (
            "fused-6 (demand shares, fused verify)",
            BatchConfig::fused(6),
        ),
        (
            "fused-6 + first-finish @0.62",
            BatchConfig::fused(6).with_first_finish(0.62),
        ),
    ] {
        let run = TimelineServerSim::new(
            server.clone(),
            16,
            SearchKind::BeamSearch,
            TimelineConfig::anchored(EventConfig::lockstep(config)),
        )
        .run(&arrivals)
        .expect("stream serves");
        let s = run.stream_summary();
        println!("{label}");
        println!(
            "  stream goodput {:>8.1} tok/s | makespan {:>6.1} s | mean latency {:>6.1} s",
            s.stream_goodput, s.makespan, s.latency.mean
        );
        println!(
            "  verifier: {} sweeps, {:.1} seqs/sweep occupancy, {:.1} s busy (attributed once)",
            run.ver_sweeps, s.verifier_occupancy, run.ver_busy_secs
        );
        println!(
            "  per-phase goodput: generator {:.0} tok/s, verifier {:.0} tok/s",
            s.generator_goodput, s.verifier_goodput
        );
        let cuts: u32 = run
            .served
            .iter()
            .map(|r| r.outcome.stats.first_finish_cuts)
            .sum();
        if cuts > 0 {
            println!("  first-finish cuts fired: {cuts}");
        }
        println!();
        goodputs.push(s.stream_goodput);
    }
    println!(
        "RESULT fused_verify: fused_vs_continuous={:.2}x",
        goodputs[1] / goodputs[0]
    );
}
