//! A `RequestRun` cloned mid-flight, together with its driver, is an
//! independent checkpoint: stepping the clone and the original to the
//! end yields the same statistics bit for bit, for beam search, DVTS and
//! best-of-N. (The scheduler kernel's resumable state holds such clones.)

use ftts_core::TtsServer;
use ftts_engine::{ModelPairing, RequestRun, RunStats, SearchDriver};
use ftts_hw::GpuDevice;
use ftts_search::{make_driver, SearchKind};
use ftts_workload::Dataset;

fn finish(mut run: RequestRun, driver: &mut dyn SearchDriver) -> RunStats {
    while !run.is_finished() {
        run.step(driver).expect("step");
    }
    run.finish()
}

/// Bit-exact comparison: `Debug` prints every float in its shortest
/// round-trip form, so equal strings mean equal bits.
fn assert_bit_identical(kind: SearchKind, split: u32, a: &RunStats, b: &RunStats) {
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "{kind:?}: clone taken after {split} iterations diverged"
    );
}

fn check(kind: SearchKind) {
    let mut server = TtsServer::fasttts(GpuDevice::rtx4090(), ModelPairing::pair_1_5b_1_5b());
    server.config_mut().memory_fraction = 0.5;
    let problem = Dataset::Amc2023.problems(1, 47)[0];
    let reference = {
        let mut driver = make_driver(kind, 16, 4);
        let run = server
            .engine()
            .begin(&problem, 16, driver.as_mut(), f64::INFINITY, None)
            .expect("begin");
        finish(run, driver.as_mut())
    };
    for split in [0u32, 1, 3] {
        let mut driver = make_driver(kind, 16, 4);
        let mut run = server
            .engine()
            .begin(&problem, 16, driver.as_mut(), f64::INFINITY, None)
            .expect("begin");
        for _ in 0..split {
            if !run.is_finished() {
                run.step(driver.as_mut()).expect("step");
            }
        }
        let twin = run.clone();
        let mut twin_driver = driver.box_clone();
        let original = finish(run, driver.as_mut());
        let cloned = finish(twin, twin_driver.as_mut());
        assert_bit_identical(kind, split, &original, &cloned);
        assert_bit_identical(kind, split, &original, &reference);
    }
}

#[test]
fn cloned_beam_search_runs_finish_bit_identically() {
    check(SearchKind::BeamSearch);
}

#[test]
fn cloned_dvts_runs_finish_bit_identically() {
    check(SearchKind::Dvts);
}

#[test]
fn cloned_best_of_n_runs_finish_bit_identically() {
    check(SearchKind::BestOfN);
}
