//! Bit-exact run fingerprints and the frozen goldens they are checked
//! against.
//!
//! The fingerprints are the crate's own ([`BatchRun::fingerprint`],
//! [`FleetRun::fingerprint`], [`ftts_core::served_fingerprint`]): FNV-1a
//! over the bits of every served-request field and every counter. A
//! scheduler-run fingerprint leaves out the `timeline` occupancy
//! roll-up; a fleet fingerprint covers the winning records, placements,
//! migration and hedge counters, downtime and every device's run with
//! its timeline roll-up.
//!
//! `anchors.txt` holds the fingerprints of the scheduler anchor
//! fixtures, frozen from the lockstep and event-driven reference loops
//! the single timeline kernel replaced, and of the fleet fixtures,
//! frozen from the replay-from-zero fleet router. Each line is
//! `name 0xHASH`; `#` starts a comment.

#![allow(dead_code)]

use ftts_core::{BatchRun, FleetRun, ServedRequest};

const ANCHORS: &str = include_str!("anchors.txt");

/// Fingerprint of a served-request list alone (what `ServerSim::run`
/// returns).
pub fn served_fingerprint(list: &[ServedRequest]) -> u64 {
    ftts_core::served_fingerprint(list)
}

/// Fingerprint of a whole scheduler run: every served request plus
/// every counter except the timeline roll-up.
pub fn fingerprint(run: &BatchRun) -> u64 {
    run.fingerprint()
}

/// Assert two runs are bit-identical (everything but the timeline).
pub fn assert_same(label: &str, a: &BatchRun, b: &BatchRun) {
    assert_eq!(fingerprint(a), fingerprint(b), "{label}: runs differ");
}

/// Assert `run` reproduces the frozen golden `name` bit for bit.
pub fn assert_golden(name: &str, run: &BatchRun) {
    check(name, fingerprint(run));
}

/// Assert the fleet run reproduces the frozen golden `name` bit for
/// bit.
pub fn assert_fleet_golden(name: &str, run: &FleetRun) {
    check(name, run.fingerprint());
}

fn check(name: &str, got: u64) {
    let want = ANCHORS
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .find_map(|l| {
            let (key, hash) = l.split_once(' ')?;
            (key == name).then(|| hash.trim())
        })
        .unwrap_or_else(|| panic!("no golden named {name} (run fingerprints {got:#018x})"));
    let want = u64::from_str_radix(want.trim_start_matches("0x"), 16).expect("hex golden");
    assert_eq!(
        got, want,
        "{name}: run fingerprints {got:#018x}, golden is {want:#018x}"
    );
}
