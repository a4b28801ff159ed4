//! The matrix gate: the seven default shapes under every plane battery
//! (`chaos`, `lossy`, and `adversarial` with its defended twin) at base
//! seeds 0–49. That is 1 400 runs, and every one must pass: there is no
//! known-red list.

use ab_scenario::runner::{self, AppOutcome, Scenario};
use ab_scenario::sweep::{run_sweep_jobs, SweepSpec};
use ab_scenario::topo::TopologyShape;
use ab_scenario::workload::{BatteryKind, UploadImage};
use hostsim::UploadState;
use netstack::FailureClass;

#[test]
fn every_default_shape_passes_every_plane_battery_at_seeds_0_to_49() {
    let mut runs = 0;
    let mut red = Vec::new();
    for battery in [
        BatteryKind::Chaos,
        BatteryKind::Lossy,
        BatteryKind::Adversarial,
    ] {
        for seed in 0..50 {
            let spec = SweepSpec {
                shapes: SweepSpec::default_sweep(0).shapes,
                batteries: vec![battery],
                seed,
            };
            for report in run_sweep_jobs(&spec, 2).runs {
                runs += 1;
                if !report.passed() {
                    red.push(report.scenario.name);
                }
            }
        }
    }
    assert_eq!(runs, 1_400, "7 shapes × (1 + 1 + 2 arms) × 50 seeds");
    assert!(
        red.is_empty(),
        "{} of {runs} runs red: {}",
        red.len(),
        red.join(" ")
    );
}

/// `star-lossy-s2` is the star cell of the lossy row at base seed 0. The
/// gate refuses its corrupt image, and the upload's last budget action
/// is a timeout retransmission. The upload still parks as an integrity
/// reject, so `corrupted_image_never_activates` and
/// `no_loss_after_convergence` hold.
#[test]
fn star_lossy_s2_parks_its_corrupt_upload_as_an_integrity_reject() {
    let sc = Scenario::new(TopologyShape::Star { arms: 3 }, BatteryKind::Lossy, 2);
    assert_eq!(sc.name, "star-lossy-s2");
    let report = runner::run(&sc);
    let corrupt = report
        .apps
        .iter()
        .find_map(|a| match &a.outcome {
            AppOutcome::Upload(u) if u.image == UploadImage::Corrupt => Some(u),
            _ => None,
        })
        .expect("the lossy battery schedules a corrupt upload");
    assert!(
        corrupt.retries >= 1,
        "a timeout retransmission: {corrupt:?}"
    );
    assert_eq!(corrupt.budget_used, corrupt.image.budget(), "budget spent");
    assert_eq!(
        corrupt.state,
        UploadState::Parked {
            class: FailureClass::IntegrityReject
        }
    );
    assert!(report.passed(), "{}", report.to_json().render_pretty());
}
