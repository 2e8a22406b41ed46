//! Bonded matrix — the bonded multipath acceptance harness.
//!
//! Exercises the [`MultipathScheme::Bonded`] deficit-weighted scheduler,
//! its loss-adaptive cross-leg FEC layer, and the reorder-tolerant
//! reassembly buffer across the three §3.2 workloads (Static, SCReAM,
//! GCC), every comparison seed-matched, and *asserts* the bonding
//! invariants instead of merely printing them:
//!
//! * **aggregation** — under asymmetric per-leg capacity caps, bonded
//!   goodput strictly exceeds the *best* single leg (run single-path on
//!   each leg by swapping the caps): striping across both modems must
//!   buy bandwidth no single operator offers, or carrying the second
//!   modem was pointless. SCReAM is the documented exception (DESIGN.md
//!   §11): its delay-based window collapses under cross-leg delay
//!   variance, so it is held to a delivery floor instead;
//! * **graceful degradation** — under a scripted primary-leg blackout,
//!   bonded stall time never exceeds the seed-matched failover run's
//!   (bonding reroutes packet-by-packet as the leg's health collapses;
//!   failover eats the controller's dwell before moving), and both beat
//!   single-path outright;
//! * **FEC effectiveness** — under bursty per-leg loss with the repair
//!   path armed, the adaptive parity layer recovers erased packets and
//!   those recoveries *strictly* reduce NACK/RTX volume versus the
//!   seed-matched FEC-off run at equal scripted loss — redundancy that
//!   repairs before the round trip, not beside it;
//! * **determinism** — a bonded matrix runs bit-identically at
//!   `jobs = 1` and `jobs = 8`, and the engine's results replay
//!   byte-equal when executed directly (no engine, no cache).
//!
//! `RPAV_BONDED_SMOKE=1` shrinks the sweep to one run per cell for CI.

use rpav_bench::{banner, matrix_config, runs_per_config, smoke};
use rpav_core::multipath::{run_multipath, MultipathScheme};
use rpav_core::prelude::*;
use rpav_netem::{FaultScript, PacketKind};
use rpav_sim::{SimDuration, SimTime};

/// Asymmetric per-leg capacity caps (bps): neither leg alone carries the
/// rural Static workload, both together comfortably do.
const CAP_PRIMARY: f64 = 3.0e6;
const CAP_SECONDARY: f64 = 2.5e6;

/// Blackout window for the degradation section: the primary operator's
/// link goes fully dark (both directions) after CC convergence.
const FAULT_AT: SimTime = SimTime::from_secs(10);
const FAULT_FOR: SimDuration = SimDuration::from_secs(15);

/// Adaptive-FEC overhead ceiling for the FEC section.
const FEC_CAP: f64 = 0.25;

fn config(cc: CcMode, run: u64) -> ExperimentConfigBuilder {
    matrix_config(cc, run, 4)
}

/// Gilbert–Elliott burst loss on media for the first 30 s — the bursty,
/// correlated erasures HARQ exhaustion produces during fades, applied to
/// both legs so the parity has realistic holes to fill.
fn bursty_loss() -> FaultScript {
    FaultScript::new().burst_loss_window(
        SimTime::ZERO,
        SimDuration::from_secs(30),
        0.05,
        0.3,
        0.5,
        Some(PacketKind::Media),
    )
}

fn print_row(section: &str, cc: &str, run: u64, scheme: &str, m: &RunMetrics) {
    println!(
        "{:<6} {:<7} {:>3} {:<12} {:>9.2} {:>9.1} {:>6} {:>6} {:>6} {:>6} {:>5.2}",
        section,
        cc,
        run,
        scheme,
        m.goodput_bps() / 1e6,
        m.stalled_time.as_millis_f64(),
        m.fec_tx,
        m.fec_recovered,
        m.reorder_buffered,
        m.nack_seqs_requested,
        m.leg_tx_share(0),
    );
}

fn main() {
    let smoke = smoke("RPAV_BONDED_SMOKE");
    banner(
        "Bonded matrix",
        "deficit-weighted bonding + adaptive FEC vs single-leg/failover (seed-matched cells)",
    );
    let runs = if smoke { 1 } else { runs_per_config() };
    println!(
        "    caps {}/{} Mbps, blackout t={}s..{}s, burst loss 30 s, fec cap {FEC_CAP}, {} run(s)/cell\n",
        CAP_PRIMARY / 1e6,
        CAP_SECONDARY / 1e6,
        FAULT_AT.as_secs_f64(),
        (FAULT_AT + FAULT_FOR).as_secs_f64(),
        runs
    );
    println!(
        "{:<6} {:<7} {:>3} {:<12} {:>9} {:>9} {:>6} {:>6} {:>6} {:>6} {:>5}",
        "sect",
        "cc",
        "run",
        "scheme",
        "put Mbps",
        "stall ms",
        "fectx",
        "fecrec",
        "reord",
        "nacks",
        "leg0",
    );

    let ccs = rpav_bench::paper_ccs(Environment::Rural);
    for cc in ccs {
        for run in 0..runs {
            // ---- (a) Aggregation under asymmetric caps ---------------
            let bonded = run_multipath(
                &config(cc, run).leg_caps(CAP_PRIMARY, CAP_SECONDARY).build(),
                MultipathScheme::Bonded,
                Vec::new(),
            );
            // Single-path always rides leg 0: swapping the caps runs the
            // baseline on the other operator's capacity.
            let single_a = run_multipath(
                &config(cc, run).leg_caps(CAP_PRIMARY, CAP_SECONDARY).build(),
                MultipathScheme::SinglePath,
                Vec::new(),
            );
            let single_b = run_multipath(
                &config(cc, run).leg_caps(CAP_SECONDARY, CAP_PRIMARY).build(),
                MultipathScheme::SinglePath,
                Vec::new(),
            );
            let tag = format!("{}/run{run}", cc.name());
            print_row("caps", cc.name(), run, "bonded", &bonded);
            print_row("caps", cc.name(), run, "single-a", &single_a);
            print_row("caps", cc.name(), run, "single-b", &single_b);
            let best_single = single_a
                .media_received_bytes
                .max(single_b.media_received_bytes);
            if matches!(cc, CcMode::Scream { .. }) {
                // Documented caveat (DESIGN.md §11): SCReAM's delay-based
                // window reacts to the *slowest* leg's queueing delay, so
                // striping across legs with different service rates
                // collapses its rate estimate — the same delay-variance
                // sensitivity §8 records for selective duplication. The
                // bond must still deliver a usable share of the best
                // single leg, but aggregation gain is not claimed here.
                assert!(
                    bonded.media_received_bytes as f64 > 0.4 * best_single as f64,
                    "{tag}: bonded {} B under the SCReAM floor (best single {} B)",
                    bonded.media_received_bytes,
                    best_single
                );
            } else {
                assert!(
                    bonded.media_received_bytes > best_single,
                    "{tag}: bonded {} B !> best single leg {} B",
                    bonded.media_received_bytes,
                    best_single
                );
                // The scheduler striped: both legs carried a real share.
                let share0 = bonded.leg_tx_share(0);
                assert!(
                    (0.1..=0.9).contains(&share0),
                    "{tag}: bonded leg split degenerate ({share0:.2})"
                );
            }

            // ---- (b) Graceful degradation under a leg blackout -------
            let blackout = || FaultScript::new().blackout(FAULT_AT, FAULT_FOR);
            let b_bonded = run_multipath(
                &config(cc, run).build(),
                MultipathScheme::Bonded,
                vec![Some(blackout())],
            );
            let b_failover = run_multipath(
                &config(cc, run).build(),
                MultipathScheme::Failover,
                vec![Some(blackout())],
            );
            let b_single = run_multipath(
                &config(cc, run).build(),
                MultipathScheme::SinglePath,
                vec![Some(blackout())],
            );
            print_row("black", cc.name(), run, "bonded", &b_bonded);
            print_row("black", cc.name(), run, "failover", &b_failover);
            print_row("black", cc.name(), run, "single", &b_single);
            assert!(
                b_bonded.stalled_time <= b_failover.stalled_time,
                "{tag}: bonded stalled {:?} > failover {:?}",
                b_bonded.stalled_time,
                b_failover.stalled_time
            );
            assert!(
                b_bonded.stalled_time < b_single.stalled_time,
                "{tag}: bonded stalled {:?} !< single-path {:?}",
                b_bonded.stalled_time,
                b_single.stalled_time
            );

            // ---- (c) FEC recovery strictly reduces NACK/RTX ----------
            let fec_on = run_multipath(
                &config(cc, run).fec_cap(FEC_CAP).repair(true).build(),
                MultipathScheme::Bonded,
                vec![Some(bursty_loss()), Some(bursty_loss())],
            );
            let fec_off = run_multipath(
                &config(cc, run).repair(true).build(),
                MultipathScheme::Bonded,
                vec![Some(bursty_loss()), Some(bursty_loss())],
            );
            print_row("fec", cc.name(), run, "fec-on", &fec_on);
            print_row("fec", cc.name(), run, "fec-off", &fec_off);
            assert!(
                fec_off.script_dropped > 0,
                "{tag}: burst script never dropped anything"
            );
            assert_eq!(fec_off.fec_tx, 0, "{tag}: parity with fec_cap=0");
            assert!(fec_on.fec_tx > 0, "{tag}: adaptive ratio never armed");
            assert!(
                fec_on.fec_recovered > 0,
                "{tag}: no packet recovered ({} parity tx)",
                fec_on.fec_tx
            );
            assert!(
                fec_on.nack_seqs_requested < fec_off.nack_seqs_requested,
                "{tag}: FEC did not reduce NACK volume ({} !< {})",
                fec_on.nack_seqs_requested,
                fec_off.nack_seqs_requested
            );
        }
        println!();
    }

    // ---- (d) Determinism: jobs=1 ≡ jobs=8 ≡ direct execution ---------
    let spec = MatrixSpec::new(config(CcMode::Gcc, 0).fec_cap(FEC_CAP).repair(true).build())
        .paper_workloads()
        .multipath_schemes([MultipathScheme::Bonded])
        .faults([CellFault::legs(
            "bursty-loss",
            Some(bursty_loss()),
            Some(bursty_loss()),
        )])
        .runs(runs);
    let sequential = CampaignEngine::new().with_cache_dir(None).with_jobs(1);
    let parallel = CampaignEngine::new().with_cache_dir(None).with_jobs(8);
    let a = sequential.run(&spec);
    let b = parallel.run(&spec);
    assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (x, y) in a.outcomes.iter().zip(b.outcomes.iter()) {
        assert_eq!(
            x.metrics().to_bytes(),
            y.metrics().to_bytes(),
            "jobs=1 vs jobs=8 diverged at {}",
            x.cell().label()
        );
    }
    // The first engine cell replays byte-identically when executed
    // directly (no engine, no cache).
    let replay = a.outcomes[0].cell().execute_with(false);
    assert_eq!(
        replay.to_bytes(),
        a.outcomes[0].metrics().to_bytes(),
        "engine result diverged from direct execution"
    );

    println!(
        "All bonding invariants hold ({} seed-matched cell sets, {} engine cells).",
        ccs.len() as u64 * runs,
        a.outcomes.len()
    );
    println!("{}", b.report.summary());
}
