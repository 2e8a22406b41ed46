//! Byte oracle for both flight drivers: the FNV-1a hash of the canonical
//! [`RunMetrics::to_bytes`] encoding of a fixed set of cells, pinned
//! against committed values.
//!
//! `perf_equivalence` compares the adaptive scheduler with the 1 ms
//! reference loop inside one build; this file compares each build with
//! the recorded history, so a refactor of the drivers that moves any
//! metric byte of any cell fails here. The cells cover the single-path
//! pipeline under all three congestion controllers (clean urban air,
//! rural air under a hostile script, urban ground), every multipath
//! scheme under a primary-leg blackout, coupled-CC bonding at one, three
//! and four legs with RS FEC and repair, failover with per-leg uplink
//! caps, and a bonded cell under wire corruption.
//!
//! On a mismatch the test prints every cell's observed hash, so an
//! intended re-baseline is a copy of that table (and a note in
//! CHANGES.md saying which fields moved and why).

use rpav_core::codec::fnv1a;
use rpav_core::prelude::*;
use rpav_netem::{FaultScript, PacketKind};
use rpav_sim::{SimDuration, SimTime};

/// Blackout + loss burst: feedback starvation, watchdog backoff, PLI
/// recovery and NACK abandonment all fire inside one run.
fn hostile_script() -> FaultScript {
    FaultScript::new()
        .blackout(SimTime::from_secs(12), SimDuration::from_secs(3))
        .loss_window(
            SimTime::from_secs(22),
            SimDuration::from_secs(4),
            0.25,
            None,
        )
}

/// A 4 s primary-leg blackout in the middle of the flight.
fn leg0_blackout() -> FaultScript {
    FaultScript::new().blackout(SimTime::from_secs(10), SimDuration::from_secs(4))
}

/// Bit corruption on every packet class for most of the flight.
fn corrupt_script() -> FaultScript {
    FaultScript::new().corrupt_window(
        SimTime::from_secs(10),
        SimDuration::from_secs(60),
        0.05,
        None,
    )
}

/// The correlated shared-cell fade of the `flight-bonded` workload: one
/// Gilbert–Elliott media-loss burst window over the first 30 s on legs 0
/// and 1 of a three-leg rig.
fn shared_fade() -> Vec<Option<FaultScript>> {
    FaultScript::new()
        .burst_loss_window(
            SimTime::ZERO,
            SimDuration::from_secs(30),
            0.05,
            0.3,
            0.5,
            Some(PacketKind::Media),
        )
        .correlated(3, &[0, 1])
}

fn builder(cc: CcMode, env: Environment, mobility: Mobility, seed: u64) -> ExperimentConfigBuilder {
    ExperimentConfig::builder()
        .environment(env)
        .mobility(mobility)
        .cc(cc)
        .seed(seed)
        .hold_secs(1)
        .ground_sweeps(1)
}

fn cell(cfg: ExperimentConfig, scheme: RunScheme, fault: CellFault) -> Cell {
    let cells = MatrixSpec::new(cfg)
        .schemes([scheme])
        .faults([fault])
        .expand();
    assert_eq!(cells.len(), 1);
    cells.into_iter().next().unwrap()
}

/// Run every `(label, cell, expected)` entry and fail with the full
/// observed table if any hash moved.
fn check(cases: Vec<(&str, Cell, u64)>) {
    let mut table = String::new();
    let mut moved = Vec::new();
    for (label, cell, expected) in cases {
        let got = fnv1a(&cell.execute_with(false).to_bytes());
        table.push_str(&format!("    (\"{label}\", 0x{got:016x}),\n"));
        if got != expected {
            moved.push(label);
        }
    }
    assert!(
        moved.is_empty(),
        "driver output moved for {moved:?}; observed hashes:\n{table}"
    );
}

type CcCtor = fn() -> CcMode;

const CCS: [(&str, CcCtor); 3] = [
    ("static", || CcMode::paper_static(Environment::Urban)),
    ("gcc", || CcMode::Gcc),
    ("scream", || CcMode::paper_scream()),
];

/// Expected hash of a label (0, which no cell hashes to, if absent).
fn expected(label: &str) -> u64 {
    GOLDEN
        .iter()
        .find(|(l, _)| *l == label)
        .map_or(0, |(_, h)| *h)
}

const GOLDEN: &[(&str, u64)] = &[
    ("pipeline/static/urban-air", 0xd6f62333ea7c276c),
    ("pipeline/static/rural-air-hostile", 0x88bdfc174d46a715),
    ("pipeline/static/urban-ground", 0xdb3fefc2847940f4),
    ("pipeline/gcc/urban-air", 0xc0c16fc8d8a74856),
    ("pipeline/gcc/rural-air-hostile", 0x2f23bcfc2bc42c6d),
    ("pipeline/gcc/urban-ground", 0x3ba76fd143f9525c),
    ("pipeline/scream/urban-air", 0xaf91f9e81515c47d),
    ("pipeline/scream/rural-air-hostile", 0x7c1df6f8aa9e8b22),
    ("pipeline/scream/urban-ground", 0x31cb75fcd4fcc068),
    ("multipath/single-path/n2/leg0-blackout", 0x18e64f67e5d7e675),
    ("multipath/duplicate/n2/leg0-blackout", 0xeb68655f1f6c3cfb),
    ("multipath/failover/n2/leg0-blackout", 0x2cc04adde0045b6e),
    (
        "multipath/sel-duplicate/n2/leg0-blackout",
        0xad934596bff8b3ac,
    ),
    ("multipath/bonded/n2/leg0-blackout", 0x2eb8ecda49385a86),
    ("bonded/n1/coupled-gcc/fec+repair", 0xeb230c75a45a870f),
    ("bonded/n3/coupled-scream/fec+repair", 0x7caf4d9bd23eb18d),
    ("bonded/n4/coupled-gcc/fec+repair", 0xf0bb2ed624230850),
    ("failover/leg-cap", 0x4c41b2aa74b1864e),
    ("bonded/n2/corrupt", 0x0572b54ab5126a2d),
    ("bonded/n3/corr-fade/static", 0x79c26a137aacb913),
    ("bonded/n3/corr-fade/scream", 0x4a335faaf508c3d8),
    ("bonded/n3/corr-fade/gcc", 0x6df4745b08dc8eb7),
];

#[test]
fn pipeline_cells_match_golden() {
    let mut cases = Vec::new();
    for (name, cc) in CCS {
        let shapes = [
            (
                "urban-air",
                Environment::Urban,
                Mobility::Air,
                CellFault::none(),
            ),
            (
                "rural-air-hostile",
                Environment::Rural,
                Mobility::Air,
                CellFault::link("hostile", hostile_script()),
            ),
            (
                "urban-ground",
                Environment::Urban,
                Mobility::Ground,
                CellFault::none(),
            ),
        ];
        for (shape, env, mobility, fault) in shapes {
            let label = format!("pipeline/{name}/{shape}");
            let cfg = builder(cc(), env, mobility, 0x601D_0001).build();
            cases.push((label, cell(cfg, RunScheme::Pipeline, fault)));
        }
    }
    check(
        cases
            .iter()
            .map(|(l, c)| (l.as_str(), c.clone(), expected(l)))
            .collect(),
    );
}

#[test]
fn multipath_schemes_match_golden() {
    let mut cases = Vec::new();
    for scheme in MultipathScheme::all() {
        let label = format!("multipath/{}/n2/leg0-blackout", scheme.name());
        let cfg = builder(CcMode::Gcc, Environment::Urban, Mobility::Air, 0x601D_0002)
            .n_legs(2)
            .build();
        let fault = CellFault::legs("leg0-blackout", Some(leg0_blackout()), None);
        cases.push((label, cell(cfg, RunScheme::Multipath(scheme), fault)));
    }
    check(
        cases
            .iter()
            .map(|(l, c)| (l.as_str(), c.clone(), expected(l)))
            .collect(),
    );
}

#[test]
fn coupled_bonded_cells_match_golden() {
    let mut cases = Vec::new();
    for (n, name, cc) in [
        (1, "gcc", CcMode::Gcc),
        (3, "scream", CcMode::paper_scream()),
        (4, "gcc", CcMode::Gcc),
    ] {
        let label = format!("bonded/n{n}/coupled-{name}/fec+repair");
        let cfg = builder(cc, Environment::Urban, Mobility::Air, 0x601D_0003)
            .n_legs(n)
            .coupled_cc(true)
            .fec_cap(0.25)
            .repair(true)
            .build();
        let fault = CellFault::legs("leg0-blackout", Some(leg0_blackout()), None);
        cases.push((
            label,
            cell(cfg, RunScheme::Multipath(MultipathScheme::Bonded), fault),
        ));
    }
    check(
        cases
            .iter()
            .map(|(l, c)| (l.as_str(), c.clone(), expected(l)))
            .collect(),
    );
}

#[test]
fn capped_failover_and_corrupt_bonded_match_golden() {
    let failover = builder(
        CcMode::paper_scream(),
        Environment::Rural,
        Mobility::Air,
        0x601D_0004,
    )
    .leg_caps(4e6, 12e6)
    .build();
    let corrupt = builder(CcMode::Gcc, Environment::Urban, Mobility::Air, 0x601D_0005)
        .fec_cap(0.25)
        .build();
    let cases = vec![
        (
            "failover/leg-cap",
            cell(
                failover,
                RunScheme::Multipath(MultipathScheme::Failover),
                CellFault::legs("leg0-blackout", Some(leg0_blackout()), None),
            ),
        ),
        (
            "bonded/n2/corrupt",
            cell(
                corrupt,
                RunScheme::Multipath(MultipathScheme::Bonded),
                CellFault::legs("corrupt", Some(corrupt_script()), None),
            ),
        ),
    ];
    check(
        cases
            .into_iter()
            .map(|(l, c)| (l, c, expected(l)))
            .collect(),
    );
}

/// The `flight-bonded` benchmark round: rural air, three legs, coupled
/// CC, RS FEC capped at 25 % and repair on, under the correlated fade, at
/// the repository's campaign master seed — one cell per paper workload.
#[test]
fn flight_bonded_fade_cells_match_golden() {
    let base = ExperimentConfig::builder()
        .environment(Environment::Rural)
        .mobility(Mobility::Air)
        .seed(0x1AC_2022)
        .hold_secs(1)
        .n_legs(3)
        .fec_cap(0.25)
        .repair(true)
        .coupled_cc(true)
        .build();
    let cells = MatrixSpec::new(base)
        .paper_workloads()
        .multipath_schemes([MultipathScheme::Bonded])
        .faults([CellFault::per_leg("corr-2leg-fade", shared_fade())])
        .expand();
    assert_eq!(cells.len(), 3);
    let labels: Vec<String> = cells
        .iter()
        .map(|c| format!("bonded/n3/corr-fade/{}", c.config.cc.name().to_lowercase()))
        .collect();
    check(
        labels
            .iter()
            .zip(cells)
            .map(|(l, c)| (l.as_str(), c, expected(l)))
            .collect(),
    );
}
