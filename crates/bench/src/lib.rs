//! Shared machinery for the figure-regenerator binaries.
//!
//! Each paper figure has a binary (`cargo run -p rpav-bench --release --bin
//! figNN_*`) that runs the required campaigns and prints the figure's
//! series as labelled text tables — the same rows/series the paper plots.
//! `RPAV_RUNS` controls the number of runs pooled per configuration
//! (default 3; the paper pooled ≈130 runs — raise it for smoother tails).

use rpav_core::prelude::*;
use rpav_core::stats::{self, BoxSummary};
use rpav_netem::{FaultScript, PacketKind};
use rpav_sim::{SimDuration, SimTime};

/// Number of runs per configuration (env `RPAV_RUNS`, default 3).
pub fn runs_per_config() -> u64 {
    std::env::var("RPAV_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
}

/// Master seed for all figures (env `RPAV_SEED`, default the campaign
/// constant).
pub fn master_seed() -> u64 {
    std::env::var("RPAV_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0x1AC_2022)
}

/// One `RPAV_*_SMOKE` knob, parsed once at the edge: set and not `"0"`
/// means the binary shrinks its sweep for CI.
pub fn smoke(var: &str) -> bool {
    std::env::var_os(var).is_some_and(|v| !v.is_empty() && v != "0")
}

/// The engine every bench binary runs on, constructed from the
/// process environment exactly once ([`EngineOptions::from_env`]:
/// `RPAV_JOBS`, `RPAV_CACHE`, `RPAV_REFERENCE_TICK`).
pub fn engine() -> CampaignEngine {
    EngineOptions::from_env().engine()
}

/// Shared matrix-bin base: workload + bench master seed + run index +
/// short hold. Every `*_matrix` binary starts from this builder and
/// layers its own axes on top.
pub fn matrix_config(cc: CcMode, run: u64, hold_secs: u64) -> ExperimentConfigBuilder {
    ExperimentConfig::builder()
        .cc(cc)
        .seed(master_seed())
        .run_index(run)
        .hold_secs(hold_secs)
}

/// The correlated shared-cell fade: one Gilbert–Elliott burst window,
/// same wall-clock span on every affected leg (each leg still draws
/// its own packet-level outcomes — two modems camping on one congested
/// cell, not one wire feeding both).
pub fn shared_fade() -> FaultScript {
    FaultScript::new().burst_loss_window(
        SimTime::ZERO,
        SimDuration::from_secs(30),
        0.05,
        0.3,
        0.5,
        Some(PacketKind::Media),
    )
}

/// The paper-default campaign as a wire-ready [`CampaignSpec`]
/// (`runs_per_config()` repetitions).
pub fn paper_spec(env: Environment, op: Operator, mobility: Mobility, cc: CcMode) -> CampaignSpec {
    CampaignSpec::new(paper_config(env, op, mobility, cc)).runs(runs_per_config())
}

/// The resilience harness's small campaign (2 environments × 2 runs,
/// 1 s holds) — shared with the daemon smoke test.
pub fn resilience_small_spec() -> CampaignSpec {
    CampaignSpec::new(matrix_config(CcMode::Gcc, 0, 1).build())
        .environments([Environment::Urban, Environment::Rural])
        .runs(2)
}

/// The kill/resume campaign: enough sequential work (jobs=1 in the
/// victim) that a parent can observe partial completion before killing.
pub fn resilience_kill_spec(smoke: bool) -> CampaignSpec {
    CampaignSpec::new(matrix_config(CcMode::Gcc, 0, 2).build())
        .environments([Environment::Urban, Environment::Rural])
        .operators([Operator::P1, Operator::P2])
        .runs(if smoke { 1 } else { 2 })
}

/// Run one paper-default campaign (on the matrix engine's thread pool —
/// `RPAV_JOBS` workers, `RPAV_CACHE` for the on-disk result cache).
pub fn campaign(env: Environment, op: Operator, mobility: Mobility, cc: CcMode) -> CampaignResult {
    config_campaign(paper_config(env, op, mobility, cc))
}

/// Run `runs_per_config()` repetitions of one configuration through the
/// spec → engine path (the ablation binaries' campaign runner).
pub fn config_campaign(cfg: ExperimentConfig) -> CampaignResult {
    let spec = CampaignSpec::new(cfg).runs(runs_per_config());
    let result = engine().run(&spec.to_matrix());
    CampaignResult {
        label: cfg.label(),
        runs: result.metrics().cloned().collect(),
    }
}

/// The paper-default configuration at the bench master seed.
pub fn paper_config(
    env: Environment,
    op: Operator,
    mobility: Mobility,
    cc: CcMode,
) -> ExperimentConfig {
    ExperimentConfig::builder()
        .environment(env)
        .operator(op)
        .mobility(mobility)
        .cc(cc)
        .seed(master_seed())
        .build()
}

/// The three §3.2 workloads for an environment.
pub fn paper_ccs(env: Environment) -> [CcMode; 3] {
    [
        CcMode::paper_static(env),
        CcMode::paper_scream(),
        CcMode::Gcc,
    ]
}

/// Print a figure banner.
pub fn banner(figure: &str, caption: &str) {
    println!("=== {figure} — {caption}");
    println!(
        "    ({} run(s)/config, seed {:#x}; set RPAV_RUNS/RPAV_SEED to change)",
        runs_per_config(),
        master_seed()
    );
}

/// Print one boxplot row.
pub fn print_box(label: &str, values: &[f64]) {
    match stats::box_summary(values) {
        Some(s) => println!("{}", s.row(label)),
        None => println!("{label:<28} (no samples)"),
    }
}

/// Print a CDF as `x p` pairs under a label.
pub fn print_cdf(label: &str, values: &[f64], grid: &[f64]) {
    println!("-- CDF {label} (n={}):", values.len());
    for (x, p) in stats::cdf_at(values, grid) {
        println!("   {x:>10.2} {p:>8.4}");
    }
}

/// Compact CDF print: only the crossings of interesting probabilities.
pub fn print_cdf_quantiles(label: &str, values: &[f64]) {
    if values.is_empty() {
        println!("{label:<28} (no samples)");
        return;
    }
    let qs = [0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];
    let row: Vec<String> = qs
        .iter()
        .map(|q| format!("p{:<2.0}={:>9.2}", q * 100.0, stats::quantile(values, *q)))
        .collect();
    println!("{label:<28} {}", row.join(" "));
}

/// Boxplot summary accessor (re-exported for binaries).
pub fn summary(values: &[f64]) -> Option<BoxSummary> {
    stats::box_summary(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knobs_have_defaults() {
        assert!(runs_per_config() >= 1);
        assert!(master_seed() != 0);
    }

    #[test]
    fn fixtures_round_trip_over_the_wire() {
        for spec in [
            paper_spec(Environment::Urban, Operator::P1, Mobility::Air, CcMode::Gcc),
            resilience_small_spec(),
            resilience_kill_spec(true),
            resilience_kill_spec(false),
        ] {
            let parsed = CampaignSpec::from_json(&spec.to_json()).expect("fixture parses");
            assert_eq!(parsed, spec, "wire round-trip must be lossless");
            assert_eq!(parsed.identity(), spec.identity());
        }
        assert_eq!(resilience_small_spec().to_matrix().expand().len(), 4);
        assert_eq!(resilience_kill_spec(true).to_matrix().expand().len(), 4);
    }

    #[test]
    fn paper_ccs_cover_all_methods() {
        let ccs = paper_ccs(Environment::Urban);
        assert_eq!(ccs[0].name(), "Static");
        assert_eq!(ccs[1].name(), "SCReAM");
        assert_eq!(ccs[2].name(), "GCC");
    }
}
