//! Engine-throughput tracker — emits `BENCH_PIPELINE.json`.
//!
//! Runs a deterministic single-threaded matrix of cold cells through the
//! adaptive scheduler and records the three numbers every perf PR is
//! judged on:
//!
//! * **cells/s** — whole-matrix throughput (the chaos-matrix currency);
//! * **ns/tick** — wall time per driver step actually taken;
//! * **allocs/packet** — heap allocations per media packet sent, counted
//!   by a wrapping `#[global_allocator]` local to this binary.
//!
//! The default invocation measures the sweeps and writes one JSON object
//! with a `full` section (paper-length flights, the tracked trajectory),
//! a `quick` section (1 s holds, the CI smoke), a `bonded` section (the
//! two-leg bonded driver with FEC + repair armed, 1 s holds), and a
//! `bonded-fade` section (three-leg coupled bonding under the correlated
//! two-leg fade, where FEC recovery retries hardest).
//! `--quick` (or `RPAV_PERF_QUICK=1`) skips only the full sweep. `--check
//! <baseline.json>` then compares every section measured this run against
//! the same section of the committed baseline and exits non-zero on a
//! regression: cells/s dropping more than 25 % below baseline
//! (`RPAV_PERF_THRESHOLD=<percent>` overrides), or allocs/packet rising
//! more than 25 % above it (plus a small absolute slack for sweeps that
//! are already near zero). This is the CI perf gate — the ad-hoc
//! cells/s-only threshold it replaces lived in the workflow file.
//!
//! Output goes to stdout and to `BENCH_PIPELINE.json` in the current
//! directory (override the path with `RPAV_PERF_OUT`).

use std::time::Instant;

use rpav_bench::{paper_ccs, paper_config, shared_fade};
use rpav_core::multipath::{run_multipath, MultipathScheme};
use rpav_core::prelude::*;
use rpav_sim::SimDuration;

// The shared counting allocator: `alloc`, `alloc_zeroed` and `realloc`
// all count as events — a reallocation is exactly the churn the pooled
// buffers are supposed to avoid.
#[global_allocator]
static GLOBAL: rpav_sim::alloc::CountingAlloc = rpav_sim::alloc::CountingAlloc;

/// Allocation events so far (shorthand over the shared counter).
fn allocs_now() -> u64 {
    rpav_sim::alloc::events()
}

/// Absolute slack on the allocs/packet gate: near-zero baselines would
/// otherwise turn harmless jitter of a handful of allocations into a
/// relative-threshold failure.
const ALLOC_GATE_SLACK: f64 = 0.02;

struct Measurement {
    mode: &'static str,
    cells: usize,
    wall_s: f64,
    cells_per_s: f64,
    ns_per_tick: f64,
    allocs_per_packet: f64,
    ticks: u64,
    packets: u64,
    allocs: u64,
}

impl Measurement {
    fn to_json(&self) -> String {
        format!(
            "  \"{}\": {{\n    \"cells\": {},\n    \"wall_s\": {:.3},\n    \
             \"cells_per_s\": {:.3},\n    \"ns_per_tick\": {:.1},\n    \
             \"allocs_per_packet\": {:.2},\n    \"ticks\": {},\n    \
             \"packets\": {},\n    \"allocs\": {}\n  }}",
            self.mode,
            self.cells,
            self.wall_s,
            self.cells_per_s,
            self.ns_per_tick,
            self.allocs_per_packet,
            self.ticks,
            self.packets,
            self.allocs
        )
    }
}

/// One cold sweep of the 6 paper workloads (3 CCs × 2 environments),
/// single-threaded, engine-free.
fn run_sweep(quick: bool) -> Measurement {
    let mut ticks = 0u64;
    let mut packets = 0u64;
    let mut cells = 0usize;
    let alloc_start = allocs_now();
    let wall_start = Instant::now();
    for env in [Environment::Urban, Environment::Rural] {
        for cc in paper_ccs(env) {
            let cfg = if quick {
                ExperimentConfig::builder()
                    .environment(env)
                    .cc(cc)
                    .seed(0xBE7C)
                    .hold_secs(1)
                    .build()
            } else {
                paper_config(env, Operator::P1, Mobility::Air, cc)
            };
            let (metrics, steps) = Simulation::new(cfg).run_instrumented();
            ticks += steps;
            packets += metrics.media_sent + metrics.rtx_sent;
            cells += 1;
        }
    }
    let wall_s = wall_start.elapsed().as_secs_f64();
    let allocs = allocs_now() - alloc_start;
    Measurement {
        mode: if quick { "quick" } else { "full" },
        cells,
        wall_s,
        cells_per_s: cells as f64 / wall_s,
        ns_per_tick: wall_s * 1e9 / ticks as f64,
        allocs_per_packet: allocs as f64 / packets as f64,
        ticks,
        packets,
        allocs,
    }
}

/// Time one cold multipath sweep: `run(i)` simulates cell `i` of
/// `cells`. The multipath driver has no instrumented tick counter, so
/// ticks come from its fixed 1 ms cadence over flight + drain: a stable
/// denominator for trending ns/tick. `cells_per_s` is the gated number.
fn multipath_sweep(
    mode: &'static str,
    cells: usize,
    mut run: impl FnMut(usize) -> RunMetrics,
) -> Measurement {
    let mut ticks = 0u64;
    let mut packets = 0u64;
    let alloc_start = allocs_now();
    let wall_start = Instant::now();
    for i in 0..cells {
        let m = run(i);
        ticks += (m.duration + SimDuration::from_secs(3)).as_millis_f64() as u64;
        packets += m.media_sent + m.rtx_sent + m.fec_tx;
    }
    let wall_s = wall_start.elapsed().as_secs_f64();
    let allocs = allocs_now() - alloc_start;
    Measurement {
        mode,
        cells,
        wall_s,
        cells_per_s: cells as f64 / wall_s,
        ns_per_tick: wall_s * 1e9 / ticks as f64,
        allocs_per_packet: allocs as f64 / packets as f64,
        ticks,
        packets,
        allocs,
    }
}

/// One cold sweep of the bonded multipath driver: the three rural CCs
/// with FEC armed and repair on (1 s holds) — the heaviest receive path
/// in the tree (striping + parity recovery + reassembly window).
fn run_bonded_sweep() -> Measurement {
    let ccs = paper_ccs(Environment::Rural);
    multipath_sweep("bonded", ccs.len(), |i| {
        let cfg = ExperimentConfig::builder()
            .cc(ccs[i])
            .seed(0xBE7C)
            .hold_secs(1)
            .fec_cap(0.25)
            .repair(true)
            .build();
        run_multipath(&cfg, MultipathScheme::Bonded, Vec::new())
    })
}

/// One cold sweep of the three `flight-bonded` benchmark cells: rural
/// air, three legs, coupled CC, RS FEC capped at 25 % and repair on,
/// under the correlated shared-cell fade on legs 0 and 1, 1 s holds, at
/// the campaign master seed. The fade's loss bursts keep many parity
/// groups pending for their whole playout budget, and the coupled
/// engines record packets far out of sequence order, so this sweep's
/// allocs/packet gate guards FEC recovery's retry path and the
/// retransmission ring's re-anchor.
fn run_bonded_fade_sweep() -> Measurement {
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
        .faults([CellFault::per_leg(
            "corr-2leg-fade",
            shared_fade().correlated(3, &[0, 1]),
        )])
        .expand();
    multipath_sweep("bonded-fade", cells.len(), |i| cells[i].execute_with(false))
}

/// Pull `key` out of the named section of a flat two-level JSON object,
/// without a JSON dependency.
fn json_field(text: &str, section: &str, key: &str) -> Option<f64> {
    let start = text.find(&format!("\"{section}\""))?;
    let body = &text[start..];
    let body = &body[..body.find('}').unwrap_or(body.len())];
    let needle = format!("\"{key}\"");
    let rest = &body[body.find(&needle)? + needle.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick_only = args.iter().any(|a| a == "--quick")
        || std::env::var_os("RPAV_PERF_QUICK").is_some_and(|v| v != "0");
    let check = args
        .iter()
        .position(|a| a == "--check")
        .map(|i| args.get(i + 1).expect("--check needs a baseline path"));

    println!(
        "=== perf_matrix — engine throughput ({}, single-threaded)",
        if quick_only {
            "quick sweep"
        } else {
            "full + quick sweeps"
        }
    );

    // Read the baseline *before* measuring: the output file may be the
    // baseline path itself, and a self-comparison would gate nothing.
    let baseline = check
        .map(|p| std::fs::read_to_string(p).unwrap_or_else(|e| panic!("read baseline {p}: {e}")));

    // Warm-up: touch every code path once so lazy init (thread-locals,
    // cold text pages) doesn't bill the first measured cell.
    {
        let cfg = ExperimentConfig::builder()
            .cc(CcMode::Gcc)
            .seed(0xD0)
            .hold_secs(1)
            .build();
        let _ = Simulation::new(cfg).run();
    }

    let mut sections = Vec::new();
    if !quick_only {
        sections.push(run_sweep(false));
    }
    sections.push(run_sweep(true));
    sections.push(run_bonded_sweep());
    sections.push(run_bonded_fade_sweep());
    for m in &sections {
        println!(
            "{:<5} {} cells in {:.2} s — {:.2} cells/s, {:.0} ns/tick, {:.2} allocs/packet",
            m.mode, m.cells, m.wall_s, m.cells_per_s, m.ns_per_tick, m.allocs_per_packet
        );
    }

    let json = format!(
        "{{\n  \"schema\": 1,\n{}\n}}\n",
        sections
            .iter()
            .map(Measurement::to_json)
            .collect::<Vec<_>>()
            .join(",\n")
    );
    let out = std::env::var("RPAV_PERF_OUT").unwrap_or_else(|_| "BENCH_PIPELINE.json".into());
    std::fs::write(&out, &json).expect("write BENCH_PIPELINE.json");
    println!("wrote {out}");

    if let Some(text) = baseline {
        let threshold: f64 = std::env::var("RPAV_PERF_THRESHOLD")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(25.0);
        let mut failed = false;
        for m in &sections {
            let Some(base) = json_field(&text, m.mode, "cells_per_s") else {
                println!("baseline has no `{}` section — skipping gate", m.mode);
                continue;
            };
            let delta_pct = (m.cells_per_s - base) / base * 100.0;
            println!(
                "{:<5} baseline {base:.2} cells/s → now {:.2} cells/s ({delta_pct:+.1} %)",
                m.mode, m.cells_per_s
            );
            if delta_pct < -threshold {
                eprintln!(
                    "PERF REGRESSION ({}): cells/s dropped more than {threshold}%",
                    m.mode
                );
                failed = true;
            }
            // Allocation-churn gate: the sweeps are deterministic, so
            // allocs/packet is nearly noise-free — anything beyond the
            // relative threshold plus a small absolute slack means a hot
            // path started allocating again.
            if let Some(base_ap) = json_field(&text, m.mode, "allocs_per_packet") {
                let limit = base_ap * (1.0 + threshold / 100.0) + ALLOC_GATE_SLACK;
                println!(
                    "{:<5} baseline {base_ap:.2} allocs/packet → now {:.2} (limit {limit:.2})",
                    m.mode, m.allocs_per_packet
                );
                if m.allocs_per_packet > limit {
                    eprintln!(
                        "ALLOC REGRESSION ({}): allocs/packet {:.2} exceeds limit {:.2}",
                        m.mode, m.allocs_per_packet, limit
                    );
                    failed = true;
                }
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("within {threshold}% gate — ok");
    }
}
