//! The two flight workloads: `flight-single` (the paper's six cells on the
//! single-path pipeline) and `flight-bonded` (three-leg bonding with RS
//! FEC under a correlated two-leg fade). Both run campaigns through
//! `CampaignEngine` with explicit options, one worker and a fresh disk
//! cache, so every cell is simulated and its sealed result written once.

use std::path::{Path as FsPath, PathBuf};
use std::time::{Duration, Instant};

use rpav_core::codec::{self, fnv1a, ByteWriter};
use rpav_core::exec::cache_entry_path;
use rpav_core::prelude::*;
use rpav_netem::{FaultScript, PacketKind};
use rpav_sim::{SimDuration, SimTime};

use crate::mirror::Mirror;
use crate::replay;
use crate::report::{median, process_cpu, quantile, LayerReport, Outcome};
use crate::trace::{self, layer, Calibration, Tracer};
use crate::{span, Args};

/// Which flight workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Single,
    Bonded,
}

/// Setups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The correlated shared-cell fade of the N-leg harness: one
/// Gilbert–Elliott burst window over the first 30 s on legs 0 and 1.
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

/// The simulation seed of every pinned cell: the repository's campaign
/// master seed.
pub const FLIGHT_SIM_SEED: u64 = 0x1AC_2022;

/// The cells of one round; every round of every run is the same.
///
/// `flight-single`: the six paper cells (Urban/Rural × Static, SCReAM,
/// GCC), paper-length air flights with 5 s holds and repair off.
///
/// `flight-bonded`: the three rural cells on a three-leg bonded rig with
/// coupled CC, RS FEC and repair, under the correlated two-leg fade.
///
/// The cells are pinned rather than drawn from the workload seed: a
/// bonded cell costs 1–20 s depending on how much FEC recovery its loss
/// pattern triggers, and a six-cell paper round varies by ±15 % between
/// seeds, so the few cells a run can afford would measure the draw
/// rather than the code. Pinned cells also make every count (packets,
/// allocations, sealed bytes) repeat exactly from run to run.
pub fn round_spec(kind: Kind) -> MatrixSpec {
    match kind {
        Kind::Single => MatrixSpec::new(
            ExperimentConfig::builder()
                .mobility(Mobility::Air)
                .seed(FLIGHT_SIM_SEED)
                .hold_secs(5)
                .repair(false)
                .build(),
        )
        .environments([Environment::Urban, Environment::Rural])
        .paper_workloads(),
        Kind::Bonded => MatrixSpec::new(
            ExperimentConfig::builder()
                .environment(Environment::Rural)
                .mobility(Mobility::Air)
                .seed(FLIGHT_SIM_SEED)
                .hold_secs(1)
                .n_legs(3)
                .fec_cap(0.25)
                .repair(true)
                .coupled_cc(true)
                .build(),
        )
        .paper_workloads()
        .multipath_schemes([MultipathScheme::Bonded])
        .faults([CellFault::per_leg("corr-2leg-fade", shared_fade())]),
    }
}

/// The engine options every flight campaign runs under, spelled out:
/// one worker, so a round's time is the cells' own.
fn engine_options(cache_dir: &FsPath) -> EngineOptions {
    EngineOptions {
        jobs: Some(1),
        batch: Some(1),
        cache_dir: Some(cache_dir.to_path_buf()),
        max_attempts: 1,
        stuck_budget: Duration::from_secs(600),
        reference_tick: false,
    }
}

/// Packets a cell put on the wire: media, retransmissions and parity.
pub fn packets_of(m: &RunMetrics) -> u64 {
    m.media_sent + m.rtx_sent + m.fec_tx
}

/// The sanity bounds a completed cell must meet (taken from the
/// repository's tests): goodput and displayed frames above zero, and on
/// the single-path paper cells a packet error rate below 5 %.
pub fn sane(m: &RunMetrics, check_per: bool) -> Result<(), String> {
    if m.goodput_bps() <= 0.0 {
        return Err("zero goodput".into());
    }
    if !m.frames.iter().any(|f| f.displayed) {
        return Err("no frame displayed".into());
    }
    if check_per && m.per() >= 0.05 {
        return Err(format!("PER {:.4} >= 0.05", m.per()));
    }
    Ok(())
}

/// Sealed bytes under a cache directory's shards.
pub fn sealed_bytes(dir: &FsPath) -> u64 {
    let mut total = 0;
    let Ok(shards) = std::fs::read_dir(dir) else {
        return 0;
    };
    for shard in shards.filter_map(Result::ok) {
        if !shard.path().is_dir() || shard.file_name() == "quarantine" {
            continue;
        }
        for f in std::fs::read_dir(shard.path()).into_iter().flatten() {
            let Ok(f) = f else { continue };
            if f.path().extension().is_some_and(|e| e == "rpav") {
                total += f.metadata().map_or(0, |m| m.len());
            }
        }
    }
    total
}

/// One campaign round through the engine, and what it measured.
pub struct Round {
    pub cells: u64,
    pub wall: Duration,
    /// Per-cell wall time, in submission order (one worker: the gap
    /// between consecutive outcomes).
    pub cell_walls: Vec<Duration>,
    /// Per-cell process CPU time, measured over the same gaps.
    pub cell_cpu: Vec<Duration>,
    pub packets: u64,
    pub handovers: u64,
    pub fec_parity: u64,
    pub fec_recovered: u64,
    pub allocs: u64,
    pub cache_bytes: u64,
    pub failed: u64,
    /// Canonical aggregate bytes, and FNV-1a of each cell's metrics bytes.
    pub aggregates: Vec<u8>,
    pub cell_hashes: Vec<u64>,
}

/// Run round `k` in a fresh cache directory under `work`, then remove it.
pub fn run_round(kind: Kind, k: u64, work: &FsPath, hash_cells: bool) -> Round {
    let cache = work.join(format!("cache-{k}"));
    let _ = std::fs::remove_dir_all(&cache);
    std::fs::create_dir_all(&cache).expect("create cache dir");
    let engine = engine_options(&cache).engine();
    let spec = round_spec(kind);
    let mut r = Round {
        cells: 0,
        wall: Duration::ZERO,
        cell_walls: Vec::new(),
        cell_cpu: Vec::new(),
        packets: 0,
        handovers: 0,
        fec_parity: 0,
        fec_recovered: 0,
        allocs: 0,
        cache_bytes: 0,
        failed: 0,
        aggregates: Vec::new(),
        cell_hashes: Vec::new(),
    };
    let a0 = rpav_sim::alloc::events();
    let t0 = Instant::now();
    let mut last = Duration::ZERO;
    let mut last_cpu = process_cpu();
    let summary = engine.run_streaming_observed(&spec, &mut |o| {
        let now = t0.elapsed();
        r.cell_walls.push(now - last);
        last = now;
        let cpu = process_cpu();
        r.cell_cpu.push(cpu - last_cpu);
        last_cpu = cpu;
        r.cells += 1;
        match o {
            CellOutcome::Failed {
                cell, panic_msg, ..
            } => {
                eprintln!("rpavbench: cell {} poisoned: {panic_msg}", cell.label());
                r.failed += 1;
            }
            CellOutcome::Done {
                cell,
                metrics,
                cached,
                ..
            } => {
                let check = if *cached {
                    Err("served from cache in a fresh cache".to_string())
                } else {
                    sane(metrics, kind == Kind::Single)
                };
                if let Err(e) = check {
                    eprintln!("rpavbench: cell {} failed its check: {e}", cell.label());
                    r.failed += 1;
                }
                r.packets += packets_of(metrics);
                r.handovers += metrics.handovers.len() as u64;
                r.fec_parity += metrics.fec_tx;
                r.fec_recovered += metrics.fec_recovered;
                if hash_cells {
                    r.cell_hashes.push(fnv1a(&metrics.to_bytes()));
                }
            }
        }
    });
    r.wall = t0.elapsed();
    r.allocs = rpav_sim::alloc::events() - a0;
    r.aggregates = summary.report.aggregates.to_bytes();
    r.cache_bytes = sealed_bytes(&cache);
    let _ = std::fs::remove_dir_all(&cache);
    r
}

/// The counts that must repeat exactly at one seed, by name.
fn counts(r: &Round) -> [(&'static str, u64); 6] {
    [
        ("packets", r.packets),
        ("handovers", r.handovers),
        ("fec_parity", r.fec_parity),
        ("fec_recovered", r.fec_recovered),
        ("allocs", r.allocs),
        ("cache_bytes", r.cache_bytes),
    ]
}

/// The set-up warm-up: one short single-path cell through the same
/// engine path, so lazy process-wide state (thread-locals, channel
/// contexts, code pages) is in place before the first timed round.
fn warm_up(work: &FsPath) {
    let cache = work.join("warm-up");
    let spec = MatrixSpec::new(
        ExperimentConfig::builder()
            .environment(Environment::Rural)
            .cc(CcMode::paper_static(Environment::Rural))
            .seed(FLIGHT_SIM_SEED)
            .hold_secs(1)
            .build(),
    );
    let summary = engine_options(&cache).engine().run_streaming(&spec);
    assert_eq!(summary.report.failed, 0, "warm-up cell failed");
    let _ = std::fs::remove_dir_all(&cache);
}

/// Time `SETUP_REPS` set-ups (fresh work directory, explicit options,
/// engine, expanded first round, warm-up cell) and return the median in
/// seconds.
fn setup(kind: Kind, work: &FsPath) -> f64 {
    let mut samples = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let _ = std::fs::remove_dir_all(work);
        std::fs::create_dir_all(work).expect("create work dir");
        let engine = engine_options(&work.join("cache-0")).engine();
        let cells = round_spec(kind).expand();
        std::hint::black_box((engine.jobs(), cells.len()));
        warm_up(work);
        samples.push(t0.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// Report, on stderr, every count of `r` that differs from `first`'s
/// (identical rounds must repeat them exactly); returns how many differ.
/// Differing aggregate or metrics bytes count as one.
fn compare_counts(first: &Round, r: &Round) -> usize {
    let mut unstable = 0;
    for ((name, x), (_, y)) in counts(first).iter().zip(counts(r).iter()) {
        if x != y {
            eprintln!("rpavbench: count did not repeat: {name} {x} vs {y}");
            unstable += 1;
        }
    }
    if first.aggregates != r.aggregates || first.cell_hashes != r.cell_hashes {
        eprintln!("rpavbench: aggregate or metrics bytes did not repeat");
        unstable += 1;
    }
    unstable
}

/// The untraced run: the round repeats until `--seconds` have elapsed.
/// Cell times are the process's CPU time (one engine worker, so a cell's
/// CPU time is its own work), which leaves out waits for the disk (each
/// sealed result is fsync'd) and for cores the host gives to other
/// tenants; they are medians over rounds, per cell.
pub fn run(kind: Kind, args: &Args, work: PathBuf) -> Outcome {
    let setup_s = setup(kind, &work);
    let mut rounds: Vec<Round> = Vec::new();
    let mut correct = true;
    let start = Instant::now();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < args.seconds as f64 {
        let r = run_round(kind, rounds.len() as u64, &work, false);
        if let Some(first) = rounds.first() {
            compare_counts(first, &r);
            // The same cells must give the same results.
            correct &= first.aggregates == r.aggregates;
        }
        rounds.push(r);
    }
    // Each cell's time is its median CPU time across rounds; the latency
    // figures are quantiles over those per-cell medians, so each rests on
    // every round rather than on the few slowest ones.
    let n = rounds[0].cells as usize;
    let per_cell_ms = |pick: fn(&Round) -> &Vec<Duration>| -> Vec<f64> {
        (0..n)
            .map(|c| {
                let ms: Vec<f64> = rounds
                    .iter()
                    .filter_map(|r| pick(r).get(c))
                    .map(|d| d.as_secs_f64() * 1e3)
                    .collect();
                median(&ms)
            })
            .collect()
    };
    let cell_ms = per_cell_ms(|r| &r.cell_cpu);
    let wall_ms = per_cell_ms(|r| &r.cell_walls);
    let cells: u64 = rounds.iter().map(|r| r.cells).sum();
    let latency: Vec<f64> = rounds.iter().map(|r| r.wall.as_secs_f64() * 1e3).collect();
    let r0 = &rounds[0];
    eprintln!(
        "rpavbench: {} rounds of {n} cells; median round {:.3} s; wall-clock {:.4} cells/s against {:.4} per CPU second",
        rounds.len(),
        median(&latency) / 1e3,
        n as f64 * 1e3 / wall_ms.iter().sum::<f64>(),
        n as f64 * 1e3 / cell_ms.iter().sum::<f64>(),
    );
    let mut out = Outcome {
        attempted: cells,
        failed: rounds.iter().map(|r| r.failed).sum(),
        correct,
        metrics: Vec::new(),
    };
    out.push(
        "cells_per_s",
        n as f64 * 1e3 / cell_ms.iter().sum::<f64>(),
        "1/s",
    );
    out.push(
        "peak_heap_mb",
        rpav_sim::alloc::peak_bytes() as f64 / 1e6,
        "MB",
    );
    out.push(
        "allocs_per_packet",
        r0.allocs as f64 / r0.packets.max(1) as f64,
        "allocs/packet",
    );
    out.push(
        "cache_bytes_per_cell",
        r0.cache_bytes as f64 / r0.cells.max(1) as f64,
        "bytes",
    );
    out.push("submit_to_aggregates_ms_p50", median(&cell_ms), "ms");
    out.push("submit_to_aggregates_ms_p90", quantile(&cell_ms, 0.9), "ms");
    out.push("first_event_ms_p50", cell_ms[0], "ms");
    out.push("setup_s", setup_s, "s");
    out
}

/// Write one sealed cache record the way the engine's durable store
/// does: encode, seal into a tmp file, fsync, rename into its shard.
fn store_sealed(dir: &FsPath, key: u64, m: &RunMetrics, buf: &mut Vec<u8>) {
    let path = cache_entry_path(dir, key);
    let shard = path.parent().expect("sharded path").to_path_buf();
    std::fs::create_dir_all(&shard).expect("create shard");
    let tmp = shard.join(format!("{key:016x}.{}.tmp", std::process::id()));
    let mut w = ByteWriter::with_buf(std::mem::take(buf));
    m.write_into(&mut w);
    let payload = w.into_bytes();
    let mut f = std::fs::File::create(&tmp).expect("create tmp");
    codec::seal_to(&payload, &mut f).expect("seal");
    f.sync_all().expect("fsync");
    std::fs::rename(&tmp, &path).expect("rename");
    *buf = payload;
}

/// The traced run. Round 0 first runs twice untraced through the engine
/// (the exact-count check); then, round by round until `--seconds`
/// elapse, every cell runs untraced (`Cell::execute_with(false)`) and
/// traced: through the mirror (`flight-single`) or through the replays
/// of its reported work (`flight-bonded`).
pub fn run_traced(kind: Kind, args: &Args, work: PathBuf) -> Outcome {
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("create work dir");
    warm_up(&work);
    let a = run_round(kind, 0, &work, true);
    let b = run_round(kind, 1, &work, true);
    let mut unstable = compare_counts(&a, &b);
    let mut failed = a.failed + b.failed;
    let mut attempted = a.cells + b.cells;

    let mut tracer = Tracer::default();
    let cal = Calibration::start();
    let mut traced_ticks = 0u64;
    let mut cell_walls_ns = 0f64;
    let mut untraced = Duration::ZERO;
    let mut replay_ticks = 0u64;
    let mut packets = 0u64;
    let mut cells = 0u64;
    let mut steps = 0u64;
    let mut steps_round0 = 0u64;
    let mut queue_peak = 0u64;
    let mut drops = 0u64;
    let mut residual_allocs = 0u64;
    let mut stale = 0u64;
    let mut buf = Vec::new();
    let codec_layer = layer("core.codec.write");
    let cache = work.join("traced-cache");
    let start = Instant::now();
    let mut k = 0u64;
    while k == 0 || start.elapsed().as_secs_f64() < args.seconds as f64 {
        let steps_before = steps;
        for cell in round_spec(kind).expand() {
            attempted += 1;
            cells += 1;
            // Untraced reference: the engine's own execution path.
            let a0 = rpav_sim::alloc::events();
            let t0 = Instant::now();
            let reference = cell.execute_with(false);
            let cell_allocs = rpav_sim::alloc::events() - a0;
            if kind == Kind::Single {
                store_sealed(&cache, cell.key(), &reference, &mut buf);
            }
            untraced += t0.elapsed();
            if let Err(e) = sane(&reference, kind == Kind::Single) {
                eprintln!("rpavbench: cell {} failed its check: {e}", cell.label());
                failed += 1;
            }
            packets += packets_of(&reference);
            match kind {
                Kind::Single => {
                    let a0 = rpav_sim::alloc::events();
                    let t0 = trace::ticks();
                    let before: u64 = tracer.allocs.iter().sum();
                    let (m, stats) = Mirror::new(cell.config, &mut tracer).run();
                    span!(
                        tracer,
                        codec_layer,
                        store_sealed(&cache, cell.key(), &m, &mut buf)
                    );
                    traced_ticks += trace::ticks() - t0;
                    let charged: u64 = tracer.allocs.iter().sum::<u64>() - before;
                    residual_allocs += (rpav_sim::alloc::events() - a0).saturating_sub(charged);
                    if m.to_bytes() != reference.to_bytes() {
                        eprintln!(
                            "rpavbench: traced mirror diverged from Cell::execute_with(false) on {}",
                            cell.label()
                        );
                        stale += 1;
                    }
                    steps += stats.steps;
                    queue_peak = queue_peak.max(stats.queue_peak_bytes);
                    drops += stats.drops;
                }
                Kind::Bonded => {
                    // The cell's untraced wall is what the shares divide.
                    cell_walls_ns += t0.elapsed().as_nanos() as f64;
                    let before: u64 = tracer.allocs.iter().sum();
                    let t0 = trace::ticks();
                    replay::bonded(&cell.config, &reference, &mut tracer);
                    replay_ticks += trace::ticks() - t0;
                    let charged: u64 = tracer.allocs.iter().sum::<u64>() - before;
                    residual_allocs += cell_allocs.saturating_sub(charged);
                }
            }
        }
        let _ = std::fs::remove_dir_all(&cache);
        let round_steps = steps - steps_before;
        if k == 0 {
            steps_round0 = round_steps;
        } else if round_steps != steps_round0 {
            eprintln!("rpavbench: count did not repeat: steps {steps_round0} vs {round_steps}");
            unstable += 1;
        }
        k += 1;
    }
    let ns_per_tick = cal.ns_per_tick();
    let (traced_ns, overhead) = match kind {
        Kind::Single => {
            let ns = traced_ticks as f64 * ns_per_tick;
            (ns, ns / untraced.as_nanos() as f64 - 1.0)
        }
        Kind::Bonded => (
            cell_walls_ns,
            replay_ticks as f64 * ns_per_tick / cell_walls_ns,
        ),
    };
    eprintln!(
        "rpavbench: traced {cells} cells over {k} round(s); traced wall {:.2} s, untraced {:.2} s, {stale} stale",
        traced_ns / 1e9,
        untraced.as_secs_f64()
    );
    let (residual, residual_calls) = match kind {
        Kind::Single => ("core.driver", steps),
        Kind::Bonded => ("multipath.driver", cells),
    };
    let report = LayerReport {
        tracer,
        ns_per_tick,
        wall_ns: traced_ns,
        residual,
        residual_calls,
        residual_allocs,
        packets,
        campaigns: 0,
        extras: vec![
            ("core.sched.steps_per_cell", steps as f64 / cells as f64),
            ("netem.queue_peak_bytes", queue_peak as f64),
            ("netem.drops", drops as f64),
            ("count.steps", steps_round0 as f64),
            ("count.packets", a.packets as f64),
            ("count.handovers", a.handovers as f64),
            ("count.fec_parity", a.fec_parity as f64),
            ("count.fec_recovered", a.fec_recovered as f64),
            ("count.allocs", a.allocs as f64),
            ("count.cache_bytes", a.cache_bytes as f64),
            ("count.unstable", unstable as f64),
            ("trace.stale", stale as f64),
            ("trace.overhead_share", overhead),
            ("trace.wall_s", traced_ns / 1e9),
            ("failed_share", failed as f64 / attempted as f64),
        ],
    };
    let mut out = Outcome {
        attempted,
        failed,
        correct: true,
        metrics: Vec::new(),
    };
    report.emit(&mut out);
    out
}
