//! `rpavd-warm`: the real `rpavd` binary serving campaigns whose every
//! cell is already in its cache.
//!
//! Set-up simulates a pool of 1 s-hold cells into the daemon's cache
//! (environments × CCs × run indices), then starts the daemon on
//! `127.0.0.1:0`. One client thread then drives a closed loop, one
//! connection at a time: each campaign is a seeded, never-repeated
//! subset of the pool, submitted, followed over `/events`, and collected
//! from `/aggregates`. No campaign simulates anything.

use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path as FsPath, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rpav_core::exec::cache_entry_path;
use rpav_core::journal::CampaignJournal;
use rpav_core::prelude::*;
use rpav_daemon::client;
use rpav_sim::SimRng;

use crate::flight::{packets_of, sane, FLIGHT_SIM_SEED};
use crate::report::{median, quantile, LayerReport, Outcome};
use crate::trace::{self, layer, Calibration, Tracer};
use crate::{span, Args};

/// Run indices in the pool; with two environments and three CCs the pool
/// holds 24 cells and offers 3 × 7 × 10 = 210 distinct campaigns.
const POOL_RUNS: u64 = 4;
/// Engine workers for the daemon, the pool fill and the in-process
/// reference: one, so the client thread and the daemon's executor keep
/// the second core of a two-core host, and the serial server-side replay
/// of a traced run stays comparable to the latency it explains.
const DAEMON_JOBS: usize = 1;
/// Campaigns a run serves at least, past `--seconds` if need be, so the
/// latency p90 has ten samples beyond it.
const MIN_CAMPAIGNS: usize = 100;
/// Fresh daemons whose high-water marks give `peak_heap_mb`.
const PEAK_PROBES: usize = 5;
/// Engine workers for the pool fill, which runs before the daemon starts.
const POOL_JOBS: usize = 2;
/// Daemon start-ups timed per run (the pool is filled once).
const START_REPS: usize = 3;
/// Per-read socket budget.
const IO_TIMEOUT: Duration = Duration::from_secs(120);

fn ccs() -> [CcMode; 3] {
    [
        CcMode::paper_static(Environment::Rural),
        CcMode::paper_scream(),
        CcMode::Gcc,
    ]
}

/// Pool cells are pinned to the campaign master seed, like the flight
/// cells; the workload seed picks which campaigns a run serves.
fn base(run_index: u64) -> ExperimentConfig {
    ExperimentConfig::builder()
        .mobility(Mobility::Air)
        .seed(FLIGHT_SIM_SEED)
        .run_index(run_index)
        .hold_secs(1)
        .build()
}

fn options(jobs: usize, cache_dir: Option<PathBuf>) -> EngineOptions {
    EngineOptions {
        jobs: Some(jobs),
        batch: None,
        cache_dir,
        max_attempts: 1,
        stuck_budget: Duration::from_secs(120),
        reference_tick: false,
    }
}

/// Every campaign the pool can serve — a non-empty environment subset ×
/// a non-empty CC subset × a contiguous run range — in a seeded order
/// stratified by size: each step takes the size class with the largest
/// share still unserved, so any prefix holds small and large campaigns in
/// the same proportion whatever the seed, and only the choice within a
/// class is the seed's.
fn campaigns(rng: &mut SimRng) -> Vec<CampaignSpec> {
    let envs = [Environment::Urban, Environment::Rural];
    let mut all = Vec::new();
    for env_mask in 1..4usize {
        for cc_mask in 1..8usize {
            for first in 0..POOL_RUNS {
                for len in 1..=POOL_RUNS - first {
                    let e: Vec<_> = (0..2)
                        .filter(|i| env_mask >> i & 1 == 1)
                        .map(|i| envs[i])
                        .collect();
                    let c: Vec<_> = (0..3)
                        .filter(|i| cc_mask >> i & 1 == 1)
                        .map(|i| ccs()[i])
                        .collect();
                    all.push(
                        CampaignSpec::new(base(first))
                            .environments(e)
                            .ccs(c)
                            .runs(len)
                            .with_options(options(DAEMON_JOBS, None)),
                    );
                }
            }
        }
    }
    for i in (1..all.len()).rev() {
        all.swap(i, rng.uniform_u64(0, i as u64 + 1) as usize);
    }
    let mut classes: BTreeMap<u64, Vec<CampaignSpec>> = BTreeMap::new();
    for spec in all {
        let cells = spec.to_matrix().cell_count().unwrap_or(0);
        classes.entry(cells).or_default().push(spec);
    }
    let totals: Vec<f64> = classes.values().map(|c| c.len() as f64).collect();
    let mut order = Vec::new();
    loop {
        let next = classes
            .values()
            .zip(&totals)
            .enumerate()
            .filter(|(_, (c, _))| !c.is_empty())
            .max_by(|(i, (a, ta)), (j, (b, tb))| {
                (a.len() as f64 / **ta)
                    .total_cmp(&(b.len() as f64 / **tb))
                    .then(j.cmp(i))
            })
            .map(|(i, _)| i);
        let Some(i) = next else { break };
        let class = classes.values_mut().nth(i).expect("class");
        order.push(class.pop().expect("non-empty"));
    }
    order
}

/// The running daemon; killed and reaped on drop.
struct Daemon {
    child: Child,
    addr: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Start `rpavd` on an ephemeral port and wait for its first ready
/// answer (`GET /metrics` → 200).
fn start_daemon(rpavd: &FsPath, cache: &FsPath, work: &FsPath) -> Daemon {
    let port_file = work.join("rpavd.addr");
    let _ = std::fs::remove_file(&port_file);
    let child = Command::new(rpavd)
        .args(["--addr", "127.0.0.1:0", "--jobs", &DAEMON_JOBS.to_string()])
        .arg("--cache")
        .arg(cache)
        .arg("--port-file")
        .arg(&port_file)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap_or_else(|e| panic!("cannot start {}: {e}", rpavd.display()));
    let mut daemon = Daemon {
        child,
        addr: String::new(),
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(Some(status)) = daemon.child.try_wait() {
            panic!("rpavd exited during start-up: {status}");
        }
        if daemon.addr.is_empty() {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                daemon.addr = text.trim().to_string();
            }
        }
        if !daemon.addr.is_empty() {
            let ready = client::get(&daemon.addr, "/metrics", IO_TIMEOUT);
            if ready.is_ok_and(|r| r.status == 200) {
                return daemon;
            }
        }
        assert!(Instant::now() < deadline, "rpavd never became ready");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Remove HTTP/1.1 chunked framing.
fn dechunk(mut rest: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    while let Some(eol) = rest.windows(2).position(|w| w == b"\r\n") {
        let size =
            usize::from_str_radix(String::from_utf8_lossy(&rest[..eol]).trim(), 16).unwrap_or(0);
        if size == 0 {
            break;
        }
        let start = eol + 2;
        let end = (start + size).min(rest.len());
        out.extend_from_slice(&rest[start..end]);
        rest = rest.get(end + 2..).unwrap_or(&[]);
    }
    out
}

/// `GET /campaigns/<id>/events`, noting when the first NDJSON line has
/// arrived; returns (status, first-line instant, de-chunked body).
fn follow_events(addr: &str, id: &str) -> std::io::Result<(u16, Instant, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    write!(
        stream,
        "GET /campaigns/{id}/events HTTP/1.1\r\nHost: rpavd\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = Vec::new();
    let mut buf = [0u8; 16 * 1024];
    let mut first = None;
    let mut head_end = None;
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        raw.extend_from_slice(&buf[..n]);
        if head_end.is_none() {
            head_end = raw.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4);
        }
        // The chunk-size line ends in the first newline of the body, the
        // first event line in the second.
        if let (None, Some(h)) = (first, head_end) {
            if raw[h..].iter().filter(|&&b| b == b'\n').count() >= 2 {
                first = Some(Instant::now());
            }
        }
    }
    let h = head_end.ok_or_else(|| std::io::Error::other("no response head"))?;
    let status = String::from_utf8_lossy(&raw[..h])
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    Ok((
        status,
        first.unwrap_or_else(Instant::now),
        dechunk(&raw[h..]),
    ))
}

/// One warm campaign over HTTP and what it measured.
struct Served {
    latency: Duration,
    first_event: Duration,
    aggregates: Vec<u8>,
    id: String,
}

fn serve(addr: &str, spec: &CampaignSpec) -> Result<Served, String> {
    let t0 = Instant::now();
    let r = client::post_json(addr, "/campaigns", &spec.to_json(), IO_TIMEOUT)
        .map_err(|e| format!("POST: {e}"))?;
    if r.status != 201 {
        return Err(format!("POST answered {} ({})", r.status, r.text()));
    }
    let id = Json::parse(&r.text())
        .ok()
        .and_then(|j| j.get("id").and_then(|v| v.as_str()).map(str::to_string))
        .ok_or("POST answer has no id")?;
    let (status, first, events) = follow_events(addr, &id).map_err(|e| format!("events: {e}"))?;
    if status != 200 {
        return Err(format!("events answered {status}"));
    }
    let agg = client::get(addr, &format!("/campaigns/{id}/aggregates"), IO_TIMEOUT)
        .map_err(|e| format!("aggregates: {e}"))?;
    let latency = t0.elapsed();
    if agg.status != 200 {
        return Err(format!("aggregates answered {}", agg.status));
    }
    let cells = spec.to_matrix().cell_count().unwrap_or(0) as usize;
    let lines: Vec<&str> = std::str::from_utf8(&events).unwrap_or("").lines().collect();
    if lines.len() != cells || lines.iter().any(|l| !l.contains("\"status\":\"done\"")) {
        return Err(format!("{} event lines for {cells} cells", lines.len()));
    }
    Ok(Served {
        latency,
        first_event: first.saturating_duration_since(t0),
        aggregates: agg.body,
        id,
    })
}

/// The daemon's report must show every cell served from its cache.
fn check_all_cached(addr: &str, id: &str, cells: u64) -> Result<(), String> {
    let r = client::get(addr, &format!("/campaigns/{id}"), IO_TIMEOUT)
        .map_err(|e| format!("status: {e}"))?;
    let status = Json::parse(&r.text()).map_err(|e| format!("status JSON: {e}"))?;
    let report = status.get("report").ok_or("no report")?;
    let field = |k: &str| report.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX);
    if field("simulated") != 0 || field("cached") != cells || field("failed") != 0 {
        return Err(format!("cache miss or failure: {}", r.text()));
    }
    Ok(())
}

/// Per-cell facts gathered while filling the pool.
struct Pool {
    packets: HashMap<u64, u64>,
    sealed: HashMap<u64, u64>,
    /// Canonical aggregate bytes of the whole pool as one campaign.
    aggregates: Vec<u8>,
}

/// The whole pool as one campaign.
fn pool_spec() -> CampaignSpec {
    CampaignSpec::new(base(0))
        .environments([Environment::Urban, Environment::Rural])
        .ccs(ccs())
        .runs(POOL_RUNS)
        .with_options(options(DAEMON_JOBS, None))
}

fn fill_pool(cache: &FsPath) -> Pool {
    let spec = pool_spec();
    let mut pool = Pool {
        packets: HashMap::new(),
        sealed: HashMap::new(),
        aggregates: Vec::new(),
    };
    let summary = options(POOL_JOBS, Some(cache.to_path_buf()))
        .engine()
        .run_streaming_observed(&spec.to_matrix(), &mut |o| {
            let m = o.try_metrics().expect("pool cell poisoned");
            if let Err(e) = sane(m, false) {
                panic!("pool cell {} failed its check: {e}", o.cell().label());
            }
            pool.packets.insert(o.cell().key(), packets_of(m));
        });
    assert_eq!(summary.report.failed, 0, "pool fill failed");
    pool.aggregates = summary.report.aggregates.to_bytes();
    for &key in pool.packets.keys() {
        let len = std::fs::metadata(cache_entry_path(cache, key)).map_or(0, |m| m.len());
        pool.sealed.insert(key, len);
    }
    pool
}

/// The daemon's `alloc.peak_bytes`, or 0 if it does not answer.
fn daemon_peak(addr: &str) -> u64 {
    client::get(addr, "/metrics", IO_TIMEOUT)
        .ok()
        .and_then(|r| Json::parse(&r.text()).ok())
        .and_then(|m| m.get("alloc")?.get("peak_bytes")?.as_u64())
        .unwrap_or(0)
}

/// `peak_heap_mb`: the heap high-water mark of a fresh daemon serving the
/// whole pool as one warm campaign, least over `PEAK_PROBES` daemons,
/// each on its own hard-linked copy of the pool. A daemon's high-water
/// mark is a race (its engine worker decodes the next cell while the
/// executor may still hold the last one), which adds a cell's worth in
/// about one daemon in seven, more often while the host is busy; the
/// least of five is the mark without that overlap. The resident daemon's
/// race-inclusive figure is reported as a diagnostic in the traced run.
fn peak_probe(rpavd: &FsPath, cache: &FsPath, pool: &Pool, work: &FsPath) -> Result<f64, String> {
    let spec = pool_spec();
    let mut peaks = Vec::new();
    for i in 0..PEAK_PROBES {
        let dir = work.join(format!("probe-{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        for &key in pool.packets.keys() {
            let dst = cache_entry_path(&dir, key);
            let shard = dst.parent().expect("sharded path");
            std::fs::create_dir_all(shard).map_err(|e| e.to_string())?;
            std::fs::hard_link(cache_entry_path(cache, key), &dst).map_err(|e| e.to_string())?;
        }
        let daemon = start_daemon(rpavd, &dir, work);
        let served = serve(&daemon.addr, &spec)?;
        check_all_cached(&daemon.addr, &served.id, pool.packets.len() as u64)?;
        if served.aggregates != pool.aggregates {
            return Err("peak probe: served aggregates differ from the pool's".into());
        }
        peaks.push(daemon_peak(&daemon.addr) as f64);
        drop(daemon);
        let _ = std::fs::remove_dir_all(&dir);
    }
    eprintln!(
        "rpavbench: fresh-daemon peaks (MB): {:?}",
        peaks
            .iter()
            .map(|p| (p / 1e5).round() / 10.0)
            .collect::<Vec<_>>()
    );
    Ok(peaks.iter().copied().fold(f64::INFINITY, f64::min))
}

/// Server-side replay of one campaign through the public functions the
/// daemon runs, charged to the `core.*` layers. Returns the replayed
/// aggregate bytes.
fn replay(spec: &CampaignSpec, cache: &FsPath, journal_dir: &FsPath, tr: &mut Tracer) -> Vec<u8> {
    let (json, expand, journal, read, fold) = (
        layer("core.json"),
        layer("core.exec.expand"),
        layer("core.journal"),
        layer("core.codec.read"),
        layer("core.summary.fold"),
    );
    let text = spec.to_json();
    let parsed = span!(tr, json, CampaignSpec::from_json(&text)).expect("spec round-trips");
    span!(tr, json, parsed.to_json());
    let id = span!(tr, json, parsed.identity());
    let cells = span!(tr, expand, parsed.to_matrix().expand());
    for c in &cells {
        span!(tr, expand, c.key());
    }
    let mut j = span!(
        tr,
        journal,
        CampaignJournal::open(journal_dir, id, cells.len())
    )
    .expect("open replay journal");
    let mut agg = CampaignAggregates::default();
    for (i, c) in cells.iter().enumerate() {
        let m = span!(tr, read, {
            let bytes = std::fs::read(cache_entry_path(cache, c.key())).expect("read pool cell");
            RunMetrics::from_cache_bytes(&bytes).expect("decode pool cell")
        });
        span!(tr, journal, j.record(i)).expect("journal record");
        span!(tr, fold, agg.fold(&m));
    }
    agg.to_bytes()
}

pub fn run(args: &Args, work: PathBuf, traced: bool) -> Outcome {
    let t_setup = Instant::now();
    let _ = std::fs::remove_dir_all(&work);
    let cache = work.join("rpavd-cache");
    std::fs::create_dir_all(&cache).expect("create cache dir");
    let pool = fill_pool(&cache);
    let pool_s = t_setup.elapsed().as_secs_f64();
    let mut starts = Vec::new();
    let mut daemon = None;
    for _ in 0..START_REPS {
        drop(daemon.take());
        let t0 = Instant::now();
        daemon = Some(start_daemon(&args.rpavd, &cache, &work));
        starts.push(t0.elapsed().as_secs_f64());
    }
    let daemon = daemon.expect("daemon started");
    let setup_s = pool_s + median(&starts);
    eprintln!(
        "rpavbench: pool of {} cells filled in {pool_s:.2} s; rpavd ready in {:.3} s",
        pool.packets.len(),
        median(&starts)
    );

    let specs = campaigns(&mut SimRng::seed_from_u64(args.seed));
    let verify_opts = options(DAEMON_JOBS, Some(cache.clone()));
    let journal_dir = work.join("replay-journal");
    let mut tracer = Tracer::default();
    let cal = Calibration::start();
    let mut replay_ticks = 0u64;
    let mut latency = Vec::new();
    let mut rates = Vec::new();
    let mut first = Vec::new();
    let (mut cells, mut packets, mut sealed, mut allocs) = (0u64, 0u64, 0u64, 0u64);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    for spec in &specs {
        if latency.len() >= MIN_CAMPAIGNS && start.elapsed().as_secs_f64() >= args.seconds as f64 {
            break;
        }
        attempted += 1;
        let keys: Vec<u64> = spec.to_matrix().expand().iter().map(Cell::key).collect();
        let n = keys.len() as u64;
        let served = serve(&daemon.addr, spec).and_then(|s| {
            check_all_cached(&daemon.addr, &s.id, n)?;
            Ok(s)
        });
        let served = match served {
            Ok(s) => s,
            Err(e) => {
                eprintln!("rpavbench: campaign {attempted} failed: {e}");
                failed += 1;
                continue;
            }
        };
        let expected = if traced {
            let t0 = trace::ticks();
            let bytes = replay(spec, &cache, &journal_dir, &mut tracer);
            replay_ticks += trace::ticks() - t0;
            bytes
        } else {
            // Untimed in-process reference over the same cache; its
            // allocation events are the read path's. The first campaign
            // runs it twice: the count must repeat.
            let verify = || {
                let a0 = rpav_sim::alloc::events();
                let summary = verify_opts.engine().run_streaming(&spec.to_matrix());
                let used = rpav_sim::alloc::events() - a0;
                let ok = summary.failures.is_empty();
                (ok.then(|| summary.report.aggregates.to_bytes()), used)
            };
            let (mut bytes, used) = verify();
            allocs += used;
            if attempted == 1 {
                let (again, used_again) = verify();
                if again != bytes {
                    bytes = None;
                }
                if used_again != used {
                    eprintln!(
                        "rpavbench: count did not repeat: read-path allocation events {used} vs {used_again}"
                    );
                }
            }
            bytes.unwrap_or_default()
        };
        if expected != served.aggregates {
            eprintln!("rpavbench: campaign {attempted}: served aggregates differ from in-process");
            failed += 1;
            continue;
        }
        latency.push(served.latency.as_secs_f64() * 1e3);
        rates.push(n as f64 / served.latency.as_secs_f64());
        first.push(served.first_event.as_secs_f64() * 1e3);
        cells += n;
        packets += keys.iter().map(|k| pool.packets[k]).sum::<u64>();
        sealed += keys.iter().map(|k| pool.sealed[k]).sum::<u64>();
    }
    let resident_peak = daemon_peak(&daemon.addr);
    drop(daemon);
    let busy_s: f64 = latency.iter().sum::<f64>() / 1e3;
    eprintln!(
        "rpavbench: {attempted} campaigns ({failed} failed), {cells} cells served in {busy_s:.2} s"
    );
    let mut out = Outcome {
        attempted,
        failed,
        correct: true,
        metrics: Vec::new(),
    };
    if traced {
        let ns_per_tick = cal.ns_per_tick();
        let campaigns = latency.len() as u64;
        let report = LayerReport {
            tracer,
            ns_per_tick,
            wall_ns: busy_s * 1e9,
            residual: "rpavd.other",
            residual_calls: campaigns,
            residual_allocs: 0,
            packets,
            campaigns,
            extras: vec![
                ("count.packets", pool.packets.values().sum::<u64>() as f64),
                (
                    "count.cache_bytes",
                    pool.sealed.values().sum::<u64>() as f64,
                ),
                (
                    "trace.overhead_share",
                    replay_ticks as f64 * ns_per_tick / (busy_s * 1e9),
                ),
                ("trace.wall_s", busy_s),
                ("rpavd.resident_peak_mb", resident_peak as f64 / 1e6),
                ("failed_share", failed as f64 / attempted.max(1) as f64),
            ],
        };
        report.emit(&mut out);
    } else {
        out.push("cells_per_s", median(&rates), "1/s");
        let peak = match peak_probe(&args.rpavd, &cache, &pool, &work) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("rpavbench: {e}");
                out.correct = false;
                0.0
            }
        };
        eprintln!(
            "rpavbench: resident daemon peak {:.1} MB",
            resident_peak as f64 / 1e6
        );
        out.push("peak_heap_mb", peak / 1e6, "MB");
        out.push(
            "allocs_per_packet",
            allocs as f64 / packets.max(1) as f64,
            "allocs/packet",
        );
        out.push(
            "cache_bytes_per_cell",
            sealed as f64 / cells.max(1) as f64,
            "bytes",
        );
        out.push("submit_to_aggregates_ms_p50", median(&latency), "ms");
        out.push("submit_to_aggregates_ms_p90", quantile(&latency, 0.9), "ms");
        out.push("first_event_ms_p50", median(&first), "ms");
        out.push("setup_s", setup_s, "s");
    }
    let _ = std::fs::remove_dir_all(&work);
    out
}
