//! `rpavbench` — the rpav benchmark.
//!
//! ```sh
//! rpavbench --workload flight-single --seed 1 --seconds 30 --trace 0 \
//!     --work-dir .bench_build/rpavbench-work --rpavd .bench_build/release/rpavd
//! ```
//!
//! Workloads: `flight-single`, `flight-bonded`, `rpavd-warm` (see
//! README.md next to this crate). `--trace 0` prints the end-to-end
//! metrics, `--trace 1` the per-layer breakdown of a separate traced run.
//! The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod flight;
mod mirror;
mod replay;
mod report;
mod trace;
mod warm;

use std::path::PathBuf;

// Allocation events and heap high-water marks for the in-process
// workloads; the daemon registers the same allocator.
#[global_allocator]
static ALLOC: rpav_sim::alloc::CountingAlloc = rpav_sim::alloc::CountingAlloc;

/// Environment knobs that would change what the program runs; the
/// benchmark pins everything through explicit options instead.
const PINNED_ENV: &[&str] = &[
    "RPAV_REFERENCE_TICK",
    "RPAV_JOBS",
    "RPAV_BATCH",
    "RPAV_CACHE",
    "RPAV_DEBUG",
];

const USAGE: &str = "usage: rpavbench --workload flight-single|flight-bonded|rpavd-warm \
--seed N --seconds N --trace 0|1 --work-dir DIR --rpavd PATH";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub work_dir: PathBuf,
    pub rpavd: PathBuf,
}

fn fail(msg: &str) -> ! {
    eprintln!("rpavbench: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = None;
    let mut rpavd = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| fail(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|&s: &u64| s > 0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => fail("--trace takes 0 or 1"),
                }
            }
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            "--rpavd" => rpavd = Some(PathBuf::from(value)),
            other => fail(&format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.unwrap_or_else(|| fail("--workload is required"));
    if !["flight-single", "flight-bonded", "rpavd-warm"].contains(&workload.as_str()) {
        fail(&format!("unknown workload {workload:?}"));
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| fail("--seed needs an unsigned integer")),
        seconds: seconds.unwrap_or_else(|| fail("--seconds needs a positive integer")),
        trace: trace.unwrap_or_else(|| fail("--trace is required")),
        work_dir: work_dir.unwrap_or_else(|| fail("--work-dir is required")),
        rpavd: rpavd.unwrap_or_else(|| fail("--rpavd is required")),
    }
}

fn main() {
    let set: Vec<&str> = PINNED_ENV
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        fail(&format!(
            "refusing to run with {} set: the benchmark pins these through explicit options",
            set.join(", ")
        ));
    }
    let args = parse_args();
    let work = args
        .work_dir
        .join(format!("{}-{}", args.workload, std::process::id()));
    eprintln!(
        "rpavbench: {} seed {} ({} s, trace {})",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut out = match (args.workload.as_str(), args.trace) {
        ("flight-single", false) => flight::run(flight::Kind::Single, &args, work.clone()),
        ("flight-single", true) => flight::run_traced(flight::Kind::Single, &args, work.clone()),
        ("flight-bonded", false) => flight::run(flight::Kind::Bonded, &args, work.clone()),
        ("flight-bonded", true) => flight::run_traced(flight::Kind::Bonded, &args, work.clone()),
        (_, traced) => warm::run(&args, work.clone(), traced),
    };
    // After the workload, whose heap high-water mark has been read: the
    // kernel's table must not raise `peak_heap_mb`.
    let calib_ns = report::host_calibration();
    eprintln!("rpavbench: host calibration {calib_ns:.3} ns/iter");
    if args.trace {
        out.push("host.calib_ns", calib_ns, "ns");
    }
    let _ = std::fs::remove_dir_all(&work);
    if out.failed > 0 {
        eprintln!(
            "rpavbench: failed_share {:.4} ({} of {})",
            out.failed as f64 / out.attempted.max(1) as f64,
            out.failed,
            out.attempted
        );
    }
    println!("{}", out.to_json());
}
