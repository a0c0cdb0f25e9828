//! Wall-clock benchmark of the dOpenCL stack over TCP loopback.
//!
//! ```text
//! perfbench --workload <command_stream|bulk_transfer|mandelbrot_frame|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones (see `README.md` for what each means on each workload).  Every
//! metric is printed as `name = value unit`; the last line of standard
//! output is one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`.  A traced run also writes its first spans to
//! `.perfbench/spans-<workload>-seed<n>.csv`.

mod api;
mod bulk_transfer;
mod command_stream;
mod mandelbrot_frame;
mod probes;
mod runner;
mod session;
mod stats;
mod trace;

use runner::{run_traced, run_untraced, Config, Report, Workload};
use std::process::ExitCode;

/// Spans written to the CSV file (the first ones; all feed the metrics).
const SPANS_WRITTEN: usize = 20_000;

const WORKLOADS: [&str; 3] = ["command_stream", "bulk_transfer", "mandelbrot_frame"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad --seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?} or all"));
    }
    let seconds: f64 = seconds.unwrap_or(10.0);
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args { workload, seed: seed.unwrap_or(1), seconds, trace: trace.unwrap_or(false) })
}

fn run<W: Workload>(cfg: &Config, seconds: f64, traced: bool) -> Result<Report, String> {
    if traced {
        run_traced::<W>(cfg, seconds)
    } else {
        run_untraced::<W>(cfg, seconds)
    }
}

fn run_workload(name: &str, cfg: &Config, seconds: f64, traced: bool) -> Result<Report, String> {
    match name {
        "command_stream" => run::<command_stream::CommandStream>(cfg, seconds, traced),
        "bulk_transfer" => run::<bulk_transfer::BulkTransfer>(cfg, seconds, traced),
        "mandelbrot_frame" => run::<mandelbrot_frame::MandelbrotFrame>(cfg, seconds, traced),
        other => Err(format!("unknown workload {other}")),
    }
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path).map(|s| s.trim().to_string()).unwrap_or_else(|_| "unknown".into())
}

/// The run context: what a parent-vs-change pair must share to compare.
fn context(workload: &str, seed: u64) -> Vec<(&'static str, String)> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let affinity = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let vm_threads = std::env::var("DCL_VM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|n| *n >= 1)
        .unwrap_or(nproc);
    vec![
        ("workload", workload.to_string()),
        ("seed", seed.to_string()),
        ("nproc", nproc.to_string()),
        ("cpus_online", read_trimmed("/sys/devices/system/cpu/online")),
        ("l3", read_trimmed("/sys/devices/system/cpu/cpu0/cache/index3/size")),
        ("transport", "tcp-loopback".to_string()),
        ("affinity", affinity),
        ("DCL_COHERENCE", format!("{:?}", dopencl::coherence::CoherenceMode::from_env())),
        ("DCL_INTERP", format!("{:?}", oclc::ExecMode::from_env())),
        ("DCL_VM_THREADS", vm_threads.to_string()),
        ("commit", std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into())),
    ]
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn print_report(workload: &str, seed: u64, traced: bool, report: &Report) {
    let ctx = context(workload, seed);
    let ctx_line: Vec<String> = ctx.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("context: {}", ctx_line.join(" "));
    for note in &report.notes {
        println!("note: {note}");
    }
    let t = &report.tally;
    let error_rate = t.failed as f64 / t.attempted.max(1) as f64;
    println!(
        "[{workload}] error_rate = {error_rate} ({} failed of {} attempted)",
        t.failed, t.attempted
    );
    for m in &report.metrics {
        println!("[{workload}] {} = {} {}", m.name, m.value, m.unit);
    }
    if traced {
        let path = std::path::PathBuf::from(format!(".perfbench/spans-{workload}-seed{seed}.csv"));
        let written = report.spans.len().min(SPANS_WRITTEN);
        match trace::write_csv(&report.spans, written, &path) {
            Ok(()) => {
                println!("spans: {written} of {} written to {}", report.spans.len(), path.display())
            }
            Err(e) => println!("spans: not written ({e})"),
        }
    }
    let finite = report.metrics.iter().all(|m| m.value.is_finite());
    let correct = report.completed && t.failed == 0 && t.attempted > 0 && finite;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.attempted.max(1),
        t.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = Config { seed: args.seed, corrupt: false, small: false };
    let names: Vec<&str> =
        if args.workload == "all" { WORKLOADS.to_vec() } else { vec![args.workload.as_str()] };
    let modes: Vec<bool> =
        if args.workload == "all" { vec![false, true] } else { vec![args.trace] };
    for name in names {
        for &traced in &modes {
            match run_workload(name, &cfg, args.seconds, traced) {
                Ok(report) => print_report(name, args.seed, traced, &report),
                Err(e) => {
                    eprintln!("perfbench: {name}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}
