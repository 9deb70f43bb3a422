//! Request-level benchmark of the M-task pipeline.
//!
//! ```text
//! perfbench --workload <plan_btmz|plan_epol|serve_zipf|exec_epol|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One request is one public call chain a user of the system waits for: a
//! cold plan (cost model → layer scheduler → mapping → layered simulation),
//! a scheduling-service reply, or one executed EPOL macro step.  Untraced
//! runs (`--trace 0`) report the end-to-end metrics; a traced run
//! (`--trace 1`) attaches the pt-obs recorder, adds the benchmark's own
//! spans around each public call, and reports per-layer metrics plus a
//! Chrome trace under `perfbench/out/`.  Every reply is checked against a
//! reference; the last stdout line is one JSON object, and a wrong output
//! makes the exit code non-zero.  See `perfbench/README.md`.

mod exec;
mod gen;
mod plan;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// End-to-end metrics (untraced runs), with units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_ms_min", "ms"),
    ("sim_step_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced runs), with units.  A layer a workload does
/// not run reports 0.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("mtask.contract_ms", "ms"),
    ("mtask.layering_ms", "ms"),
    ("cost.evaluations", "count"),
    ("core.g_sweep_ms", "ms"),
    ("core.g_candidates", "count"),
    ("core.lpt_ms", "ms"),
    ("core.adjust_ms", "ms"),
    ("core.schedule_ms", "ms"),
    ("core.map_ms", "ms"),
    ("sim.layered_ms", "ms"),
    ("sim.us_per_task", "us"),
    ("serve.hit_rate", "ratio"),
    ("serve.hits", "count"),
    ("serve.misses", "count"),
    ("serve.followed", "count"),
    ("serve.computed", "count"),
    ("serve.evictions", "count"),
    ("serve.evaluations", "count"),
    ("serve.warm_miss_frac", "ratio"),
    ("serve.hit_us_p50", "us"),
    ("serve.miss_ms_p50", "ms"),
    ("serve.gen_late_ms_p99", "ms"),
    ("exec.step_ms_tp", "ms"),
    ("exec.step_ms_dp", "ms"),
    ("exec.task_s", "s"),
    ("exec.barrier_wait_s", "s"),
    ("exec.redist_bytes", "B"),
    ("exec.tasks_run", "count"),
    ("exec.busy_frac", "ratio"),
    ("obs.trace_overhead_frac", "ratio"),
    ("bench.unaccounted_frac", "ratio"),
];

pub const WORKLOADS: [&str; 4] = ["plan_btmz", "plan_epol", "serve_zipf", "exec_epol"];

/// Set-up is timed at least this many times and for at least
/// [`SETUP_SECONDS`] before the measured part, and as much again after it;
/// `setup_s` is the median of all of them, so it samples the host at both
/// ends of the run.
pub const SETUP_REPS: usize = 3;
pub const SETUP_SECONDS: f64 = 2.0;

/// What one run of one workload produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// Run `setup` repeatedly (see [`SETUP_REPS`]), appending each set-up
/// time in seconds to `times`; returns the last state.
fn repeat_setup<T>(times: &mut Vec<f64>, mut setup: impl FnMut() -> T) -> T {
    let mut state = None;
    let start = Instant::now();
    let mut reps = 0;
    while reps < SETUP_REPS || start.elapsed().as_secs_f64() < SETUP_SECONDS {
        drop(state.take()); // release the previous state before building the next
        let t0 = Instant::now();
        state = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
        reps += 1;
    }
    state.expect("at least one set-up")
}

/// Set up before the measured part; returns the state and the set-up
/// times so far.
pub fn timed_setup<T>(setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let state = repeat_setup(&mut times, setup);
    (state, times)
}

/// After the measured part of an untraced run: record the peak memory so
/// far, time `setup` as often again, and report `setup_s` as the median
/// of every set-up of the run.
pub fn setup_metrics<T>(out: &mut Outcome, mut times: Vec<f64>, setup: impl FnMut() -> T) {
    out.metrics.insert("peak_rss_mb", peak_rss_mb());
    drop(repeat_setup(&mut times, setup));
    out.metrics.insert("setup_s", stats::median(&times));
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Latency over every request of the run, from `samples` = (completion
/// time in s since the start, latency in ms).
///
/// On a shared virtual machine, other tenants can slow the CPU by up to
/// 1.7x in stretches of about a second, and the share of a run they slow
/// varies from run to run, so every percentile flips between levels from
/// one run to the next.  The work of a request is fixed, so interference
/// only slows it: the reported figure is the fastest request, the least
/// disturbed one; the percentiles and the throughput are printed.
pub fn latency_metrics(out: &mut Outcome, samples: &[(f64, f64)]) {
    let all = stats::Latencies::new(samples.iter().map(|s| s.1).collect());
    out.metrics.insert("latency_ms_min", all.min());
    let seconds = samples.iter().map(|s| s.0).fold(0.0, f64::max);
    out.notes.push(format!(
        "{} requests in {seconds:.3} s ({:.3}/s); min {:.6} ms, p50 {:.6} ms, p90 {:.6} ms{}",
        all.len(),
        all.len() as f64 / seconds,
        all.min(),
        all.p(0.5),
        all.p(0.9),
        match stats::tail_quantile(all.len()) {
            Some(q) if q >= 0.99 => format!(", p99 {:.6} ms", all.p(0.99)),
            _ => String::new(),
        }
    ));
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {WORKLOADS:?} or all"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// `--workload all`: run each workload in its own child process (so peak
/// memory stays per workload) and fail if any of them does.
fn run_all(args: &Args) -> i32 {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut code = 0;
    for w in WORKLOADS {
        println!("== {w}");
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{w} failed: {s}");
                code = 1;
            }
            Err(e) => {
                eprintln!("{w} did not start: {e}");
                code = 1;
            }
        }
    }
    code
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.workload == "all" {
        std::process::exit(run_all(&args));
    }
    let seconds = Duration::from_secs_f64(args.seconds);
    let out = match args.workload.as_str() {
        "plan_btmz" => plan::run(plan::Graph::BtMzD, args.seed, seconds, args.trace),
        "plan_epol" => plan::run(plan::Graph::EpolR8, args.seed, seconds, args.trace),
        "serve_zipf" => serve::run(args.seed, seconds, args.trace),
        "exec_epol" => exec::run(args.seed, seconds, args.trace),
        _ => unreachable!("workload names are checked while parsing"),
    };
    let (names, fill): (&[(&str, &str)], bool) = if args.trace {
        (&PER_LAYER, true)
    } else {
        (&END_TO_END, false)
    };
    let mut correct = out.failed == 0 && out.attempted > 0;
    let mut json = Vec::new();
    println!(
        "workload {} seed {} ({} attempted, {} failed)",
        args.workload, args.seed, out.attempted, out.failed
    );
    for note in &out.notes {
        println!("  # {note}");
    }
    for &(name, unit) in names {
        let value = match out.metrics.get(name) {
            Some(&v) => v,
            None if fill => 0.0,
            None => panic!("workload {} did not measure {name}", args.workload),
        };
        if !value.is_finite() {
            eprintln!("perfbench: {name} is not a finite number ({value})");
            correct = false;
        }
        println!("  {name:<26} {value:>16.6} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if value.is_finite() { value } else { 0.0 }
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        json.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repository root lists exactly these metrics
    /// and workloads, with these units.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let compact: String = json.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(
                compact.contains(&format!("{{\"name\":\"{w}\"")),
                "missing {w}"
            );
        }
        assert_eq!(
            compact.matches("\"unit\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
