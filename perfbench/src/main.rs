//! The repository's benchmark: three named workloads driven through
//! the public APIs of `dhp-core`, `dhp-online`, `dhp-sim` and
//! `dhp-wfgen`, with the default configuration a user gets.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_map --seed 1 --seconds 32 --trace 0
//! ```
//!
//! `--trace 0` times the workload for `--seconds` and prints the
//! end-to-end metrics; `--trace 1` additionally replays each layer
//! under in-memory spans and prints the per-layer metrics. The last
//! line of standard output is one JSON object; every check that fails
//! is named on standard error and makes the exit code 1.

mod paper_map;
mod serving;
mod stats;
mod timing;
mod trace;

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Duration;

/// End-to-end metrics `(name, unit)`, reported with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("tasks_per_cpu_s", "1/s"),
    ("subs_per_cpu_s", "1/s"),
    ("makespan_ratio_pct", "%"),
    ("success_pct", "%"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, reported with `--trace 1`. A
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dagp.partition_s", "s"),
    ("core.assign_s", "s"),
    ("core.merge_s", "s"),
    ("core.merge_fail_ratio", "ratio"),
    ("core.swap_s", "s"),
    ("core.swap_moves", "count"),
    ("core.idle_moves_s", "s"),
    ("core.idle_moves", "count"),
    ("core.sweep_efficiency", "ratio"),
    ("memdag.dag_het_mem_s", "s"),
    ("core.schedule_s", "s"),
    ("core.dedicated_baseline_s", "s"),
    ("online.solve_misses", "count"),
    ("online.solve_hits", "count"),
    ("online.solve_hit_ratio", "ratio"),
    ("online.baseline_solves", "count"),
    ("sim.simulate_s", "s"),
    ("online.sim_hits", "count"),
    ("online.sim_misses", "count"),
    ("online.serve_cold_s", "s"),
    ("online.serve_warm_s", "s"),
    ("online.solver_share", "ratio"),
    ("online.reservations", "count"),
    ("online.federation.serial_s", "s"),
    ("online.federation.parallel_speedup", "ratio"),
    ("online.spillovers", "count"),
    ("online.member_load_spread", "ratio"),
    ("core.persist.load_s", "s"),
    ("core.persist.save_s", "s"),
    ("core.persist.bytes", "bytes"),
    ("online.wait_p50", "vt"),
    ("online.wait_p99", "vt"),
    ("online.stretch_p99", "ratio"),
    ("tasks_per_wall_s", "1/s"),
    ("subs_per_wall_s", "1/s"),
    ("host_cores", "count"),
    ("host_steal_pct", "%"),
    ("trace_overhead_s", "s"),
];

const WORKLOADS: &[&str] = &["paper_map", "serve_cold", "fleet_warm"];

/// How far `--seed` moves the fixed inputs: each `serve_cold` arrival
/// by up to this share of the arrival interval (later, so the order
/// holds; `fleet_warm` uses a tenth of it), each `paper_map` task
/// runtime by up to this share either way. The
/// inputs sit where small changes swing the work (a near-saturated
/// queue; Step 3 of DagHetPart), so drawing fresh inputs per seed
/// measured the seed more than the program.
pub const JITTER: f64 = 0.01;

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations attempted: solver calls on `paper_map`, submissions
    /// on the serving workloads.
    pub attempted: u64,
    /// Attempted operations that failed: `NoSolution`, invalid mappings
    /// or placements, rejected or lost workflows.
    pub failed: u64,
    /// Correctness and regime checks that did not hold.
    pub problems: Vec<String>,
    values: HashMap<&'static str, f64>,
}

impl Run {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Sets the end-to-end metrics every workload reports the same way.
    pub fn finish_end_to_end(&mut self, setup_s: f64) {
        self.set("setup_s", setup_s);
        let ok = self.attempted.saturating_sub(self.failed) as f64;
        self.set("success_pct", 100.0 * ok / self.attempted.max(1) as f64);
        match stats::peak_rss_mb() {
            Some(mb) => self.set("peak_rss_mb", mb),
            None => self.problems.push("VmHWM is not readable".into()),
        }
        self.set("host_cores", stats::host_cores() as f64);
    }
}

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload paper_map|serve_cold|fleet_warm --seed N --seconds S --trace 0|1";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 32u64, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
    })
}

/// Where trace spans and the warm-start snapshot go: inside the
/// benchmark's own directory of the checkout it was built in.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut tracer = args.trace.then(trace::Tracer::new);
    let mut run = match args.workload.as_str() {
        "paper_map" => paper_map::run(&args, tracer.as_mut()),
        "serve_cold" => serving::serve_cold(&args, tracer.as_mut()),
        _ => serving::fleet_warm(&args, tracer.as_mut()),
    };
    if let Some(t) = &tracer {
        let path = out_dir().join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = t.write_jsonl(&path) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }

    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        if let Some(v) = run.values.get(name) {
            println!("# {} {name} = {v} {unit}", args.workload);
        }
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, _) in table {
        if run.values.get(name).is_some_and(|v| !v.is_finite()) {
            run.problems.push(format!("metric {name} is not finite"));
        }
    }
    for p in &run.problems {
        eprintln!("check failed: {p}");
    }
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = run.values.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            )
        })
        .collect();
    let correct = run.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted.max(1),
        run.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric and workload names this binary prints are the ones
    /// `BENCHMARK.json` declares.
    #[test]
    fn names_match_benchmark_json() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let declared: Vec<&str> = spec
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("closing quote")])
            .collect();
        let ours: Vec<&str> = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n))
            .collect();
        assert_eq!(declared, ours);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "{entry}");
        }
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let argv = "--workload fleet_warm --seed 7 --seconds 3 --trace 1";
        let a = parse_args(argv.split(' ').map(String::from)).expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds.as_secs(), a.trace),
            ("fleet_warm", 7, 3, true)
        );
        for bad in [
            "--workload nope",
            "--workload paper_map --trace 2",
            "--seed 1",
        ] {
            assert!(
                parse_args(bad.split(' ').map(String::from)).is_err(),
                "{bad}"
            );
        }
    }
}
