//! The serving workloads.
//!
//! * `serve_cold` — `serve` on a loaded but bounded single cluster with
//!   a fresh solve cache every repetition: every topology is new, so
//!   admission, the solver and the simulator do the work.
//! * `fleet_warm` — `serve_federation_with_cache` across eight members
//!   with the cache restored from a `DHPCACHE` snapshot that an untimed
//!   cold pass of the same trace wrote: the solver does no work;
//!   routing, spills, shard stepping and cache reads do.
//!
//! Both run the default `OnlineConfig` (speculation, the parallel
//! federation driver and the parallel k′ sweep stay on) with the
//! `FifoBackfill` policy.

use crate::stats::{fnv1a, geomean, mean, percentile, SplitMix64};
use crate::timing::{
    another_pass, median_cpu, median_wall, print_samples, steal_pct, timed, Sample, SetupTimes,
};
use crate::trace::Tracer;
use crate::{out_dir, Args, Run};
use dhp_core::mapping::validate;
use dhp_core::partial::{dedicated_baseline, schedule_on_subcluster, SolveCache};
use dhp_core::DagHetPartConfig;
use dhp_online::submission::repeating_stream;
use dhp_online::{
    fit_cluster, serve, serve_federation_with_cache, serve_with_cache, AdmissionPolicy,
    FederationOutcome, FleetMetrics, OnlineConfig, RoutingPolicy, ServeOutcome, ServeReport,
    Submission, WorkflowRecord,
};
use dhp_platform::configs::{cluster, ClusterKind, ClusterSize};
use dhp_platform::{Cluster, Federation};
use dhp_wfgen::arrivals::ArrivalProcess;
use dhp_wfgen::Family;
use std::collections::HashSet;
use std::time::Instant;

/// Regime gate: the mean wait of the last tenth of arrivals may be at
/// most this multiple of the first tenth's. A runaway backlog grows
/// its waits with the arrival index and fails it.
const BOUNDED_FACTOR: f64 = 3.0;

/// Distinct `(topology, lease shape)` keys replayed per traced run to
/// price one solver call and one simulation.
const REPLAY_KEYS: usize = 200;

/// Members of the `fleet_warm` federation.
const MEMBERS: usize = 8;

/// The shape of a `repeating_stream` trace.
struct Stream {
    unique: usize,
    n: usize,
    interval: f64,
    /// `--seed` delays each arrival by up to this share of `interval`.
    jitter: f64,
}

const SERVE_COLD: Stream = Stream {
    unique: 250,
    n: 2500,
    interval: 250.0,
    jitter: crate::JITTER,
};

/// Eight members fed near saturation route chaotically: a 1% jitter
/// moved the reservations made between 11.4k and 20.9k from seed to
/// seed, and the CPU time with them. A 0.1% jitter leaves most seeds on
/// the same schedule and the rest within a sixth of its reservations.
const FLEET_WARM: Stream = Stream {
    unique: 100,
    n: 2500,
    interval: 25.0,
    jitter: crate::JITTER / 10.0,
};

/// Seed of the trace both serving workloads are built from. Both sit
/// close to saturation, where the recipe pool decides the regime: with a
/// pool per seed, 5 of 10 `fleet_warm` traces ran away. So the trace is
/// fixed and `--seed` only jitters its arrival instants.
const TRACE_SEED: u64 = 17;

fn generate(t: &Stream, seed: u64) -> (Vec<Submission>, Cluster) {
    let mut subs = repeating_stream(
        t.unique,
        t.n,
        &[Family::Blast, Family::Seismology, Family::Genome],
        (8, 48),
        &ArrivalProcess::Uniform {
            interval: t.interval,
        },
        TRACE_SEED,
    );
    let mut rng = SplitMix64(seed);
    for s in &mut subs {
        s.arrival += t.interval * t.jitter * rng.unit();
    }
    let member = fit_cluster(
        &cluster(ClusterKind::LessHet, ClusterSize::Small),
        &subs,
        1.05,
    );
    (subs, member)
}

fn config() -> OnlineConfig {
    OnlineConfig {
        policy: AdmissionPolicy::FifoBackfill,
        ..OnlineConfig::default()
    }
}

fn digest(report: &ServeReport) -> u64 {
    let mut r = report.clone();
    r.fleet.clear_solve_stats();
    fnv1a(r.to_json().as_bytes())
}

fn federation_digest(out: &FederationOutcome) -> u64 {
    let mut r = out.report.clone();
    r.fleet.clear_solve_stats();
    for c in &mut r.clusters {
        c.fleet.clear_solve_stats();
    }
    fnv1a(r.to_json().as_bytes())
}

/// Validates every placement of one cluster's outcome: a valid DAGP-PM
/// mapping against the cluster, only on leased processors, and no
/// processor leased to two workflows at once. Returns the number of
/// invalid placements.
fn check_placements(member: &Cluster, out: &ServeOutcome, run: &mut Run) -> u64 {
    let mut invalid = 0;
    let mut spans = vec![Vec::new(); member.len()];
    for p in &out.placements {
        let g = &p.submission.instance.graph;
        let mut problem = validate(g, member, &p.mapping).err().map(|e| e.to_string());
        let off_lease = p
            .mapping
            .proc_of_block
            .iter()
            .flatten()
            .chain(
                p.regrow
                    .iter()
                    .flat_map(|r| r.mapping.proc_of_block.iter().flatten()),
            )
            .any(|q| !p.lease.contains(q));
        if off_lease {
            problem.get_or_insert("mapped outside its lease".into());
        }
        for r in &p.regrow {
            if let Err(e) = validate(&r.suffix_dag, member, &r.mapping) {
                problem.get_or_insert(format!("regrown suffix: {e}"));
            }
        }
        if let Some(e) = problem {
            invalid += 1;
            run.problems.push(format!(
                "workflow {}: invalid placement: {e}",
                p.submission.id
            ));
        }
        for q in &p.lease {
            spans[q.idx()].push((p.start, p.finish, p.submission.id));
        }
    }
    for (q, s) in spans.iter_mut().enumerate() {
        s.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in s.windows(2) {
            if w[1].0 < w[0].1 - 1e-9 {
                invalid += 1;
                run.problems.push(format!(
                    "processor {q} leased to workflows {} and {} at once",
                    w[0].2, w[1].2
                ));
            }
        }
    }
    invalid
}

/// Counts rejected, lost and invalid work as failures and checks that
/// every submission is accounted for exactly once.
fn check_accounting(submitted: usize, members: &[(&Cluster, &ServeOutcome)], run: &mut Run) {
    let (mut completed, mut rejected, mut lost, mut invalid) = (0, 0, 0, 0);
    for (member, out) in members {
        let f = &out.report.fleet;
        completed += f.completed;
        rejected += f.rejected;
        lost += f.lost;
        invalid += check_placements(member, out, run);
        run.check(out.placements.len() == f.completed, || {
            format!(
                "{} placements for {} completed workflows",
                out.placements.len(),
                f.completed
            )
        });
    }
    run.check(completed + rejected + lost == submitted, || {
        format!(
            "completed {completed} + rejected {rejected} + lost {lost} != submitted {submitted}"
        )
    });
    run.attempted += submitted as u64;
    run.failed += (rejected + lost) as u64 + invalid;
}

/// Loaded (reservations were made and some workflow waited) and
/// bounded (the last tenth of arrivals waits at most `BOUNDED_FACTOR`
/// times as long as the first tenth).
fn check_regime(records: &[&WorkflowRecord], n: usize, reservations: usize, run: &mut Run) {
    let tenth = n / 10;
    let waits = |keep: &dyn Fn(usize) -> bool| -> f64 {
        let w: Vec<f64> = records
            .iter()
            .filter(|r| keep(r.id))
            .map(|r| r.wait)
            .collect();
        mean(&w)
    };
    let first = waits(&|id| id < tenth);
    let last = waits(&|id| id >= n - tenth);
    let max_wait = records.iter().map(|r| r.wait).fold(0.0, f64::max);
    println!("# regime: reservations {reservations}, max wait {max_wait}, mean wait first tenth {first}, last tenth {last}");
    run.check(reservations > 0 && max_wait > 0.0, || {
        format!("regime: idle (reservations {reservations}, max wait {max_wait})")
    });
    run.check(first > 0.0 && last <= BOUNDED_FACTOR * first, || {
        format!("regime: runaway (mean wait first tenth {first}, last tenth {last})")
    });
}

/// Wait and stretch distributions plus the lease-vs-dedicated makespan
/// ratio (geometric mean of lease makespan / whole-cluster makespan).
fn distributions(records: &[&WorkflowRecord], run: &mut Run) {
    let wait: Vec<f64> = records.iter().map(|r| r.wait).collect();
    let stretch: Vec<f64> = records.iter().map(|r| r.stretch).collect();
    let ratio: Vec<f64> = records
        .iter()
        .map(|r| r.model_makespan / r.baseline_makespan)
        .collect();
    run.set("online.wait_p50", percentile(&wait, 50.0));
    run.set("online.wait_p99", percentile(&wait, 99.0));
    run.set("online.stretch_p99", percentile(&stretch, 99.0));
    run.set("makespan_ratio_pct", 100.0 * geomean(&ratio));
}

fn set_cache_counters(f: &FleetMetrics, run: &mut Run) {
    run.set("online.solve_misses", f.solve_cache_misses as f64);
    run.set("online.solve_hits", f.solve_cache_hits as f64);
    let probes = (f.solve_cache_hits + f.solve_cache_misses).max(1);
    run.set(
        "online.solve_hit_ratio",
        f.solve_cache_hits as f64 / probes as f64,
    );
    run.set("online.baseline_solves", f.baseline_solves as f64);
    run.set("online.sim_hits", f.sim_cache_hits as f64);
    run.set("online.sim_misses", f.sim_cache_misses as f64);
}

/// Prices the solver and simulator layers of a serving run: replays
/// `schedule_on_subcluster` and `dhp_sim::simulate` on up to
/// `REPLAY_KEYS` distinct `(topology, lease shape)` keys of the
/// placements, and `dedicated_baseline` on up to `REPLAY_KEYS` distinct
/// topologies, then scales each mean call time by the number of calls
/// the engine made (its cache misses). A run whose cache answered
/// everything did no work in these layers and replays nothing.
fn price_layers(
    member: &Cluster,
    out: &ServeOutcome,
    cfg: &OnlineConfig,
    tracer: &mut Tracer,
    run: &mut Run,
) {
    let f = &out.report.fleet;
    let lease_solves = f.solve_cache_misses - f.baseline_solves;
    let (mut keys, mut topologies) = (HashSet::new(), HashSet::new());
    // The engine's deferred baseline batch runs the sequential sweep.
    let batch = DagHetPartConfig {
        parallel: false,
        ..cfg.solver.clone()
    };
    for p in &out.placements {
        let g = &p.submission.instance.graph;
        let fp = g.fingerprint();
        if (lease_solves > 0 || f.sim_cache_misses > 0)
            && keys.len() < REPLAY_KEYS
            && keys.insert((fp, member.shape_of_slice(&p.lease)))
        {
            let sub = member.subcluster(&p.lease);
            let (sched, _) = tracer.span("core.schedule", None, || {
                schedule_on_subcluster(g, &sub, cfg.algorithm, &cfg.solver)
            });
            match sched {
                Ok(s) => {
                    tracer.span("sim.simulate", None, || {
                        std::hint::black_box(dhp_sim::simulate(g, sub.cluster(), &s.local.mapping))
                    });
                }
                Err(e) => run.problems.push(format!(
                    "workflow {}: replayed lease solve failed: {e}",
                    p.submission.id
                )),
            }
        }
        if f.baseline_solves > 0 && topologies.len() < REPLAY_KEYS && topologies.insert(fp) {
            let (baseline, _) = tracer.span("core.dedicated_baseline", None, || {
                dedicated_baseline(g, member, cfg.algorithm, &batch)
            });
            run.check(baseline.is_ok(), || {
                format!(
                    "workflow {}: replayed baseline solve failed",
                    p.submission.id
                )
            });
        }
    }
    run.set(
        "core.schedule_s",
        tracer.mean_s("core.schedule") * lease_solves as f64,
    );
    run.set(
        "core.dedicated_baseline_s",
        tracer.mean_s("core.dedicated_baseline") * f.baseline_solves as f64,
    );
    run.set(
        "sim.simulate_s",
        tracer.mean_s("sim.simulate") * f.sim_cache_misses as f64,
    );
}

fn set_rates(workload: &str, samples: &[Sample], subs: &[Submission], run: &mut Run) {
    print_samples(workload, samples);
    run.set("host_steal_pct", steal_pct(samples));
    let tasks: usize = subs.iter().map(|s| s.instance.graph.node_count()).sum();
    let cpu = median_cpu(samples);
    run.set("subs_per_cpu_s", subs.len() as f64 / cpu);
    run.set("tasks_per_cpu_s", tasks as f64 / cpu);
    let wall = median_wall(samples);
    run.set("subs_per_wall_s", subs.len() as f64 / wall);
    run.set("tasks_per_wall_s", tasks as f64 / wall);
}

pub fn serve_cold(args: &Args, tracer: Option<&mut Tracer>) -> Run {
    let mut run = Run::default();
    let mut setup_times = SetupTimes::default();
    let (subs, member) = setup_times.repeat(|| generate(&SERVE_COLD, args.seed));
    let cfg = config();
    let n = subs.len();

    let mut walls = Vec::new();
    let mut first: Option<(u64, ServeOutcome)> = None;
    let start = Instant::now();
    while another_pass(&walls, start, args.seconds) {
        let (input, _) = setup_times.time(|| generate(&SERVE_COLD, args.seed));
        let (out, sample) = timed(|| serve(&member, input, &cfg));
        walls.push(sample);
        check_accounting(n, &[(&member, &out)], &mut run);
        let d = digest(&out.report);
        match &first {
            Some((d0, _)) => run.check(d == *d0, || {
                "serve_cold: report differs between repetitions".into()
            }),
            None => {
                let records: Vec<&WorkflowRecord> = out.report.workflows.iter().collect();
                check_regime(&records, n, out.reservations.len(), &mut run);
                distributions(&records, &mut run);
                first = Some((d, out));
            }
        }
    }
    let (d0, out) = first.expect("at least one repetition");
    set_rates(&args.workload, &walls, &subs, &mut run);
    run.set("online.reservations", out.reservations.len() as f64);
    set_cache_counters(&out.report.fleet, &mut run);

    if let Some(tracer) = tracer {
        let cache = SolveCache::new();
        let (cold, cold_id) = tracer.span("online.serve_cold", None, || {
            serve_with_cache(&member, subs.clone(), &cfg, &cache)
        });
        let (warm, warm_id) = tracer.span("online.serve_warm", None, || {
            serve_with_cache(&member, subs.clone(), &cfg, &cache)
        });
        let (cold_s, warm_s) = (tracer.get(cold_id).secs(), tracer.get(warm_id).secs());
        run.check(
            digest(&cold.report) == d0 && digest(&warm.report) == d0,
            || "serve_cold: traced or warm report differs from the timed one".into(),
        );
        run.set("online.serve_cold_s", cold_s);
        run.set("online.serve_warm_s", warm_s);
        run.set("online.solver_share", (cold_s - warm_s) / cold_s);
        run.set("trace_overhead_s", cold_s - median_wall(&walls));
        price_layers(&member, &cold, &cfg, tracer, &mut run);
    }
    setup_times.print(&args.workload);
    run.finish_end_to_end(setup_times.median_cpu());
    run
}

pub fn fleet_warm(args: &Args, tracer: Option<&mut Tracer>) -> Run {
    let mut run = Run::default();
    let mut gen_times = SetupTimes::default();
    let (subs, member) = gen_times.repeat(|| generate(&FLEET_WARM, args.seed));
    let fed = Federation::homogeneous(member, MEMBERS);
    let cfg = config();
    let config_hash = SolveCache::config_hash(&cfg.solver);
    let n = subs.len();
    let dir = out_dir();
    let snapshot = dir.join(format!(
        "fleet_warm-{}-{}.dhpcache",
        args.seed,
        std::process::id()
    ));

    // Untimed cold pass of the same trace: fills the cache the
    // snapshot carries.
    let cache = SolveCache::new();
    let t = Instant::now();
    let cold =
        serve_federation_with_cache(&fed, subs.clone(), &cfg, RoutingPolicy::LeastLoaded, &cache);
    let cold_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let saved = std::fs::create_dir_all(&dir).and_then(|()| cache.save_to(&snapshot, config_hash));
    let save_s = t.elapsed().as_secs_f64();
    drop(cache);
    if let Err(e) = saved {
        run.problems
            .push(format!("cannot write {}: {e}", snapshot.display()));
        run.finish_end_to_end(gen_times.median_cpu());
        return run;
    }
    let bytes = std::fs::metadata(&snapshot).map_or(0, |m| m.len());
    let d_cold = federation_digest(&cold);
    drop(cold);

    let restore = |run: &mut Run| {
        let cache = SolveCache::new();
        if let Err(e) = cache.load_from(&snapshot, config_hash) {
            run.problems.push(format!("snapshot did not restore: {e}"));
        }
        cache
    };
    let mut load_times = SetupTimes::default();
    load_times.repeat(|| restore(&mut run));

    let mut walls = Vec::new();
    let mut first: Option<FederationOutcome> = None;
    let start = Instant::now();
    while another_pass(&walls, start, args.seconds) {
        let (input, _) = gen_times.time(|| generate(&FLEET_WARM, args.seed));
        let cache = load_times.time(|| restore(&mut run));
        let (out, sample) = timed(|| {
            serve_federation_with_cache(&fed, input, &cfg, RoutingPolicy::LeastLoaded, &cache)
        });
        walls.push(sample);
        let f = &out.report.fleet;
        run.check(f.solve_cache_misses == 0, || {
            format!(
                "fleet_warm: {} solver invocations after the restore",
                f.solve_cache_misses
            )
        });
        run.check(federation_digest(&out) == d_cold, || {
            "fleet_warm: warm report differs from the cold pass or between repetitions".into()
        });
        let members: Vec<(&Cluster, &ServeOutcome)> =
            fed.clusters().iter().zip(&out.outcomes).collect();
        check_accounting(n, &members, &mut run);
        if first.is_none() {
            let records: Vec<&WorkflowRecord> = out
                .report
                .clusters
                .iter()
                .flat_map(|c| &c.workflows)
                .collect();
            let reservations = out.outcomes.iter().map(|o| o.reservations.len()).sum();
            check_regime(&records, n, reservations, &mut run);
            distributions(&records, &mut run);
            first = Some(out);
        }
    }
    let out = first.expect("at least one repetition");
    set_rates(&args.workload, &walls, &subs, &mut run);
    let report = &out.report;
    let reservations: usize = out.outcomes.iter().map(|o| o.reservations.len()).sum();
    run.set("online.reservations", reservations as f64);
    run.set("online.spillovers", report.spillovers as f64);
    let done: Vec<f64> = report
        .clusters
        .iter()
        .map(|c| c.fleet.completed as f64)
        .collect();
    let (lo, hi) = done.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &c| {
        (lo.min(c), hi.max(c))
    });
    run.set("online.member_load_spread", hi / lo.max(1.0));
    set_cache_counters(&report.fleet, &mut run);

    if let Some(tracer) = tracer {
        let warm_s = median_wall(&walls);
        let (cache, _) = tracer.span("core.persist.load", None, || restore(&mut run));
        let (traced, id) = tracer.span("online.serve_federation", None, || {
            serve_federation_with_cache(
                &fed,
                subs.clone(),
                &cfg,
                RoutingPolicy::LeastLoaded,
                &cache,
            )
        });
        run.set("trace_overhead_s", tracer.get(id).secs() - warm_s);
        let serial_cfg = OnlineConfig {
            serial_federation: true,
            ..cfg.clone()
        };
        let cache = restore(&mut run);
        let (serial, id) = tracer.span("online.federation.serial", None, || {
            serve_federation_with_cache(
                &fed,
                subs.clone(),
                &serial_cfg,
                RoutingPolicy::LeastLoaded,
                &cache,
            )
        });
        let serial_s = tracer.get(id).secs();
        run.check(
            federation_digest(&traced) == d_cold && federation_digest(&serial) == d_cold,
            || "fleet_warm: serial or traced federation report differs".into(),
        );
        run.set("online.federation.serial_s", serial_s);
        run.set("online.federation.parallel_speedup", serial_s / warm_s);
        run.set("online.serve_cold_s", cold_s);
        run.set("online.serve_warm_s", warm_s);
        run.set("online.solver_share", (cold_s - warm_s) / cold_s);
        run.set("core.persist.save_s", save_s);
        run.set("core.persist.load_s", load_times.median_cpu());
        run.set("core.persist.bytes", bytes as f64);
    }
    let _ = std::fs::remove_file(&snapshot);
    gen_times.print(&format!("{} generate", args.workload));
    load_times.print(&format!("{} load", args.workload));
    run.finish_end_to_end(gen_times.median_cpu() + load_times.median_cpu());
    run
}
