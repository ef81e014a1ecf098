//! `paper_map`: the paper's own job. DagHetPart (default config:
//! parallel k′ sweep) and the DagHetMem baseline map four simulated
//! paper instances onto the default cluster fitted per instance with
//! 1.05 headroom (paper §5.1.2). No serving layer runs.
//!
//! The traced run replays DagHetPart's k′ sweep step by step through
//! `dhp_core::steps`, fanned over the same worker count and chunking
//! as the program's driver, and checks that the replay finds the same
//! mapping.

use crate::stats::{fnv1a, geomean, host_cores, SplitMix64};
use crate::timing::{
    another_pass, median_cpu, median_wall, print_samples, steal_pct, timed, Sample, SetupTimes,
};
use crate::trace::Tracer;
use crate::{Args, Run};
use dhp_core::blocks::BlockSet;
use dhp_core::fitting::scale_cluster_with_headroom;
use dhp_core::makespan::{blockset_makespan, makespan_of_mapping};
use dhp_core::mapping::{validate, Mapping};
use dhp_core::{dag_het_mem, dag_het_part, steps, DagHetPartConfig};
use dhp_dag::Dag;
use dhp_platform::{configs, Cluster};
use dhp_wfgen::{Family, WorkflowInstance};
use std::time::Instant;

/// Fan-out families (Step 1 heavy) and memory-tight families (Step 3
/// heavy), at sizes that keep one pass to about 1.3 s on two cores, so
/// a run makes a couple of dozen passes to take the median of.
const INSTANCES: [(Family, usize); 4] = [
    (Family::Seismology, 1000),
    (Family::Genome, 1000),
    (Family::Epigenomics, 250),
    (Family::Montage, 250),
];

struct Input {
    graph: Dag,
    cluster: Cluster,
}

/// Seed of the instance suite; `--seed` only jitters task runtimes.
const SUITE_SEED: u64 = 17;

fn setup(seed: u64) -> Vec<Input> {
    let mut rng = SplitMix64(seed);
    INSTANCES
        .iter()
        .enumerate()
        .map(|(i, &(family, n))| {
            let mut inst =
                WorkflowInstance::simulated(family, n, SUITE_SEED.wrapping_add(i as u64 * 1013));
            for u in inst.graph.node_ids().collect::<Vec<_>>() {
                inst.graph.node_mut(u).work *= 1.0 + crate::JITTER * (2.0 * rng.unit() - 1.0);
            }
            let cluster =
                scale_cluster_with_headroom(&inst.graph, &configs::default_cluster(), 1.05);
            Input {
                graph: inst.graph,
                cluster,
            }
        })
        .collect()
}

fn mapping_digest(m: &Mapping) -> u64 {
    fnv1a(format!("{:?}{:?}", m.partition, m.proc_of_block).as_bytes())
}

/// One instance's untimed outcome, compared across passes.
#[derive(Clone, Debug, PartialEq)]
struct Outcome {
    kprime: usize,
    makespan_bits: u64,
    digest: u64,
}

pub fn run(args: &Args, tracer: Option<&mut Tracer>) -> Run {
    let mut run = Run::default();
    let mut setup_times = SetupTimes::default();
    let inputs = setup_times.repeat(|| setup(args.seed));
    let cfg = DagHetPartConfig::default();
    let tasks: usize = inputs.iter().map(|x| x.graph.node_count()).sum();

    let mut passes: Vec<Sample> = Vec::new();
    // Per instance: the DagHetPart and DagHetMem calls of every pass.
    let mut part_samples: Vec<Vec<Sample>> = vec![Vec::new(); inputs.len()];
    let mut mem_samples: Vec<Vec<Sample>> = vec![Vec::new(); inputs.len()];
    let mut first: Vec<Option<Outcome>> = vec![None; inputs.len()];
    let mut ratios = Vec::new();
    let start = Instant::now();
    while another_pass(&passes, start, args.seconds) {
        std::hint::black_box(setup_times.time(|| setup(args.seed)));
        ratios.clear();
        let ((), pass) = timed(|| {
            for (i, x) in inputs.iter().enumerate() {
                let (part, sample) = timed(|| dag_het_part(&x.graph, &x.cluster, &cfg));
                part_samples[i].push(sample);
                let (mem, sample) = timed(|| dag_het_mem(&x.graph, &x.cluster));
                mem_samples[i].push(sample);
                run.attempted += 2;
                let (part, mem) = match (part, mem) {
                    (Ok(part), Ok(mem)) => (part, mem),
                    (part, mem) => {
                        run.failed += u64::from(part.is_err()) + u64::from(mem.is_err());
                        run.problems
                            .push(format!("instance {i}: a solver found no solution"));
                        continue;
                    }
                };
                for (who, m) in [("DagHetPart", &part.mapping), ("DagHetMem", &mem)] {
                    if let Err(e) = validate(&x.graph, &x.cluster, m) {
                        run.failed += 1;
                        run.problems
                            .push(format!("instance {i}: invalid {who} mapping: {e}"));
                    }
                }
                let mem_ms = makespan_of_mapping(&x.graph, &x.cluster, &mem);
                ratios.push(part.makespan / mem_ms);
                let got = Outcome {
                    kprime: part.kprime,
                    makespan_bits: part.makespan.to_bits(),
                    digest: mapping_digest(&part.mapping),
                };
                match &first[i] {
                    None => first[i] = Some(got),
                    Some(f) => run.check(*f == got, || {
                        format!("instance {i}: DagHetPart mapping differs between passes")
                    }),
                }
            }
        });
        passes.push(pass);
    }

    print_samples(&args.workload, &passes);
    for (i, s) in part_samples.iter().enumerate() {
        print_samples(&format!("{} dag_het_part instance {i}", args.workload), s);
    }
    // Per-instance medians, summed.
    let cpu: f64 = part_samples.iter().map(|s| median_cpu(s)).sum();
    run.set("tasks_per_cpu_s", tasks as f64 / cpu);
    run.set("subs_per_cpu_s", inputs.len() as f64 / cpu);
    let part_wall: Vec<f64> = part_samples.iter().map(|s| median_wall(s)).collect();
    let wall: f64 = part_wall.iter().sum();
    run.set("tasks_per_wall_s", tasks as f64 / wall);
    run.set("subs_per_wall_s", inputs.len() as f64 / wall);
    run.set("host_steal_pct", steal_pct(&passes));
    run.set("makespan_ratio_pct", 100.0 * geomean(&ratios));
    if let Some(t) = tracer {
        let mem_wall: Vec<f64> = mem_samples.iter().map(|s| median_wall(s)).collect();
        traced_pass(&inputs, &cfg, &first, &part_wall, &mem_wall, t, &mut run);
    }
    setup_times.print(&args.workload);
    run.finish_end_to_end(setup_times.median_cpu());
    run
}

/// Step timings of one k′ pipeline run, measured on a sweep worker.
struct KRun {
    kprime: usize,
    start: Instant,
    steps: Vec<(&'static str, Instant, Instant)>,
    end: Instant,
    result: Option<(f64, Mapping)>,
    swap_moves: usize,
    idle_moves: usize,
}

/// DagHetPart's per-k′ pipeline (Steps 1–4) with each step timed.
fn run_kprime(g: &Dag, cluster: &Cluster, kprime: usize, cfg: &DagHetPartConfig) -> KRun {
    let start = Instant::now();
    let mut mark = start;
    let mut steps_done = Vec::new();
    let mut lap = |name: &'static str, steps_done: &mut Vec<_>| {
        let now = Instant::now();
        steps_done.push((name, mark, now));
        mark = now;
    };
    let bs = steps::partition::initial_blocks(g, kprime, &cfg.partition_cfg);
    lap("dagp.partition", &mut steps_done);
    let mut bs: BlockSet = steps::assign::biggest_assign(g, cluster, bs, &cfg.partition_cfg);
    lap("core.assign", &mut steps_done);
    let merged = steps::merge::merge_unassigned(g, cluster, &mut bs, cfg.enable_triple_merge);
    lap("core.merge", &mut steps_done);
    let (mut swap_moves, mut idle_moves, mut result) = (0, 0, None);
    if merged.is_ok() {
        if cfg.enable_swaps {
            swap_moves = steps::swap::swap_blocks(g, cluster, &mut bs);
        }
        lap("core.swap", &mut steps_done);
        if cfg.enable_idle_moves {
            idle_moves = steps::swap::idle_moves(g, cluster, &mut bs);
        }
        lap("core.idle_moves", &mut steps_done);
        result = Some((
            blockset_makespan(g, &bs, cluster),
            bs.to_mapping(g.node_count()),
        ));
    }
    KRun {
        kprime,
        start,
        steps: steps_done,
        end: Instant::now(),
        result,
        swap_moves,
        idle_moves,
    }
}

/// Replays the default sweep (`k' = 1..=min(k, n)`, chunked over
/// `available_parallelism` workers) and returns every k′ run in k′
/// order plus the worker count.
fn traced_sweep(g: &Dag, cluster: &Cluster, cfg: &DagHetPartConfig) -> (Vec<KRun>, usize) {
    let kprimes: Vec<usize> = (1..=cluster.len().min(g.node_count())).collect();
    let workers = host_cores().min(kprimes.len());
    let chunk = kprimes.len().div_ceil(workers);
    let runs = std::thread::scope(|scope| {
        let handles: Vec<_> = kprimes
            .chunks(chunk)
            .map(|ks| {
                scope.spawn(move || {
                    ks.iter()
                        .map(|&kp| run_kprime(g, cluster, kp, cfg))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a sweep worker panicked"))
            .collect()
    });
    (runs, workers)
}

fn traced_pass(
    inputs: &[Input],
    cfg: &DagHetPartConfig,
    untraced: &[Option<Outcome>],
    part_wall: &[f64],
    mem_wall: &[f64],
    tracer: &mut Tracer,
    run: &mut Run,
) {
    let (mut attempted, mut failed_merges, mut swaps, mut idles) = (0usize, 0usize, 0, 0);
    let (mut kprime_time, mut capacity) = (0.0, 0.0);
    let mut traced_wall = 0.0;
    for (i, x) in inputs.iter().enumerate() {
        let ((runs, workers), sweep) = tracer.span("core.dag_het_part", None, || {
            traced_sweep(&x.graph, &x.cluster, cfg)
        });
        let sweep_s = tracer.get(sweep).secs();
        let (_, mem) = tracer.span("memdag.dag_het_mem", None, || {
            dag_het_mem(&x.graph, &x.cluster)
        });
        traced_wall += sweep_s + tracer.get(mem).secs();
        capacity += part_wall[i] * workers as f64;

        // The program's selection rule: smallest makespan, ties to the
        // smaller k′.
        let mut best: Option<(f64, usize, &Mapping)> = None;
        for r in &runs {
            let id = tracer.push("core.kprime", Some(sweep), r.start, r.end);
            for &(name, a, b) in &r.steps {
                tracer.push(name, Some(id), a, b);
            }
            kprime_time += (r.end - r.start).as_secs_f64();
            attempted += 1;
            swaps += r.swap_moves;
            idles += r.idle_moves;
            match &r.result {
                None => failed_merges += 1,
                Some((ms, m)) => {
                    let better = best.is_none_or(|(bms, bkp, _)| {
                        *ms < bms - 1e-12 || (*ms <= bms + 1e-12 && r.kprime < bkp)
                    });
                    if better {
                        best = Some((*ms, r.kprime, m));
                    }
                }
            }
        }
        let replayed = best.map(|(ms, kp, m)| Outcome {
            kprime: kp,
            makespan_bits: ms.to_bits(),
            digest: mapping_digest(m),
        });
        run.check(replayed == untraced[i], || {
            format!("instance {i}: the step-by-step replay chose another mapping than dag_het_part")
        });
    }
    let untraced_wall: f64 = part_wall.iter().chain(mem_wall).sum();
    run.set("dagp.partition_s", tracer.total_s("dagp.partition"));
    run.set("core.assign_s", tracer.total_s("core.assign"));
    run.set("core.merge_s", tracer.total_s("core.merge"));
    run.set(
        "core.merge_fail_ratio",
        failed_merges as f64 / attempted.max(1) as f64,
    );
    run.set("core.swap_s", tracer.total_s("core.swap"));
    run.set("core.swap_moves", swaps as f64);
    run.set("core.idle_moves_s", tracer.total_s("core.idle_moves"));
    run.set("core.idle_moves", idles as f64);
    run.set("core.sweep_efficiency", kprime_time / capacity);
    run.set("memdag.dag_het_mem_s", tracer.total_s("memdag.dag_het_mem"));
    run.set("trace_overhead_s", traced_wall - untraced_wall);
}
