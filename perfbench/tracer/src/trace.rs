//! The traced run: each job goes through the library's public entry points
//! with a span around every layer call, then a replay phase times the
//! layers the job calls from inside the optimizer (assessment stages,
//! patch re-assessment, selection) by calling their public functions on
//! the job's own tables.
//!
//! Spans stay in memory and are written out at the end (`--spans`), one
//! JSON object per line with the span's self time (duration minus the part
//! its child spans cover). The printed metrics are aggregates over jobs;
//! `perfbench/README.md` lists what each one counts.

use std::hint::black_box;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cdp::pipeline::{
    BestProtection, Front, OptimizerMode, PopulationSpec, SharedSession, SnapshotCacheConfig,
    SourceData, SuiteKind,
};
use cdp_core::nsga::{crowding_distance_vec, hypervolume_vec, non_dominated_sort_vec};
use cdp_core::{
    evaluate_all, EvalCounts, Evolution, GenerationStats, IslandEvent, IslandModel, Nsga2,
    ObjectiveVector, OperatorKind,
};
use cdp_dataset::{Code, PatternIndex, SubTable};
use cdp_metrics::dr::{disclosed_counts, id_value};
use cdp_metrics::il::{
    build_confusion, dbil_accs, dbil_sum_from_accs, dbil_value, ebil_from_confusion,
};
use cdp_metrics::linkage::{
    credits_value, dbrl_credits, dbrl_credits_blocked, rsrl_credits, rsrl_credits_blocked,
    PatternCensus, PrlModel,
};
use cdp_metrics::{snapshot, ContingencyTables, Evaluator, LinkageMode, MaskedStats, Patch};
use cdp_sdc::{build_population_from, SuiteConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::json::Obj;

/// The stage-coverage self-check: the `metrics.stage.*` spans of the
/// replayed assessments must sum to the measured `Evaluator::assess` time
/// within this share, or the traced run fails.
pub const STAGE_COVERAGE_TOLERANCE: f64 = 0.25;

/// Members of a job's initial population replayed through `assess` and the
/// stage functions: every member up to this count, evenly spread beyond.
const STAGE_SAMPLE: usize = 16;
/// Above this many rows the replay sample shrinks to keep a traced run
/// short.
const LARGE_ROWS: usize = 20_000;
const LARGE_SAMPLE: usize = 4;
/// Patch replays per sampled member (cell / segment).
const CELL_PATCHES: usize = 20;
const SEGMENT_PATCHES: usize = 3;
/// Jobs of a serve-mode trace that also get the replay phase.
const SERVE_REPLAYS: usize = 6;

/// One recorded span. Times are offsets from the tracer's epoch.
struct Span {
    parent: Option<usize>,
    job: usize,
    name: &'static str,
    start: Duration,
    end: Duration,
}

/// An in-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, job: usize) -> usize {
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            parent,
            job,
            name,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) -> Duration {
        let span = &mut self.spans[id];
        span.end = self.epoch.elapsed();
        span.end - span.start
    }

    /// Record a span whose interval was measured by the caller.
    fn add(&mut self, name: &'static str, parent: usize, from: Instant, to: Instant) -> Duration {
        let job = self.spans[parent].job;
        self.spans.push(Span {
            parent: Some(parent),
            job,
            name,
            start: from.duration_since(self.epoch),
            end: to.duration_since(self.epoch),
        });
        to - from
    }

    /// Run `f` inside a span.
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let job = self.spans[parent].job;
        let id = self.open(name, Some(parent), job);
        let out = f();
        (out, self.close(id))
    }
}

/// What one traced job measured; `None` where the layer did not run.
#[derive(Default)]
struct JobTrace {
    job_ms: f64,
    resolve_ms: f64,
    evaluator_for_ms: f64,
    mask_ms: f64,
    initial_assess_ms: Option<f64>,
    evolve_ms: Option<f64>,
    accept_ratio: Option<f64>,
    mutation_gen_us: Option<f64>,
    crossover_gen_us: Option<f64>,
    islands_wall_ms: Option<f64>,
    islands_critical_ms: Option<f64>,
    migrations: Option<f64>,
    audit_ms: Option<f64>,
    publish_ms: f64,
    masked_patterns: f64,
    assess_count: f64,
    cell_count: f64,
    segment_count: f64,
    replay: Option<Replay>,
}

/// Replay-phase timings of one job.
#[derive(Default)]
struct Replay {
    prepare_ms: f64,
    snapshot_write_ms: f64,
    snapshot_load_ms: f64,
    microagg_ms: f64,
    assess: Vec<f64>,
    stages: Vec<(&'static str, Vec<f64>)>,
    cell_us: Vec<f64>,
    segment_us: Vec<f64>,
    select_ms: Option<f64>,
    initial_assess_ms: Option<f64>,
}

/// What a job leaves for its replay phase.
struct ReplayInput {
    job: cdp::pipeline::ProtectionJob,
    src: SourceData,
    evaluator: Evaluator,
    sample: Vec<SubTable>,
    objectives: Vec<ObjectiveVector>,
    reference: ObjectiveVector,
    generations: usize,
    /// NSGA-II jobs: the initial population and its `parallel_init` flag.
    initial: Option<(Vec<(String, SubTable)>, bool)>,
    root: usize,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `perftrace trace`: run every `job` line (after the `warm` lines) and
/// print the aggregated per-layer metrics.
pub fn run(args: &[String], lines: &[String]) -> Result<String, String> {
    let mut spans_path: Option<PathBuf> = None;
    let mut scratch = std::env::temp_dir();
    let mut snapshot_dir: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--spans" => spans_path = Some(PathBuf::from(value)),
            "--scratch" => scratch = PathBuf::from(value),
            "--snapshot-dir" => snapshot_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let mut warm = Vec::new();
    let mut jobs = Vec::new();
    for line in lines {
        match line.split_once('\t') {
            Some(("warm", spec)) => warm.push(spec),
            Some(("job", spec)) => jobs.push(spec),
            _ => return Err(format!("expected <warm|job>\\t<spec>, got `{line}`")),
        }
    }
    if jobs.is_empty() {
        return Err("no job lines".into());
    }
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    let mut tr = Tracer::new(Instant::now());
    let serve = snapshot_dir.is_some();

    // serve mode: one session shared by every job, as `cdp serve` runs
    // them, and the replays after the whole stream; batch mode: a fresh
    // session per job, as `cdp optimize` does, and each replay right after
    // its job
    let shared = SharedSession::new();
    if let Some(dir) = &snapshot_dir {
        shared.set_snapshot_cache(Some(SnapshotCacheConfig::new(dir)));
    }
    for (i, spec) in warm.iter().enumerate() {
        run_job(&mut tr, i, spec, &shared, &scratch, false)?;
    }
    let mut traces = Vec::with_capacity(jobs.len());
    let mut pending = Vec::new();
    for (i, spec) in jobs.iter().enumerate() {
        let id = warm.len() + i;
        if serve {
            let (trace, input) = run_job(&mut tr, id, spec, &shared, &scratch, i < SERVE_REPLAYS)?;
            traces.push(trace);
            pending.extend(input.map(|input| (i, input)));
        } else {
            let (mut trace, input) =
                run_job(&mut tr, id, spec, &SharedSession::new(), &scratch, true)?;
            if let Some(input) = input {
                trace.replay = Some(replay(&mut tr, &input, &scratch)?);
            }
            traces.push(trace);
        }
    }
    for (i, input) in pending {
        traces[i].replay = Some(replay(&mut tr, &input, &scratch)?);
    }
    if let Some(path) = &spans_path {
        write_spans(path, &tr).map_err(|e| format!("spans: {e}"))?;
    }
    aggregate(&traces, serve.then(|| shared.stats()))
}

/// Execute one job stage by stage, as the pipeline's run engine does, with
/// a span around each layer call. Returns the job's measurements and, when
/// `keep` is set, the inputs of its replay phase.
fn run_job(
    tr: &mut Tracer,
    id: usize,
    spec: &str,
    session: &SharedSession,
    scratch: &Path,
    keep: bool,
) -> Result<(JobTrace, Option<ReplayInput>), String> {
    let job = crate::job_of(spec)?;
    let err = |e: cdp::pipeline::PipelineError| format!("{spec}: {e}");
    let root = tr.open("job", None, id);
    let mut t = JobTrace::default();

    let (src, d) = tr.time("dataset.resolve", root, || job.resolve_source());
    let src = src.map_err(err)?;
    t.resolve_ms = ms(d);
    let original = src.original();
    let (evaluator, d) = tr.time("pipeline.evaluator_for", root, || {
        session.evaluator_for(&original, job.metrics())
    });
    let (evaluator, _reused) = evaluator.map_err(err)?;
    t.evaluator_for_ms = ms(d);
    let (population, d) = tr.time("sdc.mask", root, || job.seed_population(&src));
    let population = population.map_err(err)?;
    t.mask_ms = ms(d);

    let sample = if keep {
        sample_of(&population, src.table.n_rows())
    } else {
        Vec::new()
    };
    let mut objectives = Vec::new();
    let mut reference = job.objectives().reference();
    let mut generations = 0;
    let mut initial = None;

    let best: BestProtection = match job.optimizer() {
        OptimizerMode::Scalar(cfg) if job.iterations() == 0 => {
            let (states, d) = tr.time("metrics.assess_all", root, || {
                evaluate_all(&evaluator, &population, cfg.parallel_init)
            });
            t.initial_assess_ms = Some(ms(d));
            t.assess_count = states.len() as f64;
            let i = (0..states.len())
                .min_by(|&a, &b| {
                    let score = |i: usize| states[i].assessment.score(cfg.aggregator);
                    score(a).partial_cmp(&score(b)).expect("finite scores")
                })
                .ok_or("empty population")?;
            BestProtection {
                name: population[i].0.clone(),
                data: population[i].1.clone(),
                assessment: states[i].assessment,
            }
        }
        OptimizerMode::Scalar(cfg) => {
            let run = tr.open("core.run", Some(root), id);
            let start = Instant::now();
            let mut events: Vec<(Instant, GenerationStats)> = Vec::new();
            let mut timing = None;
            let outcome = if cfg.islands.count > 1 {
                let mut model = IslandModel::scalar(evaluator.clone(), cfg)
                    .with_named_population(population)
                    .map_err(|e| e.to_string())?;
                if job.drop_fraction() > 0.0 {
                    model = model
                        .drop_best_fraction(job.drop_fraction())
                        .map_err(|e| e.to_string())?;
                }
                let (outcome, tm) = model.run_with_timing(|e| {
                    if let IslandEvent::Generation { stats, .. } = e {
                        events.push((Instant::now(), *stats));
                    }
                });
                timing = Some(tm);
                outcome
            } else {
                let mut evolution = Evolution::new(evaluator.clone(), cfg)
                    .with_named_population(population)
                    .map_err(|e| e.to_string())?;
                if job.drop_fraction() > 0.0 {
                    evolution = evolution
                        .drop_best_fraction(job.drop_fraction())
                        .map_err(|e| e.to_string())?;
                }
                evolution.run_with(|g| events.push((Instant::now(), *g)))
            };
            let end = Instant::now();
            tr.close(run);
            if let Some(tm) = timing {
                t.islands_wall_ms = Some(ms(tm.wall));
                t.islands_critical_ms = Some(ms(tm.critical_path));
            }
            scalar_generations(tr, run, start, end, &events, &mut t);
            count_scalar(&outcome.eval_counts, &events, &mut t);
            generations = outcome.iterations_run;
            let winner = outcome.population.best();
            BestProtection {
                name: winner.name.clone(),
                data: winner.data.clone(),
                assessment: *winner.assessment(),
            }
        }
        OptimizerMode::Nsga(cfg) => {
            if keep {
                // the initial assessment is not visible on the NSGA-II
                // event stream; the replay phase times it on a copy
                initial = Some((population.clone(), cfg.parallel_init));
            }
            let run = tr.open("core.run", Some(root), id);
            let mut migrations = 0usize;
            let outcome = if cfg.islands.count > 1 {
                let (outcome, tm) = IslandModel::nsga(evaluator.clone(), cfg)
                    .with_objectives(job.objectives().clone())
                    .with_named_population(population)
                    .map_err(|e| e.to_string())?
                    .run_with_timing(|e| {
                        if matches!(e, IslandEvent::Migration { .. }) {
                            migrations += 1;
                        }
                    });
                t.islands_wall_ms = Some(ms(tm.wall));
                t.islands_critical_ms = Some(ms(tm.critical_path));
                outcome
            } else {
                Nsga2::new(evaluator.clone(), cfg)
                    .with_objectives(job.objectives().clone())
                    .with_named_population(population)
                    .map_err(|e| e.to_string())?
                    .run_with(|_| {})
            };
            t.evolve_ms = Some(ms(tr.close(run)));
            t.migrations = Some(migrations as f64);
            t.assess_count = outcome.eval_counts.full as f64;
            t.segment_count = outcome.eval_counts.incremental as f64;
            generations = outcome.hypervolume_series.len().saturating_sub(1);
            reference = outcome.objectives.reference();
            objectives = outcome
                .initial_front
                .iter()
                .chain(&outcome.front)
                .chain(&outcome.archive_front)
                .map(|p| p.objectives)
                .collect();
            let front = Front {
                members: outcome
                    .front_members
                    .into_iter()
                    .map(|ind| BestProtection {
                        assessment: *ind.assessment(),
                        name: ind.name,
                        data: ind.data,
                    })
                    .collect(),
                points: outcome.front,
                initial: outcome.initial_front,
                archive: outcome.archive_front,
                hypervolume: outcome.hypervolume_series,
                evaluations: outcome.evaluations,
                eval_counts: outcome.eval_counts,
                objective_keys: outcome.objectives.keys(),
            };
            front.knee().clone()
        }
    };

    if job.audit_spec().is_some() {
        let (report, d) = tr.time("privacy.audit", root, || {
            cdp_privacy::report::audit(&best.data, Some(&original), &[])
        });
        report.map_err(|e| e.to_string())?;
        t.audit_ms = Some(ms(d));
    }
    let out = scratch.join(format!("published-{id}.csv"));
    let (published, d) = tr.time("dataset.publish", root, || -> Result<(), String> {
        let table = src
            .table
            .with_subtable(&best.data)
            .map_err(|e| e.to_string())?;
        cdp_dataset::io::write_table_path(&table, &out).map_err(|e| e.to_string())
    });
    published?;
    let _ = std::fs::remove_file(&out);
    t.publish_ms = ms(d);
    t.masked_patterns = PatternIndex::build(&best.data).n_patterns() as f64;
    t.job_ms = ms(tr.close(root));

    let input = keep.then(|| ReplayInput {
        job,
        src,
        evaluator,
        sample,
        objectives,
        reference,
        generations,
        initial,
        root,
    });
    Ok((t, input))
}

/// Every member of a small population, an even spread of a large one.
fn sample_of(population: &[(String, SubTable)], rows: usize) -> Vec<SubTable> {
    let want = if rows > LARGE_ROWS {
        LARGE_SAMPLE
    } else {
        STAGE_SAMPLE
    };
    let n = population.len();
    let step = n.div_ceil(want).max(1);
    population
        .iter()
        .step_by(step)
        .map(|(_, d)| d.clone())
        .collect()
}

/// Split a scalar run's wall time by its observer events: the initial
/// assessment ends at the iteration-0 event; each later event closes one
/// iteration of the operator it names.
fn scalar_generations(
    tr: &mut Tracer,
    run: usize,
    start: Instant,
    end: Instant,
    events: &[(Instant, GenerationStats)],
    t: &mut JobTrace,
) {
    let Some(&(first, _)) = events.first() else {
        return;
    };
    t.initial_assess_ms = Some(ms(tr.add("core.initial_assess", run, start, first)));
    t.evolve_ms = Some(ms(tr.add("core.evolve", run, first, end)));
    let (mut mutation, mut crossover) = (Vec::new(), Vec::new());
    for pair in events.windows(2) {
        let gap = us(pair[1].0 - pair[0].0);
        match pair[1].1.operator {
            Some(OperatorKind::Mutation) => mutation.push(gap),
            Some(OperatorKind::Crossover) => crossover.push(gap),
            None => {}
        }
    }
    t.mutation_gen_us = mean(&mutation);
    t.crossover_gen_us = mean(&crossover);
    let produced = events.iter().filter(|(_, g)| g.operator.is_some()).count();
    let accepted = events.iter().filter(|(_, g)| g.accepted).count();
    t.accept_ratio = (produced > 0).then(|| accepted as f64 / produced as f64);
}

/// Split a scalar run's patch re-assessments into single-cell patches (one
/// per mutation iteration) and crossover segment patches (the rest).
fn count_scalar(counts: &EvalCounts, events: &[(Instant, GenerationStats)], t: &mut JobTrace) {
    let mutations = events
        .iter()
        .filter(|(_, g)| g.operator == Some(OperatorKind::Mutation))
        .count();
    let cell = mutations.min(counts.incremental);
    t.assess_count = counts.full as f64;
    t.cell_count = cell as f64;
    t.segment_count = (counts.incremental - cell) as f64;
}

/// The replay phase: time the layers a job calls from inside the
/// optimizer by calling their public functions on the job's own tables.
fn replay(tr: &mut Tracer, input: &ReplayInput, scratch: &Path) -> Result<Replay, String> {
    let job_id = tr.spans[input.root].job;
    let root = tr.open("replay", None, job_id);
    let mut r = Replay::default();
    let original = input.src.original();
    let cfg = input.job.metrics();

    let (prepared, d) = tr.time("metrics.prepare", root, || Evaluator::new(&original, cfg));
    let prepared = prepared.map_err(|e| e.to_string())?;
    r.prepare_ms = ms(d);
    let dir = scratch.join(format!("snapshots-{job_id}"));
    let (path, d) = tr.time("metrics.snapshot_write", root, || {
        snapshot::write(&prepared, &dir)
    });
    let path = path.map_err(|e| format!("snapshot write: {e}"))?;
    r.snapshot_write_ms = ms(d);
    let (loaded, d) = tr.time("metrics.snapshot_load", root, || {
        snapshot::load(&path, &original, &cfg)
    });
    loaded.ok_or("snapshot did not load back")?;
    r.snapshot_load_ms = ms(d);
    let _ = std::fs::remove_dir_all(&dir);

    if let PopulationSpec::Suite(kind) = input.job.population() {
        let mut suite = match kind {
            SuiteKind::Small => SuiteConfig::small(),
            SuiteKind::Paper => {
                SuiteConfig::paper(input.src.kind.ok_or("paper suite without a dataset")?)
            }
        };
        suite.coding_fractions.clear();
        suite.recoding_levels.clear();
        suite.rank_swap_ps.clear();
        suite.pram_thetas.clear();
        let refs = input.src.hierarchy_refs();
        let (masked, d) = tr.time("sdc.microagg", root, || {
            build_population_from(&original, &refs, &suite, input.job.seed())
        });
        black_box(masked.map_err(|e| e.to_string())?);
        r.microagg_ms = ms(d);
    }

    let ev = &input.evaluator;
    if let Some((population, parallel)) = &input.initial {
        let (_, d) = tr.time("core.initial_assess", root, || {
            black_box(evaluate_all(ev, population, *parallel))
        });
        r.initial_assess_ms = Some(ms(d));
    }
    let mut rng = StdRng::seed_from_u64(input.job.seed() ^ 0x7EACE);
    let mut stage_ms: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let mut states = Vec::with_capacity(input.sample.len());
    for masked in &input.sample {
        let (state, d) = tr.time("metrics.assess", root, || ev.assess(masked));
        r.assess.push(ms(d));
        stages(tr, root, ev, masked, &state.assessment, &mut stage_ms)?;
        states.push(state);
    }
    r.stages = stage_ms;

    let mut sample = input.sample.clone();
    for i in 0..sample.len() {
        let prev = &states[i];
        for _ in 0..CELL_PATCHES {
            let masked = &mut sample[i];
            let (row, k) = (
                rng.gen_range(0..masked.n_rows()),
                rng.gen_range(0..masked.n_attrs()),
            );
            let cats = ev.prepared().cats(k);
            if cats < 2 {
                continue;
            }
            let old = masked.get(row, k);
            masked.set(row, k, ((old as usize + 1) % cats) as Code);
            let patch = Patch::cell(row, k, old);
            let (next, d) = tr.time("metrics.reassess.cell", root, || {
                ev.reassess(prev, masked, &patch)
            });
            black_box(next);
            r.cell_us.push(us(d));
            masked.set(row, k, old);
        }
        if sample.len() < 2 {
            continue;
        }
        let donor = sample[(i + 1) % sample.len()].clone();
        for _ in 0..SEGMENT_PATCHES {
            let masked = &mut sample[i];
            let flat = masked.flat_len();
            let a = rng.gen_range(0..flat);
            let b = rng.gen_range(0..flat);
            let (s, e) = (a.min(b), a.max(b));
            let old: Vec<Code> = (s..=e).map(|p| masked.get_flat(p)).collect();
            for p in s..=e {
                masked.set_flat(p, donor.get_flat(p));
            }
            let patch = Patch::flat_range(s, e, old.clone());
            let (next, d) = tr.time("metrics.reassess.segment", root, || {
                ev.reassess(prev, masked, &patch)
            });
            black_box(next);
            r.segment_us.push(us(d));
            for (p, v) in (s..=e).zip(old) {
                masked.set_flat(p, v);
            }
        }
    }

    if !input.objectives.is_empty() {
        let objs = &input.objectives;
        let (_, d) = tr.time("core.select", root, || {
            for _ in 0..input.generations.max(1) {
                let fronts = non_dominated_sort_vec(objs);
                for front in &fronts {
                    black_box(crowding_distance_vec(objs, front));
                }
                let first: Vec<ObjectiveVector> = fronts[0].iter().map(|&i| objs[i]).collect();
                black_box(hypervolume_vec(&first, &input.reference));
            }
        });
        r.select_ms = Some(ms(d));
    }
    tr.close(root);
    Ok(r)
}

/// Replay `Evaluator::assess` stage by stage through the stage functions,
/// one span each, and check the stages reproduce the assessment exactly.
fn stages(
    tr: &mut Tracer,
    root: usize,
    ev: &Evaluator,
    masked: &SubTable,
    expected: &cdp_metrics::Assessment,
    out: &mut Vec<(&'static str, Vec<f64>)>,
) -> Result<(), String> {
    let prep = ev.prepared();
    let cfg = *ev.config();
    let mut record =
        |name: &'static str, d: Duration| match out.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => v.push(ms(d)),
            None => out.push((name, vec![ms(d)])),
        };
    let (ctbil, d) = tr.time("metrics.stage.contingency", root, || {
        prep.tables().distance(&ContingencyTables::build(masked))
    });
    record("contingency", d);
    let (dbil, d) = tr.time("metrics.stage.dbil", root, || {
        let accs = dbil_accs(prep, masked);
        dbil_value(
            dbil_sum_from_accs(prep, &accs),
            prep.n_rows(),
            prep.n_attrs(),
        )
    });
    record("dbil", d);
    let (ebil, d) = tr.time("metrics.stage.confusion", root, || {
        ebil_from_confusion(prep, &build_confusion(prep, masked))
    });
    record("confusion", d);
    let (id, d) = tr.time("metrics.stage.id", root, || {
        id_value(prep, &disclosed_counts(prep, masked, cfg.interval_fraction))
    });
    record("id", d);
    let (stats, d) = tr.time("metrics.stage.masked_stats", root, || {
        MaskedStats::build(prep, masked)
    });
    record("masked_stats", d);
    let (index, d) = tr.time("metrics.stage.pattern_index", root, || {
        PatternIndex::build(masked)
    });
    record("pattern_index", d);
    let (census, d) = tr.time("metrics.stage.prl_census", root, || {
        PatternCensus::build(prep, masked, &index)
    });
    record("prl_census", d);
    let (model, d) = tr.time("metrics.stage.prl_em", root, || {
        PrlModel::fit_from_counts(prep, census.counts(), cfg.prl_em_iters)
    });
    record("prl_em", d);
    let (dbrl, d) = tr.time("metrics.stage.dbrl", root, || {
        credits_value(&match cfg.linkage {
            LinkageMode::Pairs => dbrl_credits(prep, masked),
            LinkageMode::Blocked => dbrl_credits_blocked(prep, masked, &index),
        })
    });
    record("dbrl", d);
    let (prl, d) = tr.time("metrics.stage.prl_credits", root, || {
        credits_value(&census.credits(&model, &index))
    });
    record("prl_credits", d);
    let window = (cfg.rsrl_window_fraction * prep.n_rows() as f64).max(1.0);
    let (rsrl, d) = tr.time("metrics.stage.rsrl", root, || {
        credits_value(&match cfg.linkage {
            LinkageMode::Pairs => rsrl_credits(prep, &stats, masked, window),
            LinkageMode::Blocked => rsrl_credits_blocked(prep, &stats, &index, window),
        })
    });
    record("rsrl", d);
    let got = [ctbil, dbil, ebil, id, dbrl, prl, rsrl];
    let want = [
        expected.il_parts.ctbil,
        expected.il_parts.dbil,
        expected.il_parts.ebil,
        expected.dr_parts.id,
        expected.dr_parts.dbrl,
        expected.dr_parts.prl,
        expected.dr_parts.rsrl,
    ];
    if got
        .iter()
        .zip(&want)
        .any(|(a, b)| a.to_bits() != b.to_bits())
    {
        return Err(format!(
            "stage replay diverged from Evaluator::assess: {got:?} vs {want:?}"
        ));
    }
    Ok(())
}

fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

fn median(mut values: Vec<f64>) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = values.len();
    Some(if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    })
}

/// Median over jobs of one per-job value (0 where no job measured it).
fn per_job(traces: &[JobTrace], f: impl Fn(&JobTrace) -> Option<f64>) -> f64 {
    median(traces.iter().filter_map(f).collect()).unwrap_or(0.0)
}

/// Mean per call over every replayed call of every job.
fn per_call(traces: &[JobTrace], f: impl Fn(&Replay) -> &[f64]) -> f64 {
    let all: Vec<f64> = traces
        .iter()
        .filter_map(|t| t.replay.as_ref())
        .flat_map(|r| f(r).iter().copied())
        .collect();
    mean(&all).unwrap_or(0.0)
}

fn aggregate(
    traces: &[JobTrace],
    serve_stats: Option<cdp::pipeline::SessionStats>,
) -> Result<String, String> {
    let replays = || traces.iter().filter_map(|t| t.replay.as_ref());
    let assess_total: f64 = replays().flat_map(|r| r.assess.iter()).sum();
    let stage_names = [
        "contingency",
        "dbil",
        "confusion",
        "id",
        "masked_stats",
        "pattern_index",
        "prl_census",
        "prl_em",
        "dbrl",
        "prl_credits",
        "rsrl",
    ];
    let stage_total = |name: &str| -> f64 {
        replays()
            .flat_map(|r| r.stages.iter())
            .filter(|(n, _)| *n == name)
            .flat_map(|(_, v)| v.iter())
            .sum()
    };
    let calls = replays().map(|r| r.assess.len()).sum::<usize>().max(1) as f64;
    let stages_sum: f64 = stage_names.iter().map(|n| stage_total(n)).sum();
    let coverage = if assess_total > 0.0 {
        stages_sum / assess_total
    } else {
        0.0
    };

    let mut obj = Obj::new()
        .num("trace.job_ms", per_job(traces, |t| Some(t.job_ms)))
        .num(
            "dataset.resolve_ms",
            per_job(traces, |t| Some(t.resolve_ms)),
        )
        .num(
            "dataset.publish_ms",
            per_job(traces, |t| Some(t.publish_ms)),
        )
        .num(
            "dataset.masked_patterns",
            per_job(traces, |t| Some(t.masked_patterns)),
        )
        .num("sdc.mask_ms", per_job(traces, |t| Some(t.mask_ms)))
        .num(
            "sdc.microagg_ms",
            per_job(traces, |t| t.replay.as_ref().map(|r| r.microagg_ms)),
        )
        .num("metrics.assess_ms", per_call(traces, |r| &r.assess))
        .num(
            "metrics.assess_count",
            per_job(traces, |t| Some(t.assess_count)),
        );
    for name in stage_names {
        obj = obj.num(
            &format!("metrics.stage.{name}_ms"),
            stage_total(name) / calls,
        );
    }
    obj = obj
        .num("metrics.stage_coverage", coverage)
        .num("metrics.stage_coverage_tolerance", STAGE_COVERAGE_TOLERANCE)
        .num("metrics.reassess.cell_us", per_call(traces, |r| &r.cell_us))
        .num(
            "metrics.reassess.segment_us",
            per_call(traces, |r| &r.segment_us),
        )
        .num(
            "metrics.reassess.cell_count",
            per_job(traces, |t| Some(t.cell_count)),
        )
        .num(
            "metrics.reassess.segment_count",
            per_job(traces, |t| Some(t.segment_count)),
        )
        .num(
            "metrics.prepare_ms",
            per_job(traces, |t| t.replay.as_ref().map(|r| r.prepare_ms)),
        )
        .num(
            "metrics.snapshot_load_ms",
            per_job(traces, |t| t.replay.as_ref().map(|r| r.snapshot_load_ms)),
        )
        .num(
            "metrics.snapshot_write_ms",
            per_job(traces, |t| t.replay.as_ref().map(|r| r.snapshot_write_ms)),
        )
        .num(
            "core.initial_assess_ms",
            per_job(traces, |t| {
                t.initial_assess_ms
                    .or_else(|| t.replay.as_ref().and_then(|r| r.initial_assess_ms))
            }),
        )
        .num("core.evolve_ms", per_job(traces, |t| t.evolve_ms))
        .num("core.accept_ratio", per_job(traces, |t| t.accept_ratio))
        .num(
            "core.mutation_gen_us",
            per_job(traces, |t| t.mutation_gen_us),
        )
        .num(
            "core.crossover_gen_us",
            per_job(traces, |t| t.crossover_gen_us),
        )
        .num(
            "core.select_ms",
            per_job(traces, |t| t.replay.as_ref().and_then(|r| r.select_ms)),
        )
        .num(
            "core.islands.wall_ms",
            per_job(traces, |t| t.islands_wall_ms),
        )
        .num(
            "core.islands.critical_path_ms",
            per_job(traces, |t| t.islands_critical_ms),
        )
        .num("core.migrations", per_job(traces, |t| t.migrations))
        .num("privacy.audit_ms", per_job(traces, |t| t.audit_ms))
        .num(
            "pipeline.evaluator_for_ms",
            per_job(traces, |t| Some(t.evaluator_for_ms)),
        );
    let (ratio, preparations, snapshot_hits) = match serve_stats {
        Some(s) => (s.hit_rate().unwrap_or(0.0), s.preparations, s.snapshot_hits),
        // a fresh session per job: every request misses and prepares
        None => (0.0, 1, 0),
    };
    obj = obj
        .num("pipeline.cache_hit_ratio", ratio)
        .num("pipeline.preparations", preparations as f64)
        .num("pipeline.snapshot_hits", snapshot_hits as f64);
    Ok(obj.finish())
}

fn write_spans(path: &Path, tracer: &Tracer) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut child_cover = vec![Duration::ZERO; tracer.spans.len()];
    for span in &tracer.spans {
        if let Some(p) = span.parent {
            child_cover[p] += span.end - span.start;
        }
    }
    for (i, span) in tracer.spans.iter().enumerate() {
        let duration = span.end - span.start;
        let line = Obj::new()
            .int("id", i)
            .str(
                "parent",
                &span.parent.map(|p| p.to_string()).unwrap_or_default(),
            )
            .int("job", span.job)
            .str("name", span.name)
            .num("start_us", us(span.start))
            .num("end_us", us(span.end))
            .num("self_us", us(duration.saturating_sub(child_cover[i])))
            .finish();
        writeln!(out, "{line}")?;
    }
    out.flush()
}
