//! Algorithm 1 of the paper: the evolutionary loop.

use cdp_dataset::SubTable;
use cdp_metrics::{EvalState, Evaluator, Patch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::adaptive::OperatorStats;
use crate::archive::ParetoArchive;
use crate::config::{EvoConfig, IslandConfig};
use crate::individual::Individual;
use crate::islands::{budget_share, deal, island_hash, EpochRunner, IslandEvent, IslandMode};
use crate::operators::{crossover, mutate, OperatorKind};
use crate::parallel::{evaluate_tasks, load_population, EvalTask, MIN_PARALLEL_EVAL_ROWS};
use crate::population::Population;
use crate::replacement::offspring_wins;
use crate::selection::select_leader;
use crate::telemetry::{EvalCounts, GenerationStats, ScatterPoint, Trace};
use crate::{EvoError, Result};

/// Mutable per-run evaluation bookkeeping threaded through the generation
/// steps: the full/incremental call counters and the cross-check counter.
#[derive(Default)]
struct StepCtx {
    evals: EvalCounts,
    accepted_incremental: usize,
}

impl StepCtx {
    /// Score one step's offspring: evaluate the tasks (concurrently when
    /// `parallel`), count them by path, and — when the verification policy
    /// is due ([`EvoConfig::incremental_refresh`]) — assert that every
    /// patched state equals a full assessment of the same file.
    fn evaluate(
        &mut self,
        evaluator: &Evaluator,
        cfg: &EvoConfig,
        tasks: &[EvalTask<'_>],
        parallel: bool,
    ) -> Vec<EvalState> {
        let states = evaluate_tasks(evaluator, tasks, parallel);
        let patched: Vec<(EvalTask<'_>, &EvalState)> = tasks
            .iter()
            .zip(&states)
            .filter_map(|(task, state)| match task {
                EvalTask::Patch { masked, .. } => Some((EvalTask::Full(masked), state)),
                EvalTask::Full(_) => None,
            })
            .collect();
        self.evals.full += tasks.len() - patched.len();
        self.evals.incremental += patched.len();
        let due =
            cfg.incremental_refresh > 0 && self.accepted_incremental >= cfg.incremental_refresh;
        if due && !patched.is_empty() {
            let (full_tasks, patched_states): (Vec<_>, Vec<_>) = patched.into_iter().unzip();
            let fulls = evaluate_tasks(evaluator, &full_tasks, parallel);
            self.evals.full += fulls.len();
            for (state, full) in patched_states.into_iter().zip(&fulls) {
                assert_eq!(
                    state.assessment, full.assessment,
                    "incremental offspring state diverged from the full assessment"
                );
            }
            self.accepted_incremental = 0;
        }
        states
    }
}

/// A configured evolutionary run.
///
/// Construction is a two-step builder: [`Evolution::new`] binds the fitness
/// evaluator and configuration, [`Evolution::with_named_population`] loads
/// and evaluates the initial protections, [`Evolution::run`] executes
/// Algorithm 1.
pub struct Evolution {
    evaluator: Evaluator,
    config: EvoConfig,
    population: Option<Population>,
    initial_evaluations: usize,
}

impl Evolution {
    /// Bind evaluator and configuration.
    pub fn new(evaluator: Evaluator, config: EvoConfig) -> Self {
        Evolution {
            evaluator,
            config,
            population: None,
            initial_evaluations: 0,
        }
    }

    /// Load the initial population of named protections; every individual
    /// is evaluated here (in parallel when configured).
    ///
    /// # Errors
    /// [`EvoError::EmptyPopulation`] or [`EvoError::IncompatibleIndividual`].
    pub fn with_named_population<I>(mut self, items: I) -> Result<Self>
    where
        I: IntoIterator,
        I::Item: Into<(String, SubTable)>,
    {
        self.config.validate()?;
        let members = load_population(
            &self.evaluator,
            items,
            self.config.parallel_init,
            self.config.aggregator,
        )?;
        self.initial_evaluations = members.len();
        self.population = Some(Population::new(members));
        Ok(self)
    }

    /// Drop the best fraction of the (already loaded) initial population —
    /// the §3.3 robustness experiment.
    ///
    /// # Errors
    /// [`EvoError::EmptyPopulation`] when called before loading.
    pub fn drop_best_fraction(mut self, fraction: f64) -> Result<Self> {
        let pop = self.population.as_mut().ok_or(EvoError::EmptyPopulation)?;
        pop.drop_best_fraction(fraction);
        Ok(self)
    }

    /// Run Algorithm 1 to completion.
    ///
    /// # Panics
    /// Panics when no population was loaded (builder misuse).
    pub fn run(self) -> EvolutionOutcome {
        self.run_with(|_| {})
    }

    /// Run with a per-iteration observer (receives the trace entry just
    /// recorded; useful for progress reporting in long experiments).
    pub fn run_with<F>(self, mut observer: F) -> EvolutionOutcome
    where
        F: FnMut(&GenerationStats),
    {
        let mut runner = self.start();
        runner.run_chunk(usize::MAX, &mut observer);
        runner.finish()
    }

    /// One mutation generation: proportional selection, single-cell
    /// mutation, parent/offspring elitism. Returns whether the offspring
    /// survived.
    ///
    /// With [`EvoConfig::incremental_mutation`] the child is scored by
    /// patching the parent's cached state with the mutated cell
    /// ([`Evaluator::reassess`]); otherwise by a full assessment. The
    /// patched assessment is bit-identical to a full one;
    /// [`EvoConfig::incremental_refresh`] optionally asserts exactly that,
    /// every K accepted offspring.
    fn mutation_step(
        &self,
        pop: &mut Population,
        archive: &mut ParetoArchive,
        rng: &mut StdRng,
        ctx: &mut StepCtx,
    ) -> bool {
        let i = self.config.selection.select(pop.scores(), rng);
        let parent = pop.get(i);
        let mut child_data = parent.data.clone();
        let Some(mu) = mutate(&mut child_data, rng) else {
            return false;
        };
        let incremental = self.config.incremental_mutation;
        let patch = incremental.then(|| Patch::cell(mu.row, mu.attr, mu.old));
        let task = EvalTask::of(parent.state(), &child_data, patch.as_ref());
        let state = ctx
            .evaluate(&self.evaluator, &self.config, &[task], false)
            .pop()
            .expect("one state");
        let name = parent.name.clone();
        let child = Individual::new(name, child_data, state, self.config.aggregator);
        archive.offer(ScatterPoint::of(&child));
        if !offspring_wins(parent.score(), child.score()) {
            return false;
        }
        if incremental {
            ctx.accepted_incremental += 1;
        }
        pop.replace(i, child);
        true
    }

    /// One crossover generation: leader + proportional selection, 2-point
    /// crossover, Deterministic Crowding duels. Returns whether any
    /// offspring survived.
    ///
    /// The two offspring evaluate concurrently on scoped threads when
    /// [`EvoConfig::parallel_offspring`] is on and the file is large enough
    /// to amortize the spawns; with [`EvoConfig::incremental_crossover`]
    /// each child is re-assessed from its frame parent's cached state via a
    /// flat-range [`Patch`] instead of a full pass — bit-identical to the
    /// full pass ([`EvoConfig::incremental_refresh`] optionally asserts
    /// it).
    fn crossover_step(
        &self,
        pop: &mut Population,
        archive: &mut ParetoArchive,
        rng: &mut StdRng,
        ctx: &mut StepCtx,
    ) -> bool {
        let nb = self.config.leader_group(pop.len());
        let i1 = select_leader(pop.len(), nb, rng);
        let i2 = self.config.selection.select(pop.scores(), rng);

        let (z1_data, z2_data, (s, r)) = crossover(&pop.get(i1).data, &pop.get(i2).data, rng);
        let parallel = self.config.parallel_offspring && z1_data.n_rows() >= MIN_PARALLEL_EVAL_ROWS;
        let incremental = self.config.incremental_crossover;
        // each child shares its frame parent's file outside [s, r]: the
        // incremental path patches that parent's cached state with the
        // swapped-in segment
        let segment = |p: usize| {
            incremental.then(|| {
                let old = (s..=r).map(|q| pop.get(p).data.get_flat(q)).collect();
                Patch::flat_range(s, r, old)
            })
        };
        let (patch1, patch2) = (segment(i1), segment(i2));
        let tasks = [
            EvalTask::of(pop.get(i1).state(), &z1_data, patch1.as_ref()),
            EvalTask::of(pop.get(i2).state(), &z2_data, patch2.as_ref()),
        ];
        let mut states = ctx.evaluate(&self.evaluator, &self.config, &tasks, parallel);
        let z2_state = states.pop().expect("two states");
        let z1_state = states.pop().expect("two states");
        let z1 = Individual::new(
            pop.get(i1).name.clone(),
            z1_data,
            z1_state,
            self.config.aggregator,
        );
        let z2 = Individual::new(
            pop.get(i2).name.clone(),
            z2_data,
            z2_state,
            self.config.aggregator,
        );

        archive.offer(ScatterPoint::of(&z1));
        archive.offer(ScatterPoint::of(&z2));

        // Deterministic Crowding: pair offspring with parents, then elitist
        // duels within each pair.
        let straight = self.config.replacement.pair_straight(
            &pop.get(i1).data,
            &pop.get(i2).data,
            &z1.data,
            &z2.data,
        );
        let (c1, c2) = if straight { (z1, z2) } else { (z2, z1) };

        if i1 == i2 {
            // degenerate draw: both offspring duel the same parent; the
            // better offspring gets the single slot if it wins
            let best_child = if c1.score() <= c2.score() { c1 } else { c2 };
            if offspring_wins(pop.get(i1).score(), best_child.score()) {
                if incremental {
                    ctx.accepted_incremental += 1;
                }
                pop.replace(i1, best_child);
                return true;
            }
            return false;
        }

        let win1 = offspring_wins(pop.get(i1).score(), c1.score());
        let win2 = offspring_wins(pop.get(i2).score(), c2.score());
        if incremental {
            ctx.accepted_incremental += usize::from(win1) + usize::from(win2);
        }
        if win1 {
            pop.replace_unsorted(i1, c1);
        }
        if win2 {
            pop.replace_unsorted(i2, c2);
        }
        if win1 || win2 {
            pop.resort();
            true
        } else {
            false
        }
    }
}

/// The resumable state of a running Algorithm 1 loop: everything the
/// one-shot [`Evolution::run_with`] used to keep in local variables,
/// factored out so the island scheduler ([`crate::islands`]) can advance a
/// run in bounded chunks, exchange members at migration barriers, and
/// finish it later. `start` + `run_chunk` + `finish` replays the exact
/// RNG stream of the historical one-shot loop — the engine's bit-exactness
/// tests pin this. `pub` in this private module so the island scheduler's
/// traits can name it without it joining the public API.
pub struct EvolutionRunner {
    evolution: Evolution,
    pop: Population,
    rng: StdRng,
    trace: Trace,
    initial: Vec<ScatterPoint>,
    archive: ParetoArchive,
    best: f64,
    since_improvement: usize,
    t: usize,
    op_stats: OperatorStats,
    ctx: StepCtx,
}

impl EpochRunner for EvolutionRunner {
    type Stats = GenerationStats;
    type Outcome = EvolutionOutcome;

    fn event(island: usize, stats: &GenerationStats) -> IslandEvent {
        IslandEvent::Generation {
            island,
            stats: *stats,
        }
    }

    /// Whether the stop condition already holds.
    fn finished(&self) -> bool {
        self.evolution
            .config
            .stop
            .should_stop(self.t, self.since_improvement)
    }

    /// Execute one iteration unless the stop condition holds; returns
    /// whether an iteration ran.
    fn step_epoch<F: FnMut(&GenerationStats)>(&mut self, observer: &mut F) -> bool {
        if self.finished() {
            return false;
        }
        let (op, accepted) = if self.rng.gen::<f64>() < self.op_stats.mutation_rate() {
            (
                OperatorKind::Mutation,
                self.evolution.mutation_step(
                    &mut self.pop,
                    &mut self.archive,
                    &mut self.rng,
                    &mut self.ctx,
                ),
            )
        } else {
            (
                OperatorKind::Crossover,
                self.evolution.crossover_step(
                    &mut self.pop,
                    &mut self.archive,
                    &mut self.rng,
                    &mut self.ctx,
                ),
            )
        };
        self.op_stats.record(op, accepted);
        self.t += 1;
        let new_best = self.pop.best().score();
        if new_best + 1e-12 < self.best {
            self.best = new_best;
            self.since_improvement = 0;
        } else {
            self.since_improvement += 1;
        }
        self.trace
            .record(self.t, self.pop.scores(), Some(op), accepted);
        observer(self.trace.last().expect("just recorded"));
        true
    }

    /// Iterations executed so far.
    fn generations(&self) -> usize {
        self.t
    }

    /// Clones of the `count` best members (the population is score-sorted,
    /// ties by insertion order — deterministic).
    fn emigrants(&self, count: usize) -> Vec<Individual> {
        (0..count.min(self.pop.len()))
            .map(|i| self.pop.get(i).clone())
            .collect()
    }

    /// Replace the worst members with `immigrants` (at most `len - 1`, so
    /// at least one native always survives), then resort. An immigrant
    /// that beats the island's best resets the stagnation counter exactly
    /// like a native improvement would.
    fn immigrate(&mut self, immigrants: Vec<Individual>) {
        let n = self.pop.len();
        let take = immigrants.len().min(n.saturating_sub(1));
        for (j, immigrant) in immigrants.into_iter().take(take).enumerate() {
            self.pop.replace_unsorted(n - 1 - j, immigrant);
        }
        self.pop.resort();
        let new_best = self.pop.best().score();
        if new_best + 1e-12 < self.best {
            self.best = new_best;
            self.since_improvement = 0;
        }
    }

    /// Assemble the outcome; identical to what the one-shot loop returned.
    fn finish(self) -> EvolutionOutcome {
        let mut eval_counts = self.ctx.evals;
        eval_counts.full += self.evolution.initial_evaluations;
        EvolutionOutcome {
            initial: self.initial,
            final_points: self.pop.scatter(),
            trace: self.trace,
            iterations_run: self.t,
            pareto_front: self.archive.front(),
            final_mutation_rate: self.op_stats.mutation_rate(),
            eval_counts,
            population: self.pop,
        }
    }
}

/// Scalar islands split the iteration budget; the merge concatenates the
/// final populations and unions the Pareto archives.
impl IslandMode for Evolution {
    type Runner = EvolutionRunner;
    /// The full initial population's scatter and scores.
    type Initial = (Vec<ScatterPoint>, Vec<f64>);

    fn islands(&self) -> IslandConfig {
        self.config.islands
    }

    fn load<I>(self, items: I) -> Result<Self>
    where
        I: IntoIterator,
        I::Item: Into<(String, SubTable)>,
    {
        self.with_named_population(items)
    }

    fn population_len(&self) -> usize {
        self.population.as_ref().map_or(0, Population::len)
    }

    /// Snapshot the initial population and seed the loop state.
    ///
    /// # Panics
    /// Panics when no population was loaded (misuse of the API).
    fn start(mut self) -> EvolutionRunner {
        let pop = self
            .population
            .take()
            .expect("population must be loaded before run()");
        let cfg = self.config;
        let rng = StdRng::seed_from_u64(cfg.seed ^ 0xE70_A160);
        let mut trace = Trace::default();
        let initial = pop.scatter();
        let mut archive = ParetoArchive::new();
        for point in &initial {
            archive.offer(point.clone());
        }
        trace.record(0, pop.scores(), None, false);
        let best = pop.best().score();
        let op_stats = OperatorStats::new(cfg.operator_schedule, cfg.mutation_rate);
        EvolutionRunner {
            evolution: self,
            pop,
            rng,
            trace,
            initial,
            archive,
            best,
            since_improvement: 0,
            t: 0,
            op_stats,
            ctx: StepCtx::default(),
        }
    }

    fn split(mut self, k: usize) -> (Vec<EvolutionRunner>, Self::Initial) {
        let pop = self
            .population
            .take()
            .expect("population must be loaded before run()");
        let initial = (pop.scatter(), pop.scores().to_vec());
        // island 0 absorbs the evaluations of members dropped before the
        // split so the aggregate matches the legacy accounting exactly
        let dropped = self.initial_evaluations - pop.len();
        let runners = deal(pop.into_members(), k)
            .into_iter()
            .enumerate()
            .map(|(j, part)| {
                let mut config = self.config;
                config.seed ^= island_hash(j);
                config.stop.max_iterations = budget_share(self.config.stop.max_iterations, k, j);
                Evolution {
                    evaluator: self.evaluator.clone(),
                    config,
                    initial_evaluations: part.len() + if j == 0 { dropped } else { 0 },
                    population: Some(Population::new(part)),
                }
                .start()
            })
            .collect();
        (runners, initial)
    }

    fn merge(
        (initial, initial_scores): Self::Initial,
        outcomes: Vec<EvolutionOutcome>,
    ) -> EvolutionOutcome {
        let final_mutation_rate = outcomes[0].final_mutation_rate;
        let mut eval_counts = EvalCounts::default();
        let mut iterations_run = 0usize;
        let mut archive = ParetoArchive::new();
        let mut members: Vec<Individual> = Vec::with_capacity(initial.len());
        for o in outcomes {
            eval_counts.full += o.eval_counts.full;
            eval_counts.incremental += o.eval_counts.incremental;
            iterations_run += o.iterations_run;
            for point in o.pareto_front {
                archive.offer(point);
            }
            members.extend(o.population.into_members());
        }
        let merged = Population::new(members);
        // the merged trace keeps the endpoints only: the initial full
        // population and the merged final one (per-island series stream to
        // the observer as IslandEvent::Generation)
        let mut trace = Trace::default();
        trace.record(0, &initial_scores, None, false);
        trace.record(iterations_run, merged.scores(), None, false);
        EvolutionOutcome {
            initial,
            final_points: merged.scatter(),
            trace,
            iterations_run,
            pareto_front: archive.front(),
            final_mutation_rate,
            eval_counts,
            population: merged,
        }
    }
}

/// Summary of the score statistics the paper reports in §3.1/§3.2: initial
/// and final max/mean/min with percentage improvements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreSummary {
    /// Initial worst score.
    pub initial_max: f64,
    /// Final worst score.
    pub final_max: f64,
    /// Initial mean score.
    pub initial_mean: f64,
    /// Final mean score.
    pub final_mean: f64,
    /// Initial best score.
    pub initial_min: f64,
    /// Final best score.
    pub final_min: f64,
}

impl ScoreSummary {
    fn improvement(initial: f64, fin: f64) -> f64 {
        if initial.abs() < 1e-12 {
            0.0
        } else {
            100.0 * (initial - fin) / initial
        }
    }

    /// Percentage improvement of the max score.
    pub fn improvement_max(&self) -> f64 {
        Self::improvement(self.initial_max, self.final_max)
    }

    /// Percentage improvement of the mean score.
    pub fn improvement_mean(&self) -> f64 {
        Self::improvement(self.initial_mean, self.final_mean)
    }

    /// Percentage improvement of the min score.
    pub fn improvement_min(&self) -> f64 {
        Self::improvement(self.initial_min, self.final_min)
    }
}

/// Everything a run produces: the figure data and the final population.
#[derive(Debug, Clone)]
pub struct EvolutionOutcome {
    /// Initial (IL, DR) snapshot (the paper's dispersion plots, "initial").
    pub initial: Vec<ScatterPoint>,
    /// Final (IL, DR) snapshot.
    pub final_points: Vec<ScatterPoint>,
    /// Max/mean/min score series (the paper's evolution plots).
    pub trace: Trace,
    /// Non-dominated (IL, DR) points over everything evaluated in the run
    /// (extension; sorted by IL ascending).
    pub pareto_front: Vec<ScatterPoint>,
    /// Mutation rate at the end of the run (differs from the configured
    /// rate only under the adaptive operator schedule).
    pub final_mutation_rate: f64,
    /// Fitness evaluations performed, split into full assessments (initial
    /// population included) and patch-based re-assessments.
    pub eval_counts: EvalCounts,
    /// Iterations actually executed.
    pub iterations_run: usize,
    /// Final population, sorted by score.
    pub population: Population,
}

impl EvolutionOutcome {
    /// Best initial point (minimum score).
    pub fn initial_best(&self) -> &ScatterPoint {
        self.initial
            .iter()
            .min_by(|a, b| a.score.partial_cmp(&b.score).expect("finite"))
            .expect("non-empty population")
    }

    /// Best final point.
    pub fn final_best(&self) -> &ScatterPoint {
        self.final_points
            .iter()
            .min_by(|a, b| a.score.partial_cmp(&b.score).expect("finite"))
            .expect("non-empty population")
    }

    /// The §3.1/§3.2 summary table row.
    pub fn summary(&self) -> ScoreSummary {
        let first = self.trace.initial().expect("trace has initial snapshot");
        let last = self.trace.last().expect("trace has final snapshot");
        ScoreSummary {
            initial_max: first.max,
            final_max: last.max,
            initial_mean: first.mean,
            final_mean: last.mean,
            initial_min: first.min,
            final_min: last.min,
        }
    }
}
