//! NSGA-II: true multi-objective optimization over (IL, DR).
//!
//! The paper collapses information loss and disclosure risk into one scalar
//! (Eq. 1/Eq. 2) and §4 notes the approach "can be adapted to other fitness
//! functions" — this module is that adaptation taken to its logical end:
//! instead of a scalar, selection works directly on Pareto dominance
//! (non-dominated sorting) with crowding-distance tie-breaking, as in
//! Deb et al.'s NSGA-II. The outcome is a *front* of protections covering
//! the whole IL/DR trade-off curve in one run, rather than one winner per
//! aggregator choice.
//!
//! The genetic operators are exactly the paper's (§2.2): single-cell
//! mutation and 2-point crossover at the value level, chosen per offspring
//! with the same 0.5 rate. Only the selection/replacement scheme differs,
//! which makes the scalar-vs-Pareto comparison in the `multi_objective`
//! example and the extension bench a clean ablation.
//!
//! Since the objective-vector refactor, selection is generic over an
//! [`ObjectiveSet`]: dominance, crowding, and hypervolume all run over
//! N-dimensional [`ObjectiveVector`]s ([`non_dominated_sort_vec`],
//! [`crowding_distance_vec`], [`hypervolume_vec`]), and the canonical
//! `il,dr` set reproduces the hard-wired pair bit for bit — same
//! comparisons, same RNG stream, same front.

use cdp_dataset::SubTable;
use cdp_metrics::{
    Evaluator, ObjectiveContext, ObjectiveSet, ObjectiveVector, Patch, ScoreAggregator,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::archive::ParetoArchive;
use crate::config::IslandConfig;
use crate::individual::Individual;
use crate::islands::{budget_share, deal, island_hash, EpochRunner, IslandEvent, IslandMode};
use crate::operators::{crossover, mutate};
use crate::parallel::{evaluate_all, evaluate_tasks, EvalTask};
use crate::telemetry::{EvalCounts, ScatterPoint};
use crate::{EvoError, Result};

/// Configuration of an NSGA-II run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NsgaConfig {
    /// Number of generations.
    pub generations: usize,
    /// Offspring produced per generation; `0` means "population size".
    pub offspring: usize,
    /// Probability an offspring pair comes from crossover rather than
    /// mutation (the paper's operator coin, 0.5).
    pub crossover_prob: f64,
    /// RNG seed; equal seeds reproduce runs exactly.
    pub seed: u64,
    /// Evaluate the initial population (and each generation's offspring
    /// batch) on all cores.
    pub parallel_init: bool,
    /// Score offspring by patching their primary parent's cached state
    /// (mutation: one cell; crossover: the swapped flat segment) instead of
    /// a full O(n²) assessment — on by default, and bit-identical to the
    /// full pass: every measure derives from exactly-updated integer
    /// sufficient statistics (the same guarantee as
    /// `EvoConfig::incremental_mutation`).
    pub incremental: bool,
    /// Debug-verification interval for [`NsgaConfig::incremental`]: every
    /// this many generations the *whole surviving population* is fully
    /// re-assessed and each cached patched state asserted identical to the
    /// recompute — a cross-check of the exact delta engine, not a drift
    /// bound. `0` (the default) disables the cross-check.
    pub incremental_refresh: usize,
    /// Island-model split (see [`crate::islands`]); the default single
    /// island runs the legacy loop untouched.
    pub islands: crate::config::IslandConfig,
}

impl Default for NsgaConfig {
    fn default() -> Self {
        NsgaConfig {
            generations: 100,
            offspring: 0,
            crossover_prob: 0.5,
            seed: 0,
            parallel_init: true,
            incremental: true,
            incremental_refresh: 0,
            islands: crate::config::IslandConfig::default(),
        }
    }
}

impl NsgaConfig {
    /// Validate ranges (at least one generation, crossover probability in
    /// `[0,1]`).
    ///
    /// # Errors
    /// [`EvoError::InvalidConfig`] naming the offending knob.
    pub fn validate(&self) -> Result<()> {
        if self.generations == 0 {
            return Err(EvoError::InvalidConfig(
                "NSGA-II needs at least one generation".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.crossover_prob) {
            return Err(EvoError::InvalidConfig(format!(
                "crossover_prob must lie in [0,1], got {}",
                self.crossover_prob
            )));
        }
        self.islands.validate()?;
        Ok(())
    }
}

/// Fast non-dominated sort (Deb et al. 2002) over N-dim objective vectors:
/// partition points into fronts `F0, F1, …` where `F0` is the non-dominated
/// set, `F1` the non-dominated set after removing `F0`, and so on. All
/// objectives are minimized.
pub fn non_dominated_sort_vec(objs: &[ObjectiveVector]) -> Vec<Vec<usize>> {
    let n = objs.len();
    let mut dominated_by: Vec<Vec<usize>> = vec![Vec::new(); n]; // i dominates these
    let mut domination_count = vec![0usize; n];
    for i in 0..n {
        for j in (i + 1)..n {
            if objs[i].dominates(&objs[j]) {
                dominated_by[i].push(j);
                domination_count[j] += 1;
            } else if objs[j].dominates(&objs[i]) {
                dominated_by[j].push(i);
                domination_count[i] += 1;
            }
        }
    }
    let mut fronts: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = (0..n).filter(|&i| domination_count[i] == 0).collect();
    while !current.is_empty() {
        let mut next = Vec::new();
        for &i in &current {
            for &j in &dominated_by[i] {
                domination_count[j] -= 1;
                if domination_count[j] == 0 {
                    next.push(j);
                }
            }
        }
        fronts.push(std::mem::replace(&mut current, next));
    }
    fronts
}

/// Crowding distance of each member of one front (aligned with `front`'s
/// order), over N-dim objective vectors. Boundary points get
/// `f64::INFINITY`; interior points the sum of normalized neighbour gaps
/// per objective.
pub fn crowding_distance_vec(objs: &[ObjectiveVector], front: &[usize]) -> Vec<f64> {
    let m = front.len();
    let mut dist = vec![0f64; m];
    if m <= 2 {
        dist.iter_mut().for_each(|d| *d = f64::INFINITY);
        return dist;
    }
    let dims = objs.first().map_or(0, ObjectiveVector::len);
    // `obj` is a dimension index into each inner vector, not an index
    // into `objs` — the iterator rewrite the lint wants doesn't apply
    #[allow(clippy::needless_range_loop)]
    for obj in 0..dims {
        let value = |i: usize| objs[i][obj];
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by(|&a, &b| {
            value(front[a])
                .partial_cmp(&value(front[b]))
                .expect("objectives are finite")
        });
        dist[order[0]] = f64::INFINITY;
        dist[order[m - 1]] = f64::INFINITY;
        let span = value(front[order[m - 1]]) - value(front[order[0]]);
        if span <= 0.0 {
            continue;
        }
        for w in 1..m - 1 {
            let gap = value(front[order[w + 1]]) - value(front[order[w - 1]]);
            dist[order[w]] += gap / span;
        }
    }
    dist
}

/// N-D hypervolume (the volume dominated between the front and a
/// reference point, minimization) via recursive slicing: sweep the first
/// objective ascending and integrate the (N−1)-D hypervolume of the points
/// active in each slab. N=2 is an exact area sweep, N=1 the span to the
/// reference. Points at or beyond the reference contribute nothing.
pub fn hypervolume_vec(points: &[ObjectiveVector], reference: &ObjectiveVector) -> f64 {
    let d = reference.len();
    let inside: Vec<Vec<f64>> = points
        .iter()
        .filter(|p| {
            assert_eq!(p.len(), d, "point/reference dimensions differ");
            (0..d).all(|k| p[k] < reference[k])
        })
        .map(|p| p.as_slice().to_vec())
        .collect();
    if inside.is_empty() {
        return 0.0;
    }
    hv_slices(&inside, reference.as_slice())
}

/// Recursive kernel of [`hypervolume_vec`]; `points` are strictly inside
/// `reference` on every dimension.
fn hv_slices(points: &[Vec<f64>], reference: &[f64]) -> f64 {
    match reference.len() {
        0 => 0.0,
        1 => {
            let best = points.iter().map(|p| p[0]).fold(f64::INFINITY, f64::min);
            reference[0] - best
        }
        2 => {
            // area sweep, x ascending: each point below the running y
            // floor adds the strip between it and the floor
            let mut front: Vec<(f64, f64)> = points.iter().map(|p| (p[0], p[1])).collect();
            front.sort_by(|a, b| a.partial_cmp(b).expect("finite objectives"));
            let mut hv = 0.0;
            let mut prev_y = reference[1];
            for (x, y) in front {
                if y < prev_y {
                    hv += (reference[0] - x) * (prev_y - y);
                    prev_y = y;
                }
            }
            hv
        }
        _ => {
            let mut order: Vec<usize> = (0..points.len()).collect();
            order.sort_by(|&a, &b| points[a][0].partial_cmp(&points[b][0]).expect("finite"));
            let mut hv = 0.0;
            let mut active: Vec<Vec<f64>> = Vec::with_capacity(points.len());
            let mut k = 0;
            while k < order.len() {
                let x = points[order[k]][0];
                while k < order.len() && points[order[k]][0] == x {
                    active.push(points[order[k]][1..].to_vec());
                    k += 1;
                }
                let next_x = if k < order.len() {
                    points[order[k]][0]
                } else {
                    reference[0]
                };
                if next_x > x {
                    hv += (next_x - x) * hv_slices(&active, &reference[1..]);
                }
            }
            hv
        }
    }
}

/// Indices of a population's non-dominated members, first-objective
/// (IL) ascending.
fn front_indices(pop: &[Individual]) -> Vec<usize> {
    let objs: Vec<ObjectiveVector> = pop.iter().map(Individual::objectives).collect();
    let fronts = non_dominated_sort_vec(&objs);
    let mut idx = fronts.into_iter().next().unwrap_or_default();
    idx.sort_by(|&a, &b| {
        objs[a]
            .first()
            .partial_cmp(&objs[b].first())
            .expect("finite")
    });
    idx
}

/// The non-dominated members of a population, as scatter points sorted by
/// IL ascending.
pub fn pareto_front_of(pop: &[Individual]) -> Vec<ScatterPoint> {
    front_indices(pop)
        .into_iter()
        .map(|i| ScatterPoint::of(&pop[i]))
        .collect()
}

/// Non-dominated filter of arbitrary objective points, first-objective
/// (IL) ascending with ties kept in input order (stable) — the rule the
/// island scheduler applies when merging per-island fronts into one global
/// front.
pub fn non_dominated_points(points: &[ScatterPoint]) -> Vec<ScatterPoint> {
    let objs: Vec<ObjectiveVector> = points.iter().map(|p| p.objectives).collect();
    let mut idx = non_dominated_sort_vec(&objs)
        .into_iter()
        .next()
        .unwrap_or_default();
    idx.sort_by(|&a, &b| {
        objs[a]
            .first()
            .partial_cmp(&objs[b].first())
            .expect("finite")
    });
    idx.into_iter().map(|i| points[i].clone()).collect()
}

/// Per-generation front progress, streamed to [`Nsga2::run_with`]
/// observers (the multi-objective counterpart of
/// [`crate::GenerationStats`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontStats {
    /// Generation index, 1-based (aligned with
    /// [`NsgaOutcome::hypervolume_series`], whose index 0 is the initial
    /// population).
    pub generation: usize,
    /// Size of the population's non-dominated front after the generation.
    pub front_size: usize,
    /// Hypervolume of that front w.r.t. the objective set's reference
    /// point (100 on every axis).
    pub hypervolume: f64,
    /// The front's ideal point: the per-objective minimum over the front
    /// — the vector observers stream alongside the scalar summary.
    pub ideal: ObjectiveVector,
}

/// Result of an NSGA-II run.
#[derive(Debug, Clone)]
pub struct NsgaOutcome {
    /// Non-dominated front of the *final population*, IL-ascending.
    pub front: Vec<ScatterPoint>,
    /// The front's members with their protected files, aligned with
    /// [`NsgaOutcome::front`] (what a consumer publishes after picking a
    /// trade-off point).
    pub front_members: Vec<Individual>,
    /// Non-dominated front of the *initial population*.
    pub initial_front: Vec<ScatterPoint>,
    /// All-time front across every individual ever evaluated (monotone in
    /// hypervolume by construction).
    pub archive_front: Vec<ScatterPoint>,
    /// Hypervolume of the population front after each generation
    /// (index 0 = initial population), reference point (100, 100).
    pub hypervolume_series: Vec<f64>,
    /// Total fitness evaluations performed (initial population included);
    /// always `eval_counts.total()` — derived at construction, never
    /// counted separately.
    pub evaluations: usize,
    /// The same evaluations split into full assessments and patch-based
    /// re-assessments.
    pub eval_counts: EvalCounts,
    /// The objective set the run minimized (canonical `il,dr` unless
    /// extended via [`Nsga2::with_objectives`]).
    pub objectives: ObjectiveSet,
}

/// A configured NSGA-II run over protections of one file.
pub struct Nsga2 {
    evaluator: Evaluator,
    config: NsgaConfig,
    objectives: ObjectiveSet,
    population: Option<Vec<Individual>>,
}

impl Nsga2 {
    /// Bind evaluator and configuration (canonical `il,dr` objectives).
    pub fn new(evaluator: Evaluator, config: NsgaConfig) -> Self {
        Nsga2 {
            evaluator,
            config,
            objectives: ObjectiveSet::canonical(),
            population: None,
        }
    }

    /// Replace the objective set. With the canonical `il,dr` set (the
    /// default) every selection decision — and therefore every RNG draw —
    /// is bit-identical to the historical hard-wired pair; extended sets
    /// append measures that selection then minimizes jointly. Call before
    /// loading the population so member vectors are computed once.
    #[must_use]
    pub fn with_objectives(mut self, objectives: ObjectiveSet) -> Self {
        self.objectives = objectives;
        if let Some(pop) = &mut self.population {
            for ind in pop.iter_mut() {
                assign_objectives(&self.objectives, &self.evaluator, ind);
            }
        }
        self
    }

    /// The objective set of this run.
    pub fn objectives(&self) -> &ObjectiveSet {
        &self.objectives
    }

    /// Load and evaluate the initial population of named protections.
    ///
    /// # Errors
    /// [`EvoError::EmptyPopulation`], [`EvoError::IncompatibleIndividual`],
    /// or [`EvoError::InvalidConfig`].
    pub fn with_named_population<I>(mut self, items: I) -> Result<Self>
    where
        I: IntoIterator,
        I::Item: Into<(String, SubTable)>,
    {
        self.config.validate()?;
        let items: Vec<(String, SubTable)> = items.into_iter().map(Into::into).collect();
        if items.is_empty() {
            return Err(EvoError::EmptyPopulation);
        }
        for (name, data) in &items {
            self.evaluator
                .prepared()
                .check_compatible(data)
                .map_err(|source| EvoError::IncompatibleIndividual {
                    name: name.clone(),
                    source,
                })?;
        }
        let states = evaluate_all(&self.evaluator, &items, self.config.parallel_init);
        // the scalar score is unused by NSGA selection; Max is stored so
        // ScatterPoint labels remain meaningful in mixed reports
        let members = items
            .into_iter()
            .zip(states)
            .map(|((name, data), state)| {
                let mut ind = Individual::new(name, data, state, ScoreAggregator::Max);
                assign_objectives(&self.objectives, &self.evaluator, &mut ind);
                ind
            })
            .collect();
        self.population = Some(members);
        Ok(self)
    }

    /// Run to completion.
    ///
    /// # Panics
    /// Panics when no population was loaded (builder misuse).
    pub fn run(self) -> NsgaOutcome {
        self.run_with(|_| {})
    }

    /// Run to completion, streaming per-generation [`FrontStats`] to
    /// `observer`. The observer draws nothing from the RNG stream: a run
    /// with an observer is bit-identical to one without.
    ///
    /// # Panics
    /// Panics when no population was loaded (builder misuse).
    pub fn run_with<F: FnMut(&FrontStats)>(self, mut observer: F) -> NsgaOutcome {
        let mut runner = self.start();
        runner.run_chunk(usize::MAX, &mut observer);
        runner.finish()
    }
}

/// Cache an individual's objective vector under `set`. The canonical set
/// short-circuits: [`Individual::new`] already cached the exact
/// `(il, dr)` pair, so the default path computes nothing extra.
fn assign_objectives(set: &ObjectiveSet, evaluator: &Evaluator, ind: &mut Individual) {
    if set.is_canonical() {
        return;
    }
    let vector = set.vector_of(&ObjectiveContext {
        state: ind.state(),
        prepared: evaluator.prepared(),
    });
    ind.set_objectives(vector);
}

use runner::NsgaRunner;

/// Home of [`NsgaRunner`]: a `pub` type in a private module, so the
/// island scheduler's traits can name it while it stays out of the public
/// API.
mod runner {
    use super::*;

    /// The resumable state of a running NSGA-II loop, factored out of the
    /// one-shot [`Nsga2::run_with`] so the island scheduler
    /// ([`crate::islands`]) can advance a run in bounded generation
    /// chunks, exchange elites at migration barriers, and finish it later.
    /// `start` + `run_chunk` + `finish` replays the exact RNG stream of the
    /// historical one-shot loop.
    pub struct NsgaRunner {
        pub(super) nsga: Nsga2,
        pub(super) pop: Vec<Individual>,
        pub(super) n: usize,
        pub(super) lambda: usize,
        pub(super) rng: StdRng,
        pub(super) eval_counts: EvalCounts,
        pub(super) archive: ParetoArchive,
        pub(super) initial_front: Vec<ScatterPoint>,
        pub(super) hv_series: Vec<f64>,
        pub(super) gen: usize,
        pub(super) halted: bool,
    }
}

impl EpochRunner for NsgaRunner {
    type Stats = FrontStats;
    type Outcome = NsgaOutcome;

    fn event(island: usize, stats: &FrontStats) -> IslandEvent {
        IslandEvent::Front {
            island,
            stats: *stats,
        }
    }

    /// Whether every generation ran (or the schema degenerated).
    fn finished(&self) -> bool {
        self.halted || self.gen >= self.nsga.config.generations
    }

    /// Execute one generation unless the run is finished; returns whether
    /// a generation ran.
    fn step_epoch<F: FnMut(&FrontStats)>(&mut self, observer: &mut F) -> bool {
        if self.finished() {
            return false;
        }
        let cfg = self.nsga.config;
        let gen = self.gen;
        let pop = &mut self.pop;
        // debug verification: periodically recompute every survivor's
        // state from scratch and assert the cached patched state is
        // identical — patches-of-patches must reproduce the full
        // assessment bit for bit
        if cfg.incremental
            && cfg.incremental_refresh > 0
            && gen > 0
            && gen.is_multiple_of(cfg.incremental_refresh)
        {
            let tasks: Vec<EvalTask<'_>> =
                pop.iter().map(|ind| EvalTask::Full(&ind.data)).collect();
            let states = evaluate_tasks(&self.nsga.evaluator, &tasks, cfg.parallel_init);
            drop(tasks);
            self.eval_counts.full += pop.len();
            for (ind, state) in pop.iter().zip(states) {
                assert_eq!(
                    *ind.assessment(),
                    state.assessment,
                    "incremental nsga state diverged from the full assessment"
                );
            }
        }
        let (rank_of, crowd_of) = rank_and_crowd(pop);
        let rng = &mut self.rng;
        let tournament = |rng: &mut StdRng, pop: &[Individual]| -> usize {
            let a = rng.gen_range(0..pop.len());
            let b = rng.gen_range(0..pop.len());
            pick(a, b, &rank_of, &crowd_of, rng)
        };

        // each pending child remembers its primary parent and, when the
        // incremental path is on, the patch relating it to that parent
        let mut children: Vec<(String, SubTable, Option<Patch>, usize)> =
            Vec::with_capacity(self.lambda + 1);
        while children.len() < self.lambda {
            let use_crossover = pop.len() >= 2 && rng.gen::<f64>() < cfg.crossover_prob;
            if use_crossover {
                let p1 = tournament(rng, pop);
                let mut p2 = tournament(rng, pop);
                if p2 == p1 {
                    p2 = (p1 + 1) % pop.len();
                }
                let (z1, z2, (s, r)) = crossover(&pop[p1].data, &pop[p2].data, rng);
                let (patch1, patch2) = if cfg.incremental {
                    let old1: Vec<_> = (s..=r).map(|p| pop[p1].data.get_flat(p)).collect();
                    let old2: Vec<_> = (s..=r).map(|p| pop[p2].data.get_flat(p)).collect();
                    (
                        Some(Patch::flat_range(s, r, old1)),
                        Some(Patch::flat_range(s, r, old2)),
                    )
                } else {
                    (None, None)
                };
                children.push((format!("nsga-x{gen}"), z1, patch1, p1));
                children.push((format!("nsga-x{gen}"), z2, patch2, p2));
            } else {
                let p = tournament(rng, pop);
                let mut data = pop[p].data.clone();
                if let Some(mu) = mutate(&mut data, rng) {
                    let patch = cfg
                        .incremental
                        .then(|| Patch::cell(mu.row, mu.attr, mu.old));
                    children.push((format!("nsga-m{gen}"), data, patch, p));
                } else {
                    // degenerate schema (all attributes single-category):
                    // crossover cannot help either; stop producing
                    break;
                }
            }
        }
        children.truncate(self.lambda);
        if children.is_empty() {
            self.halted = true;
            return false;
        }

        let tasks: Vec<EvalTask<'_>> = children
            .iter()
            .map(|(_, data, patch, parent)| match patch {
                Some(patch) => EvalTask::Patch {
                    prev: pop[*parent].state(),
                    masked: data,
                    patch,
                },
                None => EvalTask::Full(data),
            })
            .collect();
        let states = evaluate_tasks(&self.nsga.evaluator, &tasks, cfg.parallel_init);
        drop(tasks);
        for (_, _, patch, _) in &children {
            match patch {
                Some(_) => self.eval_counts.incremental += 1,
                None => self.eval_counts.full += 1,
            }
        }
        for ((name, data, _, _), state) in children.into_iter().zip(states) {
            let mut ind = Individual::new(name, data, state, ScoreAggregator::Max);
            assign_objectives(&self.nsga.objectives, &self.nsga.evaluator, &mut ind);
            self.archive.offer(ScatterPoint::of(&ind));
            pop.push(ind);
        }
        self.pop = environmental_selection(std::mem::take(&mut self.pop), self.n);
        self.gen += 1;
        let (front_size, hv, ideal) = front_stats(&self.pop, &self.nsga.objectives.reference());
        self.hv_series.push(hv);
        observer(&FrontStats {
            generation: self.gen,
            front_size,
            hypervolume: hv,
            ideal,
        });
        true
    }

    /// Generations executed so far.
    fn generations(&self) -> usize {
        self.gen
    }

    /// Clones of the `count` best members by (rank ascending, crowding
    /// descending, index ascending) — the deterministic elite.
    fn emigrants(&self, count: usize) -> Vec<Individual> {
        let (rank_of, crowd_of) = rank_and_crowd(&self.pop);
        let mut order: Vec<usize> = (0..self.pop.len()).collect();
        order.sort_by(|&a, &b| {
            rank_of[a]
                .cmp(&rank_of[b])
                .then_with(|| {
                    crowd_of[b]
                        .partial_cmp(&crowd_of[a])
                        .expect("crowding comparable")
                })
                .then_with(|| a.cmp(&b))
        });
        order
            .into_iter()
            .take(count.min(self.pop.len()))
            .map(|i| self.pop[i].clone())
            .collect()
    }

    /// Replace the worst members (rank descending, crowding ascending,
    /// index descending — the deterministic anti-elite) with `immigrants`;
    /// at most `len - 1` are replaced so a native always survives.
    fn immigrate(&mut self, immigrants: Vec<Individual>) {
        if immigrants.is_empty() {
            return;
        }
        let n = self.pop.len();
        let take = immigrants.len().min(n.saturating_sub(1));
        let (rank_of, crowd_of) = rank_and_crowd(&self.pop);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            rank_of[b]
                .cmp(&rank_of[a])
                .then_with(|| {
                    crowd_of[a]
                        .partial_cmp(&crowd_of[b])
                        .expect("crowding comparable")
                })
                .then_with(|| b.cmp(&a))
        });
        for (&slot, immigrant) in order.iter().zip(immigrants.into_iter().take(take)) {
            self.archive.offer(ScatterPoint::of(&immigrant));
            self.pop[slot] = immigrant;
        }
    }

    /// Assemble the outcome; identical to what the one-shot loop returned.
    fn finish(self) -> NsgaOutcome {
        let (front, front_members) = front_of(&self.pop);
        NsgaOutcome {
            front,
            front_members,
            initial_front: self.initial_front,
            archive_front: sorted_front(&self.archive),
            hypervolume_series: self.hv_series,
            evaluations: self.eval_counts.total(),
            eval_counts: self.eval_counts,
            objectives: self.nsga.objectives,
        }
    }
}

/// NSGA-II islands split the offspring batch; the merge filters the union
/// of island fronts down to its non-dominated subset.
impl IslandMode for Nsga2 {
    type Runner = NsgaRunner;
    /// The full initial population's front and its hypervolume.
    type Initial = (Vec<ScatterPoint>, f64);

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
        self.population.as_ref().map_or(0, Vec::len)
    }

    /// Snapshot the initial population and seed the loop state.
    ///
    /// # Panics
    /// Panics when no population was loaded (misuse of the API).
    fn start(mut self) -> NsgaRunner {
        let pop = self
            .population
            .take()
            .expect("population must be loaded before run()");
        let cfg = self.config;
        let n = pop.len();
        let lambda = if cfg.offspring == 0 { n } else { cfg.offspring };
        let rng = StdRng::seed_from_u64(cfg.seed ^ 0x0045_A6A2);
        let eval_counts = EvalCounts {
            full: n,
            incremental: 0,
        };
        let mut archive = ParetoArchive::new();
        for ind in &pop {
            archive.offer(ScatterPoint::of(ind));
        }
        let initial_front = pareto_front_of(&pop);
        let hv_series = vec![front_metrics(&pop, &self.objectives.reference()).1];
        NsgaRunner {
            nsga: self,
            pop,
            n,
            lambda,
            rng,
            eval_counts,
            archive,
            initial_front,
            hv_series,
            gen: 0,
            halted: false,
        }
    }

    /// Every island runs the full generation count on its 1/K-sized
    /// subpopulation, so the per-generation offspring batch (λ =
    /// subpopulation size when `offspring` is 0) shrinks by K and the
    /// total evaluation count matches the K = 1 run.
    fn split(mut self, k: usize) -> (Vec<NsgaRunner>, Self::Initial) {
        let members = self
            .population
            .take()
            .expect("population must be loaded before run()");
        let initial_front = pareto_front_of(&members);
        let points: Vec<ObjectiveVector> = initial_front.iter().map(|p| p.objectives).collect();
        let initial_hv = hypervolume_vec(&points, &self.objectives.reference());
        let runners = deal(members, k)
            .into_iter()
            .enumerate()
            .map(|(j, part)| {
                let mut config = self.config;
                config.seed ^= island_hash(j);
                if config.offspring > 0 {
                    config.offspring = budget_share(self.config.offspring, k, j);
                }
                Nsga2 {
                    evaluator: self.evaluator.clone(),
                    config,
                    objectives: self.objectives.clone(),
                    population: Some(part),
                }
                .start()
            })
            .collect();
        (runners, (initial_front, initial_hv))
    }

    fn merge(
        (initial_front, initial_hv): Self::Initial,
        outcomes: Vec<NsgaOutcome>,
    ) -> NsgaOutcome {
        let objectives = outcomes[0].objectives.clone();
        let mut eval_counts = EvalCounts::default();
        let mut archive = ParetoArchive::new();
        let mut union: Vec<Individual> = Vec::new();
        let mut series: Vec<Vec<f64>> = Vec::new();
        for o in outcomes {
            eval_counts.full += o.eval_counts.full;
            eval_counts.incremental += o.eval_counts.incremental;
            for point in o.archive_front {
                archive.offer(point);
            }
            union.extend(o.front_members);
            series.push(o.hypervolume_series);
        }
        // ties in the union keep island order
        let (front, front_members) = front_of(&union);
        // merged hypervolume series: the initial full-population front,
        // then the per-generation maximum across islands, with the final
        // entry recomputed on the merged front
        let max_len = series.iter().map(Vec::len).max().unwrap_or(1);
        let mut hv_series = Vec::with_capacity(max_len);
        hv_series.push(initial_hv);
        for g in 1..max_len {
            let best = series
                .iter()
                .filter_map(|s| s.get(g))
                .copied()
                .fold(f64::NEG_INFINITY, f64::max);
            hv_series.push(best);
        }
        if hv_series.len() > 1 {
            let points: Vec<ObjectiveVector> = front.iter().map(|p| p.objectives).collect();
            *hv_series.last_mut().expect("non-empty") =
                hypervolume_vec(&points, &objectives.reference());
        }
        NsgaOutcome {
            front,
            front_members,
            initial_front,
            archive_front: sorted_front(&archive),
            hypervolume_series: hv_series,
            evaluations: eval_counts.total(),
            eval_counts,
            objectives,
        }
    }
}

/// A population's non-dominated front, IL-ascending: the scatter points
/// and the members they came from.
fn front_of(pop: &[Individual]) -> (Vec<ScatterPoint>, Vec<Individual>) {
    let idx = front_indices(pop);
    let points = idx.iter().map(|&i| ScatterPoint::of(&pop[i])).collect();
    (points, idx.into_iter().map(|i| pop[i].clone()).collect())
}

/// An archive's front, IL-ascending.
fn sorted_front(archive: &ParetoArchive) -> Vec<ScatterPoint> {
    let mut front = archive.front();
    front.sort_by(|a, b| a.il.partial_cmp(&b.il).expect("finite"));
    front
}

/// Size and hypervolume of a population's non-dominated front.
pub(crate) fn front_metrics(pop: &[Individual], reference: &ObjectiveVector) -> (usize, f64) {
    let (size, hv, _) = front_stats(pop, reference);
    (size, hv)
}

/// Size, hypervolume, and ideal point of a population's non-dominated
/// front.
fn front_stats(pop: &[Individual], reference: &ObjectiveVector) -> (usize, f64, ObjectiveVector) {
    let pts: Vec<ObjectiveVector> = pareto_front_of(pop).iter().map(|p| p.objectives).collect();
    (
        pts.len(),
        hypervolume_vec(&pts, reference),
        ideal_point(&pts, reference.len()),
    )
}

/// Per-objective minimum over a set of points (the reference point itself
/// for an empty set).
pub(crate) fn ideal_point(points: &[ObjectiveVector], dims: usize) -> ObjectiveVector {
    let mut best = vec![f64::INFINITY; dims];
    for p in points {
        for (slot, k) in best.iter_mut().zip(0..dims) {
            *slot = slot.min(p[k]);
        }
    }
    if points.is_empty() {
        best.fill(100.0);
    }
    ObjectiveVector::from_slice(&best)
}

fn rank_and_crowd(pop: &[Individual]) -> (Vec<usize>, Vec<f64>) {
    let objs: Vec<ObjectiveVector> = pop.iter().map(Individual::objectives).collect();
    let fronts = non_dominated_sort_vec(&objs);
    let mut rank_of = vec![0usize; pop.len()];
    let mut crowd_of = vec![0f64; pop.len()];
    for (r, front) in fronts.iter().enumerate() {
        let crowd = crowding_distance_vec(&objs, front);
        for (&i, &c) in front.iter().zip(&crowd) {
            rank_of[i] = r;
            crowd_of[i] = c;
        }
    }
    (rank_of, crowd_of)
}

fn pick(a: usize, b: usize, rank_of: &[usize], crowd_of: &[f64], rng: &mut StdRng) -> usize {
    match rank_of[a].cmp(&rank_of[b]) {
        std::cmp::Ordering::Less => a,
        std::cmp::Ordering::Greater => b,
        std::cmp::Ordering::Equal => {
            if crowd_of[a] > crowd_of[b] {
                a
            } else if crowd_of[b] > crowd_of[a] {
                b
            } else if rng.gen() {
                a
            } else {
                b
            }
        }
    }
}

/// Keep the `n` best of `pop` by (rank, crowding): whole fronts first, the
/// overflowing front truncated by descending crowding distance.
fn environmental_selection(pop: Vec<Individual>, n: usize) -> Vec<Individual> {
    let objs: Vec<ObjectiveVector> = pop.iter().map(Individual::objectives).collect();
    let fronts = non_dominated_sort_vec(&objs);
    let mut keep: Vec<usize> = Vec::with_capacity(n);
    for front in fronts {
        if keep.len() + front.len() <= n {
            keep.extend(front);
        } else {
            let crowd = crowding_distance_vec(&objs, &front);
            let mut order: Vec<usize> = (0..front.len()).collect();
            order.sort_by(|&x, &y| {
                crowd[y]
                    .partial_cmp(&crowd[x])
                    .expect("crowding comparable")
            });
            keep.extend(order.into_iter().take(n - keep.len()).map(|w| front[w]));
            break;
        }
    }
    keep.sort_unstable();
    let mut keep_flags = vec![false; pop.len()];
    for &i in &keep {
        keep_flags[i] = true;
    }
    pop.into_iter()
        .zip(keep_flags)
        .filter_map(|(ind, k)| k.then_some(ind))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_dataset::generators::{DatasetKind, GeneratorConfig};
    use cdp_metrics::MetricConfig;
    use cdp_sdc::{build_population, SuiteConfig};

    fn pairs(points: &[(f64, f64)]) -> Vec<ObjectiveVector> {
        points
            .iter()
            .map(|&(a, b)| ObjectiveVector::pair(a, b))
            .collect()
    }

    fn hv2(points: &[(f64, f64)]) -> f64 {
        hypervolume_vec(&pairs(points), &ObjectiveVector::pair(100.0, 100.0))
    }

    #[test]
    fn sort_splits_fronts_correctly() {
        // (1,1) dominates everything; (2,3) and (3,2) incomparable; (4,4) last
        let objs = vec![(2.0, 3.0), (1.0, 1.0), (3.0, 2.0), (4.0, 4.0)];
        let fronts = non_dominated_sort_vec(&pairs(&objs));
        assert_eq!(fronts.len(), 3);
        assert_eq!(fronts[0], vec![1]);
        assert_eq!(
            {
                let mut f = fronts[1].clone();
                f.sort();
                f
            },
            vec![0, 2]
        );
        assert_eq!(fronts[2], vec![3]);
    }

    #[test]
    fn sort_of_identical_points_is_one_front() {
        let objs = vec![(1.0, 1.0); 5];
        let fronts = non_dominated_sort_vec(&pairs(&objs));
        assert_eq!(fronts.len(), 1);
        assert_eq!(fronts[0].len(), 5);
    }

    #[test]
    fn crowding_boundaries_are_infinite() {
        let objs = vec![(1.0, 5.0), (2.0, 4.0), (3.0, 3.0), (4.0, 2.0), (5.0, 1.0)];
        let front: Vec<usize> = (0..5).collect();
        let d = crowding_distance_vec(&pairs(&objs), &front);
        assert!(d[0].is_infinite());
        assert!(d[4].is_infinite());
        for x in &d[1..4] {
            assert!(x.is_finite());
            assert!(*x > 0.0);
        }
        // evenly spaced interior points share the same crowding
        assert!((d[1] - d[3]).abs() < 1e-12);
    }

    #[test]
    fn crowding_small_fronts_all_infinite() {
        let objs = vec![(1.0, 2.0), (2.0, 1.0)];
        let d = crowding_distance_vec(&pairs(&objs), &[0, 1]);
        assert!(d.iter().all(|x| x.is_infinite()));
    }

    #[test]
    fn hypervolume_basics() {
        assert_eq!(hv2(&[]), 0.0);
        assert_eq!(hv2(&[(100.0, 0.0)]), 0.0); // at reference edge
        assert!((hv2(&[(0.0, 0.0)]) - 10_000.0).abs() < 1e-9);
        // two incomparable points: union of rectangles
        let hv = hv2(&[(20.0, 40.0), (40.0, 20.0)]);
        // (80*60) + (60*20) = 4800 + 1200
        assert!((hv - 6000.0).abs() < 1e-9);
        // dominated point adds nothing
        let with_dominated = hv2(&[(20.0, 40.0), (40.0, 20.0), (50.0, 50.0)]);
        assert!((with_dominated - hv).abs() < 1e-9);
    }

    #[test]
    fn hypervolume_grows_with_better_points() {
        let worse = hv2(&[(30.0, 30.0)]);
        let better = hv2(&[(20.0, 20.0)]);
        assert!(better > worse);
    }

    #[test]
    fn hypervolume_vec_matches_the_2d_sweep_bitwise() {
        let pts = [(20.0, 40.0), (40.0, 20.0), (50.0, 50.0), (3.25, 97.5)];
        // the strips the x-ascending sweep adds, in its order; (50, 50)
        // lies above the floor and adds nothing
        let sweep: f64 = (100.0 - 3.25) * (100.0 - 97.5)
            + (100.0 - 20.0) * (97.5 - 40.0)
            + (100.0 - 40.0) * (40.0 - 20.0);
        assert_eq!(sweep.to_bits(), hv2(&pts).to_bits());
    }

    #[test]
    fn hypervolume_3d_by_recursive_slicing() {
        let r = ObjectiveVector::from_slice(&[100.0, 100.0, 100.0]);
        assert_eq!(hypervolume_vec(&[], &r), 0.0);
        // one box: 100³
        let one = hypervolume_vec(&[ObjectiveVector::from_slice(&[0.0, 0.0, 0.0])], &r);
        assert!((one - 1_000_000.0).abs() < 1e-6);
        // union of two boxes minus their intersection:
        // 80·60·50 + 60·80·50 − 60·60·50 = 300000
        let two = hypervolume_vec(
            &[
                ObjectiveVector::from_slice(&[20.0, 40.0, 50.0]),
                ObjectiveVector::from_slice(&[40.0, 20.0, 50.0]),
            ],
            &r,
        );
        assert!((two - 300_000.0).abs() < 1e-6, "got {two}");
        // a dominated point adds nothing
        let three = hypervolume_vec(
            &[
                ObjectiveVector::from_slice(&[20.0, 40.0, 50.0]),
                ObjectiveVector::from_slice(&[40.0, 20.0, 50.0]),
                ObjectiveVector::from_slice(&[60.0, 60.0, 60.0]),
            ],
            &r,
        );
        assert!((three - two).abs() < 1e-9);
    }

    #[test]
    fn hypervolume_1d_is_the_span() {
        let r = ObjectiveVector::from_slice(&[100.0]);
        let pts = [
            ObjectiveVector::from_slice(&[30.0]),
            ObjectiveVector::from_slice(&[70.0]),
        ];
        assert_eq!(hypervolume_vec(&pts, &r), 70.0);
    }

    #[test]
    fn three_objective_run_minimizes_jointly_and_stays_deterministic() {
        let run = || {
            let ds = DatasetKind::German.generate(&GeneratorConfig::seeded(31).with_records(60));
            let pop = build_population(&ds, &SuiteConfig::small(), 31).unwrap();
            let ev = Evaluator::new(&ds.protected_subtable(), MetricConfig::default()).unwrap();
            let cfg = NsgaConfig {
                generations: 5,
                seed: 31,
                ..NsgaConfig::default()
            };
            Nsga2::new(ev, cfg)
                .with_objectives(cdp_metrics::ObjectiveSet::parse("il,dr,eps").unwrap())
                .with_named_population(pop)
                .unwrap()
                .run()
        };
        let out = run();
        assert_eq!(out.objectives.keys(), ["il", "dr", "eps"]);
        // every front point carries a 3-D vector whose prefix is (il, dr)
        for p in &out.front {
            assert_eq!(p.objectives.len(), 3);
            assert_eq!(p.objectives[0].to_bits(), p.il.to_bits());
            assert_eq!(p.objectives[1].to_bits(), p.dr.to_bits());
            assert!((0.0..100.0).contains(&p.objectives[2]));
        }
        // mutual non-dominance in the full 3-D space
        for a in &out.front {
            for b in &out.front {
                assert!(!a.objectives.dominates(&b.objectives));
            }
        }
        // a front may keep 2-D-dominated points that win on the third axis;
        // the run stays bit-deterministic per seed
        let again = run();
        assert_eq!(out.front, again.front);
        assert_eq!(out.hypervolume_series, again.hypervolume_series);
    }

    fn small_run(seed: u64, generations: usize) -> NsgaOutcome {
        let ds = DatasetKind::German.generate(&GeneratorConfig::seeded(seed).with_records(60));
        let pop = build_population(&ds, &SuiteConfig::small(), seed).unwrap();
        let ev = Evaluator::new(&ds.protected_subtable(), MetricConfig::default()).unwrap();
        let cfg = NsgaConfig {
            generations,
            seed,
            ..NsgaConfig::default()
        };
        Nsga2::new(ev, cfg)
            .with_named_population(pop)
            .unwrap()
            .run()
    }

    #[test]
    fn run_produces_mutually_nondominated_front() {
        let out = small_run(11, 8);
        for a in &out.front {
            for b in &out.front {
                let dominates = a.il <= b.il && a.dr <= b.dr && (a.il < b.il || a.dr < b.dr);
                assert!(!dominates, "front contains dominated point");
            }
            assert!((0.0..=100.0).contains(&a.il));
            assert!((0.0..=100.0).contains(&a.dr));
        }
        assert_eq!(out.hypervolume_series.len(), 9);
    }

    #[test]
    fn archive_hypervolume_never_regresses() {
        let out = small_run(12, 8);
        let initial: Vec<(f64, f64)> = out.initial_front.iter().map(|p| (p.il, p.dr)).collect();
        let archive: Vec<(f64, f64)> = out.archive_front.iter().map(|p| (p.il, p.dr)).collect();
        let hv_initial = hv2(&initial);
        let hv_archive = hv2(&archive);
        assert!(
            hv_archive >= hv_initial - 1e-9,
            "archive {hv_archive} < initial {hv_initial}"
        );
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = small_run(13, 5);
        let b = small_run(13, 5);
        assert_eq!(a.front.len(), b.front.len());
        for (x, y) in a.front.iter().zip(&b.front) {
            assert_eq!(x.il, y.il);
            assert_eq!(x.dr, y.dr);
        }
        assert_eq!(a.hypervolume_series, b.hypervolume_series);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn incremental_offspring_match_the_full_run_exactly() {
        let run = |incremental: bool| {
            let ds = DatasetKind::German.generate(&GeneratorConfig::seeded(15).with_records(60));
            let pop = build_population(&ds, &SuiteConfig::small(), 15).unwrap();
            let ev = Evaluator::new(&ds.protected_subtable(), MetricConfig::default()).unwrap();
            let cfg = NsgaConfig {
                generations: 6,
                seed: 15,
                incremental,
                ..NsgaConfig::default()
            };
            Nsga2::new(ev, cfg)
                .with_named_population(pop)
                .unwrap()
                .run()
        };
        let full = run(false);
        let inc = run(true);
        assert_eq!(full.eval_counts.incremental, 0);
        assert_eq!(full.eval_counts.total(), full.evaluations);
        // only the initial population pays a full assessment
        assert!(inc.eval_counts.incremental > 0);
        assert!(inc.eval_counts.full * 2 <= full.eval_counts.full);
        assert_eq!(inc.eval_counts.total(), inc.evaluations);
        // patched assessments are bit-identical to full ones, so the two
        // runs make identical decisions all the way down
        assert_eq!(full.hypervolume_series, inc.hypervolume_series);
        assert_eq!(full.front.len(), inc.front.len());
        for (a, b) in full.front.iter().zip(&inc.front) {
            assert_eq!(a.il, b.il);
            assert_eq!(a.dr, b.dr);
        }
        for (a, b) in full.front_members.iter().zip(&inc.front_members) {
            assert_eq!(a.data, b.data);
        }
    }

    #[test]
    fn incremental_refresh_cross_checks_the_population() {
        // the refresh knob is a debug verification: every K generations the
        // whole population is fully re-assessed and each cached state
        // asserted identical (the run aborts on divergence)
        let run = |refresh: usize| {
            let ds = DatasetKind::German.generate(&GeneratorConfig::seeded(16).with_records(50));
            let pop = build_population(&ds, &SuiteConfig::small(), 16).unwrap();
            let n = pop.len();
            let ev = Evaluator::new(&ds.protected_subtable(), MetricConfig::default()).unwrap();
            let cfg = NsgaConfig {
                generations: 8,
                seed: 16,
                incremental: true,
                incremental_refresh: refresh,
                ..NsgaConfig::default()
            };
            let out = Nsga2::new(ev, cfg)
                .with_named_population(pop)
                .unwrap()
                .run();
            (n, out)
        };
        let (n, never) = run(0);
        assert_eq!(
            never.eval_counts.full, n,
            "refresh=0 must only pay the initial assessments"
        );
        let (n, every3) = run(3);
        // cross-checks at generations 3 and 6 fully re-assess the whole
        // population (and passed, or the run would have panicked)
        assert_eq!(every3.eval_counts.full, n + 2 * n);
        assert_eq!(every3.eval_counts.total(), every3.evaluations);
        // verification never changes the outcome
        assert_eq!(never.hypervolume_series, every3.hypervolume_series);
    }

    #[test]
    fn config_guards() {
        let ds = DatasetKind::Adult.generate(&GeneratorConfig::seeded(1).with_records(40));
        let ev = Evaluator::new(&ds.protected_subtable(), MetricConfig::default()).unwrap();
        let bad = NsgaConfig {
            generations: 0,
            ..NsgaConfig::default()
        };
        let item: Vec<(String, SubTable)> = vec![("a".into(), ds.protected_subtable())];
        assert!(Nsga2::new(ev, bad).with_named_population(item).is_err());
    }

    #[test]
    fn empty_population_is_rejected() {
        let ds = DatasetKind::Adult.generate(&GeneratorConfig::seeded(1).with_records(40));
        let ev = Evaluator::new(&ds.protected_subtable(), MetricConfig::default()).unwrap();
        let none: Vec<(String, SubTable)> = vec![];
        assert!(matches!(
            Nsga2::new(ev, NsgaConfig::default()).with_named_population(none),
            Err(EvoError::EmptyPopulation)
        ));
    }
}
