//! Island-model parallel evolution: K independent optimizer instances on
//! scoped threads, synchronized only at migration barriers.
//!
//! One scheduler, [`IslandRun::run_with_timing`], runs both optimizers. It
//! sees each island only through a crate-private epoch trait that
//! [`Evolution`]'s and [`Nsga2`]'s resumable runners implement: advance
//! one generation (`step_epoch`, looped by the shared `run_chunk`), export
//! the best members (`emigrants`), take members in (`immigrate`), report
//! the generations run (`generations`) and assemble the outcome
//! (`finish`). What differs per optimizer sits in its mode: how the budget
//! splits, which [`IslandEvent`] wraps its per-generation statistics, and
//! how the island outcomes merge.
//!
//! The scheduler splits the evaluated initial population round-robin across
//! `K` islands ([`IslandConfig::count`]). Each island runs with its own
//! RNG stream derived as `seed ⊕ island_hash(k)`, where
//! `island_hash(0) = 0`, so island 0 of any run, and the single island of
//! a `K = 1` run, replays the legacy single-population stream bit for
//! bit. Every [`IslandConfig::migration_interval`] generations the islands
//! stop at a barrier and exchange members along a directed ring: island
//! `k` exports its [`IslandConfig::migration_size`] best/elite members to
//! island `(k + 1) mod K`, which replaces its worst members (all
//! tie-breaks deterministic). When every island exhausts its budget the
//! results merge deterministically, in island-index order:
//!
//! * scalar mode splits the iteration budget, concatenates the final
//!   populations (the global best is the merged population's minimum,
//!   ties kept in island order) and unions the per-island Pareto
//!   archives;
//! * nsga mode splits the offspring batch, filters the union of island
//!   fronts down to its non-dominated subset
//!   ([`crate::nsga::non_dominated_points`] is the same rule) and
//!   recomputes the hypervolume on the merged front.
//!
//! # Determinism contract
//!
//! * Islands run on scoped threads but synchronize **only** at migration
//!   barriers; all cross-island effects (migration, event replay, final
//!   merge) happen on the calling thread in island-index order. The
//!   outcome for a given `(seed, K, M)` is therefore identical across
//!   runs regardless of thread scheduling or core count.
//! * `K = 1` is exactly the legacy single-population run: same RNG
//!   stream, same outcome, bit for bit (the engine's reproduction tests
//!   pin this), with events streamed as each generation finishes.
//! * Observers see island events in a deterministic order: each epoch's
//!   generation stats replay island by island, then migrations fire in
//!   source-island order. Only [`IslandTiming`] (wall-clock and
//!   critical-path measurements) varies between runs.

use std::time::{Duration, Instant};

use cdp_dataset::SubTable;
use cdp_metrics::{Evaluator, ObjectiveSet};

use crate::algorithm::Evolution;
use crate::individual::Individual;
use crate::nsga::{FrontStats, Nsga2};
use crate::telemetry::GenerationStats;
use crate::{EvoConfig, EvoError, IslandConfig, NsgaConfig, Result};

pub(crate) use epoch::{EpochRunner, IslandMode};

/// The scheduler's view of an optimizer. Public traits in a private module:
/// [`IslandRun`]'s methods may name them as bounds, yet no item outside
/// this crate can implement or call them.
mod epoch {
    use super::*;

    /// One island's resumable optimizer loop.
    pub trait EpochRunner: Send {
        /// Per-generation statistics streamed to observers.
        type Stats: Copy + Send;
        /// What the finished loop returns.
        type Outcome;

        /// Wrap one island's generation statistics as an observer event.
        fn event(island: usize, stats: &Self::Stats) -> IslandEvent;

        /// Whether the island exhausted its budget.
        fn finished(&self) -> bool;

        /// Execute one generation unless finished; returns whether one
        /// ran.
        fn step_epoch<F: FnMut(&Self::Stats)>(&mut self, observer: &mut F) -> bool;

        /// Run at most `max` generations: one migration epoch, or the
        /// whole run with `usize::MAX`.
        fn run_chunk<F: FnMut(&Self::Stats)>(&mut self, max: usize, observer: &mut F) {
            for _ in 0..max {
                if !self.step_epoch(observer) {
                    break;
                }
            }
        }

        /// Generations executed so far.
        fn generations(&self) -> usize;

        /// Clones of the `count` members this island exports.
        fn emigrants(&self, count: usize) -> Vec<Individual>;

        /// Replace the worst members with `immigrants`, always keeping at
        /// least one native.
        fn immigrate(&mut self, immigrants: Vec<Individual>);

        /// Assemble the outcome.
        fn finish(self) -> Self::Outcome;
    }

    /// An optimizer with a loaded population, as the scheduler splits and
    /// merges it.
    pub trait IslandMode: Sized {
        /// The resumable loop one island runs.
        type Runner: EpochRunner;
        /// What the merge needs from the pre-split population.
        type Initial;

        /// The island knobs of the configuration.
        fn islands(&self) -> IslandConfig;

        /// Load and evaluate the named initial population.
        fn load<I>(self, items: I) -> Result<Self>
        where
            I: IntoIterator,
            I::Item: Into<(String, SubTable)>;

        /// Size of the loaded population (0 before loading).
        fn population_len(&self) -> usize;

        /// Start the loop over the loaded population: the whole run when
        /// `K = 1`, one island's after a split.
        fn start(self) -> Self::Runner;

        /// Deal the population round-robin over `k ≥ 2` islands, each with
        /// its own seed and share of the budget.
        fn split(self, k: usize) -> (Vec<Self::Runner>, Self::Initial);

        /// Merge the island outcomes, given in island-index order.
        fn merge(
            initial: Self::Initial,
            outcomes: Vec<<Self::Runner as EpochRunner>::Outcome>,
        ) -> <Self::Runner as EpochRunner>::Outcome;
    }
}

/// Deterministic per-island seed perturbation (`seed ⊕ island_hash(k)`).
/// Weyl-sequence constant (the golden-ratio multiplier) spreads island
/// streams apart; `island_hash(0) = 0` keeps island 0 on the legacy
/// stream.
pub fn island_hash(k: usize) -> u64 {
    (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Deal `members` round-robin by index: island `j` gets members `j`,
/// `j + k`, … — on a score-sorted population every island starts with a
/// stratified slice of the quality range.
pub(crate) fn deal(members: Vec<Individual>, k: usize) -> Vec<Vec<Individual>> {
    let mut parts: Vec<Vec<Individual>> = (0..k).map(|_| Vec::new()).collect();
    for (i, m) in members.into_iter().enumerate() {
        parts[i % k].push(m);
    }
    parts
}

/// Island `j`'s share of a budget `total` split `k` ways: remainder to
/// the low indices, never below one.
pub(crate) fn budget_share(total: usize, k: usize, j: usize) -> usize {
    (total / k + usize::from(j < total % k)).max(1)
}

/// One observer event of an island-model run. Delivery order is
/// deterministic (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum IslandEvent {
    /// A scalar island finished one iteration.
    Generation {
        /// Island index.
        island: usize,
        /// The iteration's trace entry (per-island population statistics).
        stats: GenerationStats,
    },
    /// An nsga island finished one generation.
    Front {
        /// Island index.
        island: usize,
        /// The generation's front statistics (per-island).
        stats: FrontStats,
    },
    /// An island exported members to its ring neighbour at a barrier.
    Migration {
        /// Generations the source island had completed at the barrier.
        generation: usize,
        /// Source island index.
        island: usize,
        /// Members exported (≤ [`IslandConfig::migration_size`]).
        emigrants: usize,
    },
}

/// Timing measurements of an island run. `critical_path` sums, over the
/// migration epochs, the busiest island's *CPU* time in each epoch — the
/// wall time a machine with ≥ K free cores would see. Per-island busy
/// times are taken from the thread CPU clock (where available), so the
/// projection stays faithful even when the K scoped threads time-slice
/// on fewer than K cores; `wall` is what this machine actually observed.
///
/// Caveat: the thread clock only sees the island thread itself. With
/// [`crate::EvoConfig::parallel_offspring`] on, offspring evaluations run
/// on nested scoped threads whose CPU the island's clock cannot observe,
/// deflating `critical_path`. For meaningful critical-path readings run
/// islands with `parallel_offspring(false)` — the island threads are the
/// parallel grain already, and nesting oversubscribes anyway.
#[derive(Debug, Clone, Copy, Default)]
pub struct IslandTiming {
    /// Elapsed wall-clock time of the whole run.
    pub wall: Duration,
    /// Sum over epochs of the maximum per-island busy time.
    pub critical_path: Duration,
}

/// CPU time consumed by the calling thread (`CLOCK_THREAD_CPUTIME_ID`).
/// Unlike wall elapsed, this excludes time the thread spent descheduled,
/// so when K island threads share fewer than K cores each island's busy
/// time still reflects only its own compute and the per-epoch maximum
/// remains a faithful critical-path sample. `None` where the clock is
/// unavailable — callers fall back to wall elapsed.
#[cfg(target_os = "linux")]
fn thread_cpu_now() -> Option<Duration> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        // libc is already linked by std; no crate dependency involved
        fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec`-layout struct and the
    // clock id is a compile-time constant the kernel accepts.
    (unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } == 0)
        .then(|| Duration::new(ts.tv_sec.max(0) as u64, ts.tv_nsec as u32))
}

#[cfg(not(target_os = "linux"))]
fn thread_cpu_now() -> Option<Duration> {
    None
}

/// One island's busy time for an epoch: thread CPU time when measurable,
/// wall elapsed otherwise.
fn busy_time(wall_started: Instant, cpu_started: Option<Duration>) -> Duration {
    match (cpu_started, thread_cpu_now()) {
        (Some(a), Some(b)) => b.saturating_sub(a),
        _ => wall_started.elapsed(),
    }
}

/// Entry points of the island scheduler: bind an evaluator and a config,
/// then load the population and run, exactly like the underlying
/// optimizers.
pub struct IslandModel;

impl IslandModel {
    /// An island-model run of the scalar evolutionary algorithm
    /// (Algorithm 1). With `config.islands.count == 1` this is the legacy
    /// [`Evolution`] run, bit for bit.
    pub fn scalar(evaluator: Evaluator, config: EvoConfig) -> IslandRun<Evolution> {
        IslandRun {
            optimizer: Evolution::new(evaluator, config),
        }
    }

    /// An island-model NSGA-II run. With `config.islands.count == 1` this
    /// is the legacy [`Nsga2`] run, bit for bit.
    pub fn nsga(evaluator: Evaluator, config: NsgaConfig) -> IslandRun<Nsga2> {
        IslandRun {
            optimizer: Nsga2::new(evaluator, config),
        }
    }
}

/// A configured island run of either optimizer (see [`IslandModel`]).
pub struct IslandRun<O> {
    optimizer: O,
}

impl IslandRun<Evolution> {
    /// Drop the best fraction of the full (pre-split) population — the
    /// §3.3 robustness experiment.
    ///
    /// # Errors
    /// [`EvoError::EmptyPopulation`] when called before loading.
    pub fn drop_best_fraction(mut self, fraction: f64) -> Result<Self> {
        self.optimizer = self.optimizer.drop_best_fraction(fraction)?;
        Ok(self)
    }
}

impl IslandRun<Nsga2> {
    /// Replace the objective set every island minimizes (defaults to the
    /// canonical `il, dr` pair). Forwarded to [`Nsga2::with_objectives`];
    /// the merge rule is unchanged — island fronts union under dominance
    /// over whatever vector the set produces.
    #[must_use]
    pub fn with_objectives(mut self, objectives: ObjectiveSet) -> Self {
        self.optimizer = self.optimizer.with_objectives(objectives);
        self
    }
}

impl<O: IslandMode> IslandRun<O> {
    /// Load and evaluate the initial population (once, for all islands).
    ///
    /// # Errors
    /// Everything the optimizer's own `with_named_population` rejects,
    /// plus an [`EvoError::InvalidConfig`] when there are fewer members
    /// than islands.
    pub fn with_named_population<I>(mut self, items: I) -> Result<Self>
    where
        I: IntoIterator,
        I::Item: Into<(String, SubTable)>,
    {
        self.optimizer = self.optimizer.load(items)?;
        let count = self.optimizer.islands().count;
        let len = self.optimizer.population_len();
        if count > len {
            return Err(EvoError::InvalidConfig(format!(
                "islands count {count} exceeds population size {len}"
            )));
        }
        Ok(self)
    }

    /// Run to completion.
    ///
    /// # Panics
    /// Panics when no population was loaded (builder misuse).
    pub fn run(self) -> <O::Runner as EpochRunner>::Outcome {
        self.run_with(|_| {})
    }

    /// Run to completion, streaming [`IslandEvent`]s to `observer` (which
    /// draws nothing from any RNG stream).
    ///
    /// # Panics
    /// Panics when no population was loaded (builder misuse).
    pub fn run_with<F: FnMut(&IslandEvent)>(
        self,
        observer: F,
    ) -> <O::Runner as EpochRunner>::Outcome {
        self.run_with_timing(observer).0
    }

    /// [`IslandRun::run_with`], also measuring [`IslandTiming`].
    ///
    /// # Panics
    /// Panics when no population was loaded (builder misuse).
    pub fn run_with_timing<F: FnMut(&IslandEvent)>(
        self,
        mut observer: F,
    ) -> (<O::Runner as EpochRunner>::Outcome, IslandTiming) {
        let wall_start = Instant::now();
        let islands = self.optimizer.islands();
        // dropping leaders may have shrunk the population below K
        let k = islands.count.min(self.optimizer.population_len()).max(1);
        if k == 1 {
            // single island ≡ the legacy loop, streamed as it runs
            let mut runner = self.optimizer.start();
            runner.run_chunk(usize::MAX, &mut |s| observer(&O::Runner::event(0, s)));
            let wall = wall_start.elapsed();
            let timing = IslandTiming {
                wall,
                critical_path: wall,
            };
            return (runner.finish(), timing);
        }

        let (mut runners, initial) = self.optimizer.split(k);
        let mut critical_path = Duration::ZERO;
        while runners.iter().any(|r| !r.finished()) {
            let chunks: Vec<(Vec<_>, Duration)> = std::thread::scope(|scope| {
                let handles: Vec<_> = runners
                    .iter_mut()
                    .map(|runner| {
                        scope.spawn(move || {
                            let wall_started = Instant::now();
                            let cpu_started = thread_cpu_now();
                            let mut events = Vec::new();
                            runner.run_chunk(islands.migration_interval, &mut |s| events.push(*s));
                            (events, busy_time(wall_started, cpu_started))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("island thread panicked"))
                    .collect()
            });
            critical_path += chunks.iter().map(|(_, d)| *d).max().unwrap_or_default();
            for (island, (events, _)) in chunks.iter().enumerate() {
                for stats in events {
                    observer(&O::Runner::event(island, stats));
                }
            }
            let size = islands.migration_size;
            if size > 0 && runners.iter().any(|r| !r.finished()) {
                // snapshot every export before any import: migration is a
                // simultaneous exchange, not a chain
                let exports: Vec<Vec<Individual>> =
                    runners.iter().map(|r| r.emigrants(size)).collect();
                for (src, exported) in exports.into_iter().enumerate() {
                    let emigrants = exported.len();
                    runners[(src + 1) % k].immigrate(exported);
                    observer(&IslandEvent::Migration {
                        generation: runners[src].generations(),
                        island: src,
                        emigrants,
                    });
                }
            }
        }

        let outcomes = runners.into_iter().map(EpochRunner::finish).collect();
        let outcome = O::merge(initial, outcomes);
        let wall = wall_start.elapsed();
        (
            outcome,
            IslandTiming {
                wall,
                critical_path,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nsga::{hypervolume_vec, non_dominated_points};
    use crate::telemetry::{EvalCounts, ScatterPoint};
    use cdp_dataset::generators::{DatasetKind, GeneratorConfig};
    use cdp_metrics::{MetricConfig, ObjectiveVector};
    use cdp_sdc::{build_population, SuiteConfig};

    fn setup(seed: u64, records: usize) -> (Vec<(String, SubTable)>, Evaluator) {
        let ds = DatasetKind::German.generate(&GeneratorConfig::seeded(seed).with_records(records));
        let pop = build_population(&ds, &SuiteConfig::small(), seed).unwrap();
        let ev = Evaluator::new(&ds.protected_subtable(), MetricConfig::default()).unwrap();
        (pop.into_iter().map(Into::into).collect(), ev)
    }

    fn scalar_cfg(seed: u64, iters: usize, islands: IslandConfig) -> EvoConfig {
        let mut cfg = EvoConfig::builder().seed(seed).iterations(iters).build();
        cfg.islands = islands;
        cfg
    }

    #[test]
    fn island_hash_spreads_streams_and_pins_island_zero() {
        assert_eq!(island_hash(0), 0);
        let hashes: Vec<u64> = (0..8).map(island_hash).collect();
        for (i, a) in hashes.iter().enumerate() {
            for b in &hashes[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn k1_matches_the_legacy_scalar_run_bit_for_bit() {
        let (pop, ev) = setup(21, 40);
        let cfg = scalar_cfg(21, 25, IslandConfig::default());
        let legacy = Evolution::new(ev.clone(), cfg)
            .with_named_population(pop.clone())
            .unwrap()
            .run();
        let islands = IslandModel::scalar(ev, cfg)
            .with_named_population(pop)
            .unwrap()
            .run();
        assert_eq!(legacy.final_points, islands.final_points);
        assert_eq!(legacy.trace.generations, islands.trace.generations);
        assert_eq!(legacy.pareto_front, islands.pareto_front);
        assert_eq!(legacy.eval_counts, islands.eval_counts);
        assert_eq!(legacy.iterations_run, islands.iterations_run);
        assert_eq!(legacy.final_mutation_rate, islands.final_mutation_rate);
    }

    #[test]
    fn k1_matches_the_legacy_nsga_run_bit_for_bit() {
        let (pop, ev) = setup(22, 40);
        let cfg = NsgaConfig {
            generations: 6,
            seed: 22,
            ..NsgaConfig::default()
        };
        let legacy = Nsga2::new(ev.clone(), cfg)
            .with_named_population(pop.clone())
            .unwrap()
            .run();
        let islands = IslandModel::nsga(ev, cfg)
            .with_named_population(pop)
            .unwrap()
            .run();
        assert_eq!(legacy.front, islands.front);
        assert_eq!(legacy.initial_front, islands.initial_front);
        assert_eq!(legacy.archive_front, islands.archive_front);
        assert_eq!(legacy.hypervolume_series, islands.hypervolume_series);
        assert_eq!(legacy.eval_counts, islands.eval_counts);
        for (a, b) in legacy.front_members.iter().zip(&islands.front_members) {
            assert_eq!(a.data, b.data);
        }
    }

    #[test]
    fn same_seed_k4_scalar_runs_are_bit_identical() {
        let run = || {
            let (pop, ev) = setup(23, 40);
            let islands = IslandConfig {
                count: 4,
                migration_interval: 5,
                ..IslandConfig::default()
            };
            let cfg = scalar_cfg(23, 40, islands);
            let mut events = Vec::new();
            let outcome = IslandModel::scalar(ev, cfg)
                .with_named_population(pop)
                .unwrap()
                .run_with(|e| events.push(e.clone()));
            (outcome, events)
        };
        let (a, ae) = run();
        let (b, be) = run();
        assert_eq!(a.final_points, b.final_points);
        assert_eq!(a.trace.generations, b.trace.generations);
        assert_eq!(a.pareto_front, b.pareto_front);
        assert_eq!(a.eval_counts, b.eval_counts);
        assert_eq!(ae, be, "event streams must be deterministic");
        // pinned bits: run-against-run alone would pass a change that
        // moves K > 1 results the same way on every run
        let scores: Vec<u64> = a.final_points.iter().map(|p| p.score.to_bits()).collect();
        assert_eq!(
            scores,
            [
                4629665232564781056,
                4629946707541491712,
                4630137289556972885,
                4630305013801916229,
                4630327871572454058,
                4630347139204788418,
                4630942132068504918,
                4631161406101701388,
                4631607912537971565,
                4631922896440481109,
                4632277672192376833,
                4634222027611857286,
            ]
        );
        assert_eq!(
            a.eval_counts,
            EvalCounts {
                full: 12,
                incremental: 59
            }
        );
        let migrations = ae
            .iter()
            .filter(|e| matches!(e, IslandEvent::Migration { .. }))
            .count();
        assert_eq!(migrations, 4);
    }

    #[test]
    fn same_seed_k3_nsga_runs_are_bit_identical() {
        let run = || {
            let (pop, ev) = setup(24, 40);
            let mut cfg = NsgaConfig {
                generations: 6,
                seed: 24,
                ..NsgaConfig::default()
            };
            cfg.islands.count = 3;
            cfg.islands.migration_interval = 2;
            let mut events = Vec::new();
            let outcome = IslandModel::nsga(ev, cfg)
                .with_named_population(pop)
                .unwrap()
                .run_with(|e| events.push(e.clone()));
            (outcome, events)
        };
        let (a, ae) = run();
        let (b, be) = run();
        assert_eq!(a.front, b.front);
        assert_eq!(a.archive_front, b.archive_front);
        assert_eq!(a.hypervolume_series, b.hypervolume_series);
        assert_eq!(a.eval_counts, b.eval_counts);
        assert_eq!(ae, be, "event streams must be deterministic");
        // pinned bits, as in the scalar test
        let front: Vec<(u64, u64)> = a
            .front
            .iter()
            .map(|p| (p.il.to_bits(), p.dr.to_bits()))
            .collect();
        let mut expect = vec![(0, 4635894332440008021); 6];
        expect.extend([
            (4613741206490859235, 4635601129339267754),
            (4621983549855482416, 4634878802557515484),
            (4630431788748188605, 4628898715887131501),
            (4630471494195942772, 4628814943572634283),
            (4631304059565428904, 4628433779541671936),
            (4631361873881374595, 4628228537371153749),
        ]);
        assert_eq!(front, expect);
        let hv: Vec<u64> = a.hypervolume_series.iter().map(|h| h.to_bits()).collect();
        assert_eq!(
            hv,
            [
                4663110211858128678,
                4662642618075832480,
                4662712266284071520,
                4662530868381849348,
                4662729504377829844,
                4662155314712183791,
                4662714732757126421,
            ]
        );
        assert_eq!(
            a.eval_counts,
            EvalCounts {
                full: 12,
                incremental: 72
            }
        );
        let migrations = ae
            .iter()
            .filter(|e| matches!(e, IslandEvent::Migration { .. }))
            .count();
        assert_eq!(migrations, 6);
    }

    #[test]
    fn k4_scalar_budget_matches_k1_and_preserves_population() {
        let (pop, ev) = setup(25, 40);
        let n = pop.len();
        let iters = 30;
        let k1 = IslandModel::scalar(ev.clone(), scalar_cfg(25, iters, IslandConfig::default()))
            .with_named_population(pop.clone())
            .unwrap()
            .run();
        let islands = IslandConfig {
            count: 4,
            migration_interval: 4,
            ..IslandConfig::default()
        };
        let k4 = IslandModel::scalar(ev, scalar_cfg(25, iters, islands))
            .with_named_population(pop)
            .unwrap()
            .run();
        assert_eq!(
            k4.population.len(),
            n,
            "merge must preserve the population size"
        );
        assert_eq!(
            k4.iterations_run, k1.iterations_run,
            "equal iteration budget"
        );
        assert_eq!(k4.initial.len(), n);
        for p in k4.final_points.iter() {
            assert!(p.score.is_finite());
            assert!((0.0..=100.0).contains(&p.il));
            assert!((0.0..=100.0).contains(&p.dr));
        }
    }

    #[test]
    fn nsga_merged_front_is_the_nondominated_filter_of_island_fronts() {
        let (pop, ev) = setup(26, 40);
        let mut cfg = NsgaConfig {
            generations: 5,
            seed: 26,
            ..NsgaConfig::default()
        };
        cfg.islands.count = 2;
        cfg.islands.migration_interval = 2;
        let out = IslandModel::nsga(ev, cfg)
            .with_named_population(pop)
            .unwrap()
            .run();
        // the merged front must be mutually non-dominated …
        for a in &out.front {
            for b in &out.front {
                let dominates = a.il <= b.il && a.dr <= b.dr && (a.il < b.il || a.dr < b.dr);
                assert!(!dominates, "merged front contains a dominated point");
            }
        }
        // … aligned with its members, IL-ascending, and idempotent under
        // the published merge rule
        assert_eq!(out.front.len(), out.front_members.len());
        for w in out.front.windows(2) {
            assert!(w[0].il <= w[1].il);
        }
        assert_eq!(non_dominated_points(&out.front), out.front);
        // the final hypervolume entry is the merged front's
        let pts: Vec<ObjectiveVector> = out.front.iter().map(|p| p.objectives).collect();
        let expect = hypervolume_vec(&pts, &ObjectiveVector::pair(100.0, 100.0));
        assert_eq!(*out.hypervolume_series.last().unwrap(), expect);
    }

    #[test]
    fn more_islands_than_members_is_rejected() {
        let (pop, ev) = setup(27, 40);
        let n = pop.len();
        let islands = IslandConfig {
            count: n + 1,
            ..IslandConfig::default()
        };
        let err = IslandModel::scalar(ev.clone(), scalar_cfg(27, 10, islands))
            .with_named_population(pop.clone())
            .err();
        assert!(matches!(err, Some(EvoError::InvalidConfig(_))));
        let mut cfg = NsgaConfig::default();
        cfg.islands.count = n + 1;
        assert!(IslandModel::nsga(ev, cfg)
            .with_named_population(pop)
            .is_err());
    }

    #[test]
    fn migration_size_zero_runs_isolated_islands() {
        let (pop, ev) = setup(28, 40);
        let islands = IslandConfig {
            count: 2,
            migration_size: 0,
            ..IslandConfig::default()
        };
        let mut events = Vec::new();
        let out = IslandModel::scalar(ev, scalar_cfg(28, 16, islands))
            .with_named_population(pop)
            .unwrap()
            .run_with(|e| events.push(e.clone()));
        assert!(events
            .iter()
            .all(|e| !matches!(e, IslandEvent::Migration { .. })));
        assert_eq!(out.iterations_run, 16);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        /// Migration invariants over random island configurations: the
        /// merged population keeps its size, every member stays a valid
        /// evaluated protection, and the budget split is exact.
        #[test]
        fn migration_preserves_population_over_random_configs(
            k in 1usize..=4,
            interval in 1usize..=3,
            size in 0usize..=2,
            seed in 0u64..1000,
        ) {
            let (pop, ev) = setup(29, 30);
            let n = pop.len();
            let islands = IslandConfig {
                count: k,
                migration_interval: interval,
                migration_size: size,
            };
            let iters = 12;
            let out = IslandModel::scalar(ev, scalar_cfg(seed, iters, islands))
                .with_named_population(pop)
                .unwrap()
                .run();
            proptest::prop_assert_eq!(out.population.len(), n);
            proptest::prop_assert_eq!(out.iterations_run, iters);
            for p in &out.final_points {
                proptest::prop_assert!(p.score.is_finite());
            }
        }

        /// The merge rule: `non_dominated_points` of a union of fronts
        /// returns exactly the union members not dominated by any other
        /// union member, IL-ascending.
        #[test]
        fn merged_front_equals_nondominated_filter_of_union(
            points in proptest::collection::vec((0u32..100, 0u32..100), 1..40),
        ) {
            let union: Vec<ScatterPoint> = points
                .iter()
                .enumerate()
                .map(|(i, &(il, dr))| ScatterPoint::from_pair(
                    format!("p{i}"),
                    f64::from(il),
                    f64::from(dr),
                    f64::from(il.max(dr)),
                ))
                .collect();
            let merged = non_dominated_points(&union);
            let dominated = |p: &ScatterPoint| {
                union.iter().any(|q| {
                    q.il <= p.il && q.dr <= p.dr && (q.il < p.il || q.dr < p.dr)
                })
            };
            for p in &union {
                let in_merged = merged.iter().any(|m| m.name == p.name);
                proptest::prop_assert_eq!(
                    in_merged, !dominated(p),
                    "{} must be kept iff non-dominated", p.name.clone()
                );
            }
            for w in merged.windows(2) {
                proptest::prop_assert!(w[0].il <= w[1].il);
            }
        }
    }
}
