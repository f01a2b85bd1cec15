//! The reusable execution context: evaluator preparation amortized across
//! jobs.
//!
//! Since the `cdp serve` refactor this type is a thin `&mut self` wrapper
//! over [`SharedSession`] — same cache, same counters, single-threaded
//! ergonomics. Code that wants to run jobs from several threads at once
//! (the protection server, sweep harnesses) should hold a
//! [`SharedSession`] directly, or take one via [`Session::shared`].

use cdp_dataset::SubTable;
use cdp_metrics::{Evaluator, MetricConfig};

use super::job::ProtectionJob;
use super::report::JobReport;
use super::shared::{SessionStats, SharedSession, SnapshotCacheConfig};
use super::stages::JobEvent;
use super::Result;

/// A job execution context that caches prepared originals.
///
/// Preparing an [`Evaluator`] computes the original file's ranks,
/// marginals, contingency tables and chance-agreement probabilities —
/// work that depends only on the original, not on the job. A `Session`
/// keeps those preparations, so sweeps (many jobs over one original) and
/// the protection server (many requests over few originals) pay the cost
/// once.
///
/// ```
/// use cdp::prelude::*;
///
/// let job = ProtectionJob::builder()
///     .dataset(DatasetKind::German)
///     .records(80)
///     .iterations(10)
///     .seed(3)
///     .build()
///     .unwrap();
/// let mut session = Session::new();
/// session.run(&job).unwrap();
/// session.run(&job).unwrap(); // same original: no second preparation
/// assert_eq!(session.preparations(), 1);
/// assert_eq!(session.stats().hits, 1);
/// ```
#[derive(Default)]
pub struct Session {
    shared: SharedSession,
}

impl Session {
    /// An empty session.
    pub fn new() -> Self {
        Session::default()
    }

    /// How many evaluator preparations this session has performed (cache
    /// misses; the observable the reuse tests assert on).
    pub fn preparations(&self) -> usize {
        self.shared.stats().preparations
    }

    /// Number of distinct (original, metric-config) pairs currently cached.
    pub fn cached_evaluators(&self) -> usize {
        self.shared.stats().cached
    }

    /// The full cache counters (preparations, hits, misses, resident
    /// footprint) — the same snapshot jobs stream as
    /// [`JobEvent::CacheStats`].
    pub fn stats(&self) -> SessionStats {
        self.shared.stats()
    }

    /// The thread-safe session backing this one. Clones share the cache:
    /// jobs run through the clone count toward this session's stats and
    /// vice versa.
    pub fn shared(&self) -> SharedSession {
        self.shared.clone()
    }

    /// Drop all cached preparations (counters survive; they are session
    /// history, not cache contents).
    pub fn clear(&mut self) {
        self.shared.clear();
    }

    /// Attach (or with `None` detach) the persistent snapshot tier: cold
    /// preparations are written to disk and later sessions — even in a
    /// fresh process — rehydrate them instead of re-preparing. See
    /// [`SharedSession::set_snapshot_cache`].
    pub fn set_snapshot_cache(&mut self, config: Option<SnapshotCacheConfig>) {
        self.shared.set_snapshot_cache(config);
    }

    /// The evaluator for an original, preparing it on first sight. Returns
    /// the evaluator and whether it came from the cache.
    ///
    /// # Errors
    /// [`cdp_metrics::MetricError`] for an invalid metric configuration.
    pub fn evaluator_for(
        &mut self,
        original: &SubTable,
        cfg: MetricConfig,
    ) -> Result<(Evaluator, bool)> {
        self.shared.evaluator_for(original, cfg)
    }

    /// Execute a job.
    ///
    /// # Errors
    /// Any [`super::PipelineError`] raised by a stage.
    pub fn run(&mut self, job: &ProtectionJob) -> Result<JobReport> {
        self.shared.run(job)
    }

    /// Execute a job, streaming [`JobEvent`]s to `observer`.
    ///
    /// # Errors
    /// Any [`super::PipelineError`] raised by a stage.
    pub fn run_with<F: FnMut(&JobEvent)>(
        &mut self,
        job: &ProtectionJob,
        observer: F,
    ) -> Result<JobReport> {
        self.shared.run_with(job, observer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_dataset::generators::DatasetKind;

    fn tiny_job(kind: DatasetKind, seed: u64, iterations: usize) -> ProtectionJob {
        ProtectionJob::builder()
            .dataset(kind)
            .records(60)
            .iterations(iterations)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn second_job_reuses_the_preparation() {
        let mut session = Session::new();
        let a = tiny_job(DatasetKind::Adult, 7, 5);
        let b = tiny_job(DatasetKind::Adult, 7, 8); // same original, new budget
        let ra = session.run(&a).unwrap();
        let rb = session.run(&b).unwrap();
        assert!(!ra.evaluator_reused);
        assert!(rb.evaluator_reused);
        assert_eq!(session.preparations(), 1);
        assert_eq!(session.cached_evaluators(), 1);
        let stats = session.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn different_original_prepares_again() {
        let mut session = Session::new();
        session.run(&tiny_job(DatasetKind::Adult, 7, 5)).unwrap();
        session.run(&tiny_job(DatasetKind::German, 7, 5)).unwrap();
        // same dataset, different generator seed -> different original
        session.run(&tiny_job(DatasetKind::Adult, 8, 5)).unwrap();
        assert_eq!(session.preparations(), 3);
    }

    #[test]
    fn clear_forgets_preparations() {
        let mut session = Session::new();
        let job = tiny_job(DatasetKind::Flare, 3, 5);
        session.run(&job).unwrap();
        session.clear();
        let r = session.run(&job).unwrap();
        assert!(!r.evaluator_reused);
        assert_eq!(session.preparations(), 2);
    }

    #[test]
    fn shared_clone_feeds_the_same_cache() {
        let mut session = Session::new();
        let job = tiny_job(DatasetKind::Adult, 9, 3);
        session.run(&job).unwrap();
        let report = session.shared().run(&job).unwrap();
        assert!(report.evaluator_reused, "clone sees the session's cache");
        assert_eq!(session.preparations(), 1);
        assert_eq!(session.stats().hits, 1);
    }

    fn tag_of(e: &JobEvent) -> &'static str {
        match e {
            JobEvent::SourceReady { .. } => "source",
            JobEvent::EvaluatorReady { .. } => "evaluator",
            JobEvent::CacheStats(_) => "cache",
            JobEvent::PopulationReady { .. } => "population",
            JobEvent::Generation(_) => "generation",
            JobEvent::FrontAdvanced { .. } => "front",
            JobEvent::IslandGeneration { .. } => "island-generation",
            JobEvent::IslandFront { .. } => "island-front",
            JobEvent::Migration { .. } => "migration",
            JobEvent::EvolutionFinished { .. } => "finished",
            JobEvent::AuditReady => "audit",
        }
    }

    #[test]
    fn events_stream_in_stage_order() {
        let mut session = Session::new();
        let job = tiny_job(DatasetKind::German, 5, 6);
        let mut tags = Vec::new();
        session.run_with(&job, |e| tags.push(tag_of(e))).unwrap();
        assert_eq!(tags[..4], ["source", "evaluator", "cache", "population"]);
        assert_eq!(tags.iter().filter(|t| **t == "generation").count(), 6);
        assert!(!tags.contains(&"front"), "scalar jobs emit no front events");
        assert_eq!(*tags.last().unwrap(), "finished");
    }

    #[test]
    fn cache_stats_event_reports_the_session_counters() {
        let mut session = Session::new();
        let job = tiny_job(DatasetKind::Adult, 6, 2);
        let mut snapshots = Vec::new();
        for _ in 0..2 {
            session
                .run_with(&job, |e| {
                    if let JobEvent::CacheStats(s) = e {
                        snapshots.push(s.clone());
                    }
                })
                .unwrap();
        }
        assert_eq!(snapshots.len(), 2);
        // first job: fresh miss, one preparation; second: pure hit
        assert_eq!((snapshots[0].misses, snapshots[0].hits), (1, 0));
        assert_eq!(snapshots[0].preparations, 1);
        assert_eq!((snapshots[1].misses, snapshots[1].hits), (1, 1));
        assert_eq!(snapshots[1].preparations, 1);
        assert_eq!(snapshots[1].hit_rate(), Some(0.5));
        assert_eq!(snapshots[1], session.stats(), "final snapshot is current");
    }

    #[test]
    fn nsga_job_streams_front_events_on_the_same_channel() {
        let mut session = Session::new();
        let job = ProtectionJob::builder()
            .dataset(DatasetKind::German)
            .records(60)
            .nsga()
            .iterations(4)
            .seed(5)
            .build()
            .unwrap();
        let mut tags = Vec::new();
        let mut fronts = Vec::new();
        session
            .run_with(&job, |e| {
                tags.push(tag_of(e));
                if let JobEvent::FrontAdvanced {
                    generation,
                    front_size,
                    hypervolume,
                    ideal,
                } = e
                {
                    // the ideal point leads with the canonical pair and
                    // is a per-objective lower bound of the front
                    assert_eq!(ideal.len(), 2, "default jobs keep the pair");
                    fronts.push((*generation, *front_size, *hypervolume));
                }
            })
            .unwrap();
        assert_eq!(tags[..4], ["source", "evaluator", "cache", "population"]);
        assert_eq!(tags.iter().filter(|t| **t == "front").count(), 4);
        assert!(!tags.contains(&"generation"), "nsga emits front events");
        assert_eq!(*tags.last().unwrap(), "finished");
        let report = session.run(&job).unwrap();
        let front = report.front().expect("nsga outcome");
        // event stream and report trajectory agree
        for (generation, front_size, hv) in fronts {
            assert_eq!(front.hypervolume[generation], hv);
            assert!(front_size >= 1);
        }
        assert_eq!(front.generations_run(), 4);
    }

    #[test]
    fn island_job_streams_per_island_events_deterministically() {
        let job = ProtectionJob::builder()
            .dataset(DatasetKind::German)
            .records(60)
            .iterations(24)
            .islands(3)
            .migration_interval(4)
            .seed(5)
            .build()
            .unwrap();
        let run = || {
            let mut session = Session::new();
            let mut tags = Vec::new();
            let mut events = Vec::new();
            let report = session
                .run_with(&job, |e| {
                    tags.push(tag_of(e));
                    events.push(e.clone());
                })
                .unwrap();
            (tags, events, report)
        };
        let (tags, events, report) = run();
        assert_eq!(tags[..4], ["source", "evaluator", "cache", "population"]);
        assert!(
            !tags.contains(&"generation"),
            "island jobs emit per-island events instead of the legacy kind"
        );
        assert_eq!(
            tags.iter().filter(|t| **t == "island-generation").count(),
            24,
            "the iteration budget is split across islands, not multiplied"
        );
        assert!(tags.contains(&"migration"));
        assert_eq!(*tags.last().unwrap(), "finished");

        // same job, fresh session: bit-identical events and winner
        let (_, events2, report2) = run();
        assert_eq!(events, events2);
        assert_eq!(report.best.data, report2.best.data);
    }

    #[test]
    fn island_nsga_job_streams_island_front_events() {
        let mut session = Session::new();
        let job = ProtectionJob::builder()
            .dataset(DatasetKind::German)
            .records(60)
            .nsga()
            .iterations(4)
            .islands(2)
            .migration_interval(2)
            .seed(5)
            .build()
            .unwrap();
        let mut tags = Vec::new();
        session.run_with(&job, |e| tags.push(tag_of(e))).unwrap();
        // each island runs the full generation count on its subpopulation
        assert_eq!(tags.iter().filter(|t| **t == "island-front").count(), 8);
        assert!(!tags.contains(&"front"), "island jobs use per-island kinds");
        assert!(tags.contains(&"migration"));
        assert_eq!(*tags.last().unwrap(), "finished");
    }

    #[test]
    fn event_kinds_follow_the_configured_island_count() {
        let tags_of = |job: &ProtectionJob| {
            let mut tags = Vec::new();
            Session::new()
                .run_with(job, |e| tags.push(tag_of(e)))
                .unwrap();
            tags
        };
        let island_kinds = ["island-generation", "island-front", "migration"];
        // one island: the legacy kinds only, in both modes
        let scalar = tags_of(&tiny_job(DatasetKind::German, 5, 6));
        let nsga = ProtectionJob::builder()
            .dataset(DatasetKind::German)
            .records(60)
            .nsga()
            .iterations(3)
            .seed(5)
            .build()
            .unwrap();
        let nsga = tags_of(&nsga);
        for tags in [&scalar, &nsga] {
            assert!(tags.iter().all(|t| !island_kinds.contains(t)));
        }
        assert_eq!(scalar.iter().filter(|t| **t == "generation").count(), 6);
        assert_eq!(nsga.iter().filter(|t| **t == "front").count(), 3);
        // three islands configured, but dropping leaders leaves a single
        // member: the run is single-population, the events per-island
        let dropped = ProtectionJob::builder()
            .dataset(DatasetKind::German)
            .records(60)
            .iterations(6)
            .islands(3)
            .drop_best_fraction(0.99)
            .seed(5)
            .build()
            .unwrap();
        let dropped = tags_of(&dropped);
        assert!(!dropped.contains(&"generation"));
        assert_eq!(
            dropped
                .iter()
                .filter(|t| **t == "island-generation")
                .count(),
            6
        );
    }

    fn snap_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join("cdp_session_snapshot_tests")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn snapshot_rehydrated_jobs_are_bit_identical_in_both_modes() {
        for nsga in [false, true] {
            let dir = snap_dir(if nsga { "job-nsga" } else { "job-scalar" });
            let mut builder = ProtectionJob::builder()
                .dataset(DatasetKind::German)
                .records(60)
                .iterations(4)
                .seed(5)
                .snapshot_cache(SnapshotCacheConfig::new(&dir));
            if nsga {
                builder = builder.nsga();
            }
            let job = builder.build().unwrap();
            // cold run: prepares and writes the snapshot
            let mut cold = Session::new();
            let report_cold = cold.run(&job).unwrap();
            assert_eq!(cold.stats().snapshot_misses, 1);
            assert_eq!(cold.preparations(), 1);
            // fresh session (a new process, in effect): rehydrates
            let mut warm = Session::new();
            let report_warm = warm.run(&job).unwrap();
            assert_eq!(warm.preparations(), 0, "served entirely from disk");
            assert_eq!(warm.stats().snapshot_hits, 1);
            assert!(report_warm.evaluator_reused);
            // whole job output, bit for bit
            assert_eq!(report_cold.best.assessment, report_warm.best.assessment);
            assert_eq!(report_cold.best.data, report_warm.best.data);
            assert_eq!(report_cold.points, report_warm.points);
        }
    }

    #[test]
    fn cache_stats_event_carries_the_snapshot_counters() {
        let dir = snap_dir("event-counters");
        let job = ProtectionJob::builder()
            .dataset(DatasetKind::Adult)
            .records(60)
            .iterations(2)
            .seed(6)
            .snapshot_cache(SnapshotCacheConfig::new(&dir))
            .build()
            .unwrap();
        let mut session = Session::new();
        session.run(&job).unwrap();
        let mut seen = None;
        Session::new()
            .run_with(&job, |e| {
                if let JobEvent::CacheStats(s) = e {
                    seen = Some(s.clone());
                }
            })
            .unwrap();
        let stats = seen.expect("jobs stream a CacheStats event");
        assert_eq!(stats.snapshot_hits, 1, "second session loads from disk");
        assert_eq!(stats.preparations, 0);
    }

    #[test]
    fn mask_only_job_scores_without_evolving() {
        let mut session = Session::new();
        let job = ProtectionJob::builder()
            .dataset(DatasetKind::Adult)
            .records(60)
            .iterations(0)
            .seed(4)
            .build()
            .unwrap();
        let report = session.run(&job).unwrap();
        assert!(report.outcome.is_scored_only());
        assert_eq!(report.points.len(), report.population_size);
        let best_score = report
            .points
            .iter()
            .map(|p| p.score)
            .fold(f64::INFINITY, f64::min);
        let agg = job.evo_config().aggregator;
        assert!((report.best.assessment.score(agg) - best_score).abs() < 1e-12);
    }
}
