//! The concurrency-safe session: a shared evaluator cache many threads
//! amortize, plus the [`SessionStats`] observability counters.
//!
//! [`SharedSession`] is the seam the protection server (`cdp serve`)
//! builds on: N concurrent clients submitting jobs against the same
//! original must trigger exactly **one** preparation of that original's
//! measure statistics. The cache therefore coordinates at two levels:
//!
//! 1. a registry lock guards the list of cache slots (one per distinct
//!    `(original, MetricConfig)` pair) — held only to *find or insert* a
//!    slot, never while preparing;
//! 2. a per-slot lock guards the slot's evaluator — the first arrival
//!    prepares while holding it, racing arrivals block on the slot (not
//!    the registry) and wake up to a cache hit.
//!
//! Distinct originals prepare in parallel; the same original prepares
//! once no matter how many threads ask for it. [`Session`] is another
//! name for the same type.
//!
//! # The snapshot tier
//!
//! With [`SharedSession::set_snapshot_cache`] the in-memory cache gains a
//! second, persistent tier backed by [`cdp_metrics::snapshot`] files:
//!
//! * an in-memory **miss** first tries the snapshot directory — a valid
//!   snapshot rehydrates the evaluator with a near-memcpy load
//!   ([`SessionStats::snapshot_hits`]) instead of a cold preparation;
//! * every cold preparation is written back (atomically, temp + rename),
//!   so the *next process* starts warm;
//! * an optional byte cap turns the in-memory tier into an LRU: when the
//!   resident prepared state exceeds the cap, least-recently-used slots
//!   are demoted ([`SessionStats::evictions`]) — their evaluators drop
//!   from memory but fault back from disk on the next request, never
//!   re-preparing.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use cdp_dataset::{Code, SubTable};
use cdp_metrics::{snapshot, Evaluator, MetricConfig};

use super::job::ProtectionJob;
use super::report::JobReport;
use super::stages::{run_job, JobEvent};
use super::Result;

/// Configuration of the persistent snapshot tier
/// ([`SharedSession::set_snapshot_cache`]): where prepared-evaluator
/// snapshots live on disk, and an optional LRU byte cap on the in-memory
/// tier above it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotCacheConfig {
    dir: PathBuf,
    cap_bytes: Option<usize>,
}

impl SnapshotCacheConfig {
    /// Snapshot tier rooted at `dir` (created on first write), no cap.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SnapshotCacheConfig {
            dir: dir.into(),
            cap_bytes: None,
        }
    }

    /// Cap the in-memory tier's *evictable* resident bytes (the prepared
    /// state; the original arenas that key the slots are never evicted).
    /// When an insert pushes the resident prepared state past the cap,
    /// least-recently-used slots demote to disk until it fits — a cap of
    /// `0` keeps nothing in memory and serves every request from disk.
    #[must_use]
    pub fn with_cap(mut self, cap_bytes: usize) -> Self {
        self.cap_bytes = Some(cap_bytes);
        self
    }

    /// The snapshot directory.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// The in-memory LRU cap in bytes, if any.
    pub fn cap_bytes(&self) -> Option<usize> {
        self.cap_bytes
    }
}

/// Cache observability counters of a session ([`SharedSession::stats`]):
/// how much preparation work the evaluator cache amortized. Under server
/// load, `hits / (hits + misses)` — the cache hit rate — is the headline
/// metric.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Evaluator preparations actually performed (the expensive cold
    /// path: ranks, marginals, contingency tables, PRL census, pattern
    /// index). Snapshot loads do **not** count here.
    pub preparations: usize,
    /// Requests served from an already-registered slot. A request that
    /// arrives while the first one is still preparing counts as a hit —
    /// it blocks on the slot instead of re-preparing.
    pub hits: usize,
    /// Requests that had to register a new slot (== `preparations` +
    /// `snapshot_hits`, minus slots whose preparation failed and was
    /// evicted).
    pub misses: usize,
    /// Evaluators rehydrated from an on-disk snapshot instead of a cold
    /// preparation — both first-sight loads and post-eviction fault-backs.
    pub snapshot_hits: usize,
    /// Disk lookups that found no usable snapshot (missing, corrupt,
    /// stale content hash, wrong format version) and fell back to a cold
    /// preparation. Zero unless a snapshot cache is configured.
    pub snapshot_misses: usize,
    /// In-memory slots demoted to disk by the LRU byte cap. Evicted
    /// slots fault back from their snapshot, so an eviction never causes
    /// a re-preparation.
    pub evictions: usize,
    /// Distinct `(original, MetricConfig)` slots currently cached.
    pub cached: usize,
    /// Approximate resident size of the cache, in bytes: the retained
    /// original arenas plus, per prepared slot, every component of the
    /// prepared state — marginal counts/probabilities, rank statistics,
    /// contingency tables, the pattern index with its postings, and the
    /// evaluator's retained copy of the original.
    pub approx_bytes: usize,
    /// Per-slot detail, in registration order — one entry per cached
    /// `(original, MetricConfig)` pair (`entries.len() == cached`).
    pub entries: Vec<CacheEntryStats>,
}

/// Observability detail of one cache slot (one element of
/// [`SessionStats::entries`]): which original it holds, how often it was
/// hit, and what it costs to keep resident.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheEntryStats {
    /// Records of the cached original.
    pub rows: usize,
    /// Protected attributes of the cached original.
    pub attrs: usize,
    /// Requests served from this slot after its registration.
    pub hits: usize,
    /// Approximate resident bytes of this slot (same accounting as
    /// [`SessionStats::approx_bytes`]).
    pub approx_bytes: usize,
    /// Whether the slot's evaluator is resident in memory (`false` while
    /// the first arrival is still preparing it, or after an LRU
    /// eviction demoted it to its on-disk snapshot).
    pub prepared: bool,
}

impl SessionStats {
    /// Cache hit rate in `[0, 1]`; `None` before the first request.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }
}

/// One cached preparation: the original it was built for, and the
/// evaluator — `None` while the first arrival is still preparing it or
/// after an LRU eviction demoted it to disk.
struct CacheSlot {
    original: SubTable,
    cfg: MetricConfig,
    hits: AtomicUsize,
    /// LRU stamp: the session clock value of the last request that
    /// touched this slot. Never decreases.
    last_used: AtomicUsize,
    evaluator: Mutex<Option<Evaluator>>,
}

impl CacheSlot {
    /// Bytes of the retained original arena — the slot's irreducible
    /// footprint, kept even after eviction (it is the cache key).
    fn arena_bytes(&self) -> usize {
        self.original.flat_len() * std::mem::size_of::<Code>()
    }

    /// The slot's [`SessionStats::entries`] element.
    fn entry_stats(&self) -> CacheEntryStats {
        let guard = self.evaluator.lock().expect("cache slot lock");
        let evaluator_bytes = guard.as_ref().map_or(0, Evaluator::approx_bytes);
        CacheEntryStats {
            rows: self.original.n_rows(),
            attrs: self.original.n_attrs(),
            hits: self.hits.load(Ordering::Relaxed),
            approx_bytes: self.arena_bytes() + evaluator_bytes,
            prepared: guard.is_some(),
        }
    }
}

/// The shared state behind every clone of one [`SharedSession`].
#[derive(Default)]
struct SharedCache {
    slots: Mutex<Vec<Arc<CacheSlot>>>,
    snapshot: Mutex<Option<SnapshotCacheConfig>>,
    preparations: AtomicUsize,
    hits: AtomicUsize,
    misses: AtomicUsize,
    snapshot_hits: AtomicUsize,
    snapshot_misses: AtomicUsize,
    evictions: AtomicUsize,
    /// Monotonic request counter feeding the slots' LRU stamps.
    clock: AtomicUsize,
}

/// A cloneable, thread-safe job execution context that caches prepared
/// originals.
///
/// Preparing an [`Evaluator`] computes the original file's ranks,
/// marginals, contingency tables and chance-agreement probabilities —
/// work that depends only on the original, not on the job. A session
/// keeps those preparations, so sweeps (many jobs over one original) and
/// the protection server (many requests over few originals) pay the cost
/// once.
///
/// Clones are shallow — every clone sees (and feeds) the same cache and
/// the same [`SessionStats`] counters. All methods take `&self`, so one
/// `SharedSession` can drive jobs from many worker threads concurrently;
/// jobs against the same original trigger exactly one preparation.
///
/// ```
/// use cdp::prelude::*;
///
/// let job = ProtectionJob::builder()
///     .dataset(DatasetKind::German)
///     .records(80)
///     .iterations(5)
///     .seed(3)
///     .build()
///     .unwrap();
/// let session = SharedSession::new();
/// std::thread::scope(|scope| {
///     for _ in 0..2 {
///         let session = session.clone();
///         let job = &job;
///         scope.spawn(move || session.run(job).unwrap());
///     }
/// });
/// let stats = session.stats();
/// assert_eq!(stats.preparations, 1); // the second job waited, then hit
/// assert_eq!(stats.hits, 1);
/// ```
#[derive(Clone, Default)]
pub struct SharedSession {
    cache: Arc<SharedCache>,
}

/// The name examples, the bench harness and the CLI use for a
/// [`SharedSession`]: one session running jobs in sequence.
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
/// let session = Session::new();
/// session.run(&job).unwrap();
/// session.run(&job).unwrap(); // same original: no second preparation
/// assert_eq!(session.stats().preparations, 1);
/// assert_eq!(session.stats().hits, 1);
/// ```
pub type Session = SharedSession;

impl SharedSession {
    /// An empty shared session.
    pub fn new() -> Self {
        SharedSession::default()
    }

    /// Current cache counters. Cheap (lock acquisitions only, no
    /// preparation work); safe to poll per request.
    pub fn stats(&self) -> SessionStats {
        let slots = self.cache.slots.lock().expect("cache registry lock");
        let entries: Vec<CacheEntryStats> = slots.iter().map(|s| s.entry_stats()).collect();
        SessionStats {
            preparations: self.cache.preparations.load(Ordering::Relaxed),
            hits: self.cache.hits.load(Ordering::Relaxed),
            misses: self.cache.misses.load(Ordering::Relaxed),
            snapshot_hits: self.cache.snapshot_hits.load(Ordering::Relaxed),
            snapshot_misses: self.cache.snapshot_misses.load(Ordering::Relaxed),
            evictions: self.cache.evictions.load(Ordering::Relaxed),
            cached: slots.len(),
            approx_bytes: entries.iter().map(|e| e.approx_bytes).sum(),
            entries,
        }
    }

    /// Attach (or with `None` detach) the persistent snapshot tier: see
    /// the module docs. Takes effect for every subsequent request on any
    /// clone of this session; if the new config carries a lower byte cap
    /// than the current residency, the excess is evicted immediately.
    pub fn set_snapshot_cache(&self, config: Option<SnapshotCacheConfig>) {
        let cap = config.as_ref().and_then(SnapshotCacheConfig::cap_bytes);
        *self.cache.snapshot.lock().expect("snapshot config lock") = config;
        if let Some(cap) = cap {
            self.enforce_cap(cap);
        }
    }

    /// The currently attached snapshot-tier configuration, if any.
    pub fn snapshot_cache(&self) -> Option<SnapshotCacheConfig> {
        self.cache
            .snapshot
            .lock()
            .expect("snapshot config lock")
            .clone()
    }

    /// Drop every cached preparation. Counters are cumulative and survive
    /// the clear (they describe session history, not cache contents).
    pub fn clear(&self) {
        self.cache
            .slots
            .lock()
            .expect("cache registry lock")
            .clear();
    }

    /// The evaluator for an original, preparing it on first sight.
    /// Returns the evaluator and whether it came from the cache.
    ///
    /// Concurrent calls for the *same* `(original, cfg)` key serialize on
    /// that key's slot: exactly one caller prepares, the rest block and
    /// receive the cached clone (`reused = true`). Calls for distinct
    /// keys prepare in parallel.
    ///
    /// With a snapshot cache attached, an in-memory miss (a fresh slot,
    /// or one the LRU demoted) first tries the snapshot directory; a
    /// rehydrated evaluator also counts as `reused = true` — the caller
    /// got a cached preparation, just from disk.
    ///
    /// # Errors
    /// [`cdp_metrics::MetricError`] for an invalid metric configuration;
    /// the failed slot is evicted, so a later corrected call re-prepares.
    pub fn evaluator_for(
        &self,
        original: &SubTable,
        cfg: MetricConfig,
    ) -> Result<(Evaluator, bool)> {
        let (slot, registered) = {
            let mut slots = self.cache.slots.lock().expect("cache registry lock");
            match slots
                .iter()
                .find(|s| s.cfg == cfg && s.original == *original)
            {
                Some(slot) => {
                    slot.hits.fetch_add(1, Ordering::Relaxed);
                    (Arc::clone(slot), false)
                }
                None => {
                    let slot = Arc::new(CacheSlot {
                        original: original.clone(),
                        cfg,
                        hits: AtomicUsize::new(0),
                        last_used: AtomicUsize::new(0),
                        evaluator: Mutex::new(None),
                    });
                    slots.push(Arc::clone(&slot));
                    (slot, true)
                }
            }
        };
        if registered {
            self.cache.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cache.hits.fetch_add(1, Ordering::Relaxed);
        }
        slot.last_used.store(
            self.cache.clock.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
        let snap = self.snapshot_cache();
        let mut guard = slot.evaluator.lock().expect("cache slot lock");
        if let Some(evaluator) = guard.as_ref() {
            return Ok((evaluator.clone(), true));
        }
        if let Some(snap) = &snap {
            let path = snapshot::snapshot_path(snap.dir(), &slot.original, &cfg);
            if let Some(evaluator) = snapshot::load(&path, &slot.original, &cfg) {
                self.cache.snapshot_hits.fetch_add(1, Ordering::Relaxed);
                *guard = Some(evaluator.clone());
                drop(guard);
                if let Some(cap) = snap.cap_bytes() {
                    self.enforce_cap(cap);
                }
                return Ok((evaluator, true));
            }
            self.cache.snapshot_misses.fetch_add(1, Ordering::Relaxed);
        }
        match Evaluator::new(&slot.original, cfg) {
            Ok(evaluator) => {
                self.cache.preparations.fetch_add(1, Ordering::Relaxed);
                *guard = Some(evaluator.clone());
                drop(guard);
                if let Some(snap) = &snap {
                    // write-back is an optimization: a full disk or
                    // unwritable directory must not fail the job
                    let _ = snapshot::write(&evaluator, snap.dir());
                    if let Some(cap) = snap.cap_bytes() {
                        self.enforce_cap(cap);
                    }
                }
                // a racing caller that found the slot mid-preparation
                // still reused the preparation — only the registrant paid
                Ok((evaluator, !registered))
            }
            Err(e) => {
                drop(guard);
                // failed preparations must not poison the cache
                let mut slots = self.cache.slots.lock().expect("cache registry lock");
                if let Some(i) = slots.iter().position(|s| Arc::ptr_eq(s, &slot)) {
                    slots.remove(i);
                }
                Err(e.into())
            }
        }
    }

    /// Demote least-recently-used prepared slots until the resident
    /// evictable bytes (the in-memory prepared state; retained arenas
    /// are the cache keys and never count) fit under `cap`.
    ///
    /// Slots whose evaluator lock is held by a concurrent request are
    /// skipped — under contention the cap is enforced best-effort and
    /// re-checked on the next insert; with no concurrent holders (every
    /// single-threaded caller) the bound is exact after every insert.
    fn enforce_cap(&self, cap: usize) {
        let slots = self.cache.slots.lock().expect("cache registry lock");
        loop {
            let mut resident = 0usize;
            let mut lru: Option<(usize, usize)> = None; // (stamp, index)
            for (i, slot) in slots.iter().enumerate() {
                let Ok(guard) = slot.evaluator.try_lock() else {
                    continue;
                };
                if let Some(evaluator) = guard.as_ref() {
                    resident += evaluator.approx_bytes();
                    let stamp = slot.last_used.load(Ordering::Relaxed);
                    if lru.is_none_or(|(s, _)| stamp < s) {
                        lru = Some((stamp, i));
                    }
                }
            }
            if resident <= cap {
                return;
            }
            let Some((_, victim)) = lru else { return };
            if let Ok(mut guard) = slots[victim].evaluator.try_lock() {
                if guard.take().is_some() {
                    self.cache.evictions.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            }
            // the victim got busy between the two passes; don't spin
            return;
        }
    }

    /// Execute a job.
    ///
    /// # Errors
    /// Any [`super::PipelineError`] raised by a stage.
    pub fn run(&self, job: &ProtectionJob) -> Result<JobReport> {
        self.run_with(job, |_| {})
    }

    /// Execute a job, streaming [`JobEvent`]s to `observer`.
    ///
    /// # Errors
    /// Any [`super::PipelineError`] raised by a stage.
    pub fn run_with<F: FnMut(&JobEvent)>(
        &self,
        job: &ProtectionJob,
        mut observer: F,
    ) -> Result<JobReport> {
        run_job(self, job, &mut observer)
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
    fn concurrent_jobs_on_one_original_prepare_once() {
        let session = SharedSession::new();
        let job = tiny_job(DatasetKind::Adult, 7, 3);
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let session = session.clone();
                let (job, barrier) = (&job, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    session.run(job).unwrap();
                });
            }
        });
        let stats = session.stats();
        assert_eq!(stats.preparations, 1, "one hot original, one preparation");
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.cached, 1);
        assert_eq!(stats.hit_rate(), Some(0.75));
    }

    #[test]
    fn concurrent_distinct_originals_prepare_independently() {
        let session = SharedSession::new();
        let kinds = [DatasetKind::Adult, DatasetKind::German, DatasetKind::Flare];
        std::thread::scope(|scope| {
            for kind in kinds {
                let session = session.clone();
                scope.spawn(move || session.run(&tiny_job(kind, 5, 2)).unwrap());
            }
        });
        let stats = session.stats();
        assert_eq!(stats.preparations, 3);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.cached, 3);
    }

    #[test]
    fn clear_drops_slots_but_keeps_history() {
        let session = SharedSession::new();
        let job = tiny_job(DatasetKind::Flare, 3, 2);
        session.run(&job).unwrap();
        assert_eq!(session.stats().cached, 1);
        session.clear();
        let stats = session.stats();
        assert_eq!(stats.cached, 0);
        assert_eq!(stats.approx_bytes, 0);
        assert_eq!(stats.preparations, 1, "history survives the clear");
        session.run(&job).unwrap();
        assert_eq!(session.stats().preparations, 2);
    }

    #[test]
    fn clear_forgets_preparations() {
        let session = SharedSession::new();
        let job = tiny_job(DatasetKind::Flare, 3, 5);
        session.run(&job).unwrap();
        session.clear();
        let r = session.run(&job).unwrap();
        assert!(!r.evaluator_reused, "a cleared cache prepares again");
        assert_eq!(session.stats().preparations, 2);
    }

    #[test]
    fn failed_preparation_is_evicted_not_cached() {
        let session = SharedSession::new();
        let ds = DatasetKind::Adult
            .generate(&cdp_dataset::generators::GeneratorConfig::seeded(1).with_records(30));
        let original = ds.protected_subtable();
        let bad = MetricConfig {
            prl_em_iters: 0, // rejected by the evaluator
            ..MetricConfig::default()
        };
        if session.evaluator_for(&original, bad).is_err() {
            let stats = session.stats();
            assert_eq!(stats.cached, 0, "failed slot must be evicted");
            assert_eq!(stats.preparations, 0);
        }
        // a corrected call on the same original works
        let (_, reused) = session
            .evaluator_for(&original, MetricConfig::default())
            .unwrap();
        assert!(!reused);
        assert_eq!(session.stats().cached, 1);
    }

    #[test]
    fn stats_report_nonzero_footprint() {
        let session = SharedSession::new();
        session.run(&tiny_job(DatasetKind::Adult, 2, 0)).unwrap();
        let stats = session.stats();
        assert!(stats.approx_bytes > 0);
        assert!(stats.hit_rate().is_some());
    }

    #[test]
    fn per_entry_stats_track_slot_hits_and_footprint() {
        let session = SharedSession::new();
        let adult = tiny_job(DatasetKind::Adult, 7, 0);
        let german = tiny_job(DatasetKind::German, 7, 0);
        session.run(&adult).unwrap();
        session.run(&adult).unwrap();
        session.run(&adult).unwrap();
        session.run(&german).unwrap();
        let stats = session.stats();
        assert_eq!(stats.entries.len(), stats.cached);
        assert_eq!(stats.entries.len(), 2);
        // registration order: the adult slot first, hit twice after its miss
        let (a, g) = (&stats.entries[0], &stats.entries[1]);
        assert_eq!(a.hits, 2);
        assert_eq!(g.hits, 0);
        assert!(a.prepared && g.prepared);
        assert_eq!(a.rows, 60);
        assert!(a.attrs > 0);
        // the aggregate footprint is exactly the sum of the entries
        assert_eq!(
            stats.approx_bytes,
            stats.entries.iter().map(|e| e.approx_bytes).sum::<usize>()
        );
        // per-slot hits partition the session-wide hit counter
        assert_eq!(
            stats.hits,
            stats.entries.iter().map(|e| e.hits).sum::<usize>()
        );
        // no snapshot cache attached: the disk-tier counters stay zero
        assert_eq!(
            (stats.snapshot_hits, stats.snapshot_misses, stats.evictions),
            (0, 0, 0)
        );
    }

    fn snap_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join("cdp_shared_snapshot_tests")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn original(kind: DatasetKind, n: usize) -> SubTable {
        kind.generate(&cdp_dataset::generators::GeneratorConfig::seeded(9).with_records(n))
            .protected_subtable()
    }

    #[test]
    fn snapshot_tier_warms_a_new_session() {
        let dir = snap_dir("warm");
        let orig = original(DatasetKind::Adult, 60);
        let cfg = MetricConfig::default();
        let cold = SharedSession::new();
        cold.set_snapshot_cache(Some(SnapshotCacheConfig::new(&dir)));
        let (ev_cold, reused) = cold.evaluator_for(&orig, cfg).unwrap();
        assert!(!reused);
        let s = cold.stats();
        assert_eq!(
            (s.preparations, s.snapshot_hits, s.snapshot_misses),
            (1, 0, 1),
            "first sight: empty directory, cold prepare, write-back"
        );
        // a brand-new session — a new process, in effect — starts warm
        let warm = SharedSession::new();
        warm.set_snapshot_cache(Some(SnapshotCacheConfig::new(&dir)));
        let (ev_warm, reused) = warm.evaluator_for(&orig, cfg).unwrap();
        assert!(reused, "a snapshot load is a reuse, not a preparation");
        let s = warm.stats();
        assert_eq!(
            (s.preparations, s.snapshot_hits, s.snapshot_misses),
            (0, 1, 0)
        );
        // the rehydrated evaluator assesses bit-identically
        let mut masked = orig.clone();
        for r in 0..masked.n_rows() {
            let c = masked.attr(1).n_categories() as Code;
            masked.set(r, 1, (masked.get(r, 1) + 1) % c);
        }
        assert_eq!(ev_cold.evaluate(&orig), ev_warm.evaluate(&orig));
        assert_eq!(ev_cold.evaluate(&masked), ev_warm.evaluate(&masked));
    }

    #[test]
    fn eviction_faults_back_from_disk_without_repreparing() {
        let dir = snap_dir("faultback");
        let orig = original(DatasetKind::German, 60);
        let cfg = MetricConfig::default();
        let session = SharedSession::new();
        session.set_snapshot_cache(Some(SnapshotCacheConfig::new(&dir).with_cap(0)));
        let (first, _) = session.evaluator_for(&orig, cfg).unwrap();
        let s = session.stats();
        assert_eq!(s.preparations, 1);
        assert_eq!(s.evictions, 1, "cap 0 demotes the slot immediately");
        assert!(!s.entries[0].prepared);
        // the next request faults back from disk: a registry hit plus a
        // snapshot load — never a second preparation
        let (second, reused) = session.evaluator_for(&orig, cfg).unwrap();
        assert!(reused);
        let s = session.stats();
        assert_eq!(s.preparations, 1, "eviction must not cause re-preparation");
        assert_eq!(s.hits, 1);
        assert_eq!(s.snapshot_hits, 1);
        assert_eq!(s.evictions, 2);
        assert_eq!(first.evaluate(&orig), second.evaluate(&orig));
    }

    #[test]
    fn lru_evicts_the_least_recently_used_slot_first() {
        let dir = snap_dir("lru");
        let cfg = MetricConfig::default();
        let a = original(DatasetKind::Adult, 60);
        let b = original(DatasetKind::German, 60);
        let c = original(DatasetKind::Flare, 60);
        let session = SharedSession::new();
        session.set_snapshot_cache(Some(SnapshotCacheConfig::new(&dir)));
        let (ea, _) = session.evaluator_for(&a, cfg).unwrap();
        let (eb, _) = session.evaluator_for(&b, cfg).unwrap();
        let (ec, _) = session.evaluator_for(&c, cfg).unwrap();
        let total = ea.approx_bytes() + eb.approx_bytes() + ec.approx_bytes();
        // one byte short of everything: exactly one eviction, LRU first
        session.set_snapshot_cache(Some(SnapshotCacheConfig::new(&dir).with_cap(total - 1)));
        let s = session.stats();
        assert_eq!(s.evictions, 1);
        assert!(!s.entries[0].prepared, "A was the least recently used");
        assert!(s.entries[1].prepared && s.entries[2].prepared);
        // touching A faults it back and pushes out B, the new LRU
        session.evaluator_for(&a, cfg).unwrap();
        let s = session.stats();
        assert_eq!(s.snapshot_hits, 1);
        assert_eq!(s.preparations, 3, "no re-preparation anywhere");
        assert_eq!(s.evictions, 2);
        assert!(s.entries[0].prepared);
        assert!(!s.entries[1].prepared, "B became the LRU after A's touch");
        assert!(s.entries[2].prepared);
    }

    mod lru_property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 16 })]
            #[test]
            fn resident_bytes_never_exceed_the_cap(
                seq in proptest::collection::vec(0usize..3, 1..10),
                cap_kib in 0usize..260,
            ) {
                let dir = snap_dir("prop");
                let pool = [
                    original(DatasetKind::Adult, 40),
                    original(DatasetKind::German, 40),
                    original(DatasetKind::Flare, 40),
                ];
                let cap = cap_kib * 1024;
                let session = SharedSession::new();
                session
                    .set_snapshot_cache(Some(SnapshotCacheConfig::new(&dir).with_cap(cap)));
                for &i in &seq {
                    session
                        .evaluator_for(&pool[i], MetricConfig::default())
                        .unwrap();
                    // the evictable residency (prepared state minus the
                    // irreducible key arenas) honors the cap after every
                    // single insert
                    let stats = session.stats();
                    let resident: usize = stats
                        .entries
                        .iter()
                        .filter(|e| e.prepared)
                        .map(|e| {
                            e.approx_bytes - e.rows * e.attrs * std::mem::size_of::<Code>()
                        })
                        .sum();
                    prop_assert!(resident <= cap, "resident {resident} > cap {cap}");
                }
            }
        }
    }

    #[test]
    fn second_job_reuses_the_preparation() {
        let session = SharedSession::new();
        let a = tiny_job(DatasetKind::Adult, 7, 5);
        let b = tiny_job(DatasetKind::Adult, 7, 8); // same original, new budget
        let ra = session.run(&a).unwrap();
        let rb = session.run(&b).unwrap();
        assert!(!ra.evaluator_reused);
        assert!(rb.evaluator_reused);
        assert_eq!(session.stats().preparations, 1);
        assert_eq!(session.stats().cached, 1);
        let stats = session.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn cache_hit_run_matches_cold_run_bit_for_bit() {
        let job = tiny_job(DatasetKind::German, 11, 6);
        let cold = SharedSession::new().run(&job).unwrap();
        let session = SharedSession::new();
        // same original, other budget: leaves a prepared evaluator behind
        session.run(&tiny_job(DatasetKind::German, 11, 2)).unwrap();
        let warm = session.run(&job).unwrap();
        assert!(!cold.evaluator_reused);
        assert!(warm.evaluator_reused);
        assert_eq!(session.stats().preparations, 1);
        assert_eq!(cold.best.assessment, warm.best.assessment);
        assert_eq!(cold.best.name, warm.best.name);
        assert_eq!(cold.best.data, warm.best.data);
        assert_eq!(cold.points, warm.points);
    }

    #[test]
    fn different_original_prepares_again() {
        let session = SharedSession::new();
        session.run(&tiny_job(DatasetKind::Adult, 7, 5)).unwrap();
        session.run(&tiny_job(DatasetKind::German, 7, 5)).unwrap();
        // same dataset, different generator seed -> different original
        session.run(&tiny_job(DatasetKind::Adult, 8, 5)).unwrap();
        assert_eq!(session.stats().preparations, 3);
    }

    #[test]
    fn shared_clone_feeds_the_same_cache() {
        let session = SharedSession::new();
        let job = tiny_job(DatasetKind::Adult, 9, 3);
        session.run(&job).unwrap();
        let report = session.clone().run(&job).unwrap();
        assert!(report.evaluator_reused, "clone sees the session's cache");
        assert_eq!(session.stats().preparations, 1);
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
        let session = SharedSession::new();
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
        let session = SharedSession::new();
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
        let session = SharedSession::new();
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
            let session = SharedSession::new();
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
        let session = SharedSession::new();
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
            SharedSession::new()
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
            let cold = SharedSession::new();
            let report_cold = cold.run(&job).unwrap();
            assert_eq!(cold.stats().snapshot_misses, 1);
            assert_eq!(cold.stats().preparations, 1);
            // fresh session (a new process, in effect): rehydrates
            let warm = SharedSession::new();
            let report_warm = warm.run(&job).unwrap();
            assert_eq!(warm.stats().preparations, 0, "served entirely from disk");
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
        let session = SharedSession::new();
        session.run(&job).unwrap();
        let mut seen = None;
        SharedSession::new()
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
        let session = SharedSession::new();
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
