//! Delta-vs-full evaluation benchmark: the perf baseline for the
//! `Evaluator::assess` / `Evaluator::reassess` hot path.
//!
//! Five sections, written as `BENCH_evaluator.json`:
//!
//! 1. **micro** — per-dataset-size cost of a full assessment vs a
//!    single-cell and a quarter-segment patch re-assessment (ns/op and the
//!    resulting speedups), across 1k/5k/20k/50k/100k rows (full
//!    assessments run the default blocked linkage).
//! 2. **linkage** — all-pairs vs blocked DBRL credit scans per size, with
//!    the distinct-pattern counts behind the blocked complexity bound.
//!    The all-pairs scan (and the credit-equality cross-check over DBRL
//!    *and* RSRL) runs only up to 20k rows — beyond that O(n²·a) is the
//!    wall this section exists to document.
//! 3. **prepare** — cold `Evaluator::new` preparation vs rehydrating the
//!    same prepared state from a `cdp_metrics::snapshot` file, at
//!    1k/20k/100k rows, with the snapshot size and a bit-identity check
//!    of the rehydrated evaluator's assessment.
//! 4. **evolution** — a 250-iteration paper-suite evolution run with the
//!    incremental knobs off vs on: wall time, the full/incremental
//!    assessment split, and the best point's (IL, DR) drift.
//! 5. **objectives** — the objective-vector overhead: the same NSGA-II
//!    run over the canonical (IL, DR) pair vs the 3-component
//!    (IL, DR, eps) vector, with per-generation wall cost and the
//!    N=3/N=2 ratio (dominance, crowding, and hypervolume all scale
//!    with the vector length; the canonical path must stay at its
//!    pre-refactor cost).
//!
//! ```text
//! cargo run --release -p cdp_bench --bin evaluator_bench -- \
//!     [--quick] [--check-drift] [--rows N] [--no-evolution] \
//!     [--out PATH] [--seed S]
//! ```
//!
//! `--quick` shrinks sizes and budgets for CI smoke runs (~seconds).
//! `--rows N` replaces the size ladder with the single size `N` (scaling
//! smoke runs). `--no-evolution` skips section 3.
//! `--check-drift` exits nonzero unless (a) the full-vs-incremental
//! evolution runs publish a best point with *exactly zero* (IL, DR) drift,
//! (b) the patch-vs-full exactness delta is exactly zero, (c) every
//! blocked-vs-all-pairs credit comparison is `==`-equal, and (d) every
//! snapshot-rehydrated evaluator assesses bit-identically to its cold
//! counterpart — all four are bit-exactness contracts, so any difference
//! at all is a regression.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use cdp_core::{EvoConfig, Evolution, EvolutionOutcome, Nsga2, NsgaConfig};
use cdp_dataset::generators::{DatasetKind, GeneratorConfig};
use cdp_dataset::{Code, PatternIndex, SubTable};
use cdp_metrics::linkage::{
    dbrl_credits, dbrl_credits_blocked, rsrl_credits, rsrl_credits_blocked,
};
use cdp_metrics::{
    snapshot, Evaluator, MaskedStats, MetricConfig, ObjectiveSet, Patch, PreparedOriginal,
};
use cdp_sdc::{build_population, SuiteConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Args {
    quick: bool,
    check_drift: bool,
    rows: Option<usize>,
    no_evolution: bool,
    out: PathBuf,
    seed: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        check_drift: false,
        rows: None,
        no_evolution: false,
        out: PathBuf::from("BENCH_evaluator.json"),
        seed: 42,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--check-drift" => args.check_drift = true,
            "--rows" => args.rows = it.next().and_then(|v| v.parse().ok()),
            "--no-evolution" => args.no_evolution = true,
            "--out" => args.out = it.next().map(PathBuf::from).unwrap_or(args.out),
            "--seed" => args.seed = it.next().and_then(|v| v.parse().ok()).unwrap_or(args.seed),
            other => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(1);
            }
        }
    }
    args
}

/// Largest row count at which the O(n²·a) all-pairs scans still run in
/// reasonable bench time; beyond it the linkage section reports the
/// blocked numbers alone.
const PAIRS_CEILING: usize = 20_000;

/// A masked variant with ~30% of cells re-drawn (a realistic distance from
/// the original, so linkage work is neither trivial nor degenerate).
fn masked_variant(original: &SubTable, seed: u64) -> SubTable {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBE9C);
    let mut m = original.clone();
    for k in 0..m.n_attrs() {
        let c = m.attr(k).n_categories() as Code;
        for r in 0..m.n_rows() {
            if rng.gen_bool(0.3) {
                m.set(r, k, rng.gen_range(0..c));
            }
        }
    }
    m
}

struct MicroRow {
    rows: usize,
    ns_assess: f64,
    ns_reassess_cell: f64,
    ns_reassess_segment: f64,
}

fn micro_row(rows: usize, assess_reps: usize, seed: u64) -> MicroRow {
    let original = DatasetKind::Adult
        .generate(&GeneratorConfig::seeded(seed).with_records(rows))
        .protected_subtable();
    let ev = Evaluator::new(&original, MetricConfig::default()).expect("evaluator");
    let mut masked = masked_variant(&original, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x77);

    let t0 = Instant::now();
    for _ in 0..assess_reps {
        std::hint::black_box(ev.assess(&masked));
    }
    let ns_assess = t0.elapsed().as_nanos() as f64 / assess_reps as f64;

    // single-cell patches returning owned states (the mutation path's shape)
    let state = ev.assess(&masked);
    let cell_reps = (assess_reps * 16).max(32);
    let t0 = Instant::now();
    for _ in 0..cell_reps {
        let row = rng.gen_range(0..masked.n_rows());
        let k = rng.gen_range(0..masked.n_attrs());
        let c = masked.attr(k).n_categories() as Code;
        let old = masked.get(row, k);
        masked.set(row, k, rng.gen_range(0..c));
        std::hint::black_box(ev.reassess(&state, &masked, &Patch::cell(row, k, old)));
        masked.set(row, k, old); // revert so `state` stays the baseline
    }
    let ns_reassess_cell = t0.elapsed().as_nanos() as f64 / cell_reps as f64;

    // quarter-of-the-file flat segments (the crossover path's shape)
    let other = masked_variant(&original, seed ^ 0x5EC);
    let seg_reps = (assess_reps * 4).max(8);
    let seg_len = (masked.flat_len() / 4).max(1);
    let t0 = Instant::now();
    for _ in 0..seg_reps {
        let s = rng.gen_range(0..masked.flat_len() - seg_len + 1);
        let r = s + seg_len - 1;
        let old_values: Vec<Code> = (s..=r).map(|p| masked.get_flat(p)).collect();
        let mut child = masked.clone();
        for p in s..=r {
            child.set_flat(p, other.get_flat(p));
        }
        std::hint::black_box(ev.reassess(&state, &child, &Patch::flat_range(s, r, old_values)));
    }
    let ns_reassess_segment = t0.elapsed().as_nanos() as f64 / seg_reps as f64;

    MicroRow {
        rows,
        ns_assess,
        ns_reassess_cell,
        ns_reassess_segment,
    }
}

struct LinkageRow {
    rows: usize,
    patterns_original: usize,
    patterns_masked: usize,
    ns_blocked: f64,
    /// `None` above `PAIRS_CEILING` — the all-pairs scan is skipped there.
    ns_pairs: Option<f64>,
    /// DBRL *and* RSRL credit vectors `==`-equal across backends
    /// (`None` when the all-pairs reference was skipped).
    credits_equal: Option<bool>,
}

/// Time the blocked DBRL credit scan against the all-pairs reference on the
/// same (original, masked) pair and cross-check bit-equality of the DBRL
/// and RSRL credit vectors. The all-pairs side runs only up to
/// `PAIRS_CEILING` rows.
fn linkage_row(rows: usize, seed: u64) -> LinkageRow {
    let original = DatasetKind::Adult
        .generate(&GeneratorConfig::seeded(seed).with_records(rows))
        .protected_subtable();
    let prep = PreparedOriginal::new(&original);
    let masked = masked_variant(&original, seed);
    let index = PatternIndex::build(&masked);

    let blocked_reps = 5;
    let t0 = Instant::now();
    for _ in 0..blocked_reps {
        std::hint::black_box(dbrl_credits_blocked(&prep, &masked, &index));
    }
    let ns_blocked = t0.elapsed().as_nanos() as f64 / blocked_reps as f64;

    let (ns_pairs, credits_equal) = if rows <= PAIRS_CEILING {
        let t0 = Instant::now();
        let pairs_dbrl = dbrl_credits(&prep, &masked);
        let ns_pairs = t0.elapsed().as_nanos() as f64;
        let blocked_dbrl = dbrl_credits_blocked(&prep, &masked, &index);
        let stats = MaskedStats::build(&prep, &masked);
        let window = (MetricConfig::default().rsrl_window_fraction * rows as f64).max(1.0);
        let equal = blocked_dbrl == pairs_dbrl
            && rsrl_credits_blocked(&prep, &stats, &index, window)
                == rsrl_credits(&prep, &stats, &masked, window);
        (Some(ns_pairs), Some(equal))
    } else {
        (None, None)
    };

    LinkageRow {
        rows,
        patterns_original: prep.pattern_index().n_patterns(),
        patterns_masked: index.n_patterns(),
        ns_blocked,
        ns_pairs,
        credits_equal,
    }
}

struct PrepareRow {
    rows: usize,
    ms_prepare_cold: f64,
    ms_snapshot_load: f64,
    snapshot_bytes: u64,
    rehydrated_identical: bool,
}

/// Time a cold `Evaluator::new` preparation against rehydrating the same
/// prepared state from a snapshot file, and cross-check that the
/// rehydrated evaluator assesses a masked variant bit-identically.
fn prepare_row(rows: usize, seed: u64) -> PrepareRow {
    let original = DatasetKind::Adult
        .generate(&GeneratorConfig::seeded(seed).with_records(rows))
        .protected_subtable();

    let t0 = Instant::now();
    let cold = Evaluator::new(&original, MetricConfig::default()).expect("evaluator");
    let ms_prepare_cold = t0.elapsed().as_secs_f64() * 1e3;

    let dir = std::env::temp_dir().join("cdp_bench_snapshots");
    let path = snapshot::write(&cold, &dir).expect("write snapshot");
    let snapshot_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);

    let t0 = Instant::now();
    let loaded = snapshot::load(&path, &original, &MetricConfig::default()).expect("load snapshot");
    let ms_snapshot_load = t0.elapsed().as_secs_f64() * 1e3;
    let _ = std::fs::remove_file(&path);

    let masked = masked_variant(&original, seed);
    let (a, b) = (
        cold.assess(&masked).assessment,
        loaded.assess(&masked).assessment,
    );
    let rehydrated_identical = [
        (a.il_parts.ctbil, b.il_parts.ctbil),
        (a.il_parts.dbil, b.il_parts.dbil),
        (a.il_parts.ebil, b.il_parts.ebil),
        (a.dr_parts.id, b.dr_parts.id),
        (a.dr_parts.dbrl, b.dr_parts.dbrl),
        (a.dr_parts.prl, b.dr_parts.prl),
        (a.dr_parts.rsrl, b.dr_parts.rsrl),
    ]
    .into_iter()
    .all(|(x, y)| x.to_bits() == y.to_bits());

    PrepareRow {
        rows,
        ms_prepare_cold,
        ms_snapshot_load,
        snapshot_bytes,
        rehydrated_identical,
    }
}

/// Largest absolute difference across **all seven measures** between a
/// multi-cell patch re-assessment and the full recompute (the delta engine
/// is bit-exact, PRL/RSRL included, so this must be exactly zero).
fn exactness_delta(seed: u64) -> f64 {
    let original = DatasetKind::Adult
        .generate(&GeneratorConfig::seeded(seed).with_records(400))
        .protected_subtable();
    let ev = Evaluator::new(&original, MetricConfig::default()).expect("evaluator");
    let mut masked = masked_variant(&original, seed);
    let state = ev.assess(&masked);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xE44C7);
    let mut cells = Vec::new();
    let mut seen = std::collections::HashSet::new();
    while cells.len() < 60 {
        let row = rng.gen_range(0..masked.n_rows());
        let k = rng.gen_range(0..masked.n_attrs());
        if !seen.insert((row, k)) {
            continue;
        }
        let c = masked.attr(k).n_categories() as Code;
        let old = masked.get(row, k);
        masked.set(row, k, rng.gen_range(0..c));
        cells.push(cdp_metrics::PatchCell { row, attr: k, old });
    }
    let patched = ev.reassess(&state, &masked, &Patch::from_cells(cells));
    let full = ev.assess(&masked);
    let (p, f) = (patched.assessment, full.assessment);
    [
        p.il_parts.ctbil - f.il_parts.ctbil,
        p.il_parts.dbil - f.il_parts.dbil,
        p.il_parts.ebil - f.il_parts.ebil,
        p.dr_parts.id - f.dr_parts.id,
        p.dr_parts.dbrl - f.dr_parts.dbrl,
        p.dr_parts.prl - f.dr_parts.prl,
        p.dr_parts.rsrl - f.dr_parts.rsrl,
    ]
    .into_iter()
    .map(f64::abs)
    .fold(0.0, f64::max)
}

struct EvoRun {
    wall_ms: f64,
    outcome: EvolutionOutcome,
}

fn evolution_run(
    kind: DatasetKind,
    records: usize,
    iterations: usize,
    paper_suite: bool,
    incremental: bool,
    seed: u64,
) -> EvoRun {
    let ds = kind.generate(&GeneratorConfig::seeded(seed).with_records(records));
    let suite = if paper_suite {
        SuiteConfig::paper(kind)
    } else {
        SuiteConfig::small()
    };
    let pop = build_population(&ds, &suite, seed).expect("suite");
    let ev = Evaluator::new(&ds.protected_subtable(), MetricConfig::default()).expect("evaluator");
    let cfg = EvoConfig::builder()
        .iterations(iterations)
        .incremental_mutation(incremental)
        .incremental_crossover(incremental)
        .seed(seed)
        .build();
    let t0 = Instant::now();
    let outcome = Evolution::new(ev, cfg)
        .with_named_population(pop)
        .expect("compatible population")
        .run();
    EvoRun {
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        outcome,
    }
}

struct ObjRun {
    n: usize,
    wall_ms: f64,
    ms_per_generation: f64,
    front_size: usize,
    final_hypervolume: f64,
    evaluations: usize,
}

/// One NSGA-II run over `il,dr` plus `extra` objective keys, timed
/// wall-to-wall (evaluator preparation excluded — the vector length only
/// touches selection, so that is what the section isolates).
fn objectives_run(extra: &[&str], records: usize, generations: usize, seed: u64) -> ObjRun {
    let ds = DatasetKind::German.generate(&GeneratorConfig::seeded(seed).with_records(records));
    let pop = build_population(&ds, &SuiteConfig::small(), seed).expect("suite");
    let ev = Evaluator::new(&ds.protected_subtable(), MetricConfig::default()).expect("evaluator");
    let mut keys = vec!["il", "dr"];
    keys.extend_from_slice(extra);
    let objectives = ObjectiveSet::from_keys(&keys).expect("valid objective keys");
    let cfg = NsgaConfig {
        generations,
        seed,
        ..NsgaConfig::default()
    };
    let t0 = Instant::now();
    let outcome = Nsga2::new(ev, cfg)
        .with_objectives(objectives)
        .with_named_population(pop)
        .expect("compatible population")
        .run();
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    ObjRun {
        n: 2 + extra.len(),
        wall_ms,
        ms_per_generation: wall_ms / generations as f64,
        front_size: outcome.front.len(),
        final_hypervolume: *outcome.hypervolume_series.last().expect("series non-empty"),
        evaluations: outcome.evaluations,
    }
}

fn obj_json(run: &ObjRun) -> String {
    format!(
        "{{\"n\": {}, \"wall_ms\": {:.1}, \"ms_per_generation\": {:.2}, \
         \"front_size\": {}, \"hypervolume\": {:.1}, \"evaluations\": {}}}",
        run.n,
        run.wall_ms,
        run.ms_per_generation,
        run.front_size,
        run.final_hypervolume,
        run.evaluations
    )
}

fn evo_json(run: &EvoRun) -> String {
    let best = run.outcome.final_best();
    format!(
        "{{\"wall_ms\": {:.1}, \"assess_full\": {}, \"assess_incremental\": {}, \
         \"best_il\": {:.4}, \"best_dr\": {:.4}, \"best_score\": {:.4}}}",
        run.wall_ms,
        run.outcome.eval_counts.full,
        run.outcome.eval_counts.incremental,
        best.il,
        best.dr,
        best.score
    )
}

fn main() {
    let args = parse_args();
    let sizes: Vec<(usize, usize)> = if let Some(rows) = args.rows {
        vec![(rows, if rows <= 20_000 { 2 } else { 1 })] // (rows, assess reps)
    } else if args.quick {
        vec![(1000, 2)]
    } else {
        vec![(1000, 6), (5000, 3), (20000, 2), (50000, 1), (100000, 1)]
    };

    let mut micro = Vec::new();
    let mut linkage = Vec::new();
    for &(rows, reps) in &sizes {
        eprintln!("micro: {rows} rows …");
        micro.push(micro_row(rows, reps, args.seed));
        eprintln!("linkage: {rows} rows …");
        linkage.push(linkage_row(rows, args.seed));
    }
    let exact_delta = exactness_delta(args.seed);

    let prepare_sizes: Vec<usize> = if let Some(rows) = args.rows {
        vec![rows]
    } else if args.quick {
        vec![1000]
    } else {
        vec![1000, 20000, 100000]
    };
    let mut prepare = Vec::new();
    for &rows in &prepare_sizes {
        eprintln!("prepare: {rows} rows …");
        prepare.push(prepare_row(rows, args.seed));
    }

    // the acceptance-criteria run: paper suite, 250 iterations (reduced
    // under --quick so CI smoke stays in seconds)
    let (records, iterations, paper_suite) = if args.quick {
        (300, 80, false)
    } else {
        (1000, 250, true)
    };
    let evolution = if args.no_evolution {
        None
    } else {
        eprintln!("evolution: full …");
        let full = evolution_run(
            DatasetKind::Adult,
            records,
            iterations,
            paper_suite,
            false,
            args.seed,
        );
        eprintln!("evolution: incremental …");
        let inc = evolution_run(
            DatasetKind::Adult,
            records,
            iterations,
            paper_suite,
            true,
            args.seed,
        );
        Some((full, inc))
    };

    let objectives_bench = if args.no_evolution {
        None
    } else {
        let (obj_records, obj_gens) = if args.quick { (200, 10) } else { (500, 40) };
        eprintln!("objectives: N=2 …");
        let two = objectives_run(&[], obj_records, obj_gens, args.seed);
        eprintln!("objectives: N=3 …");
        let three = objectives_run(&["eps"], obj_records, obj_gens, args.seed);
        Some((two, three, obj_records, obj_gens))
    };

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"quick\": {},", args.quick);
    let _ = writeln!(json, "  \"seed\": {},", args.seed);
    let _ = writeln!(json, "  \"micro\": [");
    for (i, row) in micro.iter().enumerate() {
        let comma = if i + 1 < micro.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"rows\": {}, \"ns_assess\": {:.0}, \"ns_reassess_cell\": {:.0}, \
             \"ns_reassess_segment\": {:.0}, \"speedup_cell\": {:.1}, \
             \"speedup_segment\": {:.1}}}{comma}",
            row.rows,
            row.ns_assess,
            row.ns_reassess_cell,
            row.ns_reassess_segment,
            row.ns_assess / row.ns_reassess_cell,
            row.ns_assess / row.ns_reassess_segment,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"linkage\": [");
    for (i, row) in linkage.iter().enumerate() {
        let comma = if i + 1 < linkage.len() { "," } else { "" };
        let ns_pairs = row
            .ns_pairs
            .map_or("null".to_string(), |v| format!("{v:.0}"));
        let speedup = row
            .ns_pairs
            .map_or("null".to_string(), |v| format!("{:.1}", v / row.ns_blocked));
        let equal = row
            .credits_equal
            .map_or("null".to_string(), |e| e.to_string());
        let _ = writeln!(
            json,
            "    {{\"rows\": {}, \"patterns_original\": {}, \"patterns_masked\": {}, \
             \"ns_dbrl_blocked\": {:.0}, \"ns_dbrl_pairs\": {ns_pairs}, \
             \"pairs_over_blocked\": {speedup}, \"credits_equal\": {equal}}}{comma}",
            row.rows, row.patterns_original, row.patterns_masked, row.ns_blocked,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"prepare\": [");
    for (i, row) in prepare.iter().enumerate() {
        let comma = if i + 1 < prepare.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"rows\": {}, \"ms_prepare_cold\": {:.2}, \"ms_snapshot_load\": {:.2}, \
             \"cold_over_load\": {:.1}, \"snapshot_bytes\": {}, \
             \"rehydrated_identical\": {}}}{comma}",
            row.rows,
            row.ms_prepare_cold,
            row.ms_snapshot_load,
            row.ms_prepare_cold / row.ms_snapshot_load.max(1e-9),
            row.snapshot_bytes,
            row.rehydrated_identical,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"exactness_max_abs_delta\": {exact_delta:e},");
    if let Some((two, three, obj_records, obj_gens)) = &objectives_bench {
        let _ = writeln!(json, "  \"objectives\": {{");
        let _ = writeln!(
            json,
            "    \"dataset\": \"german\", \"records\": {obj_records}, \
             \"generations\": {obj_gens},"
        );
        let _ = writeln!(json, "    \"n2\": {},", obj_json(two));
        let _ = writeln!(json, "    \"n3\": {},", obj_json(three));
        let _ = writeln!(
            json,
            "    \"n3_over_n2_ms_per_generation\": {:.2}",
            three.ms_per_generation / two.ms_per_generation.max(1e-9)
        );
        let _ = writeln!(json, "  }},");
    } else {
        let _ = writeln!(json, "  \"objectives\": null,");
    }
    let (il_drift, dr_drift) = if let Some((full, inc)) = &evolution {
        let _ = writeln!(json, "  \"evolution\": {{");
        let _ = writeln!(
            json,
            "    \"dataset\": \"adult\", \"records\": {records}, \"iterations\": {iterations}, \
             \"suite\": \"{}\",",
            if paper_suite { "paper" } else { "small" }
        );
        let _ = writeln!(json, "    \"full\": {},", evo_json(full));
        let _ = writeln!(json, "    \"incremental\": {},", evo_json(inc));
        let _ = writeln!(
            json,
            "    \"full_assess_reduction\": {:.2},",
            full.outcome.eval_counts.full as f64 / inc.outcome.eval_counts.full.max(1) as f64
        );
        let _ = writeln!(
            json,
            "    \"wall_speedup\": {:.2},",
            full.wall_ms / inc.wall_ms.max(1e-9)
        );
        let il_drift = (full.outcome.final_best().il - inc.outcome.final_best().il).abs();
        let dr_drift = (full.outcome.final_best().dr - inc.outcome.final_best().dr).abs();
        let _ = writeln!(
            json,
            "    \"best_il_drift\": {il_drift:.4}, \"best_dr_drift\": {dr_drift:.4}"
        );
        let _ = writeln!(json, "  }}");
        (il_drift, dr_drift)
    } else {
        let _ = writeln!(json, "  \"evolution\": null");
        (0.0, 0.0)
    };
    let _ = writeln!(json, "}}");

    if let Some(parent) = args.out.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output directory");
        }
    }
    std::fs::write(&args.out, &json).expect("write BENCH_evaluator.json");
    print!("{json}");
    eprintln!("wrote {}", args.out.display());

    // three bit-exactness contracts: under --check-drift any difference at
    // all (not merely above a tolerance) fails the run — after the JSON is
    // on disk, so CI still uploads the failing numbers
    if args.check_drift {
        let mut failed = false;
        if il_drift != 0.0 || dr_drift != 0.0 {
            eprintln!(
                "DRIFT CHECK FAILED: full vs incremental best diverged \
                 (|ΔIL| = {il_drift:e}, |ΔDR| = {dr_drift:e}); \
                 the incremental engine must be bit-exact"
            );
            failed = true;
        }
        if exact_delta != 0.0 {
            eprintln!(
                "DRIFT CHECK FAILED: patch re-assessment diverged from the \
                 full recompute (max |Δ| = {exact_delta:e})"
            );
            failed = true;
        }
        for row in &linkage {
            if row.credits_equal == Some(false) {
                eprintln!(
                    "DRIFT CHECK FAILED: blocked vs all-pairs credit mismatch \
                     at {} rows; the blocked scans must be bit-exact",
                    row.rows
                );
                failed = true;
            }
        }
        for row in &prepare {
            if !row.rehydrated_identical {
                eprintln!(
                    "DRIFT CHECK FAILED: snapshot-rehydrated evaluator diverged \
                     from the cold preparation at {} rows; rehydration must be \
                     bit-exact",
                    row.rows
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
