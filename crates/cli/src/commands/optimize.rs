//! `cdp optimize` — run the evolutionary optimizer (scalar fitness,
//! Algorithm 1 of the paper) or NSGA-II over a population of protections,
//! writing figure-ready CSVs.
//!
//! Flags deserialize into one [`cdp::pipeline::ProtectionJob`] carrying
//! its [`cdp::pipeline::OptimizerMode`]: dataset-mode flags are job-spec
//! tokens, and `--input` mode applies its optimizer flags through the same
//! [`JobSpec`] code. Both modes run through [`Session::run_with`], so the
//! CLI and the library cannot drift.

use std::io::Write;
use std::path::Path;

use cdp::pipeline::{
    JobEvent, JobReport, OptimizerMode, ProtectionJob, Session, SnapshotCacheConfig,
};
use cdp_core::ScatterPoint;
use cdp_dataset::io::write_table_path;

use crate::args::Args;
use crate::data::{load_table_with, resolve_attrs};
use crate::error::{CliError, Result};
use crate::spec::{job_grammar, parse_method, JobSpec};

/// The flags that set a job-spec key of the same name (`--iters` sets
/// `gens` under `--mode nsga`). Dataset mode takes all of them; `--input`
/// mode takes those from `mode` on.
const SPEC_FLAGS: [&str; 10] = [
    "dataset",
    "suite",
    "records",
    "mode",
    "fitness",
    "iters",
    "drop",
    "offspring",
    "xprob",
    "seed",
];

/// Usage text; the job-spec keys are generated from the grammar's table.
pub fn usage() -> String {
    format!(
        "\
cdp optimize (--dataset <name> | --input <file.csv> | --job <spec>) --out <dir>
             [--attrs <A,B,C>]           attributes to protect (input mode)
             [--methods <spec,spec,...>] initial population (input mode)
             [--copies <n>]              seeds per method spec (default 2)
             [--schema <sidecar>]        attribute kinds/dictionaries (input mode)
             [--suite <v>] [--records <v>] [--mode <v>] [--fitness <v>]
             [--iters <v>] [--drop <v>] [--offspring <v>] [--xprob <v>]
             [--seed <v>]                the job-spec keys below, as flags;
                                         --iters sets gens under --mode nsga;
                                         input mode takes --mode and the flags
                                         after it
             [--cache-dir <dir>]         persistent snapshot cache: the prepared
                                         evaluator is written to <dir> and later
                                         runs rehydrate it instead of re-preparing
             [--cache-cap <bytes>]       LRU byte cap on the in-memory cache tier
                                         (requires --cache-dir)

Scalar mode writes evolution.csv, scatter.csv and best.csv into --out;
NSGA-II mode writes front.csv, hypervolume.csv and best.csv (the front's
knee point).

--job takes one quoted key=value job spec — exactly the `job:` line a
dataset-mode run echoes — so any run can be reproduced verbatim:
  cdp optimize --job 'dataset=adult suite=paper fitness=max iters=300 seed=7' --out dir
  cdp optimize --job 'dataset=german suite=small mode=nsga gens=200 seed=7' --out dir

job spec keys (order-insensitive):
{}",
        job_grammar()
    )
}

/// Default initial-population recipe for `--input` mode.
const DEFAULT_METHODS: &str =
    "microagg:3,microagg:6,topcode:0.15,bottomcode:0.15,recode:1,rankswap:2,rankswap:8,pram:0.8,pram:0.65";

/// Run the command.
pub fn run(args: &Args) -> Result<()> {
    let mut known = vec![
        "input", "job", "out", "attrs", "methods", "copies", "schema",
    ];
    known.extend(SPEC_FLAGS);
    known.extend(["cache-dir", "cache-cap"]);
    args.expect_only(&known)?;
    let out_dir = Path::new(args.require("out")?);
    std::fs::create_dir_all(out_dir)?;

    let snapshot = super::cache::snapshot_config_from(args)?;
    let job = job_from_args(args)?;
    let scalar = matches!(job.optimizer(), OptimizerMode::Scalar(_));
    if scalar && job.iterations() == 0 {
        return Err(CliError::Usage(
            "scalar mode needs --iters >= 1 (0 is mask-and-score only)".into(),
        ));
    }
    let report = run_job(
        &job,
        snapshot,
        if scalar { "iterations" } else { "generations" },
    )?;
    if scalar {
        write_scalar(&report, out_dir)
    } else {
        write_nsga(&report, out_dir)
    }
}

/// The job-spec keys given as `flags`, parsed like a spec; errors name
/// the flag.
fn spec_from_flags(args: &Args, flags: &[&'static str]) -> Result<JobSpec> {
    let nsga = args.get("mode") == Some("nsga");
    let key = |flag: &'static str| {
        if nsga && flag == "iters" {
            "gens"
        } else {
            flag
        }
    };
    let pairs = flags
        .iter()
        .filter_map(|&flag| args.get(flag).map(|value| (key(flag), value)));
    JobSpec::from_pairs(pairs, |key| match key {
        "gens" => "--iters".into(),
        key => format!("--{key}"),
    })
}

/// Deserialize the flags into one [`ProtectionJob`].
fn job_from_args(args: &Args) -> Result<ProtectionJob> {
    if let Some(text) = args.get("job") {
        // a whole run as one pasteable spec string
        if args.get("dataset").is_some() || args.get("input").is_some() {
            return Err(CliError::Usage(
                "--job replaces --dataset/--input; pass one source only".into(),
            ));
        }
        if args.get("mode").is_some() {
            return Err(CliError::Usage(
                "the optimizer mode is part of the --job spec (mode=nsga); drop --mode".into(),
            ));
        }
        return JobSpec::parse(text)?.to_job();
    }
    match (args.get("dataset"), args.get("input")) {
        (Some(_), Some(_)) => Err(CliError::Usage(
            "--dataset and --input are mutually exclusive".into(),
        )),
        (None, None) => Err(CliError::Usage(
            "one of --dataset or --input is required".into(),
        )),
        (Some(_), None) => spec_from_flags(args, &SPEC_FLAGS)?.to_job(),
        (None, Some(path)) => {
            if args.get("suite").is_some() {
                return Err(CliError::Usage(
                    "--suite applies to dataset mode; use --methods with --input".into(),
                ));
            }
            let spec = spec_from_flags(args, &SPEC_FLAGS[3..])?;
            let table = load_table_with(path, args.get("schema"))?;
            let indices = resolve_attrs(&table, args.list("attrs"))?;
            let methods = args
                .get("methods")
                .unwrap_or(DEFAULT_METHODS)
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(parse_method)
                .collect::<Result<Vec<_>>>()?;
            let builder = ProtectionJob::builder()
                .table(table, indices)
                .methods(methods)
                .copies(args.get_or("copies", 2)?);
            Ok(spec.optimize(builder).build()?)
        }
    }
}

/// Echo the canonical spec, then run the job in a fresh session,
/// announcing the population once it is masked.
fn run_job(
    job: &ProtectionJob,
    snapshot: Option<SnapshotCacheConfig>,
    budget_unit: &str,
) -> Result<JobReport> {
    // echo the canonical spec so any dataset-mode run can be reproduced by
    // pasting the line back into the flags
    if let Ok(spec) = JobSpec::from_job(job) {
        println!("job: {}", spec.to_spec_string());
    }
    let session = Session::new();
    session.set_snapshot_cache(snapshot);
    let mut dims = (0usize, 0usize);
    Ok(session.run_with(job, |event| match event {
        JobEvent::SourceReady {
            rows, protected, ..
        } => dims = (*rows, *protected),
        JobEvent::PopulationReady { size } => println!(
            "optimizing {size} protections of {} records x {} attributes ({} {budget_unit})",
            dims.0,
            dims.1,
            job.iterations()
        ),
        _ => {}
    })?)
}

fn write_scalar(report: &JobReport, out_dir: &Path) -> Result<()> {
    let outcome = report.scalar_outcome().expect("iterations >= 1 evolves");

    // evolution.csv: the paper's max/mean/min series
    let mut evolution = std::fs::File::create(out_dir.join("evolution.csv"))?;
    writeln!(evolution, "iteration,min,mean,max")?;
    for g in &outcome.trace.generations {
        writeln!(
            evolution,
            "{},{:.4},{:.4},{:.4}",
            g.iteration, g.min, g.mean, g.max
        )?;
    }

    // scatter.csv: initial + final (IL, DR) dispersion
    let mut scatter = std::fs::File::create(out_dir.join("scatter.csv"))?;
    writeln!(scatter, "phase,name,il,dr,score")?;
    write_points(&mut scatter, "initial", &outcome.initial)?;
    write_points(&mut scatter, "final", &outcome.final_points)?;

    // best.csv: the winning protected file, substituted into the full table
    write_table_path(&report.published_best()?, out_dir.join("best.csv"))?;

    let summary = outcome.summary();
    println!(
        "best score {:.2} -> {:.2} ({}), files in {}",
        summary.initial_min,
        summary.final_min,
        report.best.name,
        out_dir.display()
    );
    println!(
        "max {:.2} -> {:.2} ({:+.2}%), mean {:.2} -> {:.2} ({:+.2}%)",
        summary.initial_max,
        summary.final_max,
        -summary.improvement_max(),
        summary.initial_mean,
        summary.final_mean,
        -summary.improvement_mean(),
    );
    Ok(())
}

fn write_nsga(report: &JobReport, out_dir: &Path) -> Result<()> {
    // artifact emission lives on the report's `Front`
    let front = report.front().expect("nsga jobs produce a front");

    front.write_front_csv(std::fs::File::create(out_dir.join("front.csv"))?)?;
    front.write_hypervolume_csv(std::fs::File::create(out_dir.join("hypervolume.csv"))?)?;
    // best.csv: the knee point of the front, substituted into the full table
    write_table_path(&report.published_best()?, out_dir.join("best.csv"))?;

    println!(
        "front size {} -> {} (archive {}), hypervolume {:.0} -> {:.0}, {} evaluations, files in {}",
        front.initial.len(),
        front.points.len(),
        front.archive.len(),
        front.initial_hypervolume(),
        front.final_hypervolume(),
        front.evaluations,
        out_dir.display()
    );
    println!(
        "knee point `{}` (IL {:.2}, DR {:.2}) written to best.csv",
        report.best.name,
        report.best.assessment.il(),
        report.best.assessment.dr()
    );
    Ok(())
}

fn write_points(out: &mut std::fs::File, phase: &str, points: &[ScatterPoint]) -> Result<()> {
    for p in points {
        writeln!(
            out,
            "{phase},{},{:.4},{:.4},{:.4}",
            p.name, p.il, p.dr, p.score
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("cdp_cli_optimize").join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn dataset_scalar_mode_writes_artifacts() {
        let out = tmp_dir("scalar");
        run(&args(&[
            "--dataset",
            "adult",
            "--records",
            "60",
            "--iters",
            "20",
            "--seed",
            "3",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        for file in ["evolution.csv", "scatter.csv", "best.csv"] {
            let text = std::fs::read_to_string(out.join(file)).unwrap();
            assert!(text.lines().count() > 1, "{file} has content");
        }
        let evolution = std::fs::read_to_string(out.join("evolution.csv")).unwrap();
        assert!(evolution.starts_with("iteration,min,mean,max"));
        assert_eq!(evolution.lines().count(), 22); // header + initial + 20
    }

    #[test]
    fn job_flag_runs_a_pasted_spec() {
        let out = tmp_dir("jobflag");
        run(&args(&[
            "--job",
            "dataset=german suite=small fitness=mean iters=5 seed=2 records=50",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.join("best.csv").exists());
        // --job excludes the other source flags
        let err = run(&args(&[
            "--job",
            "dataset=german",
            "--dataset",
            "adult",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--job replaces"));
    }

    #[test]
    fn scalar_mode_rejects_zero_iterations_up_front() {
        let out = tmp_dir("zeroiters");
        let err = run(&args(&[
            "--dataset",
            "adult",
            "--records",
            "40",
            "--iters",
            "0",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--iters >= 1"));
    }

    #[test]
    fn dataset_mode_supports_drop_fraction() {
        let out = tmp_dir("drop");
        run(&args(&[
            "--dataset",
            "flare",
            "--records",
            "60",
            "--iters",
            "5",
            "--drop",
            "0.10",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let scatter = std::fs::read_to_string(out.join("scatter.csv")).unwrap();
        let initial = scatter
            .lines()
            .filter(|l| l.starts_with("initial,"))
            .count();
        assert!(initial < 12, "drop must shrink the population: {initial}");
    }

    #[test]
    fn input_nsga_mode_writes_front() {
        let dir = tmp_dir("nsga");
        let input = dir.join("input.csv");
        let mut csv = String::from("X,Y,Z\n");
        for i in 0..60 {
            csv.push_str(["a,p,1\n", "b,q,2\n", "c,r,3\n", "a,q,1\n"][i % 4]);
        }
        std::fs::write(&input, csv).unwrap();
        run(&args(&[
            "--input",
            input.to_str().unwrap(),
            "--attrs",
            "X,Y",
            "--methods",
            "pram:0.8,rankswap:3",
            "--copies",
            "3",
            "--mode",
            "nsga",
            "--iters",
            "5",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let front = std::fs::read_to_string(dir.join("front.csv")).unwrap();
        assert!(front.starts_with("phase,name,il,dr,score"));
        assert!(front.contains("final,"));
        let hv = std::fs::read_to_string(dir.join("hypervolume.csv")).unwrap();
        assert_eq!(hv.lines().count(), 7); // header + initial + 5 generations
    }

    #[test]
    fn dataset_nsga_mode_writes_front_and_knee_point() {
        let out = tmp_dir("nsga_ds");
        run(&args(&[
            "--dataset",
            "german",
            "--records",
            "60",
            "--mode",
            "nsga",
            "--iters",
            "4",
            "--seed",
            "6",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let front = std::fs::read_to_string(out.join("front.csv")).unwrap();
        assert!(front.starts_with("phase,name,il,dr,score"));
        for phase in ["initial,", "final,", "archive,"] {
            assert!(front.contains(phase), "missing {phase} rows");
        }
        let hv = std::fs::read_to_string(out.join("hypervolume.csv")).unwrap();
        assert_eq!(hv.lines().count(), 6); // header + initial + 4 generations
        let best = std::fs::read_to_string(out.join("best.csv")).unwrap();
        assert_eq!(best.lines().count(), 61); // header + 60 records
    }

    #[test]
    fn nsga_job_spec_reruns_identically() {
        // the echoed `job:` line is re-runnable and reproduces the artifacts
        let out = tmp_dir("nsga_spec_a");
        let out2 = tmp_dir("nsga_spec_b");
        run(&args(&[
            "--dataset",
            "flare",
            "--records",
            "60",
            "--mode",
            "nsga",
            "--iters",
            "3",
            "--seed",
            "9",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        run(&args(&[
            "--job",
            "dataset=flare suite=small mode=nsga gens=3 seed=9 records=60",
            "--out",
            out2.to_str().unwrap(),
        ]))
        .unwrap();
        for file in ["front.csv", "hypervolume.csv", "best.csv"] {
            assert_eq!(
                std::fs::read_to_string(out.join(file)).unwrap(),
                std::fs::read_to_string(out2.join(file)).unwrap(),
                "{file} must be bit-identical"
            );
        }
    }

    /// `--cache-dir` reruns are bit-identical to cold runs: the second
    /// invocation rehydrates the prepared evaluator from disk (a fresh
    /// `Session` each time, so only the snapshot tier can carry state) and
    /// every artifact matches byte for byte.
    #[test]
    fn cache_dir_reruns_are_bit_identical() {
        let out_cold = tmp_dir("snap_cold");
        let out_warm = tmp_dir("snap_warm");
        let cache = tmp_dir("snap_cache");
        let _ = std::fs::remove_dir_all(&cache);
        for out in [&out_cold, &out_warm] {
            run(&args(&[
                "--dataset",
                "german",
                "--records",
                "60",
                "--iters",
                "4",
                "--seed",
                "13",
                "--cache-dir",
                cache.to_str().unwrap(),
                "--out",
                out.to_str().unwrap(),
            ]))
            .unwrap();
        }
        assert!(
            std::fs::read_dir(&cache).unwrap().count() > 0,
            "cold run must write a snapshot"
        );
        for file in ["evolution.csv", "scatter.csv", "best.csv"] {
            assert_eq!(
                std::fs::read_to_string(out_cold.join(file)).unwrap(),
                std::fs::read_to_string(out_warm.join(file)).unwrap(),
                "{file} must be bit-identical across the snapshot tier"
            );
        }
        let _ = std::fs::remove_dir_all(&cache);
    }

    #[test]
    fn cache_cap_requires_cache_dir() {
        let out = tmp_dir("snap_capflag");
        let err = run(&args(&[
            "--dataset",
            "adult",
            "--records",
            "40",
            "--iters",
            "2",
            "--cache-cap",
            "4096",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--cache-dir"), "{err}");
    }

    #[test]
    fn cross_mode_flags_rejected_with_mode_named() {
        let out = tmp_dir("cross");
        for (flags, needle) in [
            (vec!["--mode", "nsga", "--fitness", "max"], "--fitness"),
            (vec!["--mode", "nsga", "--drop", "0.05"], "--drop"),
            (vec!["--offspring", "4"], "--offspring"),
            (vec!["--xprob", "0.7"], "--xprob"),
        ] {
            let mut tokens = vec!["--dataset", "adult", "--out", out.to_str().unwrap()];
            tokens.extend(flags);
            let err = run(&args(&tokens)).unwrap_err();
            assert!(err.to_string().contains(needle), "{needle}: {err}");
        }
        // --mode belongs inside a --job spec
        let err = run(&args(&[
            "--job",
            "dataset=adult",
            "--mode",
            "nsga",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--job spec"));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Flags ≡ spec: every dataset-mode spec within the flag set,
        /// passed as flags, builds a job that reads back (through
        /// `from_job`) as the spec its canonical string parses to.
        #[test]
        fn dataset_flags_build_the_job_of_their_spec_string(
            dataset_i in 0usize..4,
            records_set in proptest::prelude::any::<bool>(),
            records_n in 1usize..500,
            paper_suite in proptest::prelude::any::<bool>(),
            nsga in proptest::prelude::any::<bool>(),
            mean_fitness in proptest::prelude::any::<bool>(),
            budget in 0usize..400,
            drop_20th in 0u8..20,
            offspring in 0usize..40,
            xprob_pct in 0u8..=100,
            seed in proptest::prelude::any::<u64>(),
        ) {
            use cdp::pipeline::SuiteKind;
            use cdp_dataset::generators::DatasetKind;
            use cdp_metrics::ScoreAggregator;

            let mut spec = JobSpec {
                dataset: [
                    DatasetKind::Adult,
                    DatasetKind::Housing,
                    DatasetKind::German,
                    DatasetKind::Flare,
                ][dataset_i],
                records: records_set.then_some(records_n),
                suite: if paper_suite { SuiteKind::Paper } else { SuiteKind::Small },
                seed,
                ..JobSpec::default()
            };
            let mut flags = vec![
                "--dataset".to_string(),
                spec.dataset.name().to_ascii_lowercase(),
                "--suite".into(),
                spec.suite.name().into(),
                "--seed".into(),
                seed.to_string(),
            ];
            if let Some(n) = spec.records {
                flags.extend(["--records".into(), n.to_string()]);
            }
            if nsga {
                spec.mode = crate::spec::SpecMode::Nsga;
                spec.inc = crate::spec::IncMode::Crossover;
                spec.gens = budget.max(1);
                spec.offspring = offspring;
                spec.xprob = f64::from(xprob_pct) / 100.0;
                flags.extend([
                    "--mode".into(),
                    "nsga".into(),
                    "--iters".into(),
                    spec.gens.to_string(),
                    "--offspring".into(),
                    offspring.to_string(),
                    "--xprob".into(),
                    spec.xprob.to_string(),
                ]);
            } else {
                spec.fitness = if mean_fitness {
                    ScoreAggregator::Mean
                } else {
                    ScoreAggregator::Max
                };
                spec.iters = budget;
                spec.drop = f64::from(drop_20th) / 20.0;
                flags.extend([
                    "--fitness".into(),
                    spec.fitness.name().into(),
                    "--iters".into(),
                    budget.to_string(),
                    "--drop".into(),
                    spec.drop.to_string(),
                ]);
            }
            let job = job_from_args(&Args::parse(flags.clone()).unwrap())
                .unwrap_or_else(|e| panic!("{flags:?}: {e}"));
            let from_flags = JobSpec::from_job(&job)
                .unwrap_or_else(|e| panic!("{flags:?}: {e}"));
            let from_text = JobSpec::parse(&spec.to_spec_string()).unwrap();
            proptest::prop_assert_eq!(&from_flags, &from_text, "{:?}", flags);
        }
    }

    #[test]
    fn input_mode_flags_go_through_the_spec_grammar() {
        let dir = tmp_dir("input_flags");
        let input = dir.join("input.csv");
        std::fs::write(&input, "X,Y\na,p\nb,q\nc,r\na,q\n").unwrap();
        for (flags, needle) in [
            (vec!["--mode", "nsga", "--drop", "0.1"], "--drop"),
            (vec!["--fitness", "min"], "--fitness"),
            (vec!["--mode", "nsga", "--iters", "x"], "--iters"),
        ] {
            let mut tokens = vec![
                "--input",
                input.to_str().unwrap(),
                "--out",
                dir.to_str().unwrap(),
            ];
            tokens.extend(flags);
            let err = run(&args(&tokens)).unwrap_err().to_string();
            assert!(err.contains(needle), "{needle}: {err}");
        }
    }

    #[test]
    fn mutually_exclusive_inputs_rejected() {
        let out = tmp_dir("bad");
        let err = run(&args(&[
            "--dataset",
            "adult",
            "--input",
            "x.csv",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"));
        let err2 = run(&args(&["--out", out.to_str().unwrap()])).unwrap_err();
        assert!(err2.to_string().contains("required"));
    }

    #[test]
    fn unknown_mode_and_fitness_rejected() {
        let out = tmp_dir("flags");
        for (flag, value) in [("mode", "annealing"), ("fitness", "min")] {
            let err = run(&args(&[
                "--dataset",
                "adult",
                "--records",
                "40",
                "--iters",
                "2",
                &format!("--{flag}"),
                value,
                "--out",
                out.to_str().unwrap(),
            ]))
            .unwrap_err();
            assert!(err.to_string().contains(value), "--{flag} {value}");
        }
    }
}
