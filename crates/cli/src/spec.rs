//! Protection specifications: the CLI's two mini-grammars.
//!
//! * [`parse_method`] — the `--method name:param` grammar mapping CLI
//!   strings onto [`cdp_sdc::ProtectionMethod`] values.
//! * [`JobSpec`] — the `key=value` job grammar that deserializes a whole
//!   `cdp optimize` invocation straight into a
//!   [`cdp::pipeline::ProtectionJob`], and serializes one back, so CLI
//!   jobs and library jobs cannot drift. One table row per key drives
//!   parsing, rendering, the cross-mode check and the key list of the
//!   `cdp optimize` usage text.

use cdp::pipeline::{
    DataSource, OptimizerMode, PopulationSpec, ProtectionJob, ProtectionJobBuilder, SuiteKind,
};
use cdp_core::NsgaConfig;
use cdp_dataset::generators::DatasetKind;
use cdp_metrics::ScoreAggregator;
use cdp_sdc::{
    Aggregate, BottomCoding, GlobalRecoding, Grouping, LocalSuppression, MicroVariant,
    Microaggregation, Pram, PramMode, ProtectionMethod, RandomSwap, RankSwapping, TopCoding,
};

use crate::commands::generate::dataset_kind;
use crate::error::{CliError, Result};

/// The incremental-evaluation selector of the job grammar (`inc=` key).
///
/// Incremental evaluation is exact (bit-identical to full assessments) and
/// on by default: `all` in scalar mode, `xover` under `mode=nsga` (where
/// one knob covers both operators). `xover` is valid in both modes (it
/// maps onto `EvoConfig::incremental_crossover` in scalar mode and
/// `NsgaConfig::incremental` under `mode=nsga`); `mut` and `all` name the
/// mutation path and are scalar-only. `inc=off` opts back into full O(n²)
/// scoring of every offspring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncMode {
    /// Every offspring pays a full assessment.
    Off,
    /// Incremental mutation offspring only.
    Mutation,
    /// Incremental crossover offspring only.
    Crossover,
    /// Both operators evaluate incrementally.
    All,
}

impl IncMode {
    /// The default selector of a [`SpecMode`]: `all` in scalar mode,
    /// `xover` under `mode=nsga` (one knob covers both operators there).
    pub fn default_for(mode: SpecMode) -> IncMode {
        match mode {
            SpecMode::Scalar => IncMode::All,
            SpecMode::Nsga => IncMode::Crossover,
        }
    }

    /// The CLI spelling (`off` / `mut` / `xover` / `all`).
    pub fn name(self) -> &'static str {
        match self {
            IncMode::Off => "off",
            IncMode::Mutation => "mut",
            IncMode::Crossover => "xover",
            IncMode::All => "all",
        }
    }

    /// Whether the mutation path evaluates incrementally.
    pub fn mutation(self) -> bool {
        matches!(self, IncMode::Mutation | IncMode::All)
    }

    /// Whether the crossover path evaluates incrementally.
    pub fn crossover(self) -> bool {
        matches!(self, IncMode::Crossover | IncMode::All)
    }
}

/// The optimizer selector of the job grammar (`mode=` key).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecMode {
    /// The paper's scalar algorithm (default).
    Scalar,
    /// NSGA-II over Pareto dominance.
    Nsga,
}

impl SpecMode {
    /// The CLI spelling (`scalar` / `nsga`).
    pub fn name(self) -> &'static str {
        match self {
            SpecMode::Scalar => "scalar",
            SpecMode::Nsga => "nsga",
        }
    }
}

/// One key of the job grammar.
struct Key {
    /// The key as spelled in a spec (`name=value`).
    name: &'static str,
    /// The optimizer modes the key applies to.
    modes: &'static [SpecMode],
    /// The accepted values, as shown in the help text and in errors.
    values: &'static str,
    /// One line of help.
    help: &'static str,
    /// Store a value into the spec; `None` when the value does not parse.
    set: fn(&mut JobSpec, &str) -> Option<()>,
    /// The value to render, `None` when the key sits at its default.
    render: fn(&JobSpec) -> Option<String>,
}

const BOTH: &[SpecMode] = &[SpecMode::Scalar, SpecMode::Nsga];
const SCALAR: &[SpecMode] = &[SpecMode::Scalar];
const NSGA: &[SpecMode] = &[SpecMode::Nsga];

/// The job grammar, one row per key, in canonical rendering order.
const KEYS: &[Key] = &[
    Key {
        name: "dataset",
        modes: BOTH,
        values: "<adult|housing|german|flare>",
        help: "evaluation dataset (required)",
        set: |s, v| dataset_kind(v).ok().map(|d| s.dataset = d),
        render: |s| Some(s.dataset.name().to_ascii_lowercase()),
    },
    Key {
        name: "suite",
        modes: BOTH,
        values: "<small|paper>",
        help: "initial population sweep (default small)",
        set: |s, v| {
            named(&[SuiteKind::Small, SuiteKind::Paper], SuiteKind::name, v).map(|k| s.suite = k)
        },
        render: |s| Some(s.suite.name().into()),
    },
    Key {
        name: "mode",
        modes: BOTH,
        values: "<scalar|nsga>",
        help: "optimizer (default scalar)",
        set: |s, v| {
            named(&[SpecMode::Scalar, SpecMode::Nsga], SpecMode::name, v).map(|m| s.mode = m)
        },
        render: |s| unless(s.mode.name(), SpecMode::Scalar.name()),
    },
    Key {
        name: "fitness",
        modes: SCALAR,
        values: "<mean|max>",
        help: "fitness aggregator (default max)",
        set: |s, v| {
            named(
                &[ScoreAggregator::Mean, ScoreAggregator::Max],
                ScoreAggregator::name,
                v,
            )
            .map(|a| s.fitness = a)
        },
        render: |s| Some(s.fitness.name().into()),
    },
    Key {
        name: "iters",
        modes: SCALAR,
        values: "<n>",
        help: "evolution budget (default 300; 0 = score only)",
        set: |s, v| v.parse().ok().map(|n| s.iters = n),
        render: |s| Some(s.iters.to_string()),
    },
    Key {
        name: "gens",
        modes: NSGA,
        values: "<n>",
        help: "generations (default 300)",
        set: |s, v| v.parse().ok().map(|n| s.gens = n),
        render: |s| Some(s.gens.to_string()),
    },
    Key {
        name: "seed",
        modes: BOTH,
        values: "<u64>",
        help: "master seed (default 42)",
        set: |s, v| v.parse().ok().map(|n| s.seed = n),
        render: |s| Some(s.seed.to_string()),
    },
    Key {
        name: "records",
        modes: BOTH,
        values: "<n>",
        help: "record-count override (at least 1)",
        set: |s, v| v.parse().ok().map(|n| s.records = Some(n)),
        render: |s| s.records.map(|n| n.to_string()),
    },
    Key {
        name: "drop",
        modes: SCALAR,
        values: "<fraction>",
        help: "drop the best initial fraction (§3.3)",
        set: |s, v| v.parse().ok().map(|f| s.drop = f),
        render: |s| unless(s.drop, 0.0),
    },
    Key {
        name: "offspring",
        modes: NSGA,
        values: "<n>",
        help: "offspring per generation (0 = population size)",
        set: |s, v| v.parse().ok().map(|n| s.offspring = n),
        render: |s| unless(s.offspring, JobSpec::default().offspring),
    },
    Key {
        name: "xprob",
        modes: NSGA,
        values: "<p>",
        help: "crossover probability (default 0.5)",
        set: |s, v| v.parse().ok().map(|p| s.xprob = p),
        render: |s| unless(s.xprob, JobSpec::default().xprob),
    },
    Key {
        name: "obj",
        modes: NSGA,
        values: "il,dr[,eps][,util]",
        help: "objective vector; eps = LDP leakage, util = task utility",
        // the metrics registry owns the key grammar; the spec stores only
        // the extension beyond the canonical pair
        set: |s, v| {
            let set = cdp_metrics::ObjectiveSet::parse(v).ok()?;
            s.obj = set.keys()[2..].iter().map(|k| (*k).to_string()).collect();
            Some(())
        },
        render: |s| (!s.obj.is_empty()).then(|| format!("il,dr,{}", s.obj.join(","))),
    },
    Key {
        name: "eps",
        modes: NSGA,
        values: "<budget>",
        help: "add an ε-calibrated invariant-PRAM member",
        set: |s, v| v.parse().ok().map(|e| s.eps = Some(e)),
        render: |s| s.eps.map(|e| e.to_string()),
    },
    Key {
        name: "inc",
        modes: BOTH,
        values: "<off|mut|xover|all>",
        help: "incremental evaluation (default all; under nsga xover or off)",
        set: |s, v| {
            let all = [
                IncMode::Off,
                IncMode::Mutation,
                IncMode::Crossover,
                IncMode::All,
            ];
            named(&all, IncMode::name, v).map(|i| s.inc = i)
        },
        render: |s| unless(s.inc.name(), IncMode::default_for(s.mode).name()),
    },
    Key {
        name: "islands",
        modes: BOTH,
        values: "<k>",
        help: "island-model run with k islands (default 1)",
        set: |s, v| v.parse().ok().map(|n| s.islands = n),
        render: |s| unless(s.islands, 1),
    },
    Key {
        name: "mig",
        modes: BOTH,
        values: "<n>",
        help: "generations between migrations (default 10)",
        set: |s, v| v.parse().ok().map(|n| s.mig = n),
        render: |s| unless(s.mig, JobSpec::default().mig),
    },
    Key {
        name: "audit",
        modes: BOTH,
        values: "<true|false>",
        help: "privacy-audit the winner (default false)",
        set: |s, v| v.parse().ok().map(|a| s.audit = a),
        render: |s| unless(s.audit, false),
    },
];

/// The member of `all` whose CLI spelling is `value`.
fn named<T: Copy>(all: &[T], name: fn(T) -> &'static str, value: &str) -> Option<T> {
    all.iter().copied().find(|&t| name(t) == value)
}

/// `value` rendered, unless it equals `default`.
fn unless<T: PartialEq + ToString>(value: T, default: T) -> Option<String> {
    (value != default).then(|| value.to_string())
}

/// The job grammar accepted by [`JobSpec::parse`], one line per key in
/// canonical order: whitespace-separated `key=value` tokens,
/// order-insensitive. Keys of one optimizer mode lead their help with
/// it; using them under the other mode is an error naming the key.
pub(crate) fn job_grammar() -> String {
    KEYS.iter()
        .map(|k| {
            let only = match k.modes {
                [mode] => format!("{}: ", mode.name()),
                _ => String::new(),
            };
            format!(
                "  {:<36} {only}{}",
                format!("{}={}", k.name, k.values),
                k.help
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// A `cdp optimize` dataset-mode invocation as data: the textual job
/// format the CLI exchanges with [`ProtectionJob`].
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Evaluation dataset.
    pub dataset: DatasetKind,
    /// Record-count override.
    pub records: Option<usize>,
    /// Initial population sweep.
    pub suite: SuiteKind,
    /// Which optimizer drives the run.
    pub mode: SpecMode,
    /// Scalar fitness aggregator.
    pub fitness: ScoreAggregator,
    /// Scalar evolution budget (0 = mask and score only).
    pub iters: usize,
    /// NSGA-II generations.
    pub gens: usize,
    /// NSGA-II offspring per generation (0 = population size).
    pub offspring: usize,
    /// NSGA-II crossover probability.
    pub xprob: f64,
    /// Master seed.
    pub seed: u64,
    /// Fraction of best initial protections dropped before evolving
    /// (scalar).
    pub drop: f64,
    /// Whether to privacy-audit the winner.
    pub audit: bool,
    /// Incremental offspring evaluation (`inc=` key; defaults to
    /// [`IncMode::default_for`] the spec's mode).
    pub inc: IncMode,
    /// Island count (`islands=` key; default 1 = the legacy
    /// single-population run). Shared between the two modes.
    pub islands: usize,
    /// Migration interval in generations (`mig=` key; default 10).
    pub mig: usize,
    /// Extra objective keys beyond the canonical leading `il, dr` pair
    /// (`obj=` key; nsga mode only — the scalar optimizer aggregates the
    /// fixed pair).
    pub obj: Vec<String>,
    /// ε-calibrated invariant-PRAM population member: the budget of the
    /// `eps=` key (nsga mode only).
    pub eps: Option<f64>,
}

impl Default for JobSpec {
    fn default() -> Self {
        let nsga = NsgaConfig::default();
        JobSpec {
            dataset: DatasetKind::Adult,
            records: None,
            suite: SuiteKind::Small,
            mode: SpecMode::Scalar,
            fitness: ScoreAggregator::Max,
            iters: 300,
            // match the scalar `iters` default, so a budget-less CLI run
            // spends the same 300 steps in either mode
            gens: 300,
            offspring: nsga.offspring,
            xprob: nsga.crossover_prob,
            seed: 42,
            drop: 0.0,
            audit: false,
            inc: IncMode::default_for(SpecMode::Scalar),
            islands: 1,
            mig: cdp_core::IslandConfig::default().migration_interval,
            obj: Vec::new(),
            eps: None,
        }
    }
}

impl JobSpec {
    /// Parse the `key=value` grammar (listed by `cdp help optimize`).
    ///
    /// Mode consistency is validated after all tokens are read (the
    /// grammar is order-insensitive, so `mode=` may come last): scalar-only
    /// keys under `mode=nsga` — and nsga-only keys under the (default)
    /// scalar mode — are usage errors naming the offending key.
    ///
    /// # Errors
    /// [`CliError::Usage`] naming the offending token and, for a bad
    /// value, the values its key accepts.
    pub fn parse(text: &str) -> Result<JobSpec> {
        let pairs = text
            .split_whitespace()
            .map(|token| {
                token
                    .split_once('=')
                    .ok_or_else(|| CliError::Usage(format!("expected key=value, got `{token}`")))
            })
            .collect::<Result<Vec<_>>>()?;
        if !pairs.iter().any(|(key, _)| *key == "dataset") {
            return Err(CliError::Usage("a dataset= key is required".into()));
        }
        JobSpec::from_pairs(pairs, |key| format!("`{key}`"))
    }

    /// Parse `(key, value)` pairs over the defaults: the grammar behind
    /// [`JobSpec::parse`] and the `cdp optimize` flags. `spell` names a
    /// key the way the caller wrote it, for error messages.
    pub(crate) fn from_pairs<'a>(
        pairs: impl IntoIterator<Item = (&'a str, &'a str)>,
        spell: impl Fn(&str) -> String,
    ) -> Result<JobSpec> {
        let mut spec = JobSpec::default();
        let mut seen: Vec<&Key> = Vec::new();
        for (name, value) in pairs {
            let key = KEYS
                .iter()
                .find(|k| k.name == name)
                .ok_or_else(|| CliError::Usage(format!("unknown key {}", spell(name))))?;
            (key.set)(&mut spec, value).ok_or_else(|| {
                CliError::Usage(format!(
                    "{}: bad value `{value}` (expected {})",
                    spell(name),
                    key.values
                ))
            })?;
            seen.push(key);
        }
        if let Some(key) = seen.iter().find(|k| !k.modes.contains(&spec.mode)) {
            let right_mode = match spec.mode {
                SpecMode::Scalar => "mode=nsga",
                SpecMode::Nsga => "the (default) scalar mode",
            };
            return Err(CliError::Usage(format!(
                "{} applies to {right_mode} (this job runs {})",
                spell(key.name),
                spec.mode.name()
            )));
        }
        if spec.mode == SpecMode::Nsga {
            if !seen.iter().any(|k| k.name == "inc") {
                // the default is mode-dependent: one nsga knob covers both
                // operators, so default-on spells `xover` there
                spec.inc = IncMode::default_for(SpecMode::Nsga);
            } else if spec.inc.mutation() {
                return Err(CliError::Usage(format!(
                    "`inc={}` names the mutation path and applies to the \
                     (default) scalar mode; under mode=nsga use inc=xover",
                    spec.inc.name()
                )));
            }
        }
        Ok(spec)
    }

    /// Canonical serialization: table order, mode-appropriate keys off
    /// their defaults only, re-parses to an equal spec
    /// (`parse ∘ to_spec_string = id`).
    pub fn to_spec_string(&self) -> String {
        KEYS.iter()
            .filter(|k| k.modes.contains(&self.mode))
            .filter_map(|k| Some(format!("{}={}", k.name, (k.render)(self)?)))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Deserialize into a runnable [`ProtectionJob`].
    ///
    /// # Errors
    /// [`CliError::Usage`] for inconsistent knob combinations.
    pub fn to_job(&self) -> Result<ProtectionJob> {
        let mut builder = ProtectionJob::builder()
            .dataset(self.dataset)
            .suite_kind(self.suite);
        if let Some(n) = self.records {
            builder = builder.records(n);
        }
        if self.audit {
            builder = builder.audit();
        }
        Ok(self.optimize(builder).build()?)
    }

    /// Apply the optimizer keys — mode and its knobs, seed, islands,
    /// objectives and the ε member — to `builder`. This is the part of a
    /// job the `cdp optimize --input` mode shares with a spec.
    pub(crate) fn optimize(&self, builder: ProtectionJobBuilder) -> ProtectionJobBuilder {
        let mut builder = builder
            .seed(self.seed)
            .islands(self.islands)
            .migration_interval(self.mig);
        builder = match self.mode {
            SpecMode::Scalar => builder
                .aggregator(self.fitness)
                .iterations(self.iters)
                .drop_best_fraction(self.drop)
                .incremental_mutation(self.inc.mutation())
                .incremental_crossover(self.inc.crossover()),
            SpecMode::Nsga => builder
                .nsga()
                .iterations(self.gens)
                .offspring(self.offspring)
                .crossover_prob(self.xprob)
                .incremental_crossover(self.inc.crossover()),
        };
        for key in &self.obj {
            builder = builder.objective(key.clone());
        }
        if let Some(eps) = self.eps {
            builder = builder.epsilon_pram(eps);
        }
        builder
    }

    /// Recover the spec from a [`ProtectionJob`], when the job is
    /// expressible in the CLI grammar (generated source, suite
    /// population, knobs the grammar carries) — both optimizer modes
    /// round-trip. The exact inverse of [`JobSpec::to_job`]:
    /// `from_job(spec.to_job()?) == spec`.
    ///
    /// # Errors
    /// [`CliError::Usage`] for jobs carrying values the textual format
    /// cannot represent: loaded tables, custom suites, explicit method
    /// lists, pre-masked populations, `add_protection` extras, a
    /// generator-seed override, or any knob that does not survive a
    /// rebuild from the spec (metric, evolution and NSGA-II knobs off
    /// their defaults, named sensitive audit attributes).
    pub fn from_job(job: &ProtectionJob) -> Result<JobSpec> {
        let unrepresentable =
            |what: &str| CliError::Usage(format!("not expressible as a CLI job spec: {what}"));
        let DataSource::Generated {
            kind,
            records,
            seed,
        } = job.source()
        else {
            return Err(unrepresentable("a non-generated data source"));
        };
        if seed.is_some_and(|seed| seed != job.seed()) {
            return Err(unrepresentable("a generator-seed override"));
        }
        let PopulationSpec::Suite(suite) = job.population() else {
            return Err(unrepresentable("a non-suite population recipe"));
        };
        if !job.extras().is_empty() {
            return Err(unrepresentable("an add_protection extra"));
        }
        // read the values the grammar carries …
        let mut spec = JobSpec {
            dataset: *kind,
            records: *records,
            suite: *suite,
            seed: job.seed(),
            audit: job.audit_spec().is_some(),
            ..JobSpec::default()
        };
        match job.optimizer() {
            OptimizerMode::Scalar(evo) => {
                spec.fitness = evo.aggregator;
                spec.iters = job.iterations();
                spec.drop = job.drop_fraction();
                spec.inc = inc_mode(evo.incremental_mutation, evo.incremental_crossover);
                spec.islands = evo.islands.count;
                spec.mig = evo.islands.migration_interval;
            }
            OptimizerMode::Nsga(cfg) => {
                spec.mode = SpecMode::Nsga;
                spec.gens = cfg.generations;
                spec.offspring = cfg.offspring;
                spec.xprob = cfg.crossover_prob;
                spec.inc = inc_mode(false, cfg.incremental);
                spec.islands = cfg.islands.count;
                spec.mig = cfg.islands.migration_interval;
                spec.obj = job.objectives().keys()[2..]
                    .iter()
                    .map(|k| (*k).to_string())
                    .collect();
                spec.eps = job.pram_epsilon();
            }
        }
        // … and refuse every knob that does not survive a rebuild
        let back = spec
            .to_job()
            .map_err(|_| unrepresentable("an out-of-range knob"))?;
        let sensitive = |j: &ProtectionJob| j.audit_spec().map(|a| a.sensitive.clone());
        for (what, same) in [
            ("optimizer settings", job.optimizer() == back.optimizer()),
            ("metric configuration", job.metrics() == back.metrics()),
            ("objective vector", job.objectives() == back.objectives()),
            ("ε-PRAM member", job.pram_epsilon() == back.pram_epsilon()),
            ("iteration budget", job.iterations() == back.iterations()),
            ("drop fraction", job.drop_fraction() == back.drop_fraction()),
            ("audit configuration", sensitive(job) == sensitive(&back)),
        ] {
            if !same {
                return Err(unrepresentable(&format!("the job's {what}")));
            }
        }
        Ok(spec)
    }
}

/// The `inc=` selector of a pair of incremental-evaluation switches.
fn inc_mode(mutation: bool, crossover: bool) -> IncMode {
    match (mutation, crossover) {
        (false, false) => IncMode::Off,
        (true, false) => IncMode::Mutation,
        (false, true) => IncMode::Crossover,
        (true, true) => IncMode::All,
    }
}

/// Grammar accepted by [`parse_method`], one line per method.
pub const METHOD_GRAMMAR: &str = "\
  microagg:<k>[:uni|multi|bi][:median|mode]   categorical microaggregation
  bottomcode:<fraction>                       bottom coding
  topcode:<fraction>                          top coding
  recode:<level>                              global recoding (uniform level)
  rankswap:<p>                                rank swapping, window p% of n
  pram:<theta>[:unif|prop|inv]                PRAM, retention probability theta
  suppress:<k>                                local suppression of classes < k
  randomswap:<fraction>                       uncontrolled random swapping";

/// Parse a method spec like `pram:0.2:inv` into a boxed method.
///
/// # Errors
/// [`CliError::Usage`] with the offending token and the grammar.
pub fn parse_method(spec: &str) -> Result<Box<dyn ProtectionMethod>> {
    let mut parts = spec.split(':');
    let name = parts.next().unwrap_or_default();
    let params: Vec<&str> = parts.collect();
    let bad = |msg: String| CliError::Usage(format!("{msg}\naccepted methods:\n{METHOD_GRAMMAR}"));

    let one_param = |what: &str| -> Result<&str> {
        match params.as_slice() {
            [p] => Ok(*p),
            _ => Err(bad(format!("{name} needs exactly one parameter ({what})"))),
        }
    };

    match name {
        "microagg" => {
            if params.is_empty() || params.len() > 3 {
                return Err(bad("microagg:<k>[:grouping][:aggregate]".into()));
            }
            let k: usize = params[0]
                .parse()
                .map_err(|_| bad(format!("microagg: bad k `{}`", params[0])))?;
            let grouping = match params.get(1).copied() {
                None | Some("uni") => Grouping::Univariate,
                Some("multi") => Grouping::Multivariate,
                Some("bi") => Grouping::Bivariate,
                Some(other) => return Err(bad(format!("microagg: bad grouping `{other}`"))),
            };
            let aggregate = match params.get(2).copied() {
                None | Some("median") => Aggregate::Median,
                Some("mode") => Aggregate::Mode,
                Some(other) => return Err(bad(format!("microagg: bad aggregate `{other}`"))),
            };
            Ok(Box::new(Microaggregation::new(
                k,
                MicroVariant {
                    grouping,
                    aggregate,
                },
            )))
        }
        "bottomcode" => {
            let fraction: f64 = one_param("fraction")?
                .parse()
                .map_err(|_| bad("bottomcode: bad fraction".into()))?;
            Ok(Box::new(BottomCoding { fraction }))
        }
        "topcode" => {
            let fraction: f64 = one_param("fraction")?
                .parse()
                .map_err(|_| bad("topcode: bad fraction".into()))?;
            Ok(Box::new(TopCoding { fraction }))
        }
        "recode" => {
            let level: usize = one_param("level")?
                .parse()
                .map_err(|_| bad("recode: bad level".into()))?;
            Ok(Box::new(GlobalRecoding::uniform(level)))
        }
        "rankswap" => {
            let p: usize = one_param("p")?
                .parse()
                .map_err(|_| bad("rankswap: bad p".into()))?;
            Ok(Box::new(RankSwapping::new(p)))
        }
        "pram" => {
            if params.is_empty() || params.len() > 2 {
                return Err(bad("pram:<theta>[:mode]".into()));
            }
            let theta: f64 = params[0]
                .parse()
                .map_err(|_| bad(format!("pram: bad theta `{}`", params[0])))?;
            let mode = match params.get(1).copied() {
                None | Some("unif") => PramMode::Uniform,
                Some("prop") => PramMode::Proportional,
                Some("inv") => PramMode::Invariant,
                Some(other) => return Err(bad(format!("pram: bad mode `{other}`"))),
            };
            Ok(Box::new(Pram::new(theta, mode)))
        }
        "suppress" => {
            let min_class_size: usize = one_param("k")?
                .parse()
                .map_err(|_| bad("suppress: bad k".into()))?;
            Ok(Box::new(LocalSuppression { min_class_size }))
        }
        "randomswap" => {
            let fraction: f64 = one_param("fraction")?
                .parse()
                .map_err(|_| bad("randomswap: bad fraction".into()))?;
            Ok(Box::new(RandomSwap { fraction }))
        }
        other => Err(bad(format!("unknown method `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_method_family() {
        for (spec, expected) in [
            ("microagg:3", "microagg"),
            ("microagg:5:multi:mode", "microagg"),
            ("bottomcode:0.1", "bottom"),
            ("topcode:0.2", "top"),
            ("recode:1", "grec"),
            ("rankswap:5", "rank"),
            ("pram:0.8", "pram"),
            ("pram:0.8:inv", "pram"),
            ("suppress:3", "suppress"),
            ("randomswap:0.25", "random"),
        ] {
            let m = parse_method(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert!(
                m.name().to_lowercase().contains(expected),
                "{spec} -> {}",
                m.name()
            );
        }
    }

    #[test]
    fn job_spec_round_trips_through_protection_job() {
        // spec text -> JobSpec -> ProtectionJob -> JobSpec -> spec text:
        // CLI jobs and library jobs cannot drift — in either mode
        for text in [
            "dataset=adult suite=small fitness=max iters=300 seed=42",
            "dataset=flare suite=paper fitness=mean iters=250 seed=7 records=120 drop=0.05",
            "dataset=german suite=small fitness=max iters=0 seed=1 audit=true",
            "dataset=housing suite=paper fitness=max iters=10 seed=3 records=80 drop=0.1 audit=true",
            "dataset=adult suite=small mode=nsga gens=100 seed=42",
            "dataset=german suite=paper mode=nsga gens=25 seed=9 records=100 offspring=6",
            "dataset=flare suite=small mode=nsga gens=12 seed=3 xprob=0.8 audit=true",
            "dataset=adult suite=small fitness=max iters=250 seed=4 inc=all",
            "dataset=flare suite=paper fitness=mean iters=100 seed=5 inc=mut",
            "dataset=german suite=small fitness=max iters=90 seed=6 inc=xover",
            "dataset=housing suite=small mode=nsga gens=15 seed=7 inc=xover",
            "dataset=adult suite=small fitness=max iters=250 seed=8 inc=off",
            "dataset=housing suite=small mode=nsga gens=15 seed=9 inc=off",
            "dataset=adult suite=small fitness=max iters=100 seed=10 records=90 inc=xover audit=true",
            "dataset=german suite=small mode=nsga gens=15 seed=11 offspring=0 xprob=0.25 mig=6",
            "dataset=flare suite=paper fitness=mean iters=50 seed=12 drop=0.15 islands=3",
            "dataset=adult suite=small fitness=max iters=200 seed=13 islands=4",
            "dataset=german suite=small fitness=mean iters=120 seed=14 islands=2 mig=5",
            "dataset=housing suite=small mode=nsga gens=20 seed=15 islands=3",
            "dataset=flare suite=paper mode=nsga gens=30 seed=16 islands=2 mig=4 audit=true",
            "dataset=german suite=small mode=nsga gens=12 seed=17 obj=il,dr,eps eps=1.5",
            "dataset=adult suite=small mode=nsga gens=10 seed=18 obj=il,dr,util",
            "dataset=flare suite=small mode=nsga gens=8 seed=19 obj=il,dr,eps,util eps=0.75 audit=true",
            "dataset=housing suite=small mode=nsga gens=6 seed=20 eps=2.5",
        ] {
            let spec = JobSpec::parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            let job = spec.to_job().unwrap_or_else(|e| panic!("{text}: {e}"));
            let back = JobSpec::from_job(&job).unwrap();
            assert_eq!(spec, back, "{text}");
            assert_eq!(spec.to_spec_string(), back.to_spec_string());
            // the canonical string re-parses to the same spec
            assert_eq!(JobSpec::parse(&spec.to_spec_string()).unwrap(), spec);
        }
    }

    #[test]
    fn cross_mode_keys_are_rejected_with_the_key_named() {
        // scalar-only keys under mode=nsga …
        for (text, key) in [
            ("dataset=adult mode=nsga fitness=max", "fitness"),
            ("dataset=adult mode=nsga iters=10", "iters"),
            ("dataset=adult mode=nsga drop=0.05", "drop"),
            // … and mode= may come after the offending key
            ("dataset=adult iters=10 mode=nsga", "iters"),
        ] {
            let err = JobSpec::parse(text).unwrap_err().to_string();
            assert!(err.contains(&format!("`{key}`")), "{text}: {err}");
            assert!(err.contains("scalar"), "{text}: {err}");
        }
        // nsga-only keys under the default scalar mode
        for (text, key) in [
            ("dataset=adult gens=10", "gens"),
            ("dataset=adult offspring=4", "offspring"),
            ("dataset=adult mode=scalar xprob=0.5", "xprob"),
            // the objective vector (even spelled canonically) and the
            // ε-PRAM member only exist under the multi-objective optimizer
            ("dataset=adult obj=il,dr", "obj"),
            ("dataset=adult obj=il,dr,eps", "obj"),
            ("dataset=adult eps=1.5", "eps"),
            ("dataset=adult eps=1.5 mode=scalar", "eps"),
        ] {
            let err = JobSpec::parse(text).unwrap_err().to_string();
            assert!(err.contains(&format!("`{key}`")), "{text}: {err}");
            assert!(err.contains("mode=nsga"), "{text}: {err}");
        }
        // inc values naming the mutation path are scalar-only, wherever
        // mode= appears in the token stream
        for text in [
            "dataset=adult mode=nsga inc=mut",
            "dataset=adult inc=all mode=nsga",
        ] {
            let err = JobSpec::parse(text).unwrap_err().to_string();
            assert!(err.contains("inc="), "{text}: {err}");
            assert!(err.contains("scalar"), "{text}: {err}");
        }
        // … while inc=xover is valid in both modes
        assert!(JobSpec::parse("dataset=adult mode=nsga inc=xover").is_ok());
        assert!(JobSpec::parse("dataset=adult inc=xover").is_ok());
    }

    #[test]
    fn incremental_defaults_are_mode_dependent_and_off_is_explicit() {
        // exact delta evaluation is the default: both operators in scalar
        // mode, the one shared knob under mode=nsga
        let scalar = JobSpec::parse("dataset=adult").unwrap();
        assert_eq!(scalar.inc, IncMode::All);
        let nsga = JobSpec::parse("dataset=adult mode=nsga").unwrap();
        assert_eq!(nsga.inc, IncMode::Crossover);
        // the default never renders; opting out does
        assert!(!scalar.to_spec_string().contains("inc="));
        assert!(!nsga.to_spec_string().contains("inc="));
        let off = JobSpec::parse("dataset=adult inc=off").unwrap();
        assert_eq!(off.inc, IncMode::Off);
        assert!(off.to_spec_string().contains("inc=off"));
        assert_eq!(JobSpec::parse(&off.to_spec_string()).unwrap(), off);
        // and the built jobs carry the right optimizer knobs
        match scalar.to_job().unwrap().optimizer() {
            OptimizerMode::Scalar(evo) => {
                assert!(evo.incremental_mutation && evo.incremental_crossover);
            }
            _ => panic!("scalar job expected"),
        }
        match nsga.to_job().unwrap().optimizer() {
            OptimizerMode::Nsga(cfg) => assert!(cfg.incremental),
            _ => panic!("nsga job expected"),
        }
        match off.to_job().unwrap().optimizer() {
            OptimizerMode::Scalar(evo) => {
                assert!(!evo.incremental_mutation && !evo.incremental_crossover);
            }
            _ => panic!("scalar job expected"),
        }
    }

    #[test]
    fn job_spec_is_order_insensitive_and_defaulted() {
        let a = JobSpec::parse("seed=9 dataset=adult").unwrap();
        let b = JobSpec::parse("dataset=adult seed=9").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.suite, cdp::pipeline::SuiteKind::Small);
        assert_eq!(a.iters, 300);
        // the objective keys participate in the order-insensitive grammar:
        // mode= may trail the keys it licenses
        let c = JobSpec::parse("eps=1.5 obj=il,dr,eps gens=5 mode=nsga dataset=adult").unwrap();
        let d = JobSpec::parse("dataset=adult mode=nsga gens=5 obj=il,dr,eps eps=1.5").unwrap();
        assert_eq!(c, d);
        assert_eq!(c.obj, vec!["eps".to_string()]);
        assert_eq!(c.eps, Some(1.5));
        // a spelled-out canonical obj= list is accepted and renders away
        let e = JobSpec::parse("dataset=adult mode=nsga gens=5 obj=il,dr").unwrap();
        assert!(e.obj.is_empty());
        assert!(!e.to_spec_string().contains("obj="));
    }

    #[test]
    fn job_spec_rejects_malformed_input() {
        for text in [
            "",                                               // dataset missing
            "dataset=iris",                                   // unknown dataset
            "dataset=adult suite=huge",                       // unknown suite
            "dataset=adult fitness=min",                      // unknown fitness
            "dataset=adult iters=many",                       // bad number
            "dataset=adult audit=yes",                        // bad bool
            "dataset=adult unknown=1",                        // unknown key
            "dataset=adult records",                          // not key=value
            "dataset=adult drop=1.5",                         // builder rejects the fraction
            "dataset=adult mode=annealing",                   // unknown mode
            "dataset=adult mode=nsga gens=x",                 // bad count
            "dataset=adult mode=nsga gens=0",                 // builder rejects 0 generations
            "dataset=adult mode=nsga xprob=2",                // builder rejects the probability
            "dataset=adult inc=fast",                         // unknown inc value
            "dataset=adult link=pairs",                       // not a key
            "dataset=adult records=0",                        // builder rejects 0 records
            "dataset=adult islands=many",                     // bad count
            "dataset=adult islands=0",                        // builder rejects 0 islands
            "dataset=adult mig=0",                            // builder rejects 0 interval
            "dataset=adult mode=nsga obj=dr,il",              // must lead il,dr
            "dataset=adult mode=nsga obj=il",                 // canonical pair incomplete
            "dataset=adult mode=nsga obj=il,dr,warp",         // unknown objective
            "dataset=adult mode=nsga obj=il,dr,eps,eps",      // duplicate
            "dataset=adult mode=nsga obj=il,dr,eps,util,eps", // over MAX_OBJECTIVES
            "dataset=adult mode=nsga eps=fast",               // bad float
            "dataset=adult mode=nsga eps=0",                  // builder rejects zero budget
            "dataset=adult mode=nsga eps=-1.5",               // builder rejects negatives
        ] {
            let result = JobSpec::parse(text).and_then(|s| s.to_job().map(|_| ()));
            let err = result.expect_err(text).to_string();
            // the error names the offending token, not the whole grammar
            assert!(err.len() < 256, "`{text}`: {} bytes: {err}", err.len());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// parse ∘ to_spec_string = id, and from_job ∘ to_job = id, over
        /// randomly drawn specs of *both* optimizer modes.
        #[test]
        fn job_spec_grammar_round_trips_both_modes(
            dataset_i in 0usize..4,
            records_set in proptest::prelude::any::<bool>(),
            records_n in 30usize..200,
            paper_suite in proptest::prelude::any::<bool>(),
            nsga_mode in proptest::prelude::any::<bool>(),
            mean_fitness in proptest::prelude::any::<bool>(),
            iters in 0usize..400,
            gens in 1usize..200,
            offspring in 0usize..40,
            xprob_pct in 0u8..=100,
            seed in proptest::prelude::any::<u64>(),
            drop_20th in 0u8..20,
            audit in proptest::prelude::any::<bool>(),
            inc_i in 0usize..4,
            islands in 1usize..=8,
            mig in 1usize..=50,
            obj_i in 0usize..4,
            eps_set in proptest::prelude::any::<bool>(),
            eps_20th in 1u8..=80,
        ) {
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
                audit,
                islands,
                mig,
                ..JobSpec::default()
            };
            if nsga_mode {
                spec.mode = SpecMode::Nsga;
                spec.gens = gens;
                spec.offspring = offspring;
                spec.xprob = f64::from(xprob_pct) / 100.0;
                // only the crossover path exists as an nsga inc value
                spec.inc = [IncMode::Off, IncMode::Crossover][inc_i % 2];
                // every legal extension of the canonical pair, plus the
                // ε-PRAM member knob (exact 20ths survive the float trip)
                const EXTENSIONS: [&[&str]; 4] = [&[], &["eps"], &["util"], &["eps", "util"]];
                spec.obj = EXTENSIONS[obj_i].iter().map(|k| (*k).to_string()).collect();
                spec.eps = eps_set.then(|| f64::from(eps_20th) / 20.0);
            } else {
                spec.fitness = if mean_fitness {
                    ScoreAggregator::Mean
                } else {
                    ScoreAggregator::Max
                };
                spec.iters = iters;
                spec.drop = f64::from(drop_20th) / 20.0;
                spec.inc = [IncMode::Off, IncMode::Mutation, IncMode::Crossover, IncMode::All]
                    [inc_i];
            }
            let text = spec.to_spec_string();
            let reparsed = JobSpec::parse(&text)
                .unwrap_or_else(|e| panic!("canonical `{text}` must parse: {e}"));
            proptest::prop_assert_eq!(&reparsed, &spec, "parse ∘ render: {}", text);
            let job = spec.to_job()
                .unwrap_or_else(|e| panic!("canonical `{text}` must build: {e}"));
            let back = JobSpec::from_job(&job)
                .unwrap_or_else(|e| panic!("job from `{text}` must serialize: {e}"));
            proptest::prop_assert_eq!(&back, &spec, "from_job ∘ to_job: {}", text);
        }
    }

    #[test]
    fn non_cli_expressible_jobs_are_reported() {
        let ds = cdp_dataset::generators::DatasetKind::Adult
            .generate(&cdp_dataset::generators::GeneratorConfig::seeded(1).with_records(30));
        let job = ProtectionJob::builder()
            .table(ds.table, ds.protected)
            .build()
            .unwrap();
        assert!(JobSpec::from_job(&job).is_err());

        let job = ProtectionJob::builder()
            .dataset(cdp_dataset::generators::DatasetKind::Adult)
            .methods(vec![Box::new(Pram::new(0.8, PramMode::Uniform))])
            .build()
            .unwrap();
        assert!(JobSpec::from_job(&job).is_err());

        // knobs outside the grammar must be reported, not silently dropped
        let adult = cdp_dataset::generators::DatasetKind::Adult;
        for (what, job) in [
            (
                "generator seed override",
                ProtectionJob::builder()
                    .dataset(adult)
                    .generator_seed(5)
                    .seed(42)
                    .build()
                    .unwrap(),
            ),
            (
                "sensitive audit attribute",
                ProtectionJob::builder()
                    .dataset(adult)
                    .audit_sensitive(["INCOME"])
                    .build()
                    .unwrap(),
            ),
            (
                "mutation rate",
                ProtectionJob::builder()
                    .dataset(adult)
                    .mutation_rate(0.9)
                    .build()
                    .unwrap(),
            ),
            (
                "metric config",
                ProtectionJob::builder()
                    .dataset(adult)
                    .metrics(cdp_metrics::MetricConfig {
                        prl_em_iters: 3,
                        ..cdp_metrics::MetricConfig::default()
                    })
                    .build()
                    .unwrap(),
            ),
            (
                "all-pairs linkage",
                ProtectionJob::builder()
                    .dataset(adult)
                    .metrics(cdp_metrics::MetricConfig {
                        linkage: cdp_metrics::LinkageMode::Pairs,
                        ..cdp_metrics::MetricConfig::default()
                    })
                    .build()
                    .unwrap(),
            ),
            (
                "nsga parallel_init override",
                ProtectionJob::builder()
                    .dataset(adult)
                    .nsga()
                    .parallel_init(false)
                    .build()
                    .unwrap(),
            ),
            (
                "migration size",
                ProtectionJob::builder()
                    .dataset(adult)
                    .migration_size(3)
                    .build()
                    .unwrap(),
            ),
            (
                "scalar ε-PRAM member",
                ProtectionJob::builder()
                    .dataset(adult)
                    .epsilon_pram(1.0)
                    .build()
                    .unwrap(),
            ),
            (
                "scalar stagnation window",
                ProtectionJob::builder()
                    .dataset(adult)
                    .stagnation(5)
                    .build()
                    .unwrap(),
            ),
        ] {
            let err = JobSpec::from_job(&job).unwrap_err();
            assert!(err.to_string().contains("not expressible"), "{what}: {err}");
        }
    }

    #[test]
    fn canonical_strings_are_pinned() {
        // echoed `job:` lines and wire specs are byte-stable: table order
        // is the canonical order, and keys at their defaults drop out
        for (text, canonical) in [
            (
                "seed=9 dataset=adult",
                "dataset=adult suite=small fitness=max iters=300 seed=9",
            ),
            (
                "dataset=flare suite=paper fitness=mean iters=250 seed=7 records=120 drop=0.05",
                "dataset=flare suite=paper fitness=mean iters=250 seed=7 records=120 drop=0.05",
            ),
            (
                "dataset=adult suite=small fitness=max iters=250 seed=4 inc=all",
                "dataset=adult suite=small fitness=max iters=250 seed=4",
            ),
            (
                "dataset=flare suite=paper fitness=mean iters=100 seed=5 inc=mut",
                "dataset=flare suite=paper fitness=mean iters=100 seed=5 inc=mut",
            ),
            (
                "dataset=adult suite=small fitness=max iters=100 seed=10 records=90 inc=xover audit=true",
                "dataset=adult suite=small fitness=max iters=100 seed=10 records=90 inc=xover audit=true",
            ),
            (
                "dataset=german suite=small fitness=mean iters=120 seed=14 islands=2 mig=5",
                "dataset=german suite=small fitness=mean iters=120 seed=14 islands=2 mig=5",
            ),
            (
                "dataset=housing suite=small mode=nsga gens=15 seed=7 inc=xover",
                "dataset=housing suite=small mode=nsga gens=15 seed=7",
            ),
            (
                "dataset=housing suite=small mode=nsga gens=15 seed=9 inc=off",
                "dataset=housing suite=small mode=nsga gens=15 seed=9 inc=off",
            ),
            (
                "dataset=german suite=small mode=nsga gens=15 seed=11 offspring=0 xprob=0.25 mig=6",
                "dataset=german suite=small mode=nsga gens=15 seed=11 xprob=0.25 mig=6",
            ),
            (
                "dataset=german suite=paper mode=nsga gens=25 seed=9 records=100 offspring=6",
                "dataset=german suite=paper mode=nsga gens=25 seed=9 records=100 offspring=6",
            ),
            (
                "eps=1.5 obj=il,dr,eps gens=5 mode=nsga dataset=adult",
                "dataset=adult suite=small mode=nsga gens=5 seed=42 obj=il,dr,eps eps=1.5",
            ),
            (
                "dataset=flare suite=small mode=nsga gens=8 seed=19 obj=il,dr,eps,util eps=0.75 audit=true",
                "dataset=flare suite=small mode=nsga gens=8 seed=19 obj=il,dr,eps,util eps=0.75 audit=true",
            ),
            (
                "dataset=flare suite=paper mode=nsga gens=30 seed=16 islands=2 mig=4 audit=true",
                "dataset=flare suite=paper mode=nsga gens=30 seed=16 islands=2 mig=4 audit=true",
            ),
            (
                "audit=false dataset=housing mode=nsga islands=1 mig=10 offspring=0 xprob=0.5 records=7 seed=0 gens=1",
                "dataset=housing suite=small mode=nsga gens=1 seed=0 records=7",
            ),
        ] {
            assert_eq!(JobSpec::parse(text).unwrap().to_spec_string(), canonical);
        }
    }

    #[test]
    fn bad_values_name_the_key_and_its_accepted_values() {
        for (text, needles) in [
            (
                "dataset=adult fitness=min",
                ["`fitness`", "`min`", "<mean|max>"],
            ),
            (
                "dataset=adult suite=huge",
                ["`suite`", "`huge`", "<small|paper>"],
            ),
            ("dataset=adult mode=nsga gens=x", ["`gens`", "`x`", "<n>"]),
        ] {
            let err = JobSpec::parse(text).unwrap_err().to_string();
            for needle in needles {
                assert!(err.contains(needle), "{text}: {err}");
            }
        }
        let err = JobSpec::parse("dataset=adult foo=1")
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown key `foo`"), "{err}");
    }

    #[test]
    fn optimize_usage_lists_every_key() {
        let usage = crate::usage_of("optimize").unwrap();
        for key in KEYS {
            let line = format!("  {}={}", key.name, key.values);
            assert!(usage.contains(&line), "usage lacks `{line}`");
        }
    }

    #[test]
    fn rejects_unknown_and_malformed() {
        for spec in [
            "nope:1",
            "microagg",
            "microagg:x",
            "microagg:3:diag",
            "microagg:3:uni:avg",
            "pram",
            "pram:0.5:weird",
            "rankswap:0.5:extra",
            "suppress:abc",
        ] {
            match parse_method(spec) {
                Ok(m) => panic!("{spec} unexpectedly parsed as {}", m.name()),
                Err(err) => assert!(
                    err.to_string().contains("accepted methods"),
                    "{spec} should fail with grammar help"
                ),
            }
        }
    }
}
