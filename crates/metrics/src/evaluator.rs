//! The fitness evaluator: one struct owning every cached statistic needed
//! to assess a masked file, plus a patch-based delta-evaluation engine
//! whose results are **bit-identical** to a full assessment.
//!
//! The paper reports that fitness evaluation consumes 99.98% of a
//! generation's wall time and names faster IL/DR computation as future
//! work. Three levers are implemented here:
//!
//! 1. **Original-side caching** — ranks, marginals, contingency tables and
//!    chance-agreement probabilities of the original file are computed once
//!    per experiment ([`PreparedOriginal`]), and shared across every
//!    evaluation against that original.
//! 2. **Patch-based re-assessment** — [`Evaluator::reassess`] updates an
//!    [`EvalState`] after an arbitrary [`Patch`] of cell changes (a
//!    mutation's single cell, or a crossover's flattened segment) instead
//!    of re-scoring the whole file. Every measure derives from *integer*
//!    sufficient statistics that admit exact deltas: CTBIL/DBIL/EBIL/ID
//!    per changed cell (pair tables are corrected per touched *row* so
//!    simultaneous changes to two attributes of one record stay exact),
//!    DBRL by relinking the touched records (links are per-masked-record
//!    independent), PRL from per-record agreement-pattern histograms
//!    ([`crate::linkage::PatternCensus`]: touched rows rebuild in O(n·a),
//!    the Fellegi–Sunter model refits from the summed census — identical
//!    to a from-scratch fit — and all credits recompute in O(n·2^a)), and
//!    RSRL by re-crediting exactly the records whose rank windows moved
//!    ([`MaskedStats::apply_patch`] reports every midrank shift, touched
//!    row or not). A patched state therefore equals the full recompute
//!    bit for bit — no frozen-weights or stale-midrank approximation, no
//!    drift to bound. Each call returns an owned state: the parent's state
//!    is cloned once, then patched in place.
//! 3. **Blocked linkage** — with [`LinkageMode::Blocked`] (the default),
//!    DBRL and RSRL scan the *distinct patterns* of a [`PatternIndex`]
//!    instead of all `n²` record pairs, and the PRL census is built the
//!    same way; the state carries a masked-side index that every patch
//!    moves rows through ([`PatternIndex::move_row`]), so the delta path
//!    and the full path stay on the same sufficient statistics. Credits
//!    are `assert_eq!`-identical to [`LinkageMode::Pairs`] — see
//!    [`crate::linkage`] for the exactness argument.
//!
//! A single-cell mutation is the one-cell patch
//! `Patch::cell(row, k, old)` handed to [`Evaluator::reassess`]; it runs
//! through the same patch engine as a crossover segment.

use std::collections::HashMap;

use cdp_dataset::{Code, PatternId, PatternIndex, SubTable};

use crate::contingency::ContingencyTables;
use crate::dr::{cell_disclosed, disclosed_counts, id_value};
use crate::il::{
    build_confusion, dbil_accs, dbil_sum_from_accs, dbil_value, ebil_from_confusion,
    update_confusion,
};
use crate::linkage::{
    compatible_categories, count_candidates, credits_value, dbrl_credit, dbrl_credits,
    dbrl_credits_blocked, pattern_link, pattern_to_row_distance, rsrl_credit, rsrl_credits,
    rsrl_credits_blocked, self_compatible, PatternCensus, PrlModel, DIST_EPS,
};
use crate::patch::Patch;
use crate::prepared::{MaskedStats, MovedCategory, PreparedOriginal};
use crate::score::ScoreAggregator;
use crate::{MetricError, Result};

/// Which implementation computes the DBRL and RSRL credits.
///
/// Both produce `assert_eq!`-identical credits (the blocked scans are
/// property-tested against the all-pairs references, patch path included);
/// the choice only trades scan shape:
///
/// * [`LinkageMode::Pairs`] — the textbook `O(n²·a)` scans over all
///   original–masked record pairs;
/// * [`LinkageMode::Blocked`] — the [`PatternIndex`]-based scans over
///   *distinct* patterns, `O(n·a + p_m·p_o·a)` with `p ≤ Π_k c_k`
///   independent of the row count.
///
/// PRL always derives from the pattern census (itself index-built — the
/// census is identical integers either way), so this knob does not affect
/// it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum LinkageMode {
    /// All-pairs reference scans.
    Pairs,
    /// Pattern-index (blocked) scans — the default.
    #[default]
    Blocked,
}

/// Most protected attributes an evaluator accepts: the PRL pattern census
/// keeps `2^a` agreement-pattern bins per masked pattern.
const MAX_ATTRS: usize = 20;

/// Reject originals wider than `MAX_ATTRS`.
fn check_attr_count(n_attrs: usize) -> Result<()> {
    if n_attrs > MAX_ATTRS {
        return Err(MetricError::ShapeMismatch(format!(
            "{n_attrs} protected attributes; at most {MAX_ATTRS} are supported \
             (the PRL census keeps 2^a agreement-pattern bins)"
        )));
    }
    Ok(())
}

/// Headline numbers of a state whose statistics are not summarized yet;
/// [`Evaluator::assess`] overwrites them at once.
const UNSCORED: Assessment = Assessment {
    il_parts: IlBreakdown {
        ctbil: f64::NAN,
        dbil: f64::NAN,
        ebil: f64::NAN,
    },
    dr_parts: DrBreakdown {
        id: f64::NAN,
        dbrl: f64::NAN,
        prl: f64::NAN,
        rsrl: f64::NAN,
    },
};

/// Tunable measure parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricConfig {
    /// Interval-disclosure half-width as a fraction of the category range.
    pub interval_fraction: f64,
    /// The RSRL intruder's assumed swap window, fraction of records.
    pub rsrl_window_fraction: f64,
    /// EM iterations for the Fellegi–Sunter fit.
    pub prl_em_iters: usize,
    /// DBRL/RSRL scan implementation (identical results either way).
    pub linkage: LinkageMode,
}

impl Default for MetricConfig {
    fn default() -> Self {
        MetricConfig {
            interval_fraction: 0.1,
            rsrl_window_fraction: 0.05,
            prl_em_iters: 15,
            linkage: LinkageMode::default(),
        }
    }
}

impl MetricConfig {
    fn validate(&self) -> Result<()> {
        if !(self.interval_fraction > 0.0 && self.interval_fraction < 1.0) {
            return Err(MetricError::InvalidConfig(format!(
                "interval_fraction must lie in (0,1), got {}",
                self.interval_fraction
            )));
        }
        if !(self.rsrl_window_fraction > 0.0 && self.rsrl_window_fraction <= 1.0) {
            return Err(MetricError::InvalidConfig(format!(
                "rsrl_window_fraction must lie in (0,1], got {}",
                self.rsrl_window_fraction
            )));
        }
        if self.prl_em_iters == 0 {
            return Err(MetricError::InvalidConfig(
                "prl_em_iters must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// The three information-loss components, each in `[0, 100]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IlBreakdown {
    /// Contingency-table-based IL.
    pub ctbil: f64,
    /// Distance-based IL.
    pub dbil: f64,
    /// Entropy-based IL.
    pub ebil: f64,
}

impl IlBreakdown {
    /// The paper's IL: the mean of the three measures.
    pub fn value(&self) -> f64 {
        (self.ctbil + self.dbil + self.ebil) / 3.0
    }
}

/// The four disclosure-risk components, each in `[0, 100]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrBreakdown {
    /// Interval disclosure.
    pub id: f64,
    /// Distance-based record linkage.
    pub dbrl: f64,
    /// Probabilistic record linkage.
    pub prl: f64,
    /// Rank-swapping-aware record linkage.
    pub rsrl: f64,
}

impl DrBreakdown {
    /// The paper's DR: the mean of the four measures.
    pub fn value(&self) -> f64 {
        (self.id + self.dbrl + self.prl + self.rsrl) / 4.0
    }
}

/// A complete (IL, DR) assessment of one masked file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Assessment {
    /// Information-loss components.
    pub il_parts: IlBreakdown,
    /// Disclosure-risk components.
    pub dr_parts: DrBreakdown,
}

impl Assessment {
    /// Aggregated information loss.
    pub fn il(&self) -> f64 {
        self.il_parts.value()
    }

    /// Aggregated disclosure risk.
    pub fn dr(&self) -> f64 {
        self.dr_parts.value()
    }

    /// Fitness score under an aggregator.
    pub fn score(&self, agg: ScoreAggregator) -> f64 {
        agg.score(self.il(), self.dr())
    }
}

/// An assessment together with the sufficient statistics that make
/// patch-based updates cheap.
///
/// Memory: dominated by the PRL pattern histograms, `n_rows · 2^a` `u32`s
/// (`a` = protected attributes; 32 KB per state at the paper's 1000×3
/// shape). The histograms also serve the *full* assessment — credits sweep
/// them in O(n·2^a) instead of re-scanning all n² pairs — so the footprint
/// buys speed even in `inc=off` runs that never patch.
///
/// Every state is owned: [`Evaluator::assess`] builds one, and
/// [`Evaluator::reassess`] clones its parent's and patches the copy.
#[derive(Debug, Clone)]
pub struct EvalState {
    /// The headline numbers.
    pub assessment: Assessment,
    masked_tables: ContingencyTables,
    dbil_accs: Vec<u64>,
    confusion: Vec<Vec<u32>>,
    id_counts: Vec<u32>,
    masked_stats: MaskedStats,
    /// Distinct-pattern index of the masked file, patched row-by-row as
    /// cells change. Maintained in both linkage modes: the PRL census is
    /// keyed by its pattern ids.
    masked_index: PatternIndex,
    pattern_census: PatternCensus,
    prl_model: PrlModel,
    dbrl_credits: Vec<f64>,
    prl_credits: Vec<f64>,
    rsrl_credits: Vec<f64>,
}

impl EvalState {
    /// The per-attribute original→masked confusion matrices
    /// (`conf[k][o*c + v]`, `c` = category count of attribute `k`) — the
    /// channel view the ε-leakage objective reads.
    pub(crate) fn confusion(&self) -> &[Vec<u32>] {
        &self.confusion
    }

    /// The masked file's contingency tables — the training side of the
    /// task-utility objective.
    pub(crate) fn masked_tables(&self) -> &ContingencyTables {
        &self.masked_tables
    }
}

/// Fitness evaluator bound to one original file.
#[derive(Debug, Clone)]
pub struct Evaluator {
    prep: PreparedOriginal,
    cfg: MetricConfig,
}

impl Evaluator {
    /// Prepare the evaluator for an original protected sub-table.
    ///
    /// # Errors
    /// [`MetricError::InvalidConfig`] for out-of-range parameters;
    /// [`MetricError::ShapeMismatch`] for more than 20 protected attributes
    /// (checked before any preparation work).
    pub fn new(original: &SubTable, cfg: MetricConfig) -> Result<Self> {
        cfg.validate()?;
        check_attr_count(original.n_attrs())?;
        Ok(Evaluator {
            prep: PreparedOriginal::new(original),
            cfg,
        })
    }

    /// Bind an already-prepared original (a snapshot rehydration) to a
    /// configuration. The config is re-validated; the preparation is
    /// adopted verbatim, so an evaluator rebuilt this way assesses
    /// bit-identically to one built by [`Evaluator::new`].
    pub(crate) fn from_prepared(prep: PreparedOriginal, cfg: MetricConfig) -> Result<Self> {
        cfg.validate()?;
        check_attr_count(prep.n_attrs())?;
        Ok(Evaluator { prep, cfg })
    }

    /// Approximate heap footprint of the retained preparation, in bytes
    /// (see [`PreparedOriginal::approx_bytes`]).
    pub fn approx_bytes(&self) -> usize {
        self.prep.approx_bytes()
    }

    /// The prepared original statistics.
    pub fn prepared(&self) -> &PreparedOriginal {
        &self.prep
    }

    /// The original protected columns.
    pub fn original(&self) -> &SubTable {
        self.prep.orig()
    }

    /// The active configuration.
    pub fn config(&self) -> &MetricConfig {
        &self.cfg
    }

    /// The intruder's RSRL rank window in absolute positions.
    fn rsrl_window(&self) -> f64 {
        (self.cfg.rsrl_window_fraction * self.prep.n_rows() as f64).max(1.0)
    }

    /// Full assessment without retaining caches.
    ///
    /// # Panics
    /// Panics when `masked` has a different shape than the original — use
    /// [`PreparedOriginal::check_compatible`] on untrusted input.
    pub fn evaluate(&self, masked: &SubTable) -> Assessment {
        self.assess(masked).assessment
    }

    /// Full assessment, retaining the sufficient statistics for
    /// [`Evaluator::reassess`].
    pub fn assess(&self, masked: &SubTable) -> EvalState {
        debug_assert!(self.prep.check_compatible(masked).is_ok());
        let prep = &self.prep;

        let masked_tables = ContingencyTables::build(masked);
        let accs = dbil_accs(prep, masked);
        let confusion = build_confusion(prep, masked);
        let id_counts = disclosed_counts(prep, masked, self.cfg.interval_fraction);
        let masked_stats = MaskedStats::build(prep, masked);
        let masked_index = PatternIndex::build(masked);
        let pattern_census = PatternCensus::build(prep, masked, &masked_index);
        let prl_model =
            PrlModel::fit_from_counts(prep, pattern_census.counts(), self.cfg.prl_em_iters);

        let dbrl_cr = match self.cfg.linkage {
            LinkageMode::Pairs => dbrl_credits(prep, masked),
            LinkageMode::Blocked => dbrl_credits_blocked(prep, masked, &masked_index),
        };
        let prl_cr = pattern_census.credits(&prl_model, &masked_index);
        let rsrl_cr = match self.cfg.linkage {
            LinkageMode::Pairs => rsrl_credits(prep, &masked_stats, masked, self.rsrl_window()),
            LinkageMode::Blocked => {
                rsrl_credits_blocked(prep, &masked_stats, &masked_index, self.rsrl_window())
            }
        };

        let mut state = EvalState {
            assessment: UNSCORED,
            masked_tables,
            dbil_accs: accs,
            confusion,
            id_counts,
            masked_stats,
            masked_index,
            pattern_census,
            prl_model,
            dbrl_credits: dbrl_cr,
            prl_credits: prl_cr,
            rsrl_credits: rsrl_cr,
        };
        self.refresh_assessment(&mut state);
        state
    }

    /// Re-assess after an arbitrary set of cell changes.
    ///
    /// `masked` must already contain the new values; `patch` names the
    /// changed cells with their previous values. Every measure is updated
    /// exactly — the result is bit-identical to [`Evaluator::assess`] on
    /// the same file (see the module docs for how each linkage measure
    /// achieves this). Cells whose old value equals the masked value are
    /// skipped, so crossover segments may be handed over verbatim.
    pub fn reassess(&self, prev: &EvalState, masked: &SubTable, patch: &Patch) -> EvalState {
        let mut out = prev.clone();
        self.apply_patch(masked, patch, &mut out);
        out
    }

    /// One changed cell's exact integer deltas: DBIL accumulator, the EBIL
    /// confusion channel, and interval disclosure.
    fn apply_cell_deltas(&self, state: &mut EvalState, row: usize, k: usize, old: Code, new: Code) {
        let prep = &self.prep;
        let orig = prep.orig().get(row, k);
        if prep.is_ordinal(k) {
            state.dbil_accs[k] += u64::from(orig.abs_diff(new));
            state.dbil_accs[k] -= u64::from(orig.abs_diff(old));
        } else {
            state.dbil_accs[k] += u64::from(orig != new);
            state.dbil_accs[k] -= u64::from(orig != old);
        }
        update_confusion(&mut state.confusion, prep, row, k, old, new);
        let was = cell_disclosed(prep, k, orig, old, self.cfg.interval_fraction);
        let is = cell_disclosed(prep, k, orig, new, self.cfg.interval_fraction);
        match (was, is) {
            (true, false) => state.id_counts[k] -= 1,
            (false, true) => state.id_counts[k] += 1,
            _ => {}
        }
    }

    /// Move every touched row to its new bucket in the masked pattern
    /// index, shifting the PRL census by the corresponding histogram
    /// differences. Must run *after* `masked` holds the new values and
    /// before [`Evaluator::relink`] reads the index.
    fn repattern(&self, masked: &SubTable, touched_rows: &[usize], state: &mut EvalState) {
        let prep = &self.prep;
        let mut buf = vec![0 as Code; prep.n_attrs()];
        for &row in touched_rows {
            masked.read_row(row, &mut buf);
            let (old_pid, new_pid) = state.masked_index.move_row(row, &buf);
            state.pattern_census.row_moved(
                prep,
                masked,
                &state.masked_index,
                row,
                old_pid,
                new_pid,
            );
        }
    }

    /// Exact relinking after the sufficient statistics (including the
    /// masked pattern index and census — see [`Evaluator::repattern`])
    /// moved: PRL refits from the census and re-credits every record from
    /// integer pattern data, DBRL relinks the touched rows, and RSRL
    /// re-credits the touched rows plus every record holding a category
    /// whose rank window changed. DBRL/RSRL re-credits go through the
    /// configured [`LinkageMode`] backend; in blocked mode, touched rows
    /// sharing a masked pattern share one pattern-level link.
    fn relink(
        &self,
        masked: &SubTable,
        touched_rows: &[usize],
        moved: &[MovedCategory],
        state: &mut EvalState,
    ) {
        let prep = &self.prep;

        // PRL: the census already moved with the index; an EM refit over
        // 2^a patterns and an O(n·2^a) credit sweep — bit-identical to a
        // full fit+link, because census and histograms are identical
        // integers
        state.prl_model.refit_from_counts(
            prep,
            state.pattern_census.counts(),
            self.cfg.prl_em_iters,
        );
        state.pattern_census.credits_into(
            &state.prl_model,
            &state.masked_index,
            &mut state.prl_credits,
        );

        // DBRL: per-masked-record independent, touched rows only
        match self.cfg.linkage {
            LinkageMode::Pairs => {
                for &row in touched_rows {
                    state.dbrl_credits[row] = dbrl_credit(prep, masked, row);
                }
            }
            LinkageMode::Blocked => {
                let mut links: HashMap<PatternId, (f64, u64)> = HashMap::new();
                let mut q = vec![0 as Code; prep.n_attrs()];
                for &row in touched_rows {
                    masked.read_row(row, &mut q);
                    let pid = state.masked_index.pattern_of(row);
                    let (best, ties) = *links.entry(pid).or_insert_with(|| pattern_link(prep, &q));
                    let d_self = pattern_to_row_distance(prep, &q, row);
                    state.dbrl_credits[row] = if (d_self - best).abs() <= DIST_EPS && ties > 0 {
                        1.0 / ties as f64
                    } else {
                        0.0
                    };
                }
            }
        }

        // RSRL: a midrank move only matters when it changes the window's
        // category-compatibility set; re-credit exactly the holders of the
        // categories whose set changed (plus the touched rows themselves)
        let window = self.rsrl_window();
        let mut recredit = vec![false; prep.n_rows()];
        for &row in touched_rows {
            recredit[row] = true;
        }
        for mc in moved {
            let unchanged = (mc.old_midrank.is_nan() && mc.new_midrank.is_nan())
                || mc.old_midrank == mc.new_midrank;
            if unchanged {
                continue;
            }
            let before = compatible_categories(prep, mc.attr, mc.old_midrank, window);
            let after = compatible_categories(prep, mc.attr, mc.new_midrank, window);
            if before == after {
                continue;
            }
            for (i, &v) in masked.column(mc.attr).iter().enumerate() {
                if v == mc.cat {
                    recredit[i] = true;
                }
            }
        }
        match self.cfg.linkage {
            LinkageMode::Pairs => {
                for (i, &due) in recredit.iter().enumerate() {
                    if due {
                        state.rsrl_credits[i] =
                            rsrl_credit(prep, &state.masked_stats, masked, i, window);
                    }
                }
            }
            LinkageMode::Blocked => {
                let mut pools: HashMap<PatternId, (u64, Vec<Vec<bool>>)> = HashMap::new();
                for (i, &due) in recredit.iter().enumerate() {
                    if !due {
                        continue;
                    }
                    let pid = state.masked_index.pattern_of(i);
                    let (candidates, compat) = pools.entry(pid).or_insert_with(|| {
                        let q = state.masked_index.codes_of(pid);
                        let compat: Vec<Vec<bool>> = (0..prep.n_attrs())
                            .map(|k| {
                                compatible_categories(
                                    prep,
                                    k,
                                    state.masked_stats.midrank(k, q[k]),
                                    window,
                                )
                            })
                            .collect();
                        (count_candidates(prep, &compat), compat)
                    });
                    state.rsrl_credits[i] = if *candidates > 0 && self_compatible(prep, compat, i) {
                        1.0 / *candidates as f64
                    } else {
                        0.0
                    };
                }
            }
        }

        self.refresh_assessment(state);
    }

    /// The patch engine: update `state` (already a copy of the pre-patch
    /// state) in place.
    fn apply_patch(&self, masked: &SubTable, patch: &Patch, state: &mut EvalState) {
        let prep = &self.prep;
        let mut cells = patch.resolve(prep.n_attrs());
        cells.sort_unstable_by_key(|c| (c.row, c.attr));
        // a duplicated cell would double-apply every integer delta below,
        // silently corrupting counts that the bit-exactness contract builds
        // on — the cells are already sorted, so the check is one cheap pass
        assert!(
            cells
                .windows(2)
                .all(|w| (w[0].row, w[0].attr) != (w[1].row, w[1].attr)),
            "patch names the same cell twice"
        );

        // effective changes only: a patch may name cells that kept their value
        let changed: Vec<(usize, usize, Code, Code)> = cells
            .iter()
            .filter_map(|c| {
                let new = masked.get(c.row, c.attr);
                (new != c.old).then_some((c.row, c.attr, c.old, new))
            })
            .collect();
        if changed.is_empty() {
            return;
        }

        // exact per-cell updates: DBIL, the EBIL confusion channel, and
        // interval disclosure
        for &(row, k, old, new) in &changed {
            self.apply_cell_deltas(state, row, k, old, new);
        }

        // exact contingency updates, one batched call per touched row (so
        // two attributes changing in one record keep the pair tables exact)
        let mut touched_rows: Vec<usize> = Vec::new();
        let mut row_buf: Vec<(usize, Code)> = Vec::with_capacity(prep.n_attrs());
        let mut i = 0;
        while i < changed.len() {
            let row = changed[i].0;
            row_buf.clear();
            while i < changed.len() && changed[i].0 == row {
                row_buf.push((changed[i].1, changed[i].2));
                i += 1;
            }
            state.masked_tables.apply_row_patch(masked, row, &row_buf);
            touched_rows.push(row);
        }

        // masked-side rank statistics: one rank rebuild per touched
        // attribute, reporting every midrank that moved
        let moved = state
            .masked_stats
            .apply_patch(prep, changed.iter().map(|&(_, k, old, new)| (k, old, new)));

        self.repattern(masked, &touched_rows, state);
        self.relink(masked, &touched_rows, &moved, state);
    }

    /// Recompute the headline numbers from the (already updated)
    /// sufficient statistics — the one place statistics become an
    /// [`Assessment`], for full and patched states alike.
    fn refresh_assessment(&self, state: &mut EvalState) {
        let prep = &self.prep;
        state.assessment = Assessment {
            il_parts: IlBreakdown {
                ctbil: prep.tables().distance(&state.masked_tables),
                dbil: dbil_value(
                    dbil_sum_from_accs(prep, &state.dbil_accs),
                    prep.n_rows(),
                    prep.n_attrs(),
                ),
                ebil: ebil_from_confusion(prep, &state.confusion),
            },
            dr_parts: DrBreakdown {
                id: id_value(prep, &state.id_counts),
                dbrl: credits_value(&state.dbrl_credits),
                prl: credits_value(&state.prl_credits),
                rsrl: credits_value(&state.rsrl_credits),
            },
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patch::PatchCell;
    use cdp_dataset::generators::{DatasetKind, GeneratorConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup(n: usize) -> (Evaluator, SubTable) {
        let s = DatasetKind::Adult
            .generate(&GeneratorConfig::seeded(10).with_records(n))
            .protected_subtable();
        let ev = Evaluator::new(&s, MetricConfig::default()).unwrap();
        (ev, s)
    }

    #[test]
    fn identity_extremes() {
        let (ev, s) = setup(120);
        let a = ev.evaluate(&s);
        assert!(a.il() < 1e-9, "identity IL must be 0, got {}", a.il());
        assert!(a.dr() > 50.0, "identity DR must be high, got {}", a.dr());
        assert_eq!(a.dr_parts.id, 100.0);
    }

    #[test]
    fn all_measures_stay_in_range() {
        let (ev, s) = setup(100);
        let mut rng = StdRng::seed_from_u64(4);
        let mut m = s.clone();
        for k in 0..m.n_attrs() {
            let c = ev.prepared().cats(k) as u16;
            for r in 0..m.n_rows() {
                if rng.gen_bool(0.5) {
                    m.set(r, k, rng.gen_range(0..c));
                }
            }
        }
        let a = ev.evaluate(&m);
        for v in [
            a.il_parts.ctbil,
            a.il_parts.dbil,
            a.il_parts.ebil,
            a.dr_parts.id,
            a.dr_parts.dbrl,
            a.dr_parts.prl,
            a.dr_parts.rsrl,
        ] {
            assert!((0.0..=100.0).contains(&v), "out of range: {v}");
        }
    }

    #[test]
    fn randomization_trades_il_for_dr() {
        let (ev, s) = setup(100);
        let mut rng = StdRng::seed_from_u64(5);
        let mut m = s.clone();
        for k in 0..m.n_attrs() {
            let c = ev.prepared().cats(k) as u16;
            for r in 0..m.n_rows() {
                m.set(r, k, rng.gen_range(0..c));
            }
        }
        let clear = ev.evaluate(&s);
        let noisy = ev.evaluate(&m);
        assert!(noisy.il() > clear.il());
        assert!(noisy.dr() < clear.dr());
    }

    #[test]
    fn score_uses_aggregator() {
        let (ev, s) = setup(80);
        let a = ev.evaluate(&s);
        assert!((a.score(ScoreAggregator::Mean) - (a.il() + a.dr()) / 2.0).abs() < 1e-12);
        assert!((a.score(ScoreAggregator::Max) - a.il().max(a.dr())).abs() < 1e-12);
    }

    #[test]
    fn invalid_config_rejected() {
        let (_, s) = setup(40);
        for cfg in [
            MetricConfig {
                interval_fraction: 0.0,
                ..MetricConfig::default()
            },
            MetricConfig {
                rsrl_window_fraction: 0.0,
                ..MetricConfig::default()
            },
            MetricConfig {
                prl_em_iters: 0,
                ..MetricConfig::default()
            },
        ] {
            assert!(Evaluator::new(&s, cfg).is_err());
        }
    }

    #[test]
    fn incremental_il_and_id_are_exact() {
        let (ev, s) = setup(90);
        let mut rng = StdRng::seed_from_u64(6);
        let mut m = s.clone();
        let mut state = ev.assess(&m);
        for _ in 0..25 {
            let row = rng.gen_range(0..m.n_rows());
            let k = rng.gen_range(0..m.n_attrs());
            let c = ev.prepared().cats(k) as u16;
            let old = m.get(row, k);
            m.set(row, k, rng.gen_range(0..c));
            state = ev.reassess(&state, &m, &Patch::cell(row, k, old));
        }
        let full = ev.assess(&m);
        // every measure is bit-identical after a 25-mutation chain
        assert_eq!(state.assessment, full.assessment);
    }

    #[test]
    fn incremental_linkage_matches_full_exactly() {
        let (ev, s) = setup(90);
        let mut rng = StdRng::seed_from_u64(7);
        let mut m = s.clone();
        let mut state = ev.assess(&m);
        for _ in 0..10 {
            let row = rng.gen_range(0..m.n_rows());
            let k = rng.gen_range(0..m.n_attrs());
            let c = ev.prepared().cats(k) as u16;
            let old = m.get(row, k);
            m.set(row, k, rng.gen_range(0..c));
            state = ev.reassess(&state, &m, &Patch::cell(row, k, old));
        }
        let full = ev.assess(&m);
        // PRL refits from the patched census and RSRL re-credits every
        // record whose rank window moved: zero drift, bit for bit
        assert_eq!(state.assessment.dr_parts.prl, full.assessment.dr_parts.prl);
        assert_eq!(
            state.assessment.dr_parts.rsrl,
            full.assessment.dr_parts.rsrl
        );
        assert_eq!(state.assessment, full.assessment);
    }

    #[test]
    fn noop_mutation_changes_nothing() {
        let (ev, s) = setup(60);
        let state = ev.assess(&s);
        let same = ev.reassess(&state, &s, &Patch::cell(5, 1, s.get(5, 1)));
        assert_eq!(state.assessment, same.assessment);
    }

    #[test]
    fn multi_cell_patch_matches_full_exactly() {
        let (ev, s) = setup(90);
        let mut rng = StdRng::seed_from_u64(11);
        let mut m = s.clone();
        let state = ev.assess(&m);
        // one patch carrying 30 random cell changes, including same-row pairs
        let mut cells = Vec::new();
        let mut seen = std::collections::HashSet::new();
        while cells.len() < 30 {
            let row = rng.gen_range(0..m.n_rows());
            let k = rng.gen_range(0..m.n_attrs());
            if !seen.insert((row, k)) {
                continue;
            }
            let c = ev.prepared().cats(k) as u16;
            let old = m.get(row, k);
            m.set(row, k, rng.gen_range(0..c));
            cells.push(PatchCell { row, attr: k, old });
        }
        let patched = ev.reassess(&state, &m, &Patch::from_cells(cells));
        let full = ev.assess(&m);
        assert_eq!(patched.assessment, full.assessment);
    }

    #[test]
    fn patch_that_empties_categories_stays_exact() {
        // drive whole categories out of (and back into) the masked file in
        // one patch: the midrank of an absent category is a NaN sentinel,
        // and the moved-category report must still re-credit exactly the
        // right records
        let (ev, s) = setup(80);
        let mut m = s.clone();
        let state = ev.assess(&m);
        let mut cells = Vec::new();
        for row in 0..m.n_rows() {
            let old = m.get(row, 0);
            if old != 0 {
                m.set(row, 0, 0);
                cells.push(PatchCell { row, attr: 0, old });
            }
        }
        assert!(!cells.is_empty(), "attribute 0 must have spread values");
        let collapsed = ev.reassess(&state, &m, &Patch::from_cells(cells));
        assert_eq!(collapsed.assessment, ev.assess(&m).assessment);
    }

    #[test]
    fn reassess_chains_from_states_of_any_provenance() {
        let (ev, s) = setup(70);
        let mut m = s.clone();
        let state = ev.assess(&m);
        let old = m.get(3, 0);
        m.set(3, 0, (old + 5) % ev.prepared().cats(0) as u16);
        let first = ev.reassess(&state, &m, &Patch::cell(3, 0, old));
        assert_eq!(first.assessment, ev.assess(&m).assessment);
        // a second patch chained onto the patched state
        let old2 = m.get(9, 2);
        m.set(9, 2, (old2 + 1) % ev.prepared().cats(2) as u16);
        let patch2 = Patch::cell(9, 2, old2);
        let chained = ev.reassess(&first, &m, &patch2);
        assert_eq!(chained.assessment, ev.assess(&m).assessment);
        // the same patch from a fully assessed state of the intermediate
        // file: provenance of the parent state must not matter
        let mut mid = m.clone();
        mid.set(9, 2, old2);
        let from_full = ev.reassess(&ev.assess(&mid), &m, &patch2);
        assert_eq!(from_full.assessment, chained.assessment);
    }

    #[test]
    fn one_cell_patches_of_every_shape_match_full() {
        let (ev, s) = setup(70);
        let state = ev.assess(&s);
        let a = s.n_attrs();
        let (row, k) = (11, 1);
        let old = s.get(row, k);
        let mut m = s.clone();
        m.set(row, k, (old + 3) % ev.prepared().cats(k) as u16);
        assert_ne!(m.get(row, k), old, "the cell must change");
        let full = ev.assess(&m).assessment;
        let p = row * a + k;
        for patch in [
            Patch::cell(row, k, old),
            Patch::from_cells(vec![PatchCell { row, attr: k, old }]),
            Patch::flat_range(p, p, vec![old]),
        ] {
            assert_eq!(ev.reassess(&state, &m, &patch).assessment, full);
        }
        // a one-cell patch naming a cell that kept its value is a no-op
        let same = ev.reassess(&state, &s, &Patch::cell(row, k, old));
        assert_eq!(same.assessment, state.assessment);
    }

    #[test]
    fn more_than_twenty_attributes_is_a_typed_error() {
        use cdp_dataset::{Attribute, Schema};
        use std::sync::Arc;
        let wide = |a: usize| {
            let attrs = (0..a).map(|k| Attribute::nominal(format!("a{k}"), 2));
            let schema = Arc::new(Schema::new(attrs.collect()).unwrap());
            SubTable::new(schema, (0..a).collect(), vec![vec![0, 1, 0, 1]; a]).unwrap()
        };
        match Evaluator::new(&wide(21), MetricConfig::default()) {
            Err(MetricError::ShapeMismatch(msg)) => {
                assert!(msg.contains("at most 20"), "{msg}")
            }
            other => panic!("expected a shape error, got {other:?}"),
        }
        assert!(Evaluator::new(&wide(20), MetricConfig::default()).is_ok());
    }

    #[test]
    fn crossover_segment_patch_matches_full_exactly() {
        // mirror of incremental_linkage_matches_full_exactly for the
        // segment shape: swap a flattened range in from a second file,
        // reassess via a flat-range patch, compare against the full
        // recompute — bit for bit, linkage measures included
        let (ev, s) = setup(90);
        let mut rng = StdRng::seed_from_u64(13);
        let mut other = s.clone();
        for k in 0..other.n_attrs() {
            let c = ev.prepared().cats(k) as u16;
            for r in 0..other.n_rows() {
                if rng.gen_bool(0.5) {
                    other.set(r, k, rng.gen_range(0..c));
                }
            }
        }
        let state = ev.assess(&s);
        let flat = s.flat_len();
        let (a, b) = (flat / 5, flat / 2);
        let old_values: Vec<Code> = (a..=b).map(|p| s.get_flat(p)).collect();
        let mut child = s.clone();
        for p in a..=b {
            child.set_flat(p, other.get_flat(p));
        }
        let patched = ev.reassess(&state, &child, &Patch::flat_range(a, b, old_values));
        let full = ev.assess(&child);
        assert_eq!(patched.assessment, full.assessment);
    }

    #[test]
    fn all_noop_patch_returns_prev_exactly() {
        let (ev, s) = setup(50);
        let state = ev.assess(&s);
        let old_values: Vec<Code> = (0..6).map(|p| s.get_flat(p)).collect();
        let same = ev.reassess(&state, &s, &Patch::flat_range(0, 5, old_values));
        assert_eq!(state.assessment, same.assessment);
    }

    #[test]
    fn breakdown_values_average_components() {
        let il = IlBreakdown {
            ctbil: 30.0,
            dbil: 60.0,
            ebil: 90.0,
        };
        assert!((il.value() - 60.0).abs() < 1e-12);
        let dr = DrBreakdown {
            id: 10.0,
            dbrl: 20.0,
            prl: 30.0,
            rsrl: 40.0,
        };
        assert!((dr.value() - 25.0).abs() < 1e-12);
    }
}
