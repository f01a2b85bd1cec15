//! Individuals: one protected file plus its cached assessment.

use cdp_dataset::SubTable;
use cdp_metrics::{Assessment, EvalState, ObjectiveVector, ScoreAggregator};

/// A member of the evolutionary population.
///
/// The genotype is the protected file itself (no encoding, §2.1 of the
/// paper); the individual owns its [`EvalState`], whose sufficient
/// statistics let an offspring be scored by patching it
/// ([`cdp_metrics::Evaluator::reassess`]).
#[derive(Debug, Clone)]
pub struct Individual {
    /// Provenance label (initial protections keep their method name;
    /// offspring get derived labels).
    pub name: String,
    /// The protected columns.
    pub data: SubTable,
    state: EvalState,
    score: f64,
    objectives: ObjectiveVector,
}

impl Individual {
    /// Wrap an evaluated protection. The cached objective vector starts as
    /// the canonical `(IL, DR)` pair; optimizers running an extended set
    /// overwrite it via [`Individual::set_objectives`].
    pub fn new(name: String, data: SubTable, state: EvalState, agg: ScoreAggregator) -> Self {
        let score = state.assessment.score(agg);
        let objectives = ObjectiveVector::pair(state.assessment.il(), state.assessment.dr());
        Individual {
            name,
            data,
            state,
            score,
            objectives,
        }
    }

    /// Cached fitness score (smaller is better).
    pub fn score(&self) -> f64 {
        self.score
    }

    /// Full (IL, DR) assessment.
    pub fn assessment(&self) -> &Assessment {
        &self.state.assessment
    }

    /// Aggregated information loss.
    pub fn il(&self) -> f64 {
        self.state.assessment.il()
    }

    /// Aggregated disclosure risk.
    pub fn dr(&self) -> f64 {
        self.state.assessment.dr()
    }

    /// The cached objective vector — the coordinates Pareto selection
    /// compares. Defaults to the canonical `(IL, DR)` pair.
    pub fn objectives(&self) -> ObjectiveVector {
        self.objectives
    }

    /// Cache the objective vector computed under an extended objective set.
    pub fn set_objectives(&mut self, objectives: ObjectiveVector) {
        self.objectives = objectives;
    }

    /// The cached evaluation state (for incremental re-assessment).
    pub fn state(&self) -> &EvalState {
        &self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_dataset::generators::{DatasetKind, GeneratorConfig};
    use cdp_metrics::{Evaluator, MetricConfig};

    #[test]
    fn score_matches_assessment() {
        let s = DatasetKind::Adult
            .generate(&GeneratorConfig::seeded(1).with_records(60))
            .protected_subtable();
        let ev = Evaluator::new(&s, MetricConfig::default()).unwrap();
        let state = ev.assess(&s);
        let ind = Individual::new("id".into(), s, state, ScoreAggregator::Max);
        assert!((ind.score() - ind.assessment().score(ScoreAggregator::Max)).abs() < 1e-12);
        assert!(ind.il() < 1e-9);
        assert!(ind.dr() > 0.0);
    }
}
