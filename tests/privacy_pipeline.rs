//! Cross-crate integration: the privacy-model layer working against the
//! dataset generators, the SDC methods, the metrics evaluator, and both
//! optimizers — the full audit pipeline an agency would run.

use cdp::core::nsga::{Nsga2, NsgaConfig};
use cdp::prelude::*;
use cdp::privacy::{models, report, risk, Partition};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn adult(records: usize, seed: u64) -> Dataset {
    DatasetKind::Adult.generate(&GeneratorConfig::seeded(seed).with_records(records))
}

#[test]
fn lattice_recodings_trade_il_for_dr_under_paper_measures() {
    // the identity is the IL = 0 / maximum-DR extreme; every k-anonymous
    // recoding must pay IL > 0 and, for the strong k, buy DR well below
    // the identity's. (IL across *different* optimal nodes is not monotone
    // in k — the search minimizes imprecision, not the paper's IL — so only
    // the endpoints are asserted hard.)
    let ds = adult(200, 1);
    let sub = ds.protected_subtable();
    let evaluator = Evaluator::new(&sub, MetricConfig::default()).unwrap();
    let recoder = Recoder::new(&sub, ds.protected_hierarchies()).unwrap();
    let search = LatticeSearch::new(&sub, &recoder);

    let identity = evaluator.assess(&sub);
    assert!(identity.assessment.il() < 1e-9);
    let identity_dr = identity.assessment.dr();

    let mut dr_of_strongest = f64::NAN;
    for k in [2usize, 5, 20] {
        let found = search.optimal(k, CostKind::Imprecision).unwrap();
        assert!(found.achieved_k >= k);
        let masked = recoder.apply(&sub, &found.node).unwrap();
        let state = evaluator.assess(&masked);
        assert!(
            state.assessment.il() > 0.0,
            "k = {k} recoding must cost information"
        );
        assert!(state.assessment.dr() <= identity_dr + 1e-9);
        dr_of_strongest = state.assessment.dr();
    }
    assert!(
        dr_of_strongest < identity_dr * 0.8,
        "k = 20 should cut DR well below the identity's \
         ({dr_of_strongest:.2} vs {identity_dr:.2})"
    );
}

#[test]
fn global_recoding_reduces_prosecutor_risk() {
    // global recoding is a per-value map, so the masked partition is a
    // coarsening of the original one: classes can only merge, and the
    // expected number of correct re-identifications (= class count) can
    // only fall. (Record-wise methods like univariate microaggregation do
    // NOT carry this guarantee — they can create novel combinations.)
    let ds = adult(300, 2);
    let sub = ds.protected_subtable();
    let hierarchies = ds.protected_hierarchies();
    let ctx = cdp::sdc::MethodContext {
        hierarchies: &hierarchies,
    };
    let before = risk::prosecutor_risk(&Partition::of_subtable(&sub).unwrap());

    let mut rng = StdRng::seed_from_u64(2);
    let masked = cdp::sdc::GlobalRecoding::uniform(1)
        .protect(&sub, &ctx, &mut rng)
        .unwrap();
    let after = risk::prosecutor_risk(&Partition::of_subtable(&masked).unwrap());
    assert!(
        after.expected_reidentifications <= before.expected_reidentifications,
        "global recoding must not increase expected re-identifications \
         ({} -> {})",
        before.expected_reidentifications,
        after.expected_reidentifications
    );
    assert!(after.mean <= before.mean + 1e-12);
}

#[test]
fn ga_winner_passes_a_full_privacy_audit() {
    let ds = adult(150, 3);
    let population = build_population(&ds, &SuiteConfig::small(), 3).unwrap();
    let evaluator = Evaluator::new(&ds.protected_subtable(), MetricConfig::default()).unwrap();
    let outcome = Evolution::new(
        evaluator,
        EvoConfig::builder()
            .iterations(30)
            .aggregator(ScoreAggregator::Max)
            .seed(3)
            .build(),
    )
    .with_named_population(population)
    .unwrap()
    .run();

    let best = outcome.population.best();
    let original = ds.protected_subtable();
    // audit diversity of a non-protected attribute within masked classes
    let sens_idx = 0; // AGE band: not among Adult's protected attributes
    assert!(!ds.protected.contains(&sens_idx));
    let sens_attr = ds.table.schema().attr(sens_idx);
    let sens_col = ds.table.column(sens_idx);

    let audit = report::audit(&best.data, Some(&original), &[(sens_attr, sens_col)]).unwrap();
    assert!(audit.k_anonymity.k >= 1);
    assert!(audit.prosecutor.max <= 1.0);
    assert!(audit.journalist.is_some());
    assert_eq!(audit.sensitive.len(), 1);
    let text = audit.to_string();
    assert!(text.contains("k-anonymity"));
    assert!(text.contains(sens_attr.name()));
}

#[test]
fn nsga_front_members_are_auditable_and_in_range() {
    let ds = adult(120, 4);
    let population = build_population(&ds, &SuiteConfig::small(), 4).unwrap();
    let evaluator = Evaluator::new(&ds.protected_subtable(), MetricConfig::default()).unwrap();
    let outcome = Nsga2::new(
        evaluator,
        NsgaConfig {
            generations: 5,
            seed: 4,
            ..NsgaConfig::default()
        },
    )
    .with_named_population(population)
    .unwrap()
    .run();
    assert!(!outcome.front.is_empty());
    for p in &outcome.front {
        assert!((0.0..=100.0).contains(&p.il), "IL in range: {}", p.il);
        assert!((0.0..=100.0).contains(&p.dr), "DR in range: {}", p.dr);
    }
    // the archive dominates-or-equals the final population front
    let hv = |points: &[cdp::core::ScatterPoint]| {
        let objs: Vec<ObjectiveVector> = points
            .iter()
            .map(|p| ObjectiveVector::pair(p.il, p.dr))
            .collect();
        cdp::core::nsga::hypervolume_vec(&objs, &ObjectiveVector::pair(100.0, 100.0))
    };
    let archive_hv = hv(&outcome.archive_front);
    let front_hv = hv(&outcome.front);
    assert!(archive_hv >= front_hv - 1e-9);
}

#[test]
fn local_suppression_raises_k_where_lattice_cannot() {
    // identity-only hierarchies make the lattice useless; local suppression
    // still reaches k by folding rare combinations into the mode
    let ds = adult(200, 5);
    let sub = ds.protected_subtable();
    let hs: Vec<&Hierarchy> = vec![];
    let ctx = cdp::sdc::MethodContext { hierarchies: &hs };
    let mut rng = StdRng::seed_from_u64(5);
    let masked = cdp::sdc::LocalSuppression { min_class_size: 4 }
        .protect(&sub, &ctx, &mut rng)
        .unwrap();
    let before = models::k_anonymity(&Partition::of_subtable(&sub).unwrap());
    let after = models::k_anonymity(&Partition::of_subtable(&masked).unwrap());
    assert!(after.singletons <= before.singletons);
}
