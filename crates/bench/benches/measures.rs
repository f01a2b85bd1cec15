//! Per-measure cost of the standalone reference implementations across
//! record counts.
//!
//! The linkage rows time the all-pairs O(n²) reference scans
//! (`linkage::{dbrl, prl, rsrl}`), which dwarf the O(n) information-loss
//! measures and grow quadratically with the file size. This is not the
//! fitness cost: `Evaluator::assess` links over distinct patterns
//! (`LinkageMode::Blocked`) and derives PRL from a pattern census, so its
//! cost is measured by `evaluator_bench`, not here.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cdp_dataset::generators::{DatasetKind, GeneratorConfig};
use cdp_dataset::SubTable;
use cdp_metrics::dr::interval_disclosure;
use cdp_metrics::il::{ctbil, dbil, ebil};
use cdp_metrics::linkage::{dbrl, prl, rsrl};
use cdp_metrics::PreparedOriginal;
use cdp_sdc::{MethodContext, Pram, PramMode, ProtectionMethod};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn masked_copy(sub: &SubTable, seed: u64) -> SubTable {
    let hs: Vec<&cdp_dataset::Hierarchy> = vec![];
    let ctx = MethodContext { hierarchies: &hs };
    let mut rng = StdRng::seed_from_u64(seed);
    Pram::new(0.8, PramMode::Proportional)
        .protect(sub, &ctx, &mut rng)
        .expect("pram")
}

fn bench_measures(c: &mut Criterion) {
    let mut group = c.benchmark_group("measure_cost");
    group.sample_size(10);

    for records in [100usize, 300, 600] {
        let ds = DatasetKind::Adult.generate(&GeneratorConfig::seeded(1).with_records(records));
        let orig = ds.protected_subtable();
        let prep = PreparedOriginal::new(&orig);
        let masked = masked_copy(&orig, 7);

        group.bench_with_input(BenchmarkId::new("ctbil", records), &records, |b, _| {
            b.iter(|| std::hint::black_box(ctbil(&prep, &masked)))
        });
        group.bench_with_input(BenchmarkId::new("dbil", records), &records, |b, _| {
            b.iter(|| std::hint::black_box(dbil(&prep, &masked)))
        });
        group.bench_with_input(BenchmarkId::new("ebil", records), &records, |b, _| {
            b.iter(|| std::hint::black_box(ebil(&prep, &masked)))
        });
        group.bench_with_input(BenchmarkId::new("id", records), &records, |b, _| {
            b.iter(|| std::hint::black_box(interval_disclosure(&prep, &masked, 0.1)))
        });
        group.bench_with_input(BenchmarkId::new("dbrl", records), &records, |b, _| {
            b.iter(|| std::hint::black_box(dbrl(&prep, &masked)))
        });
        group.bench_with_input(BenchmarkId::new("prl", records), &records, |b, _| {
            b.iter(|| std::hint::black_box(prl(&prep, &masked, 15)))
        });
        group.bench_with_input(BenchmarkId::new("rsrl", records), &records, |b, _| {
            b.iter(|| std::hint::black_box(rsrl(&prep, &masked, 0.05)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_measures);
criterion_main!(benches);
