//! Criterion microbenches for the serving path: per-item compute, sharded
//! cache hits, batch entry points, snapshot table lookups, and the wire
//! checksum and frame encoder every daemon response goes through.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pkgm_bench::{world, Scale};
use pkgm_core::artifact::crc32;
use pkgm_core::protocol::encode_rows_response;
use pkgm_core::{
    CachedService, KnowledgeService, PkgmModel, ServiceScratch, ServiceSnapshot, Trainer,
};
use pkgm_store::EntityId;

fn service() -> KnowledgeService {
    let catalog = pkgm_synth::Catalog::generate(&world::catalog_config(Scale::Smoke));
    let (model_cfg, train_cfg, k) = world::pretrain_config(Scale::Smoke);
    let mut model = PkgmModel::new(
        catalog.store.n_entities() as usize,
        catalog.store.n_relations() as usize,
        model_cfg,
    );
    Trainer::new(&model, train_cfg).train(&mut model, &catalog.store);
    KnowledgeService::new(model, catalog.key_relation_selector(k))
}

fn bench_serving(c: &mut Criterion) {
    let svc = service();
    let d = svc.dim();
    let items: Vec<EntityId> = (0..64u32).map(EntityId).collect();

    c.bench_function("serving/condensed_uncached", |b| {
        b.iter(|| svc.condensed_service(black_box(EntityId(3))))
    });

    let mut scratch = ServiceScratch::new(d);
    let mut out = vec![0.0f32; 2 * d];
    c.bench_function("serving/condensed_into_scratch", |b| {
        b.iter(|| svc.condensed_service_into(black_box(EntityId(3)), &mut scratch, &mut out))
    });

    let cached = CachedService::new(svc.clone(), 4096);
    cached.condensed_service(EntityId(3));
    c.bench_function("serving/condensed_cached_hit", |b| {
        b.iter(|| cached.condensed_service(black_box(EntityId(3))))
    });

    c.bench_function("serving/condensed_batch_64", |b| {
        b.iter(|| cached.condensed_service_batch(black_box(&items)))
    });

    let snapshot = ServiceSnapshot::build(&svc);
    c.bench_function("serving/condensed_snapshot_lookup", |b| {
        b.iter(|| snapshot.condensed(black_box(EntityId(3))).map(|row| row[0]))
    });
}

fn bench_wire(c: &mut Criterion) {
    // 8 KiB is the body of a 32-row × 64-float rows frame; 1 MiB is a
    // snapshot-section-sized buffer.
    let bytes: Vec<u8> = (0..1u32 << 20)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    c.bench_function("serving/crc32_8k", |b| {
        b.iter(|| crc32(black_box(&bytes[..8 << 10])))
    });
    c.bench_function("serving/crc32_1m", |b| b.iter(|| crc32(black_box(&bytes))));

    let rows: Vec<Vec<f32>> = (0..32)
        .map(|r| (0..64).map(|i| (r * 64 + i) as f32 * 0.25).collect())
        .collect();
    c.bench_function("serving/encode_rows_32x64", |b| {
        b.iter(|| encode_rows_response(64, black_box(&rows).iter().map(Vec::as_slice)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_serving, bench_wire
}
criterion_main!(benches);
