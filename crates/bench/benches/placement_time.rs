//! Criterion bench backing Fig. 10: NetPack placement time vs cluster size
//! and batch size, plus the baseline placers for context.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netpack_placement::{GpuBalance, NetPackPlacer, Placer, TetrisLike};
use netpack_topology::{Cluster, ClusterSpec};
use netpack_workload::xorshift_batch;

fn cluster(servers: usize) -> Cluster {
    let racks = 16.min(servers);
    Cluster::new(ClusterSpec {
        racks,
        servers_per_rack: servers / racks,
        ..ClusterSpec::paper_default()
    })
}

fn bench_netpack_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("netpack_place_batch");
    group.sample_size(10);
    for servers in [100usize, 400, 1600] {
        let cl = cluster(servers);
        let jobs = xorshift_batch(32, 32, 99);
        group.bench_with_input(BenchmarkId::from_parameter(servers), &servers, |b, _| {
            b.iter(|| {
                let mut placer = NetPackPlacer::default();
                std::hint::black_box(placer.place_batch(&cl, &[], &jobs))
            })
        });
    }
    group.finish();
}

fn bench_placer_comparison(c: &mut Criterion) {
    let mut group = c.benchmark_group("placer_comparison_400srv");
    group.sample_size(10);
    let cl = cluster(400);
    let jobs = xorshift_batch(32, 32, 99);
    type PlacerCtor = fn() -> Box<dyn Placer>;
    let mk: Vec<(&str, PlacerCtor)> = vec![
        ("NetPack", || Box::new(NetPackPlacer::default())),
        ("GB", || Box::new(GpuBalance)),
        ("Tetris", || Box::new(TetrisLike)),
    ];
    for (name, ctor) in mk {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut placer = ctor();
                std::hint::black_box(placer.place_batch(&cl, &[], &jobs))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_netpack_scaling, bench_placer_comparison);
criterion_main!(benches);
