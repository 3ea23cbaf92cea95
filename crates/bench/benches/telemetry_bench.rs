//! Telemetry record-encode throughput through the binary wire path at two
//! batch sizes, plus the streaming decode cost of draining the binary
//! buffers back into `Record`s.
//!
//! An emission is a shard-mutex lock, a seq `fetch_add`, and a few dozen
//! varint bytes — no `String`s, no per-record `Vec`s. `bench_telemetry`
//! records the same encode throughput in `BENCH_telemetry.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lfm_bench::emit_mixed;
use lfm_core::telemetry::Recorder;

fn bench_encode(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry_encode");
    for &n in &[10_000u64, 100_000] {
        g.throughput(Throughput::Elements(n));
        g.bench_with_input(BenchmarkId::new("binary", n), &n, |b, &n| {
            let recorder = Recorder::enabled();
            b.iter(|| {
                emit_mixed(&recorder, n);
                // Reset buffers without leaving the measurement loop
                // unbounded; decode cost is measured separately below.
                recorder.take().len()
            })
        });
    }
    g.finish();
}

fn bench_encode_only(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry_encode_only");
    let n = 100_000u64;
    g.throughput(Throughput::Elements(n));
    g.bench_function("binary", |b| {
        b.iter(|| {
            let recorder = Recorder::enabled();
            emit_mixed(&recorder, n);
            recorder
        })
    });
    g.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry_decode");
    let n = 100_000u64;
    let recorder = Recorder::enabled();
    emit_mixed(&recorder, n);
    g.throughput(Throughput::Elements(n));
    g.bench_function("merge_decode", |b| {
        b.iter(|| {
            let records = recorder.snapshot();
            assert_eq!(records.len() as u64, n);
            records.len()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_encode, bench_encode_only, bench_decode);
criterion_main!(benches);
