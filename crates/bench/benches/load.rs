//! B8 — load-engine primitives: the Poisson arrival sampler and the
//! log-bucketed latency histogram.
//!
//! The open-loop driver (T5) calls these on its hot path, once per
//! arrival and once per formed negotiation at up to thousands of
//! events per simulated second, so their unit costs bound how much
//! offered load the harness itself can generate. Two groups:
//! `arrival_sampler` (homogeneous Poisson sampling a 60 s window at
//! ~1000 arrivals) and `latency_histogram` record / quantile.

use criterion::{criterion_group, criterion_main, Criterion};

use qosc_load::{LatencyHistogram, PoissonArrivals};
use qosc_netsim::SimTime;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const WINDOW: SimTime = SimTime(60_000_000);

fn bench_samplers(c: &mut Criterion) {
    let mut g = c.benchmark_group("arrival_sampler");
    let poisson = PoissonArrivals::new(1000.0 / 60.0);
    g.bench_function("poisson_1k", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            poisson
                .sample_until(SimTime::ZERO, WINDOW, &mut ChaCha8Rng::seed_from_u64(seed))
                .len()
        })
    });
    g.finish();
}

fn bench_histogram(c: &mut Criterion) {
    let mut g = c.benchmark_group("latency_histogram");
    // Latencies spanning several octaves, as a saturation sweep sees.
    let values: Vec<u64> = (0..10_000u64)
        .map(|i| 1_000 + (i * 7919) % 900_000)
        .collect();
    g.bench_function("record_10k", |b| {
        b.iter(|| {
            let mut h = LatencyHistogram::new();
            for &v in &values {
                h.record_us(v);
            }
            h.count()
        })
    });
    let mut filled = LatencyHistogram::new();
    for &v in &values {
        filled.record_us(v);
    }
    g.bench_function("quantile_p99", |b| {
        b.iter(|| filled.quantile(0.99).map(|d| d.as_micros()))
    });
    g.finish();
}

criterion_group!(benches, bench_samplers, bench_histogram);
criterion_main!(benches);
