//! B8 — load-engine primitives: arrival samplers and the log-bucketed
//! latency histogram.
//!
//! The open-loop driver (T5) calls these on its hot path, once per
//! arrival and once per formed negotiation at up to thousands of
//! events per simulated second, so their unit costs bound how much
//! offered load the harness itself can generate. Three groups:
//! `arrival_sampler` (homogeneous Poisson, exact piecewise, thinned
//! diurnal — all sampling a 60 s window at ~1000 arrivals), and
//! `latency_histogram` record / quantile / merge.

use criterion::{criterion_group, criterion_main, Criterion};

use qosc_load::{
    diurnal_thinned, ArrivalProcess, LatencyHistogram, PiecewiseRate, PoissonArrivals,
};
use qosc_netsim::{SimDuration, SimTime};
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
            PoissonArrivals::sample_until(
                &poisson,
                SimTime::ZERO,
                WINDOW,
                &mut ChaCha8Rng::seed_from_u64(seed),
            )
            .len()
        })
    });
    let piecewise = PiecewiseRate::diurnal(5.0, 30.0, SimDuration::secs(60));
    g.bench_function("piecewise_exact_1k", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            ArrivalProcess::sample_until(
                &piecewise,
                SimTime::ZERO,
                WINDOW,
                &mut ChaCha8Rng::seed_from_u64(seed),
            )
            .len()
        })
    });
    let thinned = diurnal_thinned(5.0, 30.0, SimDuration::secs(60));
    g.bench_function("thinned_diurnal_1k", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            ArrivalProcess::sample_until(
                &thinned,
                SimTime::ZERO,
                WINDOW,
                &mut ChaCha8Rng::seed_from_u64(seed),
            )
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
    g.bench_function("merge", |b| {
        b.iter(|| {
            let mut h = filled.clone();
            h.merge(&filled);
            h.count()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_samplers, bench_histogram);
criterion_main!(benches);
