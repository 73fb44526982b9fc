//! B6 — backend overhead of the unified runtime API: the same dense
//! 64- and 256-node negotiation on the zero-latency `DirectRuntime` vs
//! the full DES (`DesRuntime` with geometry, latency modelling and
//! per-delivery bookkeeping). The gap is the price of the network model
//! itself; the protocol work (formulation, evaluation, selection) is
//! identical on both by the cross-backend equivalence test. Both
//! backends ride the zero-copy delivery plane (`Arc<Msg>` payloads,
//! spatial-index fan-out on the DES side).
//!
//! The two Direct legs also run at 1024 nodes, where dispatch cost that
//! grows with the square of the fan-out shows (at 64/256 it hides behind
//! the protocol work), and the binary fails when CFP batching costs more
//! than [`BATCHING_CEILING`] × plain dispatch there.

use std::time::{Duration, Instant};

use criterion::{criterion_group, BenchmarkId, Criterion};

use qosc_core::NegoEvent;
use qosc_netsim::SimTime;
use qosc_workloads::{AppTemplate, Backend, PopulationConfig, ScenarioConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn run_backend(backend: Backend, nodes: usize, seed: u64) -> usize {
    let config = ScenarioConfig {
        population: PopulationConfig::default(),
        ..ScenarioConfig::dense(nodes, seed)
    };
    let mut rt = config.build_backend(backend);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let svc = AppTemplate::Surveillance.service("svc", 2, &mut rng);
    rt.submit(0, svc, SimTime(1_000)).expect("node 0 exists");
    rt.run(SimTime(2_000_000));
    rt.events()
        .iter()
        .filter(|e| matches!(e.event, NegoEvent::Formed { .. }))
        .count()
}

fn bench_runtime_backends(c: &mut Criterion) {
    let mut g = c.benchmark_group("runtime_backend");
    for nodes in [64usize, 256, 1024] {
        // A 256-node negotiation costs ~10× the 64-node one; fewer
        // samples keep the suite quick without losing the signal.
        g.sample_size(if nodes >= 256 { 10 } else { 20 });
        for backend in [Backend::Direct, Backend::DirectBatched, Backend::Des] {
            let name = match backend {
                Backend::Direct => "direct_dense",
                Backend::DirectBatched => "direct_batched_dense",
                // The 1024-node point is about Direct's own dispatch.
                Backend::Des if nodes > 256 => continue,
                Backend::Des => "des_dense",
            };
            g.bench_with_input(BenchmarkId::new(name, nodes), &backend, |b, &backend| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    run_backend(backend, nodes, seed)
                })
            });
        }
    }
    g.finish();
}

/// Batched dispatch may cost at most this many times plain dispatch on
/// the 1024-node dense negotiation. Coalescing at enqueue time reads
/// ≈1.0×; the drain-and-requeue loop it replaced read ≈8×.
const BATCHING_CEILING: f64 = 1.5;

/// Median wall time of the 1024-node dense negotiation on each Direct
/// leg, sampled in alternation so host drift lands on both alike.
fn direct_pair_medians() -> (Duration, Duration) {
    const PAIRS: u64 = 5;
    let time = |backend, seed| {
        let t0 = Instant::now();
        criterion::black_box(run_backend(backend, 1024, seed));
        t0.elapsed()
    };
    let median = |mut samples: Vec<Duration>| {
        samples.sort_unstable();
        samples[samples.len() / 2]
    };
    // Warm caches and the allocator off the clock.
    time(Backend::Direct, 0);
    time(Backend::DirectBatched, 0);
    let (plain, batched): (Vec<_>, Vec<_>) = (1..=PAIRS)
        .map(|seed| {
            (
                time(Backend::Direct, seed),
                time(Backend::DirectBatched, seed),
            )
        })
        .unzip();
    (median(plain), median(batched))
}

criterion_group!(benches, bench_runtime_backends);

fn main() {
    benches();
    let (plain, batched) = direct_pair_medians();
    let ratio = batched.as_secs_f64() / plain.as_secs_f64();
    println!(
        "runtime_backend/batching_guard/1024: batched {batched:?} / plain {plain:?} = {ratio:.2}x \
         (ceiling {BATCHING_CEILING}x)"
    );
    if ratio > BATCHING_CEILING {
        eprintln!("CFP batching is slower than plain dispatch beyond the ceiling");
        std::process::exit(1);
    }
}
