//! B1 — throughput of the §6 evaluation primitives: admissibility checks
//! and eq. 2 distance over batches of proposals, comparing the reference
//! per-proposal [`Evaluator`] against the precompiled
//! [`CompiledRequest`] tables and the one-call batch path.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use qosc_baselines::Evaluator;
use qosc_core::{CompiledRequest, EvalConfig};
use qosc_spec::{catalog, Value};

fn offers(n: usize) -> Vec<Vec<Value>> {
    (0..n)
        .map(|i| {
            vec![
                Value::Int(10 - (i % 10) as i64),
                Value::Int(if i % 2 == 0 { 3 } else { 1 }),
                Value::Int(8),
                Value::Int(8),
            ]
        })
        .collect()
}

fn bench_evaluation(c: &mut Criterion) {
    let spec = catalog::av_spec();
    let request = catalog::surveillance_request()
        .resolve(&spec)
        .expect("catalog request matches catalog spec");
    let evaluator = Evaluator::default();
    let compiled = CompiledRequest::compile(&spec, &request, EvalConfig::default());
    let batch = offers(1000);

    let mut g = c.benchmark_group("evaluation");
    g.throughput(Throughput::Elements(1000));
    g.bench_function("distance_1000_proposals", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for o in &batch {
                acc += evaluator.distance(black_box(&spec), black_box(&request), black_box(o));
            }
            acc
        })
    });
    g.bench_function("compiled_distance_1000_proposals", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for o in &batch {
                acc += compiled.distance(black_box(o));
            }
            acc
        })
    });
    // The organizer's per-proposal round before compilation: admissibility
    // check + distance + running winner, one proposal at a time. Compare
    // against compiled_batch_1000_proposals for the like-for-like speedup.
    g.bench_function("reference_select_1000_proposals", |b| {
        b.iter(|| {
            let mut best: Option<(usize, f64)> = None;
            for (i, o) in batch.iter().enumerate() {
                if evaluator
                    .admissible(black_box(&request), black_box(o))
                    .is_err()
                {
                    continue;
                }
                let d = evaluator.distance(black_box(&spec), black_box(&request), black_box(o));
                match best {
                    Some((_, b)) if d >= b => {}
                    _ => best = Some((i, d)),
                }
            }
            best
        })
    });
    g.bench_function("compiled_batch_1000_proposals", |b| {
        b.iter(|| compiled.evaluate_batch(black_box(&batch)))
    });
    g.bench_function("admissibility_1000_proposals", |b| {
        b.iter(|| {
            let mut ok = 0;
            for o in &batch {
                if evaluator
                    .admissible(black_box(&request), black_box(o))
                    .is_ok()
                {
                    ok += 1;
                }
            }
            ok
        })
    });
    g.bench_function("compiled_admissibility_1000_proposals", |b| {
        b.iter(|| {
            let mut ok = 0;
            for o in &batch {
                if compiled.admissible(black_box(o)).is_ok() {
                    ok += 1;
                }
            }
            ok
        })
    });
    // Compile-once cost, to put the per-proposal savings in context.
    g.bench_function("compile_request", |b| {
        b.iter(|| {
            CompiledRequest::compile(black_box(&spec), black_box(&request), EvalConfig::default())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_evaluation);
criterion_main!(benches);
