//! `bigint` exponentiation micro-bench: schoolbook vs Montgomery vs
//! fixed-base, at the DSA shapes the protocols actually run (the group's
//! prime `p`, exponents below the subgroup order `q`): the 256-bit test
//! group the fleet and the service sign and verify in, and the 512- and
//! 1024-bit groups of the paper's measurements.
//!
//! Besides the criterion groups, the bench emits a machine-readable
//! `BENCH_bigint.json` (ns/op for each path and group size, plus the
//! derived speedups and the host's `parallelism`) so the perf trajectory
//! of the arithmetic layer is diffable PR over PR, exactly like
//! `BENCH_fleet.json` is for the fleet engine. Set `BENCH_BIGINT_OUT` to
//! change the output path; set `BENCH_SMOKE=1` (CI) to shrink the
//! measurement to a schema-shaped smoke run.

use std::sync::Arc;
use std::time::Instant;

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use refstate_bigint::{random_in_unit_range, FixedBase, Montgomery, Uint};
use refstate_crypto::DsaParams;
use refstate_telemetry::json::JsonWriter;

/// One benchmark shape: a named DSA group and a batch of exponents drawn
/// below its `q` (the distribution every signing/verification exponent
/// follows).
struct Shape {
    name: &'static str,
    params: DsaParams,
    exponents: Vec<Uint>,
}

fn shapes() -> Vec<Shape> {
    let mut rng = StdRng::seed_from_u64(0xB16_B00B5);
    [
        ("256", DsaParams::test_group_256()),
        ("512", DsaParams::group_512()),
        ("1024", DsaParams::group_1024()),
    ]
    .into_iter()
    .map(|(name, params)| {
        let exponents = (0..8)
            .map(|_| random_in_unit_range(&mut rng, params.q()))
            .collect();
        Shape {
            name,
            params,
            exponents,
        }
    })
    .collect()
}

fn bench_pow_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("bigint_pow");
    for shape in shapes() {
        let p = shape.params.p().clone();
        let g = shape.params.g().clone();
        let e = shape.exponents[0].clone();
        let mont = Montgomery::new(&p).expect("group primes are odd");
        let table = FixedBase::new(Arc::new(mont.clone()), &g, shape.params.q().bit_len());

        group.bench_with_input(
            BenchmarkId::new("schoolbook", shape.name),
            &(&g, &e, &p),
            |b, (g, e, p)| b.iter(|| black_box(g.pow_mod(e, p))),
        );
        group.bench_with_input(
            BenchmarkId::new("montgomery", shape.name),
            &(&g, &e),
            |b, (g, e)| b.iter(|| black_box(mont.pow_mod(g, e))),
        );
        group.bench_with_input(BenchmarkId::new("fixed_base", shape.name), &e, |b, e| {
            b.iter(|| black_box(table.pow_mod(e)))
        });
    }
    group.finish();
}

/// Times `op` over the exponent batch, repeating until `budget_ms` of
/// wall clock is spent, and returns ns per operation.
fn time_ns(exponents: &[Uint], budget_ms: u64, mut op: impl FnMut(&Uint) -> Uint) -> f64 {
    // Warm-up (builds lazy tables outside the measurement).
    black_box(op(&exponents[0]));
    let budget = std::time::Duration::from_millis(budget_ms);
    let started = Instant::now();
    let mut ops = 0u64;
    while started.elapsed() < budget {
        for e in exponents {
            black_box(op(e));
            ops += 1;
        }
    }
    started.elapsed().as_nanos() as f64 / ops as f64
}

/// `BENCH_SMOKE` opts into the bounded CI smoke run; `0`/empty mean off.
fn smoke_mode() -> bool {
    std::env::var("BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// One calibrated measurement per shape and path, serialized as the
/// arithmetic perf trajectory.
fn emit_bench_json() {
    let smoke = smoke_mode();
    let budget_ms = if smoke { 20 } else { 300 };
    let mut cases = Vec::new();
    for shape in shapes() {
        let p = shape.params.p().clone();
        let g = shape.params.g().clone();
        let mont = Montgomery::new(&p).expect("group primes are odd");
        let table = FixedBase::new(Arc::new(mont.clone()), &g, shape.params.q().bit_len());

        let schoolbook = time_ns(&shape.exponents, budget_ms, |e| g.pow_mod(e, &p));
        let montgomery = time_ns(&shape.exponents, budget_ms, |e| mont.pow_mod(&g, e));
        let fixed_base = time_ns(&shape.exponents, budget_ms, |e| table.pow_mod(e));
        println!(
            "bigint_pow/{}: schoolbook {:.0} ns, montgomery {:.0} ns ({:.2}x), fixed_base {:.0} ns ({:.2}x)",
            shape.name,
            schoolbook,
            montgomery,
            schoolbook / montgomery,
            fixed_base,
            schoolbook / fixed_base,
        );
        cases.push((shape.name, schoolbook, montgomery, fixed_base));
    }
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("bench", "bigint");
    w.field_bool("smoke", smoke);
    w.field_u64(
        "parallelism",
        std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
    );
    w.key("cases");
    w.begin_array();
    for (group, schoolbook, montgomery, fixed_base) in cases {
        w.begin_object();
        w.field_str("group", group);
        w.field_str("op", "pow_mod");
        w.field_f64("schoolbook_ns", schoolbook);
        w.field_f64("montgomery_ns", montgomery);
        w.field_f64("fixed_base_ns", fixed_base);
        w.field_f64("montgomery_speedup", schoolbook / montgomery);
        w.field_f64("fixed_base_speedup", schoolbook / fixed_base);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    let json = w.finish();

    let path = std::env::var("BENCH_BIGINT_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_bigint.json").to_owned()
    });
    // A smoke run proves the pipeline but must not overwrite the
    // committed trajectory with low-confidence numbers.
    let path = if smoke { format!("{path}.smoke") } else { path };
    match std::fs::write(&path, json + "\n") {
        Ok(()) => println!("wrote arithmetic perf trajectory to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_pow_paths);

fn main() {
    // Criterion groups are skipped in smoke mode: the JSON emitter below
    // runs the same three paths with a bounded budget.
    if !smoke_mode() {
        benches();
    }
    emit_bench_json();
}
