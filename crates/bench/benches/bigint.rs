//! `bigint` exponentiation micro-bench: schoolbook vs Montgomery vs
//! fixed-base, at the DSA shapes the protocols actually run (the group's
//! prime `p`, exponents below the subgroup order `q`): the 256-bit test
//! group the fleet and the service sign and verify in, and the 512- and
//! 1024-bit groups of the paper's measurements.
//!
//! Per group it times five operations:
//!
//! * `schoolbook_ns` — `Uint::pow_mod`, the reference oracle;
//! * `montgomery_ns` — `Montgomery::pow_mod`, the sliding-window ladder;
//! * `fixed_base_ns` — a window-4 `FixedBase` walk, the path every
//!   per-key `y`-table takes;
//! * `generator_ns` — `DsaParams::pow_g`, the group's shared `g`-table
//!   under every signature;
//! * `inverse_ns` — `Montgomery::inv` in the `q`-domain, the one
//!   inversion of every nonce batch and verify flush.
//!
//! A plain `harness = false` main: it prints one line per group size and
//! writes the machine-readable `BENCH_bigint.json` (ns/op for each path
//! and group size, plus the derived speedups and the host's
//! `parallelism`), so the perf trajectory of the arithmetic layer is
//! diffable PR over PR. Set `BENCH_BIGINT_OUT` to change the output
//! path; set `BENCH_SMOKE=1` (CI) to shrink the measurement to a
//! schema-shaped smoke run written to `<path>.smoke`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use refstate_bigint::{random_in_unit_range, FixedBase, MontInt, Montgomery, Uint};
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

/// Times `op` over the input batch, repeating until `budget_ms` of
/// wall clock is spent, and returns ns per operation.
fn time_ns<T, R>(inputs: &[T], budget_ms: u64, mut op: impl FnMut(&T) -> R) -> f64 {
    // Warm-up (builds lazy tables outside the measurement).
    black_box(op(&inputs[0]));
    let budget = std::time::Duration::from_millis(budget_ms);
    let started = Instant::now();
    let mut ops = 0u64;
    while started.elapsed() < budget {
        for input in inputs {
            black_box(op(black_box(input)));
            ops += 1;
        }
    }
    started.elapsed().as_nanos() as f64 / ops as f64
}

/// One group's timings, ns per operation.
struct Case {
    group: &'static str,
    schoolbook: f64,
    montgomery: f64,
    fixed_base: f64,
    generator: f64,
    inverse: f64,
}

/// One calibrated measurement per shape and path, serialized as the
/// arithmetic perf trajectory.
fn emit_bench_json() {
    // `BENCH_SMOKE` opts into the bounded CI smoke run; `0`/empty mean off.
    let smoke = std::env::var("BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let budget_ms = if smoke { 20 } else { 300 };
    let mut cases = Vec::new();
    for shape in shapes() {
        let params = &shape.params;
        let p = params.p().clone();
        let g = params.g().clone();
        let mont = Montgomery::new(&p).expect("group primes are odd");
        let table = FixedBase::new(Arc::new(mont.clone()), &g, params.q().bit_len());
        let q_mont = Montgomery::new(params.q()).expect("group primes are odd");
        // Every exponent is below q and non-zero, so each has an inverse.
        let residues: Vec<MontInt> = shape.exponents.iter().map(|e| q_mont.to_mont(e)).collect();

        let case = Case {
            group: shape.name,
            schoolbook: time_ns(&shape.exponents, budget_ms, |e| g.pow_mod(e, &p)),
            montgomery: time_ns(&shape.exponents, budget_ms, |e| mont.pow_mod(&g, e)),
            fixed_base: time_ns(&shape.exponents, budget_ms, |e| table.pow_mod(e)),
            generator: time_ns(&shape.exponents, budget_ms, |e| params.pow_g(e)),
            inverse: time_ns(&residues, budget_ms, |r| q_mont.inv(r)),
        };
        println!(
            "bigint_pow/{}: schoolbook {:.0} ns, montgomery {:.0} ns ({:.2}x), fixed_base {:.0} ns ({:.2}x), generator {:.0} ns ({:.2}x), q-domain inverse {:.0} ns",
            case.group,
            case.schoolbook,
            case.montgomery,
            case.schoolbook / case.montgomery,
            case.fixed_base,
            case.schoolbook / case.fixed_base,
            case.generator,
            case.schoolbook / case.generator,
            case.inverse,
        );
        cases.push(case);
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
    for case in cases {
        w.begin_object();
        w.field_str("group", case.group);
        w.field_str("op", "pow_mod");
        w.field_f64("schoolbook_ns", case.schoolbook);
        w.field_f64("montgomery_ns", case.montgomery);
        w.field_f64("fixed_base_ns", case.fixed_base);
        w.field_f64("generator_ns", case.generator);
        w.field_f64("inverse_ns", case.inverse);
        w.field_f64("montgomery_speedup", case.schoolbook / case.montgomery);
        w.field_f64("fixed_base_speedup", case.schoolbook / case.fixed_base);
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

fn main() {
    emit_bench_json();
}
