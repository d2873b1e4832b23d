//! `bigint` exponentiation micro-bench: schoolbook vs Montgomery vs
//! fixed-base, at the DSA shapes the protocols actually run (the group's
//! prime `p`, exponents below the subgroup order `q`), plus the signature
//! and verification built on them: the 256-bit test group the fleet and
//! the service sign and verify in, and the 512- and 1024-bit groups of the
//! paper's measurements.
//!
//! Per group it times seven operations:
//!
//! * `schoolbook_ns` — `Uint::pow_mod`, the reference oracle;
//! * `montgomery_ns` — `Montgomery::pow_mod`, the sliding-window ladder;
//! * `fixed_base_ns` — a window-4 `FixedBase` walk, the path every
//!   per-key `y`-table takes;
//! * `generator_ns` — `DsaParams::pow_g`, the group's shared `g`-table
//!   under every signature;
//! * `inverse_ns` — `Montgomery::scalar_inv` in the `q`-domain, the one
//!   inversion of every nonce batch and verify flush;
//! * `sign_ns` — `Signer::sign` with its nonce already queued (the nonce
//!   draws happen outside the timed windows);
//! * `verify_ns` — an 8-entry `verify_batch` of one key's signatures,
//!   per entry.
//!
//! Each operation is timed in [`ROUNDS`] short windows, interleaved: every
//! round times every operation once, in turn, so a slow stretch of the
//! host lands on all of them instead of on one. The artifact records each
//! operation's median round and its quartiles (`_q1`, `_q3`), by the
//! workspace's one percentile rule (nearest rank).
//!
//! A plain `harness = false` main: it prints one line per group size and
//! writes the machine-readable `BENCH_bigint.json` (ns/op for each path
//! and group size, the derived speedups of the medians and the host's
//! `parallelism`), so the perf trajectory of the arithmetic layer is
//! diffable PR over PR. Set `BENCH_BIGINT_OUT` to change the output
//! path; set `BENCH_SMOKE=1` (CI) to shrink the measurement to a
//! schema-shaped smoke run written to `<path>.smoke`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use refstate_bigint::{random_in_unit_range, FixedBase, Montgomery, Scalar, Uint};
use refstate_crypto::{draw_nonces, verify_batch, BatchEntry, DsaKeyPair, DsaParams, Signer};
use refstate_telemetry::json::JsonWriter;
use refstate_telemetry::metrics::nearest_rank;

/// Timed windows per operation (at least 9, so the quartiles are rounds
/// of their own).
const ROUNDS: usize = 15;

/// The operations of one group, in timing and artifact order.
const OPS: [&str; 7] = [
    "schoolbook_ns",
    "montgomery_ns",
    "fixed_base_ns",
    "generator_ns",
    "inverse_ns",
    "sign_ns",
    "verify_ns",
];

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

/// Times `op` over the input batch, repeating until `window` of wall clock
/// is spent, and returns ns per operation.
fn time_ns<T, R>(inputs: &[T], window: Duration, mut op: impl FnMut(&T) -> R) -> f64 {
    // Warm-up (builds lazy tables outside the measurement).
    black_box(op(&inputs[0]));
    let started = Instant::now();
    let mut ops = 0u64;
    while started.elapsed() < window {
        for input in inputs {
            black_box(op(black_box(input)));
            ops += 1;
        }
    }
    started.elapsed().as_nanos() as f64 / ops as f64
}

/// Times `Signer::sign` with a queued nonce for about `window`: batches of
/// nonces are drawn untimed, then spent by timed signatures.
fn sign_ns(signer: &mut Signer, window: Duration) -> f64 {
    const BATCH: usize = 32;
    let (mut spent, mut signs) = (Duration::ZERO, 0u32);
    while spent < window {
        for _ in 0..BATCH {
            draw_nonces([&mut *signer]);
        }
        let started = Instant::now();
        for _ in 0..BATCH {
            black_box(signer.sign(black_box(b"bench message")));
        }
        spent += started.elapsed();
        signs += BATCH as u32;
    }
    spent.as_nanos() as f64 / signs as f64
}

/// One operation's rounds: the median and the quartiles, ns per operation.
struct Summary {
    median: f64,
    q1: f64,
    q3: f64,
}

fn summarize(mut rounds: Vec<f64>) -> Summary {
    rounds.sort_by(f64::total_cmp);
    let at = |q: f64| rounds[nearest_rank(rounds.len() as u64, q) as usize - 1];
    Summary {
        median: at(0.5),
        q1: at(0.25),
        q3: at(0.75),
    }
}

/// Every operation of one shape, timed over [`ROUNDS`] interleaved rounds
/// of `window` each; summaries in [`OPS`] order.
fn measure(shape: &Shape, window: Duration) -> Vec<Summary> {
    let params = &shape.params;
    let p = params.p().clone();
    let g = params.g().clone();
    let mont = Montgomery::new(&p).expect("group primes are odd");
    let table = FixedBase::new(Arc::new(mont.clone()), &g, params.q().bit_len());
    let q_mont = Montgomery::new(params.q()).expect("group primes are odd");
    // Every exponent is below q and non-zero, so each has an inverse.
    let residues: Vec<Scalar> = shape
        .exponents
        .iter()
        .map(|e| q_mont.reduce(e.limbs()))
        .collect();

    let mut rng = StdRng::seed_from_u64(0x5167);
    let keys = Arc::new(DsaKeyPair::generate(params, &mut rng));
    keys.public().precompute();
    let mut signer = Signer::new(Arc::clone(&keys), StdRng::seed_from_u64(0x5168));
    let messages: Vec<Vec<u8>> = (0..8).map(|i| format!("entry {i}").into_bytes()).collect();
    let signatures: Vec<_> = messages.iter().map(|m| keys.sign(m, &mut rng)).collect();
    let entries: Vec<BatchEntry<'_>> = messages
        .iter()
        .zip(&signatures)
        .map(|(message, signature)| BatchEntry {
            key: keys.public(),
            message,
            signature,
        })
        .collect();

    let exps = &shape.exponents;
    let mut ops: Vec<Box<dyn FnMut() -> f64 + '_>> = vec![
        Box::new(|| time_ns(exps, window, |e| g.pow_mod(e, &p))),
        Box::new(|| time_ns(exps, window, |e| mont.pow_mod(&g, e))),
        Box::new(|| time_ns(exps, window, |e| table.pow_mod(e))),
        Box::new(|| time_ns(exps, window, |e| params.pow_g(e))),
        Box::new(|| time_ns(&residues, window, |r| q_mont.scalar_inv(r))),
        Box::new(|| sign_ns(&mut signer, window)),
        Box::new(|| time_ns(&[()], window, |_| verify_batch(&entries)) / entries.len() as f64),
    ];
    let mut rounds = vec![Vec::with_capacity(ROUNDS); ops.len()];
    for _ in 0..ROUNDS {
        for (op, samples) in ops.iter_mut().zip(&mut rounds) {
            samples.push(op());
        }
    }
    rounds.into_iter().map(summarize).collect()
}

/// One measurement per shape and path, serialized as the arithmetic perf
/// trajectory.
fn emit_bench_json() {
    // `BENCH_SMOKE` opts into the bounded CI smoke run; `0`/empty mean off.
    let smoke = std::env::var("BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let window = Duration::from_millis(if smoke { 1 } else { 20 });
    let mut cases = Vec::new();
    for shape in shapes() {
        let summaries = measure(&shape, window);
        let median = |op: &str| summaries[OPS.iter().position(|&o| o == op).expect("an op")].median;
        println!(
            "bigint_pow/{}: schoolbook {:.0} ns, montgomery {:.0} ns ({:.2}x), fixed_base {:.0} ns ({:.2}x), generator {:.0} ns ({:.2}x), q-domain inverse {:.0} ns, sign {:.0} ns, verify {:.0} ns per entry",
            shape.name,
            median("schoolbook_ns"),
            median("montgomery_ns"),
            median("schoolbook_ns") / median("montgomery_ns"),
            median("fixed_base_ns"),
            median("schoolbook_ns") / median("fixed_base_ns"),
            median("generator_ns"),
            median("schoolbook_ns") / median("generator_ns"),
            median("inverse_ns"),
            median("sign_ns"),
            median("verify_ns"),
        );
        cases.push((shape.name, summaries));
    }
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("bench", "bigint");
    w.field_bool("smoke", smoke);
    w.field_u64(
        "parallelism",
        std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
    );
    w.field_u64("rounds", ROUNDS as u64);
    w.key("cases");
    w.begin_array();
    for (group, summaries) in &cases {
        w.begin_object();
        w.field_str("group", group);
        w.field_str("op", "pow_mod");
        for (op, summary) in OPS.iter().zip(summaries) {
            w.field_f64(op, summary.median);
            w.field_f64(&format!("{op}_q1"), summary.q1);
            w.field_f64(&format!("{op}_q3"), summary.q3);
        }
        let schoolbook = summaries[0].median;
        w.field_f64("montgomery_speedup", schoolbook / summaries[1].median);
        w.field_f64("fixed_base_speedup", schoolbook / summaries[2].median);
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
