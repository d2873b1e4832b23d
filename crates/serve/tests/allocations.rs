//! Allocation budgets: how many heap allocations a signature, a verify
//! batch, a generated scenario and a served journey make, counted by a
//! forwarding global allocator. Three per-layer readings split a journey
//! so a regression names its layer: one route-agent VM session, one
//! scenario's host set, and one session-certificate seal.
//!
//! The counter is per thread (a `const`-initialized thread-local `Cell`),
//! so the tests of this file, which the harness runs on parallel threads,
//! never count each other's allocations. Every measured call runs on the
//! test's own thread: the service ticks inline (`settle_workers` 1) and no
//! tick driver runs.
//!
//! The bounds are the counts this code makes, rounded up a little. A
//! change that lowers a count should lower its bound. Each test prints
//! its readings on stderr, one line each (`-- --nocapture` shows them).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use refstate_core::protocol::SessionCertificate;
use refstate_crypto::{
    draw_nonces, verify_batch, BatchEntry, DsaKeyPair, DsaParams, Signed, Signer,
};
use refstate_fleet::scenario::{build_route_agent, generate, Preset};
use refstate_platform::{Host, HostId};
use refstate_serve::{RegisterOwner, Request, Response, ServeConfig, Service};
use refstate_vm::{run_compiled_session, ExecConfig, ScriptedIo, SessionEnd, Value};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation (and reallocation) on
/// the calling thread.
struct Counting;

fn count_one() {
    // `try_with`: the counter may be gone while its thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold for every block handed out.
// The counter is a `const`-initialized thread-local `Cell` with no
// destructor: touching it allocates nothing and cannot re-enter the
// allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`; the caller upholds `realloc`'s other conditions.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

fn built_in_groups() -> [(&'static str, DsaParams); 3] {
    [
        ("test_group_256", DsaParams::test_group_256()),
        ("group_512", DsaParams::group_512()),
        ("group_1024", DsaParams::group_1024()),
    ]
}

#[test]
fn a_queued_nonce_signature_allocates_only_its_r_and_s() {
    for (name, group) in built_in_groups() {
        let keys = Arc::new(DsaKeyPair::generate(&group, &mut StdRng::seed_from_u64(1)));
        let mut signer = Signer::new(Arc::clone(&keys), StdRng::seed_from_u64(2));
        // The first signature builds the group's tables.
        signer.sign(b"warm-up");
        draw_nonces([&mut signer]);
        assert_eq!(signer.queued(), 1);
        let (signature, count) = allocations(|| signer.sign(b"measured"));
        eprintln!("allocations: {name} queued-nonce sign: {count}");
        assert!(keys.public().verify(b"measured", &signature));
        assert_eq!(count, 2, "{name}: Signer::sign with a queued nonce");
    }
}

#[test]
fn an_eight_entry_verify_batch_allocates_at_most_sixteen_times() {
    for (name, group) in built_in_groups() {
        let mut rng = StdRng::seed_from_u64(3);
        let keys: Vec<DsaKeyPair> = (0..2)
            .map(|_| DsaKeyPair::generate(&group, &mut rng))
            .collect();
        for key in &keys {
            key.public().precompute();
        }
        let messages: Vec<Vec<u8>> = (0..8).map(|i| format!("entry {i}").into_bytes()).collect();
        let signatures: Vec<_> = messages
            .iter()
            .enumerate()
            .map(|(i, message)| keys[i % 2].sign(message, &mut rng))
            .collect();
        let entries: Vec<BatchEntry<'_>> = messages
            .iter()
            .zip(&signatures)
            .enumerate()
            .map(|(i, (message, signature))| BatchEntry {
                key: keys[i % 2].public(),
                message,
                signature,
            })
            .collect();
        let (verdicts, count) = allocations(|| verify_batch(&entries));
        eprintln!("allocations: {name} 8-entry verify_batch: {count}");
        assert_eq!(verdicts, vec![true; 8], "{name}");
        assert!(count <= 16, "{name}: an 8-entry verify_batch made {count}");
    }
}

/// Scenarios of one measured generation pass.
const SCENARIOS: u64 = 256;

#[test]
fn a_mixed_scenario_keeps_to_its_allocation_budget() {
    let pass = || {
        for id in 0..SCENARIOS {
            drop(generate(42, id, Preset::Mixed));
        }
    };
    // The warm-up pass assembles every route length's shared program and
    // names the shared host ids.
    pass();
    let ((), count) = allocations(pass);
    let per_scenario = count / SCENARIOS;
    eprintln!("allocations: scenario::generate per mixed scenario: {per_scenario}");
    assert!(
        per_scenario <= 16,
        "{per_scenario} allocations per mixed scenario, budget 16"
    );
}

#[test]
fn a_route_agent_session_keeps_to_its_allocation_budget() {
    let agent = build_route_agent(7, 4);
    let compiled = agent.program.compiled();
    let session = || {
        let mut io = ScriptedIo::new();
        io.push_input("n", Value::Int(5));
        let (outcome, count) = allocations(|| {
            run_compiled_session(
                &compiled,
                agent.state.clone(),
                &mut io,
                &ExecConfig::default(),
            )
        });
        (outcome.expect("route agent runs"), count)
    };
    // The warm-up session sizes the thread's reused operand stack.
    session();
    let (outcome, count) = session();
    eprintln!("allocations: route-agent run_compiled_session: {count}");
    assert_eq!(outcome.end, SessionEnd::Migrate("h1".into()));
    // The state's copy on first write (map and node), the input log and
    // the migration target's string.
    assert!(
        count <= 4,
        "{count} allocations per route-agent session, budget 4"
    );
}

#[test]
fn a_scenario_host_set_keeps_to_its_allocation_budget() {
    let keys = Arc::new(DsaKeyPair::generate(
        &DsaParams::test_group_256(),
        &mut StdRng::seed_from_u64(5),
    ));
    let mut total = 0;
    for id in 0..SCENARIOS {
        let specs = generate(42, id, Preset::Mixed).specs;
        let (hosts, count) = allocations(|| {
            specs
                .into_iter()
                .map(|spec| Host::with_keys(spec, Arc::clone(&keys), id))
                .collect::<Vec<Host>>()
        });
        assert!(!hosts.is_empty());
        total += count;
    }
    let per_scenario = total / SCENARIOS;
    eprintln!("allocations: host set per mixed scenario: {per_scenario}");
    // The specs move into the hosts: only the host vector is new.
    assert!(
        per_scenario <= 1,
        "{per_scenario} allocations per host set, budget 1"
    );
}

#[test]
fn a_certificate_seal_allocates_only_its_signature() {
    let keys = Arc::new(DsaKeyPair::generate(
        &DsaParams::test_group_256(),
        &mut StdRng::seed_from_u64(6),
    ));
    let mut signer = Signer::new(keys, StdRng::seed_from_u64(7));
    let executor = HostId::new("h1");
    let agent = build_route_agent(9, 4);
    let certificate = |seq: u64| SessionCertificate {
        agent: agent.id.clone(),
        seq,
        executor: executor.clone(),
        initial_state: agent.state.clone(),
        resulting_state: agent.state.clone(),
        input: Default::default(),
        next: Some(HostId::new("h2")),
    };
    // The warm-up seal sizes the thread's scratch writer and builds the
    // group's tables.
    Signed::seal_by(certificate(0), executor.name(), &mut signer);
    let cert = certificate(1);
    draw_nonces([&mut signer]);
    let ((sealed, len), count) =
        allocations(|| Signed::seal_by(cert, executor.name(), &mut signer));
    eprintln!("allocations: SessionCertificate seal ({len} B): {count}");
    assert_eq!(sealed.signer(), "h1");
    assert_eq!(
        count, 2,
        "a certificate seal allocates its signature's r and s"
    );
}

fn register(service: &Service, owner: &str, seed: u64, mechanism: &str) {
    let reply = service.handle(Request::Register(RegisterOwner {
        owner: owner.into(),
        seed,
        preset: "mixed".into(),
        mechanism: mechanism.into(),
    }));
    assert!(matches!(reply, Response::Registered { .. }), "{reply:?}");
}

/// Journeys each owner submits per round: one tick settles them all.
const ROUND: u64 = 32;
const OWNERS: u64 = 4;

/// Submits journeys `first..first + ROUND` for every owner, ticks once and
/// drains every owner; returns the verdicts drained.
fn round(service: &Service, first: u64) -> usize {
    for owner in 0..OWNERS {
        for journey in first..first + ROUND {
            let reply = service.handle(Request::Submit {
                owner: format!("owner-{owner}"),
                journey,
            });
            assert!(matches!(reply, Response::Accepted { .. }), "{reply:?}");
        }
    }
    service.handle(Request::Tick);
    (0..OWNERS)
        .map(|owner| {
            match service.handle(Request::Drain {
                owner: format!("owner-{owner}"),
            }) {
                Response::Verdicts(verdicts) => verdicts.len(),
                other => panic!("expected verdicts, got {other:?}"),
            }
        })
        .sum()
}

/// Allocations per journey of one measured round through an in-process
/// service (4 owners, `mixed`, seed 42), after one warm-up round.
fn per_journey(mechanism: &str) -> u64 {
    let service = Service::new(ServeConfig {
        seed: 42,
        ..ServeConfig::default()
    });
    for owner in 0..OWNERS {
        register(&service, &format!("owner-{owner}"), owner, mechanism);
    }
    round(&service, 0);
    let (settled, count) = allocations(|| round(&service, ROUND));
    assert_eq!(settled as u64, OWNERS * ROUND, "{mechanism}");
    count / (OWNERS * ROUND)
}

#[test]
fn served_journeys_keep_to_their_allocation_budgets() {
    for (mechanism, bound) in [
        ("unprotected", 70),
        ("framework", 135),
        ("protocol", 170),
        ("traces", 233),
    ] {
        let count = per_journey(mechanism);
        eprintln!("allocations: {mechanism} per served journey: {count}");
        assert!(
            count <= bound,
            "{mechanism}: {count} allocations per journey, budget {bound}"
        );
    }
}
