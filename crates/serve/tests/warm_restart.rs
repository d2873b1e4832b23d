//! Warm-restart coverage: a service stopped and reopened on the same
//! state dir restores its registrations and streams, re-derives its keys,
//! and a resumed soak produces byte-identical verdicts to an
//! uninterrupted run.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use refstate_crypto::{DsaKeyPair, DsaParams};
use refstate_serve::{
    run_soak_concurrent, LocalPipelined, RegisterOwner, Request, Response, ServeConfig, Service,
    SoakConfig, SoakOutcome,
};
use refstate_store::{LogStore, StateStore};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("refstate-serve-{tag}-{}-{seq}", std::process::id()));
        fs::create_dir_all(&path).expect("create temp dir");
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn serve_config(state_dir: Option<&Path>) -> ServeConfig {
    ServeConfig {
        key_pool: 8,
        state_dir: state_dir.map(Path::to_path_buf),
        ..ServeConfig::default()
    }
}

/// Soaks `config` over `connections` in-process connections, then drops
/// the service (closing its state dir, if any).
fn soak(serve_config: ServeConfig, config: &SoakConfig, connections: usize) -> SoakOutcome {
    let queue_capacity = serve_config.queue_capacity;
    let service = Arc::new(Service::new(serve_config));
    let outcome = run_soak_concurrent(
        |_| LocalPipelined::new(Arc::clone(&service)),
        config,
        connections,
        queue_capacity,
    );
    assert_eq!(outcome.dropped, 0);
    outcome
}

/// Concatenates each owner's lines from `legs` in owner order — the
/// grouped-stream merge a restart-spanning run needs before it can be
/// compared byte-for-byte with a single uninterrupted run.
fn merge_by_owner(legs: &[&str], owners: usize) -> String {
    let mut merged = String::new();
    for index in 0..owners {
        let owner = SoakConfig::owner_name(index);
        for leg in legs {
            for line in leg.lines() {
                if line.split_whitespace().next() == Some(owner.as_str()) {
                    merged.push_str(line);
                    merged.push('\n');
                }
            }
        }
    }
    merged
}

/// The 24-journey, three-owner soak the restart tests split into two
/// legs of 12.
fn base_soak() -> SoakConfig {
    SoakConfig {
        owners: 3,
        journeys: 24,
        seed: 23,
        tick_every: 4,
        ..SoakConfig::default()
    }
}

/// The first leg of `base`: its first 12 journeys.
fn first_leg(base: &SoakConfig) -> SoakConfig {
    SoakConfig {
        journeys: 12,
        ..base.clone()
    }
}

/// The second leg of `base`: the last 12 journeys, resumed on a state dir.
fn resumed_leg(base: &SoakConfig) -> SoakConfig {
    SoakConfig {
        journeys: 12,
        start: 12,
        resume: true,
        ..base.clone()
    }
}

#[test]
fn resumed_soak_stream_matches_an_uninterrupted_run() {
    let base = base_soak();

    // The uninterrupted reference: one cold service, all 24 journeys.
    let cold_outcome = soak(serve_config(None), &base, 1);

    // The resume handshake runs on connection 0 before any worker
    // starts, so leg 2 may fan out over several connections.
    for connections in [1, 3] {
        let dir = TempDir::new("resume");

        // Leg 1: half the journeys against a durable service, then the
        // soak's Shutdown stops it and the process-side state drops.
        let leg1 = soak(serve_config(Some(dir.path())), &first_leg(&base), 1);

        // Leg 2: reopen the same dir and resume where leg 1 stopped.
        let leg2 = soak(
            serve_config(Some(dir.path())),
            &resumed_leg(&base),
            connections,
        );

        // The resume handshake observed a real warm start: generation 2,
        // every owner's durable stream checkpointed at its leg-1 share.
        let warm = leg2.warm_start.as_ref().expect("resumed run records meta");
        assert_eq!(warm.generation, 2, "second open of the same state dir");
        assert_eq!(warm.resume_offset, 12);
        assert!(warm.checkpoints.iter().all(|c| c.offset == 4));

        // The restart-spanning history, merged per owner, is
        // byte-identical to the uninterrupted run — the drain invariant
        // survived the stop.
        assert_eq!(
            merge_by_owner(&[&leg1.stream, &leg2.stream], base.owners),
            cold_outcome.stream,
            "resumed verdict stream diverged from the uninterrupted run \
             (leg 2 over {connections} connections)"
        );
    }
}

#[test]
fn restored_owner_settles_without_registering_again() {
    let dir = TempDir::new("restore");
    let submit_and_settle = |service: &Service| {
        for journey in 0..8u64 {
            let reply = service.handle(Request::Submit {
                owner: "alice".into(),
                journey,
            });
            assert!(matches!(reply, Response::Accepted { .. }), "{reply:?}");
        }
        service.handle(Request::Tick);
        let Response::Stats(stats) = service.handle(Request::Stats {
            owner: "alice".into(),
        }) else {
            panic!("stats");
        };
        stats
    };

    let first = Service::new(serve_config(Some(dir.path())));
    let reply = first.handle(Request::Register(RegisterOwner {
        owner: "alice".into(),
        seed: 7,
        preset: "mixed".into(),
        mechanism: "protocol".into(),
    }));
    assert!(matches!(reply, Response::Registered { .. }), "{reply:?}");
    submit_and_settle(&first);
    assert!(matches!(
        first.handle(Request::Shutdown),
        Response::ShuttingDown { .. }
    ));
    drop(first);

    // The restarted service needs no registration: the owner comes back
    // from the store with its keys re-derived.
    let second = Service::new(serve_config(Some(dir.path())));
    let warm_stats = submit_and_settle(&second);
    assert_eq!(warm_stats.verified, 8, "restored owner settles journeys");
    // The durable stream kept counting across the restart while the
    // process-local verified counter started over.
    assert_eq!(warm_stats.stream_offset, 16);
}

#[test]
fn edited_state_dir_cannot_reach_a_verdict() {
    let base = base_soak();
    let cold_outcome = soak(serve_config(None), &base, 1);
    let dir = TempDir::new("edited");
    let leg1 = soak(serve_config(Some(dir.path())), &first_leg(&base), 1);

    // Forge records under the namespaces older state dirs kept for host
    // keys, replay memos and compiled programs: a decodable key of a
    // foreign pair for a host on owner-0's routes, and two records that
    // decode as nothing. The service derives all three, so it never
    // reads them.
    let store = LogStore::open(dir.path()).expect("reopen the state dir");
    let mut rng = StdRng::seed_from_u64(0xf0_12ed);
    let foreign = DsaKeyPair::generate(&DsaParams::test_group_256(), &mut rng);
    let host = format!("{}/h1", SoakConfig::owner_name(0));
    store
        .put(
            "keydir",
            host.as_bytes(),
            &refstate_wire::to_wire(foreign.public()),
        )
        .expect("forge a host key");
    store
        .append("replay", b"not a replay record")
        .expect("forge a replay memo");
    store
        .put("compile", &[0u8; 16], b"not a program image")
        .expect("forge a compile image");
    store.sync().expect("sync the forged records");
    drop(store);

    let leg2 = soak(serve_config(Some(dir.path())), &resumed_leg(&base), 1);
    assert_eq!(
        merge_by_owner(&[&leg1.stream, &leg2.stream], base.owners),
        cold_outcome.stream,
        "forged records in the state dir moved a verdict"
    );
}

#[test]
#[should_panic(expected = "state dir was created with seed")]
fn reopening_under_a_different_seed_panics() {
    let dir = TempDir::new("seed");
    drop(Service::new(ServeConfig {
        seed: 1,
        ..serve_config(Some(dir.path()))
    }));
    let _ = Service::new(ServeConfig {
        seed: 2,
        ..serve_config(Some(dir.path()))
    });
}
