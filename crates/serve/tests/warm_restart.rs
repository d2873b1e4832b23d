//! Warm-restart coverage: a service stopped and reopened on the same
//! state dir restores its registrations and streams, re-derives its keys,
//! and a resumed soak produces byte-identical verdicts to an
//! uninterrupted run. A dir the service cannot use is refused with the
//! [`OpenError`] that names what failed.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use refstate_crypto::{DsaKeyPair, DsaParams};
use refstate_serve::{
    run_soak_concurrent, LocalPipelined, OpenError, RegisterOwner, Request, Response, ServeConfig,
    Service, SoakConfig, SoakOutcome,
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

/// A state dir holding the base soak's first leg, edited through a bare
/// [`LogStore`], and the error a service opening it returns.
fn open_edited(tag: &str, edit: impl FnOnce(&LogStore)) -> OpenError {
    let dir = TempDir::new(tag);
    soak(serve_config(Some(dir.path())), &first_leg(&base_soak()), 1);
    let store = LogStore::open(dir.path()).expect("reopen the state dir");
    edit(&store);
    store.sync().expect("sync the edit");
    drop(store);
    Service::open(serve_config(Some(dir.path())))
        .err()
        .expect("the edited state dir is refused")
}

/// A checkpoint record as the service writes it: offset, then digest.
fn checkpoint(offset: u64, digest: u64) -> Vec<u8> {
    let mut w = refstate_wire::Writer::new();
    w.put_u64(offset);
    w.put_u64(digest);
    w.into_inner()
}

#[test]
fn a_state_dir_that_is_a_regular_file_names_its_path() {
    let dir = TempDir::new("file");
    let file = dir.path().join("state");
    fs::write(&file, b"").expect("create the file");
    match Service::open(serve_config(Some(&file))) {
        Err(OpenError::Store(path, _)) => assert_eq!(path, file),
        Err(other) => panic!("{other}"),
        Ok(_) => panic!("a regular file opened as a state dir"),
    }
}

#[test]
fn reopening_under_a_different_seed_names_both_seeds() {
    let dir = TempDir::new("reseed");
    drop(Service::new(serve_config(Some(dir.path()))));
    let error = Service::open(ServeConfig {
        seed: 43,
        ..serve_config(Some(dir.path()))
    })
    .err()
    .expect("another seed is refused");
    assert!(matches!(error, OpenError::Seed(42, 43)), "{error}");
    assert_eq!(
        error.to_string(),
        "state dir was created with seed 42, not 43"
    );
}

/// Every file in `dir` with its bytes, by name.
fn dir_bytes(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files: Vec<(PathBuf, Vec<u8>)> = fs::read_dir(dir)
        .expect("list the state dir")
        .map(|entry| {
            let path = entry.expect("a dir entry").path();
            let bytes = fs::read(&path).expect("read a segment");
            (path, bytes)
        })
        .collect();
    files.sort();
    files
}

#[test]
fn a_refused_open_leaves_the_state_dir_as_it_found_it() {
    let dir = TempDir::new("refused");
    soak(serve_config(Some(dir.path())), &first_leg(&base_soak()), 1);
    let written = dir_bytes(dir.path());
    for _ in 0..3 {
        let refused = Service::open(ServeConfig {
            seed: 43,
            ..serve_config(Some(dir.path()))
        });
        assert!(matches!(refused, Err(OpenError::Seed(42, 43))));
        assert!(dir_bytes(dir.path()) == written, "a refused open wrote");
    }
    let service = Service::open(serve_config(Some(dir.path()))).expect("seed 42 reopens");
    match service.handle(Request::Health) {
        Response::Health(health) => assert_eq!(health.generation, 2),
        other => panic!("expected health, got {other:?}"),
    }
}

#[test]
fn a_malformed_seed_record_is_a_record_error() {
    let error = open_edited("meta", |store| {
        store.put("meta", b"seed", &[4, 2]).expect("edit");
    });
    assert!(
        matches!(&error, OpenError::Record("meta", key, _) if key == "seed"),
        "{error}"
    );
}

#[test]
fn an_undecodable_owners_record_is_a_record_error() {
    let error = open_edited("owners", |store| {
        store
            .put("owners", &0u32.to_be_bytes(), b"not a registration")
            .expect("edit");
    });
    assert!(
        matches!(&error, OpenError::Record("owners", key, _) if key == "00000000"),
        "{error}"
    );
}

#[test]
fn an_owners_record_the_service_refuses_is_a_record_error() {
    let error = open_edited("mechanism", |store| {
        let record = RegisterOwner {
            owner: SoakConfig::owner_name(1),
            seed: 23,
            preset: "mixed".into(),
            mechanism: "no-such-mechanism".into(),
        };
        store
            .put(
                "owners",
                &1u32.to_be_bytes(),
                &refstate_wire::to_wire(&record),
            )
            .expect("edit");
    });
    assert!(
        matches!(&error, OpenError::Record("owners", key, why)
            if key == "00000001" && why.contains("UnknownMechanism")),
        "{error}"
    );
}

#[test]
fn an_undecodable_checkpoint_is_a_record_error() {
    let owner = SoakConfig::owner_name(2);
    let error = open_edited("checkpoint", |store| {
        store
            .put("checkpoint", owner.as_bytes(), &[0; 5])
            .expect("edit");
    });
    assert!(
        matches!(&error, OpenError::Record("checkpoint", key, _) if *key == owner),
        "{error}"
    );
}

#[test]
fn a_checkpoint_past_its_stream_names_the_owner_and_offset() {
    // Leg 1 settles 4 verdicts per owner.
    let owner = SoakConfig::owner_name(0);
    let error = open_edited("past", |store| {
        store
            .put("checkpoint", owner.as_bytes(), &checkpoint(5, 0))
            .expect("edit");
    });
    assert!(
        matches!(&error, OpenError::Stream(name, 5, 4) if *name == owner),
        "{error}"
    );
    assert!(
        error.to_string().contains("beyond the 4 appended"),
        "{error}"
    );
}

#[test]
fn a_digest_mismatch_names_the_owner_and_offset() {
    let owner = SoakConfig::owner_name(0);
    let error = open_edited("digest", |store| {
        store
            .put("checkpoint", owner.as_bytes(), &checkpoint(3, 0))
            .expect("edit");
    });
    assert!(
        matches!(&error, OpenError::Stream(name, 3, 4) if *name == owner),
        "{error}"
    );
    assert!(error.to_string().contains("diverges"), "{error}");
}
