//! Service-level guarantees: admission control, the drain invariant,
//! worker-, connection-, and telemetry-invariant golden verdict
//! streams, per-owner lock independence, and the pipelined TCP
//! transport.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use refstate_serve::{
    run_soak_concurrent, LocalPipelined, PipelinedClient, RegisterOwner, RejectReason, Request,
    Response, ServeConfig, Server, Service, ServiceHealth, SoakConfig, SoakOutcome, TickDriver,
    TickDriverConfig,
};
use refstate_telemetry as telemetry;

fn register(endpoint: &mut Service, owner: &str, seed: u64, preset: &str, mechanism: &str) {
    let reply = endpoint.handle(Request::Register(RegisterOwner {
        owner: owner.into(),
        seed,
        preset: preset.into(),
        mechanism: mechanism.into(),
    }));
    assert!(matches!(reply, Response::Registered { .. }), "{reply:?}");
}

#[test]
fn backpressure_rejects_past_the_bound_and_recovers_after_a_tick() {
    let mut service = Service::new(ServeConfig {
        queue_capacity: 3,
        ..ServeConfig::default()
    });
    register(&mut service, "alice", 5, "all-honest", "protocol");

    let mut accepted = 0;
    let mut rejected = 0;
    for journey in 0..5u64 {
        match service.handle(Request::Submit {
            owner: "alice".into(),
            journey,
        }) {
            Response::Accepted { .. } => accepted += 1,
            Response::Rejected {
                reason: RejectReason::QueueFull,
                journey: j,
                ..
            } => {
                rejected += 1;
                assert!(j >= 3, "the first `capacity` submissions are admitted");
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(accepted, 3);
    assert_eq!(rejected, 2);

    // A tick drains the queue; the refused journeys are admissible again.
    service.handle(Request::Tick);
    for journey in 3..5u64 {
        let reply = service.handle(Request::Submit {
            owner: "alice".into(),
            journey,
        });
        assert!(matches!(reply, Response::Accepted { .. }), "{reply:?}");
    }
}

fn health(service: &Service) -> ServiceHealth {
    match service.handle(Request::Health) {
        Response::Health(health) => health,
        other => panic!("expected health, got {other:?}"),
    }
}

#[test]
fn health_totals_queues_and_outboxes_over_every_owner() {
    let mut service = Service::new(ServeConfig::default());
    register(&mut service, "alice", 1, "mixed", "protocol");
    register(&mut service, "bob", 2, "mixed", "framework");
    for (owner, journey) in [
        ("alice", 0),
        ("bob", 0),
        ("alice", 1),
        ("bob", 1),
        ("alice", 2),
    ] {
        let reply = service.handle(Request::Submit {
            owner: owner.into(),
            journey,
        });
        assert!(matches!(reply, Response::Accepted { .. }), "{reply:?}");
    }
    std::thread::sleep(Duration::from_millis(2));
    let queued = health(&service);
    assert_eq!(
        (
            queued.shards,
            queued.queued,
            queued.undrained,
            queued.generation
        ),
        (2, 5, 0, 0)
    );
    assert!(queued.oldest_queued_us >= 2_000, "{queued:?}");

    service.handle(Request::Tick);
    let ticked = health(&service);
    assert_eq!((ticked.queued, ticked.undrained), (0, 5));
    assert_eq!(ticked.oldest_queued_us, 0);

    for owner in ["alice", "bob"] {
        service.handle(Request::Drain {
            owner: owner.into(),
        });
    }
    assert_eq!(
        health(&service),
        ServiceHealth {
            shards: 2,
            ..ServiceHealth::default()
        }
    );

    let dir = std::env::temp_dir().join(format!("refstate-serve-health-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = Service::new(ServeConfig {
        state_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    assert_eq!(health(&durable).generation, 1);
    drop(durable);
    std::fs::remove_dir_all(&dir).expect("remove the state dir");
}

#[test]
fn graceful_shutdown_settles_every_accepted_journey() {
    let mut service = Service::new(ServeConfig {
        queue_capacity: 16,
        ..ServeConfig::default()
    });
    register(&mut service, "alice", 11, "single-tamperer", "protocol");
    register(&mut service, "bob", 12, "mixed", "appraisal");
    for journey in 0..5u64 {
        for owner in ["alice", "bob"] {
            let reply = service.handle(Request::Submit {
                owner: owner.into(),
                journey,
            });
            assert!(matches!(reply, Response::Accepted { .. }));
        }
    }

    // Shutdown with a full ingress queue: everything accepted settles.
    let reply = service.handle(Request::Shutdown);
    assert_eq!(reply, Response::ShuttingDown { settled: 10 });

    // New work is refused after shutdown...
    let late = service.handle(Request::Submit {
        owner: "alice".into(),
        journey: 99,
    });
    assert!(matches!(
        late,
        Response::Rejected {
            reason: RejectReason::ShuttingDown,
            ..
        }
    ));
    let late_owner = service.handle(Request::Register(RegisterOwner {
        owner: "carol".into(),
        seed: 1,
        preset: "mixed".into(),
        mechanism: "protocol".into(),
    }));
    assert!(matches!(
        late_owner,
        Response::Rejected {
            reason: RejectReason::ShuttingDown,
            ..
        }
    ));

    // ...but outboxes stay drainable, and nothing accepted was dropped.
    for owner in ["alice", "bob"] {
        let Response::Verdicts(verdicts) = service.handle(Request::Drain {
            owner: owner.into(),
        }) else {
            panic!("drain after shutdown");
        };
        assert_eq!(verdicts.len(), 5, "{owner}'s verdicts all delivered");
        let Response::Stats(stats) = service.handle(Request::Stats {
            owner: owner.into(),
        }) else {
            panic!("stats after shutdown");
        };
        assert_eq!(stats.accepted, stats.verified, "{owner}: drain invariant");
        assert_eq!(stats.pending, 0);
    }
}

/// A soak over `connections` in-process connections into a fresh
/// service, with the background tick driver racing the clients' own
/// ticks when `drive` is set.
fn soak_local(
    serve_config: &ServeConfig,
    config: &SoakConfig,
    connections: usize,
    drive: bool,
) -> SoakOutcome {
    let service = Arc::new(Service::new(serve_config.clone()));
    let driver = drive.then(|| TickDriver::start(Arc::clone(&service), TickDriverConfig));
    let outcome = run_soak_concurrent(
        |_| LocalPipelined::new(Arc::clone(&service)),
        config,
        connections,
        serve_config.queue_capacity,
    );
    if let Some(driver) = driver {
        driver.stop();
    }
    assert_eq!(outcome.dropped, 0);
    outcome
}

/// The golden fixtures' load shape: 4 owners, 48 journeys, ticks every
/// 12 rounds, queues of 16.
fn golden_shape(seed: u64, preset: &str, mechanism: &str) -> SoakConfig {
    SoakConfig {
        owners: 4,
        journeys: 48,
        seed,
        preset: preset.into(),
        mechanism: mechanism.into(),
        tick_every: 12,
        ..SoakConfig::default()
    }
}

fn golden_service() -> ServeConfig {
    ServeConfig {
        queue_capacity: 16,
        key_pool: 16,
        ..ServeConfig::default()
    }
}

fn soak_stream(seed: u64, preset: &str, mechanism: &str) -> String {
    let outcome = soak_local(
        &golden_service(),
        &golden_shape(seed, preset, mechanism),
        1,
        false,
    );
    assert_eq!(outcome.verified, 48);
    outcome.stream
}

fn golden_stream(fixture: &str) -> String {
    let path = golden_path(fixture);
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden fixture {path:?} ({e}); run with REGEN_GOLDEN=1")
    })
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// The tentpole determinism contract: for a fixed seed and request order,
/// the per-owner verdict stream is byte-identical across runs and
/// telemetry levels — pinned against a committed fixture.
/// Regenerate with `REGEN_GOLDEN=1 cargo test -p refstate-serve`.
fn check_golden_stream(fixture: &str, preset: &str, mechanism: &str) {
    let seed = 42;
    let baseline = soak_stream(seed, preset, mechanism);

    if std::env::var("REGEN_GOLDEN").is_ok() {
        let path = golden_path(fixture);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &baseline).unwrap();
    }
    assert_eq!(
        baseline,
        golden_stream(fixture),
        "verdict stream drifted from the fixture"
    );

    let before = telemetry::level();
    for level in [
        telemetry::TelemetryLevel::Counters,
        telemetry::TelemetryLevel::Full,
    ] {
        telemetry::set_level(level);
        let stream = soak_stream(seed, preset, mechanism);
        telemetry::set_level(before);
        assert_eq!(
            stream, baseline,
            "stream must be invariant under telemetry={level:?}"
        );
    }
}

#[test]
fn verdict_stream_is_golden_across_workers_and_telemetry() {
    check_golden_stream("soak_mixed_seed42.stream", "mixed", "protocol");
}

#[test]
fn cooperating_verdict_stream_is_golden_across_workers_and_telemetry() {
    // The disjoint-set soak: witness hosts (`v0..`) resolve through the
    // per-owner directory, and the cooperating mechanism's verdict
    // stream is pinned byte for byte like the linear one.
    check_golden_stream(
        "soak_cooperating_seed42.stream",
        "cooperating",
        "cooperating",
    );
}

/// The sharding determinism contract, across deployment shapes: the
/// golden fixture's load, driven over 1, 4, or 16 pipelined
/// connections, with and without the background tick driver racing the
/// clients' own ticks, reproduces the committed stream byte for byte.
#[test]
fn verdict_stream_is_identical_across_connection_counts_and_tick_pacing() {
    let golden = golden_stream("soak_mixed_seed42.stream");
    let config = golden_shape(42, "mixed", "protocol");
    for connections in [1, 4, 16] {
        for drive in [false, true] {
            let outcome = soak_local(&golden_service(), &config, connections, drive);
            assert_eq!(
                outcome.stream, golden,
                "stream must be invariant under connections={connections} \
                 tick_driver={drive}"
            );
        }
    }
}

/// Per-owner lock independence: while one owner's tick is mid-settle
/// (its exec lock held for a long batch), other owners' submits, ticks,
/// and drains run to completion instead of queueing behind it — the
/// property the old service-wide mutex could not offer.
#[test]
fn other_owners_progress_while_one_owner_is_mid_settle() {
    let service = Arc::new(Service::new(ServeConfig {
        queue_capacity: 256,
        key_pool: 16,
        ..ServeConfig::default()
    }));
    for (owner, seed) in [("carol", 42), ("alice", 7), ("bob", 8)] {
        let reply = service.handle(Request::Register(RegisterOwner {
            owner: owner.into(),
            seed,
            preset: "mixed".into(),
            mechanism: "protocol".into(),
        }));
        assert!(matches!(reply, Response::Registered { .. }), "{reply:?}");
    }

    // A settle long enough to still be running while alice and bob do a
    // full submit → tick → drain round (~two orders of magnitude less
    // work) on this thread.
    let carol_batch = 256u64;
    for journey in 0..carol_batch {
        let reply = service.handle(Request::Submit {
            owner: "carol".into(),
            journey,
        });
        assert!(matches!(reply, Response::Accepted { .. }), "{reply:?}");
    }
    let settled = Arc::new(AtomicBool::new(false));
    let ticker = {
        let service = Arc::clone(&service);
        let settled = Arc::clone(&settled);
        std::thread::spawn(move || {
            let reply = service.handle(Request::TickOwners(vec!["carol".into()]));
            settled.store(true, Ordering::SeqCst);
            reply
        })
    };
    // Carol's tick drains her ingress queue first (pending drops to 0,
    // Stats never needs her exec lock), then settles; observing the
    // empty queue before the settle flag means she is mid-settle now.
    loop {
        let Response::Stats(stats) = service.handle(Request::Stats {
            owner: "carol".into(),
        }) else {
            panic!("stats while ticking");
        };
        if stats.pending == 0 {
            break;
        }
        std::thread::yield_now();
    }

    for journey in 0..4u64 {
        for owner in ["alice", "bob"] {
            let reply = service.handle(Request::Submit {
                owner: owner.into(),
                journey,
            });
            assert!(matches!(reply, Response::Accepted { .. }), "{reply:?}");
        }
    }
    let reply = service.handle(Request::TickOwners(vec!["alice".into(), "bob".into()]));
    assert_eq!(reply, Response::Ticked { settled: 8 });
    for owner in ["alice", "bob"] {
        let Response::Verdicts(verdicts) = service.handle(Request::Drain {
            owner: owner.into(),
        }) else {
            panic!("drain while carol settles");
        };
        assert_eq!(verdicts.len(), 4, "{owner}'s round completed");
    }
    assert!(
        !settled.load(Ordering::SeqCst),
        "alice and bob finished a full round while carol was still settling"
    );

    let reply = ticker.join().expect("ticker thread");
    assert_eq!(
        reply,
        Response::Ticked {
            settled: carol_batch
        }
    );
    let Response::Verdicts(verdicts) = service.handle(Request::Drain {
        owner: "carol".into(),
    }) else {
        panic!("drain carol");
    };
    assert_eq!(verdicts.len(), carol_batch as usize);
}

/// The pipelined transport: many requests streamed before the first
/// read, responses arriving strictly in request order.
#[test]
fn pipelined_tcp_responses_come_back_in_request_order() {
    let server = Server::bind(
        Service::new(ServeConfig {
            queue_capacity: 64,
            key_pool: 8,
            ..ServeConfig::default()
        }),
        "127.0.0.1:0",
    )
    .expect("bind");
    let mut client = PipelinedClient::connect(server.addr()).expect("connect");

    client
        .send(&Request::Register(RegisterOwner {
            owner: "carol".into(),
            seed: 9,
            preset: "single-tamperer".into(),
            mechanism: "protocol".into(),
        }))
        .expect("send register");
    assert!(matches!(
        client.recv().expect("registered"),
        Response::Registered { .. }
    ));

    // A window of 32 submits with no intervening reads; the replies must
    // come back as `Accepted` in exactly the order sent.
    let window = 32u64;
    for journey in 0..window {
        client
            .send(&Request::Submit {
                owner: "carol".into(),
                journey,
            })
            .expect("send submit");
    }
    for journey in 0..window {
        match client.recv().expect("accepted") {
            Response::Accepted { journey: j, .. } => {
                assert_eq!(j, journey, "responses must be request-ordered")
            }
            other => panic!("expected Accepted, got {other:?}"),
        }
    }

    client
        .send(&Request::TickOwners(vec!["carol".into()]))
        .expect("send tick");
    assert_eq!(
        client.recv().expect("ticked"),
        Response::Ticked { settled: window }
    );
    client
        .send(&Request::Drain {
            owner: "carol".into(),
        })
        .expect("send drain");
    let Response::Verdicts(verdicts) = client.recv().expect("verdicts") else {
        panic!("drain reply");
    };
    let journeys: Vec<u64> = verdicts.iter().map(|v| v.journey).collect();
    assert_eq!(
        journeys,
        (0..window).collect::<Vec<_>>(),
        "verdicts deliver in admission order"
    );

    client.send(&Request::Shutdown).expect("send shutdown");
    assert!(matches!(
        client.recv().expect("shutting down"),
        Response::ShuttingDown { .. }
    ));
    // join waits for every connection to close; hang up first.
    drop(client);
    server.join();
}

/// The resident server settles on its own: a client that submits and
/// drains, never sending `Tick`, still gets its verdict while `join`
/// blocks on another thread exactly as the binary's `main` does.
#[test]
fn resident_server_settles_without_client_ticks() {
    let mut server = Server::bind(
        Service::new(ServeConfig {
            key_pool: 8,
            ..ServeConfig::default()
        }),
        "127.0.0.1:0",
    )
    .expect("bind");
    server.start_tick_driver();
    let addr = server.addr();
    let joined = std::thread::spawn(move || server.join());

    let mut client = PipelinedClient::connect(addr).expect("connect");
    let mut call = |request: Request| {
        client.send(&request).expect("send");
        client.recv().expect("reply")
    };
    let reply = call(Request::Register(RegisterOwner {
        owner: "dave".into(),
        seed: 3,
        preset: "single-tamperer".into(),
        mechanism: "protocol".into(),
    }));
    assert!(matches!(reply, Response::Registered { .. }), "{reply:?}");
    let reply = call(Request::Submit {
        owner: "dave".into(),
        journey: 0,
    });
    assert!(matches!(reply, Response::Accepted { .. }), "{reply:?}");
    let deadline = Instant::now() + Duration::from_secs(10);
    let verdicts = loop {
        let Response::Verdicts(verdicts) = call(Request::Drain {
            owner: "dave".into(),
        }) else {
            panic!("drain reply");
        };
        if !verdicts.is_empty() {
            break verdicts;
        }
        assert!(
            Instant::now() < deadline,
            "no verdict without a client tick"
        );
        std::thread::sleep(Duration::from_millis(1));
    };
    assert_eq!(verdicts.len(), 1);
    assert_eq!(
        call(Request::Shutdown),
        Response::ShuttingDown { settled: 0 },
        "the driver, not the shutdown drain, settled the journey"
    );
    drop(client);
    joined.join().expect("server join");
}

#[test]
fn tcp_roundtrip_matches_in_process_service() {
    // The same soak, once in process and once over TCP on one and two
    // pipelined connections, must produce identical verdict streams: the
    // transport adds framing only, never semantics.
    let config = SoakConfig {
        owners: 2,
        journeys: 12,
        seed: 7,
        preset: "single-tamperer".into(),
        mechanism: "protocol".into(),
        tick_every: 4,
        ..SoakConfig::default()
    };
    let serve_config = ServeConfig {
        key_pool: 8,
        ..ServeConfig::default()
    };
    let local_outcome = soak_local(&serve_config, &config, 1, false);

    for connections in [1, 2] {
        let server = Server::bind(Service::new(serve_config.clone()), "127.0.0.1:0").expect("bind");
        let addr = server.addr();
        let remote_outcome = run_soak_concurrent(
            |_| PipelinedClient::connect(addr).expect("connect"),
            &config,
            connections,
            serve_config.queue_capacity,
        );
        assert_eq!(
            remote_outcome.stream, local_outcome.stream,
            "TCP over {connections} connections"
        );
        assert_eq!(remote_outcome.dropped, 0);
        // The soak sent Shutdown and its clients hung up when it
        // returned; the accept loop notices and exits.
        server.join();
    }
}

#[test]
fn tcp_malformed_frame_gets_a_typed_error_reply() {
    use std::io::{Read, Write};

    let server = Server::bind(Service::new(ServeConfig::default()), "127.0.0.1:0").expect("bind");
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    // A frame whose payload is a bogus request tag.
    stream.write_all(&1u32.to_le_bytes()).unwrap();
    stream.write_all(&[250u8]).unwrap();
    stream.flush().unwrap();
    let mut reader = refstate_wire::FrameReader::new(&mut stream, refstate_wire::DEFAULT_MAX_FRAME);
    let reply: Response = reader
        .read_message()
        .expect("server replies before closing")
        .expect("one error frame");
    match reply {
        Response::Error { message } => assert!(message.contains("bad request frame")),
        other => panic!("expected an error reply, got {other:?}"),
    }
    // The server closed the connection after the error.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    server.stop();
    server.join();
}

#[test]
fn oversized_tcp_frame_is_refused_not_buffered() {
    use std::io::Write;

    let server = Server::bind(Service::new(ServeConfig::default()), "127.0.0.1:0").expect("bind");
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    // Declare a frame far past the cap; the server must refuse without
    // allocating or waiting for the (never-sent) payload.
    let declared = (refstate_wire::DEFAULT_MAX_FRAME as u32) + 1;
    stream.write_all(&declared.to_le_bytes()).unwrap();
    stream.flush().unwrap();
    let mut reader = refstate_wire::FrameReader::new(&mut stream, refstate_wire::DEFAULT_MAX_FRAME);
    let reply: Response = reader
        .read_message()
        .expect("server replies before closing")
        .expect("one error frame");
    assert!(matches!(reply, Response::Error { .. }));
    server.stop();
    server.join();
}
