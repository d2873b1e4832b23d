//! `Request::Metrics` against a resident server: an empty reply at
//! telemetry `off`, and the process's counters and histograms as JSONL
//! once it records, other live connections' counters included. A test
//! binary of its own, because the telemetry level is process-global and
//! other tests flip it; the tests here take turns on [`LEVEL`].

use std::sync::Mutex;
use std::time::{Duration, Instant};

use refstate_serve::{
    PipelinedClient, RegisterOwner, Request, Response, ServeConfig, Server, Service,
};
use refstate_telemetry as telemetry;

/// Held by each test for as long as it sets the telemetry level.
static LEVEL: Mutex<()> = Mutex::new(());

#[test]
fn metrics_request_returns_the_running_servers_snapshot() {
    let _level = LEVEL.lock().expect("a metrics test panicked");
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
    assert_eq!(
        call(Request::Metrics),
        Response::Metrics(String::new()),
        "nothing is recorded at telemetry off"
    );

    telemetry::set_level(telemetry::TelemetryLevel::Counters);
    let reply = call(Request::Register(RegisterOwner {
        owner: "erin".into(),
        seed: 5,
        preset: "single-tamperer".into(),
        mechanism: "protocol".into(),
    }));
    assert!(matches!(reply, Response::Registered { .. }), "{reply:?}");
    let reply = call(Request::Submit {
        owner: "erin".into(),
        journey: 0,
    });
    assert!(matches!(reply, Response::Accepted { .. }), "{reply:?}");

    // The tick driver settles the journey on its own thread; its counts
    // reach the snapshot once it flushes after the pass.
    let deadline = Instant::now() + Duration::from_secs(10);
    let tick = loop {
        let Response::Metrics(jsonl) = call(Request::Metrics) else {
            panic!("metrics reply");
        };
        if let Some(line) = jsonl
            .lines()
            .find(|line| line.contains("\"name\":\"serve.tick\""))
        {
            break line.to_owned();
        }
        assert!(Instant::now() < deadline, "no serve.tick in {jsonl}");
        std::thread::sleep(Duration::from_millis(1));
    };
    telemetry::set_level(telemetry::TelemetryLevel::Off);
    assert!(tick.starts_with("{\"type\":\"histogram\""), "{tick}");

    assert!(matches!(
        call(Request::Shutdown),
        Response::ShuttingDown { .. }
    ));
    drop(client);
    joined.join().expect("server join");
}

/// Connection 0's `serve.conn.requests` in a `Metrics` reply. The counter
/// is process-wide, so it also holds the connection 0 of every earlier
/// server in this binary.
fn first_connection_requests(jsonl: &str) -> u64 {
    counter(jsonl, "serve.conn.requests")
}

/// The counter `name` (index 0) in a `Metrics` reply, 0 when the reply has
/// no such row.
fn counter(jsonl: &str, name: &str) -> u64 {
    let row = format!("\"name\":\"{name}\",\"index\":0,");
    jsonl
        .lines()
        .find(|line| line.contains(&row))
        .and_then(|line| line.split("\"value\":").nth(1))
        .map_or(0, |value| {
            value
                .trim_end_matches('}')
                .parse()
                .expect("a counter value")
        })
}

#[test]
fn metrics_reply_counts_another_live_connections_requests() {
    let _level = LEVEL.lock().expect("a metrics test panicked");
    telemetry::set_level(telemetry::TelemetryLevel::Counters);
    let server = Server::bind(Service::new(ServeConfig::default()), "127.0.0.1:0").expect("bind");
    let addr = server.addr();
    let joined = std::thread::spawn(move || server.join());

    // Connection A is accepted first (index 0) and stays open throughout.
    let mut a = PipelinedClient::connect(addr).expect("connect A");
    let mut tick_a = || {
        a.send(&Request::Tick).expect("send");
        assert!(matches!(a.recv().expect("reply"), Response::Ticked { .. }));
    };
    tick_a();
    let mut b = PipelinedClient::connect(addr).expect("connect B");
    let mut metrics_b = || {
        b.send(&Request::Metrics).expect("send");
        let Response::Metrics(jsonl) = b.recv().expect("reply") else {
            panic!("metrics reply");
        };
        jsonl
    };
    let before = first_connection_requests(&metrics_b());
    // A sends N requests and reads every reply; B's next reply must
    // count all N.
    const N: u64 = 6;
    for _ in 0..N {
        tick_a();
    }
    let jsonl = metrics_b();
    telemetry::set_level(telemetry::TelemetryLevel::Off);
    assert_eq!(
        first_connection_requests(&jsonl) - before,
        N,
        "connection A's {N} requests missing from {jsonl}"
    );

    b.send(&Request::Shutdown).expect("send");
    assert!(matches!(
        b.recv().expect("reply"),
        Response::ShuttingDown { .. }
    ));
    drop((a, b));
    joined.join().expect("server join");
}

#[test]
fn metrics_reply_counts_each_accepted_connection_live() {
    let _level = LEVEL.lock().expect("a metrics test panicked");
    telemetry::set_level(telemetry::TelemetryLevel::Counters);
    let server = Server::bind(Service::new(ServeConfig::default()), "127.0.0.1:0").expect("bind");
    let addr = server.addr();
    let joined = std::thread::spawn(move || server.join());
    let metrics = |client: &mut PipelinedClient| {
        client.send(&Request::Metrics).expect("send");
        let Response::Metrics(jsonl) = client.recv().expect("reply") else {
            panic!("metrics reply");
        };
        jsonl
    };

    // The accept thread outlives both connections, so each accept must
    // reach the collector before that connection is served.
    let mut a = PipelinedClient::connect(addr).expect("connect A");
    let seen_by_a = counter(&metrics(&mut a), "serve.net.connections");
    let mut b = PipelinedClient::connect(addr).expect("connect B");
    let jsonl = metrics(&mut b);
    telemetry::set_level(telemetry::TelemetryLevel::Off);
    assert_eq!(
        counter(&jsonl, "serve.net.connections"),
        seen_by_a + 1,
        "connection B's accept is missing from {jsonl}"
    );

    b.send(&Request::Shutdown).expect("send");
    assert!(matches!(
        b.recv().expect("reply"),
        Response::ShuttingDown { .. }
    ));
    drop((a, b));
    joined.join().expect("server join");
}
