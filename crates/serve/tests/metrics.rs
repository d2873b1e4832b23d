//! `Request::Metrics` against a resident server: an empty reply at
//! telemetry `off`, and the process's counters and histograms as JSONL
//! once it records. A test binary of its own, because the telemetry level
//! is process-global and other tests flip it.

use std::time::{Duration, Instant};

use refstate_serve::{
    PipelinedClient, RegisterOwner, Request, Response, ServeConfig, Server, Service,
};
use refstate_telemetry as telemetry;

#[test]
fn metrics_request_returns_the_running_servers_snapshot() {
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
