//! Measuring and rendering the paper's Tables 1 and 2.

use std::time::{Duration, Instant};

use refstate_core::protocol::{run_protected_journey, ProtocolConfig};
use refstate_crypto::DsaParams;
use refstate_platform::{Event, EventLog, HostId, SessionRecord};
use refstate_vm::{ExecConfig, SessionEnd};
use refstate_wire::to_wire;

use crate::generic_agent::{build_generic_agent, build_three_hosts, AgentParams};

/// Execution config for measurements: the full-size paper configuration
/// runs ~80M instructions per session, far beyond the default runaway
/// guard.
fn bench_exec() -> ExecConfig {
    ExecConfig {
        step_limit: u64::MAX,
        ..Default::default()
    }
}

/// The four measured configurations, in the paper's row order.
pub const PAPER_CONFIGS: [AgentParams; 4] = [
    AgentParams {
        cycles: 1,
        inputs: 1,
    },
    AgentParams {
        cycles: 1,
        inputs: 100,
    },
    AgentParams {
        cycles: 10000,
        inputs: 1,
    },
    AgentParams {
        cycles: 10000,
        inputs: 100,
    },
];

/// One measurement in the paper's cost decomposition.
#[derive(Debug, Clone, Copy, Default)]
pub struct Measurement {
    /// Time computing and verifying signatures.
    pub sign_verify: Duration,
    /// Time executing agent code in the VM (sessions plus, for protected
    /// runs, the checking re-executions — the paper's "cycle" column
    /// counts the re-executed cycles too, which is why its factors sit
    /// near 4/3).
    pub cycle: Duration,
    /// Everything else: hashing, state copying, protocol bookkeeping.
    pub remainder: Duration,
    /// Wall-clock total.
    pub overall: Duration,
    /// VM instructions executed: every session's and, for protected
    /// runs, every checking re-execution's. Unlike the times, a fixed
    /// agent and seed always read the same count.
    pub steps: u64,
}

impl Measurement {
    fn finish(mut self, started: Instant) -> Self {
        self.overall = started.elapsed();
        self.remainder = self
            .overall
            .saturating_sub(self.sign_verify)
            .saturating_sub(self.cycle);
        self
    }
}

/// A rendered table row: the measurement plus its parameters.
#[derive(Debug, Clone)]
pub struct TableRow {
    /// The agent configuration.
    pub params: AgentParams,
    /// Plain (Table 1) measurement.
    pub plain: Measurement,
    /// Protected (Table 2) measurement.
    pub protected: Measurement,
}

/// Runs the *plain* configuration: no protocol, but the whole agent is
/// signed before each migration and verified on arrival, exactly like the
/// paper's baseline ("without using the protocol (but being signed and
/// verified as a whole)").
///
/// # Panics
///
/// Panics if the journey fails — the benchmark environment is fully
/// controlled, so a failure is a harness bug.
pub fn measure_plain(params: AgentParams, dsa: &DsaParams, seed: u64) -> Measurement {
    let mut hosts = build_three_hosts(params, dsa, seed);
    let agent = build_generic_agent(params);
    let exec = bench_exec();
    let log = EventLog::new();

    let mut m = Measurement::default();
    let started = Instant::now();

    // The owner signs the departing agent.
    let mut directory = refstate_crypto::KeyDirectory::new();
    for h in hosts.iter() {
        directory.register(h.id().as_str(), h.public_key().clone());
    }

    let mut image = agent;
    let mut current = HostId::new("h1");
    let mut sender: Option<HostId> = None;
    loop {
        // Arrival verification of the whole agent (skipped at creation).
        if let Some(from) = sender.take() {
            let t = Instant::now();
            let bytes = to_wire(&image);
            // The signature travels alongside; here we verify the sender's
            // signature over the serialized agent.
            let host = hosts
                .iter_mut()
                .find(|h| h.id() == &from)
                .expect("sender exists");
            let envelope = host.sign(bytes);
            assert!(
                envelope.verify(&directory).is_ok(),
                "whole-agent signature verifies"
            );
            m.sign_verify += t.elapsed();
        }

        let host_index = hosts
            .iter()
            .position(|h| h.id() == &current)
            .expect("host exists");
        let t = Instant::now();
        let record: SessionRecord = hosts[host_index]
            .execute_session(&image, &exec, &log)
            .expect("benchmark session succeeds");
        m.cycle += t.elapsed();
        m.steps += record.outcome.steps;
        image.state = record.outcome.state.clone();
        match &record.outcome.end {
            SessionEnd::Halt => break,
            SessionEnd::Migrate(next) => {
                sender = Some(current.clone());
                current = HostId::from(next.as_str());
            }
        }
    }
    m.finish(started)
}

/// Runs the *protected* configuration under the §5.1 protocol.
///
/// # Panics
///
/// Panics if the journey fails or reports fraud — the benchmark hosts are
/// honest, so either indicates a harness bug.
pub fn measure_protected(params: AgentParams, dsa: &DsaParams, seed: u64) -> Measurement {
    let mut hosts = build_three_hosts(params, dsa, seed);
    let agent = build_generic_agent(params);
    let config = ProtocolConfig {
        exec: bench_exec(),
        ..Default::default()
    };
    let log = EventLog::new();

    let started = Instant::now();
    let outcome = run_protected_journey(&mut hosts, "h1", agent, &config, &log)
        .expect("benchmark journey succeeds");
    assert!(outcome.fraud.is_none(), "benchmark hosts are honest");
    let stats = outcome.stats;
    let session_steps: u64 = log
        .snapshot()
        .iter()
        .map(|event| match event {
            Event::SessionEnded { steps, .. } => *steps,
            _ => 0,
        })
        .sum();
    Measurement {
        sign_verify: stats.sign_verify,
        cycle: stats.execution + stats.checking,
        remainder: Duration::ZERO,
        overall: Duration::ZERO,
        steps: session_steps + config.pipeline.snapshot().steps,
    }
    .finish(started)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn factor(protected: Duration, plain: Duration) -> f64 {
    if plain.as_nanos() == 0 {
        f64::NAN
    } else {
        protected.as_secs_f64() / plain.as_secs_f64()
    }
}

/// Renders both tables in the paper's layout: absolute milliseconds for
/// Table 1, milliseconds with bracketed overhead factors for Table 2.
pub fn render_tables(rows: &[TableRow]) -> String {
    let mut out = String::new();
    out.push_str("Table 1: measured times for plain agents [ms]\n");
    out.push_str(&format!(
        "{:<26} {:>12} {:>12} {:>12} {:>12}\n",
        "", "sign&verify", "cycle", "remainder", "overall"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<26} {:>12.1} {:>12.1} {:>12.1} {:>12.1}\n",
            row.params.label(),
            ms(row.plain.sign_verify),
            ms(row.plain.cycle),
            ms(row.plain.remainder),
            ms(row.plain.overall),
        ));
    }
    out.push('\n');
    out.push_str("Table 2: measured times for protected agents [ms] (factor vs plain)\n");
    out.push_str(&format!(
        "{:<26} {:>18} {:>18} {:>18} {:>18}\n",
        "", "sign&verify", "cycle", "remainder", "overall"
    ));
    for row in rows {
        let cell = |p: Duration, q: Duration| format!("{:.1} ({:.1})", ms(p), factor(p, q));
        out.push_str(&format!(
            "{:<26} {:>18} {:>18} {:>18} {:>18}\n",
            row.params.label(),
            cell(row.protected.sign_verify, row.plain.sign_verify),
            cell(row.protected.cycle, row.plain.cycle),
            cell(row.protected.remainder, row.plain.remainder),
            cell(row.protected.overall, row.plain.overall),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny configuration so the test suite stays fast; the shape
    /// assertions mirror the paper's qualitative findings.
    fn tiny() -> AgentParams {
        AgentParams {
            cycles: 5,
            inputs: 5,
        }
    }

    #[test]
    fn plain_measurement_decomposes() {
        let m = measure_plain(tiny(), &DsaParams::test_group_256(), 7);
        assert!(m.overall >= m.sign_verify);
        assert!(m.overall >= m.cycle);
        assert!(m.overall.as_nanos() > 0);
        assert_eq!(
            m.overall.as_nanos(),
            (m.sign_verify + m.cycle + m.remainder).as_nanos()
        );
    }

    #[test]
    fn protocol_roughly_doubles_computation() {
        // "the computation is roughly doubled" — with one untrusted host
        // in three, the protected run re-executes one session. Counted in
        // VM instructions, which no load on the host can move, its work
        // is the plain run's plus that one session's.
        let params = AgentParams {
            cycles: 200,
            inputs: 1,
        };
        let dsa = DsaParams::test_group_256();
        let plain = measure_plain(params, &dsa, 11).steps;
        let protected = measure_protected(params, &dsa, 11).steps;
        let f = protected as f64 / plain as f64;
        assert!(
            (1.3..1.4).contains(&f),
            "one of three sessions is re-executed: {protected} steps against {plain} ({f:.3})"
        );
    }

    #[test]
    fn render_includes_all_rows() {
        let rows = vec![TableRow {
            params: tiny(),
            plain: measure_plain(tiny(), &DsaParams::test_group_256(), 3),
            protected: measure_protected(tiny(), &DsaParams::test_group_256(), 4),
        }];
        let text = render_tables(&rows);
        assert!(text.contains("Table 1"));
        assert!(text.contains("Table 2"));
        assert!(text.contains("5 inputs, 5 cycles"));
        assert!(text.contains('('), "table 2 cells carry factors");
    }
}
