//! End-to-end integration tests spanning every crate: agents assembled from
//! text, executed across hosts with real DSA signatures, protected by each
//! mechanism, attacked in every class the taxonomy names.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use refstate::core::framework::{run_framework_journey, ProtectedAgent, ProtectionConfig};
use refstate::core::protocol::{run_protected_journey, ProtocolConfig};
use refstate::core::rules::{Pred, RuleSet};
use refstate::core::{
    CheckMoment, FailureReason, ReExecutionChecker, RuleChecker, UnorderedLists,
    VerificationPipeline,
};
use refstate::crypto::{DsaParams, KeyDirectory};
use refstate::mechanisms::{audit_journey, run_traced_journey};
use refstate::platform::{AgentImage, Attack, Event, EventLog, Host, HostId, HostSpec};
use refstate::vm::{assemble, DataState, ExecConfig, Value};

/// A five-host shopping tour: home → 3 shops → home. Shops are untrusted.
fn tour_agent() -> AgentImage {
    let program = assemble(
        r#"
        input "quote"
        load "quotes"
        swap
        listpush
        store "quotes"
        load "hop"
        push 1
        add
        store "hop"
        load "hop"
        load "route"
        listlen
        gt
        jnz finish
        load "route"
        load "hop"
        push 1
        sub
        listget
        migrate
    finish:
        halt
    "#,
    )
    .unwrap();
    let mut state = DataState::new();
    state.set(
        "route",
        Value::List(vec![
            Value::Str("shop-1".into()),
            Value::Str("shop-2".into()),
            Value::Str("shop-3".into()),
        ]),
    );
    state.set("quotes", Value::List(vec![]));
    state.set("hop", Value::Int(0));
    AgentImage::new("tour", program, state)
}

fn tour_hosts(attacks: &[(&str, Attack)], seed: u64) -> Vec<Host> {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = DsaParams::test_group_256();
    ["home", "shop-1", "shop-2", "shop-3"]
        .into_iter()
        .enumerate()
        .map(|(i, id)| {
            let mut spec = HostSpec::new(id).with_input("quote", Value::Int(100 + i as i64 * 10));
            if id == "home" {
                spec = spec.trusted();
            }
            if let Some((_, attack)) = attacks.iter().find(|(h, _)| *h == id) {
                spec = spec.clone().malicious(attack.clone());
            }
            Host::new(spec, &params, &mut rng)
        })
        .collect()
}

#[test]
fn five_hop_honest_tour_under_protocol() {
    let mut hosts = tour_hosts(&[], 1);
    let log = EventLog::new();
    let outcome = run_protected_journey(
        &mut hosts,
        "home",
        tour_agent(),
        &ProtocolConfig::default(),
        &log,
    )
    .unwrap();
    assert!(outcome.clean());
    assert_eq!(outcome.path.len(), 4);
    let quotes = outcome
        .final_state
        .get("quotes")
        .unwrap()
        .as_list()
        .unwrap();
    assert_eq!(quotes.len(), 4);
    // Three untrusted shops each get their previous session checked; the
    // final shop session is checked by the owner.
    assert_eq!(outcome.stats.reexecutions, 3);
}

#[test]
fn protocol_catches_middle_shop_anywhere() {
    for culprit in ["shop-1", "shop-2", "shop-3"] {
        let attack = Attack::TamperVariable {
            name: "quotes".into(),
            value: Value::List(vec![Value::Int(1)]),
        };
        let mut hosts = tour_hosts(&[(culprit, attack)], 2);
        let log = EventLog::new();
        let outcome = run_protected_journey(
            &mut hosts,
            "home",
            tour_agent(),
            &ProtocolConfig::default(),
            &log,
        )
        .unwrap();
        let fraud = outcome
            .fraud
            .unwrap_or_else(|| panic!("{culprit} not caught"));
        assert_eq!(fraud.culprit.as_str(), culprit);
    }
}

#[test]
fn protocol_fraud_evidence_is_third_party_verifiable() {
    let attack = Attack::ScaleIntVariable {
        name: "hop".into(),
        factor: 2,
    };
    let mut hosts = tour_hosts(&[("shop-2", attack)], 3);
    let mut dir = KeyDirectory::new();
    for h in &hosts {
        dir.register(h.id().as_str(), h.public_key().clone());
    }
    let log = EventLog::new();
    let outcome = run_protected_journey(
        &mut hosts,
        "home",
        tour_agent(),
        &ProtocolConfig::default(),
        &log,
    )
    .unwrap();
    let fraud = outcome.fraud.expect("scaling detected");
    // A judge who only has the directory can re-verify the culprit's
    // signature over its false claim.
    let claim = fraud.signed_claim.expect("claim attached");
    assert_eq!(claim.signer(), "shop-2");
    assert!(claim.verify(&dir).is_ok());
}

#[test]
fn framework_unordered_list_comparator_tolerates_permutations() {
    // An agent whose quote list order is scheduling-dependent (the paper's
    // two-thread example): the shop reorders the list — harmless, and the
    // UnorderedLists comparator accepts it, while exact comparison flags it.
    let attack = Attack::TamperVariable {
        name: "quotes".into(),
        // Same multiset the honest shop-1 session produces, different order:
        // home pushed 100, shop-1 pushed 110 -> honest is [100, 110].
        value: Value::List(vec![Value::Int(110), Value::Int(100)]),
    };
    // Exact comparison: detected.
    let mut hosts = tour_hosts(&[("shop-1", attack.clone())], 4);
    let log = EventLog::new();
    let config = ProtectionConfig::new(Arc::new(ReExecutionChecker::new()));
    let outcome = run_framework_journey(
        &mut hosts,
        "home",
        ProtectedAgent::new(tour_agent(), config),
        &log,
    )
    .unwrap();
    assert!(
        outcome.fraud.is_some(),
        "exact compare flags the permutation"
    );

    // Unordered comparison on "quotes": tolerated.
    let mut hosts = tour_hosts(&[("shop-1", attack)], 4);
    let log = EventLog::new();
    let comparator = Arc::new(UnorderedLists::new(["quotes"]));
    let config = ProtectionConfig::new(Arc::new(ReExecutionChecker::with_compare(comparator)));
    let outcome = run_framework_journey(
        &mut hosts,
        "home",
        ProtectedAgent::new(tour_agent(), config),
        &log,
    )
    .unwrap();
    assert!(
        outcome.fraud.is_none(),
        "programmer-specified comparison accepts order-only differences"
    );
}

#[test]
fn after_task_rules_are_cheap_but_late() {
    let attack = Attack::DeleteVariable {
        name: "quotes".into(),
    };
    let mut hosts = tour_hosts(&[("shop-1", attack)], 5);
    let log = EventLog::new();
    let rules = RuleSet::new().rule("quotes-exist", Pred::Defined("quotes".into()));
    let config =
        ProtectionConfig::new(Arc::new(RuleChecker::new(rules))).moment(CheckMoment::AfterTask);
    let err_or_outcome = run_framework_journey(
        &mut hosts,
        "home",
        ProtectedAgent::new(tour_agent(), config),
        &log,
    );
    // The deleted variable crashes the *next* session (load "quotes")
    // before the task-end check can even run: late checking lets a
    // compromised agent keep running — the §4.1 trade-off, surfacing here
    // as a VM error instead of a verdict.
    assert!(err_or_outcome.is_err());
}

#[test]
fn provenance_extension_exposes_forged_inputs() {
    // §4.3: inputs signed by their producer. The host forges the value but
    // cannot forge the producer's signature.
    let mut rng = StdRng::seed_from_u64(6);
    let params = DsaParams::test_group_256();
    let producer = refstate::crypto::DsaKeyPair::generate(&params, &mut rng);
    let mut dir = KeyDirectory::new();
    dir.register("quote-notary", producer.public().clone());

    let mut spec = HostSpec::new("shop");
    let genuine =
        refstate::crypto::Signed::seal(Value::Int(240), "quote-notary", &producer, &mut rng);
    spec.feed.push_signed("quote", genuine);
    let mut shop = Host::new(
        spec.malicious(Attack::ForgeInput {
            tag: "quote".into(),
            value: Value::Int(90),
        }),
        &params,
        &mut rng,
    );

    let program = assemble("input \"quote\"\nstore \"q\"\nhalt").unwrap();
    let agent = AgentImage::new("buyer", program, DataState::new());
    let log = EventLog::new();
    let record = shop
        .execute_session(&agent, &ExecConfig::default(), &log)
        .unwrap();

    // The re-execution check is blind: log and state agree.
    assert_eq!(record.outcome.state.get_int("q"), Some(90));
    // But the provenance channel is empty for the forged value — the
    // checking party rejects inputs lacking a verifiable producer
    // signature.
    let all_proven = record
        .provenance
        .iter()
        .all(|p| p.as_ref().is_some_and(|env| env.verify(&dir).is_ok()));
    assert!(!all_proven, "forged input carries no valid provenance");
}

#[test]
fn traces_and_protocol_agree_on_the_culprit() {
    let attack = Attack::TamperVariable {
        name: "quotes".into(),
        value: Value::List(vec![Value::Int(5)]),
    };

    // Protocol: detected en route by shop-3.
    let mut hosts = tour_hosts(&[("shop-2", attack.clone())], 7);
    let log = EventLog::new();
    let protocol_outcome = run_protected_journey(
        &mut hosts,
        "home",
        tour_agent(),
        &ProtocolConfig::default(),
        &log,
    )
    .unwrap();
    let protocol_culprit = protocol_outcome.fraud.unwrap().culprit;

    // Traces: detected after the fact by the owner audit.
    let mut hosts = tour_hosts(&[("shop-2", attack)], 7);
    let mut dir = KeyDirectory::new();
    for h in &hosts {
        dir.register(h.id().as_str(), h.public_key().clone());
    }
    let log = EventLog::new();
    let agent = tour_agent();
    let program = agent.program.clone();
    let journey =
        run_traced_journey(&mut hosts, "home", agent, &ExecConfig::default(), &log, 10).unwrap();
    let report = audit_journey(
        &journey,
        &program,
        &dir,
        &ExecConfig::default(),
        &log,
        &VerificationPipeline::new(),
    );
    assert_eq!(report.culprit.as_ref(), Some(&protocol_culprit));
}

#[test]
fn event_log_tells_the_whole_story() {
    let attack = Attack::TamperVariable {
        name: "quotes".into(),
        value: Value::List(vec![Value::Int(5)]),
    };
    let mut hosts = tour_hosts(&[("shop-1", attack)], 8);
    let log = EventLog::new();
    let _ = run_protected_journey(
        &mut hosts,
        "home",
        tour_agent(),
        &ProtocolConfig::default(),
        &log,
    )
    .unwrap();
    assert!(log.count_matching(|e| matches!(e, Event::AgentCreated { .. })) == 1);
    assert!(log.count_matching(|e| matches!(e, Event::SessionStarted { .. })) >= 2);
    assert!(log.count_matching(|e| matches!(e, Event::AttackApplied { .. })) == 1);
    assert!(log.count_matching(|e| matches!(e, Event::FraudDetected { .. })) == 1);
    let rendered = log.render();
    assert!(rendered.contains("ATTACK"));
    assert!(rendered.contains("fraud by shop-1"));
}

#[test]
fn skip_trusted_false_checks_every_session() {
    let mut hosts = tour_hosts(&[], 9);
    let log = EventLog::new();
    let config = ProtocolConfig {
        skip_trusted: false,
        ..Default::default()
    };
    let outcome = run_protected_journey(&mut hosts, "home", tour_agent(), &config, &log).unwrap();
    assert!(outcome.clean());
    // All four sessions re-executed.
    assert_eq!(outcome.stats.reexecutions, 4);
}

#[test]
fn migration_message_carries_the_extra_state_and_input() {
    // §4.1: the protocol transports "one more agent state plus the input".
    let mut hosts = tour_hosts(&[], 10);
    let log = EventLog::new();
    let _ = run_protected_journey(
        &mut hosts,
        "home",
        tour_agent(),
        &ProtocolConfig::default(),
        &log,
    )
    .unwrap();
    let plain_sizes: Vec<usize> = {
        let mut hosts = tour_hosts(&[], 10);
        let log = EventLog::new();
        let _ = refstate::platform::run_plain_journey(
            &mut hosts,
            "home",
            tour_agent(),
            &ExecConfig::default(),
            &log,
            10,
        )
        .unwrap();
        log.snapshot()
            .iter()
            .filter_map(|e| match e {
                Event::Migrated { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .collect()
    };
    let protected_sizes: Vec<usize> = log
        .snapshot()
        .iter()
        .filter_map(|e| match e {
            Event::Migrated { bytes, .. } => Some(*bytes),
            _ => None,
        })
        .collect();
    assert_eq!(plain_sizes.len(), protected_sizes.len());
    for (plain, protected) in plain_sizes.iter().zip(&protected_sizes) {
        assert!(
            protected > plain,
            "protected migration ({protected} B) must exceed plain ({plain} B)"
        );
    }
}

#[test]
fn collusion_detected_only_when_checker_is_honest() {
    // shop-1 tampers with shop-2 as accomplice: undetected.
    let collude = Attack::CollaborateTamper {
        name: "quotes".into(),
        value: Value::List(vec![Value::Int(5)]),
        accomplice: HostId::new("shop-2"),
    };
    let mut hosts = tour_hosts(&[("shop-1", collude)], 11);
    let log = EventLog::new();
    let outcome = run_protected_journey(
        &mut hosts,
        "home",
        tour_agent(),
        &ProtocolConfig::default(),
        &log,
    )
    .unwrap();
    assert!(
        outcome.fraud.is_none(),
        "consecutive-host collusion wins (§5.1)"
    );

    // Same tampering, accomplice elsewhere: shop-2 checks honestly.
    let lone = Attack::CollaborateTamper {
        name: "quotes".into(),
        value: Value::List(vec![Value::Int(5)]),
        accomplice: HostId::new("nobody"),
    };
    let mut hosts = tour_hosts(&[("shop-1", lone)], 12);
    let log = EventLog::new();
    let outcome = run_protected_journey(
        &mut hosts,
        "home",
        tour_agent(),
        &ProtocolConfig::default(),
        &log,
    )
    .unwrap();
    assert!(outcome.fraud.is_some());
}

#[test]
fn replay_failure_reason_names_the_problem() {
    // A host that forges its input log inconsistently (drops the record but
    // keeps the state) produces a ReplayFailed, not a StateMismatch.
    let attack = Attack::SkipExecution;
    let mut hosts = tour_hosts(&[("shop-1", attack)], 13);
    let log = EventLog::new();
    let outcome = run_protected_journey(
        &mut hosts,
        "home",
        tour_agent(),
        &ProtocolConfig::default(),
        &log,
    )
    .unwrap();
    let fraud = outcome.fraud.expect("skip caught");
    match fraud.reason {
        FailureReason::ReplayFailed { .. }
        | FailureReason::StateMismatch { .. }
        | FailureReason::EndMismatch { .. } => {}
        other => panic!("unexpected failure reason {other:?}"),
    }
}
