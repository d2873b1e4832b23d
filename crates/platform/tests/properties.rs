//! Property tests for the platform: feed FIFO discipline, attack
//! post-conditions, and journey determinism.

use std::collections::{BTreeMap, VecDeque};
use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use refstate_crypto::{DsaKeyPair, DsaParams, Signed};
use refstate_platform::{
    run_plain_journey, AgentImage, Attack, EventLog, FeedItem, Host, HostSpec, InputFeed,
};
use refstate_vm::{assemble, DataState, ExecConfig, Value};

/// Producer envelopes over the values `0..8`, sealed once for every case.
fn envelopes() -> &'static [Signed<Value>] {
    static ENVELOPES: OnceLock<Vec<Signed<Value>>> = OnceLock::new();
    ENVELOPES.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(11);
        let keys = DsaKeyPair::generate(&DsaParams::test_group_256(), &mut rng);
        (0..8)
            .map(|v| Signed::seal(Value::Int(v), "producer", &keys, &mut rng))
            .collect()
    })
}

/// What a model queue entry records of a feed item: its value and
/// whether it carries provenance.
fn seen(item: Option<FeedItem>) -> Option<(Value, bool)> {
    item.map(|item| (item.value, item.provenance.is_some()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The feed hands values back per tag in exactly insertion order.
    #[test]
    fn feed_is_fifo_per_tag(values in proptest::collection::vec((0u8..3, any::<i64>()), 0..40)) {
        let mut feed = InputFeed::new();
        for (tag, v) in &values {
            feed.push(format!("t{tag}"), Value::Int(*v));
        }
        for tag in 0u8..3 {
            let expected: Vec<i64> =
                values.iter().filter(|(t, _)| *t == tag).map(|(_, v)| *v).collect();
            let mut actual = Vec::new();
            while let Some(item) = feed.take(&format!("t{tag}")) {
                actual.push(item.value.as_int().unwrap());
            }
            prop_assert_eq!(actual, expected);
        }
    }

    /// drop_next removes exactly one element; forge_all preserves length.
    #[test]
    fn feed_attack_postconditions(n in 1usize..20) {
        let mut feed = InputFeed::new();
        for i in 0..n {
            feed.push("x", Value::Int(i as i64));
        }
        feed.drop_next("x");
        prop_assert_eq!(feed.remaining("x"), n - 1);
        feed.forge_all("x", &Value::Int(-1));
        prop_assert_eq!(feed.remaining("x"), n - 1);
        while let Some(item) = feed.take("x") {
            prop_assert_eq!(item.value, Value::Int(-1));
            prop_assert!(item.provenance.is_none());
        }
    }

    /// A plain journey's final state is a deterministic function of the
    /// host inputs, regardless of the key-generation seed.
    #[test]
    fn journey_deterministic_across_seeds(
        a in -100i64..100,
        b in -100i64..100,
        seed1 in 0u64..500,
        seed2 in 500u64..1000,
    ) {
        let program = assemble(
            r#"
            input "n"
            load "acc"
            add
            store "acc"
            load "done"
            jnz fin
            push true
            store "done"
            push "h2"
            migrate
        fin:
            halt
        "#,
        )
        .unwrap();
        let build = |seed: u64| -> Vec<Host> {
            let mut rng = StdRng::seed_from_u64(seed);
            let params = DsaParams::test_group_256();
            vec![
                Host::new(HostSpec::new("h1").with_input("n", Value::Int(a)), &params, &mut rng),
                Host::new(HostSpec::new("h2").with_input("n", Value::Int(b)), &params, &mut rng),
            ]
        };
        let run = |mut hosts: Vec<Host>| {
            let mut state = DataState::new();
            state.set("acc", Value::Int(0));
            state.set("done", Value::Bool(false));
            let agent = AgentImage::new("d", program.clone(), state);
            let log = EventLog::new();
            run_plain_journey(&mut hosts, "h1", agent, &ExecConfig::default(), &log, 5)
                .unwrap()
                .final_image
                .state
        };
        let s1 = run(build(seed1));
        let s2 = run(build(seed2));
        prop_assert_eq!(&s1, &s2);
        prop_assert_eq!(s1.get_int("acc"), Some(a + b));
    }

    /// A tampering host always leaves the forged value in place, and the
    /// recorded input log still carries the honest inputs.
    #[test]
    fn tamper_leaves_honest_input_log(honest in -100i64..100, forged in -100i64..100) {
        prop_assume!(honest != forged);
        let mut rng = StdRng::seed_from_u64(77);
        let params = DsaParams::test_group_256();
        let mut host = Host::new(
            HostSpec::new("m")
                .with_input("n", Value::Int(honest))
                .malicious(Attack::TamperVariable { name: "v".into(), value: Value::Int(forged) }),
            &params,
            &mut rng,
        );
        let program = assemble("input \"n\"\nstore \"v\"\nhalt").unwrap();
        let agent = AgentImage::new("t", program, DataState::new());
        let log = EventLog::new();
        let record = host.execute_session(&agent, &ExecConfig::default(), &log).unwrap();
        prop_assert_eq!(record.outcome.state.get_int("v"), Some(forged));
        prop_assert_eq!(record.outcome.input_log.records()[0].value.clone(), Value::Int(honest));
    }
}

// Boosted in CI with `PROPTEST_CASES`, so no explicit case count.
proptest! {
    /// Interleaved `push`, `push_signed`, `take`, `drop_next` and
    /// `forge_all` over three tags act on the feed as on one FIFO queue
    /// per tag: every take returns the model's front, and `remaining`
    /// agrees after every step.
    #[test]
    fn feed_matches_a_queue_per_tag(
        ops in proptest::collection::vec((0u8..5, 0u8..3, 0i64..8), 0..48),
    ) {
        let mut feed = InputFeed::new();
        let mut model: BTreeMap<u8, VecDeque<(Value, bool)>> = BTreeMap::new();
        for (op, tag, v) in ops {
            let name = ["a", "b", "c"][tag as usize];
            let queue = model.entry(tag).or_default();
            match op {
                0 => {
                    feed.push(name, Value::Int(v));
                    queue.push_back((Value::Int(v), false));
                }
                1 => {
                    feed.push_signed(name, envelopes()[v as usize].clone());
                    queue.push_back((Value::Int(v), true));
                }
                2 => prop_assert_eq!(seen(feed.take(name)), queue.pop_front()),
                3 => prop_assert_eq!(seen(feed.drop_next(name)), queue.pop_front()),
                _ => {
                    feed.forge_all(name, &Value::Int(-v));
                    for entry in queue.iter_mut() {
                        *entry = (Value::Int(-v), false);
                    }
                }
            }
            for (tag, queue) in &model {
                prop_assert_eq!(feed.remaining(["a", "b", "c"][*tag as usize]), queue.len());
            }
        }
        for (tag, queue) in &mut model {
            let name = ["a", "b", "c"][*tag as usize];
            while let Some(expected) = queue.pop_front() {
                prop_assert_eq!(seen(feed.take(name)), Some(expected));
            }
            prop_assert!(feed.take(name).is_none());
        }
    }
}
