//! Per-host input feeds: the data a host supplies to visiting agents.

use std::sync::Arc;

use refstate_crypto::Signed;
use refstate_vm::Value;

/// One queued input value, optionally carrying a producer signature.
///
/// Plain values model the common case where the *host* relays input and can
/// therefore lie about it. Signed values model the paper's §4.3 extension:
/// "input can be used that is signed by the party that produces the input",
/// which makes input forgery detectable.
#[derive(Debug, Clone)]
pub struct FeedItem {
    /// The value handed to the agent.
    pub value: Value,
    /// Producer signature over the value, when the §4.3 extension is used.
    pub provenance: Option<Signed<Value>>,
}

impl FeedItem {
    /// A plain, unsigned input item.
    pub fn plain(value: Value) -> Self {
        FeedItem {
            value,
            provenance: None,
        }
    }

    /// An input item with producer provenance.
    pub fn signed(envelope: Signed<Value>) -> Self {
        FeedItem {
            value: envelope.payload().clone(),
            provenance: Some(envelope),
        }
    }
}

/// The inputs a host will supply to an agent, keyed by input tag, plus
/// scripted partner messages.
///
/// The feed persists across sessions of the same host (an agent visiting
/// twice continues consuming where it left off), matching how a shop would
/// keep serving quotes.
///
/// A feed is one small vector of tagged items in push order (and one of
/// messages), first-in first-out per tag; a host's feed holds a handful,
/// so finding a tag's next item is a short scan. Tags are shared: every
/// item of a tag points at one `Arc<str>`, a push of a tag already queued
/// reuses its name, and a caller that passes a shared name (a generator's
/// tag table) adds none. So building a feed allocates its vector, and
/// cloning one (a spec per journey) allocates one vector per part.
///
/// # Examples
///
/// ```
/// use refstate_platform::InputFeed;
/// use refstate_vm::Value;
///
/// let mut feed = InputFeed::new();
/// feed.push("price", Value::Int(100));
/// feed.push("price", Value::Int(90));
/// assert_eq!(feed.remaining("price"), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct InputFeed {
    inputs: Vec<(Arc<str>, FeedItem)>,
    messages: Vec<(Arc<str>, Value)>,
}

/// `name` as the pointer an entry of `queued` already shares, or as a new
/// shared name when none does.
fn shared<'a, T: 'a>(
    queued: impl IntoIterator<Item = &'a (Arc<str>, T)>,
    name: impl AsRef<str> + Into<Arc<str>>,
) -> Arc<str> {
    match queued.into_iter().find(|(n, _)| **n == *name.as_ref()) {
        Some((n, _)) => Arc::clone(n),
        None => name.into(),
    }
}

/// Removes and returns the first entry of `queued` named `name`.
fn take_first<T>(queued: &mut Vec<(Arc<str>, T)>, name: &str) -> Option<T> {
    let at = queued.iter().position(|(n, _)| **n == *name)?;
    Some(queued.remove(at).1)
}

impl InputFeed {
    /// Creates an empty feed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a plain input value for `tag`.
    pub fn push(&mut self, tag: impl AsRef<str> + Into<Arc<str>>, value: Value) -> &mut Self {
        self.push_item(tag, FeedItem::plain(value))
    }

    /// Queues a signed input value for `tag` (§4.3 extension).
    pub fn push_signed(
        &mut self,
        tag: impl AsRef<str> + Into<Arc<str>>,
        envelope: Signed<Value>,
    ) -> &mut Self {
        self.push_item(tag, FeedItem::signed(envelope))
    }

    fn push_item(&mut self, tag: impl AsRef<str> + Into<Arc<str>>, item: FeedItem) -> &mut Self {
        let tag = shared(&self.inputs, tag);
        self.inputs.push((tag, item));
        self
    }

    /// Queues a message from `partner`.
    pub fn push_message(
        &mut self,
        partner: impl AsRef<str> + Into<Arc<str>>,
        value: Value,
    ) -> &mut Self {
        let partner = shared(&self.messages, partner);
        self.messages.push((partner, value));
        self
    }

    /// Takes the next input for `tag`.
    pub fn take(&mut self, tag: &str) -> Option<FeedItem> {
        take_first(&mut self.inputs, tag)
    }

    /// Takes the next message from `partner`.
    pub fn take_message(&mut self, partner: &str) -> Option<Value> {
        take_first(&mut self.messages, partner)
    }

    /// Number of values still queued for `tag`.
    pub fn remaining(&self, tag: &str) -> usize {
        self.inputs.iter().filter(|(t, _)| **t == *tag).count()
    }

    /// Removes the next queued value for `tag` entirely (the
    /// [`crate::Attack::DropInput`] attack).
    pub fn drop_next(&mut self, tag: &str) -> Option<FeedItem> {
        self.take(tag)
    }

    /// Replaces every queued value for `tag` with `value`, stripping any
    /// provenance (the [`crate::Attack::ForgeInput`] attack).
    pub fn forge_all(&mut self, tag: &str, value: &Value) {
        for (_, item) in self.inputs.iter_mut().filter(|(t, _)| **t == *tag) {
            *item = FeedItem::plain(value.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_per_tag() {
        let mut feed = InputFeed::new();
        feed.push("a", Value::Int(1))
            .push("a", Value::Int(2))
            .push("b", Value::Int(3));
        assert_eq!(feed.take("a").unwrap().value, Value::Int(1));
        assert_eq!(feed.take("b").unwrap().value, Value::Int(3));
        assert_eq!(feed.take("a").unwrap().value, Value::Int(2));
        assert!(feed.take("a").is_none());
        assert!(feed.take("zzz").is_none());
    }

    #[test]
    fn a_queued_tag_shares_its_name() {
        let mut feed = InputFeed::new();
        feed.push("a", Value::Int(1)).push("a", Value::Int(2));
        let shared: Arc<str> = Arc::from("b");
        feed.push(Arc::clone(&shared), Value::Int(3));
        assert!(Arc::ptr_eq(&feed.inputs[0].0, &feed.inputs[1].0));
        assert!(Arc::ptr_eq(&feed.inputs[2].0, &shared));
        feed.push_message("m", Value::Int(4))
            .push_message("m", Value::Int(5));
        assert!(Arc::ptr_eq(&feed.messages[0].0, &feed.messages[1].0));
    }

    #[test]
    fn messages_separate_from_inputs() {
        let mut feed = InputFeed::new();
        feed.push("x", Value::Int(1));
        feed.push_message("x", Value::Int(2));
        assert_eq!(feed.take_message("x"), Some(Value::Int(2)));
        assert_eq!(feed.take("x").unwrap().value, Value::Int(1));
        assert!(feed.take_message("x").is_none());
    }

    #[test]
    fn drop_next_starves_one_value() {
        let mut feed = InputFeed::new();
        feed.push("p", Value::Int(1)).push("p", Value::Int(2));
        feed.drop_next("p");
        assert_eq!(feed.remaining("p"), 1);
        assert_eq!(feed.take("p").unwrap().value, Value::Int(2));
    }

    #[test]
    fn forge_all_replaces_and_strips_provenance() {
        use rand::SeedableRng;
        use refstate_crypto::{DsaKeyPair, DsaParams, Signed};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let keys = DsaKeyPair::generate(&DsaParams::test_group_256(), &mut rng);
        let env = Signed::seal(Value::Int(100), "producer", &keys, &mut rng);

        let mut feed = InputFeed::new();
        feed.push_signed("p", env);
        feed.push("p", Value::Int(100));
        feed.forge_all("p", &Value::Int(999));
        let first = feed.take("p").unwrap();
        assert_eq!(first.value, Value::Int(999));
        assert!(
            first.provenance.is_none(),
            "forgery cannot carry provenance"
        );
        assert_eq!(feed.take("p").unwrap().value, Value::Int(999));
    }

    #[test]
    fn signed_item_keeps_envelope() {
        use rand::SeedableRng;
        use refstate_crypto::{DsaKeyPair, DsaParams, Signed};
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let keys = DsaKeyPair::generate(&DsaParams::test_group_256(), &mut rng);
        let env = Signed::seal(Value::Int(7), "shop", &keys, &mut rng);
        let item = FeedItem::signed(env.clone());
        assert_eq!(item.value, Value::Int(7));
        assert_eq!(item.provenance.as_ref().map(|e| e.signer()), Some("shop"));
    }
}
