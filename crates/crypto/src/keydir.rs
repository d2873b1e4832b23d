//! The public-key directory hosts use to verify each other.

use std::collections::BTreeMap;
use std::sync::Arc;

use refstate_telemetry as telemetry;

use crate::dsa::DsaPublicKey;

/// A registry mapping principal names (host identifiers, owner names) to
/// DSA public keys.
///
/// In the paper's setting every host can verify every other host's
/// signatures; the directory models the PKI that distribution would require
/// without simulating certificate chains (which the paper also assumes
/// away).
///
/// Every stored key carries its own lazily-built fixed-base
/// exponentiation table (see [`DsaPublicKey::precompute`]), shared with
/// all clones of that key. A directory that will verify many signatures —
/// the owner-side batch flush, a fleet engine's PKI — can force all
/// tables up front with [`KeyDirectory::warm`] so no journey pays a
/// first-use table build.
///
/// # Namespaces
///
/// A multi-tenant service keeps one master directory and hands each tenant
/// a [`namespaced`](KeyDirectory::namespaced) view: lookups under the view
/// for `"h1"` resolve the master entry `"owner/h1"`. Views share the
/// underlying key table by reference — creating or cloning one copies no
/// keys — and are copy-on-write: registering through a view diverges the
/// view without touching the parent.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use refstate_crypto::{DsaKeyPair, DsaParams, KeyDirectory};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let keys = DsaKeyPair::generate(&DsaParams::test_group_256(), &mut rng);
/// let mut dir = KeyDirectory::new();
/// dir.register("host-a", keys.public().clone());
/// assert!(dir.lookup("host-a").is_some());
/// assert!(dir.lookup("host-b").is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct KeyDirectory {
    keys: Arc<BTreeMap<String, DsaPublicKey>>,
    namespace: Option<Arc<str>>,
}

impl KeyDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        KeyDirectory::default()
    }

    /// The full stored name for `name` under this directory's namespace.
    fn scoped(&self, name: &str) -> String {
        match &self.namespace {
            Some(ns) => format!("{ns}/{name}"),
            None => name.to_owned(),
        }
    }

    /// Returns a view of this directory scoped to namespace `ns`: lookups
    /// and iteration under the view see only entries stored as
    /// `"{ns}/{name}"`, addressed by their bare `name`.
    ///
    /// The view shares the key table by reference — no keys are cloned —
    /// and namespaces compose: `dir.namespaced("a").namespaced("b")`
    /// resolves `"a/b/{name}"`.
    pub fn namespaced(&self, ns: &str) -> KeyDirectory {
        KeyDirectory {
            keys: Arc::clone(&self.keys),
            namespace: Some(match &self.namespace {
                Some(outer) => format!("{outer}/{ns}").into(),
                None => ns.into(),
            }),
        }
    }

    /// The namespace this directory is scoped to, if any.
    pub fn namespace(&self) -> Option<&str> {
        self.namespace.as_deref()
    }

    /// Registers (or replaces) the key for `name`, returning any previous
    /// key.
    ///
    /// On a namespaced view the entry is stored under the scoped name;
    /// if other views share the table this copies it first (copy-on-write),
    /// so registration stays out of hot paths — register at tenant setup,
    /// then hand out views.
    pub fn register(&mut self, name: impl Into<String>, key: DsaPublicKey) -> Option<DsaPublicKey> {
        let stored = self.scoped(&name.into());
        Arc::make_mut(&mut self.keys).insert(stored, key)
    }

    /// Looks up the key for `name` (scoped by this view's namespace).
    pub fn lookup(&self, name: &str) -> Option<&DsaPublicKey> {
        match &self.namespace {
            Some(_) => self.keys.get(&self.scoped(name)),
            None => self.keys.get(name),
        }
    }

    /// Builds the verification tables (Montgomery context, `g`- and
    /// `y`-tables) of every key visible to this view now, instead of on
    /// each key's first verification.
    ///
    /// Idempotent and cheap to repeat: keys whose tables exist (their own
    /// or via a clone elsewhere — pooled fleet keys share caches) are
    /// skipped by the underlying `OnceLock`.
    pub fn warm(&self) {
        let _span = telemetry::span("crypto.keydir_warm", "crypto");
        for (_, key) in self.iter() {
            key.precompute();
        }
    }

    /// Returns the number of principals visible to this view.
    pub fn len(&self) -> usize {
        match &self.namespace {
            Some(_) => self.iter().count(),
            None => self.keys.len(),
        }
    }

    /// Returns `true` if no principals are visible to this view.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over `(name, key)` pairs in name order. On a namespaced
    /// view, only entries in the namespace are yielded, with the prefix
    /// stripped.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &DsaPublicKey)> {
        let prefix = self.namespace.as_deref();
        self.keys.iter().filter_map(move |(n, k)| match prefix {
            Some(ns) => {
                let rest = n.strip_prefix(ns)?;
                let bare = rest.strip_prefix('/')?;
                Some((bare, k))
            }
            None => Some((n.as_str(), k)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsa::{DsaKeyPair, DsaParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn register_and_lookup() {
        let mut rng = StdRng::seed_from_u64(1);
        let params = DsaParams::generate(128, 48, &mut rng);
        let a = DsaKeyPair::generate(&params, &mut rng);
        let b = DsaKeyPair::generate(&params, &mut rng);
        let mut dir = KeyDirectory::new();
        assert!(dir.is_empty());
        assert!(dir.register("a", a.public().clone()).is_none());
        assert!(dir.register("b", b.public().clone()).is_none());
        assert_eq!(dir.len(), 2);
        assert_eq!(dir.lookup("a"), Some(a.public()));
        assert!(dir.lookup("c").is_none());
        // Replacement returns the old key.
        let old = dir.register("a", b.public().clone());
        assert_eq!(old.as_ref(), Some(a.public()));
        assert_eq!(dir.lookup("a"), Some(b.public()));
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut rng = StdRng::seed_from_u64(2);
        let params = DsaParams::generate(128, 48, &mut rng);
        let k = DsaKeyPair::generate(&params, &mut rng);
        let mut dir = KeyDirectory::new();
        dir.register("zeta", k.public().clone());
        dir.register("alpha", k.public().clone());
        let names: Vec<&str> = dir.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }

    #[test]
    fn namespaced_views_isolate_tenants() {
        let mut rng = StdRng::seed_from_u64(3);
        let params = DsaParams::generate(128, 48, &mut rng);
        let ka = DsaKeyPair::generate(&params, &mut rng);
        let kb = DsaKeyPair::generate(&params, &mut rng);
        let mut master = KeyDirectory::new();
        master.register("alice/h1", ka.public().clone());
        master.register("bob/h1", kb.public().clone());
        master.register("loose", ka.public().clone());

        let alice = master.namespaced("alice");
        let bob = master.namespaced("bob");
        assert_eq!(alice.lookup("h1"), Some(ka.public()));
        assert_eq!(bob.lookup("h1"), Some(kb.public()));
        // Views never see each other's or unscoped entries.
        assert!(alice.lookup("loose").is_none());
        assert!(alice.lookup("bob/h1").is_none());
        assert_eq!(alice.len(), 1);
        assert_eq!(bob.len(), 1);
        assert_eq!(master.len(), 3);
        let names: Vec<&str> = alice.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["h1"]);
        assert_eq!(alice.namespace(), Some("alice"));
        assert_eq!(master.namespace(), None);
    }

    #[test]
    fn register_through_view_scopes_and_copies_on_write() {
        let mut rng = StdRng::seed_from_u64(4);
        let params = DsaParams::generate(128, 48, &mut rng);
        let k = DsaKeyPair::generate(&params, &mut rng);
        let master = KeyDirectory::new();
        let mut view = master.namespaced("carol");
        view.register("h1", k.public().clone());
        assert_eq!(view.lookup("h1"), Some(k.public()));
        // The view diverged; the parent is untouched.
        assert!(master.is_empty());
    }

    #[test]
    fn namespaces_compose() {
        let mut rng = StdRng::seed_from_u64(5);
        let params = DsaParams::generate(128, 48, &mut rng);
        let k = DsaKeyPair::generate(&params, &mut rng);
        let mut master = KeyDirectory::new();
        master.register("a/b/h1", k.public().clone());
        let inner = master.namespaced("a").namespaced("b");
        assert_eq!(inner.namespace(), Some("a/b"));
        assert_eq!(inner.lookup("h1"), Some(k.public()));
        assert_eq!(inner.len(), 1);
    }

    #[test]
    fn prefix_matching_requires_separator() {
        let mut rng = StdRng::seed_from_u64(6);
        let params = DsaParams::generate(128, 48, &mut rng);
        let k = DsaKeyPair::generate(&params, &mut rng);
        let mut master = KeyDirectory::new();
        // "ab/h1" must not be visible to namespace "a".
        master.register("ab/h1", k.public().clone());
        let a = master.namespaced("a");
        assert!(a.is_empty());
        assert!(a.lookup("h1").is_none());
        assert!(a.iter().next().is_none());
    }
}
