//! The public-key directory hosts use to verify each other.

use std::collections::BTreeMap;

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
/// all clones of that key.
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
    keys: BTreeMap<String, DsaPublicKey>,
}

impl KeyDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        KeyDirectory::default()
    }

    /// Registers (or replaces) the key for `name`, returning any previous
    /// key.
    pub fn register(&mut self, name: impl Into<String>, key: DsaPublicKey) -> Option<DsaPublicKey> {
        self.keys.insert(name.into(), key)
    }

    /// Looks up the key for `name`.
    pub fn lookup(&self, name: &str) -> Option<&DsaPublicKey> {
        self.keys.get(name)
    }

    /// Returns the number of registered principals.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns `true` if no principals are registered.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Iterates over `(name, key)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &DsaPublicKey)> {
        self.keys.iter().map(|(n, k)| (n.as_str(), k))
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
}
