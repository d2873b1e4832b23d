//! The agent's data state: its variable part.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use refstate_wire::{Decode, Encode, Reader, WireError, Writer};

use crate::value::Value;

/// The variable part of an agent: named values that persist across
/// migrations.
///
/// In the paper's weak-migration model this *is* the agent state that hosts
/// exchange: the execution state (stack, program counter) is reset at every
/// migration and anything worth keeping lives here. The map is ordered so
/// the wire encoding — and therefore every hash and signature over a state —
/// is canonical.
///
/// Clones share the map, and a write copies it first if another clone
/// still holds it (copy-on-write), so handing a state to a session, a
/// record and a check costs a pointer each until one of them writes.
///
/// The names are shared too: each is an `Arc<str>`, and a compiled
/// program's `store` hands over the name it interned at compilation. So
/// the copy a session's first write makes is one map whose names are
/// pointer copies, and a write to an existing variable copies no name.
/// The encoding is that of a `BTreeMap<String, Value>` of the same pairs.
///
/// # Examples
///
/// ```
/// use refstate_vm::{DataState, Value};
///
/// let mut s = DataState::new();
/// s.set("budget", Value::Int(500));
/// assert_eq!(s.get("budget"), Some(&Value::Int(500)));
/// assert_eq!(s.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DataState {
    vars: Arc<BTreeMap<Arc<str>, Value>>,
}

impl DataState {
    /// Creates an empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// The map to write into, copied first if another clone shares it.
    fn vars_mut(&mut self) -> &mut BTreeMap<Arc<str>, Value> {
        Arc::make_mut(&mut self.vars)
    }

    /// Returns the value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.vars.get(name)
    }

    /// Sets `name` to `value`, returning the previous value. Only a new
    /// variable takes the name: an existing one is overwritten in place.
    pub fn set(&mut self, name: impl AsRef<str> + Into<Arc<str>>, value: Value) -> Option<Value> {
        let vars = self.vars_mut();
        match vars.get_mut(name.as_ref()) {
            Some(slot) => Some(std::mem::replace(slot, value)),
            None => vars.insert(name.into(), value),
        }
    }

    /// [`DataState::set`] for a name the caller already shares: a new
    /// variable clones the pointer, not the name.
    pub(crate) fn store(&mut self, name: &Arc<str>, value: Value) {
        self.set(Arc::clone(name), value);
    }

    /// Removes `name`, returning its value.
    pub fn remove(&mut self, name: &str) -> Option<Value> {
        if !self.vars.contains_key(name) {
            return None;
        }
        self.vars_mut().remove(name)
    }

    /// Returns `true` if `name` is set.
    pub fn contains(&self, name: &str) -> bool {
        self.vars.contains_key(name)
    }

    /// The number of variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Returns `true` if no variables are set.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.vars.iter().map(|(k, v)| (&**k, v))
    }

    /// Convenience accessor for integer variables.
    pub fn get_int(&self, name: &str) -> Option<i64> {
        self.get(name).and_then(Value::as_int)
    }

    /// Convenience accessor for string variables.
    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.get(name).and_then(Value::as_str)
    }
}

impl fmt::Display for DataState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (k, v)) in self.vars.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{k}={v}")?;
        }
        f.write_str("}")
    }
}

impl FromIterator<(String, Value)> for DataState {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        let vars = iter.into_iter().map(|(k, v)| (Arc::from(k), v));
        DataState {
            vars: Arc::new(vars.collect()),
        }
    }
}

impl Extend<(String, Value)> for DataState {
    fn extend<I: IntoIterator<Item = (String, Value)>>(&mut self, iter: I) {
        let vars = iter.into_iter().map(|(k, v)| (Arc::from(k), v));
        self.vars_mut().extend(vars);
    }
}

impl Encode for DataState {
    fn encode(&self, w: &mut Writer) {
        self.vars.encode(w);
    }
}

/// Refuses names out of order or repeated (`map key order`), as a
/// `BTreeMap<String, Value>` does, so only the canonical image decodes.
impl Decode for DataState {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(DataState {
            vars: Arc::new(BTreeMap::decode(r)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refstate_wire::{from_wire, to_wire};

    #[test]
    fn basic_operations() {
        let mut s = DataState::new();
        assert!(s.is_empty());
        assert!(s.set("a", Value::Int(1)).is_none());
        assert_eq!(s.set("a", Value::Int(2)), Some(Value::Int(1)));
        assert!(s.contains("a"));
        assert_eq!(s.get_int("a"), Some(2));
        assert_eq!(s.remove("a"), Some(Value::Int(2)));
        assert!(!s.contains("a"));
        let a: Arc<str> = Arc::from("a");
        s.store(&a, Value::Int(3));
        s.store(&a, Value::Int(4));
        assert_eq!((s.get_int("a"), s.len()), (Some(4), 1));
    }

    #[test]
    fn typed_accessors() {
        let mut s = DataState::new();
        s.set("n", Value::Int(5));
        s.set("s", Value::Str("x".into()));
        assert_eq!(s.get_int("n"), Some(5));
        assert_eq!(s.get_int("s"), None);
        assert_eq!(s.get_str("s"), Some("x"));
        assert_eq!(s.get_str("missing"), None);
    }

    #[test]
    fn canonical_encoding_ignores_insertion_order() {
        let mut a = DataState::new();
        a.set("x", Value::Int(1));
        a.set("y", Value::Int(2));
        let mut b = DataState::new();
        b.set("y", Value::Int(2));
        b.set("x", Value::Int(1));
        assert_eq!(to_wire(&a), to_wire(&b));
    }

    #[test]
    fn wire_round_trip() {
        let s: DataState = [
            ("k1".to_string(), Value::Int(-1)),
            ("k2".to_string(), Value::List(vec![Value::Bool(true)])),
        ]
        .into_iter()
        .collect();
        assert_eq!(from_wire::<DataState>(&to_wire(&s)).unwrap(), s);
    }

    #[test]
    fn display() {
        let mut s = DataState::new();
        s.set("b", Value::Int(2));
        s.set("a", Value::Int(1));
        assert_eq!(s.to_string(), "{a=1, b=2}");
        assert_eq!(DataState::new().to_string(), "{}");
    }

    #[test]
    fn clones_share_the_map_until_one_writes() {
        let mut a = DataState::new();
        a.set("x", Value::Int(1));
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.vars, &b.vars));
        b.set("x", Value::Int(2));
        assert!(!Arc::ptr_eq(&a.vars, &b.vars));
        assert_eq!(a.get_int("x"), Some(1));
        assert_eq!(b.get_int("x"), Some(2));
        // An in-place store copies a shared map first, too.
        let mut d = a.clone();
        d.store(&Arc::from("x"), Value::Int(3));
        assert_eq!((a.get_int("x"), d.get_int("x")), (Some(1), Some(3)));
        // Removing an absent name is no write: the map stays shared.
        let mut c = a.clone();
        assert_eq!(c.remove("missing"), None);
        assert!(Arc::ptr_eq(&a.vars, &c.vars));
        assert_eq!(c.remove("x"), Some(Value::Int(1)));
        assert!(c.is_empty());
        assert_eq!(a.get_int("x"), Some(1));
    }

    #[test]
    fn extend_and_iter() {
        let mut s = DataState::new();
        s.extend([
            ("z".to_string(), Value::Int(1)),
            ("a".to_string(), Value::Int(2)),
        ]);
        let keys: Vec<&str> = s.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "z"]);
    }
}
