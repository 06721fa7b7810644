//! The hasher under the executor's per-tuple maps and BestPlan's memo.
//!
//! The m-join hash tables and probe caches hash one join-column [`Value`]
//! per insert and per probe, millions of times a run, and the standard
//! library's default (SipHash-1-3, keyed per map) costs more there than
//! the lookup it guards; the optimizer's search probes its memo or its
//! candidate arena for every state it names, a million a run; and the
//! signature maps (the interner's deep map, the plan graph's reuse index,
//! the optimizer's candidate pool) are probed for every subexpression a
//! batch names, keyed on signatures the engine builds itself. This is
//! the multiplicative "Fx" scheme rustc uses for its own tables: fold each
//! word in with a rotate, an xor and one multiply (plus one folded multiply
//! when the hash is read). It is not collision-resistant against chosen
//! keys — see the `access` module docs of `qsys-exec` and the module docs
//! of `qsys-opt::bestplan` for why that is acceptable for the maps that
//! use it, and keep the default hasher everywhere else.
//!
//! [`Value`]: crate::Value

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 / φ, odd: consecutive keys land a golden-ratio stride apart.
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// A fast, deterministic, non-cryptographic hasher (see the module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while let Some((word, rest)) = bytes.split_first_chunk::<8>() {
            self.add(u64::from_le_bytes(*word));
            bytes = rest;
        }
        if !bytes.is_empty() {
            let mut word = [0u8; 8];
            word[..bytes.len()].copy_from_slice(bytes);
            // The length keeps "a" and "a\0" apart.
            self.add(u64::from_le_bytes(word) ^ ((bytes.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// One multiply only carries a key's entropy *upwards*, while the
    /// table indexes by the low bits and tags by the top seven: keys that
    /// differ only in high bits (float bit patterns such as 0.5 / 0.25,
    /// integers a large power of two apart) would share a bucket and a
    /// tag. Folding the 128-bit product of one more multiply brings every
    /// input bit to both ends.
    #[inline]
    fn finish(&self) -> u64 {
        let wide = u128::from(self.hash) * u128::from(SEED);
        (wide as u64) ^ ((wide >> 64) as u64)
    }
}

/// A `HashMap` over [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    /// The `Value` hash/eq contract does not depend on the hasher: equal
    /// payload bits under different variants are different keys.
    #[test]
    fn value_variants_are_distinct_keys() {
        let mut m: FxHashMap<Value, u32> = FxHashMap::default();
        m.insert(Value::Int(1), 0);
        m.insert(Value::Float(f64::from_bits(1)), 1);
        m.insert(Value::str("1"), 2);
        m.insert(Value::Null, 3);
        assert_eq!(m.len(), 4);
        assert_eq!(m[&Value::Int(1)], 0);
        assert_eq!(m[&Value::Float(f64::from_bits(1))], 1);
        assert_eq!(m[&Value::str("1")], 2);
        assert_eq!(m[&Value::Null], 3);
        // Re-inserting an equal key replaces, never duplicates.
        m.insert(Value::str("1"), 9);
        assert_eq!((m.len(), m[&Value::str("1")]), (4, 9));
    }

    #[test]
    fn sequential_int_keys_stay_retrievable() {
        let mut m: FxHashMap<Value, i64> = FxHashMap::default();
        for i in 0..10_000 {
            m.insert(Value::Int(i), i);
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000 {
            assert_eq!(m.get(&Value::Int(i)), Some(&i));
        }
        assert_eq!(m.get(&Value::Int(10_000)), None);
    }

    /// Keys whose entropy sits in the high bits (score-like floats) and
    /// short strings of different lengths still spread over the low bits
    /// the table indexes by.
    #[test]
    fn high_bit_and_short_string_keys_spread() {
        let hash = |v: &Value| {
            use std::hash::Hash;
            let mut h = FxHasher::default();
            v.hash(&mut h);
            h.finish()
        };
        let floats: std::collections::HashSet<u64> = (1..=64)
            .map(|i| hash(&Value::float(1.0 / i as f64)) & 0xff)
            .collect();
        assert!(floats.len() > 32, "{} low-byte classes", floats.len());
        assert_ne!(hash(&Value::str("a")), hash(&Value::str("a\0")));
        assert_ne!(hash(&Value::str("")), hash(&Value::Null));
    }
}
