//! Sharded LRU cache for computed responses.
//!
//! Every compute request the service accepts is deterministic given its
//! parameters (`solve_row`, `exhaustive_optimal`, `optimize_network`, and
//! the simulator are all seed-deterministic), so responses can be cached
//! by a key of everything the result depends on: the fields each request
//! kind declares keyed (`docs/PROTOCOL.md` lists them). The key holds
//! their values, not a pre-hashed digest, so unequal requests can never
//! alias a cache slot (a scenario manifest enters as its fingerprint).
//!
//! Sharding bounds lock contention: a key hashes to one of `shards`
//! independently locked maps. Eviction is LRU per shard via a logical
//! tick; finding the victim is an O(shard-size) scan, which at the
//! default 256 entries per shard costs far less than the cheapest miss
//! (a full SA solve).
//!
//! Every entry carries an integrity digest computed at insertion and
//! verified on every hit: FNV-1a over one structural walk of the `Value`
//! tree, feeding each node's type tag, each string's and container's
//! length prefix, string bytes, integers, and the exact `f64` bits, so no
//! payload is rendered to text just to be checked. A corrupted
//! entry — whether from an injected `cache.put` poison fault or a real
//! memory-safety escape — is dropped as if it were a miss, counted on
//! the `service.cache.poison_dropped` trace counter, and recomputed by
//! the caller: the cache can therefore *lose* work but never *serve*
//! poisoned work.

use crate::fp;
use crate::metrics::trace_inc;
use noc_json::Value;
use noc_placement::fingerprint::Fnv1a;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

/// Cache key: a compute request's kind plus every field its declaration
/// marks keyed (see `docs/PROTOCOL.md`), as one compact JSON array of the
/// values request lines carry (a scenario manifest by its fingerprint).
/// Two requests share a key exactly when they agree on all of them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Request kind (e.g. "solve"), or a snapshot namespace.
    pub kind: &'static str,
    /// The keyed fields in declaration order, e.g. `[8,4,"dnc",10000,1,42,3,1]`.
    pub fields: String,
}

impl CacheKey {
    /// Platform- and process-stable 64-bit digest of the key, used by the
    /// cluster layer to place keys on the consistent-hash ring. Unlike
    /// [`std::collections::hash_map::DefaultHasher`], this is FNV-1a over
    /// the key, so every node of a cluster — and every run of a
    /// deterministic cluster simulation — agrees on shard ownership.
    pub fn stable_hash(&self) -> u64 {
        let mut h = Fnv1a::with_tag("cluster-shard-key");
        h.write_u64(self.kind.len() as u64);
        h.write_bytes(self.kind.as_bytes());
        h.write_bytes(self.fields.as_bytes());
        h.finish()
    }
}

struct Entry {
    value: Value,
    /// Integrity digest of `value` at insertion; verified on every get.
    digest: u64,
    last_used: u64,
}

/// Integrity digest of a cached payload: FNV-1a over a structural walk of
/// the value. Every node contributes a type tag; strings, arrays and
/// objects a length prefix, so no two distinct trees feed the same byte
/// stream (an `Arr` never digests like an `Obj`, and moving a node to
/// another depth changes the lengths around it). Floats contribute their
/// bit pattern, so `-0.0`, NaN payloads and subnormals are all told apart.
/// Integers and lengths go in as LEB128 varints: the encoding stays
/// prefix-free, and the small counts and indices that fill real payloads
/// cost one byte each instead of eight or sixteen.
fn structural_digest(value: &Value) -> u64 {
    let mut h = Fnv1a::with_tag("cache-entry-v2");
    digest_value(&mut h, value);
    h.finish()
}

fn digest_value(h: &mut Fnv1a, value: &Value) {
    match value {
        Value::Null => h.write_bytes(&[0]),
        Value::Bool(b) => h.write_bytes(&[1, *b as u8]),
        Value::Int(i) => {
            h.write_bytes(&[2]);
            // Zigzag, so small negative integers stay short too.
            digest_varint(h, ((i << 1) ^ (i >> 127)) as u128);
        }
        Value::Float(f) => {
            h.write_bytes(&[3]);
            h.write_f64(*f);
        }
        Value::Str(s) => {
            h.write_bytes(&[4]);
            digest_str(h, s);
        }
        Value::Arr(items) => {
            h.write_bytes(&[5]);
            digest_varint(h, items.len() as u128);
            for item in items {
                digest_value(h, item);
            }
        }
        Value::Obj(pairs) => {
            h.write_bytes(&[6]);
            digest_varint(h, pairs.len() as u128);
            for (key, item) in pairs {
                digest_str(h, key);
                digest_value(h, item);
            }
        }
    }
}

fn digest_str(h: &mut Fnv1a, s: &str) {
    digest_varint(h, s.len() as u128);
    h.write_bytes(s.as_bytes());
}

/// Feeds `v` as an LEB128 varint: seven bits per byte, high bit set on
/// every byte but the last.
fn digest_varint(h: &mut Fnv1a, mut v: u128) {
    while v >= 0x80 {
        h.write_bytes(&[(v as u8) | 0x80]);
        v >>= 7;
    }
    h.write_bytes(&[v as u8]);
}

struct Shard {
    map: HashMap<CacheKey, Entry>,
    tick: u64,
}

/// A sharded LRU map from [`CacheKey`] to cached response payloads.
pub struct ShardedLru {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
}

impl ShardedLru {
    /// Creates a cache with `capacity` total entries spread over `shards`
    /// locks. Both are clamped to at least 1.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let capacity_per_shard = (capacity.max(1)).div_ceil(shards);
        ShardedLru {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        tick: 0,
                    })
                })
                .collect(),
            capacity_per_shard,
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() % self.shards.len() as u64) as usize]
    }

    /// Looks up a key, refreshing its recency on hit. An entry whose
    /// integrity digest no longer matches its value is dropped and
    /// reported as a miss — a poisoned entry is never served.
    pub fn get(&self, key: &CacheKey) -> Option<Value> {
        if fp::hit("cache.get") == Some(fp::Injected::Error) {
            return None; // injected lookup failure: degrade to a miss
        }
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        let entry = shard.map.get_mut(key)?;
        if structural_digest(&entry.value) != entry.digest {
            shard.map.remove(key);
            trace_inc("service.cache.poison_dropped");
            return None;
        }
        entry.last_used = tick;
        Some(entry.value.clone())
    }

    /// Inserts a value, evicting the least-recently-used entry of the
    /// shard if it is full.
    pub fn put(&self, key: CacheKey, value: Value) {
        let digest = match fp::hit("cache.put") {
            // Injected store failure: drop the write (callers recompute).
            Some(fp::Injected::Error) => return,
            // Injected poison: store a digest the value cannot match, so
            // the integrity check on the next get must catch it.
            Some(fp::Injected::Poison) => !structural_digest(&value),
            _ => structural_digest(&value),
        };
        let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        if !shard.map.contains_key(&key) && shard.map.len() >= self.capacity_per_shard {
            if let Some(victim) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                shard.map.remove(&victim);
            }
        }
        shard.map.insert(
            key,
            Entry {
                value,
                digest,
                last_used: tick,
            },
        );
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(seed: u64) -> CacheKey {
        CacheKey {
            kind: "solve",
            fields: format!("[{seed}]"),
        }
    }

    #[test]
    fn get_after_put_hits() {
        let cache = ShardedLru::new(16, 4);
        assert!(cache.get(&key(1)).is_none());
        cache.put(key(1), Value::Int(42));
        assert_eq!(cache.get(&key(1)), Some(Value::Int(42)));
        assert!(cache.get(&key(2)).is_none());
    }

    #[test]
    fn evicts_least_recently_used() {
        // Single shard of capacity 2 makes eviction order observable.
        let cache = ShardedLru::new(2, 1);
        cache.put(key(1), Value::Int(1));
        cache.put(key(2), Value::Int(2));
        assert!(cache.get(&key(1)).is_some()); // refresh 1; 2 is now LRU
        cache.put(key(3), Value::Int(3));
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(2)).is_none(), "LRU entry must be evicted");
        assert!(cache.get(&key(3)).is_some());
        assert_eq!(cache.len(), 2);
    }

    use noc_rng::rngs::SmallRng;
    use noc_rng::{Rng, SeedableRng};

    /// A random string mixing ASCII, escapes and multi-byte UTF-8.
    fn random_str(rng: &mut SmallRng) -> String {
        const ALPHABET: &[&str] = &[
            "a", "b", "z", "0", "\"", "\\", "\n", "\u{1}", "é", "直", "😀",
        ];
        (0..rng.gen_range(0..6usize))
            .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
            .collect()
    }

    /// A random tree: scalars at the leaves, arrays and objects above.
    fn random_value(rng: &mut SmallRng, depth: usize) -> Value {
        let kinds = if depth == 0 { 5u32 } else { 7 };
        match rng.gen_range(0..kinds) {
            0 => Value::Null,
            1 => Value::Bool(rng.gen()),
            2 => Value::Int(match rng.gen_range(0..4u32) {
                0 => i128::MIN,
                1 => i128::MAX,
                _ => (rng.gen::<u64>() as i64 as i128) << rng.gen_range(0..64u32),
            }),
            3 => Value::Float(f64::from_bits(rng.gen())),
            4 => Value::Str(random_str(rng)),
            5 => Value::Arr(
                (0..rng.gen_range(0..5usize))
                    .map(|_| random_value(rng, depth - 1))
                    .collect(),
            ),
            _ => Value::Obj(
                (0..rng.gen_range(0..5usize))
                    .map(|i| {
                        (
                            format!("k{i}{}", random_str(rng)),
                            random_value(rng, depth - 1),
                        )
                    })
                    .collect(),
            ),
        }
    }

    /// The `n`-th node of `v` in preorder (object values, not keys).
    fn nth_node<'a>(v: &'a mut Value, n: &mut usize) -> Option<&'a mut Value> {
        if *n == 0 {
            return Some(v);
        }
        *n -= 1;
        let children: Vec<&mut Value> = match v {
            Value::Arr(items) => items.iter_mut().collect(),
            Value::Obj(pairs) => pairs.iter_mut().map(|(_, item)| item).collect(),
            _ => return None,
        };
        children.into_iter().find_map(|child| nth_node(child, n))
    }

    fn node_count(v: &Value) -> usize {
        1 + match v {
            Value::Arr(items) => items.iter().map(node_count).sum(),
            Value::Obj(pairs) => pairs.iter().map(|(_, item)| node_count(item)).sum(),
            _ => 0,
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Mutation {
        FloatBit,
        StrByte,
        Int,
        SwapKeys,
        ArrObj,
        Nesting,
    }

    /// Applies `mutation` to `node` if it has the right shape; `false` if
    /// the node does not qualify.
    fn mutate(node: &mut Value, mutation: Mutation, rng: &mut SmallRng) -> bool {
        match (mutation, node) {
            (Mutation::FloatBit, Value::Float(f)) => {
                *f = f64::from_bits(f.to_bits() ^ 1 << rng.gen_range(0..64u32));
            }
            (Mutation::StrByte, Value::Str(s)) => {
                let Some(at) = s.bytes().position(|b| b.is_ascii_alphanumeric()) else {
                    return false;
                };
                let replacement = if &s[at..=at] == "q" { "r" } else { "q" };
                s.replace_range(at..=at, replacement);
            }
            (Mutation::Int, Value::Int(i)) => *i ^= 1 << rng.gen_range(0..128u32),
            (Mutation::SwapKeys, Value::Obj(pairs)) if pairs.len() >= 2 => {
                let (a, b) = (0, rng.gen_range(1..pairs.len()));
                let key = std::mem::take(&mut pairs[a].0);
                pairs[a].0 = std::mem::replace(&mut pairs[b].0, key);
            }
            (Mutation::ArrObj, node @ Value::Arr(_)) => {
                let Value::Arr(items) = std::mem::replace(node, Value::Null) else {
                    unreachable!()
                };
                *node = Value::Obj(items.into_iter().map(|v| (String::new(), v)).collect());
            }
            (Mutation::ArrObj, node @ Value::Obj(_)) => {
                let Value::Obj(pairs) = std::mem::replace(node, Value::Null) else {
                    unreachable!()
                };
                *node = Value::Arr(pairs.into_iter().map(|(_, v)| v).collect());
            }
            // `[[.., x], ..]` becomes `[[..], x, ..]`: the same leaves in the
            // same order, one bracket moved.
            (Mutation::Nesting, Value::Arr(items)) => {
                let Some(Value::Arr(inner)) = items.first_mut() else {
                    return false;
                };
                let Some(hoisted) = inner.pop() else {
                    return false;
                };
                items.insert(1, hoisted);
            }
            _ => return false,
        }
        true
    }

    #[test]
    fn structural_digest_catches_every_single_edit() {
        let mutations = [
            Mutation::FloatBit,
            Mutation::StrByte,
            Mutation::Int,
            Mutation::SwapKeys,
            Mutation::ArrObj,
            Mutation::Nesting,
        ];
        let mut applied = [0usize; 6];
        for seed in 0..400u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let original = Value::Arr(vec![random_value(&mut rng, 4), random_value(&mut rng, 4)]);
            let digest = structural_digest(&original);
            assert_eq!(digest, structural_digest(&original.clone()));
            for (m, &mutation) in mutations.iter().enumerate() {
                // Try every node from a random start until one qualifies.
                let nodes = node_count(&original);
                let start = rng.gen_range(0..nodes);
                let mut edited = original.clone();
                let hit = (0..nodes).any(|offset| {
                    let mut n = (start + offset) % nodes;
                    let node = nth_node(&mut edited, &mut n).expect("index below node count");
                    mutate(node, mutation, &mut rng)
                });
                if !hit {
                    continue;
                }
                applied[m] += 1;
                assert_ne!(
                    structural_digest(&edited),
                    digest,
                    "seed {seed}: {mutation:?} left the digest unchanged\n{}\n{}",
                    original.compact(),
                    edited.compact()
                );
            }
        }
        for (mutation, count) in mutations.iter().zip(applied) {
            assert!(count >= 50, "{mutation:?} applied only {count} times");
        }
    }

    #[test]
    fn structural_digest_separates_the_render_collisions() {
        // Trees that a digest of their text, or of leaves without length
        // prefixes, could confuse.
        let pairs = [
            (Value::Arr(vec![]), Value::Obj(vec![])),
            (Value::Float(0.0), Value::Float(-0.0)),
            (Value::Float(f64::NAN), Value::Null),
            (Value::Int(1), Value::Float(1.0)),
            (Value::Int(1), Value::Int(-1)),
            (Value::Int(127), Value::Int(128)),
            (Value::Int(i128::MIN), Value::Int(i128::MAX)),
            (Value::Str("\u{80}".into()), Value::Str("\u{100}".into())),
            (
                Value::Arr(vec![
                    Value::Arr(vec![Value::Int(1), Value::Int(2)]),
                    Value::Int(3),
                ]),
                Value::Arr(vec![
                    Value::Arr(vec![Value::Int(1)]),
                    Value::Int(2),
                    Value::Int(3),
                ]),
            ),
            (
                Value::Arr(vec![Value::Str("ab".into()), Value::Str("c".into())]),
                Value::Arr(vec![Value::Str("a".into()), Value::Str("bc".into())]),
            ),
        ];
        for (a, b) in pairs {
            assert_ne!(
                structural_digest(&a),
                structural_digest(&b),
                "{a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn poisoned_entry_is_dropped_and_counted() {
        let _lock = crate::metrics::trace_test_lock();
        noc_trace::enable_with_capacity(1024);
        let dropped = || {
            noc_trace::sink()
                .expect("tracing on")
                .registry()
                .counter("service.cache.poison_dropped")
                .get()
        };
        let cache = ShardedLru::new(16, 4);
        let mut rng = SmallRng::seed_from_u64(7);
        for seed in 0..20 {
            let value = Value::Arr(vec![random_value(&mut rng, 3), Value::Float(0.5)]);
            cache.put(key(seed), value.clone());
            assert!(cache.get(&key(seed)).is_some());
            // Corrupt the stored payload behind the cache's back, as a
            // stray write would: one bit of the trailing float.
            {
                let mut shard = cache.shard(&key(seed)).lock().unwrap();
                let entry = shard.map.get_mut(&key(seed)).expect("stored");
                let Value::Arr(items) = &mut entry.value else {
                    unreachable!()
                };
                items[1] = Value::Float(f64::from_bits(0.5f64.to_bits() ^ 1));
            }
            let before = dropped();
            assert_eq!(cache.get(&key(seed)), None, "a poisoned entry was served");
            assert_eq!(dropped(), before + 1);
            // The drop removed the entry: the next lookup is a plain miss.
            assert_eq!(cache.get(&key(seed)), None);
            assert_eq!(dropped(), before + 1);
        }
        noc_trace::disable();
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = std::sync::Arc::new(ShardedLru::new(64, 8));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let cache = cache.clone();
                s.spawn(move || {
                    for i in 0..100 {
                        cache.put(key(t * 1000 + i), Value::Int(i as i128));
                        cache.get(&key(t * 1000 + i));
                    }
                });
            }
        });
        assert!(cache.len() <= 64 + 8); // per-shard rounding slack
    }
}
