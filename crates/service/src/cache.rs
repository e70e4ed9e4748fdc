//! Sharded LRU cache for computed responses and checkpoint snapshots.
//!
//! Every compute request the service accepts is deterministic given its
//! parameters (`solve_row`, `exhaustive_optimal`, `optimize_network`, and
//! the simulator are all seed-deterministic), so responses can be cached
//! by a key of everything the result depends on: the fields each request
//! kind declares keyed (`docs/PROTOCOL.md` lists them). The key holds
//! their values, not a pre-hashed digest, so unequal requests can never
//! alias a cache slot (a scenario manifest enters as its fingerprint).
//!
//! Entries are typed. A result is the [`Payload`] its miss answered
//! with, so a hit hands out a reference-counted clone whose wire text is
//! already rendered: no copy, no second render. A checkpoint snapshot is
//! its raw bytes, under a `snap-v…` key of its own (see
//! `exec::snapshot_key`).
//!
//! Sharding bounds lock contention: a key hashes to one of at most
//! `capacity` independently locked maps, whose limits sum to exactly
//! `capacity`. Eviction is LRU per shard via a logical tick; finding the
//! victim is an O(shard-size) scan, which at the default 256 entries per
//! shard costs far less than the cheapest miss (a full SA solve).
//!
//! Every entry carries integrity digests computed at insertion and
//! verified on every hit, over everything the hit hands out: for a
//! result, a structural walk of the `Value` (type tags, lengths, string
//! bytes, integers and exact `f64` bits) and its stored wire text; for a
//! snapshot, its bytes. Both are hashed a 64-bit word at a time. A
//! corrupted entry — whether from an injected `cache.put` poison fault or
//! a real memory-safety escape — is dropped as if it were a miss, counted
//! on the `service.cache.poison_dropped` trace counter, and recomputed by
//! the caller: the cache can therefore *lose* work but never *serve*
//! poisoned work.

use crate::fp;
use crate::metrics::trace_inc;
use crate::protocol::{Payload, Text};
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

/// What an entry holds.
pub(crate) enum Item {
    /// A computed result, shared with every response that carries it.
    Result(Payload),
    /// A checkpoint snapshot's bytes.
    Snapshot(Vec<u8>),
}

impl Item {
    /// Digests of everything a hit on this item hands out: a result's
    /// value structure and its wire text, or a snapshot's bytes.
    fn digests(&self) -> [u64; 2] {
        match self {
            Item::Result(payload) => [structural_digest(payload), text_digest(payload.text())],
            Item::Snapshot(bytes) => {
                let mut h = WordHash::new();
                h.bytes(0, bytes);
                [0, h.finish()]
            }
        }
    }
}

struct Entry {
    item: Item,
    /// [`Item::digests`] at insertion; verified on every get.
    digests: [u64; 2],
    last_used: u64,
}

/// A word-at-a-time hash: each 64-bit word is folded in by a rotate, an
/// xor and a multiply by an odd constant (the FxHash step). For a fixed
/// state the step is a bijection of the word, and for a fixed word a
/// bijection of the state, so two equally long word streams that differ
/// in one word always end in different digests: a single-byte edit is
/// caught for certain, not just likely.
struct WordHash(u64);

impl WordHash {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    fn new() -> Self {
        WordHash(0x6361_6368_652d_7633) // "cache-v3"
    }

    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(Self::K);
    }

    /// Feeds a byte run: one word of `tag` and the length (shifted past
    /// the tag byte; no in-memory length reaches 2^56), then eight bytes
    /// per word, the last one zero-padded.
    fn bytes(&mut self, tag: u8, bytes: &[u8]) {
        self.word((bytes.len() as u64) << 8 | tag as u64);
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(last));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Integrity digest of a cached value: a structural walk of the tree.
/// Every node contributes a type tag; strings, arrays and objects their
/// length with it, so no two distinct trees feed the same word stream (an
/// `Arr` never digests like an `Obj`, and moving a node to another depth
/// changes the lengths around it). Integers go in whole and floats as
/// their bit pattern, so `-0.0`, NaN payloads and subnormals are all told
/// apart.
fn structural_digest(value: &Value) -> u64 {
    let mut h = WordHash::new();
    digest_value(&mut h, value);
    h.finish()
}

fn digest_value(h: &mut WordHash, value: &Value) {
    match value {
        Value::Null => h.word(0),
        Value::Bool(b) => h.word(1 | (*b as u64) << 8),
        Value::Int(i) => {
            h.word(2);
            h.word(*i as u64);
            h.word((*i >> 64) as u64);
        }
        Value::Float(f) => {
            h.word(3);
            h.word(f.to_bits());
        }
        Value::Str(s) => h.bytes(4, s.as_bytes()),
        Value::Arr(items) => {
            h.word((items.len() as u64) << 8 | 5);
            for item in items {
                digest_value(h, item);
            }
        }
        Value::Obj(pairs) => {
            h.word((pairs.len() as u64) << 8 | 6);
            for (key, item) in pairs {
                h.bytes(7, key.as_bytes());
                digest_value(h, item);
            }
        }
    }
}

/// Integrity digest of a payload's wire text: every rendering it holds,
/// each with its length, after a word that tells one line from a stream.
fn text_digest(text: &Text) -> u64 {
    let mut h = WordHash::new();
    match text {
        Text::Line(json) => h.bytes(0, json.as_bytes()),
        Text::Stream { items, summary } => {
            h.word((items.len() as u64) << 8 | 1);
            for item in items {
                h.bytes(2, item.as_bytes());
            }
            h.bytes(3, summary.as_bytes());
        }
    }
    h.finish()
}

struct Shard {
    map: HashMap<CacheKey, Entry>,
    tick: u64,
    /// Most entries this shard holds.
    capacity: usize,
}

/// A sharded LRU map from [`CacheKey`] to result payloads and snapshot
/// bytes.
pub struct ShardedLru {
    shards: Vec<Mutex<Shard>>,
}

impl ShardedLru {
    /// Creates a cache of at most `capacity` entries spread over `shards`
    /// locks. Both are clamped to at least 1, and the shards to at most
    /// `capacity`; their limits sum to exactly `capacity`.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let capacity = capacity.max(1);
        let shards = shards.clamp(1, capacity);
        ShardedLru {
            shards: (0..shards)
                .map(|i| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        tick: 0,
                        capacity: capacity / shards + usize::from(i < capacity % shards),
                    })
                })
                .collect(),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() % self.shards.len() as u64) as usize]
    }

    /// Looks up a result, refreshing its recency on hit. The payload is
    /// the stored one, not a copy. An entry whose digests no longer match
    /// is dropped and reported as a miss — a poisoned entry is never
    /// served.
    pub fn get(&self, key: &CacheKey) -> Option<Payload> {
        self.lookup(key, |item| match item {
            Item::Result(payload) => Some(payload.clone()),
            Item::Snapshot(_) => None,
        })
    }

    /// Looks up snapshot bytes, checked like [`get`](ShardedLru::get).
    pub fn get_snapshot(&self, key: &CacheKey) -> Option<Vec<u8>> {
        self.lookup(key, |item| match item {
            Item::Snapshot(bytes) => Some(bytes.clone()),
            Item::Result(_) => None,
        })
    }

    fn lookup<T>(&self, key: &CacheKey, take: impl FnOnce(&Item) -> Option<T>) -> Option<T> {
        if fp::hit("cache.get") == Some(fp::Injected::Error) {
            return None; // injected lookup failure: degrade to a miss
        }
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        let entry = shard.map.get_mut(key)?;
        if entry.item.digests() != entry.digests {
            shard.map.remove(key);
            trace_inc("service.cache.poison_dropped");
            return None;
        }
        entry.last_used = tick;
        take(&entry.item)
    }

    /// Inserts a result, rendering its wire text if nothing has yet, and
    /// evicting the least-recently-used entry of the shard if it is full.
    pub fn put(&self, key: CacheKey, payload: Payload) {
        self.insert(key, Item::Result(payload));
    }

    /// Inserts snapshot bytes, like [`put`](ShardedLru::put).
    pub fn put_snapshot(&self, key: CacheKey, bytes: Vec<u8>) {
        self.insert(key, Item::Snapshot(bytes));
    }

    fn insert(&self, key: CacheKey, item: Item) {
        let mut digests = item.digests();
        match fp::hit("cache.put") {
            // Injected store failure: drop the write (callers recompute).
            Some(fp::Injected::Error) => return,
            // Injected poison: store a digest the stored text (or bytes)
            // cannot match, so the integrity check on the next get must
            // catch it.
            Some(fp::Injected::Poison) => digests[1] = !digests[1],
            _ => {}
        }
        let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        if !shard.map.contains_key(&key) && shard.map.len() >= shard.capacity {
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
                item,
                digests,
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

    /// Runs `edit` on the stored item of `key` behind the cache's back, as
    /// a stray write would.
    #[cfg(test)]
    pub(crate) fn tamper(&self, key: &CacheKey, edit: impl FnOnce(&mut Item)) {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        edit(&mut shard.map.get_mut(key).expect("stored").item);
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
        cache.put(key(1), Value::Int(42).into());
        assert_eq!(cache.get(&key(1)), Some(Value::Int(42).into()));
        assert!(cache.get(&key(2)).is_none());
        // Results and snapshots are typed: neither reads as the other.
        cache.put_snapshot(key(3), vec![1, 2, 3]);
        assert_eq!(cache.get_snapshot(&key(3)), Some(vec![1, 2, 3]));
        assert!(cache.get(&key(3)).is_none());
        assert!(cache.get_snapshot(&key(1)).is_none());
    }

    #[test]
    fn hits_share_the_stored_payload() {
        let cache = ShardedLru::new(16, 4);
        let stored = Payload::from(Value::Arr(vec![Value::Int(1), Value::Str("x".into())]));
        cache.put(key(1), stored.clone());
        let first = cache.get(&key(1)).expect("hit");
        let second = cache.get(&key(1)).expect("hit");
        assert!(first.shares(&stored), "a hit must not copy the payload");
        assert!(first.shares(&second));
    }

    #[test]
    fn evicts_least_recently_used() {
        // Single shard of capacity 2 makes eviction order observable.
        let cache = ShardedLru::new(2, 1);
        cache.put(key(1), Value::Int(1).into());
        cache.put(key(2), Value::Int(2).into());
        assert!(cache.get(&key(1)).is_some()); // refresh 1; 2 is now LRU
        cache.put(key(3), Value::Int(3).into());
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

    /// A random payload: a plain tree, or half the time a stream of items
    /// and a summary, so both kinds of stored text are covered.
    fn random_payload(rng: &mut SmallRng) -> Payload {
        let value = if rng.gen() {
            noc_json::obj! {
                "scenario_stream" => Value::Bool(true),
                "items" => Value::Arr(
                    (0..rng.gen_range(0..4usize)).map(|_| random_value(rng, 2)).collect(),
                ),
                "summary" => random_value(rng, 2),
            }
        } else {
            Value::Arr(vec![random_value(rng, 3), Value::Float(0.5)])
        };
        Payload::from(value)
    }

    /// Every rendering a stored text holds.
    fn renderings(text: &mut Text) -> Vec<&mut String> {
        match text {
            Text::Line(json) => vec![json],
            Text::Stream { items, summary } => items.iter_mut().chain([summary]).collect(),
        }
    }

    /// Edits one byte of `bytes` at a random position to a random other
    /// value; with `utf8`, redraws until the result is still UTF-8.
    fn edit_one_byte(bytes: &[u8], rng: &mut SmallRng, utf8: bool) -> Vec<u8> {
        loop {
            let mut edited = bytes.to_vec();
            edited[rng.gen_range(0..bytes.len())] ^= rng.gen_range(1..256u32) as u8;
            if !utf8 || std::str::from_utf8(&edited).is_ok() {
                return edited;
            }
        }
    }

    fn poison_dropped() -> u64 {
        noc_trace::sink()
            .expect("tracing on")
            .registry()
            .counter("service.cache.poison_dropped")
            .get()
    }

    /// Asserts that a tampered `key` is dropped, counted once, and gone.
    fn assert_dropped(cache: &ShardedLru, key: &CacheKey, what: &str) {
        let before = poison_dropped();
        assert!(
            cache.get(key).is_none(),
            "{what}: a poisoned result was served"
        );
        assert!(cache.get_snapshot(key).is_none(), "{what}: served");
        assert_eq!(poison_dropped(), before + 1, "{what}: not counted once");
    }

    #[test]
    fn any_single_byte_edit_of_stored_text_or_snapshot_is_caught() {
        let _lock = crate::metrics::trace_test_lock();
        noc_trace::enable_with_capacity(1024);
        let cache = ShardedLru::new(16, 4);
        let (mut texts, mut snapshots) = (0, 0);
        for seed in 0..300u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            // Snapshot bytes: any edit of any byte, lengths across word
            // boundaries (the empty snapshot has no byte to edit).
            let bytes: Vec<u8> = (0..rng.gen_range(1..100usize))
                .map(|_| rng.gen::<u32>() as u8)
                .collect();
            cache.put_snapshot(key(seed), bytes.clone());
            let edited = edit_one_byte(&bytes, &mut rng, false);
            cache.tamper(&key(seed), |item| {
                let Item::Snapshot(stored) = item else {
                    unreachable!()
                };
                *stored = edited;
            });
            assert_dropped(&cache, &key(seed), &format!("seed {seed} snapshot"));
            snapshots += 1;

            // Result text: one byte of one rendering, kept valid UTF-8.
            cache.put(key(seed), random_payload(&mut rng));
            cache.tamper(&key(seed), |item| {
                let Item::Result(payload) = item else {
                    unreachable!()
                };
                let (_, text) = payload.parts_mut().expect("only the cache holds it");
                let mut strings = renderings(text);
                let pick = rng.gen_range(0..strings.len());
                let json = &mut strings[pick];
                let edited = edit_one_byte(json.as_bytes(), &mut rng, true);
                **json = String::from_utf8(edited).expect("kept UTF-8");
            });
            assert_dropped(&cache, &key(seed), &format!("seed {seed} text"));
            texts += 1;
        }
        assert_eq!((texts, snapshots), (300, 300));
        noc_trace::disable();
    }

    #[test]
    fn poisoned_entry_is_dropped_and_counted() {
        let _lock = crate::metrics::trace_test_lock();
        noc_trace::enable_with_capacity(1024);
        let cache = ShardedLru::new(16, 4);
        let mut rng = SmallRng::seed_from_u64(7);
        for seed in 0..20 {
            // Corrupt the stored value, leaving its text intact: one bit
            // of the trailing float.
            let value = Value::Arr(vec![random_value(&mut rng, 3), Value::Float(0.5)]);
            cache.put(key(seed), value.clone().into());
            assert!(cache.get(&key(seed)).is_some());
            cache.tamper(&key(seed), |item| {
                let Item::Result(payload) = item else {
                    unreachable!()
                };
                let (Value::Arr(items), _) = payload.parts_mut().expect("unshared") else {
                    unreachable!()
                };
                items[1] = Value::Float(f64::from_bits(0.5f64.to_bits() ^ 1));
            });
            assert_dropped(&cache, &key(seed), "value");
            // The drop removed the entry: the next lookup is a plain miss.
            let before = poison_dropped();
            assert!(cache.get(&key(seed)).is_none());
            assert_eq!(poison_dropped(), before);

            // Corrupt the stored text, leaving the value intact: the
            // float's last digit.
            cache.put(key(seed), value.into());
            cache.tamper(&key(seed), |item| {
                let Item::Result(payload) = item else {
                    unreachable!()
                };
                let (_, Text::Line(json)) = payload.parts_mut().expect("unshared") else {
                    unreachable!()
                };
                *json = json.replacen("0.5]", "0.6]", 1);
            });
            assert_dropped(&cache, &key(seed), "text");
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
                        cache.put(key(t * 1000 + i), Value::Int(i as i128).into());
                        cache.get(&key(t * 1000 + i));
                    }
                });
            }
        });
        assert!(cache.len() <= 64);
    }

    #[test]
    fn a_cache_of_n_entries_holds_exactly_n() {
        // Fewer entries than shards, and a capacity that does not divide:
        // filled far past capacity, every shard is full and the total is
        // the capacity, never a per-shard rounding more.
        for capacity in [1, 4, 7, 64, 1001] {
            let cache = ShardedLru::new(capacity, 8);
            for i in 0..(capacity as u64 * 20).max(200) {
                cache.put(key(i), Value::Int(i as i128).into());
            }
            assert_eq!(cache.len(), capacity, "capacity {capacity}");
        }
    }
}
