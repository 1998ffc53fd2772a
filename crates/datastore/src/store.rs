//! The Distributed Data Store: object metadata plus sampled operation
//! latencies.
//!
//! The store holds the *metadata* of checkpointed large objects (model
//! parameters, datasets); actual bytes never exist in the simulation. Raft
//! log entries carry [`ObjectPointer`]s that encode retrieval (§3.2.4:
//! "Pointers in the Raft log encode data retrieval").
//!
//! # Two ways in, one body each
//!
//! A caller that keeps its own record of an object's size — the platform
//! keeps each session's in the session's own slot — writes and reads it
//! with [`DataStore::write_sized`] and [`DataStore::read_sized`]: no key,
//! no hash, no lookup. Every other write and read is keyed
//! ([`DataStore::write`], [`DataStore::write_keyed`], [`DataStore::read`],
//! [`DataStore::read_keyed`]): it finds or records the object's size in
//! the store's object map, then runs the same keyless body, so both ways
//! draw the same latencies in the same RNG order and count the same
//! [`StoreStats`].
//!
//! The keyed path's keys are short and chosen by the caller, not by an
//! adversary (`kernel-<i>/…` in the examples and the perf ledger's probe),
//! so the object map hashes them a word at a time with `KeyHasher` rather
//! than with SipHash. No result depends on the map's order: nothing walks
//! it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use notebookos_des::{SimRng, SimTime};

use crate::backend::{BackendKind, BackendModel};

/// A pointer to a large object persisted in the data store — what the
/// executor replica appends to the Raft log instead of the object bytes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ObjectPointer {
    /// Namespaced object key, e.g. `"kernel-42/model"`.
    pub key: String,
    /// Object size in bytes.
    pub size_bytes: u64,
    /// Which backend holds it.
    pub backend: BackendKind,
}

/// Errors from store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The key does not exist.
    NotFound(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::NotFound(k) => write!(f, "object `{k}` not found"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Aggregate operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Completed writes.
    pub writes: u64,
    /// Completed reads.
    pub reads: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Bytes read.
    pub bytes_read: u64,
}

/// A multiplicative hash over 8-byte words: each word is folded in with
/// one 64 × 64 → 128-bit multiply whose halves are XORed, so every input
/// bit reaches the low bits the table indexes by (a plain wrapping
/// multiply only carries bits upwards). A few multiplies per key where
/// SipHash runs a dozen rounds; keys are the platform's own, not an
/// adversary's, so flooding resistance buys nothing here.
#[derive(Debug, Default, Clone, Copy)]
struct KeyHasher(u64);

impl KeyHasher {
    const K: u64 = 0xf135_7aea_2e62_a9c5;

    fn add(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * u128::from(Self::K);
        self.0 = product as u64 ^ (product >> 64) as u64;
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    fn write_u8(&mut self, byte: u8) {
        self.add(u64::from(byte));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The distributed data store.
#[derive(Debug, Clone)]
pub struct DataStore {
    model: BackendModel,
    objects: HashMap<String, u64, BuildHasherDefault<KeyHasher>>,
    stats: StoreStats,
}

impl DataStore {
    /// Creates a store on the given backend.
    pub fn new(kind: BackendKind) -> Self {
        DataStore {
            model: BackendModel::new(kind),
            objects: HashMap::default(),
            stats: StoreStats::default(),
        }
    }

    /// Writes (or overwrites) an object, returning the pointer and the
    /// sampled operation latency.
    pub fn write(
        &mut self,
        key: impl Into<String>,
        size_bytes: u64,
        rng: &mut SimRng,
    ) -> (ObjectPointer, SimTime) {
        let key = key.into();
        self.objects.insert(key.clone(), size_bytes);
        let latency = self.write_sized(size_bytes, rng);
        (
            ObjectPointer {
                key,
                size_bytes,
                backend: self.model.kind(),
            },
            latency,
        )
    }

    /// Allocation-free twin of [`DataStore::write`] for callers that
    /// re-checkpoint the same key: no [`ObjectPointer`] is built and the
    /// key is only copied on first insertion.
    pub fn write_keyed(&mut self, key: &str, size_bytes: u64, rng: &mut SimRng) -> SimTime {
        match self.objects.get_mut(key) {
            Some(size) => *size = size_bytes,
            None => {
                self.objects.insert(key.to_string(), size_bytes);
            }
        }
        self.write_sized(size_bytes, rng)
    }

    /// Writes an object whose size the caller records itself (module docs,
    /// "Two ways in, one body each"): samples the write latency and counts
    /// the write. Every keyed write ends here.
    pub fn write_sized(&mut self, size_bytes: u64, rng: &mut SimRng) -> SimTime {
        self.stats.writes += 1;
        self.stats.bytes_written += size_bytes;
        self.model.write_latency(size_bytes, rng)
    }

    /// Reads an object by pointer, returning the sampled latency.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::NotFound`] for unknown keys.
    pub fn read(
        &mut self,
        pointer: &ObjectPointer,
        rng: &mut SimRng,
    ) -> Result<SimTime, StoreError> {
        self.read_keyed(&pointer.key, rng)
    }

    /// Reads an object by key — [`DataStore::read`] without constructing
    /// an [`ObjectPointer`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::NotFound`] for unknown keys.
    pub fn read_keyed(&mut self, key: &str, rng: &mut SimRng) -> Result<SimTime, StoreError> {
        let size = *self
            .objects
            .get(key)
            .ok_or_else(|| StoreError::NotFound(key.to_string()))?;
        Ok(self.read_sized(size, rng))
    }

    /// Reads an object of `size_bytes` whose size the caller recorded when
    /// it wrote it ([`DataStore::write_sized`]): samples the read latency
    /// and counts the read. Every keyed read that finds its key ends here.
    pub fn read_sized(&mut self, size_bytes: u64, rng: &mut SimRng) -> SimTime {
        self.stats.reads += 1;
        self.stats.bytes_read += size_bytes;
        self.model.read_latency(size_bytes, rng)
    }

    /// Deletes an object. Returns whether it existed.
    pub fn delete(&mut self, key: &str) -> bool {
        self.objects.remove(key).is_some()
    }

    /// Whether `key` exists.
    pub fn contains(&self, key: &str) -> bool {
        self.objects.contains_key(key)
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Operation counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read() {
        let mut store = DataStore::new(BackendKind::S3);
        let mut rng = SimRng::seed(1);
        let (ptr, w) = store.write("k1/model", 100_000_000, &mut rng);
        assert!(w > SimTime::ZERO);
        assert_eq!(ptr.backend, BackendKind::S3);
        let r = store.read(&ptr, &mut rng).unwrap();
        assert!(r > SimTime::ZERO);
        assert_eq!(store.stats().writes, 1);
        assert_eq!(store.stats().reads, 1);
        assert_eq!(store.stats().bytes_written, 100_000_000);
    }

    #[test]
    fn read_missing_fails() {
        let mut store = DataStore::new(BackendKind::Redis);
        let mut rng = SimRng::seed(2);
        let ptr = ObjectPointer {
            key: "ghost".into(),
            size_bytes: 1,
            backend: BackendKind::Redis,
        };
        assert_eq!(
            store.read(&ptr, &mut rng),
            Err(StoreError::NotFound("ghost".into()))
        );
    }

    #[test]
    fn overwrite_replaces_size() {
        let mut store = DataStore::new(BackendKind::Hdfs);
        let mut rng = SimRng::seed(3);
        store.write("k", 100, &mut rng);
        store.write("k", 200, &mut rng);
        assert_eq!(store.len(), 1);
        store.read_keyed("k", &mut rng).unwrap();
        assert_eq!(store.stats().bytes_read, 200);
    }

    /// Keys shaped like the platform's (`kernel-<i>/…`) hash apart, and
    /// their table-index bits spread about as a random hash's would (70 %
    /// distinct here).
    #[test]
    fn platform_keys_hash_apart() {
        use std::hash::BuildHasher;
        let hash = |key: &str| BuildHasherDefault::<KeyHasher>::default().hash_one(key);
        let mut hashes: Vec<u64> = (0..50_000)
            .flat_map(|i| [format!("kernel-{i}/state"), format!("kernel-{i}/inputs")])
            .map(|key| hash(&key))
            .collect();
        let n = hashes.len();
        let mut low: Vec<u64> = hashes.iter().map(|h| h & 0x1_ffff).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), n, "no two keys share a hash");
        low.sort_unstable();
        low.dedup();
        assert!(
            low.len() > n * 6 / 10,
            "{} of {n} distinct low-17-bit indices",
            low.len()
        );
    }

    /// The keyless path is the keyed path without the map: over a mix of
    /// sizes, first writes, overwrites and reads, both sample the same
    /// latencies, count the same stats and leave the RNG at the same place.
    #[test]
    fn the_keyless_path_draws_and_counts_what_the_keyed_path_does() {
        for kind in [BackendKind::Redis, BackendKind::S3, BackendKind::Hdfs] {
            let mut keyed = DataStore::new(kind);
            let mut keyless = DataStore::new(kind);
            let (mut keyed_rng, mut keyless_rng) = (SimRng::seed(9), SimRng::seed(9));
            let mut sizes = [0u64; 4];
            for i in 0..400u64 {
                let object = (i * 7 % 4) as usize;
                let key = format!("kernel-{object}/state");
                if i % 3 == 0 && sizes[object] > 0 {
                    let want = keyed.read_keyed(&key, &mut keyed_rng).unwrap();
                    let got = keyless.read_sized(sizes[object], &mut keyless_rng);
                    assert_eq!(got, want, "{kind} read {i}");
                } else {
                    sizes[object] = 1 + i * 48_611 % 900_000_000;
                    let want = keyed.write_keyed(&key, sizes[object], &mut keyed_rng);
                    let got = keyless.write_sized(sizes[object], &mut keyless_rng);
                    assert_eq!(got, want, "{kind} write {i}");
                }
                assert_eq!(keyless.stats(), keyed.stats(), "{kind} op {i}");
            }
            assert_eq!(keyless_rng.next_u64(), keyed_rng.next_u64(), "{kind}");
            assert!(keyless.is_empty(), "the keyless path records nothing");
            assert_eq!(keyed.len(), 4);
        }
    }

    #[test]
    fn delete_and_contains() {
        let mut store = DataStore::new(BackendKind::S3);
        let mut rng = SimRng::seed(4);
        store.write("k", 10, &mut rng);
        assert!(store.contains("k"));
        assert!(store.delete("k"));
        assert!(!store.delete("k"));
        assert!(store.is_empty());
    }
}
