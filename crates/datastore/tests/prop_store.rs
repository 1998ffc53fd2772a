//! Property tests for the data store.

use proptest::prelude::*;

use notebookos_datastore::{BackendKind, DataStore};
use notebookos_des::SimRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Store accounting: the live objects are exactly the last write of
    /// each undeleted key, so overwrites replace rather than accumulate.
    #[test]
    fn store_accounting(ops in proptest::collection::vec((0u8..8, 1u64..1_000_000, any::<bool>()), 1..60)) {
        let mut store = DataStore::new(BackendKind::Redis);
        let mut rng = SimRng::seed(1);
        let mut live: std::collections::HashMap<String, u64> = std::collections::HashMap::new();
        for (key, size, delete) in ops {
            let key = format!("k{key}");
            if delete {
                let existed = store.delete(&key);
                prop_assert_eq!(existed, live.remove(&key).is_some());
            } else {
                store.write(key.clone(), size, &mut rng);
                live.insert(key, size);
            }
            prop_assert_eq!(store.len(), live.len());
        }
        for (key, size) in &live {
            let before = store.stats().bytes_read;
            store.read_keyed(key, &mut rng).unwrap();
            prop_assert_eq!(store.stats().bytes_read - before, *size);
        }
    }

    /// Read latency is monotone-ish in object size on every backend:
    /// reading 100× more bytes takes strictly longer on average.
    #[test]
    fn latency_grows_with_size(seed in any::<u64>()) {
        for kind in [BackendKind::Redis, BackendKind::S3, BackendKind::Hdfs] {
            let mut store = DataStore::new(kind);
            let mut rng = SimRng::seed(seed);
            let (small_ptr, _) = store.write("small", 1_000_000, &mut rng);
            let (big_ptr, _) = store.write("big", 100_000_000, &mut rng);
            let small: f64 = (0..50)
                .map(|_| store.read(&small_ptr, &mut rng).unwrap().as_secs_f64())
                .sum();
            let big: f64 = (0..50)
                .map(|_| store.read(&big_ptr, &mut rng).unwrap().as_secs_f64())
                .sum();
            prop_assert!(big > small, "{kind}: big {big} <= small {small}");
        }
    }
}
