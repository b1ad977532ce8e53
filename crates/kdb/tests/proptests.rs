//! Model-based property tests: the extendible-hash store must agree with a
//! reference `HashMap` under arbitrary operation sequences, and `MemStore`
//! with an ordered reference map — including every clone taken on the way.

use krb_kdb::{HashStore, MemStore, Store};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

#[derive(Debug, Clone)]
enum Op {
    Store(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    Fetch(Vec<u8>),
}

fn arb_key() -> impl Strategy<Value = Vec<u8>> {
    // Small key space to provoke overwrites and deletes of present keys.
    proptest::collection::vec(0u8..8, 1..4)
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_key(), proptest::collection::vec(any::<u8>(), 0..200)).prop_map(|(k, v)| Op::Store(k, v)),
        arb_key().prop_map(Op::Delete),
        arb_key().prop_map(Op::Fetch),
    ]
}

fn check_against_model<S: Store>(store: &mut S, ops: &[Op]) {
    let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
    for op in ops {
        match op {
            Op::Store(k, v) => {
                store.store(k, v).unwrap();
                model.insert(k.clone(), v.clone());
            }
            Op::Delete(k) => {
                let was = store.delete(k).unwrap();
                assert_eq!(was, model.remove(k).is_some());
            }
            Op::Fetch(k) => {
                assert_eq!(store.fetch(k).unwrap(), model.get(k).cloned());
            }
        }
        assert_eq!(store.len(), model.len());
    }
    let mut seen = HashMap::new();
    store
        .for_each(&mut |k, v| {
            seen.insert(k.to_vec(), v.to_vec());
        })
        .unwrap();
    assert_eq!(seen, model);
}

/// Operations on the persistent tree: the three of [`Op`] plus `Clone`,
/// which takes a snapshot that must never change afterwards.
#[derive(Debug, Clone)]
enum TreeOp {
    Store(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    Fetch(Vec<u8>),
    Clone,
}

/// About 1 400 distinct keys — enough for a three-level tree — in three
/// shapes: short (stored in the node), longer than any inline limit, and
/// the empty key.
fn tree_key() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        8 => (0u16..700).prop_map(|i| format!("p{i:03}.").into_bytes()),
        8 => (0u16..700).prop_map(|i| format!("{i:03}.{}", "x".repeat(80)).into_bytes()),
        1 => Just(Vec::new()),
    ]
}

fn tree_op() -> impl Strategy<Value = TreeOp> {
    prop_oneof![
        12 => (tree_key(), proptest::collection::vec(any::<u8>(), 0..80))
            .prop_map(|(k, v)| TreeOp::Store(k, v)),
        10 => tree_key().prop_map(TreeOp::Delete),
        4 => tree_key().prop_map(TreeOp::Fetch),
        1 => Just(TreeOp::Clone),
    ]
}

fn records(store: &MemStore) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut out = Vec::with_capacity(store.len());
    store.for_each(&mut |k, v| out.push((k.to_vec(), v.to_vec()))).unwrap();
    out
}

fn assert_equals_model(store: &MemStore, model: &BTreeMap<Vec<u8>, Vec<u8>>) {
    assert_eq!(store.len(), model.len());
    let expect: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    assert_eq!(records(store), expect, "for_each is the model's ascending order");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn memstore_is_a_persistent_ordered_map(
        preload in 0u16..700,
        ops in proptest::collection::vec(tree_op(), 0..1500),
    ) {
        let mut store = MemStore::new();
        let mut model = BTreeMap::new();
        // A tree that is already deep, so the deletes below merge and
        // borrow across levels instead of draining one leaf.
        for i in 0..preload {
            let k = format!("p{i:03}.").into_bytes();
            store.store(&k, &i.to_be_bytes()).unwrap();
            model.insert(k, i.to_be_bytes().to_vec());
        }
        let mut snapshots = vec![(store.clone(), model.clone())];
        for op in &ops {
            match op {
                TreeOp::Store(k, v) => {
                    store.store(k, v).unwrap();
                    model.insert(k.clone(), v.clone());
                }
                TreeOp::Delete(k) => {
                    prop_assert_eq!(store.delete(k).unwrap(), model.remove(k).is_some());
                }
                TreeOp::Fetch(k) => {
                    prop_assert_eq!(store.fetch(k).unwrap(), model.get(k).cloned());
                }
                TreeOp::Clone => snapshots.push((store.clone(), model.clone())),
            }
            prop_assert_eq!(store.len(), model.len());
        }
        assert_equals_model(&store, &model);
        for (snapshot, at_the_time) in &snapshots {
            assert_equals_model(snapshot, at_the_time);
            for (k, v) in at_the_time.iter().take(20) {
                prop_assert_eq!(snapshot.fetch(k).unwrap().as_ref(), Some(v));
            }
        }
    }

    #[test]
    fn hashstore_matches_model(ops in proptest::collection::vec(arb_op(), 0..120)) {
        let path = std::env::temp_dir().join(format!(
            "kdb-prop-{}-{:x}",
            std::process::id(),
            rand_suffix()
        ));
        let _ = std::fs::remove_file(path.with_extension("pag"));
        let _ = std::fs::remove_file(path.with_extension("dir"));
        let mut s = HashStore::open(&path).unwrap();
        check_against_model(&mut s, &ops);
        let _ = std::fs::remove_file(path.with_extension("pag"));
        let _ = std::fs::remove_file(path.with_extension("dir"));
    }

    #[test]
    fn memstore_matches_model(ops in proptest::collection::vec(arb_op(), 0..200)) {
        let mut s = MemStore::new();
        check_against_model(&mut s, &ops);
    }
}

fn rand_suffix() -> u64 {
    use std::time::{SystemTime, UNIX_EPOCH};
    SystemTime::now().duration_since(UNIX_EPOCH).unwrap().subsec_nanos() as u64
        ^ (std::thread::current().id().as_u64_hack())
}

trait ThreadIdHack {
    fn as_u64_hack(&self) -> u64;
}
impl ThreadIdHack for std::thread::ThreadId {
    fn as_u64_hack(&self) -> u64 {
        // Debug prints as "ThreadId(N)"; good enough for a temp-file suffix.
        let s = format!("{self:?}");
        s.bytes().map(u64::from).sum()
    }
}
