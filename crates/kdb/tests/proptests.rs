//! Model-based property tests: the extendible-hash store must agree with a
//! reference `HashMap` under arbitrary operation sequences, and `MemStore`
//! with an ordered reference map — including every clone taken on the way.

use krb_kdb::{
    DbError, HashStore, MemStore, PrincipalDb, PrincipalEntry, PrincipalEntryView, Store,
};
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

/// `PrincipalEntry::decode` as it was before the record view became the
/// parser — position, copy, then validate — kept as the model for it.
fn model_decode(buf: &[u8]) -> Result<PrincipalEntry, DbError> {
    struct Reader<'a> {
        buf: &'a [u8],
        pos: usize,
    }
    impl<'a> Reader<'a> {
        fn bytes(&mut self, n: usize) -> Result<&'a [u8], DbError> {
            if self.pos + n > self.buf.len() {
                return Err(DbError::Corrupt("truncated record".into()));
            }
            let s = &self.buf[self.pos..self.pos + n];
            self.pos += n;
            Ok(s)
        }
        fn u8(&mut self) -> Result<u8, DbError> {
            Ok(self.bytes(1)?[0])
        }
        fn u32(&mut self) -> Result<u32, DbError> {
            Ok(u32::from_be_bytes(self.bytes(4)?.try_into().unwrap()))
        }
        fn string(&mut self) -> Result<String, DbError> {
            let len = self.u8()? as usize;
            let raw = self.bytes(len)?;
            String::from_utf8(raw.to_vec()).map_err(|_| DbError::Corrupt("non-UTF-8 name".into()))
        }
    }
    let mut r = Reader { buf, pos: 0 };
    let version = r.u8()?;
    if version != 1 {
        return Err(DbError::Corrupt(format!("record version {version}")));
    }
    let entry = PrincipalEntry {
        name: r.string()?,
        instance: r.string()?,
        key_encrypted: r.bytes(8)?.try_into().unwrap(),
        key_version: r.u8()?,
        expiration: r.u32()?,
        max_life: r.u8()?,
        attributes: u16::from_be_bytes(r.bytes(2)?.try_into().unwrap()),
        mod_time: r.u32()?,
        mod_by: r.string()?,
    };
    if r.pos != buf.len() {
        return Err(DbError::Corrupt("trailing bytes in record".into()));
    }
    Ok(entry)
}

prop_compose! {
    fn arb_entry()(
        name in "[a-z0-9_]{0,12}",
        instance in "[a-zA-Z0-9_.]{0,12}",
        mod_by in "[a-z.]{0,16}",
        key_encrypted in any::<[u8; 8]>(),
        (key_version, max_life, attributes) in any::<(u8, u8, u16)>(),
        (expiration, mod_time) in any::<(u32, u32)>(),
    ) -> PrincipalEntry {
        PrincipalEntry {
            name, instance, key_encrypted, key_version, expiration, max_life, attributes, mod_time, mod_by,
        }
    }
}

proptest! {
    /// The record view against the owned decoder it replaced: the same
    /// verdict — the same entry or the same `DbError`, wording included —
    /// on a valid record, on that record with one byte flipped, one byte
    /// set, its tail cut or extended, and on arbitrary bytes; and an
    /// accepted view re-encodes to its input.
    #[test]
    fn record_view_equals_the_owned_decoder(
        entry in arb_entry(),
        at in any::<usize>(),
        flip in 1u8..=255,
        set in prop_oneof![Just(0u8), Just(1), Just(0x80), Just(0xff), any::<u8>()],
        junk in proptest::collection::vec(any::<u8>(), 0..80),
    ) {
        let valid = entry.encode();
        let at = at % valid.len();
        let mut flipped = valid.clone();
        flipped[at] ^= flip;
        let mut with_set = valid.clone();
        with_set[at] = set;
        let extended = [&valid[..], &junk[..]].concat();
        for input in [valid.clone(), flipped, with_set, valid[..at].to_vec(), extended, junk] {
            let model = model_decode(&input);
            let view = PrincipalEntryView::decode(&input);
            prop_assert_eq!(view.as_ref().map(|v| v.to_owned()).map_err(Clone::clone), model.clone());
            prop_assert_eq!(PrincipalEntry::decode(&input), model);
            if let Ok(view) = view {
                prop_assert_eq!(view.to_owned().encode(), input);
            }
        }
    }

    /// The borrowed lookup is `get` without the copies: the same answer for
    /// registered principals, for absent ones, and for names longer than
    /// the stack key (which no registered principal can have).
    #[test]
    fn get_ref_equals_get(
        registered in proptest::collection::vec(("[a-z]{1,40}", "[a-z.]{0,40}"), 1..12),
        probes in proptest::collection::vec(("[a-z]{0,60}", "[a-z.]{0,60}"), 0..12),
    ) {
        let key = krb_crypto::string_to_key("m");
        let mut db = PrincipalDb::create(MemStore::new(), key, 7).unwrap();
        for (name, instance) in &registered {
            let _ = db.add_principal(name, instance, &key, 99, 12, 7, "test.");
        }
        for (name, instance) in registered.iter().chain(&probes).chain([&("K".to_string(), "M".to_string())]) {
            let owned = db.get(name, instance).unwrap();
            let borrowed = db.get_ref(name, instance).unwrap().map(|v| v.to_owned());
            prop_assert_eq!(&borrowed, &owned);
        }
        prop_assert!(db.get_ref(&registered[0].0, &registered[0].1).unwrap().is_some());
    }
}
