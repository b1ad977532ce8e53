//! The storage interface of the database library.
//!
//! The paper (§2.2): "Another replaceable module is the database management
//! system. The current Athena implementation of the database library uses
//! *ndbm* ... Other database management libraries could be used as well."
//!
//! [`Store`] is that replaceable seam. Two implementations ship:
//! [`crate::ndbm::HashStore`] (file-backed extendible hashing, the `ndbm`
//! role) and [`MemStore`] (in-memory and persistent: the store every KDC
//! serves from, and the one simulators and tests build on).

use crate::DbError;
use std::cmp::Ordering;
use std::sync::Arc;

/// A flat key/value store with `ndbm`-style semantics: byte-string keys and
/// values, single writer, full-scan iteration (`firstkey`/`nextkey`).
pub trait Store {
    /// Fetch the value stored under `key`, if any.
    fn fetch(&self, key: &[u8]) -> Result<Option<Vec<u8>>, DbError>;
    /// Insert or replace the value under `key`.
    fn store(&mut self, key: &[u8], value: &[u8]) -> Result<(), DbError>;
    /// Remove `key`. Returns whether it was present.
    fn delete(&mut self, key: &[u8]) -> Result<bool, DbError>;
    /// Number of live records.
    fn len(&self) -> usize;
    /// Whether the store holds no records.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Visit every record. Order is unspecified (hash order for `ndbm`).
    fn for_each(&self, f: &mut dyn FnMut(&[u8], &[u8])) -> Result<(), DbError>;
    /// Flush buffered state to durable storage (no-op for memory stores).
    fn sync(&mut self) -> Result<(), DbError>;
    /// Insert a batch of records in one pass, then flush. Duplicate keys
    /// resolve last-write-wins, so the result is lookup-equivalent to
    /// calling [`Store::store`] once per pair in order. Engines may
    /// override with a batch-aware fast path (the extendible-hash store
    /// pre-splits its directory instead of splitting one overflow at a
    /// time, and [`MemStore`] builds its tree bottom-up); the default is a
    /// plain loop.
    fn bulk_load(&mut self, pairs: Vec<(Vec<u8>, Vec<u8>)>) -> Result<(), DbError> {
        for (k, v) in &pairs {
            self.store(k, v)?;
        }
        self.sync()
    }
    /// Every record in an in-memory store: the snapshot a server reads
    /// from while this store stays with the writer. The default copies
    /// record by record; [`MemStore`] overrides it with its O(1) clone.
    fn to_mem(&self) -> Result<MemStore, DbError> {
        let mut mem = MemStore::new();
        let mut first_err = None;
        self.for_each(&mut |k, v| {
            if first_err.is_none() {
                first_err = mem.store(k, v).err();
            }
        })?;
        match first_err {
            Some(e) => Err(e),
            None => Ok(mem),
        }
    }
}

/// Array size of every node. A node whose array fills splits into two
/// halves of [`MIN`], so a settled node holds at most `WIDTH - 1` entries
/// (children, for an internal node).
const WIDTH: usize = 32;
/// Fewest entries (children) of any node but the root.
const MIN: usize = WIDTH / 2;
/// Longest key stored inside the node itself; a principal's
/// `name.instance` is almost always shorter.
const INLINE: usize = 22;

/// A broken tree invariant, reported as corruption instead of a panic:
/// this code sits under every `Kdc::handle` lookup.
fn slip() -> DbError {
    DbError::Corrupt("MemStore node invariant broken".into())
}

/// A record key. Short keys live in the node, so comparing against one
/// during a descent follows no pointer.
#[derive(Clone)]
enum Key {
    Inline { len: u8, buf: [u8; INLINE] },
    Heap(Arc<[u8]>),
}

impl Default for Key {
    fn default() -> Self {
        Key::Inline { len: 0, buf: [0; INLINE] }
    }
}

impl Key {
    fn new(bytes: &[u8]) -> Self {
        let mut buf = [0; INLINE];
        match buf.get_mut(..bytes.len()) {
            Some(dst) => {
                dst.copy_from_slice(bytes);
                Key::Inline { len: bytes.len() as u8, buf }
            }
            None => Key::Heap(Arc::from(bytes)),
        }
    }

    #[inline]
    fn bytes(&self) -> &[u8] {
        match self {
            Key::Inline { len, buf } => buf.get(..usize::from(*len)).unwrap_or(buf),
            Key::Heap(bytes) => bytes,
        }
    }
}

/// A fixed-capacity vector held inside its node, so a node is one
/// allocation. Slots at and past `len` hold `T::default()`.
#[derive(Clone)]
struct Slots<T> {
    len: usize,
    items: [T; WIDTH],
}

impl<T: Default> Slots<T> {
    fn new() -> Self {
        Slots { len: 0, items: std::array::from_fn(|_| T::default()) }
    }

    fn as_slice(&self) -> &[T] {
        self.items.get(..self.len).unwrap_or(&self.items)
    }

    fn as_mut_slice(&mut self) -> &mut [T] {
        match self.items.get_mut(..self.len) {
            Some(live) => live,
            None => &mut [],
        }
    }

    fn insert(&mut self, at: usize, item: T) -> Result<(), DbError> {
        let tail = self.items.get_mut(at..=self.len).ok_or_else(slip)?;
        tail.rotate_right(1);
        *tail.first_mut().ok_or_else(slip)? = item;
        self.len += 1;
        Ok(())
    }

    fn push(&mut self, item: T) -> Result<(), DbError> {
        self.insert(self.len, item)
    }

    fn remove(&mut self, at: usize) -> Result<T, DbError> {
        let tail = self.items.get_mut(at..self.len).ok_or_else(slip)?;
        let item = std::mem::take(tail.first_mut().ok_or_else(slip)?);
        tail.rotate_left(1);
        self.len -= 1;
        Ok(item)
    }

    fn pop(&mut self) -> Result<T, DbError> {
        self.remove(self.len.checked_sub(1).ok_or_else(slip)?)
    }

    /// Move the items from `at` on into a new vector.
    fn split_off(&mut self, at: usize) -> Result<Self, DbError> {
        let mut right = Self::new();
        let moved = self.items.get_mut(at..self.len).ok_or_else(slip)?;
        for (dst, src) in right.items.iter_mut().zip(moved.iter_mut()) {
            *dst = std::mem::take(src);
        }
        right.len = moved.len();
        self.len = at;
        Ok(right)
    }

    /// Move every item of `other` onto the end.
    fn append(&mut self, other: &mut Self) -> Result<(), DbError> {
        let room = self.items.get_mut(self.len..self.len + other.len).ok_or_else(slip)?;
        for (dst, src) in room.iter_mut().zip(other.items.iter_mut()) {
            *dst = std::mem::take(src);
        }
        self.len += other.len;
        other.len = 0;
        Ok(())
    }
}

/// A B+tree node: records sit in the leaves; an internal node with `n`
/// children holds `n - 1` separators, `keys[i]` being the least key
/// reachable through `kids[i + 1]`.
// Both variants are a node-sized array and only ever live behind `Arc`;
// boxing the larger would add a pointer hop to every leaf visit.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
enum Node {
    Leaf { keys: Slots<Key>, vals: Slots<Option<Arc<[u8]>>> },
    Internal { keys: Slots<Key>, kids: Slots<Option<Arc<Node>>> },
}

impl Node {
    /// Entries of a leaf, children of an internal node.
    fn fill(&self) -> usize {
        match self {
            Node::Leaf { keys, .. } => keys.len,
            Node::Internal { kids, .. } => kids.len,
        }
    }
}

/// Where `key` falls among a node's sorted `keys`: the index of the first
/// one not below it, and whether that one equals it. A linear scan — a
/// node's keys are few and contiguous.
#[inline]
fn search(keys: &[Key], key: &[u8]) -> (usize, bool) {
    for (i, k) in keys.iter().enumerate() {
        match k.bytes().cmp(key) {
            Ordering::Less => {}
            Ordering::Equal => return (i, true),
            Ordering::Greater => return (i, false),
        }
    }
    (keys.len(), false)
}

/// Which child of an internal node covers `key`.
#[inline]
fn child_index(keys: &Slots<Key>, key: &[u8]) -> usize {
    let (i, hit) = search(keys.as_slice(), key);
    i + usize::from(hit)
}

#[cfg(test)]
thread_local! {
    /// Nodes copied because they were shared when a write reached them.
    static NODE_COPIES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Mutable access to a node: in place when this tree alone holds it, on a
/// copy (which then replaces it in this tree) when a clone shares it.
fn unshare(node: &mut Arc<Node>) -> &mut Node {
    #[cfg(test)]
    if Arc::strong_count(node) > 1 {
        NODE_COPIES.with(|c| c.set(c.get() + 1));
    }
    Arc::make_mut(node)
}

/// What an insertion did to the subtree it went into.
enum Grown {
    /// The key was present; its value was replaced.
    Replaced,
    /// The key was added and the subtree's root had room.
    Added,
    /// The key was added and the subtree's root split: the separator and
    /// the new right sibling, for the parent to adopt.
    Split(Key, Arc<Node>),
}

fn insert(node: &mut Arc<Node>, key: &[u8], val: Arc<[u8]>) -> Result<Grown, DbError> {
    match unshare(node) {
        Node::Leaf { keys, vals } => {
            let (at, hit) = search(keys.as_slice(), key);
            if hit {
                *vals.as_mut_slice().get_mut(at).ok_or_else(slip)? = Some(val);
                return Ok(Grown::Replaced);
            }
            keys.insert(at, Key::new(key))?;
            vals.insert(at, Some(val))?;
            if keys.len < WIDTH {
                return Ok(Grown::Added);
            }
            let right_keys = keys.split_off(MIN)?;
            let right_vals = vals.split_off(MIN)?;
            let sep = right_keys.as_slice().first().cloned().ok_or_else(slip)?;
            let right = Node::Leaf { keys: right_keys, vals: right_vals };
            Ok(Grown::Split(sep, Arc::new(right)))
        }
        Node::Internal { keys, kids } => {
            let at = child_index(keys, key);
            let kid = kids.as_mut_slice().get_mut(at).and_then(Option::as_mut).ok_or_else(slip)?;
            let (sep, right) = match insert(kid, key, val)? {
                Grown::Split(sep, right) => (sep, right),
                done => return Ok(done),
            };
            keys.insert(at, sep)?;
            kids.insert(at + 1, Some(right))?;
            if kids.len < WIDTH {
                return Ok(Grown::Added);
            }
            // Children split MIN/MIN; the separator between the halves
            // moves up.
            let right_kids = kids.split_off(MIN)?;
            let right_keys = keys.split_off(MIN)?;
            let up = keys.pop()?;
            let right = Node::Internal { keys: right_keys, kids: right_kids };
            Ok(Grown::Split(up, Arc::new(right)))
        }
    }
}

/// Remove `key`, which the caller has found, from the subtree. The
/// subtree's root may come back with fewer than [`MIN`] entries — its
/// parent rebalances.
fn remove(node: &mut Arc<Node>, key: &[u8]) -> Result<(), DbError> {
    match unshare(node) {
        Node::Leaf { keys, vals } => {
            let (at, hit) = search(keys.as_slice(), key);
            if !hit {
                return Err(slip());
            }
            keys.remove(at)?;
            vals.remove(at)?;
        }
        Node::Internal { keys, kids } => {
            let at = child_index(keys, key);
            let kid = kids.as_mut_slice().get_mut(at).and_then(Option::as_mut).ok_or_else(slip)?;
            remove(kid, key)?;
            if kid.fill() < MIN {
                rebalance(keys, kids, at)?;
            }
        }
    }
    Ok(())
}

/// Child `at` of the node owning `keys`/`kids` fell below [`MIN`]: take one
/// entry from a sibling that can spare it, or else merge the two.
fn rebalance(
    keys: &mut Slots<Key>,
    kids: &mut Slots<Option<Arc<Node>>>,
    at: usize,
) -> Result<(), DbError> {
    // The pair is (left, left + 1); the short child is either of them.
    let left = at.saturating_sub(1);
    let (head, tail) = kids.as_mut_slice().split_at_mut_checked(left + 1).ok_or_else(slip)?;
    let l = head.last_mut().and_then(Option::as_mut).ok_or_else(slip)?;
    let r = match tail.first_mut().and_then(Option::as_mut) {
        Some(r) => r,
        None => return Ok(()), // an only child: the root, which the store collapses
    };
    let sep = keys.as_mut_slice().get_mut(left).ok_or_else(slip)?;
    let short_is_left = at == left;
    let donor = if short_is_left { r.fill() } else { l.fill() };
    let spare = donor > MIN;
    match (unshare(l), unshare(r)) {
        (Node::Leaf { keys: lk, vals: lv }, Node::Leaf { keys: rk, vals: rv }) => {
            if !spare {
                lk.append(rk)?;
                lv.append(rv)?;
            } else {
                if short_is_left {
                    lk.push(rk.remove(0)?)?;
                    lv.push(rv.remove(0)?)?;
                } else {
                    rk.insert(0, lk.pop()?)?;
                    rv.insert(0, lv.pop()?)?;
                }
                *sep = rk.as_slice().first().cloned().ok_or_else(slip)?;
            }
        }
        (Node::Internal { keys: lk, kids: lc }, Node::Internal { keys: rk, kids: rc }) => {
            // The separator between the pair rotates through the parent.
            if !spare {
                lk.push(std::mem::take(sep))?;
                lk.append(rk)?;
                lc.append(rc)?;
            } else if short_is_left {
                lk.push(std::mem::replace(sep, rk.remove(0)?))?;
                lc.push(rc.remove(0)?)?;
            } else {
                rk.insert(0, std::mem::replace(sep, lk.pop()?))?;
                rc.insert(0, lc.pop()?)?;
            }
        }
        _ => return Err(slip()), // siblings at one depth are one kind
    }
    if !spare {
        keys.remove(left)?;
        kids.remove(left + 1)?;
    }
    Ok(())
}

fn walk(node: &Node, f: &mut dyn FnMut(&Key, &Arc<[u8]>)) -> Result<(), DbError> {
    match node {
        Node::Leaf { keys, vals } => {
            for (k, v) in keys.as_slice().iter().zip(vals.as_slice()) {
                f(k, v.as_ref().ok_or_else(slip)?);
            }
        }
        Node::Internal { kids, .. } => {
            for kid in kids.as_slice() {
                walk(kid.as_deref().ok_or_else(slip)?, f)?;
            }
        }
    }
    Ok(())
}

/// One level of a bulk build: `n` ascending entries, each with its least
/// key, gathered [`MIN`] to a node as ascending inserts leave them and the
/// remainder spread one apiece; each node comes back with its least key.
fn level<T: Default>(
    n: usize,
    mut below: impl Iterator<Item = (Key, T)>,
    node: impl Fn(Slots<Key>, Slots<T>) -> Result<Node, DbError>,
) -> Result<Vec<(Key, Arc<Node>)>, DbError> {
    let nodes = (n / MIN).max(1);
    (0..nodes)
        .map(|i| {
            let fill = n / nodes + usize::from(i < n % nodes);
            let (mut keys, mut items) = (Slots::new(), Slots::new());
            for (k, item) in below.by_ref().take(fill) {
                keys.push(k)?;
                items.push(item)?;
            }
            if keys.len != fill {
                return Err(slip()); // `n` overstated the entries
            }
            let least = keys.as_slice().first().cloned().unwrap_or_default();
            Ok((least, Arc::new(node(keys, items)?)))
        })
        .collect()
}

/// A tree of the `n` ascending `records`, built a level at a time from the
/// leaves up.
fn build(n: usize, records: impl Iterator<Item = (Key, Arc<[u8]>)>) -> Result<Arc<Node>, DbError> {
    let mut nodes = level(n, records.map(|(k, v)| (k, Some(v))), |keys, vals| Ok(Node::Leaf { keys, vals }))?;
    while nodes.len() > 1 {
        // A child's least key is its separator, the first child's aside.
        nodes = level(nodes.len(), nodes.into_iter().map(|(k, kid)| (k, Some(kid))), |mut keys, kids| {
            keys.remove(0)?;
            Ok(Node::Internal { keys, kids })
        })?;
    }
    nodes.pop().map(|(_, root)| root).ok_or_else(slip)
}

/// In-memory [`Store`]: a persistent B+tree. Nodes sit behind `Arc`, so
/// `clone` is O(1) and the clone shares every node; a `store` or `delete`
/// copies only the shared nodes on its root-to-leaf path (none when the
/// tree has no live clone) and leaves every clone as it was. This is the
/// representation the KDC serves from: a snapshot is a clone, a write is
/// O(log N). `for_each` visits records in ascending key order, which
/// dumps, kprop segments and the byte-identity gates rely on.
#[derive(Clone)]
pub struct MemStore {
    root: Arc<Node>,
    len: usize,
}

impl Default for MemStore {
    fn default() -> Self {
        let leaf = Node::Leaf { keys: Slots::new(), vals: Slots::new() };
        MemStore { root: Arc::new(leaf), len: 0 }
    }
}

impl std::fmt::Debug for MemStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemStore").field("len", &self.len).finish_non_exhaustive()
    }
}

impl MemStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The value stored under `key`, where the tree keeps it.
    pub(crate) fn find(&self, key: &[u8]) -> Result<Option<&[u8]>, DbError> {
        let mut node = &*self.root;
        loop {
            match node {
                Node::Internal { keys, kids } => {
                    let at = child_index(keys, key);
                    node = kids.as_slice().get(at).and_then(Option::as_deref).ok_or_else(slip)?;
                }
                Node::Leaf { keys, vals } => {
                    let (at, hit) = search(keys.as_slice(), key);
                    if !hit {
                        return Ok(None);
                    }
                    let val = vals.as_slice().get(at).and_then(Option::as_deref);
                    return val.map(Some).ok_or_else(slip);
                }
            }
        }
    }
}

impl Store for MemStore {
    fn fetch(&self, key: &[u8]) -> Result<Option<Vec<u8>>, DbError> {
        Ok(self.find(key)?.map(<[u8]>::to_vec))
    }

    fn store(&mut self, key: &[u8], value: &[u8]) -> Result<(), DbError> {
        match insert(&mut self.root, key, Arc::from(value))? {
            Grown::Replaced => {}
            Grown::Added => self.len += 1,
            Grown::Split(sep, right) => {
                self.len += 1;
                let (mut keys, mut kids) = (Slots::new(), Slots::new());
                keys.push(sep)?;
                kids.push(Some(Arc::clone(&self.root)))?;
                kids.push(Some(right))?;
                self.root = Arc::new(Node::Internal { keys, kids });
            }
        }
        Ok(())
    }

    fn delete(&mut self, key: &[u8]) -> Result<bool, DbError> {
        // Look first: a miss must not copy the shared path it walked.
        if self.find(key)?.is_none() {
            return Ok(false);
        }
        remove(&mut self.root, key)?;
        self.len -= 1;
        if let Node::Internal { kids, .. } = &*self.root {
            if let [Some(only)] = kids.as_slice() {
                self.root = Arc::clone(only);
            }
        }
        Ok(true)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn for_each(&self, f: &mut dyn FnMut(&[u8], &[u8])) -> Result<(), DbError> {
        walk(&self.root, &mut |k, v| f(k.bytes(), v))
    }

    /// The records already here (sharing their values) and the batch, as
    /// one sorted run built bottom-up: no record is held twice.
    fn bulk_load(&mut self, pairs: Vec<(Vec<u8>, Vec<u8>)>) -> Result<(), DbError> {
        let mut all = Vec::with_capacity(self.len + pairs.len());
        walk(&self.root, &mut |k, v| all.push((k.clone(), Arc::clone(v))))?;
        all.extend(pairs.into_iter().map(|(k, v)| (Key::new(&k), Arc::from(v))));
        // The sort is stable, so the last of equal keys ends its run; its
        // value moves to the run's first entry, the one `dedup_by` keeps.
        all.sort_by(|a, b| a.0.bytes().cmp(b.0.bytes()));
        all.dedup_by(|later, kept| {
            later.0.bytes() == kept.0.bytes() && {
                std::mem::swap(&mut later.1, &mut kept.1);
                true
            }
        });
        self.len = all.len();
        self.root = build(all.len(), all.into_iter())?;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), DbError> {
        Ok(())
    }

    fn to_mem(&self) -> Result<MemStore, DbError> {
        Ok(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memstore_basic_crud() {
        let mut s = MemStore::new();
        assert!(s.is_empty());
        s.store(b"k1", b"v1").unwrap();
        s.store(b"k2", b"v2").unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.fetch(b"k1").unwrap().as_deref(), Some(&b"v1"[..]));
        s.store(b"k1", b"v1b").unwrap();
        assert_eq!(s.fetch(b"k1").unwrap().as_deref(), Some(&b"v1b"[..]));
        assert_eq!(s.len(), 2, "overwrite must not grow the store");
        assert!(s.delete(b"k1").unwrap());
        assert!(!s.delete(b"k1").unwrap());
        assert_eq!(s.fetch(b"k1").unwrap(), None);
        assert_eq!(s.len(), 1);
    }

    impl MemStore {
        /// Levels from the root down to the leaves, both included.
        fn height(&self) -> usize {
            let mut node = &*self.root;
            let mut levels = 1;
            while let Node::Internal { kids, .. } = node {
                node = kids.as_slice()[0].as_deref().unwrap();
                levels += 1;
            }
            levels
        }

        /// Every structural invariant: fills within bounds, leaves at one
        /// depth, keys ascending and inside the range their separators
        /// promise, spare slots reset, `len` right.
        fn check(&self) {
            fn go(node: &Node, root: bool, lo: Option<&[u8]>, hi: Option<&[u8]>) -> (usize, usize) {
                let within = |k: &[u8]| lo.is_none_or(|lo| lo <= k) && hi.is_none_or(|hi| k < hi);
                let floor = if root { 0 } else { MIN };
                match node {
                    Node::Leaf { keys, vals } => {
                        assert_eq!(keys.len, vals.len);
                        assert!((floor..WIDTH).contains(&keys.len), "leaf fill {}", keys.len);
                        assert!(keys.as_slice().windows(2).all(|w| w[0].bytes() < w[1].bytes()));
                        assert!(keys.as_slice().iter().all(|k| within(k.bytes())));
                        assert!(vals.as_slice().iter().all(Option::is_some));
                        assert!(vals.items[vals.len..].iter().all(Option::is_none));
                        (1, keys.len)
                    }
                    Node::Internal { keys, kids } => {
                        assert_eq!(keys.len + 1, kids.len);
                        assert!((floor.max(2)..WIDTH).contains(&kids.len), "fan-out {}", kids.len);
                        assert!(kids.items[kids.len..].iter().all(Option::is_none));
                        let mut depth = None;
                        let mut records = 0;
                        for (i, kid) in kids.as_slice().iter().enumerate() {
                            let lo = if i == 0 { lo } else { Some(keys.as_slice()[i - 1].bytes()) };
                            let hi = keys.as_slice().get(i).map(Key::bytes).or(hi);
                            let (d, n) = go(kid.as_deref().unwrap(), false, lo, hi);
                            assert_eq!(*depth.get_or_insert(d), d, "leaves at one depth");
                            records += n;
                        }
                        (depth.unwrap() + 1, records)
                    }
                }
            }
            let (levels, records) = go(&self.root, true, None, None);
            assert_eq!(levels, self.height());
            assert_eq!(records, self.len);
        }
    }

    fn key(i: u32) -> Vec<u8> {
        format!("u{i:07}.").into_bytes()
    }

    fn filled(n: u32) -> MemStore {
        let mut s = MemStore::new();
        for i in 0..n {
            s.store(&key(i), &i.to_be_bytes()).unwrap();
        }
        s
    }

    /// Tallest a B+tree of `n` records may stand: the root has two
    /// children, every other node at least `MIN`.
    fn height_bound(n: usize) -> usize {
        let mut levels = 1;
        let mut least = 2 * MIN;
        while least <= n {
            levels += 1;
            least *= MIN;
        }
        levels
    }

    fn node_copies(f: impl FnOnce()) -> usize {
        NODE_COPIES.with(|c| c.set(0));
        f();
        NODE_COPIES.with(std::cell::Cell::get)
    }

    #[test]
    fn height_stays_bounded_under_delete_heavy_churn() {
        use rand::{Rng, SeedableRng};
        const N: u32 = 100_000;
        let mut s = filled(N);
        s.check();
        assert!(s.height() <= height_bound(s.len()));
        let mut order: Vec<u32> = (0..N).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        for (done, i) in order.iter().take(N as usize / 100 * 99).enumerate() {
            assert!(s.delete(&key(*i)).unwrap());
            if done % 4096 == 0 {
                s.check();
                assert!(s.height() <= height_bound(s.len()), "at {} records", s.len());
            }
        }
        s.check();
        assert_eq!(s.len(), 1000);
        assert!(s.height() <= height_bound(1000));
        for i in order.iter().skip(N as usize / 100 * 99) {
            assert_eq!(s.fetch(&key(*i)).unwrap(), Some(i.to_be_bytes().to_vec()));
        }
    }

    #[test]
    fn emptying_the_store_collapses_it_to_one_leaf() {
        let mut s = filled(5000);
        for i in 0..5000 {
            assert!(s.delete(&key(i)).unwrap());
        }
        s.check();
        assert!(s.is_empty());
        assert_eq!(s.height(), 1);
    }

    #[test]
    fn a_write_copies_only_the_shared_path() {
        for n in [1_000u32, 10_000, 100_000] {
            let mut s = filled(n);
            let height = s.height();
            assert_eq!(node_copies(|| s.store(&key(n / 2), b"alone").unwrap()), 0);
            assert_eq!(node_copies(|| s.store(&key(n), b"alone").unwrap()), 0);

            let snapshot = s.clone();
            let copied = node_copies(|| s.store(&key(n / 3), b"shared").unwrap());
            assert!((1..=height).contains(&copied), "{copied} copies at height {height}");
            // The path is now this tree's own: a second write there is free.
            assert_eq!(node_copies(|| s.store(&key(n / 3), b"again").unwrap()), 0);
            // A miss walks the shared tree and copies nothing.
            assert_eq!(node_copies(|| assert!(!s.delete(b"absent").unwrap())), 0);
            assert_eq!(snapshot.fetch(&key(n / 3)).unwrap(), Some((n / 3).to_be_bytes().to_vec()));
            assert_eq!(s.fetch(&key(n / 3)).unwrap().as_deref(), Some(&b"again"[..]));
            snapshot.check();
            s.check();
        }
    }

    #[test]
    fn keys_past_the_inline_limit_and_the_empty_key_round_trip() {
        let mut s = MemStore::new();
        let long = vec![b'k'; INLINE + 1];
        let edge = vec![b'k'; INLINE];
        for k in [&b""[..], &edge, &long] {
            s.store(k, k).unwrap();
        }
        let mut seen = Vec::new();
        s.for_each(&mut |k, v| {
            assert_eq!(k, v);
            seen.push(k.to_vec());
        })
        .unwrap();
        assert_eq!(seen, [b"".to_vec(), edge.clone(), long.clone()]);
        assert!(s.delete(&long).unwrap());
        assert_eq!(s.fetch(&long).unwrap(), None);
        assert_eq!(s.fetch(&edge).unwrap(), Some(edge));
    }

    fn records(s: &MemStore) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        s.for_each(&mut |k, v| out.push((k.to_vec(), v.to_vec()))).unwrap();
        out
    }

    /// Batch sizes either side of one node's least and full fill, and of
    /// a second level's.
    const BATCH_EDGES: &[usize] =
        &[0, 1, MIN - 1, MIN, MIN + 1, WIDTH - 1, WIDTH, WIDTH + 1, WIDTH * MIN - 1, WIDTH * MIN, WIDTH * MIN + 1];

    /// `bulk_load` against its model, `store` once per pair in order, onto
    /// a store holding `start` records, with a batch of `size` pairs that
    /// both adds and replaces keys and repeats some.
    fn bulk_load_matches_model(size: usize, start: u32, spread: u32, seed: u64) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // Even keys are already there; the batch draws from a range that
        // covers them.
        let base = (0..start).fold(MemStore::new(), |mut s, i| {
            s.store(&key(2 * i), b"old").unwrap();
            s
        });
        let range = (size as u32 * spread).max(2 * start).max(1);
        let pairs: Vec<(Vec<u8>, Vec<u8>)> =
            (0..size).map(|i| (key(rng.random_range(0..range)), i.to_be_bytes().to_vec())).collect();
        let mut model = base.clone();
        for (k, v) in &pairs {
            model.store(k, v).unwrap();
        }
        let before = records(&base);
        let mut bulk = base.clone();
        bulk.bulk_load(pairs).unwrap();
        bulk.check();
        assert_eq!(bulk.len(), model.len());
        assert_eq!(records(&bulk), records(&model));
        assert!(bulk.height() <= height_bound(bulk.len()));
        assert_eq!(records(&base), before, "the clone it came from is untouched");

        // The built nodes are the store's own; once a snapshot shares them,
        // a write copies its path and nothing else.
        let k = key(rng.random_range(0..range));
        assert_eq!(node_copies(|| bulk.store(&k, b"mine").unwrap()), 0);
        let snapshot = bulk.clone();
        let height = bulk.height();
        let copied = node_copies(|| bulk.store(&k, b"again").unwrap());
        assert!((1..=height).contains(&copied), "{copied} copies at height {height}");
        assert_eq!(snapshot.fetch(&k).unwrap().as_deref(), Some(&b"mine"[..]));
        bulk.check();
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        #[test]
        fn bulk_load_equals_one_store_per_pair(
            start in 0usize..4,
            spread in 1u32..4,
            seed in proptest::prelude::any::<u64>(),
        ) {
            for &size in BATCH_EDGES {
                bulk_load_matches_model(size, [0, 1, 40, 700][start], spread, seed);
            }
        }
    }

    /// Each leaf's fill, left to right.
    fn leaf_fills(node: &Node, out: &mut Vec<usize>) {
        match node {
            Node::Leaf { keys, .. } => out.push(keys.len),
            Node::Internal { kids, .. } => kids.as_slice().iter().for_each(|k| leaf_fills(k.as_deref().unwrap(), out)),
        }
    }

    /// A bulk build spreads its records evenly over as many leaves as
    /// ascending inserts leave, so a lookup scans no more keys than before.
    #[test]
    fn bulk_build_fills_leaves_evenly_and_as_ascending_inserts_do() {
        for n in BATCH_EDGES.iter().copied().chain([47, 500, 4099]) {
            let mut bulk = MemStore::new();
            bulk.bulk_load((0..n as u32).map(|i| (key(i), vec![1])).collect()).unwrap();
            let (mut built, mut inserted) = (Vec::new(), Vec::new());
            leaf_fills(&bulk.root, &mut built);
            leaf_fills(&filled(n as u32).root, &mut inserted);
            assert_eq!(built.len(), inserted.len(), "leaves for {n} records");
            let (least, most) = (built.iter().min().unwrap(), built.iter().max().unwrap());
            assert!(most - least <= 1, "{n} records filled {built:?}");
        }
    }

    #[test]
    fn memstore_for_each_sees_all() {
        let mut s = MemStore::new();
        for i in 0u32..50 {
            s.store(&i.to_be_bytes(), &[i as u8]).unwrap();
        }
        let mut n = 0;
        s.for_each(&mut |_, _| n += 1).unwrap();
        assert_eq!(n, 50);
    }
}

/// `ndbm`-style cursor iteration: `firstkey`/`nextkey` walk every live key
/// in unspecified (hash) order. Implemented over [`Store::for_each`] so it
/// works for any engine; the historical interface shape is preserved for
/// callers ported from `ndbm`.
pub trait Cursor: Store {
    /// The first key in iteration order, if any.
    fn firstkey(&self) -> Result<Option<Vec<u8>>, DbError> {
        let mut first = None;
        self.for_each(&mut |k, _| {
            if first.is_none() {
                first = Some(k.to_vec());
            }
        })?;
        Ok(first)
    }

    /// The key following `prev` in iteration order, if any.
    fn nextkey(&self, prev: &[u8]) -> Result<Option<Vec<u8>>, DbError> {
        let mut found_prev = false;
        let mut next = None;
        self.for_each(&mut |k, _| {
            if next.is_some() {
                return;
            }
            if found_prev {
                next = Some(k.to_vec());
            } else if k == prev {
                found_prev = true;
            }
        })?;
        Ok(next)
    }
}

impl<S: Store + ?Sized> Cursor for S {}

#[cfg(test)]
mod cursor_tests {
    use super::*;

    #[test]
    fn firstkey_nextkey_walks_everything_once() {
        let mut s = MemStore::new();
        for i in 0..25u32 {
            s.store(format!("key{i:02}").as_bytes(), &[0]).unwrap();
        }
        let mut seen = std::collections::HashSet::new();
        let mut cur = s.firstkey().unwrap();
        while let Some(k) = cur {
            assert!(seen.insert(k.clone()), "duplicate {k:?}");
            cur = s.nextkey(&k).unwrap();
        }
        assert_eq!(seen.len(), 25);
    }

    #[test]
    fn empty_store_has_no_firstkey() {
        let s = MemStore::new();
        assert_eq!(s.firstkey().unwrap(), None);
    }

    #[test]
    fn nextkey_of_missing_key_is_none() {
        let mut s = MemStore::new();
        s.store(b"a", b"1").unwrap();
        assert_eq!(s.nextkey(b"zzz").unwrap(), None);
    }
}
