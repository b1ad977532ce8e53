//! `ndbm` replacement: a file-backed extendible-hashing key/value store.
//!
//! Like the original `ndbm`, the store keeps two files: `<name>.pag` with
//! the hash bucket pages and `<name>.dir` with the directory. Each bucket
//! is one 4 KiB page; when a page overflows it is split and the directory
//! doubled as needed (classic extendible hashing). Also like `ndbm`, a
//! single record must fit in one page — ample for principal records.
//!
//! Durability model: bucket pages are written through on every mutation;
//! the directory is rewritten atomically (temp file + rename) on [`sync`]
//! (and by [`HashStore::close`]). A crash between mutation and sync can
//! lose directory growth but never corrupts the page file, because a
//! re-split on reopen is idempotent — the Kerberos master additionally
//! dumps the database hourly (paper §5.3), which is the real recovery
//! mechanism of the system.
//!
//! [`sync`]: Store::sync

use crate::store::{Record, Records, Store};
use crate::DbError;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Size of one bucket page.
pub const PAGE_SIZE: usize = 4096;
/// Bytes of bucket header before entry data.
const BUCKET_HDR: usize = 8;
/// Largest key+value a single record may occupy (ndbm-style limit).
pub const MAX_RECORD: usize = PAGE_SIZE - BUCKET_HDR - 4;
/// Upper bound on directory growth: 2^24 entries (16M buckets).
const MAX_GLOBAL_DEPTH: u8 = 24;
const DIR_MAGIC: &[u8; 8] = b"KRBNDBM1";

fn fnv1a(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One in-memory bucket page image.
#[derive(Clone)]
struct Page(Box<[u8; PAGE_SIZE]>);

impl Page {
    fn empty(local_depth: u8) -> Self {
        let mut p = Page(Box::new([0u8; PAGE_SIZE]));
        p.set_local_depth(local_depth);
        p
    }

    fn local_depth(&self) -> u8 {
        self.0[0]
    }
    fn set_local_depth(&mut self, d: u8) {
        self.0[0] = d;
    }
    fn nkeys(&self) -> usize {
        u16::from_be_bytes([self.0[2], self.0[3]]) as usize
    }
    fn set_nkeys(&mut self, n: usize) {
        self.0[2..4].copy_from_slice(&(n as u16).to_be_bytes());
    }
    fn used(&self) -> usize {
        u16::from_be_bytes([self.0[4], self.0[5]]) as usize
    }
    fn set_used(&mut self, n: usize) {
        self.0[4..6].copy_from_slice(&(n as u16).to_be_bytes());
    }

    /// Decode entry offsets: (entry_start, key_len, val_len). Every length
    /// is validated against the page bounds before use, so a corrupt or
    /// truncated page file surfaces as [`DbError::Corrupt`] instead of a
    /// panic — the KDC must keep answering other requests even if one
    /// bucket of the database is damaged.
    fn entries(&self) -> Result<Vec<(usize, usize, usize)>, DbError> {
        let data_end = BUCKET_HDR + self.used();
        if data_end > PAGE_SIZE {
            return Err(DbError::Corrupt("bucket used-bytes exceeds page".into()));
        }
        let mut out = Vec::with_capacity(self.nkeys());
        let mut off = BUCKET_HDR;
        for _ in 0..self.nkeys() {
            if off + 4 > data_end {
                return Err(DbError::Corrupt("bucket entry header truncated".into()));
            }
            let klen = u16::from_be_bytes([self.0[off], self.0[off + 1]]) as usize;
            let vlen = u16::from_be_bytes([self.0[off + 2], self.0[off + 3]]) as usize;
            if off + 4 + klen + vlen > data_end {
                return Err(DbError::Corrupt("bucket record overruns page".into()));
            }
            out.push((off, klen, vlen));
            off += 4 + klen + vlen;
        }
        Ok(out)
    }

    fn key_at(&self, (off, klen, _vlen): (usize, usize, usize)) -> &[u8] {
        &self.0[off + 4..off + 4 + klen]
    }
    fn val_at(&self, (off, klen, vlen): (usize, usize, usize)) -> &[u8] {
        &self.0[off + 4 + klen..off + 4 + klen + vlen]
    }

    fn find(&self, key: &[u8]) -> Result<Option<(usize, usize, usize)>, DbError> {
        Ok(self.entries()?.into_iter().find(|&e| self.key_at(e) == key))
    }

    fn free_space(&self) -> usize {
        PAGE_SIZE - BUCKET_HDR - self.used()
    }

    /// Append an entry; caller must have checked `free_space`.
    fn push(&mut self, key: &[u8], value: &[u8]) {
        let off = BUCKET_HDR + self.used();
        self.0[off..off + 2].copy_from_slice(&(key.len() as u16).to_be_bytes());
        self.0[off + 2..off + 4].copy_from_slice(&(value.len() as u16).to_be_bytes());
        self.0[off + 4..off + 4 + key.len()].copy_from_slice(key);
        self.0[off + 4 + key.len()..off + 4 + key.len() + value.len()].copy_from_slice(value);
        self.set_nkeys(self.nkeys() + 1);
        self.set_used(self.used() + 4 + key.len() + value.len());
    }

    /// Remove the entry at `entry`, compacting the data region.
    fn remove(&mut self, entry: (usize, usize, usize)) {
        let (off, klen, vlen) = entry;
        let entry_len = 4 + klen + vlen;
        let data_end = BUCKET_HDR + self.used();
        self.0.copy_within(off + entry_len..data_end, off);
        // Zero the now-unused tail so pages stay canonical on disk.
        self.0[data_end - entry_len..data_end].fill(0);
        self.set_nkeys(self.nkeys() - 1);
        self.set_used(self.used() - entry_len);
    }

    /// Drain all entries as owned pairs (used when splitting).
    fn drain_all(&mut self) -> Result<Vec<(Vec<u8>, Vec<u8>)>, DbError> {
        let pairs = self
            .entries()?
            .into_iter()
            .map(|e| (self.key_at(e).to_vec(), self.val_at(e).to_vec()))
            .collect();
        let depth = self.local_depth();
        *self = Page::empty(depth);
        Ok(pairs)
    }
}

/// Split/growth accounting for one store, for benches and telemetry.
///
/// `splits` and `dir_doubles` count events since *open* (they are not
/// persisted in the directory file); `pages`, `depth` and `records`
/// describe the current on-disk structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Live bucket pages.
    pub pages: u32,
    /// Global directory depth (directory holds `2^depth` slots).
    pub depth: u8,
    /// Live records.
    pub records: u64,
    /// Bucket splits performed since open (incremental or bulk).
    pub splits: u64,
    /// Directory doublings performed since open.
    pub dir_doubles: u64,
}

/// File-backed extendible-hash store (the `ndbm` role).
pub struct HashStore {
    pag: File,
    pag_path: PathBuf,
    dir_path: PathBuf,
    /// Directory: bucket-page number per hash prefix; length `2^global_depth`.
    dir: Vec<u32>,
    global_depth: u8,
    page_count: u32,
    record_count: u64,
    /// Bucket splits since open (session counter, not persisted).
    splits: u64,
    /// Directory doublings since open (session counter, not persisted).
    dir_doubles: u64,
    /// Write-through page cache (all pages touched since open).
    cache: std::collections::HashMap<u32, Page>,
}

impl HashStore {
    /// Open (or create) the store rooted at `path` (files `path.pag`, `path.dir`).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, DbError> {
        let base = path.as_ref();
        let pag_path = base.with_extension("pag");
        let dir_path = base.with_extension("dir");
        let pag = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&pag_path)
            .map_err(DbError::io)?;
        let mut store = HashStore {
            pag,
            pag_path,
            dir_path,
            dir: vec![0],
            global_depth: 0,
            page_count: 1,
            record_count: 0,
            splits: 0,
            dir_doubles: 0,
            cache: std::collections::HashMap::new(),
        };
        if store.dir_path.exists() {
            store.load_dir()?;
        } else {
            // Fresh store: one empty bucket of depth 0.
            store.write_page(0, &Page::empty(0))?;
            store.sync_dir()?;
        }
        Ok(store)
    }

    fn load_dir(&mut self) -> Result<(), DbError> {
        let mut buf = Vec::new();
        File::open(&self.dir_path)
            .map_err(DbError::io)?
            .read_to_end(&mut buf)
            .map_err(DbError::io)?;
        if buf.len() < 8 + 1 + 4 + 8 || &buf[..8] != DIR_MAGIC {
            return Err(DbError::Corrupt("bad directory magic".into()));
        }
        let short = || DbError::Corrupt("directory header truncated".into());
        self.global_depth = buf[8];
        if self.global_depth > MAX_GLOBAL_DEPTH {
            return Err(DbError::Corrupt("directory depth out of range".into()));
        }
        self.page_count = u32::from_be_bytes(buf[9..13].try_into().map_err(|_| short())?);
        self.record_count = u64::from_be_bytes(buf[13..21].try_into().map_err(|_| short())?);
        let n = 1usize << self.global_depth;
        if buf.len() != 21 + n * 4 {
            return Err(DbError::Corrupt("directory length mismatch".into()));
        }
        self.dir = buf[21..]
            .chunks_exact(4)
            .map(|c| u32::from_be_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        Ok(())
    }

    fn sync_dir(&mut self) -> Result<(), DbError> {
        let mut buf = Vec::with_capacity(21 + self.dir.len() * 4);
        buf.extend_from_slice(DIR_MAGIC);
        buf.push(self.global_depth);
        buf.extend_from_slice(&self.page_count.to_be_bytes());
        buf.extend_from_slice(&self.record_count.to_be_bytes());
        for &p in &self.dir {
            buf.extend_from_slice(&p.to_be_bytes());
        }
        let tmp = self.dir_path.with_extension("dir.tmp");
        {
            let mut f = File::create(&tmp).map_err(DbError::io)?;
            f.write_all(&buf).map_err(DbError::io)?;
            f.sync_all().map_err(DbError::io)?;
        }
        std::fs::rename(&tmp, &self.dir_path).map_err(DbError::io)?;
        Ok(())
    }

    fn read_page(&mut self, page_no: u32) -> Result<&mut Page, DbError> {
        match self.cache.entry(page_no) {
            std::collections::hash_map::Entry::Occupied(e) => Ok(e.into_mut()),
            std::collections::hash_map::Entry::Vacant(slot) => {
                let mut raw = Box::new([0u8; PAGE_SIZE]);
                self.pag
                    .seek(SeekFrom::Start(u64::from(page_no) * PAGE_SIZE as u64))
                    .map_err(DbError::io)?;
                self.pag.read_exact(&mut raw[..]).map_err(DbError::io)?;
                Ok(slot.insert(Page(raw)))
            }
        }
    }

    fn write_page(&mut self, page_no: u32, page: &Page) -> Result<(), DbError> {
        self.pag
            .seek(SeekFrom::Start(u64::from(page_no) * PAGE_SIZE as u64))
            .map_err(DbError::io)?;
        self.pag.write_all(&page.0[..]).map_err(DbError::io)?;
        self.cache.insert(page_no, page.clone());
        Ok(())
    }

    fn dir_index(&self, hash: u64) -> usize {
        (hash & ((1u64 << self.global_depth) - 1)) as usize
    }

    /// Split the bucket at `page_no`, doubling the directory if required.
    fn split(&mut self, page_no: u32) -> Result<(), DbError> {
        let (local, pairs) = {
            let page = self.read_page(page_no)?;
            (page.local_depth(), page.drain_all()?)
        };
        if local == self.global_depth {
            if self.global_depth >= MAX_GLOBAL_DEPTH {
                return Err(DbError::Full);
            }
            let old = self.dir.clone();
            self.dir = old.iter().chain(old.iter()).copied().collect();
            self.global_depth += 1;
            self.dir_doubles += 1;
        }
        let new_page_no = self.page_count;
        self.page_count += 1;
        self.splits += 1;
        let mut old_page = Page::empty(local + 1);
        let mut new_page = Page::empty(local + 1);
        for (k, v) in &pairs {
            let h = fnv1a(k);
            if (h >> local) & 1 == 1 {
                new_page.push(k, v);
            } else {
                old_page.push(k, v);
            }
        }
        // Redirect the directory entries whose split bit is set.
        for (j, slot) in self.dir.iter_mut().enumerate() {
            if *slot == page_no && (j >> local) & 1 == 1 {
                *slot = new_page_no;
            }
        }
        self.write_page(page_no, &old_page)?;
        self.write_page(new_page_no, &new_page)?;
        Ok(())
    }

    /// Flush the directory and page file, leaving both files consistent.
    pub fn close(mut self) -> Result<(), DbError> {
        self.sync()
    }

    /// Paths of the underlying files (for propagation and tests).
    pub fn paths(&self) -> (&Path, &Path) {
        (&self.pag_path, &self.dir_path)
    }

    /// Current number of bucket pages (exposed for inspection/benches).
    pub fn pages(&self) -> u32 {
        self.page_count
    }

    /// Current global directory depth.
    pub fn depth(&self) -> u8 {
        self.global_depth
    }

    /// Structure and split accounting (see [`StoreStats`]).
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            pages: self.page_count,
            depth: self.global_depth,
            records: self.record_count,
            splits: self.splits,
            dir_doubles: self.dir_doubles,
        }
    }

    /// Drop the write-through page cache, forcing subsequent reads back to
    /// the page file — the "cold" starting state for lookup benches.
    pub fn drop_cache(&mut self) {
        self.cache.clear();
    }

    /// Read every bucket page into the cache (the "warm" state for benches).
    pub fn warm_cache(&mut self) -> Result<(), DbError> {
        for page_no in 0..self.page_count {
            self.read_page(page_no)?;
        }
        Ok(())
    }

    /// Batch insert with directory pre-splitting.
    ///
    /// Instead of inserting one record at a time — each overflow splitting
    /// one bucket and rewriting two pages through the write-through cache —
    /// this plans the final extendible-hash structure in memory (splitting
    /// logical buckets until every one fits a page, doubling a logical
    /// directory exactly as the incremental path would) and then writes the
    /// page file once, front to back. Existing records are folded in, and
    /// duplicate keys resolve last-write-wins, so the result is
    /// lookup-equivalent to calling [`Store::store`] per pair in order.
    /// The page cache is left empty: a bulk-loaded store starts cold.
    fn bulk_load_presplit(&mut self, new_records: Records) -> Result<(), DbError> {
        for r in &new_records {
            if r.key().len() + r.value().len() > MAX_RECORD {
                return Err(DbError::RecordTooLarge(r.key().len() + r.value().len()));
            }
        }
        // Existing records first, then the batch: later writes win.
        let mut pairs: Records = Vec::with_capacity(self.record_count as usize + new_records.len());
        self.for_each(&mut |k, v| pairs.push(Record::new(k, v)))?;
        pairs.extend(new_records);
        // Stable-sort reversed input by key: the first element of each
        // equal-key run is the latest write; dedup_by keeps it.
        pairs.reverse();
        pairs.sort_by(|a, b| a.key().cmp(b.key()));
        pairs.dedup_by(|cur, prev| cur.key() == prev.key());

        let hashes: Vec<u64> = pairs.iter().map(|r| fnv1a(r.key())).collect();
        let entry_size = |i: usize| 4 + pairs[i].key().len() + pairs[i].value().len();

        // Logical buckets: (local_depth, used bytes, member indices).
        struct Bucket {
            depth: u8,
            used: usize,
            items: Vec<usize>,
        }
        let mut buckets = vec![Bucket {
            depth: 0,
            used: (0..pairs.len()).map(entry_size).sum(),
            items: (0..pairs.len()).collect(),
        }];
        let mut dir: Vec<u32> = vec![0];
        let mut global: u8 = 0;
        let mut work: Vec<u32> = vec![0];
        while let Some(b) = work.pop() {
            let bi = b as usize;
            if BUCKET_HDR + buckets[bi].used <= PAGE_SIZE {
                continue;
            }
            let local = buckets[bi].depth;
            if local == global {
                if global >= MAX_GLOBAL_DEPTH {
                    return Err(DbError::Full);
                }
                let old = dir.clone();
                dir = old.iter().chain(old.iter()).copied().collect();
                global += 1;
                self.dir_doubles += 1;
            }
            let new_no = buckets.len() as u32;
            let items = std::mem::take(&mut buckets[bi].items);
            let (mut stay, mut go) = (Vec::new(), Vec::new());
            let (mut stay_used, mut go_used) = (0usize, 0usize);
            for i in items {
                if (hashes[i] >> local) & 1 == 1 {
                    go_used += entry_size(i);
                    go.push(i);
                } else {
                    stay_used += entry_size(i);
                    stay.push(i);
                }
            }
            buckets[bi] = Bucket { depth: local + 1, used: stay_used, items: stay };
            buckets.push(Bucket { depth: local + 1, used: go_used, items: go });
            for (j, slot) in dir.iter_mut().enumerate() {
                if *slot == b && (j >> local) & 1 == 1 {
                    *slot = new_no;
                }
            }
            self.splits += 1;
            work.push(b);
            work.push(new_no);
        }

        // One sequential pass over the page file; bucket index == page number.
        self.pag.seek(SeekFrom::Start(0)).map_err(DbError::io)?;
        for bucket in &buckets {
            let mut page = Page::empty(bucket.depth);
            for &i in &bucket.items {
                page.push(pairs[i].key(), pairs[i].value());
            }
            self.pag.write_all(&page.0[..]).map_err(DbError::io)?;
        }
        let len = buckets.len() as u64 * PAGE_SIZE as u64;
        self.pag.set_len(len).map_err(DbError::io)?;
        self.dir = dir;
        self.global_depth = global;
        self.page_count = buckets.len() as u32;
        self.record_count = pairs.len() as u64;
        self.cache.clear();
        self.sync()
    }
}

impl Store for HashStore {
    fn fetch(&self, key: &[u8]) -> Result<Option<Vec<u8>>, DbError> {
        // `fetch` takes &self; go through an interior read without mutating
        // the cache by reading the page directly if it is not cached.
        let h = fnv1a(key);
        let page_no = self.dir[self.dir_index(h)];
        if let Some(page) = self.cache.get(&page_no) {
            return Ok(page.find(key)?.map(|e| page.val_at(e).to_vec()));
        }
        let mut raw = Box::new([0u8; PAGE_SIZE]);
        let mut f = File::open(&self.pag_path).map_err(DbError::io)?;
        f.seek(SeekFrom::Start(u64::from(page_no) * PAGE_SIZE as u64))
            .map_err(DbError::io)?;
        f.read_exact(&mut raw[..]).map_err(DbError::io)?;
        let page = Page(raw);
        Ok(page.find(key)?.map(|e| page.val_at(e).to_vec()))
    }

    fn store(&mut self, key: &[u8], value: &[u8]) -> Result<(), DbError> {
        if key.len() + value.len() > MAX_RECORD {
            return Err(DbError::RecordTooLarge(key.len() + value.len()));
        }
        let h = fnv1a(key);
        loop {
            let page_no = self.dir[self.dir_index(h)];
            let page = self.read_page(page_no)?;
            let mut is_new = true;
            if let Some(e) = page.find(key)? {
                page.remove(e);
                is_new = false;
            }
            if page.free_space() >= 4 + key.len() + value.len() {
                page.push(key, value);
                let snapshot = page.clone();
                self.write_page(page_no, &snapshot)?;
                if is_new {
                    self.record_count += 1;
                }
                return Ok(());
            }
            // Didn't fit: if we removed an old value, it is re-inserted by
            // the retry after the split (it lives in `pairs` drained below).
            if !is_new {
                // Put the old entry count right: the removed value is gone;
                // re-adding below will count as new unless we adjust here.
                self.record_count -= 1;
            }
            // Persist the removal before splitting so the split sees it.
            let snapshot = self.read_page(page_no)?.clone();
            self.write_page(page_no, &snapshot)?;
            self.split(page_no)?;
        }
    }

    fn delete(&mut self, key: &[u8]) -> Result<bool, DbError> {
        let h = fnv1a(key);
        let page_no = self.dir[self.dir_index(h)];
        let page = self.read_page(page_no)?;
        match page.find(key)? {
            Some(e) => {
                page.remove(e);
                let snapshot = page.clone();
                self.write_page(page_no, &snapshot)?;
                self.record_count -= 1;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn len(&self) -> usize {
        self.record_count as usize
    }

    fn for_each(&self, f: &mut dyn FnMut(&[u8], &[u8])) -> Result<(), DbError> {
        // Every allocated page is exactly one live bucket, so scanning the
        // page range visits each record once.
        let mut file = File::open(&self.pag_path).map_err(DbError::io)?;
        for page_no in 0..self.page_count {
            let page = if let Some(p) = self.cache.get(&page_no) {
                p.clone()
            } else {
                let mut raw = Box::new([0u8; PAGE_SIZE]);
                file.seek(SeekFrom::Start(u64::from(page_no) * PAGE_SIZE as u64))
                    .map_err(DbError::io)?;
                file.read_exact(&mut raw[..]).map_err(DbError::io)?;
                Page(raw)
            };
            for e in page.entries()? {
                f(page.key_at(e), page.val_at(e));
            }
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<(), DbError> {
        self.pag.sync_all().map_err(DbError::io)?;
        self.sync_dir()
    }

    fn bulk_load<R: Into<Record>>(&mut self, records: Vec<R>) -> Result<(), DbError> {
        self.bulk_load_presplit(records.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("krb-kdb-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(dir.with_extension("pag"));
        let _ = std::fs::remove_file(dir.with_extension("dir"));
        dir
    }

    #[test]
    fn crud_round_trip() {
        let mut s = HashStore::open(tmp("crud")).unwrap();
        s.store(b"alpha", b"1").unwrap();
        s.store(b"beta", b"2").unwrap();
        assert_eq!(s.fetch(b"alpha").unwrap().as_deref(), Some(&b"1"[..]));
        assert_eq!(s.fetch(b"gamma").unwrap(), None);
        s.store(b"alpha", b"one").unwrap();
        assert_eq!(s.fetch(b"alpha").unwrap().as_deref(), Some(&b"one"[..]));
        assert_eq!(s.len(), 2);
        assert!(s.delete(b"alpha").unwrap());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn splits_and_directory_growth() {
        let mut s = HashStore::open(tmp("split")).unwrap();
        // Values sized to force many splits.
        for i in 0u32..2000 {
            let key = format!("principal-{i}");
            let val = vec![i as u8; 100];
            s.store(key.as_bytes(), &val).unwrap();
        }
        assert!(s.pages() > 1, "store must have split");
        assert!(s.depth() > 0);
        for i in 0u32..2000 {
            let key = format!("principal-{i}");
            assert_eq!(
                s.fetch(key.as_bytes()).unwrap().as_deref(),
                Some(&vec![i as u8; 100][..]),
                "key {i}"
            );
        }
        assert_eq!(s.len(), 2000);
    }

    #[test]
    fn persistence_across_reopen() {
        let path = tmp("persist");
        {
            let mut s = HashStore::open(&path).unwrap();
            for i in 0u32..500 {
                s.store(format!("k{i}").as_bytes(), format!("v{i}").as_bytes())
                    .unwrap();
            }
            s.sync().unwrap();
        }
        let s = HashStore::open(&path).unwrap();
        assert_eq!(s.len(), 500);
        for i in 0u32..500 {
            assert_eq!(
                s.fetch(format!("k{i}").as_bytes()).unwrap(),
                Some(format!("v{i}").into_bytes())
            );
        }
    }

    #[test]
    fn rejects_oversized_records() {
        let mut s = HashStore::open(tmp("big")).unwrap();
        let big = vec![0u8; MAX_RECORD + 1];
        assert!(matches!(
            s.store(b"", &big),
            Err(DbError::RecordTooLarge(_))
        ));
    }

    #[test]
    fn for_each_visits_every_record_once() {
        let mut s = HashStore::open(tmp("scan")).unwrap();
        for i in 0u32..300 {
            s.store(format!("key{i}").as_bytes(), &i.to_be_bytes()).unwrap();
        }
        let mut seen = std::collections::HashSet::new();
        s.for_each(&mut |k, _| {
            assert!(seen.insert(k.to_vec()), "duplicate {k:?}");
        })
        .unwrap();
        assert_eq!(seen.len(), 300);
    }

    #[test]
    fn overwrite_larger_value_forcing_split() {
        let mut s = HashStore::open(tmp("grow")).unwrap();
        for i in 0u32..30 {
            s.store(format!("k{i}").as_bytes(), &[0u8; 64]).unwrap();
        }
        // Grow one value past what its bucket can absorb.
        s.store(b"k7", &[1u8; 3000]).unwrap();
        assert_eq!(s.fetch(b"k7").unwrap().unwrap().len(), 3000);
        assert_eq!(s.len(), 30);
    }

    #[test]
    fn corrupt_page_is_an_error_not_a_panic() {
        let path = tmp("corrupt");
        {
            let mut s = HashStore::open(&path).unwrap();
            s.store(b"victim", b"record").unwrap();
            s.sync().unwrap();
        }
        // Smash the first entry's key length so it runs off the page.
        {
            let mut f = OpenOptions::new()
                .write(true)
                .open(path.with_extension("pag"))
                .unwrap();
            f.seek(SeekFrom::Start(BUCKET_HDR as u64)).unwrap();
            f.write_all(&[0xFF, 0xFF]).unwrap();
        }
        let s = HashStore::open(&path).unwrap();
        assert!(matches!(s.fetch(b"victim"), Err(DbError::Corrupt(_))));
    }

    #[test]
    fn truncated_directory_is_an_error_not_a_panic() {
        let path = tmp("shortdir");
        {
            let mut s = HashStore::open(&path).unwrap();
            s.store(b"k", b"v").unwrap();
            s.sync().unwrap();
        }
        let dir = path.with_extension("dir");
        let bytes = std::fs::read(&dir).unwrap();
        std::fs::write(&dir, &bytes[..bytes.len() - 1]).unwrap();
        assert!(matches!(
            HashStore::open(&path),
            Err(DbError::Corrupt(_))
        ));
    }

    #[test]
    fn bulk_load_matches_sequential_lookups() {
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0u32..2000)
            .map(|i| (format!("principal-{i}").into_bytes(), vec![i as u8; 100]))
            .collect();
        let mut seq = HashStore::open(tmp("bulkseq")).unwrap();
        for (k, v) in &pairs {
            seq.store(k, v).unwrap();
        }
        let mut bulk = HashStore::open(tmp("bulkload")).unwrap();
        bulk.bulk_load(pairs.clone()).unwrap();
        assert_eq!(bulk.len(), seq.len());
        for (k, _) in &pairs {
            assert_eq!(bulk.fetch(k).unwrap(), seq.fetch(k).unwrap());
        }
        // Final extendible-hash structure is determined by the key set, so
        // both paths must agree on depth and page count exactly.
        assert_eq!(bulk.depth(), seq.depth());
        assert_eq!(bulk.pages(), seq.pages());
        assert_eq!(bulk.stats().splits, seq.stats().splits);
    }

    #[test]
    fn bulk_load_persists_across_reopen() {
        let path = tmp("bulkpersist");
        {
            let mut s = HashStore::open(&path).unwrap();
            s.bulk_load(
                (0u32..1500)
                    .map(|i| (format!("k{i}").into_bytes(), format!("v{i}").into_bytes()))
                    .collect(),
            )
            .unwrap();
        }
        let s = HashStore::open(&path).unwrap();
        assert_eq!(s.len(), 1500);
        for i in 0u32..1500 {
            assert_eq!(
                s.fetch(format!("k{i}").as_bytes()).unwrap(),
                Some(format!("v{i}").into_bytes()),
                "key {i}"
            );
        }
    }

    #[test]
    fn bulk_load_folds_in_existing_records_and_dedups_last_wins() {
        let mut s = HashStore::open(tmp("bulkmerge")).unwrap();
        s.store(b"existing", b"old").unwrap();
        s.store(b"kept", b"keep").unwrap();
        s.bulk_load(vec![
            (b"existing".to_vec(), b"new".to_vec()),
            (b"dup".to_vec(), b"first".to_vec()),
            (b"dup".to_vec(), b"last".to_vec()),
        ])
        .unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.fetch(b"existing").unwrap().as_deref(), Some(&b"new"[..]));
        assert_eq!(s.fetch(b"kept").unwrap().as_deref(), Some(&b"keep"[..]));
        assert_eq!(s.fetch(b"dup").unwrap().as_deref(), Some(&b"last"[..]));
    }

    #[test]
    fn bulk_load_rejects_oversized_records() {
        let mut s = HashStore::open(tmp("bulkbig")).unwrap();
        let big = vec![0u8; MAX_RECORD + 1];
        assert!(matches!(
            s.bulk_load(vec![(b"k".to_vec(), big)]),
            Err(DbError::RecordTooLarge(_))
        ));
        // The failed load must not have disturbed the store.
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn bulk_load_shrinks_page_file_of_previously_larger_store() {
        let path = tmp("bulkshrink");
        let mut s = HashStore::open(&path).unwrap();
        for i in 0u32..2000 {
            s.store(format!("grow{i}").as_bytes(), &[7u8; 100]).unwrap();
        }
        let grown_pages = s.pages();
        assert!(grown_pages > 1);
        for i in 0u32..2000 {
            s.delete(format!("grow{i}").as_bytes()).unwrap();
        }
        s.bulk_load(vec![(b"only".to_vec(), b"one".to_vec())]).unwrap();
        assert!(s.pages() < grown_pages, "bulk load must rebuild compactly");
        assert_eq!(s.fetch(b"only").unwrap().as_deref(), Some(&b"one"[..]));
        // for_each over the rebuilt (truncated) page range still works.
        let mut n = 0;
        s.for_each(&mut |_, _| n += 1).unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn stats_track_splits_and_doubles() {
        let mut s = HashStore::open(tmp("stats")).unwrap();
        assert_eq!(s.stats().splits, 0);
        for i in 0u32..2000 {
            s.store(format!("p{i}").as_bytes(), &[0u8; 100]).unwrap();
        }
        let st = s.stats();
        assert_eq!(st.pages, s.pages());
        assert_eq!(st.depth, s.depth());
        assert_eq!(st.records, 2000);
        assert_eq!(st.splits, u64::from(st.pages) - 1, "each split adds one page");
        assert!(st.dir_doubles >= u64::from(st.depth), "doubles reach final depth");
    }

    #[test]
    fn cold_and_warm_cache_agree() {
        let mut s = HashStore::open(tmp("coldwarm")).unwrap();
        s.bulk_load(
            (0u32..500)
                .map(|i| (format!("k{i}").into_bytes(), format!("v{i}").into_bytes()))
                .collect(),
        )
        .unwrap();
        // Bulk-loaded store starts cold; warm it and re-check every key.
        let cold: Vec<_> = (0..500u32)
            .map(|i| s.fetch(format!("k{i}").as_bytes()).unwrap())
            .collect();
        s.warm_cache().unwrap();
        let warm: Vec<_> = (0..500u32)
            .map(|i| s.fetch(format!("k{i}").as_bytes()).unwrap())
            .collect();
        assert_eq!(cold, warm);
        s.drop_cache();
        assert_eq!(s.fetch(b"k42").unwrap(), Some(b"v42".to_vec()));
    }

    #[test]
    fn delete_then_reinsert() {
        let mut s = HashStore::open(tmp("delre")).unwrap();
        s.store(b"x", b"1").unwrap();
        assert!(s.delete(b"x").unwrap());
        assert_eq!(s.len(), 0);
        s.store(b"x", b"2").unwrap();
        assert_eq!(s.fetch(b"x").unwrap().as_deref(), Some(&b"2"[..]));
        assert_eq!(s.len(), 1);
    }
}
