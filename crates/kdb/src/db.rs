//! The principal database: principal records over a [`Store`], with every
//! key encrypted in the master database key.
//!
//! The master key never appears in any record. Its correctness is verified
//! against a distinguished `K.M` principal whose "key" field is the master
//! key encrypted in itself — opening the database with the wrong master key
//! fails immediately instead of silently decrypting garbage.

use crate::principal::{PrincipalEntry, PrincipalEntryView, ATTR_DISABLED, NAME_SZ};
use crate::store::Store;
use crate::DbError;
use krb_crypto::{constant_time_eq, DesKey, Scheduled};

/// Name of the master-key verification principal.
pub const MASTER_NAME: &str = "K";
/// Instance of the master-key verification principal.
pub const MASTER_INSTANCE: &str = "M";

/// The Kerberos principal database.
pub struct PrincipalDb<S: Store> {
    store: S,
    master: Scheduled,
}

impl<S: Store> PrincipalDb<S> {
    /// Initialize a fresh database (the administrator's `kdb_init` step,
    /// paper §6.3). Fails if the store already holds a `K.M` entry.
    pub fn create(mut store: S, master_key: DesKey, now: u32) -> Result<Self, DbError> {
        let km_key = PrincipalEntry::db_key(MASTER_NAME, MASTER_INSTANCE);
        if store.fetch(&km_key)?.is_some() {
            return Err(DbError::AlreadyExists("K.M".into()));
        }
        let master = Scheduled::new(&master_key);
        let mut verifier = *master_key.as_bytes();
        master.encrypt_block(&mut verifier);
        let entry = PrincipalEntry {
            name: MASTER_NAME.into(),
            instance: MASTER_INSTANCE.into(),
            key_encrypted: verifier,
            key_version: 1,
            expiration: u32::MAX,
            max_life: 0,
            attributes: 0,
            mod_time: now,
            mod_by: "kdb_init.".into(),
        };
        store.store(&km_key, &entry.encode())?;
        Ok(PrincipalDb { store, master })
    }

    /// Open an existing database, verifying the master key against `K.M`.
    pub fn open(store: S, master_key: DesKey) -> Result<Self, DbError> {
        let km_key = PrincipalEntry::db_key(MASTER_NAME, MASTER_INSTANCE);
        let raw = store
            .fetch(&km_key)?
            .ok_or_else(|| DbError::NotFound("K.M".into()))?;
        let entry = PrincipalEntry::decode(&raw)?;
        let master = Scheduled::new(&master_key);
        let mut expect = *master_key.as_bytes();
        master.encrypt_block(&mut expect);
        if !constant_time_eq(&expect, &entry.key_encrypted) {
            return Err(DbError::WrongMasterKey);
        }
        Ok(PrincipalDb { store, master })
    }

    /// The master key this database was opened with (needed by `kprop` to
    /// key the dump checksum; paper §5.3).
    pub fn master_key(&self) -> &DesKey {
        self.master.key()
    }

    /// The precomputed master-key schedule, for callers doing bulk work in
    /// the master key (kprop dump sealing) through the `*_with` API.
    pub fn master_sched(&self) -> &Scheduled {
        &self.master
    }

    /// The backing store, read-only — for telemetry and structure
    /// inspection (`stats`, `pages`, `depth` on a [`HashStore`]).
    ///
    /// [`HashStore`]: crate::ndbm::HashStore
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Encrypt a principal key in the master key (single-block ECB).
    pub fn encrypt_key(&self, key: &DesKey) -> [u8; 8] {
        let mut block = *key.as_bytes();
        self.master.encrypt_block(&mut block);
        block
    }

    /// Decrypt a stored key field back to the principal's DES key.
    pub fn decrypt_key(&self, stored: &[u8; 8]) -> DesKey {
        let mut block = *stored;
        self.master.decrypt_block(&mut block);
        DesKey::from_bytes(block)
    }

    /// Register a new principal with the given plaintext key.
    #[allow(clippy::too_many_arguments)] // mirrors the historical kdb_edit field list
    pub fn add_principal(
        &mut self,
        name: &str,
        instance: &str,
        key: &DesKey,
        expiration: u32,
        max_life: u8,
        now: u32,
        mod_by: &str,
    ) -> Result<(), DbError> {
        PrincipalEntry::validate_name(name)?;
        PrincipalEntry::validate_instance(instance)?;
        let db_key = PrincipalEntry::db_key(name, instance);
        if self.store.fetch(&db_key)?.is_some() {
            return Err(DbError::AlreadyExists(format!("{name}.{instance}")));
        }
        let entry = PrincipalEntry {
            name: name.into(),
            instance: instance.into(),
            key_encrypted: self.encrypt_key(key),
            key_version: 1,
            expiration,
            max_life,
            attributes: 0,
            mod_time: now,
            mod_by: mod_by.into(),
        };
        self.store.store(&db_key, &entry.encode())
    }

    /// Register a batch of principals in one store pass — the
    /// million-principal bootstrap path. Goes through [`Store::bulk_load`],
    /// so the extendible-hash store pre-splits its directory instead of
    /// splitting one overflow per insert. Name components are validated and
    /// `K.M` is refused; duplicate `(name, instance)` pairs resolve
    /// last-write-wins and silently overwrite existing principals, so
    /// incremental administration should keep using [`Self::add_principal`],
    /// which refuses duplicates.
    pub fn bulk_register(
        &mut self,
        principals: &[(String, String, DesKey)],
        expiration: u32,
        max_life: u8,
        now: u32,
        mod_by: &str,
    ) -> Result<(), DbError> {
        let mut pairs = Vec::with_capacity(principals.len());
        for (name, instance, key) in principals {
            PrincipalEntry::validate_name(name)?;
            PrincipalEntry::validate_instance(instance)?;
            if name == MASTER_NAME && instance == MASTER_INSTANCE {
                return Err(DbError::AlreadyExists("K.M".into()));
            }
            let entry = PrincipalEntry {
                name: name.clone(),
                instance: instance.clone(),
                key_encrypted: self.encrypt_key(key),
                key_version: 1,
                expiration,
                max_life,
                attributes: 0,
                mod_time: now,
                mod_by: mod_by.into(),
            };
            pairs.push((PrincipalEntry::db_key(name, instance), entry.encode()));
        }
        self.store.bulk_load(pairs)
    }

    /// Fetch a principal's record (key still encrypted).
    pub fn get(&self, name: &str, instance: &str) -> Result<Option<PrincipalEntry>, DbError> {
        let raw = self.store.fetch(&PrincipalEntry::db_key(name, instance))?;
        raw.map(|r| PrincipalEntry::decode(&r)).transpose()
    }

    /// Fetch a principal's record and decrypt its key. Returns `None` for
    /// unknown principals; errors for disabled ones.
    pub fn get_with_key(
        &self,
        name: &str,
        instance: &str,
    ) -> Result<Option<(PrincipalEntry, DesKey)>, DbError> {
        match self.get(name, instance)? {
            None => Ok(None),
            Some(e) if e.attributes & ATTR_DISABLED != 0 => {
                Err(DbError::Disabled(format!("{name}.{instance}")))
            }
            Some(e) => {
                let k = self.decrypt_key(&e.key_encrypted);
                Ok(Some((e, k)))
            }
        }
    }

    /// Change a principal's key, bumping the key version (kpasswd path).
    pub fn change_key(
        &mut self,
        name: &str,
        instance: &str,
        new_key: &DesKey,
        now: u32,
        mod_by: &str,
    ) -> Result<(), DbError> {
        let db_key = PrincipalEntry::db_key(name, instance);
        let raw = self
            .store
            .fetch(&db_key)?
            .ok_or_else(|| DbError::NotFound(format!("{name}.{instance}")))?;
        let mut entry = PrincipalEntry::decode(&raw)?;
        entry.key_encrypted = self.encrypt_key(new_key);
        entry.key_version = entry.key_version.wrapping_add(1);
        entry.mod_time = now;
        entry.mod_by = mod_by.into();
        self.store.store(&db_key, &entry.encode())
    }

    /// Update an entry's attributes or limits in place.
    pub fn update_entry(&mut self, entry: &PrincipalEntry) -> Result<(), DbError> {
        let db_key = PrincipalEntry::db_key(&entry.name, &entry.instance);
        if self.store.fetch(&db_key)?.is_none() {
            return Err(DbError::NotFound(format!("{}.{}", entry.name, entry.instance)));
        }
        self.store.store(&db_key, &entry.encode())
    }

    /// Remove a principal.
    pub fn delete(&mut self, name: &str, instance: &str) -> Result<bool, DbError> {
        self.store.delete(&PrincipalEntry::db_key(name, instance))
    }

    /// Whether the principal exists.
    pub fn exists(&self, name: &str, instance: &str) -> Result<bool, DbError> {
        Ok(self.store.fetch(&PrincipalEntry::db_key(name, instance))?.is_some())
    }

    /// Number of records including `K.M`.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether only `K.M` (or nothing) is present.
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// Visit every principal record (including `K.M`), each read where the
    /// store keeps it; [`PrincipalEntryView::to_owned`] copies one out.
    pub fn for_each(&self, f: &mut dyn FnMut(&PrincipalEntryView<'_>)) -> Result<(), DbError> {
        let mut first_err = None;
        self.store.for_each(&mut |_, v| {
            if first_err.is_some() {
                return;
            }
            match PrincipalEntryView::decode(v) {
                Ok(e) => f(&e),
                Err(e) => first_err = Some(e),
            }
        })?;
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// An in-memory database holding every record, sharing the same master
    /// key ([`Store::to_mem`]): O(1) over a [`MemStore`], whose clone
    /// shares the whole tree, a record-by-record copy over any other
    /// store. This is the snapshot-build primitive for the concurrent KDC:
    /// readers serve from the immutable snapshot while the backing store
    /// (possibly file-backed) stays with the writer.
    ///
    /// [`MemStore`]: crate::store::MemStore
    pub fn snapshot_mem(&self) -> Result<PrincipalDb<crate::store::MemStore>, DbError> {
        Ok(PrincipalDb {
            store: self.store.to_mem()?,
            master: self.master.clone(),
        })
    }

    /// Flush the backing store.
    pub fn sync(&mut self) -> Result<(), DbError> {
        self.store.sync()
    }

    /// Access the backing store (used by dump/load and tests).
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }
}

impl PrincipalDb<crate::store::MemStore> {
    /// [`PrincipalDb::get`] without the copies: the `name.instance` key is
    /// built on the stack (on the heap only for components no registered
    /// principal can have), the record is found where the tree keeps it and
    /// read there. The KDC's request path looks principals up this way.
    pub fn get_ref(
        &self,
        name: &str,
        instance: &str,
    ) -> Result<Option<PrincipalEntryView<'_>>, DbError> {
        let mut stack = [0u8; 2 * NAME_SZ + 1];
        let spilled;
        let dot = name.len();
        let key = match stack.get_mut(..dot + 1 + instance.len()) {
            Some(key) => {
                key[..dot].copy_from_slice(name.as_bytes());
                key[dot] = b'.';
                key[dot + 1..].copy_from_slice(instance.as_bytes());
                &*key
            }
            None => {
                spilled = PrincipalEntry::db_key(name, instance);
                spilled.as_slice()
            }
        };
        self.store.find(key)?.map(PrincipalEntryView::decode).transpose()
    }


    /// An empty in-memory database sharing `master_key` — what a server
    /// with no earlier snapshot starts on when its store cannot be read:
    /// every lookup misses (no principal is served from possibly-corrupt
    /// records) and nothing panics.
    pub fn empty_mem(master_key: &DesKey) -> Self {
        PrincipalDb {
            store: crate::store::MemStore::new(),
            master: Scheduled::new(master_key),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use krb_crypto::string_to_key;

    fn db() -> PrincipalDb<MemStore> {
        let mk = string_to_key("master-key-password");
        PrincipalDb::create(MemStore::new(), mk, 1000).unwrap()
    }

    #[test]
    fn create_then_open_with_right_key() {
        let mk = string_to_key("master");
        let d = PrincipalDb::create(MemStore::new(), mk, 0).unwrap();
        let store = {
            // Extract the store by dumping entries into a fresh MemStore.
            let mut s = MemStore::new();
            d.store_ref_for_tests().for_each(&mut |k, v| {
                s.store(k, v).unwrap();
            }).unwrap();
            s
        };
        assert!(PrincipalDb::open(store.clone(), mk).is_ok());
        let wrong = string_to_key("not-the-master");
        assert!(matches!(
            PrincipalDb::open(store, wrong),
            Err(DbError::WrongMasterKey)
        ));
    }

    #[test]
    fn add_get_round_trip_decrypts_key() {
        let mut d = db();
        let user_key = string_to_key("users-password");
        d.add_principal("bcn", "", &user_key, u32::MAX, 96, 1000, "kadmin.")
            .unwrap();
        let (entry, key) = d.get_with_key("bcn", "").unwrap().unwrap();
        assert_eq!(entry.name, "bcn");
        assert_eq!(key.as_bytes(), user_key.as_bytes());
        // The stored field must NOT be the plaintext key.
        assert_ne!(&entry.key_encrypted, user_key.as_bytes());
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut d = db();
        let k = string_to_key("pw");
        d.add_principal("treese", "root", &k, u32::MAX, 96, 0, "kadmin.").unwrap();
        assert!(matches!(
            d.add_principal("treese", "root", &k, u32::MAX, 96, 0, "kadmin."),
            Err(DbError::AlreadyExists(_))
        ));
    }

    #[test]
    fn change_key_bumps_version() {
        let mut d = db();
        d.add_principal("jis", "", &string_to_key("old"), u32::MAX, 96, 0, "x.").unwrap();
        d.change_key("jis", "", &string_to_key("new"), 5, "jis.").unwrap();
        let (e, k) = d.get_with_key("jis", "").unwrap().unwrap();
        assert_eq!(e.key_version, 2);
        assert_eq!(k.as_bytes(), string_to_key("new").as_bytes());
        assert_eq!(e.mod_by, "jis.");
    }

    #[test]
    fn disabled_principal_is_refused() {
        let mut d = db();
        d.add_principal("evil", "", &string_to_key("pw"), u32::MAX, 96, 0, "x.").unwrap();
        let mut e = d.get("evil", "").unwrap().unwrap();
        e.attributes |= ATTR_DISABLED;
        d.update_entry(&e).unwrap();
        assert!(matches!(
            d.get_with_key("evil", ""),
            Err(DbError::Disabled(_))
        ));
    }

    #[test]
    fn unknown_principal_is_none() {
        let d = db();
        assert!(d.get_with_key("nobody", "").unwrap().is_none());
    }

    #[test]
    fn validates_components_on_add() {
        let mut d = db();
        let k = string_to_key("pw");
        assert!(d.add_principal("a.b", "", &k, 0, 0, 0, "x.").is_err());
        assert!(d.add_principal("ok", "bad@inst", &k, 0, 0, 0, "x.").is_err());
    }

    impl PrincipalDb<MemStore> {
        fn store_ref_for_tests(&self) -> &MemStore {
            &self.store
        }
    }
}
