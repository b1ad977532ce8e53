//! The KDC's read snapshots: a write or an install swaps in exactly the
//! database a from-scratch rebuild would hold, a snapshot taken earlier
//! never changes, and a store that cannot be read back leaves the last
//! good snapshot serving (never an empty realm).

use kerberos::{build_as_req, read_as_reply_with_password, ErrorCode, Principal};
use krb_crypto::string_to_key;
use krb_kdb::{dump, DbError, MemStore, PrincipalDb, PrincipalEntry, Store, ATTR_DISABLED};
use krb_kdc::{fixed_clock, Kdc, KdcRole, RealmConfig};
use krb_mon::{HealthSpec, MonState};
use krb_telemetry::Journal;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const REALM: &str = "ATHENA.MIT.EDU";
const NOW: u32 = 600_000_000;
const WS: [u8; 4] = [18, 72, 0, 5];

/// A realm of `krbtgt` plus `users` principals `u000`, `u001`, … whose
/// passwords are `pw-<salt>-<i>`.
fn realm<S: Store>(store: S, users: u32, salt: u32) -> PrincipalDb<S> {
    let mut db = PrincipalDb::create(store, string_to_key("mk"), NOW).unwrap();
    db.add_principal("krbtgt", REALM, &string_to_key("tgs"), NOW * 2, 96, NOW, "i.").unwrap();
    for i in 0..users {
        let key = string_to_key(&format!("pw-{salt}-{i}"));
        db.add_principal(&user(i), "", &key, NOW * 2, 96, NOW, "i.").unwrap();
    }
    db
}

fn user(i: u32) -> String {
    format!("u{i:03}")
}

// ---------------------------------------------------------------------------
// Writes and installs against a from-scratch rebuild
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Add(u32),
    ChangeKey(u32, u32),
    Disable(u32),
    Delete(u32),
    /// `install_db` of a fresh realm with this many users and this salt.
    Install(u32, u32),
}

/// Users 0..300 exist at the start; 300..340 only once added.
fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (280u32..340).prop_map(Op::Add),
        6 => (0u32..340, any::<u32>()).prop_map(|(i, k)| Op::ChangeKey(i, k)),
        2 => (0u32..340).prop_map(Op::Disable),
        6 => (0u32..340).prop_map(Op::Delete),
        1 => (250u32..320, 1u32..4).prop_map(|(n, salt)| Op::Install(n, salt)),
    ]
}

/// One administrative write; the result is part of what must agree.
fn write(db: &mut PrincipalDb<MemStore>, op: &Op, now: u32) -> Result<bool, DbError> {
    match op {
        Op::Add(i) => db
            .add_principal(&user(*i), "", &string_to_key("added"), NOW * 2, 96, now, "adm.")
            .map(|()| true),
        Op::ChangeKey(i, k) => db
            .change_key(&user(*i), "", &string_to_key(&format!("k{k}")), now, "adm.")
            .map(|()| true),
        Op::Disable(i) => match db.get(&user(*i), "")? {
            Some(mut e) => {
                e.attributes |= ATTR_DISABLED;
                db.update_entry(&e).map(|()| true)
            }
            None => Ok(false),
        },
        Op::Delete(i) => db.delete(&user(*i), ""),
        Op::Install(..) => unreachable!("installs replace the database, they do not write to it"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_interleaving_of_writes_and_installs_equals_a_rebuild(
        ops in proptest::collection::vec(arb_op(), 1..80),
    ) {
        let kdc = Kdc::new(
            realm(MemStore::new(), 300, 0),
            RealmConfig::new(REALM),
            fixed_clock(NOW),
            KdcRole::Master,
            1,
        );
        // Built by the same operations and never snapshotted: no node of
        // it is ever shared, so every write to it happens in place.
        let mut rebuilt = realm(MemStore::new(), 300, 0);
        let mut held = Vec::new();
        for (step, op) in ops.iter().enumerate() {
            let before = kdc.snapshot();
            let before_text = dump::dump(before.db()).unwrap();
            let now = NOW + step as u32;
            match op {
                Op::Install(users, salt) => {
                    kdc.install_db(realm(MemStore::new(), *users, *salt));
                    rebuilt = realm(MemStore::new(), *users, *salt);
                }
                _ => {
                    let served = kdc.with_db_mut(|db| write(db, op, now)).unwrap();
                    prop_assert_eq!(served, write(&mut rebuilt, op, now));
                }
            }
            prop_assert_eq!(
                dump::dump(kdc.snapshot().db()).unwrap(),
                dump::dump(&rebuilt).unwrap(),
                "after step {} ({:?})", step, op
            );
            prop_assert_eq!(&dump::dump(before.db()).unwrap(), &before_text, "pre-write view moved");
            if let Op::ChangeKey(i, _) | Op::Delete(i) | Op::Disable(i) = op {
                // The record itself, not only the dump line: the old
                // snapshot still decrypts the pre-write key.
                let key = PrincipalEntry::db_key(&user(*i), "");
                let was = dump::parse(&before_text).unwrap().into_iter().find(|r| r.key() == key);
                let was = was.map(|r| PrincipalEntry::decode(r.value()).unwrap());
                prop_assert_eq!(before.db().get(&user(*i), "").unwrap(), was);
            }
            if step % 8 == 0 {
                held.push((before, before_text));
            }
        }
        for (snapshot, text) in &held {
            prop_assert_eq!(&dump::dump(snapshot.db()).unwrap(), text);
        }
    }
}

// ---------------------------------------------------------------------------
// A store that fails to read back
// ---------------------------------------------------------------------------

/// A store whose full scans (what a snapshot of a non-`MemStore` is built
/// from) fail while `broken` is set. Point reads and writes keep working.
struct FlakyStore {
    inner: MemStore,
    broken: Arc<AtomicBool>,
}

impl Store for FlakyStore {
    fn fetch(&self, key: &[u8]) -> Result<Option<Vec<u8>>, DbError> {
        self.inner.fetch(key)
    }
    fn store(&mut self, key: &[u8], value: &[u8]) -> Result<(), DbError> {
        self.inner.store(key, value)
    }
    fn delete(&mut self, key: &[u8]) -> Result<bool, DbError> {
        self.inner.delete(key)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn for_each(&self, f: &mut dyn FnMut(&[u8], &[u8])) -> Result<(), DbError> {
        if self.broken.load(Ordering::SeqCst) {
            return Err(DbError::Io("injected read failure".into()));
        }
        self.inner.for_each(f)
    }
    fn sync(&mut self) -> Result<(), DbError> {
        Ok(())
    }
}

fn flaky_realm(users: u32, salt: u32, broken: &Arc<AtomicBool>) -> PrincipalDb<FlakyStore> {
    realm(FlakyStore { inner: MemStore::new(), broken: Arc::clone(broken) }, users, salt)
}

/// `Ok` when `password` opens the AS reply for user `i`.
fn login(kdc: &Kdc<FlakyStore>, i: u32, password: &str) -> Result<(), ErrorCode> {
    let client = Principal::parse(&user(i), REALM).unwrap();
    let tgs = Principal::tgs(REALM, REALM);
    let reply = kdc.handle(&build_as_req(&client, &tgs, 96, NOW), WS);
    read_as_reply_with_password(&reply, password, NOW).map(|_| ())
}

fn failures(kdc: &Kdc<FlakyStore>) -> u64 {
    kdc.telemetry().counter_value("kdc_snapshot_failures_total")
}

/// The `kdc` verdict a monitor reading this KDC's registry reports.
fn kdc_health(kdc: &Kdc<FlakyStore>) -> String {
    let state = MonState::new("kdc", kdc.telemetry(), Journal::shared()).with_health(HealthSpec::kdc());
    state.health().components[0].state.clone()
}

fn swaps(kdc: &Kdc<FlakyStore>) -> u64 {
    kdc.telemetry().counter_value("kdc_store_swaps_total")
}

#[test]
fn a_failed_write_snapshot_keeps_the_last_good_realm_serving() {
    let broken = Arc::new(AtomicBool::new(false));
    let kdc = Kdc::new(
        flaky_realm(3, 0, &broken),
        RealmConfig::new(REALM),
        fixed_clock(NOW),
        KdcRole::Master,
        1,
    );
    assert_eq!(login(&kdc, 1, "pw-0-1"), Ok(()));

    broken.store(true, Ordering::SeqCst);
    kdc.with_db_mut(|db| db.change_key(&user(2), "", &string_to_key("new"), NOW, "adm."))
        .unwrap()
        .unwrap();
    assert_eq!((failures(&kdc), swaps(&kdc)), (1, 0));
    assert_eq!(login(&kdc, 1, "pw-0-1"), Ok(()), "a known principal still gets a valid AS reply");
    assert_eq!(login(&kdc, 2, "pw-0-2"), Ok(()), "the unpublished write is not served yet");

    // The store recovers: the next write publishes both changes.
    broken.store(false, Ordering::SeqCst);
    kdc.with_db_mut(|_| ()).unwrap();
    assert_eq!((failures(&kdc), swaps(&kdc)), (1, 1));
    assert_eq!(login(&kdc, 2, "new"), Ok(()));
}

#[test]
fn a_failed_install_keeps_the_previous_primary_and_snapshot() {
    let (broken, healthy) = (Arc::new(AtomicBool::new(true)), Arc::new(AtomicBool::new(false)));
    let kdc = Kdc::new(
        flaky_realm(3, 0, &healthy),
        RealmConfig::new(REALM),
        fixed_clock(NOW),
        KdcRole::Master,
        1,
    );
    kdc.install_db(flaky_realm(3, 7, &broken));
    assert_eq!((failures(&kdc), swaps(&kdc)), (1, 0));
    assert_eq!(login(&kdc, 1, "pw-0-1"), Ok(()));
    // The refused database did not become the primary either: the next
    // write republishes the old one.
    kdc.with_db_mut(|_| ()).unwrap();
    assert_eq!(login(&kdc, 1, "pw-0-1"), Ok(()));
    assert_eq!(login(&kdc, 1, "pw-7-1"), Err(ErrorCode::IntkBadPw));
}

#[test]
fn a_server_started_on_an_unreadable_store_serves_an_empty_realm_until_it_reads() {
    let broken = Arc::new(AtomicBool::new(true));
    let kdc = Kdc::new(
        flaky_realm(3, 0, &broken),
        RealmConfig::new(REALM),
        fixed_clock(NOW),
        KdcRole::Master,
        1,
    );
    assert_eq!(failures(&kdc), 1);
    assert_eq!(login(&kdc, 1, "pw-0-1"), Err(ErrorCode::KdcPrUnknown));
    broken.store(false, Ordering::SeqCst);
    kdc.with_db_mut(|_| ()).unwrap();
    assert_eq!(login(&kdc, 1, "pw-0-1"), Ok(()));
}

#[test]
fn kdc_health_sees_a_store_that_stopped_reading() {
    let broken = Arc::new(AtomicBool::new(false));
    let kdc = Kdc::new(
        flaky_realm(3, 0, &broken),
        RealmConfig::new(REALM),
        fixed_clock(NOW),
        KdcRole::Master,
        1,
    );
    assert_eq!(login(&kdc, 1, "pw-0-1"), Ok(()));
    kdc.with_db_mut(|_| ()).unwrap();
    assert_eq!((failures(&kdc), kdc_health(&kdc).as_str()), (0, "healthy"));

    // One read failure: every request still succeeds (the last good
    // snapshot serves), so only the fault counter can tell.
    broken.store(true, Ordering::SeqCst);
    kdc.with_db_mut(|_| ()).unwrap();
    assert_eq!(login(&kdc, 1, "pw-0-1"), Ok(()));
    assert_eq!((failures(&kdc), kdc_health(&kdc).as_str()), (1, "degraded"));
}
