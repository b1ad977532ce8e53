//! The production configuration: a KDC over the *file-backed* extendible
//! hash store (the `ndbm` role), not the in-memory store the simulators
//! use. Exercises the full §6.3 administrator flow against real files:
//! initialize, register, serve, dump, and reopen after a restart.

use athena_kerberos::kdb::{HashStore, PrincipalDb};
use athena_kerberos::kdc::{fixed_clock, Kdc, KdcRole, RealmConfig};
use athena_kerberos::krb::{
    build_as_req, build_tgs_req, read_as_reply_with_password, read_tgs_reply, Principal,
};
use athena_kerberos::crypto::string_to_key;

const REALM: &str = "ATHENA.MIT.EDU";
const NOW: u32 = 600_000_000;
const WS: [u8; 4] = [18, 72, 0, 5];

fn tmpbase(name: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!("krb-file-realm-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(p.with_extension("pag"));
    let _ = std::fs::remove_file(p.with_extension("dir"));
    p
}

#[test]
fn full_protocol_over_file_backed_database() {
    let base = tmpbase("proto");
    // kdb_init against files.
    let store = HashStore::open(&base).unwrap();
    let mut db = PrincipalDb::create(store, string_to_key("master"), NOW).unwrap();
    db.add_principal("krbtgt", REALM, &string_to_key("tgs"), NOW * 2, 96, NOW, "i.").unwrap();
    db.add_principal("bcn", "", &string_to_key("bcn-pw"), NOW * 2, 96, NOW, "i.").unwrap();
    db.add_principal("rlogin", "priam", &string_to_key("srv"), NOW * 2, 96, NOW, "i.").unwrap();
    db.sync().unwrap();

    let kdc = Kdc::new(db, RealmConfig::new(REALM), fixed_clock(NOW), KdcRole::Master, 1);
    let client = Principal::parse("bcn", REALM).unwrap();
    let tgs = Principal::tgs(REALM, REALM);
    let rlogin = Principal::parse("rlogin.priam", REALM).unwrap();

    let req = build_as_req(&client, &tgs, 96, NOW);
    let tgt = read_as_reply_with_password(&kdc.handle(&req, WS), "bcn-pw", NOW).unwrap();
    let req = build_tgs_req(&tgt, &client, WS, NOW + 1, &rlogin, 96);
    let cred = read_tgs_reply(&kdc.handle(&req, WS), &tgt, NOW + 1).unwrap();
    assert_eq!(cred.service, rlogin);
}

#[test]
fn database_survives_restart() {
    let base = tmpbase("restart");
    {
        let store = HashStore::open(&base).unwrap();
        let mut db = PrincipalDb::create(store, string_to_key("master"), NOW).unwrap();
        db.add_principal("krbtgt", REALM, &string_to_key("tgs"), NOW * 2, 96, NOW, "i.").unwrap();
        for i in 0..200 {
            db.add_principal(&format!("user{i}"), "", &string_to_key(&format!("pw{i}")), NOW * 2, 96, NOW, "i.")
                .unwrap();
        }
        db.sync().unwrap();
        // dropped: the "machine reboots"
    }
    // Reopen with the right master key and serve immediately.
    let store = HashStore::open(&base).unwrap();
    let db = PrincipalDb::open(store, string_to_key("master")).unwrap();
    assert_eq!(db.len(), 202); // K.M + krbtgt + 200 users
    let kdc = Kdc::new(db, RealmConfig::new(REALM), fixed_clock(NOW), KdcRole::Master, 2);
    let client = Principal::parse("user150", REALM).unwrap();
    let req = build_as_req(&client, &Principal::tgs(REALM, REALM), 96, NOW);
    assert!(read_as_reply_with_password(&kdc.handle(&req, WS), "pw150", NOW).is_ok());

    // Wrong master key cannot open the files.
    let store = HashStore::open(&base).unwrap();
    assert!(PrincipalDb::open(store, string_to_key("guess")).is_err());
}

#[test]
fn propagation_from_file_backed_master_to_file_backed_slave() {
    let master_base = tmpbase("prop-master");
    let slave_base = tmpbase("prop-slave");
    let store = HashStore::open(&master_base).unwrap();
    let mut db = PrincipalDb::create(store, string_to_key("master"), NOW).unwrap();
    db.add_principal("krbtgt", REALM, &string_to_key("tgs"), NOW * 2, 96, NOW, "i.").unwrap();
    db.add_principal("bcn", "", &string_to_key("bcn-pw"), NOW * 2, 96, NOW, "i.").unwrap();
    db.sync().unwrap();

    let dump = athena_kerberos::kdb::dump::dump(&db).unwrap();
    let packet = athena_kerberos::kprop::build_full_seq(db.master_sched(), 0, dump.as_bytes());
    let slave_store = HashStore::open(&slave_base).unwrap();
    let (_, entries) =
        athena_kerberos::kprop::verify_full_seq(db.master_sched(), &packet).unwrap();
    let slave_db =
        athena_kerberos::kprop::kpropd_install(slave_store, &entries, string_to_key("master"))
            .unwrap();
    assert_eq!(slave_db.len(), db.len());
    let slave = Kdc::new(slave_db, RealmConfig::new(REALM), fixed_clock(NOW), KdcRole::Slave, 3);
    let client = Principal::parse("bcn", REALM).unwrap();
    let req = build_as_req(&client, &Principal::tgs(REALM, REALM), 96, NOW);
    assert!(read_as_reply_with_password(&slave.handle(&req, WS), "bcn-pw", NOW).is_ok());
}
