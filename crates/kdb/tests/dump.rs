//! The dump's one line writer and one parser.
//!
//! `dump_digest_is_pinned` fixes every byte `dump::dump` writes for a
//! seeded realm; the digest was computed with the formatter that built one
//! `String` per line and sorted those. The realm holds principals whose
//! dump lines sort differently from their database keys, so a dump that
//! skipped the sort, or sorted by key, would change the digest. The
//! proptests check that the parser reads back exactly what the writer
//! wrote.

use krb_crypto::string_to_key;
use krb_kdb::dump::{dump, entry_to_line, line_to_entry, parse};
use krb_kdb::{MemStore, PrincipalDb, PrincipalEntry, Store};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a 64.
fn fnv1a(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Characters that sort below `.` and `*` (and so move a line against its
/// key), letters, and one two-byte character.
const ALPHABET: &[&str] = &["!", "-", "+", "a", "b", "z", "K", "0", "9", "_", "é"];

fn component(rng: &mut StdRng, max: usize) -> String {
    (0..rng.random_range(0..=max)).map(|_| ALPHABET[rng.random_range(0..ALPHABET.len())]).collect()
}

/// A seeded realm of 300 principals plus fixed pairs whose dump lines and
/// database keys sort in opposite orders.
fn seeded_realm() -> PrincipalDb<MemStore> {
    let mut db = PrincipalDb::create(MemStore::new(), string_to_key("dump-digest-master"), 1_000).unwrap();
    let fixed = [
        ("a", ""),
        ("a", "!"),
        ("krbtgt", "ATHENA.MIT.EDU"),
        ("krbtgt-x", ""),
        ("krbtgt", "LCS.MIT.EDU"),
        ("rcmd", "priam"),
    ];
    let mut rng = StdRng::seed_from_u64(0xD0_4D);
    let mut names: Vec<(String, String)> =
        fixed.iter().map(|(n, i)| (n.to_string(), i.to_string())).collect();
    for _ in 0..300 {
        names.push((component(&mut rng, 6), component(&mut rng, 4)));
    }
    for (name, instance) in names {
        let key = string_to_key(&format!("{name}/{instance}"));
        let expiration = rng.random();
        let max_life = rng.random();
        if db.add_principal(&name, &instance, &key, expiration, max_life, 2_000, "kadmin.").is_err() {
            continue; // a seeded duplicate
        }
        let mut e = db.get(&name, &instance).unwrap().unwrap();
        e.key_version = rng.random();
        e.attributes = rng.random();
        e.mod_time = rng.random();
        e.mod_by = if rng.random_bool(0.3) { String::new() } else { component(&mut rng, 8) };
        db.update_entry(&e).unwrap();
    }
    db
}

#[test]
fn dump_digest_is_pinned() {
    let db = seeded_realm();
    let text = dump(&db).unwrap();
    // The fixture is what it claims: lines in key order are not sorted.
    let mut in_key_order = Vec::new();
    db.for_each(&mut |e| in_key_order.push(entry_to_line(&e.to_owned()))).unwrap();
    assert!(!in_key_order.is_sorted(), "the realm must put some line out of key order");
    assert!(text.contains("\na ! ") && text.contains("\na * ") && text.find("\na ! ") < text.find("\na * "));
    assert_eq!((fnv1a(text.as_bytes()), text.len(), db.len()), (0xc184_0e79_0bc3_5bd5, 18_915, 295));
}

/// A valid entry: components as registration allows them, except the
/// literal `*`, which the dump reserves for the empty string.
fn arb_entry() -> impl Strategy<Value = PrincipalEntry> {
    (
        ("[a-zK0-9!+*_é-]{0,8}", "[a-zA-Z0-9.!+_é-]{0,12}", "[a-z.!_-]{0,10}"),
        any::<[u8; 8]>(),
        (any::<u8>(), any::<u32>(), any::<u8>(), any::<u16>(), any::<u32>()),
    )
        .prop_map(|((name, instance, mod_by), key_encrypted, (key_version, expiration, max_life, attributes, mod_time))| {
            PrincipalEntry {
                name,
                instance,
                key_encrypted,
                key_version,
                expiration,
                max_life,
                attributes,
                mod_time,
                mod_by,
            }
        })
}

fn by_key(mut entries: Vec<PrincipalEntry>) -> Vec<PrincipalEntry> {
    entries.sort_by_key(|e| PrincipalEntry::db_key(&e.name, &e.instance));
    entries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The parser reads back exactly the entry the writer wrote.
    #[test]
    fn a_line_reads_back_as_its_entry(e in arb_entry()) {
        prop_assert_eq!(line_to_entry(&entry_to_line(&e)).unwrap(), e);
    }

    /// A dump parses back to exactly the database's records, `K.M`
    /// included: none lost, none added, none changed.
    #[test]
    fn a_dump_parses_back_to_the_records(entries in proptest::collection::vec(arb_entry(), 0..60)) {
        let mut db = PrincipalDb::create(MemStore::new(), string_to_key("mk"), 0).unwrap();
        for e in &entries {
            db.store_mut().store(&PrincipalEntry::db_key(&e.name, &e.instance), &e.encode()).unwrap();
        }
        let mut records = Vec::new();
        db.for_each(&mut |e| records.push(e.to_owned())).unwrap();
        prop_assert_eq!(by_key(parse(&dump(&db).unwrap()).unwrap()), records);
    }
}
