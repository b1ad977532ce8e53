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
use krb_kdb::{DbError, MemStore, PrincipalDb, PrincipalEntry, Store};
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

/// An entry with components as registration allows them, and the literal
/// `*` as the instance or `mod_by` now and then, which registration
/// refuses: the dump reserves it for the empty string.
fn arb_entry() -> impl Strategy<Value = PrincipalEntry> {
    let starred = |re: &'static str| prop_oneof![1 => Just("*".to_string()), 7 => re];
    (
        ("[a-zK0-9!+*_é-]{0,8}", starred("[a-zA-Z0-9.!+*_é-]{0,12}"), starred("[a-z.!*_-]{0,10}")),
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

/// Whether registration would let `e`'s fields into the database.
fn admitted(e: &PrincipalEntry) -> bool {
    PrincipalEntry::validate_name(&e.name).is_ok()
        && PrincipalEntry::validate_instance(&e.instance).is_ok()
        && PrincipalEntry::validate_mod_by(&e.mod_by).is_ok()
}

/// The store's records in key order, and the records its dump parses
/// back to, sorted the same way.
fn stored_and_parsed(db: &PrincipalDb<MemStore>) -> (Pairs, Pairs) {
    let mut stored = Vec::new();
    db.store().for_each(&mut |k, v| stored.push((k.to_vec(), v.to_vec()))).unwrap();
    let records = parse(&dump(db).unwrap()).unwrap();
    let mut parsed: Pairs = records.iter().map(|r| (r.key().to_vec(), r.value().to_vec())).collect();
    parsed.sort();
    (stored, parsed)
}

/// Records as `(key, value)` byte strings, which compare and sort.
type Pairs = Vec<(Vec<u8>, Vec<u8>)>;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The parser reads back exactly the entry the writer wrote, for
    /// exactly the entries registration admits.
    #[test]
    fn a_line_reads_back_as_its_entry(e in arb_entry()) {
        let back = line_to_entry(&entry_to_line(&e)).unwrap();
        prop_assert_eq!(back == e, admitted(&e), "{:?}", e);
    }

    /// A dump parses back to exactly the database's records, `K.M`
    /// included: none lost, none added, not a byte changed.
    #[test]
    fn a_dump_parses_back_to_the_records(entries in proptest::collection::vec(arb_entry(), 0..60)) {
        let mut db = PrincipalDb::create(MemStore::new(), string_to_key("mk"), 0).unwrap();
        for e in entries.iter().filter(|e| admitted(e)) {
            db.store_mut().store(&PrincipalEntry::db_key(&e.name, &e.instance), &e.encode()).unwrap();
        }
        let (stored, parsed) = stored_and_parsed(&db);
        prop_assert_eq!(parsed, stored);
    }
}

/// `*` is the dump's empty field: an instance or `mod_by` spelled so would
/// come back from every slave as the empty string (`name.*` as `name.`),
/// so every way into the database refuses it.
#[test]
fn a_star_instance_or_mod_by_is_refused_at_every_door() {
    let mut db = PrincipalDb::create(MemStore::new(), string_to_key("mk"), 0).unwrap();
    let key = string_to_key("pw");
    let refused = |r: Result<(), DbError>| matches!(r, Err(DbError::BadName(_)));
    assert!(refused(db.add_principal("bcn", "*", &key, 9, 96, 0, "kadmin.")));
    assert!(refused(db.add_principal("bcn", "", &key, 9, 96, 0, "*")));
    let batch = [("jis".to_string(), "*".to_string(), key)];
    assert!(refused(db.bulk_register(&batch, 9, 96, 0, "kadmin.")));
    let batch = [("jis".to_string(), String::new(), key)];
    assert!(refused(db.bulk_register(&batch, 9, 96, 0, "*")));

    db.add_principal("bcn", "", &key, 9, 96, 0, "kadmin.").unwrap();
    assert!(refused(db.change_key("bcn", "", &string_to_key("new"), 1, "*")));
    let mut e = db.get("bcn", "").unwrap().unwrap();
    e.mod_by = "*".into();
    assert!(refused(db.update_entry(&e)));
    assert!(refused(db.add_principal("bcn", "", &key, 9, 96, 0, "a b")), "mod_by is one dump field");

    // What did get in reads back from a dump as itself: `*` inside a
    // component, or as a whole name, is not the empty field.
    db.add_principal("*", "a*", &key, 9, 96, 0, "x*.").unwrap();
    let (stored, parsed) = stored_and_parsed(&db);
    assert_eq!(parsed, stored);
    assert_eq!(db.len(), 3);
}
