//! Database dump format.
//!
//! Paper §5.3: "The master database is dumped every hour. The database is
//! sent, in its entirety, to the slave machines." The dump is a versioned
//! text format; principal keys remain encrypted in the master database key,
//! so "the information passed from master to slave over the network is not
//! useful to an eavesdropper".

use crate::db::PrincipalDb;
use crate::principal::PrincipalEntry;
use crate::store::Store;
use crate::DbError;

const HEADER: &str = "KDB_DUMP_V1";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex8(s: &str) -> Result<[u8; 8], DbError> {
    if s.len() != 16 {
        return Err(DbError::Corrupt(format!("bad hex key length {}", s.len())));
    }
    let mut out = [0u8; 8];
    for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
        let hexpair = std::str::from_utf8(chunk).map_err(|_| DbError::Corrupt("bad hex".into()))?;
        out[i] = u8::from_str_radix(hexpair, 16).map_err(|_| DbError::Corrupt("bad hex".into()))?;
    }
    Ok(out)
}

/// Serialize one entry as a dump line.
pub fn entry_to_line(e: &PrincipalEntry) -> String {
    // Components reject whitespace and '.' at registration, so the
    // space-separated format is unambiguous; the NULL instance prints as '*'.
    let inst = if e.instance.is_empty() { "*" } else { &e.instance };
    let mod_by = if e.mod_by.is_empty() { "*" } else { &e.mod_by };
    format!(
        "{} {} {} {} {} {} {} {} {}",
        e.name,
        inst,
        e.key_version,
        e.expiration,
        e.max_life,
        e.attributes,
        e.mod_time,
        mod_by,
        hex(&e.key_encrypted),
    )
}

/// Parse one dump line back into an entry.
pub fn line_to_entry(line: &str) -> Result<PrincipalEntry, DbError> {
    let parts: Vec<&str> = line.split(' ').collect();
    if parts.len() != 9 {
        return Err(DbError::Corrupt(format!("dump line has {} fields", parts.len())));
    }
    let field = |s: &str, what: &str| -> Result<u32, DbError> {
        s.parse::<u32>()
            .map_err(|_| DbError::Corrupt(format!("bad {what}: {s:?}")))
    };
    Ok(PrincipalEntry {
        name: parts[0].to_string(),
        instance: if parts[1] == "*" { String::new() } else { parts[1].to_string() },
        key_version: field(parts[2], "key_version")? as u8,
        expiration: field(parts[3], "expiration")?,
        max_life: field(parts[4], "max_life")? as u8,
        attributes: field(parts[5], "attributes")? as u16,
        mod_time: field(parts[6], "mod_time")?,
        mod_by: if parts[7] == "*" { String::new() } else { parts[7].to_string() },
        key_encrypted: unhex8(parts[8])?,
    })
}

/// Dump the whole database (including `K.M`) to the transfer format.
pub fn dump<S: Store>(db: &PrincipalDb<S>) -> Result<String, DbError> {
    let mut lines = Vec::with_capacity(db.len() + 1);
    db.for_each(&mut |e| lines.push(entry_to_line(e)))?;
    // Sort for a canonical dump: the checksum must not depend on hash order.
    lines.sort_unstable();
    let mut out = format!("{HEADER} {}\n", lines.len());
    for l in &lines {
        out.push_str(l);
        out.push('\n');
    }
    Ok(out)
}

/// Parse a dump into entries, validating the header and count.
pub fn parse(dump: &str) -> Result<Vec<PrincipalEntry>, DbError> {
    let mut lines = dump.lines();
    let header = lines.next().ok_or_else(|| DbError::Corrupt("empty dump".into()))?;
    let mut hdr = header.split(' ');
    if hdr.next() != Some(HEADER) {
        return Err(DbError::Corrupt("bad dump header".into()));
    }
    let count: usize = hdr
        .next()
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| DbError::Corrupt("bad dump count".into()))?;
    // Sized once from the header (a growing Vec ends at up to twice the
    // realm, and moves it on the way), but never past what the text could
    // hold: a line is nine fields, the last sixteen hex digits.
    let mut entries = Vec::with_capacity(count.min(dump.len() / 32));
    for line in lines {
        entries.push(line_to_entry(line)?);
    }
    if entries.len() != count {
        return Err(DbError::Corrupt(format!(
            "dump count {count} but {} entries",
            entries.len()
        )));
    }
    Ok(entries)
}

/// Install a parsed dump into a fresh store, replacing all contents.
/// This is the slave-side `kpropd` update step.
pub fn install<S: Store>(store: &mut S, entries: &[PrincipalEntry]) -> Result<(), DbError> {
    // Collect existing keys first: Store iteration borrows immutably.
    let mut old_keys = Vec::new();
    store.for_each(&mut |k, _| old_keys.push(k.to_vec()))?;
    for k in old_keys {
        store.delete(&k)?;
    }
    for e in entries {
        store.store(&PrincipalEntry::db_key(&e.name, &e.instance), &e.encode())?;
    }
    store.sync()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::PrincipalDb;
    use crate::store::MemStore;
    use krb_crypto::string_to_key;

    fn populated() -> PrincipalDb<MemStore> {
        let mut db = PrincipalDb::create(MemStore::new(), string_to_key("mk"), 0).unwrap();
        for (n, i) in [("bcn", ""), ("jis", ""), ("rlogin", "priam"), ("changepw", "kerberos")] {
            db.add_principal(n, i, &string_to_key(n), u32::MAX, 96, 10, "kadmin.")
                .unwrap();
        }
        db
    }

    #[test]
    fn line_round_trip() {
        let db = populated();
        let mut ok = 0;
        db.for_each(&mut |e| {
            let line = entry_to_line(e);
            let back = line_to_entry(&line).unwrap();
            assert_eq!(&back, e);
            ok += 1;
        })
        .unwrap();
        assert_eq!(ok, 5); // 4 + K.M
    }

    #[test]
    fn dump_parse_round_trip() {
        let db = populated();
        let d = dump(&db).unwrap();
        let entries = parse(&d).unwrap();
        assert_eq!(entries.len(), 5);
        assert!(entries.iter().any(|e| e.name == "K" && e.instance == "M"));
    }

    #[test]
    fn dump_is_canonical() {
        let db = populated();
        assert_eq!(dump(&db).unwrap(), dump(&db).unwrap());
    }

    #[test]
    fn parse_rejects_bad_header() {
        assert!(parse("NOT_A_DUMP 0\n").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn parse_rejects_count_mismatch() {
        let db = populated();
        let d = dump(&db).unwrap();
        let truncated: String = {
            let mut lines: Vec<&str> = d.lines().collect();
            lines.pop();
            lines.join("\n") + "\n"
        };
        assert!(parse(&truncated).is_err());
    }

    #[test]
    fn a_header_count_larger_than_the_text_reserves_nothing_for_it() {
        // usize::MAX entries could not be reserved; the count is only trusted
        // up to what the text has room for.
        assert!(parse(&format!("{HEADER} {}\n", usize::MAX)).is_err());
    }

    #[test]
    fn parse_rejects_garbled_line() {
        let db = populated();
        let mut d = dump(&db).unwrap();
        d = d.replace(" 96 ", " not-a-number ");
        assert!(parse(&d).is_err());
    }

    #[test]
    fn install_replaces_store() {
        let db = populated();
        let entries = parse(&dump(&db).unwrap()).unwrap();
        let mut slave = MemStore::new();
        slave.store(b"stale.", b"junk").unwrap();
        install(&mut slave, &entries).unwrap();
        assert_eq!(slave.len(), 5);
        assert!(slave.fetch(b"stale.").unwrap().is_none());
        // The installed slave opens with the same master key.
        assert!(PrincipalDb::open(slave, string_to_key("mk")).is_ok());
    }

    #[test]
    fn keys_in_dump_are_not_plaintext() {
        let db = populated();
        let d = dump(&db).unwrap();
        let user_key = hex(string_to_key("bcn").as_bytes());
        assert!(!d.contains(&user_key), "dump must not contain plaintext keys");
    }
}
