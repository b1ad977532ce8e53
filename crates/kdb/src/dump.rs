//! Database dump format.
//!
//! Paper §5.3: "The master database is dumped every hour. The database is
//! sent, in its entirety, to the slave machines." The dump is a versioned
//! text format; principal keys remain encrypted in the master database key,
//! so "the information passed from master to slave over the network is not
//! useful to an eavesdropper".

use crate::db::PrincipalDb;
use crate::principal::{PrincipalEntry, PrincipalEntryView};
use crate::store::{Records, Store};
use crate::DbError;
use std::fmt::Write;

const HEADER: &str = "KDB_DUMP_V1";

/// Hex digits, by value.
const HEX: &[u8; 16] = b"0123456789abcdef";

/// Hex digit values, by byte; `0xFF` for a byte that is not a hex digit.
const UNHEX: [u8; 256] = {
    let mut table = [0xFF; 256];
    let mut v = 0;
    while v < 16 {
        table[HEX[v] as usize] = v as u8;
        table[HEX[v].to_ascii_uppercase() as usize] = v as u8;
        v += 1;
    }
    table
};

fn unhex8(s: &str) -> Result<[u8; 8], DbError> {
    let (pairs, rest) = s.as_bytes().as_chunks::<2>();
    if pairs.len() != 8 || !rest.is_empty() {
        return Err(DbError::Corrupt(format!("bad hex key length {}", s.len())));
    }
    let mut out = [0u8; 8];
    for (byte, &[hi, lo]) in out.iter_mut().zip(pairs) {
        let (hi, lo) = (UNHEX[usize::from(hi)], UNHEX[usize::from(lo)]);
        if (hi | lo) > 0xF {
            return Err(DbError::Corrupt("bad hex".into()));
        }
        *byte = hi << 4 | lo;
    }
    Ok(out)
}

/// Append `e`'s dump line, without its newline: the one line writer, for
/// the full dump and for the put records of an incremental segment.
fn write_line(out: &mut String, e: &PrincipalEntryView<'_>) {
    // Components reject whitespace and '.' at registration, so the
    // space-separated format is unambiguous; the NULL instance prints as '*'.
    let star = |s: &str, out: &mut String| out.push_str(if s.is_empty() { "*" } else { s });
    out.push_str(e.name);
    out.push(' ');
    star(e.instance, out);
    // Writing to a `String` cannot fail.
    let _ = write!(out, " {} {} {} {} {} ", e.key_version, e.expiration, e.max_life, e.attributes, e.mod_time);
    star(e.mod_by, out);
    out.push(' ');
    for b in e.key_encrypted {
        out.push(char::from(HEX[usize::from(b >> 4)]));
        out.push(char::from(HEX[usize::from(b & 0xF)]));
    }
}

/// Serialize one entry as a dump line.
pub fn entry_to_line(e: &PrincipalEntry) -> String {
    let mut line = String::with_capacity(64);
    write_line(&mut line, &e.view());
    line
}

/// Parse one dump line back into an entry.
pub fn line_to_entry(line: &str) -> Result<PrincipalEntry, DbError> {
    line_view(line).map(|e| e.to_owned())
}

/// Parse one dump line where it lies: the one line parser. Every number is
/// read at its field's own width: a value that does not fit is damage, not
/// a smaller number.
fn line_view(line: &str) -> Result<PrincipalEntryView<'_>, DbError> {
    let mut fields = line.split(' ');
    let mut text = |what: &str| {
        fields.next().ok_or_else(|| DbError::Corrupt(format!("dump line ends before {what}")))
    };
    fn num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, DbError> {
        s.parse().map_err(|_| DbError::Corrupt(format!("bad {what}: {s:?}")))
    }
    fn unstar(s: &str) -> &str {
        if s == "*" { "" } else { s }
    }
    let entry = PrincipalEntryView {
        name: text("name")?,
        instance: unstar(text("instance")?),
        key_version: num(text("key_version")?, "key_version")?,
        expiration: num(text("expiration")?, "expiration")?,
        max_life: num(text("max_life")?, "max_life")?,
        attributes: num(text("attributes")?, "attributes")?,
        mod_time: num(text("mod_time")?, "mod_time")?,
        mod_by: unstar(text("mod_by")?),
        key_encrypted: unhex8(text("key")?)?,
    };
    if fields.next().is_some() {
        return Err(DbError::Corrupt("dump line has more than 9 fields".into()));
    }
    Ok(entry)
}

/// Dump the whole database (including `K.M`) to the transfer format: every
/// line written into one buffer, then copied out in sorted order.
pub fn dump<S: Store>(db: &PrincipalDb<S>) -> Result<String, DbError> {
    let mut body = String::with_capacity(db.len() * 64);
    let mut lines = Vec::with_capacity(db.len());
    db.for_each(&mut |e| {
        let start = body.len();
        write_line(&mut body, e);
        lines.push(start..body.len());
    })?;
    // Sorted for a canonical dump: the checksum must not depend on store
    // order. Key order is not line order (`name instance` against
    // `name.instance`: ' ' and '*' sort below '.').
    lines.sort_unstable_by(|a, b| body.get(a.clone()).cmp(&body.get(b.clone())));
    let mut out = format!("{HEADER} {}\n", lines.len());
    out.reserve(body.len() + lines.len());
    for line in lines {
        out.push_str(body.get(line).ok_or_else(|| DbError::Corrupt("dump line bounds".into()))?);
        out.push('\n');
    }
    Ok(out)
}

/// Parse a dump, validating the header and count, straight into the
/// records a store holds (db key, encoded value): no line becomes an owned
/// entry on the way, and each record's value is its one allocation.
pub fn parse(dump: &str) -> Result<Records, DbError> {
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
    let mut records = Vec::with_capacity(count.min(dump.len() / 32));
    let mut scratch = Vec::new();
    for line in lines {
        records.push(line_view(line)?.to_record(&mut scratch));
    }
    if records.len() != count {
        return Err(DbError::Corrupt(format!(
            "dump count {count} but {} entries",
            records.len()
        )));
    }
    Ok(records)
}

/// Install a parsed dump into an empty store in one [`Store::bulk_load`]:
/// the slave-side `kpropd` update step. A store that already holds records
/// is refused; a slave installs into a fresh store and swaps it in whole.
pub fn install<S: Store>(store: &mut S, records: Records) -> Result<(), DbError> {
    if !store.is_empty() {
        return Err(DbError::AlreadyExists(format!("install over {} stored records", store.len())));
    }
    store.bulk_load(records)
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
            let e = e.to_owned();
            let line = entry_to_line(&e);
            let back = line_to_entry(&line).unwrap();
            assert_eq!(back, e);
            ok += 1;
        })
        .unwrap();
        assert_eq!(ok, 5); // 4 + K.M
    }

    #[test]
    fn dump_parse_round_trip() {
        let db = populated();
        let d = dump(&db).unwrap();
        let records = parse(&d).unwrap();
        assert_eq!(records.len(), 5);
        let mut stored = Vec::new();
        db.store().for_each(&mut |k, v| stored.push((k.to_vec(), v.to_vec()))).unwrap();
        let mut parsed: Vec<_> = records.iter().map(|r| (r.key().to_vec(), r.value().to_vec())).collect();
        parsed.sort();
        assert_eq!(parsed, stored, "every record parses back to its stored bytes");
        assert!(records.iter().any(|r| r.key() == b"K.M"));
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

    /// A number too wide for its field is refused, not wrapped: key
    /// version 257 must not install as kvno 1.
    #[test]
    fn a_field_too_wide_for_its_type_is_corrupt() {
        let db = populated();
        let good = entry_to_line(&db.get("jis", "").unwrap().unwrap());
        assert!(line_to_entry(&good).is_ok());
        for (at, wide) in [(2, "257"), (4, "256"), (5, "65536"), (3, "4294967296")] {
            let mut fields: Vec<&str> = good.split(' ').collect();
            fields[at] = wide;
            let line = fields.join(" ");
            assert!(matches!(line_to_entry(&line), Err(DbError::Corrupt(_))), "{line}");
            let text = dump(&db).unwrap().replace(&good, &line);
            assert!(matches!(parse(&text), Err(DbError::Corrupt(_))), "{line}");
        }
    }

    #[test]
    fn install_fills_a_fresh_store_and_refuses_a_populated_one() {
        let db = populated();
        let records = parse(&dump(&db).unwrap()).unwrap();
        let mut stale = MemStore::new();
        stale.store(b"stale.", b"junk").unwrap();
        assert!(matches!(install(&mut stale, records.clone()), Err(DbError::AlreadyExists(_))));
        assert_eq!(stale.len(), 1, "a refused install leaves the store as it was");
        let mut slave = MemStore::new();
        install(&mut slave, records).unwrap();
        assert_eq!(slave.len(), 5);
        // The installed slave opens with the same master key.
        assert!(PrincipalDb::open(slave, string_to_key("mk")).is_ok());
    }

    #[test]
    fn keys_in_dump_are_not_plaintext() {
        let db = populated();
        let d = dump(&db).unwrap();
        let user_key: String = string_to_key("bcn").as_bytes().iter().map(|b| format!("{b:02x}")).collect();
        assert!(!d.contains(&user_key), "dump must not contain plaintext keys");
    }
}
