//! Principal records: what the Kerberos database stores per principal.
//!
//! Paper §2.2: "a record is held for each principal, containing the name,
//! private key, and expiration date of the principal, along with some
//! administrative information."
//!
//! The private key field is *always* encrypted in the master database key
//! (§5.3: "All passwords in the Kerberos database are encrypted in the
//! master database key"), so a record is safe to write to disk, dump, and
//! send to slaves.

use crate::DbError;

/// Maximum length of a name or instance component (V4's `ANAME_SZ`).
pub const NAME_SZ: usize = 40;

/// Attribute flag: entry is administratively disabled.
pub const ATTR_DISABLED: u16 = 0x0001;
/// Attribute flag: the ticket-granting service must not issue tickets for
/// this principal; only the AS may (used by the KDBM service, paper §5.1).
pub const ATTR_NO_TGS: u16 = 0x0002;

/// One row of the Kerberos database.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrincipalEntry {
    /// Primary name (paper §3).
    pub name: String,
    /// Instance; empty string is the NULL instance.
    pub instance: String,
    /// The principal's DES key, encrypted in the master database key (ECB,
    /// single block). Never stored or transferred in the clear.
    pub key_encrypted: [u8; 8],
    /// Key version number, bumped on every password change.
    pub key_version: u8,
    /// Expiration date (seconds since the epoch); "usually set to a few
    /// years into the future at registration".
    pub expiration: u32,
    /// Maximum ticket lifetime for this principal, in 5-minute units.
    pub max_life: u8,
    /// Attribute flags (`ATTR_*`).
    pub attributes: u16,
    /// Last-modification time (seconds since the epoch).
    pub mod_time: u32,
    /// Principal that performed the last modification, as `name.instance`.
    pub mod_by: String,
}

impl PrincipalEntry {
    /// Database key under which this entry is stored: `name.instance`.
    pub fn db_key(name: &str, instance: &str) -> Vec<u8> {
        let mut k = Vec::with_capacity(name.len() + 1 + instance.len());
        k.extend_from_slice(name.as_bytes());
        k.push(b'.');
        k.extend_from_slice(instance.as_bytes());
        k
    }

    /// Validate a primary name: no dots (the first dot in `name.instance`
    /// is the separator), no `@`, no whitespace.
    pub fn validate_name(s: &str) -> Result<(), DbError> {
        if s.contains('.') {
            return Err(DbError::BadName(format!("dot in primary name {s:?}")));
        }
        Self::validate_instance(s)
    }

    /// Validate an instance: dots are allowed (the `krbtgt` instance is a
    /// realm name, e.g. `krbtgt.LCS.MIT.EDU`), `@` and whitespace are not.
    pub fn validate_instance(s: &str) -> Result<(), DbError> {
        if s.len() > NAME_SZ {
            return Err(DbError::BadName(format!("component too long: {s:?}")));
        }
        if s.contains(['@', '\0']) || s.chars().any(char::is_whitespace) {
            return Err(DbError::BadName(format!("illegal character in {s:?}")));
        }
        Ok(())
    }

    /// Serialize to the on-disk value format (versioned, big-endian).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.push(1); // record format version
        push_str(&mut out, &self.name);
        push_str(&mut out, &self.instance);
        out.extend_from_slice(&self.key_encrypted);
        out.push(self.key_version);
        out.extend_from_slice(&self.expiration.to_be_bytes());
        out.push(self.max_life);
        out.extend_from_slice(&self.attributes.to_be_bytes());
        out.extend_from_slice(&self.mod_time.to_be_bytes());
        push_str(&mut out, &self.mod_by);
        out
    }

    /// Parse the on-disk value format.
    pub fn decode(buf: &[u8]) -> Result<Self, DbError> {
        PrincipalEntryView::decode(buf).map(|e| e.to_owned())
    }
}

/// A record read where the store keeps it: the fields of
/// [`PrincipalEntry`] with the three strings borrowed from the stored
/// bytes. This is the record parser; [`PrincipalEntry::decode`] is this
/// plus an owned copy.
#[derive(Clone, Copy)]
pub struct PrincipalEntryView<'a> {
    /// Primary name.
    pub name: &'a str,
    /// Instance; empty string is the NULL instance.
    pub instance: &'a str,
    /// The principal's DES key, encrypted in the master database key.
    pub key_encrypted: [u8; 8],
    /// Key version number.
    pub key_version: u8,
    /// Expiration date (seconds since the epoch).
    pub expiration: u32,
    /// Maximum ticket lifetime, in 5-minute units.
    pub max_life: u8,
    /// Attribute flags (`ATTR_*`).
    pub attributes: u16,
    /// Last-modification time (seconds since the epoch).
    pub mod_time: u32,
    /// Principal that performed the last modification.
    pub mod_by: &'a str,
}

impl<'a> PrincipalEntryView<'a> {
    /// Parse the on-disk value format.
    pub fn decode(buf: &'a [u8]) -> Result<Self, DbError> {
        let mut r = Reader { buf };
        let version = r.u8()?;
        if version != 1 {
            return Err(DbError::Corrupt(format!("record version {version}")));
        }
        let entry = PrincipalEntryView {
            name: r.string()?,
            instance: r.string()?,
            key_encrypted: *r.array()?,
            key_version: r.u8()?,
            expiration: u32::from_be_bytes(*r.array()?),
            max_life: r.u8()?,
            attributes: u16::from_be_bytes(*r.array()?),
            mod_time: u32::from_be_bytes(*r.array()?),
            mod_by: r.string()?,
        };
        if !r.buf.is_empty() {
            return Err(DbError::Corrupt("trailing bytes in record".into()));
        }
        Ok(entry)
    }

    /// An owned copy.
    pub fn to_owned(&self) -> PrincipalEntry {
        PrincipalEntry {
            name: self.name.to_owned(),
            instance: self.instance.to_owned(),
            key_encrypted: self.key_encrypted,
            key_version: self.key_version,
            expiration: self.expiration,
            max_life: self.max_life,
            attributes: self.attributes,
            mod_time: self.mod_time,
            mod_by: self.mod_by.to_owned(),
        }
    }
}

/// Append a 1-byte-length-prefixed string. The length field holds at most
/// 255, so a longer string is cut at the last character boundary that
/// fits: the record always says what it carries.
fn push_str(out: &mut Vec<u8>, s: &str) {
    let fits = s.floor_char_boundary(usize::from(u8::MAX));
    out.push(fits as u8);
    out.extend_from_slice(s.as_bytes().get(..fits).unwrap_or_default());
}

/// What is left of the record being parsed.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], DbError> {
        let (head, rest) =
            self.buf.split_at_checked(n).ok_or_else(|| DbError::Corrupt("truncated record".into()))?;
        self.buf = rest;
        Ok(head)
    }
    fn array<const N: usize>(&mut self) -> Result<&'a [u8; N], DbError> {
        let (head, rest) = self
            .buf
            .split_first_chunk::<N>()
            .ok_or_else(|| DbError::Corrupt("truncated record".into()))?;
        self.buf = rest;
        Ok(head)
    }
    fn u8(&mut self) -> Result<u8, DbError> {
        self.array::<1>().map(|&[b]| b)
    }
    fn string(&mut self) -> Result<&'a str, DbError> {
        let len = usize::from(self.u8()?);
        std::str::from_utf8(self.bytes(len)?).map_err(|_| DbError::Corrupt("non-UTF-8 name".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PrincipalEntry {
        PrincipalEntry {
            name: "jis".into(),
            instance: "".into(),
            key_encrypted: [1, 2, 3, 4, 5, 6, 7, 8],
            key_version: 3,
            expiration: 1_900_000_000,
            max_life: 96, // 8 hours in 5-minute units
            attributes: 0,
            mod_time: 1_700_000_000,
            mod_by: "steiner.admin".into(),
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let e = sample();
        assert_eq!(PrincipalEntry::decode(&e.encode()).unwrap(), e);
    }

    #[test]
    fn an_over_long_field_is_cut_not_desynchronised() {
        // 300 bytes, with a two-byte character straddling byte 255.
        let long = format!("{}é{}", "a".repeat(254), "b".repeat(44));
        let e = PrincipalEntry { mod_by: long.clone(), ..sample() };
        let back = PrincipalEntry::decode(&e.encode()).expect("the record agrees with itself");
        assert_eq!(back.mod_by, "a".repeat(254), "cut at the last boundary within 255");
        assert_eq!(PrincipalEntry { mod_by: long, ..back }, e, "every other field survives");
        let exact = PrincipalEntry { mod_by: "c".repeat(255), ..sample() };
        assert_eq!(PrincipalEntry::decode(&exact.encode()).unwrap(), exact);
    }

    #[test]
    fn decode_rejects_truncation() {
        let buf = sample().encode();
        for cut in [0, 1, 5, buf.len() - 1] {
            assert!(PrincipalEntry::decode(&buf[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut buf = sample().encode();
        buf.push(0);
        assert!(PrincipalEntry::decode(&buf).is_err());
    }

    #[test]
    fn decode_rejects_unknown_version() {
        let mut buf = sample().encode();
        buf[0] = 9;
        assert!(PrincipalEntry::decode(&buf).is_err());
    }

    #[test]
    fn db_key_format() {
        assert_eq!(PrincipalEntry::db_key("rlogin", "priam"), b"rlogin.priam");
        assert_eq!(PrincipalEntry::db_key("bcn", ""), b"bcn.");
    }

    #[test]
    fn component_validation() {
        assert!(PrincipalEntry::validate_name("rlogin").is_ok());
        assert!(PrincipalEntry::validate_name("").is_ok());
        assert!(PrincipalEntry::validate_name("a.b").is_err(), "no dots in names");
        assert!(PrincipalEntry::validate_instance("ATHENA.MIT.EDU").is_ok(), "dots ok in instances");
        assert!(PrincipalEntry::validate_instance("a@b").is_err());
        assert!(PrincipalEntry::validate_instance("a b").is_err());
        assert!(PrincipalEntry::validate_instance(&"x".repeat(41)).is_err());
    }
}
