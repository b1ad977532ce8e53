//! Kerberos principal names (paper §3, Figure 2).
//!
//! "A name consists of a primary name, an instance, and a realm, expressed
//! as `name.instance@realm`." Users and servers are named identically; "as
//! far as the authentication server is concerned, they are equivalent."

use crate::{ErrorCode, KrbResult};

/// Maximum length of a component or realm (V4's `ANAME_SZ`/`REALM_SZ`).
pub const COMPONENT_MAX: usize = 40;

/// A fully qualified principal name.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Principal {
    /// Primary name: the user or the service ("rlogin", "bcn").
    pub name: String,
    /// Instance: privilege variant for users ("root", "admin"), host for
    /// services ("priam"). Empty is the NULL instance.
    pub instance: String,
    /// Realm: the administrative entity ("ATHENA.MIT.EDU").
    pub realm: String,
}

impl Principal {
    /// Construct with validation.
    pub fn new(name: &str, instance: &str, realm: &str) -> KrbResult<Self> {
        Principal::validate(name, instance, realm)?;
        Ok(Principal { name: name.into(), instance: instance.into(), realm: realm.into() })
    }

    /// The checks of [`Principal::new`] on borrowed components, for a
    /// caller that only needs to know the three would make a principal.
    pub fn validate(name: &str, instance: &str, realm: &str) -> KrbResult<()> {
        validate_name(name)?;
        validate_instance(instance)?;
        validate_realm(realm)?;
        if name.is_empty() {
            return Err(ErrorCode::KdcNameFormat);
        }
        Ok(())
    }

    /// Parse the textual form `name[.instance][@realm]`; a missing realm
    /// yields `default_realm` (Figure 2 shows bare `bcn` and `treese.root`).
    pub fn parse(text: &str, default_realm: &str) -> KrbResult<Self> {
        let (local, realm) = match text.split_once('@') {
            Some((l, r)) => (l, r),
            None => (text, default_realm),
        };
        let (name, instance) = match local.split_once('.') {
            Some((n, i)) => (n, i),
            None => (local, ""),
        };
        Principal::new(name, instance, realm)
    }

    /// The ticket-granting service principal for `realm`: `krbtgt.<realm>@<realm>`
    /// for the local TGS, or `krbtgt.<remote>@<local>` for a cross-realm TGT.
    pub fn tgs(for_realm: &str, in_realm: &str) -> Self {
        Principal {
            name: "krbtgt".into(),
            instance: for_realm.into(),
            realm: in_realm.into(),
        }
    }

    /// The password-changing service (paper §5.1): `changepw.kerberos`.
    pub fn kdbm(realm: &str) -> Self {
        Principal { name: "changepw".into(), instance: "kerberos".into(), realm: realm.into() }
    }

    /// `name.instance` without the realm (database key form).
    pub fn local_str(&self) -> String {
        if self.instance.is_empty() {
            self.name.clone()
        } else {
            format!("{}.{}", self.name, self.instance)
        }
    }

    /// The `admin` instance of this principal's primary name — the identity
    /// required on the KDBM access control list (paper §5.1).
    pub fn admin_variant(&self) -> Principal {
        Principal { name: self.name.clone(), instance: "admin".into(), realm: self.realm.clone() }
    }

    /// Whether two principals are the same entity ignoring realm.
    pub fn same_local(&self, other: &Principal) -> bool {
        self.name == other.name && self.instance == other.instance
    }
}

impl std::fmt::Display for Principal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.instance.is_empty() {
            write!(f, "{}@{}", self.name, self.realm)
        } else {
            write!(f, "{}.{}@{}", self.name, self.instance, self.realm)
        }
    }
}

/// Validate a primary name (no dots: the first dot in `name.instance` is
/// the separator).
pub fn validate_name(s: &str) -> KrbResult<()> {
    if s.contains('.') {
        return Err(ErrorCode::KdcNameFormat);
    }
    validate_instance(s)
}

/// Validate an instance. Dots are allowed: the `krbtgt` instance is a realm
/// name (`krbtgt.LCS.MIT.EDU@ATHENA.MIT.EDU`), and `Principal::parse`
/// splits on the *first* dot.
pub fn validate_instance(s: &str) -> KrbResult<()> {
    if s.len() > COMPONENT_MAX
        || s.contains(['@', '\0'])
        || s.chars().any(char::is_whitespace)
    {
        return Err(ErrorCode::KdcNameFormat);
    }
    Ok(())
}

/// Validate a realm (dots allowed: `ATHENA.MIT.EDU`).
pub fn validate_realm(s: &str) -> KrbResult<()> {
    if s.is_empty()
        || s.len() > COMPONENT_MAX
        || s.contains(['@', '\0'])
        || s.chars().any(char::is_whitespace)
    {
        return Err(ErrorCode::KdcNameFormat);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const ATHENA: &str = "ATHENA.MIT.EDU";

    #[test]
    fn parse_the_papers_figure_2_examples() {
        let bcn = Principal::parse("bcn", ATHENA).unwrap();
        assert_eq!((bcn.name.as_str(), bcn.instance.as_str(), bcn.realm.as_str()), ("bcn", "", ATHENA));

        let treese = Principal::parse("treese.root", ATHENA).unwrap();
        assert_eq!(treese.instance, "root");

        let jis = Principal::parse("jis@LCS.MIT.EDU", ATHENA).unwrap();
        assert_eq!(jis.realm, "LCS.MIT.EDU");

        let rlogin = Principal::parse("rlogin.priam@ATHENA.MIT.EDU", "OTHER").unwrap();
        assert_eq!(
            (rlogin.name.as_str(), rlogin.instance.as_str(), rlogin.realm.as_str()),
            ("rlogin", "priam", ATHENA)
        );
    }

    #[test]
    fn display_round_trips() {
        for text in ["bcn", "treese.root", "jis@LCS.MIT.EDU", "rlogin.priam@ATHENA.MIT.EDU"] {
            let p = Principal::parse(text, ATHENA).unwrap();
            let q = Principal::parse(&p.to_string(), "UNUSED").unwrap();
            assert_eq!(p, q, "{text}");
        }
    }

    #[test]
    fn rejects_illegal_names() {
        assert!(Principal::new("", "", ATHENA).is_err(), "empty name");
        assert!(Principal::new("a@b", "", ATHENA).is_err());
        assert!(Principal::new("ok", "in st", ATHENA).is_err());
        assert!(Principal::new("ok", "", "").is_err(), "empty realm");
        assert!(Principal::new(&"x".repeat(41), "", ATHENA).is_err());
    }

    #[test]
    fn tgs_principal_shapes() {
        let local = Principal::tgs(ATHENA, ATHENA);
        assert_eq!(local.to_string(), format!("krbtgt.{ATHENA}@{ATHENA}"));
        let remote = Principal::tgs("LCS.MIT.EDU", ATHENA);
        assert_eq!(remote.instance, "LCS.MIT.EDU");
        assert_eq!(remote.realm, ATHENA);
    }

    #[test]
    fn admin_variant_and_kdbm() {
        let u = Principal::parse("steiner", ATHENA).unwrap();
        assert_eq!(u.admin_variant().to_string(), format!("steiner.admin@{ATHENA}"));
        assert_eq!(Principal::kdbm(ATHENA).local_str(), "changepw.kerberos");
    }

    #[test]
    fn users_and_servers_are_the_same_kind() {
        // §3: "both users and servers are named ... they are equivalent":
        // the same type, the same comparison, interchangeable in maps.
        let user = Principal::parse("bcn", ATHENA).unwrap();
        let server = Principal::parse("rlogin.priam", ATHENA).unwrap();
        let mut set = std::collections::HashSet::new();
        set.insert(user.clone());
        set.insert(server.clone());
        assert!(set.contains(&user) && set.contains(&server));
        assert!(!user.same_local(&server));
    }
}
