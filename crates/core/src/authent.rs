//! Authenticators (paper §4.1, Figure 4).
//!
//! > `{c, addr, timestamp} Ks,c`
//!
//! "Unlike the ticket, the authenticator can only be used once. A new one
//! must be generated each time a client wants to use a service. This does
//! not present a problem because the client is able to build the
//! authenticator itself." The authenticator proves the presenter of the
//! ticket knows the session key sealed inside it, and its timestamp is the
//! replay-detection handle.

use crate::scratch::Scratch;
use crate::ticket::TicketView;
use crate::wire::{sealed_len, Reader, Writer};
use crate::{ErrorCode, HostAddr, KrbResult, Principal};
use krb_crypto::Scheduled;

/// The plaintext contents of an authenticator.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Authenticator {
    /// Client primary name (`c`).
    pub cname: String,
    /// Client instance.
    pub cinstance: String,
    /// Realm in which the client was originally authenticated.
    pub crealm: String,
    /// The workstation's address (`addr`).
    pub addr: HostAddr,
    /// The current workstation time (`timestamp`).
    pub timestamp: u32,
    /// Application-data checksum bound into the request (`krb_mk_req` may
    /// carry "a checksum of the data to be sent", §6.2). Zero when unused.
    pub cksum: u32,
}

/// An authenticator's plaintext read where it lies: the fields of
/// [`Authenticator`] with the names borrowed. The authenticator parser and
/// encoder; [`Authenticator`] is its owned copy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AuthenticatorView<'a> {
    /// Client primary name (`c`).
    pub cname: &'a str,
    /// Client instance.
    pub cinstance: &'a str,
    /// Realm in which the client was originally authenticated.
    pub crealm: &'a str,
    /// The workstation's address (`addr`).
    pub addr: HostAddr,
    /// The current workstation time (`timestamp`).
    pub timestamp: u32,
    /// Application-data checksum; zero when unused.
    pub cksum: u32,
}

impl<'a> AuthenticatorView<'a> {
    /// An authenticator for `client` at `addr`, time `now`.
    pub fn new(client: &'a Principal, addr: HostAddr, now: u32, cksum: u32) -> Self {
        AuthenticatorView {
            cname: &client.name,
            cinstance: &client.instance,
            crealm: &client.realm,
            addr,
            timestamp: now,
            cksum,
        }
    }

    /// Parse an authenticator's plaintext; the whole of `buf` must be it.
    pub fn decode(buf: &'a [u8]) -> KrbResult<Self> {
        let mut r = Reader::new(buf);
        let a = AuthenticatorView {
            cname: r.str_ref()?,
            cinstance: r.str_ref()?,
            crealm: r.str_ref()?,
            addr: r.addr()?,
            timestamp: r.u32()?,
            cksum: r.u32()?,
        };
        r.expect_end()?;
        Ok(a)
    }

    /// Append the authenticator's plaintext.
    pub fn write(&self, w: &mut Writer) {
        w.str(self.cname);
        w.str(self.cinstance);
        w.str(self.crealm);
        w.addr(&self.addr);
        w.u32(self.timestamp);
        w.u32(self.cksum);
    }

    /// Decrypt `sealed` (the `authenticator` field of an `AP_REQ`) in
    /// `scratch` under the session-key schedule and read it there. Failure
    /// means the presenter did not know the session key.
    pub fn open_in(scratch: &'a mut Scratch, sealed: &[u8], session: &Scheduled) -> KrbResult<Self> {
        let plain = scratch.unseal(session, sealed).map_err(|_| ErrorCode::RdApIncon)?;
        AuthenticatorView::decode(plain).map_err(|_| ErrorCode::RdApIncon)
    }

    /// Ciphertext length of this authenticator.
    fn sealed_len(&self) -> usize {
        sealed_len(3 + self.cname.len() + self.cinstance.len() + self.crealm.len() + 12)
    }

    /// An owned copy.
    pub fn to_owned(&self) -> Authenticator {
        Authenticator {
            cname: self.cname.to_owned(),
            cinstance: self.cinstance.to_owned(),
            crealm: self.crealm.to_owned(),
            addr: self.addr,
            timestamp: self.timestamp,
            cksum: self.cksum,
        }
    }

    /// Whether this authenticator agrees with the identity sealed in a
    /// ticket (the server "compares the information in the ticket with that
    /// in the authenticator", §4.3).
    pub fn matches_ticket(&self, t: &TicketView<'_>) -> bool {
        self.cname == t.cname
            && self.cinstance == t.cinstance
            && self.crealm == t.crealm
            && self.addr == t.addr
    }

    /// Encrypt in the session key shared with the server: written into the
    /// `Vec` that is returned and sealed there.
    pub fn seal_with(&self, session: &Scheduled) -> SealedAuthenticator {
        SealedAuthenticator(Writer::sealed(self.sealed_len(), session, |w| self.write(w)))
    }
}

/// An authenticator encrypted in the session key.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SealedAuthenticator(pub Vec<u8>);

impl Authenticator {
    /// Build an authenticator for `client` at `addr`, time `now`.
    pub fn new(client: &Principal, addr: HostAddr, now: u32, cksum: u32) -> Self {
        AuthenticatorView::new(client, addr, now, cksum).to_owned()
    }

    /// This authenticator as a view of its own fields.
    pub fn view(&self) -> AuthenticatorView<'_> {
        AuthenticatorView {
            cname: &self.cname,
            cinstance: &self.cinstance,
            crealm: &self.crealm,
            addr: self.addr,
            timestamp: self.timestamp,
            cksum: self.cksum,
        }
    }

}

impl SealedAuthenticator {
    /// Decrypt under the session key's schedule. Failure means the
    /// presenter did not know the session key — the ticket was stolen
    /// without its key.
    pub fn open_with(&self, session: &Scheduled) -> KrbResult<Authenticator> {
        AuthenticatorView::open_in(&mut Scratch::new(), &self.0, session).map(|a| a.to_owned())
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ticket::Ticket;
    use krb_crypto::string_to_key;

    fn athena(p: &str) -> Principal {
        Principal::parse(p, "ATHENA.MIT.EDU").unwrap()
    }

    #[test]
    fn seal_open_round_trip() {
        let key = Scheduled::new(&string_to_key("session"));
        let a = Authenticator::new(&athena("bcn"), [18, 72, 0, 5], 12345, 77);
        let opened = a.view().seal_with(&key).open_with(&key).unwrap();
        assert_eq!(opened, a);
    }

    #[test]
    fn wrong_session_key_fails() {
        let a = Authenticator::new(&athena("bcn"), [1, 2, 3, 4], 1, 0);
        let sealed = a.view().seal_with(&Scheduled::new(&string_to_key("right")));
        assert_eq!(
            sealed.open_with(&Scheduled::new(&string_to_key("wrong"))).unwrap_err(),
            ErrorCode::RdApIncon
        );
    }

    #[test]
    fn matches_ticket_checks_all_identity_fields() {
        let client = athena("bcn");
        let server = athena("rlogin.priam");
        let addr = [18, 72, 0, 5];
        let t = Ticket::new(&server, &client, addr, 100, 96, [0; 8]);
        let good = Authenticator::new(&client, addr, 105, 0);
        assert!(good.view().matches_ticket(&t.view()));

        let wrong_user = Authenticator::new(&athena("jis"), addr, 105, 0);
        assert!(!wrong_user.view().matches_ticket(&t.view()));

        let wrong_addr = Authenticator::new(&client, [9, 9, 9, 9], 105, 0);
        assert!(!wrong_addr.view().matches_ticket(&t.view()));

        let mut foreign = good.clone();
        foreign.crealm = "LCS.MIT.EDU".into();
        assert!(!foreign.view().matches_ticket(&t.view()));
    }

    #[test]
    fn checksum_is_preserved() {
        let key = Scheduled::new(&string_to_key("k"));
        let a = Authenticator::new(&athena("bcn"), [1, 1, 1, 1], 42, 0xCAFEBABE);
        assert_eq!(a.view().seal_with(&key).open_with(&key).unwrap().cksum, 0xCAFEBABE);
    }
}
