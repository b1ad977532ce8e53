//! Tickets (paper §4.1, Figure 3).
//!
//! > `{s, c, addr, timestamp, life, Ks,c} Ks`
//!
//! "A ticket is good for a single server and a single client. It contains
//! the name of the server, the name of the client, the Internet address of
//! the client, a time stamp, a lifetime, and a random session key. This
//! information is encrypted using the key of the server for which the
//! ticket will be used." Because only the server (and Kerberos) know that
//! key, the client can carry and present the ticket but cannot read or
//! modify it.

use crate::scratch::Scratch;
use crate::wire::{sealed_len, Reader, Writer};
use crate::{ErrorCode, HostAddr, KrbResult, Principal};
use krb_crypto::{DesKey, Scheduled, SecretKey};

/// The plaintext contents of a ticket.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Ticket {
    /// Server primary name (`s`).
    pub sname: String,
    /// Server instance.
    pub sinstance: String,
    /// Client primary name (`c`).
    pub cname: String,
    /// Client instance.
    pub cinstance: String,
    /// Realm in which the client was *originally* authenticated. For
    /// cross-realm tickets this is the foreign realm (paper §7.2:
    /// "Credentials valid in a remote realm indicate the realm in which the
    /// user was originally authenticated").
    pub crealm: String,
    /// The client's network address (`addr`).
    pub addr: HostAddr,
    /// Issue timestamp (`timestamp`), seconds since the epoch.
    pub timestamp: u32,
    /// Lifetime in 5-minute units (`life`).
    pub life: u8,
    /// The session key `Ks,c` shared by server and client. Held as a
    /// [`SecretKey`] so a `{:?}` on the ticket can never print it.
    pub session_key: SecretKey,
}

/// A ticket's plaintext read where it lies: the fields of [`Ticket`], the
/// names and the session key borrowed from the buffer that was parsed (a
/// [`Scratch`] the ticket was opened in) or from whoever is about to write
/// one. This is the ticket parser and the ticket encoder; [`Ticket`] is
/// its owned copy.
#[derive(Clone, Copy)]
pub struct TicketView<'a> {
    /// Server primary name (`s`).
    pub sname: &'a str,
    /// Server instance.
    pub sinstance: &'a str,
    /// Client primary name (`c`).
    pub cname: &'a str,
    /// Client instance.
    pub cinstance: &'a str,
    /// Realm in which the client was originally authenticated.
    pub crealm: &'a str,
    /// The client's network address (`addr`).
    pub addr: HostAddr,
    /// Issue timestamp, seconds since the epoch.
    pub timestamp: u32,
    /// Lifetime in 5-minute units.
    pub life: u8,
    /// The session key `Ks,c`, still in the buffer it was read from.
    pub session_key: &'a [u8; 8],
}

impl<'a> TicketView<'a> {
    /// Parse a ticket's plaintext; the whole of `buf` must be the ticket.
    pub fn decode(buf: &'a [u8]) -> KrbResult<Self> {
        let mut r = Reader::new(buf);
        let t = TicketView {
            sname: r.str_ref()?,
            sinstance: r.str_ref()?,
            cname: r.str_ref()?,
            cinstance: r.str_ref()?,
            crealm: r.str_ref()?,
            addr: r.addr()?,
            timestamp: r.u32()?,
            life: r.u8()?,
            session_key: r.block_ref()?,
        };
        r.expect_end()?;
        Ok(t)
    }

    /// Append the ticket's plaintext.
    pub fn write(&self, w: &mut Writer) {
        w.str(self.sname);
        w.str(self.sinstance);
        w.str(self.cname);
        w.str(self.cinstance);
        w.str(self.crealm);
        w.addr(&self.addr);
        w.u32(self.timestamp);
        w.u8(self.life);
        w.block(self.session_key);
    }

    /// Decrypt `sealed` in `scratch` with the server's key schedule and
    /// read it there. A wrong key (ticket not for us, or a forgery) yields
    /// [`ErrorCode::RdApNotUs`].
    pub fn open_in(scratch: &'a mut Scratch, sealed: &[u8], server: &Scheduled) -> KrbResult<Self> {
        let plain = scratch.unseal(server, sealed).map_err(|_| ErrorCode::RdApNotUs)?;
        TicketView::decode(plain).map_err(|_| ErrorCode::RdApNotUs)
    }

    /// The client principal named in the ticket, as borrowed components.
    pub fn client(&self) -> (&'a str, &'a str, &'a str) {
        (self.cname, self.cinstance, self.crealm)
    }

    /// An owned copy.
    pub fn to_owned(&self) -> Ticket {
        Ticket {
            sname: self.sname.to_owned(),
            sinstance: self.sinstance.to_owned(),
            cname: self.cname.to_owned(),
            cinstance: self.cinstance.to_owned(),
            crealm: self.crealm.to_owned(),
            addr: self.addr,
            timestamp: self.timestamp,
            life: self.life,
            session_key: SecretKey::new(*self.session_key),
        }
    }

    /// Bytes [`TicketView::write`] appends (names within the wire limit).
    pub(crate) fn encoded_len(&self) -> usize {
        let names = [self.sname, self.sinstance, self.cname, self.cinstance, self.crealm];
        names.iter().map(|n| 1 + n.len()).sum::<usize>() + 17
    }

    /// Encrypt in the server's key schedule (PCBC, zero IV — the key is
    /// random per principal, so IV reuse across *different* keys is benign,
    /// matching V4): the plaintext is written into the `Vec` that is
    /// returned and sealed there.
    pub fn seal_with(&self, server: &Scheduled) -> EncryptedTicket {
        EncryptedTicket(Writer::sealed(sealed_len(self.encoded_len()), server, |w| self.write(w)))
    }
}

/// A ticket encrypted in the server's key — the only form that ever crosses
/// the network or rests in a credential cache.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EncryptedTicket(pub Vec<u8>);

impl Ticket {
    /// Construct a ticket for client `c` to use server `s`.
    pub fn new(
        server: &Principal,
        client: &Principal,
        addr: HostAddr,
        timestamp: u32,
        life: u8,
        session_key: impl Into<SecretKey>,
    ) -> Self {
        Ticket {
            sname: server.name.clone(),
            sinstance: server.instance.clone(),
            cname: client.name.clone(),
            cinstance: client.instance.clone(),
            crealm: client.realm.clone(),
            addr,
            timestamp,
            life,
            session_key: session_key.into(),
        }
    }

    /// The client principal named in the ticket.
    pub fn client(&self) -> Principal {
        Principal {
            name: self.cname.clone(),
            instance: self.cinstance.clone(),
            realm: self.crealm.clone(),
        }
    }

    /// This ticket as a view of its own fields.
    pub fn view(&self) -> TicketView<'_> {
        TicketView {
            sname: &self.sname,
            sinstance: &self.sinstance,
            cname: &self.cname,
            cinstance: &self.cinstance,
            crealm: &self.crealm,
            addr: self.addr,
            timestamp: self.timestamp,
            life: self.life,
            session_key: self.session_key.as_bytes(),
        }
    }

    /// Encrypt this ticket in the server's key.
    pub fn seal(&self, server_key: &DesKey) -> EncryptedTicket {
        self.seal_with(&Scheduled::new(server_key))
    }

    /// [`Ticket::seal`] under a precomputed schedule — the KDC issues every
    /// TGS ticket in the same cached service key.
    pub fn seal_with(&self, server: &Scheduled) -> EncryptedTicket {
        self.view().seal_with(server)
    }
}

impl EncryptedTicket {
    /// Decrypt with the server's key. A wrong key (ticket not for us, or a
    /// forgery) yields [`ErrorCode::RdApNotUs`].
    pub fn open(&self, server_key: &DesKey) -> KrbResult<Ticket> {
        self.open_with(&Scheduled::new(server_key))
    }

    /// [`EncryptedTicket::open`] under a precomputed schedule (long-lived
    /// servers hold one per srvtab key). The plaintext is read in a
    /// [`Scratch`] that is wiped before this returns.
    pub fn open_with(&self, server: &Scheduled) -> KrbResult<Ticket> {
        TicketView::open_in(&mut Scratch::new(), &self.0, server).map(|t| t.to_owned())
    }

    /// Ciphertext length in bytes (for the wire-size experiment, E2).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the ciphertext is empty (never true for a sealed ticket).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use krb_crypto::string_to_key;

    fn athena(p: &str) -> Principal {
        Principal::parse(p, "ATHENA.MIT.EDU").unwrap()
    }

    fn sample() -> Ticket {
        Ticket::new(
            &athena("rlogin.priam"),
            &athena("bcn"),
            [18, 72, 0, 5],
            700_000,
            96,
            [9, 8, 7, 6, 5, 4, 3, 2],
        )
    }

    #[test]
    fn seal_open_round_trip() {
        let server_key = string_to_key("rlogin-priam-srvtab");
        let sealed = sample().seal(&server_key);
        let opened = sealed.open(&server_key).unwrap();
        assert_eq!(opened, sample());
    }

    #[test]
    fn wrong_key_is_not_us() {
        let sealed = sample().seal(&string_to_key("right"));
        assert_eq!(
            sealed.open(&string_to_key("wrong")).unwrap_err(),
            ErrorCode::RdApNotUs
        );
    }

    #[test]
    fn client_cannot_tamper_with_its_ticket() {
        // "it is safe to allow the user to pass the ticket on to the server
        // without having to worry about the user modifying the ticket".
        let key = string_to_key("server");
        let sealed = sample().seal(&key);
        for i in 0..sealed.0.len() {
            let mut forged = sealed.clone();
            forged.0[i] ^= 0x01;
            match forged.open(&key) {
                Err(_) => {}
                Ok(t) => assert_ne!(t, sample(), "bit flip at {i} must not be invisible"),
            }
        }
    }

    #[test]
    fn ticket_binds_client_realm() {
        let mut t = sample();
        t.crealm = "LCS.MIT.EDU".into();
        let key = string_to_key("server");
        let opened = t.seal(&key).open(&key).unwrap();
        assert_eq!(opened.crealm, "LCS.MIT.EDU");
        assert_eq!(opened.client().realm, "LCS.MIT.EDU");
    }

    #[test]
    fn sealed_size_is_modest() {
        // The V4 ticket was bounded at 255 bytes of ciphertext; ours is the
        // same order. Recorded by the E2 bench; sanity-check the bound here.
        let sealed = sample().seal(&string_to_key("k"));
        assert!(sealed.len() <= 128, "sealed ticket is {} bytes", sealed.len());
    }

    #[test]
    fn truncated_ciphertext_fails_cleanly() {
        let key = string_to_key("server");
        let sealed = sample().seal(&key);
        for cut in [0, 1, 7, 8, sealed.0.len() - 8] {
            let t = EncryptedTicket(sealed.0[..cut].to_vec());
            assert!(t.open(&key).is_err(), "cut at {cut}");
        }
    }
}
