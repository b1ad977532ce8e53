//! The attacker's knowledge base and derivation closure.
//!
//! Dolev–Yao terms for the V4 wire: every observed datagram is split into
//! typed atoms (names, numbers, addresses) and opaque ciphertext blobs;
//! any blob decryptable with a learned key yields its plaintext terms,
//! which can in turn unlock further blobs. The closure is saturated after
//! every observation, so "what can the attacker derive?" is always a
//! lookup, never a search — which is what makes the secrecy oracle a
//! machine check instead of an argument.
//!
//! Keys never leave this module as bytes: the public view is a
//! *fingerprint* — DES of a fixed public block under the key (the
//! ciphertext-call pattern) — so dumps and reports can name a key without
//! containing it.

use kerberos::{Authenticator, EncKdcReplyPart, EncryptedTicket, Message, SealedAuthenticator};
use krb_apps::parse_request;
use krb_crypto::{encrypt_raw_with, unseal_with, DesKey, Mode, Scheduled};
use krb_netsim::Packet;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Fixed public block whose encryption under a key is that key's
/// fingerprint. Knowing the fingerprint does not reveal the key (it is
/// one DES ciphertext block); equal fingerprints mean equal keys for
/// every key this simulation can mint.
const FP_BLOCK: &[u8; 8] = b"advy-fp\0";

/// Public, non-reversing fingerprint of a DES key.
pub fn key_fingerprint(k: &DesKey) -> u64 {
    let ct = encrypt_raw_with(Mode::Pcbc, &Scheduled::new(k), &[0u8; 8], FP_BLOCK).unwrap_or_default();
    let mut b = [0u8; 8];
    if ct.len() >= 8 {
        b.copy_from_slice(&ct[..8]);
    }
    u64::from_be_bytes(b)
}

/// FNV-1a over bytes — blob identity within the knowledge base.
pub fn blob_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// An atomic term the attacker has read off the wire or derived.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Atom {
    /// A principal/instance/realm/op name.
    Name(String),
    /// A number: timestamp, lifetime, nonce, port, checksum.
    Num(u64),
    /// A network address.
    Addr([u8; 4]),
}

/// A key in the closure, with how it got there. No `Debug`: the key
/// material must not be printable by accident.
struct LearnedKey {
    key: DesKey,
    via: String,
}

/// A derived credential: a sealed ticket paired with the session key that
/// matches it — everything needed to impersonate the client to `sname`.
#[derive(Clone)]
pub struct LearnedCred {
    /// Service primary name the ticket is for.
    pub sname: String,
    /// Service instance.
    pub sinstance: String,
    /// Issuing realm.
    pub srealm: String,
    /// Fingerprint of the matching session key (look it up in the base).
    pub key_fp: u64,
    /// The sealed ticket bytes, replayable as-is.
    pub ticket: Vec<u8>,
    /// Lifetime granted.
    pub life: u8,
    /// Issue time.
    pub issued: u32,
    /// Key version of the sealing key.
    pub kvno: u8,
    /// Client (name, instance, realm) when the ticket itself was opened.
    pub client: Option<(String, String, String)>,
    /// Client address, when the ticket itself was opened.
    pub addr: Option<[u8; 4]>,
}

/// The attacker's knowledge base. All containers are ordered so dumps and
/// iteration are deterministic for a given observation sequence.
#[derive(Default)]
pub struct Knowledge {
    keys: BTreeMap<u64, LearnedKey>,
    blobs: BTreeMap<u64, Vec<u8>>,
    atoms: BTreeSet<Atom>,
    creds: BTreeMap<u64, LearnedCred>,
    /// Client (name, instance) pairs seen in clear AS requests — forgery
    /// targets.
    clients: BTreeSet<(String, String)>,
    /// (key fingerprint, blob hash) pairs already tried, so saturation
    /// never repeats a decryption.
    attempted: BTreeSet<(u64, u64)>,
    /// Successful decryption/derivation steps taken.
    derivations: u64,
}

impl Knowledge {
    /// An empty knowledge base.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a key to the closure (a scenario leak, or a derivation) and
    /// saturate. Returns every key *newly* learned — the given one plus
    /// any cascade — as `(fingerprint, provenance)`.
    pub fn learn_key(&mut self, k: &DesKey, via: &str) -> Vec<(u64, String)> {
        let mut news = Vec::new();
        self.add_key(k, via, &mut news);
        self.saturate(&mut news);
        news
    }

    /// Observe one datagram off the wire: split it into terms and
    /// saturate. Returns keys newly learned as a consequence.
    pub fn observe_packet(&mut self, p: &Packet) -> Vec<(u64, String)> {
        let mut news = Vec::new();
        self.atoms.insert(Atom::Addr(p.src.addr.0));
        self.atoms.insert(Atom::Addr(p.dst.addr.0));
        self.atoms.insert(Atom::Num(u64::from(p.src.port)));
        self.atoms.insert(Atom::Num(u64::from(p.dst.port)));
        self.split_payload(&p.payload);
        self.saturate(&mut news);
        news
    }

    /// Is this exact key in the closure?
    pub fn knows_key(&self, k: &DesKey) -> bool {
        self.keys.contains_key(&key_fingerprint(k))
    }

    /// Is a key with this fingerprint in the closure?
    pub fn has_key_fp(&self, fp: u64) -> bool {
        self.keys.contains_key(&fp)
    }

    /// The key behind a fingerprint, for building forgeries.
    pub fn key(&self, fp: u64) -> Option<DesKey> {
        self.keys.get(&fp).map(|l| l.key)
    }

    /// All learned key fingerprints, ascending.
    pub fn key_fps(&self) -> Vec<u64> {
        self.keys.keys().copied().collect()
    }

    /// Derived credentials whose service primary name is `sname`, in
    /// deterministic (ticket-hash) order.
    pub fn creds_for(&self, sname: &str) -> Vec<&LearnedCred> {
        self.creds.values().filter(|c| c.sname == sname).collect()
    }

    /// Client (name, instance) pairs seen in clear AS requests.
    pub fn clients(&self) -> impl Iterator<Item = &(String, String)> {
        self.clients.iter()
    }

    /// (keys, credentials, blobs, atoms, derivations) counts.
    pub fn counts(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.keys.len() as u64,
            self.creds.len() as u64,
            self.blobs.len() as u64,
            self.atoms.len() as u64,
            self.derivations,
        )
    }

    /// Deterministic closure dump: fingerprints and provenance, never key
    /// bytes.
    pub fn dump(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "closure: keys={} creds={} blobs={} atoms={} derivations={}",
            self.keys.len(),
            self.creds.len(),
            self.blobs.len(),
            self.atoms.len(),
            self.derivations
        );
        for (fp, l) in &self.keys {
            let _ = writeln!(s, "  key fp={fp:016x} via={}", l.via);
        }
        for (h, c) in &self.creds {
            let _ = writeln!(
                s,
                "  cred ticket={h:016x} service={}.{}@{} key_fp={:016x} client={}",
                c.sname,
                c.sinstance,
                c.srealm,
                c.key_fp,
                match &c.client {
                    Some((n, i, _)) => format!("{n}.{i}"),
                    None => "?".to_string(),
                }
            );
        }
        s
    }

    // --- splitting -------------------------------------------------------

    fn split_payload(&mut self, payload: &[u8]) {
        match Message::decode(payload) {
            Ok(Message::AsReq(r)) => {
                self.clients.insert((r.cname.clone(), r.cinstance.clone()));
                for n in [r.cname, r.cinstance, r.crealm, r.sname, r.sinstance] {
                    self.atoms.insert(Atom::Name(n));
                }
                self.atoms.insert(Atom::Num(u64::from(r.life)));
                self.atoms.insert(Atom::Num(u64::from(r.ctime)));
            }
            Ok(Message::KdcRep(r)) => {
                self.add_blob(r.enc_part);
            }
            Ok(Message::TgsReq(r)) => {
                self.split_ap(r.ap.realm, r.ap.ticket.0, r.ap.authenticator);
                self.atoms.insert(Atom::Name(r.sname));
                self.atoms.insert(Atom::Name(r.sinstance));
                self.atoms.insert(Atom::Num(u64::from(r.life)));
            }
            Ok(Message::ApReq(ap)) => {
                self.split_ap(ap.realm, ap.ticket.0, ap.authenticator);
            }
            Ok(Message::ApRep(r)) => {
                self.add_blob(r.enc_part);
            }
            Ok(Message::Err(e)) => {
                self.atoms.insert(Atom::Num(e.code as u64));
                self.atoms.insert(Atom::Name(e.text));
            }
            Ok(_) => {
                self.add_blob(payload.to_vec());
            }
            Err(_) => {
                // Application framing (rlogin/POP/Zephyr requests), a +/-
                // reply, or something we cannot parse at all.
                if let Ok((ap, op, app_payload)) = parse_request(payload) {
                    self.split_ap(ap.realm, ap.ticket.0, ap.authenticator);
                    self.atoms.insert(Atom::Name(op));
                    self.atoms
                        .insert(Atom::Name(String::from_utf8_lossy(&app_payload).into_owned()));
                } else if payload.first() == Some(&b'+') {
                    self.add_blob(payload[1..].to_vec());
                } else if payload.first() != Some(&b'-') {
                    self.add_blob(payload.to_vec());
                }
            }
        }
    }

    fn split_ap(&mut self, realm: String, ticket: Vec<u8>, authenticator: Vec<u8>) {
        self.atoms.insert(Atom::Name(realm));
        self.add_blob(ticket);
        self.add_blob(authenticator);
    }

    fn add_blob(&mut self, bytes: Vec<u8>) {
        if bytes.is_empty() {
            return;
        }
        self.blobs.entry(blob_hash(&bytes)).or_insert(bytes);
    }

    fn add_key(&mut self, k: &DesKey, via: &str, news: &mut Vec<(u64, String)>) {
        let fp = key_fingerprint(k);
        if self.keys.contains_key(&fp) {
            return;
        }
        self.keys.insert(fp, LearnedKey { key: *k, via: via.to_string() });
        news.push((fp, via.to_string()));
    }

    fn upsert_cred(&mut self, cred: LearnedCred) {
        let h = blob_hash(&cred.ticket);
        match self.creds.get_mut(&h) {
            Some(existing) => {
                if existing.client.is_none() {
                    existing.client = cred.client;
                }
                if existing.addr.is_none() {
                    existing.addr = cred.addr;
                }
            }
            None => {
                self.creds.insert(h, cred);
            }
        }
    }

    // --- derivation closure ----------------------------------------------

    /// Try every (learned key, blob) pair not yet attempted until no new
    /// term appears. Each successful decryption may add keys, blobs and
    /// credentials, which re-enter the worklist.
    fn saturate(&mut self, news: &mut Vec<(u64, String)>) {
        loop {
            let mut progress = false;
            let fps: Vec<u64> = self.keys.keys().copied().collect();
            let blobs: Vec<(u64, Vec<u8>)> =
                self.blobs.iter().map(|(h, b)| (*h, b.clone())).collect();
            for fp in fps {
                for (h, bytes) in &blobs {
                    if !self.attempted.insert((fp, *h)) {
                        continue;
                    }
                    if self.try_interpret(fp, bytes, news) {
                        progress = true;
                    }
                }
            }
            if !progress {
                break;
            }
        }
    }

    /// Attempt every typed interpretation of `bytes` under the key with
    /// fingerprint `fp`. Wrong keys fail each format's integrity check.
    fn try_interpret(&mut self, fp: u64, bytes: &[u8], news: &mut Vec<(u64, String)>) -> bool {
        let Some(k) = self.key(fp) else { return false };
        let mut progress = self.learn_ticket(bytes, &k, news);
        progress |= self.learn_authenticator(bytes, &k);
        progress |= self.learn_reply(bytes, &k, news);
        progress
    }

    /// Derivation: `bytes` is a sealed ticket under `k` — learn the
    /// session key inside plus a forgeable credential.
    fn learn_ticket(&mut self, bytes: &[u8], k: &DesKey, news: &mut Vec<(u64, String)>) -> bool {
        let Ok(t) = ticket_open(bytes, k) else { return false };
        self.derivations += 1;
        let via = format!("session key inside ticket {}.{} for {}", t.sname, t.sinstance, t.cname);
        let tsk = t.session_key.as_des_key();
        self.add_key(&tsk, &via, news);
        self.atoms.insert(Atom::Addr(t.addr));
        self.atoms.insert(Atom::Num(u64::from(t.timestamp)));
        let cred = LearnedCred {
            sname: t.sname.clone(),
            sinstance: t.sinstance.clone(),
            srealm: t.crealm.clone(),
            key_fp: key_fingerprint(&tsk),
            ticket: bytes.to_vec(),
            life: t.life,
            issued: t.timestamp,
            kvno: 0,
            client: Some((t.cname.clone(), t.cinstance.clone(), t.crealm.clone())),
            addr: Some(t.addr),
        };
        for n in [t.sname, t.sinstance, t.cname, t.cinstance, t.crealm] {
            self.atoms.insert(Atom::Name(n));
        }
        self.upsert_cred(cred);
        true
    }

    /// Derivation: `bytes` is a sealed authenticator under `k` — learn
    /// the client identity and timestamps inside.
    fn learn_authenticator(&mut self, bytes: &[u8], k: &DesKey) -> bool {
        let Ok(a) = authenticator_open(bytes, k) else { return false };
        self.derivations += 1;
        self.atoms.insert(Atom::Addr(a.addr));
        self.atoms.insert(Atom::Num(u64::from(a.timestamp)));
        self.atoms.insert(Atom::Num(u64::from(a.cksum)));
        for n in [a.cname, a.cinstance, a.crealm] {
            self.atoms.insert(Atom::Name(n));
        }
        true
    }

    /// Derivation: `bytes` is a sealed KDC reply part under `k` — learn
    /// the session key, the enclosed ticket blob, and a credential.
    fn learn_reply(&mut self, bytes: &[u8], k: &DesKey, news: &mut Vec<(u64, String)>) -> bool {
        let Ok(pt) = unseal_with(Mode::Pcbc, &Scheduled::new(k), &[0u8; 8], bytes) else { return false };
        let Ok(part) = EncKdcReplyPart::decode(&pt) else { return false };
        self.derivations += 1;
        let via = format!("session key in KDC reply for {}.{}", part.sname, part.sinstance);
        let psk = part.session_key.as_des_key();
        self.add_key(&psk, &via, news);
        let cred = LearnedCred {
            sname: part.sname.clone(),
            sinstance: part.sinstance.clone(),
            srealm: part.srealm.clone(),
            key_fp: key_fingerprint(&psk),
            ticket: part.ticket.0.clone(),
            life: part.life,
            issued: part.kdc_time,
            kvno: part.kvno,
            client: None,
            addr: None,
        };
        for n in [part.sname, part.sinstance, part.srealm] {
            self.atoms.insert(Atom::Name(n));
        }
        self.atoms.insert(Atom::Num(u64::from(part.kdc_time)));
        self.atoms.insert(Atom::Num(u64::from(part.nonce)));
        self.add_blob(cred.ticket.clone());
        self.upsert_cred(cred);
        true
    }
}

/// Open `bytes` as a sealed authenticator under `k`.
fn authenticator_open(bytes: &[u8], k: &DesKey) -> Result<Authenticator, kerberos::ErrorCode> {
    SealedAuthenticator(bytes.to_vec()).open_with(&Scheduled::new(k))
}

/// Open `bytes` as a sealed ticket under `k`.
fn ticket_open(bytes: &[u8], k: &DesKey) -> Result<kerberos::Ticket, kerberos::ErrorCode> {
    EncryptedTicket(bytes.to_vec()).open_with(&Scheduled::new(k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use krb_sim::attacks::rig;

    #[test]
    fn fingerprint_is_deterministic_and_key_specific() {
        let a = DesKey::from_bytes(*b"abcdefgh");
        let b = DesKey::from_bytes(*b"hgfedcba");
        assert_eq!(key_fingerprint(&a), key_fingerprint(&a));
        assert_ne!(key_fingerprint(&a), key_fingerprint(&b));
    }

    #[test]
    fn honest_traffic_yields_no_keys() {
        let mut r = rig(11);
        r.workstation.kinit(&mut r.router, "victim", "victim-pw").unwrap();
        let svc = r.service.clone();
        let _ = r.workstation.mk_request(&mut r.router, &svc, 0, false).unwrap();

        let mut kn = Knowledge::new();
        let tape = r.captured.lock().clone();
        for p in &tape {
            let news = kn.observe_packet(p);
            assert!(news.is_empty(), "passive observation must not learn keys");
        }
        let (keys, creds, blobs, atoms, derivations) = kn.counts();
        assert_eq!(keys, 0);
        assert_eq!(creds, 0);
        assert_eq!(derivations, 0);
        assert!(blobs > 0, "ciphertext blobs observed");
        assert!(atoms > 0, "clear terms observed");
        assert!(
            kn.clients().any(|(n, _)| n == "victim"),
            "AS request names its client in the clear"
        );
    }

    #[test]
    fn leaked_user_key_cascades_to_session_keys_and_credentials() {
        let mut r = rig(12);
        r.workstation.kinit(&mut r.router, "victim", "victim-pw").unwrap();
        let svc = r.service.clone();
        let (_, cred) = r.workstation.mk_request(&mut r.router, &svc, 0, false).unwrap();

        let mut kn = Knowledge::new();
        let tape = r.captured.lock().clone();
        for p in &tape {
            kn.observe_packet(p);
        }
        // The scenario leaks the user's key (paper §4.3: everything rests
        // on the user key staying secret) — the closure must cascade to
        // the TGT session key and the service session key.
        let news = kn.learn_key(&krb_crypto::string_to_key("victim-pw"), "scenario leak");
        assert!(news.len() >= 3, "leak + TGT session + service session, got {}", news.len());
        assert!(kn.knows_key(&cred.key()), "service session key derived from capture");
        assert!(!kn.creds_for("krbtgt").is_empty(), "TGT credential derived");
        assert!(!kn.creds_for("svc").is_empty(), "service credential derived");
        let fps = kn.key_fps();
        assert!(fps.contains(&key_fingerprint(&cred.key())));
    }

    #[test]
    fn leaked_service_key_opens_captured_tickets() {
        let mut r = rig(13);
        r.workstation.kinit(&mut r.router, "victim", "victim-pw").unwrap();
        let svc = r.service.clone();
        let (ap, cred) = r.workstation.mk_request(&mut r.router, &svc, 0, false).unwrap();
        // Put the AP_REQ on the wire the way an application would, so the
        // tape holds the service ticket.
        let wire = krb_apps::frame_request(&ap, "login", b"victim");
        let app_ep = krb_netsim::Endpoint::new([18, 72, 3, 40], krb_netsim::ports::KLOGIN);
        let ws_ep = r.workstation.endpoint;
        r.router.net().send(ws_ep, app_ep, wire);
        r.router.pump();

        let mut kn = Knowledge::new();
        let tape = r.captured.lock().clone();
        for p in &tape {
            kn.observe_packet(p);
        }
        let news = kn.learn_key(&r.service_key, "scenario leak");
        assert!(!news.is_empty());
        assert!(kn.knows_key(&cred.key()), "ticket opened, session key learned");
        let creds = kn.creds_for("svc");
        assert!(!creds.is_empty());
        let c = creds[0];
        assert_eq!(c.client.as_ref().map(|(n, _, _)| n.as_str()), Some("victim"));
        assert_eq!(c.addr, Some([18, 72, 3, 100]));
    }
}
