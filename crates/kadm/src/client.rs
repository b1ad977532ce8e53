//! Client sides of the administration protocol: `kpasswd` (§5.2, "Users may
//! change their Kerberos passwords") and `kadmin` ("Administrators ... add
//! principals to the database, or change the passwords of existing
//! principals"). Both "fetch a ticket for the KDBM server" by password —
//! through the AS, never the TGS (Figure 12).

use crate::proto::{AdminOp, AdminRequest};
use kerberos::{
    build_as_req, krb_mk_priv, krb_mk_req, read_as_reply_with_password, Credential, ErrorCode,
    HostAddr, KrbResult, Message, Principal,
};
use krb_crypto::{string_to_key, Scheduled};

/// Step 1: the AS request for a KDBM ticket. The KDBM's short lifetime
/// (12 units = 1 hour) marks AS-issued admin tickets.
pub fn build_kdbm_ticket_request(client: &Principal, now: u32) -> Vec<u8> {
    build_as_req(client, &Principal::kdbm(&client.realm), 12, now)
}

/// Step 2: interpret the AS reply using the password typed at the prompt
/// ("An administrator is required to enter the password ... when they
/// invoke the kadmin program"; `kpasswd` asks for the old password).
pub fn read_kdbm_ticket_reply(reply: &[u8], password: &str, request_time: u32) -> KrbResult<Credential> {
    read_as_reply_with_password(reply, password, request_time)
}

/// Step 3: wrap an [`AdminOp`] into the authenticated, sealed envelope.
pub fn build_admin_request(
    cred: &Credential,
    client: &Principal,
    addr: HostAddr,
    now: u32,
    op: &AdminOp,
) -> Vec<u8> {
    let ap = krb_mk_req(&cred.ticket, &cred.issuing_realm, &cred.key(), client, addr, now, 0, false);
    let sealed = krb_mk_priv(&op.encode(), &Scheduled::new(&cred.key()), addr, now);
    AdminRequest { ap, sealed_op: sealed.enc_part }.encode()
}

/// Step 4: interpret the KDBM's status reply.
pub fn read_admin_reply(reply: &[u8]) -> KrbResult<()> {
    match Message::decode(reply)? {
        Message::Err(e) if e.code == ErrorCode::Ok => Ok(()),
        Message::Err(e) => Err(e.code),
        _ => Err(ErrorCode::KadmBadReq),
    }
}

/// The complete `kpasswd` operation payload: derive the new key from the
/// new password locally — the password itself never leaves the workstation,
/// and the key travels only inside a private message.
pub fn kpasswd_op(new_password: &str) -> AdminOp {
    AdminOp::ChangeOwnPassword { new_key: *string_to_key(new_password).as_bytes() }
}

/// The `kadmin add_new_key` operation payload.
pub fn kadmin_add_op(name: &str, instance: &str, password: &str, expiration: u32, max_life: u8) -> AdminOp {
    AdminOp::AddPrincipal {
        name: name.to_string(),
        instance: instance.to_string(),
        key: *string_to_key(password).as_bytes(),
        expiration,
        max_life,
    }
}

/// The `kadmin change_password` operation payload.
pub fn kadmin_cpw_op(name: &str, instance: &str, new_password: &str) -> AdminOp {
    AdminOp::ChangePasswordOf {
        name: name.to_string(),
        instance: instance.to_string(),
        new_key: *string_to_key(new_password).as_bytes(),
    }
}
