//! Byte-level encoding helpers shared by every protocol structure.
//!
//! The reproduction uses a faithful big-endian binary codec (see DESIGN.md:
//! field-for-field equivalent to V4's wire format, not bit-for-bit). Strings
//! are length-prefixed with one byte — principal components are capped at 40
//! characters, realms at 40 — and byte strings with two bytes.

use crate::{ErrorCode, KrbResult};
use krb_crypto::{seal_in_place, seal_nested_in_place, CryptoError, Mode, Scheduled, BLOCK};

/// Incremental writer over a growable buffer — its own, or one a caller
/// handed over with [`Writer::over`] to have more appended to it.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

/// A region of a [`Writer`]'s buffer that [`Writer::end_sealed`] will
/// encrypt where it lies (see [`Writer::begin_sealed`]).
#[must_use = "an unclosed scope leaves its plaintext in the message"]
pub struct SealScope {
    /// Offset of the reserved 4-byte length slot the seal starts at.
    start: usize,
    /// Whether a 2-byte byte-string length field sits right before it.
    framed: bool,
}

impl Writer {
    /// Start with an empty buffer.
    pub fn new() -> Self {
        Writer { buf: Vec::with_capacity(128) }
    }

    /// Append to `buf`: what it already holds stays in front.
    pub fn over(buf: Vec<u8>) -> Self {
        Writer { buf }
    }

    /// Finish, returning the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    /// Append a big-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    /// Append a big-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    /// Append a 1-byte-length-prefixed string. The length field holds at
    /// most 255, so a longer string is cut at the last character boundary
    /// that fits: the frame always says what it carries.
    pub fn str(&mut self, s: &str) {
        let fits = s.floor_char_boundary(usize::from(u8::MAX));
        self.buf.push(fits as u8);
        self.buf.extend_from_slice(s.as_bytes().get(..fits).unwrap_or_default());
    }
    /// Append a 2-byte-length-prefixed byte string, cut at 65535 bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        let fits = b.len().min(usize::from(u16::MAX));
        self.u16(fits as u16);
        self.buf.extend_from_slice(b.get(..fits).unwrap_or_default());
    }
    /// Append exactly 4 bytes (host addresses).
    pub fn addr(&mut self, a: &[u8; 4]) {
        self.buf.extend_from_slice(a);
    }
    /// Append exactly 8 bytes (keys, single blocks).
    pub fn block(&mut self, b: &[u8; 8]) {
        self.buf.extend_from_slice(b);
    }

    /// A buffer of `capacity` bytes holding one sealed scope: what `write`
    /// appends, sealed under `sched` — `krb_crypto::seal_with` of those
    /// bytes, without the copy. A `Writer`'s fields are each at most 64 KiB,
    /// so the plaintext always fits the seal's length field; were that ever
    /// untrue the result is empty — ciphertext no key opens — rather than a
    /// panic or plaintext.
    pub fn sealed(capacity: usize, sched: &Scheduled, write: impl FnOnce(&mut Writer)) -> Vec<u8> {
        let mut w = Writer::over(Vec::with_capacity(capacity));
        let scope = w.begin_sealed();
        write(&mut w);
        match w.end_sealed(scope, sched) {
            Ok(()) => w.finish(),
            Err(_) => Vec::new(),
        }
    }

    /// Open a sealed scope at the current offset: everything written until
    /// the matching [`Writer::end_sealed`] is that scope's plaintext, and
    /// is encrypted there, where it lies — PCBC, zero IV, the framing of
    /// `krb_crypto::seal_with`. Scopes nest; close the innermost first.
    pub fn begin_sealed(&mut self) -> SealScope {
        let start = self.buf.len();
        self.buf.extend_from_slice(&[0u8; 4]);
        SealScope { start, framed: false }
    }

    /// [`Writer::begin_sealed`] as a byte-string field: the ciphertext ends
    /// up behind a 2-byte length, as if written with [`Writer::bytes`].
    pub fn begin_sealed_bytes(&mut self) -> SealScope {
        self.u16(0);
        SealScope { framed: true, ..self.begin_sealed() }
    }

    /// Close `scope`: seal it under `sched` and patch the lengths. Fails —
    /// leaving the buffer useless — only if the ciphertext cannot be
    /// described by its length fields.
    pub fn end_sealed(&mut self, scope: SealScope, sched: &Scheduled) -> Result<(), CryptoError> {
        seal_in_place(Mode::Pcbc, sched, &[0u8; 8], &mut self.buf, scope.start)?;
        self.patch_field(scope)
    }

    /// Close `inner` and the scope `outer` it lies in at once — the same
    /// bytes as `end_sealed(inner, ..)` then `end_sealed(outer, ..)`, but
    /// the outer blocks in front of `inner` are encrypted side by side with
    /// it (`krb_crypto::seal_nested_in_place`). `inner` must be a
    /// byte-string field ([`Writer::begin_sealed_bytes`]) opened after
    /// `outer`.
    pub fn end_sealed_nested(
        &mut self,
        outer: SealScope,
        outer_sched: &Scheduled,
        inner: SealScope,
        inner_sched: &Scheduled,
    ) -> Result<(), CryptoError> {
        if !inner.framed {
            return Err(CryptoError::BadLength(inner.start));
        }
        let iv = &[0u8; 8];
        seal_nested_in_place(Mode::Pcbc, outer_sched, inner_sched, iv, &mut self.buf, outer.start, inner.start)?;
        self.patch_field(outer)
    }

    /// Write a closed byte-string scope's ciphertext length in front of it.
    fn patch_field(&mut self, scope: SealScope) -> Result<(), CryptoError> {
        if scope.framed {
            let sealed = self.buf.len() - scope.start;
            let len = u16::try_from(sealed).map_err(|_| CryptoError::BadLength(sealed))?;
            let field = scope.start.checked_sub(2).and_then(|at| self.buf.get_mut(at..scope.start));
            field.ok_or(CryptoError::BadLength(sealed))?.copy_from_slice(&len.to_be_bytes());
        }
        Ok(())
    }
}

/// Ciphertext length of a `plain`-byte sealed scope: the 4-byte length and
/// the payload, in whole blocks.
pub(crate) fn sealed_len(plain: usize) -> usize {
    (plain + 4).div_ceil(BLOCK) * BLOCK
}

/// Incremental reader with strict bounds checking. Every decode error maps
/// to [`ErrorCode::RdApUndec`] ("can't decode") as in the V4 library. The
/// `*_ref` readers lend slices of the input; nothing is copied until a
/// caller asks for an owned value.
pub struct Reader<'a> {
    /// The input not yet consumed.
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wrap a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Fail unless the whole input was consumed.
    pub fn expect_end(&self) -> KrbResult<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(ErrorCode::RdApUndec)
        }
    }

    fn take(&mut self, n: usize) -> KrbResult<&'a [u8]> {
        let (head, rest) = self.buf.split_at_checked(n).ok_or(ErrorCode::RdApUndec)?;
        self.buf = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> KrbResult<&'a [u8; N]> {
        let (head, rest) = self.buf.split_first_chunk::<N>().ok_or(ErrorCode::RdApUndec)?;
        self.buf = rest;
        Ok(head)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> KrbResult<u8> {
        self.array::<1>().map(|&[b]| b)
    }
    /// Read a big-endian u16.
    pub fn u16(&mut self) -> KrbResult<u16> {
        self.array().map(|b| u16::from_be_bytes(*b))
    }
    /// Read a big-endian u32.
    pub fn u32(&mut self) -> KrbResult<u32> {
        self.array().map(|b| u32::from_be_bytes(*b))
    }
    /// Borrow a 1-byte-length-prefixed string.
    pub fn str_ref(&mut self) -> KrbResult<&'a str> {
        let len = usize::from(self.u8()?);
        std::str::from_utf8(self.take(len)?).map_err(|_| ErrorCode::RdApUndec)
    }
    /// Read a 1-byte-length-prefixed string.
    pub fn str(&mut self) -> KrbResult<String> {
        self.str_ref().map(str::to_owned)
    }
    /// Borrow a 2-byte-length-prefixed byte string.
    pub fn bytes_ref(&mut self) -> KrbResult<&'a [u8]> {
        let len = usize::from(self.u16()?);
        self.take(len)
    }
    /// Read a 2-byte-length-prefixed byte string.
    pub fn bytes(&mut self) -> KrbResult<Vec<u8>> {
        self.bytes_ref().map(<[u8]>::to_vec)
    }
    /// Read exactly 4 bytes.
    pub fn addr(&mut self) -> KrbResult<[u8; 4]> {
        self.array().copied()
    }
    /// Borrow exactly 8 bytes.
    pub fn block_ref(&mut self) -> KrbResult<&'a [u8; 8]> {
        self.array()
    }
    /// Read exactly 8 bytes.
    pub fn block(&mut self) -> KrbResult<[u8; 8]> {
        self.array().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_field_kinds() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(513);
        w.u32(0xDEADBEEF);
        w.str("rlogin");
        w.bytes(b"ciphertext here");
        w.addr(&[18, 72, 0, 5]);
        w.block(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let buf = w.finish();

        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 513);
        assert_eq!(r.u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.str().unwrap(), "rlogin");
        assert_eq!(r.bytes().unwrap(), b"ciphertext here");
        assert_eq!(r.addr().unwrap(), [18, 72, 0, 5]);
        assert_eq!(r.block().unwrap(), [1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(r.expect_end().is_ok());
    }

    #[test]
    fn truncation_is_an_undec_error() {
        let mut w = Writer::new();
        w.str("kerberos");
        let buf = w.finish();
        let mut r = Reader::new(&buf[..4]);
        assert_eq!(r.str(), Err(ErrorCode::RdApUndec));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.u8().unwrap(), 1);
        assert_eq!(r.expect_end(), Err(ErrorCode::RdApUndec));
    }

    #[test]
    fn empty_string_and_bytes() {
        let mut w = Writer::new();
        w.str("");
        w.bytes(b"");
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.str().unwrap(), "");
        assert_eq!(r.bytes().unwrap(), b"");
    }

    /// The length fields are one and two bytes wide; a longer value used to
    /// be written whole behind a length that had wrapped (`300 as u8` = 44)
    /// in `--release`, where the `debug_assert!` guarding it is compiled
    /// out. Now the field is cut to what its length can say, strings at a
    /// character boundary, and what follows it still parses.
    #[test]
    fn over_long_fields_are_cut_to_what_their_length_can_say() {
        let long = "x".repeat(300);
        let accented = "é".repeat(150); // 300 bytes; byte 255 is mid-character
        let blob = vec![7u8; 70_000];
        let mut w = Writer::new();
        w.str(&long);
        w.str(&accented);
        w.bytes(&blob);
        w.u32(0xDEADBEEF);
        let buf = w.finish();

        let mut r = Reader::new(&buf);
        assert_eq!(r.str_ref().unwrap(), &long[..255]);
        assert_eq!(r.str_ref().unwrap(), "é".repeat(127));
        assert_eq!(r.bytes_ref().unwrap(), &blob[..65_535]);
        assert_eq!(r.u32().unwrap(), 0xDEADBEEF);
        assert!(r.expect_end().is_ok());
    }

    /// The nested close against two single closes, innermost first, and
    /// both against `seal_with` of each plaintext — 0, 1, 1 or 6 whole
    /// outer blocks in front of an inner scope of 1, 2 or 9 blocks, with
    /// the inner scope's 2-byte field after those blocks, inside the last
    /// of them, or across the last and the next (kbench's TGS reply).
    #[test]
    fn nested_close_equals_two_single_closes() {
        use krb_crypto::{seal_with, string_to_key};
        let (inner_key, outer_key) = (string_to_key("inner"), string_to_key("outer"));
        let (inner, outer) = (Scheduled::new(&inner_key), Scheduled::new(&outer_key));
        let seal = |sched, plain: &[u8]| seal_with(Mode::Pcbc, sched, &[0u8; 8], plain).unwrap();

        let (long_before, long_inner) = ("b".repeat(42), "i".repeat(66));
        let befores = ["", "b", "before", long_before.as_str()];
        let pairs = befores.iter().flat_map(|b| ["x", "innermost", long_inner.as_str()].map(|i| (*b, i)));
        for (before, innermost) in pairs {
            let write = |nested: bool| {
                let mut w = Writer::over(b"hdr".to_vec());
                let part = w.begin_sealed_bytes();
                w.str(before);
                let ticket = w.begin_sealed_bytes();
                w.str(innermost);
                if nested {
                    w.end_sealed_nested(part, &outer, ticket, &inner).unwrap();
                } else {
                    w.end_sealed(ticket, &inner).unwrap();
                    w.end_sealed(part, &outer).unwrap();
                }
                w.u8(9);
                w.finish()
            };
            let mut inner_plain = Writer::new();
            inner_plain.str(innermost);
            let mut plain = Writer::new();
            plain.str(before);
            plain.bytes(&seal(&inner, &inner_plain.finish()));
            let mut want = Writer::over(b"hdr".to_vec());
            want.bytes(&seal(&outer, &plain.finish()));
            want.u8(9);
            let want = want.finish();
            assert_eq!(write(false), want, "two closes, {before:?}");
            assert_eq!(write(true), want, "nested close, {before:?}");
        }

        let alone = Writer::sealed(16, &inner, |w| w.str("innermost"));
        assert_eq!(alone, seal(&inner, b"\x09innermost"));
    }

    #[test]
    fn a_nested_close_needs_a_byte_string_inner_scope() {
        let sched = Scheduled::new(&krb_crypto::string_to_key("k"));
        let mut w = Writer::new();
        let part = w.begin_sealed_bytes();
        w.str("head");
        let bare = w.begin_sealed();
        w.str("ticket");
        assert!(matches!(w.end_sealed_nested(part, &sched, bare, &sched), Err(CryptoError::BadLength(_))));
    }

    #[test]
    fn a_sealed_field_too_long_for_its_length_is_refused() {
        let sched = Scheduled::new(&krb_crypto::string_to_key("k"));
        let mut w = Writer::new();
        let scope = w.begin_sealed_bytes();
        for _ in 0..2 {
            w.bytes(&[0u8; 40_000]);
        }
        assert!(matches!(w.end_sealed(scope, &sched), Err(CryptoError::BadLength(_))));
    }

    #[test]
    fn non_utf8_string_rejected() {
        let buf = [2u8, 0xFF, 0xFE];
        let mut r = Reader::new(&buf);
        assert_eq!(r.str(), Err(ErrorCode::RdApUndec));
    }
}
