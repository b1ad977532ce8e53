//! `krb-lint`: Kerberos-invariant static analysis for this workspace.
//!
//! Kerberos' security argument rests on invariants the type system alone
//! does not enforce, so this crate checks them mechanically on every test
//! run (see `tests/lint.rs` at the workspace root):
//!
//! - **L1 secret-hygiene**: a struct that carries raw key material
//!   (`[u8; 8]` session keys and friends) must not derive `Debug` unless
//!   the field is routed through a redacting wrapper (`DesKey`,
//!   `SecretKey`). Paper §2: the session key is the only secret shared
//!   between client and server — it must never reach logs.
//! - **L2 constant-time comparison**: key and checksum byte arrays must be
//!   compared with `crypto::ct_eq`, never `==`/`!=`, so a byte-by-byte
//!   early exit cannot become a timing oracle for forging authenticators.
//! - **L3 panic-free server paths**: request-handling code in the KDC,
//!   admin server, propagation daemon, and application servers must map
//!   malformed input to protocol errors (paper §6 error replies), not
//!   `unwrap`/`expect`/`panic!` — a remote peer must not be able to crash
//!   the authentication service.
//! - **L4 crate hygiene**: every crate forbids `unsafe_code` and carries
//!   crate-level docs.
//! - **L5 one counting substrate**: raw atomic counters (`AtomicU64`,
//!   `AtomicUsize`, `AtomicI64`) outside `crates/telemetry` are findings —
//!   ad-hoc counters dodge the registry (no export, no determinism
//!   contract). Use `krb_telemetry::Counter`/`Gauge` instead; genuinely
//!   non-metric atomics (e.g. a simulated-time cell) go in `lint.allow`
//!   with a justification.
//! - **L6 one schedule per key**: `FastDes::new`/`Des::new` outside
//!   `crates/crypto` are findings — constructing a raw cipher rebuilds the
//!   DES key schedule at the call site, dodging the `Scheduled` cache
//!   (DESIGN.md §10). Build a `Scheduled` once and pass it through the
//!   `*_with` API family instead. (Benches measuring the schedule cost
//!   itself are allowlisted.) So is a `pub fn` in `crates/crypto/src` or
//!   `crates/core/src` that takes a bare `&DesKey` and builds the
//!   `Scheduled` itself: a twin of a routine that takes the schedule.
//!   The few that stay are `lint.allow` entries, each with its reason.
//! - **L7 (retired)**: the old same-line "secret type next to
//!   `Field::from`" adjacency check. Superseded by L9, which tracks the
//!   actual flow instead of guessing from proximity; the id stays
//!   reserved so historical allowlist entries and docs remain readable.
//! - **L8 lock discipline**: a `MutexGuard`/`RwLockGuard` (bound from an
//!   empty-argument `.lock()`/`.read()`/`.write()`) must not be live
//!   across a blocking or I/O-shaped call (network send, RPC, kprop
//!   transfer, journal emission), whether held in a binding or created
//!   as a temporary inside the blocking call's own arguments; and nested
//!   guard acquisitions must follow the single declared lock order
//!   ([`lock::LOCK_ORDER`]). See [`lock`]. These are the hazards the
//!   ROADMAP-1 concurrent-KDC refactor will introduce; the rule lands
//!   first so the refactor inherits a fence, not a cleanup.
//! - **L9 secret-taint dataflow**: intraprocedural taint from secret
//!   sources (`DesKey`/`SecretKey`/`Scheduled` values, key-producing
//!   calls, password-named bindings) through `let`/assignment/method
//!   chains into plaintext sinks (`format!`-family macros, `Debug`
//!   formatting, the journal's `Field::from`) — including
//!   `format!("{key}")` inline captures that never mention the name
//!   outside the string literal. See [`taint`]. Paper §2: the session
//!   key is the only secret shared between client and server — it must
//!   never reach logs.
//!
//! Findings are suppressed only via the `lint.allow` file at the
//! workspace root, and unused allowlist entries are themselves errors, so
//! the allowlist can only shrink (burndown).
//!
//! The scanner is hand-rolled (its one dependency, `krb-telemetry`, only
//! renders `--json`): a lexer ([`lexer`]) strips
//! comments and string literals (retaining inline format captures), the
//! token rules (L1–L6) pattern-match the stream, and the scope rules
//! (L8/L9) run on a lightweight brace-tree IR ([`scope`]) built over it.
//! `#[cfg(test)]` items are excluded — tests may freely unwrap, print,
//! and hold locks however they like.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod lock;
pub mod scope;
pub mod taint;

use krb_telemetry::Json;
use lexer::{lex, Kind, Token};
use scope::ScopeModel;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Files whose non-test code handles remote requests (L3 scope), plus the
/// in-memory store every KDC lookup descends through, the file store that
/// parses pages off disk, the replay cache
/// every server's `krb_rd_req` consults, the wire decoders (message
/// envelope, admin protocol, monitoring frames) those requests pass first,
/// and the cipher every request runs, which opens attacker-supplied
/// ciphertext.
const SERVER_PATH_FILES: &[&str] = &[
    "crates/core/src/ap.rs",
    "crates/core/src/authent.rs",
    "crates/core/src/msg.rs",
    "crates/core/src/replay.rs",
    "crates/core/src/scratch.rs",
    "crates/core/src/ticket.rs",
    "crates/core/src/wire.rs",
    "crates/crypto/src/fast.rs",
    "crates/crypto/src/modes.rs",
    "crates/crypto/src/sched.rs",
    "crates/kdb/src/dump.rs",
    "crates/kdb/src/ndbm.rs",
    "crates/kdb/src/principal.rs",
    "crates/kdb/src/store.rs",
    "crates/kdc/src/server.rs",
    "crates/kdc/src/service.rs",
    "crates/kadm/src/proto.rs",
    "crates/kadm/src/server.rs",
    "crates/kprop/src/lib.rs",
    "crates/kprop/src/incr.rs",
    "crates/kprop/src/master.rs",
    "crates/kprop/src/net.rs",
    "crates/mon/src/frames.rs",
    "crates/mon/src/service.rs",
    "crates/netsim/src/udp.rs",
    "crates/nfs/src/server.rs",
    "crates/apps/src/lib.rs",
    "crates/apps/src/netproto.rs",
    "crates/apps/src/pop.rs",
    "crates/apps/src/rlogin.rs",
    "crates/apps/src/zephyr.rs",
];

/// Identifiers that denote key/checksum material for the L2 rule.
const L2_SECRET_IDENTS: &[&str] = &[
    "cksum",
    "checksum",
    "auth_hash",
    "digest",
    "session_key",
];

/// Field-name fragments that mark a struct field as key material (L1).
const L1_SECRET_FRAGMENTS: &[&str] = &["key", "secret", "password"];

/// Types that already redact themselves; fields of these types are exempt
/// from L1 even when the field name says "key".
const REDACTED_TYPES: &[&str] = &["DesKey", "SecretKey"];

/// Atomic integer types whose raw use outside `crates/telemetry` is an L5
/// finding — counters belong to the telemetry registry.
const L5_ATOMIC_TYPES: &[&str] = &["AtomicU64", "AtomicUsize", "AtomicI64"];

/// Raw cipher constructors whose use outside `crates/crypto` is an L6
/// finding — they rebuild the DES key schedule per call; hot paths must
/// hold a `Scheduled` instead.
const L6_CIPHER_TYPES: &[&str] = &["FastDes", "Des"];

/// Where a `pub fn` may not take a `&DesKey` and build its schedule (L6).
const L6_ADAPTER_DIRS: &[&str] = &["crates/crypto/src/", "crates/core/src/"];

/// Panic-family method calls and macros forbidden in server paths (L3).
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// One rule violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule id: `"L1"`..`"L9"` (`"L7"` is retired and never emitted).
    pub rule: &'static str,
    /// Path relative to the workspace root, with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The identifier the rule fired on; the allowlist keys on this.
    pub key: String,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{} [{}] {}",
            self.rule, self.file, self.line, self.key, self.message
        )
    }
}

/// One `lint.allow` entry: `rule path key` (whitespace-separated).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule id.
    pub rule: String,
    /// Workspace-relative path.
    pub file: String,
    /// The finding key the entry suppresses.
    pub key: String,
    /// Line in `lint.allow` (for diagnostics).
    pub line: u32,
}

impl fmt::Display for AllowEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.rule, self.file, self.key)
    }
}

/// The outcome of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations not covered by the allowlist — these fail the build.
    pub findings: Vec<Finding>,
    /// Violations suppressed by a `lint.allow` entry.
    pub allowed: Vec<Finding>,
    /// Allowlist entries that matched nothing — also failures: the
    /// allowlist must shrink as violations are fixed, never go stale.
    pub stale_allow: Vec<AllowEntry>,
    /// Total allowlist entries parsed (the burndown ceiling check).
    pub allow_count: usize,
    /// Number of source files scanned (a sanity signal: a run that
    /// scanned zero files proves nothing).
    pub files_scanned: usize,
}

impl Report {
    /// True when the workspace is clean: no live findings, no stale
    /// allowlist entries.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.stale_allow.is_empty()
    }

    /// Per-rule `(id, live, allowed)` counts over every active rule id,
    /// zeros included, so consumers see a stable schema.
    pub fn counts(&self) -> Vec<(&'static str, usize, usize)> {
        RULES
            .iter()
            .map(|r| {
                let live = self.findings.iter().filter(|f| f.rule == r.id).count();
                let allowed = self.allowed.iter().filter(|f| f.rule == r.id).count();
                (r.id, live, allowed)
            })
            .collect()
    }

    /// Machine-readable report. Schema: see `--explain json` / DESIGN.md
    /// §13.
    pub fn to_json(&self) -> Json {
        fn finding_json(f: &Finding) -> Json {
            Json::obj()
                .with("rule", f.rule)
                .with("file", &f.file)
                .with("line", f.line)
                .with("key", &f.key)
                .with("message", &f.message)
        }
        let rules: Json = self
            .counts()
            .into_iter()
            .map(|(id, live, allowed)| {
                Json::obj().with("id", id).with("live", live).with("allowed", allowed)
            })
            .collect();
        let stale: Json = self
            .stale_allow
            .iter()
            .map(|e| Json::obj().with("rule", &e.rule).with("file", &e.file).with("key", &e.key))
            .collect();
        Json::obj()
            .with("schema", "krb-lint/v2")
            .with("files_scanned", self.files_scanned)
            .with("clean", self.is_clean())
            .with("allow_count", self.allow_count)
            .with("rules", rules)
            .with("findings", self.findings.iter().map(finding_json).collect::<Json>())
            .with("allowed", self.allowed.iter().map(finding_json).collect::<Json>())
            .with("stale_allow", stale)
    }
}

/// One rule's documentation, served by `krb-lint --explain L<k>`.
pub struct Rule {
    /// Rule id (`"L1"`..).
    pub id: &'static str,
    /// One-line title.
    pub title: &'static str,
    /// What it checks, why the invariant matters, and how to fix a hit.
    pub detail: &'static str,
}

/// Every active rule, in id order. L7 is retired (superseded by L9) and
/// intentionally absent.
pub const RULES: &[Rule] = &[
    Rule {
        id: "L1",
        title: "secret-hygiene: no derive(Debug) on raw key fields",
        detail: "A struct that derives Debug while carrying raw key bytes \
                 ([u8; 8], Vec<u8>) in a secret-named field will print key \
                 material in logs and panics. Wrap the field in \
                 crypto::SecretKey / DesKey (both redact their Debug) or drop \
                 the derive. Paper §2: the session key must never leave the \
                 protocol.",
    },
    Rule {
        id: "L2",
        title: "constant-time comparison of key/checksum material",
        detail: "Comparing checksums or session keys with == / != short- \
                 circuits on the first differing byte, turning verification \
                 into a timing oracle for forging authenticators. Use \
                 crypto::ct_eq, which always walks the full width.",
    },
    Rule {
        id: "L3",
        title: "panic-free server request paths",
        detail: "unwrap/expect/panic!/assert! in KDC, kadmind, kpropd or \
                 application-server request handling lets a malformed packet \
                 crash the authentication service (paper §6 prescribes error \
                 replies). Map errors to typed protocol errors instead. \
                 Applies to the files listed in SERVER_PATH_FILES.",
    },
    Rule {
        id: "L4",
        title: "crate hygiene: forbid(unsafe_code) + crate docs",
        detail: "Every crate root must carry #![forbid(unsafe_code)] and \
                 crate-level //! documentation. The workspace's assurance \
                 argument is 'no unsafe anywhere'; one crate opting out \
                 silently would void it.",
    },
    Rule {
        id: "L5",
        title: "one counting substrate: no raw atomics outside telemetry",
        detail: "Raw AtomicU64/AtomicUsize/AtomicI64 counters outside \
                 crates/telemetry dodge the metrics registry: no export, no \
                 determinism contract. Use krb_telemetry::Counter/Gauge. \
                 Genuinely non-metric atomics (the simulated clock) carry a \
                 justified lint.allow entry.",
    },
    Rule {
        id: "L6",
        title: "one schedule per key: no raw cipher constructors",
        detail: "FastDes::new / Des::new outside crates/crypto rebuilds the \
                 DES key schedule at the call site, dodging the Scheduled \
                 cache (DESIGN.md §10). Build a Scheduled once and use the \
                 *_with API family. In crates/crypto/src and crates/core/src \
                 a pub fn that takes a &DesKey and builds a Scheduled from it \
                 is a finding too: take the Scheduled instead.",
    },
    Rule {
        id: "L8",
        title: "lock discipline: no guards across blocking calls; ordered nesting",
        detail: "A lock guard (from .lock()/.read()/.write() with no \
                 arguments) must not be live across a blocking or I/O-shaped \
                 call — send/rpc/rpc_traced, kprop transfer production \
                 (dump, build_full_seq, next_transfer, ship, tcp_kprop_send), \
                 journal emission \
                 (record, publish), or router pumping. That includes a \
                 temporary guard created inside the blocking call's argument \
                 list: dump(master.lock().db()) holds the KDC master lock for \
                 the whole database dump, serializing every authentication \
                 request behind replication (the paper runs propagation on \
                 its own cadence precisely to avoid this). Fix by \
                 snapshotting under the lock, dropping the guard (drop(g) is \
                 recognized), then doing the slow work on the owned copy. \
                 Nested acquisitions must follow LOCK_ORDER in \
                 crates/lint/src/lock.rs: inner rank strictly greater than \
                 outer; same lock twice is self-deadlock; locks absent from \
                 the order are flagged until declared deliberately.",
    },
    Rule {
        id: "L9",
        title: "secret-taint dataflow: key material must not reach sinks",
        detail: "Intraprocedural two-point taint per function. Sources: \
                 parameters/bindings typed DesKey/SecretKey/Scheduled, calls \
                 to string_to_key/get_with_key/random_key, and names that are \
                 secret by convention (session_key, master_key, *password*). \
                 Taint flows through let-chains, assignments and method calls \
                 (key.clone()); .len()/.is_empty() launder it, and a free \
                 call's result (seal_with(..) ciphertext) is clean by design. \
                 Sinks: format!/println!/write!/panic!-family macros (their \
                 output is plaintext logs), Debug formatting via {:?} or \
                 inline captures like format!(\"{key:?}\") — the lexer keeps \
                 capture names precisely for this — and the journal's \
                 Field::from. Supersedes L7's same-line adjacency heuristic.",
    },
];

/// Look up the `--explain` text for a rule id (case-insensitive).
pub fn explain(rule: &str) -> Option<&'static Rule> {
    let want = rule.to_ascii_uppercase();
    RULES.iter().find(|r| r.id == want)
}

/// Run every rule over the workspace rooted at `root` and apply the
/// `lint.allow` allowlist found there (missing file = empty allowlist).
pub fn run(root: &Path) -> std::io::Result<Report> {
    // A typo'd root would otherwise scan zero files and report a clean
    // tree — fail loudly instead of green-lighting nothing.
    if !root.join("Cargo.toml").is_file() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("{} is not a workspace root (no Cargo.toml)", root.display()),
        ));
    }
    let mut raw = Vec::new();
    let mut files_scanned = 0usize;
    for file in source_files(root)? {
        let rel = rel_path(root, &file);
        let src = fs::read_to_string(&file)?;
        raw.extend(scan_file(&rel, &src));
        files_scanned += 1;
    }
    raw.sort_by(|a, b| {
        (a.rule, &a.file, a.line, &a.key).cmp(&(b.rule, &b.file, b.line, &b.key))
    });

    let allow = parse_allow(root)?;
    let mut report = Report {
        allow_count: allow.len(),
        files_scanned,
        ..Report::default()
    };
    let mut used = vec![false; allow.len()];
    for finding in raw {
        let hit = allow.iter().position(|a| {
            a.rule == finding.rule && a.file == finding.file && a.key == finding.key
        });
        match hit {
            Some(idx) => {
                used[idx] = true;
                report.allowed.push(finding);
            }
            None => report.findings.push(finding),
        }
    }
    for (idx, entry) in allow.into_iter().enumerate() {
        if !used[idx] {
            report.stale_allow.push(entry);
        }
    }
    Ok(report)
}

/// Lint one file's source text. `rel` is the workspace-relative path with
/// `/` separators; it selects which rules apply.
pub fn scan_file(rel: &str, src: &str) -> Vec<Finding> {
    let mut findings = Vec::new();

    // L4 inspects the raw text (doc comments are stripped by the lexer)
    // and only applies to crate roots.
    if rel.ends_with("src/lib.rs") {
        findings.extend(check_l4(rel, src));
    }

    // The analyzer does not police itself for L1–L3: its own rule tables
    // spell out the forbidden patterns and would self-flag.
    if rel.starts_with("crates/lint/") {
        return findings;
    }

    let tokens = strip_cfg_test(lex(src));
    findings.extend(check_l1(rel, &tokens));
    if !rel.starts_with("crates/crypto/") {
        findings.extend(check_l2(rel, &tokens));
    }
    if SERVER_PATH_FILES.contains(&rel) {
        findings.extend(check_l3(rel, &tokens));
    }
    if !rel.starts_with("crates/telemetry/") {
        findings.extend(check_l5(rel, &tokens));
    }
    if !rel.starts_with("crates/crypto/") {
        findings.extend(check_l6(rel, &tokens));
    }
    // Scope-aware rules share one brace-tree model. The telemetry crate is
    // exempt from both: it *implements* the journal/metrics substrate the
    // blocking-call and sink tables name (record/publish/Field are its own
    // vocabulary, not calls out of it).
    if !rel.starts_with("crates/telemetry/") {
        let model = ScopeModel::build(&tokens);
        if L6_ADAPTER_DIRS.iter().any(|dir| rel.starts_with(dir)) {
            findings.extend(check_l6_adapters(rel, &tokens, &model));
        }
        findings.extend(lock::check_l8(rel, &tokens, &model));
        findings.extend(taint::check_l9(rel, &tokens, &model));
    }
    findings
}

// ---------------------------------------------------------------------------
// Workspace walking
// ---------------------------------------------------------------------------

/// Every `.rs` file under `crates/*/src` and the root `src/`, sorted.
fn source_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<_> = fs::read_dir(&crates)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        members.sort();
        for member in members {
            let src = member.join("src");
            if src.is_dir() {
                walk_rs(&src, &mut files)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        walk_rs(&root_src, &mut files)?;
    }
    files.sort();
    Ok(files)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

// ---------------------------------------------------------------------------
// cfg(test) exclusion
// ---------------------------------------------------------------------------

/// Drop every item annotated `#[cfg(test)]` (most importantly whole
/// `mod tests { ... }` blocks) from the token stream, so L1–L3 only see
/// production code.
pub fn strip_cfg_test(tokens: Vec<Token>) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0;
    while i < tokens.len() {
        if is_cfg_test_attr(&tokens, i) {
            // Skip this attribute, any stacked attributes after it, and
            // the item they decorate.
            i = skip_attr(&tokens, i);
            while i < tokens.len() && tokens[i].text == "#" {
                i = skip_attr(&tokens, i);
            }
            i = skip_item(&tokens, i);
            continue;
        }
        out.push(tokens[i].clone());
        i += 1;
    }
    out
}

/// Does `# [ cfg ( test ) ]` start at `i`?
fn is_cfg_test_attr(tokens: &[Token], i: usize) -> bool {
    let pat = ["#", "[", "cfg", "(", "test", ")", "]"];
    tokens.len() >= i + pat.len()
        && pat
            .iter()
            .zip(&tokens[i..])
            .all(|(want, tok)| tok.text == *want)
}

/// `i` points at `#`; return the index just past the attribute's `]`.
fn skip_attr(tokens: &[Token], i: usize) -> usize {
    let mut j = i + 1;
    // Inner attribute `#![...]`.
    if j < tokens.len() && tokens[j].text == "!" {
        j += 1;
    }
    if j >= tokens.len() || tokens[j].text != "[" {
        return i + 1;
    }
    let mut depth = 0usize;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Skip one item starting at `i`: either up to and including a `;` seen
/// before any brace, or a balanced `{ ... }` block.
fn skip_item(tokens: &[Token], i: usize) -> usize {
    let mut j = i;
    let mut depth = 0usize;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            ";" if depth == 0 => return j + 1,
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

// ---------------------------------------------------------------------------
// L1: derive(Debug) on key-bearing structs
// ---------------------------------------------------------------------------

fn check_l1(rel: &str, tokens: &[Token]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].text != "#" {
            i += 1;
            continue;
        }
        // Gather the attribute stack in front of an item.
        let mut derives_debug = false;
        let mut j = i;
        while j < tokens.len() && tokens[j].text == "#" {
            let end = skip_attr(tokens, j);
            if attr_is_derive_debug(&tokens[j..end]) {
                derives_debug = true;
            }
            j = end;
        }
        if !derives_debug {
            i = j.max(i + 1);
            continue;
        }
        // Expect (pub)? struct Name ... `{`.
        let mut k = j;
        while k < tokens.len()
            && matches!(tokens[k].text.as_str(), "pub" | "(" | ")" | "crate" | "super")
        {
            k += 1;
        }
        if k >= tokens.len() || tokens[k].text != "struct" {
            i = j.max(i + 1);
            continue;
        }
        let struct_name = tokens.get(k + 1).map(|t| t.text.clone()).unwrap_or_default();
        // Skip generics / where clause up to the body (or `;` for unit /
        // tuple structs, which have no named fields to check).
        let mut b = k + 2;
        while b < tokens.len() && tokens[b].text != "{" && tokens[b].text != ";" {
            b += 1;
        }
        if b >= tokens.len() || tokens[b].text == ";" {
            i = b;
            continue;
        }
        let body_end = skip_item(tokens, b);
        findings.extend(check_l1_fields(
            rel,
            &struct_name,
            &tokens[b + 1..body_end.saturating_sub(1)],
        ));
        i = body_end;
    }
    findings
}

fn attr_is_derive_debug(attr: &[Token]) -> bool {
    attr.iter().any(|t| t.text == "derive") && attr.iter().any(|t| t.text == "Debug")
}

/// Walk named fields of a struct body; flag secret-named raw-byte fields.
fn check_l1_fields(rel: &str, struct_name: &str, body: &[Token]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut i = 0;
    let n = body.len();
    while i < n {
        // Skip field attributes and visibility.
        while i < n && body[i].text == "#" {
            i = skip_attr(body, i);
        }
        while i < n
            && matches!(body[i].text.as_str(), "pub" | "(" | ")" | "crate" | "super")
        {
            i += 1;
        }
        if i >= n {
            break;
        }
        // Expect `name :`.
        if body[i].kind != Kind::Ident || i + 1 >= n || body[i + 1].text != ":" {
            i += 1;
            continue;
        }
        let field = &body[i];
        // The type runs until a `,` at nesting depth zero.
        let mut depth = 0i32;
        let mut j = i + 2;
        let ty_start = j;
        while j < n {
            match body[j].text.as_str() {
                "[" | "(" | "{" | "<" => depth += 1,
                "]" | ")" | "}" | ">" => depth -= 1,
                "," if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let ty = &body[ty_start..j];
        if field_name_is_secret(&field.text)
            && type_is_raw_bytes(ty)
            && !type_is_redacted(ty)
        {
            findings.push(Finding {
                rule: "L1",
                file: rel.to_string(),
                line: field.line,
                key: field.text.clone(),
                message: format!(
                    "struct {struct_name} derives Debug but field `{}` holds raw key \
                     material; wrap it in crypto::SecretKey (redacting Debug) or drop \
                     the derive",
                    field.text
                ),
            });
        }
        i = j + 1;
    }
    findings
}

fn field_name_is_secret(name: &str) -> bool {
    L1_SECRET_FRAGMENTS.iter().any(|frag| name.contains(frag))
}

/// `[u8; N]`, `Vec<u8>`, `&[u8]`, `Box<[u8]>` — byte *containers*. A bare
/// `u8` scalar (e.g. a `key_version` counter) is not key material.
fn type_is_raw_bytes(ty: &[Token]) -> bool {
    ty.iter().any(|t| t.text == "u8")
        && ty.iter().any(|t| t.text == "[" || t.text == "Vec")
}

fn type_is_redacted(ty: &[Token]) -> bool {
    ty.iter().any(|t| REDACTED_TYPES.contains(&t.text.as_str()))
}

// ---------------------------------------------------------------------------
// L2: non-constant-time comparison of key/checksum material
// ---------------------------------------------------------------------------

fn check_l2(rel: &str, tokens: &[Token]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if tok.kind != Kind::CompareOp {
            continue;
        }
        // Look a few tokens to either side for a secret identifier; that
        // window covers `a.cksum == b`, `expect != msg.cksum`,
        // `cksum(x) == y`, without reaching into unrelated statements.
        let lo = i.saturating_sub(4);
        let hi = (i + 5).min(tokens.len());
        let secret = tokens[lo..hi].iter().find(|t| {
            t.kind == Kind::Ident && L2_SECRET_IDENTS.contains(&t.text.as_str())
        });
        if let Some(s) = secret {
            findings.push(Finding {
                rule: "L2",
                file: rel.to_string(),
                line: tok.line,
                key: s.text.clone(),
                message: format!(
                    "`{}` compares `{}` material non-constant-time; use \
                     crypto::ct_eq so verification cannot leak a timing oracle",
                    tok.text, s.text
                ),
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// L3: panics in server request paths
// ---------------------------------------------------------------------------

fn check_l3(rel: &str, tokens: &[Token]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if tok.kind != Kind::Ident {
            continue;
        }
        let name = tok.text.as_str();
        let prev = i.checked_sub(1).map(|p| tokens[p].text.as_str());
        let next = tokens.get(i + 1).map(|t| t.text.as_str());
        let is_method =
            PANIC_METHODS.contains(&name) && prev == Some(".") && next == Some("(");
        let is_macro = PANIC_MACROS.contains(&name) && next == Some("!");
        if is_method || is_macro {
            findings.push(Finding {
                rule: "L3",
                file: rel.to_string(),
                line: tok.line,
                key: name.to_string(),
                message: format!(
                    "`{name}` in a server request path can crash the daemon on \
                     malformed input; return a typed protocol error instead"
                ),
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// L5: raw atomic counters outside the telemetry substrate
// ---------------------------------------------------------------------------

fn check_l5(rel: &str, tokens: &[Token]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for tok in tokens {
        if tok.kind == Kind::Ident && L5_ATOMIC_TYPES.contains(&tok.text.as_str()) {
            findings.push(Finding {
                rule: "L5",
                file: rel.to_string(),
                line: tok.line,
                key: tok.text.clone(),
                message: format!(
                    "raw `{}` outside crates/telemetry bypasses the metrics \
                     registry; use krb_telemetry::Counter/Gauge so the value is \
                     exported and covered by the determinism contract",
                    tok.text
                ),
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// L6: raw cipher construction outside the crypto crate
// ---------------------------------------------------------------------------

fn check_l6(rel: &str, tokens: &[Token]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if tok.kind != Kind::Ident || !L6_CIPHER_TYPES.contains(&tok.text.as_str()) {
            continue;
        }
        // `Des :: new` / `FastDes :: new` (the lexer splits `::`).
        let is_ctor = tokens.get(i + 1).is_some_and(|t| t.text == ":")
            && tokens.get(i + 2).is_some_and(|t| t.text == ":")
            && tokens.get(i + 3).is_some_and(|t| t.text == "new");
        if is_ctor {
            findings.push(Finding {
                rule: "L6",
                file: rel.to_string(),
                line: tok.line,
                key: format!("{}::new", tok.text),
                message: format!(
                    "`{}::new` outside crates/crypto rebuilds the DES key \
                     schedule at the call site; build a `Scheduled` once and \
                     use the seal_with/unseal_with API family",
                    tok.text
                ),
            });
        }
    }
    findings
}

/// L6's second half: a `pub fn` whose parameters hold a `&DesKey` and whose
/// body builds a `Scheduled` (`Scheduled::new`/`::from`, or the literal).
fn check_l6_adapters(rel: &str, tokens: &[Token], model: &ScopeModel) -> Vec<Finding> {
    let text = |i: usize| tokens.get(i).map_or("", |t| t.text.as_str());
    let is_pub = |f: &scope::FnItem| {
        let fn_idx = (0..f.params.0).rev().find(|&i| text(i) == "fn" && text(i + 1) == f.name);
        fn_idx.is_some_and(|i| i > 0 && text(i - 1) == "pub")
    };
    let takes_key = |f: &scope::FnItem| {
        (f.params.0..f.params.1).any(|i| text(i) == "&" && text(i + 1) == "DesKey")
    };
    let builds = |f: &scope::FnItem| {
        (f.body.0 + 1..f.body.1).any(|i| {
            let ctor = text(i + 1) == ":" && matches!(text(i + 3), "new" | "from");
            text(i) == "Scheduled" && (text(i + 1) == "{" || ctor)
        })
    };
    model
        .fns
        .iter()
        .filter(|f| is_pub(f) && takes_key(f) && builds(f))
        .map(|f| Finding {
            rule: "L6",
            file: rel.to_string(),
            line: f.line,
            key: f.name.clone(),
            message: format!(
                "`{}` takes a bare &DesKey and builds its Scheduled; take the \
                 Scheduled so the caller builds it once per key",
                f.name
            ),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// L4: crate hygiene (raw-text checks on crate roots)
// ---------------------------------------------------------------------------

fn check_l4(rel: &str, src: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let has_forbid = src
        .lines()
        .any(|l| l.replace(' ', "").contains("#![forbid(unsafe_code)]"));
    if !has_forbid {
        findings.push(Finding {
            rule: "L4",
            file: rel.to_string(),
            line: 1,
            key: "forbid_unsafe".to_string(),
            message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        });
    }
    let has_docs = src.lines().any(|l| l.trim_start().starts_with("//!"));
    if !has_docs {
        findings.push(Finding {
            rule: "L4",
            file: rel.to_string(),
            line: 1,
            key: "crate_docs".to_string(),
            message: "crate root is missing crate-level `//!` documentation".to_string(),
        });
    }
    findings
}

// ---------------------------------------------------------------------------
// lint.allow
// ---------------------------------------------------------------------------

/// Parse `lint.allow` at the workspace root. Format: one entry per line,
/// `RULE path key`; `#` starts a comment; blank lines ignored.
fn parse_allow(root: &Path) -> std::io::Result<Vec<AllowEntry>> {
    let path = root.join("lint.allow");
    if !path.exists() {
        return Ok(Vec::new());
    }
    let text = fs::read_to_string(path)?;
    let mut entries = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        if parts.len() != 3 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "lint.allow:{}: expected `RULE path key`, got `{line}`",
                    lineno + 1
                ),
            ));
        }
        entries.push(AllowEntry {
            rule: parts[0].to_string(),
            file: parts[1].to_string(),
            key: parts[2].to_string(),
            line: (lineno + 1) as u32,
        });
    }
    Ok(entries)
}

/// Locate the workspace root: walk up from `start` to the first directory
/// holding a `Cargo.toml` that declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(findings: &[Finding]) -> Vec<(&'static str, String)> {
        findings.iter().map(|f| (f.rule, f.key.clone())).collect()
    }

    #[test]
    fn l1_flags_raw_secret_field_under_derive_debug() {
        let src = r#"
            #[derive(Clone, PartialEq, Eq, Debug)]
            pub struct Ticket {
                pub sname: String,
                pub session_key: [u8; 8],
            }
        "#;
        let f = scan_file("crates/x/src/a.rs", src);
        assert_eq!(keys(&f), vec![("L1", "session_key".to_string())]);
    }

    #[test]
    fn l1_exempts_redacted_wrapper_types() {
        let src = r#"
            #[derive(Debug)]
            pub struct SrvtabEntry {
                pub key: DesKey,
                pub skey: SecretKey,
            }
        "#;
        assert!(scan_file("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn l1_ignores_scalar_key_metadata() {
        let src = r#"
            #[derive(Debug)]
            pub struct PrincipalEntry { pub key_version: u8, pub max_life: u8 }
        "#;
        assert!(scan_file("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn l1_ignores_structs_without_debug() {
        let src = r#"
            #[derive(Clone)]
            pub struct Keys { pub master_key: [u8; 8] }
        "#;
        assert!(scan_file("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn l2_flags_checksum_equality() {
        let src = "fn v(expect: u32, msg: &Msg) -> bool { expect != msg.cksum }";
        let f = scan_file("crates/x/src/a.rs", src);
        assert_eq!(keys(&f), vec![("L2", "cksum".to_string())]);
    }

    #[test]
    fn l2_ignores_db_key_compares_and_crypto_internals() {
        // `key` alone is not an L2 identifier (DB lookups compare keys).
        let f = scan_file("crates/x/src/a.rs", "if self.key_at(e) == key { }");
        assert!(f.is_empty());
        // crates/crypto is exempt wholesale — it implements ct_eq.
        let f = scan_file("crates/crypto/src/lib.rs", "//! d\n#![forbid(unsafe_code)]\nfn c(a: u32, cksum: u32) -> bool { a == cksum }");
        assert!(f.is_empty());
    }

    #[test]
    fn l3_flags_panics_only_in_server_files() {
        let src = "fn h(p: &[u8]) { let x = p.first().unwrap(); panic!(); }";
        let f = scan_file("crates/kdc/src/server.rs", src);
        assert_eq!(
            keys(&f),
            vec![("L3", "unwrap".to_string()), ("L3", "panic".to_string())]
        );
        assert!(scan_file("crates/sim/src/lib.rs", src)
            .iter()
            .all(|f| f.rule != "L3"));
    }

    #[test]
    fn l3_flags_debug_assert() {
        let src = "fn h(ok: bool) { debug_assert!(ok); }";
        let f = scan_file("crates/kdc/src/server.rs", src);
        assert_eq!(keys(&f), vec![("L3", "debug_assert".to_string())]);
    }

    #[test]
    fn cfg_test_modules_are_invisible_to_l1_l3() {
        let src = r#"
            fn prod() {}
            #[cfg(test)]
            mod tests {
                #[derive(Debug)]
                struct K { key: [u8; 8] }
                #[test]
                fn t() { None::<u8>.unwrap(); }
            }
        "#;
        assert!(scan_file("crates/kdc/src/server.rs", src).is_empty());
    }

    #[test]
    fn lexer_strips_matches_in_comments_and_strings() {
        let src = r#"
            // let x = buf.unwrap();
            fn h() { let s = "cksum == other"; let _ = s; }
        "#;
        assert!(scan_file("crates/kdc/src/server.rs", src).is_empty());
    }

    #[test]
    fn run_refuses_a_root_without_a_manifest() {
        let err = run(Path::new("/nonexistent-krb-lint-root")).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }

    #[test]
    fn l5_flags_raw_atomics_outside_telemetry() {
        let src = "use std::sync::atomic::AtomicU64;\nstruct S { hits: AtomicU64 }";
        let f = scan_file("crates/kdc/src/server.rs", src);
        assert_eq!(
            keys(&f),
            vec![("L5", "AtomicU64".to_string()), ("L5", "AtomicU64".to_string())]
        );
        // The telemetry crate itself is the one legitimate home.
        assert!(scan_file("crates/telemetry/src/metrics.rs", src).is_empty());
        // Test code may use atomics freely.
        let test_only = "#[cfg(test)]\nmod tests { use std::sync::atomic::AtomicUsize; }";
        assert!(scan_file("crates/kdc/src/server.rs", test_only).is_empty());
    }

    #[test]
    fn l6_flags_raw_cipher_construction_outside_crypto() {
        let src = "fn f(k: &DesKey) { let d = FastDes::new(k); let r = Des::new(k); }";
        let f = scan_file("crates/kdc/src/server.rs", src);
        assert_eq!(
            keys(&f),
            vec![
                ("L6", "FastDes::new".to_string()),
                ("L6", "Des::new".to_string())
            ]
        );
        // The crypto crate itself builds ciphers; `Scheduled::new` is the
        // sanctioned constructor everywhere else.
        assert!(scan_file("crates/crypto/src/sched.rs", src).is_empty());
        assert!(scan_file(
            "crates/kdc/src/server.rs",
            "fn f(k: &DesKey) { let s = Scheduled::new(k); }"
        )
        .is_empty());
        // Test modules may construct ciphers directly.
        let test_only = "#[cfg(test)]\nmod tests { fn t() { let d = Des::new(&k); } }";
        assert!(scan_file("crates/kdc/src/server.rs", test_only).is_empty());
    }

    #[test]
    fn l9_catches_what_l7_used_to_and_more() {
        // The old L7 case: a secret type packed into a journal field.
        let src = r#"
            fn f(ctx: &TraceCtx, key: &DesKey) {
                ctx.record(Component::App, EventKind::ApVerified,
                    vec![("key", Field::from(DesKey::clone(key)))]);
            }
        "#;
        let f = scan_file("crates/apps/src/pop.rs", src);
        assert_eq!(keys(&f), vec![("L9", "DesKey".to_string())]);
        // The telemetry crate defines the journal machinery and is exempt.
        assert!(scan_file("crates/telemetry/src/journal.rs", src).is_empty());
        // L7's blind spot: the secret takes a hop before the sink, so no
        // adjacency — L9's dataflow still sees it.
        let hop = r#"
            fn f(ctx: &TraceCtx, key: &DesKey) {
                let copied = key.clone();
                ctx.record(Component::App, EventKind::ApVerified,
                    vec![("key", Field::from(copied))]);
            }
        "#;
        let f = scan_file("crates/apps/src/pop.rs", hop);
        assert_eq!(keys(&f), vec![("L9", "copied".to_string())]);
        // Principals and derived lengths next to the constructor are fine.
        let clean = r#"
            fn f(ctx: &TraceCtx, sched: &Scheduled, name: &Name) {
                let sealed = seal_with(sched, name.as_bytes());
                ctx.record(Component::App, EventKind::ApVerified,
                    vec![("client", Field::from(name.as_str())),
                         ("bytes", Field::from(sealed.len()))]);
            }
        "#;
        assert!(scan_file("crates/apps/src/pop.rs", clean).is_empty());
        // Test modules are exempt, like every rule.
        let test_only =
            "#[cfg(test)]\nmod t { fn t() { let f = Field::from(DesKey::ZERO); } }";
        assert!(scan_file("crates/apps/src/pop.rs", test_only).is_empty());
    }

    #[test]
    fn l8_sees_guards_through_scan_file() {
        let src = r#"
            fn propagate(dep: &Dep) {
                let kdc = dep.master.lock();
                dep.net.send(kdc.port, b"x");
            }
        "#;
        let f = scan_file("crates/kdc/src/propagate.rs", src);
        assert_eq!(keys(&f), vec![("L8", "master_across_send".to_string())]);
        // cfg(test) code may hold guards across anything.
        let test_only = r#"
            #[cfg(test)]
            mod t {
                fn t(dep: &Dep) {
                    let kdc = dep.master.lock();
                    dep.net.send(kdc.port, b"x");
                }
            }
        "#;
        assert!(scan_file("crates/kdc/src/propagate.rs", test_only).is_empty());
    }

    #[test]
    fn explain_serves_every_active_rule() {
        for rule in RULES {
            let r = explain(rule.id).expect("explain hit");
            assert_eq!(r.id, rule.id);
            assert!(!r.detail.is_empty());
        }
        assert!(explain("l8").is_some(), "case-insensitive lookup");
        assert!(explain("L7").is_none(), "L7 is retired");
        assert!(explain("L99").is_none());
    }

    #[test]
    fn json_report_has_the_contract_fields() {
        let report = Report {
            findings: vec![Finding {
                rule: "L8",
                file: "crates/kdc/src/service.rs".to_string(),
                line: 7,
                key: "master_across_dump".to_string(),
                message: "a \"quoted\" message".to_string(),
            }],
            allowed: Vec::new(),
            stale_allow: vec![AllowEntry {
                rule: "L9".to_string(),
                file: "crates/x/src/a.rs".to_string(),
                key: "password".to_string(),
                line: 3,
            }],
            allow_count: 2,
            files_scanned: 41,
        };
        let json = report.to_json().render();
        assert!(json.starts_with("{\"schema\":\"krb-lint/v2\""));
        assert!(json.contains("\"files_scanned\":41"));
        assert!(json.contains("\"clean\":false"));
        assert!(json.contains("{\"id\":\"L8\",\"live\":1,\"allowed\":0}"));
        assert!(json.contains("{\"id\":\"L1\",\"live\":0,\"allowed\":0}"));
        assert!(json.contains("\"key\":\"master_across_dump\""));
        assert!(json.contains("a \\\"quoted\\\" message"));
        assert!(json.contains("{\"rule\":\"L9\",\"file\":\"crates/x/src/a.rs\",\"key\":\"password\"}"));
    }

    #[test]
    fn l4_requires_forbid_and_docs_on_crate_roots() {
        let f = scan_file("crates/x/src/lib.rs", "pub fn a() {}\n");
        assert_eq!(
            keys(&f),
            vec![
                ("L4", "forbid_unsafe".to_string()),
                ("L4", "crate_docs".to_string())
            ]
        );
        let clean = "//! Docs.\n#![forbid(unsafe_code)]\npub fn a() {}\n";
        assert!(scan_file("crates/x/src/lib.rs", clean).is_empty());
        // Non-root files are not subject to L4.
        assert!(scan_file("crates/x/src/util.rs", "pub fn a() {}\n").is_empty());
    }
}
