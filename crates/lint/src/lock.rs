//! L8 — lock discipline on the scope model.
//!
//! Two hazards, both the exact failure modes the ROADMAP-1 sharded-KDC
//! refactor will introduce:
//!
//! 1. **Guard across a blocking call.** A `MutexGuard`/`RwLockGuard`
//!    (anything bound from an empty-argument `.lock()`/`.read()`/
//!    `.write()`) must not be live across an I/O-shaped call — network
//!    send, RPC, kprop transfer, journal publish. Holding the KDC's
//!    master lock while a slave transfer runs serializes every
//!    authentication request behind the slowest replica (paper §5.2 puts
//!    propagation on its own cadence precisely so it cannot stall
//!    ticket-granting). Both shapes fire: a *binding* guard that is still
//!    in scope at the blocking call, and a *temporary* guard created
//!    inside the blocking call's own argument list
//!    (`dump(master.lock().db())` holds the lock for the whole dump).
//! 2. **Lock-order violations.** While one guard is live, acquiring
//!    another lock must follow [`LOCK_ORDER`]: the inner lock's rank must
//!    be strictly greater than the outer's. Acquiring the same lock
//!    twice is self-deadlock; a nested acquisition of a lock that is not
//!    declared in the order at all is a finding too (extend the table
//!    when a genuinely new lock is born — that is a design decision, and
//!    the table is where it gets reviewed).
//!
//! A guard's live range runs from its statement's `;` to the enclosing
//! block's `}`, truncated by an explicit `drop(guard)` — the idiomatic
//! release point this rule exists to encourage.

use crate::lexer::Token;
use crate::scope::{Call, FnItem, ScopeModel};
use crate::Finding;

/// Guard-producing methods: empty-argument `.lock()`/`.read()`/`.write()`.
/// The empty-parens requirement keeps `io::Read::read(&mut buf)` and
/// `io::Write::write(&buf)` out of scope.
pub const GUARD_METHODS: &[&str] = &["lock", "read", "write"];

/// Receivers that are stream handles, not synchronization primitives:
/// `stdout().lock()` is flushing discipline, not a critical section.
const NON_SYNC_RECEIVERS: &[&str] = &["stdout", "stderr", "stdin"];

/// Callee names that are blocking / I/O-shaped in this workspace: netsim
/// delivery (`send`, `rpc*`, `pump`, `recv`), kprop transfer production
/// and shipping (`dump`, `build_full_seq`, `next_transfer`, `ship`,
/// `tcp_kprop_send`), journal
/// emission (`record`, `publish`), and bulk crypto (`seal_with` runs DES
/// over a whole payload) — each takes time proportional to payload or
/// contends on another subsystem's lock.
pub const BLOCKING_CALLS: &[&str] = &[
    "send",
    "send_traced",
    "rpc",
    "rpc_traced",
    "tcp_kprop_send",
    "build_full_seq",
    "next_transfer",
    "ship",
    "dump",
    "record",
    "publish",
    "pump",
    "recv",
    "seal_with",
];

/// The single declared lock order, outermost first. A nested acquisition
/// is legal only if the inner lock's index here is strictly greater than
/// the outer's.
pub const LOCK_ORDER: &[&str] = &[
    "master", "kdc", "slave", "kdbm", "primary", "snapshot", "hooks", "keygen",
    "sched_cache", "ledger", "captured", "clients", "registry", "journal", "metrics",
    "stripes", "state",
    // Rebindable counter handles (`RwLock<Counter>`): innermost leaves,
    // held only for the instant of an `.inc()` or a publish-time rebind,
    // and never acquiring anything beneath them.
    "hits", "evictions", "stripe_hits", "swaps",
];

fn rank(lock: &str) -> Option<usize> {
    LOCK_ORDER.iter().position(|l| *l == lock)
}

fn is_guard_call(c: &Call) -> bool {
    !c.is_macro
        && GUARD_METHODS.contains(&c.callee.as_str())
        && c.args.0 == c.args.1
        && c.receiver
            .as_deref()
            .is_some_and(|r| !NON_SYNC_RECEIVERS.contains(&r))
}

fn is_blocking_call(c: &Call) -> bool {
    BLOCKING_CALLS.contains(&c.callee.as_str())
}

/// One live guard: its lock name and the token range it is held over.
struct LiveGuard {
    lock: String,
    line: u32,
    /// Held from just after the binding statement's `;`...
    start: usize,
    /// ...to the enclosing block's `}` or an explicit `drop(guard)`.
    end: usize,
}

/// Run the L8 lock-discipline checks over one file's token stream and
/// scope model.
pub fn check_l8(rel: &str, tokens: &[Token], model: &ScopeModel) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in &model.fns {
        let calls: Vec<&Call> = model.calls_in(f).collect();
        let guards = binding_guards(tokens, &calls, model, f);

        // Variant 1a: binding guard live across a blocking call.
        for g in &guards {
            for c in &calls {
                if c.idx > g.start && c.idx < g.end && is_blocking_call(c) {
                    findings.push(Finding {
                        rule: "L8",
                        file: rel.to_string(),
                        line: c.line,
                        key: format!("{}_across_{}", g.lock, c.callee),
                        message: format!(
                            "`{}` guard (acquired line {}) is held across `{}`, a \
                             blocking/I/O-shaped call; snapshot what you need, drop \
                             the guard, then call it",
                            g.lock, g.line, c.callee
                        ),
                    });
                }
            }
        }

        // Variant 1b: temporary guard created inside a blocking call's
        // argument list — the guard lives for the whole call.
        for g in calls.iter().filter(|c| is_guard_call(c)) {
            for c in &calls {
                if is_blocking_call(c) && g.idx > c.args.0 && g.idx < c.args.1 {
                    let lock = g.receiver.clone().unwrap_or_default();
                    findings.push(Finding {
                        rule: "L8",
                        file: rel.to_string(),
                        line: g.line,
                        key: format!("{}_across_{}", lock, c.callee),
                        message: format!(
                            "temporary `{}` guard inside the arguments of `{}` holds \
                             the lock for the entire blocking call; take the snapshot \
                             first, then call `{}` on the owned copy",
                            lock, c.callee, c.callee
                        ),
                    });
                }
            }
        }

        // Variant 2: nested acquisition while a binding guard is live —
        // must follow LOCK_ORDER strictly.
        for outer in &guards {
            for inner in calls.iter().filter(|c| is_guard_call(c)) {
                if inner.idx <= outer.start || inner.idx >= outer.end {
                    continue;
                }
                let inner_lock = inner.receiver.clone().unwrap_or_default();
                if inner_lock == outer.lock {
                    findings.push(Finding {
                        rule: "L8",
                        file: rel.to_string(),
                        line: inner.line,
                        key: format!("order_{}_{}", outer.lock, inner_lock),
                        message: format!(
                            "`{}` is re-acquired while its own guard (line {}) is \
                             still live — self-deadlock",
                            outer.lock, outer.line
                        ),
                    });
                    continue;
                }
                match (rank(&outer.lock), rank(&inner_lock)) {
                    (Some(ro), Some(ri)) if ri > ro => {} // declared order, ok
                    (Some(_), Some(_)) => findings.push(Finding {
                        rule: "L8",
                        file: rel.to_string(),
                        line: inner.line,
                        key: format!("order_{}_{}", outer.lock, inner_lock),
                        message: format!(
                            "`{}` is acquired while `{}` (line {}) is held, against \
                             the declared lock order ({}); acquire in order or drop \
                             the outer guard first",
                            inner_lock,
                            outer.lock,
                            outer.line,
                            LOCK_ORDER.join(" < ")
                        ),
                    }),
                    _ => {
                        let undeclared = if rank(&outer.lock).is_none() {
                            &outer.lock
                        } else {
                            &inner_lock
                        };
                        findings.push(Finding {
                            rule: "L8",
                            file: rel.to_string(),
                            line: inner.line,
                            key: format!("order_undeclared_{undeclared}"),
                            message: format!(
                                "nested acquisition of `{inner_lock}` under \
                                 `{}` involves a lock not declared in LOCK_ORDER \
                                 (crates/lint/src/lock.rs); add it to the order \
                                 deliberately",
                                outer.lock
                            ),
                        });
                    }
                }
            }
        }
    }
    findings
}

/// Guard *bindings* in `f`: a `let` whose initializer ends in a guard
/// acquisition (the guard call is the chain's last link — if another `.`
/// follows the `()`, the guard is a temporary consumed within the
/// statement, variant 1b territory).
fn binding_guards(
    tokens: &[Token],
    calls: &[&Call],
    model: &ScopeModel,
    f: &FnItem,
) -> Vec<LiveGuard> {
    let mut out = Vec::new();
    for b in model.bindings_in(f) {
        // A guard nested inside a block within the initializer
        // (`let port = { let g = m.lock(); g.port };`) drops at that
        // block's `}`, not at the statement — it does not make the outer
        // binding a guard.
        let enclosed_in_block = |idx: usize| {
            (b.init.0..idx).any(|k| {
                tokens[k].text == "{"
                    && model.matches.get(&k).is_some_and(|&close| close > idx)
            })
        };
        let Some(g) = calls.iter().find(|c| {
            is_guard_call(c)
                && c.idx >= b.init.0
                && c.idx < b.init.1
                && tokens.get(c.args.1 + 1).map(|t| t.text.as_str()) != Some(".")
                && !enclosed_in_block(c.idx)
        }) else {
            continue;
        };
        // `drop(name)` truncates the live range to the release point.
        let mut end = b.scope_end;
        for c in calls {
            if c.callee == "drop"
                && c.receiver.is_none()
                && !c.is_macro
                && c.idx > b.stmt_end
                && c.idx < end
                && c.args.1 == c.args.0 + 1
                && tokens
                    .get(c.args.0)
                    .is_some_and(|t| b.names.iter().any(|n| *n == t.text))
            {
                end = c.idx;
            }
        }
        out.push(LiveGuard {
            lock: g.receiver.clone().unwrap_or_default(),
            line: g.line,
            start: b.stmt_end,
            end,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scope::ScopeModel;

    fn l8(src: &str) -> Vec<(String, u32)> {
        let tokens = lex(src);
        let model = ScopeModel::build(&tokens);
        check_l8("crates/x/src/a.rs", &tokens, &model)
            .into_iter()
            .map(|f| (f.key, f.line))
            .collect()
    }

    #[test]
    fn binding_guard_across_send_fires_once() {
        let src = "fn f(master: &Mutex<Kdc>, net: &Net) {\n\
                   let kdc = master.lock();\n\
                   net.send(kdc.port, b\"x\");\n\
                   }";
        assert_eq!(l8(src), vec![("master_across_send".to_string(), 3)]);
    }

    #[test]
    fn drop_releases_the_guard_before_the_send() {
        let src = "fn f(master: &Mutex<Kdc>, net: &Net) {\n\
                   let kdc = master.lock();\n\
                   let port = kdc.port;\n\
                   drop(kdc);\n\
                   net.send(port, b\"x\");\n\
                   }";
        assert!(l8(src).is_empty());
    }

    #[test]
    fn scoped_guard_does_not_leak_into_the_send() {
        let src = "fn f(master: &Mutex<Kdc>, net: &Net) {\n\
                   let port = { let kdc = master.lock(); kdc.port };\n\
                   net.send(port, b\"x\");\n\
                   }";
        assert!(l8(src).is_empty());
    }

    #[test]
    fn temporary_guard_inside_blocking_args_fires() {
        let src = "fn f(master: &Mutex<Kdc>) -> String {\n\
                   dump::dump(master.lock().db()).unwrap()\n\
                   }";
        assert_eq!(l8(src), vec![("master_across_dump".to_string(), 2)]);
    }

    #[test]
    fn temporary_guard_consumed_locally_is_fine() {
        // The guard never crosses a blocking call: chain ends in a cheap
        // accessor, statement over.
        let src = "fn f(master: &Mutex<Kdc>) -> u32 { master.lock().count() }";
        assert!(l8(src).is_empty());
    }

    #[test]
    fn nested_acquisition_against_the_order_fires() {
        // ledger ranks above master: master-then-ledger is fine...
        let ok = "fn f(d: &Dep) { let m = d.master.lock(); let l = d.ledger.lock(); }";
        assert!(l8(ok).is_empty());
        // ...ledger-then-master is a violation.
        let bad = "fn f(d: &Dep) { let l = d.ledger.lock(); let m = d.master.lock(); }";
        assert_eq!(l8(bad), vec![("order_ledger_master".to_string(), 1)]);
    }

    #[test]
    fn same_lock_twice_is_self_deadlock() {
        let src = "fn f(d: &Dep) { let a = d.master.lock(); let b = d.master.lock(); }";
        assert_eq!(l8(src), vec![("order_master_master".to_string(), 1)]);
    }

    #[test]
    fn undeclared_lock_in_a_nest_fires() {
        let src = "fn f(d: &Dep) { let m = d.master.lock(); let q = d.mystery.lock(); }";
        assert_eq!(l8(src), vec![("order_undeclared_mystery".to_string(), 1)]);
    }

    #[test]
    fn io_read_write_with_args_are_not_guards() {
        let src = "fn f(s: &mut TcpStream, net: &Net) {\n\
                   let n = s.read(&mut buf);\n\
                   net.send(0, b\"x\");\n\
                   s.write(&buf);\n\
                   }";
        assert!(l8(src).is_empty());
    }

    #[test]
    fn stdout_lock_is_not_a_critical_section() {
        let src = "fn f(net: &Net) { let out = stdout().lock(); net.send(0, b\"x\"); }";
        assert!(l8(src).is_empty());
    }
}
