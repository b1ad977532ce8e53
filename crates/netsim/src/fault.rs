//! Seeded fault injection for the simulated network.
//!
//! The paper argues its reliability properties — slaves for availability
//! (§5.3), PCBC so tampering is detectable (§2.2), replay caches against
//! duplicated authenticators (§4.3) — against an *adversarial* network.
//! A [`FaultPlan`] manufactures that network mechanically: a list of
//! scheduled [`FaultWindow`]s (loss bursts, duplication, reordering,
//! payload bit corruption, latency spikes, and timed partition windows),
//! each scoped to a link by [`LinkMatch`] and driven by the plan's own
//! seeded RNG. The plan is installed on a [`crate::SimNet`]
//! ([`crate::SimNet::set_fault_plan`]), so every transport that rides the
//! router — KDC datagrams, application RPCs, kprop dumps — is covered.
//!
//! Determinism contract: a plan's behaviour is a pure function of
//! `(seed, windows, send sequence)`. [`FaultPlan::render`] prints the
//! windows in a stable text form, so an oracle failure can report exactly
//! the plan needed to replay the run byte-identically.

use crate::Ipv4;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Which packets a fault window applies to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LinkMatch {
    /// Every packet on the wire.
    Any,
    /// Packets to or from this host (either direction — a sick NIC or a
    /// cut cable affects both).
    Host(Ipv4),
    /// Packets between this pair of hosts, either direction.
    Between(Ipv4, Ipv4),
}

impl LinkMatch {
    /// Does a packet from `src` to `dst` fall under this selector?
    pub fn matches(&self, src: Ipv4, dst: Ipv4) -> bool {
        match *self {
            LinkMatch::Any => true,
            LinkMatch::Host(h) => src == h || dst == h,
            LinkMatch::Between(a, b) => (src == a && dst == b) || (src == b && dst == a),
        }
    }

    fn render(&self, out: &mut String) {
        match self {
            LinkMatch::Any => out.push_str("any"),
            LinkMatch::Host(h) => {
                let _ = write!(out, "host:{h}");
            }
            LinkMatch::Between(a, b) => {
                let _ = write!(out, "between:{a}<->{b}");
            }
        }
    }
}

/// One kind of injected fault.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Fault {
    /// Drop matching packets with this probability (a loss burst).
    Loss(f64),
    /// Deliver matching packets twice with this probability.
    Duplicate(f64),
    /// Add random extra latency up to this many milliseconds — packets
    /// overtake each other, i.e. reordering.
    Reorder(u64),
    /// Add this fixed extra latency (a congestion spike).
    Delay(u64),
    /// With probability `prob`, flip `1..=max_bits` payload bits at
    /// seeded positions. Corrupted packets are *delivered*; the protocol
    /// layer must reject them with a typed integrity error, never panic.
    Corrupt {
        /// Probability a matching packet is corrupted.
        prob: f64,
        /// Most bits flipped in one corruption (1 = single-bit).
        max_bits: u8,
    },
    /// Drop every matching packet — a network partition. The window's end
    /// is the heal.
    Partition,
}

impl Fault {
    fn render(&self, out: &mut String) {
        match self {
            Fault::Loss(p) => {
                let _ = write!(out, "loss({p:.2})");
            }
            Fault::Duplicate(p) => {
                let _ = write!(out, "dup({p:.2})");
            }
            Fault::Reorder(ms) => {
                let _ = write!(out, "reorder({ms}ms)");
            }
            Fault::Delay(ms) => {
                let _ = write!(out, "delay({ms}ms)");
            }
            Fault::Corrupt { prob, max_bits } => {
                let _ = write!(out, "corrupt({prob:.2},bits<={max_bits})");
            }
            Fault::Partition => out.push_str("partition"),
        }
    }
}

/// A fault active on matching links during `[from_ms, until_ms)` of
/// simulated time.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FaultWindow {
    /// Window start, inclusive, simulated milliseconds.
    pub from_ms: u64,
    /// Window end, exclusive. The heal instant for a partition.
    pub until_ms: u64,
    /// Which packets the window applies to.
    pub link: LinkMatch,
    /// What happens to them.
    pub fault: Fault,
}

/// What the plan decided for one packet. Consumed by the network's send
/// path; exposed so tests can drive [`FaultPlan::decide`] directly.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct FaultAction {
    /// Packet is dropped by an active partition window.
    pub drop_partition: bool,
    /// Packet is dropped by a loss-burst window.
    pub drop_loss: bool,
    /// Payload bit indices to flip (empty = no corruption).
    pub corrupt_bits: Vec<usize>,
    /// Extra delivery latency in milliseconds (spikes + reordering).
    pub extra_delay_ms: u64,
    /// Deliver an extra copy.
    pub duplicate: bool,
}

/// A seeded, scheduled fault plan for a simulated network.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rng: StdRng,
    windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// An empty plan with its own RNG stream (independent of the network's
    /// base seed, so installing a plan never perturbs base loss/jitter).
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, rng: StdRng::seed_from_u64(seed), windows: Vec::new() }
    }

    /// A plan with the given windows.
    pub fn with_windows(seed: u64, windows: Vec<FaultWindow>) -> Self {
        FaultPlan { seed, rng: StdRng::seed_from_u64(seed), windows }
    }

    /// Add a window.
    pub fn push(&mut self, window: FaultWindow) {
        self.windows.push(window);
    }

    /// The plan's RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled windows.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// The latest window end — after this instant the plan is inert.
    pub fn horizon_ms(&self) -> u64 {
        self.windows.iter().map(|w| w.until_ms).max().unwrap_or(0)
    }

    /// Heal the network at `now_ms`: every window still open is ended, so
    /// partitions lift and no further faults fire. This is the soak
    /// engine's `heal()` — liveness oracles run after it.
    pub fn heal(&mut self, now_ms: u64) {
        for w in &mut self.windows {
            if w.until_ms > now_ms {
                w.until_ms = now_ms;
            }
        }
    }

    /// Decide what happens to one packet of `payload_len` bytes sent from
    /// `src` to `dst` at `now_ms`. Draws from the plan's RNG; with the
    /// same seed and the same send sequence the decisions replay exactly.
    pub fn decide(&mut self, now_ms: u64, src: Ipv4, dst: Ipv4, payload_len: usize) -> FaultAction {
        let mut action = FaultAction::default();
        let FaultPlan { rng, windows, .. } = self;
        for w in windows.iter() {
            if now_ms < w.from_ms || now_ms >= w.until_ms || !w.link.matches(src, dst) {
                continue;
            }
            match w.fault {
                Fault::Partition => action.drop_partition = true,
                Fault::Loss(p) => {
                    if rng.random::<f64>() < p {
                        action.drop_loss = true;
                    }
                }
                Fault::Duplicate(p) => {
                    if rng.random::<f64>() < p {
                        action.duplicate = true;
                    }
                }
                Fault::Reorder(ms) => {
                    if ms > 0 {
                        action.extra_delay_ms += rng.random_range(0..=ms);
                    }
                }
                Fault::Delay(ms) => action.extra_delay_ms += ms,
                Fault::Corrupt { prob, max_bits } => {
                    if payload_len > 0 && max_bits > 0 && rng.random::<f64>() < prob {
                        let n = rng.random_range(1..=usize::from(max_bits));
                        for _ in 0..n {
                            action.corrupt_bits.push(rng.random_range(0..payload_len * 8));
                        }
                    }
                }
            }
        }
        action
    }

    /// Stable text rendering of the plan — the replay recipe an oracle
    /// failure prints alongside the seed.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "fault_plan seed={}", self.seed);
        for (i, w) in self.windows.iter().enumerate() {
            let _ = write!(out, "  window {i}: [{}ms..{}ms) link=", w.from_ms, w.until_ms);
            w.link.render(&mut out);
            out.push_str(" fault=");
            w.fault.render(&mut out);
            out.push('\n');
        }
        out
    }
}

/// Flip the given bit indices of `payload` in place (indices taken modulo
/// the payload's bit length, so a stale index can never panic).
pub fn flip_bits(payload: &mut [u8], bits: &[usize]) {
    if payload.is_empty() {
        return;
    }
    let nbits = payload.len() * 8;
    for &b in bits {
        let b = b % nbits;
        payload[b / 8] ^= 1 << (b % 8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(a: u8) -> Ipv4 {
        Ipv4([10, 0, 0, a])
    }

    #[test]
    fn link_match_selects_hosts_and_pairs() {
        assert!(LinkMatch::Any.matches(host(1), host(2)));
        assert!(LinkMatch::Host(host(2)).matches(host(1), host(2)));
        assert!(LinkMatch::Host(host(1)).matches(host(1), host(2)));
        assert!(!LinkMatch::Host(host(3)).matches(host(1), host(2)));
        assert!(LinkMatch::Between(host(1), host(2)).matches(host(2), host(1)));
        assert!(!LinkMatch::Between(host(1), host(3)).matches(host(1), host(2)));
    }

    #[test]
    fn windows_only_fire_inside_their_time_range() {
        let w = FaultWindow {
            from_ms: 100,
            until_ms: 200,
            link: LinkMatch::Any,
            fault: Fault::Partition,
        };
        let mut plan = FaultPlan::with_windows(1, vec![w]);
        assert!(!plan.decide(99, host(1), host(2), 8).drop_partition);
        assert!(plan.decide(100, host(1), host(2), 8).drop_partition);
        assert!(plan.decide(199, host(1), host(2), 8).drop_partition);
        assert!(!plan.decide(200, host(1), host(2), 8).drop_partition, "end is the heal");
    }

    #[test]
    fn decisions_replay_with_the_same_seed() {
        let windows = vec![
            FaultWindow { from_ms: 0, until_ms: 1000, link: LinkMatch::Any, fault: Fault::Loss(0.5) },
            FaultWindow {
                from_ms: 0,
                until_ms: 1000,
                link: LinkMatch::Any,
                fault: Fault::Corrupt { prob: 0.5, max_bits: 3 },
            },
        ];
        let run = |seed| {
            let mut plan = FaultPlan::with_windows(seed, windows.clone());
            (0..50).map(|t| plan.decide(t, host(1), host(2), 64)).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7), "same seed, same decisions");
        assert_ne!(run(7), run(8), "seed drives the decisions");
    }

    #[test]
    fn heal_closes_open_windows() {
        let mut plan = FaultPlan::with_windows(
            1,
            vec![FaultWindow {
                from_ms: 0,
                until_ms: u64::MAX,
                link: LinkMatch::Any,
                fault: Fault::Partition,
            }],
        );
        assert!(plan.decide(500, host(1), host(2), 8).drop_partition);
        plan.heal(501);
        assert!(!plan.decide(501, host(1), host(2), 8).drop_partition);
        assert_eq!(plan.horizon_ms(), 501);
    }

    #[test]
    fn corruption_flips_in_range_bits_only() {
        let mut plan = FaultPlan::with_windows(
            3,
            vec![FaultWindow {
                from_ms: 0,
                until_ms: 100,
                link: LinkMatch::Any,
                fault: Fault::Corrupt { prob: 1.0, max_bits: 4 },
            }],
        );
        let action = plan.decide(0, host(1), host(2), 16);
        assert!(!action.corrupt_bits.is_empty());
        assert!(action.corrupt_bits.iter().all(|&b| b < 16 * 8));
        let mut payload = vec![0u8; 16];
        flip_bits(&mut payload, &action.corrupt_bits);
        // An odd number of flips on a given bit leaves it set; at least one
        // byte must have changed unless every flip cancelled pairwise.
        let flipped: usize = payload.iter().map(|b| b.count_ones() as usize).sum();
        assert!(flipped <= action.corrupt_bits.len());
    }

    #[test]
    fn render_is_a_stable_replay_recipe() {
        let plan = FaultPlan::with_windows(
            0xC0FFEE,
            vec![
                FaultWindow {
                    from_ms: 10,
                    until_ms: 90,
                    link: LinkMatch::Host(host(9)),
                    fault: Fault::Loss(0.25),
                },
                FaultWindow {
                    from_ms: 0,
                    until_ms: 50,
                    link: LinkMatch::Any,
                    fault: Fault::Corrupt { prob: 0.1, max_bits: 2 },
                },
            ],
        );
        let text = plan.render();
        assert!(text.contains("seed=12648430"), "{text}");
        assert!(text.contains("window 0: [10ms..90ms) link=host:10.0.0.9 fault=loss(0.25)"), "{text}");
        assert!(text.contains("window 1: [0ms..50ms) link=any fault=corrupt(0.10,bits<=2)"), "{text}");
        assert_eq!(text, plan.render(), "rendering is deterministic");
    }

    #[test]
    fn empty_payload_is_never_corrupted() {
        let mut plan = FaultPlan::with_windows(
            5,
            vec![FaultWindow {
                from_ms: 0,
                until_ms: 10,
                link: LinkMatch::Any,
                fault: Fault::Corrupt { prob: 1.0, max_bits: 8 },
            }],
        );
        assert!(plan.decide(0, host(1), host(2), 0).corrupt_bits.is_empty());
        flip_bits(&mut [], &[3, 5]); // must not panic
    }
}
