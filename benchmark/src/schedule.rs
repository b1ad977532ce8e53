//! The seeded op schedule: who asks for which service in which tick.
//!
//! The protocol clock advances one second per **tick**, and within a tick
//! every user appears at most once. That is a hard constraint: a V4
//! authenticator is `(client, addr, timestamp_s, cksum)` with no nonce, so
//! a second TGS request from one TGT in one second is byte-identical to the
//! first and the KDC correctly refuses it as a replay.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scheduled request: a user and the service it asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot {
    /// Index into the workload's user population.
    pub user: u32,
    /// Index into the realm's services.
    pub service: u8,
}

/// Generates ticks of `per_tick` slots over `population` users, drawing
/// users without replacement inside each tick.
pub struct Schedule {
    rng: StdRng,
    /// A permutation of the population; each tick reshuffles its prefix.
    order: Vec<u32>,
    per_tick: usize,
    services: u8,
    tick: Vec<Slot>,
    ticks_made: u64,
    digest: u64,
}

impl Schedule {
    /// `per_tick` is clamped to the population: a tick cannot hold more
    /// requests than there are users.
    pub fn new(seed: u64, population: usize, per_tick: usize, services: u8) -> Self {
        Schedule {
            rng: StdRng::seed_from_u64(seed),
            order: (0..population as u32).collect(),
            per_tick: per_tick.min(population),
            services: services.max(1),
            tick: Vec::with_capacity(per_tick),
            ticks_made: 0,
            digest: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Slots per tick.
    pub fn per_tick(&self) -> usize {
        self.per_tick
    }

    /// Generate the next tick (a partial Fisher–Yates shuffle picks its
    /// users, so no user repeats inside it).
    pub fn next_tick(&mut self) -> &[Slot] {
        let n = self.order.len();
        self.tick.clear();
        for j in 0..self.per_tick {
            let k = self.rng.random_range(j..n);
            self.order.swap(j, k);
            let slot = Slot {
                user: self.order[j],
                service: self.rng.random_range(0..self.services),
            };
            self.tick.push(slot);
            for word in [
                self.ticks_made,
                u64::from(slot.user),
                u64::from(slot.service),
            ] {
                for byte in word.to_le_bytes() {
                    self.digest =
                        (self.digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        self.ticks_made += 1;
        &self.tick
    }

    /// FNV-1a over every `(tick, user, service)` generated so far: equal
    /// digests mean equal request sequences.
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn digest_after(seed: u64, ticks: usize) -> u64 {
        let mut s = Schedule::new(seed, 5_000, 256, 8);
        for _ in 0..ticks {
            s.next_tick();
        }
        s.digest()
    }

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        assert_eq!(digest_after(42, 50), digest_after(42, 50));
        assert_ne!(digest_after(42, 50), digest_after(43, 50));
        assert_ne!(digest_after(42, 50), digest_after(42, 51));
    }

    #[test]
    fn no_schedule_places_a_user_twice_in_one_tick() {
        // Property over seeds and shapes, including the full-rotation case
        // (per_tick == population) that `ticket_steady` runs.
        let mut shapes = StdRng::seed_from_u64(7);
        for seed in 0..200u64 {
            let population = shapes.random_range(1..600usize);
            let per_tick = shapes.random_range(1..700usize);
            let services = shapes.random_range(1..9u8);
            let mut s = Schedule::new(seed, population, per_tick, services);
            for _ in 0..6 {
                let tick = s.next_tick().to_vec();
                assert_eq!(tick.len(), per_tick.min(population));
                let users: HashSet<u32> = tick.iter().map(|slot| slot.user).collect();
                assert_eq!(
                    users.len(),
                    tick.len(),
                    "seed {seed}: a user repeats inside a tick"
                );
                assert!(tick.iter().all(|slot| (slot.user as usize) < population));
                assert!(tick.iter().all(|slot| slot.service < services));
            }
        }
    }

    #[test]
    fn a_full_rotation_visits_every_logged_in_user() {
        let mut s = Schedule::new(1, 256, 256, 8);
        let users: HashSet<u32> = s.next_tick().iter().map(|slot| slot.user).collect();
        assert_eq!(users.len(), 256);
    }
}
