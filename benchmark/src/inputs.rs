//! Everything the program under test is fed, derived from `--seed`.
//!
//! The same seed gives the same RIB, address streams and update trace,
//! so two runs of one commit see identical work and every count marked
//! *exact* in the README repeats bit for bit. Generation happens before
//! any clock starts: it is outside `setup_s`.

use clue_fib::gen::FibGen;
use clue_fib::{NextHop, Prefix, RouteTable, Trie, Update};
use clue_traffic::{PacketGen, UpdateGen};

/// The paper's rrc01 scale.
pub const ROUTES: usize = 390_000;
/// Addresses per stream; streams are cycled when a window outlasts them.
pub const STREAM_LEN: usize = 2_000_000;
/// Updates generated per second of window. The update plane manages
/// 1.5–17 K updates/s today; this leaves room for a 10× faster one
/// before the storm phase would run out of trace (it then cycles
/// nothing — it stops, and says so).
pub const UPDATES_PER_WINDOW_S: usize = 12_000;

/// Which address stream a workload reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Every prefix equally likely: successive lookups miss the CPU
    /// cache in the plane.
    Uniform,
    /// Zipf(1.25) with the generator's default flow bursts: the CAIDA
    /// stand-in, plane stays cache-hot.
    Zipf,
}

impl Mix {
    pub const ALL: [Mix; 2] = [Mix::Uniform, Mix::Zipf];

    pub fn name(self) -> &'static str {
        match self {
            Mix::Uniform => "uniform",
            Mix::Zipf => "zipf",
        }
    }
}

pub struct Inputs {
    pub rib: RouteTable,
    /// Longest-prefix match on the *original* RIB: the reference every
    /// answer is checked against.
    pub reference: Trie<NextHop>,
    pub uniform: Vec<u32>,
    pub zipf: Vec<u32>,
    pub updates: Vec<Update>,
}

impl Inputs {
    /// Full-scale inputs for a window of `window_s` seconds.
    pub fn generate(seed: u64, window_s: f64) -> Inputs {
        let updates = (window_s * UPDATES_PER_WINDOW_S as f64) as usize;
        Inputs::generate_scaled(seed, ROUTES, STREAM_LEN, updates.max(2_000))
    }

    /// Inputs of any size (the unit tests use a small table).
    pub fn generate_scaled(seed: u64, routes: usize, stream: usize, updates: usize) -> Inputs {
        // Distinct sub-seeds so the streams are independent of each
        // other and of the table.
        let sub = |k: u64| seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k);
        let rib = FibGen::new(sub(1)).routes(routes).generate();
        let reference = rib.to_trie();
        let uniform = PacketGen::new(sub(2))
            .zipf_exponent(0.0)
            .generate(&rib, stream);
        let zipf = PacketGen::new(sub(3))
            .zipf_exponent(1.25)
            .generate(&rib, stream);
        let updates = UpdateGen::new(sub(4)).generate(&rib, updates);
        Inputs {
            rib,
            reference,
            uniform,
            zipf,
            updates,
        }
    }

    pub fn stream(&self, mix: Mix) -> &[u32] {
        match mix {
            Mix::Uniform => &self.uniform,
            Mix::Zipf => &self.zipf,
        }
    }
}

/// Marker routes: host routes in `240.0.0.0/8` (class E, which neither
/// the table generator nor the update generator touches), one fresh
/// address per marker, carrying a next hop outside the generators'
/// 0..24 alphabet. A lookup that returns the marker's next hop for the
/// marker's address proves the announce is visible to readers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Marker {
    pub addr: u32,
    pub next_hop: NextHop,
}

impl Marker {
    /// The `k`-th marker of a run (`k` < 2^24).
    pub fn nth(k: u32) -> Marker {
        assert!(k < 1 << 24, "marker space is one /8");
        Marker {
            addr: 0xF000_0000 | k,
            next_hop: NextHop(1_000 + (k % 50_000) as u16),
        }
    }

    pub fn announce(self) -> Update {
        Update::Announce {
            prefix: Prefix::new(self.addr, 32),
            next_hop: self.next_hop,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_markers_stay_clear_of_the_table() {
        let a = Inputs::generate_scaled(7, 2_000, 4_000, 500);
        let b = Inputs::generate_scaled(7, 2_000, 4_000, 500);
        assert_eq!(a.rib, b.rib);
        assert_eq!(a.uniform, b.uniform);
        assert_eq!(a.zipf, b.zipf);
        assert_eq!(a.updates, b.updates);
        let c = Inputs::generate_scaled(8, 2_000, 4_000, 500);
        assert_ne!(a.uniform, c.uniform);

        let m = Marker::nth(3);
        assert_eq!(m.addr >> 24, 240);
        assert!(a
            .rib
            .iter()
            .all(|r| r.prefix.len() < 32 || r.prefix.low() >> 24 != 240));
        assert!(a
            .updates
            .iter()
            .all(|u| u.prefix() != m.announce().prefix()));
        assert_ne!(Marker::nth(3), Marker::nth(4));
    }
}
