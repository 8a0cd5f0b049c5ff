//! The seeded request generator.
//!
//! Operation `i` of a run is a pure function of `(seed, i)`: the same seed
//! gives the same requests in the same order, and a window can start at
//! any index (after a warm-up, after a prepared WAL) without replaying the
//! generator up to it. The daemon only ever sees what this module
//! generates.

use harmony_proto::Request;

const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 output function: one multiply-xorshift round.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The three read-path verbs of the steady mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// `heartbeat <app>.<id>`
    Heartbeat,
    /// `poll <app>.<id>`
    Poll,
    /// `metric <app>.<id>.response_time <t> <v>`
    Metric,
}

impl Verb {
    /// All verbs, in the order per-verb arrays are indexed.
    pub const ALL: [Verb; 3] = [Verb::Heartbeat, Verb::Poll, Verb::Metric];

    /// Index into per-verb arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The wire verb.
    pub fn name(self) -> &'static str {
        match self {
            Verb::Heartbeat => "heartbeat",
            Verb::Poll => "poll",
            Verb::Metric => "metric",
        }
    }
}

/// One generated operation against the standing population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// Which verb.
    pub verb: Verb,
    /// Index of the standing instance it addresses.
    pub slot: usize,
    /// Sample time for `metric` (seconds).
    pub time: f64,
    /// Sample value for `metric` (seconds of response time).
    pub value: f64,
}

/// Operation `index` of the run seeded by `seed`: 40 % heartbeat, 40 %
/// poll, 20 % metric, the instance uniform over `slots`.
pub fn op_at(seed: u64, index: u64, slots: usize) -> Op {
    let r = mix(seed.wrapping_add(index.wrapping_add(1).wrapping_mul(GOLDEN)));
    let verb = match r % 5 {
        0 | 1 => Verb::Heartbeat,
        2 | 3 => Verb::Poll,
        _ => Verb::Metric,
    };
    Op {
        verb,
        slot: ((r >> 8) % slots as u64) as usize,
        // 10 ms of application time per 1 000 operations, the cadence the
        // `recover` preparation also advances the controller clock by.
        time: (index / 1000) as f64 * 0.01,
        value: 1.0 + ((r >> 24) % 1000) as f64 / 100.0,
    }
}

/// One standing application instance, as `startup` named it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    /// Application name.
    pub app: String,
    /// Instance id chosen by the controller.
    pub id: u64,
}

impl Instance {
    /// `<app>.<id>`
    pub fn name(&self) -> String {
        format!("{}.{}", self.app, self.id)
    }
}

/// The protocol request for `op` against `population`.
pub fn request_for(op: &Op, population: &[Instance]) -> Request {
    let inst = &population[op.slot];
    match op.verb {
        Verb::Heartbeat => Request::Heartbeat { app: inst.app.clone(), id: inst.id },
        Verb::Poll => Request::Poll { app: inst.app.clone(), id: inst.id },
        Verb::Metric => Request::Metric {
            name: format!("{}.{}.response_time", inst.app, inst.id),
            time: op.time,
            value: op.value,
        },
    }
}

/// The application every benchmark instance registers as.
pub const APP: &str = "bag";

/// The Figure 2(b) bag-of-tasks bundle, addressed to instance `id`.
pub fn bundle_script(id: u64) -> String {
    harmony_rsl::listings::FIG2B_BAG.replacen("bag:1", &format!("{APP}:{id}"), 1)
}

/// FNV-1a over bytes, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fingerprint of the first `count` generated operations: same seed, same
/// hash; the printed `gen.sequence_fnv`.
pub fn sequence_fnv(seed: u64, count: u64, slots: usize) -> u64 {
    let mut hash = FNV_OFFSET;
    for i in 0..count {
        let op = op_at(seed, i, slots);
        hash = fnv1a(hash, &[op.verb as u8, op.slot as u8]);
        hash = fnv1a(hash, &op.value.to_bits().to_le_bytes());
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        let a = sequence_fnv(7, 10_000, 8);
        println!("gen.sequence_fnv {a:016x}");
        assert_eq!(a, sequence_fnv(7, 10_000, 8));
        assert_ne!(a, sequence_fnv(8, 10_000, 8));
        let ops: Vec<Op> = (0..1000).map(|i| op_at(7, i, 8)).collect();
        assert_eq!(ops, (0..1000).map(|i| op_at(7, i, 8)).collect::<Vec<_>>());
    }

    #[test]
    fn mix_is_forty_forty_twenty_and_slots_are_covered() {
        let mut verbs = [0u32; 3];
        let mut slots = [0u32; 8];
        for i in 0..100_000 {
            let op = op_at(1, i, 8);
            verbs[op.verb.index()] += 1;
            slots[op.slot] += 1;
        }
        assert!((39_000..41_000).contains(&verbs[0]), "{verbs:?}");
        assert!((39_000..41_000).contains(&verbs[1]), "{verbs:?}");
        assert!((19_000..21_000).contains(&verbs[2]), "{verbs:?}");
        assert!(slots.iter().all(|&n| (11_500..13_500).contains(&n)), "{slots:?}");
    }

    #[test]
    fn bundle_script_addresses_the_instance() {
        assert!(bundle_script(42).starts_with("harmonyBundle bag:42 config"));
    }
}
