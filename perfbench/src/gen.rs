//! Seeded workload inputs: a pure function of the `--seed` argument.
//!
//! Everything the program under test receives from the benchmark is
//! drawn here — payload values, the inner transports' selection seed,
//! the fleet's signing secret, and the sequence of placement family
//! keys — so the same seed always feeds the program the same inputs.

use script_net::fleet::owner_shard;

/// Shards in the federated workload's control fleet.
pub const FLEET_SHARDS: usize = 2;

/// Family keys per shard in the placement pool. The pool holds this
/// many keys owned by *each* shard, so every seed measures both the
/// direct placement path (owner is shard 0, where `place` starts) and
/// the redirected one.
pub const KEYS_PER_SHARD: usize = 4;

/// Payloads stay below this bound so `v + 1` never overflows and
/// [`STOP`] is never a generated value.
const PAYLOAD_MASK: u64 = (1 << 62) - 1;

/// Sentinel payload that ends a closed loop after the measured window.
pub const STOP: u64 = u64::MAX;

/// SplitMix64: a tiny, well-mixed 64-bit generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator starting from `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Every input one run draws from its seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// Seed of the hub inner transports' per-endpoint selection RNGs.
    pub selection_seed: u64,
    /// The fleet's descriptor-signing secret.
    pub fleet_secret: u64,
    /// Placement family keys, [`KEYS_PER_SHARD`] owned by each shard.
    pub family_pool: Vec<String>,
    payload_seed: u64,
    key_seed: u64,
}

impl Inputs {
    /// The inputs for `seed`.
    pub fn from_seed(seed: u64) -> Self {
        let mut root = SplitMix64::new(seed);
        let selection_seed = root.next_u64();
        let fleet_secret = root.next_u64() | 1;
        let payload_seed = root.next_u64();
        let key_seed = root.next_u64();
        let mut per_shard = [0usize; FLEET_SHARDS];
        let mut family_pool = Vec::with_capacity(FLEET_SHARDS * KEYS_PER_SHARD);
        while family_pool.len() < FLEET_SHARDS * KEYS_PER_SHARD {
            let key = format!("fam-{:016x}", root.next_u64());
            let shard = owner_shard(&key, FLEET_SHARDS);
            if per_shard[shard] < KEYS_PER_SHARD {
                per_shard[shard] += 1;
                family_pool.push(key);
            }
        }
        Self {
            selection_seed,
            fleet_secret,
            family_pool,
            payload_seed,
            key_seed,
        }
    }

    /// The payload stream: one value per op, each below 2^62.
    pub fn payloads(&self) -> Payloads {
        Payloads(SplitMix64::new(self.payload_seed))
    }

    /// The family key sequence: one key per placement, drawn from the
    /// pool.
    pub fn family_keys(&self) -> FamilyKeys {
        FamilyKeys {
            pool: self.family_pool.clone(),
            rng: SplitMix64::new(self.key_seed),
        }
    }
}

/// Payload values, in op order.
#[derive(Debug, Clone)]
pub struct Payloads(SplitMix64);

impl Iterator for Payloads {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        Some(self.0.next_u64() & PAYLOAD_MASK)
    }
}

/// Placement family keys, in placement order.
#[derive(Debug, Clone)]
pub struct FamilyKeys {
    pool: Vec<String>,
    rng: SplitMix64,
}

impl FamilyKeys {
    /// The next placement's family key.
    pub fn next_key(&mut self) -> &str {
        let i = (self.rng.next_u64() % self.pool.len() as u64) as usize;
        &self.pool[i]
    }
}

/// Whether placing `family` from shard 0 follows a redirect.
pub fn redirected(family: &str) -> bool {
    owner_shard(family, FLEET_SHARDS) != 0
}

/// Share of `keys` whose placement follows a redirect.
pub fn redirect_share<'a>(keys: impl IntoIterator<Item = &'a str>) -> f64 {
    let (mut n, mut off) = (0u64, 0u64);
    for k in keys {
        n += 1;
        off += u64::from(redirected(k));
    }
    if n == 0 {
        0.0
    } else {
        off as f64 / n as f64
    }
}
