//! The benchmark's inputs are a pure function of its seed, and every
//! seed measures both placement paths of the federated workload.

use perfbench::gen::{self, Inputs, FLEET_SHARDS, KEYS_PER_SHARD, STOP};

/// The seed the benchmark's documentation runs with, and others.
const SEEDS: [u64; 4] = [1, 2, 1007, 0xdead_beef];

/// Placements drawn per check: far fewer than one measured run makes.
const DRAWS: usize = 500;

fn draws(inputs: &Inputs) -> (Vec<u64>, Vec<String>) {
    let payloads = inputs.payloads().take(DRAWS).collect();
    let mut keys = inputs.family_keys();
    let keys = (0..DRAWS).map(|_| keys.next_key().to_string()).collect();
    (payloads, keys)
}

#[test]
fn same_seed_gives_same_inputs() {
    for seed in SEEDS {
        let (a, b) = (Inputs::from_seed(seed), Inputs::from_seed(seed));
        assert_eq!(a, b, "seed {seed}");
        assert_eq!(draws(&a), draws(&b), "seed {seed}");
    }
}

#[test]
fn different_seeds_give_different_inputs() {
    let (a, b) = (Inputs::from_seed(SEEDS[0]), Inputs::from_seed(SEEDS[1]));
    assert_ne!(a.selection_seed, b.selection_seed);
    assert_ne!(a.fleet_secret, b.fleet_secret);
    assert_ne!(draws(&a), draws(&b));
}

#[test]
fn payloads_leave_room_for_the_reply_and_the_sentinel() {
    for seed in SEEDS {
        for v in Inputs::from_seed(seed).payloads().take(DRAWS) {
            assert!(v.checked_add(1).is_some() && v != STOP && v + 1 != STOP);
        }
    }
}

#[test]
fn both_placement_paths_are_measured() {
    for seed in SEEDS {
        let inputs = Inputs::from_seed(seed);
        let redirected = inputs
            .family_pool
            .iter()
            .filter(|k| gen::redirected(k))
            .count();
        assert_eq!(
            redirected,
            KEYS_PER_SHARD * (FLEET_SHARDS - 1),
            "seed {seed}"
        );
        let (_, keys) = draws(&inputs);
        let share = gen::redirect_share(keys.iter().map(String::as_str));
        assert!(
            share > 0.0 && share < 1.0,
            "seed {seed}: redirect share {share}"
        );
    }
}
