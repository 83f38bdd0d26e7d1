//! The batch kernel's precompiled channel deltas against a from-scratch
//! recomputation, on every protocol of the lint registry.
//!
//! Each exact firing goes through `BatchCore::fire`, which updates the
//! counts and the identity weights (`W_id` and its row/column marginals)
//! from the channel's net count deltas and its `IdentityDelta`. After
//! every firing the maintained weights must equal `IdentityWeights::new`
//! on the resulting counts. The registry holds Algorithm 1 at several k,
//! its ablations and variants, and the classic baselines, so every rule
//! shape they use is covered: catalysts whose −1/+1 cancel (the rule 3/4
//! flips), self-pairs (rule 8) and multi-state rewrites.

use pp_engine::leap::IdentityWeights;
use pp_engine::BatchCore;
use pp_lint::registry;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

#[test]
fn channel_firings_match_recomputed_identity_weights() {
    let mut rng = SmallRng::seed_from_u64(20180725);
    for entry in registry::all() {
        let proto = &entry.proto;
        let core = BatchCore::compile(proto);
        let m = proto.num_states() as u64;
        let n = 60u64;
        for _ in 0..4 {
            // A random configuration over all states, reachable or not.
            let mut counts = vec![0u64; m as usize];
            for _ in 0..n {
                counts[(rng.next_u64() % m) as usize] += 1;
            }
            let mut weights = IdentityWeights::new(proto, &counts);
            for _ in 0..150 {
                if weights.identity_weight() == n * (n - 1) {
                    break;
                }
                let (p, q) = weights.sample_effective(proto, n, &counts, &mut rng);
                core.fire(p, q, &mut counts, &mut weights);
                assert_eq!(counts.iter().sum::<u64>(), n, "{}", entry.slug);
                assert_eq!(
                    weights,
                    IdentityWeights::new(proto, &counts),
                    "{}: after firing ({}, {}) at {counts:?}",
                    entry.slug,
                    p.index(),
                    q.index()
                );
            }
        }
    }
}
