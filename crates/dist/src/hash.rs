//! The workspace's non-cryptographic hashes, in one place.
//!
//! * FNV-1a 64 ([`fnv1a64`], [`fnv1a_extend`]) keys values that are
//!   persisted or must stay stable across releases: journal frame and
//!   `PEPSNAP1` checksums, circuit-cache keys and ring placement.
//! * [`sigma_key`] seeds each gate's delay draw from its name. Every
//!   annotated delay depends on its bits, so it keeps its own multiplier.
//! * [`mix64`] is murmur3's `fmix64` avalanche finalizer.
//! * [`group_hash`] / [`fold_hashes`] build the event-group content
//!   digest the serve layer reports: word-at-a-time, so hashing a
//!   20k-node analysis costs a few milliseconds rather than the tens a
//!   byte-wise pass over the same events takes.

use crate::DistView;

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Multiplier of [`sigma_key`]: the FNV prime with one more zero digit.
const SIGMA_KEY_MUL: u64 = 0x0000_1000_0000_01b3;

/// The FNV-1a byte loop with a given multiplier.
fn xor_multiply(mut hash: u64, bytes: &[u8], mul: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(mul);
    }
    hash
}

/// Extends an FNV-1a hash with more bytes.
#[must_use]
pub fn fnv1a_extend(hash: u64, bytes: &[u8]) -> u64 {
    xor_multiply(hash, bytes, FNV_PRIME)
}

/// FNV-1a 64-bit of a byte string.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// The key that seeds a gate's delay draw in `pep-celllib`'s
/// annotation, from the gate's name. It is FNV-1a's loop, but its
/// multiplier is `0x1000_0000_01b3`, not the FNV prime
/// `0x100_0000_01b3`. Every annotated delay, and so every reported
/// result, depends on these bits, so they stay as they are.
#[must_use]
pub fn sigma_key(name: &str) -> u64 {
    xor_multiply(FNV_OFFSET, name.as_bytes(), SIGMA_KEY_MUL)
}

/// 64-bit avalanche finalizer (murmur3's `fmix64`): every input bit
/// flips each output bit with probability about one half.
#[must_use]
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

/// Start value of both chains below (the 64-bit golden ratio).
const CHAIN_SEED: u64 = 0x9e37_79b9_7f4a_7c15;
/// Odd multiplier of the chain step.
const CHAIN_MUL: u64 = 0xd6e8_feb8_6659_fd93;

/// One order-dependent chain step over an already-mixed word.
#[inline]
fn absorb(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(CHAIN_MUL)
}

/// Content hash of one event group: the tick and the exact probability
/// bits of every event with positive mass, in tick order (the event set
/// [`DistView::iter`] yields). Each event's two words are avalanche-
/// mixed off the dependency chain, so the loop runs at about one
/// multiply of latency per event. Two groups with equal
/// `(tick, prob.to_bits())` sequences hash equal, whatever their
/// storage.
#[must_use]
pub fn group_hash(v: DistView<'_>) -> u64 {
    let origin = v.origin();
    let mut h = CHAIN_SEED;
    for (i, &p) in v.probs().iter().enumerate() {
        if p > 0.0 {
            let tick = origin.wrapping_add(i as i64) as u64;
            h = absorb(h, mix64(tick ^ mix64(p.to_bits())));
        }
    }
    mix64(h)
}

/// Folds per-node [`group_hash`]es, in node order, into one digest:
/// two analyses digest equal iff every node's group hashes equal at the
/// same position.
#[must_use]
pub fn fold_hashes(hashes: impl IntoIterator<Item = u64>) -> u64 {
    mix64(hashes.into_iter().fold(CHAIN_SEED, absorb))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiscreteDist;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_extend(fnv1a64(b"foo"), b"bar"), fnv1a64(b"foobar"));
    }

    #[test]
    fn sigma_key_keeps_its_multiplier() {
        assert_eq!(sigma_key(""), FNV_OFFSET);
        assert_eq!(sigma_key("a"), 0xaf74_d84c_8601_ec8c);
        assert_eq!(sigma_key("G16"), 0x4c83_eb19_97e4_0459);
    }

    #[test]
    fn mix64_is_murmur3_fmix64() {
        assert_eq!(mix64(0), 0);
        assert_eq!(mix64(1), 0xb456_bcfc_34c2_cb2c);
    }

    #[test]
    fn group_hash_covers_ticks_bits_and_order() {
        let a = DiscreteDist::from_pairs([(3, 0.25), (4, 0.75)]);
        let h = group_hash(a.as_view());
        assert_eq!(h, group_hash(a.clone().as_view()), "deterministic");
        assert_ne!(h, group_hash(a.shifted(1).as_view()), "tick moves");
        let b = DiscreteDist::from_pairs([(3, 0.75), (4, 0.25)]);
        assert_ne!(h, group_hash(b.as_view()), "mass moves");
        let c = DiscreteDist::from_pairs([(3, 0.25), (4, 0.75 + f64::EPSILON)]);
        assert_ne!(h, group_hash(c.as_view()), "one ulp");
        assert_ne!(
            group_hash(DiscreteDist::empty().as_view()),
            group_hash(DiscreteDist::point(0).as_view())
        );
        // Interior zeros carry no event, so they do not enter the hash
        // as events; their ticks still place the later events.
        let gap = DiscreteDist::from_pairs([(3, 0.5), (5, 0.5)]);
        let dense = DiscreteDist::from_pairs([(3, 0.5), (4, 0.5)]);
        assert_ne!(group_hash(gap.as_view()), group_hash(dense.as_view()));
    }

    #[test]
    fn fold_is_order_sensitive() {
        let (x, y) = (group_hash(DiscreteDist::point(1).as_view()), 7);
        assert_ne!(fold_hashes([x, y]), fold_hashes([y, x]));
        assert_ne!(fold_hashes([x]), fold_hashes([x, x]));
        assert_ne!(fold_hashes([]), fold_hashes([x]));
    }
}
