//! Stable content fingerprints for cache keys.
//!
//! The fleet's measurement cache is *content-addressed*: a cached cell is
//! keyed by what was measured (machine model, workload spec, allocation
//! groups and configuration, noise model and seed), not by object
//! identity. [`fingerprint_of`] derives a stable 64-bit fingerprint from
//! any serializable value by hashing its serialized value tree —
//! deterministic across runs and processes (object keys are sorted,
//! floats hash by IEEE bit pattern), and automatically covering every
//! field a type serializes.
//!
//! ## Stability contract
//!
//! Fingerprints are part of the **on-disk cache format**: cache
//! snapshots (`hmpt_core::store`) persist raw fingerprint words, and a
//! snapshot only warm-starts a later process if that process computes
//! the *same* fingerprints for the same content. The following are
//! therefore frozen; changing any of them is a cache-key semantics
//! break that MUST bump `hmpt_core::store::SEMANTICS_VERSION` (old
//! snapshots are then rejected loudly instead of silently never
//! matching):
//!
//! * the FNV-1a constants and the final avalanche in [`StableHasher`],
//! * the per-type tag bytes and length prefixes in the value-tree
//!   encoding ([`fingerprint_of`]),
//! * the mixing order of [`Fingerprint::combine`],
//! * which fields the fingerprinted types serialize (a serde rename or
//!   field addition on `Machine`, `WorkloadSpec`, `AllocationGroup`, or
//!   `NoiseModel` moves their fingerprints — that is *correct*, the
//!   content changed; reordering unrelated hashing internals is not).
//!
//! The golden-value regression tests at the bottom of this module pin
//! the encoding; if one fails, either revert the encoding change or
//! bump the semantics version and update the pins in the same commit.
//!
//! ## Maps keyed by content hashes
//!
//! A map whose keys already are fingerprints, or small words such as a
//! configuration word or a site id, gains nothing from SipHash's
//! per-byte rounds. [`WordHasher`] (via [`WordMap`]) hashes each key
//! word with one rotate, xor and multiply. It is in-memory only — no
//! byte of it reaches a snapshot or a fingerprint — and it is not
//! flood-resistant, so it is for keys this process derives itself.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Serialize, Value};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A computed content fingerprint: a cheap `Copy` handle that can be
/// passed around, compared, and combined without re-serializing the
/// value it summarizes. Campaign layers compute one per (machine, spec,
/// groups, noise model) and reuse it for every cell key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// Fingerprint of any serializable value (see [`fingerprint_of`]).
    pub fn of<T: Serialize + ?Sized>(value: &T) -> Fingerprint {
        Fingerprint(fingerprint_of(value))
    }

    /// Wrap an already-computed raw hash.
    pub const fn from_raw(raw: u64) -> Fingerprint {
        Fingerprint(raw)
    }

    /// The raw 64-bit hash.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Derive a sub-fingerprint by mixing in one extra word (e.g. a
    /// per-cell seed on top of a memoized noise-model fingerprint) —
    /// much cheaper than re-serializing the composite value.
    pub fn combine(self, word: u64) -> Fingerprint {
        self.combiner().combine(word)
    }

    /// [`Self::combine`] with this fingerprint already hashed in, for a
    /// caller that combines one fingerprint with many words.
    pub fn combiner(self) -> Combiner {
        let mut h = StableHasher::new();
        h.write_u64(self.0);
        Combiner(h)
    }
}

/// The hash state of [`Fingerprint::combine`] after its first word:
/// combining it with a word hashes 8 bytes instead of 16 and gives the
/// same bits as `combine`.
#[derive(Debug, Clone, Copy)]
pub struct Combiner(StableHasher);

impl Combiner {
    /// `fp.combiner().combine(word) == fp.combine(word)`.
    pub fn combine(self, word: u64) -> Fingerprint {
        let mut h = self.0;
        h.write_u64(word);
        Fingerprint(h.finish())
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Incremental FNV-1a over structural input.
#[derive(Debug, Clone, Copy)]
pub struct StableHasher {
    state: u64,
}

impl StableHasher {
    pub fn new() -> Self {
        StableHasher { state: FNV_OFFSET }
    }

    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    pub fn write_u8(&mut self, v: u8) -> &mut Self {
        self.write_bytes(&[v])
    }

    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    pub fn write_f64(&mut self, v: f64) -> &mut Self {
        self.write_u64(v.to_bits())
    }

    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_u64(s.len() as u64).write_bytes(s.as_bytes())
    }

    pub fn finish(&self) -> u64 {
        // One final avalanche so short inputs spread across all bits.
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// Fibonacci-hashing multiplier (2^64 / φ, odd).
const WORD_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// An Fx-style [`Hasher`] for keys made of 64-bit words (see the module
/// docs): each word costs one rotate, xor and multiply. A product's
/// high bits depend on every input bit but its low bits only on the
/// input's low bits, so [`Hasher::finish`] folds the high half into the
/// low half, where `HashMap` takes its bucket index.
#[derive(Debug, Clone, Copy, Default)]
pub struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(WORD_MUL);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A `HashMap` hashed by [`WordHasher`].
pub type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

fn hash_value(h: &mut StableHasher, v: &Value) {
    match v {
        Value::Null => {
            h.write_u8(0);
        }
        Value::Bool(b) => {
            h.write_u8(1).write_u8(*b as u8);
        }
        Value::U64(n) => {
            h.write_u8(2).write_u64(*n);
        }
        Value::I64(n) => {
            h.write_u8(3).write_u64(*n as u64);
        }
        Value::F64(n) => {
            h.write_u8(4).write_f64(*n);
        }
        Value::Str(s) => {
            h.write_u8(5).write_str(s);
        }
        Value::Array(a) => {
            h.write_u8(6).write_u64(a.len() as u64);
            for e in a {
                hash_value(h, e);
            }
        }
        Value::Object(m) => {
            h.write_u8(7).write_u64(m.len() as u64);
            // BTreeMap iteration is key-sorted → order-independent of
            // construction.
            for (k, e) in m {
                h.write_str(k);
                hash_value(h, e);
            }
        }
    }
}

/// Stable 64-bit content fingerprint of any serializable value.
pub fn fingerprint_of<T: Serialize + ?Sized>(value: &T) -> u64 {
    let mut h = StableHasher::new();
    hash_value(&mut h, &value.serialize_value());
    h.finish()
}

impl crate::machine::Machine {
    /// Content fingerprint of the full platform model (every calibrated
    /// constant participates — two machines fingerprint equal iff their
    /// serialized models are identical).
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint::of(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{xeon_max_9468, MachineBuilder};

    #[test]
    fn machine_fingerprint_is_stable_and_content_addressed() {
        let a = xeon_max_9468();
        let b = xeon_max_9468();
        assert_eq!(a.fingerprint(), b.fingerprint());
        // A clone fingerprints identically (content, not identity).
        assert_eq!(a.clone().fingerprint(), a.fingerprint());
    }

    #[test]
    fn any_calibration_change_moves_the_fingerprint() {
        let base = xeon_max_9468().fingerprint();
        let ablated = MachineBuilder::xeon_max().without_cross_write_penalty().build();
        assert_ne!(base, ablated.fingerprint());
        let slower = MachineBuilder::xeon_max().with_hbm_bw_factor(0.999).build();
        assert_ne!(base, slower.fingerprint());
    }

    #[test]
    fn primitive_fingerprints_distinguish_values_and_types() {
        assert_ne!(fingerprint_of(&1u64), fingerprint_of(&2u64));
        assert_ne!(fingerprint_of(&1u64), fingerprint_of(&1.0f64));
        assert_ne!(fingerprint_of("a"), fingerprint_of("b"));
        assert_ne!(fingerprint_of(&vec![1u64, 2]), fingerprint_of(&vec![2u64, 1]));
        assert_eq!(fingerprint_of(&vec![1u64, 2]), fingerprint_of(&vec![1u64, 2]));
    }

    #[test]
    fn float_fingerprints_use_bit_patterns() {
        assert_ne!(fingerprint_of(&0.1f64), fingerprint_of(&(0.1f64 + 1e-16)));
        assert_eq!(fingerprint_of(&0.25f64), fingerprint_of(&0.25f64));
    }

    /// Golden values: the encoding is part of the on-disk cache format
    /// (see the module docs). A failure here means the fingerprint
    /// semantics changed — bump `hmpt_core::store::SEMANTICS_VERSION`
    /// and re-pin these in the same commit, or revert the change.
    #[test]
    fn fingerprint_encoding_is_pinned() {
        assert_eq!(fingerprint_of(&1u64), 0x7878_e952_9d15_e750);
        assert_eq!(fingerprint_of(&0.25f64), 0x934f_e17a_184c_1bcf);
        assert_eq!(fingerprint_of("mg.D"), 0x1445_ef0b_011e_82d1);
        assert_eq!(fingerprint_of(""), 0x9741_5220_5117_9a4a);
        assert_eq!(fingerprint_of(&vec![1u64, 2, 3]), 0xa4a9_0f67_b9a5_767e);
        assert_eq!(Fingerprint::from_raw(0xdead_beef).combine(42).raw(), 0x2067_7842_c5ab_1f7f);
    }

    #[test]
    fn a_combiner_hashes_both_words_like_one_stable_hasher() {
        for (fp, word) in
            [(0, 0), (0xdead_beef, 42), (u64::MAX, 7), (0x7878_e952_9d15_e750, 1 << 63)]
        {
            let both = StableHasher::new().write_u64(fp).write_u64(word).finish();
            let fp = Fingerprint::from_raw(fp);
            assert_eq!(fp.combiner().combine(word).raw(), both);
            assert_eq!(fp.combine(word).raw(), both);
        }
    }

    #[test]
    fn word_hasher_spreads_config_words_and_fingerprints_over_buckets() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<WordHasher>::default();
        // The word shapes the maps see: sequential binary configuration
        // words, mixed-radix words (a marker bit over base-3 digits, two
        // bits each) and avalanche-mixed fingerprints. Random hashes put
        // n keys into about 0.79·n distinct buckets of a 2n-bucket
        // table; each shape must come close.
        let mixed = |r: u64| (0..8).fold(1u64 << 63, |w, g| w | (r / 3u64.pow(g) % 3) << (2 * g));
        let shapes: [Vec<u64>; 3] = [
            (0..4096).collect(),
            (0..6561).map(mixed).collect(),
            (0..4096).map(|k| Fingerprint::of(&k).raw()).collect(),
        ];
        for keys in shapes {
            let mask = (2 * keys.len()).next_power_of_two() as u64 - 1;
            let mut buckets: Vec<u64> = keys.iter().map(|&k| build.hash_one(k) & mask).collect();
            buckets.sort_unstable();
            buckets.dedup();
            let n = keys.len();
            assert!(buckets.len() * 10 > n * 7, "{} buckets for {n} keys", buckets.len());
        }
    }

    #[test]
    fn combine_derives_distinct_sub_fingerprints() {
        let base = Fingerprint::of(&"noise-model");
        assert_ne!(base.combine(0), base.combine(1));
        assert_eq!(base.combine(7), base.combine(7));
        // Combining is position-sensitive: (a ⊕ b) ≠ (b ⊕ a) in general.
        let other = Fingerprint::of(&"other");
        assert_ne!(base.combine(other.raw()), other.combine(base.raw()));
        assert_eq!(Fingerprint::from_raw(base.raw()), base);
    }
}
