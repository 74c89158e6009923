//! A fast, unkeyed hasher for maps keyed by ids the compiler assigns.
//!
//! std's `HashMap` defaults to SipHash with a random key, which resists
//! keys chosen to collide. The optimizer and the register allocator key
//! their maps by registers, labels, symbols and instruction ids, which the
//! compiler hands out in sequence, so source text cannot pick them; those
//! maps use this multiply-rotate hash (the one rustc calls `FxHasher`)
//! instead. Maps whose keys hold values taken from the source, such as
//! CSE's expression keys, keep std's keyed `RandomState`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Folds each word into the state with a rotate, an xor and a multiply.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{Reg, RegClass};

    #[test]
    fn distinct_registers_hash_apart_and_maps_work() {
        let regs: Vec<Reg> = (0..1000)
            .flat_map(|i| [Reg::virt(RegClass::Int, i), Reg::virt(RegClass::Flt, i)])
            .chain((0..32).map(Reg::int))
            .collect();
        let map: FxHashMap<Reg, usize> = regs.iter().enumerate().map(|(i, &r)| (r, i)).collect();
        assert_eq!(map.len(), regs.len());
        for (i, r) in regs.iter().enumerate() {
            assert_eq!(map[r], i);
        }
        let hashes: FxHashSet<u64> = regs
            .iter()
            .map(|r| {
                let mut h = FxHasher::default();
                std::hash::Hash::hash(r, &mut h);
                h.finish()
            })
            .collect();
        assert_eq!(hashes.len(), regs.len(), "no two registers collide");
    }
}
