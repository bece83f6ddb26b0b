//! The extractors' one piece of bookkeeping: a map from packed lattice
//! keys to `u32` payloads.
//!
//! Both extractors weld surface vertices per lattice *edge*, and the
//! sparse extractor additionally shares field values per lattice
//! *corner*; each is "have I seen this lattice site, and what did I store
//! there". Keys come from [`corner_key`] / [`edge_key`], are never
//! attacker-chosen, and arrive in the octree's spatially coherent order,
//! so the map is a two-level brick index rather than a general hash map:
//! a 4×4×4 block of sites is one contiguous 256-byte brick, and only a
//! small open-addressed directory (multiplicative hash, linear probing)
//! is searched per lookup. Neighbouring sites share cache lines, the
//! directory stays cache-resident, and both levels grow with what the
//! extraction inserts — nothing is sized from the resolution.

/// Bits per axis in a packed key. Coordinates stay below `2^20` so the
/// sum of two corner keys (an [`edge_key`]) cannot carry across fields.
const AXIS_BITS: u32 = 21;

/// Pack lattice coordinates into a unique 64-bit corner id.
#[inline]
pub(crate) fn corner_key(x: u32, y: u32, z: u32) -> u64 {
    debug_assert!(x.max(y).max(z) < 1 << (AXIS_BITS - 1), "lattice coordinate out of range");
    ((x as u64) << (2 * AXIS_BITS)) | ((y as u64) << AXIS_BITS) | z as u64
}

/// Id of the lattice edge between two corners: the packed coordinates of
/// twice its midpoint. Distinct edges of the tetrahedral split have
/// distinct midpoints, and the key does not depend on argument order.
#[inline]
pub(crate) fn edge_key(a: u64, b: u64) -> u64 {
    a + b
}

/// log2 of a brick's side, in lattice sites.
const BRICK_BITS: u32 = 2;
const BRICK_SITES: usize = 1 << (3 * BRICK_BITS);
/// The within-brick bits of one axis, and of every axis field of a packed key.
const BRICK_MASK: u64 = (1 << BRICK_BITS) - 1;
const SITE_MASK: u64 = (BRICK_MASK << (2 * AXIS_BITS)) | (BRICK_MASK << AXIS_BITS) | BRICK_MASK;

/// Marks an unused site, and (as a key) an unused directory slot: no
/// vertex index or brick key reaches it. A stored `VACANT` reads back as
/// absent, which for the one NaN with this bit pattern means "sample again".
const VACANT: u32 = u32::MAX;
const NO_BRICK: u64 = u64::MAX;

/// Insert-only map from packed lattice keys to `u32`, in two levels: an
/// open-addressed directory of the bricks that hold anything, and the
/// bricks themselves, each `BRICK_SITES` payloads in one flat vector.
/// Emptied whole by [`LatticeMap::clear`], which keeps both levels'
/// memory for the next extraction.
pub(crate) struct LatticeMap {
    /// `(brick key, brick number)`, linearly probed; a power of two long.
    directory: Vec<(u64, u32)>,
    /// `64 - log2(directory.len())`: the hash keeps its top bits.
    shift: u32,
    sites: Vec<u32>,
}

impl Default for LatticeMap {
    fn default() -> Self {
        let bits = 8;
        Self { directory: vec![(NO_BRICK, 0); 1 << bits], shift: 64 - bits, sites: Vec::new() }
    }
}

impl LatticeMap {

    /// Forget every key and keep the memory: the directory keeps its
    /// size, every slot vacant, and the bricks their capacity.
    pub fn clear(&mut self) {
        self.directory.fill((NO_BRICK, 0));
        self.sites.clear();
    }

    #[inline]
    fn split(key: u64) -> (u64, usize) {
        let (x, y, z) = (key >> (2 * AXIS_BITS), key >> AXIS_BITS, key);
        let site = ((x & BRICK_MASK) << (2 * BRICK_BITS)) | ((y & BRICK_MASK) << BRICK_BITS) | (z & BRICK_MASK);
        (key & !SITE_MASK, site as usize)
    }

    /// Directory slot holding `brick`, or the vacant slot where it belongs.
    #[inline]
    fn probe(&self, brick: u64) -> usize {
        let mask = self.directory.len() - 1;
        let mut slot = (brick.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        while self.directory[slot].0 != brick && self.directory[slot].0 != NO_BRICK {
            slot = (slot + 1) & mask;
        }
        slot
    }

    #[inline]
    pub fn get(&self, key: u64) -> Option<u32> {
        let (brick, site) = Self::split(key);
        let (found, number) = self.directory[self.probe(brick)];
        if found == NO_BRICK {
            return None;
        }
        let value = self.sites[number as usize * BRICK_SITES + site];
        (value != VACANT).then_some(value)
    }

    #[inline]
    pub fn insert(&mut self, key: u64, value: u32) {
        let (brick, site) = Self::split(key);
        let (found, mut number) = self.directory[self.probe(brick)];
        if found == NO_BRICK {
            number = self.add_brick(brick);
        }
        self.sites[number as usize * BRICK_SITES + site] = value;
    }

    /// Append a vacant brick and enter it in the directory, which doubles
    /// when half full.
    fn add_brick(&mut self, brick: u64) -> u32 {
        let number = (self.sites.len() / BRICK_SITES) as u32;
        self.sites.resize(self.sites.len() + BRICK_SITES, VACANT);
        if (number as usize + 1) * 2 > self.directory.len() {
            self.shift -= 1;
            let old = std::mem::replace(&mut self.directory, vec![(NO_BRICK, 0); 1 << (64 - self.shift)]);
            for entry in old.into_iter().filter(|e| e.0 != NO_BRICK) {
                let slot = self.probe(entry.0);
                self.directory[slot] = entry;
            }
        }
        let slot = self.probe(brick);
        self.directory[slot] = (brick, number);
        number
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::{Entry, HashMap};

    #[test]
    fn agrees_with_a_std_map_across_growth() {
        let mut map = LatticeMap::default();
        let mut reference = HashMap::new();
        let mut rng = holo_math::Pcg32::new(5);
        for i in 0..20_000u32 {
            // Clustered keys, as a surface produces, with repeats.
            let key = corner_key(rng.next_u32() % 40, rng.next_u32() % 40, rng.next_u32() % 40);
            assert_eq!(map.get(key), reference.get(&key).copied());
            if let Entry::Vacant(vacant) = reference.entry(key) {
                map.insert(key, i);
                vacant.insert(i);
            }
        }
        assert!(map.directory.len() > 1 << 8, "the directory must have grown");
        for (key, value) in reference {
            assert_eq!(map.get(key), Some(value));
        }
    }

    /// A cleared map keeps its grown directory and holds nothing; filled
    /// again, it answers as a new map filled the same way.
    #[test]
    fn a_cleared_map_answers_as_a_new_one() {
        let mut rng = holo_math::Pcg32::new(6);
        let mut keys = |n: usize| -> Vec<u64> { (0..n).map(|_| corner_key(rng.next_u32() % 40, rng.next_u32() % 40, rng.next_u32() % 40)).collect() };
        let (first, second) = (keys(20_000), keys(2_000));
        let mut map = LatticeMap::default();
        for (i, &key) in first.iter().enumerate() {
            map.insert(key, i as u32);
        }
        let grown = map.directory.len();
        map.clear();
        assert_eq!(map.directory.len(), grown);
        assert!(first.iter().all(|&key| map.get(key).is_none()));
        let mut fresh = LatticeMap::default();
        for (i, &key) in second.iter().enumerate() {
            map.insert(key, i as u32);
            fresh.insert(key, i as u32);
        }
        for &key in first.iter().chain(&second) {
            assert_eq!(map.get(key), fresh.get(key));
        }
    }

    #[test]
    fn edge_keys_are_symmetric_and_distinct_within_a_cube() {
        use crate::marching::{CUBE_CORNERS, CUBE_TETS};
        let corner = |i: usize, at: (u32, u32, u32)| {
            let (dx, dy, dz) = CUBE_CORNERS[i];
            corner_key(at.0 + dx, at.1 + dy, at.2 + dz)
        };
        // All tetrahedron edges of two face-adjacent cubes: equal keys
        // exactly when the edges coincide geometrically.
        let mut seen: HashMap<u64, (u64, u64)> = HashMap::new();
        for at in [(3, 4, 5), (4, 4, 5)] {
            for tet in &CUBE_TETS {
                for i in 0..4 {
                    for j in i + 1..4 {
                        let (a, b) = (corner(tet[i], at), corner(tet[j], at));
                        assert_eq!(edge_key(a, b), edge_key(b, a));
                        let ends = (a.min(b), a.max(b));
                        assert_eq!(*seen.entry(edge_key(a, b)).or_insert(ends), ends);
                    }
                }
            }
        }
        // 19 edges per cube, 5 of them on the shared face.
        assert_eq!(seen.len(), 19 + 19 - 5);
    }
}
