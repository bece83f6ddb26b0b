//! The extractors' one piece of bookkeeping: a store of lattice sites.
//!
//! The sparse extractor shares a field value per lattice *corner*, and
//! both extractors weld surface vertices per lattice *edge*. Every edge
//! of the tetrahedral split runs from a lower corner to one whose offset
//! bits are a superset of the lower one's, so an edge is exactly its lower
//! site and the direction `hi ^ lo` (1..=7), and a site owns the (up to)
//! seven edges that leave it. So one store answers both: per site a value
//! and, once the first edge leaving it is asked for, a record of seven
//! vertex slots.
//!
//! Keys come from [`corner_key`], are never attacker-chosen, and arrive in
//! the octree's spatially coherent order, so the store is a two-level
//! brick index rather than a general hash map: a 4×4×4 block of sites is
//! one contiguous brick, and only a small open-addressed directory
//! (multiplicative hash, linear probing) is searched per keyed lookup. A
//! lookup resolves a key to its site's *slot*, and everything after that
//! is indexed by the slot, with no hash. Neighbouring sites share cache
//! lines, the directory stays cache-resident, and both levels grow with
//! what the extraction reaches — nothing is sized from the resolution.

/// Bits per axis in a packed key.
const AXIS_BITS: u32 = 21;

/// Pack lattice coordinates into a unique 64-bit corner id.
#[inline]
pub(crate) fn corner_key(x: u32, y: u32, z: u32) -> u64 {
    debug_assert!(x.max(y).max(z) < 1 << (AXIS_BITS - 1), "lattice coordinate out of range");
    ((x as u64) << (2 * AXIS_BITS)) | ((y as u64) << AXIS_BITS) | z as u64
}

/// log2 of a brick's side, in lattice sites.
const BRICK_BITS: u32 = 2;
const BRICK_SITES: usize = 1 << (3 * BRICK_BITS);
/// The within-brick bits of one axis, and of every axis field of a packed key.
const BRICK_MASK: u64 = (1 << BRICK_BITS) - 1;
const SITE_MASK: u64 = (BRICK_MASK << (2 * AXIS_BITS)) | (BRICK_MASK << AXIS_BITS) | BRICK_MASK;

/// Marks an unset value, record or vertex, and (as a key) an unused
/// directory slot: no vertex index, record number or brick key reaches
/// it. A stored `VACANT` value reads back as absent, which for the one
/// NaN with this bit pattern means "sample again".
pub(crate) const VACANT: u32 = u32::MAX;
const NO_BRICK: u64 = u64::MAX;

/// One lattice site: its field value's bits, and the number of its edge
/// record, each [`VACANT`] until set.
#[derive(Clone, Copy)]
struct Site {
    value: u32,
    record: u32,
}

const VACANT_SITE: Site = Site { value: VACANT, record: VACANT };

/// Insert-only store of lattice sites, in two levels: an open-addressed
/// directory of the bricks that hold anything, and the bricks themselves,
/// each `BRICK_SITES` sites in one flat vector. A site's edge record (the
/// vertex on each of its seven edges) is allocated when the first of them
/// is asked for. Emptied whole by [`Lattice::clear`], which keeps every
/// level's memory for the next extraction.
pub(crate) struct Lattice {
    /// `(brick key, brick number)`, linearly probed; a power of two long.
    directory: Vec<(u64, u32)>,
    /// `64 - log2(directory.len())`: the hash keeps its top bits.
    shift: u32,
    sites: Vec<Site>,
    /// Per record, the vertex on the edge in direction `d` at `d - 1`.
    records: Vec<[u32; 7]>,
    /// Keyed lookups since the last [`Lattice::clear`].
    lookups: u64,
}

impl Default for Lattice {
    fn default() -> Self {
        let bits = 8;
        Self { directory: vec![(NO_BRICK, 0); 1 << bits], shift: 64 - bits, sites: Vec::new(), records: Vec::new(), lookups: 0 }
    }
}

impl Lattice {
    /// Forget every site and keep the memory: the directory keeps its
    /// size, every slot vacant, and the bricks and records their capacity.
    pub fn clear(&mut self) {
        self.directory.fill((NO_BRICK, 0));
        self.sites.clear();
        self.records.clear();
        self.lookups = 0;
    }

    /// Keyed lookups ([`Lattice::slot`] calls) since the last clear.
    pub fn lookups(&self) -> u64 {
        self.lookups
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

    /// The slot of the site `key`, its brick entered vacant if new. A
    /// slot stays valid until the next clear.
    #[inline]
    pub fn slot(&mut self, key: u64) -> usize {
        self.lookups += 1;
        let (brick, site) = Self::split(key);
        let (found, mut number) = self.directory[self.probe(brick)];
        if found == NO_BRICK {
            number = self.add_brick(brick);
        }
        number as usize * BRICK_SITES + site
    }

    /// The value stored at `slot`, if any.
    #[inline]
    pub fn value(&self, slot: usize) -> Option<f32> {
        let bits = self.sites[slot].value;
        (bits != VACANT).then(|| f32::from_bits(bits))
    }

    #[inline]
    pub fn set_value(&mut self, slot: usize, value: f32) {
        self.sites[slot].value = value.to_bits();
    }

    /// Store `value` at the site `key`.
    pub fn insert(&mut self, key: u64, value: f32) {
        let slot = self.slot(key);
        self.set_value(slot, value);
    }

    /// The vertex on the edge leaving the site at `slot` in direction
    /// `dir` (1..=7: the offset bits the upper end adds), [`VACANT`]
    /// until set. The site's record is allocated on first use.
    #[inline]
    pub fn edge(&mut self, slot: usize, dir: usize) -> &mut u32 {
        debug_assert!((1..=7).contains(&dir), "edge direction {dir}");
        let mut record = self.sites[slot].record;
        if record == VACANT {
            record = self.records.len() as u32;
            self.records.push([VACANT; 7]);
            self.sites[slot].record = record;
        }
        &mut self.records[record as usize][dir - 1]
    }

    /// Append a vacant brick and enter it in the directory, which doubles
    /// when half full.
    fn add_brick(&mut self, brick: u64) -> u32 {
        let number = (self.sites.len() / BRICK_SITES) as u32;
        self.sites.resize(self.sites.len() + BRICK_SITES, VACANT_SITE);
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

    /// The value at `key`, through a slot.
    fn get(lattice: &mut Lattice, key: u64) -> Option<u32> {
        let slot = lattice.slot(key);
        lattice.value(slot).map(f32::to_bits)
    }

    #[test]
    fn agrees_with_a_std_map_across_growth() {
        let mut lattice = Lattice::default();
        let mut reference = HashMap::new();
        let mut rng = holo_math::Pcg32::new(5);
        for i in 0..20_000u32 {
            // Clustered keys, as a surface produces, with repeats.
            let key = corner_key(rng.next_u32() % 40, rng.next_u32() % 40, rng.next_u32() % 40);
            assert_eq!(get(&mut lattice, key), reference.get(&key).copied());
            if let Entry::Vacant(vacant) = reference.entry(key) {
                lattice.insert(key, f32::from_bits(i));
                vacant.insert(i);
                // An edge record of its own: direction `i % 7 + 1` holds `i`.
                let slot = lattice.slot(key);
                *lattice.edge(slot, i as usize % 7 + 1) = i;
            }
        }
        assert!(lattice.directory.len() > 1 << 8, "the directory must have grown");
        for (key, value) in reference {
            assert_eq!(get(&mut lattice, key), Some(value));
            let slot = lattice.slot(key);
            for dir in 1..=7 {
                let want = if dir == value as usize % 7 + 1 { value } else { VACANT };
                assert_eq!(*lattice.edge(slot, dir), want);
            }
        }
    }

    /// A cleared store keeps its grown directory and holds nothing;
    /// filled again, it answers as a new store filled the same way.
    #[test]
    fn a_cleared_map_answers_as_a_new_one() {
        let mut rng = holo_math::Pcg32::new(6);
        let mut keys = |n: usize| -> Vec<u64> { (0..n).map(|_| corner_key(rng.next_u32() % 40, rng.next_u32() % 40, rng.next_u32() % 40)).collect() };
        let (first, second) = (keys(20_000), keys(2_000));
        let mut lattice = Lattice::default();
        for (i, &key) in first.iter().enumerate() {
            lattice.insert(key, f32::from_bits(i as u32));
            let slot = lattice.slot(key);
            *lattice.edge(slot, 1 + i % 7) = i as u32;
        }
        let grown = lattice.directory.len();
        lattice.clear();
        assert_eq!((lattice.directory.len(), lattice.lookups()), (grown, 0));
        assert!(first.iter().all(|&key| get(&mut lattice, key).is_none()));
        lattice.clear();
        let mut fresh = Lattice::default();
        for (i, &key) in second.iter().enumerate() {
            for store in [&mut lattice, &mut fresh] {
                store.insert(key, f32::from_bits(i as u32));
                let slot = store.slot(key);
                *store.edge(slot, 7 - i % 7) = i as u32;
            }
        }
        for &key in first.iter().chain(&second) {
            assert_eq!(get(&mut lattice, key), get(&mut fresh, key));
            let (a, b) = (lattice.slot(key), fresh.slot(key));
            assert!((1..=7).all(|dir| *lattice.edge(a, dir) == *fresh.edge(b, dir)));
        }
        assert_eq!(lattice.lookups(), fresh.lookups());
    }

    /// Every edge of the split runs from a lower corner to a superset of
    /// its offset bits, so (lower site, `hi ^ lo`) names it; the 19 edges
    /// of a cube name 19 distinct slots, and two face-adjacent cubes name
    /// the same slot exactly for their 5 shared edges.
    #[test]
    fn tet_edges_are_distinct_lower_site_directions() {
        use crate::marching::{CUBE_CORNERS, CUBE_TETS};
        let site = |i: usize, at: (u32, u32, u32)| {
            let (dx, dy, dz) = CUBE_CORNERS[i];
            corner_key(at.0 + dx, at.1 + dy, at.2 + dz)
        };
        let mut lattice = Lattice::default();
        // (lower site's slot, direction) -> the edge's two sites.
        let mut seen: HashMap<(usize, usize), (u64, u64)> = HashMap::new();
        for at in [(3, 4, 5), (4, 4, 5)] {
            let mut own = std::collections::HashSet::new();
            for tet in &CUBE_TETS {
                for i in 0..4 {
                    for j in i + 1..4 {
                        let (a, b) = (tet[i], tet[j]);
                        let (lo, hi) = (a & b, a | b);
                        assert!(lo == a.min(b) && hi == a.max(b), "corners {a} and {b}: neither holds the other's bits");
                        let ends = (site(lo, at), site(hi, at));
                        let edge = (lattice.slot(ends.0), a ^ b);
                        own.insert(edge);
                        assert_eq!(*seen.entry(edge).or_insert(ends), ends);
                    }
                }
            }
            assert_eq!(own.len(), 19, "19 edges per cube");
        }
        // 5 of them on the shared face.
        assert_eq!(seen.len(), 19 + 19 - 5);
    }
}
