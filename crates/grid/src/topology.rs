//! Block adjacency for multi-block datasets.
//!
//! Neighbour relations are needed in two places: pathline continuation
//! (when a particle leaves a block, only adjacent blocks are candidates)
//! and the "more sophisticated" sequential-prefetch ordering the paper
//! mentions in §4.2 (topology-aware block sequences).

use crate::block::BlockId;
use crate::math::Aabb;

/// Spatial adjacency between the blocks of one dataset (time-independent,
/// since geometry is static).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockTopology {
    /// `neighbors[b]` lists the ids of blocks whose (slightly inflated)
    /// bounding boxes intersect block `b`'s, excluding `b` itself.
    neighbors: Vec<Vec<BlockId>>,
    /// The inflated bounding boxes used for point→block candidate lookup.
    bboxes: Vec<Aabb>,
}

impl BlockTopology {
    /// Computes adjacency from per-block bounding boxes. `eps` inflates the
    /// boxes before the intersection test so that blocks sharing only an
    /// interface plane still register as neighbours.
    pub fn from_bboxes(bboxes: Vec<Aabb>, eps: f64) -> Self {
        let inflated: Vec<Aabb> = bboxes.iter().map(|b| b.inflate(eps)).collect();
        let mut neighbors = vec![Vec::new(); bboxes.len()];
        for a in 0..inflated.len() {
            for b in (a + 1)..inflated.len() {
                if inflated[a].intersects(&inflated[b]) {
                    neighbors[a].push(b as BlockId);
                    neighbors[b].push(a as BlockId);
                }
            }
        }
        BlockTopology {
            neighbors,
            bboxes: inflated,
        }
    }

    pub fn n_blocks(&self) -> usize {
        self.neighbors.len()
    }

    /// Neighbours of block `b` (ascending id order for ids > b is not
    /// guaranteed; the full list is sorted).
    pub fn neighbors(&self, b: BlockId) -> &[BlockId] {
        &self.neighbors[b as usize]
    }

    /// Inflated bounding box of a block.
    pub fn bbox(&self, b: BlockId) -> &Aabb {
        &self.bboxes[b as usize]
    }

    /// Blocks whose inflated bounding boxes contain `p`, in ascending id
    /// order. Candidates for point location.
    pub fn candidates_for_point(&self, p: crate::math::Vec3) -> Vec<BlockId> {
        (0..self.bboxes.len() as BlockId)
            .filter(|&b| self.bboxes[b as usize].contains(p))
            .collect()
    }

    /// Like [`candidates_for_point`](Self::candidates_for_point) but tries
    /// `hint` first and then its neighbours before the global scan — the
    /// common case during particle tracing.
    pub fn candidates_near(&self, p: crate::math::Vec3, hint: BlockId) -> Vec<BlockId> {
        let mut out = Vec::new();
        if (hint as usize) < self.bboxes.len() && self.bboxes[hint as usize].contains(p) {
            out.push(hint);
        }
        for &n in self.neighbors(hint) {
            if self.bboxes[n as usize].contains(p) {
                out.push(n);
            }
        }
        if out.is_empty() {
            return self.candidates_for_point(p);
        }
        out
    }

    /// A topology-aware sequential ordering of blocks: breadth-first from
    /// block 0, falling back to unvisited lowest-id seeds for disconnected
    /// components. This is the "more sophisticated approach" to defining the
    /// next-block relation suggested in §4.2.
    pub fn bfs_order(&self) -> Vec<BlockId> {
        let n = self.n_blocks();
        let mut visited = vec![false; n];
        let mut order = Vec::with_capacity(n);
        let mut queue = std::collections::VecDeque::new();
        for seed in 0..n {
            if visited[seed] {
                continue;
            }
            visited[seed] = true;
            queue.push_back(seed as BlockId);
            while let Some(b) = queue.pop_front() {
                order.push(b);
                for &nb in self.neighbors(b) {
                    if !visited[nb as usize] {
                        visited[nb as usize] = true;
                        queue.push_back(nb);
                    }
                }
            }
        }
        order
    }
}

/// Builds the topology of a synthetic dataset from its block geometries.
pub fn topology_of(ds: &crate::synth::SyntheticDataset, eps: f64) -> BlockTopology {
    BlockTopology::from_bboxes(ds.blocks().iter().map(|b| *b.bbox()).collect(), eps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::Vec3;

    fn row_of_boxes(n: usize) -> Vec<Aabb> {
        // n unit cubes side by side along x, touching at faces.
        (0..n)
            .map(|i| {
                Aabb::new(
                    Vec3::new(i as f64, 0.0, 0.0),
                    Vec3::new(i as f64 + 1.0, 1.0, 1.0),
                )
            })
            .collect()
    }

    #[test]
    fn face_adjacent_boxes_are_neighbors() {
        let topo = BlockTopology::from_bboxes(row_of_boxes(4), 1e-9);
        assert_eq!(topo.neighbors(0), &[1]);
        assert_eq!(topo.neighbors(1), &[0, 2]);
        assert_eq!(topo.neighbors(3), &[2]);
    }

    #[test]
    fn distant_boxes_are_not_neighbors() {
        let boxes = vec![
            Aabb::new(Vec3::ZERO, Vec3::splat(1.0)),
            Aabb::new(Vec3::splat(5.0), Vec3::splat(6.0)),
        ];
        let topo = BlockTopology::from_bboxes(boxes, 1e-9);
        assert!(topo.neighbors(0).is_empty());
        assert!(topo.neighbors(1).is_empty());
    }

    #[test]
    fn candidates_for_point() {
        let topo = BlockTopology::from_bboxes(row_of_boxes(3), 1e-9);
        assert_eq!(topo.candidates_for_point(Vec3::new(0.5, 0.5, 0.5)), vec![0]);
        // A point on the shared face belongs to both.
        let c = topo.candidates_for_point(Vec3::new(1.0, 0.5, 0.5));
        assert_eq!(c, vec![0, 1]);
        assert!(topo.candidates_for_point(Vec3::new(10.0, 0.0, 0.0)).is_empty());
    }

    #[test]
    fn candidates_near_prefers_hint() {
        let topo = BlockTopology::from_bboxes(row_of_boxes(3), 1e-9);
        let c = topo.candidates_near(Vec3::new(1.0, 0.5, 0.5), 1);
        assert_eq!(c[0], 1, "hint block is listed first");
        assert!(c.contains(&0));
    }

    #[test]
    fn bfs_order_visits_every_block_once() {
        let topo = BlockTopology::from_bboxes(row_of_boxes(5), 1e-9);
        let order = topo.bfs_order();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        assert_eq!(order[0], 0);
    }

    #[test]
    fn engine_topology_is_a_ring() {
        let ds = crate::synth::engine(4);
        let topo = topology_of(&ds, 1e-9);
        // Every sector of the cylinder touches its two azimuthal
        // neighbours; curved sectors' AABBs may also clip diagonal ones,
        // but each block has at least 2 neighbours and the graph is
        // connected.
        for b in 0..23 {
            assert!(topo.neighbors(b).len() >= 2, "block {b} under-connected");
        }
        assert_eq!(topo.bfs_order().len(), 23);
    }
}
