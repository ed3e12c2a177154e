//! Precomputed CSR neighbor tables for static topologies.
//!
//! PEAS deployments are stationary: a node's position never changes after
//! deployment (paper Sections 3 and 5). Every spatial query the protocol
//! asks — "who hears a PROBE at range `Rp`?", "who is in data range?" — is
//! therefore answerable once, at world construction, instead of on every
//! broadcast. [`NeighborTables`] stores, for each *range class* the caller
//! uses, a compressed-sparse-row adjacency: two flat arrays (`offsets`,
//! `neighbors`) plus the per-edge true distance, so the per-broadcast work
//! collapses to one slice iteration with zero hashing and zero `sqrt`.
//!
//! ## Enumeration order
//!
//! Each node's row lists its neighbors in the *grid candidate order* of the
//! [`SpatialGrid`] the table was built from (bucket row-major, insertion
//! order within a bucket). That order is part of the radio medium's
//! determinism contract — random loss is drawn once per decodable receiver
//! in candidate order — so replaying a row reproduces the exact RNG stream
//! the live grid query would have produced.
//!
//! ## Memory
//!
//! O(Σ degree) per class: `node_count + 1` offsets plus one `u32` id and one
//! `f64` distance per directed edge. At the paper's densest setting
//! (480 nodes, 50 × 50 m, 10 m range) that is ≈ 29 k edges ≈ 350 KiB —
//! negligible next to the event queue.

use crate::grid::SpatialGrid;
use crate::par;
use crate::point::Point;

/// One range class's CSR adjacency.
#[derive(Clone, Debug, Default)]
struct Csr {
    /// `offsets[i]..offsets[i + 1]` indexes node `i`'s row.
    offsets: Vec<u32>,
    /// Neighbor ids, concatenated per node in grid candidate order.
    neighbors: Vec<u32>,
    /// True Euclidean distance of each edge, parallel to `neighbors`.
    distances: Vec<f64>,
}

/// Per-topology precomputed adjacency, one CSR table per range class.
///
/// # Examples
///
/// ```
/// use peas_geom::{Field, NeighborTables, Point, SpatialGrid};
///
/// let positions = vec![
///     Point::new(0.0, 0.0),
///     Point::new(3.0, 0.0),
///     Point::new(20.0, 0.0),
/// ];
/// let mut grid = SpatialGrid::new(Field::new(25.0, 25.0), 10.0);
/// for (i, &p) in positions.iter().enumerate() {
///     grid.insert(i, p);
/// }
/// let tables = NeighborTables::build(&grid, &positions, &[5.0, 25.0]);
/// assert_eq!(tables.neighbors(0, 0), &[1]); // only node 1 within 5 m
/// assert_eq!(tables.distances(0, 0), &[3.0]);
/// assert_eq!(tables.neighbors(1, 0).len(), 2); // everyone within 25 m
/// ```
#[derive(Clone, Debug)]
pub struct NeighborTables {
    node_count: usize,
    radii: Vec<f64>,
    tables: Vec<Csr>,
}

impl NeighborTables {
    /// Builds one CSR table per radius in `radii` over the static topology
    /// `positions`, enumerating each row from `grid`.
    ///
    /// `grid` must hold exactly the entries `(i, positions[i])`; rows then
    /// come out in the grid's documented candidate order. A node is never
    /// its own neighbor. Range comparison is inclusive (`dist <= radius`),
    /// matching [`SpatialGrid::within_entries`].
    ///
    /// # Panics
    ///
    /// Panics if any radius is not strictly positive and finite, or if the
    /// grid's entry count disagrees with `positions`.
    ///
    /// Large topologies (≥ [`par::PARALLEL_BUILD_THRESHOLD`] nodes) build
    /// their rows on a bounded worker pool, in node-index chunks spliced
    /// back in chunk order — the resulting tables are byte-identical to a
    /// serial build (see [`par`] for the memory budget). A topology of at
    /// most [`par::BUILD_CHUNK_NODES`] nodes is one chunk, whose buffers
    /// become the tables without a copy.
    pub fn build(grid: &SpatialGrid, positions: &[Point], radii: &[f64]) -> NeighborTables {
        assert_eq!(
            grid.len(),
            positions.len(),
            "grid entries must mirror positions"
        );
        let workers = par::build_workers(positions.len());
        let tables = radii
            .iter()
            .map(|&radius| {
                assert!(
                    radius.is_finite() && radius > 0.0,
                    "neighbor radius must be positive, got {radius}"
                );
                // Per-chunk rows: edge lists plus chunk-local row ends.
                let chunks = par::chunked_build(positions.len(), workers, |span| {
                    let mut neighbors = Vec::new();
                    let mut distances = Vec::new();
                    let mut row_ends = Vec::with_capacity(span.len());
                    for i in span {
                        let p = positions[i];
                        for (j, q) in grid.within_entries(p, radius) {
                            if j == i {
                                continue;
                            }
                            // peas-lint: allow(r3-unchecked-cast) -- node indices are validated below the u32 id space
                            neighbors.push(j as u32);
                            distances.push(p.distance(q));
                        }
                        row_ends.push(neighbors.len());
                    }
                    ((neighbors, distances), row_ends)
                });
                let (offsets, (neighbors, distances)) =
                    par::join_chunks(chunks, "edges in one class");
                Csr {
                    offsets,
                    neighbors,
                    distances,
                }
            })
            .collect();
        NeighborTables {
            node_count: positions.len(),
            radii: radii.to_vec(),
            tables,
        }
    }

    /// Bytes of table payload across all classes: offsets plus per-edge id
    /// and distance. The scale bench reports this as part of the
    /// per-topology memory budget.
    pub fn memory_bytes(&self) -> usize {
        self.tables
            .iter()
            .map(|t| {
                t.offsets.len() * std::mem::size_of::<u32>()
                    + t.neighbors.len() * std::mem::size_of::<u32>()
                    + t.distances.len() * std::mem::size_of::<f64>()
            })
            .sum()
    }

    /// Number of nodes the tables were built over.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The radii the classes were built for, in build order.
    pub fn radii(&self) -> &[f64] {
        &self.radii
    }

    /// Index of the class built for exactly `radius`, if any.
    ///
    /// Exact `f64` equality is intentional: classes are keyed by the same
    /// configured constants the caller later queries with.
    pub fn class_index(&self, radius: f64) -> Option<usize> {
        self.radii.iter().position(|&r| r == radius)
    }

    /// Hands over each class's columns, in build order: `(offsets,
    /// neighbors, distances)`, with `offsets[i]..offsets[i + 1]` indexing
    /// node `i`'s row. A caller that keeps the adjacency takes it without
    /// a copy.
    pub fn into_columns(self) -> impl Iterator<Item = (Vec<u32>, Vec<u32>, Vec<f64>)> {
        self.tables
            .into_iter()
            .map(|csr| (csr.offsets, csr.neighbors, csr.distances))
    }

    /// Directed edge count of one class.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn edge_count(&self, class: usize) -> usize {
        self.tables[class].neighbors.len()
    }

    fn row_bounds(&self, class: usize, node: usize) -> (usize, usize) {
        let csr = &self.tables[class];
        assert!(node < self.node_count, "node {node} out of range");
        (csr.offsets[node] as usize, csr.offsets[node + 1] as usize)
    }

    /// Ids of `node`'s neighbors in class `class`, in grid candidate order.
    ///
    /// # Panics
    ///
    /// Panics if `class` or `node` is out of range.
    pub fn neighbors(&self, class: usize, node: usize) -> &[u32] {
        let (lo, hi) = self.row_bounds(class, node);
        &self.tables[class].neighbors[lo..hi]
    }

    /// True distances to `node`'s neighbors, parallel to
    /// [`NeighborTables::neighbors`].
    ///
    /// # Panics
    ///
    /// Panics if `class` or `node` is out of range.
    pub fn distances(&self, class: usize, node: usize) -> &[f64] {
        let (lo, hi) = self.row_bounds(class, node);
        &self.tables[class].distances[lo..hi]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Field;

    fn tables_for(positions: &[Point], radii: &[f64]) -> NeighborTables {
        let field = Field::new(50.0, 50.0);
        let mut grid = SpatialGrid::new(field, 10.0);
        for (i, &p) in positions.iter().enumerate() {
            grid.insert(i, p);
        }
        NeighborTables::build(&grid, positions, radii)
    }

    #[test]
    fn rows_match_pairwise_distances() {
        use peas_des::rng::SimRng;
        let mut rng = SimRng::new(11);
        let positions: Vec<Point> = (0..120)
            .map(|_| Point::new(rng.range_f64(0.0, 50.0), rng.range_f64(0.0, 50.0)))
            .collect();
        let radii = [3.0, 10.0, 17.5];
        let t = tables_for(&positions, &radii);
        for (class, &r) in radii.iter().enumerate() {
            for i in 0..positions.len() {
                let mut fast: Vec<u32> = t.neighbors(class, i).to_vec();
                fast.sort_unstable();
                let mut brute: Vec<u32> = (0..positions.len())
                    .filter(|&j| j != i && positions[i].within(positions[j], r))
                    .map(|j| j as u32)
                    .collect();
                brute.sort_unstable();
                assert_eq!(fast, brute, "class {class} node {i}");
            }
        }
    }

    #[test]
    fn spliced_chunks_match_per_node_queries() {
        use peas_des::rng::SimRng;
        // Two chunks: the splice path, not the adopted single chunk.
        let n = par::BUILD_CHUNK_NODES + 300;
        let field = Field::new(150.0, 150.0);
        let mut rng = SimRng::new(3);
        let positions: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.range_f64(0.0, 150.0), rng.range_f64(0.0, 150.0)))
            .collect();
        let mut grid = SpatialGrid::new(field, 4.0);
        for (i, &p) in positions.iter().enumerate() {
            grid.insert(i, p);
        }
        let t = NeighborTables::build(&grid, &positions, &[4.0]);
        for (i, &p) in positions.iter().enumerate() {
            let (ids, dists): (Vec<u32>, Vec<f64>) = grid
                .within_entries(p, 4.0)
                .filter(|&(j, _)| j != i)
                .map(|(j, q)| (j as u32, p.distance(q)))
                .unzip();
            assert_eq!(t.neighbors(0, i), ids.as_slice(), "node {i}");
            assert_eq!(t.distances(0, i), dists.as_slice(), "node {i}");
        }
    }

    #[test]
    fn distances_are_exact() {
        let positions = [
            Point::new(0.0, 0.0),
            Point::new(3.0, 4.0),
            Point::new(6.0, 8.0),
        ];
        let t = tables_for(&positions, &[10.0]);
        let row: Vec<(u32, f64)> = t
            .neighbors(0, 0)
            .iter()
            .copied()
            .zip(t.distances(0, 0).iter().copied())
            .collect();
        let mut row = row;
        row.sort_by_key(|&(id, _)| id);
        assert_eq!(row, vec![(1, 5.0), (2, 10.0)]);
    }

    #[test]
    fn boundary_distance_is_inclusive() {
        let positions = [Point::new(5.0, 5.0), Point::new(12.0, 5.0)];
        let t = tables_for(&positions, &[7.0]);
        assert_eq!(t.neighbors(0, 0), &[1]);
        assert_eq!(t.neighbors(0, 1), &[0]);
        assert_eq!(t.distances(0, 0), &[7.0]);
        let just_out = tables_for(&positions, &[6.999]);
        assert!(just_out.neighbors(0, 0).is_empty());
    }

    #[test]
    fn rows_follow_grid_candidate_order() {
        // Two nodes in different buckets of a 10 m grid: the row must list
        // them bucket row-major, not id-sorted.
        let positions = [
            Point::new(25.0, 25.0), // center, bucket (2, 2)
            Point::new(25.0, 35.0), // bucket (2, 3) — later row
            Point::new(35.0, 25.0), // bucket (3, 2) — same row, later col
        ];
        let t = tables_for(&positions, &[15.0]);
        let field = Field::new(50.0, 50.0);
        let mut grid = SpatialGrid::new(field, 10.0);
        for (i, &p) in positions.iter().enumerate() {
            grid.insert(i, p);
        }
        let expected: Vec<u32> = grid
            .within(positions[0], 15.0)
            .filter(|&j| j != 0)
            .map(|j| j as u32)
            .collect();
        assert_eq!(t.neighbors(0, 0), expected.as_slice());
    }

    #[test]
    fn empty_class_list_is_fine() {
        let t = tables_for(&[Point::new(1.0, 1.0)], &[]);
        assert_eq!(t.radii(), &[] as &[f64]);
        assert_eq!(t.class_index(3.0), None);
        assert_eq!(t.node_count(), 1);
    }

    #[test]
    fn class_lookup_is_exact() {
        let t = tables_for(&[Point::new(1.0, 1.0)], &[3.0, 10.0]);
        assert_eq!(t.class_index(3.0), Some(0));
        assert_eq!(t.class_index(10.0), Some(1));
        assert_eq!(t.class_index(3.0000001), None);
        assert_eq!(t.edge_count(0), 0);
    }

    #[test]
    #[should_panic(expected = "radius must be positive")]
    fn non_positive_radius_rejected() {
        let _ = tables_for(&[Point::new(1.0, 1.0)], &[0.0]);
    }
}
