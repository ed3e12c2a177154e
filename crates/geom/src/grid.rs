//! Spatial hash grid for O(1) expected-time range queries.
//!
//! Nodes never move after deployment (the paper assumes stationary sensors),
//! but which nodes are *working* changes constantly, so the simulator asks
//! range queries like "all node ids within `Rp` of p" thousands of times per
//! simulated second. A uniform bucket grid with cell size equal to the query
//! radius answers each such query by scanning at most 9 cells.

use std::sync::OnceLock;

use crate::field::Field;
use crate::point::Point;

/// Uniform bucket grid over a [`Field`], mapping points to the ids stored
/// near them.
///
/// Entries are kept in one vector in insertion order; queries read a
/// bucket-sorted copy that the first query after a change builds with one
/// stable counting sort. A grid over a million nodes is therefore a few
/// allocations rather than one per occupied bucket, which matters most
/// when it is dropped.
///
/// # Examples
///
/// ```
/// use peas_geom::{Field, Point, SpatialGrid};
///
/// let field = Field::new(50.0, 50.0);
/// let mut grid = SpatialGrid::new(field, 10.0);
/// grid.insert(0, Point::new(5.0, 5.0));
/// grid.insert(1, Point::new(40.0, 40.0));
/// let near: Vec<usize> = grid.within(Point::new(6.0, 6.0), 5.0).collect();
/// assert_eq!(near, vec![0]);
/// ```
#[derive(Clone, Debug)]
pub struct SpatialGrid {
    cell: f64,
    cols: usize,
    rows: usize,
    /// `(bucket, id, position)` in insertion order.
    entries: Vec<(usize, usize, Point)>,
    /// The entries grouped by bucket, built on the first query after a
    /// change.
    index: OnceLock<BucketIndex>,
}

/// [`SpatialGrid`]'s entries sorted by bucket, insertion order within a
/// bucket: `starts[b]..starts[b + 1]` indexes bucket `b` in `sorted`.
#[derive(Clone, Debug)]
struct BucketIndex {
    starts: Vec<usize>,
    sorted: Vec<(usize, Point)>,
}

impl SpatialGrid {
    /// Creates a grid over `field` with the given `cell` size in meters.
    ///
    /// Choose `cell` close to the most common query radius.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not strictly positive and finite.
    pub fn new(field: Field, cell: f64) -> SpatialGrid {
        assert!(
            cell.is_finite() && cell > 0.0,
            "grid cell size must be positive, got {cell}"
        );
        let cols = (field.width() / cell).ceil().max(1.0) as usize;
        let rows = (field.height() / cell).ceil().max(1.0) as usize;
        SpatialGrid {
            cell,
            cols,
            rows,
            entries: Vec::new(),
            index: OnceLock::new(),
        }
    }

    fn bucket_index(&self, p: Point) -> usize {
        let cx = ((p.x / self.cell) as usize).min(self.cols - 1);
        let cy = ((p.y / self.cell) as usize).min(self.rows - 1);
        cy * self.cols + cx
    }

    /// Inserts `id` at position `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` has non-finite or negative coordinates.
    pub fn insert(&mut self, id: usize, p: Point) {
        assert!(
            p.is_finite() && p.x >= 0.0 && p.y >= 0.0,
            "bad position {p:?}"
        );
        let b = self.bucket_index(p);
        self.entries.push((b, id, p));
        self.index = OnceLock::new();
    }

    /// Removes `id` at position `p`; returns `true` if it was present.
    pub fn remove(&mut self, id: usize, p: Point) -> bool {
        let b = self.bucket_index(p);
        match self
            .entries
            .iter()
            .position(|&(eb, i, _)| eb == b && i == id)
        {
            Some(pos) => {
                self.entries.remove(pos);
                self.index = OnceLock::new();
                true
            }
            None => false,
        }
    }

    /// Total number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the grid holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The bucket-sorted entries, sorted now if a change made them stale.
    fn index(&self) -> &BucketIndex {
        self.index.get_or_init(|| {
            let mut starts = vec![0usize; self.cols * self.rows + 1];
            for &(b, _, _) in &self.entries {
                starts[b + 1] += 1;
            }
            for b in 1..starts.len() {
                starts[b] += starts[b - 1];
            }
            let mut next = starts.clone();
            let mut sorted = vec![(0, Point::ORIGIN); self.entries.len()];
            for &(b, id, p) in &self.entries {
                sorted[next[b]] = (id, p);
                next[b] += 1;
            }
            BucketIndex { starts, sorted }
        })
    }

    /// Iterates over ids whose positions lie within `radius` of `center`
    /// (inclusive), in deterministic (bucket, insertion) order.
    pub fn within(&self, center: Point, radius: f64) -> impl Iterator<Item = usize> + '_ {
        self.within_entries(center, radius).map(|(id, _)| id)
    }

    /// Like [`SpatialGrid::within`] but yields `(id, position)` pairs.
    pub fn within_entries(
        &self,
        center: Point,
        radius: f64,
    ) -> impl Iterator<Item = (usize, Point)> + '_ {
        let r2 = radius * radius;
        let index = self.index();
        self.candidate_buckets(center, radius)
            .flat_map(move |b| {
                index.sorted[index.starts[b]..index.starts[b + 1]]
                    .iter()
                    .copied()
            })
            .filter(move |&(_, p)| p.distance_squared(center) <= r2)
    }

    /// Counts ids within `radius` of `center` without allocating.
    pub fn count_within(&self, center: Point, radius: f64) -> usize {
        self.within(center, radius).count()
    }

    /// Indices of the buckets overlapping the query disc's bounding box.
    fn candidate_buckets(&self, center: Point, radius: f64) -> impl Iterator<Item = usize> + '_ {
        let lo_x = ((center.x - radius) / self.cell).floor().max(0.0) as usize;
        let lo_y = ((center.y - radius) / self.cell).floor().max(0.0) as usize;
        let hi_x = (((center.x + radius) / self.cell) as usize).min(self.cols - 1);
        let hi_y = (((center.y + radius) / self.cell) as usize).min(self.rows - 1);
        let cols = self.cols;
        (lo_y..=hi_y).flat_map(move |cy| (lo_x..=hi_x).map(move |cx| cy * cols + cx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_with(points: &[(usize, Point)]) -> SpatialGrid {
        let mut g = SpatialGrid::new(Field::new(50.0, 50.0), 5.0);
        for &(id, p) in points {
            g.insert(id, p);
        }
        g
    }

    #[test]
    fn finds_points_in_range() {
        let g = grid_with(&[
            (0, Point::new(10.0, 10.0)),
            (1, Point::new(12.0, 10.0)),
            (2, Point::new(30.0, 30.0)),
        ]);
        let mut found: Vec<usize> = g.within(Point::new(11.0, 10.0), 3.0).collect();
        found.sort_unstable();
        assert_eq!(found, vec![0, 1]);
    }

    #[test]
    fn range_is_inclusive() {
        let g = grid_with(&[(0, Point::new(10.0, 10.0))]);
        assert_eq!(g.count_within(Point::new(13.0, 10.0), 3.0), 1);
        assert_eq!(g.count_within(Point::new(13.01, 10.0), 3.0), 0);
    }

    #[test]
    fn query_across_cell_boundaries() {
        // Points on either side of a cell boundary at x=5.
        let g = grid_with(&[(0, Point::new(4.9, 2.0)), (1, Point::new(5.1, 2.0))]);
        let found: Vec<usize> = g.within(Point::new(5.0, 2.0), 0.5).collect();
        assert_eq!(found.len(), 2);
    }

    #[test]
    fn remove_works_and_reports_absence() {
        let mut g = grid_with(&[(7, Point::new(1.0, 1.0))]);
        assert!(g.remove(7, Point::new(1.0, 1.0)));
        assert!(!g.remove(7, Point::new(1.0, 1.0)));
        assert!(g.is_empty());
    }

    #[test]
    fn boundary_points_are_stored() {
        let g = grid_with(&[(0, Point::new(50.0, 50.0)), (1, Point::new(0.0, 0.0))]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.count_within(Point::new(50.0, 50.0), 0.1), 1);
        assert_eq!(g.count_within(Point::new(0.0, 0.0), 0.1), 1);
    }

    #[test]
    fn matches_brute_force() {
        use peas_des::rng::SimRng;
        let mut rng = SimRng::new(42);
        let points: Vec<(usize, Point)> = (0..300)
            .map(|i| {
                (
                    i,
                    Point::new(rng.range_f64(0.0, 50.0), rng.range_f64(0.0, 50.0)),
                )
            })
            .collect();
        let g = grid_with(&points);
        for _ in 0..50 {
            let c = Point::new(rng.range_f64(0.0, 50.0), rng.range_f64(0.0, 50.0));
            let r = rng.range_f64(0.1, 15.0);
            let mut fast: Vec<usize> = g.within(c, r).collect();
            let mut brute: Vec<usize> = points
                .iter()
                .filter(|(_, p)| p.within(c, r))
                .map(|&(id, _)| id)
                .collect();
            fast.sort_unstable();
            brute.sort_unstable();
            assert_eq!(fast, brute);
        }
    }

    #[test]
    fn query_outside_field_is_clamped_not_panicking() {
        let g = grid_with(&[(0, Point::new(1.0, 1.0))]);
        assert_eq!(g.count_within(Point::new(-10.0, -10.0), 20.0), 1);
        assert_eq!(g.count_within(Point::new(100.0, 100.0), 10.0), 0);
    }
}
