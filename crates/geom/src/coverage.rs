//! K-coverage measurement on a sampling lattice.
//!
//! Section 5.2 of the paper defines *K-coverage* as "the percentage of the
//! field size monitored by at least K working nodes". We measure it the way
//! the paper's simulator must have: lay a lattice of sample points over the
//! field, count for each point the working nodes within the sensing range,
//! and report the fraction of points with count ≥ K.

use crate::field::Field;
use crate::point::Point;

/// A reusable lattice of sample points for coverage measurements.
///
/// # Examples
///
/// ```
/// use peas_geom::{CoverageGrid, Field, Point};
///
/// let grid = CoverageGrid::new(Field::new(20.0, 20.0), 1.0);
/// // One node in the center with sensing range 30 m covers everything.
/// let cov = grid.k_coverage(&[Point::new(10.0, 10.0)], 30.0, 1);
/// assert_eq!(cov, 1.0);
/// ```
#[derive(Clone, Debug)]
pub struct CoverageGrid {
    field: Field,
    resolution: f64,
    cols: usize,
    rows: usize,
    /// Cell-center x coordinate per column (structure-of-arrays): the flat
    /// kernels and the CSR builder read the same table, so their membership
    /// predicates are evaluated on bitwise-identical coordinates.
    xs: Vec<f64>,
    /// Cell-center y coordinate per row.
    ys: Vec<f64>,
}

impl CoverageGrid {
    /// Creates a lattice with `resolution` meters between sample points.
    ///
    /// Sample points sit at cell centers: `((i + ½)·res, (j + ½)·res)`.
    ///
    /// # Panics
    ///
    /// Panics if `resolution` is not strictly positive and finite.
    pub fn new(field: Field, resolution: f64) -> CoverageGrid {
        assert!(
            resolution.is_finite() && resolution > 0.0,
            "coverage resolution must be positive, got {resolution}"
        );
        let cols = (field.width() / resolution).ceil().max(1.0) as usize;
        let rows = (field.height() / resolution).ceil().max(1.0) as usize;
        let xs = (0..cols).map(|i| (i as f64 + 0.5) * resolution).collect();
        let ys = (0..rows).map(|j| (j as f64 + 0.5) * resolution).collect();
        CoverageGrid {
            field,
            resolution,
            cols,
            rows,
            xs,
            ys,
        }
    }

    /// The number of sample points.
    pub fn sample_count(&self) -> usize {
        self.cols * self.rows
    }

    /// The underlying field.
    pub fn field(&self) -> Field {
        self.field
    }

    /// Per-sample-point counts of working nodes within `sensing_range`.
    ///
    /// Rasterizes one disc per working node, so the cost is
    /// O(workers · (range/resolution)²) rather than O(samples · workers).
    pub fn coverage_counts(&self, working: &[Point], sensing_range: f64) -> Vec<u32> {
        let mut counts = Vec::new();
        self.coverage_counts_into(working, sensing_range, &mut counts);
        counts
    }

    /// Like [`CoverageGrid::coverage_counts`], writing into a caller-owned
    /// buffer (cleared and resized first) so periodic measurements can reuse
    /// one allocation.
    ///
    /// Implemented as a chunked flat kernel (chunk = one lattice row): the
    /// working positions are split into structure-of-arrays x/y once, then
    /// each row accumulates branch-free squared-distance compares over the
    /// discs overlapping it — a shape the autovectorizer handles — instead
    /// of rasterizing one disc at a time. Produces exactly the counts the
    /// incremental [`CoverageGrid::add_disc`] path maintains (both evaluate
    /// the same predicate on the same precomputed cell centers).
    pub fn coverage_counts_into(
        &self,
        working: &[Point],
        sensing_range: f64,
        counts: &mut Vec<u32>,
    ) {
        counts.clear();
        counts.resize(self.sample_count(), 0);
        let r2 = sensing_range * sensing_range;
        // Structure-of-arrays split of the working set.
        let wx: Vec<f64> = working.iter().map(|w| w.x).collect();
        let wy: Vec<f64> = working.iter().map(|w| w.y).collect();
        let spans: Vec<(usize, usize)> = working
            .iter()
            .map(|w| self.col_span(w.x, sensing_range))
            .collect();
        for (j, &y) in self.ys.iter().enumerate() {
            let row = &mut counts[j * self.cols..(j + 1) * self.cols];
            for k in 0..wx.len() {
                let dy = y - wy[k];
                let dy2 = dy * dy;
                if dy2 > r2 {
                    continue;
                }
                let (lo_i, hi_i) = spans[k];
                let x0 = wx[k];
                for (c, &x) in row[lo_i..=hi_i].iter_mut().zip(&self.xs[lo_i..=hi_i]) {
                    let dx = x - x0;
                    *c += u32::from(dx * dx + dy2 <= r2);
                }
            }
        }
    }

    /// Rasterizes one node's sensing disc, incrementing the covered cells.
    ///
    /// Counts maintained by paired [`CoverageGrid::add_disc`] /
    /// [`CoverageGrid::remove_disc`] calls as nodes start and stop working
    /// are exactly the counts a full rasterization of the current working
    /// set would produce — integer increments commute — which is what lets
    /// the simulator keep coverage incrementally instead of re-scanning
    /// every working node at each sample.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != self.sample_count()`.
    pub fn add_disc(&self, w: Point, sensing_range: f64, counts: &mut [u32]) {
        self.disc_cells(w, sensing_range, counts, |c, m| *c += m);
    }

    /// Reverses one [`CoverageGrid::add_disc`] for a node that stopped
    /// working at the same position and range.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != self.sample_count()`, or (in debug builds,
    /// via overflow checks) if the disc was never added.
    pub fn remove_disc(&self, w: Point, sensing_range: f64, counts: &mut [u32]) {
        self.disc_cells(w, sensing_range, counts, |c, m| *c -= m);
    }

    /// Columns whose centers can fall inside a disc of `range` around `x`
    /// (a clamped bounding box; the squared-distance predicate decides
    /// actual membership).
    fn col_span(&self, x: f64, range: f64) -> (usize, usize) {
        let lo = (((x - range) / self.resolution - 0.5).floor()).max(0.0) as usize;
        let hi =
            ((((x + range) / self.resolution) as usize).max(lo)).min(self.cols.saturating_sub(1));
        (lo, hi)
    }

    /// Rows whose centers can fall inside a disc of `range` around `y`.
    fn row_span(&self, y: f64, range: f64) -> (usize, usize) {
        let lo = (((y - range) / self.resolution - 0.5).floor()).max(0.0) as usize;
        let hi =
            ((((y + range) / self.resolution) as usize).max(lo)).min(self.rows.saturating_sub(1));
        (lo, hi)
    }

    fn disc_cells(
        &self,
        w: Point,
        sensing_range: f64,
        counts: &mut [u32],
        mut apply: impl FnMut(&mut u32, u32),
    ) {
        assert_eq!(
            counts.len(),
            self.sample_count(),
            "counts buffer size mismatch"
        );
        let r2 = sensing_range * sensing_range;
        let (lo_i, hi_i) = self.col_span(w.x, sensing_range);
        let (lo_j, hi_j) = self.row_span(w.y, sensing_range);
        for j in lo_j..=hi_j {
            let dy = self.ys[j] - w.y;
            let dy2 = dy * dy;
            if dy2 > r2 {
                continue;
            }
            let row = j * self.cols;
            for (count, &x) in counts[row + lo_i..=row + hi_i]
                .iter_mut()
                .zip(&self.xs[lo_i..=hi_i])
            {
                let dx = x - w.x;
                // Branch-free: apply a 0/1 mask instead of a conditional.
                apply(count, u32::from(dx * dx + dy2 <= r2));
            }
        }
    }

    /// Appends the cells whose centers lie inside the disc of
    /// `sensing_range` around `w` to `out` as `(first cell, count)` runs,
    /// one per lattice row the disc covers, in row-major order. This is the
    /// build step for [`CoverageCsr`]: the cell set is exactly the set
    /// [`CoverageGrid::add_disc`] would increment.
    ///
    /// A disc meets a row in one run of columns: `dx * dx` is monotone in
    /// `|dx|` under rounding, and the columns' `dx` grow with their index.
    pub fn disc_runs_into(&self, w: Point, sensing_range: f64, out: &mut Vec<(u32, u32)>) {
        let r2 = sensing_range * sensing_range;
        let (lo_i, hi_i) = self.col_span(w.x, sensing_range);
        let (lo_j, hi_j) = self.row_span(w.y, sensing_range);
        for j in lo_j..=hi_j {
            let dy = self.ys[j] - w.y;
            let dy2 = dy * dy;
            if dy2 > r2 {
                continue;
            }
            let inside = |x: &f64| {
                let dx = x - w.x;
                dx * dx + dy2 <= r2
            };
            let xs = &self.xs[lo_i..=hi_i];
            let Some(first) = xs.iter().position(inside) else {
                continue;
            };
            let count = xs[first..].iter().take_while(|x| inside(x)).count();
            debug_assert!(
                !xs[first + count..].iter().any(inside),
                "a disc meets a lattice row in more than one run"
            );
            let first_cell = j * self.cols + lo_i + first;
            out.push((
                // peas-lint: allow(r3-unchecked-cast) -- sample indices are bounded by the grid size, validated below u32
                first_cell as u32,
                // peas-lint: allow(r3-unchecked-cast) -- a run never exceeds one lattice row, a fraction of the grid size
                count as u32,
            ));
        }
    }

    /// Fraction of the field monitored by at least `k` working nodes.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` (0-coverage is trivially 100%).
    pub fn k_coverage(&self, working: &[Point], sensing_range: f64, k: u32) -> f64 {
        assert!(k > 0, "k-coverage requires k >= 1");
        let counts = self.coverage_counts(working, sensing_range);
        let covered = counts.iter().filter(|&&c| c >= k).count();
        covered as f64 / counts.len() as f64
    }

    /// K-coverage for every `k` in `1..=max_k` from a single rasterization.
    ///
    /// Returns a vector `v` with `v[k-1]` = k-coverage. More efficient than
    /// calling [`CoverageGrid::k_coverage`] repeatedly; the simulator samples
    /// 3-, 4- and 5-coverage together (Fig 9).
    pub fn k_coverages(&self, working: &[Point], sensing_range: f64, max_k: u32) -> Vec<f64> {
        let mut counts = Vec::new();
        self.k_coverages_with(working, sensing_range, max_k, &mut counts)
    }

    /// Like [`CoverageGrid::k_coverages`], rasterizing into a caller-owned
    /// scratch buffer so periodic measurements can reuse one allocation.
    pub fn k_coverages_with(
        &self,
        working: &[Point],
        sensing_range: f64,
        max_k: u32,
        counts: &mut Vec<u32>,
    ) -> Vec<f64> {
        self.coverage_counts_into(working, sensing_range, counts);
        self.k_coverages_from_counts(counts, max_k)
    }

    /// K-coverage for every `k` in `1..=max_k` from already-computed
    /// per-cell counts (see [`CoverageGrid::add_disc`] for maintaining them
    /// incrementally).
    ///
    /// # Panics
    ///
    /// Panics if `max_k == 0` or `counts.len() != self.sample_count()`.
    pub fn k_coverages_from_counts(&self, counts: &[u32], max_k: u32) -> Vec<f64> {
        assert!(max_k > 0, "need at least k = 1");
        assert_eq!(
            counts.len(),
            self.sample_count(),
            "counts buffer size mismatch"
        );
        let total = counts.len() as f64;
        let mut hist = vec![0usize; max_k as usize + 1];
        for &c in counts.iter() {
            hist[(c.min(max_k)) as usize] += 1;
        }
        // Suffix sums: points with count >= k.
        let mut acc = 0usize;
        let mut at_least = vec![0usize; max_k as usize + 1];
        for k in (0..=max_k as usize).rev() {
            acc += hist[k];
            at_least[k] = acc;
        }
        (1..=max_k as usize)
            .map(|k| at_least[k] as f64 / total)
            .collect()
    }
}

/// Precomputed node→cell coverage rows for a static topology.
///
/// Built once per deployment, [`CoverageCsr`] stores each node's covered
/// cells as a compressed-sparse-row table (`offsets` + flat `runs`), so
/// maintaining per-cell coverage counts as nodes start and stop working
/// becomes a pure counter walk — no floating-point work, no disc
/// rasterization — on the hot mode-transition path. A disc meets each
/// lattice row in one run of columns, so a node's row holds one
/// `(first cell, count)` pair per covered lattice row.
///
/// # Examples
///
/// ```
/// use peas_geom::{CoverageCsr, CoverageGrid, Field, Point};
///
/// let grid = CoverageGrid::new(Field::new(20.0, 20.0), 1.0);
/// let nodes = [Point::new(10.0, 10.0), Point::new(3.0, 3.0)];
/// let csr = CoverageCsr::build(&grid, &nodes, 5.0);
/// let mut counts = vec![0u32; grid.sample_count()];
/// csr.add_into(0, &mut counts);
/// // The walk produces exactly what rasterizing the disc would.
/// assert_eq!(counts, grid.coverage_counts(&nodes[..1], 5.0));
/// csr.remove_into(0, &mut counts);
/// assert!(counts.iter().all(|&c| c == 0));
/// ```
#[derive(Clone, Debug)]
pub struct CoverageCsr {
    sample_count: usize,
    /// `offsets[i]..offsets[i + 1]` indexes node `i`'s runs.
    offsets: Vec<u32>,
    /// `(first cell, count)` runs of covered cells, row-major within each
    /// node's row.
    runs: Vec<(u32, u32)>,
}

impl CoverageCsr {
    /// Precomputes every node's covered-cell row on `grid` at
    /// `sensing_range`.
    ///
    /// # Panics
    ///
    /// Panics if `sensing_range` is not strictly positive and finite.
    ///
    /// Large topologies (≥ [`crate::par::PARALLEL_BUILD_THRESHOLD`] nodes)
    /// rasterize their rows on a bounded worker pool, in node-index chunks
    /// spliced back in chunk order — byte-identical to a serial build (see
    /// [`crate::par`] for the memory budget). A topology of at most
    /// [`crate::par::BUILD_CHUNK_NODES`] nodes is one chunk, whose buffer
    /// becomes the table without a copy.
    pub fn build(grid: &CoverageGrid, positions: &[Point], sensing_range: f64) -> CoverageCsr {
        assert!(
            sensing_range.is_finite() && sensing_range > 0.0,
            "sensing range must be positive, got {sensing_range}"
        );
        let workers = crate::par::build_workers(positions.len());
        let chunks = crate::par::chunked_build(positions.len(), workers, |span| {
            let mut runs = Vec::new();
            let mut row_ends = Vec::with_capacity(span.len());
            for &p in &positions[span] {
                grid.disc_runs_into(p, sensing_range, &mut runs);
                row_ends.push(runs.len());
            }
            (runs, row_ends)
        });
        let (offsets, runs) = crate::par::join_chunks(chunks, "coverage runs");
        CoverageCsr {
            sample_count: grid.sample_count(),
            offsets,
            runs,
        }
    }

    /// Bytes of table payload: offsets plus one `(first cell, count)`
    /// run per (node, covered lattice row) pair. The scale bench reports
    /// this as part of the per-topology memory budget.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.runs.len() * std::mem::size_of::<(u32, u32)>()
    }

    /// Number of nodes the table was built over.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The cell ranges `node`'s sensing disc covers, in row-major order.
    fn cells_covered_by(&self, node: usize) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        let lo = self.offsets[node] as usize;
        let hi = self.offsets[node + 1] as usize;
        self.runs[lo..hi]
            .iter()
            .map(|&(first, count)| first as usize..first as usize + count as usize)
    }

    /// Increments the count of every cell `node` covers: the counter-walk
    /// equivalent of [`CoverageGrid::add_disc`] at the build position and
    /// range.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or `counts.len()` differs from the
    /// build grid's sample count.
    pub fn add_into(&self, node: usize, counts: &mut [u32]) {
        assert_eq!(
            self.sample_count,
            counts.len(),
            "counts buffer size mismatch"
        );
        for cells in self.cells_covered_by(node) {
            for c in &mut counts[cells] {
                *c += 1;
            }
        }
    }

    /// Reverses one [`CoverageCsr::add_into`].
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range, `counts.len()` differs from the
    /// build grid's sample count, or (in debug builds, via overflow checks)
    /// the node was never added.
    pub fn remove_into(&self, node: usize, counts: &mut [u32]) {
        assert_eq!(
            self.sample_count,
            counts.len(),
            "counts buffer size mismatch"
        );
        for cells in self.cells_covered_by(node) {
            for c in &mut counts[cells] {
                *c -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> CoverageGrid {
        CoverageGrid::new(Field::new(20.0, 20.0), 1.0)
    }

    #[test]
    fn empty_working_set_means_zero_coverage() {
        assert_eq!(grid().k_coverage(&[], 10.0, 1), 0.0);
    }

    #[test]
    fn giant_range_covers_everything() {
        let g = grid();
        let cov = g.k_coverage(&[Point::new(10.0, 10.0)], 100.0, 1);
        assert_eq!(cov, 1.0);
    }

    #[test]
    fn coverage_fraction_matches_disc_area() {
        // One node centered in a large field: coverage ≈ π r² / area.
        let g = CoverageGrid::new(Field::new(100.0, 100.0), 0.5);
        let cov = g.k_coverage(&[Point::new(50.0, 50.0)], 10.0, 1);
        let expected = std::f64::consts::PI * 100.0 / 10_000.0;
        assert!(
            (cov - expected).abs() < 0.005,
            "measured {cov}, analytic {expected}"
        );
    }

    #[test]
    fn k2_requires_two_nodes() {
        let g = grid();
        let one = [Point::new(10.0, 10.0)];
        let two = [Point::new(10.0, 10.0), Point::new(10.0, 10.0)];
        assert_eq!(g.k_coverage(&one, 50.0, 2), 0.0);
        assert_eq!(g.k_coverage(&two, 50.0, 2), 1.0);
    }

    #[test]
    fn k_coverages_are_monotone_in_k() {
        let g = grid();
        let working: Vec<Point> = (0..10).map(|i| Point::new(2.0 * i as f64, 10.0)).collect();
        let covs = g.k_coverages(&working, 6.0, 5);
        assert_eq!(covs.len(), 5);
        for w in covs.windows(2) {
            assert!(
                w[0] >= w[1],
                "k-coverage must not increase with k: {covs:?}"
            );
        }
        // And each matches the individual computation.
        for (i, &c) in covs.iter().enumerate() {
            assert_eq!(c, g.k_coverage(&working, 6.0, i as u32 + 1));
        }
    }

    #[test]
    fn adding_a_worker_never_reduces_coverage() {
        let g = grid();
        let mut working = vec![Point::new(3.0, 3.0), Point::new(15.0, 12.0)];
        let before = g.k_coverage(&working, 5.0, 1);
        working.push(Point::new(9.0, 9.0));
        let after = g.k_coverage(&working, 5.0, 1);
        assert!(after >= before);
    }

    #[test]
    fn rasterized_counts_match_brute_force() {
        use peas_des::rng::SimRng;
        let g = CoverageGrid::new(Field::new(30.0, 30.0), 1.5);
        let mut rng = SimRng::new(77);
        let working: Vec<Point> = (0..40)
            .map(|_| Point::new(rng.range_f64(0.0, 30.0), rng.range_f64(0.0, 30.0)))
            .collect();
        let fast = g.coverage_counts(&working, 7.0);
        // Brute force over all sample points.
        let mut brute = vec![0u32; g.sample_count()];
        for j in 0..g.rows {
            for i in 0..g.cols {
                let p = Point::new((i as f64 + 0.5) * 1.5, (j as f64 + 0.5) * 1.5);
                brute[j * g.cols + i] = working.iter().filter(|w| w.within(p, 7.0)).count() as u32;
            }
        }
        assert_eq!(fast, brute);
    }

    #[test]
    fn incremental_discs_match_full_rasterization() {
        use peas_des::rng::SimRng;
        let g = CoverageGrid::new(Field::new(30.0, 30.0), 1.5);
        let mut rng = SimRng::new(5);
        let pts: Vec<Point> = (0..30)
            .map(|_| Point::new(rng.range_f64(0.0, 30.0), rng.range_f64(0.0, 30.0)))
            .collect();
        let mut counts = vec![0u32; g.sample_count()];
        for &p in &pts {
            g.add_disc(p, 6.0, &mut counts);
        }
        // Remove every other disc; the survivors' full rasterization and the
        // k-coverage derived from the residual counts must both agree.
        let mut kept = Vec::new();
        for (i, &p) in pts.iter().enumerate() {
            if i % 2 == 0 {
                g.remove_disc(p, 6.0, &mut counts);
            } else {
                kept.push(p);
            }
        }
        assert_eq!(counts, g.coverage_counts(&kept, 6.0));
        assert_eq!(
            g.k_coverages_from_counts(&counts, 3),
            g.k_coverages(&kept, 6.0, 3)
        );
    }

    #[test]
    fn csr_rows_match_discs_across_chunks() {
        use peas_des::rng::SimRng;
        // Two chunks: the splice path, not the adopted single chunk.
        let n = crate::par::BUILD_CHUNK_NODES + 300;
        let g = CoverageGrid::new(Field::new(100.0, 100.0), 2.0);
        let mut rng = SimRng::new(9);
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.range_f64(0.0, 100.0), rng.range_f64(0.0, 100.0)))
            .collect();
        let csr = CoverageCsr::build(&g, &pts, 5.0);
        assert_eq!(csr.node_count(), n);
        let (mut walked, mut drawn) = (vec![0u32; g.sample_count()], vec![0u32; g.sample_count()]);
        for i in (0..n)
            .step_by(97)
            .chain([crate::par::BUILD_CHUNK_NODES, n - 1])
        {
            csr.add_into(i, &mut walked);
            g.add_disc(pts[i], 5.0, &mut drawn);
            assert_eq!(walked, drawn, "node {i}");
        }
    }

    #[test]
    fn sample_count_scales_with_resolution() {
        let coarse = CoverageGrid::new(Field::paper(), 5.0);
        let fine = CoverageGrid::new(Field::paper(), 1.0);
        assert_eq!(coarse.sample_count(), 100);
        assert_eq!(fine.sample_count(), 2500);
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn zero_k_rejected() {
        let _ = grid().k_coverage(&[], 1.0, 0);
    }
}
