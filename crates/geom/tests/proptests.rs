//! Property-based tests for the geometry substrate.

use proptest::prelude::*;

use peas_des::rng::SimRng;
use peas_geom::{
    connectivity, CoverageCsr, CoverageGrid, Deployment, Field, NeighborTables, Point, SpatialGrid,
    UnionFind,
};

fn arb_point() -> impl Strategy<Value = Point> {
    (0.0f64..50.0, 0.0f64..50.0).prop_map(|(x, y)| Point::new(x, y))
}

proptest! {
    /// Distance is a metric: symmetric, non-negative, triangle inequality.
    #[test]
    fn distance_is_a_metric(a in arb_point(), b in arb_point(), c in arb_point()) {
        prop_assert!(a.distance(b) >= 0.0);
        prop_assert!((a.distance(b) - b.distance(a)).abs() < 1e-9);
        prop_assert!(a.distance(c) <= a.distance(b) + b.distance(c) + 1e-9);
    }

    /// Spatial grid range queries agree with brute force for random inputs.
    #[test]
    fn grid_matches_brute_force(
        pts in prop::collection::vec(arb_point(), 0..150),
        center in arb_point(),
        radius in 0.1f64..20.0,
        cell in 1.0f64..12.0,
    ) {
        let field = Field::new(50.0, 50.0);
        let mut grid = SpatialGrid::new(field, cell);
        for (i, &p) in pts.iter().enumerate() {
            grid.insert(i, p);
        }
        let mut fast: Vec<usize> = grid.within(center, radius).collect();
        let mut brute: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.within(center, radius))
            .map(|(i, _)| i)
            .collect();
        fast.sort_unstable();
        brute.sort_unstable();
        prop_assert_eq!(fast, brute);
    }

    /// Differential: the precomputed CSR adjacency of [`NeighborTables`]
    /// exactly equals brute-force O(n²) pairwise distance filtering, for
    /// all three range classes the protocol uses (probing `Rp`, transmit
    /// `Rt`, sensing `Rs`) — including topologies with boundary-distance
    /// pairs sitting at exactly `dist == range`.
    #[test]
    fn neighbor_tables_match_brute_force(
        pts in prop::collection::vec(arb_point(), 0..120),
        anchors in prop::collection::vec((0.0f64..40.0, 0.0f64..40.0), 0..8),
        cell in 1.0f64..12.0,
        rp in 1.0f64..6.0,
        rt in 6.0f64..15.0,
        rs in 8.0f64..12.0,
    ) {
        let field = Field::new(50.0, 50.0);
        // Adversarial boundary pairs: each anchor gets a partner at exactly
        // the probing range, so `dist == range` edges must round-trip.
        let mut pts = pts;
        for &(x, y) in &anchors {
            pts.push(Point::new(x, y));
            pts.push(Point::new(x + rp, y));
        }
        let mut grid = SpatialGrid::new(field, cell);
        for (i, &p) in pts.iter().enumerate() {
            grid.insert(i, p);
        }
        let radii = [rp, rt, rs];
        let tables = NeighborTables::build(&grid, &pts, &radii);
        for (class, &r) in radii.iter().enumerate() {
            let mut edges = 0usize;
            for i in 0..pts.len() {
                let mut fast: Vec<u32> = tables.neighbors(class, i).to_vec();
                edges += fast.len();
                // Distances must be the true pairwise distances.
                for (&j, &d) in tables.neighbors(class, i).iter()
                    .zip(tables.distances(class, i))
                {
                    prop_assert_eq!(d, pts[i].distance(pts[j as usize]));
                    prop_assert!(d <= r);
                }
                fast.sort_unstable();
                let mut brute: Vec<u32> = (0..pts.len())
                    .filter(|&j| j != i && pts[i].within(pts[j], r))
                    .map(|j| j as u32)
                    .collect();
                brute.sort_unstable();
                prop_assert_eq!(fast, brute, "class {} node {}", class, i);
            }
            prop_assert_eq!(edges, tables.edge_count(class));
            // Adjacency at an inclusive radius is symmetric.
            for i in 0..pts.len() {
                for &j in tables.neighbors(class, i) {
                    prop_assert!(
                        tables.neighbors(class, j as usize).contains(&(i as u32)),
                        "edge {}->{} not symmetric", i, j
                    );
                }
            }
        }
    }

    /// The precomputed node→cell coverage CSR walks to exactly the counts a
    /// per-disc rasterization produces, and removal restores zeros.
    #[test]
    fn coverage_csr_matches_rasterization(
        pts in prop::collection::vec(arb_point(), 1..50),
        range in 2.0f64..15.0,
        resolution in 0.8f64..3.0,
    ) {
        let grid = CoverageGrid::new(Field::new(50.0, 50.0), resolution);
        let csr = CoverageCsr::build(&grid, &pts, range);
        let mut walked = vec![0u32; grid.sample_count()];
        let mut rasterized = vec![0u32; grid.sample_count()];
        for (i, pt) in pts.iter().enumerate() {
            csr.add_into(i, &mut walked);
            grid.add_disc(*pt, range, &mut rasterized);
        }
        prop_assert_eq!(&walked, &rasterized);
        prop_assert_eq!(&walked, &grid.coverage_counts(&pts, range));
        for i in 0..pts.len() {
            csr.remove_into(i, &mut walked);
        }
        prop_assert!(walked.iter().all(|&c| c == 0));
    }

    /// K-coverage is monotone: more working nodes never lower it, larger k
    /// never raises it.
    #[test]
    fn coverage_monotonicity(
        pts in prop::collection::vec(arb_point(), 1..60),
        extra in arb_point(),
        range in 2.0f64..15.0,
    ) {
        let grid = CoverageGrid::new(Field::new(50.0, 50.0), 2.5);
        let covs = grid.k_coverages(&pts, range, 4);
        for w in covs.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
        let mut more = pts.clone();
        more.push(extra);
        let covs_more = grid.k_coverages(&more, range, 4);
        for k in 0..4 {
            prop_assert!(covs_more[k] >= covs[k] - 1e-12);
        }
    }

    /// Union-find component count equals the count from a BFS over the same
    /// edge set.
    #[test]
    fn unionfind_matches_bfs(
        n in 1usize..60,
        edges in prop::collection::vec((0usize..60, 0usize..60), 0..120),
    ) {
        let edges: Vec<(usize, usize)> =
            edges.into_iter().map(|(a, b)| (a % n, b % n)).collect();
        let mut uf = UnionFind::new(n);
        for &(a, b) in &edges {
            uf.union(a, b);
        }
        // BFS
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in &edges {
            adj[a].push(b);
            adj[b].push(a);
        }
        let mut seen = vec![false; n];
        let mut components = 0;
        for start in 0..n {
            if seen[start] {
                continue;
            }
            components += 1;
            let mut stack = vec![start];
            seen[start] = true;
            while let Some(v) = stack.pop() {
                for &w in &adj[v] {
                    if !seen[w] {
                        seen[w] = true;
                        stack.push(w);
                    }
                }
            }
        }
        prop_assert_eq!(uf.component_count(), components);
    }

    /// Connectivity analysis is radius-monotone: growing the radius never
    /// increases the number of components.
    #[test]
    fn connectivity_radius_monotone(
        pts in prop::collection::vec(arb_point(), 2..50),
        r1 in 1.0f64..10.0,
        dr in 0.0f64..10.0,
    ) {
        let field = Field::new(50.0, 50.0);
        let small = connectivity::analyze(field, &pts, r1);
        let large = connectivity::analyze(field, &pts, r1 + dr + 0.001);
        prop_assert!(large.components <= small.components);
        prop_assert!(large.edges >= small.edges);
    }

    /// Every deployment keeps all nodes inside the field and produces the
    /// requested count.
    #[test]
    fn deployments_respect_field(seed in any::<u64>(), n in 0usize..300) {
        let field = Field::new(50.0, 50.0);
        for deployment in [
            Deployment::Uniform,
            Deployment::JitteredGrid,
            Deployment::Clustered { centers: 3, std_dev: 4.0 },
        ] {
            let pts = deployment.generate(field, n, &mut SimRng::new(seed));
            prop_assert_eq!(pts.len(), n);
            prop_assert!(pts.iter().all(|&p| field.contains(p)));
        }
    }
}
