//! Hierarchical agglomerative clustering with a distance-threshold stop.
//!
//! The paper picks hierarchical clustering over k-means precisely because
//! "the number of clusters can be determined automatically by setting the
//! *distance threshold* σ, which is the maximum distance between any two
//! points in a cluster" (Section III). That definition corresponds to
//! **complete linkage**: merging stops when no pair of clusters can merge
//! without some intra-cluster pair exceeding σ.
//!
//! # Algorithm and tie-break contract
//!
//! Each step merges the pair of clusters with the lexicographically
//! smallest `(distance, lower representative, higher representative)`,
//! where a cluster is represented by its lowest member index, and the
//! loop stops once that distance exceeds the threshold. Cluster distances
//! live in a condensed matrix updated with the Lance–Williams recurrences.
//!
//! The closest pair comes from the lazy nearest-neighbour loop of
//! Müllner's "generic" algorithm (*Modern hierarchical, agglomerative
//! clustering algorithms*, arXiv:1109.2378). Row `i` caches its nearest
//! neighbour over the active `j > i` only, with a fresh flag. A merge of
//! `b` into `a` that touches a row's cached neighbour marks the row stale,
//! and the cached distance stays a lower bound on the row; a merged
//! distance below the cache replaces it at once (Single and Average only:
//! Complete never lowers a distance). Each step takes the smallest
//! `(cached distance, row)` and, if that row is stale, rescans only it.
//!
//! Cost: O(n) memory beyond the condensed distance matrix, O(n) time per
//! merge and O(n) per stale-row rescan. That is O(n²) while rescans stay
//! rare; it turns cubic only if stale rows keep surfacing at the minimum.
//! Full-scale lbm, 1,286 epochs with one stall probability, needs none.
//! An eager cache that rescans every row pointing at a merged cluster is
//! cubic on exactly that input: all rows share one nearest neighbour.

use crate::point::{euclidean, Point};
use crate::Clustering;

/// Linkage criterion: how the distance between two *clusters* is derived
/// from point distances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Linkage {
    /// Minimum pairwise distance (chains easily; ablation only).
    Single,
    /// Maximum pairwise distance — matches the paper's σ definition.
    Complete,
    /// Unweighted average pairwise distance (UPGMA; ablation only).
    Average,
}

impl Linkage {
    /// Lance–Williams update: the distance from cluster k to the union of
    /// clusters a and b (sizes `sa`, `sb`), given `dak` and `dbk`.
    fn merged(self, dak: f64, dbk: f64, sa: usize, sb: usize) -> f64 {
        match self {
            Linkage::Single => dak.min(dbk),
            Linkage::Complete => dak.max(dbk),
            Linkage::Average => {
                let (sa, sb) = (sa as f64, sb as f64);
                (sa * dak + sb * dbk) / (sa + sb)
            }
        }
    }
}

/// Agglomeratively cluster `points`, merging greedily while the closest
/// pair of clusters is within `threshold` under `linkage`.
///
/// Merges follow the tie-break contract in the module doc. Returns dense
/// cluster ids ordered by first appearance. An empty input yields an
/// empty clustering; a single point yields one cluster.
pub fn hierarchical_cluster(points: &[Point], threshold: f64, linkage: Linkage) -> Clustering {
    let n = points.len();
    if n == 0 {
        return Clustering {
            assignments: vec![],
            num_clusters: 0,
        };
    }
    if n == 1 {
        return Clustering {
            assignments: vec![0],
            num_clusters: 1,
        };
    }

    // dist[i][j] for i < j, stored in a flat upper-triangular layout.
    let idx = |i: usize, j: usize| {
        debug_assert!(i < j);
        i * n - i * (i + 1) / 2 + (j - i - 1)
    };
    let mut dist = vec![0.0f64; n * (n - 1) / 2];
    for i in 0..n {
        for j in (i + 1)..n {
            dist[idx(i, j)] = euclidean(&points[i], &points[j]);
        }
    }

    // active[c]: cluster c still exists; size[c]: member count.
    let mut active = vec![true; n];
    let mut size = vec![1usize; n];
    // assign[p]: representative (lowest member index) of p's cluster.
    let mut assign: Vec<usize> = (0..n).collect();

    // nn[i]: row i's nearest neighbour over the active j > i, as the
    // distance (exact when fresh[i], else a lower bound) and the lowest j
    // at it. j == n marks a row with no active j > i left.
    let scan_row = |dist: &[f64], active: &[bool], i: usize| -> (f64, usize) {
        let mut best = (f64::INFINITY, n);
        for j in (i + 1..n).filter(|&j| active[j]) {
            let d = dist[idx(i, j)];
            if best.1 == n || d < best.0 {
                best = (d, j);
            }
        }
        best
    };
    let mut nn: Vec<(f64, usize)> = (0..n).map(|i| scan_row(&dist, &active, i)).collect();
    let mut fresh = vec![true; n];

    loop {
        // Lexicographically smallest (nn distance, row) over live rows.
        let mut best: Option<usize> = None;
        for i in 0..n {
            if active[i] && nn[i].1 < n && best.is_none_or(|b| nn[i].0 < nn[b].0) {
                best = Some(i);
            }
        }
        let Some(a) = best else { break };
        let (d, b) = nn[a];
        // A stale bound above the threshold still bounds every pair.
        if d > threshold {
            break;
        }
        if !fresh[a] {
            nn[a] = scan_row(&dist, &active, a);
            fresh[a] = true;
            continue;
        }
        // Merge b into a (a < b); update distances via Lance–Williams.
        for k in 0..n {
            if !active[k] || k == a || k == b {
                continue;
            }
            let new = linkage.merged(
                dist[idx(a.min(k), a.max(k))],
                dist[idx(b.min(k), b.max(k))],
                size[a],
                size[b],
            );
            dist[idx(a.min(k), a.max(k))] = new;
            // Row k holds a only when k < a, and b only when k < b.
            let (dk, jk) = nn[k];
            if k < a {
                // a becomes row k's neighbour when it sits below every
                // other entry, or ties an exact minimum at a lower index.
                let take = if fresh[k] && a < jk {
                    new <= dk
                } else {
                    new < dk
                };
                if take {
                    nn[k] = (new, a);
                    fresh[k] = true;
                } else if jk == b || (jk == a && dk < new) {
                    fresh[k] = false;
                }
            } else if k < b && jk == b {
                fresh[k] = false;
            }
        }
        size[a] += size[b];
        active[b] = false;
        for asg in assign.iter_mut() {
            if *asg == b {
                *asg = a;
            }
        }
        nn[a] = scan_row(&dist, &active, a);
    }

    Clustering::from_assignments(&assign)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(xs: &[f64]) -> Vec<Point> {
        xs.iter().map(|&x| vec![x]).collect()
    }

    #[test]
    fn empty_and_singleton() {
        let c = hierarchical_cluster(&[], 1.0, Linkage::Complete);
        assert_eq!(c.num_clusters, 0);
        let c = hierarchical_cluster(&pts(&[5.0]), 1.0, Linkage::Complete);
        assert_eq!(c.num_clusters, 1);
        assert_eq!(c.assignments, vec![0]);
    }

    #[test]
    fn two_well_separated_groups() {
        let points = pts(&[0.0, 0.1, 0.2, 10.0, 10.1]);
        let c = hierarchical_cluster(&points, 1.0, Linkage::Complete);
        assert_eq!(c.num_clusters, 2);
        assert_eq!(c.assignments[0], c.assignments[1]);
        assert_eq!(c.assignments[1], c.assignments[2]);
        assert_eq!(c.assignments[3], c.assignments[4]);
        assert_ne!(c.assignments[0], c.assignments[3]);
    }

    #[test]
    fn threshold_zero_keeps_distinct_points_apart() {
        let points = pts(&[0.0, 1.0, 2.0]);
        let c = hierarchical_cluster(&points, 0.0, Linkage::Complete);
        assert_eq!(c.num_clusters, 3);
    }

    #[test]
    fn threshold_zero_merges_identical_points() {
        let points = pts(&[1.0, 1.0, 2.0]);
        let c = hierarchical_cluster(&points, 0.0, Linkage::Complete);
        assert_eq!(c.num_clusters, 2);
        assert_eq!(c.assignments[0], c.assignments[1]);
    }

    #[test]
    fn huge_threshold_merges_everything() {
        let points = pts(&[0.0, 5.0, 50.0, 500.0]);
        let c = hierarchical_cluster(&points, 1e9, Linkage::Complete);
        assert_eq!(c.num_clusters, 1);
    }

    #[test]
    fn complete_linkage_respects_sigma_semantics() {
        // With complete linkage, no cluster may contain a pair farther
        // apart than sigma — the paper's definition of the threshold.
        let points = pts(&[0.0, 0.4, 0.8, 1.2, 1.6, 2.0]);
        let sigma = 0.9;
        let c = hierarchical_cluster(&points, sigma, Linkage::Complete);
        assert!(c.max_intra_distance(&points) <= sigma + 1e-12);
    }

    #[test]
    fn single_linkage_chains_where_complete_does_not() {
        // A chain of points each 0.9 apart, threshold 1.0: single linkage
        // merges the whole chain; complete stops early.
        let points = pts(&[0.0, 0.9, 1.8, 2.7, 3.6]);
        let single = hierarchical_cluster(&points, 1.0, Linkage::Single);
        let complete = hierarchical_cluster(&points, 1.0, Linkage::Complete);
        assert_eq!(single.num_clusters, 1);
        assert!(complete.num_clusters > 1);
    }

    #[test]
    fn average_linkage_between_the_two() {
        let points = pts(&[0.0, 0.9, 1.8, 2.7, 3.6]);
        let s = hierarchical_cluster(&points, 1.0, Linkage::Single).num_clusters;
        let a = hierarchical_cluster(&points, 1.0, Linkage::Average).num_clusters;
        let c = hierarchical_cluster(&points, 1.0, Linkage::Complete).num_clusters;
        assert!(s <= a && a <= c, "s={s} a={a} c={c}");
    }

    #[test]
    fn multidimensional_points() {
        let points = vec![
            vec![0.0, 0.0, 0.0, 0.0],
            vec![0.05, 0.0, 0.0, 0.0],
            vec![5.0, 5.0, 5.0, 5.0],
        ];
        let c = hierarchical_cluster(&points, 0.1, Linkage::Complete);
        assert_eq!(c.num_clusters, 2);
    }

    /// Naive O(n³) reference: every step merges the lexicographically
    /// smallest (d, i, j) active pair, with the same Lance–Williams floats.
    /// Returns the whole merge sequence; a threshold cuts it at the first
    /// merge above it.
    fn naive_merges(points: &[Point], linkage: Linkage) -> Vec<(f64, usize, usize)> {
        let n = points.len();
        let mut dist: Vec<Vec<f64>> = points
            .iter()
            .map(|p| points.iter().map(|q| euclidean(p, q)).collect())
            .collect();
        let mut active = vec![true; n];
        let mut size = vec![1usize; n];
        let mut merges = Vec::new();
        while merges.len() + 1 < n {
            let mut best = (f64::INFINITY, n, n);
            for i in (0..n).filter(|&i| active[i]) {
                for j in i + 1..n {
                    if active[j] && (best.1 == n || dist[i][j] < best.0) {
                        best = (dist[i][j], i, j);
                    }
                }
            }
            let (_, a, b) = best;
            for k in (0..n).filter(|&k| active[k] && k != a && k != b) {
                let (ak, bk) = ((a.min(k), a.max(k)), (b.min(k), b.max(k)));
                dist[ak.0][ak.1] =
                    linkage.merged(dist[ak.0][ak.1], dist[bk.0][bk.1], size[a], size[b]);
            }
            size[a] += size[b];
            active[b] = false;
            merges.push(best);
        }
        merges
    }

    fn cut(n: usize, merges: &[(f64, usize, usize)], threshold: f64) -> Clustering {
        let mut assign: Vec<usize> = (0..n).collect();
        for &(_, a, b) in merges.iter().take_while(|(d, _, _)| *d <= threshold) {
            for asg in assign.iter_mut().filter(|asg| **asg == b) {
                *asg = a;
            }
        }
        Clustering::from_assignments(&assign)
    }

    #[test]
    fn matches_naive_lexicographic_reference_on_tie_heavy_inputs() {
        // 300 point sets x 3 linkages x 6 thresholds = 5,400 cases, a few
        // seconds in a debug build. Coordinates on a 1-6 value grid make
        // distance ties the common case.
        let mut rng = tbpoint_stats::SplitMix64::new(0x7b90_1e57);
        for case in 0..300 {
            let dim = if case % 2 == 0 { 1 } else { 4 };
            let n = 2 + rng.next_index(119) as usize;
            let levels = 1 + rng.next_index(6);
            let points: Vec<Point> = (0..n)
                .map(|_| {
                    (0..dim)
                        .map(|_| rng.next_index(levels) as f64 * 0.1)
                        .collect()
                })
                .collect();
            for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
                let merges = naive_merges(&points, linkage);
                for threshold in [0.0, 0.1, 0.15, 0.2, 0.35, 1.0] {
                    assert_eq!(
                        hierarchical_cluster(&points, threshold, linkage),
                        cut(n, &merges, threshold),
                        "case {case}: n={n} dim={dim} levels={levels} σ={threshold} {linkage:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn thousands_of_identical_points_form_one_cluster() {
        // Every point shares one nearest neighbour: the shape of lbm's
        // epochs. A loop that rescans each row that pointed at a merged
        // cluster goes cubic here.
        let points = pts(&[1.0; 2000]);
        let c = hierarchical_cluster(&points, 0.2, Linkage::Complete);
        assert_eq!(c.num_clusters, 1);
    }

    #[test]
    fn homogeneous_launches_collapse_to_one_cluster() {
        // The stream benchmark scenario: hundreds of identical launches
        // must land in one cluster (inter-launch savings, Fig. 11).
        let points: Vec<Point> = (0..200).map(|_| vec![1.0, 1.0, 1.0, 0.0]).collect();
        let c = hierarchical_cluster(&points, 0.1, Linkage::Complete);
        assert_eq!(c.num_clusters, 1);
    }
}
