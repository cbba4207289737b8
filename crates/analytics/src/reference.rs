//! Sequential oracle implementations used to validate the vertex-centric
//! analytics. None of these run on the BSP engine.

use ariadne_graph::{Csr, VertexId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Dijkstra's algorithm from `source`; unreachable vertices get
/// [`f64::INFINITY`]. Edge weights must be non-negative.
pub fn dijkstra(g: &Csr, source: VertexId) -> Vec<f64> {
    #[derive(PartialEq)]
    struct Entry(f64, VertexId);
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reverse for a min-heap; distances are finite non-NaN here.
            other.0.partial_cmp(&self.0).unwrap_or(Ordering::Equal)
        }
    }

    let mut dist = vec![f64::INFINITY; g.num_vertices()];
    if g.num_vertices() == 0 {
        return dist;
    }
    let mut heap = BinaryHeap::new();
    dist[source.index()] = 0.0;
    heap.push(Entry(0.0, source));
    while let Some(Entry(d, v)) = heap.pop() {
        if d > dist[v.index()] {
            continue;
        }
        for e in g.out_edges(v) {
            debug_assert!(e.weight >= 0.0, "negative edge weight");
            let nd = d + e.weight;
            if nd < dist[e.neighbor.index()] {
                dist[e.neighbor.index()] = nd;
                heap.push(Entry(nd, e.neighbor));
            }
        }
    }
    dist
}

/// Dense power iteration for PageRank in the "sums to |V|" convention
/// (`r = (1-d) + d * A^T r`), mirroring the Jacobi sequence the classic
/// vertex-centric program computes. Dangling contributions are dropped,
/// exactly like the VC implementation.
pub fn pagerank_power_iteration(g: &Csr, damping: f64, iterations: u32) -> Vec<f64> {
    let n = g.num_vertices();
    let mut rank = vec![1.0; n];
    let mut next = vec![0.0; n];
    for _ in 1..iterations {
        next.iter_mut().for_each(|x| *x = 0.0);
        for v in g.vertices() {
            let deg = g.out_degree(v);
            if deg > 0 {
                let share = rank[v.index()] / deg as f64;
                for &t in g.out_neighbors(v) {
                    next[t.index()] += share;
                }
            }
        }
        for i in 0..n {
            rank[i] = (1.0 - damping) + damping * next[i];
        }
    }
    rank
}

/// Weakly connected component labels by union-find: every vertex is
/// labelled with the smallest vertex id in its component, the same
/// fixpoint as the min-label [`crate::Wcc`] analytic. (The union-find
/// itself lives in `ariadne_graph::stats`, which uses it for graph
/// statistics.)
pub use ariadne_graph::stats::weakly_connected_components as wcc_labels;

/// Forward-reachable set from `source` following out-edges; oracle for
/// forward lineage (Query 3).
pub fn forward_reachable(g: &Csr, source: VertexId) -> Vec<bool> {
    let mut seen = vec![false; g.num_vertices()];
    if g.num_vertices() == 0 {
        return seen;
    }
    let mut stack = vec![source];
    seen[source.index()] = true;
    while let Some(v) = stack.pop() {
        for &t in g.out_neighbors(v) {
            if !seen[t.index()] {
                seen[t.index()] = true;
                stack.push(t);
            }
        }
    }
    seen
}

/// Backward-reachable set into `target` (vertices with a directed path to
/// `target`); oracle for backward lineage (Queries 10 and 12).
pub fn backward_reachable(g: &Csr, target: VertexId) -> Vec<bool> {
    let mut seen = vec![false; g.num_vertices()];
    if g.num_vertices() == 0 {
        return seen;
    }
    let mut stack = vec![target];
    seen[target.index()] = true;
    while let Some(v) = stack.pop() {
        for &s in g.in_neighbors(v) {
            if !seen[s.index()] {
                seen[s.index()] = true;
                stack.push(s);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariadne_graph::generators::regular::{cycle, path, star};
    use ariadne_graph::GraphBuilder;

    #[test]
    fn dijkstra_on_weighted_diamond() {
        let mut b = GraphBuilder::new();
        b.add_edge(VertexId(0), VertexId(1), 1.0);
        b.add_edge(VertexId(0), VertexId(2), 4.0);
        b.add_edge(VertexId(1), VertexId(2), 1.0);
        b.add_edge(VertexId(2), VertexId(3), 1.0);
        let g = b.build();
        let d = dijkstra(&g, VertexId(0));
        assert_eq!(d, vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn dijkstra_unreachable() {
        let g = path(3);
        let d = dijkstra(&g, VertexId(2));
        assert!(d[0].is_infinite() && d[1].is_infinite());
        assert_eq!(d[2], 0.0);
    }

    #[test]
    fn power_iteration_uniform_on_cycle() {
        let r = pagerank_power_iteration(&cycle(5), 0.85, 25);
        for &x in &r {
            assert!((x - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn wcc_labels_are_component_minimum_ids() {
        // {0, 2, 4} joined against edge direction, {1, 3}, isolated 5.
        let mut b = GraphBuilder::new();
        b.add_edge(VertexId(4), VertexId(2), 1.0);
        b.add_edge(VertexId(2), VertexId(0), 1.0);
        b.add_edge(VertexId(3), VertexId(1), 1.0);
        b.ensure_vertex(VertexId(5));
        let g = b.build();
        assert_eq!(wcc_labels(&g), vec![0, 1, 0, 1, 0, 5]);
    }

    #[test]
    fn reachability_on_star() {
        let g = star(5);
        let fwd = forward_reachable(&g, VertexId(0));
        assert!(fwd.iter().all(|&b| b));
        let bwd = backward_reachable(&g, VertexId(3));
        assert_eq!(bwd, vec![true, false, false, true, false]);
    }

    #[test]
    fn reachability_respects_direction() {
        let g = path(4);
        assert_eq!(
            forward_reachable(&g, VertexId(2)),
            vec![false, false, true, true]
        );
        assert_eq!(
            backward_reachable(&g, VertexId(2)),
            vec![true, true, true, false]
        );
    }
}
