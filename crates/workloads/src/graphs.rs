//! Simple undirected graphs and a brute-force 3-colorability oracle.
//!
//! Used by the Theorem 5.4 reduction (NP-hardness of bag containment via
//! graph 3-colorability) and by the E5 benchmark workloads.

use std::collections::BTreeSet;

use rand::Rng;

/// An undirected graph on vertices `0..n` with no self-loops.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Graph {
    vertices: usize,
    edges: BTreeSet<(usize, usize)>,
}

impl Graph {
    /// The empty graph on `vertices` vertices.
    pub fn new(vertices: usize) -> Self {
        Graph { vertices, edges: BTreeSet::new() }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The edges, normalised as `(min, max)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.edges.iter().copied()
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// # Panics
    /// Panics on self-loops or out-of-range vertices.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(u != v, "self-loops are not allowed");
        assert!(u < self.vertices && v < self.vertices, "vertex out of range");
        self.edges.insert((u.min(v), u.max(v)));
    }

    /// The complete graph `K_n`.
    pub fn complete(n: usize) -> Self {
        let mut g = Graph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                g.add_edge(u, v);
            }
        }
        g
    }

    /// The cycle `C_n` (requires `n ≥ 3`).
    pub fn cycle(n: usize) -> Self {
        assert!(n >= 3, "cycles need at least three vertices");
        let mut g = Graph::new(n);
        for u in 0..n {
            g.add_edge(u, (u + 1) % n);
        }
        g
    }

    /// The complete bipartite graph `K_{a,b}` (always 2-colorable).
    pub fn complete_bipartite(a: usize, b: usize) -> Self {
        let mut g = Graph::new(a + b);
        for u in 0..a {
            for v in 0..b {
                g.add_edge(u, a + v);
            }
        }
        g
    }

    /// An Erdős–Rényi random graph `G(n, p)`.
    pub fn random(n: usize, edge_probability: f64, rng: &mut impl Rng) -> Self {
        let mut g = Graph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.random_bool(edge_probability.clamp(0.0, 1.0)) {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }

    /// Decides 3-colorability by backtracking (exponential; fine for the
    /// small graphs used to cross-check the bag-containment reduction).
    pub fn is_three_colorable(&self) -> bool {
        self.find_three_coloring().is_some()
    }

    /// Finds a proper 3-coloring if one exists (colors are `0..3`).
    fn find_three_coloring(&self) -> Option<Vec<u8>> {
        let mut colors = vec![u8::MAX; self.vertices];
        if self.color_from(0, &mut colors) {
            Some(colors)
        } else {
            None
        }
    }

    fn color_from(&self, vertex: usize, colors: &mut Vec<u8>) -> bool {
        if vertex == self.vertices {
            return true;
        }
        // Symmetry breaking: the first vertex only tries color 0, the second
        // only colors 0/1.
        let max_color = (vertex.min(2) + 1) as u8;
        for color in 0..max_color.max(1) {
            if self.neighbors(vertex).all(|n| colors[n] != color) {
                colors[vertex] = color;
                if self.color_from(vertex + 1, colors) {
                    return true;
                }
                colors[vertex] = u8::MAX;
            }
        }
        // Also allow all three colors when symmetry breaking was too strict
        // (only vertices beyond the second get the full palette above).
        if vertex >= 2 {
            for color in max_color..3 {
                if self.neighbors(vertex).all(|n| colors[n] != color) {
                    colors[vertex] = color;
                    if self.color_from(vertex + 1, colors) {
                        return true;
                    }
                    colors[vertex] = u8::MAX;
                }
            }
        }
        false
    }

    fn neighbors(&self, vertex: usize) -> impl Iterator<Item = usize> + '_ {
        self.edges.iter().filter_map(move |&(u, v)| {
            if u == vertex {
                Some(v)
            } else if v == vertex {
                Some(u)
            } else {
                None
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The coloring oracle: `colors` is proper iff adjacent vertices differ.
    fn is_proper_coloring(g: &Graph, colors: &[u8]) -> bool {
        colors.len() == g.vertex_count() && g.edges().all(|(u, v)| colors[u] != colors[v])
    }

    #[test]
    fn complete_graphs_and_cycles_have_their_edges() {
        for n in 3..=7 {
            let k = Graph::complete(n);
            assert_eq!(k.edge_count(), n * (n - 1) / 2, "K{n}");
            assert!(k.edges().all(|(u, v)| u < v && v < n), "K{n}");
            let c = Graph::cycle(n);
            assert_eq!(c.edge_count(), n, "C{n}");
            // Every vertex of a cycle has degree two.
            for v in 0..n {
                assert_eq!(c.edges().filter(|&(a, b)| a == v || b == v).count(), 2, "C{n}");
            }
        }
    }

    #[test]
    fn construction_and_queries() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 0); // duplicate, normalised away
        g.add_edge(2, 3);
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.edges().collect::<Vec<_>>(), [(0, 1), (2, 3)]);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loops_are_rejected() {
        Graph::new(2).add_edge(1, 1);
    }

    #[test]
    fn coloring_known_graphs() {
        // Triangles and odd cycles are 3-colorable; K4 is not.
        assert!(Graph::complete(3).is_three_colorable());
        assert!(!Graph::complete(4).is_three_colorable());
        assert!(Graph::cycle(5).is_three_colorable());
        assert!(Graph::cycle(6).is_three_colorable());
        assert!(Graph::complete_bipartite(3, 4).is_three_colorable());
        // The empty graph and tiny graphs are trivially colorable.
        assert!(Graph::new(0).is_three_colorable());
        assert!(Graph::new(5).is_three_colorable());
        assert!(Graph::complete(2).is_three_colorable());
    }

    #[test]
    fn colorings_are_proper() {
        for g in [Graph::cycle(7), Graph::complete(3), Graph::complete_bipartite(2, 5)] {
            let coloring = g.find_three_coloring().expect("colorable");
            assert!(is_proper_coloring(&g, &coloring));
            assert!(coloring.iter().all(|&c| c < 3));
        }
        assert!(Graph::complete(4).find_three_coloring().is_none());
    }

    #[test]
    fn k4_plus_isolated_vertices_still_not_colorable() {
        let mut g = Graph::new(6);
        for u in 0..4 {
            for v in (u + 1)..4 {
                g.add_edge(u, v);
            }
        }
        assert!(!g.is_three_colorable());
    }

    #[test]
    fn random_graphs_are_reproducible() {
        let mut rng1 = StdRng::seed_from_u64(7);
        let mut rng2 = StdRng::seed_from_u64(7);
        let a = Graph::random(10, 0.4, &mut rng1);
        let b = Graph::random(10, 0.4, &mut rng2);
        assert_eq!(a, b);
        let dense = Graph::random(8, 1.0, &mut rng1);
        assert_eq!(dense.edge_count(), 28);
        let empty = Graph::random(8, 0.0, &mut rng1);
        assert_eq!(empty.edge_count(), 0);
    }

    #[test]
    fn improper_coloring_detected() {
        let g = Graph::complete(3);
        assert!(!is_proper_coloring(&g, &[0, 0, 1]));
        assert!(is_proper_coloring(&g, &[0, 1, 2]));
        assert!(!is_proper_coloring(&g, &[0, 1]));
    }
}
