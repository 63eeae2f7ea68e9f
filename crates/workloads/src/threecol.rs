//! The NP-hardness reduction of Theorem 5.4: graph 3-colorability as a
//! bag-containment question.
//!
//! Given a graph `G`, the paper considers the ground Boolean query `q_T`
//! describing a triangle and the Boolean query `q_G` describing `G`, and
//! shows that `G` is 3-colorable iff `q_T ⊑b q_T ∧ q_G`.
//!
//! One presentational detail: the paper writes the triangle as the *directed*
//! 3-cycle `R(a,b), R(b,c), R(c,a)`. Homomorphisms into the directed 3-cycle
//! characterise a circular orientation constraint rather than 3-colorability,
//! so — as is standard for the colorability-as-homomorphism encoding — we use
//! the *symmetric* triangle (both orientations of each edge, 6 atoms) and
//! encode each undirected edge of `G` with both orientations as well. With
//! this encoding, homomorphisms from `q_G` to `q_T` are exactly the proper
//! 3-colorings of `G`, which is what the theorem's argument uses.

use dioph_cq::{Atom, ConjunctiveQuery, Term};

use crate::graphs::Graph;

/// Relation name used for edges in the reduction.
pub const EDGE_RELATION: &str = "E";

fn color_constant(i: usize) -> Term {
    Term::constant(["col_a", "col_b", "col_c"][i])
}

fn vertex_variable(v: usize) -> Term {
    Term::var(format!("v{v}"))
}

/// The ground Boolean "triangle" query `q_T`: all six ordered pairs of
/// distinct colors.
fn triangle_query() -> ConjunctiveQuery {
    let mut atoms = Vec::new();
    for i in 0..3 {
        for j in 0..3 {
            if i != j {
                atoms.push(Atom::new(EDGE_RELATION, vec![color_constant(i), color_constant(j)]));
            }
        }
    }
    ConjunctiveQuery::from_atom_list("q_T", vec![], atoms)
}

/// The Boolean query `q_G` describing the graph: one existential variable per
/// vertex and both orientations of every edge.
fn graph_query(graph: &Graph) -> ConjunctiveQuery {
    let mut atoms = Vec::new();
    for (u, v) in graph.edges() {
        atoms.push(Atom::new(EDGE_RELATION, vec![vertex_variable(u), vertex_variable(v)]));
        atoms.push(Atom::new(EDGE_RELATION, vec![vertex_variable(v), vertex_variable(u)]));
    }
    ConjunctiveQuery::from_atom_list("q_G", vec![], atoms)
}

/// The conjunction `q_T ∧ q_G` (bodies joined; bag multiplicities add for
/// shared atoms, though the two bodies are disjoint here since one is ground
/// over color constants and the other uses vertex variables).
fn triangle_and_graph_query(graph: &Graph) -> ConjunctiveQuery {
    let triangle = triangle_query();
    let graph_q = graph_query(graph);
    let body = triangle
        .body()
        .map(|(a, m)| (a.clone(), m))
        .chain(graph_q.body().map(|(a, m)| (a.clone(), m)));
    ConjunctiveQuery::new("q_TG", vec![], body)
}

/// The full Theorem 5.4 instance for a graph: the pair `(q_T, q_T ∧ q_G)`
/// such that the graph is 3-colorable iff `q_T ⊑b q_T ∧ q_G`.
pub fn three_colorability_instance(graph: &Graph) -> (ConjunctiveQuery, ConjunctiveQuery) {
    (triangle_query(), triangle_and_graph_query(graph))
}

/// Decides 3-colorability of a graph *through* the bag-containment decider
/// (the reduction direction used in the hardness proof), so that it can be
/// cross-checked against [`Graph::is_three_colorable`].
pub fn three_colorable_via_containment(
    graph: &Graph,
    decider: &dioph_containment::BagContainmentDecider,
) -> bool {
    let (containee, containing) = three_colorability_instance(graph);
    decider
        .decide(&containee, &containing)
        .expect("the triangle query is ground, hence projection-free and safe")
        .holds()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dioph_containment::{Algorithm, BagContainmentDecider};

    fn decider() -> BagContainmentDecider {
        BagContainmentDecider::new(Algorithm::MostGeneralProbe)
    }

    #[test]
    fn triangle_query_shape() {
        let t = triangle_query();
        assert!(t.is_boolean());
        assert!(t.is_projection_free());
        assert_eq!(t.total_atom_count(), 6);
        assert_eq!(t.distinct_atom_count(), 6);
    }

    #[test]
    fn graph_query_shape() {
        let g = Graph::cycle(4);
        let q = graph_query(&g);
        assert!(q.is_boolean());
        assert!(!q.is_projection_free());
        assert_eq!(q.total_atom_count(), 8);
        let qtg = triangle_and_graph_query(&g);
        assert_eq!(qtg.total_atom_count(), 14);
    }

    #[test]
    fn colorable_graphs_yield_containment() {
        for g in
            [Graph::complete(3), Graph::cycle(5), Graph::complete_bipartite(2, 3), Graph::new(3)]
        {
            assert!(g.is_three_colorable());
            assert!(
                three_colorable_via_containment(&g, &decider()),
                "reduction disagrees with the direct oracle on a colorable graph"
            );
        }
    }

    #[test]
    fn uncolorable_graphs_yield_non_containment() {
        for n in 4..=6 {
            let clique = Graph::complete(n);
            assert!(!clique.is_three_colorable());
            assert!(!three_colorable_via_containment(&clique, &decider()), "K{n}");
        }

        // K4 plus a pendant vertex is still uncolorable.
        let mut g = Graph::new(5);
        for u in 0..4 {
            for v in (u + 1)..4 {
                g.add_edge(u, v);
            }
        }
        g.add_edge(3, 4);
        assert!(!three_colorable_via_containment(&g, &decider()));
    }

    #[test]
    fn reduction_agrees_with_oracle_on_random_graphs() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(2019);
        for n in 3..=8 {
            for _ in 0..3 {
                let g = Graph::random(n, 0.5, &mut rng);
                assert_eq!(
                    g.is_three_colorable(),
                    three_colorable_via_containment(&g, &decider()),
                    "disagreement on {g:?}"
                );
            }
        }
    }

    #[test]
    fn non_containment_certificates_verify() {
        let k4 = Graph::complete(4);
        let (containee, containing) = three_colorability_instance(&k4);
        let result = decider().decide(&containee, &containing).unwrap();
        let ce = result.counterexample().expect("K4 is not 3-colorable");
        assert!(ce.verify(&containee, &containing));
    }
}
