//! Simple graphs on at most 64 vertices, multigraphs, and a union–find.
//!
//! Every graph problem in the paper (cliques §5, triangles §6, chromatic
//! §9, Tutte §10) takes an `n`-vertex graph as the common input. A 64-bit
//! adjacency-mask representation keeps all the reference algorithms (and
//! the subset convolutions of the partitioning template) branch-light.

use std::fmt;

/// A simple undirected graph on `n <= 64` vertices with bitmask adjacency.
///
/// # Examples
///
/// ```
/// use camelot_graph::Graph;
///
/// let mut g = Graph::new(4);
/// g.add_edge(0, 1);
/// g.add_edge(1, 2);
/// assert!(g.has_edge(0, 1));
/// assert_eq!(g.degree(1), 2);
/// assert_eq!(g.edge_count(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    adj: Vec<u64>,
    edges: Vec<(usize, usize)>,
}

impl Graph {
    /// Empty graph on `n` vertices.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n <= 64, "Graph supports at most 64 vertices");
        Graph { n, adj: vec![0; n], edges: Vec::new() }
    }

    /// Builds from an edge list.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints, loops, or duplicate edges.
    #[must_use]
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut g = Graph::new(n);
        for (u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints, a loop (`u == v`), or a duplicate
    /// edge.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(u < self.n && v < self.n, "edge endpoint out of range");
        assert_ne!(u, v, "simple graphs have no loops");
        assert!(!self.has_edge(u, v), "duplicate edge {{{u}, {v}}}");
        self.adj[u] |= 1 << v;
        self.adj[v] |= 1 << u;
        self.edges.push((u.min(v), u.max(v)));
    }

    /// Number of vertices.
    #[must_use]
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// Number of edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Edge list (each edge once, endpoints ordered).
    #[must_use]
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// True if `{u, v}` is an edge.
    #[must_use]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        u < self.n && v < self.n && self.adj[u] >> v & 1 == 1
    }

    /// Neighborhood of `u` as a bitmask.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[must_use]
    pub fn neighbors(&self, u: usize) -> u64 {
        assert!(u < self.n, "vertex out of range");
        self.adj[u]
    }

    /// Degree of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[must_use]
    pub fn degree(&self, u: usize) -> usize {
        self.neighbors(u).count_ones() as usize
    }

    /// Bitmask of all vertices.
    #[must_use]
    pub fn full_mask(&self) -> u64 {
        if self.n == 64 {
            u64::MAX
        } else {
            (1u64 << self.n) - 1
        }
    }

    /// True if the vertex set `mask` induces a clique.
    #[must_use]
    pub fn is_clique(&self, mask: u64) -> bool {
        let mut rest = mask;
        while rest != 0 {
            let u = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            if rest & !self.adj[u] != 0 {
                return false;
            }
        }
        true
    }

    /// True if the vertex set `mask` is independent.
    #[must_use]
    pub fn is_independent(&self, mask: u64) -> bool {
        let mut rest = mask;
        while rest != 0 {
            let u = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            if mask & self.adj[u] != 0 {
                return false;
            }
        }
        true
    }

    /// Number of edges inside the vertex set `mask`.
    #[must_use]
    pub fn edges_within(&self, mask: u64) -> usize {
        let mut count = 0;
        let mut rest = mask;
        while rest != 0 {
            let u = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            count += (self.adj[u] & rest).count_ones() as usize;
        }
        count
    }

    /// Number of edges between the disjoint vertex sets `a` and `b`.
    #[must_use]
    pub fn edges_between(&self, a: u64, b: u64) -> usize {
        debug_assert_eq!(a & b, 0, "sets must be disjoint");
        let mut count = 0;
        let mut rest = a;
        while rest != 0 {
            let u = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            count += (self.adj[u] & b).count_ones() as usize;
        }
        count
    }

    /// True if the graph is connected (the empty graph is connected).
    #[must_use]
    pub fn is_connected(&self) -> bool {
        if self.n <= 1 {
            return true;
        }
        let mut seen = 1u64;
        let mut frontier = 1u64;
        while frontier != 0 {
            let mut next = 0u64;
            let mut rest = frontier;
            while rest != 0 {
                let u = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                next |= self.adj[u] & !seen;
            }
            seen |= next;
            frontier = next;
        }
        seen == self.full_mask()
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Graph(n={}, m={})", self.n, self.edges.len())
    }
}

/// An undirected multigraph: loops and parallel edges allowed (the Tutte
/// polynomial in §10 of the paper is defined for these).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct MultiGraph {
    n: usize,
    edges: Vec<(usize, usize)>,
}

impl MultiGraph {
    /// Empty multigraph on `n` vertices.
    #[must_use]
    pub fn new(n: usize) -> Self {
        MultiGraph { n, edges: Vec::new() }
    }

    /// Builds from an edge list (duplicates and loops welcome).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints.
    #[must_use]
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut g = MultiGraph::new(n);
        for (u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Adds an edge (possibly a loop or a parallel copy).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(u < self.n && v < self.n, "edge endpoint out of range");
        self.edges.push((u.min(v), u.max(v)));
    }

    /// Number of vertices.
    #[must_use]
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// Number of edges (with multiplicity).
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The edge list.
    #[must_use]
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Number of connected components (isolated vertices count).
    #[must_use]
    pub fn component_count(&self) -> usize {
        let mut dsu = Dsu::new(self.n);
        for &(u, v) in &self.edges {
            dsu.union(u, v);
        }
        dsu.component_count()
    }

    /// Widens a [`Graph`] into a multigraph.
    #[must_use]
    pub fn from_graph(g: &Graph) -> Self {
        MultiGraph { n: g.vertex_count(), edges: g.edges().to_vec() }
    }
}

/// Disjoint-set union with path halving and union by size.
#[derive(Clone, Debug)]
pub struct Dsu {
    parent: Vec<usize>,
    size: Vec<usize>,
    components: usize,
}

impl Dsu {
    /// `n` singleton sets.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Dsu { parent: (0..n).collect(), size: vec![1; n], components: n }
    }

    /// Representative of `x`'s set.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns true if they were distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
        self.components -= 1;
        true
    }

    /// Number of disjoint sets.
    #[must_use]
    pub fn component_count(&self) -> usize {
        self.components
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_adjacency() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3)]);
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(4), 0);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_edges_rejected() {
        let _ = Graph::from_edges(3, [(0, 1), (1, 0)]);
    }

    #[test]
    #[should_panic(expected = "no loops")]
    fn loops_rejected_in_simple_graphs() {
        let _ = Graph::from_edges(3, [(1, 1)]);
    }

    #[test]
    fn clique_and_independent_checks() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 2)]);
        assert!(g.is_clique(0b0111));
        assert!(!g.is_clique(0b1011));
        assert!(g.is_clique(0b0001));
        assert!(g.is_clique(0));
        assert!(g.is_independent(0b1000));
        assert!(!g.is_independent(0b0011));
        assert!(g.is_independent(0));
    }

    #[test]
    fn edges_within_and_between() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (0, 3)]);
        assert_eq!(g.edges_within(0b000111), 3);
        assert_eq!(g.edges_within(0b011000), 1);
        assert_eq!(g.edges_between(0b000111, 0b011000), 1);
        assert_eq!(g.edges_within(g.full_mask()), 5);
    }

    #[test]
    fn connectivity() {
        assert!(Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).is_connected());
        assert!(!Graph::from_edges(4, [(0, 1), (2, 3)]).is_connected());
        assert!(Graph::new(1).is_connected());
        assert!(!Graph::new(2).is_connected());
    }

    #[test]
    fn multigraph_allows_loops_and_parallels() {
        let mg = MultiGraph::from_edges(3, [(0, 0), (0, 1), (0, 1), (1, 2)]);
        assert_eq!(mg.edge_count(), 4);
        assert_eq!(mg.component_count(), 1);
        let mg2 = MultiGraph::from_edges(4, [(0, 1)]);
        assert_eq!(mg2.component_count(), 3);
    }

    #[test]
    fn dsu_tracks_components() {
        let mut d = Dsu::new(5);
        assert_eq!(d.component_count(), 5);
        assert!(d.union(0, 1));
        assert!(!d.union(1, 0));
        d.union(2, 3);
        d.union(0, 3);
        assert_eq!(d.component_count(), 2);
        assert_eq!(d.find(2), d.find(1));
        assert_ne!(d.find(4), d.find(0));
    }
}
