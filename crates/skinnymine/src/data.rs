//! The input forms of a mining run.
//!
//! The paper defines the problem in the single-graph setting and notes that
//! "the corresponding version for graph transaction setting can be easily
//! derived".  [`MiningData`] is that derivation: both settings expose the
//! data as a list of transaction graphs (a single graph is a one-transaction
//! database), and embeddings always carry their transaction index.
//!
//! Mining reads one form only: the immutable columnar
//! [`skinny_graph::CsrSnapshot`].  Adjacency-list input is frozen into a
//! snapshot once at the entry point ([`MiningData::to_snapshot`]), and input
//! that already is a snapshot is borrowed as is.

use skinny_graph::{CsrSnapshot, GraphDatabase, LabeledGraph};
use std::borrow::Cow;

/// The data being mined: a single large graph or a transaction database,
/// either as adjacency lists or already frozen into a CSR snapshot.
#[derive(Debug, Clone)]
pub enum MiningData<'a> {
    /// Single-graph setting (the paper's Definition 8), adjacency-list form.
    Single(&'a LabeledGraph),
    /// Graph-transaction setting (Figures 9–10), adjacency-list form.
    Transactions(&'a GraphDatabase),
    /// Either setting, frozen into per-transaction CSR snapshots.
    Snapshot(&'a CsrSnapshot),
}

impl<'a> MiningData<'a> {
    /// Number of transactions (1 in the single-graph setting).
    pub fn transaction_count(&self) -> usize {
        match self {
            MiningData::Single(_) => 1,
            MiningData::Transactions(db) => db.len(),
            MiningData::Snapshot(s) => s.len(),
        }
    }

    /// Freezes this data into per-transaction CSR snapshots.
    ///
    /// When the data already **is** a snapshot this is a cheap borrow — no
    /// rebuild, no clone; call `.into_owned()` only when an owned snapshot
    /// is genuinely required.
    pub fn to_snapshot(&self) -> Cow<'a, CsrSnapshot> {
        self.to_snapshot_with_threads(1)
    }

    /// [`MiningData::to_snapshot`] with the database setting frozen
    /// per-shard on `threads` pool workers
    /// ([`CsrSnapshot::from_database_with_threads`]); the result is
    /// byte-identical for every thread count.
    pub fn to_snapshot_with_threads(&self, threads: usize) -> Cow<'a, CsrSnapshot> {
        match self {
            MiningData::Single(g) => Cow::Owned(CsrSnapshot::from_graph(g)),
            MiningData::Transactions(db) => Cow::Owned(CsrSnapshot::from_database_with_threads(db, threads)),
            MiningData::Snapshot(s) => Cow::Borrowed(*s),
        }
    }

    /// Total number of vertices across transactions.
    pub fn total_vertices(&self) -> usize {
        match self {
            MiningData::Single(g) => g.vertex_count(),
            MiningData::Transactions(db) => db.total_vertices(),
            MiningData::Snapshot(s) => s.iter().map(|(_, g)| g.vertex_count()).sum(),
        }
    }

    /// Total number of edges across transactions.
    pub fn total_edges(&self) -> usize {
        match self {
            MiningData::Single(g) => g.edge_count(),
            MiningData::Transactions(db) => db.total_edges(),
            MiningData::Snapshot(s) => s.iter().map(|(_, g)| g.edge_count()).sum(),
        }
    }

    /// True when there is no vertex at all.
    pub fn is_empty(&self) -> bool {
        self.total_vertices() == 0
    }

    /// True when the mining setting is the transaction setting.  A snapshot
    /// remembers which setting it was frozen from.
    pub fn is_transactional(&self) -> bool {
        match self {
            MiningData::Single(_) => false,
            MiningData::Transactions(_) => true,
            MiningData::Snapshot(s) => s.is_transactional(),
        }
    }
}

impl<'a> From<&'a LabeledGraph> for MiningData<'a> {
    fn from(g: &'a LabeledGraph) -> Self {
        MiningData::Single(g)
    }
}

impl<'a> From<&'a GraphDatabase> for MiningData<'a> {
    fn from(db: &'a GraphDatabase) -> Self {
        MiningData::Transactions(db)
    }
}

impl<'a> From<&'a CsrSnapshot> for MiningData<'a> {
    fn from(s: &'a CsrSnapshot) -> Self {
        MiningData::Snapshot(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinny_graph::{Label, VertexId};

    fn graph() -> LabeledGraph {
        LabeledGraph::from_unlabeled_edges(&[Label(0), Label(1), Label(0)], [(0, 1), (1, 2)]).unwrap()
    }

    #[test]
    fn single_graph_input() {
        let g = graph();
        let data: MiningData<'_> = (&g).into();
        assert_eq!(data.transaction_count(), 1);
        assert!(!data.is_transactional());
        assert_eq!(data.total_vertices(), 3);
        assert_eq!(data.total_edges(), 2);
        assert!(!data.is_empty());
        let snapshot = data.to_snapshot();
        assert!(matches!(snapshot, Cow::Owned(_)));
        assert_eq!(snapshot.len(), 1);
        assert_eq!(snapshot.graph(0).label(VertexId(1)), Label(1));
        assert!(snapshot.graph(0).parity_with(&g));
    }

    #[test]
    fn transaction_input() {
        let db = GraphDatabase::from_graphs(vec![graph(), graph()]);
        let data: MiningData<'_> = (&db).into();
        assert_eq!(data.transaction_count(), 2);
        assert!(data.is_transactional());
        assert_eq!(data.total_vertices(), 6);
        assert_eq!(data.total_edges(), 4);
        let snapshot = data.to_snapshot();
        assert!(snapshot.is_transactional());
        // a parallel freeze of the database setting is byte-identical
        assert_eq!(data.to_snapshot_with_threads(2).as_ref(), snapshot.as_ref());
    }

    #[test]
    fn snapshot_input_answers_identically() {
        let db = GraphDatabase::from_graphs(vec![graph(), graph(), graph()]);
        let adjacency: MiningData<'_> = (&db).into();
        let snapshot = adjacency.to_snapshot();
        let data: MiningData<'_> = snapshot.as_ref().into();
        assert_eq!(data.transaction_count(), 3);
        assert!(data.is_transactional());
        assert_eq!(data.total_vertices(), adjacency.total_vertices());
        assert_eq!(data.total_edges(), adjacency.total_edges());
        // re-snapshotting a snapshot is a borrow of the existing snapshot,
        // not a rebuild
        let again = data.to_snapshot();
        assert!(matches!(again, Cow::Borrowed(_)));
        assert!(std::ptr::eq(again.as_ref(), &*snapshot));
    }

    #[test]
    fn empty_database_is_empty() {
        let db = GraphDatabase::new();
        let data: MiningData<'_> = (&db).into();
        assert!(data.is_empty());
        assert_eq!(data.transaction_count(), 0);
    }
}
