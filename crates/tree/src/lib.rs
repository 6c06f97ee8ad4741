//! Augmented hierarchical indexes for kernel aggregation queries.
//!
//! The paper's branch-and-bound framework (Section II-B) works over any
//! hierarchical index whose nodes carry a bounding volume plus the
//! aggregates needed by the bound functions. This crate provides the two
//! index families the paper (and Scikit-learn) use:
//!
//! * [`KdTree`] — nodes are axis-aligned bounding rectangles,
//! * [`BallTree`] — nodes are centroid bounding balls,
//!
//! both built by the same median split on the widest dimension, so the only
//! difference between the families is the node volume — exactly the degree
//! of freedom the paper's automatic index tuning (Section III-C) explores.
//!
//! Every node is augmented with the statistics of Lemma 2/5:
//! `W = Σ wᵢ`, `a = Σ wᵢ·pᵢ`, `b = Σ wᵢ·‖pᵢ‖²` and the point count, which
//! let the KARL linear bounds be evaluated in `O(d)` per node.
//!
//! Points are reordered at build time so that every subtree owns a
//! contiguous range of the point buffer; leaf refinement is then a linear
//! scan, and the "top-i-levels" tree views used by in-situ tuning fall out
//! for free (treat depth-`i` nodes as leaves).

pub mod error;
pub mod frozen;
pub mod persist;
pub mod stats;
pub mod tree;

pub use error::TreeError;
pub use frozen::{FrozenShapes, FrozenTree, NO_CHILD};
pub use persist::{
    index_file_info, load_index_file, write_index_file, IndexFileInfo, LeafData, LoadedIndex,
    LoadedSide, PersistError, SectionInfo, SideImage,
};
pub use stats::NodeStats;
pub use tree::{BallTree, KdTree, Node, NodeId, NodeShape, ShapeFamily, Tree};
