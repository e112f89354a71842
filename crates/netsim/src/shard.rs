//! [`ShardedSim`]: a thin name over the sequential [`Sim`].
//!
//! It exists only because the benchmark package (`perfbench/`) compiles
//! against this name; every call goes straight to the wrapped [`Sim`]. The
//! region-sharded engine it used to front was removed because it was
//! never faster (DESIGN.md, "Engine scheduling").

use crate::engine::{Node, NodeId, Sim, SimConfig};
use crate::links::Links;
use std::ops::{Deref, DerefMut};

/// Panic message for any shard count but 1 or shard index but 0.
const REMOVED: &str =
    "the region-sharded engine was removed; only shards = 1 (shard 0) is accepted";

/// The sequential [`Sim`] under the name the benchmark package uses.
/// Exists only for that package's API: it derefs to [`Sim`], and its own
/// methods accept only a single shard.
pub struct ShardedSim<M>(Sim<M>);

impl<M: Clone + 'static> ShardedSim<M> {
    /// [`Sim::with_config`]. Exists only for the benchmark package's API;
    /// panics unless `shards == 1`.
    pub fn with_config(links: Links, config: SimConfig, shards: usize) -> Self {
        assert_eq!(shards, 1, "{REMOVED}");
        ShardedSim(Sim::with_config(links, config))
    }

    /// [`Sim::add_node`]. Exists only for the benchmark package's API;
    /// panics unless `shard == 0`.
    pub fn add_node(&mut self, id: NodeId, node: Box<dyn Node<M>>, shard: usize) {
        assert_eq!(shard, 0, "{REMOVED}");
        self.0.add_node(id, node);
    }
}

impl<M> Deref for ShardedSim<M> {
    type Target = Sim<M>;

    fn deref(&self) -> &Sim<M> {
        &self.0
    }
}

impl<M> DerefMut for ShardedSim<M> {
    fn deref_mut(&mut self) -> &mut Sim<M> {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinkSpec;
    use neutrino_common::time::Duration;

    fn links() -> Links {
        Links::with_default(LinkSpec::fixed(Duration::from_micros(5)))
    }

    #[test]
    #[should_panic(expected = "region-sharded engine was removed")]
    fn more_than_one_shard_is_rejected() {
        let _ = ShardedSim::<u64>::with_config(links(), SimConfig::default(), 2);
    }

    #[test]
    #[should_panic(expected = "region-sharded engine was removed")]
    fn a_nonzero_shard_index_is_rejected() {
        struct Idle;
        impl Node<u64> for Idle {
            fn service_time(&self, _msg: &u64) -> Duration {
                Duration::ZERO
            }
            fn handle(&mut self, _event: crate::NodeEvent<u64>, _out: &mut crate::Outbox<u64>) {}
            fn as_any(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let mut sim = ShardedSim::<u64>::with_config(links(), SimConfig::default(), 1);
        sim.add_node(NodeId::new(1), Box::new(Idle), 1);
    }
}
