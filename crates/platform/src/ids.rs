//! Addressing of nodes and processors within the platform.

use snapshot::{Codec, SnapshotError};
use std::fmt;
use workload::SiteId;

/// Address of a compute node: `(site, node index within site)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeAddr {
    /// The owning resource site.
    pub site: SiteId,
    /// Node index within the site, dense from 0.
    pub node: u32,
}

impl NodeAddr {
    /// Convenience constructor.
    pub fn new(site: u32, node: u32) -> Self {
        NodeAddr {
            site: SiteId(site),
            node,
        }
    }

    /// Snapshot field list (range checks need the platform: see
    /// `checkpoint`).
    pub(crate) fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        c.u32(&mut self.site.0)?;
        c.u32(&mut self.node)
    }
}

impl fmt::Display for NodeAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/n{}", self.site, self.node)
    }
}

/// Address of a processor: node address plus processor index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcAddr {
    /// The owning node.
    pub node: NodeAddr,
    /// Processor index within the node, dense from 0.
    pub proc: u32,
}

impl ProcAddr {
    /// Snapshot field list (see [`NodeAddr::snap`]).
    pub(crate) fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapshotError> {
        self.node.snap(c)?;
        c.u32(&mut self.proc)
    }
}

impl fmt::Display for ProcAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/p{}", self.node, self.proc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let p = ProcAddr {
            node: NodeAddr::new(2, 3),
            proc: 1,
        };
        assert_eq!(p.to_string(), "S2/n3/p1");
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = NodeAddr::new(0, 5);
        let b = NodeAddr::new(1, 0);
        assert!(a < b);
    }
}
