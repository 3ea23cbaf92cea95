//! # lfm-simcluster — discrete-event cluster substrate
//!
//! The stand-in for the HPC sites the paper evaluated at (Theta, Cori,
//! NSCC Aspire, ND-CRC, AWS EC2). Provides:
//!
//! * [`time`] / [`event`] — a deterministic discrete-event core (total-order
//!   clock, FIFO tie-breaking).
//! * [`rng`] — seeded randomness with the distributions workload models use.
//! * [`sharedfs`] — the shared-filesystem metadata-contention model behind
//!   Figures 4 and 5.
//! * [`storage`] / [`network`] — node-local disks and the master↔worker
//!   network.
//! * [`node`] — resource vectors and oversubscription-free allocation.
//! * [`batch`] — pilot-job provisioning latency.
//! * [`sites`] — the Table III site catalog.
//! * [`metrics`] — streaming statistics and exact quantiles.

pub mod batch;
pub mod event;
pub mod metrics;
pub mod network;
pub mod node;
#[cfg(test)]
mod proptests;
pub mod rng;
pub mod sharedfs;
pub mod sites;
pub mod storage;
pub mod time;

pub mod prelude {
    pub use crate::batch::{BatchParams, BatchSystem, Pilot};
    pub use crate::event::EventQueue;
    pub use crate::metrics::Summary;
    pub use crate::network::{Disturbance, Network, NetworkParams, TransferOutcome};
    pub use crate::node::{Node, NodeSpec, Resources};
    pub use crate::rng::SimRng;
    pub use crate::sharedfs::{SharedFs, SharedFsParams};
    pub use crate::sites::{all_sites, aws_ec2, cori, nd_crc, nscc_aspire, theta, Site};
    pub use crate::storage::LocalDisk;
    pub use crate::time::SimTime;
}
