//! The classical dynamic load-balancing baselines the paper positions
//! itself against (§2), re-implemented from their original descriptions on
//! the same simulator substrate so comparisons are apples-to-apples:
//!
//! * [`diffusion::DiffusionBalancer`] — Cybenko 1989, with the Xu–Lau 1994
//!   optimal parameter variant;
//! * [`dimension_exchange::DimensionExchangeBalancer`] — Cybenko 1989;
//! * [`gradient_model::GradientModelBalancer`] — Lin & Keller 1987 (GM);
//! * [`cwn::CwnBalancer`] — Shu & Kale 1989 (contracting within a
//!   neighborhood);
//! * [`random_neighbor::RandomNeighborBalancer`] — stochastic strawman;
//! * [`threshold::SenderInitiatedBalancer`] — Eager et al. 1986.

pub mod cwn;
pub mod diffusion;
pub mod dimension_exchange;
pub mod gradient_model;
pub mod random_neighbor;
pub mod threshold;

pub use cwn::CwnBalancer;
pub use diffusion::DiffusionBalancer;
pub use dimension_exchange::DimensionExchangeBalancer;
pub use gradient_model::GradientModelBalancer;
pub use random_neighbor::RandomNeighborBalancer;
pub use threshold::SenderInitiatedBalancer;

#[cfg(test)]
pub(crate) mod testutil {
    use pp_sim::balancer::{build_view, LinkView, LoadBalancer, MigrationIntent, ViewScratch};
    use pp_sim::state::SystemState;
    use pp_tasking::graph::TaskGraph;
    use pp_tasking::resources::ResourceMatrix;
    use pp_tasking::task::{Task, TaskId};
    use pp_topology::graph::{NodeId, Topology};
    use pp_topology::links::{LinkAttrs, LinkTable};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Ring system with the given per-node loads split into unit tasks.
    pub fn ring_view_state(loads: &[f64]) -> (SystemState, Vec<f64>) {
        let topo = Topology::ring(loads.len());
        let links = LinkTable::uniform(&topo, LinkAttrs::default());
        let mut s = SystemState::new(topo, links, TaskGraph::new(), ResourceMatrix::none());
        let mut id = 0u64;
        for (i, &l) in loads.iter().enumerate() {
            let mut rest = l;
            while rest > 1e-9 {
                let sz = rest.min(1.0);
                s.add_task(NodeId(i as u32), Task::new(TaskId(id), sz, i as u32));
                id += 1;
                rest -= sz;
            }
        }
        let h = s.heights();
        (s, h)
    }

    /// Runs one `decide` for node 0 of a ring with the given loads.
    pub fn decide_on_ring(loads: &[f64], balancer: impl LoadBalancer) -> Vec<MigrationIntent> {
        let (state, heights) = ring_view_state(loads);
        let mut scratch = ViewScratch::new();
        let view = build_view(
            &mut scratch,
            &state,
            NodeId(0),
            &heights,
            &LinkView::all_up(&state, 1.0),
            0,
            0.0,
        );
        let mut rng = StdRng::seed_from_u64(0);
        balancer.decide(&view, &mut rng)
    }
}
