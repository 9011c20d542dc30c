//! Link attribute matrices `BW`, `D`, `F` and the paper's link weight
//! `e_{i,j}` (§4.2).
//!
//! Every link has a bandwidth, a physical length and a fault probability per
//! time unit; all three are configuration constants of the system. The
//! effective link weight used by the balancer is
//!
//! ```text
//! e_{i,j} = (d_{i,j} / bw_{i,j}) / (1 − f_{i,j})^{d_{i,j}/(c·bw_{i,j})}
//! ```
//!
//! which realises the paper's three proportionalities: `e ∝ d`,
//! `e ∝ 1/bw`, and `e ∝ 1/(1−f)^{d/(c·bw)}` (the longer a transfer holds the
//! link, the more likely it is to hit a fault, hence the heavier the link).

use crate::embedding::Point2;
use crate::graph::{EdgeId, NodeId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Attributes of one physical link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkAttrs {
    /// Bandwidth (load units per time unit), `> 0`.
    pub bandwidth: f64,
    /// Physical length / base latency, `> 0`.
    pub distance: f64,
    /// Probability of a fault per time unit, in `[0, 1)`.
    pub fault_prob: f64,
}

impl Default for LinkAttrs {
    fn default() -> Self {
        LinkAttrs { bandwidth: 1.0, distance: 1.0, fault_prob: 0.0 }
    }
}

impl LinkAttrs {
    /// Validates the attribute ranges.
    pub fn validate(&self) -> Result<(), String> {
        if !self.bandwidth.is_finite() || self.bandwidth <= 0.0 {
            return Err(format!("bandwidth must be > 0, got {}", self.bandwidth));
        }
        if !self.distance.is_finite() || self.distance <= 0.0 {
            return Err(format!("distance must be > 0, got {}", self.distance));
        }
        if !(0.0..1.0).contains(&self.fault_prob) {
            return Err(format!("fault_prob must be in [0,1), got {}", self.fault_prob));
        }
        Ok(())
    }

    /// The paper's link weight `e_{i,j}` (see module docs). `c` is the
    /// configuration constant scaling the fault exposure; larger `c` means
    /// faults weigh less.
    pub fn weight(&self, c: f64) -> f64 {
        assert!(c > 0.0, "link weight constant c must be positive");
        let base = self.distance / self.bandwidth;
        let exposure = self.distance / (c * self.bandwidth);
        base / (1.0 - self.fault_prob).powf(exposure)
    }

    /// Nominal transfer time for a load of `size` over this link (latency
    /// plus serialisation), ignoring faults.
    pub fn transfer_time(&self, size: f64) -> f64 {
        self.distance + size / self.bandwidth
    }

    /// Probability that a transfer occupying the link for `duration` time
    /// units completes without a fault: `(1 − f)^duration`.
    pub fn success_probability(&self, duration: f64) -> f64 {
        (1.0 - self.fault_prob).powf(duration.max(0.0))
    }
}

/// Per-link attributes of a topology: the `BW`, `D`, `F` matrices of §4.2,
/// stored as one [`LinkAttrs`] per stable edge id, so every consumer
/// addresses a link by array index instead of hashing `(u, v)` pairs.
/// Immutable once built.
#[derive(Debug, Clone)]
pub struct LinkTable {
    attrs: Vec<LinkAttrs>,
}

impl LinkTable {
    /// Builds the table by calling `f(u, v)` once per edge, in edge-id
    /// order (`(u, v)`, `u < v`, ascending) — the order seeded
    /// constructors draw in.
    ///
    /// # Panics
    /// Panics if `f` returns attributes that fail [`LinkAttrs::validate`].
    pub(crate) fn from_fn(topo: &Topology, mut f: impl FnMut(NodeId, NodeId) -> LinkAttrs) -> Self {
        let attrs = topo
            .edge_slice()
            .iter()
            .map(|&(u, v)| {
                let a = f(u, v);
                a.validate().expect("invalid link attributes");
                a
            })
            .collect();
        LinkTable { attrs }
    }

    /// All links of `topo` share the same attributes.
    pub fn uniform(topo: &Topology, attrs: LinkAttrs) -> Self {
        attrs.validate().expect("invalid link attributes");
        LinkTable { attrs: vec![attrs; topo.edge_count()] }
    }

    /// Distances derived from an embedding (Euclidean length of each link),
    /// uniform bandwidth, no faults.
    pub fn from_embedding(topo: &Topology, points: &[Point2], bandwidth: f64) -> Self {
        LinkTable::from_fn(topo, |u, v| LinkAttrs {
            bandwidth,
            distance: points[u.idx()].distance(&points[v.idx()]).max(1e-9),
            fault_prob: 0.0,
        })
    }

    /// Heterogeneous random attributes (seeded): bandwidth in
    /// `[bw_min, bw_max]`, distance in `[d_min, d_max]`, fault probability in
    /// `[0, f_max]`. Draws bandwidth, distance, fault per edge in edge-id
    /// order.
    pub fn random(
        topo: &Topology,
        seed: u64,
        bw_range: (f64, f64),
        d_range: (f64, f64),
        f_max: f64,
    ) -> Self {
        assert!(bw_range.0 > 0.0 && bw_range.1 >= bw_range.0);
        assert!(d_range.0 > 0.0 && d_range.1 >= d_range.0);
        assert!((0.0..1.0).contains(&f_max));
        let mut rng = StdRng::seed_from_u64(seed);
        LinkTable::from_fn(topo, |_, _| LinkAttrs {
            bandwidth: rng.gen_range(bw_range.0..=bw_range.1),
            distance: rng.gen_range(d_range.0..=d_range.1),
            fault_prob: if f_max > 0.0 { rng.gen_range(0.0..f_max) } else { 0.0 },
        })
    }

    /// Attributes of the edge, by id.
    #[inline]
    pub fn get(&self, e: EdgeId) -> LinkAttrs {
        self.attrs[e.idx()]
    }

    /// The whole edge-indexed attribute slice.
    #[inline]
    pub fn attrs(&self) -> &[LinkAttrs] {
        &self.attrs
    }

    /// Precomputes the paper's `e_{i,j}` weight for every edge with the
    /// configuration constant `c` — one `powf` per edge at build time
    /// instead of one per neighbour per node per tick.
    pub fn weights(&self, c: f64) -> Vec<f64> {
        self.attrs.iter().map(|a| a.weight(c)).collect()
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_attrs_weight_is_one() {
        let a = LinkAttrs::default();
        assert_eq!(a.weight(1.0), 1.0);
    }

    #[test]
    fn weight_proportional_to_distance() {
        let a = LinkAttrs { distance: 2.0, ..Default::default() };
        let b = LinkAttrs { distance: 4.0, ..Default::default() };
        assert!((b.weight(1.0) / a.weight(1.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn weight_inverse_in_bandwidth() {
        let a = LinkAttrs { bandwidth: 1.0, ..Default::default() };
        let b = LinkAttrs { bandwidth: 2.0, ..Default::default() };
        assert!(b.weight(1.0) < a.weight(1.0));
    }

    #[test]
    fn faulty_links_weigh_more() {
        let clean = LinkAttrs::default();
        let faulty = LinkAttrs { fault_prob: 0.3, ..Default::default() };
        assert!(faulty.weight(1.0) > clean.weight(1.0));
        // And the penalty grows with fault probability.
        let worse = LinkAttrs { fault_prob: 0.6, ..Default::default() };
        assert!(worse.weight(1.0) > faulty.weight(1.0));
    }

    #[test]
    fn fault_penalty_scales_with_exposure() {
        // A slower link (more exposure time) suffers more from the same f.
        let fast = LinkAttrs { bandwidth: 10.0, fault_prob: 0.2, ..Default::default() };
        let slow = LinkAttrs { bandwidth: 0.1, fault_prob: 0.2, ..Default::default() };
        let ratio_fast = fast.weight(1.0) / (fast.distance / fast.bandwidth);
        let ratio_slow = slow.weight(1.0) / (slow.distance / slow.bandwidth);
        assert!(ratio_slow > ratio_fast);
    }

    #[test]
    fn transfer_time_and_success_probability() {
        let a = LinkAttrs { bandwidth: 2.0, distance: 3.0, fault_prob: 0.1 };
        assert_eq!(a.transfer_time(4.0), 5.0);
        let p = a.success_probability(2.0);
        assert!((p - 0.81).abs() < 1e-12);
        assert_eq!(a.success_probability(0.0), 1.0);
    }

    #[test]
    fn uniform_table_covers_all_edges() {
        let t = Topology::mesh(&[3, 3]);
        let m = LinkTable::uniform(&t, LinkAttrs::default());
        assert_eq!(m.len(), t.edge_count());
        assert!(m.attrs().iter().all(|&a| a == LinkAttrs::default()));
    }

    #[test]
    fn from_fn_visits_edges_in_id_order() {
        let t = Topology::torus(&[3, 4]);
        let mut seen = Vec::new();
        let m = LinkTable::from_fn(&t, |u, v| {
            seen.push((u, v));
            LinkAttrs { distance: 1.0 + u.0 as f64, ..Default::default() }
        });
        assert_eq!(seen, t.edge_slice());
        for (i, &(u, _)) in t.edge_slice().iter().enumerate() {
            assert_eq!(m.get(EdgeId(i as u32)).distance, 1.0 + u.0 as f64);
        }
    }

    #[test]
    fn embedding_distances_used() {
        let t = Topology::mesh(&[2, 2]);
        let pts = crate::embedding::embed(&t);
        let m = LinkTable::from_embedding(&t, &pts, 1.0);
        assert!(m.attrs().iter().all(|a| (a.distance - 1.0).abs() < 1e-9));
    }

    #[test]
    fn random_table_is_deterministic() {
        let t = Topology::hypercube(3);
        let a = LinkTable::random(&t, 5, (0.5, 2.0), (1.0, 3.0), 0.1);
        let b = LinkTable::random(&t, 5, (0.5, 2.0), (1.0, 3.0), 0.1);
        assert_eq!(a.attrs(), b.attrs());
        let c = LinkTable::random(&t, 6, (0.5, 2.0), (1.0, 3.0), 0.1);
        assert_ne!(a.attrs(), c.attrs());
    }

    /// Pins the draw order: bandwidth, distance, fault per edge, edges in
    /// id order. The values are what the seed-7 table held before link
    /// attributes were stored by edge id (when they were drawn into a
    /// hash map walked in the same order); a change here changes every
    /// scenario with random links.
    #[test]
    fn random_table_draw_order_is_pinned() {
        let t = Topology::torus(&[3, 3]);
        let m = LinkTable::random(&t, 7, (0.5, 2.0), (1.0, 3.0), 0.2);
        let pinned = [
            (0, 1, 0.5830406547174997, 1.3442317088962354, 0.1435152256717319),
            (0, 2, 1.1408147289372579, 2.927319043762459, 0.09314073782809569),
            (0, 3, 1.585860642854804, 1.659678859105056, 0.19646453024244864),
            (0, 6, 0.6099256865624113, 1.2284824753757495, 0.03439362813249549),
        ];
        for (i, &(u, v, bandwidth, distance, fault_prob)) in pinned.iter().enumerate() {
            assert_eq!(t.edge_endpoints(EdgeId(i as u32)), (NodeId(u), NodeId(v)));
            assert_eq!(m.get(EdgeId(i as u32)), LinkAttrs { bandwidth, distance, fault_prob });
        }
    }

    #[test]
    #[should_panic(expected = "invalid link attributes")]
    fn invalid_attrs_rejected() {
        let t = Topology::ring(3);
        let _ =
            LinkTable::uniform(&t, LinkAttrs { bandwidth: 0.0, distance: 1.0, fault_prob: 0.0 });
    }

    #[test]
    #[should_panic(expected = "invalid link attributes")]
    fn from_fn_rejects_invalid_attrs() {
        let t = Topology::ring(3);
        let _ = LinkTable::from_fn(&t, |_, _| LinkAttrs { fault_prob: 1.0, ..Default::default() });
    }

    #[test]
    fn weights_follow_edge_ids() {
        let t = Topology::torus(&[3, 3]);
        let m = LinkTable::random(&t, 11, (0.5, 2.0), (1.0, 3.0), 0.2);
        let weights = m.weights(2.0);
        assert_eq!(weights.len(), t.edge_count());
        for (i, w) in weights.iter().enumerate() {
            assert_eq!(*w, m.get(EdgeId(i as u32)).weight(2.0));
        }
    }

    #[test]
    fn validate_catches_bad_fault_prob() {
        let a = LinkAttrs { fault_prob: 1.0, ..Default::default() };
        assert!(a.validate().is_err());
        let b = LinkAttrs { fault_prob: -0.1, ..Default::default() };
        assert!(b.validate().is_err());
    }
}
