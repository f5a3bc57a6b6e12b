//! Unit → processor topology.
//!
//! Synthetic experiments strike individual processors; the LANL log-based
//! experiments strike 4-processor nodes (§4.3: "to simulate a
//! 45,208-processor platform we generate 11,302 failure traces, one for
//! each four-processor node").

/// How many processors share each failure unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    procs_per_unit: u32,
}

impl Topology {
    /// One failure unit per processor (synthetic distributions).
    pub fn per_processor() -> Self {
        Self { procs_per_unit: 1 }
    }

    /// `n`-processor nodes (log-based distributions; the LANL clusters use
    /// `n = 4`).
    pub fn nodes_of(n: u32) -> Self {
        assert!(n >= 1, "a node holds at least one processor");
        Self { procs_per_unit: n }
    }

    /// Processors per failure unit.
    pub fn procs_per_unit(&self) -> usize {
        self.procs_per_unit as usize
    }

    /// Units needed to cover `p` processors (rounded up).
    pub fn units_for_procs(&self, p: u64) -> usize {
        p.div_ceil(u64::from(self.procs_per_unit)) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_processor_is_identity() {
        let t = Topology::per_processor();
        assert_eq!(t.procs_per_unit(), 1);
        assert_eq!(t.units_for_procs(45_208), 45_208);
    }

    #[test]
    fn lanl_nodes() {
        let t = Topology::nodes_of(4);
        // §4.3: 45,208 processors → 11,302 four-processor nodes.
        assert_eq!(t.units_for_procs(45_208), 11_302);
    }

    #[test]
    fn rounding_up() {
        let t = Topology::nodes_of(4);
        assert_eq!(t.units_for_procs(5), 2);
        assert_eq!(t.units_for_procs(4), 1);
        assert_eq!(t.units_for_procs(1), 1);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_node() {
        Topology::nodes_of(0);
    }

    #[test]
    fn units_cover_requested_procs_tightly() {
        for n in 1..=8u32 {
            let t = Topology::nodes_of(n);
            for p in 1..=100u64 {
                let units = t.units_for_procs(p) as u64;
                assert!(units * u64::from(n) >= p, "n = {n}, p = {p}: too few units");
                assert!((units - 1) * u64::from(n) < p, "n = {n}, p = {p}: a spare unit");
            }
        }
    }
}
