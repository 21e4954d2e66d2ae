// Graph-rule fixture: a cross-function hash-order leak no per-line
// check could see. The map's declaration carries a plausible-sounding
// (but wrong) lint:allow, and the iteration line never mentions
// `HashMap` — `predict()` pushes ids in hash order into a vec that
// flows back into the simulator root.
pub struct Profile {
    // lint:allow(G1): keyed lookups only; never iterated. (Wrong —
    // predict() below iterates it; exactly the claim the reachability
    // analysis exists to check.)
    scores: std::collections::HashMap<u32, f64>,
}

impl Profile {
    pub fn predict(&self) -> Vec<u32> {
        let mut hot = Vec::new();
        for (id, score) in &self.scores {
            if *score > 0.5 {
                hot.push(*id);
            }
        }
        hot
    }
}
