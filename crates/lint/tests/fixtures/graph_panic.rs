// Graph-rule fixture: one panic-capable op reachable from a simulator
// hot loop (G3) and one in a cold reporting path (no G3):
// reachability distinguishes them.
pub fn hot_step(x: Option<u64>) -> u64 {
    x.unwrap()
}

pub fn cold_report(y: Option<u64>) -> u64 {
    y.expect("report values are always present")
}
