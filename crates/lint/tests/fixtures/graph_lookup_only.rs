// Graph-rule fixture: a hash map used for keyed lookups only. G1
// accepts the file as-is — no allow needed — because no iteration of
// the map is reachable from any root.
use std::collections::HashMap;

pub fn lookup(table: &HashMap<u32, f64>, id: u32) -> f64 {
    *table.get(&id).unwrap_or(&0.0)
}
