//! Hash-iteration fixture (G1; the line rule D2 once flagged the mere
//! mention): a hash map built and then iterated into the result, so
//! the output order is the per-process hash order.

use std::collections::HashMap;

pub fn tally(xs: &[u32]) -> Vec<(u32, u32)> {
    let mut out = HashMap::new();
    for &x in xs {
        *out.entry(x).or_insert(0) += 1;
    }
    out.into_iter().collect()
}
