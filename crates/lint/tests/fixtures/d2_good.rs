//! Hash-iteration clean fixture: iterating a BTreeMap is deterministic
//! by construction, and a hash type named only inside a comment or a
//! string literal must not make `out` hash-typed (they are not code).

use std::collections::BTreeMap;

pub fn tally(xs: &[u32]) -> Vec<(u32, u32)> {
    // let out: HashMap<u32, u32> would be nondeterministic here.
    let mut out = BTreeMap::new();
    for &x in xs {
        *out.entry(x).or_insert(0) += 1;
    }
    out.into_iter().collect()
}

pub fn describe() -> &'static str {
    "let out = HashMap::new(); would be nondeterministic here; HashSet too"
}
