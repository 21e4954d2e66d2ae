//! Suppression fixture: malformed allows are themselves violations.

// lint:allow(D1):
pub fn comparable(a: f64, b: f64) -> bool { a.partial_cmp(&b).is_some() }

// lint:allow(D9): no such rule exists.
pub fn ordered(a: f64, b: f64) -> bool { a.partial_cmp(&b).is_some_and(|o| o.is_lt()) }
