//! Suppression fixture: an allow whose covered line no longer trips
//! the named rule must be reported as unused.

// lint:allow(D1): stale — the comparator below was converted to total_cmp.
pub fn rank(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.total_cmp(b));
}
