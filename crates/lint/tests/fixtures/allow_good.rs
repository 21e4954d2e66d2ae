//! Suppression fixture: both placements of a well-formed
//! `lint:allow`, each with a written reason.

pub fn rank(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)); // lint:allow(D1): fixture — trailing marker covers its own line.
}

// lint:allow(D1): fixture — a preceding comment-only marker covers the
// next line that contains code, even across this second comment line.
pub fn comparable(a: f64, b: f64) -> bool { a.partial_cmp(&b).is_some() }
