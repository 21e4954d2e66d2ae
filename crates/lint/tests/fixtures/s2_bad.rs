//! Panic fixture (G3): panicking extractors, a violation only where a
//! simulator hot loop reaches them.

pub fn first(xs: &[u32]) -> u32 {
    *xs.first().unwrap()
}

pub fn second(xs: &[u32]) -> u32 {
    *xs.get(1).expect("needs two elements")
}
