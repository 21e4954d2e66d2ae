//! Unseeded-RNG fixture (G1 source class `unseeded_rng`).

pub fn roll() -> f64 {
    let mut rng = rand::thread_rng();
    rand::Rng::gen(&mut rng)
}
