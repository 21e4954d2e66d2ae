//! Wall-clock fixture (G1 source class `wall_clock`): a real-time read
//! in deterministic-path code.

pub fn stamp() -> std::time::Instant {
    std::time::Instant::now()
}
