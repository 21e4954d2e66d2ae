//! Ad-hoc-thread fixture (G1 source class `thread_spawn`): thread
//! creation outside core::par / serve.

pub fn fan_out() {
    let h = std::thread::spawn(move || 1 + 1);
    let _ = h.join();
}
