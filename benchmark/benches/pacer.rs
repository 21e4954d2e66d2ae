//! Open-loop pacing: requests are due on a schedule fixed before the
//! first one is sent, whatever the server does, and each is timed from
//! the instant it was *due*, so a stall charges its wait to every
//! request it delayed.

use std::time::{Duration, Instant};

use specweb_core::rng::splitmix64;

/// Offsets from the start of a window at which `n` requests are due:
/// Poisson arrivals at `per_second`, drawn from `seed`.
///
/// Users arrive independently, and a fixed period would not do: the
/// reactor parks for 500 µs when idle, 500 requests a second are due
/// every 2 000 µs, and the two lock phase — every request of a window
/// then finds the reactor at the same point of its park, and the mean
/// wait of a window lands anywhere between 60 and 550 µs.
pub fn poisson_offsets(n: usize, per_second: f64, seed: u64) -> Vec<Duration> {
    let mut state = seed;
    let mut at = 0.0f64;
    (0..n)
        .map(|_| {
            state = splitmix64(state);
            // Uniform in (0, 1]: the top 53 bits, never 0.
            let u = ((state >> 11) + 1) as f64 / (1u64 << 53) as f64;
            at += -u.ln() / per_second;
            Duration::from_secs_f64(at)
        })
        .collect()
}

/// Releases the requests of one window as they come due.
#[derive(Debug)]
pub struct Pacer {
    start: Instant,
    offsets: Vec<Duration>,
    next: usize,
    lags_us: Vec<f64>,
}

impl Pacer {
    /// `offsets` must be ascending.
    pub fn new(start: Instant, offsets: Vec<Duration>) -> Pacer {
        Pacer {
            start,
            offsets,
            next: 0,
            lags_us: Vec::new(),
        }
    }

    /// When the next request to release is due; `None` once all are out.
    pub fn next_due(&self) -> Option<Instant> {
        self.offsets.get(self.next).map(|&d| self.start + d)
    }

    /// Releases the next request if it is due at `now`, returning its
    /// index and due instant and accounting how late the generator ran.
    /// After a stall, successive calls release every request that came
    /// due meanwhile, each with its own due instant: a late generator
    /// never shifts the requests after it.
    pub fn release(&mut self, now: Instant) -> Option<(usize, Instant)> {
        let due = self.next_due().filter(|&due| due <= now)?;
        self.lags_us
            .push(now.duration_since(due).as_nanos() as f64 / 1e3);
        self.next += 1;
        Some((self.next - 1, due))
    }

    /// How late each released request was sent, in microseconds.
    pub fn lags_us(&self) -> &[f64] {
        &self.lags_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_2ms(n: u64) -> Vec<Duration> {
        (0..n).map(|i| Duration::from_millis(2 * i)).collect()
    }

    #[test]
    fn poisson_schedule_is_seeded_ascending_and_at_rate() {
        let a = poisson_offsets(20_000, 500.0, 7);
        assert_eq!(a, poisson_offsets(20_000, 500.0, 7));
        assert_ne!(a, poisson_offsets(20_000, 500.0, 8));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // 20 000 arrivals at 500/s take 40 s, give or take 1 %.
        let total = a.last().unwrap().as_secs_f64();
        assert!((39.0..41.0).contains(&total), "{total}");
    }

    #[test]
    fn nothing_is_released_early() {
        let start = Instant::now();
        let mut p = Pacer::new(start, every_2ms(2));
        assert_eq!(p.release(start), Some((0, start)));
        assert_eq!(p.release(start + Duration::from_micros(1_999)), None);
        assert_eq!(p.lags_us(), &[0.0]);
    }

    #[test]
    fn a_stall_releases_the_backlog_with_original_due_times_and_lag() {
        let start = Instant::now();
        let mut p = Pacer::new(start, every_2ms(4));
        // The generator wakes 5 ms late: requests 0, 1 and 2 are due.
        let now = start + Duration::from_millis(5);
        let released: Vec<(usize, Instant)> = std::iter::from_fn(|| p.release(now)).collect();
        assert_eq!(
            released,
            vec![
                (0, start),
                (1, start + Duration::from_millis(2)),
                (2, start + Duration::from_millis(4)),
            ]
        );
        assert_eq!(p.lags_us(), &[5_000.0, 3_000.0, 1_000.0]);
        // The schedule after the stall is where it always was.
        assert_eq!(p.next_due(), Some(start + Duration::from_millis(6)));
        let late = start + Duration::from_secs(1);
        assert_eq!(p.release(late), Some((3, start + Duration::from_millis(6))));
        assert_eq!((p.release(late), p.next_due()), (None, None));
    }
}
