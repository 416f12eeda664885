//! Seeded workload inputs: the open-loop arrival schedule, request sizes,
//! fresh sample indices and the hot set. Everything derives from the
//! `--seed` argument through [`stream`], so one seed always yields the same
//! inputs; the program under test only ever sees the generated indices.

use std::collections::HashSet;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The generator of one consumer of `seed`: each `id` draws an independent
/// sequence.
pub fn stream(seed: u64, id: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ id.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// Due offsets of `n` open-loop arrivals at mean `rate` per second.
///
/// Gaps are exponential (a Poisson process), then rescaled so the last
/// arrival falls exactly at `n / rate`: every run offers the same mean rate
/// over the same span, and only the burst pattern varies with the seed.
pub fn poisson_schedule(rng: &mut StdRng, rate: f64, n: usize) -> Vec<Duration> {
    let gaps: Vec<f64> = (0..n).map(|_| -(1.0 - rng.gen::<f64>()).ln()).collect();
    let scale = n as f64 / rate / gaps.iter().sum::<f64>();
    let mut at = 0.0;
    gaps.iter()
        .map(|gap| {
            at += gap * scale;
            Duration::from_secs_f64(at)
        })
        .collect()
}

/// Sample counts of `n` requests in `1..=max`: every size equally often
/// (within one), in a seeded order. Latency percentiles sort requests
/// largely by size, so every seed offers the same mix and only the order
/// and the arrival pattern vary.
pub fn request_sizes(rng: &mut StdRng, n: usize, max: usize) -> Vec<usize> {
    let mut sizes: Vec<usize> = (0..n).map(|i| 1 + i % max).collect();
    for i in (1..n).rev() {
        sizes.swap(i, rng.gen_range(0..=i));
    }
    sizes
}

/// Split a run of never-repeating sample indices, starting at a
/// seed-chosen base, into consecutive requests of the given sizes.
///
/// # Panics
///
/// Panics if any index repeats — the fresh workload's defining property.
pub fn fresh_requests(rng: &mut StdRng, sizes: &[usize]) -> Vec<Vec<usize>> {
    // Bases are spaced so that different seeds draw disjoint samples.
    let mut next = fresh_base(rng);
    let requests: Vec<Vec<usize>> = sizes
        .iter()
        .map(|&size| {
            let request = (next..next + size).collect();
            next += size;
            request
        })
        .collect();
    let mut seen = HashSet::new();
    assert!(
        requests.iter().flatten().all(|&sample| seen.insert(sample)),
        "a fresh workload never repeats a sample index"
    );
    requests
}

/// First index of a seed's run of fresh samples: a multiple of 2^20, so
/// runs of up to a million samples from different seeds never overlap.
pub fn fresh_base(rng: &mut StdRng) -> usize {
    rng.gen_range(1..=4096usize) << 20
}

/// `n` distinct sample indices below 2^20.
pub fn hot_set(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut seen = HashSet::new();
    let mut set = Vec::with_capacity(n);
    while set.len() < n {
        let sample = (rng.next_u64() % (1 << 20)) as usize;
        if seen.insert(sample) {
            set.push(sample);
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_poisson_schedule_is_seed_deterministic() {
        let a = poisson_schedule(&mut stream(7, 1), 100.0, 1000);
        let b = poisson_schedule(&mut stream(7, 1), 100.0, 1000);
        let c = poisson_schedule(&mut stream(8, 1), 100.0, 1000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times never go backwards");
        let span = a.last().unwrap().as_secs_f64();
        assert!((span - 10.0).abs() < 1e-6, "n / rate seconds, got {span}");
        // Exponential gaps: the coefficient of variation is near 1.
        let gaps: Vec<f64> = a.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((0.85..1.15).contains(&cv), "cv = {cv}");
    }

    #[test]
    fn request_sizes_are_seed_deterministic_and_balanced() {
        let a = request_sizes(&mut stream(3, 2), 500, 8);
        assert_eq!(a, request_sizes(&mut stream(3, 2), 500, 8));
        assert_ne!(a, request_sizes(&mut stream(4, 2), 500, 8));
        assert_ne!(a, request_sizes(&mut stream(3, 5), 500, 8), "streams are independent");
        for size in 1..=8 {
            let count = a.iter().filter(|&&s| s == size).count();
            assert!((62..=63).contains(&count), "size {size} drawn {count} times");
        }
    }

    #[test]
    fn fresh_requests_never_repeat_and_follow_the_sizes() {
        let sizes = [3, 1, 8, 2];
        let requests = fresh_requests(&mut stream(5, 3), &sizes);
        assert_eq!(requests.iter().map(Vec::len).collect::<Vec<_>>(), sizes);
        let flat: Vec<usize> = requests.concat();
        assert!(flat.windows(2).all(|w| w[1] == w[0] + 1));
        assert_eq!(requests, fresh_requests(&mut stream(5, 3), &sizes));
    }

    #[test]
    fn the_hot_set_is_distinct_and_seeded() {
        let set = hot_set(&mut stream(9, 4), 64);
        assert_eq!(set.len(), 64);
        assert_eq!(set.iter().collect::<HashSet<_>>().len(), 64);
        assert_eq!(set, hot_set(&mut stream(9, 4), 64));
    }
}
