//! The two workloads and the seeded splitmix64 stream every input is
//! drawn from.

/// Fixed per-workload constants. Nothing here is derived from a run.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub confidential: bool,
    /// Open-loop offered rate of the rate phase (tx/s, both connections).
    pub rate_tps: f64,
    /// Saturation-phase work per second of phase: the pool holds this
    /// many requests per second, about what the seed commits, so the
    /// phase lasts its share of `--seconds` on the seed and less on a
    /// faster version.
    pub sat_tps: f64,
    /// Closed-loop in-flight window over both connections: two full
    /// blocks of the server's default `max_batch` (256), so the next block
    /// is queued while one executes.
    pub window: usize,
    /// Boots at each end of a run; `setup_s` is the median of all.
    pub setup_reps: usize,
    /// Public accounts written by `run_genesis` before serving.
    pub preload: usize,
    /// Sender identities (split evenly across the two connections).
    pub senders: usize,
    /// Confidential recipients (`conf_*`); public recipients are the
    /// preloaded accounts.
    pub recipients: usize,
}

impl Spec {
    pub fn parse(name: &str) -> Option<Spec> {
        let base = Spec {
            name: "conf_fresh",
            confidential: true,
            rate_tps: 500.0,
            sat_tps: 1600.0,
            window: 512,
            setup_reps: 100,
            preload: 0,
            senders: 64,
            recipients: 1024,
        };
        match name {
            "conf_fresh" => Some(base),
            "pub_100k" => Some(Spec {
                name: "pub_100k",
                confidential: false,
                rate_tps: 180.0,
                sat_tps: 750.0,
                setup_reps: 5,
                preload: 100_000,
                ..base
            }),
            _ => None,
        }
    }
}

/// splitmix64: a tiny seeded stream, independent per `(seed, stream)`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd134_2543_de82_ef95));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn bytes32(&mut self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for chunk in out.chunks_mut(8) {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        out
    }
}
