//! Seeded input generators. The workload seed picks the delay
//! annotation, the delta sequences, the request mix and the small
//! circuit pool; the program under test only ever sees the generated
//! `.bench` text, deltas and JSON bodies.

use pep_netlist::generate::{random_circuit, RandomCircuitSpec};

/// SplitMix64: a tiny, fully specified generator, so inputs depend on
/// the seed alone and not on any library's stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one input stream of one workload seed; distinct
    /// `stream` tags give independent sequences.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

const STREAM_POOL: u64 = 1;
const STREAM_SESSIONS: u64 = 2;
const STREAM_MIX: u64 = 4;
const STREAM_SAMPLES: u64 = 5;

/// One small circuit of the serve pool.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolCircuit {
    /// Circuit name.
    pub name: String,
    /// `.bench` source text.
    pub bench: String,
    /// Delay-annotation seed sent with the request.
    pub seed: u64,
}

/// `count` small circuits, each with its own annotation seed. Sizes
/// step evenly from 20 to 80 gates so every pool has the same size mix;
/// the seed picks the structure and the delays.
pub fn small_circuit_pool(seed: u64, count: usize) -> Vec<PoolCircuit> {
    let mut rng = Rng::new(seed, STREAM_POOL);
    (0..count)
        .map(|i| {
            let spec = RandomCircuitSpec {
                name: format!("pool{i}"),
                inputs: 5 + i % 8,
                gates: 20 + 60 * i / count.saturating_sub(1).max(1),
                depth: 4 + i % 7,
                seed: rng.next_u64(),
                ..RandomCircuitSpec::default()
            };
            PoolCircuit {
                name: spec.name.clone(),
                bench: pep_netlist::to_bench(&random_circuit(&spec)),
                seed: 1 + rng.next_u64() % 1000,
            }
        })
        .collect()
}

/// One what-if change, by index into the base circuit's gate or input
/// list.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaSpec {
    /// Scale a gate's cell delay (a sizing move).
    Scale {
        /// Gate index.
        gate: usize,
        /// Positive factor.
        factor: f64,
    },
    /// Rebind a gate to a normal delay.
    Rebind {
        /// Gate index.
        gate: usize,
        /// Mean delay.
        mean: f64,
        /// Standard deviation.
        sigma: f64,
    },
    /// Move a primary input's arrival to a point mass at `ticks`.
    Arrival {
        /// Primary-input index.
        input: usize,
        /// Arrival tick.
        ticks: i64,
    },
}

/// Candidates `psta size` probes per round (its `--candidates`
/// default), and so the number of gate strata: each round probes one
/// gate of every stratum, so every round has the same mix of
/// dirty-cone sizes.
pub const STRATA: usize = 8;

/// The trial scale `psta size` probes with (its `--factor` default).
pub const FACTOR: f64 = 0.8;

/// Rounds `psta size` takes on s38584 to reach its default 0.95 yield
/// target (annotation seeds 1, 2 and 3 all take 3 rounds, 51 deltas).
pub const SHORT_ROUNDS: usize = 3;

/// Rounds `psta size --target-yield 0.98` takes on s38584 (seed 1: 13
/// rounds, 221 deltas): a session long enough to cross the engine's
/// 64-plane compaction.
pub const LONG_ROUNDS: usize = 13;

/// One session in this many runs to the 0.98 target (the third, and
/// every eighth after it). `psta size` gives no such ratio; the
/// spacing is an assumption that puts one long session in every run.
pub const LONG_EVERY: usize = 8;

/// Deltas per sizing round: a probe and its inverse-scale undo for each
/// candidate, then the commit.
pub const ROUND_DELTAS: usize = 2 * STRATA + 1;

/// What the delta generator draws from.
pub struct DeltaSpace<'a> {
    /// Base mean cell delay of each gate.
    pub gate_means: &'a [f64],
    /// Gate indices in [`STRATA`] groups of equal size, by ascending
    /// static fanout-cone size (see [`strata`]).
    pub strata: &'a [Vec<usize>],
    /// Primary-input count.
    pub inputs: usize,
}

/// Splits gate indices into [`STRATA`] equal groups by ascending
/// `cone_sizes` (ties broken by index) and keeps the middle fifth of
/// each. A whole group spans a wide range of cone sizes (the last one
/// holds every large cone); its middle fifth is narrow, so the cost of
/// a round hardly depends on which gates the seed draws.
pub fn strata(cone_sizes: &[usize]) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..cone_sizes.len()).collect();
    order.sort_by_key(|&g| (cone_sizes[g], g));
    let per = order.len().div_ceil(STRATA).max(1);
    order
        .chunks(per)
        .map(|c| {
            let lo = c.len() * 2 / 5;
            c[lo..(c.len() * 3 / 5).max(lo + 1)].to_vec()
        })
        .collect()
}

/// One round of a sizing session, shaped like a `psta size` round: one
/// probed gate per stratum, in stratum order. The commit is the probe
/// of the first stratum: `psta size` commits its best candidate, and
/// its candidates, the latest-arrival gates, have small cones.
#[derive(Debug, Clone, PartialEq)]
pub struct Round {
    /// The probed gates.
    pub probes: Vec<usize>,
}

impl Round {
    /// The committed gate.
    pub fn commit(&self) -> usize {
        self.probes[0]
    }
}

/// One sizing session: `psta size`'s round structure on seeded gates.
///
/// `psta size` probes the gates with the latest mean arrival; on
/// s38584 their cones are tiny (8 dirty nodes over a whole default
/// session). The benchmark draws one gate per stratum of static
/// fanout-cone size instead, so every cone size is exercised.
#[derive(Debug, Clone, PartialEq)]
pub struct Session {
    /// Opening input-arrival what-if: `(input index, arrival tick)`.
    pub arrival: (usize, i64),
    /// The sizing rounds.
    pub rounds: Vec<Round>,
}

impl Session {
    /// The commit of `gate`: a rebind to a normal cell at [`FACTOR`] of
    /// the base mean (`psta size` commits the same speed-up as a scale).
    pub fn commit_delta(space: &DeltaSpace, gate: usize) -> DeltaSpec {
        let mean = space.gate_means[gate] * FACTOR;
        DeltaSpec::Rebind {
            gate,
            mean,
            sigma: mean * 0.1,
        }
    }

    /// The session as one engine chain: the arrival, then per round a
    /// probe and its inverse-scale undo per candidate, then the commit.
    pub fn chain(&self, space: &DeltaSpace) -> Vec<DeltaSpec> {
        let (input, ticks) = self.arrival;
        let mut out = vec![DeltaSpec::Arrival { input, ticks }];
        for r in &self.rounds {
            for &gate in &r.probes {
                out.push(DeltaSpec::Scale {
                    gate,
                    factor: FACTOR,
                });
                out.push(DeltaSpec::Scale {
                    gate,
                    factor: 1.0 / FACTOR,
                });
            }
            out.push(Session::commit_delta(space, r.commit()));
        }
        out
    }

    /// The session as HTTP delta queries. The service reverts after
    /// every query, so a probe needs no undo: it carries the committed
    /// overrides plus its trial scale, and the commit query carries the
    /// committed overrides plus the new commit.
    pub fn queries(&self, space: &DeltaSpace) -> Vec<Vec<DeltaSpec>> {
        let mut committed: Vec<DeltaSpec> = Vec::new();
        let mut out = Vec::new();
        for r in &self.rounds {
            for &gate in &r.probes {
                let mut q = committed.clone();
                q.push(DeltaSpec::Scale {
                    gate,
                    factor: FACTOR,
                });
                out.push(q);
            }
            committed.push(Session::commit_delta(space, r.commit()));
            out.push(committed.clone());
        }
        out
    }
}

/// `count` seeded sizing sessions of [`SHORT_ROUNDS`] rounds; with
/// `long`, every [`LONG_EVERY`]-th (from the third) has [`LONG_ROUNDS`].
pub fn sizing_sessions(seed: u64, space: &DeltaSpace, count: usize, long: bool) -> Vec<Session> {
    let mut rng = Rng::new(seed, STREAM_SESSIONS);
    (0..count)
        .map(|i| {
            let arrival = (rng.range(0, space.inputs - 1), rng.range(1, 30) as i64);
            let rounds = if long && i % LONG_EVERY == 2 {
                LONG_ROUNDS
            } else {
                SHORT_ROUNDS
            };
            let rounds = (0..rounds)
                .map(|_| Round {
                    probes: space
                        .strata
                        .iter()
                        .map(|s| s[rng.range(0, s.len() - 1)])
                        .collect(),
                })
                .collect();
            Session { arrival, rounds }
        })
        .collect()
}

/// Operation classes: a probe or undo in stratum `k` is class `k`, a
/// commit is [`COMMIT`], and the session's arrival (engine) or a pool
/// analysis (service) is [`OTHER`]. Times are pooled per class (see
/// `stats::rescale_groups`).
pub const CLASSES: usize = STRATA + 2;

/// The commit class.
pub const COMMIT: usize = STRATA;

/// The arrival / analysis class.
pub const OTHER: usize = STRATA + 1;

/// The class of delta `pos` of a [`Session::chain`].
pub fn chain_class(pos: usize) -> usize {
    match pos {
        0 => OTHER,
        _ if (pos - 1) % ROUND_DELTAS == 2 * STRATA => COMMIT,
        _ => (pos - 1) % ROUND_DELTAS / 2,
    }
}

/// One request of the serve mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    /// Cold analysis of pool circuit `i`.
    Analyze(usize),
    /// The `i`-th delta query of the sizing sessions.
    Delta(usize),
}

impl Req {
    /// The request's class: a delta query's position in its round, or
    /// [`OTHER`] for an analysis.
    pub fn class(self) -> usize {
        match self {
            Req::Delta(i) => i % (STRATA + 1),
            Req::Analyze(_) => OTHER,
        }
    }
}

/// The serve request sequence for `rounds` sizing rounds: each round's
/// [`STRATA`] + 1 delta queries, then one analysis of a pool circuit.
/// `psta size` sends no small-circuit traffic; one analysis per round
/// is an assumption, made so a run makes a few dozen cache lookups.
pub fn serve_mix(seed: u64, rounds: usize, pool: usize) -> Vec<Req> {
    let mut rng = Rng::new(seed, STREAM_MIX);
    let mut out = Vec::with_capacity(rounds * (STRATA + 2));
    for r in 0..rounds {
        out.extend((0..=STRATA).map(|k| Req::Delta(r * (STRATA + 1) + k)));
        out.push(Req::Analyze(rng.range(0, pool - 1)));
    }
    out
}

/// `count` distinct sample positions in `0..n` (sorted), for the
/// correctness spot checks.
pub fn sample_positions(seed: u64, n: usize, count: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, STREAM_SAMPLES);
    let mut out: Vec<usize> = Vec::new();
    while out.len() < count.min(n) {
        let p = rng.range(0, n - 1);
        if !out.contains(&p) {
            out.push(p);
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space<'a>(means: &'a [f64], strata: &'a [Vec<usize>]) -> DeltaSpace<'a> {
        DeltaSpace {
            gate_means: means,
            strata,
            inputs: 7,
        }
    }

    fn fixture() -> (Vec<f64>, Vec<Vec<usize>>) {
        let means: Vec<f64> = (0..48).map(|i| 1.0 + i as f64).collect();
        let sizes: Vec<usize> = (0..48).map(|i| (i * 37) % 48).collect();
        (means, strata(&sizes))
    }

    #[test]
    fn strata_split_by_cone_size() {
        let sizes = [5, 1, 9, 3, 7, 2, 8, 4, 6, 0, 10, 11, 12, 13, 14, 15];
        let s = strata(&sizes);
        assert_eq!(s.len(), STRATA);
        assert_eq!(s[0], vec![9]);
        assert_eq!(s[STRATA - 1], vec![14]);
        let wide: Vec<usize> = (0..80).collect();
        let s = strata(&wide);
        assert_eq!(s[0], vec![4, 5]);
        assert_eq!(s[STRATA - 1], vec![74, 75]);
    }

    #[test]
    fn sessions_follow_the_psta_size_round() {
        let (means, st) = fixture();
        let sp = space(&means, &st);
        for session in sizing_sessions(1, &sp, 12, true) {
            for r in &session.rounds {
                for (k, g) in r.probes.iter().enumerate() {
                    assert!(st[k].contains(g), "probe {k} outside its stratum");
                }
            }
            let chain = session.chain(&sp);
            assert_eq!(chain.len(), 1 + session.rounds.len() * ROUND_DELTAS);
            for (pos, d) in chain.iter().enumerate() {
                let class = chain_class(pos);
                match d {
                    DeltaSpec::Arrival { .. } => assert_eq!(class, OTHER),
                    DeltaSpec::Rebind { gate, .. } => {
                        assert_eq!(class, COMMIT);
                        assert!(st[0].contains(gate));
                    }
                    DeltaSpec::Scale { gate, .. } => assert!(st[class].contains(gate)),
                }
            }
            assert!(matches!(chain[0], DeltaSpec::Arrival { .. }));
            // Each probe is undone by its inverse scale.
            assert_eq!(
                chain[1],
                DeltaSpec::Scale {
                    gate: session.rounds[0].probes[0],
                    factor: FACTOR
                }
            );
            assert_eq!(
                chain[2],
                DeltaSpec::Scale {
                    gate: session.rounds[0].probes[0],
                    factor: 1.0 / FACTOR
                }
            );
            let queries = session.queries(&sp);
            assert_eq!(queries.len(), session.rounds.len() * (STRATA + 1));
            // Round r's queries carry the r committed overrides before it.
            for (i, q) in queries.iter().enumerate() {
                assert_eq!(q.len(), i / (STRATA + 1) + 1, "query {i}");
            }
        }
    }

    #[test]
    fn one_session_in_eight_is_long() {
        let (means, st) = fixture();
        let sessions = sizing_sessions(3, &space(&means, &st), 24, true);
        let long: Vec<usize> = (0..24)
            .filter(|&i| sessions[i].rounds.len() == LONG_ROUNDS)
            .collect();
        assert_eq!(long, vec![2, 10, 18]);
        const {
            assert!(
                1 + LONG_ROUNDS * ROUND_DELTAS > 64,
                "long sessions cross the compaction"
            )
        };
        let short = sizing_sessions(3, &space(&means, &st), 24, false);
        assert!(short.iter().all(|s| s.rounds.len() == SHORT_ROUNDS));
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let (means, st) = fixture();
        assert_eq!(small_circuit_pool(7, 4), small_circuit_pool(7, 4));
        assert_eq!(
            sizing_sessions(7, &space(&means, &st), 20, true),
            sizing_sessions(7, &space(&means, &st), 20, true)
        );
        assert_eq!(serve_mix(7, 10, 24), serve_mix(7, 10, 24));
        assert_eq!(sample_positions(7, 50, 3), sample_positions(7, 50, 3));
    }

    #[test]
    fn generators_differ_across_seeds() {
        let (means, st) = fixture();
        assert_ne!(small_circuit_pool(7, 4), small_circuit_pool(8, 4));
        assert_ne!(
            sizing_sessions(7, &space(&means, &st), 20, true),
            sizing_sessions(8, &space(&means, &st), 20, true)
        );
        assert_ne!(serve_mix(7, 10, 24), serve_mix(8, 10, 24));
        assert_ne!(sample_positions(7, 50, 3), sample_positions(8, 50, 3));
    }

    #[test]
    fn pool_circuits_parse_and_are_small() {
        for c in small_circuit_pool(11, 6) {
            let nl = pep_netlist::parse_bench(&c.name, &c.bench).expect("generated text parses");
            assert!((20..=80).contains(&nl.gate_count()), "{}", nl.gate_count());
        }
    }

    #[test]
    fn mix_sends_one_analysis_per_sizing_round() {
        let mix = serve_mix(5, 4, 24);
        assert_eq!(mix.len(), 4 * (STRATA + 2));
        for (r, round) in mix.chunks(STRATA + 2).enumerate() {
            assert!(matches!(round[STRATA + 1], Req::Analyze(_)));
            for (k, q) in round.iter().enumerate() {
                assert_eq!(q.class(), k);
            }
            for (k, q) in round[..=STRATA].iter().enumerate() {
                assert_eq!(*q, Req::Delta(r * (STRATA + 1) + k));
            }
        }
    }
}
