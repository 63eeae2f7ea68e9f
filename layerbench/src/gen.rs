//! Seeded pair generators for the three workloads.
//!
//! Every generator is a pure function of its seed: the same seed yields the
//! same datalog text byte for byte. The program under test only ever sees
//! that text; what the harness knows about each pair's verdict in advance
//! travels beside it as an [`Expect`].

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use dioph_workloads::threecol::three_colorability_instance;
use dioph_workloads::{generate_pairs, Graph, WorkloadKind};

/// What the harness knows about a pair's verdict before deciding it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Contained by construction.
    Contained,
    /// A Theorem 5.4 instance: contained iff the graph is 3-colourable, as
    /// `Graph::is_three_colorable` decides it.
    ThreeColorable(bool),
    /// Either verdict; a not-contained one must carry a verifying witness.
    Either,
}

impl Expect {
    /// Whether a verdict with the given containment answer is admissible.
    pub fn admits(self, contained: bool) -> bool {
        match self {
            Expect::Contained => contained,
            Expect::ThreeColorable(colorable) => contained == colorable,
            Expect::Either => true,
        }
    }
}

/// One generated (containee, containing) pair.
#[derive(Clone, Debug)]
pub struct Pair {
    /// Two `.`-terminated queries in the datalog notation.
    pub source: String,
    /// The verdict the harness will accept.
    pub expect: Expect,
}

/// The clique-pendant family: `n` vertices, `D(n)` containment mappings.
pub const CLIQUE_VERTICES: usize = 6;
/// Ground unary atoms of the star containee.
pub const STAR_CONSTANTS: usize = 5;
/// Existential rays of the star containing query (`5^3 = 125` mappings).
pub const STAR_RAYS: usize = 3;
/// Binary atoms of a probe-stream giant (`5^5 = 3,125` probe units).
pub const GIANT_PATH_LENGTH: usize = 4;
/// The probe-stream repeats a fixed layout of this many jobs.
pub const STREAM_BLOCK: usize = 10;
/// Block positions holding a giant: one job in five.
pub const GIANT_POSITIONS: [usize; 2] = [4, 9];
/// Step between the multiplicity codes of consecutive giants. It is odd,
/// so the codes run through all 256 before one repeats, and it changes
/// every base-4 digit, so any run of consecutive giants, such as the few
/// dozen the warm pass visits, spreads over the whole multiplicity range
/// rather than a seed-chosen corner of it.
pub const GIANT_CODE_STRIDE: usize = 97;
/// Block positions replaying the small job two positions earlier.
pub const REPLAY_POSITIONS: [usize; 1] = [7];

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

fn atom(relation: &str, multiplicity: u64, args: &[&str]) -> String {
    let power = if multiplicity == 1 { String::new() } else { format!("^{multiplicity}") };
    format!("{relation}{power}({})", args.join(", "))
}

fn query(name: &str, head: &[String], body: &[String]) -> String {
    format!("{name}({}) <- {}.\n", head.join(", "), body.join(", "))
}

/// Clique self-containment with pendants. The containee holds `E(xi,xj)`
/// and `P(xi,xj)` for all `i != j` with multiplicities 1–3; the containing
/// query repeats that body and adds `E(yi,yj)` for `i != j` plus
/// `P(xi,yi)`. A containment mapping sends the `y`s to a derangement of the
/// `x`s, so there are `D(n)` of them, and every polynomial term is the
/// containee's monomial times extra factors: contained by construction.
/// Vertex labels and atom order are shuffled per pair.
pub fn clique_pendant(id: usize, rng: &mut StdRng) -> Pair {
    let n = CLIQUE_VERTICES;
    let mut label: Vec<usize> = (0..n).collect();
    shuffle(&mut label, rng);
    let x = |i: usize| format!("x{}", label[i]);
    let y = |i: usize| format!("y{}", label[i]);
    let mut containee = Vec::new();
    for i in 0..n {
        for j in (0..n).filter(|&j| j != i) {
            for relation in ["E", "P"] {
                containee.push(atom(relation, rng.random_range(1..=3), &[&x(i), &x(j)]));
            }
        }
    }
    let mut containing = containee.clone();
    for i in 0..n {
        for j in (0..n).filter(|&j| j != i) {
            containing.push(atom("E", 1, &[&y(i), &y(j)]));
        }
        containing.push(atom("P", 1, &[&x(i), &y(i)]));
    }
    shuffle(&mut containee, rng);
    shuffle(&mut containing, rng);
    let head: Vec<String> = (0..n).map(|v| format!("x{v}")).collect();
    Pair {
        source: query(&format!("k{id}a"), &head, &containee)
            + &query(&format!("k{id}b"), &head, &containing),
        expect: Expect::Contained,
    }
}

/// Boolean unary stars: `q() <- A^{m_i}('c_i')` for `i < 5` against
/// `q() <- A^{a_j}(z_j)` for `j < 3`, multiplicities 1–4. Each pair has
/// `5^3 = 125` containment mappings onto a 5-unknown MPI, so the LP does
/// nearly all the work; most pairs are not contained. The ray
/// multiplicities are distinct, so all 125 mapping monomials differ and
/// every LP has the same 125 rows (repeated multiplicities would collapse
/// rows and split LP cost into clusters); pair `id` takes the `id % 24`-th
/// of their 24 arrangements, so every run sees the same mix, and only the
/// containee multiplicities are drawn from the seed.
pub fn unary_star(id: usize, rng: &mut StdRng) -> Pair {
    let containee: Vec<String> = (0..STAR_CONSTANTS)
        .map(|i| atom("A", rng.random_range(1..=4), &[&format!("'c{i}'")]))
        .collect();
    let mut rays: Vec<u64> = (1..=4).collect();
    rays.remove(id % 4);
    rays.rotate_left(id / 4 % 3);
    if id / 12 % 2 == 1 {
        rays.swap(0, 1);
    }
    let containing: Vec<String> =
        (0..STAR_RAYS).map(|j| atom("A", rays[j], &[&format!("z{j}")])).collect();
    Pair {
        source: query(&format!("s{id}a"), &[], &containee)
            + &query(&format!("s{id}b"), &[], &containing),
        expect: Expect::Either,
    }
}

/// A path-4 self-containment giant with per-atom multiplicities 1–4 taken
/// from the base-4 digits of `code`, so 256 consecutive codes are 256
/// distinct pairs. An inflated giant bumps one containee multiplicity: it is
/// not contained, and its very first probe unit (the all-equal tuple)
/// already violates, which exercises the scheduler's cutoff.
pub fn path_giant(id: usize, code: usize, inflated: bool, rng: &mut StdRng) -> Pair {
    let x = |i: usize| format!("x{i}");
    let mults: Vec<u64> =
        (0..GIANT_PATH_LENGTH).map(|p| ((code >> (2 * p)) % 4) as u64 + 1).collect();
    let containing: Vec<String> =
        (0..GIANT_PATH_LENGTH).map(|i| atom("R", mults[i], &[&x(i), &x(i + 1)])).collect();
    let mut containee = containing.clone();
    if inflated {
        let bump = rng.random_range(0..GIANT_PATH_LENGTH);
        containee[bump] = atom("R", mults[bump] + 1, &[&x(bump), &x(bump + 1)]);
    }
    let head: Vec<String> = (0..=GIANT_PATH_LENGTH).map(x).collect();
    Pair {
        source: query(&format!("g{id}a"), &head, &containee)
            + &query(&format!("g{id}b"), &head, &containing),
        expect: if inflated { Expect::Either } else { Expect::Contained },
    }
}

/// A small pair from the `dioph_workloads` suite generators: spec, inflated,
/// contained, chain, star or threecol for `family` 0 to 5.
pub fn small_pair(id: usize, family: usize, rng: &mut StdRng) -> Pair {
    let (kind, expect) = match family % 6 {
        0 => (WorkloadKind::Specialization { atoms: 4 }, Expect::Contained),
        1 => (WorkloadKind::Inflated { atoms: 4 }, Expect::Either),
        2 => (WorkloadKind::Contained { atoms: 4 }, Expect::Contained),
        3 => (WorkloadKind::Chain { length: 3 }, Expect::Contained),
        4 => (WorkloadKind::Star { rays: 3 }, Expect::Contained),
        _ => {
            // Built here rather than through `generate_pairs`, which does not
            // hand back the graph the verdict must agree with.
            let graph = Graph::random(5, 0.5, rng);
            let (containee, containing) = three_colorability_instance(&graph);
            return Pair {
                source: format!(
                    "{}.\n{}.\n",
                    containee.with_name(format!("t{id}a")),
                    containing.with_name(format!("t{id}b"))
                ),
                expect: Expect::ThreeColorable(graph.is_three_colorable()),
            };
        }
    };
    let pair = generate_pairs(kind, 1, rng.next_u64()).remove(0);
    Pair {
        source: format!(
            "{}.\n{}.\n",
            pair.containee.with_name(format!("j{id}a")),
            pair.containing.with_name(format!("j{id}b"))
        ),
        expect,
    }
}

/// The probe-stream job sequence, in blocks of [`STREAM_BLOCK`] jobs: two
/// path-4 giants (every third giant inflated), one exact replay of the job
/// two positions earlier, which hits the engine's compile cache, and seven
/// fresh small pairs cycling through the six suite families. The layout is
/// fixed, so every run carries the same shares of giants, replays and
/// families; the seed draws the pairs themselves.
///
/// A contained giant holds up itself and the four jobs the feeder admits
/// behind it until in-order emission releases them. With one giant in ten
/// jobs that was half of all jobs, and the median latency sat on the cliff
/// between them and the small pairs running free, moving 30–80% between
/// runs; with giants rarer it sat among the small pairs, whose latency is
/// mostly thread hand-offs and doubled when the host was busy. One giant in
/// five holds up about two jobs in three, and the median falls inside the
/// narrow band of jobs waiting on a giant's probe work.
pub fn probe_stream(count: usize, seed: u64) -> Vec<Pair> {
    let mut rng = StdRng::seed_from_u64(seed);
    let code_offset = rng.random_range(0..256usize);
    let (mut giants, mut smalls) = (0usize, 0usize);
    let mut jobs: Vec<Pair> = Vec::with_capacity(count);
    for k in 0..count {
        let position = k % STREAM_BLOCK;
        let job = if GIANT_POSITIONS.contains(&position) {
            giants += 1;
            path_giant(
                k,
                (code_offset + GIANT_CODE_STRIDE * giants) % 256,
                giants % 3 == 0,
                &mut rng,
            )
        } else if REPLAY_POSITIONS.contains(&position) {
            jobs[k - 2].clone()
        } else {
            smalls += 1;
            small_pair(k, smalls, &mut rng)
        };
        jobs.push(job);
    }
    jobs
}

/// `count` pairs of one family from one seeded stream.
pub fn family(count: usize, seed: u64, make: fn(usize, &mut StdRng) -> Pair) -> Vec<Pair> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|id| make(id, &mut rng)).collect()
}
