//! Threads racing on overlapping probe indices of one `CompiledPair` fill
//! its early-stop memo once per probe.
//!
//! The check reads the process-wide `cache.probe.compiled` counter, so it
//! lives in a test binary of its own: no other test compiles probes while
//! it runs.

use std::sync::Barrier;

use dioph_containment::{CompiledPair, EarlyStop};
use dioph_cq::{paper_examples, parse_query};
use dioph_obs::registry::CACHE_PROBE_COMPILED;

const THREADS: usize = 4;

#[test]
fn racing_threads_compile_each_memoised_probe_once() {
    let pairs = [
        // Some probes of the paper's running example have a dominating
        // mapping and some keep their compiled MPI.
        (paper_examples::section3_query_q1(), paper_examples::section3_query_q2()),
        // A repeated head variable: most raw indices are not probes.
        (
            parse_query("q(x, x, y) <- R(x, y), S(y, 'c')").unwrap(),
            parse_query("p(x, z, y) <- R(x, y), R(z, y), S(y, w)").unwrap(),
        ),
    ];
    // Compiled, dominated and non-probe indices, over both pairs.
    let (mut kept, mut dominated, mut non_probes) = (0, 0, 0);
    for (containee, containing) in pairs {
        let pair = CompiledPair::new(containee, containing).unwrap();
        let n = pair.probe_space().raw_len();
        let before = CACHE_PROBE_COMPILED.get();
        let barrier = Barrier::new(THREADS);
        // Each thread records, per raw index, where the memo's compiled
        // probe lives (0 for a dominated probe or a non-probe).
        let seen: Vec<Vec<usize>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|worker| {
                    let (pair, barrier) = (&pair, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        let mut seen = vec![0; n];
                        // Overlapping strides: every thread touches every index.
                        for i in 0..n {
                            let index = (i + worker) % n;
                            if let Some(EarlyStop::Compiled(probe)) = pair.probe_rung(index) {
                                seen[index] = std::ptr::from_ref(probe) as usize;
                            }
                        }
                        seen
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let compiled = CACHE_PROBE_COMPILED.get() - before;

        let probes = (0..n).filter(|&i| pair.probe_rung(i).is_some()).count();
        assert_eq!(compiled, probes as u64, "each probe is compiled exactly once");
        assert!(seen.iter().all(|s| *s == seen[0]), "every thread sees the same compilations");
        kept += seen[0].iter().filter(|&&at| at != 0).count();
        dominated +=
            (0..n).filter(|&i| matches!(pair.probe_rung(i), Some(EarlyStop::Dominated))).count();
        non_probes += n - probes;
    }
    assert!(kept > 0 && dominated > 0 && non_probes > 0, "{kept} {dominated} {non_probes}");
}
