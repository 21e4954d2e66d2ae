//! Oracle for the reachability primitive under G1–G5 (`reach::reach`):
//! on random call graphs of up to eight fns — built the way every
//! analysis builds them, from source text through the extractor and
//! the resolver — the reached set must equal a brute-force
//! Floyd–Warshall closure, and every rendered chain must be a real
//! call path of minimum length that ends at a seed and avoids the cut.

use proptest::prelude::*;
use specweb_lint::reach::{reach, Dir};
use specweb_lint::{analyze_sources, FileKind};

const INF: usize = usize::MAX / 2;

fn qname(i: usize) -> String {
    format!("a::n{i}")
}

/// `fn n<i>() { n<j>(); … }` for every edge bit `i * 8 + j` of `edges`.
fn source(n: usize, edges: u64) -> String {
    let mut src = String::new();
    for i in 0..n {
        src.push_str(&format!("pub fn n{i}() {{"));
        for j in (0..n).filter(|j| edges >> (i * 8 + j) & 1 == 1) {
            src.push_str(&format!(" n{j}();"));
        }
        src.push_str(" }\n");
    }
    src
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn reach_equals_the_brute_force_closure_with_shortest_chains(
        n in 1usize..=8,
        edges in 0u64..=u64::MAX,
        seed_mask in 0u8..=u8::MAX,
        cut_mask in 0u8..=u8::MAX,
        reverse in 0u8..2,
    ) {
        let dir = if reverse == 1 { Dir::Reverse } else { Dir::Forward };
        let calls = |i: usize, j: usize| i != j && edges >> (i * 8 + j) & 1 == 1;
        let is_cut = |i: usize| cut_mask >> i & 1 == 1;
        let is_seed = |i: usize| seed_mask >> i & 1 == 1 && !is_cut(i);

        let files = [("crates/a/src/lib.rs".to_string(), FileKind::Lib, source(n, edges))];
        let graph = analyze_sources(&files).graph;
        let seeds: Vec<String> = (0..n).filter(|&i| seed_mask >> i & 1 == 1).map(qname).collect();
        let cut_names: Vec<String> = (0..n).filter(|&i| is_cut(i)).map(qname).collect();
        let found = reach(&graph.edges(), dir, &seeds, |q| cut_names.iter().any(|c| c == q));

        // Brute force: all-pairs hop counts along the search direction
        // on the graph without its cut nodes.
        let mut dist = vec![vec![INF; n]; n];
        for i in (0..n).filter(|&i| !is_cut(i)) {
            dist[i][i] = 0;
            for j in (0..n).filter(|&j| !is_cut(j)) {
                let step = if dir == Dir::Forward { calls(i, j) } else { calls(j, i) };
                if step {
                    dist[i][j] = 1;
                }
            }
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    dist[i][j] = dist[i][j].min(dist[i][k] + dist[k][j]);
                }
            }
        }

        let hops_from_a_seed =
            |v: usize| (0..n).filter(|&s| is_seed(s)).map(|s| dist[s][v]).min().unwrap_or(INF);
        for v in 0..n {
            let hops = hops_from_a_seed(v);
            let path = found.path(&qname(v));
            prop_assert_eq!(found.contains(&qname(v)), hops < INF, "n{} reached?", v);
            if hops == INF {
                prop_assert!(path.is_empty(), "unreached n{} has a path {:?}", v, path);
                continue;
            }
            prop_assert_eq!(path.len(), hops + 1, "n{}: {:?} is not a shortest path", v, path);
            let index = |q: &str| (0..n).find(|&i| qname(i) == q);
            let ids: Vec<usize> = path.iter().filter_map(|q| index(q)).collect();
            prop_assert_eq!(ids.len(), path.len(), "unknown hop in {:?}", path);
            // Caller first, whichever way the search ran.
            let (seed_end, at_end) = match dir {
                Dir::Forward => (ids[0], ids[ids.len() - 1]),
                Dir::Reverse => (ids[ids.len() - 1], ids[0]),
            };
            prop_assert!(is_seed(seed_end), "{:?} does not end at a seed", path);
            prop_assert_eq!(at_end, v);
            prop_assert!(ids.iter().all(|&i| !is_cut(i)), "{:?} enters the cut", path);
            for pair in ids.windows(2) {
                prop_assert!(calls(pair[0], pair[1]), "{:?}: no call n{} -> n{}", path, pair[0], pair[1]);
            }
            prop_assert_eq!(found.chain(&qname(v), |hop| hop.to_string()), path.join(" -> "));
        }
    }
}
