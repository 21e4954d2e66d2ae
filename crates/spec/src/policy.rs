//! Speculation policies (§3.2, §3.4).
//!
//! When a request for `D_i` arrives, the policy decides which documents
//! to **push** along with `D_i` and which to merely **hint** (URLs
//! attached for client-side prefetching — §3.4's "server-assisted
//! prefetching"). The baseline policy is a simple threshold on the
//! closure, `p*[i,j] ≥ T_p`, subject to the `MaxSize` cap ("a document
//! is never speculatively serviced if its size is greater than
//! MaxSize").

use serde::{Deserialize, Serialize};
use specweb_core::ids::DocId;
use specweb_core::units::Bytes;
use specweb_core::{CoreError, Result};
use specweb_trace::document::Catalog;

use crate::deps::DepMatrix;

/// A speculation policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Policy {
    /// Push every `j` with `p*[i,j] ≥ tp` — the paper's baseline.
    Threshold {
        /// The threshold probability `T_p ∈ (0, 1]`.
        tp: f64,
    },
    /// Like `Threshold` but on the direct matrix `P` (ablation: how much
    /// does the closure actually buy?).
    DirectThreshold {
        /// The threshold probability.
        tp: f64,
    },
    /// Push only the `k` most probable candidates above a floor.
    TopK {
        /// Maximum candidates to push.
        k: usize,
        /// Minimum probability to consider.
        floor: f64,
    },
    /// Push only (near-)certain dependencies — embedded documents
    /// (`p* ≈ 1`). The paper's observation: this costs *no* extra
    /// bandwidth but saves little.
    EmbeddingOnly,
    /// The §3.4 hybrid: push near-certain candidates, attach the rest
    /// (above `hint_tp`) as prefetch hints for the client to decide.
    Hybrid {
        /// Candidates at or above this probability are pushed.
        push_tp: f64,
        /// Candidates in `[hint_tp, push_tp)` are hinted.
        hint_tp: f64,
    },
}

impl Policy {
    /// The paper's baseline policy at a given `T_p`.
    pub fn baseline(tp: f64) -> Policy {
        Policy::Threshold { tp }
    }

    /// A short, stable label for per-policy metric names
    /// (`spec.policy.<label>.pushes` in the obs registry).
    pub fn kind_label(&self) -> &'static str {
        match self {
            Policy::Threshold { .. } => "threshold",
            Policy::DirectThreshold { .. } => "direct",
            Policy::TopK { .. } => "topk",
            Policy::EmbeddingOnly => "embedding",
            Policy::Hybrid { .. } => "hybrid",
        }
    }

    /// Whether [`decide`] reads the closure `P*` under this policy
    /// (every policy but `DirectThreshold`, which reads `P`).
    pub fn reads_closure(&self) -> bool {
        !matches!(self, Policy::DirectThreshold { .. })
    }

    /// Validates the policy parameters.
    pub fn validate(&self) -> Result<()> {
        let check = |name: &'static str, p: f64| {
            if (0.0..=1.0).contains(&p) {
                Ok(())
            } else {
                Err(CoreError::invalid_config(
                    name,
                    format!("must be in [0, 1], got {p}"),
                ))
            }
        };
        match *self {
            Policy::Threshold { tp } | Policy::DirectThreshold { tp } => {
                if tp <= 0.0 {
                    return Err(CoreError::invalid_config(
                        "policy.tp",
                        "must be positive (T_p ∈ (0, 1])",
                    ));
                }
                check("policy.tp", tp)
            }
            Policy::TopK { floor, .. } => check("policy.floor", floor),
            Policy::EmbeddingOnly => Ok(()),
            Policy::Hybrid { push_tp, hint_tp } => {
                check("policy.push_tp", push_tp)?;
                check("policy.hint_tp", hint_tp)?;
                if hint_tp > push_tp {
                    return Err(CoreError::invalid_config(
                        "policy.hint_tp",
                        "hint threshold must not exceed push threshold",
                    ));
                }
                Ok(())
            }
        }
    }
}

/// The probability at which a dependency counts as an embedding
/// (certain) dependency. Estimation noise keeps measured `p` of true
/// embeddings slightly below 1.0.
pub const EMBEDDING_THRESHOLD: f64 = 0.95;

/// What the policy decided for one request.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpecDecision {
    /// Documents to push, most probable first, with their probabilities.
    pub push: Vec<(DocId, f64)>,
    /// Documents to hint (hybrid policy only), most probable first.
    pub hints: Vec<(DocId, f64)>,
}

impl SpecDecision {
    /// Total bytes the pushes would add to the response.
    pub fn push_bytes(&self, catalog: &Catalog) -> Bytes {
        self.push.iter().map(|&(d, _)| catalog.size(d)).sum()
    }
}

/// Evaluates a policy for a request of `doc`.
///
/// `closure` is `P*`; `direct` is `P` (used by `DirectThreshold`).
/// Candidates larger than `max_size` are never pushed (they may still be
/// hinted — hinting costs bytes of URL, not of document). `exclude`
/// filters candidates known to be cached (cooperative clients).
///
/// Rows descend in probability, so every policy is a cut of a row
/// prefix: one pass that stops at the first entry below the policy's
/// lowest threshold, or once `TopK` has its `k`.
pub fn decide(
    policy: &Policy,
    closure: &DepMatrix,
    direct: &DepMatrix,
    doc: DocId,
    catalog: &Catalog,
    max_size: Bytes,
    mut exclude: impl FnMut(DocId) -> bool,
) -> SpecDecision {
    let (row, push_tp, hint_tp, k) = match *policy {
        Policy::Threshold { tp } => (closure.row(doc), tp, None, usize::MAX),
        Policy::DirectThreshold { tp } => (direct.row(doc), tp, None, usize::MAX),
        Policy::TopK { k, floor } => (closure.row(doc), floor, None, k),
        Policy::EmbeddingOnly => (closure.row(doc), EMBEDDING_THRESHOLD, None, usize::MAX),
        Policy::Hybrid { push_tp, hint_tp } => {
            (closure.row(doc), push_tp, Some(hint_tp), usize::MAX)
        }
    };
    let lowest = hint_tp.map_or(push_tp, |h| h.min(push_tp));
    let mut decision = SpecDecision::default();
    for (j, p) in row {
        if p < lowest || decision.push.len() == k {
            break;
        }
        // A NaN entry (hand-made matrices only) leads its row and
        // passes neither threshold.
        let pushable = p >= push_tp && (max_size.is_infinite() || catalog.size(j) <= max_size);
        if !(pushable || hint_tp.is_some_and(|h| p >= h)) || exclude(j) {
            continue;
        }
        if pushable {
            decision.push.push((j, p));
        } else {
            decision.hints.push((j, p));
        }
    }
    decision
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use specweb_core::ids::{ClientId, ServerId};
    use specweb_core::time::{Duration, SimTime};
    use specweb_trace::clients::Locality;
    use specweb_trace::document::PopularityClass;
    use specweb_trace::generator::Access;

    /// A matrix where doc 0 leads to: 1 (p=1.0, small), 2 (p=0.6,
    /// small), 3 (p=0.6, huge), 4 (p=0.2, small).
    fn fixture() -> (DepMatrix, DepMatrix, Catalog) {
        let mut catalog = Catalog::new();
        let sizes = [1_000u64, 1_000, 1_000, 1_000_000, 1_000];
        for s in sizes {
            catalog.push(
                ServerId(0),
                Bytes::new(s),
                PopularityClass::Global,
                false,
                true,
            );
        }
        // 100 occurrences of doc 0, each followed (inside one window)
        // by: doc 1 always, docs 2 and 3 sixty times, doc 4 twenty.
        let mut accesses: Vec<Access> = Vec::new();
        let push = |accesses: &mut Vec<Access>, t: u64, client: u32, doc: u32| {
            accesses.push(Access {
                time: SimTime::from_millis(t),
                client: ClientId::new(client),
                doc: specweb_core::ids::DocId::new(doc),
                server: ServerId(0),
                locality: Locality::Remote,
                session: 0,
            });
        };
        let mut t = 0u64;
        for r in 0..100u32 {
            push(&mut accesses, t, r, 0);
            push(&mut accesses, t + 100, r, 1);
            if r < 60 {
                push(&mut accesses, t + 200, r, 2);
                push(&mut accesses, t + 300, r, 3);
            }
            if r < 20 {
                push(&mut accesses, t + 400, r, 4);
            }
            t += 1_000_000;
        }
        let direct = crate::deps::DepMatrixBuilder::estimate(&accesses, Duration::from_secs(5), 1);
        let closure = direct.closure(0.01, 64).unwrap();
        (closure, direct, catalog)
    }

    const NO_LIMIT: Bytes = Bytes::INFINITE;

    #[test]
    fn threshold_policy_filters_by_probability() {
        let (closure, direct, catalog) = fixture();
        let d = decide(
            &Policy::Threshold { tp: 0.5 },
            &closure,
            &direct,
            DocId(0),
            &catalog,
            NO_LIMIT,
            |_| false,
        );
        let ids: Vec<u32> = d.push.iter().map(|&(j, _)| j.raw()).collect();
        assert!(ids.contains(&1) && ids.contains(&2) && ids.contains(&3));
        assert!(!ids.contains(&4), "p=0.2 below threshold");
        // Ordered most probable first.
        assert_eq!(d.push[0].0, DocId(1));
    }

    #[test]
    fn tp_above_one_pushes_nothing() {
        let (closure, direct, catalog) = fixture();
        let d = decide(
            &Policy::Threshold { tp: 1.0 + 1e-9 },
            &closure,
            &direct,
            DocId(0),
            &catalog,
            NO_LIMIT,
            |_| false,
        );
        assert!(d.push.is_empty());
    }

    #[test]
    fn max_size_caps_pushes() {
        let (closure, direct, catalog) = fixture();
        let d = decide(
            &Policy::Threshold { tp: 0.5 },
            &closure,
            &direct,
            DocId(0),
            &catalog,
            Bytes::from_kib(15), // doc 3 (1 MB) no longer fits
            |_| false,
        );
        let ids: Vec<u32> = d.push.iter().map(|&(j, _)| j.raw()).collect();
        assert!(ids.contains(&1) && ids.contains(&2));
        assert!(!ids.contains(&3), "oversized doc must not be pushed");
    }

    #[test]
    fn exclude_filters_cached_docs() {
        let (closure, direct, catalog) = fixture();
        let d = decide(
            &Policy::Threshold { tp: 0.5 },
            &closure,
            &direct,
            DocId(0),
            &catalog,
            NO_LIMIT,
            |j| j == DocId(1),
        );
        let ids: Vec<u32> = d.push.iter().map(|&(j, _)| j.raw()).collect();
        assert!(!ids.contains(&1), "cooperatively excluded");
        assert!(ids.contains(&2));
    }

    #[test]
    fn top_k_limits_count() {
        let (closure, direct, catalog) = fixture();
        let d = decide(
            &Policy::TopK { k: 2, floor: 0.1 },
            &closure,
            &direct,
            DocId(0),
            &catalog,
            NO_LIMIT,
            |_| false,
        );
        assert_eq!(d.push.len(), 2);
        assert_eq!(d.push[0].0, DocId(1), "best candidate first");
    }

    #[test]
    fn embedding_only_pushes_certain_deps() {
        let (closure, direct, catalog) = fixture();
        let d = decide(
            &Policy::EmbeddingOnly,
            &closure,
            &direct,
            DocId(0),
            &catalog,
            NO_LIMIT,
            |_| false,
        );
        let ids: Vec<u32> = d.push.iter().map(|&(j, _)| j.raw()).collect();
        assert_eq!(ids, vec![1], "only the p=1.0 dependency");
    }

    #[test]
    fn hybrid_splits_push_and_hints() {
        let (closure, direct, catalog) = fixture();
        let d = decide(
            &Policy::Hybrid {
                push_tp: 0.95,
                hint_tp: 0.3,
            },
            &closure,
            &direct,
            DocId(0),
            &catalog,
            NO_LIMIT,
            |_| false,
        );
        let pushed: Vec<u32> = d.push.iter().map(|&(j, _)| j.raw()).collect();
        let hinted: Vec<u32> = d.hints.iter().map(|&(j, _)| j.raw()).collect();
        assert_eq!(pushed, vec![1]);
        assert!(hinted.contains(&2) && hinted.contains(&3));
        assert!(!hinted.contains(&4), "p=0.2 below hint threshold");
    }

    #[test]
    fn push_bytes_sums_sizes() {
        let (closure, direct, catalog) = fixture();
        let d = decide(
            &Policy::Threshold { tp: 0.5 },
            &closure,
            &direct,
            DocId(0),
            &catalog,
            NO_LIMIT,
            |_| false,
        );
        assert_eq!(
            d.push_bytes(&catalog),
            Bytes::new(1_000 + 1_000 + 1_000_000)
        );
    }

    #[test]
    fn validation() {
        assert!(Policy::Threshold { tp: 0.5 }.validate().is_ok());
        assert!(Policy::Threshold { tp: 0.0 }.validate().is_err());
        assert!(Policy::Threshold { tp: 1.5 }.validate().is_err());
        assert!(Policy::TopK { k: 3, floor: 0.2 }.validate().is_ok());
        assert!(Policy::TopK { k: 3, floor: -0.2 }.validate().is_err());
        assert!(Policy::EmbeddingOnly.validate().is_ok());
        assert!(Policy::Hybrid {
            push_tp: 0.9,
            hint_tp: 0.3
        }
        .validate()
        .is_ok());
        assert!(Policy::Hybrid {
            push_tp: 0.3,
            hint_tp: 0.9
        }
        .validate()
        .is_err());
    }

    /// `decide` as it was over id-ordered rows: filter each arm's
    /// candidates, then stable-sort by probability.
    fn reference_decide(
        policy: &Policy,
        closure: &DepMatrix,
        direct: &DepMatrix,
        doc: DocId,
        catalog: &Catalog,
        max_size: Bytes,
        mut exclude: impl FnMut(DocId) -> bool,
    ) -> SpecDecision {
        let by_id = |m: &DepMatrix| {
            let mut row: Vec<(DocId, f64)> = m.row(doc).iter().collect();
            row.sort_by_key(|&(j, _)| j);
            row
        };
        let mut decision = SpecDecision::default();
        let fits = |d: DocId| max_size.is_infinite() || catalog.size(d) <= max_size;

        match *policy {
            Policy::Threshold { tp } => {
                for (j, p) in by_id(closure) {
                    if p >= tp && fits(j) && !exclude(j) {
                        decision.push.push((j, p));
                    }
                }
            }
            Policy::DirectThreshold { tp } => {
                for (j, p) in by_id(direct) {
                    if p >= tp && fits(j) && !exclude(j) {
                        decision.push.push((j, p));
                    }
                }
            }
            Policy::TopK { k, floor } => {
                let mut cands: Vec<(DocId, f64)> = by_id(closure)
                    .into_iter()
                    .filter(|&(j, p)| p >= floor && fits(j) && !exclude(j))
                    .collect();
                cands.sort_by(|a, b| b.1.total_cmp(&a.1));
                cands.truncate(k);
                decision.push = cands;
            }
            Policy::EmbeddingOnly => {
                for (j, p) in by_id(closure) {
                    if p >= EMBEDDING_THRESHOLD && fits(j) && !exclude(j) {
                        decision.push.push((j, p));
                    }
                }
            }
            Policy::Hybrid { push_tp, hint_tp } => {
                for (j, p) in by_id(closure) {
                    if exclude(j) {
                        continue;
                    }
                    if p >= push_tp && fits(j) {
                        decision.push.push((j, p));
                    } else if p >= hint_tp {
                        decision.hints.push((j, p));
                    }
                }
            }
        }
        decision.push.sort_by(|a, b| b.1.total_cmp(&a.1));
        decision.hints.sort_by(|a, b| b.1.total_cmp(&a.1));
        decision
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn decide_equals_filter_then_stable_sort(
            cells in prop::collection::vec((0u32..24, 1u32..=8), 0..24),
            direct_cells in prop::collection::vec((0u32..24, 1u32..=8), 0..24),
            sizes in prop::collection::vec(1u64..3_000, 25),
            excluded in prop::collection::vec(0u32..24, 0..8),
            policy in prop_oneof![
                (0u32..=9).prop_map(|t| Policy::Threshold { tp: f64::from(t) / 8.0 }),
                (0u32..=9).prop_map(|t| Policy::DirectThreshold { tp: f64::from(t) / 8.0 }),
                (0usize..6, 0u32..=8)
                    .prop_map(|(k, f)| Policy::TopK { k, floor: f64::from(f) / 8.0 }),
                Just(Policy::EmbeddingOnly),
                // Unvalidated on purpose: `hint_tp` may exceed `push_tp`.
                (0u32..=9, 0u32..=9).prop_map(|(a, b)| Policy::Hybrid {
                    push_tp: f64::from(a) / 8.0,
                    hint_tp: f64::from(b) / 8.0,
                }),
            ],
            max_size in prop_oneof![Just(Bytes::INFINITE), Just(Bytes::new(1_500))],
        ) {
            let mut catalog = Catalog::new();
            for &s in &sizes {
                catalog.push(ServerId(0), Bytes::new(s), PopularityClass::Global, false, true);
            }
            // Probabilities in eighths tie often; the last of a repeated
            // pair wins; one entry of the closure row is NaN or negative.
            let matrix = |cells: Vec<(u32, f64)>| {
                let row: std::collections::BTreeMap<u32, f64> = cells.into_iter().collect();
                DepMatrix::from_entries(row.iter().map(|(&j, &p)| (DocId(0), DocId(j), p)))
            };
            let odd = [f64::NAN, -0.25];
            let closure = matrix(
                (cells.iter().map(|&(j, e)| (j, f64::from(e) / 8.0)))
                    .chain([(24, odd[cells.len() % 2])])
                    .collect(),
            );
            let direct = matrix(
                direct_cells.iter().map(|&(j, e)| (j, f64::from(e) / 8.0)).collect(),
            );
            let exclude = |j: DocId| excluded.contains(&j.raw());
            let got = decide(&policy, &closure, &direct, DocId(0), &catalog, max_size, exclude);
            let want =
                reference_decide(&policy, &closure, &direct, DocId(0), &catalog, max_size, exclude);
            prop_assert_eq!(got.push, want.push);
            prop_assert_eq!(got.hints, want.hints);
        }
    }

    #[test]
    fn unknown_doc_pushes_nothing() {
        let (closure, direct, catalog) = fixture();
        let d = decide(
            &Policy::Threshold { tp: 0.1 },
            &closure,
            &direct,
            DocId(4),
            &catalog,
            NO_LIMIT,
            |_| false,
        );
        assert!(d.push.is_empty());
    }
}
