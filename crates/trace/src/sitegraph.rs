//! Per-server site graphs.
//!
//! The paper's speculative-service protocol is driven by two kinds of
//! document interdependency (§3.1):
//!
//! * **embedding dependencies** — `D_j` is *always* requested with `D_i`
//!   (inline images): `p[i,j] = 1`;
//! * **traversal dependencies** — `D_j` is *sometimes* requested after
//!   `D_i` (followed hyperlinks). Fig. 4 shows the measured conditional
//!   probabilities peak at `1/k`, i.e. a page's `k` anchors are followed
//!   near-uniformly.
//!
//! A [`SiteGraph`] encodes exactly this structure: pages with embedded
//! objects and out-links, entry-point popularity weights, and a uniform
//! link-choice walk. Browsing sessions generated on this graph therefore
//! reproduce Fig. 4 *by construction* — which is the point: the
//! simulator's estimators must then rediscover the structure from the
//! trace alone.

use rand::Rng;
use serde::{Deserialize, Serialize};
use specweb_core::dist::Zipf;
use specweb_core::ids::{DocId, ServerId};
use specweb_core::rng::SeedTree;
use specweb_core::Result;

use crate::document::{sample_class, sample_mutable, Catalog, PopularityClass, SizeModel};

/// One page: a document plus its embedded objects and out-links.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Page {
    /// The page document itself.
    pub doc: DocId,
    /// Objects always fetched along with the page (embedding deps).
    pub embedded: Vec<DocId>,
    /// Indices (into the owning [`SiteGraph`]) of linked pages
    /// (traversal deps).
    pub links: Vec<u32>,
}

/// The site graph of one home server.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SiteGraph {
    server: ServerId,
    pages: Vec<Page>,
    /// Per-page popularity class: `classes[i]` is the catalog class of
    /// page `i`'s document (both are pushed from one draw), so link churn
    /// and the class-biased walk never need the catalog.
    classes: Vec<PopularityClass>,
    /// Zipf over page ranks: rank `r` is the `r`-th most popular session
    /// entry point and the `r`-th most preferred link target. Built once
    /// with the graph; link churn rewires from it.
    zipf: Zipf,
    /// The structural parameters the graph was generated with.
    cfg: SiteGraphConfig,
}

/// Samples `k` distinct link targets for page `i`: Zipf-preferential,
/// no self-links, and class-assortative with probability `assort`.
fn wire_links<R: Rng + ?Sized>(
    rng: &mut R,
    i: usize,
    k: usize,
    zipf: &Zipf,
    classes: &[PopularityClass],
    assort: f64,
) -> Vec<u32> {
    let mut links: Vec<u32> = Vec::with_capacity(k);
    let mut guard = 0;
    while links.len() < k && guard < 100 * k {
        guard += 1;
        // u32::MAX on (impossible — n_pages is validated to 32 bits)
        // overflow can never collide with a real page id.
        let t = u32::try_from(zipf.sample(rng)).unwrap_or(u32::MAX);
        if t as usize == i || links.contains(&t) {
            continue;
        }
        let same_class = classes[t as usize] == classes[i];
        if same_class || rng.gen::<f64>() >= assort {
            links.push(t);
        }
    }
    // Fallback for pathological cases (e.g. the only same-class pages
    // are already linked): fill with any distinct target.
    let mut guard = 0;
    while links.len() < k && guard < 100 * k {
        guard += 1;
        let t = u32::try_from(zipf.sample(rng)).unwrap_or(u32::MAX);
        if t as usize != i && !links.contains(&t) {
            links.push(t);
        }
    }
    links
}

/// Structural parameters for site-graph generation.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SiteGraphConfig {
    /// Number of HTML pages.
    pub n_pages: usize,
    /// Mean number of embedded objects per page (geometric distribution;
    /// many pages have none, some have several).
    pub mean_embedded: f64,
    /// Out-links per page are drawn uniformly from `1..=max_links`.
    pub max_links: usize,
    /// Zipf exponent for both entry-point popularity and link-target
    /// preference (popular pages accumulate in-links).
    pub zipf_theta: f64,
    /// Class assortativity: the probability that a link target is forced
    /// to share its source page's popularity class. Real sites cluster
    /// this way (course pages link course pages; project showcases link
    /// other public pages), and it is what makes §2's remote/local/global
    /// classes *recoverable from the trace* — without it, browsing walks
    /// mix the classes beyond recognition.
    pub assortativity: f64,
    /// Size of the server-wide pool of *shared* embedded objects (the
    /// bullet GIFs and logos every 1995 page reused). Shared icons are
    /// in every client's cache after its first page, which is exactly
    /// why the paper finds embedding-only speculation saves so little.
    pub shared_object_pool: usize,
    /// Probability that an embedded slot reuses a pool icon instead of
    /// a page-unique object.
    pub shared_frac: f64,
}

impl Default for SiteGraphConfig {
    fn default() -> Self {
        // cs-www.bu.edu flavor: ~1000 accessed documents total; with
        // ~0.9 embedded objects per page, 500 pages yields ≈950 docs.
        SiteGraphConfig {
            n_pages: 500,
            mean_embedded: 0.9,
            max_links: 8,
            zipf_theta: 0.95,
            assortativity: 0.9,
            shared_object_pool: 40,
            shared_frac: 0.7,
        }
    }
}

/// Samples a geometric count with the given mean (p = 1/(1+mean)).
fn sample_geometric<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    let p = 1.0 / (1.0 + mean);
    let mut n = 0usize;
    while rng.gen::<f64>() > p && n < 64 {
        n += 1;
    }
    n
}

impl SiteGraph {
    /// Generates a site graph for `server`, appending its documents to
    /// `catalog`.
    pub fn generate(
        seed: &SeedTree,
        server: ServerId,
        cfg: &SiteGraphConfig,
        sizes: &SizeModel,
        catalog: &mut Catalog,
    ) -> Result<SiteGraph> {
        // Page ids are `u32` on the wire (`Page.links`), and every
        // per-page table below preallocates one slot per page — so the
        // page count needs a hard ceiling before either is safe.
        if cfg.n_pages > u32::MAX as usize {
            return Err(specweb_core::CoreError::invalid_config(
                "sitegraph.n_pages",
                "page ids are u32: n_pages must fit in 32 bits",
            ));
        }
        let mut rng = seed.child_idx("sitegraph", u64::from(server.raw())).rng();
        let zipf = Zipf::new(cfg.n_pages, cfg.zipf_theta)?;

        // The server-wide icon pool (logos, bullets, backgrounds).
        // Globally popular by construction — every page class inlines
        // them — and effectively immutable.
        let pool: Vec<DocId> = (0..cfg.shared_object_pool)
            .map(|_| {
                catalog.push(
                    server,
                    sizes.sample_object(&mut rng),
                    PopularityClass::Global,
                    false,
                    false,
                )
            })
            .collect();
        let pool_zipf = if pool.is_empty() {
            None
        } else {
            Some(Zipf::new(pool.len(), 0.8)?)
        };

        // Create page documents (+ their embedded objects).
        let mut pages = Vec::with_capacity(cfg.n_pages);
        let mut classes = Vec::with_capacity(cfg.n_pages);
        for _ in 0..cfg.n_pages {
            let class = sample_class(&mut rng);
            classes.push(class);
            let mutable = sample_mutable(&mut rng);
            let doc = catalog.push(server, sizes.sample_page(&mut rng), class, mutable, true);
            let n_emb = sample_geometric(&mut rng, cfg.mean_embedded);
            // Capacity hint only — the geometric tail is unbounded, so
            // cap the reservation; the vec still grows to hold any n_emb.
            let mut embedded = Vec::with_capacity(n_emb.min(64));
            for _ in 0..n_emb {
                // The guard preserves the RNG stream: the shared-pool
                // coin is only tossed when a pool exists, exactly as
                // the old `is_some() &&` short-circuit did.
                let obj = match pool_zipf.as_ref() {
                    Some(zipf) if rng.gen::<f64>() < cfg.shared_frac => pool[zipf.sample(&mut rng)],
                    _ => {
                        // Page-unique objects inherit the page's class and
                        // mutability (they change when the page does).
                        catalog.push(server, sizes.sample_object(&mut rng), class, mutable, false)
                    }
                };
                if !embedded.contains(&obj) {
                    embedded.push(obj);
                }
            }
            pages.push(Page {
                doc,
                embedded,
                links: Vec::new(),
            });
        }

        // Wire traversal links: each page gets 1..=max_links out-links
        // whose targets are Zipf-preferential (popular pages gather
        // in-links), class-assortative, excluding self-links and
        // duplicates.
        for (i, page) in pages.iter_mut().enumerate() {
            let k = rng.gen_range(1..=cfg.max_links.max(1));
            page.links = wire_links(&mut rng, i, k, &zipf, &classes, cfg.assortativity);
        }

        Ok(SiteGraph {
            server,
            pages,
            classes,
            zipf,
            cfg: *cfg,
        })
    }

    /// The owning server.
    pub fn server(&self) -> ServerId {
        self.server
    }

    /// Number of pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether the graph has no pages.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Page by index.
    pub fn page(&self, idx: usize) -> &Page {
        &self.pages[idx]
    }

    /// All pages.
    pub fn pages(&self) -> &[Page] {
        &self.pages
    }

    /// The popularity class of page `idx` — its document's catalog class.
    pub(crate) fn class(&self, idx: usize) -> PopularityClass {
        self.classes[idx]
    }

    /// Samples a session entry page, optionally re-weighting each page by
    /// `bias(class)` (used to give local clients a taste for locally
    /// popular pages and remote clients the opposite). Classes are read
    /// from the graph's own per-page table, not the catalog.
    pub fn sample_entry<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        bias: impl Fn(PopularityClass) -> f64,
    ) -> usize {
        // Rejection sampling against the biased weights: draw from the
        // base Zipf CDF, accept with probability bias/bias_max.
        let mut bias_max: f64 = 0.0;
        for c in [
            PopularityClass::Remote,
            PopularityClass::Local,
            PopularityClass::Global,
        ] {
            bias_max = bias_max.max(bias(c));
        }
        if bias_max <= 0.0 {
            // Degenerate bias: fall back to the unbiased entry draw.
            return self.sample_entry_unbiased(rng);
        }
        for _ in 0..64 {
            let idx = self.sample_entry_unbiased(rng);
            if rng.gen::<f64>() * bias_max <= bias(self.classes[idx]) {
                return idx;
            }
        }
        self.sample_entry_unbiased(rng)
    }

    /// Samples an entry page from the base Zipf weights.
    pub fn sample_entry_unbiased<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.zipf.sample(rng)
    }

    /// Follows a uniformly-chosen out-link from `page_idx` — the 1/k
    /// anchor-following behaviour behind Fig. 4. Returns `None` for a
    /// dead-end page.
    pub fn follow_link<R: Rng + ?Sized>(&self, rng: &mut R, page_idx: usize) -> Option<usize> {
        let links = &self.pages[page_idx].links;
        if links.is_empty() {
            None
        } else {
            Some(links[rng.gen_range(0..links.len())] as usize)
        }
    }

    /// Site evolution: each page independently has its out-links
    /// re-targeted with probability `churn`. This slowly invalidates
    /// previously learned traversal dependencies — the mechanism behind
    /// the §3.4 update-cycle staleness experiment. New targets come from
    /// the Zipf the graph was wired with; a round builds nothing, it
    /// rewires in place. The trace generator applies one round per day,
    /// after that day's sessions.
    pub fn churn_links<R: Rng + ?Sized>(&mut self, rng: &mut R, churn: f64) {
        let n = self.pages.len();
        if n < 2 {
            return;
        }
        for i in 0..n {
            if rng.gen::<f64>() >= churn {
                continue;
            }
            let k = self.pages[i].links.len().max(1);
            self.pages[i].links =
                wire_links(rng, i, k, &self.zipf, &self.classes, self.cfg.assortativity);
        }
    }

    /// The full set of documents fetched when `page_idx` is visited: the
    /// page itself followed by all its embedded objects.
    pub fn visit_docs(&self, page_idx: usize) -> impl Iterator<Item = DocId> + '_ {
        let p = &self.pages[page_idx];
        std::iter::once(p.doc).chain(p.embedded.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(seed: u64, cfg: &SiteGraphConfig) -> (SiteGraph, Catalog) {
        let seed = SeedTree::new(seed);
        let sizes = SizeModel::web_1995().unwrap();
        let mut cat = Catalog::new();
        let g = SiteGraph::generate(&seed, ServerId(0), cfg, &sizes, &mut cat).unwrap();
        (g, cat)
    }

    #[test]
    fn generation_shape() {
        let cfg = SiteGraphConfig {
            n_pages: 100,
            mean_embedded: 1.0,
            max_links: 5,
            zipf_theta: 1.0,
            assortativity: 0.9,
            shared_object_pool: 10,
            shared_frac: 0.7,
        };
        let (g, cat) = build(1, &cfg);
        assert_eq!(g.len(), 100);
        // Catalog = icon pool + pages + page-unique objects; shared
        // icons appear in many embedded lists but exist once.
        let distinct_embedded: std::collections::HashSet<DocId> = g
            .pages()
            .iter()
            .flat_map(|p| p.embedded.iter().copied())
            .collect();
        let unique_objects = distinct_embedded
            .iter()
            .filter(|d| d.index() >= cfg.shared_object_pool)
            .count();
        assert_eq!(
            cat.len(),
            cfg.shared_object_pool + cfg.n_pages + unique_objects
        );
        // The graph's class table is the catalog's, page for page: what
        // lets the walk and churn read classes without the catalog.
        for (i, p) in g.pages().iter().enumerate() {
            assert_eq!(g.class(i), cat.get(p.doc).class);
        }
        let emb_total: usize = g.pages().iter().map(|p| p.embedded.len()).sum();
        // With mean 1.0 over 100 pages we expect a decent number of
        // embedded slots…
        assert!(emb_total > 30, "embedded objects: {emb_total}");
        // …and sharing: some icon is inlined by at least two pages.
        let mut seen = std::collections::HashMap::new();
        for p in g.pages() {
            for d in &p.embedded {
                *seen.entry(*d).or_insert(0u32) += 1;
            }
        }
        assert!(
            seen.values().any(|&c| c >= 2),
            "no shared embedded objects found"
        );
        for p in g.pages() {
            assert!(!p.links.is_empty());
            assert!(p.links.len() <= 5);
            assert!(p.links.iter().all(|&t| (t as usize) < 100));
            // No self links, no duplicates.
            assert!(!p
                .links
                .contains(&(g.pages().iter().position(|q| q.doc == p.doc).unwrap() as u32)));
            let mut l = p.links.clone();
            l.sort_unstable();
            l.dedup();
            assert_eq!(l.len(), p.links.len());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = SiteGraphConfig::default();
        let (g1, c1) = build(9, &cfg);
        let (g2, c2) = build(9, &cfg);
        assert_eq!(g1.pages().len(), g2.pages().len());
        assert_eq!(c1.total_bytes(), c2.total_bytes());
        for (a, b) in g1.pages().iter().zip(g2.pages()) {
            assert_eq!(a.links, b.links);
            assert_eq!(a.embedded, b.embedded);
        }
    }

    #[test]
    fn entry_sampling_favors_low_ranks() {
        let cfg = SiteGraphConfig {
            n_pages: 50,
            mean_embedded: 0.0,
            max_links: 3,
            zipf_theta: 1.0,
            assortativity: 0.9,
            shared_object_pool: 10,
            shared_frac: 0.7,
        };
        let (g, _cat) = build(2, &cfg);
        let mut rng = SeedTree::new(3).child("entries").rng();
        let mut counts = [0u32; 50];
        for _ in 0..20_000 {
            counts[g.sample_entry_unbiased(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > counts[49]);
    }

    #[test]
    fn biased_entry_sampling_shifts_class_mix() {
        let cfg = SiteGraphConfig {
            n_pages: 200,
            mean_embedded: 0.0,
            max_links: 3,
            zipf_theta: 0.5,
            assortativity: 0.9,
            shared_object_pool: 10,
            shared_frac: 0.7,
        };
        let (g, cat) = build(4, &cfg);
        let mut rng = SeedTree::new(5).child("bias").rng();
        let mut local_hits = 0;
        let n = 5_000;
        for _ in 0..n {
            let idx = g.sample_entry(&mut rng, |c| match c {
                PopularityClass::Local => 10.0,
                _ => 0.5,
            });
            if cat.get(g.page(idx).doc).class == PopularityClass::Local {
                local_hits += 1;
            }
        }
        // Local pages are ~52% of the catalog but the bias should push
        // their share of entries well above that.
        assert!(
            local_hits as f64 / n as f64 > 0.75,
            "local share {}",
            local_hits as f64 / n as f64
        );
    }

    #[test]
    fn follow_link_is_uniform_over_anchors() {
        let cfg = SiteGraphConfig {
            n_pages: 30,
            mean_embedded: 0.0,
            max_links: 4,
            zipf_theta: 0.0,
            assortativity: 0.9,
            shared_object_pool: 10,
            shared_frac: 0.7,
        };
        let (g, _cat) = build(6, &cfg);
        // Find a page with 4 links and check empirical uniformity.
        let idx = g.pages().iter().position(|p| p.links.len() == 4).unwrap();
        let mut rng = SeedTree::new(7).child("follow").rng();
        let mut counts = std::collections::HashMap::new();
        let n = 40_000;
        for _ in 0..n {
            let t = g.follow_link(&mut rng, idx).unwrap();
            *counts.entry(t).or_insert(0u32) += 1;
        }
        assert_eq!(counts.len(), 4);
        for &c in counts.values() {
            let f = f64::from(c) / n as f64;
            assert!((f - 0.25).abs() < 0.02, "link share {f}");
        }
    }

    #[test]
    fn churn_rewires_links() {
        let cfg = SiteGraphConfig::default();
        let (mut g, _cat) = build(8, &cfg);
        let before: Vec<Vec<u32>> = g.pages().iter().map(|p| p.links.clone()).collect();
        let mut rng = SeedTree::new(9).child("churn").rng();
        g.churn_links(&mut rng, 1.0);
        let changed = g
            .pages()
            .iter()
            .zip(&before)
            .filter(|(p, b)| &p.links != *b)
            .count();
        assert!(
            changed > g.len() / 2,
            "full churn changed only {changed}/{} pages",
            g.len()
        );
        // Link counts are preserved by rewiring.
        for (p, b) in g.pages().iter().zip(&before) {
            assert_eq!(p.links.len(), b.len());
        }
    }

    #[test]
    fn churn_zero_is_identity() {
        let cfg = SiteGraphConfig::default();
        let (mut g, _cat) = build(10, &cfg);
        let before: Vec<Vec<u32>> = g.pages().iter().map(|p| p.links.clone()).collect();
        let mut rng = SeedTree::new(11).child("churn0").rng();
        g.churn_links(&mut rng, 0.0);
        for (p, b) in g.pages().iter().zip(&before) {
            assert_eq!(&p.links, b);
        }
    }

    #[test]
    fn visit_docs_includes_page_and_embedded() {
        let cfg = SiteGraphConfig {
            n_pages: 20,
            mean_embedded: 2.0,
            max_links: 2,
            zipf_theta: 0.5,
            assortativity: 0.9,
            shared_object_pool: 10,
            shared_frac: 0.7,
        };
        let (g, _cat) = build(12, &cfg);
        let idx = g
            .pages()
            .iter()
            .position(|p| !p.embedded.is_empty())
            .expect("some page has embedded objects");
        let docs: Vec<DocId> = g.visit_docs(idx).collect();
        assert_eq!(docs[0], g.page(idx).doc);
        assert_eq!(docs.len(), 1 + g.page(idx).embedded.len());
    }

    #[test]
    fn geometric_mean_is_right() {
        let mut rng = SeedTree::new(13).child("geo").rng();
        let n = 50_000;
        let total: usize = (0..n).map(|_| sample_geometric(&mut rng, 2.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "geometric mean {mean}");
        assert_eq!(sample_geometric(&mut rng, 0.0), 0);
    }
}
