//! `survey`: the paper's §5 measurement study.  A population drawn from the
//! seed across all six site classes gets the three-stage MFC (65 clients,
//! 100 ms threshold, crowds 5..50 in steps of 5); each site keeps its
//! flat-Poisson background traffic and sites are profiled one at a time.

use mfc_core::backend::sim::{SimBackend, SimTargetSpec};
use mfc_core::config::MfcConfig;
use mfc_core::TrialRunner;
use mfc_simcore::SimRng;
use mfc_sites::SiteClass;

use crate::bench::{guarded, profile, OpKind, OpResult};
use crate::trace::{span, Counts, Name};
use crate::Scale;

const CLASSES: [SiteClass; 6] = [
    SiteClass::Top1K,
    SiteClass::Rank1KTo10K,
    SiteClass::Rank10KTo100K,
    SiteClass::Rank100KTo1M,
    SiteClass::Startup,
    SiteClass::Phishing,
];
const CLIENTS: usize = 65;

/// The survey workload.
pub struct Survey {
    sites: usize,
    config: MfcConfig,
}

/// One site ready to be profiled.
struct Site {
    spec: SimTargetSpec,
    backend_seed: u64,
    coordinator_seed: u64,
}

impl Survey {
    /// Sizes the workload.
    pub fn new(scale: Scale) -> Survey {
        Survey {
            sites: match scale {
                Scale::Full => 48,
                Scale::Tiny => 6,
            },
            config: MfcConfig::standard().with_max_crowd(50).with_increment(5),
        }
    }

    /// The population of `seed`: every class equally often, in seeded
    /// order, each site drawn by `SiteClass::generate_site`.
    fn sites(&self, seed: u64) -> Vec<Site> {
        let mut classes: Vec<SiteClass> = (0..self.sites)
            .map(|i| CLASSES[i % CLASSES.len()])
            .collect();
        let rng = SimRng::seed_from(seed);
        rng.fork("survey-classes").shuffle(&mut classes);
        let mut rng = rng.fork("survey-sites");
        classes
            .iter()
            .enumerate()
            .map(|(index, class)| {
                let spec = span(Name::SitesGenerate, || {
                    class.generate_site(index as u64, &mut rng)
                });
                Site {
                    spec,
                    backend_seed: seed ^ (index as u64).wrapping_mul(0x9e37_79b9),
                    coordinator_seed: seed.wrapping_add(index as u64),
                }
            })
            .collect()
    }

    /// Builds a round's inputs: every site of `seed`'s population and its
    /// backend.
    pub fn setup(&self, seed: u64) -> Vec<(SimBackend, u64)> {
        self.sites(seed)
            .into_iter()
            .map(|site| {
                let backend = span(Name::BackendNew, || {
                    SimBackend::new(site.spec, CLIENTS, site.backend_seed)
                });
                (backend, site.coordinator_seed)
            })
            .collect()
    }

    /// Profiles every site, one after another.
    pub fn run(&self, inputs: Vec<(SimBackend, u64)>, counts: &mut Counts) -> Vec<OpResult> {
        inputs
            .into_iter()
            .map(|(backend, seed)| {
                guarded(OpKind::Profile, || {
                    profile(backend, &self.config, seed, counts)
                })
            })
            .collect()
    }

    /// Profiles `seed`'s population on `runner` (untimed), returning the
    /// per-site digests in site order: the serial and the threaded runner
    /// must agree.
    pub fn digests_on(&self, seed: u64, runner: &TrialRunner) -> Vec<Option<u64>> {
        let sites = self.sites(seed);
        runner.run(sites, |_, site| {
            let backend = SimBackend::new(site.spec, CLIENTS, site.backend_seed);
            let result = guarded(OpKind::Profile, || {
                profile(
                    backend,
                    &self.config,
                    site.coordinator_seed,
                    &mut Counts::default(),
                )
            });
            result.error.is_none().then_some(result.digest)
        })
    }
}
