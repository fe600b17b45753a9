//! Crash-point fault injection.
//!
//! The paper's read-correctness argument is all about what happens when a
//! client "crashes after storing the provenance ... but before storing the
//! object" (§4.2) or when the commit daemon dies mid-replay (§4.3). To
//! test those arguments mechanically, every protocol in
//! `provenance-cloud` names its step boundaries as [`CrashSite`]s and
//! calls [`crate::SimWorld::crash_point`] at each one. A test arms a site
//! through [`FaultPlan`]; the k-th visit to that site then returns
//! [`Crashed`], which the protocol propagates as if the process had died.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A named step boundary inside a storage protocol.
///
/// Sites are plain static labels so that `simworld` does not have to know
/// about the protocols defined in higher layers.
///
/// # Examples
///
/// ```
/// use simworld::CrashSite;
///
/// const AFTER_PROV: CrashSite = CrashSite::new("arch2.after_simpledb_put");
/// assert_eq!(AFTER_PROV.name(), "arch2.after_simpledb_put");
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct CrashSite(&'static str);

impl CrashSite {
    /// Creates a site label.
    pub const fn new(name: &'static str) -> CrashSite {
        CrashSite(name)
    }

    /// The label text.
    pub const fn name(self) -> &'static str {
        self.0
    }
}

impl fmt::Display for CrashSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

/// The error returned when an armed crash site fires.
///
/// Protocol code must treat this as process death: unwind immediately,
/// leave all remote state exactly as it is.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Crashed {
    /// The site that fired.
    pub site: CrashSite,
}

impl fmt::Display for Crashed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "simulated crash at {}", self.site)
    }
}

impl Error for Crashed {}

/// Which sites are armed, and how many visits each should survive first.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// site -> (remaining visits before firing, already fired?)
    armed: HashMap<CrashSite, Armed>,
    /// Log of sites visited, for coverage assertions in tests.
    visited: Vec<CrashSite>,
    record_visits: bool,
}

#[derive(Debug)]
struct Armed {
    skip_visits: u64,
    fired: bool,
}

impl FaultPlan {
    /// A plan with nothing armed.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Arms `site` to fire on its first visit.
    pub fn arm(&mut self, site: CrashSite) {
        self.arm_after(site, 0);
    }

    /// Arms `site` to fire on visit number `skip_visits + 1`.
    pub fn arm_after(&mut self, site: CrashSite, skip_visits: u64) {
        self.armed.insert(
            site,
            Armed {
                skip_visits,
                fired: false,
            },
        );
    }

    /// Disarms `site`; visits to it succeed again.
    pub fn disarm(&mut self, site: CrashSite) {
        self.armed.remove(&site);
    }

    /// Starts recording every visited site (off by default).
    pub fn record_visits(&mut self, on: bool) {
        self.record_visits = on;
        if !on {
            self.visited.clear();
        }
    }

    /// The sites visited since recording was enabled, in order.
    pub fn visits(&self) -> &[CrashSite] {
        &self.visited
    }

    /// Called by the world at each step boundary. Returns `Err(Crashed)`
    /// exactly once per armed site.
    pub fn check(&mut self, site: CrashSite) -> Result<(), Crashed> {
        if self.record_visits {
            self.visited.push(site);
        }
        if let Some(armed) = self.armed.get_mut(&site) {
            if armed.fired {
                return Ok(());
            }
            if armed.skip_visits == 0 {
                armed.fired = true;
                return Err(Crashed { site });
            }
            armed.skip_visits -= 1;
        }
        Ok(())
    }

    /// `true` when [`FaultPlan::check`] can change nothing and fail
    /// nothing: visits are not recorded and every armed site has fired.
    pub(crate) fn is_idle(&self) -> bool {
        !self.record_visits && self.armed.values().all(|armed| armed.fired)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SITE_A: CrashSite = CrashSite::new("test.a");
    const SITE_B: CrashSite = CrashSite::new("test.b");

    #[test]
    fn unarmed_sites_pass() {
        let mut plan = FaultPlan::new();
        assert!(plan.check(SITE_A).is_ok());
        assert!(plan.check(SITE_A).is_ok());
    }

    #[test]
    fn armed_site_fires_once() {
        let mut plan = FaultPlan::new();
        plan.arm(SITE_A);
        let err = plan.check(SITE_A).unwrap_err();
        assert_eq!(err.site, SITE_A);
        assert!(plan.is_idle(), "the one armed site has fired");
        // The process restarted; the same site passes on the next life.
        assert!(plan.check(SITE_A).is_ok());
    }

    #[test]
    fn arm_after_skips_visits() {
        let mut plan = FaultPlan::new();
        plan.arm_after(SITE_A, 2);
        assert!(plan.check(SITE_A).is_ok());
        assert!(plan.check(SITE_A).is_ok());
        assert!(plan.check(SITE_A).is_err());
    }

    #[test]
    fn sites_are_independent() {
        let mut plan = FaultPlan::new();
        plan.arm(SITE_B);
        assert!(plan.check(SITE_A).is_ok());
        assert!(plan.check(SITE_B).is_err());
    }

    #[test]
    fn disarm_cancels() {
        let mut plan = FaultPlan::new();
        plan.arm(SITE_A);
        plan.disarm(SITE_A);
        assert!(plan.check(SITE_A).is_ok());
    }

    #[test]
    fn visit_recording_for_coverage() {
        let mut plan = FaultPlan::new();
        plan.record_visits(true);
        let _ = plan.check(SITE_A);
        let _ = plan.check(SITE_B);
        let _ = plan.check(SITE_A);
        assert_eq!(plan.visits(), &[SITE_A, SITE_B, SITE_A]);
        plan.record_visits(false);
        assert!(plan.visits().is_empty());
    }

    #[test]
    fn idle_means_nothing_to_fire_or_record() {
        let mut plan = FaultPlan::new();
        assert!(plan.is_idle());
        plan.arm(SITE_A);
        assert!(!plan.is_idle());
        let _ = plan.check(SITE_A);
        assert!(plan.is_idle(), "a fired site passes from now on");
        plan.record_visits(true);
        assert!(!plan.is_idle());
    }

    #[test]
    fn crashed_error_displays_site() {
        let err = Crashed { site: SITE_A };
        assert_eq!(err.to_string(), "simulated crash at test.a");
    }
}
