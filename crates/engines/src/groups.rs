//! Label-copying rules between engines.
//!
//! §7.2 confirms that groups of engines produce strongly correlated
//! labels (ρ > 0.8), globally and per file type. Sebastián et al. \[23\]
//! attribute this to vendors copying labels (OEM'd engines, shared
//! intelligence feeds). We model it directly: a *follower* engine reuses
//! its *leader's* per-sample behavioural draws with high probability, so
//! the two columns of the scan matrix agree except for independent
//! timeouts and the occasional independent decision.
//!
//! The rule list below is seeded from the paper's reported groups
//! (Fig. 11 globally, Tables 4–8 per type, Appendix 2), including the
//! scoped quirks the paper highlights: *Cyren–Fortinet* correlate only
//! on Win32 EXE, *Avira–Cynet* correlate globally **except** on
//! Win32 EXE, and *Lionic–VirIT* only on GZIP.

use crate::registry::engine_index;
use vt_model::FileType;

/// Where a copy rule applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Applies to every file type.
    Global,
    /// Applies only to the given type.
    Only(FileType),
    /// Applies to every type except the given one.
    Except(FileType),
}

impl Scope {
    /// Whether the scope covers `ft`.
    pub fn covers(self, ft: FileType) -> bool {
        match self {
            Scope::Global => true,
            Scope::Only(t) => ft == t,
            Scope::Except(t) => ft != t,
        }
    }
}

/// One copying relationship: `follower` reuses `leader`'s behavioural
/// draws with probability `prob` for samples within `scope`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CopyRule {
    /// Roster index of the copying engine.
    pub follower: usize,
    /// Roster index of the engine being copied.
    pub leader: usize,
    /// File types the rule covers.
    pub scope: Scope,
    /// Per-sample copy probability.
    pub prob: f64,
}

/// Builds the copy-rule list. Order matters: for a given follower and
/// file type, the **first** matching rule wins.
pub fn build_copy_rules() -> Vec<CopyRule> {
    use FileType::*;
    let r = |follower: &str, leader: &str, scope: Scope, prob: f64| CopyRule {
        follower: engine_index(follower),
        leader: engine_index(leader),
        scope,
        prob,
    };
    vec![
        // ---- Global pairs (Fig. 11) -------------------------------
        // Paloalto–APEX is the paper's strongest pair (ρ = 0.9933).
        r("APEX", "Paloalto", Scope::Except(Html), 0.995),
        // Avast–AVG (ρ = 0.9814).
        r("AVG", "Avast", Scope::Global, 0.985),
        // Webroot–CrowdStrike (ρ = 0.9754).
        r("Webroot", "CrowdStrike", Scope::Global, 0.978),
        // Babable–F-Prot (ρ = 0.9698).
        r("Babable", "F-Prot", Scope::Global, 0.972),
        // The BitDefender OEM cluster (Table 4 group 3): eScan, GData,
        // FireEye, MAX, ALYac, Ad-Aware, Emsisoft.
        r("MicroWorld-eScan", "BitDefender", Scope::Global, 0.965),
        r("GData", "BitDefender", Scope::Global, 0.960),
        r("FireEye", "BitDefender", Scope::Global, 0.955),
        r("MAX", "BitDefender", Scope::Global, 0.945),
        r("ALYac", "BitDefender", Scope::Global, 0.935),
        r("Ad-Aware", "BitDefender", Scope::Global, 0.935),
        r("Emsisoft", "BitDefender", Scope::Global, 0.925),
        // K7 family.
        r("K7GW", "K7AntiVirus", Scope::Global, 0.955),
        // TrendMicro family (Table 4 group 5).
        r("TrendMicro-HouseCall", "TrendMicro", Scope::Global, 0.935),
        // Avira–Cynet: strong globally (0.9751) but NOT on Win32 EXE
        // (Appendix 2 calls this out explicitly — moderate there, so the
        // pair stays below the 0.8 strong bar on EXE without dragging
        // the global coefficient down).
        r("Cynet", "Avira", Scope::Only(Win32Exe), 0.62),
        r("Cynet", "Avira", Scope::Except(Win32Exe), 0.978),
        // McAfee family: moderate globally, strong on DEX (Table: 0.8301).
        r("McAfee-GW-Edition", "McAfee", Scope::Only(Dex), 0.92),
        r("McAfee-GW-Edition", "McAfee", Scope::Global, 0.80),
        // ---- Per-type quirks --------------------------------------
        // Cyren–Fortinet only on Win32 EXE (Appendix 2 / Table 4 group 6).
        r("Cyren", "Fortinet", Scope::Only(Win32Exe), 0.91),
        // ESET joins the K7 group on Win32 EXE (Table 4 group 4).
        r("ESET-NOD32", "K7AntiVirus", Scope::Only(Win32Exe), 0.86),
        // Lionic–VirIT only on GZIP (ρ = 0.8896, §7.2.2).
        r("VirIT", "Lionic", Scope::Only(Gzip), 0.90),
        // Alibaba–Webroot on TXT (Table 5 group 6).
        r("Alibaba", "Webroot", Scope::Only(Txt), 0.87),
        // AVG–Avast-Mobile on DEX (Table: 0.9567): Avast-Mobile copies
        // Avast on Android samples, putting it in the Avast family there.
        r("Avast-Mobile", "Avast", Scope::Only(Dex), 0.96),
        // The HTML mega-cluster (Table 6 group 5): AhnLab-V3, Cynet,
        // Rising, Cyren, Avira, CAT-QuickHeal, ESET-NOD32,
        // NANO-Antivirus all converge on HTML.
        r("AhnLab-V3", "ESET-NOD32", Scope::Only(Html), 0.87),
        r("Rising", "ESET-NOD32", Scope::Only(Html), 0.86),
        r("CAT-QuickHeal", "ESET-NOD32", Scope::Only(Html), 0.85),
        r("NANO-Antivirus", "ESET-NOD32", Scope::Only(Html), 0.86),
        r("Cyren", "ESET-NOD32", Scope::Only(Html), 0.88),
        r("Avira", "ESET-NOD32", Scope::Only(Html), 0.84),
        // APEX–Webroot on HTML (Table 6 group 9) — APEX leaves the
        // Paloalto pair for HTML (hence the Except(Html) above).
        r("APEX", "Webroot", Scope::Only(Html), 0.85),
    ]
}

/// The copy graph indexed by follower: what [`crate::EngineFleet`]
/// resolves plans through. A follower's rules keep their list order, so
/// "first matching rule wins" holds without scanning the other
/// followers' rules (most engines follow nobody).
#[derive(Debug, Clone)]
pub(crate) struct CopyIndex {
    /// The rule list, stably grouped by follower.
    rules: Vec<CopyRule>,
    /// `rules[starts[f]..starts[f + 1]]` are follower `f`'s rules.
    starts: Vec<usize>,
}

impl CopyIndex {
    /// Indexes `rules` (in [`build_copy_rules`] order) over the roster.
    pub(crate) fn new(mut rules: Vec<CopyRule>) -> Self {
        rules.sort_by_key(|r| r.follower); // stable: list order survives
        let starts = (0..=crate::ENGINE_COUNT)
            .map(|f| rules.partition_point(|r| r.follower < f))
            .collect();
        Self { rules, starts }
    }

    /// Resolves the effective rule for `(follower, file type)`: the
    /// follower's first matching rule, if any.
    pub(crate) fn rule_for(&self, follower: usize, ft: FileType) -> Option<&CopyRule> {
        self.rules[self.starts[follower]..self.starts[follower + 1]]
            .iter()
            .find(|r| r.scope.covers(ft))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::engine_index;
    use vt_model::FileType;

    /// The definition the index must agree with: the first rule in list
    /// order whose follower and scope match.
    fn rule_for(rules: &[CopyRule], follower: usize, ft: FileType) -> Option<&CopyRule> {
        rules
            .iter()
            .find(|r| r.follower == follower && r.scope.covers(ft))
    }

    fn index() -> CopyIndex {
        CopyIndex::new(build_copy_rules())
    }

    #[test]
    fn scope_covers() {
        assert!(Scope::Global.covers(FileType::Pdf));
        assert!(Scope::Only(FileType::Pdf).covers(FileType::Pdf));
        assert!(!Scope::Only(FileType::Pdf).covers(FileType::Zip));
        assert!(Scope::Except(FileType::Pdf).covers(FileType::Zip));
        assert!(!Scope::Except(FileType::Pdf).covers(FileType::Pdf));
    }

    #[test]
    fn rules_reference_valid_engines() {
        let rules = build_copy_rules();
        assert!(!rules.is_empty());
        for r in &rules {
            assert!(r.follower < crate::ENGINE_COUNT);
            assert!(r.leader < crate::ENGINE_COUNT);
            assert_ne!(r.follower, r.leader, "self-copy rule");
            assert!((0.0..=1.0).contains(&r.prob));
        }
    }

    #[test]
    fn index_agrees_with_the_list_scan() {
        let rules = build_copy_rules();
        let index = index();
        let types = FileType::TOP20.into_iter().chain([
            FileType::Null,
            FileType::Other(0),
            FileType::Other(329),
        ]);
        for ft in types {
            for e in 0..crate::ENGINE_COUNT {
                assert_eq!(index.rule_for(e, ft), rule_for(&rules, e, ft), "{e} {ft}");
            }
        }
    }

    #[test]
    fn first_match_wins() {
        let index = index();
        // APEX on HTML copies Webroot; elsewhere Paloalto.
        let apex = engine_index("APEX");
        let on_html = index.rule_for(apex, FileType::Html).unwrap();
        assert_eq!(on_html.leader, engine_index("Webroot"));
        let on_exe = index.rule_for(apex, FileType::Win32Exe).unwrap();
        assert_eq!(on_exe.leader, engine_index("Paloalto"));
    }

    #[test]
    fn avira_cynet_weak_on_win32exe() {
        let index = index();
        let cynet = engine_index("Cynet");
        // On Win32 EXE the copy probability is moderate (stays below the
        // strong-correlation bar); elsewhere it is near-certain.
        let on_exe = index.rule_for(cynet, FileType::Win32Exe).unwrap();
        assert_eq!(on_exe.leader, engine_index("Avira"));
        assert!(on_exe.prob < 0.7);
        let on_pdf = index.rule_for(cynet, FileType::Pdf).unwrap();
        assert_eq!(on_pdf.leader, engine_index("Avira"));
        assert!(on_pdf.prob > 0.95);
    }

    #[test]
    fn cyren_fortinet_only_win32exe() {
        let index = index();
        let cyren = engine_index("Cyren");
        let on_exe = index.rule_for(cyren, FileType::Win32Exe).unwrap();
        assert_eq!(on_exe.leader, engine_index("Fortinet"));
        // On HTML, Cyren follows the HTML cluster instead.
        let on_html = index.rule_for(cyren, FileType::Html).unwrap();
        assert_eq!(on_html.leader, engine_index("ESET-NOD32"));
        // On PDF, no rule.
        assert!(index.rule_for(cyren, FileType::Pdf).is_none());
    }

    #[test]
    fn no_copy_cycles() {
        // Following leader links (for any single file type) must
        // terminate: walk every (follower, type) chain with a step bound.
        let index = index();
        for ft in FileType::TOP20 {
            for start in 0..crate::ENGINE_COUNT {
                let mut cur = start;
                let mut steps = 0;
                while let Some(r) = index.rule_for(cur, ft) {
                    cur = r.leader;
                    steps += 1;
                    assert!(steps < 10, "copy cycle at engine {start} for {ft}");
                }
            }
        }
    }
}
