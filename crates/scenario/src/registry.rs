//! The spec-family registry: the single place attack and defense
//! families are wired into the spec language.
//!
//! [`AttackSpec`](crate::AttackSpec) and
//! [`DefenseSpec`](crate::DefenseSpec) are string-keyed values —
//! `family[:args]` — and every operation on them (parsing,
//! canonicalization, construction, grid knobs) dispatches through the
//! [`AttackFamily`] / [`DefenseFamily`] registered under that key.
//! Adding a family is therefore one [`register_attack_family`] /
//! [`register_defense_family`] call — no `match` arms to edit across
//! the workspace — and `scenario --list-specs` enumerates whatever is
//! registered at runtime.
//!
//! The built-in families (`rtf`, `cah`, `qbi`, `linear`; `oasis`,
//! `ats`, `dp`, `clip`) are installed on first use.

use std::sync::{OnceLock, RwLock};

use oasis_attacks::{
    ActiveAttack, AtsDefense, CahAttack, LinearModelAttack, QbiAttack, RtfAttack,
    DEFAULT_ACTIVATION_TARGET, DEFAULT_QBI_BATCH,
};
use oasis_augment::PolicyKind;
use oasis_fl::{ClipStage, Defense, DpStage};
use oasis_image::Image;

use crate::ScenarioError;

/// Weight seed used when constructing CAH trap weights from a spec.
///
/// The figure binaries historically used this constant; keeping it in
/// the registry makes `cah:N` specs reproduce those numbers.
pub const CAH_WEIGHT_SEED: u64 = 0xCA11;

/// Weight seed used when constructing QBI Gaussian rows from a spec.
pub const QBI_WEIGHT_SEED: u64 = 0x0B1A;

/// Constructor signature of a registered attack family: canonical
/// args, calibration images, and the workload's class count.
pub type AttackBuilder =
    fn(Option<&str>, &[Image], usize) -> Result<Box<dyn ActiveAttack>, ScenarioError>;

/// Constructor signature of a registered defense family.
pub type DefenseBuilder = fn(Option<&str>) -> Result<Box<dyn Defense>, ScenarioError>;

/// One registered attack family: how to parse, build, and sweep specs
/// of the form `name[:args]`.
#[derive(Clone, Copy)]
pub struct AttackFamily {
    /// Registry key (the spec prefix before `:`).
    pub name: &'static str,
    /// One-line grammar shown by `scenario --list-specs`.
    pub grammar: &'static str,
    /// Validates raw args and returns their canonical form
    /// (`None` = the family takes no args).
    pub canon: fn(Option<&str>) -> Result<Option<String>, ScenarioError>,
    /// Constructs the attack from canonical args, calibration images,
    /// and the workload's class count.
    pub build: AttackBuilder,
    /// Default calibration-image count for canonical args.
    pub calibration: fn(Option<&str>) -> usize,
    /// Rewrites canonical args to use `neurons` attacked neurons, or
    /// `None` when the family has no neuron knob (grid sweeps skip
    /// the axis).
    pub with_neurons: fn(Option<&str>, usize) -> Option<String>,
    /// Whether trial batches should default to unique-label sampling
    /// (the linear-model inversion needs one class per sample).
    pub unique_labels: bool,
}

/// One registered defense family: how to parse and build stack parts
/// of the form `name[:args]`.
#[derive(Clone, Copy)]
pub struct DefenseFamily {
    /// Registry key (the spec prefix before `:`).
    pub name: &'static str,
    /// One-line grammar shown by `scenario --list-specs`.
    pub grammar: &'static str,
    /// Validates raw args and returns their canonical form
    /// (`None` = the family takes no args).
    pub canon: fn(Option<&str>) -> Result<Option<String>, ScenarioError>,
    /// Constructs the defense from canonical args.
    pub build: DefenseBuilder,
}

struct Registry {
    attacks: Vec<AttackFamily>,
    defenses: Vec<DefenseFamily>,
}

fn registry() -> &'static RwLock<Registry> {
    static REGISTRY: OnceLock<RwLock<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        RwLock::new(Registry {
            attacks: builtin_attacks(),
            defenses: builtin_defenses(),
        })
    })
}

/// Registers an attack family. Fails if the name is already taken.
///
/// # Errors
///
/// Returns [`ScenarioError::BadSpec`] on a name collision.
pub fn register_attack_family(family: AttackFamily) -> Result<(), ScenarioError> {
    let mut reg = registry().write().expect("registry poisoned");
    if reg.attacks.iter().any(|f| f.name == family.name) {
        return Err(ScenarioError::BadSpec(format!(
            "attack family `{}` is already registered",
            family.name
        )));
    }
    reg.attacks.push(family);
    Ok(())
}

/// Registers a defense family. Fails if the name is already taken.
///
/// # Errors
///
/// Returns [`ScenarioError::BadSpec`] on a name collision.
pub fn register_defense_family(family: DefenseFamily) -> Result<(), ScenarioError> {
    let mut reg = registry().write().expect("registry poisoned");
    if reg.defenses.iter().any(|f| f.name == family.name) {
        return Err(ScenarioError::BadSpec(format!(
            "defense family `{}` is already registered",
            family.name
        )));
    }
    reg.defenses.push(family);
    Ok(())
}

/// Looks up an attack family by name.
///
/// # Errors
///
/// Returns [`ScenarioError::BadSpec`] naming the registered families
/// when `name` is unknown.
pub fn attack_family(name: &str) -> Result<AttackFamily, ScenarioError> {
    let reg = registry().read().expect("registry poisoned");
    reg.attacks
        .iter()
        .find(|f| f.name == name)
        .copied()
        .ok_or_else(|| {
            let known: Vec<&str> = reg.attacks.iter().map(|f| f.name).collect();
            ScenarioError::BadSpec(format!(
                "unknown attack `{name}` (registered: {})",
                known.join(", ")
            ))
        })
}

/// Looks up a defense family by name.
///
/// # Errors
///
/// Returns [`ScenarioError::BadSpec`] naming the registered families
/// when `name` is unknown.
pub fn defense_family(name: &str) -> Result<DefenseFamily, ScenarioError> {
    let reg = registry().read().expect("registry poisoned");
    reg.defenses
        .iter()
        .find(|f| f.name == name)
        .copied()
        .ok_or_else(|| {
            let known: Vec<&str> = reg.defenses.iter().map(|f| f.name).collect();
            ScenarioError::BadSpec(format!(
                "unknown defense `{name}` (registered: none, {})",
                known.join(", ")
            ))
        })
}

/// `(name, grammar)` of every registered attack family.
pub fn attack_families() -> Vec<(&'static str, &'static str)> {
    let reg = registry().read().expect("registry poisoned");
    reg.attacks.iter().map(|f| (f.name, f.grammar)).collect()
}

/// `(name, grammar)` of every registered defense family.
pub fn defense_families() -> Vec<(&'static str, &'static str)> {
    let reg = registry().read().expect("registry poisoned");
    reg.defenses.iter().map(|f| (f.name, f.grammar)).collect()
}

/// The full spec catalog: every registered attack and defense family
/// plus the fixed workload / codec / net / scale vocabularies, one
/// grammar line each — the text behind `scenario --list-specs`.
pub fn spec_catalog() -> String {
    let mut out = String::new();
    let mut section = |title: &str, rows: &[(&str, &str)]| {
        out.push_str(title);
        out.push('\n');
        for (name, grammar) in rows {
            out.push_str(&format!("  {name:<16} {grammar}\n"));
        }
    };
    section("attack families:", &attack_families());
    let mut defenses: Vec<(&str, &str)> = vec![(
        "none",
        "undefended baseline (aliases: wo, without; never part of a stack)",
    )];
    defenses.extend(defense_families());
    section(
        "defense families (stack with `+`, e.g. oasis:MR+dp:1,0.01):",
        &defenses,
    );
    section(
        "workloads:",
        &[
            (
                "imagenette",
                "ImageNet stand-in (Imagenette subset), 10 classes",
            ),
            ("cifar100", "CIFAR100 stand-in, 100 classes"),
            (
                "imagenette100c",
                "100-class synthetic at ImageNette resolution",
            ),
            ("cifar100c", "100-class synthetic at CIFAR resolution"),
        ],
    );
    section(
        "codecs:",
        &[
            ("raw", "lossless f32 updates"),
            ("q8", "int8 affine quantization"),
            ("topk:K", "K largest-magnitude coordinates"),
            ("sign", "1-bit sign compression"),
        ],
    );
    section(
        "nets:",
        &[
            ("ideal", "no latency, no loss"),
            (
                "sim:LAT,BW,DROP[,DL]",
                "latency ms, bandwidth Mbit/s, drop probability, straggler deadline ms",
            ),
        ],
    );
    section(
        "population (cohorts are sampled per attacked round; K peers share the victim's wire):",
        &[
            (
                "population:N",
                "deployment size the cohorts are drawn from (0 = legacy single-victim wire)",
            ),
            (
                "sample:K",
                "cohort size per round (default min(population, 64); requires a population)",
            ),
        ],
    );
    section(
        "campaigns (oasis-campaign; phases separated by `;`, fields by `+`):",
        &[
            (
                "campaign:PHASES",
                "multi-phase long-horizon run, e.g. campaign:20;30+alpha=0.5+attack=qbi:128",
            ),
            ("R", "each phase starts with its round count"),
            (
                "join=F/leave=F",
                "per-round churn probabilities over the client population",
            ),
            (
                "alpha=A",
                "Dirichlet re-partition at phase entry (label-skew drift)",
            ),
            (
                "net=SPEC",
                "phase network conditions (same grammar as nets)",
            ),
            (
                "attack=S[|S...]",
                "adversary candidates for the phase; `|` sweeps pick the worst case",
            ),
        ],
    );
    section(
        "scales:",
        &[
            ("quick", "seconds-scale smoke test"),
            ("default", "minutes-scale, preserves the paper's shape"),
            ("full", "the paper's full grids (slow on CPU)"),
        ],
    );
    out
}

// ---------------------------------------------------------------------
// Built-in families
// ---------------------------------------------------------------------

fn no_args() -> ScenarioError {
    ScenarioError::BadSpec("missing `:` arguments".into())
}

fn parse_field<T: std::str::FromStr>(
    family: &str,
    field: &str,
    value: &str,
) -> Result<T, ScenarioError> {
    value
        .trim()
        .parse()
        .map_err(|_| ScenarioError::BadSpec(format!("bad {field} `{value}` in `{family}:` spec")))
}

/// An attacked-neuron count: a positive integer. Zero is rejected
/// here, at spec parse, because an attack with no neurons has no
/// malicious layer to build.
fn parse_neurons(family: &str, value: &str) -> Result<usize, ScenarioError> {
    match parse_field::<usize>(family, "neurons", value)? {
        0 => Err(ScenarioError::BadSpec(format!(
            "bad neurons `{value}` in `{family}:` spec: need at least 1"
        ))),
        neurons => Ok(neurons),
    }
}

fn builtin_attacks() -> Vec<AttackFamily> {
    vec![
        AttackFamily {
            name: "rtf",
            grammar: "Robbing the Fed with N attacked imprint neurons (rtf:N)",
            canon: |args| {
                let neurons = parse_neurons("rtf", args.ok_or_else(no_args)?)?;
                Ok(Some(neurons.to_string()))
            },
            build: |args, calibration, _classes| {
                let neurons = parse_neurons("rtf", args.ok_or_else(no_args)?)?;
                Ok(Box::new(RtfAttack::calibrated(neurons, calibration)?))
            },
            calibration: |_| 256,
            with_neurons: |_, neurons| Some(neurons.to_string()),
            unique_labels: false,
        },
        AttackFamily {
            name: "cah",
            grammar: "Curious Abandon Honesty, N trap neurons, activation target G (cah:N[,G])",
            canon: |args| {
                let (neurons, gamma) = parse_cah(args)?;
                Ok(Some(cah_args(neurons, gamma)))
            },
            build: |args, calibration, _classes| {
                let (neurons, gamma) = parse_cah(args)?;
                Ok(Box::new(CahAttack::calibrated(
                    neurons,
                    gamma,
                    calibration,
                    CAH_WEIGHT_SEED,
                )?))
            },
            calibration: |_| 384,
            with_neurons: |args, neurons| {
                let gamma = parse_cah(args)
                    .map(|(_, g)| g)
                    .unwrap_or(DEFAULT_ACTIVATION_TARGET);
                Some(cah_args(neurons, gamma))
            },
            unique_labels: false,
        },
        AttackFamily {
            name: "qbi",
            grammar: "quantile-based bias init, N neurons tuned for batch B (qbi:N[,B])",
            canon: |args| {
                let (neurons, batch) = parse_qbi(args)?;
                Ok(Some(qbi_args(neurons, batch)))
            },
            build: |args, calibration, _classes| {
                let (neurons, batch) = parse_qbi(args)?;
                Ok(Box::new(QbiAttack::calibrated(
                    neurons,
                    batch,
                    calibration,
                    QBI_WEIGHT_SEED,
                )?))
            },
            calibration: |_| 256,
            with_neurons: |args, neurons| {
                let batch = parse_qbi(args).map(|(_, b)| b).unwrap_or(DEFAULT_QBI_BATCH);
                Some(qbi_args(neurons, batch))
            },
            unique_labels: false,
        },
        AttackFamily {
            name: "linear",
            grammar: "gradient inversion on a single-layer softmax model (no arguments)",
            canon: |args| {
                if args.is_some() {
                    return Err(ScenarioError::BadSpec("`linear` takes no arguments".into()));
                }
                Ok(None)
            },
            build: |_, _, classes| Ok(Box::new(LinearModelAttack::new(classes)?)),
            calibration: |_| 0,
            with_neurons: |_, _| None,
            unique_labels: true,
        },
    ]
}

fn parse_cah(args: Option<&str>) -> Result<(usize, f64), ScenarioError> {
    let args = args.ok_or_else(no_args)?;
    let (neurons_str, gamma_str) = match args.split_once(',') {
        Some((n, g)) => (n, Some(g)),
        None => (args, None),
    };
    let neurons = parse_neurons("cah", neurons_str)?;
    let gamma = match gamma_str {
        Some(g) => parse_field::<f64>("cah", "gamma", g)?,
        None => DEFAULT_ACTIVATION_TARGET,
    };
    Ok((neurons, gamma))
}

/// Canonical `cah` args: the default activation target is elided.
pub(crate) fn cah_args(neurons: usize, gamma: f64) -> String {
    if gamma == DEFAULT_ACTIVATION_TARGET {
        neurons.to_string()
    } else {
        format!("{neurons},{gamma}")
    }
}

fn parse_qbi(args: Option<&str>) -> Result<(usize, usize), ScenarioError> {
    let args = args.ok_or_else(no_args)?;
    let (neurons_str, batch_str) = match args.split_once(',') {
        Some((n, b)) => (n, Some(b)),
        None => (args, None),
    };
    let neurons = parse_neurons("qbi", neurons_str)?;
    let batch = match batch_str {
        Some(b) => parse_field::<usize>("qbi", "batch", b)?,
        None => DEFAULT_QBI_BATCH,
    };
    if batch < 2 {
        return Err(ScenarioError::BadSpec(format!(
            "qbi batch target must be at least 2, got `{batch}`"
        )));
    }
    Ok((neurons, batch))
}

/// Canonical `qbi` args: the default batch target is elided.
pub(crate) fn qbi_args(neurons: usize, batch: usize) -> String {
    if batch == DEFAULT_QBI_BATCH {
        neurons.to_string()
    } else {
        format!("{neurons},{batch}")
    }
}

fn builtin_defenses() -> Vec<DefenseFamily> {
    vec![
        DefenseFamily {
            name: "oasis",
            grammar:
                "OASIS additive augmentation, policy P in WO|MR|mR|SH|HFlip|VFlip|MR+SH (oasis:P)",
            canon: |args| {
                let kind = parse_policy(args)?;
                Ok(Some(kind.abbrev().to_string()))
            },
            build: |args| {
                let kind = parse_policy(args)?;
                Ok(Box::new(oasis::Oasis::new(oasis::OasisConfig::policy(
                    kind,
                ))))
            },
        },
        DefenseFamily {
            name: "ats",
            grammar: "ATSPrivacy-style transform replacement (no arguments)",
            canon: |args| {
                if args.is_some() {
                    return Err(ScenarioError::BadSpec("`ats` takes no arguments".into()));
                }
                Ok(None)
            },
            build: |_| Ok(Box::new(AtsDefense::searched())),
        },
        DefenseFamily {
            name: "dp",
            grammar: "DP-SGD update stage: per-sample clip C, noise multiplier S (dp:C,S)",
            canon: |args| {
                let (clip, noise) = parse_dp(args)?;
                Ok(Some(format!("{clip},{noise}")))
            },
            build: |args| {
                let (clip, noise) = parse_dp(args)?;
                Ok(Box::new(DpStage::new(clip, noise)))
            },
        },
        DefenseFamily {
            name: "clip",
            grammar: "clip-only update stage: bound the update's L2 norm, no noise (clip:C)",
            canon: |args| {
                let clip = parse_field::<f32>("clip", "clip", args.ok_or_else(no_args)?)?;
                if clip <= 0.0 {
                    return Err(ScenarioError::BadSpec(format!(
                        "clip bound must be positive, got `{clip}`"
                    )));
                }
                Ok(Some(clip.to_string()))
            },
            build: |args| {
                let clip = parse_field::<f32>("clip", "clip", args.ok_or_else(no_args)?)?;
                Ok(Box::new(ClipStage::new(clip)))
            },
        },
    ]
}

fn parse_policy(args: Option<&str>) -> Result<PolicyKind, ScenarioError> {
    args.ok_or_else(no_args)?
        .parse::<PolicyKind>()
        .map_err(|e| ScenarioError::BadSpec(e.to_string()))
}

fn parse_dp(args: Option<&str>) -> Result<(f32, f32), ScenarioError> {
    let args = args.ok_or_else(no_args)?;
    let (clip_str, noise_str) = args
        .split_once(',')
        .ok_or_else(|| ScenarioError::BadSpec("dp spec needs `dp:CLIP,NOISE`".into()))?;
    let clip = parse_field::<f32>("dp", "clip", clip_str)?;
    let noise = parse_field::<f32>("dp", "noise", noise_str)?;
    if clip <= 0.0 {
        return Err(ScenarioError::BadSpec(format!(
            "dp clip bound must be positive, got `{clip}`"
        )));
    }
    if noise < 0.0 {
        return Err(ScenarioError::BadSpec(format!(
            "dp noise multiplier must be non-negative, got `{noise}`"
        )));
    }
    Ok((clip, noise))
}

impl std::fmt::Debug for AttackFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AttackFamily")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl std::fmt::Debug for DefenseFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DefenseFamily")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_families_are_registered() {
        // Prefix assertions, not exact equality: the registry is
        // process-global and a sibling test registers extra families.
        let attacks: Vec<&str> = attack_families().iter().map(|&(n, _)| n).collect();
        assert!(
            attacks.starts_with(&["rtf", "cah", "qbi", "linear"]),
            "{attacks:?}"
        );
        let defenses: Vec<&str> = defense_families().iter().map(|&(n, _)| n).collect();
        assert!(
            defenses.starts_with(&["oasis", "ats", "dp", "clip"]),
            "{defenses:?}"
        );
    }

    #[test]
    fn unknown_families_name_the_registered_ones() {
        let err = attack_family("warp").unwrap_err().to_string();
        assert!(err.contains("rtf"), "{err}");
        let err = defense_family("dropout").unwrap_err().to_string();
        assert!(err.contains("oasis"), "{err}");
    }

    #[test]
    fn registering_a_family_makes_it_buildable() {
        // A no-op defense family registered at runtime — the
        // one-`register()`-call extension path the registry exists for.
        register_defense_family(DefenseFamily {
            name: "test-noop",
            grammar: "registered-at-runtime no-op (test only)",
            canon: |_| Ok(None),
            build: |_| Ok(Box::new(oasis_fl::IdentityPreprocessor)),
        })
        .expect("first registration succeeds");
        assert!(defense_family("test-noop").is_ok());
        // Name collisions are rejected.
        let err = register_defense_family(DefenseFamily {
            name: "test-noop",
            grammar: "",
            canon: |_| Ok(None),
            build: |_| Ok(Box::new(oasis_fl::IdentityPreprocessor)),
        });
        assert!(err.is_err());
        // And the catalog lists it.
        assert!(spec_catalog().contains("test-noop"));
    }

    #[test]
    fn catalog_names_every_dimension() {
        let catalog = spec_catalog();
        for needle in [
            "attack families:",
            "defense families",
            "workloads:",
            "codecs:",
            "nets:",
            "population",
            "scales:",
            "rtf",
            "cah",
            "linear",
            "oasis",
            "ats",
            "dp",
            "clip",
            "none",
            "topk:K",
            "sim:LAT",
            "population:N",
            "sample:K",
            "qbi",
            "campaigns",
            "campaign:PHASES",
            "alpha=A",
        ] {
            assert!(
                catalog.contains(needle),
                "catalog missing `{needle}`:\n{catalog}"
            );
        }
    }

    #[test]
    fn dp_rejects_bad_parameters() {
        assert!(parse_dp(Some("0,1")).is_err());
        assert!(parse_dp(Some("1,-2")).is_err());
        assert!(parse_dp(Some("1,0.5")).is_ok());
    }
}
