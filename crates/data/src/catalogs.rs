//! Simulacra of the exact dataset slices the paper evaluates on.
//!
//! The coverage algorithms never see pixels — only the latent composition
//! and presentation order matter, because every crowd answer is a function
//! of an object's latent labels (see `docs/ARCHITECTURE.md`, `crates/data`).
//! Each constructor
//! reproduces the composition reported in the paper and shuffles with the
//! caller's RNG.

use crate::dataset::Dataset;
use crate::features::ShiftedFeatureModel;
use crate::synth::{DatasetBuilder, Placement};
use coverage_core::pattern::Pattern;
use coverage_core::schema::{Attribute, AttributeSchema};
use rand::Rng;

/// Schema used by all gender slices: `gender ∈ {male, female}`
/// (female = value 1).
pub fn gender_schema() -> AttributeSchema {
    AttributeSchema::single_binary("gender", "male", "female")
}

/// FERET slice used in the Table 1 MTurk experiments:
/// 215 females, 1307 males (N = 1522).
pub fn feret_215_1307<R: Rng + ?Sized>(rng: &mut R) -> Dataset {
    DatasetBuilder::new(gender_schema())
        .counts(&[1307, 215])
        .placement(Placement::Shuffled)
        .build(rng)
}

/// FERET slice of unique individuals used in Table 2:
/// 403 females, 591 males (N = 994).
pub fn feret_403_591<R: Rng + ?Sized>(rng: &mut R) -> Dataset {
    DatasetBuilder::new(gender_schema())
        .counts(&[591, 403])
        .placement(Placement::Shuffled)
        .build(rng)
}

/// UTKFace 3000-point subset, covered case: 200 females, 2800 males.
pub fn utkface_200_2800<R: Rng + ?Sized>(rng: &mut R) -> Dataset {
    DatasetBuilder::new(gender_schema())
        .counts(&[2800, 200])
        .placement(Placement::Shuffled)
        .build(rng)
}

/// UTKFace 3000-point subset, uncovered case: 20 females, 2980 males.
pub fn utkface_20_2980<R: Rng + ?Sized>(rng: &mut R) -> Dataset {
    DatasetBuilder::new(gender_schema())
        .counts(&[2980, 20])
        .placement(Placement::Shuffled)
        .build(rng)
}

/// Schema of the MRL-eye simulacrum: `eye ∈ {open, closed}` ×
/// `glasses ∈ {none, spectacled}`.
pub fn mrl_schema() -> AttributeSchema {
    AttributeSchema::new(vec![
        Attribute::binary("eye", "open", "closed").expect("binary"),
        Attribute::binary("glasses", "none", "spectacled").expect("binary"),
    ])
    .expect("schema")
}

/// MRL-eye training simulacrum (§6.4.1): 26 480 infrared eye images —
/// 14 279 open + 12 201 closed — with **zero** spectacled subjects
/// (the intentionally uncovered region), plus `extra_spectacled` spectacled
/// images added back to *each class* (the paper adds 20..100 per class).
/// Feature vectors are attached with the spectacled group shifted.
pub fn mrl_eye_train<R: Rng + ?Sized>(extra_spectacled_per_class: usize, rng: &mut R) -> Dataset {
    // full_groups order over (eye, glasses): (open,none), (open,spec),
    // (closed,none), (closed,spec).
    let d = DatasetBuilder::new(mrl_schema())
        .counts(&[
            14_279,
            extra_spectacled_per_class,
            12_201,
            extra_spectacled_per_class,
        ])
        .placement(Placement::Shuffled)
        .build(rng);
    mrl_feature_model().attach(d, rng)
}

/// Down-scaled MRL-eye training simulacrum for quick experiments and tests:
/// `base_per_class` unspectacled images per class plus
/// `extra_spectacled_per_class` spectacled ones.
pub fn mrl_eye_train_sampled<R: Rng + ?Sized>(
    base_per_class: usize,
    extra_spectacled_per_class: usize,
    rng: &mut R,
) -> Dataset {
    let d = DatasetBuilder::new(mrl_schema())
        .counts(&[
            base_per_class,
            extra_spectacled_per_class,
            base_per_class,
            extra_spectacled_per_class,
        ])
        .placement(Placement::Shuffled)
        .build(rng);
    mrl_feature_model().attach(d, rng)
}

/// MRL-eye evaluation sets: a random mixed test set and an all-spectacled
/// test set, both class-balanced.
pub fn mrl_eye_test<R: Rng + ?Sized>(rng: &mut R) -> (Dataset, Dataset) {
    let mixed = DatasetBuilder::new(mrl_schema())
        .counts(&[700, 300, 700, 300])
        .placement(Placement::Shuffled)
        .build(rng);
    let spectacled = DatasetBuilder::new(mrl_schema())
        .counts(&[0, 1000, 0, 1000])
        .placement(Placement::Shuffled)
        .build(rng);
    let model = mrl_feature_model();
    (model.attach(mixed, rng), model.attach(spectacled, rng))
}

fn mrl_feature_model() -> ShiftedFeatureModel {
    // Class attribute 0 (eye open/closed); spectacled subgroup shifted.
    ShiftedFeatureModel::new(0, Pattern::parse("X1").expect("pattern"))
}

/// Schema of the UTKFace downstream simulacrum: `gender` × `race`
/// (`race ∈ {caucasian, black}` — the paper trains on Caucasian only).
pub fn utkface_downstream_schema() -> AttributeSchema {
    AttributeSchema::new(vec![
        Attribute::binary("gender", "male", "female").expect("binary"),
        Attribute::binary("race", "caucasian", "black").expect("binary"),
    ])
    .expect("schema")
}

/// UTKFace gender-detection training simulacrum (§6.4.2): 7 055 faces —
/// 3 834 male + 3 221 female, Caucasian only — plus `extra_black_per_class`
/// Black subjects added back to each gender class. Features attached with
/// the Black subgroup shifted.
pub fn utkface_gender_train<R: Rng + ?Sized>(extra_black_per_class: usize, rng: &mut R) -> Dataset {
    // full_groups order over (gender, race): (m,cauc), (m,black),
    // (f,cauc), (f,black).
    let d = DatasetBuilder::new(utkface_downstream_schema())
        .counts(&[3834, extra_black_per_class, 3221, extra_black_per_class])
        .placement(Placement::Shuffled)
        .build(rng);
    utkface_feature_model().attach(d, rng)
}

/// Down-scaled UTKFace gender-training simulacrum for quick experiments:
/// `base_per_class` Caucasian faces per gender plus
/// `extra_black_per_class` Black faces per gender.
pub fn utkface_gender_train_sampled<R: Rng + ?Sized>(
    base_per_class: usize,
    extra_black_per_class: usize,
    rng: &mut R,
) -> Dataset {
    let d = DatasetBuilder::new(utkface_downstream_schema())
        .counts(&[
            base_per_class,
            extra_black_per_class,
            base_per_class,
            extra_black_per_class,
        ])
        .placement(Placement::Shuffled)
        .build(rng);
    utkface_feature_model().attach(d, rng)
}

/// UTKFace evaluation sets: mixed-race and all-Black, gender-balanced.
pub fn utkface_gender_test<R: Rng + ?Sized>(rng: &mut R) -> (Dataset, Dataset) {
    let mixed = DatasetBuilder::new(utkface_downstream_schema())
        .counts(&[800, 200, 800, 200])
        .placement(Placement::Shuffled)
        .build(rng);
    let black = DatasetBuilder::new(utkface_downstream_schema())
        .counts(&[0, 1000, 0, 1000])
        .placement(Placement::Shuffled)
        .build(rng);
    let model = utkface_feature_model();
    (model.attach(mixed, rng), model.attach(black, rng))
}

fn utkface_feature_model() -> ShiftedFeatureModel {
    // Gender is the task class; Black subjects carry the shifted signal.
    // The paper reports only ≈1% disparity here (vs ≈10% for MRL), so the
    // rotation is milder.
    let mut m = ShiftedFeatureModel::new(0, Pattern::parse("X1").expect("pattern"));
    m.rotation = 0.6;
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use coverage_core::target::Target;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn female_count(d: &Dataset) -> usize {
        d.count(&Target::group(Pattern::parse("1").unwrap()))
    }

    #[test]
    fn feret_compositions() {
        let mut rng = SmallRng::seed_from_u64(0);
        let d = feret_215_1307(&mut rng);
        assert_eq!(d.len(), 1522);
        assert_eq!(female_count(&d), 215);
        let d = feret_403_591(&mut rng);
        assert_eq!(d.len(), 994);
        assert_eq!(female_count(&d), 403);
    }

    #[test]
    fn utkface_compositions() {
        let mut rng = SmallRng::seed_from_u64(0);
        let d = utkface_200_2800(&mut rng);
        assert_eq!(d.len(), 3000);
        assert_eq!(female_count(&d), 200);
        let d = utkface_20_2980(&mut rng);
        assert_eq!(d.len(), 3000);
        assert_eq!(female_count(&d), 20);
    }

    #[test]
    fn mrl_train_composition_matches_paper() {
        let mut rng = SmallRng::seed_from_u64(0);
        let d = mrl_eye_train(0, &mut rng);
        assert_eq!(d.len(), 26_480);
        let open = d.count(&Target::group(Pattern::parse("0X").unwrap()));
        let closed = d.count(&Target::group(Pattern::parse("1X").unwrap()));
        assert_eq!(open, 14_279);
        assert_eq!(closed, 12_201);
        let spectacled = d.count(&Target::group(Pattern::parse("X1").unwrap()));
        assert_eq!(spectacled, 0, "spectacled region intentionally uncovered");
        assert_eq!(d.features().rows(), d.len());
    }

    #[test]
    fn mrl_extra_spectacled_added_per_class() {
        let mut rng = SmallRng::seed_from_u64(0);
        let d = mrl_eye_train(60, &mut rng);
        let spectacled = d.count(&Target::group(Pattern::parse("X1").unwrap()));
        assert_eq!(spectacled, 120);
        let spec_open = d.count(&Target::group(Pattern::parse("01").unwrap()));
        assert_eq!(spec_open, 60);
    }

    #[test]
    fn mrl_test_sets_shapes() {
        let mut rng = SmallRng::seed_from_u64(0);
        let (mixed, spec) = mrl_eye_test(&mut rng);
        assert_eq!(mixed.len(), 2000);
        assert_eq!(spec.len(), 2000);
        assert_eq!(
            spec.count(&Target::group(Pattern::parse("X1").unwrap())),
            2000
        );
        assert!(!mixed.features().is_empty());
    }

    #[test]
    fn utkface_downstream_composition() {
        let mut rng = SmallRng::seed_from_u64(0);
        let d = utkface_gender_train(0, &mut rng);
        assert_eq!(d.len(), 7055);
        let male = d.count(&Target::group(Pattern::parse("0X").unwrap()));
        assert_eq!(male, 3834);
        let black = d.count(&Target::group(Pattern::parse("X1").unwrap()));
        assert_eq!(black, 0);
        let d = utkface_gender_train(100, &mut rng);
        let black = d.count(&Target::group(Pattern::parse("X1").unwrap()));
        assert_eq!(black, 200);
    }
}
