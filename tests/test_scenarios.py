"""Scenario engine: registry, determinism, knob movement, and quality.

The contract under test is three-layered:

* **registry** — every shipped profile is a pinned-seed
  :class:`~repro.world.scenarios.ScenarioSpec` with its own seed block,
  and the injector specs validate their parameters;
* **determinism** — building the same profile twice yields the same
  bundle fingerprint;
* **knobs and quality** — each stress profile measurably moves its
  target axis relative to ``baseline``, and the quality harness scores
  every profile above its pinned floor (with the burst profile's
  delta-ingest leg byte-identical to the one-shot build).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.eval.scenarios import (
    QUALITY_FLOORS,
    ScenarioScore,
    check_floors,
    evaluate_matrix,
)
from repro.eval.metrics import PRF
from repro.world.scenarios import (
    SCENARIOS,
    DriftSpec,
    NoiseSpec,
    build_scenario,
)


@pytest.fixture(scope="module")
def bundles():
    return {name: build_scenario(name) for name in SCENARIOS}


@pytest.fixture(scope="module")
def knobs(bundles):
    return {name: bundle.knobs() for name, bundle in bundles.items()}


@pytest.fixture(scope="module")
def scores():
    return evaluate_matrix()


class TestRegistry:
    def test_at_least_six_profiles(self):
        assert len(SCENARIOS) >= 6
        assert set(SCENARIOS) >= {
            "baseline",
            "burst_social",
            "adversarial_noise",
            "heavy_ambiguity",
            "temporal_drift",
            "multilingual_skew",
        }

    def test_every_profile_has_its_own_seed_block(self):
        blocks = {
            (spec.world.seed, spec.wiki.seed, spec.corpus.seed)
            for spec in SCENARIOS.values()
        }
        assert len(blocks) == len(SCENARIOS)
        seeds = [
            seed for block in blocks for seed in block
        ]
        assert len(seeds) == len(set(seeds))

    def test_registry_keys_match_spec_names(self):
        assert all(spec.name == name for name, spec in SCENARIOS.items())

    def test_every_profile_has_a_quality_floor(self):
        assert set(QUALITY_FLOORS) == set(SCENARIOS)

    def test_specs_are_frozen(self):
        spec = SCENARIOS["baseline"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.name = "renamed"

    def test_unknown_profile_raises_with_known_names(self):
        with pytest.raises(KeyError, match="unknown scenario 'nope'"):
            build_scenario("nope")
        with pytest.raises(KeyError, match="baseline"):
            build_scenario("nope")

    @pytest.mark.parametrize("p_false", [-0.1, 1.5])
    def test_noise_spec_validates_probabilities(self, p_false):
        with pytest.raises(ValueError, match="p_false"):
            NoiseSpec(p_false=p_false)

    def test_drift_spec_validates(self):
        with pytest.raises(ValueError, match="fraction"):
            DriftSpec(fraction=1.5)
        with pytest.raises(ValueError, match="extra_spans"):
            DriftSpec(extra_spans=0)


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_fingerprint_stable_across_builds(self, bundles, name):
        rebuilt = build_scenario(name)
        assert rebuilt.fingerprint() == bundles[name].fingerprint()
        assert rebuilt.gold_fact_keys() == bundles[name].gold_fact_keys()

    def test_fingerprints_distinct_across_profiles(self, bundles):
        prints = {b.fingerprint() for b in bundles.values()}
        assert len(prints) == len(bundles)


class TestKnobs:
    def test_burst_ratio(self, knobs):
        assert knobs["burst_social"]["burst_ratio"] >= 10.0
        assert knobs["baseline"]["burst_ratio"] < 5.0

    def test_false_sentence_rate(self, knobs):
        assert (
            knobs["adversarial_noise"]["false_sentence_rate"]
            > knobs["baseline"]["false_sentence_rate"] + 0.1
        )

    def test_surname_ambiguity(self, knobs):
        assert (
            knobs["heavy_ambiguity"]["surname_ambiguity_degree"]
            > knobs["baseline"]["surname_ambiguity_degree"] + 1.0
        )
        assert (
            knobs["heavy_ambiguity"]["alias_collision_rate"]
            > knobs["baseline"]["alias_collision_rate"]
        )

    def test_drift_pairs(self, knobs):
        assert knobs["temporal_drift"]["drift_pairs"] >= 10
        assert knobs["baseline"]["drift_pairs"] == 0

    def test_interlanguage_spread(self, knobs):
        assert (
            knobs["multilingual_skew"]["interlanguage_spread"]
            > knobs["baseline"]["interlanguage_spread"] + 0.3
        )

    def test_burst_scenario_keeps_prefold_seed_corpus(self, bundles):
        bundle = bundles["burst_social"]
        assert bundle.base_wiki is not None
        assert bundle.changed_pages
        for page in bundle.changed_pages:
            base = bundle.base_wiki.pages[page.title]
            assert len(page.document.sentences) > len(base.document.sentences)

    def test_noise_scenario_reports_injected_sentences(self, bundles):
        assert bundles["adversarial_noise"].injected_false > 0
        assert bundles["baseline"].injected_false == 0


class TestQuality:
    def test_all_profiles_above_their_floors(self, scores):
        assert [s.name for s in scores] == list(SCENARIOS)
        assert check_floors(scores) == []

    def test_reasoning_win_on_adversarial_noise(self, scores):
        adversarial = next(
            s for s in scores if s.name == "adversarial_noise"
        )
        # The whole point of the scenario: extraction precision is dragged
        # down by the injected conflicts, and MaxSat pulls it back up.
        assert adversarial.extraction.precision < 0.9
        assert adversarial.kb.precision > adversarial.extraction.precision

    def test_burst_delta_ingest_byte_identical(self, scores):
        burst = next(s for s in scores if s.name == "burst_social")
        assert burst.incremental_identical is True
        assert burst.ingest_pages > 0

    def test_telemetry_is_greppable(self, scores):
        for score in scores:
            line = score.telemetry()
            assert line.startswith(f"scenario: name={score.name} ")
            assert " kb_f1=" in line and " extraction_f1=" in line

    def test_check_floors_flags_low_quality(self):
        bad = ScenarioScore(name="baseline", kb=PRF(0.5, 0.5, 0.5))
        violations = check_floors([bad])
        assert any("kb_f1" in v and "below floor" in v for v in violations)

    def test_check_floors_flags_diverged_incremental(self):
        diverged = ScenarioScore(
            name="burst_social",
            extraction=PRF(1.0, 1.0, 1.0),
            kb=PRF(1.0, 1.0, 1.0),
            incremental_identical=False,
        )
        assert any(
            "diverged" in v for v in check_floors([diverged])
        )

    def test_check_floors_ignores_unknown_profiles(self):
        custom = ScenarioScore(name="my_custom_profile")
        assert check_floors([custom]) == []
