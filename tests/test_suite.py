import hashlib
import json

import pytest

from maxplus_tc import (
    PROPERTY_NAMES,
    SuiteConfig,
    run_property,
    run_property_suite,
)
from maxplus_tc.generators import Lcg64
from maxplus_tc.suite import PROPERTIES, _property_seed


class TestSuite:
    def test_small_run_passes(self):
        summary = run_property_suite(SuiteConfig(seed=5, trials=5))
        assert summary.failures_total == 0
        assert all(p.trials == 5 for p in summary.properties)
        assert {p.name for p in summary.properties} == set(PROPERTY_NAMES)

    def test_summary_bytes_deterministic(self):
        cfg = SuiteConfig(seed=12345, trials=4)
        a = json.dumps(run_property_suite(cfg).to_json_dict())
        b = json.dumps(run_property_suite(cfg).to_json_dict())
        assert a == b

    def test_different_seeds_differ_somewhere(self):
        # determinism is per seed; the machine summary carries the seed
        a = run_property_suite(SuiteConfig(seed=1, trials=2)).to_json_dict()
        b = run_property_suite(SuiteConfig(seed=2, trials=2)).to_json_dict()
        assert a != b

    def test_zero_trials_vacuous_with_warning(self):
        summary = run_property_suite(SuiteConfig(seed=1, trials=0))
        assert summary.failures_total == 0
        assert summary.warning is not None
        assert summary.to_json_dict()["warning"]

    def test_machine_summary_has_no_timing(self):
        summary = run_property_suite(SuiteConfig(seed=1, trials=1))
        text = json.dumps(summary.to_json_dict())
        assert "elapsed" not in text
        assert summary.elapsed > 0

    def test_text_rendering_mentions_wall_time(self):
        summary = run_property_suite(SuiteConfig(seed=1, trials=1))
        assert "wall time" in summary.render_text()

    def test_single_property_runner(self):
        report = run_property(
            "mapping_roundtrip_scales_rate", seed=7, trials=20, cfg=SuiteConfig(seed=7)
        )
        assert report.trials == 20
        assert report.passed

    def test_unknown_property_rejected(self):
        with pytest.raises(KeyError):
            run_property("no_such_property", seed=1, trials=1, cfg=SuiteConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SuiteConfig(trials=-1)
        with pytest.raises(ValueError):
            SuiteConfig(max_flows=1)
        with pytest.raises(ValueError):
            SuiteConfig(max_packets=0)

    def test_trials_and_draws_are_pinned(self):
        # A passing run's summary names only properties and trial counts,
        # so pin what the trials themselves do: each trial's outcome and the
        # generator state after it, for every property.
        cfg = SuiteConfig(seed=7, trials=40, max_packets=100)
        digest = hashlib.sha256()
        for index, (_, fn) in enumerate(PROPERTIES):
            rng = Lcg64(_property_seed(cfg.seed, index))
            for _ in range(cfg.trials):
                outcome = fn(rng, cfg)
                digest.update(repr((outcome, rng.state)).encode())
        assert digest.hexdigest() == (
            "4d595b2695fc734cabd9888e7d89baaaca98c6e64958e7c8bb3ec462af9a8e89"
        )
