"""The chaos harness itself: plan round-trips and a short live run.

The long acceptance runs happen in CI (chaos-smoke) and by hand; here
we pin the harness's own contract — a seeded plan is reproducible from
its manifest, and a brief low-violence run against a real daemon comes
back clean with every accepted request answered byte-identically.
"""

import pytest

from repro.qa import ChaosPlan, format_chaos_report, run_chaos


class TestPlan:
    def test_manifest_round_trip(self):
        plan = ChaosPlan(seed=42, duration_s=9.0, clients=3,
                         torn_rate=0.2)
        assert ChaosPlan.from_manifest(plan.manifest()) == plan

    def test_unknown_version_rejected(self):
        manifest = ChaosPlan(seed=1).manifest()
        manifest["version"] = 99
        with pytest.raises(ValueError, match="version"):
            ChaosPlan.from_manifest(manifest)

    def test_role_streams_are_deterministic_and_independent(self):
        plan = ChaosPlan(seed=7)
        first = plan.rng("client:0").random()
        assert plan.rng("client:0").random() == first
        assert plan.rng("client:1").random() != first
        assert plan.rng("killer").random() != first


class TestShortRun:
    def test_brief_seeded_run_is_clean(self, tmp_path):
        report = run_chaos(seed=11, duration_s=4.0, clients=2,
                           workers=2, kill_interval_s=1.5,
                           socket_reset_rate=0.03, torn_rate=0.05,
                           slow_rate=0.05, deadline_storm_rate=0.1,
                           refusal_burst_s=2.0,
                           blackbox_dir=str(tmp_path / "blackbox"))
        assert report["violations"] == []
        assert report["ok"] is True
        requests = report["requests"]
        assert requests["sent"] > 0
        assert requests["ok"] > 0
        # Every successful response matched the CLI byte-for-byte.
        assert requests["byte_identical"] == requests["ok"]
        # Every error drawn from the allowed refusal vocabulary.
        allowed = {"overloaded", "draining", "deadline_exceeded"}
        for reason in requests["errors"]:
            assert reason in allowed or \
                reason.startswith(("op_timeout", "worker died twice"))
        assert report["plan"]["seed"] == 11
        assert report["daemon"]["state"] == "healthy"
        # The workers' store traffic reaches the report.
        assert report["store"]["writes"] > 0
        rendered = format_chaos_report(report)
        assert "verdict PASS" in rendered
        assert "seed 11" in rendered
