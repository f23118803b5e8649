"""Unit tests for the deterministic fault-injection subsystem."""

import pytest

from repro.exceptions import ReproError
from repro.faults import (
    ENV_PLAN,
    ENV_SEED,
    FaultPlan,
    FaultPlanError,
    FaultyIndex,
    InjectedFault,
)
from repro.obs import Recorder


def test_parse_grammar():
    plan = FaultPlan.parse(
        "scan.fail:0.5, scan.slow:1@250ms, conn.reset:0.25x3", seed=1
    )
    snap = plan.snapshot()
    assert snap["scan.fail"]["probability"] == 0.5
    assert snap["scan.slow"]["delay_ms"] == 250.0
    assert snap["conn.reset"]["max_fires"] == 3
    assert plan.active
    assert plan.targets("scan.fail", "index.load")
    assert not plan.targets("index.load")


def test_empty_spec_is_inactive():
    plan = FaultPlan.parse("  ")
    assert not plan.active
    assert not plan.should_fire("scan.fail")


@pytest.mark.parametrize(
    "spec",
    [
        "scan.fail",
        "scan.fail:2.0",
        "scan.fail:-0.1",
        "bogus.site:0.5",
        "scan.fail:half",
        "scan.slow:0.1@soon",
        "conn.reset:0.1xfew",
        "scan.fail:0.1,scan.fail:0.2",
        "flush.fail:1.0",
    ],
)
def test_bad_specs_rejected(spec):
    with pytest.raises(FaultPlanError):
        FaultPlan.parse(spec)


def test_fault_plan_error_is_repro_error():
    assert issubclass(FaultPlanError, ReproError)


def test_injected_fault_is_not_a_repro_error():
    # Injected faults model infrastructure crashes: the server must
    # treat them as 500s (and breaker strikes), never as client 400s.
    assert not issubclass(InjectedFault, ReproError)


def _draws(seed, n=200):
    plan = FaultPlan.parse("scan.fail:0.3", seed=seed)
    return [plan.should_fire("scan.fail") for _ in range(n)]


def test_firing_is_deterministic_per_seed():
    assert _draws(7) == _draws(7)
    assert _draws(7) != _draws(8)
    assert 0 < sum(_draws(7)) < 200  # actually probabilistic


def test_sites_draw_independently():
    # Adding a rule for one site must not shift another site's
    # sequence — the property that keeps chaos tests reproducible as
    # plans grow.
    solo = FaultPlan.parse("scan.fail:0.3", seed=5)
    combo = FaultPlan.parse("scan.fail:0.3,conn.reset:0.9", seed=5)
    solo_seq, combo_seq = [], []
    for _ in range(100):
        combo.should_fire("conn.reset")
        solo_seq.append(solo.should_fire("scan.fail"))
        combo_seq.append(combo.should_fire("scan.fail"))
    assert solo_seq == combo_seq


def test_max_fires_caps_injection():
    plan = FaultPlan.parse("scan.fail:1.0x3")
    fired = sum(plan.should_fire("scan.fail") for _ in range(10))
    assert fired == 3
    assert plan.fired("scan.fail") == 3
    assert not plan.active  # the only site is exhausted


def test_check_raises_with_site():
    plan = FaultPlan.parse("index.load:1.0")
    with pytest.raises(InjectedFault) as excinfo:
        plan.check("index.load")
    assert excinfo.value.site == "index.load"
    plan.check("scan.fail")  # no rule: never fires


def test_from_env():
    assert FaultPlan.from_env({}) is None
    assert FaultPlan.from_env({ENV_PLAN: "   "}) is None
    plan = FaultPlan.from_env({ENV_PLAN: "scan.fail:0.5", ENV_SEED: "9"})
    assert plan.seed == 9 and plan.targets("scan.fail")
    with pytest.raises(FaultPlanError):
        FaultPlan.from_env({ENV_PLAN: "scan.fail:0.5", ENV_SEED: "nine"})


def test_recorder_counts_checks_and_fires():
    rec = Recorder()
    plan = FaultPlan.parse("scan.fail:1.0", recorder=rec)
    plan.should_fire("scan.fail")
    counters = rec.metrics_snapshot()["counters"]
    assert counters["faults.checked.scan.fail"] == 1
    assert counters["faults.fired.scan.fail"] == 1


class _Stub:
    def query(self, source, target):
        return (source, target)

    def query_batch(self, pairs):
        return list(pairs)

    def stats(self):
        return "stats"


def test_faulty_index_injects_then_delegates():
    plan = FaultPlan.parse("scan.fail:1.0x1")
    faulty = FaultyIndex(_Stub(), plan)
    with pytest.raises(InjectedFault):
        faulty.query(1, 2)
    # the single permitted fire is spent: scans work again
    assert faulty.query(1, 2) == (1, 2)
    assert faulty.query_batch([(1, 2)]) == [(1, 2)]


def test_faulty_index_passes_diagnostics_through():
    # Chaos corrupts availability, never the reference values tests
    # compare against: stats() and attribute reads are untouched.
    plan = FaultPlan.parse("scan.fail:1.0")
    faulty = FaultyIndex(_Stub(), plan)
    assert faulty.stats() == "stats"


def test_faulty_index_slow_site_counts():
    plan = FaultPlan.parse("scan.slow:1.0@0x2")
    faulty = FaultyIndex(_Stub(), plan)
    faulty.query(1, 2)
    faulty.query_batch([(3, 4)])
    assert plan.fired("scan.slow") == 2
