"""Tests for the paper-scenario builders."""

import pytest

from repro.core.dcn import DcnCcaPolicy
from repro.experiments.scenarios import (
    case_one,
    case_three,
    case_two,
    cprr_rig,
    dcn_only_on,
    dcn_policy_factory,
    evaluation_plan,
    evaluation_testbed,
    five_network_plan,
    motivation_plan,
    section_iv_rig,
    standard_testbed,
    wideband_plan,
)
from repro.mac.cca import DisabledCca, FixedCcaThreshold


def test_plans_have_paper_channel_counts():
    assert motivation_plan(9.0).num_channels == 1
    assert motivation_plan(3.0).num_channels == 4
    assert motivation_plan(2.0).num_channels == 6
    assert five_network_plan(3.0).num_channels == 5
    assert evaluation_plan(3.0).num_channels == 6
    assert evaluation_plan(5.0).num_channels == 4
    assert wideband_plan().num_channels == 7


def test_five_network_plan_n0_is_median():
    plan = five_network_plan(3.0)
    centers = sorted(plan.centers_mhz)
    assert plan.centers_mhz[0] == centers[len(centers) // 2]
    # N3/N4 are the boundary frequencies
    assert {plan.centers_mhz[3], plan.centers_mhz[4]} == {centers[0], centers[-1]}


def test_standard_testbed_structure():
    deployment = standard_testbed(five_network_plan(3.0), seed=1)
    assert len(deployment.networks) == 5
    assert len(deployment.nodes) == 20


def test_evaluation_testbed_structure():
    deployment = evaluation_testbed(evaluation_plan(3.0), seed=1)
    assert len(deployment.networks) == 6
    assert len(deployment.nodes) == 24


def test_power_overrides_apply_to_whole_network():
    deployment = evaluation_testbed(
        evaluation_plan(3.0), seed=1, power_overrides={"N0": -15.0}
    )
    for node in deployment.network("N0").nodes:
        assert node.tx_power_dbm == -15.0
    for node in deployment.network("N1").nodes:
        assert node.tx_power_dbm == 0.0


def test_dcn_only_on_factory():
    factory = dcn_only_on(["N0"])
    assert isinstance(factory("N0", "N0.s0"), DcnCcaPolicy)
    assert isinstance(factory("N1", "N1.s0"), FixedCcaThreshold)


def test_dcn_policy_factory_gives_fresh_instances():
    factory = dcn_policy_factory()
    assert factory("N0", "a") is not factory("N0", "b")


def test_cprr_rig_disables_carrier_sense():
    deployment = cprr_rig(3.0, seed=1)
    assert len(deployment.nodes) == 4
    assert not deployment.nodes["normal.s0"].mac.params.csma_enabled
    assert isinstance(
        deployment.nodes["normal.s0"].mac.cca_policy, DisabledCca
    )
    channels = {n.channel_mhz for n in deployment.nodes.values()}
    assert channels == {2460.0, 2463.0}


def test_section_iv_rig_structure():
    deployment = section_iv_rig(
        seed=1, link_cca_policy=FixedCcaThreshold(-60.0), n_co_channel_links=3
    )
    # probe network: 1 + 3 links = 8 nodes; 4 interferer networks x 2
    assert len(deployment.nodes) == 16
    assert deployment.node("probe.s0").mac.cca_policy.threshold_dbm() == -60.0
    assert deployment.node("probe.s1").mac.cca_policy.threshold_dbm() == -77.0
    offsets = sorted(
        round(n.channel_mhz - 2465.0, 1)
        for n in deployment.nodes.values()
        if n.name.startswith("I") and n.name.endswith("s0")
    )
    assert offsets == [-6.0, -3.0, 3.0, 6.0]


@pytest.mark.parametrize("builder", [case_one, case_two, case_three])
def test_cases_use_random_powers(builder):
    deployment = builder(evaluation_plan(3.0), seed=2)
    powers = [n.tx_power_dbm for n in deployment.nodes.values()]
    assert all(-22.0 <= p <= 0.0 for p in powers)
    assert len(set(powers)) > 10  # genuinely random, not constant


# ---------------------------------------------------------------------------
# large_scene (the scale family behind perf profile --scene and the
# fanout_1k / mini_run_5k benches)
# ---------------------------------------------------------------------------
def test_large_scene_builds_and_runs():
    from repro.experiments.scenarios import large_scene, scene_plan

    plan = scene_plan()
    assert len(plan.centers_mhz) == 16  # full 2.4 GHz band at 5 MHz
    deployment = large_scene(64, seed=2)
    assert len(deployment.nodes) == 64
    assert len(deployment.networks) == 16
    # One saturated link per network by default; everyone else idle.
    assert all(len(net.spec.links) == 1 for net in deployment.networks)
    assert deployment.medium._gain_cache is not None  # the fast path
    deployment.start_traffic()
    deployment.sim.run(0.005)
    sent = sum(n.mac.stats.sent for n in deployment.nodes.values())
    assert sent > 0


def test_large_scene_deterministic_for_same_seed():
    from repro.experiments.scenarios import large_scene

    def outcome(seed):
        deployment = large_scene(64, seed=seed)
        deployment.start_traffic()
        deployment.sim.run(0.01)
        return sorted(
            (name, node.mac.stats.sent, node.mac.stats.delivered)
            for name, node in deployment.nodes.items()
        )

    assert outcome(5) == outcome(5)
    assert outcome(5) != outcome(6)


def test_large_scene_trace_identical_across_scheduler_sharding():
    """A fixed-seed 16-channel scene renders byte-identical traces on the
    fast path (the on-air table, cached band-audible fan-out batches)
    and on the brute-force reference leg."""
    from repro.check.runtime import CheckSession
    from repro.experiments.scenarios import large_scene
    from repro.phy.frame import reset_frame_ids

    def traced(reference):
        reset_frame_ids()  # frame ids are process-global correlation tags
        with CheckSession(reference=reference, capture_traces=True) as session:
            deployment = large_scene(200, seed=3, area_m2_per_mote=400.0)
            deployment.start_traffic()
            deployment.sim.run(0.01)
        assert session.traces
        return [str(r) for t in session.traces for r in t.records]

    fast = traced(False)
    reference = traced(True)
    assert fast  # the scene actually produced records
    assert fast == reference
