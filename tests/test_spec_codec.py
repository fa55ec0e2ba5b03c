"""Every spec serialises by one rule and refuses unknown keys by name.

The payload of each spec class is its input format, its content hash
and its cache key: the shas below were taken from ``as_dict()`` before
the classes shared one codec, over one instance with every omittable
field set and one with each left unset, so a codec change that moves
any historical payload fails here.
"""

import hashlib
import json

import pytest

from repro.campaign.spec import ScenarioSpec
from repro.city.gen import CityGenSpec
from repro.control.spec import ControlSpec
from repro.faults.spec import FaultPlan, FaultSpec
from repro.obs.session import TraceConfig
from repro.topology.spec import EdgeSpec, FlowSpec, NodeSpec, TopologySpec
from repro.traces.spec import TraceSpec

pytestmark = pytest.mark.bitexact

NODE = NodeSpec("ap0", "ap", ap_mode="zhuge", seed_label="zhuge")
EDGE = EdgeSpec("ap0", "c0", name="ap0-dn", kind="wifi", rate_bps=5e6,
                trace=TraceSpec.for_family("W2", duration=9.0, seed=4,
                                           interval=0.05),
                trace_scale=0.8, queue_kind="codel", mcs_group="m0",
                mcs_period=0.5, channel_group="c0-d0", seed_label="intf",
                enabled=False)
FLOW = FlowSpec("core", "c0", protocol="tcp", cca="copa", app="video",
                optimized=False, src_port=5000, dst_port=6000, period=2.0,
                seed_label="enc-c0")
TOPOLOGY = TopologySpec(
    nodes=(NodeSpec("core", "server"), NODE, NodeSpec("c0", "client")),
    edges=(EdgeSpec("core", "ap0", rate_bps=1e9, delay=0.01), EDGE),
    flows=(FLOW, FlowSpec("core", "c0", role="competitor")))
LOSS = FaultSpec("loss_burst", 5.0, 2.0, magnitude=0.3, target="up",
                 edge="ap0-dn", node="c0")
ROAM = FaultSpec("roam", 6.0, 0.4, node="c0", to="ap1")
PLAN = FaultPlan(faults=(LOSS, ROAM), seed=7, watchdog_enabled=False)
STEPS = TraceSpec(kind="steps", family="W1", interval=0.01, rate_bps=1e6,
                  name="drop", path="unused.json",
                  steps=((1.0, 2e6), (0.5, 4e5)))
TRACE_CONFIG = TraceConfig(events=("queue", "link"), out="t.json",
                           fmt="jsonl", tag="shard003")
SCENARIO = ScenarioSpec(trace=STEPS, protocol="tcp", cca="copa",
                        ap_mode="zhuge", rtc_flows=2,
                        zhuge_flow_mask=(True, False),
                        competitor_period=2.0, mcs_switch_period=1.5,
                        trace_config=TRACE_CONFIG, faults=PLAN,
                        topology=TOPOLOGY, control=ControlSpec(True))

#: id -> (instance, canonical sha256 of its ``as_dict()``).
CASES = {
    "node-full": (NODE,
        "234e4139b8d6fb1709cce413b0d26c8e166ef5be1c9a764f331b8c34913a6c21"),
    "node-bare": (NodeSpec("c0", "client"),
        "5f5e89acfe0e8b4b48a94f9c4ebc6b34f3d64c365b33831fbe525b1a486c300d"),
    "edge-full": (EDGE,
        "fa69b4968fd8614b7941d3e5221d17a2e0e2583a5d160b95b6f61eb0cf573f49"),
    "edge-bare": (EdgeSpec("core", "ap0"),
        "49bbbbea13302fc39952d483ff54c3db3b3f2eeefde4f3d3a353d014fedbf8e8"),
    "flow-full": (FLOW,
        "7e1b115d02f844141d8589ed54b466dfe5e8a12816f287a2fcf8bc6dd4adc96b"),
    "flow-bare": (FlowSpec("core", "c0"),
        "6b6c9bde90bd8f8b91bc8dc1eb92332baa2a04481d0df9a1efda44b67d421d17"),
    "topology-full": (TOPOLOGY,
        "e66c5b7cb0396e3a04562ebbec9b0782e360c78c0cb2e46e6198d6f6631e1ed1"),
    "topology-bare": (TopologySpec(nodes=(NodeSpec("core", "server"),),
                                   edges=()),
        "4d65a457c3a1bb23532d70af256b094109b6d72138443ec4ee9d657cd14c07d3"),
    "fault-loss": (LOSS,
        "82f89571bbe6dbe524fb7e8ba551ad7d17a16a6a7378422d1c8bebea852fa043"),
    "fault-roam": (ROAM,
        "83b0a90bf0e38a95122c68971650f990caceb92ca47c947a08e9a6f7264d85d3"),
    "fault-bare": (FaultSpec("ap_reset", 3.0),
        "53d0e64d8caa1ed1373a42eb0142a256b5f0f74bebfae76f6cd48574df969f11"),
    "plan-full": (PLAN,
        "122cd578ccf0890c97f869ec4b206fa77ceab6dde906cbe453ab59c95040985f"),
    "plan-bare": (FaultPlan(),
        "dc897600e7113b6cd19eb428a695f62021fda8d27c4edf64ab843665b3f361fe"),
    "control-steering": (ControlSpec(steering=True),
        "ea58a0cf32b4450b2138974414e171f324f0097d6e21cc27b16f05051085794e"),
    "control-bare": (ControlSpec(),
        "528dcff5f53817ca455ab4710f12ba6e4b75d5171c30e3b47e9c21f484989595"),
    "trace-steps": (STEPS,
        "4a8826498b67a51209e9e8c8252589de2c5327ecec5a560ad5368ada63e2742f"),
    "trace-family": (TraceSpec.for_family("W1", duration=20.0, seed=1),
        "8a992681810797a73de48aa5c0ee1370cf65e1c94e6dae45535f0063e439d26e"),
    "trace-config-full": (TRACE_CONFIG,
        "fe4cf6bb8ca787244a2f89ade668943f1a0c8d464c76ef39d0134d55b9e680e2"),
    "trace-config-bare": (TraceConfig(),
        "93e398790d956769b41eb2e0ca9d36effd18159d62442f62dd0442b51f2b3664"),
    "city-full": (CityGenSpec.for_preset("stadium", aps=12, seed=3,
                                         ap_mode="none"),
        "efb7a07e7e18f0e73ae272ed2720f017fadec9de1079e5d65af5b79abdc66a54"),
    "city-bare": (CityGenSpec(),
        "e6a436d5110437577ad7a202a3c63ab0859f0a70a80c0845b64e25c550276b11"),
    "scenario-full": (SCENARIO,
        "4d785f356448755ea69e69564af6307e4d74706b1db0ffb45226210aa1efea1f"),
    "scenario-bare": (ScenarioSpec(trace=TraceSpec.for_family(
        "W1", duration=20.0, seed=1)),
        "7d82897e6137ac13f7c4738bc8611cac5f1acf47a247f9f9fef4e01221d71e78"),
}


def _canonical_sha(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_payload_is_pinned_and_round_trips(name):
    spec, sha = CASES[name]
    payload = spec.as_dict()
    assert _canonical_sha(payload) == sha
    assert type(spec).from_dict(json.loads(json.dumps(payload))) == spec


#: One instance per spec class.
BY_CLASS = {type(spec).__name__: spec for spec, _sha in CASES.values()}


@pytest.mark.parametrize("name", sorted(BY_CLASS))
def test_unknown_keys_are_refused_by_name(name):
    """A misspelt key used to be dropped (``TopologySpec``) or to raise a
    ``TypeError`` naming only the first one (the other spec classes)."""
    spec = BY_CLASS[name]
    payload = spec.as_dict()
    payload.update(zz_typo=1, aa_typo=None, flowz=[])
    with pytest.raises(ValueError, match=r"field\(s\): aa_typo, flowz, "
                                         r"zz_typo$"):
        type(spec).from_dict(payload)


def test_unknown_nested_key_is_refused_by_name():
    payload = SCENARIO.as_dict()
    payload["topology"]["edges"][1]["trace"]["sede"] = 3
    with pytest.raises(ValueError, match=r"unknown TraceSpec field\(s\): "
                                         r"sede$"):
        ScenarioSpec.from_dict(payload)
