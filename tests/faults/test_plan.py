"""Unit tests for the declarative fault plan."""

import pytest

from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.net.errors import FaultError

from tests.topogen.fixtures import line_domain


class TestConstruction:
    def test_chainable_builder(self):
        plan = (FaultPlan()
                .link_down("r0", "r1", at=5.0)
                .crash_node("r2", at=10.0)
                .recover_node("r2", at=20.0)
                .link_up("r0", "r1", at=20.0))
        assert len(plan.events()) == 4
        kinds = [event.kind for event in plan.events()]
        assert kinds == [FaultKind.LINK_DOWN, FaultKind.NODE_CRASH,
                         FaultKind.NODE_RECOVER, FaultKind.LINK_UP]

    def test_events_sorted_by_time_stable(self):
        plan = (FaultPlan()
                .crash_node("b", at=10.0)
                .link_down("x", "y", at=5.0)
                .crash_node("a", at=10.0))
        times = [event.time for event in plan.events()]
        assert times == [5.0, 10.0, 10.0]
        # Stable on ties: insertion order preserved.
        assert plan.events()[1].target == ("b",)
        assert plan.events()[2].target == ("a",)

    def test_epochs_group_same_time_events(self):
        plan = (FaultPlan()
                .crash_node("a", at=10.0)
                .crash_node("b", at=10.0)
                .recover_node("a", at=20.0))
        epochs = plan.epochs()
        assert [t for t, _ in epochs] == [10.0, 20.0]
        assert len(epochs[0][1]) == 2
        assert len(epochs[1][1]) == 1

    def test_message_loss_emits_window_pair(self):
        plan = FaultPlan().message_loss(start=1.0, end=9.0, prob=0.25, jitter=2.0)
        start, end = plan.events()
        assert start.kind is FaultKind.LOSS_START
        assert start.loss_prob == 0.25
        assert start.reorder_jitter == 2.0
        assert end.kind is FaultKind.LOSS_END
        assert end.time == 9.0

    def test_empty_window_rejected(self):
        with pytest.raises(FaultError):
            FaultPlan().message_loss(start=5.0, end=5.0, prob=0.5)


class TestValidation:
    def test_valid_plan_passes(self):
        net = line_domain()
        plan = (FaultPlan()
                .link_down("r0", "r1", at=1.0)
                .crash_node("r2", at=2.0)
                .message_loss(start=0.0, end=3.0, prob=0.1))
        plan.validate(net)  # must not raise

    def test_unknown_node_rejected(self):
        net = line_domain()
        with pytest.raises(FaultError, match="unknown node"):
            FaultPlan().crash_node("nope", at=1.0).validate(net)

    def test_missing_link_rejected(self):
        net = line_domain()
        with pytest.raises(FaultError, match="no link"):
            FaultPlan().link_down("r0", "r4", at=1.0).validate(net)

    def test_negative_time_rejected(self):
        net = line_domain()
        with pytest.raises(FaultError, match="finite"):
            FaultPlan().crash_node("r0", at=-1.0).validate(net)

    def test_bad_loss_prob_rejected(self):
        net = line_domain()
        plan = FaultPlan().add(FaultEvent(time=0.0, kind=FaultKind.LOSS_START,
                                          loss_prob=1.5))
        with pytest.raises(FaultError, match="loss_prob"):
            plan.validate(net)


class TestSerialization:
    def test_json_round_trip(self):
        plan = (FaultPlan()
                .link_down("r0", "r1", at=5.0)
                .crash_node("r2", at=10.0)
                .message_loss(start=10.0, end=30.0, prob=0.05, jitter=1.0))
        restored = FaultPlan.from_json(plan.to_json())
        assert restored.events() == plan.events()

    def test_malformed_json_rejected(self):
        with pytest.raises(FaultError):
            FaultPlan.from_json("not json at all {")
        with pytest.raises(FaultError):
            FaultPlan.from_json('{"a": 1}')
        with pytest.raises(FaultError):
            FaultPlan.from_json('[{"time": 1.0, "kind": "frobnicate"}]')

    def test_describe_is_human_readable(self):
        plan = FaultPlan().link_down("r0", "r1", at=5.0).crash_node("r2", at=6.0)
        described = [event.describe() for event in plan.events()]
        assert described == ["link-down r0<->r1", "node-crash r2"]
