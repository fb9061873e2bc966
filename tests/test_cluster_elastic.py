"""Unit tests for the elastic membership plan grammar and controller.

Covers the spec grammar (parse/canonicalize/validate, informative
errors), :class:`ClusterConfig` integration (gating against the fault
model, bound resolution), and the :class:`ElasticController` contracts:
stable-uid bookkeeping, straggler-first drain selection, plan-over-policy
precedence, decision cadence/cooldown/clamping, provisioning cost, and
deterministic, checkpointable policy state.
"""

from functools import partial

import numpy as np
import pytest

from repro.cluster.elastic import ElasticController, SCALE_POLICIES, make_scale_policy
from repro.core import ClusterConfig
from repro.utils.spec import KINDS, Clause, ElasticSpecError, parse_spec

parse_elastic_spec = partial(parse_spec, family="member")


class _Rec:
    """The slice of an IterationRecord the controller's signals read."""

    def __init__(self, sim_time=1.0, comm_time=0.2, synced=True):
        self.sim_time = sim_time
        self.comm_time = comm_time
        self.synced = synced


class _Net:
    def transfer_time(self, nbytes):
        return nbytes / 1e6


class TestPlanGrammar:
    def test_parse_round_trip(self):
        spec = "join:+2@100,drain:w3@50,scale:4..12"
        plan = parse_elastic_spec(spec)
        assert plan.of("join") == (Clause("join", 2, None, 100, 101),)
        assert plan.of("drain") == (Clause("drain", 3, None, 50, 51),)
        assert plan.of("scale") == (Clause("scale", (4, 12)),)
        assert parse_elastic_spec(plan.to_spec()) == plan

    @pytest.mark.parametrize("spec", [None, "", "  ", "off", "OFF"])
    def test_off_specs_give_empty_plan(self, spec):
        plan = parse_elastic_spec(spec)
        assert plan.empty
        assert plan.to_spec() == ""

    def test_queries(self):
        ctl = ElasticController(
            parse_elastic_spec("join:+2@10,join:+3@10,drain:w2@5,drain:w0@5")
        )
        assert ctl.joins_at(10) == 5
        assert ctl.joins_at(11) == 0
        assert ctl.drains_at(5) == [0, 2]
        assert ctl.drains_at(6) == []

    @pytest.mark.parametrize(
        "spec, needle",
        [
            ("jump:+2@3", "unknown membership clause kind"),
            ("join:2@3", "malformed join clause"),
            ("drain:3@5", "malformed drain clause"),
            ("scale:5..2", "need 1 <= MIN <= MAX"),
            ("scale:0..4", "need 1 <= MIN <= MAX"),
            ("join:+0@5", "count must be >= 1"),
            ("drain:w1@5,drain:w1@5", "duplicate drain clause"),
            ("scale:2..4,scale:3..5", "duplicate scale clause"),
        ],
    )
    def test_bad_specs_raise_with_context(self, spec, needle):
        with pytest.raises(ElasticSpecError, match=needle):
            parse_elastic_spec(spec)

    def test_unknown_kind_lists_known_kinds(self):
        with pytest.raises(ElasticSpecError) as ei:
            parse_elastic_spec("grow:+1@2")
        for kind in ("join", "drain", "scale"):
            assert KINDS[kind].hint in str(ei.value)

    def test_drain_ranks_not_range_checked(self):
        """A drain rank above the initial world size is legal — joins may
        have grown membership by that step (it fails at apply time)."""
        spec = "join:+4@10,drain:w6@20"
        parse_elastic_spec(spec).validate(3)
        assert ClusterConfig(n_workers=3, elastic_spec=spec).elastic_enabled


class TestClusterConfigIntegration:
    def test_elastic_off_by_default(self):
        c = ClusterConfig(n_workers=4)
        assert not c.elastic_enabled
        assert c.make_elastic() is None

    def test_plan_enables(self):
        c = ClusterConfig(n_workers=4, elastic_spec="join:+1@5")
        assert c.elastic_enabled
        assert c.make_elastic() is not None

    def test_policy_alone_enables(self):
        c = ClusterConfig(n_workers=4, scale_policy="comm")
        assert c.elastic_enabled

    def test_off_spec_with_no_policy_stays_off(self):
        c = ClusterConfig(n_workers=4, elastic_spec="off")
        assert not c.elastic_enabled

    def test_elastic_excludes_fault_model(self):
        with pytest.raises(ValueError, match="fault"):
            ClusterConfig(
                n_workers=4, elastic_spec="join:+1@5", fault_spec="crash:w0@3+"
            )

    def test_bad_policy_name(self):
        with pytest.raises(ValueError, match="scale_policy must be one of"):
            ClusterConfig(n_workers=4, scale_policy="bogus")

    def test_bad_bounds(self):
        """Bounds are the grammar's to check: one place refuses them."""
        for spec in ("scale:6..2", "scale:0..4"):
            with pytest.raises(ElasticSpecError, match="1 <= MIN <= MAX"):
                ClusterConfig(n_workers=4, elastic_spec=spec)

    def test_bounds_resolution(self):
        """The scale: clause sets the bounds."""
        c = ClusterConfig(n_workers=4, elastic_spec="scale:2..8")
        ctl = c.make_elastic()
        assert (ctl.min_workers, ctl.max_workers) == (2, 8)

    @pytest.mark.parametrize(
        "flags, bounds",
        [
            (["--elastic", "scale:4..12", "--scale-policy", "comm"], (4, 12)),
            (["--scale-policy", "comm"], (1, 64)),
        ],
    )
    def test_cli_bounds_come_from_the_plan(self, flags, bounds):
        """README's autoscale example: the bounds are the plan's clause,
        else the wide defaults."""
        from repro.cli import CLUSTER_FLAGS, build_parser

        args = build_parser().parse_args(
            ["run", "--workload", "resnet_cifar10", "--n-workers", "8"] + flags
        )
        c = ClusterConfig(
            n_workers=args.n_workers,
            **{f.name: getattr(args, f.name) for f in CLUSTER_FLAGS},
        )
        ctl = c.make_elastic()
        assert (ctl.min_workers, ctl.max_workers) == bounds


def _controller(spec="", policy=None, n=4, **kw):
    ctl = ElasticController(parse_elastic_spec(spec), policy=policy, **kw)
    ctl.attach(n)
    return ctl


class TestController:
    def test_attach_assigns_stable_uids(self):
        ctl = _controller(n=3)
        assert ctl.uids == [0, 1, 2]
        ctl.attach(5)  # second attach is a no-op
        assert ctl.uids == [0, 1, 2]

    def test_uid_ledger_across_churn(self):
        ctl = _controller(n=3)
        assert ctl.on_drain(1, step=5) == 1
        assert ctl.uids == [0, 2]
        assert ctl.on_join(step=7) == 3
        assert ctl.on_join(step=7) == 4
        assert ctl.uids == [0, 2, 3, 4]

    def test_plan_actions(self):
        ctl = _controller("join:+2@4,drain:w1@8")
        acts = ctl.actions_for_step(4, 4)
        assert (acts.joins, acts.drains) == (2, [])
        acts = ctl.actions_for_step(8, 6)
        assert (acts.joins, acts.drains) == (0, [1])
        assert not ctl.actions_for_step(5, 4).any_change

    def test_drain_candidates_pick_stragglers(self):
        ctl = _controller(n=4)
        ctl._compute_ewma = [1.0, 9.0, 3.0, 9.0]
        # Worst EWMA first; ties break toward the higher rank.
        assert ctl.drain_candidates(1) == [3]
        assert ctl.drain_candidates(2) == [1, 3]

    def test_drain_candidates_keep_fresh_ranks(self):
        """Ranks with no compute signal yet (fresh joiners) sort last."""
        ctl = _controller(n=3)
        ctl._compute_ewma = [2.0, float("nan"), 1.0]
        assert ctl.drain_candidates(2) == [0, 2]

    def _warm(self, ctl, steps=12, world=4):
        for i in range(steps):
            ctl.observe_step(i, _Rec(sim_time=1.0, comm_time=0.5), world, 8, None)

    def test_policy_cadence_and_clamping(self):
        ctl = _controller("scale:2..4", policy=make_scale_policy("comm"))
        self._warm(ctl)  # comm fraction 0.5 > hi ⇒ wants to shrink
        assert ctl.actions_for_step(0, 4).decision is None  # never at step 0
        assert ctl.actions_for_step(13, 4).decision is None  # off-cadence
        acts = ctl.actions_for_step(20, 4)
        assert acts.decision == {
            "policy": "comm",
            "current": 4,
            "desired": 3,
            "applied": True,
            "goodput": pytest.approx(32.0),
        }
        assert len(acts.drains) == 1
        # Already at the floor: the decision is a hold, nothing applied.
        acts = ctl.actions_for_step(20, 2)
        assert acts.decision["applied"] is False
        assert not acts.any_change

    def test_policy_respects_cooldown(self):
        ctl = _controller(policy=make_scale_policy("comm"), cooldown=15)
        self._warm(ctl, steps=31)
        ctl.on_join(step=10)
        assert ctl.actions_for_step(20, 5).decision is None  # 20-10 < 15
        assert ctl.actions_for_step(30, 5).decision is not None

    def test_plan_wins_over_policy(self):
        ctl = _controller("join:+1@20", policy=make_scale_policy("comm"))
        self._warm(ctl, steps=21)
        acts = ctl.actions_for_step(20, 4)
        assert acts.joins == 1 and acts.decision is None

    def test_no_decision_before_signals(self):
        """With zero observed sim-seconds the policy has nothing to read."""
        ctl = _controller(policy=make_scale_policy("comm"))
        assert ctl.actions_for_step(20, 4).decision is None

    def test_decisions_deterministic(self):
        a = _controller(policy=make_scale_policy("goodput"))
        b = _controller(policy=make_scale_policy("goodput"))
        for ctl in (a, b):
            self._warm(ctl, steps=25)
        assert a.actions_for_step(20, 4).decision == b.actions_for_step(20, 4).decision

    def test_state_dict_roundtrip_resumes_policy_state(self):
        a = _controller(policy=make_scale_policy("goodput"))
        self._warm(a, steps=25)
        a.actions_for_step(20, 4)  # seeds direction/prev_goodput state
        b = _controller(policy=make_scale_policy("goodput"))
        b.load_state_dict(a.state_dict())
        for ctl in (a, b):
            self._warm(ctl, steps=35)
        assert a.actions_for_step(30, 4).decision == b.actions_for_step(30, 4).decision
        assert a.state_dict() == b.state_dict()

    def test_provisioning_cost(self):
        ctl = _controller()
        net = _Net()
        assert ctl.provision_seconds(0, net, 2e6) == 0.0
        # Joiners provision in parallel: one boot + one transfer.
        assert ctl.provision_seconds(1, net, 2e6) == pytest.approx(7.0)
        assert ctl.provision_seconds(3, net, 2e6) == pytest.approx(7.0)

    def test_signals_snapshot(self):
        ctl = _controller(n=2)
        ctl.observe_step(0, _Rec(sim_time=2.0, comm_time=0.5), 2, 8, [1.0, 3.0])
        sig = ctl.signals()
        assert sig["elastic.goodput"] == pytest.approx(8.0)  # 2·8 / 2.0
        assert sig["elastic.comm_fraction"] == pytest.approx(0.25)
        assert sig["elastic.sim_seconds"] == pytest.approx(2.0)
        assert sig["elastic.worker_seconds"] == pytest.approx(4.0)

    def test_bad_ctor_args(self):
        """Bounds have one spelling, the plan's ``scale:MIN..MAX`` clause;
        the grammar refuses bad ones before a controller exists."""
        plan = parse_elastic_spec("")
        with pytest.raises(TypeError):
            ElasticController(plan, min_workers=2)
        with pytest.raises(ElasticSpecError):
            parse_elastic_spec("scale:5..2")


class TestPolicyRegistry:
    def test_known_policies(self):
        assert set(SCALE_POLICIES) == {"none", "goodput", "comm"}

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="unknown scale policy"):
            make_scale_policy("hillclimb")
