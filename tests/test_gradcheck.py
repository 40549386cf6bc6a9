"""Tests for the finite-difference gradient-check harness.

The harness is itself an oracle, so these tests focus on its mechanics: does
it cover every parameter block, does it actually fail when an adjoint is
wrong, and does its noise model behave sensibly.
"""
import functools
import inspect
import json

import numpy as np
import pytest

from dfaf.gradcheck import (
    MAX_DIM,
    check_unit,
    fd_resolution,
    run_gradcheck,
)
from dfaf.model import ModelConfig, build_model
from dfaf.tensor import Tensor, linear_forward, linear_init, sum_all

SMALL = dict(dim=4, regions=3, words=2, n_blocks=1, heads=2)


@functools.cache
def _cached_run(settings: tuple) -> dict:
    return run_gradcheck(**dict(settings))


def small_run(**kw):
    """The report at SMALL overridden by ``kw``, computed once per distinct
    settings: defaults are filled in, so passing a default value shares the
    entry. Callers share the returned dict and must not change it."""
    bound = inspect.signature(run_gradcheck).bind(**{**SMALL, **kw})
    bound.apply_defaults()
    return _cached_run(tuple(bound.arguments.items()))


class TestCheckUnit:
    def test_linear_layer_passes(self):
        rng = np.random.default_rng(0)
        layer = linear_init(3, 2, rng)
        x = Tensor(rng.standard_normal((4, 3)))
        report = check_unit(
            "lin", layer.named_parameters(), lambda: sum_all(linear_forward(layer, x))
        )
        assert report["passed"]
        assert [b["name"] for b in report["blocks"]] == ["weight", "bias"]
        assert report["max_rel_err"] < 1e-6

    def test_corrupted_adjoint_fails_named_block_only(self):
        rng = np.random.default_rng(0)
        layer = linear_init(3, 2, rng)
        x = Tensor(rng.standard_normal((4, 3)))
        report = check_unit(
            "lin",
            layer.named_parameters(),
            lambda: sum_all(linear_forward(layer, x)),
            corrupt="lin/bias",
        )
        assert not report["passed"]
        by_name = {b["name"]: b for b in report["blocks"]}
        assert not by_name["bias"]["passed"]
        assert by_name["weight"]["passed"]

    def test_zero_gradient_block_counts_as_agreement(self):
        # A parameter the objective never reads: analytic and fd both zero.
        rng = np.random.default_rng(1)
        used = linear_init(3, 2, rng)
        unused = linear_init(3, 2, rng)
        x = Tensor(rng.standard_normal((4, 3)))
        named = list(used.named_parameters("used.")) + list(
            unused.named_parameters("unused.")
        )
        report = check_unit(
            "mix", named, lambda: sum_all(linear_forward(used, x))
        )
        assert report["passed"]
        by_name = {b["name"]: b for b in report["blocks"]}
        assert by_name["unused.weight"]["analytic_norm"] == 0.0
        assert by_name["unused.weight"]["fd_norm"] == 0.0


class TestFdResolution:
    def test_grows_with_block_size(self):
        assert fd_resolution(1.0, 64, 1e-5) > fd_resolution(1.0, 4, 1e-5)

    def test_shrinks_with_larger_eps(self):
        assert fd_resolution(1.0, 16, 1e-4) < fd_resolution(1.0, 16, 1e-5)

    def test_floored_at_unit_function_scale(self):
        assert fd_resolution(1e-6, 16, 1e-5) == fd_resolution(0.5, 16, 1e-5)

    def test_far_below_threshold_lift_for_healthy_gradients(self):
        # The denominator lift noise/threshold must stay well under the O(1)
        # gradient norms of well-conditioned blocks, or it would mask them.
        assert fd_resolution(2.0, 256, 1e-5) / 1e-4 < 1e-2


class TestRunGradcheck:
    def test_small_config_all_units_pass(self):
        report = small_run()
        assert report["passed"]
        assert report["max_rel_err"] < 1e-4
        assert [u["unit"] for u in report["units"]] == [
            "inter_maf",
            "dyintra_maf",
            "intra_maf",
            "dfaf_block",
            "model",
        ]

    def test_every_model_parameter_block_listed_exactly_once(self):
        report = small_run()
        unit = {u["unit"]: u for u in report["units"]}["model"]
        names = [b["name"] for b in unit["blocks"]]
        assert len(names) == len(set(names))
        config = ModelConfig(
            dim=SMALL["dim"],
            heads=SMALL["heads"],
            n_blocks=SMALL["n_blocks"],
            hidden=2 * SMALL["dim"],
            d_v=SMALL["dim"] + 5,
            d_w=SMALL["dim"] + 3,
            n_answers=5,
        )
        expected = [n for n, _ in build_model(config, np.random.default_rng(0)).named_parameters()]
        assert names == expected

    def test_block_names_unique_within_every_unit(self):
        report = small_run()
        for unit in report["units"]:
            names = [b["name"] for b in unit["blocks"]]
            assert len(names) == len(set(names))

    def test_naive_intra_gate_blocks_have_agreed_zero_gradients(self):
        report = small_run()
        unit = {u["unit"]: u for u in report["units"]}["intra_maf"]
        gate_blocks = [b for b in unit["blocks"] if b["name"].startswith("gate_")]
        assert len(gate_blocks) == 4
        for b in gate_blocks:
            assert b["analytic_norm"] == 0.0
            assert b["fd_norm"] == 0.0
            assert b["passed"]

    def test_key_bias_blocks_pass_despite_structural_zero_gradient(self):
        # A key bias shifts every softmax-row logit uniformly and cancels;
        # its true gradient is zero while fd returns rounding noise.  The
        # noise-floored denominator must not read that as a mismatch.
        report = small_run()
        unit = {u["unit"]: u for u in report["units"]}["inter_maf"]
        key_biases = [b for b in unit["blocks"] if b["name"].endswith("key.bias")]
        assert len(key_biases) == 2
        for b in key_biases:
            assert b["analytic_norm"] < 1e-12
            assert b["passed"]

    def test_corruption_hook_reported_as_failing_block(self):
        target = "dfaf_block/intra.region_out.weight"
        report = small_run(corrupt=target)
        assert not report["passed"]
        assert target in report["failing_blocks"]
        clean_units = [u for u in report["units"] if u["unit"] != "dfaf_block"]
        assert all(u["passed"] for u in clean_units)

    def test_report_is_json_serializable(self):
        report = small_run()
        payload = json.loads(json.dumps(report))
        assert payload["passed"] is True
        assert payload["threshold"] == 1e-4
        assert len(payload["units"]) == 5
        assert payload["units"][0]["blocks"][0].keys() >= {
            "name",
            "rel_err",
            "analytic_norm",
            "fd_norm",
            "passed",
        }

    def test_all_orders_pass(self):
        for order in ("parallel", "r_then_e", "e_then_r"):
            assert small_run(order=order)["passed"]

    @pytest.mark.parametrize("heads", [1, SMALL["dim"]])
    def test_single_head_and_unit_head_width_pass(self, heads):
        report = small_run(heads=heads)
        assert report["passed"]
        assert report["settings"]["heads"] == heads

    def test_dim_cap_enforced(self):
        with pytest.raises(ValueError, match=str(MAX_DIM)):
            run_gradcheck(dim=32, heads=2)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            small_run(dim=6, heads=4)

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError, match="order"):
            small_run(order="sideways")
