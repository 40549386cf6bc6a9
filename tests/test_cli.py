"""End-to-end command-line tests (subprocess level plus a few unit probes)."""
import dataclasses
import json
import os
import shutil

import numpy as np
import pytest
from conftest import run_cli

from dfaf.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from dfaf import cli
from dfaf.cli import main
from dfaf.data import (
    FeatureFileError,
    ToyTaskSpec,
    generate_feature_dataset,
    read_feature_file,
    write_feature_file,
)
from dfaf.model import ModelConfig, build_model, predict
from dfaf.tensor import Tensor

TINY = [
    "--set", "templates=attribute",
    "--set", "n_instances=96",
    "--set", "dim=16",
    "--set", "heads=2",
    "--set", "hidden=32",
    "--set", "epochs=2",
    "--set", "batch_size=32",
]


def stdout_objects(proc):
    return [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset and one trained checkpoint shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    gen = run_cli(["gen-data", *TINY, "data.bin"], root)
    assert gen.returncode == 0, gen.stderr
    train = run_cli(["train", *TINY, "data.bin", "ckpt.bin"], root)
    assert train.returncode == 0, train.stderr
    return root, stdout_objects(gen), stdout_objects(train)


class TestGenData:
    def test_summary_counts_match_request(self, workspace):
        root, gen_out, _ = workspace
        (report,) = gen_out
        assert report["command"] == "gen-data"
        assert report["summary"]["n_instances"] == 96
        assert report["config"]["n_instances"] == "96"

    def test_written_file_round_trips(self, workspace):
        root, _, _ = workspace
        ds = read_feature_file(str(root / "data.bin"))
        assert len(ds) == 96
        assert tuple(ds.template_names) == ("attribute",)

    def test_same_seed_byte_identical_files(self, tmp_path):
        for name in ("a.bin", "b.bin"):
            assert run_cli(["gen-data", *TINY, name], tmp_path).returncode == 0
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_different_seed_changes_file(self, tmp_path):
        assert run_cli(["gen-data", *TINY, "a.bin"], tmp_path).returncode == 0
        assert (
            run_cli(["gen-data", *TINY, "--set", "seed=9", "b.bin"], tmp_path).returncode
            == 0
        )
        assert (tmp_path / "a.bin").read_bytes() != (tmp_path / "b.bin").read_bytes()

    def test_env_seed_overrides_set_seed(self, tmp_path):
        assert (
            run_cli(
                ["gen-data", *TINY, "--set", "seed=7", "env.bin"],
                tmp_path,
                env_extra={"DFAF_SEED": "42"},
            ).returncode
            == 0
        )
        assert (
            run_cli(["gen-data", *TINY, "--set", "seed=42", "plain.bin"], tmp_path).returncode
            == 0
        )
        assert (tmp_path / "env.bin").read_bytes() == (tmp_path / "plain.bin").read_bytes()

    def test_config_echo_reproduces_run(self, workspace, tmp_path):
        root, gen_out, _ = workspace
        echo = gen_out[0]["config"]
        (tmp_path / "echo.cfg").write_text(
            "".join(f"{k}={v}\n" for k, v in echo.items())
        )
        rerun = run_cli(["gen-data", "--config", "echo.cfg", "copy.bin"], tmp_path)
        assert rerun.returncode == 0, rerun.stderr
        assert (tmp_path / "copy.bin").read_bytes() == (root / "data.bin").read_bytes()


class TestTrain:
    def test_stream_shape_and_checkpoint(self, workspace):
        root, _, train_out = workspace
        header, *rows, final = train_out
        assert header["command"] == "train"
        assert len(rows) == 2
        assert {"epoch", "lr", "train_loss", "eval_acc", "wall_ms"} <= rows[0].keys()
        assert final["steps"] == 2 * 3  # 96 instances / batch 32 = 3 steps/epoch
        params, config, trailer = load_checkpoint(str(root / "ckpt.bin"))
        assert config.dim == 16
        assert trailer is not None and trailer[0] == final["steps"]

    def test_metric_stream_deterministic_minus_wall_ms(self, tmp_path):
        assert run_cli(["gen-data", *TINY, "d.bin"], tmp_path).returncode == 0
        outs = []
        for name in ("c1.bin", "c2.bin"):
            proc = run_cli(["train", *TINY, "d.bin", name], tmp_path)
            assert proc.returncode == 0
            rows = stdout_objects(proc)
            for row in rows:
                row.pop("wall_ms", None)
                row.pop("checkpoint", None)  # differs only by requested path
            outs.append(rows)
        assert outs[0] == outs[1]
        assert (tmp_path / "c1.bin").read_bytes() == (tmp_path / "c2.bin").read_bytes()

    def test_resume_continues_step_counter(self, workspace, tmp_path):
        root, _, train_out = workspace
        first_steps = train_out[-1]["steps"]
        proc = run_cli(
            [
                "train",
                *TINY,
                "--set",
                f"resume_from={root / 'ckpt.bin'}",
                str(root / "data.bin"),
                "resumed.bin",
            ],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert stdout_objects(proc)[-1]["steps"] == 2 * first_steps

    def test_resume_into_the_same_path(self, workspace, tmp_path):
        # The writer replaces the very file whose trailer the loader mapped.
        root, _, train_out = workspace
        first_steps = train_out[-1]["steps"]
        shutil.copy(root / "ckpt.bin", tmp_path / "c.bin")
        proc = run_cli(
            ["train", *TINY, "--set", "resume_from=c.bin", str(root / "data.bin"), "c.bin"],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert stdout_objects(proc)[-1]["steps"] == 2 * first_steps
        _, _, trailer = load_checkpoint(str(tmp_path / "c.bin"))
        assert trailer[0] == 2 * first_steps

    def test_resume_into_the_same_path_leaves_the_old_file_and_writes_the_run(
        self, workspace, tmp_path
    ):
        # Training updates parameters that view the mapped checkpoint; a hard
        # link keeps the old file, whose bytes must not have changed, and the
        # new file must equal a resume written to another path.
        root, _, _ = workspace
        before = (root / "ckpt.bin").read_bytes()
        (tmp_path / "c.bin").write_bytes(before)
        os.link(tmp_path / "c.bin", tmp_path / "old.bin")
        for source, out in (("c.bin", "c.bin"), (str(root / "ckpt.bin"), "elsewhere.bin")):
            proc = run_cli(
                ["train", *TINY, "--set", f"resume_from={source}", str(root / "data.bin"), out],
                tmp_path,
            )
            assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "old.bin").read_bytes() == before
        assert (tmp_path / "c.bin").read_bytes() == (tmp_path / "elsewhere.bin").read_bytes()
        assert (tmp_path / "c.bin").read_bytes() != before

    def test_resume_continues_the_exact_trajectory(self, workspace, tmp_path, monkeypatch, capsys):
        # A run that trains twice in one process (each train call reseeds its
        # shuffle from the config, as a resumed run does) must write the bytes
        # of a run resumed from the first half's checkpoint.
        root, _, _ = workspace
        data = str(root / "data.bin")
        real_train = cli.train

        def twice(model, dataset, cfg, state=None, on_epoch=None):
            _, state = real_train(model, dataset, cfg, state=state)
            return real_train(model, dataset, cfg, state=state)

        monkeypatch.setattr(cli, "train", twice)
        assert main(["train", *TINY, data, str(tmp_path / "in_memory.bin")]) == 0
        monkeypatch.undo()
        first_half = str(root / "ckpt.bin")
        resumed = str(tmp_path / "resumed.bin")
        assert main(["train", *TINY, "--set", f"resume_from={first_half}", data, resumed]) == 0
        capsys.readouterr()
        assert (tmp_path / "resumed.bin").read_bytes() == (tmp_path / "in_memory.bin").read_bytes()

    def test_resume_architecture_mismatch_is_config_error(self, workspace, tmp_path):
        root, _, _ = workspace
        proc = run_cli(
            [
                "train",
                *TINY,
                "--set", "dim=32",
                "--set", f"resume_from={root / 'ckpt.bin'}",
                str(root / "data.bin"),
                "x.bin",
            ],
            tmp_path,
        )
        assert proc.returncode == 2
        assert "does not match" in proc.stderr

    def test_missing_data_file_exits_3(self, tmp_path):
        proc = run_cli(["train", *TINY, "absent.bin", "c.bin"], tmp_path)
        assert proc.returncode == 3
        assert "absent.bin" in proc.stderr

    def test_forged_instance_count_exits_3(self, workspace, tmp_path):
        root, _, _ = workspace
        blob = bytearray((root / "data.bin").read_bytes())
        blob[8:12] = (0xFFFFFFFF).to_bytes(4, "little")
        (tmp_path / "forged.bin").write_bytes(bytes(blob))
        proc = run_cli(["train", *TINY, "forged.bin", "c.bin"], tmp_path)
        assert proc.returncode == 3
        (line,) = proc.stderr.splitlines()
        assert line.startswith("data error:")

    def test_resume_from_forged_hidden_exits_3(self, workspace, tmp_path):
        root, _, _ = workspace
        blob = bytearray((root / "ckpt.bin").read_bytes())
        blob[20:24] = (2**30).to_bytes(4, "little")  # hidden: 64 GiB of weights
        (tmp_path / "forged.bin").write_bytes(bytes(blob))
        proc = run_cli(
            ["train", *TINY, "--set", "resume_from=forged.bin", str(root / "data.bin"), "c.bin"],
            tmp_path,
        )
        assert proc.returncode == 3
        (line,) = proc.stderr.splitlines()
        assert line.startswith("data error:")

    def test_template_name_not_utf8_exits_3(self, workspace, tmp_path):
        root, _, _ = workspace
        blob = bytearray((root / "data.bin").read_bytes())
        blob[38] = 0xFF  # first byte of the first template name
        (tmp_path / "bad.bin").write_bytes(bytes(blob))
        proc = run_cli(["train", *TINY, "bad.bin", "c.bin"], tmp_path)
        assert proc.returncode == 3
        (line,) = proc.stderr.splitlines()
        assert line.startswith("data error:")

    def test_divergent_lr_exits_4(self, tmp_path):
        assert run_cli(["gen-data", *TINY, "d.bin"], tmp_path).returncode == 0
        proc = run_cli(
            ["train", *TINY, "--set", "base_lr=1e18", "d.bin", "c.bin"], tmp_path
        )
        assert proc.returncode == 4
        assert "diverged" in proc.stderr.lower()

    def test_nan_feature_exits_3_without_checkpoint(self, tmp_path):
        # Five instances, one of them NaN: rejected before the first step.
        ds = generate_feature_dataset(ToyTaskSpec(templates=("attribute",)), 5)
        ds.regions[3, 0, 0] = float("nan")
        write_feature_file(str(tmp_path / "nan.bin"), ds)
        proc = run_cli(
            ["train", *TINY, "--set", "epochs=1", "nan.bin", "c.bin"],
            tmp_path,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "data error: data file instance 3 holds a non-finite feature value"
        ]
        assert not (tmp_path / "c.bin").exists()


def _overflowing_checkpoint(tmp_path):
    """A default model whose finite region weights overflow every forward
    to NaN, and a 64-instance default data file for it."""
    ds = generate_feature_dataset(ToyTaskSpec(), 64)
    write_feature_file(str(tmp_path / "data.bin"), ds)
    config = ModelConfig(d_v=ds.regions.shape[2], d_w=ds.tokens.shape[2], n_answers=ds.n_answers)
    model = build_model(config, np.random.default_rng(0))
    model.region_embed.weight.data[:] = 1e308
    save_checkpoint(str(tmp_path / "ckpt.bin"), model, config)


class TestEval:
    def test_reproduces_final_training_accuracy(self, workspace):
        root, _, train_out = workspace
        proc = run_cli(["eval", *TINY, "ckpt.bin", "data.bin"], root)
        assert proc.returncode == 0
        (report,) = stdout_objects(proc)
        assert report["accuracy"] == train_out[-1]["final_eval_acc"]

    def test_per_template_weighted_mean_equals_overall(self, tmp_path):
        args = ["--set", "n_instances=120", "--set", "dim=16", "--set", "heads=2",
                "--set", "hidden=32", "--set", "epochs=1", "--set", "batch_size=32"]
        assert run_cli(["gen-data", *args, "d.bin"], tmp_path).returncode == 0
        assert run_cli(["train", *args, "d.bin", "c.bin"], tmp_path).returncode == 0
        proc = run_cli(["eval", *args, "c.bin", "d.bin"], tmp_path)
        report = stdout_objects(proc)[0]
        assert len(report["per_template"]) == 4
        weighted = sum(
            t["accuracy"] * t["n"] for t in report["per_template"].values()
        )
        assert abs(weighted / report["n_instances"] - report["accuracy"]) < 1e-12

    def test_nan_forward_scores_as_miss(self, tmp_path):
        # argmax reads a NaN row as answer 0, which would score the
        # answer-0 share of the file as hits.
        _overflowing_checkpoint(tmp_path)
        proc = run_cli(["eval", "ckpt.bin", "data.bin"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        (report,) = stdout_objects(proc)
        assert report["accuracy"] == 0.0
        assert report["n_instances"] == 64

    def test_shape_mismatch_names_both_shapes(self, workspace, tmp_path):
        root, _, _ = workspace
        assert (
            run_cli(["gen-data", *TINY, "--set", "d_v=40", "narrow.bin"], tmp_path).returncode
            == 0
        )
        proc = run_cli(
            ["eval", *TINY, str(root / "ckpt.bin"), "narrow.bin"], tmp_path
        )
        assert proc.returncode == 3
        assert "64" in proc.stderr and "40" in proc.stderr

    @pytest.mark.parametrize(
        "command, field, value",
        [
            ("eval", "regions", float("nan")),
            ("inspect", "tokens", float("-inf")),
            ("eval", "tokens", float("inf")),
        ],
    )
    def test_non_finite_feature_exits_3(self, workspace, tmp_path, command, field, value):
        root, _, _ = workspace
        ds = read_feature_file(str(root / "data.bin"))
        getattr(ds, field)[5, 1, 2] = value
        write_feature_file(str(tmp_path / "bad.bin"), ds)
        extra = ["0", "x.json"] if command == "inspect" else []
        proc = run_cli([command, *TINY, str(root / "ckpt.bin"), "bad.bin", *extra], tmp_path)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "data error: data file instance 5 holds a non-finite feature value"
        ]

    def test_corrupted_checkpoint_magic_exits_3(self, workspace, tmp_path):
        root, _, _ = workspace
        blob = bytearray((root / "ckpt.bin").read_bytes())
        blob[:4] = b"JUNK"
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(blob))
        proc = run_cli(["eval", *TINY, str(bad), str(root / "data.bin")], tmp_path)
        assert proc.returncode == 3
        assert "magic" in proc.stderr


    def test_forged_tensor_rank_exits_3(self, workspace, tmp_path):
        root, _, _ = workspace
        blob = bytearray((root / "ckpt.bin").read_bytes())
        at = blob.index(b"region_embed.weight") + len(b"region_embed.weight")
        blob[at : at + 4] = (0xFFFFFFFF).to_bytes(4, "little")
        (tmp_path / "forged.bin").write_bytes(bytes(blob))
        proc = run_cli(["eval", *TINY, "forged.bin", str(root / "data.bin")], tmp_path)
        assert proc.returncode == 3
        (line,) = proc.stderr.splitlines()
        assert line.startswith("data error:")

    @pytest.mark.parametrize("offset, value", [(8, 2**20), (16, 0xFFFFFFF0), (8, 2**30)])
    def test_forged_config_size_exits_3(self, workspace, tmp_path, offset, value):
        # dim 2^20 implies 8 TiB of weights; 2^32 - 16 blocks take minutes to
        # build; dim 2^30 makes a weight of more bytes than numpy can shape
        root, _, _ = workspace
        blob = bytearray((root / "ckpt.bin").read_bytes())
        blob[offset : offset + 4] = value.to_bytes(4, "little")
        (tmp_path / "forged.bin").write_bytes(bytes(blob))
        proc = run_cli(["eval", *TINY, "forged.bin", str(root / "data.bin")], tmp_path)
        assert proc.returncode == 3
        (line,) = proc.stderr.splitlines()
        assert line.startswith("data error:")

    def test_checkpoint_cut_in_config_header_exits_3(self, workspace, tmp_path):
        root, _, _ = workspace
        blob = (root / "ckpt.bin").read_bytes()
        (tmp_path / "cut.bin").write_bytes(blob[:20])  # inside the seven u32 fields
        proc = run_cli(["eval", *TINY, "cut.bin", str(root / "data.bin")], tmp_path)
        assert proc.returncode == 3
        (line,) = proc.stderr.splitlines()
        assert line.startswith("data error:")

    def test_nan_parameter_exits_3(self, workspace, tmp_path):
        root, _, _ = workspace
        model, config, _ = load_checkpoint(str(root / "ckpt.bin"))
        model.mlp_out.bias.data[0] = float("nan")
        save_checkpoint(str(tmp_path / "nan.bin"), model, config)
        proc = run_cli(["eval", *TINY, "nan.bin", str(root / "data.bin")], tmp_path)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == ["data error: mlp_out.bias holds a non-finite value"]

    def test_intra_only_checkpoint_with_gate_layers_exits_3(self, workspace, tmp_path):
        # intra_only once built gate layers as dynamic blocks do: such a file
        # is a dyintra_only one under the intra_only name, with 4 tensors per
        # block more than intra_only builds.
        root, _, _ = workspace
        _, config, _ = load_checkpoint(str(root / "ckpt.bin"))
        config = dataclasses.replace(config, n_blocks=2, attention_type="dyintra_only")
        path = tmp_path / "gated.bin"
        save_checkpoint(str(path), build_model(config, np.random.default_rng(0)), config)
        assert run_cli(["eval", *TINY, "gated.bin", str(root / "data.bin")], tmp_path).returncode == 0
        blob = path.read_bytes()
        old, new = (len(s).to_bytes(2, "little") + s for s in (b"dyintra_only", b"intra_only"))
        assert blob.count(old) == 1
        path.write_bytes(blob.replace(old, new))
        proc = run_cli(["eval", *TINY, "gated.bin", str(root / "data.bin")], tmp_path)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "data error: checkpoint holds 48 tensors, architecture needs 40"
        ]

    def test_fusion_name_not_utf8_exits_3(self, workspace, tmp_path):
        root, _, _ = workspace
        blob = bytearray((root / "ckpt.bin").read_bytes())
        blob[38] = 0xFF  # first byte of the fusion string
        (tmp_path / "bad.bin").write_bytes(bytes(blob))
        proc = run_cli(["eval", *TINY, "bad.bin", str(root / "data.bin")], tmp_path)
        assert proc.returncode == 3
        (line,) = proc.stderr.splitlines()
        assert line.startswith("data error:")


def _splices(a: bytes, b: bytes) -> dict[str, bytes]:
    """Both concatenations, and prefix/suffix swaps at cuts spread from the
    first byte where the two files differ to the end of the shorter one."""
    first = next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)
    end = min(len(a), len(b))
    cuts = sorted({first + 1, *(first + (end - first) * k // 5 for k in range(1, 5)), end - 1})
    out = {"a+b": a + b, "b+a": b + a}
    for cut in cuts:
        out[f"a[:{cut}]+b"] = a[:cut] + b[cut:]
        out[f"b[:{cut}]+a"] = b[:cut] + a[cut:]
    return out


class TestSplicedFiles:
    """Pieces of two valid files of different configs never load: the CLI
    exits 3 with one ``data error:`` line, and the parser itself rejects the
    bytes (so the width and answer checks after it cannot hide a splice)."""

    @pytest.fixture(scope="class")
    def sources(self, workspace, tmp_path_factory):
        root, _, _ = workspace
        other = tmp_path_factory.mktemp("splice")
        spec = ToyTaskSpec(templates=("existence", "counting"), seed=5)
        write_feature_file(str(other / "data.bin"), generate_feature_dataset(spec, 40))
        config = ModelConfig(
            dim=8, heads=2, n_blocks=2, hidden=16, n_answers=5, fusion="concat",
            order="parallel", attention_type="inter_only",
        )
        save_checkpoint(str(other / "ckpt.bin"), build_model(config, np.random.default_rng(1)), config)
        return root, other

    def outcomes(self, a, b, tmp_path, capsys, load, argv):
        """Per splice: whether ``load`` accepts it, then the CLI's exit code
        and stderr lines."""
        seen = {}
        for name, blob in _splices(a, b).items():
            path = tmp_path / "spliced.bin"
            path.write_bytes(blob)
            try:
                load(str(path))
                parsed = True
            except (FeatureFileError, CheckpointError):
                parsed = False
            code = main(argv(str(path)))
            seen[name] = (parsed, code, capsys.readouterr().err.splitlines())
        return seen

    @staticmethod
    def rejected(seen):
        return {
            name: parsed is False and code == 3 and len(err) == 1 and err[0].startswith("data error:")
            for name, (parsed, code, err) in seen.items()
        }

    def test_feature_file_splices(self, sources, tmp_path, capsys):
        root, other = sources
        a, b = ((d / "data.bin").read_bytes() for d in (root, other))
        ckpt = str(root / "ckpt.bin")
        seen = self.outcomes(a, b, tmp_path, capsys, read_feature_file, lambda p: ["eval", ckpt, p])
        assert len(seen) >= 12
        assert self.rejected(seen) == dict.fromkeys(seen, True), seen

    def test_checkpoint_splices(self, sources, tmp_path, capsys):
        root, other = sources
        a, b = ((d / "ckpt.bin").read_bytes() for d in (root, other))
        data = str(root / "data.bin")
        seen = self.outcomes(a, b, tmp_path, capsys, load_checkpoint, lambda p: ["eval", p, data])
        assert len(seen) >= 12
        assert self.rejected(seen) == dict.fromkeys(seen, True), seen


class TestGradcheckCommand:
    SMALL = ["--set", "dim=4", "--set", "heads=2", "--set", "n_blocks=1",
             "--set", "gradcheck_regions=3", "--set", "gradcheck_words=2"]

    def test_small_config_passes(self, tmp_path):
        proc = run_cli(["gradcheck", *self.SMALL], tmp_path)
        assert proc.returncode == 0, proc.stderr
        (report,) = stdout_objects(proc)
        assert report["passed"] is True
        assert report["max_rel_err"] < 1e-4
        assert [u["unit"] for u in report["units"]] == [
            "inter_maf", "dyintra_maf", "intra_maf", "dfaf_block", "model",
        ]

    def test_corrupted_adjoint_fails_with_named_block(self, tmp_path):
        proc = run_cli(
            ["gradcheck", *self.SMALL, "--set", "gradcheck_corrupt=model/mlp_out.bias"],
            tmp_path,
        )
        assert proc.returncode == 1
        (report,) = stdout_objects(proc)
        assert report["failing_blocks"] == ["model/mlp_out.bias"]

    def test_mistyped_corrupt_target_is_config_error(self, tmp_path):
        proc = run_cli(
            ["gradcheck", *self.SMALL, "--set", "gradcheck_corrupt=model/mlp_out.bais"],
            tmp_path,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "'model/mlp_out.bais'" in proc.stderr

    def test_oversized_dim_is_config_error(self, tmp_path):
        proc = run_cli(["gradcheck", "--set", "dim=64"], tmp_path)
        assert proc.returncode == 2


class TestInspect:
    def test_dump_schema_and_row_sums(self, workspace):
        root, _, _ = workspace
        proc = run_cli(["inspect", *TINY, "ckpt.bin", "data.bin", "0", "dump.json"], root)
        assert proc.returncode == 0, proc.stderr
        dump = json.loads((root / "dump.json").read_text())
        assert dump["instance"]["index"] == 0
        assert len(dump["blocks"]) == 1
        block = dump["blocks"][0]
        for key in ("inter_r_from_e", "inter_e_from_r", "intra_r", "intra_e",
                    "intra_r_gates_disabled"):
            matrices = np.array(block[key])
            assert matrices.ndim == 3  # heads x queries x keys
            assert matrices.shape[0] == 2
            assert np.all(matrices >= 0)
            assert np.allclose(matrices.sum(axis=-1), 1.0, atol=1e-6)
        assert len(block["gate_on_regions"]) == 16
        assert len(block["gate_on_words"]) == 16

    def test_dump_replaces_a_hard_linked_file_without_writing_through(self, workspace, tmp_path):
        root, _, _ = workspace
        (tmp_path / "old.json").write_text("old")
        os.link(tmp_path / "old.json", tmp_path / "dump.json")
        args = [str(root / "ckpt.bin"), str(root / "data.bin"), "0", "dump.json"]
        proc = run_cli(["inspect", *TINY, *args], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads((tmp_path / "dump.json").read_text())["instance"]["index"] == 0
        assert (tmp_path / "old.json").read_text() == "old"

    def test_nan_forward_predicts_null(self, tmp_path):
        _overflowing_checkpoint(tmp_path)
        proc = run_cli(["inspect", "ckpt.bin", "data.bin", "0", "dump.json"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        (report,) = stdout_objects(proc)
        assert report["instance"]["predicted"] is None
        dump = json.loads((tmp_path / "dump.json").read_text())
        assert dump["instance"]["predicted"] is None

    def test_index_out_of_range_exits_3(self, workspace):
        root, _, _ = workspace
        proc = run_cli(["inspect", *TINY, "ckpt.bin", "data.bin", "9999", "x.json"], root)
        assert proc.returncode == 3
        assert "out of range" in proc.stderr

    @pytest.mark.parametrize(
        "ckpt_answers, templates, data_answers",
        [(11, "existence", 2), (2, "attribute,relational,existence,counting", 11)],
    )
    def test_answer_count_mismatch_exits_3(self, tmp_path, ckpt_answers, templates, data_answers):
        # The checks eval makes: an answer index past the head, or answer
        # names from a table the model was never trained on.
        gen = run_cli(["gen-data", "--set", f"templates={templates}",
                       "--set", "n_instances=4", "data.bin"], tmp_path)
        assert gen.returncode == 0, gen.stderr
        config = ModelConfig(dim=8, heads=2, hidden=8, d_v=64, d_w=32, n_answers=ckpt_answers)
        save_checkpoint(str(tmp_path / "ckpt.bin"),
                        build_model(config, np.random.default_rng(0)), config)
        proc = run_cli(["inspect", "ckpt.bin", "data.bin", "0", "x.json"], tmp_path)
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [
            f"data error: checkpoint answer head has {ckpt_answers} entries, "
            f"data file has {data_answers}"
        ]
        assert not (tmp_path / "x.json").exists()

    def test_dynamic_differs_across_questions_but_disabled_recomputation_matches(self):
        # Same regions, two different questions: the dynamic weights must
        # move, the gate-disabled recomputation must not.
        rng = np.random.default_rng(0)
        config = ModelConfig(
            dim=16, heads=2, n_blocks=1, hidden=32, d_v=20, d_w=12,
            n_answers=4, attention_type="dyintra_only",
        )
        model = build_model(config, rng)
        regions = Tensor(rng.standard_normal((1, 6, 20)))
        q1 = Tensor(rng.standard_normal((1, 5, 12)))
        q2 = Tensor(rng.standard_normal((1, 5, 12)))
        (b1,) = predict(regions, q1, model, record=True).records
        (b2,) = predict(regions, q2, model, record=True).records
        assert not np.allclose(b1.intra_r, b2.intra_r)
        assert np.array_equal(
            b1.intra_r_gates_disabled, b2.intra_r_gates_disabled
        )


class TestArgumentErrors:
    def test_no_command_exits_2(self, tmp_path):
        proc = run_cli([], tmp_path)
        assert proc.returncode == 2

    def test_all_config_errors_listed(self, tmp_path):
        proc = run_cli(
            ["gen-data", "--set", "dim=banana", "--set", "nonsense=1", "out.bin"],
            tmp_path,
        )
        assert proc.returncode == 2
        assert "banana" in proc.stderr
        assert "nonsense" in proc.stderr
        assert not (tmp_path / "out.bin").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_exits_2(self, tmp_path, value):
        proc = run_cli(
            ["gradcheck", "--set", "dim=8", "--set", "heads=2",
             "--set", f"gradcheck_threshold={value}"],
            tmp_path,
        )
        assert proc.returncode == 2
        assert "gradcheck_threshold must be finite" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_negative_seeds_and_nan_noise_listed_together(self, tmp_path):
        proc = run_cli(
            ["gen-data", "--set", "seed=-1", "--set", "codebook_seed=-1",
             "--set", "noise_std=nan", "--set", "n_instances=8", "out.bin"],
            tmp_path,
        )
        assert proc.returncode == 2
        for key in ("seed must", "codebook_seed must", "noise_std must"):
            assert key in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out.bin").exists()

    def test_config_file_not_utf8_exits_2(self, tmp_path):
        (tmp_path / "bad.cfg").write_bytes(b"dim=8\n\xff\xfe=1\n")
        proc = run_cli(["gradcheck", "--config", "bad.cfg"], tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "config error: config file bad.cfg is not valid utf-8 at byte 6"
        ]

    def test_negative_env_seed_exits_2(self, tmp_path):
        proc = run_cli(
            ["gen-data", "--set", "n_instances=8", "out.bin"],
            tmp_path,
            env_extra={"DFAF_SEED": "-3"},
        )
        assert proc.returncode == 2
        assert "seed must be nonnegative, got -3" in proc.stderr
        assert not (tmp_path / "out.bin").exists()

    def test_nan_clip_exits_2_before_training(self, workspace, tmp_path):
        root, _, _ = workspace
        proc = run_cli(
            ["train", *TINY, "--set", "clip=nan", str(root / "data.bin"), "c.bin"],
            tmp_path,
        )
        assert proc.returncode == 2
        assert "clip must be finite" in proc.stderr
        assert not (tmp_path / "c.bin").exists()

    @pytest.mark.skipif(
        shutil.which("dfaf") is None, reason="no dfaf console script on PATH"
    )
    def test_console_script_entry_point(self, tmp_path):
        proc = run_cli(
            ["gen-data", *TINY, "x.bin"], tmp_path, timeout=120, command=["dfaf"]
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "x.bin").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["gen-data", "--set", "n_instances=10000000000000", "out.bin"],
            ["gradcheck", "--set", "dim=8", "--set", "heads=2",
             "--set", "gradcheck_regions=10000000000000"],
        ],
        ids=["gen-data", "gradcheck"],
    )
    def test_out_of_memory_exits_3_with_one_line(self, tmp_path, capsys, monkeypatch, args):
        # Both ask numpy for hundreds of TiB, which fails at once.
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("DFAF_SEED", raising=False)
        assert main(args) == 3
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("out of memory: ")
        assert list(tmp_path.iterdir()) == []

    def test_main_returns_int_in_process(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["gen-data", *TINY, "inproc.bin"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["summary"]["n_instances"] == 96
