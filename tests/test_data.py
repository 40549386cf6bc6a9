"""Toy-task generation, the symbolic oracle, feature files, and batching."""

import math
import mmap
import os
import struct
import tracemalloc
from pathlib import Path
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_data as reference
from dfaf.data import (
    TEMPLATES,
    FeatureFileError,
    ToyTaskSpec,
    answer_vocabulary,
    dataset_summary,
    generate_feature_dataset,
    generate_toy_dataset,
    make_batches,
    read_feature_file,
    related_cell,
    token_codebook,
    token_vocabulary,
    write_feature_file,
)
from dfaf.model import ModelConfig, build_model
from dfaf.training import evaluate_by_template


COLUMNS = ("regions", "tokens", "answers", "template_ids")
PAPER = ToyTaskSpec(grid_rows=10, grid_cols=10, n_colors=26, token_len=14, d_v=2048, d_w=300)


def spec_for(templates, **kw) -> ToyTaskSpec:
    base = dict(templates=tuple(templates), seed=3)
    base.update(kw)
    return ToyTaskSpec(**base)


# ---------------------------------------------------------------------------
# independent probe oracle: multinomial logistic regression on fixed features


def train_probe(x, y, k, steps=400, lr=0.5):
    n, d = x.shape
    w = np.zeros((d, k))
    b = np.zeros(k)
    rows = np.arange(n)
    for _ in range(steps):
        z = x @ w + b
        z = z - z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[rows, y] -= 1.0
        w -= lr * (x.T @ p) / n
        b -= lr * p.sum(axis=0) / n
    return w, b


def probe_accuracy(w, b, x, y):
    return float((np.argmax(x @ w + b, axis=1) == y).mean())


def pooled_features(ds):
    x = np.concatenate([ds.regions.mean(axis=1), ds.tokens.mean(axis=1)], axis=1)
    # standardize so the probe's fixed step size works at any feature amplitude
    return (x - x.mean(axis=0)) / (x.std(axis=0) + 1e-12)


class TestSpecValidation:
    def test_defaults_are_valid(self):
        spec = ToyTaskSpec()
        assert spec.n_regions == 12
        assert spec.feature_width == 4 + 4 + 3 + 4 + 12

    def test_shape_balance_required(self):
        with pytest.raises(ValueError, match="divide"):
            ToyTaskSpec(grid_rows=3, grid_cols=3, n_shapes=4)

    def test_existence_needs_absent_pairs(self):
        with pytest.raises(ValueError, match="absent"):
            ToyTaskSpec(grid_rows=4, grid_cols=4, n_colors=4, n_shapes=4)

    def test_counting_pigeonhole_guard(self):
        with pytest.raises(ValueError, match="max_count"):
            ToyTaskSpec(max_count=2)  # floor(12/4)=3 > 2

    def test_feature_width_must_fit(self):
        with pytest.raises(ValueError, match="d_v"):
            ToyTaskSpec(d_v=16)

    @pytest.mark.parametrize(
        "field, value",
        [("max_count", 4.5), ("d_w", 2.5), ("d_v", 64.0), ("d_w", 0), ("seed", -1),
         ("codebook_seed", -1), ("max_count", -1)],
    )
    def test_int_field_of_wrong_type_or_range_rejected_by_name(self, field, value):
        # Without a counting template no other check reads max_count.
        with pytest.raises(ValueError, match=f"^{field} must be"):
            spec_for(["attribute"], **{field: value})

    def test_unknown_template_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            spec_for(["attribute", "why"])

    def test_empty_templates_rejected(self):
        with pytest.raises(ValueError, match="template"):
            spec_for([])


class TestRelatedCell:
    def test_hand_cases_on_3x4(self):
        # cell 5 is row 1, col 1
        assert related_cell(5, "above", 3, 4) == 1
        assert related_cell(5, "below", 3, 4) == 9
        assert related_cell(5, "left", 3, 4) == 4
        assert related_cell(5, "right", 3, 4) == 6

    def test_toroidal_wrap(self):
        assert related_cell(0, "above", 3, 4) == 8  # row wraps to bottom
        assert related_cell(0, "left", 3, 4) == 3  # col wraps to rightmost
        assert related_cell(11, "below", 3, 4) == 3
        assert related_cell(11, "right", 3, 4) == 8

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    def test_opposite_relations_invert(self, rows, cols, data):
        cell = data.draw(st.integers(0, rows * cols - 1))
        for a, b in (("above", "below"), ("left", "right")):
            assert related_cell(related_cell(cell, a, rows, cols), b, rows, cols) == cell

    def test_unknown_relation_rejected(self):
        with pytest.raises(ValueError):
            related_cell(0, "diagonal", 3, 4)


class TestGeneration:
    def test_same_seed_bit_identical(self):
        spec = ToyTaskSpec(seed=11, noise_std=0.05)
        a, _ = generate_toy_dataset(spec, 40)
        b, _ = generate_toy_dataset(spec, 40)
        for i in range(40):
            assert np.array_equal(a.regions[i], b.regions[i])
            assert np.array_equal(a.tokens[i], b.tokens[i])
            assert a.answers[i] == b.answers[i]
            assert a.template_ids[i] == b.template_ids[i]

    def test_different_seeds_differ(self):
        a, _ = generate_toy_dataset(ToyTaskSpec(seed=1), 10)
        b, _ = generate_toy_dataset(ToyTaskSpec(seed=2), 10)
        assert not all(np.array_equal(a.regions[i], b.regions[i]) for i in range(10))

    def test_oracle_reproduces_stored_answers(self):
        spec = ToyTaskSpec(seed=5)
        answers = answer_vocabulary(spec)
        ds, scenes = generate_toy_dataset(spec, 200)
        for i, scene in enumerate(scenes):
            assert answers[ds.answers[i]] == reference.oracle_answer(spec, scene)

    def test_relational_answer_is_attribute_of_referent(self):
        spec = spec_for(["relational"], seed=6)
        styles = {"direct": 0, "content": 0}
        ds, scenes = generate_toy_dataset(spec, 80)
        for i, scene in enumerate(scenes):
            q = scene["question"]
            colors, shapes = scene["colors"], scene["shapes"]
            if "cell" in q:
                styles["direct"] += 1
                anchor = q["cell"]
            else:
                styles["content"] += 1
                anchors = [
                    cell
                    for cell in range(spec.n_regions)
                    if colors[cell] == q["color"] and shapes[cell] == q["shape"]
                ]
                assert len(anchors) == 1, "anchor pair must be unique in the scene"
                anchor = anchors[0]
            target = related_cell(anchor, q["relation"], spec.grid_rows, spec.grid_cols)
            expect = f"color_{colors[target]}"
            assert answer_vocabulary(spec)[ds.answers[i]] == expect
        # both anchor styles must occur at the default mix
        assert styles["direct"] > 0 and styles["content"] > 0

    def test_relational_direct_fraction_extremes(self):
        all_content = spec_for(["relational"], seed=6)
        all_content = replace(all_content, relational_direct_fraction=0.0)
        for scene in generate_toy_dataset(all_content, 20)[1]:
            assert "cell" not in scene["question"]
        all_direct = replace(all_content, relational_direct_fraction=1.0)
        for scene in generate_toy_dataset(all_direct, 20)[1]:
            assert "cell" in scene["question"]

    def test_region_feature_layout_matches_scene(self):
        for spec in (
            ToyTaskSpec(seed=7),
            ToyTaskSpec(grid_rows=2, grid_cols=6, n_colors=5, n_shapes=3, d_v=100, seed=7),
        ):
            ds, (scene,) = generate_toy_dataset(spec, 1)
            c, s, r, co, mu = (
                spec.n_colors,
                spec.n_shapes,
                spec.grid_rows,
                spec.grid_cols,
                spec.n_regions,
            )
            amplitude = math.sqrt(3.0 * spec.d_v / 5)
            for i, cell in enumerate(scene["region_cells"]):
                feats = ds.regions[0, i]
                row, col = divmod(cell, spec.grid_cols)
                assert feats[: c].argmax() == scene["colors"][cell]
                assert feats[c : c + s].argmax() == scene["shapes"][cell]
                assert feats[c + s : c + s + r].argmax() == row
                assert feats[c + s + r : c + s + r + co].argmax() == col
                assert feats[c + s + r + co : c + s + r + co + mu].argmax() == cell
                assert np.all(feats[c + s + r + co + mu :] == 0.0)
                assert feats[feats != 0.0].tolist() == [amplitude] * 5

    def test_shapes_exactly_balanced_per_scene(self):
        spec = ToyTaskSpec(seed=8)
        for scene in generate_toy_dataset(spec, 30)[1]:
            counts = np.bincount(scene["shapes"], minlength=spec.n_shapes)
            assert np.all(counts == spec.n_regions // spec.n_shapes)

    def test_tokens_are_codebook_rows(self):
        spec = spec_for(["attribute"], seed=9)
        codebook = token_codebook(spec)
        vocab = token_vocabulary(spec)
        ds, (scene,) = generate_toy_dataset(spec, 1)
        tokens = ds.tokens[0]
        k = scene["question"]["cell"]
        assert np.array_equal(tokens[0], codebook[vocab.index("ask_color")])
        assert np.array_equal(tokens[1], codebook[vocab.index(f"cell_{k}")])
        pad = codebook[vocab.index("pad")]
        for row in tokens[2:]:
            assert np.array_equal(row, pad)

    def test_codebook_independent_of_instance_seed(self):
        a = token_codebook(ToyTaskSpec(seed=1))
        b = token_codebook(ToyTaskSpec(seed=999))
        assert np.array_equal(a, b)
        c = token_codebook(ToyTaskSpec(seed=1, codebook_seed=8888))
        assert not np.array_equal(a, c)

    def test_template_mix_is_round_robin_exact(self):
        spec = ToyTaskSpec(seed=10)
        ds = generate_feature_dataset(spec, 40)
        mix = dataset_summary(ds)["templates"]
        assert set(mix.values()) == {10}

    def test_existence_roughly_balanced(self):
        spec = spec_for(["existence"], seed=12)
        ds = generate_feature_dataset(spec, 400)
        yes = int((ds.answers == ds.answer_names.index("yes")).sum())
        assert 140 <= yes <= 260

    def test_counting_respects_max_count(self):
        spec = spec_for(["counting"], seed=13)
        names = answer_vocabulary(spec)
        for answer in generate_toy_dataset(spec, 200)[0].answers:
            count = int(names[answer].split("_")[1])
            assert 0 <= count <= spec.max_count

    def test_answer_vocabulary_covers_all_templates(self):
        spec = ToyTaskSpec(seed=14)
        names = answer_vocabulary(spec)
        assert names.index("color_0") == 0
        assert "yes" in names and "count_4" in names
        # attribute and relational share the color answers exactly once
        assert names.count("color_3") == 1
        assert len(names) == spec.n_colors + 2 + spec.max_count + 1
        ds = generate_feature_dataset(spec, 80)
        assert ds.answers.max() < len(names)


class TestGeneratorMatchesLoopReference:
    """The table-driven generator gives the columns and scene dicts of the
    loop version in ``reference_data``, bit for bit, on specs the golden
    digests do not pin."""

    SPECS = {
        "content_only_relational": spec_for(["relational"], relational_direct_fraction=0.0),
        **{f"only_{t}": spec_for([t]) for t in TEMPLATES},
        "grid_10x10_26_colors_14_tokens": ToyTaskSpec(
            grid_rows=10, grid_cols=10, n_colors=26, token_len=14, d_v=160, d_w=16, seed=4
        ),
        "token_len_3_truncates": ToyTaskSpec(token_len=3, seed=5),
        "noisy": ToyTaskSpec(noise_std=0.3, seed=6),
    }

    @pytest.mark.parametrize("name", SPECS)
    def test_columns_and_scenes_equal_the_reference(self, name):
        spec = self.SPECS[name]
        ds, scenes = generate_toy_dataset(spec, 96)
        want, want_scenes = reference.generate_toy_dataset(spec, 96)
        for column in COLUMNS:
            got, expect = getattr(ds, column), getattr(want, column)
            assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes(), column
        assert ds.template_names == want.template_names
        assert ds.answer_names == want.answer_names
        assert scenes == want_scenes

    def test_codebook_is_drawn_once_and_read_only(self):
        spec = ToyTaskSpec(seed=1)
        book = token_codebook(spec)
        assert token_codebook(ToyTaskSpec(seed=2)) is book
        assert not book.flags.writeable
        with pytest.raises(ValueError):
            book[0, 0] = 1.0
        assert np.array_equal(book, reference.token_codebook(spec))
        other = replace(spec, d_w=spec.d_w + 1)
        assert np.array_equal(token_codebook(other), reference.token_codebook(other))


class TestBaselineSeparation:
    """Pooling-only linear probe: informative on attribute questions, stuck
    at chance on relational ones — the relational task needs interaction."""

    def test_attribute_pooled_probe_beats_chance(self):
        train = generate_feature_dataset(spec_for(["attribute"], seed=21), 3000)
        test = generate_feature_dataset(spec_for(["attribute"], seed=22), 1000)
        k = len(train.answer_names)
        w, b = train_probe(pooled_features(train), train.answers, k)
        acc = probe_accuracy(w, b, pooled_features(test), test.answers)
        chance = 1.0 / k
        assert acc > chance + 0.05, f"pooled probe {acc:.3f} vs chance {chance:.3f}"

    def test_relational_pooled_probe_stays_at_chance(self):
        train = generate_feature_dataset(spec_for(["relational"], seed=23), 3000)
        test = generate_feature_dataset(spec_for(["relational"], seed=24), 1000)
        k = len(train.answer_names)
        w, b = train_probe(pooled_features(train), train.answers, k)
        acc = probe_accuracy(w, b, pooled_features(test), test.answers)
        chance = 1.0 / k
        assert abs(acc - chance) <= 0.05, f"pooled probe {acc:.3f} vs chance {chance:.3f}"

    def test_attribute_task_is_information_complete(self):
        # A probe on the referenced region's raw features alone is perfect.
        spec = spec_for(["attribute"], seed=25)
        train, train_scenes = generate_toy_dataset(spec, 1500)
        test, test_scenes = generate_toy_dataset(spec_for(["attribute"], seed=26), 500)

        def referenced_regions(ds, scenes):
            rows = [s["region_cells"].index(s["question"]["cell"]) for s in scenes]
            return ds.regions[np.arange(len(ds)), rows]

        xtr = referenced_regions(train, train_scenes)
        ytr = train.answers
        xte = referenced_regions(test, test_scenes)
        yte = test.answers
        w, b = train_probe(xtr, ytr, spec.n_colors)
        assert probe_accuracy(w, b, xte, yte) >= 0.999


class TestFeatureFile:
    def test_roundtrip_bit_exact(self, tmp_path):
        ds = generate_feature_dataset(ToyTaskSpec(seed=31, noise_std=0.1), 25)
        path = str(tmp_path / "toy.dft")
        write_feature_file(path, ds)
        back = read_feature_file(path)
        assert np.array_equal(back.regions, ds.regions)
        assert np.array_equal(back.tokens, ds.tokens)
        assert np.array_equal(back.answers, ds.answers)
        assert np.array_equal(back.template_ids, ds.template_ids)
        assert back.template_names == ds.template_names
        assert back.answer_names == ds.answer_names

    def test_file_size_matches_header_arithmetic(self, tmp_path):
        ds = generate_feature_dataset(ToyTaskSpec(seed=32), 17)
        path = str(tmp_path / "toy.dft")
        write_feature_file(path, ds)
        n, mu, d_v = ds.regions.shape
        _, token_len, d_w = ds.tokens.shape
        tables = 4 + sum(2 + len(s.encode()) for s in ds.template_names)
        tables += sum(2 + len(s.encode()) for s in ds.answer_names)
        expect = 4 + 28 + tables + n * (mu * d_v * 8 + token_len * d_w * 8 + 8)
        assert os.path.getsize(path) == expect

    def test_writes_are_deterministic(self, tmp_path):
        ds = generate_feature_dataset(ToyTaskSpec(seed=33), 10)
        p1, p2 = str(tmp_path / "a.dft"), str(tmp_path / "b.dft")
        write_feature_file(p1, ds)
        write_feature_file(p2, ds)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_rewrite_leaves_an_open_handle_on_the_old_bytes(self, tmp_path):
        path = str(tmp_path / "toy.dft")
        write_feature_file(path, generate_feature_dataset(ToyTaskSpec(seed=34), 6))
        old = Path(path).read_bytes()
        with open(path, "rb") as reader:
            write_feature_file(path, generate_feature_dataset(ToyTaskSpec(seed=35), 6))
            assert reader.read() == old
        assert Path(path).read_bytes() != old

    def test_bad_magic_distinct_error(self, tmp_path):
        path = str(tmp_path / "bad.dft")
        with open(path, "wb") as fh:
            fh.write(b"WAT?" + b"\x00" * 40)
        with pytest.raises(
            FeatureFileError, match=r"bad feature-file magic b'WAT\?', expected b'DFFT'"
        ):
            read_feature_file(path)

    def test_version_mismatch_distinct_error(self, tmp_path):
        ds = generate_feature_dataset(ToyTaskSpec(seed=34), 3)
        path = str(tmp_path / "v.dft")
        write_feature_file(path, ds)
        raw = bytearray(Path(path).read_bytes())
        raw[4:8] = (7).to_bytes(4, "little")
        Path(path).write_bytes(bytes(raw))
        with pytest.raises(FeatureFileError, match="unsupported feature-file version 7, expected 1"):
            read_feature_file(path)

    def test_truncated_payload_distinct_error(self, tmp_path):
        ds = generate_feature_dataset(ToyTaskSpec(seed=35), 5)
        path = str(tmp_path / "t.dft")
        write_feature_file(path, ds)
        raw = Path(path).read_bytes()
        Path(path).write_bytes(raw[:-12])
        with pytest.raises(FeatureFileError, match="truncated feature file: header promises 5 "):
            read_feature_file(path)

    def test_forged_instance_count_rejected_before_allocating(self, tmp_path):
        ds = generate_feature_dataset(ToyTaskSpec(seed=37), 2)
        path = str(tmp_path / "n.dft")
        write_feature_file(path, ds)
        raw = bytearray(Path(path).read_bytes())
        raw[8:12] = (0xFFFFFFFF).to_bytes(4, "little")
        Path(path).write_bytes(bytes(raw))
        with pytest.raises(FeatureFileError, match="header promises 4294967295 instances"):
            read_feature_file(path)

    def test_empty_header_axis_rejected(self, tmp_path):
        ds = generate_feature_dataset(ToyTaskSpec(seed=38), 2)
        path = str(tmp_path / "z.dft")
        write_feature_file(path, ds)
        raw = bytearray(Path(path).read_bytes())
        raw[12:16] = (0xFFFFFFFF).to_bytes(4, "little")  # regions per instance
        raw[20:24] = (0).to_bytes(4, "little")  # region width
        Path(path).write_bytes(bytes(raw))
        with pytest.raises(FeatureFileError, match="empty axis"):
            read_feature_file(path)

    def test_name_not_utf8_rejected(self, tmp_path):
        ds = generate_feature_dataset(ToyTaskSpec(seed=39), 2)
        path = str(tmp_path / "u.dft")
        write_feature_file(path, ds)
        raw = bytearray(Path(path).read_bytes())
        raw[38] = 0xFF  # first byte of the first template name
        Path(path).write_bytes(bytes(raw))
        with pytest.raises(FeatureFileError, match="template name is not valid utf-8"):
            read_feature_file(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        ds = generate_feature_dataset(ToyTaskSpec(seed=36), 4)
        path = str(tmp_path / "g.dft")
        write_feature_file(path, ds)
        with open(path, "ab") as fh:
            fh.write(b"!")
        with pytest.raises(FeatureFileError, match="trailing"):
            read_feature_file(path)

    REFUSED = {
        "no_instances": (
            lambda ds: replace(ds, **{c: getattr(ds, c)[:0] for c in COLUMNS}),
            "empty axis",
        ),
        "answer_past_the_names": (
            lambda ds: replace(ds, answers=ds.answers + ds.n_answers),
            r"answer index out of range in instances \[0 1 2 3\]",
        ),
        "negative_answer": (
            lambda ds: replace(ds, answers=np.r_[ds.answers[:-1], -1]),
            r"answer index out of range in instances \[3\]",
        ),
        "template_past_the_names": (
            lambda ds: replace(ds, template_ids=ds.template_ids + 4),
            "template index out of range",
        ),
        "negative_template": (
            lambda ds: replace(ds, template_ids=-ds.template_ids - 1),
            "template index out of range",
        ),
        "columns_of_different_lengths": (
            lambda ds: replace(ds, tokens=ds.tokens[:-1]),
            "different lengths",
        ),
    }

    @pytest.mark.parametrize("case", REFUSED)
    def test_writer_refuses_what_the_reader_refuses_before_replacing(self, tmp_path, case):
        ds = generate_feature_dataset(ToyTaskSpec(seed=42), 4)
        path = tmp_path / "keep.dft"
        write_feature_file(str(path), ds)
        before = path.read_bytes()
        change, match = self.REFUSED[case]
        with pytest.raises(FeatureFileError, match=match):
            write_feature_file(str(path), change(ds))
        assert path.read_bytes() == before

    @pytest.fixture(scope="class")
    def golden(self, tmp_path_factory):
        """A small well-formed file: its directory, its bytes, and the length
        of its header plus name tables."""
        root = tmp_path_factory.mktemp("dfft")
        ds = generate_feature_dataset(ToyTaskSpec(seed=40), 3)
        write_feature_file(str(root / "good.dft"), ds)
        raw = (root / "good.dft").read_bytes()
        n, mu, d_v = ds.regions.shape
        _, token_len, d_w = ds.tokens.shape
        return root, raw, len(raw) - n * (8 * (mu * d_v + token_len * d_w) + 8)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_any_truncation_raises_feature_file_error(self, golden, data):
        root, raw, _ = golden
        cut = data.draw(st.integers(0, len(raw) - 1))
        (root / "cut.dft").write_bytes(raw[:cut])
        with pytest.raises(FeatureFileError):
            read_feature_file(str(root / "cut.dft"))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_header_bit_flips_load_or_raise_feature_file_error(self, golden, data):
        root, raw, head = golden
        bit_index = st.integers(0, 8 * head - 1)
        bits = data.draw(st.lists(bit_index, min_size=1, max_size=3, unique=True))
        flipped = bytearray(raw)
        for bit in bits:
            flipped[bit // 8] ^= 1 << (bit % 8)
        (root / "flip.dft").write_bytes(bytes(flipped))
        try:
            read_feature_file(str(root / "flip.dft"))
        except FeatureFileError:
            pass


class TestScatterWriter:
    """``write_feature_file`` gives the bytes of the packed writer it
    replaced (``reference_data.write_feature_file``) whatever ``os.writev``
    does and whatever layout the columns have."""

    @pytest.fixture
    def writev_calls(self, monkeypatch):
        """The number of buffers of each ``os.writev`` call."""
        calls = []
        writev = os.writev

        def counting_writev(fd, buffers):
            calls.append(len(buffers))
            return writev(fd, buffers)

        monkeypatch.setattr(os, "writev", counting_writev)
        return calls

    def assert_reference_bytes(self, tmp_path, ds):
        write_feature_file(str(tmp_path / "got.dft"), ds)
        reference.write_feature_file(str(tmp_path / "want.dft"), ds)
        assert (tmp_path / "got.dft").read_bytes() == (tmp_path / "want.dft").read_bytes()

    def test_short_writes_are_resumed(self, tmp_path, monkeypatch):
        calls = []

        def writev_1000_bytes(fd, buffers):
            calls.append(len(buffers))
            return os.write(fd, b"".join(bytes(b) for b in buffers)[:1000])

        ds = generate_feature_dataset(ToyTaskSpec(seed=60, noise_std=0.1), 5)
        monkeypatch.setattr(os, "writev", writev_1000_bytes)
        self.assert_reference_bytes(tmp_path, ds)
        assert len(calls) == math.ceil((tmp_path / "got.dft").stat().st_size / 1000)

    def test_more_buffers_than_iov_max(self, tmp_path, writev_calls):
        ds = generate_feature_dataset(ToyTaskSpec(seed=61), 400)
        self.assert_reference_bytes(tmp_path, ds)
        assert 3 * len(ds) + 1 > os.sysconf("SC_IOV_MAX") >= max(writev_calls)
        assert sum(writev_calls) == 3 * len(ds) + 1

    def test_columns_read_back_as_strided_record_views(self, tmp_path):
        path = str(tmp_path / "in.dft")
        reference.write_feature_file(path, generate_feature_dataset(ToyTaskSpec(seed=62), 9))
        back = read_feature_file(path)
        assert not back.regions.flags.c_contiguous and not back.tokens.flags.c_contiguous
        self.assert_reference_bytes(tmp_path, back)

    @pytest.mark.parametrize("layout", ["float32_and_fortran", "reversed_and_big_endian"])
    def test_columns_converted_one_instance_at_a_time(self, tmp_path, layout, writev_calls):
        ds = generate_feature_dataset(ToyTaskSpec(seed=63, noise_std=0.1), 7)
        if layout == "float32_and_fortran":
            ds = replace(
                ds, regions=ds.regions.astype(np.float32), tokens=np.asfortranarray(ds.tokens)
            )
        else:
            ds = replace(ds, regions=ds.regions[:, ::-1], tokens=ds.tokens.astype(">f8"))
        self.assert_reference_bytes(tmp_path, ds)
        # the header goes with the first instance
        assert writev_calls == [4] + [3] * (len(ds) - 1)

    def test_paper_size_write_makes_no_payload_sized_buffer(self, tmp_path):
        ds = generate_feature_dataset(PAPER, 100)
        tracemalloc.start()
        try:
            write_feature_file(str(tmp_path / "paper.dft"), ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def bits(a: np.ndarray) -> np.ndarray:
    """The float64 column as its 64-bit patterns, so equality is bitwise."""
    return a.view("<u8")


class TestMappedReader:
    """``read_feature_file`` maps the file copy-on-write instead of copying
    its payload."""

    @pytest.fixture(scope="class")
    def paper(self, tmp_path_factory):
        """100 paper-size instances (167 MB), in memory and written to a file."""
        ds = generate_feature_dataset(PAPER, 100)
        path = tmp_path_factory.mktemp("paper") / "paper.dft"
        write_feature_file(str(path), ds)
        return ds, path

    def test_paper_size_read_makes_no_payload_sized_buffer(self, paper):
        ds, path = paper
        tracemalloc.start()
        try:
            back = read_feature_file(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        for column in ("regions", "tokens"):
            assert not getattr(back, column).flags.owndata
            assert np.array_equal(bits(getattr(back, column)), bits(getattr(ds, column)))
        assert np.array_equal(back.answers, ds.answers)
        assert np.array_equal(back.template_ids, ds.template_ids)

    def test_eval_heap_follows_the_batch_not_the_file(self, paper, tmp_path):
        ds, path = paper
        quarter = tmp_path / "quarter.dft"
        write_feature_file(str(quarter), replace(ds, **{c: getattr(ds, c)[:25] for c in COLUMNS}))
        cfg = ModelConfig(dim=16, heads=2, hidden=16, d_v=PAPER.d_v, d_w=PAPER.d_w,
                          n_answers=ds.n_answers)
        model = build_model(cfg, np.random.default_rng(0))
        peaks = []
        for source in (quarter, path):
            tracemalloc.start()
            try:
                evaluate_by_template(model, read_feature_file(str(source)), batch_size=8)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # One batch of 8 paper instances is 13.4 MB; the file holds 100.
        assert peaks[0] > 8 * ds.regions[0].nbytes
        assert abs(peaks[1] - peaks[0]) < 1 << 20

    def test_payload_at_an_odd_offset_reads_back_bitwise(self, tmp_path):
        ds = generate_feature_dataset(ToyTaskSpec(seed=64, noise_std=0.1), 9)
        ds = replace(ds, answer_names=[ds.answer_names[0] + "!", *ds.answer_names[1:]])
        path = tmp_path / "odd.dft"
        write_feature_file(str(path), ds)
        record = 8 * (ds.regions[0].size + ds.tokens[0].size) + 8
        assert (path.stat().st_size - len(ds) * record) % 2 == 1
        back = read_feature_file(str(path))
        assert not back.regions.flags.aligned and not back.tokens.flags.aligned
        for column in ("regions", "tokens"):
            assert np.array_equal(bits(getattr(back, column)), bits(getattr(ds, column)))
        assert back.answer_names == ds.answer_names
        (batch,) = make_batches(back, len(back))
        assert batch.regions.flags.aligned
        assert np.array_equal(bits(batch.regions), bits(ds.regions))

    def test_writes_to_the_columns_stay_in_this_process(self, tmp_path):
        ds = generate_feature_dataset(ToyTaskSpec(seed=65), 4)
        path = tmp_path / "cow.dft"
        write_feature_file(str(path), ds)
        before = path.read_bytes()
        back = read_feature_file(str(path))
        back.regions[2, 0, 0] = float("nan")
        back.tokens[...] = 0.0
        assert path.read_bytes() == before
        again = read_feature_file(str(path))
        assert np.array_equal(bits(again.regions), bits(ds.regions))
        assert np.array_equal(bits(again.tokens), bits(ds.tokens))

    @pytest.mark.skipif(
        not Path("/proc/sys/vm/overcommit_memory").exists()
        or Path("/proc/sys/vm/overcommit_memory").read_text().strip() == "2",
        reason="needs Linux's overcommit heuristic, which strict accounting replaces",
    )
    def test_file_larger_than_ram_plus_swap_is_mapped(self, tmp_path):
        # A sparse file of 1 GiB records: the reader maps it and reads only
        # the answer and template ids, one page per record.
        meminfo = dict(line.split(":") for line in Path("/proc/meminfo").read_text().splitlines())
        limit = sum(int(meminfo[k].split()[0]) << 10 for k in ("MemTotal", "SwapTotal"))
        d_v = 1 << 27
        n = limit // (8 * d_v) + 1
        header = struct.pack("<4s8I", b"DFFT", 1, n, 1, 1, d_v, 1, 1, 1)
        header += b"".join(struct.pack("<H", len(w)) + w for w in (b"attribute", b"yes"))
        path = tmp_path / "huge.dft"
        with open(path, "wb") as fh:
            fh.write(header)
            fh.truncate(len(header) + n * (8 * d_v + 16))
        back = read_feature_file(str(path))
        assert len(back) == n and back.regions.nbytes > limit
        assert not back.answers.any() and not back.template_ids.any()

    def test_file_that_shrinks_before_it_is_mapped_is_a_feature_file_error(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "shrinks.dft"
        write_feature_file(str(path), generate_feature_dataset(ToyTaskSpec(seed=66), 4))
        real_mmap = mmap.mmap

        def shrink_then_map(fileno, length, **kwargs):
            os.truncate(path, path.stat().st_size - 1)
            return real_mmap(fileno, length, **kwargs)

        monkeypatch.setattr(mmap, "mmap", shrink_then_map)
        with pytest.raises(FeatureFileError, match="feature file shrank while being read"):
            read_feature_file(str(path))


class TestMakeBatches:
    def dataset(self, n=10):
        return generate_feature_dataset(ToyTaskSpec(seed=41), n)

    def test_batch_size_arithmetic(self):
        ds = self.dataset(10)
        batches = list(make_batches(ds, 4))
        assert [len(b) for b in batches] == [4, 4, 2]
        for batch in batches:
            assert batch.template_names is ds.template_names
            assert batch.answer_names is ds.answer_names

    def test_sequential_preserves_order(self):
        ds = self.dataset(10)
        got = np.concatenate([b.answers for b in make_batches(ds, 3)])
        assert np.array_equal(got, ds.answers)

    def test_shuffle_is_permutation(self):
        ds = self.dataset(23)
        rng = np.random.default_rng(0)
        got = np.concatenate([b.regions for b in make_batches(ds, 5, rng)])
        assert got.shape == ds.regions.shape
        assert np.array_equal(
            np.sort(got.reshape(23, -1), axis=0),
            np.sort(ds.regions.reshape(23, -1), axis=0),
        )

    def test_shuffle_deterministic_given_seed(self):
        ds = self.dataset(20)
        a = [b.answers for b in make_batches(ds, 6, np.random.default_rng(5))]
        b = [b.answers for b in make_batches(ds, 6, np.random.default_rng(5))]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_batch_rows_stay_aligned(self):
        ds = self.dataset(12)
        rng = np.random.default_rng(1)
        for batch in make_batches(ds, 5, rng):
            for j in range(len(batch)):
                orig = np.where(
                    (ds.regions == batch.regions[j]).all(axis=(1, 2))
                )[0]
                assert len(orig) == 1
                i = orig[0]
                assert ds.answers[i] == batch.answers[j]
                assert ds.template_ids[i] == batch.template_ids[j]

    def test_errors(self):
        ds = self.dataset(4)
        with pytest.raises(ValueError, match="batch_size"):
            list(make_batches(ds, 0))


class TestSummary:
    def test_counts(self):
        ds = generate_feature_dataset(ToyTaskSpec(seed=51), 24)
        s = dataset_summary(ds)
        assert s["n_instances"] == 24
        assert sum(s["templates"].values()) == 24
        assert sum(s["answers"].values()) == 24
        assert s["n_regions"] == 12 and s["d_v"] == 64 and s["d_w"] == 32
