"""Synthetic grid-scene question tasks, feature files, and batching.

Scenes are fully occupied rows × cols grids of objects, one object per cell,
each with a color (iid uniform) and a shape (exactly balanced across the
scene). Region features expose color, shape, row, column, and cell as one-hot
blocks (zero-padded to d_v, optional gaussian noise), so spatial relations
between two regions are decidable from their feature vectors alone. Question
tokens are rows of a frozen random codebook; the codebook seed is separate
from the instance seed so independently generated train and eval files share
token meanings.

Templates, each answered exactly from the scene graph:

* attribute   — the color of the object at a named cell. A pooled color
  histogram makes the modal color a better-than-chance guess, so pooling
  baselines score above chance here.
* relational  — the color of the object one step (toroidally) above / below /
  left / right of an anchor object. The answer color is drawn uniformly
  first and the anchor/direction sampled to match (scenes with no fitting
  anchor are redrawn), so the answer is independent of the scene's color
  histogram and of everything the question reveals. A configurable fraction
  of questions (relational_direct_fraction) names the anchor cell directly;
  the rest name it by a color+shape pair unique in the scene, so the
  referent must be found by matching region content against the question —
  the composition that requires relating regions to each other and to the
  question rather than reading off pooled statistics.
* existence   — whether a color+shape combination occurs; yes/no answers are
  drawn balanced by construction.
* counting    — how many objects have a named color (colors are rejected
  until the count fits the answer vocabulary; the balanced-shape pigeonhole
  guarantees one always fits).

Generation writes ``FeatureDataset`` columns directly: the scene loop fills
preallocated region, token-id and answer arrays, and one indexed write after
it adds every scene's one-hot blocks. Questions are drawn from integer
tables built once per spec (each cell's neighbour per relation, token and
answer ids), with no per-question string work. The codebook is drawn once
per (codebook_seed, vocabulary size, d_w), kept in a small cache and handed
out read-only. ``FeatureDataset`` is the only dataset type; batches are
slices of it that share its name tables.

``write_feature_file`` scatter-writes the records with ``os.writev``
straight from the columns, so it makes no payload-sized buffer; ``os.writev``
makes the writer Unix-only. It refuses a dataset the reader would reject
before it replaces the file at its path.
"""

from __future__ import annotations

import functools
import io
import math
import os
import struct
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .binio import open_output, read_str, read_struct, write_str

MAGIC = b"DFFT"
VERSION = 1

_F8 = np.dtype("<f8")

TEMPLATES = ("attribute", "relational", "existence", "counting")
RELATIONS = ("above", "below", "left", "right")


class FeatureFileError(ValueError):
    """Feature file is malformed; the message names what is wrong."""


@dataclass(frozen=True)
class ToyTaskSpec:
    """Generation parameters for one dataset."""

    grid_rows: int = 3
    grid_cols: int = 4
    n_colors: int = 4
    n_shapes: int = 4
    templates: tuple[str, ...] = TEMPLATES
    max_count: int = 4
    token_len: int = 6
    d_v: int = 64
    d_w: int = 32
    noise_std: float = 0.0
    relational_direct_fraction: float = 0.3
    seed: int = 0
    codebook_seed: int = 7777

    def __post_init__(self):
        for name in ("grid_rows", "grid_cols", "n_colors", "n_shapes", "token_len"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if not self.templates:
            raise ValueError("at least one question template required")
        unknown = [t for t in self.templates if t not in TEMPLATES]
        if unknown:
            raise ValueError(f"unknown templates {unknown}, known: {TEMPLATES}")
        mu = self.n_regions
        if mu % self.n_shapes != 0:
            raise ValueError(
                f"shape balance needs n_shapes ({self.n_shapes}) to divide "
                f"the region count ({mu})"
            )
        if "existence" in self.templates and self.n_colors * self.n_shapes <= mu:
            raise ValueError(
                "existence questions need an absent color+shape pair: "
                f"n_colors*n_shapes ({self.n_colors * self.n_shapes}) must exceed "
                f"the region count ({mu})"
            )
        if "counting" in self.templates and self.max_count < mu // self.n_colors:
            raise ValueError(
                f"max_count ({self.max_count}) below the guaranteed minimum color "
                f"count ({mu // self.n_colors}); some scenes would have no askable color"
            )
        if self.d_v < self.feature_width:
            raise ValueError(
                f"d_v ({self.d_v}) below one-hot feature width ({self.feature_width})"
            )
        if self.token_len < 3:
            raise ValueError(f"token_len must be at least 3, got {self.token_len}")
        if self.noise_std < 0:
            raise ValueError(f"noise_std must be nonnegative, got {self.noise_std}")
        if not 0.0 <= self.relational_direct_fraction <= 1.0:
            raise ValueError(
                "relational_direct_fraction must lie in [0, 1], got "
                f"{self.relational_direct_fraction}"
            )

    @property
    def n_regions(self) -> int:
        return self.grid_rows * self.grid_cols

    @property
    def feature_width(self) -> int:
        # one-hot blocks: color | shape | row | col | cell
        return (
            self.n_colors
            + self.n_shapes
            + self.grid_rows
            + self.grid_cols
            + self.n_regions
        )

    @property
    def enabled_templates(self) -> tuple[str, ...]:
        return tuple(t for t in TEMPLATES if t in self.templates)


def answer_vocabulary(spec: ToyTaskSpec) -> list[str]:
    """Closed answer set covering every enabled template, in fixed order.
    Attribute and relational queries share the color answers, so the list is
    deduplicated while keeping first-appearance order."""
    names: list[str] = []
    for template in spec.enabled_templates:
        if template in ("attribute", "relational"):
            names += [f"color_{i}" for i in range(spec.n_colors)]
        elif template == "existence":
            names += ["no", "yes"]
        else:
            names += [f"count_{i}" for i in range(spec.max_count + 1)]
    return list(dict.fromkeys(names))


def token_vocabulary(spec: ToyTaskSpec) -> list[str]:
    """All token symbols (independent of which templates are enabled, so the
    codebook is shared across template subsets)."""
    return (
        ["pad", "ask_color", "ask_color_rel", "ask_exists", "ask_count"]
        + [f"rel_{r}" for r in RELATIONS]
        + [f"cell_{i}" for i in range(spec.n_regions)]
        + [f"color_{i}" for i in range(spec.n_colors)]
        + [f"shape_{i}" for i in range(spec.n_shapes)]
    )


def token_codebook(spec: ToyTaskSpec) -> np.ndarray:
    """Frozen random embedding rows; depends only on codebook_seed and the
    vocabulary shape, never on the instance seed.

    Rows are drawn at std sqrt(3) so the embed layer (uniform +-1/sqrt(fan_in)
    weights, which attenuate unit-RMS input by 1/sqrt(3)) emits unit-RMS
    token vectors. They are drawn once per (codebook_seed, vocabulary size,
    d_w) and the same array goes to every caller, so it is read-only."""
    return _codebook(spec.codebook_seed, len(token_vocabulary(spec)), spec.d_w)


@functools.lru_cache(maxsize=8)
def _codebook(seed: int, size: int, d_w: int) -> np.ndarray:
    rows = np.random.default_rng(seed).standard_normal((size, d_w)) * math.sqrt(3.0)
    rows.flags.writeable = False
    return rows


def related_cell(cell: int, relation: str, rows: int, cols: int) -> int:
    """The unique cell one toroidal step in ``relation`` from ``cell``."""
    if relation not in RELATIONS:
        raise ValueError(f"unknown relation {relation!r}, known: {RELATIONS}")
    r, c = divmod(cell, cols)
    if relation == "above":
        r = (r - 1) % rows
    elif relation == "below":
        r = (r + 1) % rows
    elif relation == "left":
        c = (c - 1) % cols
    else:
        c = (c + 1) % cols
    return r * cols + c


def _question_sampler(spec: ToyTaskSpec):
    """``sample(template, colors, shapes, rng)`` for ``spec``: a question
    about the scene whose cells have ``colors`` and ``shapes``, as the triple
    (question as the scene dict holds it, answer id, token ids before
    padding), or None when a relational scene has no fitting anchor.

    The questions, their answers and their rng draws follow the template
    definitions in the module docstring. ``sample`` reads integer tables
    built here once: each cell's neighbour per relation, the first token id
    of each word family, and the answer id of each color, yes/no and count.
    A (color, shape) pair is the integer color * n_shapes + shape, so pairs
    in ascending order are pairs sorted by color, then shape."""
    n_colors, n_shapes, n_pairs = spec.n_colors, spec.n_shapes, spec.n_colors * spec.n_shapes
    every_cell = np.arange(spec.n_regions)
    neighbour = np.array(
        [
            [related_cell(cell, r, spec.grid_rows, spec.grid_cols) for r in RELATIONS]
            for cell in range(spec.n_regions)
        ]
    )
    word = {w: i for i, w in enumerate(token_vocabulary(spec))}
    rel0, cell0, color0, shape0 = (word[w] for w in ("rel_above", "cell_0", "color_0", "shape_0"))
    answer = {a: i for i, a in enumerate(answer_vocabulary(spec))}
    color_answer = [answer.get(f"color_{c}") for c in range(n_colors)]
    count_answer = [answer.get(f"count_{k}") for k in range(spec.max_count + 1)]
    yes_no = [answer.get("no"), answer.get("yes")]

    def sample(template: str, colors: np.ndarray, shapes: np.ndarray, rng):
        if template == "attribute":
            cell = int(rng.integers(spec.n_regions))
            question = {"template": template, "cell": cell}
            return question, color_answer[colors[cell]], [word["ask_color"], cell0 + cell]
        if template == "relational":
            # The answer color is drawn uniformly BEFORE picking the anchor
            # and direction, which decouples the answer from the scene's
            # color histogram: a pooled color count predicts nothing. The
            # anchor is then named one of two ways. A direct question names
            # the anchor cell outright — spatial lookup plus readout, the
            # easier rung. A content question names a (color, shape) pair
            # unique in the scene, so the referent must first be found by
            # matching region content — that composition cannot be
            # precomputed question-free, which is what keeps
            # pooling-plus-fusion shortcuts below the full model.
            target = int(rng.integers(n_colors))
            direct = rng.random() < spec.relational_direct_fraction
            if direct:
                anchors = every_cell
            else:
                pair = colors * n_shapes + shapes
                anchors = (np.bincount(pair, minlength=n_pairs)[pair] == 1).nonzero()[0]
                anchors = anchors[pair[anchors].argsort()]
            # the candidates are (anchor, relation) pairs, anchor-major
            hits = (colors[neighbour[anchors]] == target).ravel().nonzero()[0]
            if not hits.size:
                return None  # caller redraws the scene; see generate_toy_dataset
            k, rel = divmod(int(hits[rng.integers(hits.size)]), len(RELATIONS))
            anchor = int(anchors[k])
            question = {"template": template, "relation": RELATIONS[rel]}
            words = [word["ask_color_rel"], rel0 + rel]
            if direct:
                question["cell"] = anchor
                words.append(cell0 + anchor)
            else:
                color, shape = int(colors[anchor]), int(shapes[anchor])
                question.update(color=color, shape=shape)
                words += [color0 + color, shape0 + shape]
            return question, color_answer[target], words
        if template == "existence":
            present = np.bincount(colors * n_shapes + shapes, minlength=n_pairs) > 0
            want_yes = bool(rng.integers(2))
            pool = (present == want_yes).nonzero()[0]
            color, shape = divmod(int(pool[rng.integers(pool.size)]), n_shapes)
            question = {"template": template, "color": color, "shape": shape}
            return question, yes_no[want_yes], [word["ask_exists"], color0 + color, shape0 + shape]
        # counting: ask only colors whose count fits the answer vocabulary;
        # the balanced-shape pigeonhole guarantees at least one color does
        order = rng.permutation(n_colors)
        counts = np.bincount(colors, minlength=n_colors)[order]
        first = int((counts <= spec.max_count).argmax())
        color = int(order[first])
        question = {"template": template, "color": color}
        return question, count_answer[counts[first]], [word["ask_count"], color0 + color]

    return sample


def generate_toy_dataset(
    spec: ToyTaskSpec, n: int
) -> tuple[FeatureDataset, list[dict]]:
    """Deterministic dataset of ``n`` instances and the scene graph behind
    each one; templates cycle round-robin so the mix is exact.

    The scene loop writes straight into the dataset's columns: each
    question's answer id and token ids, and each instance's noise, drawn in
    turn and added into its zeroed region rows. After the loop one indexed
    write adds every scene's one-hots, and the scene dicts are built from
    the color, shape and cell columns."""
    if n < 1:
        raise ValueError(f"need at least one instance, got {n}")
    rng = np.random.default_rng(spec.seed)
    sample = _question_sampler(spec)
    enabled = spec.enabled_templates
    mu = spec.n_regions

    shape_pool = np.repeat(np.arange(spec.n_shapes), mu // spec.n_shapes)
    regions = np.zeros((n, mu, spec.d_v))
    token_ids = np.zeros((n, spec.token_len), dtype=np.intp)  # token 0 is "pad"
    answers = np.empty(n, dtype=np.intp)
    # per scene: the color and shape of each cell, and the cell of each region
    colors, shapes, cells = np.empty((3, n, mu), dtype=np.intp)
    questions: list[dict] = []
    for i in range(n):
        template = enabled[i % len(enabled)]
        while True:
            colors[i] = rng.integers(spec.n_colors, size=mu)
            shapes[i] = rng.permutation(shape_pool)
            cells[i] = rng.permutation(mu)
            drawn = sample(template, colors[i], shapes[i], rng)
            if drawn is not None:
                break
            # relational scene with no fitting anchor: redraw
        question, answers[i], words = drawn
        questions.append(question)
        words = words[: spec.token_len]
        token_ids[i, : len(words)] = words
        if spec.noise_std > 0:
            regions[i] += rng.standard_normal((mu, spec.d_v)) * spec.noise_std

    # Region row j of scene i holds the color, shape, row, column and cell
    # one-hot blocks of cell cells[i, j], then zero padding. Five indicator
    # blocks in a d_v-wide vector: amplitude sqrt(3*d_v/5) makes the full
    # vector unit-RMS after the embed layer's 1/sqrt(3) attenuation (uniform
    # +-1/sqrt(fan_in) init), so attention logits start at a trainable scale
    # instead of collapsing toward uniform rows.
    by_region = [np.take_along_axis(a, cells, axis=1) for a in (colors, shapes)]
    hot = np.stack([*by_region, *np.divmod(cells, spec.grid_cols), cells], axis=2)
    hot += np.cumsum([0, spec.n_colors, spec.n_shapes, spec.grid_rows, spec.grid_cols])
    amplitude = math.sqrt(3.0 * spec.d_v / 5)
    regions[np.arange(n)[:, None, None], np.arange(mu)[:, None], hot] += amplitude
    dataset = FeatureDataset(
        regions=regions,
        tokens=token_codebook(spec)[token_ids],
        answers=answers,
        template_ids=np.arange(n) % len(enabled),
        template_names=list(enabled),
        answer_names=answer_vocabulary(spec),
    )
    scenes = [
        {"colors": c, "shapes": s, "region_cells": r, "question": q}
        for c, s, r, q in zip(colors.tolist(), shapes.tolist(), cells.tolist(), questions)
    ]
    return dataset, scenes


# ---------------------------------------------------------------------------
# stacked dataset + binary file format


@dataclass
class FeatureDataset:
    """Column-stacked instances plus the name tables needed to interpret
    answers and per-template breakdowns. Its makers (the generator, the
    reader and ``make_batches``) give every column one instance count."""

    regions: np.ndarray  # (n, mu, d_v)
    tokens: np.ndarray  # (n, L, d_w)
    answers: np.ndarray  # (n,) intp
    template_ids: np.ndarray  # (n,) intp
    template_names: list[str]
    answer_names: list[str]

    def __len__(self) -> int:
        return int(self.regions.shape[0])

    @property
    def n_answers(self) -> int:
        return len(self.answer_names)


def generate_feature_dataset(spec: ToyTaskSpec, n: int) -> FeatureDataset:
    """generate_toy_dataset without the scene graphs."""
    return generate_toy_dataset(spec, n)[0]


def _record_dtype(mu: int, token_len: int, d_v: int, d_w: int) -> np.dtype:
    """One packed payload record per instance."""
    return np.dtype(
        [
            ("regions", "<f8", (mu, d_v)),
            ("tokens", "<f8", (token_len, d_w)),
            ("answer", "<u4"),
            ("template", "<u4"),
        ]
    )


def _check_axes(n: int, mu: int, token_len: int, d_v: int, d_w: int) -> None:
    if min(n, mu, token_len, d_v, d_w) < 1:
        raise FeatureFileError(
            f"feature file has an empty axis: {n} instances of "
            f"{mu}x{d_v} regions and {token_len}x{d_w} tokens"
        )


def _check_ids(
    answers: np.ndarray, template_ids: np.ndarray, n_answers: int, n_templates: int
) -> None:
    for what, ids, bound in (
        ("answer", answers, n_answers),
        ("template", template_ids, n_templates),
    ):
        bad = (ids < 0) | (ids >= bound)
        if bad.any():
            raise FeatureFileError(
                f"{what} index out of range in instances {bad.nonzero()[0][:5]}"
            )


def _write_all(fd: int, buffers: list[np.ndarray]) -> None:
    """Every byte of ``buffers`` to ``fd`` by ``os.writev``, resuming a
    short write where it stopped."""
    start = 0
    while start < len(buffers):
        done = os.writev(fd, buffers[start:])
        while start < len(buffers) and done >= buffers[start].nbytes:
            done -= buffers[start].nbytes
            start += 1
        if done:
            buffers[start] = buffers[start].reshape(-1).view(np.uint8)[done:]


def write_feature_file(path: str, dataset: FeatureDataset) -> None:
    """Header, name tables, then one record per instance: regions, tokens,
    answer, template (float64 and u32, little-endian throughout).

    A dataset ``read_feature_file`` would reject is refused before
    ``open_output`` replaces the file at ``path``. No record array is built:
    each instance goes to ``os.writev`` as three buffers, its region block,
    its token block and its packed (answer, template) row, at most
    ``SC_IOV_MAX`` buffers per call. A block that is not C-contiguous
    ``<f8`` is converted on its own and written before the next one is."""
    n, mu, d_v = dataset.regions.shape
    _, token_len, d_w = dataset.tokens.shape
    _check_axes(n, mu, token_len, d_v, d_w)
    counts = (len(dataset.tokens), len(dataset.answers), len(dataset.template_ids))
    if counts != (n, n, n):
        raise FeatureFileError(
            f"columns of different lengths: {n} region blocks, {counts[0]} token "
            f"blocks, {counts[1]} answers and {counts[2]} template ids"
        )
    n_templates = len(dataset.template_names)
    _check_ids(dataset.answers, dataset.template_ids, dataset.n_answers, n_templates)
    head = io.BytesIO()
    head.write(MAGIC)
    head.write(
        struct.pack("<8I", VERSION, n, mu, token_len, d_v, d_w, dataset.n_answers, n_templates)
    )
    for name in dataset.template_names + dataset.answer_names:
        write_str(head, name, FeatureFileError)
    labels = np.empty((n, 2), dtype="<u4")
    labels[:, 0] = dataset.answers
    labels[:, 1] = dataset.template_ids
    iov_max = os.sysconf("SC_IOV_MAX")
    pending = [np.frombuffer(head.getvalue(), dtype=np.uint8)]
    with open_output(path) as fh:
        for i in range(n):
            converted = False
            for block in (dataset.regions[i], dataset.tokens[i]):
                if block.dtype != _F8 or not block.flags.c_contiguous:
                    block = np.ascontiguousarray(block, dtype=_F8)
                    converted = True
                pending.append(block)
            pending.append(labels[i])
            if converted or len(pending) + 3 > iov_max or i == n - 1:
                _write_all(fh.fileno(), pending)
                pending = []


def read_feature_file(path: str) -> FeatureDataset:
    """The payload size the header promises is checked against the bytes
    left in the file before anything is allocated for it. The returned
    columns are views into one record array."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise FeatureFileError(f"bad feature-file magic {magic!r}, expected {MAGIC!r}")
        version, n, mu, token_len, d_v, d_w, n_answers = read_struct(
            fh, "<7I", "header", FeatureFileError
        )
        if version != VERSION:
            raise FeatureFileError(
                f"unsupported feature-file version {version}, expected {VERSION}"
            )
        _check_axes(n, mu, token_len, d_v, d_w)
        (n_templates,) = read_struct(fh, "<I", "template count", FeatureFileError)
        template_names = [
            read_str(fh, "template name", FeatureFileError) for _ in range(n_templates)
        ]
        answer_names = [read_str(fh, "answer name", FeatureFileError) for _ in range(n_answers)]
        need = n * (8 * (mu * d_v + token_len * d_w) + 8)
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left < need:
            raise FeatureFileError(
                f"truncated feature file: header promises {n} instances "
                f"({need} bytes), file holds {left}"
            )
        if left > need:
            raise FeatureFileError("trailing bytes after feature payload")
        records = np.empty(n, dtype=_record_dtype(mu, token_len, d_v, d_w))
        if fh.readinto(records) != need:
            raise FeatureFileError("feature file shrank while being read")
    answers = records["answer"].astype(np.intp)
    template_ids = records["template"].astype(np.intp)
    _check_ids(answers, template_ids, n_answers, len(template_names))
    return FeatureDataset(
        regions=records["regions"],
        tokens=records["tokens"],
        answers=answers,
        template_ids=template_ids,
        template_names=template_names,
        answer_names=answer_names,
    )


def dataset_summary(dataset: FeatureDataset) -> dict:
    """JSON-ready counts: instances, template mix, answer histogram."""
    template_mix = {
        name: int((dataset.template_ids == i).sum())
        for i, name in enumerate(dataset.template_names)
    }
    answer_hist = {
        name: int((dataset.answers == i).sum())
        for i, name in enumerate(dataset.answer_names)
    }
    return {
        "n_instances": len(dataset),
        "n_regions": int(dataset.regions.shape[1]),
        "token_len": int(dataset.tokens.shape[1]),
        "d_v": int(dataset.regions.shape[2]),
        "d_w": int(dataset.tokens.shape[2]),
        "templates": template_mix,
        "answers": answer_hist,
    }


def make_batches(
    dataset: FeatureDataset,
    batch_size: int,
    rng: np.random.Generator | None = None,
) -> Iterator[FeatureDataset]:
    """Every instance exactly once per pass, shuffled by ``rng`` or in file
    order without one; the final short batch is kept. Each batch is a
    FeatureDataset that shares the source's name tables."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    if len(dataset) == 0:
        raise ValueError("cannot batch an empty dataset")
    order = np.arange(len(dataset)) if rng is None else rng.permutation(len(dataset))
    for start in range(0, len(dataset), batch_size):
        idx = order[start : start + batch_size]
        yield replace(
            dataset,
            regions=dataset.regions[idx],
            tokens=dataset.tokens[idx],
            answers=dataset.answers[idx],
            template_ids=dataset.template_ids[idx],
        )
