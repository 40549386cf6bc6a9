"""Synthetic grid-scene question tasks, feature files, and batching.

Scenes are fully occupied rows × cols grids of objects, one object per cell,
each with a color (iid uniform) and a shape (exactly balanced across the
scene). Region features expose color, shape, row, column, and cell as one-hot
blocks (zero-padded to d_v, optional gaussian noise), so spatial relations
between two regions are decidable from their feature vectors alone. Question
tokens are rows of a frozen random codebook; the codebook seed is separate
from the instance seed so independently generated train and eval files share
token meanings.

Templates, each with an exact symbolic oracle over the scene graph:

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
it adds every scene's one-hot blocks. ``FeatureDataset`` is the only dataset
type; batches are slices of it that share its name tables.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .binio import open_output, read_str, read_struct, write_str

MAGIC = b"DFFT"
VERSION = 1

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
    token vectors."""
    vocab = token_vocabulary(spec)
    rng = np.random.default_rng(spec.codebook_seed)
    return rng.standard_normal((len(vocab), spec.d_w)) * math.sqrt(3.0)


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


def oracle_answer(spec: ToyTaskSpec, scene: dict) -> str:
    """Symbolic ground truth from the scene graph; never touches features."""
    colors, shapes = scene["colors"], scene["shapes"]
    q = scene["question"]
    template = q["template"]
    if template == "attribute":
        return f"color_{colors[q['cell']]}"
    if template == "relational":
        if "cell" in q:
            anchor = q["cell"]
        else:
            anchors = [
                cell
                for cell in range(spec.n_regions)
                if colors[cell] == q["color"] and shapes[cell] == q["shape"]
            ]
            if len(anchors) != 1:
                raise ValueError(
                    f"relational anchor color_{q['color']}/shape_{q['shape']} matches "
                    f"{len(anchors)} cells, need exactly 1"
                )
            anchor = anchors[0]
        target = related_cell(anchor, q["relation"], spec.grid_rows, spec.grid_cols)
        return f"color_{colors[target]}"
    if template == "existence":
        present = (q["color"], q["shape"]) in set(zip(colors, shapes))
        return "yes" if present else "no"
    if template == "counting":
        return f"count_{colors.count(q['color'])}"
    raise ValueError(f"unknown template {template!r}")


def _sample_question(spec: ToyTaskSpec, template: str, scene: dict, rng) -> dict | None:
    mu = spec.n_regions
    colors, shapes = scene["colors"], scene["shapes"]
    if template == "attribute":
        return {"template": template, "cell": int(rng.integers(mu))}
    if template == "relational":
        # The answer color is drawn uniformly BEFORE picking the anchor and
        # direction, which decouples the answer from the scene's color
        # histogram: a pooled color count predicts nothing. The anchor is
        # then named one of two ways. A direct question names the anchor
        # cell outright — spatial lookup plus readout, the easier rung. A
        # content question names a (color, shape) pair unique in the scene,
        # so the referent must first be found by matching region content —
        # that composition cannot be precomputed question-free, which is
        # what keeps pooling-plus-fusion shortcuts below the full model.
        target = int(rng.integers(spec.n_colors))
        direct = rng.random() < spec.relational_direct_fraction
        if direct:
            candidates_d = [
                (cell, relation)
                for cell in range(mu)
                for relation in RELATIONS
                if colors[related_cell(cell, relation, spec.grid_rows, spec.grid_cols)]
                == target
            ]
            if not candidates_d:
                return None  # caller redraws the scene; see generate_toy_dataset
            cell, relation = candidates_d[int(rng.integers(len(candidates_d)))]
            return {"template": template, "relation": relation, "cell": int(cell)}
        pair_cells: dict[tuple[int, int], list[int]] = {}
        for cell in range(mu):
            pair_cells.setdefault((colors[cell], shapes[cell]), []).append(cell)
        candidates = []
        for (color, shape), cells in sorted(pair_cells.items()):
            if len(cells) != 1:
                continue
            for relation in RELATIONS:
                nbr = related_cell(cells[0], relation, spec.grid_rows, spec.grid_cols)
                if colors[nbr] == target:
                    candidates.append((color, shape, relation))
        if not candidates:
            return None  # caller redraws the scene; see generate_toy_dataset
        color, shape, relation = candidates[int(rng.integers(len(candidates)))]
        return {
            "template": template,
            "relation": relation,
            "color": int(color),
            "shape": int(shape),
        }
    if template == "existence":
        pairs = {(c, s) for c in range(spec.n_colors) for s in range(spec.n_shapes)}
        present = sorted(set(zip(colors, shapes)))
        absent = sorted(pairs - set(present))
        want_yes = bool(rng.integers(2))
        pool = present if want_yes else absent
        color, shape = pool[int(rng.integers(len(pool)))]
        return {"template": template, "color": int(color), "shape": int(shape)}
    # counting: ask only colors whose count fits the answer vocabulary; the
    # balanced-shape pigeonhole guarantees at least one color qualifies
    order = rng.permutation(spec.n_colors)
    for color in order:
        if colors.count(int(color)) <= spec.max_count:
            return {"template": template, "color": int(color)}
    raise AssertionError("unreachable: some color count is at most mu/n_colors")


def _question_tokens(spec: ToyTaskSpec, q: dict) -> list[str]:
    template = q["template"]
    if template == "attribute":
        words = ["ask_color", f"cell_{q['cell']}"]
    elif template == "relational":
        if "cell" in q:
            words = ["ask_color_rel", f"rel_{q['relation']}", f"cell_{q['cell']}"]
        else:
            words = [
                "ask_color_rel",
                f"rel_{q['relation']}",
                f"color_{q['color']}",
                f"shape_{q['shape']}",
            ]
    elif template == "existence":
        words = ["ask_exists", f"color_{q['color']}", f"shape_{q['shape']}"]
    else:
        words = ["ask_count", f"color_{q['color']}"]
    words = words[: spec.token_len]
    return words + ["pad"] * (spec.token_len - len(words))


def generate_toy_dataset(
    spec: ToyTaskSpec, n: int
) -> tuple[FeatureDataset, list[dict]]:
    """Deterministic dataset of ``n`` instances and the scene graph behind
    each one; templates cycle round-robin so the mix is exact, answers come
    from the symbolic oracle.

    The scene loop writes straight into the dataset's columns: each
    instance's noise is drawn in turn and added into its zeroed region rows,
    and after the loop one indexed write adds every scene's one-hots."""
    if n < 1:
        raise ValueError(f"need at least one instance, got {n}")
    rng = np.random.default_rng(spec.seed)
    vocab_index = {w: i for i, w in enumerate(token_vocabulary(spec))}
    answer_names = answer_vocabulary(spec)
    answer_index = {a: i for i, a in enumerate(answer_names)}
    enabled = spec.enabled_templates
    mu = spec.n_regions

    shape_pool = np.repeat(np.arange(spec.n_shapes), mu // spec.n_shapes)
    regions = np.zeros((n, mu, spec.d_v))
    token_ids = np.empty((n, spec.token_len), dtype=np.intp)
    answers = np.empty(n, dtype=np.intp)
    # per scene: the color and shape of each cell, and the cell of each region
    colors, shapes, cells = np.empty((3, n, mu), dtype=np.intp)
    scenes: list[dict] = []
    for i in range(n):
        template = enabled[i % len(enabled)]
        while True:
            colors[i] = rng.integers(spec.n_colors, size=mu)
            shapes[i] = rng.permutation(shape_pool)
            cells[i] = rng.permutation(mu)
            scene = {
                "colors": colors[i].tolist(),
                "shapes": shapes[i].tolist(),
                "region_cells": cells[i].tolist(),
            }
            question = _sample_question(spec, template, scene, rng)
            if question is not None:
                break
            # relational scene with no uniquely identified cell: redraw
        scene["question"] = question
        scenes.append(scene)
        answers[i] = answer_index[oracle_answer(spec, scene)]
        token_ids[i] = [vocab_index[w] for w in _question_tokens(spec, question)]
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
        answer_names=answer_names,
    )
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


def write_feature_file(path: str, dataset: FeatureDataset) -> None:
    """Header, name tables, then one record per instance: regions, tokens,
    answer, template (float64 and u32, little-endian throughout)."""
    n, mu, d_v = dataset.regions.shape
    _, token_len, d_w = dataset.tokens.shape
    records = np.empty(n, dtype=_record_dtype(mu, token_len, d_v, d_w))
    records["regions"] = dataset.regions
    records["tokens"] = dataset.tokens
    records["answer"] = dataset.answers
    records["template"] = dataset.template_ids
    with open_output(path) as fh:
        fh.write(MAGIC)
        fh.write(
            struct.pack(
                "<7I", VERSION, n, mu, token_len, d_v, d_w, dataset.n_answers
            )
        )
        fh.write(struct.pack("<I", len(dataset.template_names)))
        for name in dataset.template_names + dataset.answer_names:
            write_str(fh, name, FeatureFileError)
        fh.write(records)


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
        if min(n, mu, token_len, d_v, d_w) < 1:
            raise FeatureFileError(
                f"feature-file header has an empty axis: {n} instances of "
                f"{mu}x{d_v} regions and {token_len}x{d_w} tokens"
            )
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
    bad = answers >= n_answers
    if bad.any():
        raise FeatureFileError(f"answer index out of range in instances {np.where(bad)[0][:5]}")
    bad = template_ids >= len(template_names)
    if bad.any():
        raise FeatureFileError(
            f"template index out of range in instances {np.where(bad)[0][:5]}"
        )
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
