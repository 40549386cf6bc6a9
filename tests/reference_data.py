"""Loop versions of the task generator and the feature-file writer: the
references the table-driven generator and the scatter writer in
``dfaf.data`` must match bit for bit.

``generate_toy_dataset`` samples each question as a dict of names, reads its
answer back through the symbolic oracle ``oracle_answer`` and looks each
token word up by string. ``write_feature_file`` packs the whole payload into
one record array and writes it in one call. ``token_codebook`` draws the
codebook afresh on every call.
"""

import math
import struct

import numpy as np

from dfaf.binio import open_output, write_str
from dfaf.data import (
    MAGIC,
    RELATIONS,
    VERSION,
    FeatureDataset,
    FeatureFileError,
    ToyTaskSpec,
    _record_dtype,
    answer_vocabulary,
    related_cell,
    token_vocabulary,
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

