"""Scripted experiment protocols over synthetic data: data mixing, history
truncation, covariate randomization, numeric titles, prompting arms,
valid-title rates, and gap-year consistency.

Every runner is a pure function of (spec parameters, input artifacts, root
seed): cell seeds derive from the root, outputs are plain row dictionaries,
and nothing mutates datasets or checkpoints. Reference figures from the
literature appear as annotations in the emitted tables, never as assertions;
toy-scale runs are not expected to match them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .corpus import CareerHistory, Dataset
from .evaluation import (
    BootstrapConfig,
    TransitionScores,
    bootstrap_metric,
    bootstrap_pair,
    format_cell,
    gap_year_compare,
    perplexity,
    score_model,
    transition_scores,
    write_stamped_csv,
)
from .models.adapter import GenerationConfig, LmOccupationAdapter
from .models.token_lm import ContextOverflowError
from .taxonomy import OccupationTaxonomy
from .template import TemplateCodec
from .training import derive_seed

EXPERIMENT_KINDS = (
    "data_mix",
    "add_other_sources",
    "history_truncation",
    "covariate_randomization",
    "numeric_titles",
    "prompting",
    "valid_title_rate",
    "gap_year",
)

STATIC_FIELDS = ("gender", "ethnicity", "region", "birth_year")


class ExperimentError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ExperimentError(f"unknown experiment kind {self.kind!r}")
        _REQUIRED = {
            "data_mix": ("p_grid",),
            "add_other_sources": ("base", "p_grid"),
            "history_truncation": (),
            "covariate_randomization": ("field_sets",),
            "numeric_titles": (),
            "prompting": ("k_grid",),
            "valid_title_rate": (),
            "gap_year": (),
        }
        missing = [k for k in _REQUIRED[self.kind] if k not in self.params]
        if missing:
            raise ExperimentError(f"{self.kind} spec missing parameters: {missing}")
        if self.kind in ("data_mix", "add_other_sources"):
            for p in self.params["p_grid"]:
                if not (0 < p <= 100):
                    raise ExperimentError(f"sample percentage {p} outside (0, 100]")


# --------------------------------------------------------------------------
# Data mixing / value of data
# --------------------------------------------------------------------------


def run_data_mix(
    datasets: dict[str, Dataset],
    p_grid: Sequence[float],
    trainer: Callable[[list[CareerHistory], int], object],
    seed: int = 0,
    bootstrap: BootstrapConfig = BootstrapConfig(b=50),
) -> list[dict]:
    """Pool all training splits, subsample P% of individuals, train, and
    evaluate on each dataset's fixed test split; rows carry perplexities and
    paired differences against the per-dataset baseline model."""
    if len(datasets) < 2:
        raise ExperimentError("data mixing needs at least 2 source datasets")
    pool: list[CareerHistory] = []
    for ds in datasets.values():
        pool.extend(ds.split("train"))
    baselines = {}
    for name, ds in datasets.items():
        model = trainer(ds.split("train"), derive_seed(seed, "baseline", name))
        baselines[name] = score_model(model, ds.split("test"), ds.taxonomy)
    rows = []
    for p in p_grid:
        if p == 100:
            sample = list(pool)
        else:
            rng = np.random.default_rng(derive_seed(seed, "mix-sample", p))
            n = max(1, int(round(len(pool) * p / 100.0)))
            idx = rng.choice(len(pool), size=n, replace=False)
            sample = [pool[i] for i in idx]
        model = trainer(sample, derive_seed(seed, "mix-fit", p))
        for name, ds in datasets.items():
            scores = score_model(model, ds.split("test"), ds.taxonomy)
            pair = bootstrap_pair(
                perplexity, baselines[name], scores, replace(bootstrap, seed=derive_seed(seed, "se", name))
            )
            rows.append(
                {
                    "p": p,
                    "eval_dataset": name,
                    "n_train_individuals": len(sample),
                    "perplexity": pair.point_b,
                    "se": pair.se_b,
                    "diff_vs_baseline": pair.diff,
                    "diff_se": pair.se_diff,
                }
            )
    return rows


def run_add_other_sources(
    datasets: dict[str, Dataset],
    base: str,
    p_grid: Sequence[float],
    trainer: Callable[[list[CareerHistory], int], object],
    seed: int = 0,
    bootstrap: BootstrapConfig = BootstrapConfig(b=50),
) -> list[dict]:
    """Keep the base training split whole and mix in P% x |base train| extra
    individuals drawn from the other sources' training splits."""
    if base not in datasets:
        raise ExperimentError(f"unknown base dataset {base!r}")
    base_ds = datasets[base]
    base_train = base_ds.split("train")
    others: list[CareerHistory] = []
    for name, ds in datasets.items():
        if name != base:
            others.extend(ds.split("train"))
    if not others:
        raise ExperimentError("add_other_sources needs at least one other dataset")
    baseline_model = trainer(base_train, derive_seed(seed, "baseline", base))
    baseline_scores = score_model(baseline_model, base_ds.split("test"), base_ds.taxonomy)
    rows = []
    for p in p_grid:
        rng = np.random.default_rng(derive_seed(seed, "add-sample", p))
        n_extra = min(len(others), int(round(len(base_train) * p / 100.0)))
        idx = rng.choice(len(others), size=n_extra, replace=False)
        train = base_train + [others[i] for i in idx]
        model = trainer(train, derive_seed(seed, "add-fit", p))
        scores = score_model(model, base_ds.split("test"), base_ds.taxonomy)
        pair = bootstrap_pair(
            perplexity, baseline_scores, scores, replace(bootstrap, seed=derive_seed(seed, "se", base))
        )
        rows.append(
            {
                "p": p,
                "eval_dataset": base,
                "n_train_individuals": len(train),
                "perplexity": pair.point_b,
                "se": pair.se_b,
                "diff_vs_baseline": pair.diff,
                "diff_se": pair.se_diff,
            }
        )
    return rows


# --------------------------------------------------------------------------
# History truncation
# --------------------------------------------------------------------------


def truncate_history(history: CareerHistory, t: int, k: int) -> tuple[CareerHistory, int]:
    """Window of the k most recent observations before transition ``t`` plus
    the target record; returns the windowed history and the new index."""
    if not (1 <= t <= len(history)):
        raise ExperimentError(f"transition {t} out of range")
    if k < 1:
        raise ExperimentError("k must be >= 1")
    k = min(k, t - 1)
    windowed = replace(history, records=history.records[t - 1 - k : t])
    return windowed, k + 1


def run_history_truncation(
    model,
    taxonomy: OccupationTaxonomy,
    test: Sequence[CareerHistory],
    t_min_grid: Sequence[int] = (5, 10, 15, 20, 25),
    k_grid: Sequence[int] = (5, 10, 15, 20, 25),
    seed: int = 0,
    bootstrap: BootstrapConfig = BootstrapConfig(b=50),
    baseline_k: int = 5,
) -> list[dict]:
    """Perplexity matrix over (transition-index group, history length k),
    reporting each cell's difference against the k=5 column with paired
    bootstrap standard errors. Empty groups emit missing-cell rows."""
    rows = []
    for t_min in t_min_grid:
        group = [(h, t) for h in test for t in range(1, len(h) + 1) if t_min < t <= t_min + 5]
        ks = [k for k in k_grid if k <= t_min]
        if not group:
            for k in ks:
                rows.append({"t_min": t_min, "k": k, "status": "missing", "n": 0})
            continue
        cell_scores: dict[int, TransitionScores] = {}
        for k in ks:
            truncated = [truncate_history(h, t, k) for h, t in group]
            items = list(zip([w for w, _ in truncated], [tt for _, tt in truncated]))
            scores = score_model(model, [], taxonomy, transitions=items)
            # keep original ids/t so cells pair transition-for-transition
            scores.individual_ids = np.array([h.individual_id for h, _ in group], dtype=object)
            scores.t_index = np.array([t for _, t in group], dtype=np.int64)
            cell_scores[k] = scores
        cell_bootstrap = replace(bootstrap, seed=derive_seed(seed, "se", t_min))
        for k in ks:
            row = {"t_min": t_min, "k": k, "status": "ok", "n": len(group)}
            if k != baseline_k and baseline_k in cell_scores:
                pair = bootstrap_pair(perplexity, cell_scores[baseline_k], cell_scores[k], cell_bootstrap)
                # improvement of k over the baseline window
                row.update(perplexity=pair.point_b, se=pair.se_b, delta_vs_k5=pair.diff, delta_se=pair.se_diff)
            else:
                res = bootstrap_metric(perplexity, cell_scores[k], cell_bootstrap)
                row.update(perplexity=res.point, se=res.se)
            rows.append(row)
    return rows


# --------------------------------------------------------------------------
# Covariate randomization
# --------------------------------------------------------------------------


def randomize_covariates(
    histories: Sequence[CareerHistory],
    fields: Sequence[str],
    donors: Sequence[CareerHistory],
    seed: int,
) -> list[CareerHistory]:
    """Per individual, replace the selected static fields jointly with the
    values of one randomly drawn donor."""
    for f in fields:
        if f not in STATIC_FIELDS:
            raise ExperimentError(f"{f!r} is not a static covariate")
    if not donors:
        raise ExperimentError("donor split is empty")
    rng = np.random.default_rng(seed)
    out = []
    for h in histories:
        donor = donors[int(rng.integers(len(donors)))]
        updates = {f: getattr(donor.static, f) for f in fields}
        out.append(replace(h, static=replace(h.static, **updates)))
    return out


def run_covariate_randomization(
    model,
    taxonomy: OccupationTaxonomy,
    test: Sequence[CareerHistory],
    field_sets: Sequence[Sequence[str]],
    donors: Sequence[CareerHistory],
    seed: int = 0,
    bootstrap: BootstrapConfig = BootstrapConfig(b=50),
) -> list[dict]:
    """Score the test split as-is and with each field subset randomized from
    the donor split; rows carry perplexity deltas with paired bootstrap SEs."""
    actual = score_model(model, list(test), taxonomy)
    base = bootstrap_metric(perplexity, actual, replace(bootstrap, seed=derive_seed(seed, "se")))
    rows = [
        {"fields": "none", "perplexity": base.point, "se": base.se, "delta_vs_actual": 0.0, "delta_se": 0.0}
    ]
    for fields in field_sets:
        label = "+".join(fields)
        modified = randomize_covariates(test, fields, donors, derive_seed(seed, "randomize", label))
        scores = score_model(model, modified, taxonomy)
        scores.individual_ids = actual.individual_ids.copy()
        pair = bootstrap_pair(perplexity, scores, actual, replace(bootstrap, seed=derive_seed(seed, "se")))
        rows.append(
            {
                "fields": label,
                "perplexity": pair.point_a,
                "se": pair.se_a,
                "delta_vs_actual": pair.diff,
                "delta_se": pair.se_diff,
            }
        )
    return rows


# --------------------------------------------------------------------------
# Numeric titles
# --------------------------------------------------------------------------


def run_numeric_titles(
    dataset: Dataset,
    lm_trainer: Callable[[TemplateCodec, int], LmOccupationAdapter],
    codec_literal,
    codec_numeric,
    seed: int = 0,
    bootstrap: BootstrapConfig = BootstrapConfig(b=50),
) -> list[dict]:
    """Train one LM on literal-title templates and one on numeric-title
    templates, then evaluate each on its own rendering of the same test
    transitions. ``lm_trainer(codec, seed)`` returns an adapter trained on
    the dataset's train split rendered with ``codec``. Emits the paired
    perplexity gap with the published reference delta printed as an
    annotation."""
    test = dataset.split("test")
    scores_by_mode = {}
    for mode, codec in (("literal", codec_literal), ("numeric", codec_numeric)):
        adapter = lm_trainer(codec, derive_seed(seed, "lm", mode))
        scores_by_mode[mode] = score_model(adapter, test, dataset.taxonomy)
    if not np.array_equal(scores_by_mode["literal"].individual_ids, scores_by_mode["numeric"].individual_ids):
        raise ExperimentError("literal and numeric runs scored different transitions")
    pair = bootstrap_pair(
        perplexity,
        scores_by_mode["numeric"],
        scores_by_mode["literal"],
        replace(bootstrap, seed=derive_seed(seed, "se")),
    )
    return [
        {"mode": "literal", "perplexity": pair.point_b, "se": pair.se_b, "annotation": ""},
        {"mode": "numeric", "perplexity": pair.point_a, "se": pair.se_a, "annotation": ""},
        {
            "mode": "numeric-minus-literal",
            "perplexity": pair.diff,
            "se": pair.se_diff,
            "annotation": "reference delta at production scale: +0.647 (PSID81)",
        },
    ]


# --------------------------------------------------------------------------
# Prompting arms and valid-title rates
# --------------------------------------------------------------------------


def run_prompting_arms(
    adapter: LmOccupationAdapter,
    dataset: Dataset,
    k_grid: Sequence[int] = (0, 1, 3, 5, 10),
    with_titles: Sequence[bool] = (False, True),
    subsample: float = 0.10,
    seed: int = 0,
    n_generations: int = 50,
    generation: GenerationConfig = GenerationConfig(),
    bootstrap: BootstrapConfig = BootstrapConfig(b=50),
) -> list[dict]:
    """Prompt-enrichment grid for an off-the-shelf LM: bare prompts, the
    title list, K example resumes, or both. Workers are subsampled once;
    resumes are drawn without replacement from the training split per
    transition. Arms whose prompts overflow the context are skipped with a
    reason, and each arm also reports a sampled valid-title generation rate."""
    train = dataset.split("train")
    test = dataset.split("test")
    rng = np.random.default_rng(derive_seed(seed, "subsample"))
    n_keep = max(1, int(round(len(test) * subsample)))
    workers = [test[i] for i in rng.choice(len(test), size=n_keep, replace=False)]
    items = [(h, t) for h in workers for t in range(1, len(h) + 1)]
    resume_texts = [adapter.codec.render_full(h) for h in train]
    rows = []
    for titles in with_titles:
        for k in k_grid:
            label = f"titles={'yes' if titles else 'no'},resumes={k}"
            if k > len(resume_texts):
                rows.append({"arm": label, "status": "skipped", "reason": "not enough training resumes"})
                continue
            arm_seed = derive_seed(seed, "arm", label)

            def prompt_text(h, t):
                return _enriched_prompt(adapter, h, t, titles, k, resume_texts, derive_seed(arm_seed, h.individual_id, t))

            try:
                scored = transition_scores(items, *adapter.score_transitions(items, prompt_text))
            except ContextOverflowError as exc:
                rows.append({"arm": label, "status": "skipped", "reason": str(exc)})
                continue
            res = bootstrap_metric(perplexity, scored, replace(bootstrap, seed=derive_seed(seed, "se")))
            gen_prompts = []
            g_rng = np.random.default_rng(derive_seed(seed, "gen", label))
            for h, t in [items[i] for i in g_rng.choice(len(items), size=min(n_generations, len(items)), replace=False)]:
                gen_prompts.append(
                    _enriched_prompt(adapter, h, t, titles, k, resume_texts, derive_seed(seed, "gen-resumes", h.individual_id, t))
                )
            try:
                rate = adapter.valid_title_rate(gen_prompts, replace(generation, seed=derive_seed(seed, "gen-seed", label) % (2**31)))
            except ContextOverflowError:
                rate = float("nan")
            rows.append(
                {
                    "arm": label,
                    "status": "ok",
                    "n": len(items),
                    "perplexity": res.point,
                    "se": res.se,
                    "valid_title_rate": rate,
                }
            )
    return rows


def _enriched_prompt(adapter, h, t, titles, k, resume_texts, seed) -> str:
    base = adapter.codec.render_prompt(h, t)
    if k:
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(resume_texts), size=k, replace=False)
        resumes = [resume_texts[i] for i in picks]
    else:
        resumes = []
    return adapter.codec.enrich_prompt(base, include_titles=titles, resumes=resumes)


def run_valid_title_rate(
    adapter: LmOccupationAdapter,
    histories: Sequence[CareerHistory],
    seed: int = 0,
    n_prompts: int = 200,
    generation: GenerationConfig = GenerationConfig(),
    titles: Optional[dict[str, int]] = None,
) -> list[dict]:
    """Valid-title generation rate over sampled transition prompts."""
    items = [(h, t) for h in histories for t in range(1, len(h) + 1)]
    if not items:
        raise ExperimentError("no transitions to prompt")
    rng = np.random.default_rng(derive_seed(seed, "prompts"))
    picks = rng.choice(len(items), size=min(n_prompts, len(items)), replace=False)
    prompts = [adapter.codec.render_prompt(h, t) for h, t in (items[i] for i in picks)]
    rate = adapter.valid_title_rate(prompts, replace(generation, seed=derive_seed(seed, "gen") % (2**31)), titles=titles)
    return [
        {
            "n_prompts": len(prompts),
            "valid_title_rate": rate,
            "annotation": "reference band at production scale: 0.68 to >0.99",
        }
    ]


# --------------------------------------------------------------------------
# Gap-year consistency
# --------------------------------------------------------------------------


def run_gap_year(
    model,
    taxonomy: OccupationTaxonomy,
    test: Sequence[CareerHistory],
    n_sample: int = 100,
    seed: int = 0,
) -> list[dict]:
    """Direct vs compound predictions on two-year-gap transitions, plus the
    log-probability correlation across the sample."""
    candidates = [
        (h, t)
        for h in test
        for t in range(2, len(h) + 1)
        if h.records[t - 1].year == h.records[t - 2].year + 2
    ]
    if not candidates:
        raise ExperimentError("no two-year-gap transitions in the split")
    rng = np.random.default_rng(derive_seed(seed, "gap-sample"))
    picks = rng.choice(len(candidates), size=min(n_sample, len(candidates)), replace=False)
    rows = []
    logs = []
    for i in picks:
        h, t = candidates[i]
        direct, compound = gap_year_compare(model, taxonomy, h, t)
        rows.append(
            {
                "individual": h.individual_id,
                "t": t,
                "direct": direct,
                "compound": compound,
            }
        )
        logs.append((np.log(direct), np.log(compound)))
    arr = np.asarray(logs)
    if len(arr) >= 2 and arr[:, 0].std() > 0 and arr[:, 1].std() > 0:
        corr = float(np.corrcoef(arr[:, 0], arr[:, 1])[0, 1])
    else:
        corr = float("nan")
    rows.append(
        {
            "individual": "ALL",
            "t": 0,
            "direct": corr,
            "compound": corr,
            "annotation": "log-prob correlation; reference at production scale: 0.93",
        }
    )
    return rows


# --------------------------------------------------------------------------
# Output files
# --------------------------------------------------------------------------


def write_experiment_output(out_dir, name: str, rows: list[dict], provenance: dict) -> tuple[Path, Path]:
    """CSV + JSON summary with provenance headers; byte-stable for fixed
    inputs (floats formatted, keys sorted)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    csv_path = out / f"{name}.csv"
    write_stamped_csv(csv_path, columns, rows, provenance)
    json_path = out / f"{name}.json"
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump({"provenance": provenance, "rows": rows}, fh, indent=2, sort_keys=True, default=format_cell)
    return csv_path, json_path

