"""Seeded synthetic career generator with a queryable ground-truth oracle.

The generator draws an occupation chain that advances one calendar year at a
time. Records observe the chain at a subset of years (biennial gaps appear
with a configured probability), matching survey panels where missing years
are never imputed. Transition logits decompose additively:

    logit(c) = A[prev, c] + B[prev2, c] + stay_bonus * 1{c == prev}
               + covariate effects + year effects

with the ``B`` term active only for ``markov_order == 2``. Because the terms
are additive, the exact conditional distribution of any record given any
observed prefix is computable by forward filtering; with gaps this reduces to
products of one-year transition matrices (first order) or a joint filter over
(previous, current) state pairs (second order). ``oracle_probability`` exposes
those exact conditionals, and :class:`OracleModel` adapts them to the common
occupation-model interface.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .autograd import softmax_np
from .corpus import (
    EDUCATIONS,
    ETHNICITIES,
    GENDERS,
    REGIONS,
    CareerHistory,
    CareerRecord,
    Dataset,
    StaticCovariates,
    n_year_buckets,
    year_bucket,
)
from .taxonomy import OccupationTaxonomy, build_default_taxonomy

_ETHNICITY_PROBS = np.array([0.55, 0.25, 0.15, 0.05])
_REGION_PROBS = np.array([0.18, 0.24, 0.38, 0.20])
_EDUCATION_START_PROBS = np.array([0.12, 0.35, 0.25, 0.20, 0.08])
_EDUCATION_UPGRADE_PROB = 0.06

_STAY_BONUS_CLIP = 30.0


class SyntheticConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SyntheticConfig:
    n_individuals: int = 1000
    year_range: tuple[int, int] = (1979, 2022)
    taxonomy_size: int = 334
    markov_order: int = 1
    covariate_effect_strength: float = 1.0
    # calibrated so the staying share of non-first transitions lands near the
    # 51.6% reference at the default taxonomy size
    stay_bias: float = 0.385
    seed: int = 0
    # plumbing knobs
    sample_seed: Optional[int] = None  # draw a fresh sample from the same generator
    mean_records: float = 10.0
    gap_probability: float = 0.35
    include_birth_year: bool = True
    source_tag: str = "SYNTH"
    gender_weight: float = 1.0
    ethnicity_weight: float = 0.4
    region_weight: float = 0.0
    interaction_weight: float = 0.0
    year_weight: float = 0.15
    transition_scale: float = 1.0
    pair_scale: float = 1.5
    # order-2 only: bonus for returning to the state of two years ago; makes
    # odd/even-year subchains persistent, so with biennial observation gaps
    # long histories stay informative about the latent alternate-year chain
    return_bias: float = 0.0

    def validate(self) -> None:
        if self.taxonomy_size < 4:
            raise SyntheticConfigError("taxonomy_size must be >= 4 (three specials + work)")
        if self.markov_order not in (1, 2):
            raise SyntheticConfigError("markov_order must be 1 or 2")
        if not (0.0 <= self.stay_bias <= 1.0):
            raise SyntheticConfigError("stay_bias must lie in [0, 1]")
        if self.covariate_effect_strength < 0:
            raise SyntheticConfigError("covariate_effect_strength must be >= 0")
        if self.n_individuals < 1:
            raise SyntheticConfigError("n_individuals must be >= 1")
        if self.year_range[0] >= self.year_range[1]:
            raise SyntheticConfigError("year_range must be increasing")
        if not (0.0 <= self.gap_probability <= 1.0):
            raise SyntheticConfigError("gap_probability must lie in [0, 1]")
        if self.mean_records < 1:
            raise SyntheticConfigError("mean_records must be >= 1")


def _stay_bonus(stay_bias: float, k: int) -> float:
    """Additive logit bonus on the previous state chosen so that the average
    one-year staying probability tracks ``stay_bias``."""
    if stay_bias <= 0.0:
        return -_STAY_BONUS_CLIP
    if stay_bias >= 1.0:
        return _STAY_BONUS_CLIP
    raw = np.log(stay_bias / (1.0 - stay_bias) * (k - 1))
    return float(np.clip(raw, -_STAY_BONUS_CLIP, _STAY_BONUS_CLIP))


@dataclass
class GeneratorParams:
    """Frozen tables replaying the generator's conditional distributions."""

    cfg: SyntheticConfig
    init_logits: np.ndarray  # (K,)
    trans_logits: np.ndarray  # (K, K)   A[prev, next]
    pair_logits: np.ndarray  # (K+1, K)  B[prev2, next]; last row is the null state (all zero)
    gender_logits: np.ndarray  # (2, K)
    ethnicity_logits: np.ndarray  # (4, K)
    region_logits: np.ndarray  # (4, K)
    interaction_logits: np.ndarray  # (8, K)  gender x ethnicity
    year_logits: np.ndarray  # (n_buckets, K)
    stay_bonus: float

    @property
    def k(self) -> int:
        return self.init_logits.shape[0]

    @property
    def null_index(self) -> int:
        return self.k

    def covariate_logits(self, static: StaticCovariates) -> np.ndarray:
        cfg = self.cfg
        g = GENDERS.index(static.gender)
        e = ETHNICITIES.index(static.ethnicity)
        r = REGIONS.index(static.region)
        out = cfg.gender_weight * self.gender_logits[g]
        out = out + cfg.ethnicity_weight * self.ethnicity_logits[e]
        out = out + cfg.region_weight * self.region_logits[r]
        out = out + cfg.interaction_weight * self.interaction_logits[g * len(ETHNICITIES) + e]
        return cfg.covariate_effect_strength * out

    def context_logits(self, static: StaticCovariates, year: int) -> np.ndarray:
        return self.covariate_logits(static) + self.cfg.year_weight * self.year_logits[year_bucket(year, self.cfg.year_range)]

    def initial_distribution(self, static: StaticCovariates, year: int) -> np.ndarray:
        return softmax_np(self.init_logits + self.context_logits(static, year))

    def step_matrix(self, static: StaticCovariates, year: int) -> np.ndarray:
        """One-year transition matrix M[prev, next] at ``year`` (first-order part)."""
        ctx = self.context_logits(static, year)
        logits = self.trans_logits + ctx[None, :]
        logits = logits + self.stay_bonus * np.eye(self.k)
        return softmax_np(logits, axis=1)

    def save(self, path) -> None:
        tables = {name: getattr(self, name) for name in _table_shapes(self.cfg)}
        cfg = np.frombuffer(json.dumps(_cfg_to_obj(self.cfg)).encode(), dtype=np.uint8)
        np.savez(path, cfg=cfg, **tables, stay_bonus=np.array(self.stay_bonus))

    @classmethod
    def load(cls, path) -> "GeneratorParams":
        """Read a file written by :meth:`save`; raises ValueError when a
        table's shape disagrees with the config stored beside it."""
        with np.load(path) as data:
            cfg = _cfg_from_obj(json.loads(bytes(data["cfg"]).decode()))
            shapes = _table_shapes(cfg)
            tables = {name: data[name] for name in shapes}
            stay_bonus = float(data["stay_bonus"])
        for name, shape in shapes.items():
            got = tables[name].shape
            if got != shape:
                raise ValueError(f"generator file {path}: {name} has shape {got}, its config needs {shape}")
        return cls(cfg=cfg, stay_bonus=stay_bonus, **tables)


def _table_shapes(cfg: SyntheticConfig) -> dict[str, tuple[int, ...]]:
    """Shape of each generator table under ``cfg``, in file order."""
    k = cfg.taxonomy_size
    return {
        "init_logits": (k,),
        "trans_logits": (k, k),
        "pair_logits": (k + 1, k),
        "gender_logits": (len(GENDERS), k),
        "ethnicity_logits": (len(ETHNICITIES), k),
        "region_logits": (len(REGIONS), k),
        "interaction_logits": (len(GENDERS) * len(ETHNICITIES), k),
        "year_logits": (n_year_buckets(cfg.year_range), k),
    }


def _cfg_to_obj(cfg: SyntheticConfig) -> dict:
    obj = dict(cfg.__dict__)
    obj["year_range"] = list(cfg.year_range)
    return obj


def _cfg_from_obj(obj: dict) -> SyntheticConfig:
    obj = dict(obj)
    obj["year_range"] = tuple(obj["year_range"])
    return SyntheticConfig(**obj)


def build_params(cfg: SyntheticConfig) -> GeneratorParams:
    """Derive all generator tables deterministically from the config seed."""
    cfg.validate()
    k = cfg.taxonomy_size
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xC0FFEE]))
    init = rng.normal(0.0, 1.0, size=k)
    trans = rng.normal(0.0, cfg.transition_scale, size=(k, k))
    pair = np.zeros((k + 1, k))
    if cfg.markov_order == 2:
        pair[:k] = rng.normal(0.0, cfg.pair_scale, size=(k, k)) + cfg.return_bias * np.eye(k)
    gender = rng.normal(0.0, 1.0, size=(len(GENDERS), k))
    ethnicity = rng.normal(0.0, 1.0, size=(len(ETHNICITIES), k))
    region = rng.normal(0.0, 1.0, size=(len(REGIONS), k))
    interaction = rng.normal(0.0, 1.0, size=(len(GENDERS) * len(ETHNICITIES), k))
    year = rng.normal(0.0, 1.0, size=(n_year_buckets(cfg.year_range), k))
    return GeneratorParams(
        cfg=cfg,
        init_logits=init,
        trans_logits=trans,
        pair_logits=pair,
        gender_logits=gender,
        ethnicity_logits=ethnicity,
        region_logits=region,
        interaction_logits=interaction,
        year_logits=year,
        stay_bonus=_stay_bonus(cfg.stay_bias, k),
    )


# --------------------------------------------------------------------------
# Forward filtering (the oracle)
# --------------------------------------------------------------------------


class _PairFilter:
    """Exact filter over (state at year-1, state at year) for order-2 chains.

    The joint is a (K+1, K) array; row K is the null previous state used at
    the first career year and at the start of truncated windows.
    """

    def __init__(self, params: GeneratorParams, static: StaticCovariates):
        self.params = params
        self.static = static
        self.k = params.k
        self.eb = np.exp(params.pair_logits)  # (K+1, K); null row = ones
        self.joint: Optional[np.ndarray] = None
        self.year: Optional[int] = None

    def start(self, year: int, state: Optional[int]) -> None:
        k = self.k
        self.joint = np.zeros((k + 1, k))
        if state is None:
            self.joint[k] = self.params.initial_distribution(self.static, year)
        else:
            self.joint[k, state] = 1.0
        self.year = year

    def _advance_once(self) -> None:
        p = self.params
        year = self.year + 1
        ctx = p.context_logits(self.static, year)
        # G[b, c] = exp(A[b, c] + stay * 1{c == b} + ctx[c])
        g_log = p.trans_logits + ctx[None, :] + p.stay_bonus * np.eye(self.k)
        shift = g_log.max()
        g = np.exp(g_log - shift)
        z = self.eb @ g.T  # (K+1, K): normalizer for each (a, b)
        r = np.divide(self.joint, z, out=np.zeros_like(self.joint), where=z > 0)
        new = g * (r.T @ self.eb)  # (K, K) joint over (b, c)
        joint = np.zeros((self.k + 1, self.k))
        joint[: self.k] = new
        total = joint.sum()
        self.joint = joint / total
        self.year = year

    def advance_to(self, year: int) -> None:
        while self.year < year:
            self._advance_once()

    def observe(self, state: int) -> None:
        mask = np.zeros(self.k)
        mask[state] = 1.0
        self.joint = self.joint * mask[None, :]
        total = self.joint.sum()
        if total <= 0:
            raise ValueError("observation has zero probability under the filter")
        self.joint = self.joint / total

    def marginal(self) -> np.ndarray:
        return self.joint.sum(axis=0)


class _ChainFilter:
    """Exact filter over the current state for order-1 chains."""

    def __init__(self, params: GeneratorParams, static: StaticCovariates):
        self.params = params
        self.static = static
        self.dist: Optional[np.ndarray] = None
        self.year: Optional[int] = None

    def start(self, year: int, state: Optional[int]) -> None:
        if state is None:
            self.dist = self.params.initial_distribution(self.static, year)
        else:
            self.dist = np.zeros(self.params.k)
            self.dist[state] = 1.0
        self.year = year

    def advance_to(self, year: int) -> None:
        while self.year < year:
            m = self.params.step_matrix(self.static, self.year + 1)
            self.dist = self.dist @ m
            self.year += 1

    def observe(self, state: int) -> None:
        p = self.dist[state]
        if p <= 0:
            raise ValueError("observation has zero probability under the filter")
        self.dist = np.zeros_like(self.dist)
        self.dist[state] = 1.0

    def marginal(self) -> np.ndarray:
        return self.dist


def _make_filter(params: GeneratorParams, static: StaticCovariates):
    if params.cfg.markov_order == 2:
        return _PairFilter(params, static)
    return _ChainFilter(params, static)


def _filtered_marginals(
    params: GeneratorParams, taxonomy: OccupationTaxonomy, history: CareerHistory
) -> Iterator[np.ndarray]:
    """Exact distribution of each record given the records before it, in
    order, from one forward-filtering walk: advance to a record's year, yield
    the marginal, observe the record. A caller that stops after record t
    leaves record t unobserved."""
    static = history.static
    _check_covariates(static)
    first = history.records[0]
    yield params.initial_distribution(static, first.year)
    filt = _make_filter(params, static)
    filt.start(first.year, taxonomy.index_of(first.occupation))
    for rec in history.records[1:]:
        filt.advance_to(rec.year)
        yield filt.marginal()
        filt.observe(taxonomy.index_of(rec.occupation))


def oracle_probability(
    params: GeneratorParams,
    taxonomy: OccupationTaxonomy,
    history: CareerHistory,
    t: int,
) -> np.ndarray:
    """Exact conditional distribution of record ``t`` (1-based) given the
    preceding records and static covariates, in taxonomy entry order.

    The first visible record is treated as the career start (null previous
    state), which matches generation for complete histories and defines the
    conditioning event for truncated windows.
    """
    if not (1 <= t <= len(history)):
        raise ValueError(f"transition index {t} out of range 1..{len(history)}")
    return next(itertools.islice(_filtered_marginals(params, taxonomy, history), t - 1, None))


def _check_covariates(static: StaticCovariates) -> None:
    if static.gender not in GENDERS or static.ethnicity not in ETHNICITIES or static.region not in REGIONS:
        raise ValueError("unknown covariate value")


class OracleModel:
    """Ground-truth generator conditionals behind the occupation-model interface."""

    def __init__(self, params: GeneratorParams, taxonomy: OccupationTaxonomy):
        if params.k != taxonomy.size:
            raise ValueError(f"generator tables cover {params.k} occupations, the taxonomy has {taxonomy.size}")
        self.params = params
        self.taxonomy = taxonomy

    def predict(self, history: CareerHistory, t: int) -> np.ndarray:
        return oracle_probability(self.params, self.taxonomy, history, t)

    def predict_all(self, history: CareerHistory) -> list[np.ndarray]:
        """Distributions for every t in one filtering pass (avoids the
        quadratic cost of calling :meth:`predict` per transition)."""
        return list(_filtered_marginals(self.params, self.taxonomy, history))


# --------------------------------------------------------------------------
# Generation
# --------------------------------------------------------------------------


def generate_synthetic(
    cfg: SyntheticConfig,
    params: Optional[GeneratorParams] = None,
    taxonomy: Optional[OccupationTaxonomy] = None,
) -> tuple[Dataset, GeneratorParams]:
    """Draw a dataset from the generator defined by ``cfg``.

    Returns the dataset together with the frozen generator parameters so the
    oracle can replay exact conditionals. Callers may inject hand-built
    ``params`` (e.g. structured transition tables) and a matching taxonomy.
    """
    cfg.validate()
    if params is None:
        params = build_params(cfg)
    elif params.cfg != cfg:
        raise SyntheticConfigError("injected params were built for a different config")
    if taxonomy is None:
        taxonomy = build_default_taxonomy(cfg.taxonomy_size)
    if taxonomy.size != cfg.taxonomy_size:
        raise SyntheticConfigError("taxonomy size differs from config")
    sample_seed = cfg.seed if cfg.sample_seed is None else cfg.sample_seed
    rng = np.random.default_rng(np.random.SeedSequence([sample_seed, 0xDA7A]))
    k = cfg.taxonomy_size
    y0, y1 = cfg.year_range
    span = min(y1 - y0, int(np.ceil(1.5 * cfg.mean_records)))
    individuals = []
    for i in range(cfg.n_individuals):
        static = _draw_static(cfg, rng, y0)
        target_records = 1 + int(rng.poisson(max(cfg.mean_records - 1.0, 0.0)))
        start_year = int(rng.integers(y0, max(y0, y1 - span) + 1))
        state = int(rng.choice(k, p=params.initial_distribution(static, start_year)))
        prev2 = params.null_index  # no state before the career start
        edu_idx = int(rng.choice(len(EDUCATIONS), p=_EDUCATION_START_PROBS))
        records = [CareerRecord(start_year, EDUCATIONS[edu_idx], taxonomy.code_at(state))]
        year = start_year
        while len(records) < target_records:
            gap = 2 if rng.random() < cfg.gap_probability else 1
            if year + gap > y1:
                break
            # the latent chain advances one calendar year at a time; a gap
            # means the intermediate year goes unrecorded, not unvisited
            for _ in range(gap):
                year += 1
                logits = (
                    params.trans_logits[state]
                    + params.pair_logits[prev2]
                    + params.context_logits(static, year)
                )
                logits = logits.copy()
                logits[state] += params.stay_bonus
                prev2 = state
                state = int(rng.choice(k, p=softmax_np(logits)))
            if edu_idx < len(EDUCATIONS) - 1 and rng.random() < _EDUCATION_UPGRADE_PROB:
                edu_idx += 1
            records.append(CareerRecord(year, EDUCATIONS[edu_idx], taxonomy.code_at(state)))
        individuals.append(
            CareerHistory(
                individual_id=f"synth-{sample_seed}-{i:06d}",
                source_tag=cfg.source_tag,
                static=static,
                records=tuple(records),
            )
        )
    return Dataset(taxonomy=taxonomy, individuals=tuple(individuals)), params


def _draw_static(cfg: SyntheticConfig, rng: np.random.Generator, start_year: int) -> StaticCovariates:
    gender = GENDERS[int(rng.integers(0, len(GENDERS)))]
    ethnicity = ETHNICITIES[int(rng.choice(len(ETHNICITIES), p=_ETHNICITY_PROBS))]
    region = REGIONS[int(rng.choice(len(REGIONS), p=_REGION_PROBS))]
    birth_year = None
    if cfg.include_birth_year:
        birth_year = int(cfg.year_range[0] - rng.integers(18, 51))
    return StaticCovariates(gender=gender, ethnicity=ethnicity, region=region, birth_year=birth_year)
