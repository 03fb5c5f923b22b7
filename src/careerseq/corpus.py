"""Career-history domain model: covariates, per-year records, individuals,
datasets, individual-level splitting, and summary statistics.

Datasets are immutable after construction and safe to share across parallel
readers; splitting is a deterministic function of (dataset, ratios, seed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Optional

import numpy as np

from .taxonomy import FORMAT_HEADER, OccupationTaxonomy


class DatasetError(ValueError):
    pass


class Gender(str, Enum):
    MALE = "male"
    FEMALE = "female"


class Ethnicity(str, Enum):
    WHITE = "white"
    BLACK = "black_or_african_american"
    HISPANIC = "hispanic_or_latino"
    OTHER = "other_or_unknown"


class Region(str, Enum):
    NORTHEAST = "northeast"
    NORTHCENTRAL = "northcentral"
    SOUTH = "south"
    WEST = "west"


class Education(str, Enum):
    LESS_THAN_HS = "less_than_hs"
    HIGH_SCHOOL = "high_school"
    SOME_COLLEGE = "some_college"
    COLLEGE = "college"
    GRADUATE = "graduate"


EDUCATION_ORDER = {e: i for i, e in enumerate(Education)}

# category orders behind every one-hot, embedding and generator table index
GENDERS = list(Gender)
ETHNICITIES = list(Ethnicity)
REGIONS = list(Region)
EDUCATIONS = list(Education)

BIRTH_YEAR_WINDOW = (1900, 2010)
_YEAR_BUCKET_SPAN = 5


def n_year_buckets(year_range: tuple[int, int]) -> int:
    """Number of five-year buckets covering ``year_range``."""
    return max(1, -(-(year_range[1] - year_range[0]) // _YEAR_BUCKET_SPAN))


def year_bucket(years, year_range: tuple[int, int]):
    """Bucket of ``years`` (an int or an integer array), clipped to ``year_range``'s."""
    return np.minimum(np.maximum((np.asarray(years) - year_range[0]) // _YEAR_BUCKET_SPAN, 0), n_year_buckets(year_range) - 1)


@dataclass(frozen=True)
class StaticCovariates:
    gender: Gender
    ethnicity: Ethnicity
    region: Region
    birth_year: Optional[int] = None

    def __post_init__(self):
        if self.birth_year is not None:
            lo, hi = BIRTH_YEAR_WINDOW
            if not (lo <= self.birth_year <= hi):
                raise DatasetError(f"birth year {self.birth_year} outside [{lo}, {hi}]")


@dataclass(frozen=True)
class CareerRecord:
    year: int
    education: Education
    occupation: int  # taxonomy code


@dataclass(frozen=True)
class CareerHistory:
    individual_id: str
    source_tag: str
    static: StaticCovariates
    records: tuple[CareerRecord, ...]

    def __post_init__(self):
        if len(self.records) < 1:
            raise DatasetError(f"individual {self.individual_id} has no records")
        years = [r.year for r in self.records]
        if any(b <= a for a, b in zip(years, years[1:])):
            raise DatasetError(f"years not strictly increasing for {self.individual_id}")
        levels = [EDUCATION_ORDER[r.education] for r in self.records]
        if any(b < a for a, b in zip(levels, levels[1:])):
            raise DatasetError(f"education decreases for {self.individual_id}")

    def __len__(self) -> int:
        return len(self.records)


TRANSITION_FIRST = "first"
TRANSITION_MOVE = "move"
TRANSITION_STAY = "stay"


def transition_type(history: CareerHistory, t: int) -> str:
    """Classify transition ``t`` (1-based) as first / move / stay."""
    if not (1 <= t <= len(history)):
        raise DatasetError(f"transition index {t} out of range 1..{len(history)}")
    if t == 1:
        return TRANSITION_FIRST
    cur = history.records[t - 1].occupation
    prev = history.records[t - 2].occupation
    return TRANSITION_STAY if cur == prev else TRANSITION_MOVE


@dataclass(frozen=True)
class Dataset:
    taxonomy: OccupationTaxonomy
    individuals: tuple[CareerHistory, ...]
    split_labels: Optional[dict[str, str]] = None

    def __post_init__(self):
        ids = [h.individual_id for h in self.individuals]
        if len(set(ids)) != len(ids):
            raise DatasetError("duplicate individual ids")
        for h in self.individuals:
            for r in h.records:
                if r.occupation not in self.taxonomy:
                    raise DatasetError(
                        f"{h.individual_id}: occupation code {r.occupation} not in taxonomy"
                    )
        if self.split_labels is not None:
            if set(self.split_labels) != set(ids):
                raise DatasetError("split labels do not cover exactly all individuals")
            bad = set(self.split_labels.values()) - {"train", "valid", "test"}
            if bad:
                raise DatasetError(f"unknown split labels: {sorted(bad)}")

    def __len__(self) -> int:
        return len(self.individuals)

    def split(self, name: str) -> list[CareerHistory]:
        if self.split_labels is None:
            raise DatasetError("dataset has no split labels")
        return [h for h in self.individuals if self.split_labels[h.individual_id] == name]

    def n_transitions(self) -> int:
        return sum(len(h) for h in self.individuals)


def split_dataset(ds: Dataset, ratios: tuple[float, float, float], seed: int) -> Dataset:
    """Assign train/valid/test labels at the individual level.

    Deterministic in ``seed``; every transition of an individual follows its
    individual's label. Individuals are permuted and cut at rounded ratio
    boundaries, so counts are exact whenever the ratios divide the total.
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise DatasetError(f"split ratios {ratios} do not sum to 1")
    if any(r < 0 for r in ratios):
        raise DatasetError("negative split ratio")
    n = len(ds.individuals)
    if n < 3:
        raise DatasetError("need at least 3 individuals to split")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_train = int(round(ratios[0] * n))
    n_valid = int(round(ratios[1] * n))
    n_train = min(n_train, n)
    n_valid = min(n_valid, n - n_train)
    labels: dict[str, str] = {}
    for rank, idx in enumerate(order):
        if rank < n_train:
            name = "train"
        elif rank < n_train + n_valid:
            name = "valid"
        else:
            name = "test"
        labels[ds.individuals[idx].individual_id] = name
    return replace(ds, split_labels=labels)


# --------------------------------------------------------------------------
# Summary statistics
# --------------------------------------------------------------------------


@dataclass
class SummaryStats:
    n_individuals: int
    n_transitions: int
    type_counts: dict[str, int]
    top_occupations: list[tuple[str, float, int]]  # (title, share, rank)


def summarize(ds: Dataset, individuals: Optional[Iterable[CareerHistory]] = None, top_n: int = 10) -> SummaryStats:
    """Counts of individuals and transitions, transition-type shares, and a
    top-occupation table (title, share of transitions, rank)."""
    people = list(individuals) if individuals is not None else list(ds.individuals)
    counts = {TRANSITION_FIRST: 0, TRANSITION_MOVE: 0, TRANSITION_STAY: 0}
    occ_counts: dict[int, int] = {}
    n_trans = 0
    for h in people:
        for t in range(1, len(h) + 1):
            counts[transition_type(h, t)] += 1
            code = h.records[t - 1].occupation
            occ_counts[code] = occ_counts.get(code, 0) + 1
            n_trans += 1
    ranked = sorted(occ_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    top = [
        (ds.taxonomy.title(code), cnt / n_trans if n_trans else 0.0, rank + 1)
        for rank, (code, cnt) in enumerate(ranked[:top_n])
    ]
    return SummaryStats(
        n_individuals=len(people),
        n_transitions=n_trans,
        type_counts=counts,
        top_occupations=top,
    )


# --------------------------------------------------------------------------
# JSONL IO
# --------------------------------------------------------------------------


def _history_to_obj(h: CareerHistory, split: Optional[str]) -> dict:
    obj = {
        "id": h.individual_id,
        "source": h.source_tag,
        "gender": h.static.gender.value,
        "ethnicity": h.static.ethnicity.value,
        "region": h.static.region.value,
        "birth_year": h.static.birth_year,
        "records": [
            {"year": r.year, "education": r.education.value, "occupation_code": r.occupation}
            for r in h.records
        ],
    }
    if split is not None:
        obj["split"] = split
    return obj


def _history_from_obj(obj: dict) -> tuple[CareerHistory, Optional[str]]:
    static = StaticCovariates(
        gender=Gender(obj["gender"]),
        ethnicity=Ethnicity(obj["ethnicity"]),
        region=Region(obj["region"]),
        birth_year=obj.get("birth_year"),
    )
    records = tuple(
        CareerRecord(year=int(r["year"]), education=Education(r["education"]), occupation=int(r["occupation_code"]))
        for r in obj["records"]
    )
    h = CareerHistory(
        individual_id=str(obj["id"]),
        source_tag=str(obj["source"]),
        static=static,
        records=records,
    )
    return h, obj.get("split")


def dump_jsonl(ds: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(FORMAT_HEADER + "\n")
        for h in ds.individuals:
            split = ds.split_labels.get(h.individual_id) if ds.split_labels else None
            fh.write(json.dumps(_history_to_obj(h, split), separators=(",", ":")) + "\n")


def load_jsonl(path, taxonomy: OccupationTaxonomy) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        return read_jsonl(fh, taxonomy, origin=str(path))


def read_jsonl(fh, taxonomy: OccupationTaxonomy, origin: str = "<stream>") -> Dataset:
    individuals: list[CareerHistory] = []
    labels: dict[str, str] = {}
    first = fh.readline().rstrip("\n")
    if first != FORMAT_HEADER:
        raise DatasetError(f"missing {FORMAT_HEADER} header in {origin}")
    for lineno, line in enumerate(fh, start=2):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{origin}:{lineno}: invalid JSON ({exc})") from None
        try:
            h, split = _history_from_obj(obj)
        except (KeyError, TypeError) as exc:
            raise DatasetError(f"{origin}:{lineno}: not an individual record ({type(exc).__name__}: {exc})") from None
        individuals.append(h)
        if split is not None:
            labels[h.individual_id] = split
    if labels and len(labels) != len(individuals):
        raise DatasetError("split labels present for only some individuals")
    return Dataset(
        taxonomy=taxonomy,
        individuals=tuple(individuals),
        split_labels=labels or None,
    )
