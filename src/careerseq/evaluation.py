"""Metrics and uncertainty quantification.

Scoring walks a model over every transition of a split and records the log
probability of the realized occupation plus the model's mass on the previous
occupation (the stay score). Everything downstream -- perplexity, mover
conditionals via Bayes' rule, move/stay AUC, decile calibration, bootstrap
standard errors -- consumes those per-transition rows.

Bootstrap resampling is at the individual level: all transitions of a drawn
individual travel together, and replicate seeds derive from (root seed,
replicate index) so runs are reproducible and paired comparisons can share
replicate index sets.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace as dc_replace
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .corpus import (
    TRANSITION_FIRST,
    TRANSITION_MOVE,
    CareerHistory,
    CareerRecord,
    transition_type,
)
from .taxonomy import FORMAT_HEADER, OccupationTaxonomy
from .training import derive_seed


class EvalError(ValueError):
    pass


@dataclass
class TransitionScores:
    individual_ids: np.ndarray  # object array of ids
    t_index: np.ndarray
    ttype: np.ndarray  # object array: first | move | stay
    logp_true: np.ndarray
    p_stay: np.ndarray  # NaN at first observations

    def __post_init__(self):
        if not np.all(np.isfinite(self.logp_true)):
            raise EvalError("non-finite log-probabilities in scores")

    def __len__(self) -> int:
        return len(self.logp_true)

    def select(self, mask: np.ndarray) -> "TransitionScores":
        return TransitionScores(
            individual_ids=self.individual_ids[mask],
            t_index=self.t_index[mask],
            ttype=self.ttype[mask],
            logp_true=self.logp_true[mask],
            p_stay=self.p_stay[mask],
        )


def score_model(
    model,
    histories: Sequence[CareerHistory],
    taxonomy: OccupationTaxonomy,
    transitions: Optional[Sequence[tuple[CareerHistory, int]]] = None,
) -> TransitionScores:
    """Score every transition of ``histories``, or the explicit
    ``transitions`` list of (history, t) pairs, in that order, through the
    model's ``score_transitions``. ``taxonomy`` is unused; the model scores
    against its own."""
    if transitions is None:
        transitions = [(h, t) for h in histories for t in range(1, len(h) + 1)]
    items = list(transitions)
    return transition_scores(items, *model.score_transitions(items))


def transition_scores(
    items: Sequence[tuple[CareerHistory, int]], logp: np.ndarray, p_stay: np.ndarray
) -> TransitionScores:
    """Rows for scored (history, t) pairs: ids and transition types come
    from the items, scores from ``logp``/``p_stay``."""
    return TransitionScores(
        individual_ids=np.array([h.individual_id for h, _ in items], dtype=object),
        t_index=np.array([t for _, t in items], dtype=np.int64),
        ttype=np.array([transition_type(h, t) for h, t in items], dtype=object),
        logp_true=logp,
        p_stay=p_stay,
    )


# --------------------------------------------------------------------------
# Point metrics
# --------------------------------------------------------------------------


def perplexity(scores: TransitionScores) -> float:
    """exp of the mean negative log-likelihood."""
    if len(scores) == 0:
        raise EvalError("no transitions selected")
    return float(np.exp(-scores.logp_true.sum() / len(scores)))


@dataclass
class MoverPerplexity:
    value: float
    n_excluded: int  # mover transitions where the stay score was exactly 1


def mover_perplexity(scores: TransitionScores) -> MoverPerplexity:
    """Perplexity over moves, conditioning each prediction on moving:
    P(y | move) = P(y) / (1 - P(previous))."""
    move = scores.ttype == TRANSITION_MOVE
    if not move.any():
        raise EvalError("no mover transitions")
    p_stay = scores.p_stay[move]
    bad = 1.0 - p_stay <= 0.0
    if bad.all():
        raise EvalError("all mover transitions have degenerate stay probability")
    cond = scores.logp_true[move][~bad] - np.log(1.0 - p_stay[~bad])
    return MoverPerplexity(value=float(np.exp(-cond.sum() / len(cond))), n_excluded=int(bad.sum()))


def move_auc(scores: TransitionScores) -> float:
    """Rank-based AUC (midrank tie handling) for predicting moves among
    non-first transitions, scoring by 1 - P(previous occupation)."""
    s = scores.select(scores.ttype != TRANSITION_FIRST)
    labels = s.ttype == TRANSITION_MOVE
    if labels.all() or (~labels).all():
        raise EvalError("need both movers and stayers for AUC")
    pred = 1.0 - s.p_stay
    ranks = _midranks(pred)
    n1 = int(labels.sum())
    n0 = len(labels) - n1
    u = ranks[labels].sum() - n1 * (n1 + 1) / 2.0
    return float(u / (n1 * n0))


def _midranks(values: np.ndarray) -> np.ndarray:
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


@dataclass
class CalibrationBin:
    bin: int
    mean_pred: float
    emp_rate: float
    count: int


@dataclass
class CalibrationReport:
    bins: list[CalibrationBin]
    error: float


def calibration(scores: TransitionScores, n_bins: int = 10) -> CalibrationReport:
    """Decile calibration of P(move) among non-first transitions.

    The error statistic squares per-bin sums of (indicator - predicted), as
    defined for the headline calibration figure.
    Quantile edges that coincide are merged, so degenerate predictors yield
    fewer, larger bins.
    """
    s = scores.select(scores.ttype != TRANSITION_FIRST)
    if len(s) < n_bins:
        raise EvalError(f"need at least {n_bins} non-first transitions")
    pred = 1.0 - s.p_stay
    moved = (s.ttype == TRANSITION_MOVE).astype(np.float64)
    edges = np.unique(np.quantile(pred, np.linspace(0, 1, n_bins + 1)[1:-1]))
    assignment = np.searchsorted(edges, pred, side="right")
    bins = []
    terms = []
    for b in range(assignment.max() + 1):
        in_bin = assignment == b
        count = int(in_bin.sum())
        if count == 0:
            continue
        mean_pred = float(pred[in_bin].mean())
        emp_rate = float(moved[in_bin].mean())
        bins.append(CalibrationBin(bin=len(bins), mean_pred=mean_pred, emp_rate=emp_rate, count=count))
        gap = moved[in_bin].sum() - pred[in_bin].sum()
        terms.append(gap**2)
    return CalibrationReport(bins=bins, error=float(np.sqrt(np.mean(terms))))


# --------------------------------------------------------------------------
# Bootstrap
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BootstrapConfig:
    b: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.b < 2:
            raise EvalError("need at least 2 bootstrap replicates")


@dataclass
class BootstrapResult:
    point: float
    se: float
    values: np.ndarray


def _individual_groups(scores: TransitionScores) -> list[np.ndarray]:
    """Row indices of each individual, in order of first appearance."""
    groups: dict[str, list[int]] = {}
    for row, ind in enumerate(scores.individual_ids):
        groups.setdefault(ind, []).append(row)
    if len(groups) < 2:
        raise EvalError("need at least 2 individuals for a bootstrap")
    return [np.asarray(g, dtype=np.int64) for g in groups.values()]


def _replicate_rows(groups: list[np.ndarray], rng: np.random.Generator) -> np.ndarray:
    n = len(groups)
    chosen = rng.integers(0, n, size=n)
    return np.concatenate([groups[i] for i in chosen])


def bootstrap_metric(
    metric_fn: Callable[[TransitionScores], float],
    scores: TransitionScores,
    cfg: BootstrapConfig = BootstrapConfig(),
    threads: int = 1,
) -> BootstrapResult:
    """Test-set bootstrap: resample individuals with replacement, keeping all
    transitions of a drawn individual, and take the sample standard deviation
    of the replicate metrics.

    Replicate seeds derive from (seed, replicate index), so results are
    identical whether replicates run serially or on a thread pool."""
    groups = _individual_groups(scores)

    def one(r: int) -> float:
        rng = np.random.default_rng(derive_seed(cfg.seed, "bootstrap", r))
        return metric_fn(scores.select(_replicate_rows(groups, rng)))

    values = np.asarray(_run_replicates(one, cfg.b, threads))
    return BootstrapResult(point=metric_fn(scores), se=float(values.std(ddof=1)), values=values)


def _run_replicates(fn: Callable[[int], object], b: int, threads: int) -> list:
    if threads <= 1:
        return [fn(r) for r in range(b)]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(b)))


@dataclass
class PairedBootstrapResult:
    point_a: float
    point_b: float
    diff: float
    se_diff: float
    values_a: np.ndarray
    values_b: np.ndarray

    @property
    def se_a(self) -> float:
        """Standard error of model a's metric, as ``bootstrap_metric`` gives
        it for the same ``cfg``."""
        return float(self.values_a.std(ddof=1))

    @property
    def se_b(self) -> float:
        return float(self.values_b.std(ddof=1))


def bootstrap_pair(
    metric_fn: Callable[[TransitionScores], float],
    scores_a: TransitionScores,
    scores_b: TransitionScores,
    cfg: BootstrapConfig = BootstrapConfig(),
    threads: int = 1,
) -> PairedBootstrapResult:
    """Paired differences on shared replicate index sets: each replicate
    draws one set of individuals and evaluates both models on it."""
    if not np.array_equal(scores_a.individual_ids, scores_b.individual_ids) or not np.array_equal(
        scores_a.t_index, scores_b.t_index
    ):
        raise EvalError("paired bootstrap requires both models scored on identical transitions")
    groups = _individual_groups(scores_a)

    def one(r: int) -> tuple[float, float]:
        rng = np.random.default_rng(derive_seed(cfg.seed, "bootstrap", r))
        rows = _replicate_rows(groups, rng)
        return metric_fn(scores_a.select(rows)), metric_fn(scores_b.select(rows))

    pairs = _run_replicates(one, cfg.b, threads)
    va, vb = (np.array(values) for values in zip(*pairs))
    point_a, point_b = metric_fn(scores_a), metric_fn(scores_b)
    return PairedBootstrapResult(point_a=point_a, point_b=point_b, diff=point_a - point_b,
                                 se_diff=float((va - vb).std(ddof=1)), values_a=va, values_b=vb)


# --------------------------------------------------------------------------
# Gap-year checks
# --------------------------------------------------------------------------


def gap_year_compare(model, taxonomy: OccupationTaxonomy, history: CareerHistory, t: int) -> tuple[float, float]:
    """Direct vs compound probability of the realized occupation at a
    two-year gap: compound marginalizes over the unobserved intermediate
    year by inserting each candidate occupation as a pseudo-record."""
    if t < 2 or t > len(history):
        raise EvalError("gap-year comparison needs a transition with a predecessor")
    rec = history.records[t - 1]
    prev = history.records[t - 2]
    if rec.year != prev.year + 2:
        raise EvalError(f"transition {t} has gap {rec.year - prev.year}, expected 2")
    y_idx = taxonomy.index_of(rec.occupation)
    direct = float(model.predict(history, t)[y_idx])
    inter_year = rec.year - 1
    probe = dc_replace(
        history,
        records=history.records[: t - 1] + (CareerRecord(inter_year, prev.education, prev.occupation),),
    )
    inter_dist = model.predict(probe, t)
    compound = 0.0
    for code in taxonomy.codes():
        extended = dc_replace(
            history,
            records=history.records[: t - 1]
            + (CareerRecord(inter_year, prev.education, code),)
            + history.records[t - 1 :],
        )
        compound += float(model.predict(extended, t + 1)[y_idx]) * float(inter_dist[taxonomy.index_of(code)])
    return direct, compound


# --------------------------------------------------------------------------
# Metrics CSV
# --------------------------------------------------------------------------

METRICS_COLUMNS = ["dataset", "split", "model", "metric", "filter", "value", "se", "B", "seed"]
CALIBRATION_COLUMNS = ["bin", "mean_pred", "emp_rate", "count"]


def format_cell(value):
    """Output text of a float or NumPy number (``.12g``); other values pass."""
    if isinstance(value, (float, np.floating, np.integer)):
        return f"{float(value):.12g}"
    return value


def write_stamped_csv(
    path, columns: Sequence[str], rows: Iterable[dict], provenance: dict, lineterminator: str = "\r\n"
) -> None:
    """CSV with the format header, one sorted ``# key=value`` line per
    provenance entry, and a header row; floats are written as ``.12g`` so
    fixed inputs give byte-stable files."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(FORMAT_HEADER + "\n")
        for key in sorted(provenance):
            fh.write(f"# {key}={provenance[key]}\n")
        writer = csv.DictWriter(fh, fieldnames=list(columns), lineterminator=lineterminator)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: format_cell(v) for k, v in row.items()})


def write_metrics_csv(path, rows: Iterable[dict], provenance: dict) -> None:
    """Rows with METRICS_COLUMNS keys; provenance lands in header comments so
    downstream reporting can refuse mixing incompatible runs."""
    write_stamped_csv(path, METRICS_COLUMNS, rows, provenance)


def read_stamped_csv(path) -> tuple[list[str], list[dict], dict]:
    """Header row, rows and provenance of a file written by
    ``write_stamped_csv``; raises EvalError without the format header."""
    provenance: dict[str, str] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        first = fh.readline().rstrip("\n")
        if first != FORMAT_HEADER:
            raise EvalError(f"missing {FORMAT_HEADER} header in {path}")
        pos = fh.tell()
        line = fh.readline()
        while line.startswith("# "):
            key, _, value = line[2:].rstrip("\n").partition("=")
            provenance[key] = value
            pos = fh.tell()
            line = fh.readline()
        fh.seek(pos)
        reader = csv.DictReader(fh)
        rows = list(reader)
    return reader.fieldnames or [], rows, provenance


def write_calibration_csv(path, report: CalibrationReport, provenance: dict) -> None:
    rows = [{"bin": b.bin, "mean_pred": b.mean_pred, "emp_rate": b.emp_rate, "count": b.count} for b in report.bins]
    write_stamped_csv(path, CALIBRATION_COLUMNS, rows, provenance)
