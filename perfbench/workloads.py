"""The benchmark's three workloads.

Each workload builds its inputs from the seed with ``careerseq gen-data`` and
``split`` at the generator settings of acceptance test 08 (24 occupations,
8 records on average, covariate effect 2.5, stay bias 0.45, years
1985-2016), sets up, then runs timed phases in a closed loop with one caller,
and finally checks the program's outputs. Train and eval stages go through
``careerseq.cli.main`` in-process, so JSONL, taxonomy CSV, checkpoint and
metrics-CSV I/O are on the measured path as users run them; predict and
generate calls use the library on the checkpoints those stages wrote.

- ``lm-train``: ``train lm`` is the repeated, dominant stage (write-heavy:
  forward, backward and Adam over (B, T, 902) tensors).
- ``lm-score``: set-up trains a short token LM; the phases only read it
  (``eval`` through ``score_transitions``, full-distribution ``predict``
  calls, seeded ``generate``), where per-prompt encoding and re-running
  shared prompt prefixes dominate.
- ``career``: no tokenizer and no token LM: empirical, MNL and career
  training, ``eval`` against the exact oracle, career ``predict`` calls and
  seeded career roll-outs. Small autograd shapes (24 occupations, T <= 30).

Every workload reports every end-to-end metric; the README lists what each
one measures on each workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import careerseq.cli
from careerseq.corpus import TRANSITION_MOVE, TRANSITION_STAY, CareerRecord, Dataset, dump_jsonl, load_jsonl, transition_type
from careerseq.evaluation import score_model
from careerseq.models import CareerModel, GenerationConfig, LmOccupationAdapter, load_token_lm
from careerseq.synthetic import GeneratorParams, OracleModel, oracle_probability
from careerseq.taxonomy import OccupationTaxonomy
from careerseq.template import TemplateCodec, TemplateConfig
from careerseq.training import evaluate_career_loss, evaluate_token_loss

GEN_FLAGS = [
    "--taxonomy-size", "24", "--mean-records", "8", "--covariate-effect", "2.5",
    "--stay-bias", "0.45", "--year-range", "1985:2016",
]
LM_FLAGS = ["--vocab-size", "900", "--d-model", "80", "--n-layers", "2", "--lr", "3e-3"]
CAREER_FLAGS = ["--d-model", "80", "--n-layers", "2", "--lr", "5e-3"]  # d_ff = 4 * d_model = 320
BOOTSTRAP_B = 100
PREDICT_CALLS = 100  # the least for a p90 with 10 samples beyond it
TOLERANCE = 1e-10  # acceptance test 06's two-path agreement


class OpFailed(RuntimeError):
    pass


def cli(*argv: str) -> None:
    """Run one ``careerseq`` subcommand in-process; a non-zero exit raises."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = careerseq.cli.main(list(argv))
    if code != 0:
        raise OpFailed(f"careerseq {argv[0]} exited {code}: {err.getvalue().strip()}")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def attempt(self, label: str, fn: Callable, *args):
        """Run one operation; an exception counts as one failure and the run
        goes on with the next operation."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # noqa: BLE001 - each failed operation is counted and reported
            self.failed += 1
            print(f"operation {label} failed", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check {label} failed {detail}", file=sys.stderr)


@dataclass
class Samples:
    """What one pass over the phases measured."""

    setup_s: list[float] = field(default_factory=list)
    train_s: list[float] = field(default_factory=list)
    eval_s: list[float] = field(default_factory=list)
    predict_s: list[float] = field(default_factory=list)
    generated: int = 0
    generate_s: float = 0.0
    valid_loss: list[float] = field(default_factory=list)
    ppl: list[float] = field(default_factory=list)


@dataclass
class Phase:
    name: str
    min_ops: int
    per_cycle: int  # operations per cycle; cycles interleave the phases over the run
    op: Callable[[int], None]


def _timed(fn: Callable, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    """Inputs, set-up, phases and checks of one workload; subclasses fill in
    the stages."""

    name = ""
    n_individuals = 0
    setups = 9  # per untraced run; setup_s is their median
    slice_transitions = 40
    predict_ts: tuple[int, ...] = (1, 2)
    prompts = 4

    def __init__(self, seed: int, workdir: Path, tally: Tally):
        self.seed = seed
        self.dir = workdir
        self.tally = tally
        self.samples = Samples()
        self.metrics_csv: list[bytes] = []

    # ---------------------------------------------------------------- paths

    def path(self, name: str) -> str:
        return str(self.dir / name)

    @property
    def tax(self) -> str:
        return self.path("data.taxonomy.csv")

    def data_flags(self, data: str) -> list[str]:
        return ["--data", data, "--taxonomy", self.tax, "--seed", str(self.seed)]

    # ---------------------------------------------------------------- set-up

    def setup(self) -> None:
        """Inputs from the seed: dataset, split, and the eval slice."""
        data = self.path("data.jsonl")
        cli("gen-data", "--out", data, "--n", str(self.n_individuals), *GEN_FLAGS, "--seed", str(self.seed))
        cli("split", "--in", data, "--taxonomy", self.tax, "--out", self.path("split.jsonl"), "--seed", str(self.seed))
        self.taxonomy = OccupationTaxonomy.load_csv(self.tax)
        self.dataset = load_jsonl(self.path("split.jsonl"), self.taxonomy)
        self.slice = self._eval_slice(self.dataset.split("test"))
        labels = {h.individual_id: "test" for h in self.slice}
        dump_jsonl(Dataset(taxonomy=self.taxonomy, individuals=tuple(self.slice), split_labels=labels), self.path("slice.jsonl"))
        # one prefix per history, cycling through predict_ts, so the calls
        # spread over as many histories as the data has
        ordered = self.dataset.split("test") + self.dataset.split("valid") + self.dataset.split("train")
        ts = self.predict_ts
        pairs = [(h, ts[i % len(ts)]) for i, h in enumerate(ordered) if ts[i % len(ts)] <= len(h)]
        self.predict_items = [pairs[i % len(pairs)] for i in range(PREDICT_CALLS)]
        self.prompt_histories = self.slice[: self.prompts]

    def _eval_slice(self, test: list) -> list:
        """Test histories in order, the last one cut short, holding exactly
        ``slice_transitions`` transitions, so every seed evaluates the same
        amount of work. The eval metrics need movers and stayers in it."""
        chosen, total = [], 0
        for h in test:
            take = min(len(h), self.slice_transitions - total)
            chosen.append(h if take == len(h) else replace(h, records=h.records[:take]))
            total += take
            if total == self.slice_transitions:
                break
        kinds = {transition_type(h, t) for h in chosen for t in range(2, len(h) + 1)}
        if total < self.slice_transitions or not {TRANSITION_MOVE, TRANSITION_STAY} <= kinds:
            raise OpFailed("the test split cannot make an eval slice")
        return chosen

    # ---------------------------------------------------------------- stages

    def eval(self, *model_flags: str) -> None:
        out = self.path("eval")
        seconds = _timed(cli, "eval", *self.data_flags(self.path("slice.jsonl")), *model_flags,
                         "--bootstrap", str(BOOTSTRAP_B), "--out", out)
        self.samples.eval_s.append(seconds)
        csv = Path(out, "metrics.csv").read_bytes()
        self.metrics_csv.append(csv)
        self.samples.ppl.append(_model_a_perplexity(csv))

    def predict(self, i: int) -> None:
        h, t = self.predict_items[i % len(self.predict_items)]
        model = self.reader()
        start = time.perf_counter()
        dist = model.predict(h, t)
        self.samples.predict_s.append(time.perf_counter() - start)
        if dist.shape != (self.taxonomy.size,) or not np.all(np.isfinite(dist)):
            raise OpFailed(f"predict returned a bad distribution for {h.individual_id} t={t}")

    def phases(self) -> list[Phase]:
        raise NotImplementedError

    def reader(self):
        """The model that ``predict`` and ``generate`` query."""
        raise NotImplementedError

    def checks(self) -> None:
        raise NotImplementedError

    def check_eval_repeats(self) -> None:
        self.tally.check("eval output identical across repeats", len(set(self.metrics_csv)) == 1)


def _best_valid_loss(checkpoint_dir: str) -> float:
    epochs = json.loads(Path(checkpoint_dir, "train_report.json").read_text())
    losses = [e["valid_loss"] for e in epochs] + [e["train_loss"] for e in epochs]
    if not all(np.isfinite(losses)):
        raise OpFailed(f"non-finite training loss in {checkpoint_dir}")
    return min(e["valid_loss"] for e in epochs)


def _model_a_perplexity(csv: bytes) -> float:
    for line in csv.decode().splitlines():
        fields = line.split(",")
        if fields[2:5] == ["model_a", "perplexity", "all"]:
            value = float(fields[5])
            if not np.isfinite(value):
                raise OpFailed("non-finite perplexity")
            return value
    raise OpFailed("metrics.csv has no model_a perplexity row")


# --------------------------------------------------------------------------
# Token-LM workloads
# --------------------------------------------------------------------------


class _LmWorkload(Workload):
    train_batch = 8

    def setup(self) -> None:
        super().setup()
        self.codec = TemplateCodec(self.taxonomy, TemplateConfig(dataset_tag="SYNTH"))
        self.generated_texts: dict[int, str] = {}

    def train_lm(self) -> None:
        """One epoch of ``train lm`` on the training split into ``lm/``."""
        out = self.path("lm")
        cli("train", "lm", *self.data_flags(self.path("split.jsonl")), "--out", out, "--epochs", "1",
            "--batch", str(self.train_batch), *LM_FLAGS)
        self.samples.valid_loss.append(_best_valid_loss(out))

    def load_adapter(self, checkpoint_dir: str) -> LmOccupationAdapter:
        lm, vocab = load_token_lm(checkpoint_dir)
        return LmOccupationAdapter(lm, vocab, self.codec)

    def prompt(self, i: int) -> str:
        h = self.prompt_histories[i % len(self.prompt_histories)]
        return self.codec.render_prompt(h, min(len(h), 3))

    def generate(self, i: int) -> None:
        adapter = self.reader()
        calls = adapter.forward_calls
        start = time.perf_counter()
        text = adapter.generate(self.prompt(i), GenerationConfig(seed=self.seed + i))
        self.samples.generate_s += time.perf_counter() - start
        self.samples.generated += adapter.forward_calls - calls
        if i < 2:
            self.generated_texts[i] = text

    def check_generate_repeats(self) -> None:
        for i, text in self.generated_texts.items():
            again = self.reader().generate(self.prompt(i), GenerationConfig(seed=self.seed + i))
            self.tally.check(f"seeded generate {i} repeats", again == text)


class LmTrain(_LmWorkload):
    name = "lm-train"
    n_individuals = 140  # 98 training histories: 13 steps of batch 8 per epoch
    predict_ts = (1, 2)

    def setup(self) -> None:
        super().setup()
        self.adapter: Optional[LmOccupationAdapter] = None
        self.reports: list[bytes] = []

    def train(self, i: int) -> None:
        self.adapter = None
        self.samples.train_s.append(_timed(self.train_lm))
        self.reports.append(Path(self.path("lm"), "train_report.csv").read_bytes())

    def reader(self) -> LmOccupationAdapter:
        if self.adapter is None:
            self.adapter = self.load_adapter(self.path("lm"))
        return self.adapter

    def phases(self) -> list[Phase]:
        return [
            Phase("train", 2, 1, self.train),
            Phase("eval", 2, 1, lambda i: self.eval("--model-a", self.path("lm"))),
            Phase("predict", PREDICT_CALLS, PREDICT_CALLS // 2, self.predict),
            Phase("generate", self.prompts, self.prompts // 2, self.generate),
        ]

    def checks(self) -> None:
        self.tally.check("train lm output identical across repeats", len(set(self.reports)) == 1)
        lm, vocab = load_token_lm(self.path("lm"))
        seqs = [[vocab.bos_id] + ids + [vocab.eos_id]
                for ids in vocab.encode_batch([self.codec.render_full(h) for h in self.dataset.split("valid")])]
        reloaded = evaluate_token_loss(lm, vocab, seqs, self.train_batch)
        best = _best_valid_loss(self.path("lm"))
        self.tally.check("reloaded checkpoint reproduces the validation loss", reloaded == best, f"{reloaded!r} != {best!r}")
        self.check_eval_repeats()
        self.check_generate_repeats()


class LmScore(_LmWorkload):
    name = "lm-score"
    prompts = 8
    n_individuals = 60
    setups = 3  # each one trains a token LM
    # 42 steps of one history each: at batch 1 the set-up's training stays
    # below the memory that scoring needs, so scoring sets peak_rss_mb
    train_batch = 1
    predict_ts = (1, 2, 3, 4, 5, 6)

    def setup(self) -> None:
        super().setup()
        self.samples.train_s.append(_timed(self.train_lm))
        self.adapter = self.load_adapter(self.path("lm"))

    def reader(self) -> LmOccupationAdapter:
        return self.adapter

    def phases(self) -> list[Phase]:
        return [
            Phase("eval", 4, 1, lambda i: self.eval("--model-a", self.path("lm"))),
            Phase("predict", PREDICT_CALLS, PREDICT_CALLS // 4, self.predict),
            Phase("generate", self.prompts, self.prompts // 4, self.generate),
        ]

    def checks(self) -> None:
        adapter = self.adapter
        sample = self.slice[:2]
        scores = score_model(adapter, sample, self.taxonomy)
        i = 0
        for h in sample:
            for t in range(1, len(h) + 1):
                stepwise = np.log(adapter.job_probability(h, t, h.records[t - 1].occupation))
                gap = abs(scores.logp_true[i] - stepwise)
                self.tally.check(f"score_model vs stepwise {h.individual_id} t={t}", gap <= TOLERANCE, f"gap {gap:.3g}")
                i += 1
        h, t = self.predict_items[-1]
        dist = adapter.predict(h, t)
        joint = np.array([adapter.joint_log_probability(h, t, code) for code in self.taxonomy.codes()])
        gap = float(np.max(np.abs(np.log(dist) - joint)))
        self.tally.check("predict vs exp(joint_log_probability)", gap <= TOLERANCE, f"gap {gap:.3g}")
        self.check_eval_repeats()
        self.check_generate_repeats()


# --------------------------------------------------------------------------
# Career workload
# --------------------------------------------------------------------------


class Career(Workload):
    name = "career"
    n_individuals = 600  # 420 training histories: 27 steps of batch 16 per epoch
    slice_transitions = 400
    predict_ts = (1, 2, 3, 4, 5, 6, 7, 8)
    epochs = 2
    mnl_iters = 50
    rollout_records = 8

    def setup(self) -> None:
        super().setup()
        self.model: Optional[CareerModel] = None
        self.rollouts: dict[int, tuple[int, ...]] = {}

    def train(self, i: int) -> None:
        split = self.path("split.jsonl")
        start = time.perf_counter()
        cli("train", "empirical", *self.data_flags(split), "--out", self.path("empirical"))
        cli("train", "mnl", *self.data_flags(split), "--out", self.path("mnl"), "--epochs", str(self.mnl_iters))
        cli("train", "career", *self.data_flags(split), "--out", self.path("career"), "--epochs", str(self.epochs),
            "--batch", "16", *CAREER_FLAGS)
        self.samples.train_s.append(time.perf_counter() - start)
        self.samples.valid_loss.append(_best_valid_loss(self.path("career")))
        self.model = None

    def reader(self) -> CareerModel:
        if self.model is None:
            self.model = CareerModel.load(self.path("career"), self.taxonomy)
        return self.model

    def sample_career(self, i: int) -> tuple[int, ...]:
        """Seeded sampling of a career continuation, one occupation per
        ``predict`` call: the career model's counterpart of token generation."""
        model = self.reader()
        rng = np.random.default_rng([self.seed, i])
        h = self.prompt_histories[i % len(self.prompt_histories)]
        h = replace(h, records=h.records[:2])
        codes = []
        for _ in range(self.rollout_records):
            last = h.records[-1]
            # record t's own occupation does not enter predict(h, t); the
            # placeholder only carries its year and education
            h = replace(h, records=h.records + (CareerRecord(last.year + 1, last.education, last.occupation),))
            dist = model.predict(h, len(h))
            code = self.taxonomy.code_at(int(rng.choice(dist.size, p=dist / dist.sum())))
            h = replace(h, records=h.records[:-1] + (CareerRecord(last.year + 1, last.education, code),))
            codes.append(code)
        return tuple(codes)

    def roll_out(self, i: int) -> None:
        start = time.perf_counter()
        codes = self.sample_career(i)
        self.samples.generate_s += time.perf_counter() - start
        self.samples.generated += len(codes)
        if i < self.prompts:
            self.rollouts[i] = codes

    def phases(self) -> list[Phase]:
        return [
            Phase("train", 2, 1, self.train),
            Phase("eval", 3, 3, lambda i: self.eval(
                "--model-a", self.path("career"), "--model-b", "oracle", "--gen-params", self.path("data.gen-params.npz"))),
            # predict and roll-outs take milliseconds: many per cycle, so that a
            # pause of the machine moves their figures little
            Phase("predict", PREDICT_CALLS, 60, self.predict),
            Phase("generate", self.prompts, 16, self.roll_out),
        ]

    def checks(self) -> None:
        model = self.reader()
        params = GeneratorParams.load(self.path("data.gen-params.npz"))
        sample = self.slice[:4]
        learned = score_model(model, sample, self.taxonomy)
        oracle = score_model(OracleModel(params, self.taxonomy), sample, self.taxonomy)
        i = 0
        for h in sample:
            for t in range(1, len(h) + 1):
                y = self.taxonomy.index_of(h.records[t - 1].occupation)
                gap = abs(learned.logp_true[i] - np.log(model.predict(h, t)[y]))
                self.tally.check(f"score_model vs CareerModel.predict {h.individual_id} t={t}", gap <= TOLERANCE, f"gap {gap:.3g}")
                gap = abs(oracle.logp_true[i] - np.log(oracle_probability(params, self.taxonomy, h, t)[y]))
                self.tally.check(f"score_model vs oracle_probability {h.individual_id} t={t}", gap <= TOLERANCE, f"gap {gap:.3g}")
                i += 1
        valid = self.dataset.split("valid")
        reloaded = evaluate_career_loss(model, valid, 16)
        best = _best_valid_loss(self.path("career"))
        self.tally.check("reloaded career checkpoint reproduces the validation loss", reloaded == best, f"{reloaded!r} != {best!r}")
        self.check_eval_repeats()
        for i, codes in self.rollouts.items():
            self.tally.check(f"seeded roll-out {i} repeats", self.sample_career(i) == codes)


WORKLOADS = {w.name: w for w in (LmTrain, LmScore, Career)}
