"""One place that builds, trains and reloads every model family.

:func:`fit` trains ``empirical``, ``mnl``, ``career`` or ``lm`` from a
per-kind spec; a key the spec leaves out takes its value from
:data:`DEFAULTS`, the defaults of ``careerseq train``. :func:`load` rebuilds
any checkpoint from its manifest, reading it once.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..corpus import CareerHistory
from ..taxonomy import OccupationTaxonomy
from ..template import TemplateCodec, TemplateConfig
from ..tokenizer import train_template_vocab
from ..training import LrSchedule, OptimizerConfig, TrainReport, train_career, train_token_lm
from .adapter import LmOccupationAdapter
from .career import CareerConfig, CareerModel, paper_preset
from .checkpoint import CheckpointError, config_hash, config_of, load_checkpoint
from .empirical import EmpiricalModel
from .mnl import MnlConfig, MnlFitConfig, MnlModel, PrevCovariatesFeaturizer, PrevOccupationFeaturizer
from .token_lm import TokenLM, TokenLmConfig, token_lm_from_checkpoint

# Every key a kind's spec may hold, with its default. ``normalized`` picks
# the empirical model's proper-distribution variant; ``epochs`` counts
# full-batch iterations for the MNL; ``pretrain`` holds career histories;
# ``codec`` renders the LM's texts (None: the default template).
DEFAULTS = {
    "empirical": {"normalized": False},
    "mnl": {"featurizer": "prev_covariates", "reg": 0.0, "epochs": 2000},
    "career": {"preset": "toy", "d_model": 64, "n_layers": 4, "epochs": 10, "lr": 1e-3, "batch": 32, "pretrain": ()},
    "lm": {"codec": None, "vocab_size": 2048, "context": 512, "d_model": 128, "n_layers": 4, "epochs": 3, "lr": 1e-3,
           "batch": 32},
}

FEATURIZERS = {"prev": PrevOccupationFeaturizer, "prev_covariates": PrevCovariatesFeaturizer}


def spec_keys(kind: str, preset: str = "toy") -> set[str]:
    """The spec keys :func:`fit` reads for ``kind``; the paper preset fixes the career model's size."""
    if kind not in DEFAULTS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {sorted(DEFAULTS)}")
    keys = set(DEFAULTS[kind])
    return keys - {"d_model", "n_layers"} if kind == "career" and preset == "paper" else keys


def fit(
    kind: str,
    spec: dict,
    taxonomy: OccupationTaxonomy,
    train: Sequence[CareerHistory],
    valid: Sequence[CareerHistory] = (),
    seed: int = 0,
    held_out: Sequence[CareerHistory] = (),
) -> tuple[object, Optional[TrainReport]]:
    """Train a ``kind`` model on ``train``, validating on ``valid``, seeded by
    ``seed``; returns the model and, for the career model and the LM, the
    training report. The career model's positions and the LM's context also
    cover ``held_out`` (say, the test split), so every history fits at
    scoring time."""
    unread = set(spec) - spec_keys(kind, spec.get("preset", "toy"))
    if unread:
        raise ValueError(f"a {kind} spec does not read {sorted(unread)}")
    s = {**DEFAULTS[kind], **spec}
    if kind == "empirical":
        return EmpiricalModel(taxonomy, normalized=s["normalized"]).fit(train), None
    if kind == "mnl":
        model = MnlModel(FEATURIZERS[s["featurizer"]](taxonomy), taxonomy, reg=s["reg"])
        return model.fit(train, MnlFitConfig(max_iters=s["epochs"], seed=seed)), None
    if kind == "career":
        return _fit_career(s, taxonomy, train, valid, seed, held_out)
    return _fit_lm(s, taxonomy, train, valid, seed, held_out)


def _fit_career(s: dict, taxonomy, train, valid, seed: int, held_out) -> tuple[CareerModel, TrainReport]:
    pretrain = list(s["pretrain"])
    if s["preset"] == "paper":
        config = paper_preset(taxonomy.size)
    else:
        positions = max(len(h) for h in [*train, *valid, *held_out, *pretrain]) + 1
        d = s["d_model"]
        config = CareerConfig(taxonomy.size, d, s["n_layers"], n_heads=2, d_ff=4 * d, max_positions=positions)
    model = CareerModel(config, taxonomy, seed=seed)
    lr = LrSchedule(kind="inverse_sqrt_warmup", peak=s["lr"], warmup_steps=100, init=1e-7)
    cfg = OptimizerConfig(
        lr_schedule=lr, max_epochs=s["epochs"], batch_sequences=s["batch"], seed=seed, weight_decay=0.01, patience=3
    )
    return model, train_career(model, train, valid, pretrain=pretrain, cfg=cfg)


def _fit_lm(s: dict, taxonomy, train, valid, seed: int, held_out) -> tuple[LmOccupationAdapter, TrainReport]:
    """Each history renders once. The vocabulary learns from the train texts,
    and the context fits the longest text plus the longest title."""
    codec = s["codec"] or TemplateCodec(taxonomy, TemplateConfig())
    texts = [codec.render_full(h) for h in [*train, *valid, *held_out]]
    train_texts, valid_texts = texts[: len(train)], texts[len(train) : len(train) + len(valid)]
    continuations = [codec.title_continuation(c) for c in taxonomy.codes()]
    vocab = train_template_vocab(train_texts, continuations, s["vocab_size"])
    longest = max(len(ids) for ids in vocab.encode_batch(texts)) + 2  # with BOS and EOS
    longest_title = max(len(vocab.encode(c)) for c in continuations)
    context = max(s["context"], longest + longest_title + 4)
    lm = TokenLM(TokenLmConfig(vocab.size, s["d_model"], s["n_layers"], n_heads=4, context=context), seed=seed)
    lr = LrSchedule(kind="linear_decay", peak=s["lr"])
    cfg = OptimizerConfig(lr_schedule=lr, max_epochs=s["epochs"], batch_sequences=s["batch"], seed=seed)
    report, _ = train_token_lm(lm, vocab, train_texts, valid_texts, cfg)
    return LmOccupationAdapter(lm, vocab, codec), report


def load(path, taxonomy: OccupationTaxonomy, codec: Optional[TemplateCodec] = None) -> tuple[object, str]:
    """The model saved at ``path`` and its config hash. An LM checkpoint comes
    back as an occupation model rendering with ``codec`` (None: the default
    template); an MNL gets the featurizer its manifest names."""
    checkpoint = load_checkpoint(path)
    kind, _, config = checkpoint
    if kind in ("empirical", "career"):
        model = {"empirical": EmpiricalModel, "career": CareerModel}[kind].from_checkpoint(checkpoint, path, taxonomy)
    elif kind == "token_lm":
        lm, vocab = token_lm_from_checkpoint(checkpoint, path)
        model = LmOccupationAdapter(lm, vocab, codec or TemplateCodec(taxonomy, TemplateConfig()))
    elif kind == "mnl":
        by_name = {f.name: f for f in FEATURIZERS.values()}
        name = config_of(MnlConfig, config, path).featurizer
        if name not in by_name:
            raise CheckpointError(f"mnl checkpoint {path}: featurizer {name!r} cannot be rebuilt from a manifest")
        model = MnlModel.from_checkpoint(checkpoint, path, by_name[name](taxonomy), taxonomy)
    else:
        raise CheckpointError(f"cannot rebuild checkpoint kind {kind!r}")
    return model, config_hash(config)
