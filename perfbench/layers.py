"""The traced run's view of the library: which public calls it wraps, what
each wrapper counts, and how the per-layer metrics follow from the spans.

Each span name is a layer, and the layer's metric is its name plus ``_s``:
the self time of its spans, that is the time spent inside the layer's calls
minus the time of the traced calls they make. Sub-calls recorded under the
same layer name (``MnlModel.loss_and_grads`` inside ``MnlModel.fit``) keep
their time in the layer; an autograd op's backward closure is recorded under
the op's layer. Counts are totals over the traced pass.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from careerseq import autograd, corpus, evaluation, synthetic, template, tokenizer, training
from careerseq.models import adapter, career, checkpoint, empirical, mnl, token_lm

from tracing import Call, Probe, Tracer, layer_self_times


def _arg(call: Call, index: int, name: str, default=None):
    return call.args[index] if len(call.args) > index else call.kwargs.get(name, default)


# ------------------------------------------------------------ counting hooks


def _count_encode(tr: Tracer, call: Call) -> None:
    tr.count("tokenizer.encode_calls")
    tr.count("tokenizer.tokens_encoded", sum(len(ids) for ids in call.result))


def _count_positions(tr: Tracer, prefix: str, positions: float, real: float) -> None:
    tr.count(f"{prefix}.positions", positions)
    tr.count(f"{prefix}.real_positions", real)


def _count_batched_log_probs(tr: Tracer, call: Call) -> None:
    seqs = _arg(call, 1, "sequences")
    if not seqs:
        return
    positions = len(seqs) * max(len(s) for s in seqs)
    _count_positions(tr, "token_lm", positions, sum(len(s) for s in seqs))
    if tr.inside("adapter.score_transitions"):
        tr.count("adapter.positions", positions)


def _count_next_token(tr: Tracer, call: Call) -> None:
    n = len(_arg(call, 1, "context_ids"))
    _count_positions(tr, "token_lm", n, n)
    tr.count("token_lm.next_token_calls")


def _count_lm_batch(tr: Tracer, call: Call) -> None:
    batch = _arg(call, 1, "batch")
    ids, mask = batch["ids"], batch["mask"]
    _count_positions(tr, "token_lm", ids.size, mask.sum() + ids.shape[0])


def _count_lm_train_batch(tr: Tracer, call: Call) -> None:
    _count_lm_batch(tr, call)
    tr.count("training.target_tokens", _arg(call, 1, "batch")["mask"].sum())


def _count_career_batch(tr: Tracer, call: Call) -> None:
    valid = call.result["valid"]
    _count_positions(tr, "career", valid.size, valid.sum())


def _count_career_train_batch(tr: Tracer, call: Call) -> None:
    tr.count("training.target_tokens", _arg(call, 1, "batch")["valid"].sum())


def _with_backward(layer: str):
    """Counting hook of an autograd op: the backward closure of the node it
    returns is recorded under the op's layer too, so the op's metric covers
    forward and backward, and ``Tensor.backward`` keeps only the rest."""

    def count(tr: Tracer, call: Call) -> None:
        node = call.result
        if node._backward is not None:
            node._backward = tr.wrap(Probe(autograd.Tensor, "_backward", layer), node._backward)

    return count


def _adapter_calls_before(args, kwargs):
    return args[0].forward_calls


def _count_adapter_calls(tr: Tracer, call: Call) -> None:
    tr.count("adapter.forward_calls", call.args[0].forward_calls - call.before)


def _count_score_transitions(tr: Tracer, call: Call) -> None:
    _count_adapter_calls(tr, call)
    items = _arg(call, 1, "items")
    _, p_stay = call.result
    tr.count("adapter.transitions", len(items))
    tr.count("adapter.sequences_scored", len(items) + int((~np.isnan(p_stay)).sum()))


def _count_checkpoint_bytes(tr: Tracer, call: Call) -> None:
    root = Path(_arg(call, 0, "path"))
    files = [root / "manifest.json", *(root / "params").iterdir()]
    tr.count("checkpoint.bytes", sum(f.stat().st_size for f in files))


def _bootstrap_counter(cfg_index: int):
    def count(tr: Tracer, call: Call) -> None:
        cfg = _arg(call, cfg_index, "cfg") or evaluation.BootstrapConfig()
        tr.count("evaluation.bootstrap_replicates", cfg.b)

    return count


def count_learned_scoring(tr: Tracer, call: Call) -> None:
    """Transitions and seconds of ``score_model`` on a learned model; the
    oracle's scoring is left out. Keeps the last learned scores."""
    if isinstance(_arg(call, 0, "model"), synthetic.OracleModel):
        return
    tr.count("evaluation.learned_transitions", len(call.result))
    tr.count("evaluation.learned_score_s", call.end - call.start)
    tr.captured["scores"] = call.result


def scoring_probe() -> Probe:
    """The one wrapper the untraced runs keep: a stopwatch on ``score_model``."""
    return Probe(evaluation, "score_model", "evaluation.score_model_self", count_learned_scoring)


def probes() -> list[Probe]:
    """Every wrapper of the traced run."""
    enc = tokenizer.Vocabulary
    lm = token_lm.TokenLM
    ad = adapter.LmOccupationAdapter
    cm = career.CareerModel
    before = _adapter_calls_before
    return [
        Probe(synthetic, "generate_synthetic", "synthetic.generate"),
        Probe(corpus, "split_dataset", "corpus.split"),
        Probe(corpus, "dump_jsonl", "corpus.jsonl_roundtrip"),
        Probe(corpus, "load_jsonl", "corpus.jsonl_roundtrip"),
        Probe(synthetic.OracleModel, "predict", "synthetic.oracle_score"),
        Probe(synthetic.OracleModel, "predict_all", "synthetic.oracle_score"),
        Probe(template.TemplateCodec, "render_full", "template.render"),
        Probe(template.TemplateCodec, "render_prompt", "template.render"),
        Probe(tokenizer, "train_template_vocab", "tokenizer.train"),
        Probe(enc, "encode_batch", "tokenizer.encode", _count_encode),
        Probe(autograd.Tensor, "backward", "autograd.backward"),
        Probe(autograd, "gelu", "autograd.gelu", _with_backward("autograd.gelu")),
        Probe(autograd, "log_softmax", "autograd.log_softmax", _with_backward("autograd.log_softmax")),
        Probe(autograd, "matmul", "autograd.matmul", _with_backward("autograd.matmul")),
        Probe(lm, "loss_and_grads", "token_lm.loss_and_grads", _count_lm_train_batch),
        Probe(lm, "loss", "token_lm.loss", _count_lm_batch, span=False),
        Probe(lm, "batched_log_probs", "token_lm.batched_log_probs", _count_batched_log_probs),
        Probe(lm, "next_token_distribution", "token_lm.next_token_distribution", _count_next_token),
        Probe(ad, "score_transitions", "adapter.score_transitions", _count_score_transitions, before),
        Probe(ad, "job_distribution", "adapter.job_distribution", _count_adapter_calls, before),
        Probe(ad, "generate", "adapter.generate", _count_adapter_calls, before),
        Probe(cm, "build_batch", "career.build_batch", _count_career_batch),
        Probe(cm, "loss_and_grads", "career.loss_and_grads", _count_career_train_batch),
        Probe(cm, "predict_all", "career.predict_all"),
        Probe(cm, "predict", "career.predict"),
        Probe(empirical.EmpiricalModel, "fit", "empirical.fit"),
        Probe(mnl.MnlModel, "fit", "mnl.fit"),
        Probe(mnl.MnlModel, "loss_and_grads", "mnl.fit", lambda tr, call: tr.count("mnl.fit_iters")),
        Probe(checkpoint, "save_checkpoint", "checkpoint.save", _count_checkpoint_bytes),
        Probe(checkpoint, "load_checkpoint", "checkpoint.load"),
        Probe(training, "train_token_lm", "training.loop"),
        Probe(training, "train_career", "training.loop"),
        Probe(training.AdamState, "update", "training.optimizer_update", lambda tr, call: tr.count("training.steps")),
        Probe(training, "evaluate_token_loss", "training.valid_eval"),
        Probe(training, "evaluate_career_loss", "training.valid_eval"),
        scoring_probe(),
        Probe(evaluation, "bootstrap_metric", "evaluation.bootstrap", _bootstrap_counter(2)),
        Probe(evaluation, "bootstrap_pair", "evaluation.bootstrap", _bootstrap_counter(3)),
        Probe(evaluation, "calibration", "evaluation.calibration"),
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pad_share(counters, prefix: str) -> float:
    positions = counters[f"{prefix}.positions"]
    return 1.0 - counters[f"{prefix}.real_positions"] / positions if positions else 0.0


def layer_metrics(tracer: Tracer, probes: list[Probe]) -> dict[str, float]:
    """Per-layer metrics from one pass traced by ``probes`` (zero where a
    layer did no work)."""
    own = layer_self_times(tracer.spans)
    c = tracer.counters
    out = {f"{p.layer}_s": own.get(p.layer, 0.0) for p in probes if p.span}
    loop_s = sum(s.end - s.start for s in tracer.spans if s.name == "training.loop")
    out.update(
        {
            "tokenizer.encode_calls": c["tokenizer.encode_calls"],
            "tokenizer.tokens_encoded": c["tokenizer.tokens_encoded"],
            "token_lm.positions_forwarded": c["token_lm.positions"],
            "token_lm.pad_share": _pad_share(c, "token_lm"),
            "token_lm.next_token_calls": c["token_lm.next_token_calls"],
            "adapter.sequences_scored": c["adapter.sequences_scored"],
            "adapter.forward_calls": c["adapter.forward_calls"],
            "adapter.positions_per_transition": _ratio(c["adapter.positions"], c["adapter.transitions"]),
            "career.pad_share": _pad_share(c, "career"),
            "mnl.fit_iters": c["mnl.fit_iters"],
            "checkpoint.bytes": c["checkpoint.bytes"],
            "training.steps": c["training.steps"],
            "training.target_tokens_per_s": _ratio(c["training.target_tokens"], loop_s),
            "evaluation.bootstrap_replicates": c["evaluation.bootstrap_replicates"],
            "tracing.spans": float(len(tracer.spans)),
        }
    )
    return out
