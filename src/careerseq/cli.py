"""Command-line entry point: generate/split data, render/parse templates,
train models, evaluate, run experiments, and turn metrics into plot data.

Conventions: stdout carries data only, diagnostics go to stderr; exit code 0
on success, 2 for configuration/usage errors, 3 for runtime failures. Every
run's randomness funnels through one root seed, which is printed if it was
defaulted rather than given. Flags win over ``--config`` file values;
CAREERSEQ_SEED is honored only when --seed is absent.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import sys
import time
from pathlib import Path

from numpy._core import _multiarray_umath

from . import evaluation as ev
from . import experiments as ex
from .corpus import Dataset, dump_jsonl, load_jsonl, split_dataset, summarize
from .models import EmpiricalModel, LmOccupationAdapter, config_hash, factory
from .models.checkpoint import check_replaceable
from .synthetic import GeneratorParams, OracleModel, SyntheticConfig, generate_synthetic
from .taxonomy import OccupationTaxonomy
from .template import NumericTitleMap, TemplateCodec, TemplateConfig
from .tokenizer import title_token_stats, train_template_vocab  # noqa: F401 (perfbench's tracing test rebinds it here)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class CliError(ValueError):
    pass


def _blas_thread_calls():
    """The get/set thread-count calls of the OpenBLAS that NumPy links, or None."""
    lib = ctypes.CDLL(_multiarray_umath.__file__)
    for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
        get, put = getattr(lib, name.format("get"), None), getattr(lib, name.format("set"), None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


_BLAS_THREAD_CALLS = _blas_thread_calls()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body on one BLAS thread, so that large matrix products sum in
    one order whatever count the environment sets; then restore the count,
    so library callers in the same process are unaffected."""
    if _BLAS_THREAD_CALLS is None:
        yield
        return
    get, put = _BLAS_THREAD_CALLS
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


def main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return int(exc.code or 0)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    try:
        with _one_blas_thread():
            _apply_config_file(args, argv, parser)
            args.seed = _resolve_seed(args)
            args.func(args)
        return EXIT_OK
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def _resolve_seed(args) -> int:
    seed = getattr(args, "seed", None)
    if seed is None:
        env = os.environ.get("CAREERSEQ_SEED")
        seed = int(env) if env else 0
        print(f"seed not given; using {seed}", file=sys.stderr)
    return int(seed)


def _apply_config_file(args, argv, parser: argparse.ArgumentParser) -> None:
    """Fill args from a JSON config; flags explicitly present in argv win.

    Keys are the subcommand's option destinations, spelled with hyphens or
    underscores (``taxonomy-size``, ``taxonomy_size``); any other key is a
    configuration error. A non-null value goes through its option's ``type``
    and ``choices`` as the same text given as a flag would."""
    path = getattr(args, "config", None)
    if not path:
        return
    with open(path, "r", encoding="utf-8") as fh:
        values = json.load(fh)
    if not isinstance(values, dict):
        raise CliError(f"--config {path} must hold a JSON object")
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = subparsers.choices[args.command]._actions
    options = {a.dest: a for a in actions if a.option_strings and a.dest not in ("help", "config")}
    dest_of = {flag: a.dest for a in options.values() for flag in a.option_strings}
    given = {dest_of.get(tok.split("=", 1)[0]) for tok in argv if tok.startswith("--")}
    for key, value in values.items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            raise CliError(f"unknown key {key!r} in --config {path}")
        if action.dest in given:
            continue
        if value is not None and action.type is not None:
            try:
                value = action.type(str(value))
            except (TypeError, ValueError):
                raise CliError(f"invalid value {value!r} for key {key!r} in --config {path}") from None
        if value is not None and action.choices and value not in action.choices:
            raise CliError(f"key {key!r} in --config {path} must be one of {list(action.choices)}, not {value!r}")
        setattr(args, action.dest, value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="careerseq", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--config", default=None, help="JSON config file; explicit flags win")

    g = sub.add_parser("gen-data", help="generate a synthetic dataset with a ground-truth oracle")
    common(g)
    g.add_argument("--out", required=True, help="dataset JSONL path")
    g.add_argument("--taxonomy-out", default=None, help="taxonomy CSV path (default: alongside --out)")
    g.add_argument("--params-out", default=None, help="generator parameter file for oracle replay (.npz)")
    g.add_argument("--n", type=int, default=1000)
    g.add_argument("--taxonomy-size", type=int, default=334)
    g.add_argument("--markov-order", type=int, choices=[1, 2], default=1)
    g.add_argument("--stay-bias", type=float, default=0.385)
    g.add_argument("--covariate-effect", type=float, default=1.0)
    g.add_argument("--gap-prob", type=float, default=0.35)
    g.add_argument("--mean-records", type=float, default=10.0)
    g.add_argument("--year-range", default="1979:2022")
    g.add_argument("--tag", default="SYNTH")
    g.set_defaults(func=cmd_gen_data)

    s = sub.add_parser("split", help="assign train/valid/test labels at the individual level")
    common(s)
    s.add_argument("--in", dest="inp", required=True)
    s.add_argument("--taxonomy", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--ratios", default="0.7,0.1,0.2")
    s.set_defaults(func=cmd_split)

    r = sub.add_parser("render", help="render career histories to text templates")
    common(r)
    r.add_argument("--in", dest="inp", default=None, help="dataset JSONL (default: stdin)")
    r.add_argument("--taxonomy", required=True)
    r.add_argument("--id", default=None, help="render only this individual")
    r.add_argument("--t", type=int, default=None, help="render the prompt for transition t instead of the full text")
    r.add_argument("--tag", default=None, help="override the dataset tag")
    r.add_argument("--no-birth-year", action="store_true")
    r.add_argument("--numeric-map", default=None, help="numeric-title map JSON (switches to numeric titles)")
    r.add_argument("--trailing-space", action="store_true")
    r.set_defaults(func=cmd_render)

    p = sub.add_parser("parse", help="parse templates back into dataset JSONL")
    common(p)
    p.add_argument("--in", dest="inp", default=None, help="template text (default: stdin)")
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--numeric-map", default=None)
    p.add_argument("--tag", default="PARSED")
    p.set_defaults(func=cmd_parse)

    t = sub.add_parser("train", help="fit a model and write a checkpoint")
    common(t)
    t.add_argument("model", choices=["empirical", "mnl", "career", "lm"])
    t.add_argument("--data", required=True)
    t.add_argument("--taxonomy", required=True)
    t.add_argument("--out", required=True, help="checkpoint directory")
    t.add_argument("--preset", choices=["toy", "paper"], default=factory.DEFAULTS["career"]["preset"])
    t.add_argument("--epochs", type=int, default=None)
    t.add_argument("--lr", type=float, default=None)
    t.add_argument("--batch", type=int, default=None)
    t.add_argument("--vocab-size", type=int, default=factory.DEFAULTS["lm"]["vocab_size"])
    t.add_argument("--d-model", type=int, default=None)
    t.add_argument("--n-layers", type=int, default=None)
    t.add_argument("--context", type=int, default=factory.DEFAULTS["lm"]["context"])
    t.add_argument("--no-birth-year", action="store_true")
    t.add_argument("--numeric-map", default=None)
    t.add_argument("--featurizer", choices=list(factory.FEATURIZERS), default=factory.DEFAULTS["mnl"]["featurizer"])
    t.add_argument("--reg", type=float, default=factory.DEFAULTS["mnl"]["reg"])
    t.add_argument("--pretrain-data", default=None, help="career: optional pre-training JSONL")
    t.set_defaults(func=cmd_train, default_of=t.get_default)

    e = sub.add_parser("eval", help="score checkpoints on a split and write metrics CSV")
    common(e)
    e.add_argument("--data", required=True)
    e.add_argument("--taxonomy", required=True)
    e.add_argument("--model-a", required=True, help="checkpoint dir, or 'oracle'")
    e.add_argument("--model-b", default=None, help="optional second model for paired differences")
    e.add_argument("--gen-params", default=None, help="generator .npz (required for oracle)")
    e.add_argument("--split", default="test")
    e.add_argument("--bootstrap", type=int, default=100)
    e.add_argument("--out", required=True, help="output directory")
    e.add_argument("--normalized", action="store_true", help="normalize the rows of each empirical model")
    e.add_argument("--no-birth-year", action="store_true")
    e.add_argument("--numeric-map", default=None)
    e.add_argument("--dataset-name", default="synthetic")
    e.set_defaults(func=cmd_eval)

    x = sub.add_parser("experiment", help="run a named experiment protocol")
    common(x)
    x.add_argument("kind", choices=list(ex.EXPERIMENT_KINDS))
    x.add_argument("--spec", required=True, help="JSON file with experiment parameters")
    x.add_argument("--out", required=True, help="output directory (a timestamped subdir is created)")
    x.add_argument("--gen-params", default=None, help="generator .npz when a spec references the oracle model")
    x.add_argument("--no-birth-year", action="store_true")
    x.add_argument("--numeric-map", default=None)
    x.set_defaults(func=cmd_experiment)

    rp = sub.add_parser("report", help="collect metrics into plot-ready CSV files")
    common(rp)
    rp.add_argument("--metrics", required=True, help="directory of metrics CSVs")
    rp.add_argument("--out", required=True)
    rp.add_argument("--force", action="store_true", help="allow mixing runs with different config hashes")
    rp.set_defaults(func=cmd_report)

    return parser


# --------------------------------------------------------------------------
# Subcommand implementations
# --------------------------------------------------------------------------


def cmd_gen_data(args) -> None:
    y0, _, y1 = args.year_range.partition(":")
    cfg = SyntheticConfig(
        n_individuals=args.n,
        year_range=(int(y0), int(y1)),
        taxonomy_size=args.taxonomy_size,
        markov_order=args.markov_order,
        covariate_effect_strength=args.covariate_effect,
        stay_bias=args.stay_bias,
        seed=args.seed,
        mean_records=args.mean_records,
        gap_probability=args.gap_prob,
        source_tag=args.tag,
    )
    ds, params = generate_synthetic(cfg)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    dump_jsonl(ds, out)
    tax_path = Path(args.taxonomy_out) if args.taxonomy_out else out.with_suffix(".taxonomy.csv")
    ds.taxonomy.dump_csv(tax_path)
    params_path = Path(args.params_out) if args.params_out else out.with_suffix(".gen-params.npz")
    params.save(params_path)
    stats = summarize(ds)
    print(
        f"wrote {out} ({stats.n_individuals} individuals, {stats.n_transitions} transitions), "
        f"taxonomy {tax_path}, generator params {params_path}",
        file=sys.stderr,
    )


def cmd_split(args) -> None:
    taxonomy = OccupationTaxonomy.load_csv(args.taxonomy)
    ds = load_jsonl(args.inp, taxonomy)
    ratios = tuple(float(x) for x in args.ratios.split(","))
    if len(ratios) != 3:
        raise CliError("--ratios needs three comma-separated fractions")
    ds = split_dataset(ds, ratios, args.seed)
    dump_jsonl(ds, args.out)
    counts = {name: len(ds.split(name)) for name in ("train", "valid", "test")}
    print(f"wrote {args.out} with splits {counts}", file=sys.stderr)


def _codec_from_args(args, taxonomy, default_tag="SYNTH") -> TemplateCodec:
    numeric_map = NumericTitleMap.load_json(args.numeric_map) if getattr(args, "numeric_map", None) else None
    cfg = TemplateConfig(
        dataset_tag=getattr(args, "tag", None) or default_tag,
        include_birth_year=not getattr(args, "no_birth_year", False),
        numeric_titles=numeric_map is not None,
        trailing_space=getattr(args, "trailing_space", False),
    )
    return TemplateCodec(taxonomy, cfg, numeric_map)


def cmd_render(args) -> None:
    taxonomy = OccupationTaxonomy.load_csv(args.taxonomy)
    if args.inp:
        ds = load_jsonl(args.inp, taxonomy)
    else:
        from .corpus import read_jsonl

        ds = read_jsonl(sys.stdin, taxonomy, origin="<stdin>")
    histories = list(ds.individuals)
    if args.id is not None:
        histories = [h for h in histories if h.individual_id == args.id]
        if not histories:
            raise CliError(f"individual {args.id!r} not found")
    first_tag = histories[0].source_tag if histories else "SYNTH"
    codec = _codec_from_args(args, taxonomy, default_tag=first_tag)
    if args.t is not None:
        chunks = [codec.render_prompt(h, args.t) for h in histories]
        sys.stdout.write("\n\n".join(chunks) + "\n")
    else:
        # full templates already end with a newline; one blank line between
        sys.stdout.write("\n".join(codec.render_full(h) for h in histories))


def cmd_parse(args) -> None:
    taxonomy = OccupationTaxonomy.load_csv(args.taxonomy)
    codec = _codec_from_args(args, taxonomy, default_tag=args.tag)
    text = open(args.inp, "r", encoding="utf-8").read() if args.inp else sys.stdin.read()
    blocks = [b for b in text.split("\n\n") if b.strip()]
    histories = []
    for i, block in enumerate(blocks):
        if not block.endswith("\n"):
            block += "\n"
        histories.append(codec.parse(block, individual_id=f"parsed-{i:04d}"))
    ds = Dataset(taxonomy=taxonomy, individuals=tuple(histories))
    for h in ds.individuals:
        from .corpus import _history_to_obj

        sys.stdout.write(json.dumps(_history_to_obj(h, None), separators=(",", ":")) + "\n")


# train options that set a spec key of another name; no option sets ``normalized``
_OPTIONS_OF_KEY = {"pretrain": ("pretrain_data",), "codec": ("no_birth_year", "numeric_map"), "normalized": ()}

# train options that must be positive when given
_POSITIVE_OPTIONS = ("epochs", "lr", "batch", "d_model")


def _options_read(kind: str, preset: str) -> set[str]:
    return {dest for key in factory.spec_keys(kind, preset) for dest in _OPTIONS_OF_KEY.get(key, (key,))}


def _reject_unread_train_options(args) -> None:
    """A train option, given as a flag or a ``--config`` key, that the chosen
    model does not read is a configuration error, not silently dropped."""
    read = _options_read(args.model, args.preset)
    preset = "preset" in read and args.preset != args.default_of("preset")
    chosen = f"train {args.model}" + (f" --preset {args.preset}" if preset else "")
    for dest in sorted(set().union(*(_options_read(kind, "toy") for kind in factory.DEFAULTS)) - read):
        if getattr(args, dest) != args.default_of(dest):
            raise CliError(f"--{dest.replace('_', '-')} does not apply to {chosen}")


def _train_spec(args, taxonomy) -> dict:
    """The factory spec of the train options; an option not given takes the
    factory's default."""
    spec = {}
    for key in factory.spec_keys(args.model, args.preset):
        if key == "codec":
            spec[key] = _codec_from_args(args, taxonomy)
        elif key == "pretrain":
            spec[key] = load_jsonl(args.pretrain_data, taxonomy).individuals if args.pretrain_data else ()
        elif key not in _OPTIONS_OF_KEY and getattr(args, key) is not None:
            if key in _POSITIVE_OPTIONS and getattr(args, key) <= 0:
                raise CliError(f"--{key.replace('_', '-')} must be positive, got {getattr(args, key)}")
            spec[key] = getattr(args, key)
    return spec


def cmd_train(args) -> None:
    _reject_unread_train_options(args)
    check_replaceable(args.out)
    taxonomy = OccupationTaxonomy.load_csv(args.taxonomy)
    ds = load_jsonl(args.data, taxonomy)
    if ds.split_labels is None:
        raise CliError("training data must carry split labels (run `careerseq split` first)")
    train, valid, test = (ds.split(name) for name in ("train", "valid", "test"))
    model, report = factory.fit(args.model, _train_spec(args, taxonomy), taxonomy, train, valid, args.seed, test)
    if isinstance(model, LmOccupationAdapter):
        stats = title_token_stats(model.vocab, [model.codec.title_of(c) for c in taxonomy.codes()])
        print(
            f"title length under this vocabulary: mean {stats.mean:.1f} tokens "
            f"(range {stats.min}-{stats.max}); reference tokenizer at production scale: mean 8.3 (range 2-28)",
            file=sys.stderr,
        )
    out = Path(args.out)
    if report is None:
        model.save(out)
    else:  # the report moves into place with the checkpoint
        model.save(out, extras={"train_report.csv": report.to_csv, "train_report.json": report.to_json})
    print(f"saved {args.model} checkpoint to {out}", file=sys.stderr)


def _load_model(args, spec: str, taxonomy):
    if spec == "oracle":
        if not args.gen_params:
            raise CliError("--gen-params is required to evaluate the oracle")
        return OracleModel(GeneratorParams.load(args.gen_params), taxonomy), "oracle"
    return factory.load(spec, taxonomy, _codec_from_args(args, taxonomy))


def cmd_eval(args) -> None:
    taxonomy = OccupationTaxonomy.load_csv(args.taxonomy)
    ds = load_jsonl(args.data, taxonomy)
    histories = ds.split(args.split) if ds.split_labels else list(ds.individuals)
    if not histories:
        raise CliError(f"split {args.split!r} is empty")
    model_a, hash_a = _load_model(args, args.model_a, taxonomy)
    model_b, hash_b = _load_model(args, args.model_b, taxonomy) if args.model_b else (None, None)
    empirical = [m for m in (model_a, model_b) if isinstance(m, EmpiricalModel)]
    if args.normalized and not empirical:
        raise CliError("--normalized applies to empirical checkpoints, and neither model is one")
    for model in empirical:
        model.normalized = model.normalized or args.normalized  # the flag never undoes the manifest's setting
    if empirical:
        # reference figure at production scale, for orientation only
        print("note: empirical-frequency baseline perplexity at production scale: 14.647 (PSID81)", file=sys.stderr)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    bcfg = ev.BootstrapConfig(b=args.bootstrap, seed=args.seed)
    scores_a = ev.score_model(model_a, histories, taxonomy)
    provenance = {
        "config_hash": hash_a,
        "seed": args.seed,
        "split": args.split,
        "bootstrap": args.bootstrap,
    }
    calib = ev.calibration(scores_a)
    if model_b is not None:
        scores_b = ev.score_model(model_b, histories, taxonomy)
        pair = ev.bootstrap_pair(ev.perplexity, scores_b, scores_a, bcfg)
        rows = _metric_rows(args, "model_a", scores_a, bcfg, pair.point_b, pair.se_b, calib)
        rows.extend(_metric_rows(args, "model_b", scores_b, bcfg, pair.point_a, pair.se_a, ev.calibration(scores_b)))
        rows.append(
            _metric_row(args, bcfg, "model_b-minus-model_a", "perplexity_difference", "all", pair.diff, pair.se_diff)
        )
        provenance["config_hash_b"] = hash_b
    else:
        res = ev.bootstrap_metric(ev.perplexity, scores_a, bcfg)
        rows = _metric_rows(args, "model_a", scores_a, bcfg, res.point, res.se, calib)
    ev.write_metrics_csv(out / "metrics.csv", rows, provenance)
    ev.write_calibration_csv(out / "calibration_model_a.csv", calib, provenance)
    print(f"wrote {out / 'metrics.csv'}", file=sys.stderr)


def _metric_row(args, bcfg: ev.BootstrapConfig, model: str, metric: str, filt: str, value, se="") -> dict:
    return {
        "dataset": args.dataset_name,
        "split": args.split,
        "model": model,
        "metric": metric,
        "filter": filt,
        "value": value,
        "se": se,
        "B": bcfg.b,
        "seed": args.seed,
    }


def _metric_rows(
    args,
    model: str,
    scores: ev.TransitionScores,
    bcfg: ev.BootstrapConfig,
    perplexity: float,
    perplexity_se: float,
    calib: ev.CalibrationReport,
) -> list[dict]:
    """One model's metric rows; its bootstrapped perplexity and calibration
    come from the caller, which computes each once."""
    mov = ev.mover_perplexity(scores)
    return [
        _metric_row(args, bcfg, model, "perplexity", "all", perplexity, perplexity_se),
        _metric_row(args, bcfg, model, "perplexity", "movers", mov.value),
        _metric_row(args, bcfg, model, "excluded_transitions", "movers", float(mov.n_excluded)),
        _metric_row(args, bcfg, model, "auc_move", "non-first", ev.move_auc(scores)),
        _metric_row(args, bcfg, model, "calibration_error", "non-first", calib.error),
    ]


def cmd_experiment(args) -> None:
    with open(args.spec, "r", encoding="utf-8") as fh:
        params = json.load(fh)
    spec = ex.ExperimentSpec(kind=args.kind, params=params, seed=args.seed)
    run_dir = Path(args.out) / f"{args.kind}-{time.strftime('%Y%m%d-%H%M%S')}"
    rows = _dispatch_experiment(spec, params, args)
    provenance = {
        "kind": spec.kind,
        "seed": spec.seed,
        "config_hash": config_hash({"kind": spec.kind, "params": params, "seed": spec.seed}),
    }
    if "model" in params:
        provenance["model_checkpoint"] = params["model"]
    csv_path, _ = ex.write_experiment_output(run_dir, spec.kind, rows, provenance)
    print(f"wrote {csv_path}", file=sys.stderr)


def _experiment_common(params, args):
    taxonomy = OccupationTaxonomy.load_csv(params["taxonomy"])
    ds = load_jsonl(params["data"], taxonomy)
    return taxonomy, ds


def _dispatch_experiment(spec: ex.ExperimentSpec, params: dict, args) -> list[dict]:
    if spec.kind in ("data_mix", "add_other_sources"):
        datasets = {}
        taxonomy = OccupationTaxonomy.load_csv(params["taxonomy"])
        for name, path in params["datasets"].items():
            datasets[name] = load_jsonl(path, taxonomy)

        def trainer(histories, seed):
            # experiments compare training sets, so the trainer must produce proper
            # distributions; the as-written variant inflates thin-count rows
            return factory.fit("empirical", {"normalized": True}, taxonomy, histories, seed=seed)[0]

        if spec.kind == "data_mix":
            return ex.run_data_mix(datasets, params["p_grid"], trainer, seed=spec.seed)
        return ex.run_add_other_sources(datasets, params["base"], params["p_grid"], trainer, seed=spec.seed)
    taxonomy, ds = _experiment_common(params, args)
    histories = ds.split("test") if ds.split_labels else list(ds.individuals)
    if spec.kind == "history_truncation":
        model, _ = _load_model(args, params["model"], taxonomy)
        return ex.run_history_truncation(
            model,
            taxonomy,
            histories,
            t_min_grid=params.get("t_min_grid", (5, 10, 15, 20, 25)),
            k_grid=params.get("k_grid", (5, 10, 15, 20, 25)),
            seed=spec.seed,
        )
    if spec.kind == "covariate_randomization":
        model, _ = _load_model(args, params["model"], taxonomy)
        donors = ds.split("valid") if ds.split_labels else list(ds.individuals)
        return ex.run_covariate_randomization(
            model, taxonomy, histories, params["field_sets"], donors, seed=spec.seed
        )
    if spec.kind == "gap_year":
        model, _ = _load_model(args, params["model"], taxonomy)
        return ex.run_gap_year(model, taxonomy, histories, n_sample=params.get("n_sample", 100), seed=spec.seed)
    if spec.kind in ("prompting", "valid_title_rate"):
        model, _ = _load_model(args, params["model"], taxonomy)
        if not isinstance(model, LmOccupationAdapter):
            raise CliError(f"{spec.kind} needs a token-lm checkpoint")
        if spec.kind == "prompting":
            return ex.run_prompting_arms(model, ds, k_grid=params["k_grid"], seed=spec.seed)
        return ex.run_valid_title_rate(model, histories, seed=spec.seed, n_prompts=params.get("n_prompts", 200))
    if spec.kind == "numeric_titles":
        return _run_numeric_titles_cli(spec, params, taxonomy, ds)
    raise CliError(f"unhandled experiment kind {spec.kind}")


# the LM spec keys a numeric_titles spec may set, with the experiment's defaults
_NUMERIC_TITLES_LM = {"d_model": 48, "epochs": 3, "vocab_size": 700, "lr": 3e-3, "batch": 8}


def _run_numeric_titles_cli(spec, params: dict, taxonomy, ds) -> list[dict]:
    if ds.split_labels is None:
        raise CliError("numeric_titles needs a dataset with split labels")
    nmap = NumericTitleMap.build(taxonomy, seed=params.get("map_seed", spec.seed))
    codec_literal = TemplateCodec(taxonomy, TemplateConfig(dataset_tag=params.get("tag", "SYNTH")))
    codec_numeric = TemplateCodec(
        taxonomy, TemplateConfig(dataset_tag=params.get("tag", "SYNTH"), numeric_titles=True), nmap
    )
    lm_spec = {key: params.get(key, default) for key, default in _NUMERIC_TITLES_LM.items()}
    lm_spec["n_layers"] = 2
    train, valid, test = ds.split("train"), ds.split("valid"), ds.split("test")

    def lm_trainer(codec, seed):
        return factory.fit("lm", {**lm_spec, "codec": codec}, taxonomy, train, valid, seed, held_out=test)[0]

    return ex.run_numeric_titles(ds, lm_trainer, codec_literal, codec_numeric, seed=spec.seed)


def cmd_report(args) -> None:
    metrics_dir = Path(args.metrics)
    files = sorted(metrics_dir.glob("**/*.csv"))
    if not files:
        raise CliError(f"nothing to report: no CSV files under {metrics_dir}")
    hashes = set()
    all_rows: list[dict] = []
    calib_rows: list[dict] = []
    tables = {tuple(ev.METRICS_COLUMNS): all_rows, tuple(ev.CALIBRATION_COLUMNS): calib_rows}
    for path in files:
        try:
            columns, rows, provenance = ev.read_stamped_csv(path)
        except ev.EvalError:
            continue
        if tuple(columns) not in tables:  # another careerseq table, e.g. an experiment's
            continue
        if "config_hash" in provenance:
            hashes.add(provenance["config_hash"])
        tables[tuple(columns)].extend(rows)
    if len(hashes) > 1 and not args.force:
        raise CliError(f"metrics mix {len(hashes)} config hashes; pass --force to combine them")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    all_rows.sort(key=lambda r: (r["dataset"], r["model"], r["metric"], r["filter"]))
    ev.write_stamped_csv(out / "metrics_combined.csv", ev.METRICS_COLUMNS, all_rows, {})
    ev.write_stamped_csv(out / "calibration_points.csv", ev.CALIBRATION_COLUMNS, calib_rows, {}, lineterminator="\n")
    print(f"wrote plot data under {out}", file=sys.stderr)


if __name__ == "__main__":
    entry()
