import dataclasses
import io
import json
import shutil

import numpy as np
import pytest
from conftest import career_histories
from hypothesis import given, settings
from hypothesis import strategies as st

from careerseq.cli import main
from careerseq.corpus import BIRTH_YEAR_WINDOW, load_jsonl
from careerseq.evaluation import move_auc, mover_perplexity, perplexity, read_stamped_csv, score_model
from careerseq.experiments import write_experiment_output
from careerseq.models import (
    CareerModel,
    CheckpointError,
    EmbeddingFeaturizer,
    EmpiricalModel,
    MnlModel,
    PrevCovariatesFeaturizer,
    PrevOccupationFeaturizer,
    config_hash,
    load_checkpoint,
    load_token_lm,
    save_checkpoint,
)
from careerseq.models import career, checkpoint, empirical, factory, mnl, token_lm
from careerseq.synthetic import SyntheticConfig, build_params
from careerseq.taxonomy import OccupationTaxonomy, build_default_taxonomy
from careerseq.template import HEADER_LINE, TemplateCodec, TemplateConfig

SUBCOMMANDS = ["gen-data", "split", "render", "parse", "train", "eval", "experiment", "report"]


@pytest.fixture()
def pipeline(tmp_path):
    """gen-data + split on a small world, returning the paths."""
    data = tmp_path / "data.jsonl"
    tax = tmp_path / "tax.csv"
    params = tmp_path / "params.npz"
    assert main([
        "gen-data", "--out", str(data), "--taxonomy-out", str(tax), "--params-out", str(params),
        "--n", "80", "--taxonomy-size", "10", "--seed", "5", "--mean-records", "5",
    ]) == 0
    split = tmp_path / "split.jsonl"
    assert main(["split", "--in", str(data), "--taxonomy", str(tax), "--out", str(split), "--seed", "3"]) == 0
    return {"data": data, "tax": tax, "params": params, "split": split, "dir": tmp_path}


class TestUsage:
    @pytest.mark.parametrize("cmd", SUBCOMMANDS)
    def test_help_exits_zero(self, cmd, capsys):
        assert main([cmd, "--help"]) == 0

    def test_unknown_flag_exits_two_with_usage(self, capsys):
        code = main(["split", "--nope"])
        assert code == 2
        assert "usage" in capsys.readouterr().err

    def test_no_subcommand_exits_two(self, capsys):
        assert main([]) == 2

    def test_missing_input_file_is_runtime_failure(self, tmp_path, capsys):
        tax = tmp_path / "tax.csv"
        build_default_taxonomy(8).dump_csv(tax)
        code = main(["split", "--in", str(tmp_path / "missing.jsonl"), "--taxonomy", str(tax),
                     "--out", str(tmp_path / "o.jsonl"), "--seed", "1"])
        assert code == 3

    def test_default_seed_printed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("CAREERSEQ_SEED", raising=False)
        data = tmp_path / "d.jsonl"
        assert main(["gen-data", "--out", str(data), "--n", "5", "--taxonomy-size", "8"]) == 0
        assert "using 0" in capsys.readouterr().err

    def test_env_seed_honored_when_flag_absent(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CAREERSEQ_SEED", "77")
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert main(["gen-data", "--out", str(a), "--n", "10", "--taxonomy-size", "8"]) == 0
        monkeypatch.delenv("CAREERSEQ_SEED")
        assert main(["gen-data", "--out", str(b), "--n", "10", "--taxonomy-size", "8", "--seed", "77"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 7, "taxonomy_size": 9}))
        out = tmp_path / "d.jsonl"
        assert main(["gen-data", "--out", str(out), "--config", str(cfg), "--seed", "1"]) == 0
        tax = OccupationTaxonomy.load_csv(out.with_suffix(".taxonomy.csv"))
        ds = load_jsonl(out, tax)
        assert len(ds.individuals) == 7

    @pytest.mark.parametrize("key", ["no_such_option", "func", "command", "config"])
    def test_config_file_unknown_key_exits_two(self, tmp_path, key, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 7, key: 1}))
        assert main(["gen-data", "--out", str(tmp_path / "d.jsonl"), "--config", str(cfg), "--seed", "1"]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "d.jsonl").exists()

    def test_config_value_takes_option_type(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": "7"}))
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["gen-data", "--out", str(a), "--config", str(cfg), "--taxonomy-size", "8", "--seed", "1"]) == 0
        assert main(["gen-data", "--out", str(b), "--n", "7", "--taxonomy-size", "8", "--seed", "1"]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("cmd", ["gen-data", "eval"])
    def test_threads_flag_is_gone(self, pipeline, cmd, capsys):
        d = pipeline
        out = d["dir"] / "o"
        argv = {
            "gen-data": ["gen-data", "--out", str(out), "--n", "5", "--taxonomy-size", "8"],
            "eval": ["eval", "--data", str(d["split"]), "--taxonomy", str(d["tax"]), "--model-a", "oracle",
                     "--gen-params", str(d["params"]), "--out", str(out)],
        }[cmd]
        assert main([*argv, "--seed", "1", "--threads", "7"]) == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("values", [{"n": "seven"}, {"markov_order": 3}, {"markov-order": "2x"}])
    def test_config_value_bad_type_or_choice_exits_two(self, tmp_path, values, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        assert main(["gen-data", "--out", str(tmp_path / "d.jsonl"), "--config", str(cfg), "--seed", "1"]) == 2
        assert repr(next(iter(values))) in capsys.readouterr().err
        assert not (tmp_path / "d.jsonl").exists()


class TestRenderParse:
    def fixture_jsonl(self, tmp_path):
        tax = build_default_taxonomy(334)
        code = tax.code_of_title
        obj = {
            "id": "w-app-d",
            "source": "PSID",
            "gender": "male",
            "ethnicity": "white",
            "region": "west",
            "birth_year": 1984,
            "records": [
                {"year": 2009, "education": "college", "occupation_code": code("Industrial engineers, including health and safety")},
                {"year": 2011, "education": "college", "occupation_code": code("Mechanical engineers")},
                {"year": 2013, "education": "college", "occupation_code": code("Sales Representatives Services All Other")},
            ],
        }
        data = tmp_path / "fixture.jsonl"
        data.write_text("#careerseq-v1\n" + json.dumps(obj) + "\n")
        tax_path = tmp_path / "tax334.csv"
        tax.dump_csv(tax_path)
        return data, tax_path

    def test_render_transition_prompt_fixture(self, tmp_path, capsys):
        data, tax_path = self.fixture_jsonl(tmp_path)
        assert main(["render", "--in", str(data), "--taxonomy", str(tax_path), "--t", "3", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert out == (
            "<A worker from the PSID dataset>\n"
            "The following information is available about the work history of a male white US worker residing in the west region.\n"
            "The worker was born in 1984.\n"
            "The worker has the following records of work experience, one entry per line, including year, education level, and the job title:\n"
            "2009 (college): Industrial engineers, including health and safety\n"
            "2011 (college): Mechanical engineers\n"
            "2013 (college):\n"
        )

    def test_render_parse_round_trip_via_stdin(self, tmp_path, capsys, monkeypatch):
        data, tax_path = self.fixture_jsonl(tmp_path)
        assert main(["render", "--in", str(data), "--taxonomy", str(tax_path), "--seed", "0"]) == 0
        rendered = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.StringIO(rendered))
        assert main(["parse", "--taxonomy", str(tax_path), "--seed", "0"]) == 0
        line = capsys.readouterr().out.strip()
        obj = json.loads(line)
        original = json.loads(data.read_text().splitlines()[1])
        assert obj["records"] == original["records"]
        assert obj["gender"] == "male" and obj["birth_year"] == 1984


PARSE_TAXONOMY = build_default_taxonomy(20)
PARSE_CODEC = TemplateCodec(PARSE_TAXONOMY, TemplateConfig(dataset_tag="SYNTH"))
_LINE_TEXT = st.text(st.characters(codec="utf-8", exclude_characters="\r\n"), max_size=30)


def _template_lines(draw) -> list[str]:
    return PARSE_CODEC.render_full(draw(career_histories(PARSE_TAXONOMY))).split("\n")[:-1]


@st.composite
def broken_templates(draw):
    """A rendered template with one change that no valid template has: a
    structural line dropped, any line duplicated, a bad record year, a birth
    year out of range, or a title outside the taxonomy."""
    lines = _template_lines(draw)
    header = lines.index(HEADER_LINE)
    records = range(header + 1, len(lines) - 1)
    kind = draw(st.sampled_from(["drop", "duplicate", "year", "birth", "title"]))
    if kind == "drop":
        del lines[draw(st.sampled_from([0, 1, header, len(lines) - 1]))]
    elif kind == "duplicate":
        i = draw(st.integers(0, len(lines) - 1))
        lines.insert(i, lines[i])
    elif kind == "year":
        i = draw(st.sampled_from(records))
        bad = [st.integers(0, 999).map(str), st.integers(10_000, 10**6).map(str), st.sampled_from(["", "19x5", "2O10"])]
        if i > header + 1:  # not after the previous record's year
            bad.append(st.integers(1000, int(lines[i - 1][:4])).map(str))
        lines[i] = draw(st.one_of(bad)) + lines[i][4:]
    elif kind == "birth":
        year = draw(st.one_of(st.integers(1000, BIRTH_YEAR_WINDOW[0] - 1), st.integers(BIRTH_YEAR_WINDOW[1] + 1, 9999)))
        lines[2] = f"The worker was born in {year}."
    else:
        i = draw(st.sampled_from(records))
        title = draw(_LINE_TEXT.filter(lambda text: text and not PARSE_TAXONOMY.has_title(text)))
        lines[i] = lines[i][: lines[i].index("): ") + 3] + title
    return "\n".join(lines) + "\n"


@st.composite
def mutated_templates(draw):
    """A rendered template with one to three lines dropped, duplicated,
    replaced by arbitrary text or with arbitrary text inserted; the result
    may still be valid."""
    lines = _template_lines(draw)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["drop", "duplicate", "replace", "insert"]))
        if kind == "drop" and len(lines) > 1:
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "replace":
            lines[i] = draw(st.text(max_size=40))
        else:
            at = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:at] + draw(st.text(min_size=1, max_size=5)) + lines[i][at:]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def parse_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("parse")
    PARSE_TAXONOMY.dump_csv(root / "tax.csv")
    return root


def _parse_exit_code(root, text: str) -> int:
    (root / "in.txt").write_text(text, encoding="utf-8")
    return main(["parse", "--in", str(root / "in.txt"), "--taxonomy", str(root / "tax.csv"), "--seed", "0"])


class TestParseMutatedTemplates:
    """Bad templates are configuration errors (exit 2), never runtime
    failures (exit 3)."""

    @settings(max_examples=150, deadline=None)
    @given(text=broken_templates())
    def test_broken_template_exits_two(self, parse_dir, text):
        assert _parse_exit_code(parse_dir, text) == 2

    @settings(max_examples=150, deadline=None)
    @given(text=mutated_templates())
    def test_mutated_template_never_exits_three(self, parse_dir, text):
        assert _parse_exit_code(parse_dir, text) in (0, 2)


class TestTrainEval:
    def test_empirical_train_and_paired_eval(self, pipeline, capsys):
        d = pipeline
        ckpt = d["dir"] / "emp"
        assert main(["train", "empirical", "--data", str(d["split"]), "--taxonomy", str(d["tax"]),
                     "--out", str(ckpt), "--seed", "1"]) == 0
        out = d["dir"] / "eval"
        assert main(["eval", "--data", str(d["split"]), "--taxonomy", str(d["tax"]),
                     "--model-a", str(ckpt), "--model-b", "oracle", "--gen-params", str(d["params"]),
                     "--out", str(out), "--bootstrap", "20", "--seed", "4"]) == 0
        _, rows, provenance = read_stamped_csv(out / "metrics.csv")
        metrics = {(r["model"], r["metric"], r["filter"]) for r in rows}
        assert ("model_a", "perplexity", "all") in metrics
        assert ("model_a", "auc_move", "non-first") in metrics
        assert ("model_b-minus-model_a", "perplexity_difference", "all") in metrics
        assert (out / "calibration_model_a.csv").exists()
        # the oracle should not lose to the empirical baseline
        ppl = {r["model"]: float(r["value"]) for r in rows if r["metric"] == "perplexity" and r["filter"] == "all"}
        assert ppl["model_b"] <= ppl["model_a"] + 0.05

    def test_eval_deterministic_bytes(self, pipeline):
        d = pipeline
        ckpt = d["dir"] / "emp2"
        assert main(["train", "empirical", "--data", str(d["split"]), "--taxonomy", str(d["tax"]),
                     "--out", str(ckpt), "--seed", "1"]) == 0
        outs = []
        for name in ("e1", "e2"):
            out = d["dir"] / name
            assert main(["eval", "--data", str(d["split"]), "--taxonomy", str(d["tax"]),
                         "--model-a", str(ckpt), "--out", str(out), "--bootstrap", "15", "--seed", "9"]) == 0
            outs.append((out / "metrics.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_corrupted_tensor_exits_two(self, pipeline, capsys):
        d = pipeline
        ckpt = d["dir"] / "emp3"
        assert main(["train", "empirical", "--data", str(d["split"]), "--taxonomy", str(d["tax"]),
                     "--out", str(ckpt), "--seed", "1"]) == 0
        tensor = sorted((ckpt / "params").iterdir())[0]
        raw = bytearray(tensor.read_bytes())
        raw[len(raw) // 2] ^= 0x01  # same size, one bit changed
        tensor.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="sha256"):
            load_checkpoint(ckpt)
        assert main(["eval", "--data", str(d["split"]), "--taxonomy", str(d["tax"]),
                     "--model-a", str(ckpt), "--out", str(d["dir"] / "e"), "--seed", "1"]) == 2
        assert "sha256" in capsys.readouterr().err

    @pytest.mark.parametrize("model, flags", [
        ("career", ["--d-model", "16", "--n-layers", "1", "--epochs", "2", "--batch", "8"]),
        ("lm", ["--vocab-size", "400", "--d-model", "16", "--n-layers", "1", "--epochs", "1", "--batch", "16",
                "--context", "64"]),
    ])
    def test_train_report_byte_identical(self, pipeline, model, flags):
        d = pipeline
        if model == "career":  # both phases: pre-training on the unsplit data, then fine-tuning
            flags = ["--pretrain-data", str(d["data"]), *flags]
        reports = []
        for name in ("t1", "t2"):
            out = d["dir"] / name
            assert main(["train", model, "--data", str(d["split"]), "--taxonomy", str(d["tax"]),
                         "--out", str(out), "--seed", "3", *flags]) == 0
            reports.append((out / "train_report.json").read_bytes())
        assert reports[0] == reports[1]
        rows = json.loads(reports[0])
        assert rows and set(rows[0]) == {"epoch", "train_loss", "valid_loss", "checkpoint_id"}

    @pytest.mark.parametrize("model, flags, config, named", [
        ("lm", ["--pretrain-data", "/nonexistent.jsonl"], None, "--pretrain-data"),
        ("lm", ["--preset", "paper"], None, "--preset"),
        ("lm", ["--featurizer", "prev"], None, "--featurizer"),
        ("lm", ["--reg", "3"], None, "--reg"),
        ("empirical", ["--epochs", "9"], None, "--epochs"),
        ("empirical", ["--lr", "3"], None, "--lr"),
        ("empirical", ["--d-model", "5"], None, "--d-model"),
        ("mnl", ["--batch", "4"], None, "--batch"),
        ("career", ["--vocab-size", "100"], None, "--vocab-size"),
        ("career", ["--no-birth-year"], None, "--no-birth-year"),
        ("career", ["--preset", "paper", "--n-layers", "1"], None, "--n-layers"),
        ("empirical", [], {"reg": 3}, "--reg"),
        ("mnl", [], {"context": 64}, "--context"),
    ])
    def test_option_the_model_does_not_read_exits_two(self, pipeline, model, flags, config, named, capsys):
        d = pipeline
        if config is not None:
            (d["dir"] / "cfg.json").write_text(json.dumps(config))
            flags = [*flags, "--config", str(d["dir"] / "cfg.json")]
        out = d["dir"] / "unread"
        assert main(["train", model, "--data", str(d["split"]), "--taxonomy", str(d["tax"]),
                     "--out", str(out), "--seed", "1", *flags]) == 2
        assert f"{named} does not apply to train {model}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("model, ratios, message", [
        ("career", "0.9,0,0.1", "training and validation splits must be non-empty"),
        ("career", "0,0.5,0.5", "training and validation splits must be non-empty"),
        ("mnl", "0,0.5,0.5", "empty training split"),
    ])
    def test_empty_split_exits_two(self, pipeline, model, ratios, message, capsys):
        d = pipeline
        split = d["dir"] / "empty.jsonl"
        assert main(["split", "--in", str(d["data"]), "--taxonomy", str(d["tax"]), "--out", str(split),
                     "--ratios", ratios, "--seed", "3"]) == 0
        out = d["dir"] / "empty"
        assert main(["train", model, "--data", str(split), "--taxonomy", str(d["tax"]), "--out", str(out),
                     "--seed", "1", "--epochs", "1"]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_career_positions_cover_longer_pretraining_histories(self, pipeline):
        d = pipeline
        pre = d["dir"] / "pre.jsonl"
        assert main(["gen-data", "--out", str(pre), "--taxonomy-out", str(d["dir"] / "pre_tax.csv"),
                     "--n", "12", "--taxonomy-size", "10", "--seed", "6", "--mean-records", "20"]) == 0
        taxonomy = OccupationTaxonomy.load_csv(d["tax"])
        longest = max(len(h) for h in load_jsonl(pre, taxonomy).individuals)
        assert longest > max(len(h) for h in load_jsonl(d["split"], taxonomy).individuals)
        out = d["dir"] / "career"
        assert main(["train", "career", "--data", str(d["split"]), "--taxonomy", str(d["tax"]), "--out", str(out),
                     "--pretrain-data", str(pre), "--seed", "2", "--d-model", "8", "--n-layers", "1",
                     "--epochs", "1"]) == 0
        _, _, config = load_checkpoint(out)
        assert config["max_positions"] >= longest

    def test_normalized_applies_to_empirical_model_b(self, pipeline):
        d = pipeline
        ckpt = d["dir"] / "emp"
        assert main(["train", "empirical", "--data", str(d["split"]), "--taxonomy", str(d["tax"]),
                     "--out", str(ckpt), "--seed", "1"]) == 0
        ppl = {}
        for flags in ([], ["--normalized"]):
            out = d["dir"] / f"eval{len(flags)}"
            assert main(["eval", "--data", str(d["split"]), "--taxonomy", str(d["tax"]), "--model-a", "oracle",
                         "--model-b", str(ckpt), "--gen-params", str(d["params"]), "--out", str(out),
                         "--bootstrap", "5", "--seed", "4", *flags]) == 0
            _, rows, _ = read_stamped_csv(out / "metrics.csv")
            ppl[len(flags)] = {r["model"]: float(r["value"]) for r in rows
                               if r["metric"] == "perplexity" and r["filter"] == "all"}
        assert ppl[0]["model_a"] == ppl[1]["model_a"]  # the oracle is untouched
        assert ppl[0]["model_b"] != ppl[1]["model_b"]

    def test_manifest_normalized_kept_without_the_flag(self, pipeline):
        d = pipeline
        taxonomy = OccupationTaxonomy.load_csv(d["tax"])
        ds = load_jsonl(d["split"], taxonomy)
        ckpt = d["dir"] / "emp-normalized"
        EmpiricalModel(taxonomy, normalized=True).fit(ds.split("train")).save(ckpt)
        out = d["dir"] / "eval"
        assert main(["eval", "--data", str(d["split"]), "--taxonomy", str(d["tax"]), "--model-a", str(ckpt),
                     "--out", str(out), "--bootstrap", "5", "--seed", "4"]) == 0
        _, rows, _ = read_stamped_csv(out / "metrics.csv")
        got = next(float(r["value"]) for r in rows
                   if (r["model"], r["metric"], r["filter"]) == ("model_a", "perplexity", "all"))
        test = ds.split("test")
        normalized = EmpiricalModel.load(ckpt, taxonomy)
        assert normalized.normalized
        assert got == pytest.approx(perplexity(score_model(normalized, test, taxonomy)), rel=1e-12)
        normalized.normalized = False
        assert got != pytest.approx(perplexity(score_model(normalized, test, taxonomy)), rel=1e-3)

    def test_normalized_without_an_empirical_model_exits_two(self, pipeline, capsys):
        d = pipeline
        out = d["dir"] / "eval"
        assert main(["eval", "--data", str(d["split"]), "--taxonomy", str(d["tax"]), "--model-a", "oracle",
                     "--gen-params", str(d["params"]), "--out", str(out), "--seed", "4", "--normalized"]) == 2
        assert "--normalized" in capsys.readouterr().err
        assert not out.exists()

    def test_option_at_its_default_is_accepted(self, pipeline):
        d = pipeline
        assert main(["train", "empirical", "--data", str(d["split"]), "--taxonomy", str(d["tax"]),
                     "--out", str(d["dir"] / "emp"), "--seed", "1", "--reg", "0", "--preset", "toy"]) == 0

    @pytest.mark.parametrize("featurizer, cls", [("prev", PrevOccupationFeaturizer),
                                                 ("prev_covariates", PrevCovariatesFeaturizer)])
    def test_mnl_checkpoint_evaluates(self, pipeline, featurizer, cls):
        """eval rebuilds an MNL with the featurizer its manifest names: the
        output is byte-stable and holds the library's scores."""
        d = pipeline
        common = ["--data", str(d["split"]), "--taxonomy", str(d["tax"]), "--seed", "1"]
        ckpt, emp = d["dir"] / "mnl", d["dir"] / "emp"
        assert main(["train", "mnl", *common, "--out", str(ckpt), "--epochs", "30", "--featurizer", featurizer]) == 0
        assert main(["train", "empirical", *common, "--out", str(emp)]) == 0
        outputs = []
        for name in ("e1", "e2"):
            out = d["dir"] / name
            assert main(["eval", *common, "--model-a", str(ckpt), "--model-b", str(emp), "--bootstrap", "10",
                         "--out", str(out)]) == 0
            outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]
        taxonomy = OccupationTaxonomy.load_csv(d["tax"])
        scores = score_model(MnlModel.load(ckpt, cls(taxonomy), taxonomy),
                             load_jsonl(d["split"], taxonomy).split("test"), taxonomy)
        _, rows, _ = read_stamped_csv(d["dir"] / "e1" / "metrics.csv")
        got = {(r["metric"], r["filter"]): float(r["value"]) for r in rows if r["model"] == "model_a"}
        assert got[("perplexity", "all")] == pytest.approx(perplexity(scores), rel=1e-10)
        assert got[("perplexity", "movers")] == pytest.approx(mover_perplexity(scores).value, rel=1e-10)
        assert got[("auc_move", "non-first")] == pytest.approx(move_auc(scores), rel=1e-10)

    def test_eval_reads_each_checkpoint_once(self, pipeline, monkeypatch):
        d = pipeline
        common = ["--data", str(d["split"]), "--taxonomy", str(d["tax"]), "--seed", "1"]
        small = ["--d-model", "8", "--n-layers", "1", "--epochs", "1"]
        for kind, flags in (("empirical", []), ("mnl", ["--epochs", "5"]), ("career", small),
                            ("lm", [*small, "--vocab-size", "300"])):
            assert main(["train", kind, *common, "--out", str(d["dir"] / kind), *flags]) == 0
        reads = []
        real = checkpoint.load_checkpoint
        for module in (factory, checkpoint, career, empirical, mnl, token_lm):
            monkeypatch.setattr(module, "load_checkpoint", lambda path: reads.append(path) or real(path))
        for kind in ("empirical", "mnl", "career", "lm"):
            reads.clear()
            assert main(["eval", *common, "--model-a", str(d["dir"] / kind), "--bootstrap", "2",
                         "--out", str(d["dir"] / f"eval-{kind}")]) == 0
            assert reads == [str(d["dir"] / kind)]

    def test_mnl_checkpoint_with_an_embedding_featurizer_exits_two(self, pipeline, capsys):
        d = pipeline
        taxonomy = OccupationTaxonomy.load_csv(d["tax"])
        ckpt = d["dir"] / "mnl-embedding"
        MnlModel(EmbeddingFeaturizer(lambda h, t: np.zeros(3), 3), taxonomy).save(ckpt)
        assert main(["eval", "--data", str(d["split"]), "--taxonomy", str(d["tax"]), "--model-a", str(ckpt),
                     "--out", str(d["dir"] / "x"), "--seed", "1"]) == 2
        assert "featurizer 'embedding'" in capsys.readouterr().err

    def test_retraining_replaces_the_checkpoint(self, pipeline):
        d = pipeline
        common = ["--data", str(d["split"]), "--taxonomy", str(d["tax"]), "--seed", "1", "--out", str(d["dir"] / "ck")]
        assert main(["train", "lm", *common, "--vocab-size", "300", "--d-model", "8", "--n-layers", "1",
                     "--epochs", "1"]) == 0
        assert (d["dir"] / "ck" / "vocab.txt").is_file()
        assert main(["train", "empirical", *common]) == 0
        files = sorted(str(f.relative_to(d["dir"] / "ck")) for f in (d["dir"] / "ck").rglob("*"))
        assert files == ["manifest.json", "params", "params/count_pair.f32"]
        assert sorted(f.name for f in d["dir"].iterdir() if f.name.startswith(".")) == []

    @pytest.mark.parametrize("target", ["directory", "cwd", "file"])
    def test_out_that_is_not_a_checkpoint_exits_two(self, pipeline, target, monkeypatch, capsys):
        d = pipeline
        work = d["dir"] / "work"
        work.mkdir()
        (work / "notes.txt").write_text("keep")
        monkeypatch.chdir(work)
        out = {"directory": str(work), "cwd": ".", "file": str(work / "notes.txt")}[target]
        assert main(["train", "empirical", "--data", str(d["split"]), "--taxonomy", str(d["tax"]),
                     "--out", out, "--seed", "1"]) == 2
        assert "not a checkpoint directory" in capsys.readouterr().err
        assert [f.name for f in work.iterdir()] == ["notes.txt"]
        assert (work / "notes.txt").read_text() == "keep"

    @pytest.mark.parametrize("start", ["empty", "checkpoint"])
    def test_out_dot_replaces_the_working_directory(self, pipeline, start, monkeypatch):
        """``--out .`` from an empty directory or from inside a checkpoint
        writes the checkpoint and its train report there."""
        d = pipeline
        work = d["dir"] / "work"
        work.mkdir()
        if start == "checkpoint":
            save_checkpoint(work, "probe", {"w": np.ones(2)}, {})
        monkeypatch.chdir(work)
        assert main(["train", "career", "--data", str(d["split"]), "--taxonomy", str(d["tax"]), "--out", ".",
                     "--seed", "1", "--d-model", "8", "--n-layers", "1", "--epochs", "1"]) == 0
        assert sorted(f.name for f in work.iterdir()) == ["manifest.json", "params", "train_report.csv",
                                                          "train_report.json"]
        assert load_checkpoint(work)[0] == "career"
        assert sorted(f.name for f in d["dir"].iterdir() if f.name.startswith(".")) == []

    @pytest.mark.parametrize("kind, flag, value", [("career", "--batch", "0"), ("lm", "--d-model", "0"),
                                                   ("mnl", "--epochs", "0"), ("career", "--lr", "-0.1"),
                                                   ("career", "--n-layers", "-1"), ("lm", "--n-layers", "0")])
    def test_option_that_is_not_positive_exits_two(self, pipeline, kind, flag, value, capsys):
        d = pipeline
        out = d["dir"] / "ck"
        assert main(["train", kind, "--data", str(d["split"]), "--taxonomy", str(d["tax"]), "--out", str(out),
                     "--seed", "1", flag, value]) == 2
        assert f"{flag} must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_reg_exits_two(self, pipeline, capsys):
        """``--reg 0`` is the default; a negative penalty rewards large
        weights and is refused before any checkpoint is written."""
        d = pipeline
        out = d["dir"] / "ck"
        assert main(["train", "mnl", "--data", str(d["split"]), "--taxonomy", str(d["tax"]), "--out", str(out),
                     "--seed", "1", "--reg", "-1"]) == 2
        assert "--reg must be zero or positive" in capsys.readouterr().err
        assert not out.exists()


class _Unwritable:
    shape = (2,)

    def astype(self, dtype):
        raise OSError("disk full")


def _fail_writing(path):
    raise OSError("disk full")


class TestAtomicSave:
    @pytest.mark.parametrize("params, extras", [
        ({"w": np.zeros(3), "v": _Unwritable()}, None),
        ({"w": np.zeros(3)}, {"vocab.txt": _fail_writing}),
    ], ids=["second-tensor", "extra-file"])
    def test_failed_write_keeps_the_previous_checkpoint(self, tmp_path, params, extras):
        path = tmp_path / "ck"
        save_checkpoint(path, "probe", {"w": np.ones(3)}, {"n": 1})
        before = {f: f.read_bytes() for f in path.rglob("*") if f.is_file()}
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, "probe", params, {"n": 2}, extras=extras)
        kind, loaded, config = load_checkpoint(path)
        assert (kind, config) == ("probe", {"n": 1})
        np.testing.assert_array_equal(loaded["w"], np.ones(3))
        assert {f: f.read_bytes() for f in path.rglob("*") if f.is_file()} == before
        assert [f.name for f in tmp_path.iterdir()] == ["ck"]

    def test_empty_directory_is_replaced(self, tmp_path):
        save_checkpoint(tmp_path, "probe", {"w": np.ones(2)}, {})
        assert load_checkpoint(tmp_path)[0] == "probe"


def _append_merge(ck, data):
    with open(ck / "vocab.txt", "a", encoding="utf-8") as fh:
        fh.write("merge 99999 3\n")


def _edit_manifest(edit):
    def apply(ck, data):
        path = ck / "manifest.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    return apply


def _unknown_config_key(manifest):
    manifest["config"]["no_such_field"] = 1
    manifest["config_hash"] = config_hash(manifest["config"])  # so the hash check passes
    return manifest


def _drop_config_key(key):
    def edit(manifest):
        del manifest["config"][key]
        manifest["config_hash"] = config_hash(manifest["config"])  # so the hash check passes
        return manifest
    return edit


def _edit_first_record_line(edit):
    def apply(ck, data):
        lines = data.read_text().splitlines()
        lines[1] = edit(json.loads(lines[1]))
        data.write_text("\n".join(lines) + "\n")
    return apply


class TestMalformedInputsExitTwo:
    @pytest.fixture(scope="class")
    def checkpoints(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("ckpts")
        data, tax, split = root / "data.jsonl", root / "tax.csv", root / "split.jsonl"
        assert main(["gen-data", "--out", str(data), "--taxonomy-out", str(tax), "--n", "40",
                     "--taxonomy-size", "8", "--seed", "5", "--mean-records", "4"]) == 0
        assert main(["split", "--in", str(data), "--taxonomy", str(tax), "--out", str(split), "--seed", "3"]) == 0
        flags = {
            "lm": ["--vocab-size", "300", "--d-model", "8", "--n-layers", "1", "--epochs", "1", "--batch", "32",
                   "--context", "64"],
            "career": ["--d-model", "8", "--n-layers", "1", "--epochs", "1", "--batch", "32"],
            "empirical": [],
        }
        for model, extra in flags.items():
            assert main(["train", model, "--data", str(split), "--taxonomy", str(tax),
                         "--out", str(root / model), "--seed", "1", *extra]) == 0
        load_token_lm(root / "lm")  # the unbroken checkpoints load
        CareerModel.load(root / "career", OccupationTaxonomy.load_csv(tax))
        return {"root": root, "tax": tax, "split": split}

    @pytest.mark.parametrize("model, breakage, message", [
        ("lm", _append_merge, "not defined"),
        ("lm", lambda ck, data: (ck / "vocab.txt").unlink(), "vocab.txt"),
        ("lm", lambda ck, data: sorted((ck / "params").iterdir())[0].unlink(), "no file"),
        ("career", lambda ck, data: (ck / "manifest.json").write_text("[1, 2]"), "JSON object"),
        ("career", _edit_manifest(lambda m: {k: v for k, v in m.items() if k != "params"}), "lacks params"),
        ("career", _edit_manifest(_unknown_config_key), "does not fit CareerConfig"),
        ("lm", _edit_manifest(_unknown_config_key), "does not fit TokenLmConfig"),
        ("empirical", _edit_manifest(_drop_config_key("normalized")), "does not fit EmpiricalConfig"),
        ("career", _edit_first_record_line(lambda obj: json.dumps({k: v for k, v in obj.items() if k != "records"})),
         "data.jsonl:2"),
        ("career", _edit_first_record_line(lambda obj: json.dumps([obj])), "data.jsonl:2"),
    ], ids=["vocab-merge-id-undefined", "no-vocab", "no-tensor-file", "manifest-not-object", "manifest-no-params",
            "career-config-unknown-key", "lm-config-unknown-key", "empirical-config-missing-key", "jsonl-no-records",
            "jsonl-array-line"])
    def test_eval_exits_two(self, checkpoints, tmp_path, model, breakage, message, capsys):
        ck = tmp_path / model
        shutil.copytree(checkpoints["root"] / model, ck)
        data = tmp_path / "data.jsonl"
        shutil.copyfile(checkpoints["split"], data)
        breakage(ck, data)
        code = main(["eval", "--data", str(data), "--taxonomy", str(checkpoints["tax"]),
                     "--model-a", str(ck), "--out", str(tmp_path / "ev"), "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 2, err
        assert message in err

    @pytest.mark.parametrize("size, edit, message", [
        (12, None, "12 occupations"),
        (6, None, "6 occupations"),
        (8, lambda p: dataclasses.replace(p, year_logits=p.year_logits[:1]), "year_logits has shape"),
    ], ids=["more-occupations", "fewer-occupations", "year-table-cut"])
    def test_oracle_generator_file_must_fit(self, checkpoints, tmp_path, size, edit, message, capsys):
        params = build_params(SyntheticConfig(taxonomy_size=size, seed=5))
        path = tmp_path / "gen-params.npz"
        (edit(params) if edit else params).save(path)
        code = main(["eval", "--data", str(checkpoints["split"]), "--taxonomy", str(checkpoints["tax"]),
                     "--model-a", "oracle", "--gen-params", str(path), "--out", str(tmp_path / "ev"), "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 2, err
        assert message in err


class TestExperimentCommand:
    def test_covariate_randomization_kind(self, pipeline):
        d = pipeline
        spec = d["dir"] / "spec.json"
        spec.write_text(json.dumps({
            "data": str(d["split"]),
            "taxonomy": str(d["tax"]),
            "model": "oracle",
            "field_sets": [["gender"], ["region"]],
        }))
        out = d["dir"] / "exp"
        assert main(["experiment", "covariate_randomization", "--spec", str(spec),
                     "--out", str(out), "--seed", "2", "--gen-params", str(d["params"])]) == 0
        csvs = list(out.glob("**/*.csv"))
        assert csvs, "experiment should emit a CSV table"
        text = csvs[0].read_text()
        assert text.startswith("#careerseq-v1\n")
        assert "# config_hash=" in text


    def test_numeric_titles_csv_is_byte_stable(self, tmp_path):
        data, tax, split = tmp_path / "data.jsonl", tmp_path / "tax.csv", tmp_path / "split.jsonl"
        assert main(["gen-data", "--out", str(data), "--taxonomy-out", str(tax), "--n", "60",
                     "--taxonomy-size", "8", "--seed", "5"]) == 0
        assert main(["split", "--in", str(data), "--taxonomy", str(tax), "--out", str(split), "--seed", "3"]) == 0
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"data": str(split), "taxonomy": str(tax), "d_model": 8, "epochs": 1,
                                    "vocab_size": 300}))
        tables = []
        for name in ("r1", "r2"):
            assert main(["experiment", "numeric_titles", "--spec", str(spec), "--out", str(tmp_path / name),
                         "--seed", "4"]) == 0
            tables.append([f.read_bytes() for f in sorted((tmp_path / name).glob("*/*.csv"))])
        assert len(tables[0]) == 1 and tables[0] == tables[1]
        _, rows, _ = read_stamped_csv(next((tmp_path / "r1").glob("*/*.csv")))
        assert [r["mode"] for r in rows] == ["literal", "numeric", "numeric-minus-literal"]


class TestReport:
    def test_empty_dir_exits_two(self, tmp_path, capsys):
        assert main(["report", "--metrics", str(tmp_path), "--out", str(tmp_path / "out"), "--seed", "0"]) == 2
        assert "nothing to report" in capsys.readouterr().err

    def test_idempotent_and_hash_guard(self, pipeline):
        d = pipeline
        ckpt = d["dir"] / "emp3"
        main(["train", "empirical", "--data", str(d["split"]), "--taxonomy", str(d["tax"]),
              "--out", str(ckpt), "--seed", "1"])
        m1 = d["dir"] / "m1"
        main(["eval", "--data", str(d["split"]), "--taxonomy", str(d["tax"]), "--model-a", str(ckpt),
              "--out", str(m1), "--bootstrap", "10", "--seed", "2"])
        r1, r2 = d["dir"] / "r1", d["dir"] / "r2"
        assert main(["report", "--metrics", str(m1), "--out", str(r1), "--seed", "0"]) == 0
        assert main(["report", "--metrics", str(m1), "--out", str(r2), "--seed", "0"]) == 0
        assert (r1 / "metrics_combined.csv").read_bytes() == (r2 / "metrics_combined.csv").read_bytes()
        assert (r1 / "calibration_points.csv").read_text().splitlines()[1] == "bin,mean_pred,emp_rate,count"

    def test_mixed_hashes_refused_without_force(self, pipeline):
        d = pipeline
        ckpt = d["dir"] / "emp4"
        main(["train", "empirical", "--data", str(d["split"]), "--taxonomy", str(d["tax"]),
              "--out", str(ckpt), "--seed", "1"])
        mixed = d["dir"] / "mixed"
        mixed.mkdir()
        main(["eval", "--data", str(d["split"]), "--taxonomy", str(d["tax"]), "--model-a", str(ckpt),
              "--out", str(mixed / "a"), "--bootstrap", "10", "--seed", "2"])
        main(["eval", "--data", str(d["split"]), "--taxonomy", str(d["tax"]), "--model-a", "oracle",
              "--gen-params", str(d["params"]), "--out", str(mixed / "b"), "--bootstrap", "10", "--seed", "2"])
        assert main(["report", "--metrics", str(mixed), "--out", str(d["dir"] / "rm"), "--seed", "0"]) == 2
        assert main(["report", "--metrics", str(mixed), "--out", str(d["dir"] / "rm"), "--force", "--seed", "0"]) == 0

    @pytest.mark.parametrize("same_hash", [True, False])
    def test_experiment_csvs_skipped(self, pipeline, same_hash):
        d = pipeline
        ckpt = d["dir"] / "emp5"
        main(["train", "empirical", "--data", str(d["split"]), "--taxonomy", str(d["tax"]),
              "--out", str(ckpt), "--seed", "1"])
        m = d["dir"] / "m"
        assert main(["eval", "--data", str(d["split"]), "--taxonomy", str(d["tax"]), "--model-a", str(ckpt),
                     "--out", str(m), "--bootstrap", "10", "--seed", "2"]) == 0
        _, evaluated, provenance = read_stamped_csv(m / "metrics.csv")
        # an experiment table is neither metrics nor calibration, and its hash does not count for --force
        config_hash = provenance["config_hash"] if same_hash else "other"
        write_experiment_output(m, "gap_year", [{"t": 2, "direct": 0.25, "compound": 0.5}], {"config_hash": config_hash})
        out = d["dir"] / "rep"
        assert main(["report", "--metrics", str(m), "--out", str(out), "--seed", "0"]) == 0
        _, combined, _ = read_stamped_csv(out / "metrics_combined.csv")
        assert combined == sorted(evaluated, key=lambda r: (r["dataset"], r["model"], r["metric"], r["filter"]))
