import os
import re

import pytest

from hybridmt import lattice_lm, posteditor
from hybridmt.cli import main
from hybridmt.pipeline import (
    Pipeline,
    PipelineConfig,
    ResourceError,
    SentenceTrace,
    format_trace,
    load_config,
    parse_trace,
    run_trace_report,
)

from conftest import FIXTURES, fixture_path

GLOSS_DEMO = "john/N wa/HA ima/ADV tabetai/V"
INTERLINGUA_DEMO = "kaisha/N wa/HA nigatsu/DATE ni/NI hossoku/VN wo/WO keikaku/V"


def _read(name):
    with open(fixture_path(name), encoding="utf-8") as fh:
        return fh.read()


# -- configuration -------------------------------------------------------

def test_config_defaults():
    cfg = PipelineConfig()
    assert cfg.get("path") == "gloss"
    assert cfg.get("solution_cap") == 64
    assert cfg.get("fallback") is True
    assert cfg.root_categories == ("S",)
    assert cfg.verbal_categories == frozenset(["V"])


def test_config_type_validation():
    cfg = PipelineConfig()
    cfg.set("solution_cap", "32")
    assert cfg.get("solution_cap") == 32
    with pytest.raises(ValueError):
        cfg.set("solution_cap", "many")
    with pytest.raises(ResourceError):
        cfg.set("fallback", "maybe")
    for key in ("no_such_key", "top_n", "seed"):
        with pytest.raises(ResourceError):
            cfg.set(key, "1")


def test_config_missing_file_rejected_at_load():
    cfg = PipelineConfig(base_dir=FIXTURES)
    with pytest.raises(ResourceError):
        cfg.set("grammar", "does-not-exist.rules")


def test_load_config_relative_paths():
    cfg = load_config(fixture_path("gloss.cfg"))
    assert cfg.path_of("grammar") == os.path.join(FIXTURES, "grammar.rules")
    assert os.path.exists(cfg.path_of("lm_model"))


def test_load_config_rejects_bad_lines(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("just a line without equals\n")
    with pytest.raises(ResourceError):
        load_config(str(bad))
    with pytest.raises(ResourceError):
        load_config(str(tmp_path / "missing.cfg"))


# -- end-to-end translation ----------------------------------------------

def test_gloss_demo_translation(gloss_pipeline):
    trace = gloss_pipeline.translate_line(GLOSS_DEMO)
    assert trace.error is None
    assert trace.output == "John wants to eat now"


def test_interlingua_demo_translation(interlingua_pipeline):
    trace = interlingua_pipeline.translate_line(INTERLINGUA_DEMO)
    assert trace.error is None
    assert trace.output == "The company plans the launching in February ."
    names = [s.name for s in trace.stages]
    assert names == ["chunk", "parse", "analyze", "rank", "realize", "extract", "postedit"]


def test_interlingua_falls_back_to_gloss(interlingua_pipeline):
    # "tsuki" has no semantic lexicon entry, so no candidate survives
    trace = interlingua_pipeline.translate_line("tsuki/N")
    assert trace.error is None
    assert trace.output == "the moon"


def test_fallback_off_reports_error():
    cfg = load_config(fixture_path("interlingua.cfg"))
    cfg.set("fallback", "off")
    pipe = Pipeline(cfg)
    trace = pipe.translate_line("tsuki/N")
    assert trace.error is not None and "fallback" in trace.error


def test_batch_skips_blank_lines(gloss_pipeline):
    traces = gloss_pipeline.translate_batch(["", GLOSS_DEMO, "   ", "neko/N"])
    assert [t.index for t in traces] == [1, 3]


def test_batch_deterministic(gloss_pipeline):
    lines = _read("batch50.txt").splitlines()
    first = [(t.output, t.error) for t in gloss_pipeline.translate_batch(lines)]
    second = [(t.output, t.error) for t in gloss_pipeline.translate_batch(lines)]
    assert first == second
    assert all(err is None for _out, err in first)


# -- tracing and reporting ------------------------------------------------

def test_trace_roundtrip(gloss_pipeline):
    traces = gloss_pipeline.translate_batch([GLOSS_DEMO, "neko/N"])
    text = format_trace(traces)
    back = parse_trace(text)
    assert format_trace(back) == text


def test_trace_pruned_only_counts_ranker_stages():
    t = SentenceTrace(0)
    t.stage("rank", "ranker-pruner", 10, 3)
    t.stage("gloss", "transformer", 10, 3)
    assert t.stages[0].pruned == 7
    assert t.stages[1].pruned == 0


def test_report_aggregates_stage_totals(interlingua_pipeline):
    traces = interlingua_pipeline.translate_batch(
        [INTERLINGUA_DEMO, INTERLINGUA_DEMO, GLOSS_DEMO]
    )
    report = run_trace_report(traces)
    rows = dict(
        (line.split("\t")[0], line.split("\t"))
        for line in report.splitlines()
    )
    assert rows["sentences"][1] == "3"
    assert rows["errors"][1] == "0"
    assert float(rows["full-parse-rate"][1]) == pytest.approx(1.0)
    # stage totals sum the per-sentence counts
    chunk_row = rows["chunk"]
    assert int(chunk_row[2]) == sum(
        s.n_in for t in traces for s in t.stages if s.name == "chunk"
    )


def test_report_requires_traces():
    with pytest.raises(ValueError):
        run_trace_report([])


# -- training ------------------------------------------------------------

def test_train_lm_matches_committed_model(gloss_pipeline):
    assert gloss_pipeline.train_lm().dump() == _read("lm.model")


def test_train_postedit_matches_committed_tree(gloss_pipeline):
    tree = gloss_pipeline.train_postedit()
    assert posteditor.dump_tree(tree) == _read("article.tree")


# -- command-line interface -----------------------------------------------

def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_translate(tmp_path, capsys):
    inp = tmp_path / "in.txt"
    inp.write_text(GLOSS_DEMO + "\n")
    out = tmp_path / "out.txt"
    trace = tmp_path / "trace.tsv"
    code, _out, _err = _run(
        capsys,
        [
            "--config", fixture_path("gloss.cfg"),
            "translate", "--input", str(inp),
            "--output", str(out), "--trace", str(trace),
        ],
    )
    assert code == 0
    assert out.read_text() == "John wants to eat now\n"
    assert parse_trace(trace.read_text())[0].output == "John wants to eat now"


def test_cli_chunk(tmp_path, capsys):
    inp = tmp_path / "in.txt"
    inp.write_text("john/N wa/HA\n")
    code, out, _err = _run(
        capsys,
        ["--config", fixture_path("gloss.cfg"), "chunk", "--input", str(inp)],
    )
    assert code == 0
    assert out == "BEGIN-NPT john/N wa/HA END-NPT\n"


def _cli_output(capsys, cfg, command, inp):
    code, out, err = _run(
        capsys, ["--config", fixture_path(cfg), command, "--input", str(inp)]
    )
    assert code == 0, err
    return out


def test_cli_realize_uses_irregular_forms(tmp_path, capsys):
    inp = tmp_path / "in.spl"
    inp.write_text("(|i-1| / |ingest| :TENSE past :AGENT (|n-2| / |named person|))\n")
    out = _cli_output(capsys, "interlingua.cfg", "realize", inp)
    labels = [line.split()[3] for line in out.splitlines() if line.startswith("E ")]
    assert "ate" in labels and "eated" not in labels


def test_cli_gloss_stages_chain_into_translate(tmp_path, capsys, gloss_pipeline):
    batch = fixture_path("batch50.txt")
    glossed = _cli_output(capsys, "gloss.cfg", "gloss", batch)
    blocks = re.split(r"^# .*\n", glossed, flags=re.M)[1:]
    assert len(blocks) == 50
    extracted = tmp_path / "extracted.txt"
    with extracted.open("w") as fh:
        for block in blocks:
            lattice = lattice_lm.parse_lattice(block)
            words, _score = lattice_lm.best_path(lattice, gloss_pipeline.lm)
            fh.write(" ".join(words) + "\n")
    postedited = _cli_output(capsys, "gloss.cfg", "postedit", extracted)
    translated = _cli_output(capsys, "gloss.cfg", "translate", batch)
    assert postedited.splitlines() == translated.splitlines()


def test_cli_rank_reproduces_analyze(tmp_path, capsys):
    analyzed = _cli_output(capsys, "interlingua.cfg", "analyze", fixture_path("batch50.txt"))
    assert analyzed
    spl = tmp_path / "candidates.spl"
    spl.write_text("".join(line.split("\t")[1] + "\n" for line in analyzed.splitlines()))
    assert _cli_output(capsys, "interlingua.cfg", "rank", spl) == analyzed


def test_cli_train_lm_reproduces_model(tmp_path, capsys):
    code, out, _err = _run(
        capsys, ["--config", fixture_path("gloss.cfg"), "train-lm"]
    )
    assert code == 0
    assert out == _read("lm.model")


def test_cli_report(tmp_path, capsys, gloss_pipeline):
    trace = tmp_path / "trace.tsv"
    trace.write_text(format_trace(gloss_pipeline.translate_batch([GLOSS_DEMO])))
    code, out, _err = _run(capsys, ["report", "--input", str(trace)])
    assert code == 0
    assert out.startswith("sentences\t1\n")


def test_cli_missing_config_is_resource_error(capsys):
    code, _out, err = _run(capsys, ["translate"])
    assert code == 1
    assert "config" in err


def test_cli_bad_usage_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
