import functools
import hashlib
import importlib
import io
import os
import pkgutil
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hybridmt
from hybridmt import glosser, lattice_lm, parser, posteditor, realizer, rulebase, semantics, sexpr
from hybridmt.featstruct import canonical
from hybridmt.cli import main
from hybridmt.pipeline import (
    Pipeline,
    PipelineConfig,
    ResourceError,
    SentenceTrace,
    _path_count,
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
    assert cfg.values["path"] == "gloss"
    assert cfg.root_categories == ("S",)


def test_config_type_validation():
    cfg = PipelineConfig()
    for key in (
        "no_such_key", "top_n", "seed", "infer_before_rank", "fallback",
        "solution_cap", "edge_cap", "candidate_cap", "gt_cutoff", "verbal_categories",
    ):
        with pytest.raises(ResourceError):
            cfg.set(key, "1")


def test_config_path_must_name_a_path(tmp_path):
    cfg = PipelineConfig()
    cfg.set("path", "interlingua")
    assert cfg.values["path"] == "interlingua"
    with pytest.raises(ResourceError):
        cfg.set("path", "interlingual")
    assert cfg.values["path"] == "interlingua"
    typo = tmp_path / "typo.cfg"
    typo.write_text("# a misspelt path\npath = interlingual\n")
    with pytest.raises(ResourceError, match=re.escape("%s:2: config key path" % typo)):
        load_config(str(typo))


def test_load_config_rejects_search_bounds(tmp_path):
    # the search bounds are constants of the modules that enforce them
    bounded = tmp_path / "bounded.cfg"
    bounded.write_text("solution_cap = 64\n")
    with pytest.raises(ResourceError) as err:
        load_config(str(bounded))
    assert str(err.value) == "%s:1: unknown config key 'solution_cap'" % bounded


def test_load_config_rejects_fallback(tmp_path):
    # an interlingua sentence always falls back to the gloss path
    old = tmp_path / "old.cfg"
    old.write_text("path = interlingua\nfallback = off\n")
    with pytest.raises(ResourceError) as err:
        load_config(str(old))
    assert str(err.value) == "%s:2: unknown config key 'fallback'" % old


def test_load_config_rejects_verbal_categories(tmp_path):
    # a grammar states a verb group by a gloss equation that writes base
    old = tmp_path / "old.cfg"
    old.write_text("root_categories = VP\nverbal_categories = V\n")
    with pytest.raises(ResourceError) as err:
        load_config(str(old))
    assert str(err.value) == "%s:2: unknown config key 'verbal_categories'" % old


def test_config_missing_file_rejected_at_load():
    cfg = PipelineConfig(base_dir=FIXTURES)
    with pytest.raises(ResourceError):
        cfg.set("grammar", "does-not-exist.rules")


@pytest.mark.parametrize("value", ["", "."])
def test_config_resource_key_naming_no_regular_file_fails_at_its_line(tmp_path, capsys, value):
    # both name the config's own directory, which no loader can read
    config = tmp_path / "dir.cfg"
    config.write_text("path = gloss\nlm_model = %s\n" % value)
    message = "%s:2: config key lm_model: missing file %s" % (
        config, os.path.join(str(tmp_path), value)
    )
    with pytest.raises(ResourceError) as err:
        load_config(str(config))
    assert str(err.value) == message
    code, out, err = _run(capsys, ["--config", str(config), "translate", "--input", str(config)])
    assert (code, out, err) == (1, "", "error: %s\n" % message)


def test_load_config_relative_paths():
    cfg = load_config(fixture_path("gloss.cfg"))
    assert cfg.path_of("grammar") == os.path.join(FIXTURES, "grammar.rules")
    assert os.path.exists(cfg.path_of("lm_model"))


@pytest.mark.parametrize(
    "key, rules, message",
    [
        (
            "grammar",
            "((S -> NP V) ((X0 syn) = (X1 syn)))\n((NP -> N) ((X0 syn) = (X3 syn)))\n",
            "syntax rule (NP -> N) references X3 beyond arity 1",
        ),
        (
            "gloss_rules",
            "((NP -> N) ((X0 gloss) = (X2 gloss)))\n",
            "gloss rule (NP -> N) references X2 beyond arity 1",
        ),
    ],
    ids=["syntax", "gloss"],
)
def test_rule_naming_a_variable_beyond_its_backbone_fails_at_load(
    tmp_path, capsys, key, rules, message
):
    # no solution could bind the variable, so the first sentence that
    # used the rule would fail with it unbound
    (tmp_path / "bad.rules").write_text(rules)
    (tmp_path / "lex.tsv").write_text("neko\tN\n")
    config = tmp_path / "bad.cfg"
    config.write_text("%s = bad.rules\nsyn_lexicon = lex.tsv\n" % key)
    with pytest.raises(ResourceError) as err:
        Pipeline(load_config(str(config)))
    assert str(err.value) == message
    inp = tmp_path / "in.txt"
    inp.write_text("neko/N\n")
    code, out, err = _run(capsys, ["--config", str(config), "parse", "--input", str(inp)])
    assert (code, out, err) == (1, "", "error: %s\n" % message)


def test_nouns_file_skips_comment_lines(tmp_path):
    (tmp_path / "nouns.txt").write_text("# one noun per line\nCat\n\ndog\n")
    cfg = PipelineConfig(base_dir=str(tmp_path))
    cfg.set("nouns", "nouns.txt")
    assert Pipeline(cfg).nouns == {"cat", "dog"}


@pytest.mark.parametrize("name", ["gloss.cfg", "interlingua.cfg"])
def test_pipeline_reads_each_configured_resource_once(monkeypatch, name):
    cfg = load_config(fixture_path(name))
    reads, opened = [], []
    read_text, open_file = sexpr.read_text, open

    def counting_read_text(path):
        reads.append(path)
        return read_text(path)

    def counting_open(path, *args, **kwargs):
        opened.append(path)
        return open_file(path, *args, **kwargs)

    monkeypatch.setattr(sexpr, "read_text", counting_read_text)
    monkeypatch.setattr("builtins.open", counting_open)
    Pipeline(cfg)
    monkeypatch.undo()
    # the corpora are read only by the training commands
    want = sorted(
        cfg.path_of(key)
        for key in cfg.values
        if cfg.path_of(key) and key not in ("lm_corpus", "article_corpus")
    )
    assert len(want) == 16
    assert sorted(reads) == want and sorted(opened) == want


def _on_file(parse):
    """``parse`` of a file's text, its errors naming the file."""
    return lambda path: parse(sexpr.read_text(path), path)


def _rulebase_table(load, table):
    def run(path):
        rb = rulebase.RuleBase()
        load(sexpr.read_text(path), rb, path)
        return {k: [(e.pos, e.translations) for e in v] for k, v in getattr(rb, table).items()}

    return run


def _rulebase_dict(load, table):
    def run(path):
        rb = rulebase.RuleBase()
        load(sexpr.read_text(path), rb, path)
        return getattr(rb, table)

    return run


def _gen_lexicon(path):
    return {
        k: (e.lemma, e.category, e.countable, e.preps)
        for k, e in realizer.parse_gen_lexicon(sexpr.read_text(path), path).items()
    }


def _taxonomy(path):
    tax = semantics.Taxonomy.parse(sexpr.read_text(path), path)
    return tax.parents, tax.disjoint_pairs


# loader, two good rows, its bad rows (none: every line is a good row), their error type
_LINE_LOADERS = {
    "syn_lexicon": (
        _rulebase_table(rulebase.load_syn_lexicon, "syn_lexicon"),
        ["kaisha\tN", "wa\tHA"], ("kaisha",), rulebase.RuleBaseError,
    ),
    "bilingual": (
        _rulebase_table(rulebase.load_bilingual, "bilingual"),
        ["kaisha\tN\tcompany|firm", "keikaku\tV\tplan"], ("kaisha\tN", "kaisha\tN\t|"),
        rulebase.RuleBaseError,
    ),
    "sem_lexicon": (
        _rulebase_dict(rulebase.load_sem_lexicon, "sem_lexicon"),
        ["kaisha\t|company/business|", "keikaku\tplan|scheme"], ("kaisha", "kaisha\t|"),
        rulebase.RuleBaseError,
    ),
    "compounds": (
        _rulebase_dict(rulebase.load_compounds, "compounds"),
        ["nigatsu\tDATE", "hossoku\tVN"], ("nigatsu",), rulebase.RuleBaseError,
    ),
    "irregulars": (
        _on_file(glosser.parse_irregulars),
        ["eat\tate\teaten\teats", "go\twent\tgone\tgoes"], ("be\twas",), glosser.GlossError,
    ),
    "gen_lexicon": (
        _gen_lexicon,
        ["plan\tplan\tverb", "|calendar month|\tmonth\tnoun\t+\tin=in"],
        ("plan\tplan", "c\t\tnoun", "c\tlemma\tadverbial"),
        realizer.RealizeError,
    ),
    "taxonomy": (
        _taxonomy,
        ["concept thing", "concept |named person| isa thing"], ("concept",),
        semantics.TaxonomyError,
    ),
    "config": (
        lambda path: load_config(path).values,
        ["path = interlingua", "root_categories = S,NP"], ("path interlingua",), ResourceError,
    ),
    "word_list": (_on_file(posteditor.parse_word_list), ["cat", "Dog"], (), None),
}


@pytest.mark.parametrize("name", sorted(_LINE_LOADERS))
def test_line_loaders_skip_comments_and_locate_bad_rows(tmp_path, name):
    load, good, bad_rows, error = _LINE_LOADERS[name]
    clean = tmp_path / "clean"
    clean.write_text("\n".join(good) + "\n", encoding="utf-8")
    noisy = tmp_path / "noisy"
    noisy.write_text(
        "# header\n%s\n\n  # note\n%s\n\n" % tuple(good), encoding="utf-8"
    )
    assert load(str(noisy)) == load(str(clean))
    broken = tmp_path / "broken"
    for bad in bad_rows:
        broken.write_text("%s\n  # note\n%s\n" % (good[0], bad), encoding="utf-8")
        with pytest.raises(error, match="^" + re.escape("%s:3:" % broken)):
            load(str(broken))


def test_load_config_rejects_bad_lines(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("just a line without equals\n")
    with pytest.raises(ResourceError):
        load_config(str(bad))
    with pytest.raises(ResourceError):
        load_config(str(tmp_path / "missing.cfg"))
    with pytest.raises(ResourceError) as err:
        load_config(str(tmp_path))
    assert str(err.value) == "missing config file: %s" % tmp_path


@pytest.mark.parametrize("key", ["root_categories", "category_order"])
def test_pipeline_rejects_a_category_no_rule_has(key):
    cfg = load_config(fixture_path("gloss.cfg"))
    cfg.set(key, "S,Sentence")
    with pytest.raises(ResourceError, match="config key %s: unknown category 'Sentence'" % key):
        Pipeline(cfg)


def test_categories_are_checked_only_against_a_configured_grammar():
    cfg = PipelineConfig()
    cfg.set("root_categories", "Sentence")
    assert Pipeline(cfg).rb.rules == {}


def test_pipeline_without_resources_reports_a_missing_model():
    pipe = Pipeline(PipelineConfig())
    assert (pipe.patterns.patterns, pipe.patterns.aliases) == ([], {})
    assert (pipe.taxonomy, pipe.lm, pipe.tree) == (None, None, None)
    assert pipe.repairs == [] and pipe.exceptions == frozenset()
    assert pipe.gen_lexicon == {} and pipe.irregulars == {} and pipe.nouns == set()
    trace = pipe.translate_line(GLOSS_DEMO)
    assert trace.error.startswith("ResourceError: ") and "lm_model" in trace.error
    assert [s.name for s in trace.stages] == ["chunk", "parse", "gloss"]


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


# The rows a sentence keeps when one stage raises: (config, stage,
# batch50 line) -> the stage and note rows written before the failure.
# Line 0 is realized, line 2 has no candidate and line 11 fails to
# realize, so both fall back to the gloss path.
_FRONT = ["stage chunk transformer 4 6 0", "stage parse transformer 6 7 0"]
_FAILED_STAGE_ROWS = {
    ("gloss", "chunk", 0): [],
    ("gloss", "parse", 0): _FRONT[:1],
    ("gloss", "gloss", 0): _FRONT + ["note full_parse 1"],
    ("gloss", "decode", 0): _FRONT + [
        "stage gloss transformer 7 2 0", "note full_parse 1", "note paths 2",
    ],
    ("gloss", "postedit", 0): _FRONT + [
        "stage gloss transformer 7 2 0", "stage extract ranker-pruner 2 1 1",
        "note full_parse 1", "note lm_score -11.334118", "note paths 2",
    ],
    ("interlingua", "chunk", 0): [],
    ("interlingua", "parse", 0): _FRONT[:1],
    ("interlingua", "analyze", 0): _FRONT + ["note full_parse 1"],
    ("interlingua", "rank", 0): _FRONT + [
        "stage analyze transformer 7 1 0", "note candidates 1", "note full_parse 1",
    ],
    ("interlingua", "realize", 0): _FRONT + [
        "stage analyze transformer 7 1 0", "stage rank ranker-pruner 1 1 0",
        "note best_score 1", "note candidates 1", "note full_parse 1",
    ],
    ("interlingua", "gloss", 2): _FRONT + [
        "stage analyze transformer 7 0 0", "note candidates 0", "note full_parse 1",
    ],
    ("interlingua", "gloss", 11): [
        "stage chunk transformer 1 1 0", "stage parse transformer 1 1 0",
        "stage analyze transformer 1 1 0", "stage rank ranker-pruner 1 1 0",
        "note best_score 1", "note candidates 1", "note fallback realize-error",
        "note full_parse 0",
    ],
    ("interlingua", "decode", 0): _FRONT + [
        "stage analyze transformer 7 1 0", "stage rank ranker-pruner 1 1 0",
        "stage realize transformer 1 5 0", "note best_score 1", "note candidates 1",
        "note full_parse 1", "note paths 5",
    ],
    ("interlingua", "decode", 2): _FRONT + [
        "stage analyze transformer 7 0 0", "stage gloss transformer 7 2 0",
        "note candidates 0", "note full_parse 1", "note paths 2",
    ],
    ("interlingua", "postedit", 0): _FRONT + [
        "stage analyze transformer 7 1 0", "stage rank ranker-pruner 1 1 0",
        "stage realize transformer 1 5 0", "stage extract ranker-pruner 5 1 4",
        "note best_score 1", "note candidates 1", "note full_parse 1",
        "note lm_score -22.919201", "note paths 5",
    ],
    ("interlingua", "postedit", 11): [
        "stage chunk transformer 1 1 0", "stage parse transformer 1 1 0",
        "stage analyze transformer 1 1 0", "stage rank ranker-pruner 1 1 0",
        "stage gloss transformer 1 1 0", "stage extract ranker-pruner 1 1 0",
        "note best_score 1", "note candidates 1", "note fallback realize-error",
        "note full_parse 0", "note lm_score -3.554982", "note paths 1",
    ],
}


@pytest.mark.parametrize("name, stage, index", sorted(_FAILED_STAGE_ROWS))
def test_a_failing_stage_keeps_the_rows_written_before_it(
    request, monkeypatch, name, stage, index
):
    def boom(*_args):
        raise ValueError("boom")

    pipe = request.getfixturevalue(name + "_pipeline")
    # an instance attribute shadows the stage method until the test ends
    monkeypatch.setitem(vars(pipe), stage, boom)
    line = _read("batch50.txt").splitlines()[index]
    rows = [
        "%d\t%s" % (index, "\t".join(row.split()))
        for row in _FAILED_STAGE_ROWS[name, stage, index]
    ]
    rows.append("%d\tresult\terror\tValueError: boom" % index)
    assert format_trace([pipe.translate_line(line, index)]) == "\n".join(rows) + "\n"


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


@pytest.mark.parametrize(
    "row, message",
    [
        ("1\tstage", "not a stage, note or result row: '1\\tstage'"),
        ("1", "not a stage, note or result row: '1'"),
        ("1\tbogus", "not a stage, note or result row: '1\\tbogus'"),
        ("1\tresult\tmaybe\ty", "not a stage, note or result row"),
        ("1\tnote\tpaths\t2\textra", "not a stage, note or result row"),
        ("x\tresult\tok\ty", "invalid literal for int() with base 10: 'x'"),
        ("1\tstage\tparse\ttransformer\t3\tmany\t0", "invalid literal for int()"),
    ],
)
def test_parse_trace_rejects_a_malformed_row_naming_its_line(row, message):
    with pytest.raises(ValueError) as err:
        parse_trace("0\tresult\tok\tfine\n\n%s\n" % row)
    assert str(err.value).startswith("trace line 3: " + message)


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


@pytest.mark.parametrize(
    "lines, command, message",
    [
        ([], "train_lm", "train-lm requires the lm_corpus resource"),
        ([], "train_postedit", "train-postedit requires the article_corpus resource"),
        (
            ["article_corpus = corpus.txt"],
            "train_postedit",
            "train-postedit requires the nouns resource",
        ),
        (
            ["article_corpus = corpus.txt", "nouns = nouns.txt"],
            "train_postedit",
            "article corpus yielded no training instances",
        ),
    ],
)
def test_training_without_its_resources_is_a_resource_error(tmp_path, lines, command, message):
    # the corpus has no noun from the noun list, so it yields no instance
    (tmp_path / "corpus.txt").write_text("it runs .\n")
    (tmp_path / "nouns.txt").write_text("moon\n")
    config = tmp_path / "train.cfg"
    config.write_text("".join(line + "\n" for line in lines))
    pipe = Pipeline(load_config(str(config)))
    with pytest.raises(ResourceError, match="^%s$" % message):
        getattr(pipe, command)()


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


def test_cli_realize_reports_each_failing_graph(tmp_path, capsys, interlingua_pipeline):
    analyzed = _cli_output(capsys, "interlingua.cfg", "analyze", fixture_path("batch50.txt"))
    graphs = [line.split("\t")[1] for line in analyzed.splitlines() if not line.startswith("#")]
    spl = tmp_path / "graphs.spl"
    spl.write_text("".join(g + "\n" for g in graphs))
    realized = _cli_output(capsys, "interlingua.cfg", "realize", spl)
    blocks = re.split(r"^# (\(.*)\n", realized, flags=re.M)[1:]
    assert blocks[0::2] == graphs
    failures = 0
    for graph, body in zip(blocks[0::2], blocks[1::2]):
        try:
            lattice = interlingua_pipeline.realize(semantics.parse_spl(graph))
        except realizer.RealizeError as err:
            assert body == "# error: %s\n" % err
            failures += 1
            continue
        assert body == lattice_lm.dump_lattice(lattice)
    assert 0 < failures < len(graphs)


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


def test_cli_gloss_decode_postedit_equals_translate(tmp_path, capsys):
    batch = fixture_path("batch50.txt")
    glossed = tmp_path / "glossed.txt"
    glossed.write_text(_cli_output(capsys, "gloss.cfg", "gloss", batch))
    decoded = tmp_path / "decoded.txt"
    decoded.write_text(_cli_output(capsys, "gloss.cfg", "decode", glossed))
    postedited = _cli_output(capsys, "gloss.cfg", "postedit", decoded)
    translated = _cli_output(capsys, "gloss.cfg", "translate", batch)
    assert postedited.splitlines() == translated.splitlines()


def test_cli_decode_marks_exactly_the_unrealizable_graphs(tmp_path, capsys, interlingua_pipeline):
    analyzed = _cli_output(capsys, "interlingua.cfg", "analyze", fixture_path("batch50.txt"))
    graphs = [line.split("\t")[1] for line in analyzed.splitlines() if not line.startswith("#")]
    spl = tmp_path / "graphs.spl"
    spl.write_text("".join(g + "\n" for g in graphs))
    realized = tmp_path / "realized.txt"
    realized.write_text(_cli_output(capsys, "interlingua.cfg", "realize", spl))
    decoded = _cli_output(capsys, "interlingua.cfg", "decode", realized).splitlines()
    assert len(decoded) == len(graphs)
    failures = 0
    for graph, line in zip(graphs, decoded):
        try:
            lattice = interlingua_pipeline.realize(semantics.parse_spl(graph))
        except realizer.RealizeError as err:
            assert line == "# error: %s" % err
            failures += 1
            continue
        words, _score = lattice_lm.best_path(lattice, interlingua_pipeline.lm)
        assert line == " ".join(words)
    assert 0 < failures < len(graphs)


def test_cli_decode_n_lists_top_n(tmp_path, capsys, gloss_pipeline):
    glossed = _cli_output(capsys, "gloss.cfg", "gloss", fixture_path("batch50.txt"))
    inp = tmp_path / "glossed.txt"
    inp.write_text(glossed)
    code, out, err = _run(
        capsys, ["--config", fixture_path("gloss.cfg"), "decode", "--n", "3", "--input", str(inp)]
    )
    assert code == 0, err
    headers = re.findall(r"^# .*$", glossed, flags=re.M)
    bodies = re.split(r"^# .*\n", glossed, flags=re.M)[1:]
    want = []
    for header, body in zip(headers, bodies):
        want.append(header)
        for words, score in lattice_lm.top_n(lattice_lm.parse_lattice(body), gloss_pipeline.lm, 3):
            want.append("%.6f\t%s" % (score, " ".join(words)))
    assert out.splitlines() == want
    assert any(len(lattice_lm.top_n(lattice_lm.parse_lattice(b), gloss_pipeline.lm, 3)) > 1 for b in bodies)


@pytest.mark.parametrize("value", ["0", "-2", "three"])
def test_cli_decode_rejects_bad_n(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["--config", fixture_path("gloss.cfg"), "decode", "--n", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --n" in err and "Traceback" not in err


def test_cli_decode_reports_bad_blocks_and_goes_on(tmp_path, capsys):
    blocks = [
        ("# cycle", "N 3\nE 0 1 a\nE 1 0 b\nE 1 2 c\n", "cannot decode a cyclic lattice"),
        # epsilon edges carry states, so an epsilon-only cycle is a cycle too
        (
            "# epsilon cycle",
            "N 4\nE 0 1 a\nE 1 2 <eps>\nE 2 1 <eps>\nE 2 3 b\n",
            "cannot decode a cyclic lattice",
        ),
        ("# out of range", "N 2\nE 0 5 x\n", "edge endpoint out of range"),
        ("# bad count", "N two\n", "line 1: bad lattice line 'N two'"),
        ("# two headers", "N 2\nE 0 1 a\nN 3\nE 1 2 b\n", "line 3: repeated N header"),
        ("# dead end", "N 4\nE 0 1 a\nE 2 3 b\n", "lattice has no complete path"),
        ("# one node", "N 1\n", "lattice needs distinct source and sink"),
        ("# rejected", "# error: no lexical entry\n", "no lexical entry"),
    ]
    inp = tmp_path / "blocks.txt"
    inp.write_text("".join("%s\n%s" % (h, b) for h, b, _m in blocks) + "# good\nN 2\nE 0 1 hello\n")
    errors = ["# error: " + m for _h, _b, m in blocks]
    assert _cli_output(capsys, "gloss.cfg", "decode", inp).splitlines() == errors + ["hello"]
    code, out, err = _run(
        capsys, ["--config", fixture_path("gloss.cfg"), "decode", "--n", "2", "--input", str(inp)]
    )
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0:-2:2] == [h for h, _b, _m in blocks] and lines[1:-2:2] == errors
    assert lines[-2] == "# good" and lines[-1].endswith("\thello")


def _gloss_one_verb(tmp_path, capsys, gloss_rule):
    """``gloss`` and ``translate`` output of ``taberu/V`` under a toy
    config whose one gloss rule is ``gloss_rule``."""
    (tmp_path / "toy.rules").write_text("((VP -> V))\n")
    (tmp_path / "toy.gloss").write_text(gloss_rule + "\n")
    (tmp_path / "syn.tsv").write_text("taberu\tV\n")
    (tmp_path / "bil.tsv").write_text("taberu\tV\teat\n")
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(
        "grammar = toy.rules\ngloss_rules = toy.gloss\nsyn_lexicon = syn.tsv\n"
        "bilingual = bil.tsv\nroot_categories = VP\n"
    )
    inp = tmp_path / "in.txt"
    inp.write_text("taberu/V\n")
    return [
        _run(capsys, ["--config", str(cfg), command, "--input", str(inp)])
        for command in ("gloss", "translate")
    ]


def _assert_gloss_error_per_line(results, error):
    assert results == [
        (0, "# taberu/V\n# error: %s\n" % error, ""),
        (0, "# error: GlossError: %s\n" % error, ""),
    ]


def test_cli_reports_a_verb_group_base_that_is_no_atom_per_line(tmp_path, capsys):
    # the gloss rule binds base to the verb's missing tense: an empty node
    results = _gloss_one_verb(tmp_path, capsys, "((VP -> V) ((X0 gloss base) = (X1 tense)))")
    _assert_gloss_error_per_line(results, "verb group base is not an atom: ((base ()))")


def test_cli_names_a_backbone_whose_gloss_rules_solve_nothing(tmp_path, capsys):
    # the verb's gloss is an atom, so it has no tense to bind base to
    results = _gloss_one_verb(
        tmp_path, capsys, "((VP -> V) ((X0 gloss base) = (X1 gloss tense)))"
    )
    _assert_gloss_error_per_line(results, "no gloss solution for backbones: (VP -> V)")


def test_cli_reports_a_gloss_node_that_cannot_flatten_per_line(tmp_path, capsys):
    # the gloss rule puts the verb's gloss under a feature that is no
    # op, alt, base or gloss, so flattening finds nothing to expand
    results = _gloss_one_verb(tmp_path, capsys, "((VP -> V) ((X0 gloss foo) = (X1 gloss)))")
    _assert_gloss_error_per_line(results, 'cannot flatten node: ((foo "eat"))')


def test_cli_decode_without_a_model_exits_1(tmp_path, capsys):
    cfg = tmp_path / "no-model.cfg"
    cfg.write_text("path = gloss\n")
    inp = tmp_path / "blocks.txt"
    inp.write_text("# good\nN 2\nE 0 1 hello\n")
    code, out, err = _run(capsys, ["--config", str(cfg), "decode", "--input", str(inp)])
    assert code == 1 and out == ""
    assert "lm_model" in err and "Traceback" not in err


def _fixture_config_without(tmp_path, name, key):
    """The fixture config ``name`` without its ``key`` line, written to
    ``tmp_path`` with its file paths made absolute."""
    lines = []
    for line in _read(name).splitlines():
        k, eq, value = line.partition(" = ")
        if k == key:
            continue
        if eq and os.path.isfile(fixture_path(value)):
            line = "%s = %s" % (k, fixture_path(value))
        lines.append(line)
    cfg = tmp_path / name
    cfg.write_text("\n".join(lines) + "\n")
    return str(cfg)


def test_cli_translate_records_a_missing_resource_as_each_sentences_error(tmp_path, capsys):
    inp = tmp_path / "three.txt"
    inp.write_text("".join(_read("batch50.txt").splitlines(True)[:3]))
    no_model = _fixture_config_without(tmp_path, "gloss.cfg", "lm_model")
    code, out, err = _run(capsys, ["--config", no_model, "translate", "--input", str(inp)])
    missing = "# error: ResourceError: decoding requires a trained language model (lm_model)\n"
    assert (code, out, err) == (0, missing * 3, "")
    # the third line has no interlingua candidate, so nothing ranks it
    # and it falls back to the gloss path
    no_taxonomy = _fixture_config_without(tmp_path, "interlingua.cfg", "taxonomy")
    code, out, err = _run(capsys, ["--config", no_taxonomy, "translate", "--input", str(inp)])
    unranked = "# error: ResourceError: ranking requires a taxonomy\n"
    fallback = _read("batch50.interlingua.out").splitlines(True)[2]
    assert (code, out, err) == (0, unranked * 2 + fallback, "")
    # a stage command stops at the same error instead
    code, out, err = _run(capsys, ["--config", no_taxonomy, "analyze", "--input", str(inp)])
    assert (code, out, err) == (1, "", "error: ranking requires a taxonomy\n")


def test_a_non_integer_month_index_falls_back_to_the_gloss_path(tmp_path, capsys):
    # batch50 line 1 puts nigatsu's month index into the meaning graph
    lexicon = tmp_path / "syn_lexicon.tsv"
    lexicon.write_text(
        _read("syn_lexicon.tsv").replace("((month-index 2))", "((month-index feb))")
    )
    cfg = _fixture_config_without(tmp_path, "interlingua.cfg", "syn_lexicon")
    with open(cfg, "a", encoding="utf-8") as fh:
        fh.write("syn_lexicon = %s\n" % lexicon)
    line = _read("batch50.txt").splitlines()[1]
    trace = Pipeline(load_config(cfg)).translate_line(line, 1)
    assert trace.error is None
    assert trace.notes["fallback"] == "realize-error"
    assert [s.name for s in trace.stages] == [
        "chunk", "parse", "analyze", "rank", "gloss", "extract", "postedit",
    ]
    # the gloss path reads no month index, so it gives the gloss config's line
    assert trace.output == _read("batch50.gloss.out").splitlines()[1]
    inp = tmp_path / "line.txt"
    inp.write_text(line + "\n")
    code, analyzed, err = _run(capsys, ["--config", cfg, "analyze", "--input", str(inp)])
    assert code == 0, err
    graph = analyzed.splitlines()[1].split("\t")[1]
    assert ":MONTH-INDEX feb" in graph
    spl = tmp_path / "graph.spl"
    spl.write_text(graph + "\n")
    code, out, err = _run(capsys, ["--config", cfg, "realize", "--input", str(spl)])
    assert (code, out, err) == (
        0, "# %s\n# error: month index 'feb' is not an integer\n" % graph, ""
    )


BAD_TOKENS = ["neko/N", "BEGIN-NP END-NP", "/", "tsuki/N"]
BAD_GRAPHS = [
    "(|i-1| / |ingest| :TENSE past :AGENT (|n-2| / |named person|))",
    "(|i-1| / |ingest|",
    "(|x-1| / |nosuch|)",
    "(|m-1| / |calendar month| :MONTH-INDEX 2)",
]
MARKERS_ONLY = "input contains only markers"
EMPTY_SURFACE = "item 1 '/': token surface must be non-empty"


@pytest.mark.parametrize(
    "command, lines, errors",
    [
        ("chunk", BAD_TOKENS, [EMPTY_SURFACE]),
        ("parse", BAD_TOKENS, [MARKERS_ONLY, EMPTY_SURFACE]),
        ("gloss", BAD_TOKENS, [MARKERS_ONLY, EMPTY_SURFACE]),
        ("analyze", BAD_TOKENS, [MARKERS_ONLY, EMPTY_SURFACE]),
        (
            "realize",
            BAD_GRAPHS,
            ["unbalanced '(': 1 open at end of input", "no generation entry for: nosuch"],
        ),
    ],
    ids=["chunk", "parse", "gloss", "analyze", "realize"],
)
def test_cli_stage_commands_report_bad_lines_and_go_on(tmp_path, capsys, command, lines, errors):
    # the batch prints what each line prints alone
    alone = []
    for i, line in enumerate(lines):
        one = tmp_path / ("line%d.txt" % i)
        one.write_text(line + "\n")
        alone.append(_cli_output(capsys, "interlingua.cfg", command, one))
    inp = tmp_path / "batch.txt"
    inp.write_text("".join(line + "\n" for line in lines))
    out = _cli_output(capsys, "interlingua.cfg", command, inp)
    assert out == "".join(alone)
    assert re.findall(r"^# error: (.*)$", out, flags=re.M) == errors


def test_cli_report_rejects_a_malformed_trace_row(tmp_path, capsys):
    trace = tmp_path / "trace.tsv"
    trace.write_text("0\tresult\tok\tfine\n1\tbogus\n")
    assert _run(capsys, ["report", "--input", str(trace)]) == (
        1, "", "error: trace line 2: not a stage, note or result row: '1\\tbogus'\n"
    )


@pytest.mark.parametrize(
    "key, text, message",
    [
        ("patterns", "(A == (is))\n", ": alias must be (NAME == (is CAT))"),
        ("patterns", "(A == ())\n", ": alias must be (NAME == (is CAT))"),
        ("patterns", "(A == (is (B)))\n", ": alias must be (NAME == (is CAT))"),
        ("patterns", "(P (N) :left (NP))\n", ": bad directive ':left' in P"),
        ("grammar", "(((S) -> NP))\n", ": malformed backbone [['S'], '->', 'NP']"),
        ("grammar", "((S -> (NP)))\n", ": malformed backbone ['S', '->', ['NP']]"),
        (
            "taxonomy",
            "concept a\nrelation r domain a range a relax x\n",
            ":2: invalid literal for int() with base 10: 'x'",
        ),
        (
            "taxonomy",
            "concept a\nrelation r domain a range a penalty y\n",
            ":2: could not convert string to float: 'y'",
        ),
    ],
)
def test_cli_rejects_a_malformed_resource_naming_its_file(tmp_path, capsys, key, text, message):
    resource = tmp_path / "resource"
    resource.write_text(text)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("%s = resource\n" % key)
    inp = tmp_path / "in.txt"
    inp.write_text("neko/N\n")
    code, out, err = _run(capsys, ["--config", str(cfg), "translate", "--input", str(inp)])
    assert (code, out) == (1, "")
    assert err == "error: %s%s\n" % (resource, message)


def test_cli_rank_reproduces_analyze(tmp_path, capsys):
    analyzed = _cli_output(capsys, "interlingua.cfg", "analyze", fixture_path("batch50.txt"))
    assert analyzed
    spl = tmp_path / "candidates.spl"
    spl.write_text(analyzed)
    assert _cli_output(capsys, "interlingua.cfg", "rank", spl) == analyzed


def test_cli_analyze_reproduces_the_golden_meaning_graphs(capsys):
    # no golden file covers analyze, and its reentrant senser and theme
    # graphs come from the sem sets whose left-hand paths nest
    analyzed = _cli_output(capsys, "interlingua.cfg", "analyze", fixture_path("batch50.txt"))
    assert len(analyzed.splitlines()) == 79
    digest = hashlib.sha256(analyzed.encode("utf-8")).hexdigest()
    assert digest == "1b8b822d7c60b6dc4d8064cba22f8cc62d26557cc522f3a2eddf82ffd9849e43"


@pytest.mark.parametrize("name", ["gloss_pipeline", "interlingua_pipeline"])
def test_translating_the_batch_never_calls_the_full_solver(name, request, monkeypatch):
    # every shipped equation set grafts on these lines
    calls = []
    solve = parser.apply_equations
    monkeypatch.setattr(
        parser, "apply_equations", lambda *args: calls.append(args) or solve(*args)
    )
    request.getfixturevalue(name).translate_batch(_read("batch50.txt").splitlines())
    assert calls == []


def test_cli_rank_and_realize_accept_a_cyclic_graph(tmp_path, capsys, interlingua_pipeline):
    # the relative-clause graph semantics.infer builds: c-2 and f-3 point
    # at each other
    graph = "(|c-2| / |company/business| :REL-MOD (|f-3| / |found, launch| :THEME |c-2|))"
    spl = tmp_path / "cyclic.spl"
    spl.write_text(graph + "\n")
    ranked = _cli_output(capsys, "interlingua.cfg", "rank", spl)
    assert ranked.split("\t")[1] == graph + "\n"
    lattice = interlingua_pipeline.realize(semantics.parse_spl(graph))
    assert isinstance(lattice, lattice_lm.WordLattice)
    words, _score = interlingua_pipeline.decode(lattice)
    assert words[:2] == ["The", "company"] and words[-2:] == ["launching", "."]


def test_cli_rank_reports_a_bad_candidate_line_and_goes_on(tmp_path, capsys):
    good = "(|h-1| / |have as a goal| :SENSER (|c-2| / |company/business|))"
    other = "(|i-1| / |ingest| :AGENT (|f-2| / |found, launch|))"
    spl = tmp_path / "sets.spl"
    spl.write_text("# set\n(|i-1| / |ingest|\n%s\n# set2\n%s\n" % (good, other))
    assert _cli_output(capsys, "interlingua.cfg", "rank", spl) == (
        "# set\n# error: unbalanced '(': 1 open at end of input\n1\t%s\n"
        "# set2\n1e-06\t%s\n" % (good, other)
    )


def test_cli_rank_ranks_each_set_apart(tmp_path, capsys):
    low = "(|h-1| / |have as a goal| :SENSER (|f-2| / |found, launch|))"
    high = "(|h-1| / |have as a goal| :SENSER (|c-2| / |company/business|))"
    other = "(|i-1| / |ingest| :AGENT (|f-2| / |found, launch|))"
    spl = tmp_path / "sets.spl"
    spl.write_text("# first\n%s\n# second\n1\t%s\n0.5\t%s\n" % (low, other, high))
    assert _cli_output(capsys, "interlingua.cfg", "rank", spl) == (
        "# first\n1e-06\t%s\n# second\n1\t%s\n1e-06\t%s\n" % (low, high, other)
    )


@pytest.mark.parametrize("name", ["gloss", "interlingua"])
def test_cli_translate_matches_golden_files(tmp_path, capsys, name):
    trace = tmp_path / "trace.tsv"
    code, out, err = _run(capsys, [
        "--config", fixture_path(name + ".cfg"), "translate",
        "--input", fixture_path("batch50.txt"), "--trace", str(trace),
    ])
    assert code == 0, err
    assert out == _read("batch50.%s.out" % name)
    assert trace.read_text(encoding="utf-8") == _read("batch50.%s.trace.tsv" % name)


@pytest.mark.parametrize("name", ["gloss", "interlingua"])
def test_translation_does_not_depend_on_earlier_lines(name):
    # one Pipeline serves every line, so a line's output must not depend
    # on which lines came before it
    golden = dict(
        zip(_read("batch50.txt").splitlines(), _read("batch50.%s.out" % name).splitlines())
    )
    lines = list(golden) * 2
    random.Random(8).shuffle(lines)
    pipe = Pipeline(load_config(fixture_path(name + ".cfg")))
    for line in lines:
        trace = pipe.translate_line(line)
        assert (trace.output, trace.error) == (golden[line], None), line


def test_repeated_fragment_glosses_without_reentrancy():
    line = "john/N wa/HA ima/ADV tabetai/V john/N wa/HA ima/ADV tabetai/V"

    def gloss_text(pipe):
        forest = pipe.parse(pipe.chunk(line))
        return canonical(glosser.gloss_forest(forest, pipe.rb))

    warm = Pipeline(load_config(fixture_path("gloss.cfg")))
    gloss_text(warm)
    got = gloss_text(warm)
    # both fragments solve alike; a rulebase that has glossed the line
    # before must still give each fragment its own structure
    assert got == gloss_text(Pipeline(load_config(fixture_path("gloss.cfg"))))
    assert "#1=" not in got
    assert got.count('(op1 "John")') == 2


def test_analyze_starts_from_the_fragment_category_order_puts_first(tmp_path):
    # with no full parse, "neko" is covered by a bare N and by an NP,
    # and only the NP's meaning is marked definite
    files = {
        "grammar.rules": "((S -> NP V) ((X0 syn) = (X1 syn)))\n((NP -> N) ((X0 syn) = (X1 syn)))\n",
        "sem.rules": "((NP -> N) ((X0 sem) = (X1 sem)) ((X0 sem definite) = yes))\n",
        "syn_lexicon.tsv": "neko\tN\n",
        "sem_lexicon.tsv": "neko\tcat\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    cfg = tmp_path / "order.cfg"

    def meanings(order):
        cfg.write_text(
            "grammar = grammar.rules\nsem_rules = sem.rules\n"
            "syn_lexicon = syn_lexicon.tsv\nsem_lexicon = sem_lexicon.tsv\n"
            "category_order = %s\n" % order
        )
        pipe = Pipeline(load_config(str(cfg)))
        forest = pipe.parse(pipe.chunk("neko/N"))
        assert not forest.roots
        return [semantics.serialize_spl(c.graph) for c in pipe.analyze(forest)]

    assert meanings("") == ["(|c-1| / |cat|)"]
    assert meanings("NP") == ["(|c-1| / |cat| :DEFINITE yes)"]


@pytest.mark.parametrize("name", ["gloss", "interlingua"])
def test_cli_parse_matches_golden_forest(capsys, name):
    # both configs load the same grammar, so they share one golden file
    code, out, err = _run(capsys, [
        "--config", fixture_path(name + ".cfg"), "parse",
        "--input", fixture_path("batch50.txt"),
    ])
    assert code == 0, err
    assert out == _read("batch50.parse.out")


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


def test_trace_and_report_keep_a_failing_line(tmp_path, capsys, gloss_pipeline):
    traces = gloss_pipeline.translate_batch([GLOSS_DEMO, "BEGIN-NP END-NP", "neko/N"])
    assert [t.error is None for t in traces] == [True, False, True]
    assert MARKERS_ONLY in traces[1].error
    text = format_trace(traces)
    assert "1\tresult\terror\t%s\n" % traces[1].error in text
    back = parse_trace(text)
    assert [(t.index, t.output, t.error) for t in back] == [
        (t.index, t.output, t.error) for t in traces
    ]
    assert format_trace(back) == text
    trace = tmp_path / "trace.tsv"
    trace.write_text(text)
    code, out, _err = _run(capsys, ["report", "--input", str(trace)])
    assert code == 0
    assert out.splitlines()[:2] == ["sentences\t3", "errors\t1"]


def test_cli_extract_prints_each_instance(tmp_path, capsys, gloss_pipeline):
    lines = ["the cat saw a dog", "cats drink water", "he saw the moon"]
    inp = tmp_path / "in.txt"
    inp.write_text("".join(line + "\n" for line in lines))
    out = _cli_output(capsys, "gloss.cfg", "extract", inp)
    instances = posteditor.extract_instances(
        lines, gloss_pipeline.nouns, gloss_pipeline.countability
    )
    assert [i.label for i in instances] == ["the", "a-an", "null", "null", "the"]
    want = [
        "%s\t%s" % (i.label, ";".join("%s=%s" % kv for kv in sorted(i.features.items())))
        for i in instances
    ]
    assert out.splitlines() == want


def test_cli_reads_standard_input_without_input_option(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("john/N wa/HA\n"))
    code, out, _err = _run(capsys, ["--config", fixture_path("gloss.cfg"), "chunk"])
    assert code == 0
    assert out == "BEGIN-NPT john/N wa/HA END-NPT\n"


def test_cli_decode_takes_a_lattice_without_a_header(tmp_path, capsys, gloss_pipeline):
    groups = [["John"], ["wants", "want"], ["to"], ["eat"]]
    lattice = lattice_lm.layout(lattice_lm.groups_term(groups))
    inp = tmp_path / "lattice.txt"
    inp.write_text(lattice_lm.dump_lattice(lattice))
    out = _cli_output(capsys, "gloss.cfg", "decode", inp)
    words, _score = gloss_pipeline.decode(lattice)
    assert out == " ".join(words) + "\n"


def _reverse_interior(lattice):
    """The lattice with its interior node ids in reverse order, so that
    every edge between two interior nodes runs backward."""
    sink = lattice.sink
    new_id = [0, *range(sink - 1, 0, -1), sink]
    edges = [(new_id[src], new_id[dst], label) for src, dst, label in lattice.edges]
    return lattice_lm.WordLattice(lattice.node_count, edges)


def test_batch_lattices_numbered_backward_decode_alike(gloss_pipeline):
    # the gloss lattices run forward, so they decode by sweeping node
    # ids; renumbered, they take the topological sort instead
    pipe = gloss_pipeline
    backward = 0
    for line in _read("batch50.txt").splitlines():
        lattice = pipe.gloss(pipe.parse(pipe.chunk(line)))
        renumbered = _reverse_interior(lattice)
        backward += any(src > dst for src, dst, _label in renumbered.edges)
        assert lattice_lm.top_n(renumbered, pipe.lm, 5) == lattice_lm.top_n(lattice, pipe.lm, 5)
        assert _path_count(renumbered) == _path_count(lattice)
    # the other 13 lines gloss to a single word edge
    assert backward == 37


@pytest.mark.parametrize("renumber", [lambda lattice: lattice, _reverse_interior])
def test_decoding_leaves_the_lattice_as_it_was(gloss_pipeline, renumber):
    groups = [["John"], ["wants", "want"], ["to"], ["eat", "ate"]]
    lattice = renumber(lattice_lm.layout(lattice_lm.groups_term(groups)))
    edges = lattice.edges
    before = (dict(vars(lattice)), list(edges))
    lattice_lm.best_path(lattice, gloss_pipeline.lm)
    lattice_lm.top_n(lattice, gloss_pipeline.lm, 3)
    _path_count(lattice)
    assert (dict(vars(lattice)), list(edges)) == before
    assert lattice.edges is edges


def test_cli_train_postedit_reproduces_committed_tree(capsys):
    code, out, _err = _run(capsys, ["--config", fixture_path("gloss.cfg"), "train-postedit"])
    assert code == 0
    assert out == _read("article.tree")


@functools.cache
def _typed_errors():
    """The public exception classes the package defines, by name.  It
    imports every module, so it runs in the test that asks: a module
    that fails on import fails that test, not the whole collection."""
    return frozenset(
        name
        for info in pkgutil.iter_modules(hybridmt.__path__)
        for name, value in vars(importlib.import_module("hybridmt." + info.name)).items()
        if isinstance(value, type)
        and issubclass(value, Exception)
        and value.__module__.startswith("hybridmt.")
        and not name.startswith("_")
    )


ODD_ITEMS = ["/", "/N", "a//", "BEGIN-", "END-X"]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.sampled_from(sorted(set(_read("batch50.txt").split())) + ODD_ITEMS),
        min_size=1,
        max_size=30,
    )
)
def test_any_token_line_gives_an_output_or_a_typed_error(
    gloss_pipeline, interlingua_pipeline, items
):
    line = " ".join(items)
    for pipe in (gloss_pipeline, interlingua_pipeline):
        trace = pipe.translate_line(line)
        if trace.error is None:
            assert trace.output is not None, line
            continue
        name = trace.error.split(":", 1)[0]
        assert name in _typed_errors(), (line, trace.error)
        assert name not in ("ValueError", "TypeError", "KeyError", "IndexError")
