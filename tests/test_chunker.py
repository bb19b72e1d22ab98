import itertools
import random
import re

import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

import oracles
from conftest import fixture_path
from hybridmt import rulebase
from hybridmt.chunker import (
    CompoundDictionary,
    PatternError,
    PatternSet,
    Token,
    TokenError,
    chunk,
    load_patterns,
    match_pattern,
    parse_token_line,
    render_token_line,
    resegment,
)


# -- token lines -------------------------------------------------------

@pytest.mark.parametrize("item", ["/", "/N"])
def test_an_item_with_an_empty_surface_is_a_token_error_naming_it(item):
    with pytest.raises(TokenError, match="^item 2 %r: token surface must be non-empty$" % item):
        parse_token_line("neko/N %s a//" % item)
    # a tag may hold no slash, so the surface keeps every slash but the last
    assert parse_token_line("a//") == [Token("a/", "")]


def test_token_line_roundtrip():
    line = "john/N wa/HA BEGIN-NPT ima/ADV END-NPT tabetai/V bare"
    tokens = parse_token_line(line)
    assert render_token_line(tokens) == line
    assert tokens[2].marker and tokens[2].marker_cat == "NPT"
    assert tokens[2].marker_side == "begin"
    assert tokens[4].marker_side == "end"
    assert tokens[6].tag == ""


def test_surface_with_slash_keeps_last_tag():
    (tok,) = parse_token_line("a/b/N")
    assert tok.surface == "a/b" and tok.tag == "N"


# -- resegmentation ----------------------------------------------------

def test_resegment_digit_runs():
    tokens = parse_token_line("1/NUM 2/NUM 3/NUM kaisha/N 4/NUM")
    out = resegment(tokens)
    assert [t.surface for t in out] == ["123", "kaisha", "4"]
    assert out[0].tag == "NUMBER" and out[2].tag == "NUMBER"


def test_resegment_compound_longest_match():
    compounds = CompoundDictionary({"shinkaisha": "N", "shinkaishahossoku": "VN"})
    tokens = parse_token_line("shin/X kaisha/N hossoku/VN")
    out = resegment(tokens, compounds)
    assert [t.surface for t in out] == ["shinkaishahossoku"]
    assert out[0].tag == "VN"


def test_resegment_single_token_never_merged():
    out = resegment(parse_token_line("shinkaisha/X"), CompoundDictionary({"shinkaisha": "N"}))
    assert out[0].tag == "X"


def test_resegment_markers_block_merging():
    compounds = CompoundDictionary({"ab": "N"})
    tokens = [Token("a", "X"), Token.begin("S"), Token("b", "X")]
    out = resegment(tokens, compounds)
    assert [t.surface for t in out] == ["a", "BEGIN-S", "b"]


class _CountingCompounds(CompoundDictionary):
    """Counts lookups and fails on iteration."""

    probes = 0

    def __contains__(self, surface):
        self.probes += 1
        return super().__contains__(surface)

    def __getitem__(self, surface):
        self.probes += 1
        return super().__getitem__(surface)

    def __iter__(self):
        raise AssertionError("resegment iterated the compound dictionary")


def test_resegment_probes_do_not_grow_with_the_compound_dictionary(tmp_path, monkeypatch):
    # every surface has five letters, so both dictionaries have one longest length
    letters = itertools.product("abcdefghij", repeat=5)
    surfaces = ["".join(p) for p in itertools.islice(letters, 50_000)]
    monkeypatch.setattr(rulebase, "CompoundDictionary", _CountingCompounds)
    line = "aa/X aab/X aaa/X aj/X"
    results = []
    for size in (10, 50_000):
        path = tmp_path / ("compounds%d.tsv" % size)
        path.write_text("".join("%s\tN\n" % s for s in surfaces[:size]), encoding="utf-8")
        rb = rulebase.RuleBase()
        rulebase.load_compounds(path.read_text(encoding="utf-8"), rb, str(path))
        assert type(rb.compounds) is _CountingCompounds
        out = resegment(parse_token_line(line), rb.compounds)
        results.append(([t.surface for t in out], rb.compounds.probes))
    assert results[0] == results[1]
    assert results[0] == (["aaaab", "aaaaj"], 4)


def test_resegment_sees_compounds_added_after_load():
    tokens = parse_token_line("shin/X kaisha/N hossoku/VN")
    for how in ("assign", "update", "setdefault", "ior"):
        rb = rulebase.load_rulebase(compound_file=fixture_path("compounds.tsv"))
        assert [t.surface for t in resegment(tokens, rb.compounds)] == ["shinkaisha", "hossoku"]
        if how == "assign":
            rb.compounds["shinkaishahossoku"] = "VN"
        elif how == "update":
            rb.compounds.update({"shinkaishahossoku": "VN"})
        elif how == "setdefault":
            rb.compounds.setdefault("shinkaishahossoku", "VN")
        else:
            rb.compounds |= {"shinkaishahossoku": "VN"}
        out = resegment(tokens, rb.compounds)
        assert [(t.surface, t.tag) for t in out] == [("shinkaishahossoku", "VN")], how
    built = CompoundDictionary({"shinkaishahossoku": "VN"})
    assert [t.surface for t in resegment(tokens, built)] == ["shinkaishahossoku"]


# -- patterns ----------------------------------------------------------

TOPIC = "(TOPIC-HA (N+ HA) :left <<NPT :right NPT>>)"


def test_load_patterns_directives():
    pset = load_patterns(TOPIC)
    (pat,) = pset.patterns
    assert pat.name == "TOPIC-HA"
    assert pat.elements == ["N+", "HA"]
    assert pat.left_label == "NPT" and pat.right_label == "NPT"


def test_load_patterns_alias():
    pset = load_patterns("(NOMINAL == (is N)) (NOMINAL == (is PRON))")
    assert pset.expand("NOMINAL") == {"NOMINAL", "N", "PRON"}


def test_load_patterns_rejects_bad_directive():
    with pytest.raises(PatternError):
        load_patterns("(P (N) :middle X)")


@pytest.mark.parametrize(
    "text, message",
    [
        ("(P (N)", "unbalanced '('"),
        ('(P (N))\n(Q (N "wa))', "unterminated string at line 2"),
        ("(P)", "malformed pattern entry"),
        ("(P N)", "pattern P needs an element list"),
        ("(P ((N)))", "pattern P has non-atomic elements"),
        ("(P (N < HA))", "pattern P: at most one < > anchor region"),
        ("(P (N +))", "pattern P: bare quantifier"),
        ("(P (~ N))", "pattern P: ~ must be the last element"),
    ],
)
def test_load_patterns_rejects_a_malformed_pattern_file(text, message):
    # the last three come from ``ChunkPattern``, which knows no file name
    with pytest.raises(PatternError) as exc:
        load_patterns(text, "x.pat")
    assert str(exc.value).startswith("x.pat: ")
    assert message in str(exc.value)


def test_match_longest_plus_run():
    pset = load_patterns(TOPIC)
    tokens = parse_token_line("kaisha/N neko/N wa/HA tabetai/V")
    got = match_pattern(pset.patterns[0], tokens, 0, pset)
    assert got == (3, None, None)


def test_match_anchor_region():
    pset = load_patterns("(P (V < ADV > V))")
    tokens = parse_token_line("a/V b/ADV c/V")
    got = match_pattern(pset.patterns[0], tokens, 0, pset)
    assert got == (3, 1, 2)


def test_chunk_inserts_balanced_markers():
    pset = load_patterns(TOPIC)
    tokens = parse_token_line("kaisha/N wa/HA tabetai/V")
    out = chunk(tokens, pset)
    assert render_token_line(out) == "BEGIN-NPT kaisha/N wa/HA END-NPT tabetai/V"


def test_chunk_first_match_wins():
    pset = load_patterns(
        "(P1 (N HA) :left <<A :right A>>) (P2 (N HA) :left <<B :right B>>)"
    )
    out = chunk(parse_token_line("kaisha/N wa/HA"), pset)
    assert render_token_line(out) == "BEGIN-A kaisha/N wa/HA END-A"


def test_named_span_reusable_as_single_element():
    # a whole earlier span labeled NP counts as one NP element
    pset = load_patterns("(TOP (NP HA))")
    tokens = parse_token_line("kaisha/N neko/N wa/HA")
    spans = {0: [(2, "NP")]}
    got = match_pattern(pset.patterns[0], tokens, 0, pset, spans)
    assert got == (3, None, None)
    # without the recorded span the pattern cannot match
    assert match_pattern(pset.patterns[0], tokens, 0, pset) is None


def test_quantified_element_runs_over_named_spans():
    # NP+ takes the NP span over tokens 0-1, then the NP-tagged token 2
    pset = load_patterns("(TOP (NP+ HA))")
    tokens = parse_token_line("kaisha/N neko/N inu/NP wa/HA")
    got = match_pattern(pset.patterns[0], tokens, 0, pset, {0: [(2, "NP")]})
    assert got == (4, None, None)
    assert match_pattern(pset.patterns[0], tokens, 0, pset) is None


def test_chunk_passthrough_without_match():
    pset = load_patterns(TOPIC)
    line = "tabetai/V ima/ADV"
    assert render_token_line(chunk(parse_token_line(line), pset)) == line


# -- regex equivalence oracle -----------------------------------------

# one character per token: tags A, B and COMMA, and marker tokens
_CODES = {"A": "a", "B": "b", "COMMA": "c", "MARKER": "m"}
# ANY1+ matches markers too; ~ runs to the next comma or the end
_ELEMENT_REGEX = {
    "A": "a", "B": "b", "A+": "a+", "B+": "b+", "ANY1+": ".+", "<": "", ">": "", "~": "[^c]*",
}


@st.composite
def _pattern_elements(draw):
    body = draw(st.lists(st.sampled_from(["A", "B", "A+", "B+", "ANY1+"]), max_size=4))
    if draw(st.booleans()):
        left = draw(st.integers(0, len(body)))
        right = draw(st.integers(left, len(body)))
        body = body[:left] + ["<"] + body[left:right] + [">"] + body[right:]
    if draw(st.booleans()):
        body.append("~")
    return body


def _token(kind, i):
    if kind == "BEGIN":
        return Token.begin("X")
    if kind == "END":
        return Token.end("X")
    return Token("w%d" % i, kind)


@settings(max_examples=1000, deadline=None)
@given(
    _pattern_elements(),
    st.lists(st.sampled_from(["A", "B", "COMMA", "BEGIN", "END"]), max_size=8),
)
def test_pattern_matches_regex_oracle(elements, kinds):
    pset = load_patterns("(P (%s))" % " ".join(elements))
    tokens = [_token(kind, i) for i, kind in enumerate(kinds)]
    codes = "".join(_CODES[t.tag] for t in tokens)
    regex = re.compile("".join(_ELEMENT_REGEX[e] for e in elements))
    for start in range(len(tokens) + 1):
        got = match_pattern(pset.patterns[0], tokens, start, pset)
        ends = [e for e in range(start, len(tokens) + 1) if regex.fullmatch(codes, start, e)]
        # anchors depend on search order, so compare match ends only
        assert (got[0] if got else None) == max(ends, default=None), (elements, kinds, start)


def test_marker_balance_property():
    pset = load_patterns(
        TOPIC + " (OBJ (N WO) :left <<VNP :right VNP>>)"
    )
    rng = random.Random(11)
    tags = ["N", "HA", "WO", "V", "ADV"]
    for _ in range(1000):
        tokens = [
            Token("w%d" % i, rng.choice(tags))
            for i in range(rng.randint(0, 10))
        ]
        out = chunk(tokens, pset)
        # non-marker tokens pass through unchanged and in order
        assert [t for t in out if not t.marker] == tokens
        # markers are balanced and properly nested per category
        depth = {}
        for t in out:
            if not t.marker:
                continue
            d = depth.get(t.marker_cat, 0)
            depth[t.marker_cat] = d + (1 if t.marker_side == "begin" else -1)
            assert depth[t.marker_cat] >= 0
        assert all(v == 0 for v in depth.values())


def test_load_patterns_plain_marker_labels():
    (pat,) = load_patterns("(TOPIC (N+ HA) :left NPT :right NPT)").patterns
    assert pat.left_label == "NPT" and pat.right_label == "NPT"


def test_alias_closure_visits_a_shared_name_once():
    pset = load_patterns(
        "(NOMINAL == (is NOUNISH)) (NOMINAL == (is PRONISH))"
        " (NOUNISH == (is N)) (PRONISH == (is N)) (N == (is NOMINAL))"
    )
    assert pset.expand("NOMINAL") == {"NOMINAL", "NOUNISH", "PRONISH", "N"}


def test_tokens_compare_by_every_field():
    assert parse_token_line("neko/N BEGIN-NP") == [Token("neko", "N"), Token.begin("NP")]
    assert Token("neko", "N") != Token("neko", "V")
    assert Token.begin("NP") != Token.end("NP")
    assert Token("neko", "N") != "neko/N"


# -- the table against the backtracking oracle -------------------------

# AB accepts A and B, C accepts all three, and only claims carry P0
_ALIASES = "(AB == (is A)) (AB == (is B)) (C == (is AB))"
_NAMES = ["A", "B", "AB", "C", "P0"]
_KINDS = ["A", "B", "C", "COMMA", "BEGIN", "END"]


@st.composite
def _elements(draw, names):
    name = st.sampled_from(names)
    element = st.one_of(name, name.map(lambda n: n + "+"), st.just("ANY1+"))
    body = draw(st.lists(element, max_size=4))
    if draw(st.booleans()):
        left = draw(st.integers(0, len(body)))
        right = draw(st.integers(left, len(body)))
        body = body[:left] + ["<"] + body[left:right] + [">"] + body[right:]
    if draw(st.booleans()):
        body.append("~")
    return body


@st.composite
def _claimed_line(draw):
    """Tokens, and claims ``start -> [(end, name)]`` that each cover at
    least one token."""
    kinds = draw(st.lists(st.sampled_from(_KINDS), max_size=8))
    spans = {}
    for _ in range(draw(st.integers(0, 4)) if kinds else 0):
        start = draw(st.integers(0, len(kinds) - 1))
        end = draw(st.integers(start + 1, len(kinds)))
        spans.setdefault(start, []).append((end, draw(st.sampled_from(_NAMES + ["Z"]))))
    return [_token(kind, i) for i, kind in enumerate(kinds)], spans


@settings(max_examples=1000, deadline=None)
@given(_elements(_NAMES), _claimed_line())
def test_match_pattern_equals_the_backtracking_oracle(elements, line):
    tokens, spans = line
    pset = load_patterns("%s (P0 (%s))" % (_ALIASES, " ".join(elements)))
    (pattern,) = pset.patterns
    for start in range(len(tokens) + 1):
        want = oracles.match_pattern(pattern, tokens, start, pset, spans)
        assert match_pattern(pattern, tokens, start, pset, spans) == want, start


@settings(max_examples=500, deadline=None)
@given(
    st.lists(
        st.tuples(_elements(_NAMES + ["P1"]), st.booleans(), st.booleans()), min_size=2, max_size=4
    ),
    st.lists(st.sampled_from(_KINDS), max_size=10),
)
def test_chunk_equals_the_backtracking_oracle(patterns, kinds):
    text = _ALIASES
    for i, (elements, left, right) in enumerate(patterns):
        text += " (P%d (%s)" % (i, " ".join(elements))
        text += " :left <<L%d" % i * left + " :right R%d>>" % i * right + ")"
    pset = load_patterns(text)
    tokens = [_token(kind, i) for i, kind in enumerate(kinds)]
    assert chunk(tokens, pset) == oracles.chunk(tokens, pset)


def test_an_anchor_tie_goes_to_the_match_that_steps_furthest_first():
    # every split of four A tokens over the three A+ elements ends at 4
    pset = load_patterns("(P (A+ < A+ > A+))")
    tokens = parse_token_line("a/A b/A c/A d/A")
    assert match_pattern(pset.patterns[0], tokens, 0, pset) == (4, 2, 3)


def test_match_pattern_rejects_a_start_outside_the_line():
    pset = load_patterns(TOPIC)
    tokens = parse_token_line("kaisha/N wa/HA")
    for start in (-1, len(tokens) + 1):
        with pytest.raises(IndexError, match="^start index out of bounds$"):
            match_pattern(pset.patterns[0], tokens, start, pset)


# -- work per token ----------------------------------------------------

def _count_work(pset, limit):
    """Make ``pset.expand`` return alias closures that count their
    membership tests and fail once they pass ``limit``, so a search
    that breaks the bound fails fast instead of hanging.  Returns the
    running count as a one-item list."""
    work = [0]
    expand = pset.expand

    class Counting(frozenset):
        def __contains__(self, item):
            work[0] += 1
            if work[0] > limit:
                raise AssertionError("more than %d alias closure tests" % limit)
            return frozenset.__contains__(self, item)

    pset.expand = lambda name: Counting(expand(name))
    return work


@pytest.mark.parametrize("length", [100, 300, 1000, 3000])
@pytest.mark.parametrize("text", [None, "(P (N+ N+ N+ HA))"])
def test_chunk_tests_each_token_once_per_element_on_noun_runs(text, length):
    # None is the shipped pattern file, whose (N+ HA) finds no HA here
    if text is None:
        with open(fixture_path("patterns.pat"), encoding="utf-8") as fh:
            text = fh.read()
    pset = load_patterns(text)
    elements = sum(len(p.elements) for p in pset.patterns)
    tokens = [Token("kaisha", "N")] * length
    work = _count_work(pset, elements * length)
    assert chunk(tokens, pset) == tokens
    assert work[0] <= elements * length


# the tags of batch50.txt
_FIXTURE_TAGS = ["N", "V", "HA", "ADV", "WO", "NI", "DATE", "VN", "Q", "NUM"]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_elements(_FIXTURE_TAGS), min_size=1, max_size=3),
    st.lists(st.sampled_from(_FIXTURE_TAGS + ["COMMA", "BEGIN", "END"]), min_size=1, max_size=80),
)
def test_chunk_work_per_token_is_bounded_by_the_pattern_elements(patterns, kinds):
    pset = load_patterns(" ".join("(P%d (%s))" % (i, " ".join(e)) for i, e in enumerate(patterns)))
    elements = sum(len(e) for e in patterns)
    tokens = [_token(kind, i) for i, kind in enumerate(kinds)]
    work = _count_work(pset, elements * len(tokens))
    chunk(tokens, pset)
    target(work[0] / len(tokens))
    assert work[0] <= elements * len(tokens)
