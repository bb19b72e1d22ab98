import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridmt import posteditor
from hybridmt.posteditor import (
    ArticleInstance,
    PosteditError,
    apply_repairs,
    choose_allomorph,
    classify,
    dump_tree,
    extract_instances,
    insert_articles,
    parse_repairs,
    parse_tree,
    parse_word_list,
    train_tree,
)

from conftest import fixture_path

NOUNS = {"cat", "dog", "moon", "water", "company"}


def _read(name):
    with open(fixture_path(name), encoding="utf-8") as fh:
        return fh.read()


# -- extraction --------------------------------------------------------

def test_extract_counts_by_hand():
    instances = extract_instances(
        ["the cat saw a dog", "moon is bright", "he saw the moon"], NOUNS
    )
    labels = sorted(i.label for i in instances)
    assert labels == ["a-an", "null", "the", "the"]


def test_extract_features_over_article_free_context():
    (inst,) = extract_instances(["he saw the cat today"], NOUNS)
    assert inst.label == "the"
    # l1/r1 skip the article itself
    assert inst.features["l1"] == "saw"
    assert inst.features["r1"] == "cat"
    assert inst.features["r2"] == "today"
    assert inst.features["head"] == "cat"
    assert inst.features["number"] == "singular"
    assert inst.features["initial"] == "no"


def test_extract_plural_and_initial():
    (inst,) = extract_instances(["cats purr"], NOUNS)
    assert inst.label == "null"
    assert inst.features["head"] == "cat"
    assert inst.features["number"] == "plural"
    assert inst.features["initial"] == "yes"
    assert inst.features["l1"] == "<s>"


def test_extract_countability_feature():
    countability = {"water": False, "cat": True}
    insts = extract_instances(["water flows", "cat sits", "moon glows"],
                              NOUNS, countability)
    feats = {i.features["head"]: i.features["countable"] for i in insts}
    assert feats == {"water": "no", "cat": "yes", "moon": "unknown"}


def test_article_without_nearby_noun_is_not_a_slot():
    instances = extract_instances(["the very extremely shiny cat"], NOUNS)
    # noun is four tokens away from the article: no labeled slot, and the
    # noun is bare, so it surfaces as a null slot
    assert [i.label for i in instances] == ["null"]


# -- decision tree -----------------------------------------------------

def _toy_instances():
    out = []
    for i in range(20):
        out.append(ArticleInstance("the", {"head": "cat", "initial": "no"}))
        out.append(ArticleInstance("a-an", {"head": "dog", "initial": "no"}))
        out.append(ArticleInstance("null", {"head": "moon", "initial": "yes"}))
    return out


def test_tree_learns_pure_split():
    tree = train_tree(_toy_instances())
    assert classify(tree, {"head": "cat", "initial": "no"}) == "the"
    assert classify(tree, {"head": "dog", "initial": "no"}) == "a-an"
    assert classify(tree, {"head": "moon", "initial": "yes"}) == "null"


def test_tree_deterministic():
    a = dump_tree(train_tree(_toy_instances()))
    b = dump_tree(train_tree(list(reversed(_toy_instances()))))
    assert a == b


def test_tree_depth_and_leaf_limits(monkeypatch):
    assert (posteditor.MAX_DEPTH, posteditor.MIN_LEAF) == (10, 5)
    tiny = train_tree(_toy_instances()[:3])
    assert tiny.is_leaf
    monkeypatch.setattr(posteditor, "MAX_DEPTH", 0)
    tree = train_tree(_toy_instances())
    assert tree.is_leaf
    assert sum(tree.dist.values()) == 60


def test_tree_training_requires_instances():
    with pytest.raises(PosteditError):
        train_tree([])


def test_classify_tie_breaks_deterministically():
    from hybridmt.posteditor import DecisionTree

    leaf = DecisionTree(dist={"the": 3, "a-an": 3})
    assert classify(leaf, {}) == "a-an"


def test_tree_persistence_roundtrip_classifies_identically():
    instances = extract_instances(
        [l for l in _read("article_corpus.txt").splitlines() if l.strip()],
        {w.strip() for w in _read("nouns.txt").splitlines() if w.strip()},
    )
    tree = train_tree(instances)
    back = parse_tree(dump_tree(tree))
    assert dump_tree(back) == dump_tree(tree)
    for inst in instances[:300]:
        assert classify(back, inst.features) == classify(tree, inst.features)


def test_parse_tree_rejects_malformed():
    with pytest.raises(PosteditError):
        parse_tree("(branch x y)")
    with pytest.raises(PosteditError):
        parse_tree("(test f v (leaf (the 1)))")
    # non-atom labels, features, values and counts; counts that are not
    # positive integers; an empty leaf; a label outside LABELS or twice
    for text in (
        "(leaf ((a) 1))",
        "(leaf (the (1)))",
        "(leaf (the x))",
        "(leaf (the 0))",
        "(leaf (the -1))",
        "(leaf)",
        "(leaf (an 1))",
        "(leaf (the 1) (null 3) (the 5))",
        "(test (f) v (leaf (the 1)) (leaf (null 1)))",
        "(test f (v) (leaf (the 1)) (leaf (null 1)))",
        # a subtree that is not a list, and text that is no expression
        "(test f v x (leaf (null 1)))",
        "(leaf (the 1)",
    ):
        with pytest.raises(PosteditError, match="^article.tree: "):
            parse_tree(text, "article.tree")


@pytest.mark.parametrize(
    "text, message",
    [
        ("(test f v\n (leaf (the 1))\n (leaf (null 1))))", "unbalanced ')' at line 3"),
        ("(test f v\n (leaf (|the 1))", "unterminated |atom| at line 2"),
    ],
)
def test_parse_tree_reading_error_names_the_file_and_the_line(text, message):
    with pytest.raises(PosteditError) as exc:
        parse_tree(text, "article.tree")
    assert str(exc.value) == "article.tree: " + message


# -- allomorphy and insertion -------------------------------------------

def test_choose_allomorph_vowel_rule():
    assert choose_allomorph("cat") == "a"
    assert choose_allomorph("apple") == "an"
    assert choose_allomorph("Apple") == "an"


def test_choose_allomorph_exceptions_invert():
    exceptions = {"hour", "university"}
    assert choose_allomorph("hour", exceptions) == "an"
    assert choose_allomorph("university", exceptions) == "a"


def test_exceptions_fixture_loaded():
    exceptions = parse_word_list(_read("exceptions.txt"))
    assert "hour" in exceptions and "university" in exceptions


def test_insert_articles_basic():
    tree = train_tree(_toy_instances())
    out = insert_articles("he saw cat", tree, NOUNS)
    assert out == "he saw the cat"
    out2 = insert_articles("he saw dog", tree, NOUNS)
    assert out2 == "he saw a dog"


def test_insert_articles_idempotent():
    tree = train_tree(_toy_instances())
    once = insert_articles("he saw cat and dog", tree, NOUNS)
    twice = insert_articles(once, tree, NOUNS)
    assert twice == once


def test_insert_articles_leaves_non_slots_byte_identical():
    tree = train_tree(_toy_instances())
    line = "completely unrelated  words *with*  spacing"
    assert insert_articles(line, tree, NOUNS) == line


def test_insert_articles_allomorph_uses_following_word():
    insts = [ArticleInstance("a-an", {"head": "owl"}) for _ in range(6)]
    tree = train_tree(insts)
    nouns = {"owl"}
    assert insert_articles("he saw owl", tree, nouns) == "he saw an owl"


def _classified_features(line, countability=None):
    """The feature dicts ``insert_articles`` hands to ``classify``."""
    seen = []

    def record(tree, features):
        seen.append(dict(features))
        return classify(tree, features)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(posteditor, "classify", record)
        insert_articles(line, train_tree(_toy_instances()), NOUNS, countability=countability)
    return seen


def _trained_null_features(line, countability=None):
    return [
        inst.features
        for inst in extract_instances([line], NOUNS, countability)
        if inst.label == "null"
    ]


def test_insertion_features_skip_articles_as_training_does():
    # dog's bare slot follows "the cat": training strips the article,
    # so its second left neighbour is the sentence boundary
    (feats,) = _classified_features("the cat dog")
    assert feats["l2"] == "<s>"
    assert feats == _trained_null_features("the cat dog")[0]
    (feats,) = _classified_features("she saw a dog cat")
    assert feats["l2"] == "saw"
    (feats,) = _classified_features("cat the dog")
    assert feats["r2"] == "dog"


_LINE_WORDS = st.sampled_from(
    sorted(NOUNS)
    + [n + "s" for n in sorted(NOUNS)]
    + ["a", "an", "the", "The", "A"]
    + ["he", "saw", "bright", "and", "of", "Is"]
)


@settings(max_examples=500, deadline=None)
@given(
    st.lists(_LINE_WORDS, max_size=10),
    st.sampled_from([None, {"cat": True, "water": False}]),
)
def test_insertion_classifies_the_features_training_extracts(words, countability):
    line = " ".join(words)
    assert _classified_features(line, countability) == _trained_null_features(
        line, countability
    )


# -- repairs -------------------------------------------------------------

def test_parse_repairs_format():
    rules = parse_repairs("foo\tbar\nbaz\t\n")
    assert rules == [("foo", "bar"), ("baz", "")]
    with pytest.raises(PosteditError):
        parse_repairs("no-tab-here\n")
    with pytest.raises(PosteditError):
        parse_repairs("\treplacement\n")
    with pytest.raises(PosteditError, match=r"^x\.tsv:2: need pattern TAB replacement, with one tab$"):
        parse_repairs("a\tb\nJohn\tJo\thn\n", "x.tsv")


def test_apply_repairs_single_pass_per_rule():
    # the replacement is not rescanned by its own rule
    assert apply_repairs("aaa", [("aa", "a")]) == "aa"
    # rules apply in order, later rules see earlier output
    assert apply_repairs("x", [("x", "y"), ("y", "z")]) == "z"


def test_repairs_fixture_strips_fragment_separator():
    rules = parse_repairs(_read("repairs.tsv"))
    assert apply_repairs("John ## eats", rules) == "John eats"


def test_repairs_pattern_may_start_with_hash():
    # a repairs file skips blank lines only: "## " is a rule, not a comment
    rules = parse_repairs(_read("repairs.tsv"))
    assert rules == [("## ", ""), (" ##", "")]
    assert apply_repairs("## X", rules) == "X"
    assert parse_repairs("# a\tb\n\n") == [("# a", "b")]


@settings(max_examples=500, deadline=None)
@given(st.lists(_LINE_WORDS, max_size=12))
def test_a_noun_right_after_an_article_is_never_a_bare_slot(words):
    slots = posteditor._find_slots(words, NOUNS)
    for slot, head, label in slots:
        if label == "null":
            assert slot == head
            assert slot == 0 or words[slot - 1].lower() not in posteditor.ARTICLES
        else:
            assert words[slot].lower() in posteditor.ARTICLES
    for i in range(len(words) - 1):
        if words[i].lower() in posteditor.ARTICLES and posteditor._is_noun(words[i + 1], NOUNS):
            assert (i, i + 1, "the" if words[i].lower() == "the" else "a-an") in slots


def test_tree_with_no_informative_split_is_a_leaf():
    instances = [ArticleInstance(label, {"head": "cat"}) for label in ("the", "null") * 5]
    tree = train_tree(instances)
    assert tree.is_leaf
    assert tree.dist == {"the": 5, "null": 5}
