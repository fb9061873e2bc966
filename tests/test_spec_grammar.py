"""The one clause grammar (:mod:`repro.utils.spec`), tested from its table.

Everything here is generated from :data:`KINDS`: per-row round trips and
part-by-part malformations, the kinds x families misplacement matrix, a
Hypothesis strategy over plans (``plans(family)`` — the generator a scenario
fuzzer can reuse), and two sets of literals recorded at the commit before
the grammars were unified (PR 16): canonical forms of every spec string the
repo's tests, benchmarks, CI and docs contain, and the fault oracles'
answers for the ``mlp16_chaos_traced`` benchmark specs.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.config as config_module
from repro.cluster.faults import FaultInjector
from repro.comm.network import LinkFaultModel
from repro.core import ClusterConfig
from repro.utils.spec import (
    FAMILIES,
    KINDS,
    Clause,
    ElasticSpecError,
    Plan,
    SpecError,
    parse_spec,
)
from tests.test_cluster_faults import event_trace

ROWS = list(KINDS.values())
IDS = list(KINDS)

# -- sample clauses, assembled from the table ---------------------------------

TARGETS = {"w": "w3", "link": "link(2,5)", "groups": "{w0,w1|w2..w7}", "+K": "+2", "range": "4..12"}
X_VALUES = {"xfloat": "x4", "xint": "x3"}
WINDOWS = {"required": "@5-9", "optional": "@5-9", "printed": "@5+", "bounded": "@5-9",
           "single": "@7", "none": ""}


def compose(row, target=None, x=None, p=None, window=None):
    """Text of one clause of ``row``; each part defaults to the row's sample
    (``x`` / ``p``: the text after ``x`` / ``p=``, or "" for none)."""
    target = TARGETS[row.target.rstrip("?")] if target is None else target
    x = X_VALUES.get(row.value, "x")[1:] if x is None else x
    p = ("0.05" if row.value == "p" else "") if p is None else p
    window = WINDOWS[row.window] if window is None else window
    x = f"x{x}" if x else ""
    p = (":" if target or x else "") + f"p={p}" if p else ""
    return f"{row.word}:{target}{x}{p}{window}"


def assert_typed(excinfo, row, clause):
    """The one error path: family-typed, naming the clause and the hint."""
    assert isinstance(excinfo.value, SpecError)
    assert isinstance(excinfo.value, ElasticSpecError) == (row.family == "member")
    assert repr(clause) in str(excinfo.value)
    assert row.hint in str(excinfo.value)


def shares_word(row):
    return sum(k.word == row.word for k in ROWS) > 1


# -- every row: round trip, fixed point, part-by-part malformations ------------


@pytest.mark.parametrize("row", ROWS, ids=IDS)
def test_row_round_trips_to_a_canonical_fixed_point(row):
    plan = parse_spec(compose(row), row.family)
    assert [c.kind for c in plan.clauses] == [row.name]
    assert plan.of(row.name) == plan.clauses
    canon = plan.to_spec()
    assert parse_spec(canon, row.family) == plan
    assert parse_spec(canon, row.family).to_spec() == canon
    # The sample was written canonically, apart from what the row's window
    # form prints differently.
    assert canon == compose(row)


@pytest.mark.parametrize("row", ROWS, ids=IDS)
def test_row_optional_parts_default(row):
    if row.target.endswith("?"):
        assert parse_spec(compose(row, target=""), row.family).clauses[0].target is None
    if row.window in ("optional", "printed"):
        clause = parse_spec(compose(row, window=""), row.family).clauses[0]
        assert (clause.start, clause.end) == (0, None)
        # flap always prints its window; the others leave the default out.
        assert clause.to_spec() == compose(row, window="@0+" if row.window == "printed" else "")


def malformations(row):
    """(label, clause text) for each required part left out and each
    forbidden part put in."""
    if not row.target.endswith("?"):
        yield "no target", compose(row, target="")
    for form, text in TARGETS.items():
        if form != row.target.rstrip("?"):
            yield f"{form} target", compose(row, target=text)
    if row.value and not (row.value == "p" and shares_word(row)):
        yield "no value", compose(row, x="", p="")  # corrupt without p= is the NaN kind
    if not row.value.startswith("x"):
        yield "x-value", compose(row, x="4")
    if row.value != "p" and not shares_word(row):
        yield "p-value", compose(row, p="0.5")
    if row.window in ("required", "bounded", "single"):
        yield "no window", compose(row, window="")
    if row.window == "none":
        yield "window", compose(row, window="@5")
    if row.window in ("single", "bounded"):
        yield "open window", compose(row, window="@5+")
    if row.window == "single":
        yield "range window", compose(row, window="@5-9")
    if row.window != "none":
        yield "backwards window", compose(row, window="@9-5")
        yield "empty window", compose(row, window="@")


@pytest.mark.parametrize(
    "row, label, clause",
    [(row, label, clause) for row in ROWS for label, clause in malformations(row)],
    ids=lambda v: v if isinstance(v, str) else getattr(v, "name", None),
)
def test_row_malformations_raise_the_typed_error(row, label, clause):
    with pytest.raises(ValueError) as ei:
        parse_spec(clause, row.family)
    assert_typed(ei, row, clause)
    assert str(ei.value).startswith(f"malformed {row.word} clause {clause!r}")


#: (kind, spec, needle); the clause blamed is the last one written.
CHECKS = [
    ("partition", "partition:{w0,w1}@3", "two or more disjoint groups"),
    ("partition", "partition:{w0|w0,w1}@3", "two or more disjoint groups"),
    ("partition", "partition:{w0..w4|w4..w7}@3", "two or more disjoint groups"),
    ("partition", "partition:{w3..w1|w5}@3", "ascending"),
    ("flap", "flap:link(2,2)x3", "two distinct endpoints"),
    ("join", "join:+0@5", "count must be >= 1"),
    ("drain", "drain:w1@5,drain:w2@5,drain:w1@5", "duplicate drain clause"),
    ("scale", "scale:2..4,scale:3..5", "duplicate scale clause"),
    ("scale", "scale:5..2", "need 1 <= MIN <= MAX"),
    ("scale", "scale:0..4", "need 1 <= MIN <= MAX"),
]


@pytest.mark.parametrize("kind, spec, needle", CHECKS, ids=[c[1] for c in CHECKS])
def test_per_kind_checks_run_at_parse_time(kind, spec, needle):
    row = KINDS[kind]
    with pytest.raises(ValueError, match=needle) as ei:
        parse_spec(spec, row.family)
    assert_typed(ei, row, spec[spec.rindex(row.word):])


# -- satellite bug: numbers ----------------------------------------------------

BAD_NUMBERS = ["1e999", ".", "1e", "+", "-.e"]


@pytest.mark.parametrize(
    "spec, family",
    [
        ("straggle:w0x1e999@0+", "worker"),
        ("drop:p=.@3", "worker"),
        ("loss:p=1e", "link"),
        ("delay:link(0,1)x+", "link"),
        ("straggle:w0x-.e@0+", "worker"),
    ],
)
def test_the_five_reported_number_strings(spec, family):
    """Accepted as ``inf``, or refused with Python's bare ``could not convert
    string to float`` and no clause, before the one number reader."""
    with pytest.raises(SpecError) as ei:
        parse_spec(spec, family)
    assert repr(spec) in str(ei.value) and "expected " in str(ei.value)


@pytest.mark.parametrize("text", BAD_NUMBERS + ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("row", [r for r in ROWS if r.value], ids=lambda r: r.name)
def test_malformed_and_non_finite_numbers_raise_the_typed_error(row, text):
    clause = compose(row, p=text) if row.value == "p" else compose(row, x=text)
    with pytest.raises(ValueError) as ei:
        parse_spec(clause, row.family)
    assert_typed(ei, row, clause)


@pytest.mark.parametrize(
    "text, value", [("1.5", None), ("2", None), ("1", 1.0), ("1e-3", 0.001), ("+0.5", 0.5)]
)
def test_probabilities_lie_in_the_half_open_unit_interval(text, value):
    if value is None:
        with pytest.raises(SpecError, match="probability in \\(0, 1\\]"):
            parse_spec(f"drop:p={text}", "worker")
    else:
        assert parse_spec(f"drop:p={text}", "worker").clauses[0].value == value


def test_flap_period_is_a_whole_number():
    assert parse_spec("flap:link(0,1)x007", "link").clauses[0].value == 7
    for text in ("0", "3.0", "1e1"):
        with pytest.raises(SpecError, match="whole number >= 1"):
            parse_spec(f"flap:link(0,1)x{text}", "link")


# -- the misplacement matrix: 13 kinds x 3 families ----------------------------


@pytest.mark.parametrize("family", list(FAMILIES))
@pytest.mark.parametrize("row", ROWS, ids=IDS)
def test_misplacement_matrix(row, family):
    clause = compose(row)
    if family == row.family:
        assert parse_spec(clause, family).clauses[0].kind == row.name
        return
    home_flag, home_field, _, _ = FAMILIES[row.family]
    flag, _, _, error = FAMILIES[family]
    with pytest.raises(error) as ei:
        parse_spec(clause, family)
    msg = str(ei.value)
    assert f"it belongs in {home_flag} / ClusterConfig.{home_field}, not in {flag}" in msg
    assert repr(clause) in msg


@pytest.mark.parametrize("family", list(FAMILIES))
def test_unknown_kind_lists_every_kind_of_every_family(family):
    with pytest.raises(FAMILIES[family][3], match="unknown .* clause kind 'teleport'") as ei:
        parse_spec("teleport:w0@3", family)
    for row in ROWS:
        assert row.hint in str(ei.value)
    for flag, field, _, _ in FAMILIES.values():
        assert f"{flag} / ClusterConfig.{field}" in str(ei.value)


@pytest.mark.parametrize("spec", ["crash:w1@3,(", "loss:p=0.1)", "partition:{w0,w1|w2..w7", "}{"])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_stray_brackets_are_typed_errors(spec, family):
    with pytest.raises(FAMILIES[family][3]):
        parse_spec(spec, family)


@pytest.mark.parametrize("family", list(FAMILIES))
@pytest.mark.parametrize("spec", [None, "", "  ", ",", " , ,"])
def test_blank_specs_are_empty_plans(spec, family):
    plan = parse_spec(spec, family)
    assert plan.empty and plan.to_spec() == "" and plan == Plan(family)


def test_off_is_a_member_family_word_only():
    assert parse_spec(" Off ", "member").empty
    for family in ("worker", "link"):
        with pytest.raises(SpecError, match="unknown"):
            parse_spec("off", family)


# -- the frozen corpus ----------------------------------------------------------

SAME = None

#: (family, spec, canonical form at PR 16 or SAME): every spec literal in
#: tests/, benchmarks/, ci.yml, README, DESIGN and docs/, then hand-picked
#: non-canonical spellings (bare windows, flap's always-printed window,
#: number forms, ranges, sort ties).
CORPUS = [
    ('worker', 'corrupt:p=0.08', SAME),
    ('worker', 'corrupt:p=0.1', SAME),
    ('worker', 'corrupt:p=0.15', SAME),
    ('worker', 'corrupt:w0@0-1', 'corrupt:w0@0'),
    ('worker', 'corrupt:w1@2-4', SAME),
    ('worker', 'corrupt:w1@5-40', SAME),
    ('worker', 'corrupt:w1@5-9', SAME),
    ('worker', 'crash:w0@0+,crash:w1@0+,crash:w2@0+,crash:w3@0+', SAME),
    ('worker', 'crash:w0@3+', SAME),
    ('worker', 'crash:w1@2+', SAME),
    ('worker', 'crash:w1@2-4', SAME),
    ('worker', 'crash:w1@3-5', SAME),
    ('worker', 'crash:w1@3-6', SAME),
    ('worker', 'crash:w1@3-7,straggle:w0x3@2+,drop:p=0.3', SAME),
    ('worker', 'crash:w1@4+,crash:w2@4+,crash:w3@4+', SAME),
    ('worker', 'crash:w1@40-60', SAME),
    ('worker', 'crash:w1@5-9,drop:p=0.3,corrupt:p=0.15', SAME),
    ('worker', 'crash:w2@10-25,drop:p=0.05', SAME),
    ('worker', 'crash:w2@10-25,straggle:w0x4@5+,drop:p=0.1', SAME),
    ('worker', 'crash:w2@3-6,straggle:w0x3@2+,drop:p=0.2', SAME),
    ('worker', 'crash:w2@3-7', SAME),
    ('worker', 'crash:w2@3-8,straggle:w0x3@2+,drop:p=0.2', SAME),
    ('worker', 'crash:w2@4-8', SAME),
    ('worker', 'crash:w2@4-9,straggle:w0x4@3+,drop:p=0.1', SAME),
    ('worker', 'crash:w2@50+', SAME),
    ('worker', 'crash:w2@50-120,straggle:w0x4@30+,drop:p=0.05', SAME),
    ('worker', 'crash:w2@60-140,straggle:w0x4@20+,drop:p=0.05,corrupt:p=0.02', SAME),
    ('worker', 'crash:w3@10+', SAME),
    ('worker', 'crash:w3@2-5', SAME),
    ('worker', 'crash:w3@5+', SAME),
    ('worker', 'crash:w5@3+', SAME),
    ('worker', 'drop:p=0.05', SAME),
    ('worker', 'drop:p=0.1,crash:w1@5-9,crash:w0@2+,straggle:w1x2@0-4',
     'crash:w0@2+,crash:w1@5-9,straggle:w1x2@0-4,drop:p=0.1'),
    ('worker', 'drop:p=0.3', SAME),
    ('worker', 'drop:p=0.4', SAME),
    ('worker', 'drop:p=0.5@1000+', SAME),
    ('worker', 'drop:p=1.0', 'drop:p=1'),
    ('worker', 'drop:p=1.0@50+', 'drop:p=1@50+'),
    ('worker', 'drop:w1:p=0.3@10-20', SAME),
    ('worker', 'drop:w1:p=1.0', 'drop:w1:p=1'),
    ('worker', 'straggle:w0x2@0+,straggle:w0x3@5-10', SAME),
    ('worker', 'straggle:w0x4@30+', SAME),
    ('worker', 'straggle:w0x5@0+', SAME),
    ('worker', 'crash:w1@5', 'crash:w1@5+'),
    ('worker', 'crash:w1@5-6', SAME),
    ('worker', 'corrupt:w1@5-6', 'corrupt:w1@5'),
    ('worker', 'corrupt:w1@5', SAME),
    ('worker', 'drop:p=.5@0+', 'drop:p=0.5'),
    ('worker', 'drop:w3:p=5e-2@0', 'drop:w3:p=0.05'),
    ('worker', 'drop:p=0.1@0-5', SAME),
    ('worker', 'straggle:w1x1e20@1+', 'straggle:w1x1e+20@1+'),
    ('worker', 'straggle:w1x2.50@1', 'straggle:w1x2.5@1+'),
    ('worker', 'straggle:w1x1e-5@1-2', 'straggle:w1x1e-05@1-2'),
    ('worker', 'corrupt:w2:p=1@3, corrupt:p=0.5 ,, corrupt:w2@9',
     'corrupt:w2@9,corrupt:p=0.5,corrupt:w2:p=1@3+'),
    ('worker', 'crash:w1@5-9,crash:w1@5-7,crash:w0@9',
     'crash:w0@9+,crash:w1@5-9,crash:w1@5-7'),
    ('link', 'delay:link(0,3)x5', SAME),
    ('link', 'dup:p=0.005', SAME),
    ('link', 'flap:link(2,5)x3@50+', SAME),
    ('link', 'flap:link(2,9)x3', 'flap:link(2,9)x3@0+'),
    ('link', 'loss:link(1,4):p=0.1@10-20', SAME),
    ('link', 'loss:p=0.0001', SAME),
    ('link', 'loss:p=0.02,delay:link(0,3)x5', SAME),
    ('link', 'loss:p=0.02,dup:p=0.005,delay:link(0,3)x5', SAME),
    ('link', 'loss:p=0.05,delay:link(0,3)x5', SAME),
    ('link', 'loss:p=0.1,loss:link(0,1):p=0.2', SAME),
    ('link', 'loss:p=0.15,delay:link(0,1)x3,flap:link(1,2)x4@2+',
     'flap:link(1,2)x4@2+,loss:p=0.15,delay:link(0,1)x3'),
    ('link', 'loss:p=0.4,dup:p=0.1,delay:link(0,3)x5', SAME),
    ('link', 'loss:p=0.6', SAME),
    ('link', 'partition:{w0,w1|w2..w7}@100-200,flap:link(2,5)x3@50+,loss:p=0.02,dup:p=0.005,delay:link(0,3)x5', SAME),
    ('link', 'partition:{w0,w1|w2..w7}@100-200,loss:p=0.02,flap:link(2,5)x3@50+',
     'partition:{w0,w1|w2..w7}@100-200,flap:link(2,5)x3@50+,loss:p=0.02'),
    ('link', 'partition:{w0..w2|w3|w4..w7}@5+', SAME),
    ('link', 'partition:{w0..w3|w4..w7}@0+', SAME),
    ('link', 'partition:{w0|w1,w2,w3}@10-20', 'partition:{w0|w1..w3}@10-20'),
    ('link', 'partition:{w0|w1,w2,w3}@4-8', 'partition:{w0|w1..w3}@4-8'),
    ('link', 'flap:link(5,2)x3', 'flap:link(2,5)x3@0+'),
    ('link', 'flap:link(5,2)x007@4', 'flap:link(2,5)x7@4+'),
    ('link', 'delay:link(3,0)x2.50@0+', 'delay:link(0,3)x2.5'),
    ('link', 'delay:link(3,0)x2@0-9', 'delay:link(0,3)x2@0-9'),
    ('link', 'partition:{w2..4|w0, w1}@3', 'partition:{w2..w4|w0,w1}@3+'),
    ('link', 'partition:{w5,w3,w4,w4|w0..w1}@3-4,partition:{w0|w1}@3',
     'partition:{w3..w5|w0,w1}@3-4,partition:{w0|w1}@3+'),
    ('link', 'dup:link(4,1):p=1.0@7,loss:p=1e-3,loss:link(0,1):p=.25',
     'loss:p=0.001,loss:link(0,1):p=0.25,dup:link(1,4):p=1@7+'),
    ('member', 'drain:w1@5', SAME),
    ('member', 'drain:w3@50', SAME),
    ('member', 'join:+1@20', SAME),
    ('member', 'join:+1@5', SAME),
    ('member', 'join:+2@10,join:+1@50,drain:w0@30,drain:w1@30,scale:2..8', SAME),
    ('member', 'join:+2@10,join:+3@10,drain:w2@5,drain:w0@5',
     'join:+2@10,join:+3@10,drain:w0@5,drain:w2@5'),
    ('member', 'join:+2@100,drain:w3@200', SAME),
    ('member', 'join:+2@100,drain:w3@50,scale:4..12', SAME),
    ('member', 'join:+2@4,drain:w1@8', SAME),
    ('member', 'join:+2@8,drain:w1@18', SAME),
    ('member', 'join:+4@10,drain:w6@20', SAME),
    ('member', 'scale:2..4', SAME),
    ('member', 'scale:2..8,drain:w1@30,join:+1@50,drain:w0@30,join:+2@10',
     'join:+2@10,join:+1@50,drain:w0@30,drain:w1@30,scale:2..8'),
    ('member', 'scale:4..12', SAME),
    ('member', 'join:+3@10,join:+2@10,drain:w5@3,drain:w1@9,drain:w0@9',
     'join:+3@10,join:+2@10,drain:w5@3,drain:w0@9,drain:w1@9'),
    ('member', ' OFF ', ''),
    ('member', 'scale:1..1', SAME),
]


@pytest.mark.parametrize("family, spec, canonical", CORPUS, ids=[c[1] for c in CORPUS])
def test_corpus_canonical_forms_are_byte_equal_to_pr16(family, spec, canonical):
    canonical = spec if canonical is SAME else canonical
    plan = parse_spec(spec, family)
    assert plan.to_spec() == canonical
    assert parse_spec(canonical, family) == plan


def test_corpus_is_large_and_covers_every_kind():
    assert len(CORPUS) >= 60
    seen = {c.kind for family, spec, _ in CORPUS for c in parse_spec(spec, family).clauses}
    assert seen == set(KINDS)


# -- a Hypothesis strategy built from the table ----------------------------------

_ids = st.integers(0, 15)
_links = st.tuples(_ids, _ids).filter(lambda t: t[0] != t[1]).map(lambda t: tuple(sorted(t)))


@st.composite
def _groups(draw):
    members = draw(st.lists(_ids, min_size=2, max_size=10, unique=True))
    cuts = sorted(draw(st.sets(st.integers(1, len(members) - 1), min_size=1, max_size=3)))
    bounds = [0] + cuts + [len(members)]
    return tuple(tuple(sorted(members[a:b])) for a, b in zip(bounds, bounds[1:]))


_TARGET_ST = {
    "w": _ids,
    "link": _links,
    "groups": _groups(),
    "+K": st.integers(1, 8),
    "range": st.tuples(st.integers(1, 8), st.integers(0, 8)).map(lambda t: (t[0], t[0] + t[1])),
}
_finite = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)
_VALUE_ST = {
    "xfloat": st.one_of(_finite, st.integers(1, 9).map(float)),
    "xint": st.integers(1, 50),
    "p": st.one_of(st.floats(min_value=1e-9, max_value=1.0), st.just(1.0)),
    "": st.none(),
}
_starts = st.integers(0, 500)
_spans = st.tuples(_starts, st.integers(1, 200)).map(lambda t: (t[0], t[0] + t[1]))
_open = _starts.map(lambda s: (s, None))
_WINDOW_ST = {
    "required": st.one_of(_open, _spans),
    "optional": st.one_of(_open, _spans, st.just((0, None))),
    "printed": st.one_of(_open, _spans, st.just((0, None))),
    "bounded": _spans,
    "single": _starts.map(lambda s: (s, s + 1)),
    "none": st.just((0, None)),
}


def clauses(row):
    """Strategy: any clause the row's forms allow."""
    target = _TARGET_ST[row.target.rstrip("?")]
    if row.target.endswith("?"):
        target = st.one_of(st.none(), target)
    return st.builds(
        lambda t, v, w: Clause(row.name, t, v, *w), target, _VALUE_ST[row.value], _WINDOW_ST[row.window]
    )


def plans(family):
    """Strategy: any plan of ``family`` the per-kind checks allow (at most
    one ``scale``, no repeated ``drain``)."""
    rows = [r for r in ROWS if r.family == family]

    def legal(cs):
        once = {}
        for c in cs:
            once.setdefault(("scale",) if c.kind == "scale" else c, c)
        return Plan(family, tuple(once.values()))

    return st.lists(st.one_of([clauses(r) for r in rows]), max_size=6).map(legal)


@pytest.mark.parametrize("family", list(FAMILIES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_generated_plans_round_trip(family, data):
    plan = data.draw(plans(family))
    spec = plan.to_spec()
    assert parse_spec(spec, family) == plan
    assert parse_spec(spec, family).to_spec() == spec
    assert {c.kind for c in plan.clauses} <= {r.name for r in ROWS if r.family == family}
    for kind in KINDS:
        assert plan.of(kind) == tuple(c for c in plan.clauses if c.kind == kind)


@settings(max_examples=60, deadline=None)
@given(plan=plans("worker"), order=st.randoms(use_true_random=False))
def test_a_plan_is_its_clauses_not_their_order(plan, order):
    shuffled = list(plan.clauses)
    order.shuffle(shuffled)
    # Equal clauses aside, (kind, target, start) ties keep the written order.
    if len({(c.kind, c.target, c.start) for c in shuffled}) == len(shuffled):
        assert Plan("worker", tuple(shuffled)) == plan


# -- Plan.validate and the config-time checks -------------------------------------


def test_validate_range_checks_fault_plans_but_not_membership():
    assert parse_spec("crash:w2@3,drop:p=0.1", "worker").max_worker() == 2
    assert parse_spec("partition:{w0|w9,w4}@3,flap:link(11,2)x3", "link").max_worker() == 11
    assert parse_spec("loss:p=0.1", "link").max_worker() == -1
    with pytest.raises(SpecError, match="names worker 11 .* only 8 workers"):
        parse_spec("flap:link(11,2)x3", "link").validate(8)
    parse_spec("flap:link(11,2)x3", "link").validate(12)
    parse_spec("drain:w6@20", "member").validate(3)


def test_cluster_config_parses_each_spec_exactly_once(monkeypatch):
    """One parse per field for construction plus every ``make_*`` factory
    (the elastic spec alone was parsed four times)."""
    calls = []

    def counting(spec, family):
        calls.append(family)
        return parse_spec(spec, family)

    monkeypatch.setattr(config_module, "parse_spec", counting)
    cfg = ClusterConfig(n_workers=4, elastic_spec="join:+1@5,scale:2..8")
    assert cfg.elastic_enabled and cfg.make_elastic().max_workers == 8
    assert cfg.make_fault_injector().active is False
    assert cfg.make_link_faults() is None
    cfg.make_group()
    assert sorted(calls) == ["link", "member", "worker"]


# -- the fault oracles, against answers recorded at PR 16 --------------------------

#: ``benchmarks/e2e/workloads.py``: mlp16_chaos_traced.
CHAOS_FAULTS = "crash:w2@60-140,straggle:w0x4@20+,drop:p=0.05,corrupt:p=0.02"
CHAOS_NET = "loss:p=0.02,delay:link(0,3)x5"
STORM_NET = (
    "partition:{w0,w1|w2..w7}@100-200,flap:link(2,5)x3@50+,"
    "loss:p=0.02,dup:p=0.005,delay:link(0,3)x5"
)


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def test_fault_injector_event_trace_equals_pr16():
    trace = event_trace(FaultInjector(parse_spec(CHAOS_FAULTS, "worker"), 16, seed=0), 200)
    assert len(trace) == 398
    assert trace[:6] == [
        ("drop", 0, 1, 1, False), ("drop", 0, 15, 2, False), ("drop", 1, 13, 1, False),
        ("drop", 1, 14, 1, False), ("adv_corrupt", 3, 11), ("adv_corrupt", 5, 1),
    ]
    assert trace[-3:] == [("drop", 198, 7, 1, False), ("straggle", 199, 0, 4.0), ("adv_corrupt", 199, 0)]
    assert _digest(trace) == "6280428ae2ffb42e2c8ee64bb51b0a7c78d2c7b51dfe8f0cc56b8da1580ce56d"


def _link_answers(lf, n, with_dup=False):
    return [
        (a, b, s, lf.link_down(a, b, s), lf.message_lost(a, b, s, 0))
        + ((lf.message_duplicated(a, b, s, 0),) if with_dup else ())
        + (lf.delay_factor(a, b, s),)
        for s in range(200) for a in range(n) for b in range(a + 1, n + 1)
    ]


def test_link_fault_model_answers_equal_pr16():
    answers = _link_answers(LinkFaultModel(parse_spec(CHAOS_NET, "link"), 16, seed=0), 16)
    assert len(answers) == 27200
    assert sum(x[4] for x in answers) == 560 and sum(x[5] != 1.0 for x in answers) == 200
    assert [x[:3] for x in answers if x[4]][:5] == [
        (3, 13, 0), (14, 15, 0), (1, 2, 1), (2, 7, 1), (4, 7, 1)
    ]
    assert _digest(answers) == "e100e68bb55527c7e647ead0ceacd444504e2237cb3449ac911c077b2cf92969"


def test_partition_and_flap_answers_equal_pr16():
    lf = LinkFaultModel(parse_spec(STORM_NET, "link"), 8, seed=0)
    answers = _link_answers(lf, 8, with_dup=True)
    assert sum(x[3] for x in answers) == 1475  # link_down: partition + flap
    assert (sum(x[4] for x in answers), sum(x[5] for x in answers)) == (147, 38)
    assert [lf.majority_side(s) for s in (99, 100, 199, 200)] == [
        None, (2, 3, 4, 5, 6, 7), (2, 3, 4, 5, 6, 7), None
    ]
    assert _digest(answers) == "72f55c702a17f1de01d7fae342fea51b43c5a81bd6aec9c39f0398634fb817d2"
