"""Shared fixtures: the aviation knowledge base, canned situations, and
random knowledge bases with open variables."""

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from incidentgen import Situation, load_aviation, parse_kb, parse_term

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def facts(*texts: str) -> Situation:
    return frozenset(parse_term(t) for t in texts)


@pytest.fixture(scope="session")
def kb():
    return load_aviation()


@pytest.fixture(scope="session")
def boarded(kb):
    """The initial situation after load: passengers aboard at the gate."""
    return (kb.init - facts("plocation(passengers1, gate(seattle))")) | facts(
        "contains(airplane1, passengers1)"
    )


@pytest.fixture(scope="session")
def at_runway_loaded():
    """Plane on the seattle runway, passengers aboard, ready for takeoff."""
    return facts(
        "airplane(airplane1)",
        "passengers(passengers1)",
        "contains(airplane1, passengers1)",
        "alocation(airplane1, runway(seattle))",
        "flight_path(seattle, chicago)",
        "flight_path(chicago, dallas)",
    )


@pytest.fixture(scope="session")
def fire_on_runway(at_runway_loaded):
    """Same, but the engine has caught fire before takeoff."""
    return at_runway_loaded | facts("on_fire(engine)")


@pytest.fixture(scope="session")
def forward_from_init(kb):
    """Brute-force forward result from the initial situation, bound 8."""
    from oracles import forward_sequence_set

    return forward_sequence_set(kb.init, kb.goal, kb, 8)


_HEADS = ("X", "X, Y")
_PRE = ("s", "t", "p(X)", "q(X)", "p(k)", "q(Y)")
_ADD = ("t", "done", "p(X)", "q(X)", "p(f(X))", "r(X, Y)")
_DEL = ("s", "p(X)", "p(Y)", "q(Y)")
_RULES = ("done :- p(Z), q(Z)", "r(Z, W) :- q(Z)", "t :- p(f(Z))")
_GOALS = ("done", "t", "p(k)", "r(k, k)", "q(f(k))", "r(k, V)")


@st.composite
def nonground_kbs(draw, heads=_HEADS, pre=_PRE, dels=_DEL, rules=_RULES, kinds=("action",)):
    """Small KBs whose actions leave head variables open, so plans carry
    _G names, with rules that rename their own variables as well, and
    delete patterns that may pair with any of several facts. A caller
    may widen the heads, preconditions, deletes and rules drawn from,
    and the kinds of event declared."""
    lines = []
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(kinds))
        head = draw(st.sampled_from(heads))
        pcs = draw(st.lists(st.sampled_from(pre), max_size=2, unique=True))
        deleted = draw(st.lists(st.sampled_from(dels), max_size=2, unique=True))
        add = draw(st.lists(st.sampled_from(_ADD), min_size=1, max_size=2, unique=True))
        pre_text = f"pre: {', '.join(pcs)}; " if pcs else ""
        del_text = f"del: {', '.join(deleted)}; " if deleted else ""
        lines.append(f"{kind} a{i}({head}) {{{pre_text}{del_text}add: {', '.join(add)};}}")
    for rule in draw(st.lists(st.sampled_from(rules), max_size=2, unique=True)):
        lines.append(f"rule {rule}.")
    init = ["s", *draw(st.lists(st.sampled_from(("p(k)", "q(m)")), unique=True))]
    lines.append(f"init {{{'; '.join(init)};}}")
    lines.append(f"goal {draw(st.sampled_from(_GOALS))}.")
    return parse_kb("\n".join(lines))
