"""What importing the package loads.

Every check of ``sys.modules`` runs in a fresh interpreter, since this
one has long since loaded every module.
"""

import json
import subprocess
import sys

import pytest

import incidentgen

# the public names, in order, as the package listed them when it imported
# every module eagerly
PUBLIC = ["__version__", *"""
    Atom Compound FreshNames IncidentgenError Substitution Term Variable format_term
    fresh_floor ground occurs_in substitute term_key unify variables
    DerivationRule EventDef KnowledgeBase RevisionRule Situation TextTemplate
    UnknownEventError aviation_kb_path data_path fresh_event fresh_revision fresh_rule
    Diagnostic ParseError load_aviation load_kb parse_kb parse_kb_with_diagnostics
    parse_term serialize_kb validate_kb
    TABLE EmptyListError RngState maybe next_unit rnd_member
    MissingDeleteFactError NoPlanFoundError Plan PlannerConfig PlanStep SCORERS
    ScoredPlan UnknownScorerError apply_effects enumerate_plans iter_satisfying
    make_best_plan plan_quality plan_sort_key
    GoalEntry InvalidInjectionError PreconditionViolationError Replan SimConfig Trace
    TraceStep applicable_happenings apply_event execute_plan generate_incident revise_goal
    STYLES ChainLink Explanation StepOutOfRangeError UnboundSlotError explain
    format_explanation render_event render_story
    DeadEndError DepthExceededError Grammar NonterminalRef Production TerminalList
    UnknownNonterminalError enumerate_expansions expand find_dead_ends load_grammar
    parse_grammar
    SearchConfig StalemateError adversarial_story forward_search plan_distance
""".split()]


def _fresh(code: str):
    """The JSON that ``code`` prints last, run in a fresh interpreter."""
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


_LOADED = (
    "import json, sys; "
    "print(json.dumps(sorted(m for m in sys.modules if m.startswith('incidentgen'))))"
)


def test_the_import_loads_only_what_parsing_and_validating_need():
    assert _fresh(f"import incidentgen; {_LOADED}") == [
        "incidentgen",
        "incidentgen.dsl",
        "incidentgen.kb",
        "incidentgen.terms",
    ]


def test_generate_loads_neither_the_grammar_nor_the_search():
    loaded = _fresh(
        "import contextlib, io; from incidentgen.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['generate', '--seed', '42', '--count', '3']) == 0\n"
        + _LOADED
    )
    assert "incidentgen.simulator" in loaded
    assert "incidentgen.grammar" not in loaded and "incidentgen.search" not in loaded


@pytest.mark.parametrize(
    "argv, module",
    [
        (["grammar", "--enumerate"], "incidentgen.grammar"),
        (["forward"], "incidentgen.search"),
    ],
)
def test_a_subcommand_loads_its_own_module_when_it_runs(argv, module):
    loaded = _fresh(
        "import contextlib, io; from incidentgen.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        + _LOADED
    )
    assert module in loaded


_RUN_MODULE = (
    "import runpy, sys\n"
    "sys.argv = ['incidentgen', *{argv!r}]\n"
    "try:\n"
    "    runpy.run_module('incidentgen', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as done:\n"
    "    assert done.code == 0, done.code\n"
)


@pytest.mark.parametrize(
    "argv, needed",
    [
        (["validate", "--kb", str(incidentgen.aviation_kb_path())], set()),
        (["plan"], {"incidentgen.planner"}),
    ],
    ids=["validate", "plan"],
)
def test_validate_and_plan_load_only_what_they_run(argv, needed):
    # python -m incidentgen: the simulator, the narrator and the random
    # stream load with the subcommands that run them, and the planner too
    loaded = set(_fresh(_RUN_MODULE.format(argv=argv) + _LOADED))
    runners = {f"incidentgen.{m}" for m in ("planner", "simulator", "narrate", "rng")}
    assert loaded & runners == needed


def test_the_public_names_are_unchanged():
    assert incidentgen.__all__ == PUBLIC


def test_a_star_import_binds_every_public_name():
    assert _fresh(
        "import json; from incidentgen import *\n"
        "import incidentgen\n"
        "print(json.dumps([n for n in incidentgen.__all__ if globals()[n] is not "
        "getattr(incidentgen, n)]))"
    ) == []


def test_dir_lists_every_public_name_before_its_module_loads():
    assert _fresh(
        "import json, incidentgen\n"
        "listed = set(dir(incidentgen))\n"
        "print(json.dumps([n for n in incidentgen.__all__ if n not in listed]))"
    ) == []


def test_an_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        incidentgen.no_such_name
    assert not hasattr(incidentgen, "Token")
