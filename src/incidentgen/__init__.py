"""Episodic incident narratives from a STRIPS-style knowledge base.

A backward-chaining planner finds the best action sequence for a goal;
a stochastic simulator executes it while injecting exogenous happenings
that revise the goal and force replanning; the resulting trace renders
to English and answers "why" questions from its recorded
justifications. Story-grammar expansion and forward/adversarial search
are included as contrasting generation styles, and the ``incidentgen``
command exposes the lot.

Importing the package loads only the term layer, the knowledge base and
its reader (``terms``, ``kb`` and ``dsl``). Every other module loads the
first time one of its names is used (PEP 562).
"""

__version__ = "0.1.0"

from importlib import import_module

from . import dsl, kb, terms  # noqa: F401  (what parsing and validating need)

# every public name, by the module that defines it, in the order of __all__.
# plan_distance is the forward search's evaluator, so it is listed last
_PUBLIC = (
    ("terms", "Atom Compound FreshNames IncidentgenError Substitution Term Variable"
              " format_term fresh_floor ground occurs_in substitute term_key unify variables"),
    ("kb", "DerivationRule EventDef KnowledgeBase RevisionRule Situation TextTemplate"
           " UnknownEventError aviation_kb_path data_path fresh_event fresh_revision fresh_rule"),
    ("dsl", "Diagnostic ParseError load_aviation load_kb parse_kb parse_kb_with_diagnostics"
            " parse_term serialize_kb validate_kb"),
    ("rng", "TABLE EmptyListError RngState maybe next_unit rnd_member"),
    ("planner", "MissingDeleteFactError NoPlanFoundError Plan PlannerConfig PlanStep SCORERS"
                " ScoredPlan UnknownScorerError apply_effects enumerate_plans iter_satisfying"
                " make_best_plan plan_quality plan_sort_key"),
    ("simulator", "GoalEntry InvalidInjectionError PreconditionViolationError Replan SimConfig"
                  " Trace TraceStep applicable_happenings apply_event execute_plan"
                  " generate_incident revise_goal"),
    ("narrate", "STYLES ChainLink Explanation StepOutOfRangeError UnboundSlotError explain"
                " format_explanation render_event render_story"),
    ("grammar", "DeadEndError DepthExceededError Grammar NonterminalRef Production TerminalList"
                " UnknownNonterminalError enumerate_expansions expand find_dead_ends"
                " load_grammar parse_grammar"),
    ("search", "SearchConfig StalemateError adversarial_story forward_search"),
    ("planner", "plan_distance"),
)
_MODULE_OF = {name: module for module, names in _PUBLIC for name in names.split()}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
