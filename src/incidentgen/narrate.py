"""Turn traces into English lines and answer "why" questions.

Rendering fills each event definition's text template with the atom
names bound by its head, falling back to precondition bindings the
simulator captured at execution time. Explanations walk the plan-step
justification chain recorded by the planner: each action points at the
subgoal it achieved and the later step that needed it, ending at the
goal that was active when the step ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .kb import STYLES, KnowledgeBase, UnknownEventError
from .simulator import Trace
from .terms import IncidentgenError, Substitution, Term, format_term


class UnboundSlotError(IncidentgenError):
    """A template slot has no value under the event's bindings."""

    def __init__(self, slot: str, event: Term):
        self.slot = slot
        self.event = event
        super().__init__(
            f"template slot {{{slot}}} is unbound for {format_term(event)}"
        )


class StepOutOfRangeError(IncidentgenError, IndexError):
    """Asked to explain a step the trace does not have."""


@dataclass(frozen=True)
class ChainLink:
    """One hop of a justification chain.

    role is "precondition_of" (detail: the action needing the goal),
    "top_goal" (detail None), "revised_after" (detail: the happening
    instance that triggered the revision), or "exogenous" for steps
    nobody planned.
    """

    goal: Term
    role: str
    detail: Optional[Term] = None


@dataclass(frozen=True)
class Explanation:
    event: Term
    chain: tuple[ChainLink, ...]


def render_event(
    event: Term,
    kb: KnowledgeBase,
    bindings: Optional[Substitution] = None,
    kind: Optional[str] = None,
) -> str:
    """One English line for a ground event term.

    Slots are filled from unifying the event with its definition's
    head; slots bound only by preconditions need the bindings captured
    on the trace step. ``kind`` ("action" or "happening") picks between
    an action and a happening that share a name and arity.
    """
    match = kb.match_event(event, kind)
    if match is None:
        raise UnknownEventError(event)
    event_def, head_subst = match
    if event_def.template is None:
        raise UnknownEventError(
            event,
            f"{event_def.kind} {event_def.name}/{event_def.arity} has no text template",
        )
    values = {var.name: format_term(value) for var, value in head_subst.items()}
    if bindings is not None:
        for var, value in bindings.items():
            values.setdefault(var.name, format_term(value))
    try:
        return event_def.template.render(values)
    except KeyError as err:
        raise UnboundSlotError(err.args[0], event) from None


def render_story(trace: Trace, kb: KnowledgeBase, style: str = "plain") -> str:
    """The whole trace, one line per step.

    Style "plain" is bare lines; "storybook" opens with "Once upon a
    time..." and indents every line seven spaces.
    """
    if style not in STYLES:
        raise ValueError(f"unknown style {style!r} (choose from {STYLES})")
    lines = [render_event(step.event, kb, step.bindings, step.kind) for step in trace.steps]
    if style == "storybook":
        lines = ["Once upon a time..."] + ["       " + line for line in lines]
    return "".join(line + "\n" for line in lines)


def explain(trace: Trace, step_index: int) -> Explanation:
    """Why the given trace step happened.

    Actions yield a chain from the subgoal they achieved, through the
    steps whose preconditions were being served, up to the goal active
    at that point; happenings (and any step without a recorded
    justification) yield a single exogenous link.
    """
    if not 0 <= step_index < len(trace.steps):
        raise StepOutOfRangeError(
            f"step index {step_index} out of range (trace has {len(trace.steps)} steps)"
        )
    step = trace.steps[step_index]
    if step.justification is None:
        return Explanation(step.event, (ChainLink(step.event, "exogenous"),))
    active = trace.goal_history[0]
    for entry in trace.goal_history:
        if entry.step_index <= step_index:
            active = entry
    links: list[ChainLink] = []
    node = step.justification
    while node is not None:
        if node.parent is not None:
            links.append(
                ChainLink(node.achieves_goal, "precondition_of", node.parent.action)
            )
        elif active.reason == "revised":
            links.append(ChainLink(node.achieves_goal, "revised_after", active.trigger))
        else:
            links.append(ChainLink(node.achieves_goal, "top_goal"))
        node = node.parent
    return Explanation(step.event, tuple(links))


def format_explanation(explanation: Explanation) -> str:
    """The chain as indented because-lines for terminal output."""
    lines = [f"why {format_term(explanation.event)}?"]
    for link in explanation.chain:
        goal = format_term(link.goal)
        if link.role == "precondition_of":
            lines.append(
                f"  because {goal} is a precondition of {format_term(link.detail)}"
            )
        elif link.role == "revised_after":
            lines.append(
                f"  because {goal} became the goal after {format_term(link.detail)}"
            )
        elif link.role == "top_goal":
            lines.append(f"  because {goal} is the goal")
        else:
            lines.append("  it happened on its own; nobody planned it")
    return "\n".join(lines) + "\n"
