"""Command-line interface.

Subcommands: generate (simulate incidents), plan (backward planning),
explain (why an event happened), validate (knowledge-base checks),
grammar (story-grammar expansion), forward (forward search, optionally
adversarial). Stories and results go to stdout, diagnostics to stderr.
Exit status 0 on success, 1 on a runtime failure such as an
unachievable goal, 2 on unreadable or invalid input. Every failure the
package raises on purpose is an ``IncidentgenError`` that carries its
own exit status and stderr text; malformed outside data (bad JSON, an
unreadable file, an out-of-range option) surfaces as ``OSError`` or
``ValueError`` and exits 2.

Every generate run embeds a manifest in its JSON output; feeding that
manifest back through ``generate --replay`` reproduces the run's text
output byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .dsl import Diagnostic, ParseError, parse_kb_with_diagnostics, parse_term, validate_kb
from .kb import KnowledgeBase, aviation_kb_path, data_path
from .narrate import STYLES, explain, format_explanation, render_event, render_story
from .planner import (
    NoPlanFoundError,
    PlannerConfig,
    enumerate_plans,
    make_best_plan,
    plan_quality,
)
from .rng import RngState
from .simulator import SimConfig, generate_incident
from .terms import IncidentgenError, Term, format_term, term_key

SEPARATOR = "----------"


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce one generate run."""

    kb_path: str
    command: str
    mode: str  # "table" or "seed"
    seed: Optional[int]
    prob: float
    max_happenings: int
    injection_schedule: tuple[tuple[int, str], ...]
    style: str
    count: int
    version: str

    def __post_init__(self) -> None:
        # a manifest obeys the limits of the flags it records
        if self.mode not in ("table", "seed"):
            raise ValueError(f"mode must be 'table' or 'seed', not {self.mode!r}")
        if (self.mode == "seed") != (self.seed is not None):
            raise ValueError(f"mode {self.mode!r} does not go with seed {self.seed!r}")
        if self.style not in STYLES:
            raise ValueError(f"unknown style {self.style!r} (choose from {STYLES})")
        if self.count < 1:
            raise ValueError("count must be at least 1")
        steps = [index for index, _ in self.injection_schedule]
        if any(index < 0 for index in steps):
            raise ValueError("step number must not be negative")
        if len(set(steps)) < len(steps):
            raise ValueError(f"duplicate injection index {max(steps, key=steps.count)}")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "RunManifest":
        try:
            if type(obj["prob"]) not in (int, float):
                raise ValueError(f"prob must be a number, not {obj['prob']!r}")
            # only a generate run writes a manifest, so only one replays
            if obj["command"] != "generate":
                raise ValueError(f"command must be 'generate', not {obj['command']!r}")
            return cls(
                kb_path=_text(obj["kb_path"], "kb_path"),
                command="generate",
                mode=_text(obj["mode"], "mode"),
                seed=None if obj["seed"] is None else _whole(obj["seed"], "seed"),
                prob=float(obj["prob"]),
                max_happenings=_whole(obj["max_happenings"], "max_happenings"),
                injection_schedule=tuple(
                    (_whole(i, "step number"), _text(e, "injected event"))
                    for i, e in obj["injection_schedule"]
                ),
                style=_text(obj["style"], "style"),
                count=_whole(obj["count"], "count"),
                version=_text(obj["version"], "version"),
            )
        except (KeyError, TypeError, ValueError) as err:
            raise ValueError(f"malformed manifest: {err}") from None


def _whole(value, name: str) -> int:
    # not coerced: no flag records a fraction, or a bool (an int to Python)
    if type(value) is not int:
        raise ValueError(f"{name} must be a whole number, not {value!r}")
    return value


def _text(value, name: str) -> str:
    # not coerced: str() would make a null kb_path the file name "None"
    if type(value) is not str:
        raise ValueError(f"{name} must be a string, not {value!r}")
    return value


def _checked(
    path: str, require_init_goal: bool
) -> tuple[Optional[KnowledgeBase], list[Diagnostic]]:
    """The knowledge base at ``path``, or None if it does not parse, and
    every diagnostic that parsing and then validating it found."""
    kb, diags = parse_kb_with_diagnostics(Path(path).read_text(), path, require_init_goal)
    if kb is not None:
        diags += validate_kb(kb, filename=path)
    return kb, diags


def _load_checked(path: str, require_init_goal: bool = True) -> KnowledgeBase:
    kb, diags = _checked(path, require_init_goal)
    ParseError.raise_errors(diags)
    return kb


def _run_traces(kb: KnowledgeBase, manifest: RunManifest) -> list:
    schedule = tuple((i, parse_term(e)) for i, e in manifest.injection_schedule)
    rng = RngState.table() if manifest.seed is None else RngState.seeded(manifest.seed)
    cfg = SimConfig(
        happening_prob=manifest.prob,
        max_happenings=manifest.max_happenings,
        injection_schedule=schedule,
    )
    traces = []
    for _ in range(manifest.count):
        trace = generate_incident(kb, replace(cfg, rng=rng))
        traces.append(trace)
        rng = trace.rng_after
    return traces


def _step_json(step, kb: KnowledgeBase) -> dict:
    justification = None
    if step.justification is not None:
        j = step.justification
        justification = {
            "achieves": format_term(j.achieves_goal),
            "parent_action": None if j.parent is None else format_term(j.parent.action),
        }
    return {
        "index": step.index,
        "kind": step.kind,
        "event": format_term(step.event),
        "text": render_event(step.event, kb, step.bindings, step.kind),
        "pre": [format_term(f) for f in sorted(step.pre_situation, key=term_key)],
        "post": [format_term(f) for f in sorted(step.post_situation, key=term_key)],
        "justification": justification,
    }


def _trace_json(trace, kb: KnowledgeBase) -> dict:
    return {
        "goal_history": [
            {
                "step_index": e.step_index,
                "goal": format_term(e.goal),
                "reason": e.reason,
                "trigger": None if e.trigger is None else format_term(e.trigger),
            }
            for e in trace.goal_history
        ],
        "replans": [
            {
                "step_index": r.step_index,
                "actions": [format_term(a) for a in r.plan.plan.actions],
                "quality": r.plan.quality,
            }
            for r in trace.replans
        ],
        "steps": [_step_json(s, kb) for s in trace.steps],
    }


def _emit_generate(manifest: RunManifest, fmt: str) -> int:
    kb = _load_checked(manifest.kb_path)
    traces = _run_traces(kb, manifest)
    if fmt == "text":
        stories = [render_story(t, kb, style=manifest.style) for t in traces]
        sys.stdout.write(f"{SEPARATOR}\n".join(stories))
    else:
        body: dict = {"manifest": manifest.to_json()}
        if manifest.count == 1:
            body.update(_trace_json(traces[0], kb))
        else:
            body["incidents"] = [_trace_json(t, kb) for t in traces]
        print(json.dumps(body, indent=2))
    return 0


def _manifest_from_args(args, command: str) -> RunManifest:
    return RunManifest(
        kb_path=args.kb,
        command=command,
        mode="seed" if args.seed is not None else "table",
        seed=args.seed,
        prob=args.prob,
        max_happenings=args.max_happenings,
        injection_schedule=tuple(
            (i, format_term(e)) for i, e in (args.inject or [])
        ),
        style=getattr(args, "style", "plain"),
        count=getattr(args, "count", 1),
        version=__version__,
    )


def cmd_generate(args) -> int:
    if args.replay is not None:
        obj = json.loads(Path(args.replay).read_text())
        if isinstance(obj, dict) and isinstance(obj.get("manifest"), dict):
            obj = obj["manifest"]
        if not isinstance(obj, dict):
            raise ValueError(f"{args.replay} does not contain a manifest")
        manifest = RunManifest.from_json(obj)
        if manifest.version != __version__:
            print(f"warning: replaying a {manifest.version} manifest with {__version__}", file=sys.stderr)
        return _emit_generate(manifest, fmt="text")
    return _emit_generate(_manifest_from_args(args, "generate"), fmt=args.format)


def cmd_plan(args) -> int:
    kb = _load_checked(args.kb)
    goal = parse_term(args.goal) if args.goal else kb.goal
    cfg = PlannerConfig(max_plan_length=args.max_length, scorer=args.scorer)
    if args.all:
        plans = enumerate_plans(goal, kb.init, kb, cfg)
        if not plans:
            raise NoPlanFoundError(goal)
        blocks = []
        for plan in plans:
            lines = [format_term(a) for a in plan.actions]
            lines.append(f"quality: {plan_quality(plan, args.scorer)}")
            blocks.append("\n".join(lines))
        print("\n\n".join(blocks))
    else:
        scored = make_best_plan(goal, kb.init, kb, cfg)
        for action in scored.plan.actions:
            print(format_term(action))
        print(f"quality: {scored.quality}")
    return 0


def cmd_explain(args) -> int:
    manifest = _manifest_from_args(args, "explain")
    kb = _load_checked(manifest.kb_path)
    traces = _run_traces(kb, manifest)
    sys.stdout.write(format_explanation(explain(traces[0], args.step)))
    return 0


def cmd_validate(args) -> int:
    # adversary knowledge bases have no goal and may have no init facts
    kb, diags = _checked(args.kb, require_init_goal=False)
    for d in diags:
        print(d, file=sys.stderr)
    if kb is None or any(d.severity == "error" for d in diags):
        return 2
    goal = "goal set" if kb.goal is not None else "no goal"
    print(
        f"ok: {len(kb.actions)} actions, {len(kb.happenings)} happenings, "
        f"{len(kb.rules)} rules, {len(kb.revisions)} revisions, "
        f"{len(kb.init)} init facts, {goal}"
    )
    return 0


def cmd_grammar(args) -> int:
    # imported here, as search is in cmd_forward: the other commands never load it
    from .grammar import _expansions_and_dead_ends, expand, load_grammar

    grammar = load_grammar(args.file)
    symbol = parse_term(args.symbol)
    if args.enumerate:
        expansions, dead_ends = _expansions_and_dead_ends(grammar, symbol, args.max_depth)
        for seq in expansions:
            print(" ".join(format_term(t) for t in seq))
        for dead in dead_ends:
            print(f"dead end: {format_term(dead)}", file=sys.stderr)
    else:
        rng = RngState.seeded(args.seed) if args.seed is not None else RngState.table()
        seq = expand(grammar, symbol, rng, max_depth=args.max_depth)
        print(" ".join(format_term(t) for t in seq))
    return 0


def cmd_forward(args) -> int:
    from .search import SearchConfig, adversarial_story, forward_search

    kb = _load_checked(args.kb)
    goal = parse_term(args.goal) if args.goal else kb.goal
    cfg = SearchConfig(max_depth=args.depth)
    if args.adversary is not None:
        adversary = _load_checked(args.adversary, require_init_goal=False)
        hero_kb = replace(kb, init=frozenset(kb.init | adversary.init))
        trace = adversarial_story(hero_kb, goal, adversary.actions, cfg)
        merged = replace(kb, events=(*kb.events, *adversary.events))
        sys.stdout.write(render_story(trace, merged, style="plain"))
    else:
        plan = forward_search(kb.init, goal, kb, cfg)
        for action in plan.actions:
            print(format_term(action))
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must not be negative")
    return value


def _injection(text: str) -> tuple[int, Term]:
    head, sep, rest = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError("expected STEP:EVENT, e.g. 3:ill_passenger")
    try:
        index = int(head)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad step number {head!r}") from None
    try:
        event = parse_term(rest)
    except ParseError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    return index, event


def _add_rng_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--seed", type=int, default=None, help="seeded random stream (SplitMix64)"
    )
    group.add_argument(
        "--table",
        action="store_true",
        help="cycle the built-in 20-value random table (default)",
    )


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--kb", default=str(aviation_kb_path()), help="knowledge base file"
    )
    _add_rng_flags(p)
    p.add_argument(
        "--prob",
        type=float,
        default=0.3,
        help="per-step happening probability (default 0.3)",
    )
    p.add_argument(
        "--max-happenings",
        type=_nonnegative_int,
        default=1,
        help="happenings allowed per incident (default 1)",
    )
    p.add_argument(
        "--inject",
        action="append",
        type=_injection,
        metavar="STEP:EVENT",
        help="force a happening at a trace step; repeatable",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="incidentgen",
        description=(
            "Generate, plan, and explain episodic incident narratives "
            "from a STRIPS-style knowledge base."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="simulate incidents and print the stories")
    _add_sim_flags(p)
    p.add_argument("--count", type=_positive_int, default=1, help="incidents to generate")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--style", choices=list(STYLES), default="plain")
    p.add_argument(
        "--replay",
        metavar="MANIFEST",
        help="reproduce a previous run from its manifest JSON; other flags are ignored",
    )
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("plan", help="plan for a goal and print the best plan")
    p.add_argument("--kb", default=str(aviation_kb_path()), help="knowledge base file")
    p.add_argument("--goal", help="goal term (default: the knowledge base's goal)")
    p.add_argument("--all", action="store_true", help="print every plan found")
    p.add_argument("--scorer", choices=("standard", "constant"), default="standard")
    p.add_argument(
        "--max-length", type=_positive_int, default=20, help="plan length bound"
    )
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("explain", help="explain one step of a generated incident")
    _add_sim_flags(p)
    p.add_argument(
        "--step", type=_nonnegative_int, required=True, help="trace step to explain"
    )
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("validate", help="check a knowledge base and report problems")
    p.add_argument("--kb", required=True, help="knowledge base file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("grammar", help="expand a story grammar")
    p.add_argument(
        "--file", default=str(data_path("incident.grammar")), help="grammar file"
    )
    p.add_argument("--symbol", default="incident", help="start symbol")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--enumerate", action="store_true", help="print every expansion"
    )
    mode.add_argument("--sample", action="store_true", help="print one random expansion")
    _add_rng_flags(p)
    p.add_argument(
        "--max-depth", type=_positive_int, default=16, help="expansion depth bound"
    )
    p.set_defaults(func=cmd_grammar)

    p = sub.add_parser("forward", help="forward search, optionally against an adversary")
    p.add_argument("--kb", default=str(aviation_kb_path()), help="knowledge base file")
    p.add_argument("--goal", help="goal term (default: the knowledge base's goal)")
    p.add_argument(
        "--depth",
        type=_positive_int,
        default=10,
        help="search depth / adversarial turn bound",
    )
    p.add_argument(
        "--adversary",
        metavar="FILE",
        help="knowledge base of antagonist actions; its init facts merge in",
    )
    p.set_defaults(func=cmd_forward)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        # inside the try: --inject terms are parsed during argument parsing
        args = build_parser().parse_args(argv)
        return args.func(args)
    except IncidentgenError as err:
        print(err.report(), file=sys.stderr)
        return err.exit_status
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
