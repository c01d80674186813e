"""Command-line interface, exercised in process."""

import hashlib
import json
import sys
from dataclasses import replace

import pytest

import incidentgen
from incidentgen import IncidentgenError, __version__, load_aviation, parse_term, serialize_kb
from incidentgen.cli import SEPARATOR, main
from incidentgen.kb import aviation_kb_path, data_path

ILL_STORY = (
    "The passengers boarded the plane.\n"
    "The plane taxiied to the runway.\n"
    "The plane took off from seattle.\n"
    "A passenger became very ill.\n"
    "The plane landed at seattle.\n"
    "The plane taxiied to the gate.\n"
    "The passengers disembarked.\n"
    "Medical help was provided.\n"
)


@pytest.fixture()
def run(capsys):
    def invoke(*args):
        code = main(list(args))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


# ----------------------------------------------------------------- generate


def test_generate_with_injection(run):
    code, out, err = run("generate", "--prob", "0", "--inject", "3:ill_passenger")
    assert (code, err) == (0, "")
    assert out == ILL_STORY


def test_a_drawn_happening_leaves_a_scheduled_one_its_budget(run):
    argv = ("generate", "--seed", "42", "--count", "20", "--prob", "0.5")
    code, out, err = run(*argv, "--inject", "3:ill_passenger")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7f91576fecef0a2fa8aed8442dd8e6442a42f1c231afdc58589942052d34ed5d"
    )
    # a budget of two leaves room for a drawn happening, and the story
    # replanned after it ends before step 3
    code, out, err = run(*argv, "--inject", "3:ill_passenger", "--max-happenings", "2")
    assert (code, out, err) == (
        1,
        "",
        "error: injection schedule entries never fired at steps 3\n",
    )


def test_generate_quiet_run_is_the_nominal_flight(run):
    code, out, _ = run("generate", "--prob", "0")
    assert code == 0
    assert out.splitlines()[0] == "The passengers boarded the plane."
    assert out.splitlines()[-1] == "The passengers disembarked."
    assert len(out.splitlines()) == 8


def test_generate_fresh_table_fire(run):
    code, out, _ = run("generate")
    assert (code, out) == (0, "The engine caught fire.\n")


def test_generate_storybook_style(run):
    code, out, _ = run(
        "generate", "--prob", "0", "--inject", "1:ill_passenger", "--style", "storybook"
    )
    assert code == 0
    assert out == (
        "Once upon a time...\n"
        "       The passengers boarded the plane.\n"
        "       A passenger became very ill.\n"
        "       The passengers disembarked.\n"
        "       Medical help was provided.\n"
    )


def test_generate_count_separates_incidents(run):
    code, out, _ = run("generate", "--seed", "42", "--count", "3")
    assert code == 0
    assert out.count(SEPARATOR + "\n") == 2
    chunks = out.split(SEPARATOR + "\n")
    assert len(chunks) == 3 and all(chunk for chunk in chunks)


def test_generate_json_single_incident(run):
    code, out, _ = run(
        "generate", "--prob", "0", "--inject", "3:ill_passenger", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["manifest", "goal_history", "replans", "steps"]
    manifest = doc["manifest"]
    assert manifest["mode"] == "table" and manifest["seed"] is None
    assert manifest["prob"] == 0.0
    assert manifest["injection_schedule"] == [[3, "ill_passenger"]]
    assert manifest["version"] == __version__
    assert [s["kind"] for s in doc["steps"]].count("happening") == 1
    ill = doc["steps"][3]
    assert ill["event"] == "ill_passenger"
    assert ill["text"] == "A passenger became very ill."
    assert ill["justification"] is None
    assert "ill_passenger" in ill["post"] and "ill_passenger" not in ill["pre"]
    land = doc["steps"][4]
    assert land["justification"] == {
        "achieves": "alocation(airplane1, runway(seattle))",
        "parent_action": "taxi_to_gate(airplane1)",
    }
    assert doc["goal_history"][-1]["reason"] == "revised"
    assert doc["replans"] == [
        {
            "step_index": 4,
            "actions": [
                "land(airplane1, seattle)",
                "taxi_to_gate(airplane1)",
                "unload(passengers1, airplane1)",
                "medical_help(passengers1)",
            ],
            "quality": 60,
        }
    ]


def test_generate_runs_each_step_under_the_planners_solution(run, tmp_path):
    # two solutions of p(X) apply; only X = two reaches the goal, and the
    # planner chose it, so the story must not run the step with X = one
    kb = tmp_path / "two.kb"
    kb.write_text(
        'action a {pre: p(X); del: q(X); add: r(X); text: "a {X}";}\n'
        "init {p(one); p(two); q(one); q(two);}\n"
        "goal r(two).\n"
    )
    assert run("plan", "--kb", str(kb)) == (0, "a\nquality: 90\n", "")
    assert run("generate", "--kb", str(kb), "--prob", "0") == (0, "a two\n", "")
    code, out, _ = run("generate", "--kb", str(kb), "--prob", "0", "--format", "json")
    assert code == 0
    [step] = json.loads(out)["steps"]
    assert step["post"] == ["p(one)", "p(two)", "q(one)", "r(two)"]


def test_a_happening_is_narrated_with_its_own_template(run, tmp_path):
    # an action and a happening may share a name and arity; each step is
    # narrated with the template of its own kind
    kb = tmp_path / "alarm.kb"
    kb.write_text(
        'action alarm {pre: armed; add: rung; text: "The crew sounded the alarm.";}\n'
        'happening alarm {pre: armed; add: noise; text: "An alarm went off by itself.";}\n'
        'action finish {pre: armed; add: done; text: "The crew finished.";}\n'
        "init {armed;}\n"
        "goal done.\n"
    )
    argv = ("generate", "--kb", str(kb), "--inject", "0:alarm")
    assert run(*argv) == (0, "An alarm went off by itself.\nThe crew finished.\n", "")
    code, out, _ = run(*argv, "--format", "json")
    assert code == 0
    assert [(s["kind"], s["text"]) for s in json.loads(out)["steps"]] == [
        ("happening", "An alarm went off by itself."),
        ("action", "The crew finished."),
    ]


def test_generate_json_many_incidents(run):
    code, out, _ = run("generate", "--seed", "9", "--count", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["manifest", "incidents"]
    assert doc["manifest"]["count"] == 4 and doc["manifest"]["seed"] == 9
    assert len(doc["incidents"]) == 4
    assert all(list(i) == ["goal_history", "replans", "steps"] for i in doc["incidents"])


def test_replay_reproduces_the_run(run, tmp_path):
    code, direct, _ = run("generate", "--seed", "11", "--count", "5")
    assert code == 0
    code, blob, _ = run("generate", "--seed", "11", "--count", "5", "--format", "json")
    assert code == 0
    recording = tmp_path / "run.json"
    recording.write_text(blob)
    code, replayed, _ = run("generate", "--replay", str(recording))
    assert code == 0
    assert replayed == direct


def test_replay_of_another_version_warns_and_still_replays(run, tmp_path):
    current = _manifest_file(tmp_path, "current.json", mode="seed", seed=11, count=3)
    older = _manifest_file(tmp_path, "older.json", mode="seed", seed=11, count=3, version="0.0.0")
    code, expected, err = run("generate", "--replay", str(current))
    assert (code, err) == (0, "")
    assert run("generate", "--replay", str(older)) == (
        0,
        expected,
        f"warning: replaying a 0.0.0 manifest with {__version__}\n",
    )


def test_replay_rejects_garbage(run, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"manifest": 7}')
    code, _, err = run("generate", "--replay", str(bad))
    assert code == 2
    assert "malformed manifest" in err


def test_injections_that_cannot_fire_fail(run):
    code, _, err = run("generate", "--prob", "0", "--inject", "99:ill_passenger")
    assert code == 1
    assert err.startswith("error:") and "never fired" in err


# --------------------------------------------------------------------- plan


def test_plan_prints_actions_and_quality(run):
    code, out, _ = run("plan")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "load(passengers1, airplane1)"
    assert lines[-1] == "quality: 20"
    assert len(lines) == 9


def test_plan_all_lists_alternatives(run, tmp_path):
    # start the scenario mid-flight so there is more than one way down
    kb_text = aviation_kb_path().read_text()
    kb_text = kb_text.replace("plocation(passengers1, gate(seattle));", "contains(airplane1, passengers1);")
    variant = tmp_path / "boarded.kb"
    variant.write_text(kb_text)
    code, out, _ = run("plan", "--kb", str(variant), "--all")
    assert code == 0
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 2
    assert blocks[0].splitlines()[-1] == "quality: 30"
    assert blocks[1].splitlines()[-1] == "quality: 29"


def test_plan_explicit_goal_already_satisfied(run):
    code, out, _ = run("plan", "--goal", "p_on_ground(passengers1)")
    assert code == 0
    assert out == "quality: 100\n"


def test_plan_constant_scorer_changes_selection(run, tmp_path):
    kb_text = aviation_kb_path().read_text()
    kb_text = kb_text.replace(
        "plocation(passengers1, gate(seattle));", "contains(airplane1, passengers1);"
    )
    kb_text = kb_text.replace(
        "alocation(airplane1, gate(seattle));",
        "alocation(airplane1, runway(seattle));\n    on_fire(engine);",
    )
    variant = tmp_path / "burning.kb"
    variant.write_text(kb_text)
    goal = "p_on_ground(passengers1)"
    code, std, _ = run("plan", "--kb", str(variant), "--goal", goal)
    code2, const, _ = run("plan", "--kb", str(variant), "--goal", goal, "--scorer", "constant")
    assert code == 0 and code2 == 0
    assert std.splitlines() == ["evacuate(airplane1)", "quality: 89"]
    assert const.splitlines() == [
        "take_off(airplane1, seattle)",
        "cruise(airplane1, seattle, chicago)",
        "cruise(airplane1, chicago, dallas)",
        "emergency_landing(airplane1)",
        "evacuate(airplane1)",
        "quality: 0",
    ]


@pytest.mark.parametrize("flags", [(), ("--all",)])
def test_an_action_skipped_by_the_planner_keeps_its_fresh_names(run, tmp_path, flags):
    # b cannot reach the goal and is never renamed, but it still takes
    # _G1, so the names a run prints do not depend on what was skipped
    kb = tmp_path / "two.kb"
    kb.write_text(
        'action b(Y) { add: r(c); text: "b."; }\n'
        'action a(X) { add: r(d); text: "a."; }\n'
        "init { s; }\n"
        "goal r(d).\n"
    )
    assert run("plan", "--kb", str(kb), *flags) == (0, "a(_G2)\nquality: 90\n", "")


KB1 = (
    'action a(X) {pre: s; add: pa; text: "a";}\n'
    'action b(Y) {pre: pa; add: done; text: "b";}\n'
    'action c(Y) {pre: pa; add: done; text: "c";}\n'
    "init {s;}\n"
    "goal done.\n"
)


def test_every_incident_of_a_batch_plans_afresh(run, tmp_path):
    # the plan a(_G4), c(_G3) wins on term order among its _G names, so
    # the names must not depend on how many incidents came before
    kb = tmp_path / "kb1.kb"
    kb.write_text(KB1)
    code, out, err = run("generate", "--kb", str(kb), "--count", "30", "--prob", "0")
    assert (code, err) == (0, "")
    assert out.split(SEPARATOR + "\n") == ["a\nc\n"] * 30


def test_a_goal_with_fresh_names_keeps_them_apart(run, tmp_path):
    # the goal's _G2 is an input: the planner's own names start above it
    kb = tmp_path / "kb3.kb"
    kb.write_text(
        'action a(X) {pre: s; add: q(f(X)); text: "a";}\ninit {s;}\ngoal q(f(b)).\n'
    )
    assert run("plan", "--kb", str(kb), "--goal", "q(_G2)") == (0, "a(_G3)\nquality: 90\n", "")


# p(one) comes first, but its delete q(one) is absent: the event applies
# under the next solution, p(two), in every command that runs it
DELETES_KB = "action a {pre: p(X); del: q(X); add: r; text: \"a {X}\";}\n"
DELETES_INIT = "init {p(one); p(two); q(two);}\ngoal r.\n"


@pytest.mark.parametrize(
    "argv, out",
    [(("generate", "--prob", "0"), "a two\n"), (("forward",), "a\n")],
    ids=["generate", "forward"],
)
def test_an_action_applies_under_a_solution_whose_deletes_are_present(run, tmp_path, argv, out):
    kb = tmp_path / "dels.kb"
    kb.write_text(DELETES_KB + DELETES_INIT)
    assert run(*argv, "--kb", str(kb)) == (0, out, "")


def test_an_injected_happening_applies_under_a_solution_whose_deletes_are_present(
    run, tmp_path
):
    kb = tmp_path / "dels.kb"
    kb.write_text(
        'happening k {pre: p(X); del: q(X); add: s; text: "k {X}";}\n'
        'action a {pre: p(X); add: r; text: "a {X}";}\n' + DELETES_INIT
    )
    code, out, err = run("generate", "--prob", "0", "--inject", "0:k", "--kb", str(kb))
    assert (code, out, err) == (0, "k two\na one\n", "")


# ten link facts, so the planner keys them by argument; warp adds two
# that keep a variable, one of them inside f(...), and wild may add a
# bare variable fact, which meets every goal
LINKS_KB = (
    'action go(X, Y) {pre: link(X, Y), at(X); del: at(X); add: at(Y); text: "go {X} {Y}";}\n'
    'action warp(W) {pre: at(b); add: link(W, h), link(f(W), h); text: "warp {W}";}\n'
    'action wild(V) {pre: at(c); add: V, at(d); text: "wild";}\n'
    "init {\n"
    "  at(a);\n"
    "  link(a, b); link(a, c); link(b, d); link(c, d); link(d, e);\n"
    "  link(c, f(a)); link(f(a), g); link(e, g); link(h, g); link(d, f(b));\n"
    "}\n"
    "goal at(g).\n"
)


def test_plan_all_over_an_argument_keyed_group(run, tmp_path):
    # the order of the plans and every _G name hang on the order in
    # which each goal meets the facts of its group
    kb = tmp_path / "links.kb"
    kb.write_text(LINKS_KB)
    code, out, err = run("plan", "--kb", str(kb), "--all", "--max-length", "6")
    assert (code, err) == (0, "")
    plans = []
    for block in out.strip().split("\n\n"):
        *actions, quality = block.splitlines()
        plans.append(", ".join(actions) + " | " + quality.removeprefix("quality: "))
    assert plans == [
        "go(a, b), go(b, d), go(d, e), go(e, g) | 60",
        "go(a, c), wild(at(b)), go(b, d), go(d, e), go(e, g) | 50",
        "go(a, c), go(c, d), go(d, e), go(e, g) | 60",
        "go(a, c), wild(at(d)), go(d, e), go(e, g) | 60",
        "go(a, c), wild(at(e)), go(d, e), go(e, g) | 60",
        "go(a, c), wild(_G16), go(d, e), go(e, g) | 60",
        "go(a, c), wild(at(e)), go(e, g) | 70",
        "go(a, b), warp(b), go(b, h), go(h, g) | 60",
        "go(a, c), wild(at(b)), warp(b), go(b, h), go(h, g) | 50",
        "go(a, c), wild(at(b)), warp(c), go(c, h), go(h, g) | 50",
        "go(a, c), wild(at(b)), warp(d), go(d, h), go(h, g) | 50",
        "go(a, b), warp(b), go(b, d), go(d, f(b)), go(f(b), h), go(h, g) | 40",
        "go(a, c), wild(at(b)), warp(a), go(c, f(a)), go(f(a), h), go(h, g) | 40",
        "go(a, c), wild(at(b)), warp(b), go(d, f(b)), go(f(b), h), go(h, g) | 40",
        "go(a, c), wild(at(b)), warp(_G29), wild(at(f(_G29))), go(f(_G29), h), go(h, g) | 40",
        "go(a, c), wild(link(c, h)), go(c, h), go(h, g) | 60",
        "go(a, c), wild(link(d, h)), go(d, h), go(h, g) | 60",
        "go(a, c), wild(at(h)), go(h, g) | 70",
        "go(a, c), go(c, f(a)), go(f(a), g) | 70",
        "go(a, c), wild(at(f(a))), go(f(a), g) | 70",
        "go(a, c), wild(at(g)) | 80",
    ]


def test_plan_length_budget_failure(run):
    code, out, err = run("plan", "--max-length", "7")
    assert code == 1 and out == ""
    assert err == "error: no plan achieves plocation(passengers1, gate(dallas))\n"


# ------------------------------------------------------------------ explain


def test_explain_traces_back_to_the_revised_goal(run):
    code, out, _ = run(
        "explain", "--prob", "0", "--inject", "3:ill_passenger", "--step", "4"
    )
    assert code == 0
    assert out == (
        "why land(airplane1, seattle)?\n"
        "  because alocation(airplane1, runway(seattle)) is a precondition of"
        " taxi_to_gate(airplane1)\n"
        "  because alocation(airplane1, gate(seattle)) is a precondition of"
        " unload(passengers1, airplane1)\n"
        "  because plocation(passengers1, gate(seattle)) is a precondition of"
        " medical_help(passengers1)\n"
        "  because medical_help(passengers1) became the goal after ill_passenger\n"
    )


def test_explain_bad_step_index(run):
    code, _, err = run(
        "explain", "--prob", "0", "--inject", "3:ill_passenger", "--step", "40"
    )
    assert code == 1 and "out of range" in err


# ----------------------------------------------------------------- validate


def test_validate_healthy_kb(run):
    code, out, err = run("validate", "--kb", str(aviation_kb_path()))
    assert (code, err) == (0, "")
    assert out == "ok: 10 actions, 2 happenings, 6 rules, 2 revisions, 6 init facts, goal set\n"


def test_validate_broken_kb(run, tmp_path):
    bad = tmp_path / "bad.kb"
    bad.write_text("action go { add: done(X); text: \"go\"; }\ninit { here; }\ngoal done(now).\n")
    code, out, err = run("validate", "--kb", str(bad))
    assert code == 2 and out == ""
    assert "uninstantiated add" in err


def test_validate_requires_init_when_a_goal_is_declared(run, tmp_path):
    kb = tmp_path / "noinit.kb"
    kb.write_text('action a {\n  add: r;\n  text: "a.";\n}\n\ngoal r.\n')
    expected = (2, "", f"{kb}:7:1: error: missing or empty init block\n")
    assert run("plan", "--kb", str(kb)) == expected
    assert run("validate", "--kb", str(kb)) == expected


@pytest.mark.parametrize(
    "name", sorted(path.name for path in aviation_kb_path().parent.glob("*.kb"))
)
def test_every_bundled_kb_validates(run, name):
    path = data_path(name)
    code, out, err = run("validate", "--kb", str(path))
    assert code == 0
    if name == "saboteur.kb":
        # an adversary knowledge base has no goal of its own
        assert out == (
            "ok: 1 actions, 0 happenings, 0 rules, 0 revisions, 1 init facts, no goal\n"
        )
        assert err == (
            f"{path}:7:1: warning: action sabotage/1 adds nothing any goal, "
            "rule, or precondition can use\n"
        )


# ------------------------------------------------------------------ grammar


def test_grammar_enumerate_lists_incidents_and_dead_ends(run):
    code, out, err = run("grammar", "--enumerate")
    assert code == 0
    assert out == (
        "taxi transponder_broke land taxi_back\n"
        "taxi takeoff transponder_broke land taxi_back\n"
        "taxi takeoff cruise transponder_broke land taxi_back\n"
    )
    assert err == "dead end: response(bad_weather(stormy))\n"


def test_grammar_sample_seeded(run):
    code, out, _ = run("grammar", "--sample", "--seed", "0")
    assert code == 0
    assert out == "taxi takeoff transponder_broke land taxi_back\n"


def test_grammar_sample_dead_end_fails(run):
    code, _, err = run("grammar", "--sample", "--table")
    assert code == 1
    assert err.startswith("error:") and "response" in err


def test_grammar_alternate_file_and_symbol(run):
    code, out, _ = run(
        "grammar",
        "--file",
        str(data_path("rumelhart.grammar")),
        "--symbol",
        "episode",
        "--enumerate",
        "--max-depth",
        "5",
    )
    assert code == 0
    assert out.splitlines() == [
        "event plan action",
        "event plan preaction action",
    ]


def test_grammar_unknown_symbol(run):
    code, _, err = run("grammar", "--enumerate", "--symbol", "saga")
    assert code == 2 and "saga" in err


# ------------------------------------------------------------------ forward


def test_forward_prints_the_plan(run):
    code, out, _ = run("forward")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "load(passengers1, airplane1)"
    assert lines[-1] == "unload(passengers1, airplane1)"
    assert len(lines) == 8


def test_forward_adversary_renders_the_struggle(run):
    code, out, _ = run(
        "forward", "--adversary", str(data_path("saboteur.kb")), "--depth", "24"
    )
    assert code == 0
    assert out == (
        "The passengers boarded the plane.\n"
        "The plane taxiied to the runway.\n"
        "The plane took off from seattle.\n"
        "The plane cruised towards chicago.\n"
        "A saboteur set an engine fire and the plane turned back.\n"
        "The plane cruised towards chicago.\n"
        "The plane cruised towards dallas.\n"
        "The plane landed at dallas.\n"
        "The plane taxiied to the gate.\n"
        "The passengers disembarked.\n"
    )


def test_forward_takes_an_action_whose_head_keeps_a_variable(run, tmp_path):
    # a(X) binds X nowhere, but its effects are ground, so it applies
    kb = tmp_path / "open.kb"
    kb.write_text(
        'action a(X) {add: pa; text: "a {X}";}\n'
        'action b(Y) {pre: pa; add: done; text: "b {Y}";}\n'
        'action c(Y) {pre: pa; add: done; text: "c {Y}";}\n'
        "init {s;}\n"
        "goal done.\n"
    )
    assert run("plan", "--kb", str(kb)) == (0, "a(_G4)\nc(_G3)\nquality: 80\n", "")
    assert run("forward", "--kb", str(kb)) == (0, "a(_G1)\nb(_G2)\n", "")


def test_a_delete_that_keeps_a_variable_pairs_with_a_fact_in_every_command(run, tmp_path):
    # drop's delete p(X) is open after its (empty) preconditions; it
    # pairs with p(a), as the planner pairs it, and that binds X
    kb = tmp_path / "drop.kb"
    kb.write_text('action drop(X) {del: p(X); add: q; text: "drop {X}";}\ninit {p(a);}\ngoal q.\n')
    assert run("plan", "--kb", str(kb)) == (0, "drop(a)\nquality: 90\n", "")
    assert run("generate", "--prob", "0", "--kb", str(kb)) == (0, "drop a\n", "")
    assert run("forward", "--kb", str(kb)) == (0, "drop(a)\n", "")


def test_forward_adversary_gives_each_open_move_its_own_name(run, tmp_path):
    # each move comes from a query of its own, whose names count from _G1
    hero = tmp_path / "hero.kb"
    hero.write_text(
        'action a(X) {add: pa; text: "a {X}";}\n'
        'action b(Y) {pre: pa; add: done; text: "b {Y}";}\n'
        "init {s;}\n"
        "goal done.\n"
    )
    noise = tmp_path / "noise.kb"
    noise.write_text('action noise(Z) {add: loud; text: "noise {Z}";}\n')
    assert run("forward", "--kb", str(hero), "--adversary", str(noise)) == (
        0,
        "a _G1\nnoise _G2\nb _G3\n",
        "",
    )


def test_forward_depth_failure(run):
    code, _, err = run("forward", "--depth", "2")
    assert code == 1 and "within depth 2" in err


# -------------------------------------------------------------- diagnostics


def test_missing_kb_file(run):
    code, _, err = run("generate", "--kb", "nope.kb")
    assert code == 2 and "nope.kb" in err


def test_unparseable_goal(run):
    code, _, err = run("plan", "--goal", "plocation(passengers1, gate(")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("depth", [400, 3000])
@pytest.mark.parametrize(
    "argv", [("plan", "--goal", "{}"), ("generate", "--inject", "0:{}")], ids=["goal", "inject"]
)
def test_deeply_nested_term_is_bad_input(run, argv, depth):
    term = "f(" * depth + "x" + ")" * depth
    code, out, err = run(*(arg.format(term) for arg in argv))
    assert code == 2 and out == ""
    assert err == "error: input is nested too deeply\n"


def test_a_plan_too_long_for_the_recursion_limit_is_a_runtime_failure(run, tmp_path):
    # a valid 340-leg chain: the planner, not the input, runs out of frames
    names = [f"c{n}" for n in range(341)]
    chain = {parse_term(f"flight_path({a}, {b})") for a, b in zip(names, names[1:])}
    kb = replace(
        load_aviation(),
        init=frozenset(chain) | {
            parse_term("airplane(airplane1)"),
            parse_term("passengers(passengers1)"),
            parse_term("plocation(passengers1, gate(c0))"),
            parse_term("alocation(airplane1, gate(c0))"),
        },
        goal=parse_term("plocation(passengers1, gate(c340))"),
    )
    path = tmp_path / "chain.kb"
    path.write_text(serialize_kb(kb))
    assert run("plan", "--kb", str(path), "--max-length", "346") == (
        1,
        "",
        f"error: a plan of up to 346 steps needs more than Python's "
        f"{sys.getrecursionlimit()} stack frames\n",
    )


def _manifest_file(tmp_path, name, **changes):
    manifest = {
        "kb_path": str(aviation_kb_path()),
        "command": "generate",
        "mode": "table",
        "seed": None,
        "prob": 0.3,
        "max_happenings": 1,
        "injection_schedule": [],
        "style": "plain",
        "count": 1,
        "version": __version__,
    }
    manifest.update(changes)
    path = tmp_path / name
    path.write_text(json.dumps({"manifest": manifest}))
    return path


def _replay_fancy_style(tmp_path):
    path = _manifest_file(tmp_path, "fancy.json", style="fancy")
    return ["generate", "--replay", str(path)], (
        "error: malformed manifest: unknown style 'fancy' (choose from ('plain', 'storybook'))\n"
    )


def _replay_null_seed(tmp_path):
    path = _manifest_file(tmp_path, "seedless.json", mode="seed", seed=None)
    return ["generate", "--replay", str(path)], (
        "error: malformed manifest: mode 'seed' does not go with seed None\n"
    )


def _replay_bad_injection(tmp_path):
    path = _manifest_file(tmp_path, "inject.json", injection_schedule=[[0, "foo("]])
    return ["generate", "--replay", str(path)], (
        "<term>:1:5: error: expected a term, got end of input\n"
    )


def _replay_no_incidents(tmp_path):
    path = _manifest_file(tmp_path, "none.json", count=0)
    return ["generate", "--replay", str(path)], (
        "error: malformed manifest: count must be at least 1\n"
    )


def _replay_fractional_seed(tmp_path):
    path = _manifest_file(tmp_path, "seed.json", mode="seed", seed=1.5)
    return ["generate", "--replay", str(path)], (
        "error: malformed manifest: seed must be a whole number, not 1.5\n"
    )


def _replay_fractional_count(tmp_path):
    path = _manifest_file(tmp_path, "count.json", count=2.9)
    return ["generate", "--replay", str(path)], (
        "error: malformed manifest: count must be a whole number, not 2.9\n"
    )


def _replay_boolean_count(tmp_path):
    path = _manifest_file(tmp_path, "yes.json", count=True)
    return ["generate", "--replay", str(path)], (
        "error: malformed manifest: count must be a whole number, not True\n"
    )


def _replay_fractional_happenings(tmp_path):
    path = _manifest_file(tmp_path, "half.json", max_happenings=0.5)
    return ["generate", "--replay", str(path)], (
        "error: malformed manifest: max_happenings must be a whole number, not 0.5\n"
    )


def _replay_boolean_prob(tmp_path):
    path = _manifest_file(tmp_path, "sure.json", prob=True)
    return ["generate", "--replay", str(path)], (
        "error: malformed manifest: prob must be a number, not True\n"
    )


def _replay_fractional_step(tmp_path):
    path = _manifest_file(tmp_path, "step.json", injection_schedule=[[2.5, "ill_passenger"]])
    return ["generate", "--replay", str(path)], (
        "error: malformed manifest: step number must be a whole number, not 2.5\n"
    )


def _replay_table_with_seed(tmp_path):
    path = _manifest_file(tmp_path, "seeded.json", seed=7)
    return ["generate", "--replay", str(path)], (
        "error: malformed manifest: mode 'table' does not go with seed 7\n"
    )


def _replay_negative_step(tmp_path):
    path = _manifest_file(tmp_path, "early.json", injection_schedule=[[-1, "ill_passenger"]])
    return ["generate", "--replay", str(path)], (
        "error: malformed manifest: step number must not be negative\n"
    )


def _replay_repeated_step(tmp_path):
    path = _manifest_file(
        tmp_path, "twice.json", injection_schedule=[[2, "fire(engine)"], [2, "fire(engine)"]]
    )
    return ["generate", "--replay", str(path)], (
        "error: malformed manifest: duplicate injection index 2\n"
    )


def _generate_negative_step(tmp_path):
    return ["generate", "--inject=-1:ill_passenger"], "error: step number must not be negative\n"


def _generate_repeated_step(tmp_path):
    return ["generate", "--inject", "2:fire(engine)", "--inject", "2:fire(engine)"], (
        "error: duplicate injection index 2\n"
    )


def _explain_repeated_step(tmp_path):
    # the steps need not name the same happening to clash
    return [
        "explain", "--step", "1", "--inject", "3:ill_passenger", "--inject", "3:fire(engine)"
    ], "error: duplicate injection index 3\n"


def _replay_unknown_mode(tmp_path):
    path = _manifest_file(tmp_path, "banana.json", mode="banana")
    return ["generate", "--replay", str(path)], (
        "error: malformed manifest: mode must be 'table' or 'seed', not 'banana'\n"
    )


def _replay_explain_command(tmp_path):
    path = _manifest_file(tmp_path, "explain.json", command="explain")
    return ["generate", "--replay", str(path)], (
        "error: malformed manifest: command must be 'generate', not 'explain'\n"
    )


def _replay_null_kb_path(tmp_path):
    path = _manifest_file(tmp_path, "nokb.json", kb_path=None)
    return ["generate", "--replay", str(path)], (
        "error: malformed manifest: kb_path must be a string, not None\n"
    )


def _replay_not_json(tmp_path):
    path = tmp_path / "notes.txt"
    path.write_text("not json")
    return ["generate", "--replay", str(path)], (
        "error: Expecting value: line 1 column 1 (char 0)\n"
    )


def _replay_list(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    return ["generate", "--replay", str(path)], (
        f"error: {path} does not contain a manifest\n"
    )


def _replay_directory(tmp_path):
    return ["generate", "--replay", str(tmp_path)], (
        f"error: [Errno 21] Is a directory: '{tmp_path}'\n"
    )


def _kb_not_utf8(tmp_path):
    path = tmp_path / "latin1.kb"
    path.write_bytes(b"\xff\xfe init { here; }\n")
    return ["plan", "--kb", str(path)], (
        "error: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n"
    )


def _prob_out_of_range(tmp_path):
    return ["generate", "--prob", "1.5"], "error: happening_prob must lie in [0, 1]\n"


def _adversary_collides(tmp_path):
    return ["forward", "--adversary", str(aviation_kb_path())], (
        "error: antagonist actions collide with the knowledge base's: cruise/3, "
        "emergency_landing/1, evacuate/1, land/2, load/2, medical_help/1, "
        "take_off/2, taxi_to_gate/1, taxi_to_runway/1, unload/2\n"
    )


def _adversary_fails_validation(tmp_path):
    path = tmp_path / "jam.kb"
    path.write_text(
        "action jam(Airplane) {\n"
        "  pre: alocation(Airplane, near(chicago));\n"
        "  add: jammed(Whatever);\n"
        '  text: "Someone jammed {Thing}.";\n'
        "}\n"
    )
    return ["forward", "--adversary", str(path), "--depth", "24"], (
        f"{path}:1:1: error: uninstantiated add: variable Whatever of jam/1 is bound "
        "by neither head nor preconditions\n"
        f"{path}:1:1: error: template placeholder {{Thing}} of jam/1 is bound by "
        "neither head nor preconditions\n"
    )


def _plan_kb_without_goal(tmp_path):
    path = data_path("saboteur.kb")
    return ["plan", "--kb", str(path)], f"{path}:17:1: error: missing goal declaration\n"


def _forward_kb_without_goal(tmp_path):
    path = data_path("saboteur.kb")
    return ["forward", "--kb", str(path)], (
        f"{path}:17:1: error: missing goal declaration\n"
    )


@pytest.mark.parametrize(
    "case",
    [
        _prob_out_of_range,
        _replay_not_json,
        _replay_list,
        _replay_directory,
        _replay_fancy_style,
        _replay_null_seed,
        _replay_bad_injection,
        _replay_no_incidents,
        _replay_fractional_seed,
        _replay_fractional_count,
        _replay_boolean_count,
        _replay_fractional_happenings,
        _replay_boolean_prob,
        _replay_fractional_step,
        _replay_table_with_seed,
        _replay_negative_step,
        _replay_repeated_step,
        _generate_negative_step,
        _generate_repeated_step,
        _explain_repeated_step,
        _replay_unknown_mode,
        _replay_explain_command,
        _replay_null_kb_path,
        _kb_not_utf8,
        _adversary_collides,
        _adversary_fails_validation,
        _plan_kb_without_goal,
        _forward_kb_without_goal,
    ],
    ids=lambda case: case.__name__.lstrip("_"),
)
def test_bad_input_exits_2_with_its_message(run, tmp_path, case):
    argv, expected_err = case(tmp_path)
    code, out, err = run(*argv)
    assert (code, out, err) == (2, "", expected_err)


def test_a_manifest_style_is_checked_before_any_incident_runs(run, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr("incidentgen.cli.generate_incident", lambda *a: calls.append(a))
    path = _manifest_file(tmp_path, "fancy.json", style="fancy", count=2000)
    code, out, _ = run("generate", "--replay", str(path))
    assert (code, out, calls) == (2, "", [])


def test_a_stray_index_error_is_a_bug_not_a_failure(monkeypatch):
    def broken(args):
        return [][0]

    monkeypatch.setattr("incidentgen.cli.cmd_plan", broken)
    with pytest.raises(IndexError):
        main(["plan"])


def test_running_out_of_memory_is_a_runtime_failure(run, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr("incidentgen.cli.cmd_plan", exhausted)
    assert run("plan") == (1, "", "error: out of memory\n")


def test_bad_injection_syntax_is_an_argparse_error(run, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--inject", "ill_passenger"])
    assert exc.value.code == 2


def test_seed_and_table_are_exclusive(run):
    with pytest.raises(SystemExit):
        main(["generate", "--seed", "1", "--table"])


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# ------------------------------------------------------------------- errors


def test_every_public_error_carries_its_exit_status():
    errors = {
        name: obj
        for name in incidentgen.__all__
        if isinstance(obj := getattr(incidentgen, name), type)
        and issubclass(obj, BaseException)
    }
    assert all(issubclass(cls, IncidentgenError) for cls in errors.values())
    assert {name: cls.exit_status for name, cls in errors.items()} == {
        "IncidentgenError": 1,
        "ParseError": 2,
        "UnknownNonterminalError": 2,
        "UnknownScorerError": 2,
        "EmptyListError": 2,
        "NoPlanFoundError": 1,
        "StalemateError": 1,
        "PreconditionViolationError": 1,
        "InvalidInjectionError": 1,
        "UnknownEventError": 1,
        "UnboundSlotError": 1,
        "MissingDeleteFactError": 1,
        "DeadEndError": 1,
        "DepthExceededError": 1,
        "StepOutOfRangeError": 1,
    }
    # the bases callers caught before the hierarchy existed still work
    assert issubclass(errors["UnknownScorerError"], ValueError)
    assert issubclass(errors["EmptyListError"], ValueError)
    assert issubclass(errors["StepOutOfRangeError"], IndexError)
