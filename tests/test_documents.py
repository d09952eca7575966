"""JSON documents: one reader and writer, and one refusal for every malformed
document (game, QVI constants, hi2 reward config, value-strategy sequence)."""

import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sg.cli import main
from sg.game import (Action, InputError, MAX_JSON_DEPTH, MIN_PLAYER, OWNER_NAMES,
                     _json_depth, finite_number, finite_numbers, from_json_dict, load_game,
                     make_game, quotient, read_json, save_game, to_json_dict, write_json,
                     write_text)
from sg.generate import random_game
from sg.hard import Hi2Config, build_hi1, build_hi2, default_hi2_rewards
from sg.qvi import QviConstants, VSSequence, qvi_mdvss
from sg.sampler import GenerativeModel

GAME = random_game(3, 2, 0.5, seed=0)
SEQ = qvi_mdvss(GenerativeModel(GAME, master_seed=0), 2.0, 0.1, np.full(3, 2.0),
                np.zeros(3, dtype=np.int64),
                QviConstants(m1_override=8, m2_override=4, rounds_override=2))
HI2 = default_hi2_rewards(400)

UNIFORM_GAME = {"gamma": 0.9, "states": [{"owner": "min", "actions": [
    {"reward": 0.5, "uniform": True},
    {"reward": 0.25, "next": {"s": [0], "p": [1.0]}}]}]}


def legacy_document(game) -> dict:
    """The game as the writer wrote it before rows were compact: one
    ``{"s": t, "p": p}`` object per transition entry."""
    return {"gamma": game.gamma, "states": [
        {"owner": OWNER_NAMES[int(owner)], "actions": [
            {"reward": act.reward, "uniform": True} if act.uniform else
            {"reward": act.reward,
             "next": [{"s": int(t), "p": float(p)} for t, p in zip(act.next_states, act.probs)]}
            for act in acts]}
        for owner, acts in zip(game.owners, game.actions)]}


def actions_document(game) -> dict:
    """The game as the writer wrote it while it walked ``game.actions``, one
    ``Action`` per row, before it read the flat table."""
    return {"gamma": game.gamma, "states": [
        {"owner": OWNER_NAMES[int(owner)], "actions": [
            {"reward": act.reward, "uniform": True} if act.uniform else
            {"reward": act.reward,
             "next": {"s": act.next_states.tolist(), "p": act.probs.tolist()}}
            for act in acts]}
        for owner, acts in zip(game.owners, game.actions)]}


LEGACY = random_game(2, 2, 0.7, seed=2)


def stored(*docs):
    """Valid base documents, each stored again as it is given."""
    return [(doc, doc) for doc in docs]


# (parse, document of the parsed object, indent, valid base documents, each
# with the document it is stored again as)
DOCUMENTS = {
    "game": (from_json_dict, to_json_dict, 1,
             stored(to_json_dict(GAME),
                    to_json_dict(random_game(2, 2, 0.8, seed=1, deterministic=True)),
                    UNIFORM_GAME)
             + [(legacy_document(LEGACY), to_json_dict(LEGACY))]),  # the compact twin
    "constants": (QviConstants.from_json_dict, asdict, None,
                  stored(asdict(QviConstants(m1_override=7)))),
    "reward config": (Hi2Config.from_json_dict, Hi2Config.to_json_dict, None,
                      stored(HI2.to_json_dict())),
    "sequence": (VSSequence.from_json_dict, VSSequence.to_json_dict, None,
                 stored(SEQ.to_json_dict())),
}

# What a fuzzed document may hold in place of a number: huge, subnormal and
# non-finite floats and integers no float or int64 can hold; in place of any
# value, also every other JSON type.
NUMBERS = st.one_of(
    st.sampled_from([1e308, -1e308, 5e-324, -5e-324, 2.2e-308, float("inf"),
                     float("-inf"), float("nan"), 10 ** 400, -10 ** 30, 2 ** 63]),
    st.floats(), st.integers(-3, 3))
JUNK = st.one_of(
    NUMBERS, st.booleans(), st.none(), st.text(max_size=3),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1),
)


def _slots(node):
    """Every (container, key) pair below a JSON value."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield node, key
        yield from _slots(child)


@st.composite
def fuzzed(draw, bases):
    """A valid document kept as is, a non-object in its place, or the document
    after one to four edits, each replacing a number by a number, replacing
    any value, dropping a key or entry, or adding a key. Returned with the
    document a kept one is stored again as, and None for any other."""
    base, twin = draw(st.sampled_from(bases))
    doc = json.loads(json.dumps(base))
    how = draw(st.sampled_from(["keep", "top", "edit", "edit", "edit"]))
    if how == "keep":
        return doc, twin
    if how == "top":
        return draw(JUNK), None
    for edit in draw(st.lists(st.sampled_from(["number", "number", "replace", "drop", "add"]),
                              min_size=1, max_size=4)):
        slots = [(parent, key) for parent, key in _slots(doc) if edit != "number"
                 or type(parent[key]) in (int, float)]
        if not slots:
            continue
        parent, key = draw(st.sampled_from(slots))
        if edit == "number":
            parent[key] = draw(NUMBERS)
        elif edit == "replace":
            parent[key] = draw(JUNK)
        elif edit == "drop":
            del parent[key]
        else:
            (parent if isinstance(parent, dict) else doc)[draw(st.text(max_size=3))] = draw(JUNK)
    return doc, None


@pytest.mark.parametrize("kind", list(DOCUMENTS))
def test_a_fuzzed_document_round_trips_or_is_refused(kind, tmp_path_factory):
    parse, to_doc, indent, bases = DOCUMENTS[kind]
    path = str(tmp_path_factory.mktemp("docs") / "doc.json")

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(fuzzed(bases))
    def run(case):
        doc, twin = case
        write_text(path, json.dumps(doc, indent=indent))  # sg's writer refuses NaN and inf
        try:
            obj = read_json(path, parse)
        except InputError:
            assert twin is None
            return
        # an accepted document is stored again bit for bit; a valid one as
        # given, or a legacy game as its compact twin
        text = json.dumps(to_doc(obj))
        write_json(path, to_doc(obj), indent)
        assert json.dumps(to_doc(read_json(path, parse))) == text
        if twin is not None:
            assert text == json.dumps(twin)

    run()


def _seq(**change) -> str:
    return json.dumps({**SEQ.to_json_dict(), **change})


# a game in the per-entry row form, which every reader of game files accepts
PLAIN_GAME = {"gamma": 0.9, "states": [
    {"owner": "min", "actions": [{"reward": 0.5, "next": [{"s": 1, "p": 1.0}]}]},
    {"owner": "max", "actions": [{"reward": 0.0, "uniform": True}]}]}


def _game(path: tuple, value) -> str:
    """PLAIN_GAME with ``value`` set at the key path ``path``."""
    doc = json.loads(json.dumps(PLAIN_GAME))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(doc)


EXPLICIT, RESTART = ("states", 0, "actions", 0), ("states", 1, "actions", 0)


BAD_DOCUMENTS = [
    ("constants", '{"c1": "x"}'),
    ("constants", '{"c1": NaN}'),
    ("constants", '{"c2": -1.0}'),
    ("constants", '{"m1_override": 0}'),
    ("constants", '{"m1_override": 2.5}'),
    ("rewards", json.dumps({k: v for k, v in HI2.to_json_dict().items()
                            if k != "switch_rewards"})),
    ("seq", _seq(constants={"u": 1})),
    ("seq", "[1]"),
    ("seq", _seq(strategies=np.full(SEQ.strategies.shape, 0.5).tolist())),
    ("seq", _seq(values=None)),  # numpy reads null as NaN, which no file can hold
    ("seq", _seq(bogus=1)),
    ("seq", _seq(samples_used=2.7)),
    ("seq", _seq(samples_used=True)),
    ("seq", _seq(samples_used=-1)),
    ("seq", _seq(constants={**asdict(SEQ.constants), "u": "x"})),
    ("seq", _seq(constants={**asdict(SEQ.constants), "m1": 2.5})),
    ("seq", _seq(constants=None)),
    ("game", _game(RESTART + ("uniform",), "false")),
    ("game", _game(RESTART + ("uniform",), 1)),
    ("game", _game(RESTART + ("next",), [{"s": 0, "p": 1.0}])),
    ("game", _game(("extra",), 1)),
    ("game", _game(("states", 0, "extra"), 1)),
    ("game", _game(EXPLICIT + ("extra",), 1)),
    ("game", _game(EXPLICIT + ("next", 0, "extra"), 1)),
    ("game", _game(EXPLICIT + ("reward",), "0.5")),
    ("game", _game(EXPLICIT + ("reward",), True)),
    ("game", _game(("gamma",), "0.9")),
    ("game", _game(EXPLICIT + ("next", 0, "p"), "1.0")),
    ("game", _game(EXPLICIT + ("next", 0, "p"), True)),
]
BAD_IDS = ["c1-text", "c1-nan", "c2-negative", "m1-zero", "m1-fraction",
           "no-switch-rewards", "derived-constants-u-only", "top-level-list",
           "half-strategies", "values-null", "seq-extra-key", "samples-used-fraction",
           "samples-used-bool", "samples-used-negative", "derived-constants-u-text",
           "derived-constants-m1-fraction", "derived-constants-null",
           "uniform-text", "uniform-one",
           "uniform-with-next", "game-extra-key", "state-extra-key", "action-extra-key",
           "entry-extra-key", "reward-text", "reward-bool", "gamma-text", "p-text", "p-bool"]
ROUTES = {
    "constants": (QviConstants.from_json_dict,
                  ["solve", "--game", "{game}", "--method", "qvi", "--seed", "1",
                   "--eps", "0.5", "--constants", "{doc}"]),
    "rewards": (Hi2Config.from_json_dict, ["hard", "si", "--T", "400", "--rewards", "{doc}"]),
    "seq": (VSSequence.from_json_dict, ["check", "--game", "{game}", "--seq", "{doc}"]),
    "game": (from_json_dict, ["solve", "--game", "{doc}", "--method", "vi"]),
}


def test_the_plain_game_is_valid():
    # so each bad game above is refused for its one edit
    assert from_json_dict(PLAIN_GAME).n_states == 2


@pytest.mark.parametrize("route, text", BAD_DOCUMENTS, ids=BAD_IDS)
def test_a_malformed_document_is_refused_by_the_library(route, text):
    parse, _ = ROUTES[route]
    with pytest.raises(InputError):
        parse(json.loads(text))


@pytest.mark.parametrize("route, text", BAD_DOCUMENTS, ids=BAD_IDS)
def test_a_malformed_document_exits_2_with_one_json_line(route, text, tmp_path, capsys):
    game, doc = tmp_path / "g.json", tmp_path / "doc.json"
    save_game(GAME, str(game))
    doc.write_text(text)
    files = {"{game}": str(game), "{doc}": str(doc)}
    assert main([files.get(a, a) for a in ROUTES[route][1]]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and json.loads(err)["error"]


@pytest.mark.parametrize("build", [
    lambda: QviConstants(c2=-1.0),
    lambda: QviConstants(c=float("inf")),
    lambda: QviConstants(rounds_override=True),
    lambda: Hi2Config(**{**HI2.to_json_dict(), "gamma": 1.0}),
    lambda: Hi2Config(**{**HI2.to_json_dict(), "r_goal": float("nan")}),
    lambda: Hi2Config(**{**HI2.to_json_dict(), "T": 400.0}),
], ids=["c2-negative", "c-inf", "rounds-bool", "gamma-one", "r-goal-nan", "T-float"])
def test_a_library_caller_gets_the_refusal_a_file_gets(build):
    with pytest.raises(InputError, match="must be"):
        build()


SWITCH_REWARDS = [(0.5, 0.25), (1, 0.5), (0.5, np.float64(0.25)), (), (0.5, True),
                  (0.5, float("nan")), (float("-inf"),), (0.5, "0.25"), (10 ** 400,), (None,)]


@pytest.mark.parametrize("rewards", SWITCH_REWARDS, ids=repr)
def test_switch_rewards_get_the_verdict_of_each_entry(rewards):
    # a float, an int or a numpy float passes when finite; a bool, a string,
    # None, NaN, an infinity and an int past the float range do not
    doc = {**HI2.to_json_dict(), "switch_rewards": rewards}
    if all(map(finite_number, rewards)):
        assert Hi2Config(**doc).switch_rewards == rewards
    else:
        with pytest.raises(InputError, match="switch_rewards must be a tuple of finite numbers"):
            Hi2Config(**doc)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.floats(), st.integers(), st.booleans())))
def test_finite_numbers_is_finite_number_of_every_entry(values):
    assert finite_numbers(tuple(values)) == all(map(finite_number, values))


def table(game) -> list:
    """Every array of a game's table as (dtype, bytes)."""
    lay = game.layout
    return [(a.dtype.str, a.tobytes()) for a in (
        game.owners, game.space.rewards, lay.uniform_mask, lay.weights,
        lay.trans.data, lay.trans.indices, lay.trans.indptr)]


TABLE_GAMES = {
    "dense": random_game(6, 3, 0.9, seed=4),
    "deterministic": random_game(6, 3, 0.9, seed=5, deterministic=True),
    "repeated-targets": make_game(0.9, [MIN_PLAYER, MIN_PLAYER], [
        [Action(0.5, np.array([1, 1, 0]), np.array([0.25, 0.25, 0.5]))],
        [Action(0.0, np.array([0, 0]), np.array([0.5, 0.5])), Action(1.0, uniform=True)]]),
    "uniform-rows": build_hi1(48)[0],
    # the class-weighted restart law is written as explicit rows
    "weighted-quotient": quotient(build_hi2(400)[0])[0],
}


@pytest.mark.parametrize("name", list(TABLE_GAMES))
def test_both_row_forms_load_to_the_same_table(name, tmp_path):
    game = TABLE_GAMES[name]
    want = table(from_json_dict(to_json_dict(game)))
    assert table(from_json_dict(legacy_document(game))) == want
    # files as the compact writer and the per-entry writer wrote them
    compact, legacy = str(tmp_path / "compact.json"), str(tmp_path / "legacy.json")
    save_game(game, compact)
    write_json(legacy, legacy_document(game), indent=1)
    assert table(load_game(compact)) == table(load_game(legacy)) == want
    if name != "weighted-quotient":
        assert want == table(game)
    # the flat writer writes the text the per-row writer wrote, for the game
    # and for the game read from the legacy file
    for g in (game, load_game(legacy)):
        assert (json.dumps(to_json_dict(g), indent=1)
                == json.dumps(actions_document(g), indent=1))


def test_an_unreadable_file_is_refused(tmp_path):
    with pytest.raises(InputError, match="cannot read"):
        read_json(str(tmp_path / "missing.json"), from_json_dict)
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe")
    with pytest.raises(InputError, match="cannot read"):
        read_json(str(tmp_path / "binary.json"), from_json_dict)


def test_every_finite_float_and_64_bit_int_reads_back_bit_for_bit(tmp_path):
    # json.dumps writes each float's shortest repr, which the reader must
    # round back to the same double, and every int as its digits
    path = str(tmp_path / "doc.json")

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20),
           st.lists(st.integers(-2 ** 63, 2 ** 64 - 1), max_size=20))
    def run(floats, ints):
        write_json(path, {"floats": floats, "ints": ints})
        doc = read_json(path, lambda d: d)
        assert [x.hex() for x in doc["floats"]] == [x.hex() for x in floats]
        assert [type(i) for i in doc["ints"]] == [int] * len(ints) and doc["ints"] == ints

    run()


def _raw(path: tuple, text: str) -> str:
    """PLAIN_GAME with the JSON text ``text`` at the key path ``path``."""
    return _game(path, "@").replace('"@"', text)


DEEP = 2 * 10 ** 5  # a valid document this deep overflows the C stack of orjson 3.8.3
# Text the strict reader refuses, each also refused, after its parse, at
# every reader before it.
UNREADABLE = {
    "nan": _raw(EXPLICIT + ("next", 0, "p"), "NaN"),
    "infinity": _raw(EXPLICIT + ("reward",), "Infinity"),
    "minus-infinity": _raw(("gamma",), "-Infinity"),
    "1e400": _raw(EXPLICIT + ("next", 0, "p"), "1e400"),
    "target-2**64": _game(EXPLICIT + ("next", 0, "s"), 2 ** 64),
    "bom": "\ufeff" + json.dumps(PLAIN_GAME),
    "lone-surrogate-owner": _game(("states", 0, "owner"), "\ud800"),
    "nested-past-the-limit": _raw(EXPLICIT + ("reward",),
                                  "[" * MAX_JSON_DEPTH + "]" * MAX_JSON_DEPTH),
    "nested-2e5": _raw(EXPLICIT + ("reward",), "[" * DEEP + "]" * DEEP),
}


@pytest.mark.parametrize("name", list(UNREADABLE))
def test_text_the_strict_reader_refuses_exits_2_with_one_json_line(name, tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_bytes(UNREADABLE[name].encode())
    with pytest.raises(InputError):
        load_game(str(doc))
    assert main(["solve", "--game", str(doc), "--method", "vi"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and json.loads(err)["error"]


def test_a_non_finite_literal_is_named_where_it_stands(tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text('{"gamma": 0.9,\n "states": -Infinity}')
    with pytest.raises(InputError, match="non-finite number -Infinity at line 2 column 12"):
        load_game(str(doc))


def test_nesting_reads_up_to_the_limit_and_no_further(tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text("[" * MAX_JSON_DEPTH + "]" * MAX_JSON_DEPTH)
    assert depth_of(read_json(str(doc), lambda d: d)) == MAX_JSON_DEPTH
    doc.write_text("[" * (MAX_JSON_DEPTH + 1) + "]" * (MAX_JSON_DEPTH + 1))
    with pytest.raises(InputError, match=f"nesting depth {MAX_JSON_DEPTH + 1} exceeds"):
        read_json(str(doc), lambda d: d)


# JSON values whose strings hold brackets, quotes and backslashes
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(alphabet='[]{}"\\ab,:'),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(alphabet='[]{}"\\a'), inner, max_size=3),
    max_leaves=12)


def depth_of(value) -> int:
    if isinstance(value, list):
        return 1 + max(map(depth_of, value), default=0)
    if isinstance(value, dict):
        return 1 + max(map(depth_of, value.values()), default=0)
    return 0


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(JSON_VALUES, st.sampled_from([None, 1]))
def test_the_depth_scan_reads_the_nesting_the_parser_builds(value, indent):
    assert _json_depth(json.dumps(value, indent=indent).encode()) == depth_of(value)
