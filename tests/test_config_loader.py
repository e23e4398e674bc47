"""Config file loader: every section and key, its messages and its error order."""

import io
import itertools
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracpid import ClosedLoopTarget, PidGains, Plant
from fracpid.cli import ConfigError, RunConfig, build_parser, main, resolve_config

# (section, key, RunConfig attribute, raw value, parsed value) for every key
# that sets one RunConfig field of its own
FIELD_KEYS = [
    ("tune", "desired_zeta", "desired_zeta", "0.93", 0.93),
    ("tune", "q_step", "tune_q_step", "0.002", 0.002),
    ("tune", "r", "r", "2.5", 2.5),
    ("tune", "refine", "refine", "true", True),
    ("qgrid", "q_from", "q_from", "1.2", 1.2),
    ("qgrid", "q_to", "q_to", "0.8", 0.8),
    ("qgrid", "q_step", "q_step", "0.02", 0.02),
    ("scenario", "t_end", "t_end", "4", 4.0),
    ("scenario", "dt", "dt", "0.0005", 0.0005),
    ("scenario", "step_amplitude", "step_amplitude", "2", 2.0),
    ("scenario", "disturbance_amplitude", "disturbance_amplitude", "0.25", 0.25),
    ("scenario", "disturbance_time", "disturbance_time", "1.5", 1.5),
    ("output", "path", "out", "traces/run.csv", "traces/run.csv"),
]

# sections that build one object from all of their keys
OBJECT_SECTIONS = [
    ("plant", "k = 9\nzeta_ol = 0.2\nomega_n_ol = 3\n", Plant(9.0, 0.2, 3.0)),
    ("target", "zeta_cl = 0.8\nomega_n_cl = 7\nm = 12\n", ClosedLoopTarget(0.8, 7.0, 12.0)),
    ("gains", "kp = 1\nki = 2\nkd = 3\n", PidGains(1.0, 2.0, 3.0)),
    ("gains2", "kp = 4\nki = 5\nkd = 6\n", PidGains(4.0, 5.0, 6.0)),
]

# one bad body per section that can fail, in the order the loader reports
# them, with the message each one gives
BAD_SECTIONS = [
    ("plant", "k = x\nzeta_ol = 0.2\nomega_n_ol = 3\n", "[plant] k: not a number: 'x'"),
    ("target", "zeta_cl = x\nomega_n_cl = 7\n", "[target] zeta_cl: not a number: 'x'"),
    ("tune", "r = x\n", "[tune] r: not a number: 'x'"),
    ("qgrid", "q_to = x\n", "[qgrid] q_to: not a number: 'x'"),
    ("scenario", "dt = x\n", "[scenario] dt: not a number: 'x'"),
    ("gains", "kp = x\nki = 1\nkd = 1\n", "[gains] kp: not a number: 'x'"),
    ("gains2", "kp = x\nki = 1\nkd = 1\n", "[gains2] kp: not a number: 'x'"),
]

# every key of every section, in the order the loader parses them
PARSE_ORDER = {
    "plant": ["k", "zeta_ol", "omega_n_ol"],
    "target": ["zeta_cl", "omega_n_cl", "m"],
    "tune": ["desired_zeta", "q_step", "r", "refine"],
    "qgrid": ["q_from", "q_to", "q_step"],
    "scenario": ["t_end", "dt", "step_amplitude", "disturbance_amplitude", "disturbance_time"],
    "gains": ["kp", "ki", "kd"],
    "gains2": ["kp", "ki", "kd"],
}


def load(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    return resolve_config(build_parser().parse_args(["place", "--config", str(path)]))


def load_error(tmp_path, text):
    with pytest.raises(ValueError) as info:
        load(tmp_path, text)
    return str(info.value)


@pytest.mark.parametrize(
    "section,key,attr,raw,value", FIELD_KEYS, ids=[f"{s}.{k}" for s, k, *_ in FIELD_KEYS]
)
def test_field_key_sets_its_attribute(tmp_path, section, key, attr, raw, value):
    cfg = load(tmp_path, f"[{section}]\n{key} = {raw}\n")
    assert cfg == RunConfig(**{attr: value})


@pytest.mark.parametrize("section,body,expected", OBJECT_SECTIONS, ids=[s for s, *_ in OBJECT_SECTIONS])
def test_object_section_builds_its_attribute(tmp_path, section, body, expected):
    cfg = load(tmp_path, f"[{section}]\n{body}")
    assert cfg == RunConfig(**{section: expected})


def test_all_sections_together(tmp_path):
    text = "".join(f"[{s}]\n{body}" for s, body, _ in OBJECT_SECTIONS)
    by_section = {}
    for section, key, _attr, raw, _value in FIELD_KEYS:
        by_section.setdefault(section, []).append(f"{key} = {raw}\n")
    text += "".join(f"[{s}]\n" + "".join(lines) for s, lines in by_section.items())
    cfg = load(tmp_path, text)
    expected = RunConfig(
        **{s: obj for s, _body, obj in OBJECT_SECTIONS},
        **{attr: value for _s, _k, attr, _raw, value in FIELD_KEYS},
    )
    assert cfg == expected


def test_target_m_defaults_to_10(tmp_path):
    cfg = load(tmp_path, "[target]\nzeta_cl = 0.8\nomega_n_cl = 7\n")
    assert cfg.target == ClosedLoopTarget(0.8, 7.0, 10.0)


@pytest.mark.parametrize(
    "raw,value",
    [("1", True), ("true", True), ("yes", True), ("on", True),
     ("0", False), ("false", False), ("no", False), ("off", False),
     ("TRUE", True), ("Off", False)],
)
def test_boolean_spellings(tmp_path, raw, value):
    assert load(tmp_path, f"[tune]\nrefine = {raw}\n").refine is value


def test_keys_are_case_insensitive(tmp_path):
    cfg = load(tmp_path, "[plant]\nK = 9\nZeta_OL = 0.2\nomega_n_ol = 3\n")
    assert cfg.plant == Plant(9.0, 0.2, 3.0)


def test_empty_file_keeps_defaults(tmp_path):
    assert load(tmp_path, "") == RunConfig()


def test_empty_plant_section_is_skipped(tmp_path, capsys):
    path = tmp_path / "empty.ini"
    path.write_text("[plant]\n[target]\nzeta_cl = 0.8\nomega_n_cl = 7\n")
    out = io.StringIO()
    assert main(["place", "--config", str(path)], out=out) == 2
    assert out.getvalue() == ""
    assert "no plant configured" in capsys.readouterr().err


def test_default_section_alone_changes_nothing(tmp_path):
    assert load(tmp_path, "[DEFAULT]\nr = 2\n") == RunConfig()


def test_default_section_fills_every_section(tmp_path):
    cfg = load(tmp_path, "[DEFAULT]\nk = 9\n[plant]\nzeta_ol = 0.2\nomega_n_ol = 3\n")
    assert cfg.plant == Plant(9.0, 0.2, 3.0)
    message = load_error(
        tmp_path,
        "[DEFAULT]\nk = 9\n[plant]\nzeta_ol = 0.2\nomega_n_ol = 3\n"
        "[target]\nzeta_cl = 0.8\nomega_n_cl = 7\n",
    )
    assert message == "unknown key 'k' in section [target]"


@pytest.mark.parametrize(
    "text,message",
    [
        ("[bogus]\nx = 1\n", "unknown config section [bogus]"),
        ("[plant]\nk = 9\nzeta_ol = 0.2\nomega_n_ol = 3\nbogus = 1\n",
         "unknown key 'bogus' in section [plant]"),
        ("[qgrid]\nq_to = 0.8\n[output]\nformat = csv\n", "unknown key 'format' in section [output]"),
        ("[plant]\nk = 9\n", "[plant] missing keys: ['omega_n_ol', 'zeta_ol']"),
        ("[gains]\nkp = 1\nki = 2\n", "[gains] missing keys: ['kd']"),
        ("[gains2]\nkd = 1\n", "[gains2] missing keys: ['ki', 'kp']"),
        ("[target]\nzeta_cl = 0.8\nm = 10\n", "[target] needs zeta_cl and omega_n_cl"),
        ("[target]\nm = 10\n", "[target] needs zeta_cl and omega_n_cl"),
        ("[qgrid]\nq_to = abc\n", "[qgrid] q_to: not a number: 'abc'"),
        ("[target]\nzeta_cl = 0.8\nomega_n_cl = 7\nm = ten\n", "[target] m: not a number: 'ten'"),
        ("[scenario]\nt_end =\n", "[scenario] t_end: not a number: ''"),
        ("[tune]\nrefine = maybe\n", "[tune] refine: not a boolean: 'maybe'"),
        ("[plant]\nk = nan\nzeta_ol = 0.2\nomega_n_ol = 3\n", "[plant] k: not a finite number: 'nan'"),
        ("[tune]\nr = inf\n", "[tune] r: not a finite number: 'inf'"),
        ("[scenario]\ndt = -Infinity\n", "[scenario] dt: not a finite number: '-Infinity'"),
        # the constructor's own checks surface unchanged
        ("[plant]\nk = 0\nzeta_ol = 0.2\nomega_n_ol = 3\n", "plant gain k must be nonzero"),
        ("[target]\nzeta_cl = 1.5\nomega_n_cl = 7\n", "zeta_cl must lie in (0, 1]"),
        # unknown sections and keys are found before any value is parsed
        ("[plant]\nk = x\nzeta_ol = 0.2\nomega_n_ol = 3\n[bogus]\n", "unknown config section [bogus]"),
        ("[plant]\nk = x\nzeta_ol = 0.2\nomega_n_ol = 3\n[tune]\nzeta = 1\n",
         "unknown key 'zeta' in section [tune]"),
    ],
)
def test_error_messages(tmp_path, text, message):
    assert load_error(tmp_path, text) == message


def test_missing_file_is_a_config_error(tmp_path):
    args = build_parser().parse_args(["place", "--config", str(tmp_path / "absent.ini")])
    with pytest.raises(ConfigError, match="cannot read config file"):
        resolve_config(args)


BAD_PAIRS = list(itertools.combinations(BAD_SECTIONS, 2))


@pytest.mark.parametrize("first,second", BAD_PAIRS, ids=[f"{a[0]}-{b[0]}" for a, b in BAD_PAIRS])
def test_first_bad_section_in_loader_order_is_reported(tmp_path, first, second):
    # the later section comes first in the file: file order must not matter
    (s1, body1, message1), (s2, body2, _) = first, second
    assert load_error(tmp_path, f"[{s2}]\n{body2}[{s1}]\n{body1}") == message1


@pytest.mark.parametrize("section", list(PARSE_ORDER))
def test_keys_parse_in_table_order(tmp_path, section):
    # every key bad, written in reverse: the first key of the table is reported
    keys = PARSE_ORDER[section]
    body = "".join(f"{key} = bad-{key}\n" for key in reversed(keys))
    assert load_error(tmp_path, f"[{section}]\n{body}") == (
        f"[{section}] {keys[0]}: not a number: 'bad-{keys[0]}'"
    )


# ---------------------------------------------------------------------------
# round trip
# ---------------------------------------------------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
BOOL_SPELLINGS = {True: ("1", "true", "yes", "on"), False: ("0", "false", "no", "off")}
FIELD_ATTRS = {(s, k): attr for s, k, attr, _raw, _value in FIELD_KEYS}
OBJECT_FIELDS = {
    "plant": st.fixed_dictionaries(
        {"k": FINITE.filter(lambda v: v != 0.0),
         "zeta_ol": st.floats(min_value=0.0, allow_infinity=False),
         "omega_n_ol": POSITIVE}
    ),
    "target": st.fixed_dictionaries(
        {"zeta_cl": st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
         "omega_n_cl": POSITIVE},
        optional={"m": POSITIVE},
    ),
    "gains": st.fixed_dictionaries({"kp": FINITE, "ki": FINITE, "kd": FINITE}),
    "gains2": st.fixed_dictionaries({"kp": FINITE, "ki": FINITE, "kd": FINITE}),
}
BUILDERS = {"plant": Plant, "target": ClosedLoopTarget, "gains": PidGains, "gains2": PidGains}


@st.composite
def config_files(draw):
    """A config text with a random subset of keys, and the RunConfig it sets."""
    sections, expected = {}, {}
    for section, fields in OBJECT_FIELDS.items():
        if draw(st.booleans()):
            values = draw(fields)
            sections[section] = {key: repr(v) for key, v in values.items()}
            expected[section] = BUILDERS[section](**values)
    for (section, key), attr in FIELD_ATTRS.items():
        if not draw(st.booleans()):
            continue
        if attr == "refine":
            value = draw(st.booleans())
            raw = draw(st.sampled_from(BOOL_SPELLINGS[value]))
            raw = draw(st.sampled_from((raw, raw.upper())))
        elif attr == "out":
            value = raw = draw(st.text(string.ascii_letters + string.digits + "/._-", min_size=1))
        else:
            value = draw(FINITE)
            raw = repr(value)
        sections.setdefault(section, {})[key] = raw
        expected[attr] = value
    order = draw(st.permutations(list(sections)))
    text = "".join(
        f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in sections[s].items()) for s in order
    )
    return text, RunConfig(**expected)


@settings(max_examples=150, deadline=None)
@given(case=config_files())
def test_round_trip(tmp_path_factory, case):
    text, expected = case
    assert load(tmp_path_factory.mktemp("rt"), text) == expected


def _not_a_float(text):
    try:
        float(text)
    except ValueError:
        return True
    return False


NON_NUMERIC = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=12
).filter(_not_a_float)
FLOAT_KEYS = [(s, k) for s, keys in PARSE_ORDER.items() for k in keys if k != "refine"]


@settings(max_examples=150, deadline=None)
@given(where=st.sampled_from(FLOAT_KEYS), raw=NON_NUMERIC, data=st.data())
def test_non_numeric_value_names_section_and_key(tmp_path_factory, where, raw, data):
    section, key = where
    body = {key: raw}
    if section in OBJECT_FIELDS:
        valid = data.draw(OBJECT_FIELDS[section])
        body = {**{k: repr(v) for k, v in valid.items()}, **body}
    text = f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
    with pytest.raises(ConfigError) as info:
        load(tmp_path_factory.mktemp("bad"), text)
    assert str(info.value).startswith(f"[{section}] {key}: not a number: ")
