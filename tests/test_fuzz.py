"""Every parser accepts its input or raises its one typed error, and the
command line answers every argv with exit 0, 1 or 2 (or argparse's
SystemExit), never a traceback."""

import argparse
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from braidcover.cli import build_parser, main
from braidcover.identities import paper_claims
from braidcover.presentations import Presentation, PresentationFormatError, finite_group_presentation
from braidcover.rewriting import CertificateFormatError, Derivation
from braidcover.words import WordFormatError, format_word, parse_word

# tokens near the word grammar, and junk
tokens = st.one_of(
    st.from_regex(r"[srt][0-9]{1,3}(\^-1)?", fullmatch=True),
    st.text(alphabet="srtq^-0123456789", max_size=5),
    st.text(max_size=4),
)
word_texts = st.lists(tokens, max_size=5).map(" ".join)


@given(st.one_of(word_texts, st.text(max_size=30)))
def test_parse_word_raises_only_its_error(text):
    try:
        w = parse_word(text)
    except WordFormatError:
        return
    assert parse_word(format_word(w)) == w


presentation_texts = st.one_of(
    st.text(max_size=40),
    st.builds(
        lambda name, gens, relators: "\n".join(["presentation " + name, "generators " + gens,
                                                *relators]),
        st.text(max_size=5), word_texts, st.lists(word_texts, max_size=3)),
)


@given(presentation_texts)
def test_presentation_from_text_raises_only_its_error(text):
    try:
        p = Presentation.from_text(text)
    except PresentationFormatError:
        return
    assert Presentation.from_text(p.to_text()) == p


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 10**20), st.floats(), st.text(max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=8,
)
step_dicts = st.fixed_dictionaries({}, optional={
    "action": st.one_of(st.sampled_from(("FreeCancel", "FreeInsert", "InsertRelatorConjugate",
                                         "DeleteRelatorConjugate")), json_values),
    "position": st.one_of(st.integers(-2, 20), json_values),
    "relator_index": st.one_of(st.integers(-2, 20), json_values),
    "inverse_flag": json_values,
    "conjugator": st.one_of(word_texts, json_values),
})
certificates = st.fixed_dictionaries({}, optional={
    "format": st.one_of(st.just("derivation-v1"), json_values),
    "from": st.one_of(word_texts, json_values),
    "to": st.one_of(word_texts, json_values),
    "steps": st.one_of(st.lists(st.one_of(step_dicts, json_values), max_size=4), json_values),
})


@given(st.one_of(st.text(max_size=40), json_values.map(json.dumps), certificates.map(json.dumps)))
def test_from_json_raises_only_its_error(text):
    try:
        d = Derivation.from_json(text)
    except CertificateFormatError:
        return
    assert Derivation.from_json(d.to_json()) == d


def test_from_json_rejects_deep_nesting():
    with pytest.raises(CertificateFormatError, match="not JSON"):
        Derivation.from_json("[" * 100_000)


# ---------------------------------------------------------------------------
# the command line


def _argv(tmp_path):
    """argv for every subcommand of the parser: each positional and option
    takes a value from its choices, a strand count in -1..4, a word text, a
    claim label, or junk, and an option may be left out.  --out is always
    given, under tmp_path, and a presentation file holds a finite
    presentation, a near-miss or junk."""
    presentation = tmp_path / "presentation.txt"

    def write(text):
        presentation.write_text(text)
        return str(presentation)

    files = st.one_of(
        st.sampled_from(["Q8", "Ostar"]).map(lambda f: finite_group_presentation(f).to_text()),
        presentation_texts,
    ).map(write) | st.just(str(tmp_path / "missing.txt"))
    junk = st.text(alphabet="srt^-0123456789 x", max_size=6)
    claims = st.sampled_from(sorted(c.label for c in paper_claims(4))) | junk

    def values(action):
        if action.choices:
            return st.sampled_from(sorted(action.choices)) | junk
        if action.type is int:  # junk here must not parse as a larger n
            return st.integers(-1, 4).map(str) | st.sampled_from(["", "x", "2.5", "0x3", "s1"])
        special = {"out": st.just(str(tmp_path / "scene")), "presentation_file": files,
                   "claim_id": claims}
        return special.get(action.dest, word_texts | junk)

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    commands = []
    for name, parser in sub.choices.items():
        parts = []
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            if not action.option_strings:
                parts.append(values(action).map(lambda v: [v]))
            elif action.nargs == 0:
                parts.append(st.sampled_from(([], action.option_strings[:1])))
            else:
                flag = action.option_strings[0]
                given = values(action).map(lambda v, f=flag: [f, v])
                # --out is always given: nothing is written outside tmp_path
                parts.append(given if action.dest == "out" else st.just([]) | given)
        commands.append(st.tuples(*parts).map(lambda ps, n=name: [n, *sum(ps, [])]))
    return st.one_of(commands)


def test_cli_never_raises(tmp_path, capsys):
    argvs = _argv(tmp_path)

    @settings(max_examples=120, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argvs)
    def run(argv):
        try:
            code = main(argv)
        except SystemExit:
            return
        assert code in (0, 1, 2), argv
        err = capsys.readouterr().err
        assert "Traceback" not in err

    run()
