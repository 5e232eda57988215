"""Document round trips, strict parsing, submodule enumeration and the
command-line interface replayed over the shipped fixture corpus."""

import argparse
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest

from moddeg import (CompositionVectorDoc, direct_sum, enum_submodules,
                    format_document, parse_document, verify_certificate,
                    document_for)
from moddeg.cli import COMMANDS, build_parser, main
from moddeg.errors import ParseError, TooLarge, TriangularityViolated
from moddeg.fields import GF, QQ
from moddeg.fixtures import (cert_dual_eta, fixture_documents, jordan_module,
                             kron_i2, regular_module, simple_module,
                             write_fixture_files)
from moddeg.series import TriangularRep

from support import brute_submodules, submodule_point_set

F2 = GF(2)
DATA = resources.files("moddeg") / "data"


def data_path(name: str) -> str:
    return str(DATA / name)


def golden_cases() -> list:
    return json.loads((DATA / "golden.json").read_text(encoding="utf-8"))


def run_cli(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def test_shipped_fixtures_round_trip():
    names = [n for n in sorted(p.name for p in DATA.iterdir())
             if n.endswith(".json") and n != "golden.json"]
    assert len(names) >= 25
    for name in names:
        text = (DATA / name).read_text(encoding="utf-8")
        doc = parse_document(text)
        assert format_document(doc) == text, name


def test_round_trip_of_fresh_documents():
    for name, doc in fixture_documents().items():
        text = format_document(doc)
        assert format_document(parse_document(text)) == text, name


def test_eta_fixture_parses_and_verifies():
    doc = parse_document((DATA / "cert_dual_eta.json").read_text(encoding="utf-8"))
    assert doc.kind == "certificate"
    assert verify_certificate(doc.value).ok


def test_malformed_row_length_is_parse_error():
    text = format_document(document_for(simple_module(QQ)))
    payload = json.loads(text)
    payload["mats"][0] = [["1", "0"]]
    with pytest.raises(ParseError):
        parse_document(json.dumps(payload))


def test_unknown_keys_rejected():
    text = format_document(document_for(simple_module(QQ)))
    payload = json.loads(text)
    payload["extra"] = 1
    with pytest.raises(ParseError):
        parse_document(json.dumps(payload))


def test_json_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_document("{\n  broken")
    assert err.value.line is not None


def test_float_entries_rejected():
    text = format_document(document_for(simple_module(QQ)))
    payload = json.loads(text)
    payload["mats"][0] = [["1.5"]]
    with pytest.raises(ParseError):
        parse_document(json.dumps(payload))


def test_non_prime_field_rejected():
    text = format_document(document_for(simple_module(GF(3))))
    payload = json.loads(text)
    payload["field"] = {"p": 6}
    with pytest.raises(ParseError):
        parse_document(json.dumps(payload))


def test_prime_modulus_of_two_to_the_64_is_parse_error():
    payload = json.loads(format_document(document_for(simple_module(GF(3)))))
    payload["field"] = {"p": 2 ** 64}
    with pytest.raises(ParseError) as err:
        parse_document(json.dumps(payload))
    assert err.value.path == "$.field"


def assert_parse_error_at(path, site, words):
    """The document at ``path`` fails to parse at the JSON path ``site``,
    with ``words`` in the message, through ``parse_document`` and through
    ``moddeg validate`` (exit 2)."""
    with pytest.raises(ParseError) as caught:
        parse_document(Path(path).read_text(encoding="utf-8"))
    assert caught.value.path == site and words in str(caught.value)
    code, out, err = run_cli(["validate", path])
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "ParseError"
    assert error["message"] == str(caught.value)


# JSON's true and false load as Python bools, which are ints, and
# {"rationals": 1} compares equal to {"rationals": true}.
@pytest.mark.parametrize("edit, site", [
    (lambda doc: doc.update(dim=True, mats=[[["1"]], [["0"]]]), "$.dim"),
    (lambda doc: doc.update(dim=False, mats=[[], []]), "$.dim"),
    (lambda doc: doc.update(field={"rationals": 1}), "$.field"),
    (lambda doc: doc.update(field={"rationals": 1.0}), "$.field"),
    (lambda doc: doc.update(field={"p": True}), "$.field"),
], ids=["dim-true", "dim-false", "rationals-1", "rationals-1.0", "p-true"])
def test_json_boolean_is_not_an_integer_and_a_number_is_not_true(tmp_path, edit, site):
    path = edited_document(tmp_path, "rep_dual_lambda_f2.json", edit)
    words = {"$.dim": "dim must be a nonnegative integer",
             "$.field": 'field must be {"rationals": true} or {"p": <prime>}'}
    assert_parse_error_at(path, site, words[site])


def test_gf_document_with_a_fraction_entry_is_parse_error_at_the_entry(tmp_path):
    path = edited_document(tmp_path, "rep_dual_lambda_f2.json",
                           lambda doc: doc["mats"][1][1].__setitem__(0, "1/2"))
    assert_parse_error_at(path, "$.mats[1][1][0]", "not a residue: '1/2'")


def test_algebra_the_presentation_refuses_is_parse_error_at_the_algebra(tmp_path):
    path = edited_document(tmp_path, "rep_dual_lambda.json",
                           lambda doc: doc["algebra"]["radical"].append("e"))
    assert_parse_error_at(path, "$.algebra", "must be disjoint")


def test_cli_validates_over_a_61_bit_prime(tmp_path):
    path = tmp_path / "big_prime.json"
    path.write_text(format_document(document_for(simple_module(GF(2 ** 61 - 1)))),
                    encoding="utf-8")
    code, out, _ = run_cli(["validate", str(path)])
    assert code == 0 and json.loads(out)["ok"] is True


def test_document_for_needs_a_field_when_the_value_has_none():
    alg = simple_module(QQ).algebra
    for value in (alg, CompositionVectorDoc(alg, (0,))):
        with pytest.raises(TypeError):
            document_for(value)
        assert parse_document(format_document(document_for(value, QQ))).value == value


def test_enum_submodules_examples():
    s = simple_module(F2)
    assert len(enum_submodules(s)) == 2
    ss = direct_sum(s, s)
    assert len(enum_submodules(ss)) == 5
    lam = regular_module(F2, 2)
    subs = enum_submodules(lam)
    assert len(subs) == 3
    assert sorted(sub.dim for sub in subs) == [0, 1, 2]
    for sub in subs:
        assert sub.is_invariant()


def test_enum_submodules_against_independent_enumeration():
    for rep in (simple_module(F2), regular_module(F2, 2),
                direct_sum(simple_module(F2), regular_module(F2, 2)),
                kron_i2(F2)):
        if rep.dim > 3:
            continue
        fast = {submodule_point_set(sub) for sub in enum_submodules(rep)}
        slow = brute_submodules(rep)
        assert fast == slow


def test_enum_submodules_guard():
    with pytest.raises(TooLarge):
        enum_submodules(regular_module(GF(257), 2))    # 257^2 > 2^16
    with pytest.raises(TooLarge):
        enum_submodules(regular_module(QQ, 2))


def test_golden_cases_replay():
    for case in golden_cases():
        argv = [data_path(a) if a.endswith(".json") else a
                for a in case["argv"]]
        code, out, err = run_cli(argv)
        assert code == case["expect_exit"], (case["name"], err)
        if case.get("expect_stdout") is not None:
            assert out == case["expect_stdout"], case["name"]
        kinds = case.get("expect_kinds")
        if kinds:
            lines = out.splitlines()
            assert len(lines) == len(kinds), case["name"]
            for line, kind in zip(lines, kinds):
                assert parse_document(line).kind == kind


def test_cli_matches_library_on_push():
    code, out, _ = run_cli(["push-sub", data_path("cert_dual_eta.json"),
                            data_path("sub_dual_lambda_s.json")])
    assert code == 0
    sub_doc, cert_doc = [parse_document(line) for line in out.splitlines()]
    from moddeg import push_submodule
    from moddeg.fixtures import sub_dual_lambda_s
    direct = push_submodule(cert_dual_eta(QQ), sub_dual_lambda_s(QQ))
    assert sub_doc.value.space == direct.nprime.space
    assert cert_doc.value.q.mat == direct.cert.q.mat


def test_cli_vchain_outputs_documents_and_trace():
    code, out, _ = run_cli(["vchain", data_path("cert_dual_chain.json"),
                            data_path("sub_dual_soc.json")])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    nfinal, yfinal, cert = [parse_document(line) for line in lines[:3]]
    assert (nfinal.kind, yfinal.kind, cert.kind) == (
        "submodule", "submodule", "certificate")
    assert verify_certificate(cert.value).ok
    trace = json.loads(lines[3])
    assert trace["trace_dims"]


def test_cli_stdin_documents():
    import sys
    text = (DATA / "rep_dual_lambda2.json").read_text(encoding="utf-8")
    stdin = io.StringIO(text)
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdin
    sys.stdin = stdin
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["validate", "-"])
    finally:
        sys.stdin = old
    assert code == 0


def test_cli_reads_stdin_documents_in_argument_order():
    m, n = "rep_kron_dtr_s1.json", "rep_kron_r_s1.json"
    stdin = "".join((DATA / name).read_text(encoding="utf-8") for name in (m, n))
    assert run_cli(["hom", "-", "-"], stdin) == run_cli(
        ["hom", data_path(m), data_path(n)]) == (0, "3\n", "")
    assert run_cli(["hom", "-", "-"], stdin.splitlines()[0])[0] == 2


def test_cli_deform_reads_cvector_from_stdin():
    ladder, cvec = data_path("ladder_r2_trivial.json"), data_path("cvec_r2.json")
    from_stdin = run_cli(["deform", ladder, "--t", "0", "--cvec", "-"],
                         (DATA / "cvec_r2.json").read_text(encoding="utf-8"))
    assert from_stdin == run_cli(["deform", ladder, "--t", "0", "--cvec", cvec])
    assert from_stdin[0] == 0 and from_stdin[1].count("\n") == 1


def test_cli_calls_in_a_row_share_no_parse_state():
    # The parser is built once; each call must still see only its own
    # arguments, the ``nargs="+"`` list of hom-defect included.
    i2, r_s1, dtr = (data_path(f"rep_kron_{name}.json")
                     for name in ("i2", "r_s1", "dtr_s1"))
    assert build_parser() is build_parser()
    assert run_cli(["hom-defect", i2, r_s1, dtr, dtr]) == (0, "[1, 1]\n", "")
    assert run_cli(["hom", dtr, r_s1]) == (0, "3\n", "")
    assert run_cli(["hom-defect", data_path("rep_kron_rprime.json"),
                    data_path("rep_kron_s1_s2.json"), dtr]) == (0, "[3]\n", "")
    assert run_cli(["hom-defect", i2, r_s1, dtr]) == (0, "[1]\n", "")


def cli_commands() -> set:
    parser = build_parser()
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    return set(sub.choices)


def test_readme_lists_every_cli_command():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    listed = [line.split()[1] for line in block.splitlines()
              if line.startswith("moddeg ")]
    assert len(listed) == len(set(listed))
    assert set(listed) == cli_commands()


def test_golden_cases_cover_every_cli_command():
    assert {case["argv"][0] for case in golden_cases()} == cli_commands()


def test_cli_non_utf8_file_is_parse_error(tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run_cli(["validate", str(path)])
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "ParseError"
    assert error["message"].endswith(f"at {path}")


def test_cli_error_is_structured_json():
    code, out, err = run_cli(["validate", "/nonexistent/file.json"])
    assert code == 2
    payload = json.loads(err)
    assert "error" in payload and "message" in payload


def test_cli_invalid_representation_exits_one():
    bad = format_document(document_for(simple_module(QQ)))
    payload = json.loads(bad)
    payload["mats"][1] = [["1"]]     # X acts invertibly: relation fails
    path = Path("/tmp/moddeg_bad_rep.json")
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, out, _ = run_cli(["validate", str(path)])
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False


def test_cli_field_mismatch_between_documents():
    other = format_document(document_for(simple_module(GF(3))))
    path = Path("/tmp/moddeg_f3_rep.json")
    path.write_text(other, encoding="utf-8")
    code, _, err = run_cli(["hom", data_path("rep_dual_lambda2.json"), str(path)])
    assert code == 2
    assert json.loads(err)["error"] == "FieldMismatch"


def test_series_iso_witness_map_document_round_trips():
    code, out, err = run_cli(["series-iso", data_path("rep_nilp3_mu.json"),
                              data_path("rep_nilp3_mu.json")])
    assert (code, err) == (0, "")
    doc = parse_document(out)
    assert doc.kind == "map" and doc.value.is_intertwiner()
    assert format_document(doc) == out


def test_cli_document_of_the_wrong_kind_is_parse_error():
    code, out, err = run_cli(["hom", data_path("cert_dual_eta.json"),
                              data_path("rep_dual_lambda.json")])
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert payload["error"] == "ParseError"
    assert "got 'certificate'" in payload["message"]


def test_cli_series_iso_refuses_different_algebras():
    code, out, err = run_cli(["series-iso", data_path("rep_dual_s3.json"),
                              data_path("rep_nilp3_type111.json")])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "AlgebraMismatch"


def test_cli_zero_denominator_is_parse_error(tmp_path):
    payload = json.loads(format_document(document_for(simple_module(QQ))))
    payload["mats"][1] = [["1/0"]]
    path = tmp_path / "zero_den.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, out, err = run_cli(["validate", str(path)])
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "ParseError"
    assert "zero denominator" in error["message"]


@pytest.mark.parametrize("site, mutate", [
    ("relations[0][0]", lambda alg: alg["relations"][0][0][1].__setitem__(0, [])),
    ("idempotents", lambda alg: alg["idempotents"].__setitem__(0, [])),
    ("radical", lambda alg: alg["radical"].__setitem__(0, {})),
    ("unit", lambda alg: alg.__setitem__("unit", ["e"])),
    ("name", lambda alg: alg.__setitem__("name", ["k[X]/(X^2)"])),
], ids=["relation-word", "idempotents", "radical", "unit", "name"])
def test_cli_non_string_generator_name_is_parse_error(tmp_path, site, mutate):
    payload = json.loads((DATA / "rep_dual_lambda.json").read_text(encoding="utf-8"))
    mutate(payload["algebra"])
    path = tmp_path / "bad_name.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, out, err = run_cli(["validate", str(path)])
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "ParseError"
    assert error["message"].endswith(f"at $.algebra.{site}")


@pytest.mark.parametrize("value", ["abc", "1/0", "0,abc"])
def test_cli_deform_bad_parameter_is_parse_error(value):
    code, out, err = run_cli(["deform", data_path("ladder_nilp3_corner.json"),
                              "--t", value])
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "ParseError"
    assert error["message"].endswith("at --t")


@pytest.mark.parametrize("name, site, mutate", [
    ("ladder_nilp3_corner.json", "x", lambda doc: doc.__setitem__("x", None)),
    ("ladder_nilp3_corner.json", "m_stages", lambda doc: doc.__setitem__("m_stages", 3)),
    ("ladder_nilp3_corner.json", "n_stages", lambda doc: doc.__setitem__("n_stages", 1.5)),
    ("sub_dual_soc.json", "basis[0]", lambda doc: doc["basis"].__setitem__(0, None)),
], ids=["ladder-x", "ladder-m_stages", "ladder-n_stages", "submodule-basis-row"])
def test_cli_non_list_payload_is_parse_error(tmp_path, name, site, mutate):
    payload = json.loads((DATA / name).read_text(encoding="utf-8"))
    mutate(payload)
    path = tmp_path / "bad_list.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, out, err = run_cli(["validate", str(path)])
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "ParseError"
    assert error["message"].endswith(f"at $.{site}")


@pytest.mark.parametrize("argv", [["check-ladder"], ["make-monic"],
                                  ["deform", "--t", "0"], ["psi"]],
                         ids=lambda argv: argv[0])
def test_cli_ladder_without_columns_is_parse_error_at_x(tmp_path, argv):
    path = edited_document(tmp_path, "ladder_nilp3_corner.json",
                           lambda doc: doc.__setitem__("x", []))
    code, out, err = run_cli(argv[:1] + [path] + argv[1:])
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "ParseError"
    assert error["message"] == "a ladder needs at least one column at $.x"


FUZZ_VALUES = ([], {}, None, 0, 1.5, "x", "1/0")


def mutate_document(doc, rng):
    """Replace the value at a random JSON path of ``doc`` with one of
    FUZZ_VALUES, or delete it when it is an object key.  The path is a
    random walk from the root that stops at each level with probability
    1/2, so top-level keys are mutated as often as deep matrix entries."""
    parent, key = doc, rng.choice(list(doc))
    while isinstance(parent[key], (dict, list)) and parent[key] and rng.random() < 0.5:
        parent = parent[key]
        key = rng.choice(list(parent) if isinstance(parent, dict) else range(len(parent)))
    choices = FUZZ_VALUES + (("delete",) if isinstance(parent, dict) else ())
    value = rng.choice(choices)
    if value == "delete":
        del parent[key]
    else:
        parent[key] = json.loads(json.dumps(value))


def test_mutated_shipped_documents_parse_or_raise_parse_error():
    docs = [json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(DATA.iterdir(), key=lambda p: p.name)
            if path.name.endswith(".json") and path.name != "golden.json"]
    rng = random.Random(20140)
    escaped = []
    for _ in range(3000):
        doc = json.loads(json.dumps(rng.choice(docs)))
        mutate_document(doc, rng)
        text = json.dumps(doc)
        try:
            parse_document(text)
        except ParseError:
            pass
        except Exception as err:   # anything else would be a traceback, exit 1
            escaped.append(f"{type(err).__name__}: {err} on {text[:120]}")
    assert not escaped, escaped[:3]


@pytest.mark.parametrize("cert", ["cert_nilp3_21.json", "cert_nilp3_32.json"])
def test_cli_vchain_refuses_a_submodule_larger_than_the_m_slot(cert):
    code, out, err = run_cli(["vchain", data_path(cert),
                              data_path("sub_dual_lambda_s.json")])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "AlgebraMismatch"


@pytest.mark.parametrize("m, n, error", [
    ("rep_r2_mu.json", "rep_kron_dtr_s1.json", "AlgebraMismatch"),
    ("rep_r2_mu.json", "rep_r2_nu.json", "AlgebraMismatch"),
    ("rep_nilp3_type3.json", "rep_dual_lambda2.json", "AlgebraMismatch"),
    ("rep_dual_lambda2.json", "rep_nilp3_type3.json", "AlgebraMismatch"),
    ("rep_dual_lambda.json", "rep_dual_lambda2.json", "DimensionMismatch"),
])
def test_cli_oracle_nilp_refuses_incomparable_modules(m, n, error):
    code, out, err = run_cli(["oracle-nilp", data_path(m), data_path(n)])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize("files", [
    ("rep_kron_s1_s2.json", "rep_nilp3_nu.json",
     "series_bidir_m.json", "series_bidir_m.json"),
    ("rep_dual_lambda_s2.json", "rep_dual_lambda_s2.json",
     "series_dual_lambda2.json", "series_dual_lambda2.json"),
    ("rep_dual_lambda2.json", "rep_dual_lambda_s2.json",
     "series_dual_lambda2.json", "series_dual_lambda2.json"),
])
def test_cli_sim_tri_refuses_series_of_other_modules(files):
    code, out, err = run_cli(["sim-tri", *map(data_path, files)])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "NotSubmodule"


def test_non_triangular_generators_are_refused_by_name():
    """The Jordan block of type (3) is not upper triangular: the library
    refuses it as a triangular form and names the generator, and the
    commands that need a triangular form exit 2 with that error."""
    with pytest.raises(TriangularityViolated, match="'x'"):
        TriangularRep(jordan_module(QQ, 3, (3,)))
    rep = data_path("rep_nilp3_type3.json")
    for argv in (["orbit-dim", "--ud", rep], ["series-iso", rep, rep]):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "TriangularityViolated"


# Values for the options that take a plain value rather than a document.
SWEEP_VALUES = {"--t": "0,1"}


def test_cli_sweep_over_shipped_documents():
    """Every command on seeded draws of shipped documents of the kinds it
    accepts: the exit code is 0, 1 or 2, nothing escapes ``main``, and an
    exit 2 ends with a JSON error line on stderr."""
    by_kind = {}
    for path in sorted(DATA.iterdir(), key=lambda p: p.name):
        if path.name.endswith(".json") and path.name != "golden.json":
            kind = json.loads(path.read_text(encoding="utf-8"))["kind"]
            by_kind.setdefault(kind, []).append(str(path))
    rng = random.Random(2014)
    bad = []
    for _ in range(20):
        for name, command in COMMANDS.items():
            argv = [name]
            for arg, kinds, options in command.args:
                pool = [p for kind in kinds for p in by_kind.get(kind, [])]
                if not arg.startswith("--"):
                    count = rng.randint(1, 3) if options.get("nargs") == "+" else 1
                    argv += [rng.choice(pool) for _ in range(count)]
                elif kinds or options.get("action") == "store_true":
                    if rng.random() < 0.5:
                        argv += [arg, rng.choice(pool)] if kinds else [arg]
                else:
                    argv += [arg, SWEEP_VALUES[arg]]
            try:
                code, _, err = run_cli(argv)
            except Exception as exc:   # a traceback in the shell
                bad.append(f"{argv}: {type(exc).__name__}: {exc}")
                continue
            if code not in (0, 1, 2):
                bad.append(f"{argv}: exit {code}")
            elif code == 2 and "error" not in json.loads(err.splitlines()[-1]):
                bad.append(f"{argv}: no JSON error on stderr")
    assert bad == []


def test_shipped_corpus_is_what_the_fixtures_write(tmp_path):
    write_fixture_files(tmp_path)
    shipped = {p.name: p.read_bytes() for p in DATA.iterdir()
               if p.name.endswith(".json") and p.name != "golden.json"}
    written = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(written) == sorted(shipped)
    assert [n for n in written if written[n] != shipped[n]] == []


def edited_document(tmp_path, name, edit):
    doc = json.loads((DATA / name).read_text(encoding="utf-8"))
    edit(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def set_flag(i, columns):
    def edit(doc):
        doc["flags"][i] = columns
    return edit


def reverse_factors(doc):
    doc["factors"].reverse()


# One edit per way a series document can fail to be a composition series:
# a rank-deficient flag, flags that do not nest, a flag that is not
# invariant (X maps the first unit vector to the second), and factors that
# name the wrong simple quotients.
@pytest.mark.parametrize("name, edit, site, words", [
    ("series_dual_lambda2.json",
     set_flag(1, [["0", "0"], ["1", "1"], ["0", "0"], ["0", "0"]]),
     "flags[1]", "dimension 1, not 2"),
    ("series_dual_lambda2.json",
     set_flag(1, [["1", "0"], ["0", "0"], ["0", "1"], ["0", "0"]]),
     "flags[1]", "does not contain the previous flag"),
    ("series_dual_lambda2.json",
     set_flag(0, [["1"], ["0"], ["0"], ["0"]]),
     "flags[0]", "not invariant"),
    ("series_bidir_m.json", reverse_factors,
     "factors[0]", "does not act as the identity"),
], ids=["rank", "nesting", "invariance", "factors"])
@pytest.mark.parametrize("command", ["triangularize", "comp-vector"])
def test_cli_series_that_is_not_a_composition_series_is_parse_error(
        tmp_path, name, edit, site, words, command):
    code, out, err = run_cli([command, edited_document(tmp_path, name, edit)])
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "ParseError"
    assert error["message"].endswith(f"at $.{site}")
    assert words in error["message"]


def test_cli_psi_of_a_zero_dimensional_representation_exits_two(tmp_path):
    def empty(doc):
        doc["dim"], doc["mats"] = 0, [[], []]
    path = edited_document(tmp_path, "rep_dual_lambda.json", empty)
    code, out, err = run_cli(["psi", path])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "DimensionMismatch"


def test_cli_commands_reject_documents_over_two_algebras():
    """Every command that reads two or more documents exits 2 on seeded
    draws of shipped documents that share a field but span two
    algebras."""
    docs = {}
    for path in sorted(DATA.iterdir(), key=lambda p: p.name):
        if path.name.endswith(".json") and path.name != "golden.json":
            doc = json.loads(path.read_text(encoding="utf-8"))
            docs.setdefault(doc["kind"], []).append(
                (str(path), json.dumps(doc["field"]), json.dumps(doc["algebra"])))
    rng = random.Random(2014)
    bad = []
    for name, command in COMMANDS.items():
        if sum(1 for _, kinds, _ in command.args if kinds) < 2:
            continue
        drawn = 0
        while drawn < 30:
            argv, picks = [name], []
            for arg, kinds, options in command.args:
                if not kinds:
                    if arg in SWEEP_VALUES:
                        argv += [arg, SWEEP_VALUES[arg]]
                    continue
                pool = [d for kind in kinds for d in docs.get(kind, [])]
                count = rng.randint(1, 3) if options.get("nargs") == "+" else 1
                chosen = [rng.choice(pool) for _ in range(count)]
                picks += chosen
                paths = [path for path, _, _ in chosen]
                argv += [arg, *paths] if arg.startswith("--") else paths
            if len({f for _, f, _ in picks}) > 1 or len({a for _, _, a in picks}) < 2:
                continue
            drawn += 1
            code, _, err = run_cli(argv)
            if code != 2:
                bad.append(f"{' '.join(Path(a).name for a in argv)}: exit {code}")
    assert bad == []


@pytest.mark.parametrize("side", ["m_inc", "n_inc"])
def test_cli_psi_refuses_a_ladder_whose_border_is_not_a_chain(tmp_path, side):
    def zero_inclusion(doc):
        doc[side][1] = [["0", "0"]] * 3
    path = edited_document(tmp_path, "ladder_nilp3_corner.json", zero_inclusion)
    code, out, err = run_cli(["psi", path])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "NotSubmodule"
    assert run_cli(["check-ladder", path])[0] == 1


@pytest.mark.parametrize("entry", ["e1", "e2"])
def test_cli_deform_refuses_a_cvector_over_another_algebra(tmp_path, entry):
    def over_three(doc):
        doc["entries"] = [entry] * 3
    cvec = edited_document(tmp_path, "cvec_r2.json", over_three)
    code, out, err = run_cli(["deform", data_path("ladder_nilp3_corner.json"),
                              "--t", "0,1", "--cvec", cvec])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "AlgebraMismatch"
