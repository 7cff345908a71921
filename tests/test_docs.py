"""The operator docs cannot drift from the code.

Every ``--flag``, ``xks_*`` series name and HTTP endpoint that
``README.md``, ``DESIGN.md``, ``docs/*.md`` or ``docs/slo_rules.yml``
mentions must exist, and every ``xksearch serve`` flag, ``xks_*`` name
and endpoint that exists must be mentioned somewhere.  What exists comes
from the code itself:

* flags — the ``xksearch`` argparse parser (plus the ``add_argument``
  calls of the scripts under ``scripts/`` and ``benchmarks/``, whose
  flags the docs also cite);
* ``xks_*`` names — string literals under ``src/repro`` that are exactly
  one name;
* endpoints — the server's ``_KNOWN_ENDPOINTS``.
"""

import ast
import itertools
import re
from pathlib import Path

from repro.xksearch.cli import make_parser
from repro.xksearch.server import _KNOWN_ENDPOINTS

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md",
        *sorted((ROOT / "docs").glob("*.md")), ROOT / "docs" / "slo_rules.yml"]

#: Flags of tools outside this repository that the docs cite.
EXTERNAL_FLAGS = {"--benchmark-only"}  # pytest-benchmark

_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
_NAME = re.compile(r"xks_[a-z0-9_{},*]*")
# An endpoint is a path opened by a backtick, "GET ", a host:port, or a
# PromQL matcher / alternation, and closed by a delimiter.
_ENDPOINT = re.compile(
    r"(?:(?<![^\s(|])`|GET |:\d+|=~?\"|\|)"
    r"(/(?:[a-z_]+(?:/[a-z_]+)*)?)(?=[`?\s\"|\\)]|$)"
)
_HISTOGRAM_SUFFIXES = ("_bucket", "_count", "_sum")


def doc_text():
    return "\n".join(path.read_text(encoding="utf-8") for path in DOCS)


def expand_name(token):
    """``xks_a_{b,c}_total{label}`` → names ``xks_a_b_total``,
    ``xks_a_c_total`` and whether the token is a prefix (``xks_a_*``)."""
    parts, rest = [], token
    while rest:
        head = re.match(r"[a-z0-9_]*", rest).group(0)
        parts.append([head])
        rest = rest[len(head):]
        group = re.match(r"\{([a-z0-9_,]+)\}(?=[a-z0-9_])", rest)
        if group is None:
            break  # a label set, a star or the end
        parts.append(group.group(1).split(","))
        rest = rest[group.end():]
    prefix = rest.startswith("*") or parts[-1][-1].endswith("_")
    return {"".join(choice) for choice in itertools.product(*parts)}, prefix


def mentioned_names(text):
    names, prefixes = set(), set()
    for token in _NAME.findall(text):
        expanded, prefix = expand_name(token)
        (prefixes if prefix else names).update(expanded)
    return names, prefixes


def existing_names():
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if re.fullmatch(r"xks_[a-z0-9_]+", node.value):
                    names.add(node.value)
    return names


def resolve(name, existing):
    """A histogram's ``_bucket``/``_count``/``_sum`` series name its family."""
    if name not in existing:
        for suffix in _HISTOGRAM_SUFFIXES:
            if name.endswith(suffix) and name[: -len(suffix)] in existing:
                return name[: -len(suffix)]
    return name


def parser_flags():
    """``{subcommand: {flag, ...}}`` of the ``xksearch`` CLI."""
    (subparsers,) = [
        action for action in make_parser()._actions
        if hasattr(action, "choices") and isinstance(action.choices, dict)
    ]
    return {
        command: {
            option for action in sub._actions for option in action.option_strings
            if option.startswith("--")
        }
        for command, sub in subparsers.choices.items()
    }


def script_flags():
    flags = set()
    for path in [*(ROOT / "scripts").glob("*.py"), *(ROOT / "benchmarks").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"
            ):
                flags.update(
                    arg.value for arg in node.args
                    if isinstance(arg, ast.Constant) and str(arg.value).startswith("--")
                )
    return flags


def test_every_documented_flag_exists():
    known = set().union(*parser_flags().values()) | script_flags() | EXTERNAL_FLAGS
    assert set(_FLAG.findall(doc_text())) - known == set()


def test_every_serve_flag_is_documented():
    serve = parser_flags()["serve"] - {"--help"}
    assert serve - set(_FLAG.findall(doc_text())) == set()


def test_every_documented_series_exists():
    existing = existing_names()
    names, prefixes = mentioned_names(doc_text())
    assert {resolve(name, existing) for name in names} - existing == set()
    assert {p for p in prefixes if not any(e.startswith(p) for e in existing)} == set()


def test_every_series_is_documented():
    existing = existing_names()
    names, _ = mentioned_names(doc_text())
    assert existing - {resolve(name, existing) for name in names} == set()


def test_every_documented_endpoint_exists():
    assert set(_ENDPOINT.findall(doc_text())) - set(_KNOWN_ENDPOINTS) == set()


def test_every_endpoint_is_documented():
    assert set(_KNOWN_ENDPOINTS) - set(_ENDPOINT.findall(doc_text())) == set()


def test_deleted_surfaces_stay_deleted():
    text = doc_text()
    for gone in ("--export-url", "--export-timeout", "--log-sample", "/debug/heap",
                 "xks_export_retries_total", "xks_export_queue_depth",
                 "xks_log_sampled_total"):
        assert gone not in text, gone
