"""docs/slo_rules.yml stays true to the series the server exposes.

The SLOs are evaluated by Prometheus, not in-process, so nothing else
would notice a rule that reads a renamed series, a dropped label or a
bucket bound that no longer exists: the rule would silently select
nothing and never fire.  This test scrapes a live ``/metrics`` and checks
every selector in the rules file against it.
"""

import math
import re
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.xksearch.engine import FREQUENCY_BANDS
from repro.xksearch.server import _KNOWN_ENDPOINTS, make_server
from repro.xksearch.system import XKSearch
from repro.xmltree.generate import school_tree

yaml = pytest.importorskip("yaml")

RULES = Path(__file__).resolve().parents[2] / "docs" / "slo_rules.yml"

#: Today's objectives: (good-event fraction, latency threshold in ms).
OBJECTIVES = {
    "search-availability": (0.999, None),
    "exec-latency": (0.99, 100.0),
    "exec-latency-heavy": (0.99, 250.0),
}
#: severity -> (burn rate, short window, long window, for).
BURN_RULES = {"fast": (14.4, "5m", "1h", "1m"), "slow": (6.0, "1h", "6h", "5m")}

_SELECTOR = re.compile(r"\b(xks_[a-zA-Z0-9_]+)(?:\{([^}]*)\})?")
_MATCHER = re.compile(r'(\w+)\s*(=~|!~|!=|=)\s*"([^"]*)"')
_BURN = re.compile(r'slo:sli_error:ratio_rate(\w+)\{slo="([^"]+)"\}\s*>=\s*([\d.]+)')
_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{([^}]*)\})? ")


@pytest.fixture(scope="module")
def rules():
    with open(RULES, encoding="utf-8") as handle:
        groups = yaml.safe_load(handle)["groups"]
    return [rule for group in groups for rule in group["rules"]]


@pytest.fixture(scope="module")
def exposition():
    """``{family: (kind, label names, rendered le values)}`` from one
    scrape after one OK and one 400 search."""
    server = make_server(XKSearch.from_tree(school_tree()), port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    base = f"http://{host}:{port}"
    try:
        with urllib.request.urlopen(f"{base}/api/search?q=john", timeout=10):
            pass
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(f"{base}/api/search?q=john&limit=-1", timeout=10)
        with urllib.request.urlopen(f"{base}/metrics", timeout=10) as response:
            body = response.read().decode("utf-8")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    kinds = dict(
        line.split()[2:4] for line in body.splitlines() if line.startswith("# TYPE ")
    )
    families = {name: (kind, set(), []) for name, kind in kinds.items()}
    for line in body.splitlines():
        match = _SAMPLE.match(line)
        if match is None:
            continue
        family = _family(match.group(1), kinds)
        labels = {k: v for k, _, v in _MATCHER.findall(match.group(2) or "")}
        families[family][1].update(labels)
        if "le" in labels:
            families[family][2].append(labels["le"])
    return families


def _family(name, kinds):
    """The exposed family a sample or selector name belongs to."""
    for suffix in ("_bucket", "_count", "_sum"):
        base = name[: -len(suffix)]
        if name.endswith(suffix) and kinds.get(base) == "histogram":
            return base
    return name


def test_every_selector_reads_an_exposed_series(rules, exposition):
    kinds = {name: entry[0] for name, entry in exposition.items()}
    selectors = [m for rule in rules for m in _SELECTOR.findall(rule["expr"])]
    assert selectors, "the rules file selects no xks_* series"
    for name, matchers in selectors:
        family = _family(name, kinds)
        assert family in exposition, f"{name} is not exposed on /metrics"
        _, labelnames, bounds = exposition[family]
        for label, op, value in _MATCHER.findall(matchers):
            assert label in labelnames, f"{family} has no label {label!r}"
            values = value.split("|") if op == "=~" else [value]
            if label == "band":
                assert set(values) <= set(FREQUENCY_BANDS), values
            elif label == "endpoint":
                assert set(values) <= set(_KNOWN_ENDPOINTS), values
            elif label == "status":
                assert set(values) <= {"ok", "error"}, values
            elif label == "le":
                assert family == "xks_query_exec_ms" and set(values) <= set(bounds), values


def test_latency_thresholds_snap_up_to_a_bucket_bound(rules, exposition):
    bounds = sorted(
        float(le) for le in set(exposition["xks_query_exec_ms"][2]) if le != "+Inf"
    )
    for rule in rules:
        slo = rule.get("labels", {}).get("slo")
        if "record" not in rule or OBJECTIVES[slo][1] is None:
            continue
        snapped = min(b for b in bounds if b >= OBJECTIVES[slo][1])
        les = {float(v) for _, m in _SELECTOR.findall(rule["expr"])
               for label, _, v in _MATCHER.findall(m) if label == "le"}
        assert les == {snapped}, (slo, les, snapped)


def test_burn_thresholds_follow_the_objectives(rules):
    recorded = {(rule["record"], rule["labels"]["slo"]) for rule in rules if "record" in rule}
    alerts = [rule for rule in rules if "alert" in rule]
    assert {(a["labels"]["slo"], a["labels"]["severity"]) for a in alerts} == {
        (slo, severity) for slo in OBJECTIVES for severity in BURN_RULES
    }
    for alert in alerts:
        slo, severity = alert["labels"]["slo"], alert["labels"]["severity"]
        burn, short, long, for_ = BURN_RULES[severity]
        objective = OBJECTIVES[slo][0]
        assert float(alert["annotations"]["objective"]) == objective
        assert float(alert["annotations"]["burn_rate"]) == burn
        assert alert["for"] == for_
        terms = _BURN.findall(alert["expr"])
        assert [(w, s) for w, s, _ in terms] == [(short, slo), (long, slo)], terms
        for window, _, threshold in terms:
            assert (f"slo:sli_error:ratio_rate{window}", slo) in recorded
            assert math.isclose(float(threshold), burn * (1 - objective)), threshold
