#!/usr/bin/env python3
"""One gate checker for every gated bench report.

usage: check_gate.py MEASURED [BASELINE] [--twin FILE] RULE...
       check_gate.py --self-test

MEASURED is a report a bench just wrote (bench_walltime, recall_gate,
bench_churn, bench_shard, bench_serving, bench_filtered), BASELINE its
committed bench/*_baseline.json, and --twin a second run of the same
configuration at another host thread count. Every CI step spells out its
own keys and thresholds; there are no defaults.

KEY is a '/'-separated path into the report (entry names such as
"graph_0.1pct" contain dots). A '*' segment matches every member of an
object or every element of a list: "variants/*/recall_at_10",
"scaling/*/monotonic". ENTRY names a member of the report's "codecs" or
"variants" map and stands for its recall_at_10.

Rules, each repeatable unless marked:
  --config KEY      MEASURED and BASELINE agree on KEY. Checked first: when
                    the two runs measured different things, no other rule
                    means anything, so a mismatch stops the gate (exit 2).
  --floor KEY=TOL   MEASURED >= BASELINE * (1 - TOL): a throughput may drop
                    at most the fraction TOL.
  --exact ENTRY     (once) ENTRY's recall equals BASELINE's exactly. It
                    comes from the deterministic build/search chain, so any
                    drift means the pinned numbers across the repo are
                    suspect.
  --eps ENTRY=EPS   ENTRY's recall is at most EPS below the --exact entry's
                    recall of the SAME run. Gating against the same-run
                    reference isolates the entry's own loss (quantization,
                    churn) from dataset drift, which --config catches.
  --near ENTRY=EPS  ENTRY's recall lies within EPS of BASELINE's, both ways:
                    for entries with no same-run reference (filtered tiers).
  --pin KEY         MEASURED equals BASELINE exactly (checksums).
  --equal KEY       MEASURED equals the --twin run: results must not depend
                    on the host thread count.
  --true KEY        KEY is true in MEASURED and in the --twin run.

Exit status: 0 when every rule holds, 1 when one fails, 2 on a config
mismatch or a malformed invocation.
"""
import argparse
import json
import sys


class GateError(Exception):
    """The invocation or a report cannot be checked (missing key, bad spec)."""


def resolve(doc, key):
    """Every (path, value) that KEY names in DOC; '*' fans out."""
    found = [("", doc)]
    for seg in key.split("/"):
        nxt = []
        for path, node in found:
            if seg == "*":
                items = (node.items() if isinstance(node, dict)
                         else enumerate(node) if isinstance(node, list)
                         else [])
                nxt += [(f"{path}/{k}".lstrip("/"), v) for k, v in items]
            elif isinstance(node, dict) and seg in node:
                nxt.append((f"{path}/{seg}".lstrip("/"), node[seg]))
            elif (isinstance(node, list) and seg.isdigit()
                  and int(seg) < len(node)):
                nxt.append((f"{path}/{seg}".lstrip("/"), node[int(seg)]))
            else:
                raise GateError(f"no '{seg}' under '{path or '/'}' for {key}")
        found = nxt
    if not found:
        raise GateError(f"'{key}' matches nothing")
    return found


def value(doc, key):
    found = resolve(doc, key)
    if len(found) != 1:
        raise GateError(f"'{key}' names {len(found)} values, not one")
    return found[0][1]


def recall(doc, entry):
    for group in ("codecs", "variants"):
        if group in doc:
            return float(value(doc, f"{group}/{entry}/recall_at_10"))
    raise GateError("no 'codecs' or 'variants' map in report")


def spec(text, flag):
    key, sep, val = text.rpartition("=")
    if not sep or not key:
        raise GateError(f"bad {flag} '{text}' (want KEY=VALUE)")
    return key, float(val)


def check(args, measured, baseline, twin):
    """Apply every rule; returns (exit status, report lines)."""
    lines = []
    failed = False

    def verdict(ok, text):
        nonlocal failed
        failed |= not ok
        lines.append(f"{text} {'OK' if ok else 'FAIL'}")

    needs_base = (args.config or args.floor or args.exact or args.eps
                  or args.near or args.pin)
    if needs_base and baseline is None:
        raise GateError("these rules need a BASELINE file")
    if args.equal and twin is None:
        raise GateError("--equal needs a --twin file")
    if args.eps and not args.exact:
        raise GateError("--eps needs an --exact reference entry")

    for key in args.config:
        m, b = measured.get(key), baseline.get(key)
        verdict(m == b, f"config {key}: {m!r} vs baseline {b!r}")
    if failed:
        return 2, lines

    for text in args.floor:
        key, tol = spec(text, "--floor")
        got, base = float(value(measured, key)), float(value(baseline, key))
        floor = base * (1.0 - tol)
        verdict(got >= floor, f"floor {key}: {got:,.0f} vs baseline "
                f"{base:,.0f} (floor {floor:,.0f}, tolerance {tol})")

    if args.exact:
        reference = recall(measured, args.exact)
        base = recall(baseline, args.exact)
        verdict(reference == base, f"exact {args.exact}: recall@10 "
                f"{reference:.10f} vs baseline {base:.10f}")

    for text in args.eps:
        entry, eps = spec(text, "--eps")
        got = recall(measured, entry)
        drop = reference - got
        verdict(drop <= eps, f"eps {entry}: recall@10 {got:.6f}, drop "
                f"{drop:+.6f} vs {args.exact} (eps {eps})")

    for text in args.near:
        entry, eps = spec(text, "--near")
        got, base = recall(measured, entry), recall(baseline, entry)
        verdict(abs(got - base) <= eps, f"near {entry}: recall@10 {got:.6f}"
                f" vs baseline {base:.6f} (delta {got - base:+.6f}, eps {eps})")

    for key in args.pin:
        got, base = value(measured, key), value(baseline, key)
        verdict(got == base, f"pin {key}: {got!r} vs baseline {base!r}")

    for key in args.equal:
        for path, got in resolve(measured, key):
            other = value(twin, path)
            verdict(got == other, f"equal {path}: {got!r} vs twin {other!r}")

    for key in args.true:
        for doc, tag in ((measured, "measured"), (twin, "twin")):
            if doc is None:
                continue
            for path, got in resolve(doc, key):
                verdict(got is True, f"true {path} ({tag}): {got!r}")

    return (1 if failed else 0), lines


def parser():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("measured", nargs="?")
    ap.add_argument("baseline", nargs="?")
    ap.add_argument("--twin")
    ap.add_argument("--exact")
    for flag in ("config", "floor", "eps", "near", "pin", "equal", "true"):
        ap.add_argument(f"--{flag}", action="append", default=[])
    ap.add_argument("--self-test", action="store_true",
                    help="prove every rule passes its good fixture and "
                         "fails its bad one")
    return ap


# Each fixture is (rule, arguments, the report it breaks, the change). The
# unbroken reports must pass the same arguments; the broken ones must not.
def _set(path, v):
    def apply(doc):
        *parents, last = path.split("/")
        node = doc
        for seg in parents:
            node = node[int(seg)] if isinstance(node, list) else node[seg]
        node[int(last) if isinstance(node, list) else last] = v
    return apply


FIXTURES = [
    ("config mismatch", ["--config", "n_base"], "measured",
     _set("n_base", 4001)),
    ("floor breach", ["--floor", "search_distance_evals_per_s=0.3"],
     "measured", _set("search_distance_evals_per_s", 699.0)),
    ("exact (recall drift)", ["--exact", "f32"], "measured",
     _set("codecs/f32/recall_at_10", 0.9975)),
    ("eps overrun", ["--exact", "f32", "--eps", "int8=0.01"], "measured",
     _set("codecs/int8/recall_at_10", 0.985)),
    ("near overrun", ["--near", "f16=0.05"], "measured",
     _set("codecs/f16/recall_at_10", 0.94)),
    ("pin drift", ["--pin", "attr_checksum"], "measured",
     _set("attr_checksum", "69bee0a6eaf089d4")),
    ("equal (h1 != h4)", ["--equal", "scaling/*/qps"], "twin",
     _set("scaling/1/qps", [1.0, 2.0, 3.5])),
    ("true (graceful: false)", ["--true", "graceful"], "measured",
     _set("graceful", False)),
    ("true (graceful: false at hosts=4)", ["--true", "graceful"], "twin",
     _set("graceful", False)),
    ("true (scaling not monotonic)", ["--true", "scaling/*/monotonic"],
     "measured", _set("scaling/0/monotonic", False)),
]

BASE = {
    "dataset": "sift", "n_base": 4000,
    "search_distance_evals_per_s": 1000.0,
    "attr_checksum": "69bee0a6eaf089d3", "graceful": True,
    "codecs": {"f32": {"recall_at_10": 1.0},
               "f16": {"recall_at_10": 0.995},
               "int8": {"recall_at_10": 0.9925}},
    "scaling": [{"qps": [1.0, 2.0, 3.0], "monotonic": True},
                {"qps": [1.0, 2.0, 3.0], "monotonic": True}],
}


def self_test():
    failures = 0
    for name, argv, target, breaks in FIXTURES:
        args = parser().parse_args(argv)
        ok_status, _ = check(args, BASE, BASE, BASE)
        broken = json.loads(json.dumps(BASE))
        breaks(broken)
        docs = {"measured": BASE, "twin": BASE, target: broken}
        bad_status, lines = check(args, docs["measured"], BASE, docs["twin"])
        if ok_status != 0 or bad_status == 0:
            failures += 1
            print(f"self-test {name}: good fixture exit {ok_status}, bad "
                  f"fixture exit {bad_status}: {lines}")
    if failures:
        print(f"check_gate self-test: {failures}/{len(FIXTURES)} rules FAILED")
        return 1
    print(f"check_gate self-test: {len(FIXTURES)} rules ok")
    return 0


def main():
    args = parser().parse_args()
    if args.self_test:
        return self_test()
    if args.measured is None:
        parser().print_usage(sys.stderr)
        return 2

    def load(path):
        if path is None:
            return None
        with open(path) as f:
            return json.load(f)

    try:
        status, lines = check(args, load(args.measured),
                              load(args.baseline), load(args.twin))
    except GateError as e:
        print(f"check_gate: {e}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(f"check_gate: {args.measured}: "
          f"{'all gates passed' if status == 0 else 'FAILED'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
