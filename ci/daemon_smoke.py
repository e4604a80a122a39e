#!/usr/bin/env python3
"""End-to-end smoke for awamd: POST the qsort benchmark to a running
daemon and assert its per-predicate summaries equal a batch
`awam analyze -worklist` run on the same source, then POST the same
source to /v1/backward and assert the demands equal a batch
`awam backward` run — and that an immediately repeated demand query is
served warm from the daemon's store (zero components re-executed). A
third demand query must find the program resident: /v1/metrics reports
a program-cache hit. Finally three successive one-clause edits of the
source must each be derived from the program loaded before it
(awamd_program_derivations_total rises) and answer with the summaries
of a batch `awam analyze -worklist` run on the edited source. The
second edit makes partition/4 call qsort/3 back, merging their
components; the third deletes that call again.

Usage: daemon_smoke.py http://127.0.0.1:8347
Run from the repository root (invokes `go run ./cmd/awam`).
"""
import json
import re
import subprocess
import sys
import tempfile
import urllib.request

QSORT = """
qsort([X|L], R, R0) :-
\tpartition(L, X, L1, L2),
\tqsort(L2, R1, R0),
\tqsort(L1, R, [X|R1]).
qsort([], R, R).
partition([X|L], Y, [X|L1], L2) :- X =< Y, !, partition(L, Y, L1, L2).
partition([X|L], Y, L1, [X|L2]) :- partition(L, Y, L1, L2).
partition([], _, [], []).
main :- qsort([3,1,2], _, []).
"""

# One clause edited: main also sorts a list of atoms.
QSORT_EDIT = QSORT.replace(
    "main :- qsort([3,1,2], _, []).",
    "main :- qsort([3,1,2], _, []), qsort([b,a], _, []).",
)

# A clause of partition/4 that calls qsort/3, whose component it joins.
BACK_CALL = "partition(L, _, L, []) :- qsort(L, _, []).\n"

# Successive edits, each derived from the program before it.
EDITS = [
    ("main sorts atoms too", QSORT_EDIT),
    ("partition calls qsort back", QSORT_EDIT + BACK_CALL),
    ("the back-call deleted", QSORT_EDIT),
]


def daemon_modes(base, source=QSORT):
    body = json.dumps({"source": source, "timeout_ms": 5000}).encode()
    req = urllib.request.Request(
        base + "/v1/analyze", data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(req, timeout=10) as resp:
        out = json.load(resp)
    preds = out.get("predicates")
    if not preds:
        sys.exit(f"daemon returned no predicates: {out}")
    modes = {}
    for pred, s in preds.items():
        if not s.get("Succeeds"):
            continue
        name = pred.split("/")[0]
        args = ", ".join(a["Mode"] for a in s.get("Args") or [])
        modes[pred] = f"{name}({args})" if args else name
    return modes


def batch_modes(source=QSORT):
    with tempfile.NamedTemporaryFile("w", suffix=".pl", delete=False) as f:
        f.write(source)
        path = f.name
    text = subprocess.run(
        ["go", "run", "./cmd/awam", "analyze", "-worklist", path],
        check=True, capture_output=True, text=True,
    ).stdout
    # "mode p(+g, -g)" lines; modes are flat, so commas count arguments.
    out = {}
    for line in text.splitlines():
        m = re.match(r"^mode\s+([a-z][A-Za-z0-9_]*)(\((.*)\))?$", line.strip())
        if not m:
            continue
        name, args = m.group(1), m.group(3)
        arity = len(args.split(",")) if args else 0
        pred = f"{name}/{arity}"
        rendered = f"{name}({args})" if args else name
        if out.setdefault(pred, rendered) != rendered:
            sys.exit(f"batch analyze reports conflicting modes for {pred}")
    if not out:
        sys.exit(f"could not parse batch analyze output:\n{text}")
    return out


def daemon_demands(base):
    body = json.dumps(
        {"source": QSORT, "goals": ["qsort/3"], "timeout_ms": 5000}
    ).encode()
    req = urllib.request.Request(
        base + "/v1/backward", data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(req, timeout=10) as resp:
        out = json.load(resp)
    demands = out.get("demands")
    if not demands:
        sys.exit(f"daemon returned no demands: {out}")
    calls = {p: d["Call"] for p, d in demands.items() if d.get("Callable")}
    return calls, out.get("stats") or {}


def batch_demands():
    with tempfile.NamedTemporaryFile("w", suffix=".pl", delete=False) as f:
        f.write(QSORT)
        path = f.name
    text = subprocess.run(
        ["go", "run", "./cmd/awam", "backward", "-goal", "qsort/3", path],
        check=True, capture_output=True, text=True,
    ).stdout
    # "demand qsort/3 qsort(nv, any, any)" lines; "bottom" marks no
    # safe call (skipped, like non-Callable daemon demands).
    out = {}
    for line in text.splitlines():
        m = re.match(r"^demand\s+(\S+)\s+(.*)$", line.strip())
        if not m or m.group(2) == "bottom":
            continue
        out[m.group(1)] = m.group(2)
    if not out:
        sys.exit(f"could not parse batch backward output:\n{text}")
    return out


def check_backward(base):
    got, cold = daemon_demands(base)
    want = batch_demands()
    if "qsort/3" not in want or "partition/4" not in want:
        sys.exit(f"batch backward output missing expected predicates: {sorted(want)}")
    if got != want:
        sys.exit(f"daemon demands {got} != batch demands {want}")
    if cold.get("executed_sccs", 0) <= 0:
        sys.exit(f"cold demand query executed no components: {cold}")
    # The repeat query must be served from the daemon's shared store.
    regot, warm = daemon_demands(base)
    if regot != got:
        sys.exit(f"warm demands {regot} != cold demands {got}")
    if warm.get("executed_sccs", -1) != 0:
        sys.exit(f"warm demand query re-executed components: {warm}")
    print(f"daemon demands match batch backward for {len(want)} predicates, "
          f"warm repeat re-executed 0/{cold['executed_sccs']} components: OK")
    # By the third request for the same source the daemon keeps the
    # loaded program, so this query skips parse and compile.
    again, _ = daemon_demands(base)
    if again != got:
        sys.exit(f"third demands {again} != cold demands {got}")
    hits = program_hits(base)
    if hits <= 0:
        sys.exit(f"no program-cache hit after three requests for one source (hits={hits})")
    print(f"repeat queries served from the resident program ({hits} hits): OK")


def metric(base, pattern):
    with urllib.request.urlopen(base + "/v1/metrics", timeout=10) as resp:
        text = resp.read().decode()
    m = re.search("^" + pattern + r" (\d+)$", text, re.M)
    if not m:
        sys.exit(f"/v1/metrics has no {pattern} counter:\n{text}")
    return int(m.group(1))


def program_hits(base):
    return metric(base, r'awamd_program_loads_total\{result="hit"\}')


def compare_modes(got, want):
    missing = {"qsort/3", "partition/4"} - set(want)
    if missing:
        sys.exit(f"batch analyze output missing expected predicates: {missing}")
    for pred, mode in want.items():
        if pred not in got:
            sys.exit(f"daemon response missing {pred}; has {sorted(got)}")
        if got[pred] != mode:
            sys.exit(f"{pred}: daemon mode {got[pred]!r} != batch {mode!r}")
    if "main/0" not in got:
        sys.exit(f"daemon response missing main/0; has {sorted(got)}")


def check_edits(base):
    for what, source in EDITS:
        before = metric(base, "awamd_program_derivations_total")
        got = daemon_modes(base, source)
        after = metric(base, "awamd_program_derivations_total")
        if after <= before:
            sys.exit(f"edit ({what}) was not derived from the loaded program "
                     f"(derivations {before} -> {after})")
        want = batch_modes(source)
        compare_modes(got, want)
        print(f"edit ({what}) derived ({before} -> {after} derivations), "
              f"modes match batch analyze for {len(want)} predicates: OK")


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    got = daemon_modes(sys.argv[1])
    want = batch_modes()
    compare_modes(got, want)
    print(f"daemon modes match batch analyze for {len(want)} predicates: OK")
    check_backward(sys.argv[1])
    check_edits(sys.argv[1])


if __name__ == "__main__":
    main()
