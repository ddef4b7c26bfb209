#!/usr/bin/env python3
"""Shape checker for `xbgp-sim show <query> --json` documents.

Reads one JSON document from stdin (or a file argument), infers which
of the six query shapes it is from its top-level keys, and validates
the document structurally: required keys, value types, and the nested
event/provenance/map record layouts. No external dependencies — CI
pipes every `show --json` output through this to keep the machine
surface stable across PRs.

Usage:
    xbgp-sim show rib --json | tools/check_show_json.py
    tools/check_show_json.py --expect provenance out.json
Exit 0 when the document matches; 1 with a diagnostic when it does not.
"""

import json
import sys


class Bad(Exception):
    pass


def fail(path, msg):
    raise Bad(f"{path}: {msg}")


def need(obj, path, key, typ):
    if not isinstance(obj, dict):
        fail(path, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        fail(path, f"missing key {key!r}")
    v = obj[key]
    # bool is an int subclass in Python; keep them distinct
    if typ is int and isinstance(v, bool):
        fail(f"{path}.{key}", "expected an integer, got a boolean")
    if not isinstance(v, typ):
        fail(f"{path}.{key}", f"expected {typ.__name__}, got {type(v).__name__}")
    return v


def exact_keys(obj, path, keys):
    extra = set(obj) - set(keys)
    if extra:
        fail(path, f"unexpected key(s) {sorted(extra)}")


def check_step(s, path):
    need(s, path, "program", str)
    need(s, path, "bytecode", str)
    need(s, path, "engine", str)
    need(s, path, "outcome", str)
    need(s, path, "attrs_mutated", bool)
    for i, m in enumerate(need(s, path, "maps_written", list)):
        if not isinstance(m, str):
            fail(f"{path}.maps_written[{i}]", "expected a string")
    exact_keys(s, path, ["program", "bytecode", "engine", "outcome",
                         "attrs_mutated", "maps_written"])


def check_decision(d, path):
    if d is None:
        return
    kind = need(d, path, "kind", str)
    if kind == "only_candidate":
        exact_keys(d, path, ["kind"])
    elif kind == "best":
        need(d, path, "runner_up", str)
        need(d, path, "step", int)
        need(d, path, "step_name", str)
        exact_keys(d, path, ["kind", "runner_up", "step", "step_name"])
    elif kind == "shadowed":
        need(d, path, "best", str)
        need(d, path, "step", int)
        need(d, path, "step_name", str)
        exact_keys(d, path, ["kind", "best", "step", "step_name"])
    elif kind == "xprog_decided":
        need(d, path, "runner_up", str)
        exact_keys(d, path, ["kind", "runner_up"])
    else:
        fail(f"{path}.kind", f"unknown decision kind {kind!r}")


def check_provenance_record(p, path):
    need(p, path, "prefix", str)
    if need(p, path, "status", str) not in (
            "installed", "candidate", "rejected", "withdrawn"):
        fail(f"{path}.status", f"unknown status {p['status']!r}")
    need(p, path, "ingress", str)
    for i, s in enumerate(need(p, path, "chain", list)):
        check_step(s, f"{path}.chain[{i}]")
    need(p, path, "import", str)
    check_decision(p.get("decision"), f"{path}.decision")
    exact_keys(p, path, ["prefix", "status", "ingress", "chain",
                         "import", "decision"])


def check_rib(doc):
    need(doc, "$", "daemon", str)
    count = need(doc, "$", "count", int)
    routes = need(doc, "$", "routes", list)
    if count != len(routes):
        fail("$.count", f"count={count} but {len(routes)} route(s)")
    for i, r in enumerate(routes):
        path = f"$.routes[{i}]"
        need(r, path, "prefix", str)
        for j, a in enumerate(need(r, path, "attrs", list)):
            if not isinstance(a, str):
                fail(f"{path}.attrs[{j}]", "expected a string")
        exact_keys(r, path, ["prefix", "attrs"])
    exact_keys(doc, "$", ["daemon", "count", "routes"])


def check_provenance(doc):
    need(doc, "$", "daemon", str)
    if doc.get("provenance") is not None:
        check_provenance_record(doc["provenance"], "$.provenance")
    exact_keys(doc, "$", ["daemon", "provenance"])


def check_update_groups(doc):
    need(doc, "$", "daemon", str)
    count = need(doc, "$", "count", int)
    groups = need(doc, "$", "groups", list)
    if count != len(groups):
        fail("$.count", f"count={count} but {len(groups)} group(s)")
    for i, g in enumerate(groups):
        path = f"$.groups[{i}]"
        need(g, path, "key", str)
        for j, m in enumerate(need(g, path, "members", list)):
            if isinstance(m, bool) or not isinstance(m, int):
                fail(f"{path}.members[{j}]", "expected an integer")
        exact_keys(g, path, ["key", "members"])
    exact_keys(doc, "$", ["daemon", "count", "groups"])


def check_maps(doc):
    need(doc, "$", "daemon", str)
    for i, prog in enumerate(need(doc, "$", "programs", list)):
        ppath = f"$.programs[{i}]"
        need(prog, ppath, "program", str)
        for j, m in enumerate(need(prog, ppath, "maps", list)):
            mpath = f"{ppath}.maps[{j}]"
            need(m, mpath, "map", str)
            need(m, mpath, "rejected", int)
            for k, e in enumerate(need(m, mpath, "entries", list)):
                epath = f"{mpath}.entries[{k}]"
                need(e, epath, "key", str)
                need(e, epath, "value", str)
                exact_keys(e, epath, ["key", "value"])
            exact_keys(m, mpath, ["map", "rejected", "entries"])
        exact_keys(prog, ppath, ["program", "maps"])
    exact_keys(doc, "$", ["daemon", "programs"])


RECORDER_KINDS = {
    "session", "route_add", "route_replace", "route_withdraw",
    "group_split", "group_merge", "group_rekey", "xprog_fault",
    "native_fallback", "map_evict", "map_full", "note",
}


def check_recorder(doc):
    need(doc, "$", "daemon", str)
    rec = doc.get("recorder")
    if rec is not None:
        need(rec, "$.recorder", "next_seq", int)
        need(rec, "$.recorder", "dropped", int)
        prev_seq = -1
        for i, ev in enumerate(need(rec, "$.recorder", "events", list)):
            path = f"$.recorder.events[{i}]"
            seq = need(ev, path, "seq", int)
            if seq <= prev_seq:
                fail(f"{path}.seq", f"not increasing ({seq} after {prev_seq})")
            if seq >= rec["next_seq"]:
                fail(f"{path}.seq", f"{seq} >= next_seq {rec['next_seq']}")
            prev_seq = seq
            need(ev, path, "ts_us", int)
            kind = need(ev, path, "kind", str)
            if kind not in RECORDER_KINDS:
                fail(f"{path}.kind", f"unknown event kind {kind!r}")
            fields = need(ev, path, "fields", dict)
            for k, v in fields.items():
                if not isinstance(v, str):
                    fail(f"{path}.fields[{k!r}]", "expected a string value")
            exact_keys(ev, path, ["seq", "ts_us", "kind", "fields"])
        exact_keys(rec, "$.recorder", ["next_seq", "dropped", "events"])
    exact_keys(doc, "$", ["daemon", "recorder"])


def check_bmp(doc):
    need(doc, "$", "daemon", str)
    bmp = doc.get("bmp")
    if bmp is not None:
        messages = need(bmp, "$.bmp", "messages", int)
        need(bmp, "$.bmp", "errors", int)
        counts = need(bmp, "$.bmp", "counts", dict)
        for k, v in counts.items():
            if isinstance(v, bool) or not isinstance(v, int):
                fail(f"$.bmp.counts[{k!r}]", "expected an integer")
        if sum(counts.values()) != messages:
            fail("$.bmp.counts",
                 f"counts sum to {sum(counts.values())}, messages={messages}")
        exact_keys(bmp, "$.bmp", ["messages", "errors", "counts"])
    exact_keys(doc, "$", ["daemon", "bmp"])


CHECKERS = {
    "rib": check_rib,
    "provenance": check_provenance,
    "update-groups": check_update_groups,
    "maps": check_maps,
    "recorder": check_recorder,
    "bmp": check_bmp,
}

# distinguishing top-level key -> shape (all six carry "daemon")
SHAPE_OF_KEY = {
    "routes": "rib",
    "provenance": "provenance",
    "groups": "update-groups",
    "programs": "maps",
    "recorder": "recorder",
    "bmp": "bmp",
}


def infer_shape(doc):
    shapes = sorted({SHAPE_OF_KEY[k] for k in doc if k in SHAPE_OF_KEY})
    if len(shapes) != 1:
        raise Bad(f"$: cannot infer shape from keys {sorted(doc)}")
    return shapes[0]


def main(argv):
    expect = None
    args = argv[1:]
    if args and args[0] == "--expect":
        if len(args) < 2 or args[1] not in CHECKERS:
            print(f"check_show_json: --expect needs one of "
                  f"{sorted(CHECKERS)}", file=sys.stderr)
            return 2
        expect = args[1]
        args = args[2:]
    try:
        text = open(args[0], encoding="utf-8").read() if args \
            else sys.stdin.read()
    except OSError as e:
        print(f"check_show_json: {e}", file=sys.stderr)
        return 2
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        print(f"check_show_json: not valid JSON: {e}", file=sys.stderr)
        return 1
    try:
        if not isinstance(doc, dict):
            raise Bad("$: expected a JSON object")
        shape = expect or infer_shape(doc)
        if expect and infer_shape(doc) != expect:
            raise Bad(f"$: document is {infer_shape(doc)!r}, "
                      f"expected {expect!r}")
        CHECKERS[shape](doc)
    except Bad as e:
        print(f"check_show_json: {e}", file=sys.stderr)
        return 1
    print(f"ok: {shape}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
