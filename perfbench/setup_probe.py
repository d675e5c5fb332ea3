"""Cold set-up of one CLI call, timed in a fresh process.

    python3 setup_probe.py <run|graphs> <input.json> <trace 0|1> <src dir>

Times what every ``compass`` call pays before its real work: importing the
CLI module (and with it the package) and reading and normalising the first
input file. With trace 1 it also times ``ProtocolSpec`` construction by
wrapping ``scenario.ProtocolSpec``. Prints one JSON object of seconds.
"""

import json
import sys
import time


def main() -> int:
    kind, path, trace, src = sys.argv[1], sys.argv[2], sys.argv[3] == "1", sys.argv[4]
    t0 = time.perf_counter()
    import compass_consensus.cli  # noqa: F401  (what the `compass` entry point imports)

    t1 = time.perf_counter()
    if not compass_consensus.__file__.startswith(src):
        print(f"imported {compass_consensus.__file__}, not from {src}", file=sys.stderr)
        return 2
    from compass_consensus import graphs, scenario

    spec_s = 0.0
    if trace:
        build = scenario.ProtocolSpec

        def timed_spec(*args, **kwargs):
            nonlocal spec_s
            start = time.perf_counter()
            try:
                return build(*args, **kwargs)
            finally:
                spec_s += time.perf_counter() - start

        scenario.ProtocolSpec = timed_spec

    t2 = time.perf_counter()
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if kind == "run":
        scenario.scenario_from_dict(obj)
    else:
        {name: graphs.graph_from_json(g) for name, g in obj["graphs"].items()}
        graphs.signal_from_json(obj["signal"])
    t3 = time.perf_counter()
    print(json.dumps({
        "setup_s": (t1 - t0) + (t3 - t2),
        "import_s": t1 - t0,
        "load_s": t3 - t2,
        "spec_build_s": spec_s,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
