"""Set-up cost in a fresh interpreter; prints one JSON object.

    python3 perfbench/setup_probe.py SRC_DIR FIELD... [-- OTHER_FIELD...]

``setup_s`` covers ``import minfinity.cli`` and a cold ``get_field`` for each
FIELD, which is what a workload needs before its first pass.  The fields
after ``--`` are fetched afterwards, still cold, so every field gets a cold
time without adding to ``setup_s``.
"""
import json
import sys
import time


def main(argv: list[str]) -> None:
    src, rest = argv[0], argv[1:]
    cut = rest.index("--") if "--" in rest else len(rest)
    needed, others = rest[:cut], rest[cut + 1:]
    sys.path.insert(0, src)
    now = time.perf_counter

    t0 = now()
    import minfinity.cli  # noqa: F401  (the import is what is timed)
    from minfinity.fields import get_field
    t1 = now()
    cold = {}
    for name in needed:
        t = now()
        get_field(name)
        cold[name] = now() - t
    t2 = now()
    for name in others:
        t = now()
        get_field(name)
        cold[name] = now() - t
    # the machine's speed right now, to scale the times above (reference.py)
    from reference import calibrate
    print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0, "cold_s": cold,
                      "ref_s": calibrate()}))


if __name__ == "__main__":
    main(sys.argv[1:])
