"""Set-up probe, run in a fresh interpreter by the benchmark.

``probe.py setup <workload>`` imports ``mminfenv.cli`` and loads or builds
the workload's models, as a user's first call would.  ``probe.py kernel``
imports a fixed set of third-party modules instead: the calibration
kernel of set-up time.  ``PYTHONPATH`` must name the repository's src.
"""

import sys


def main(argv):
    if argv[1:] == ["kernel"]:
        import numpy  # noqa: F401
        import yaml  # noqa: F401
        return 0
    if len(argv) != 3 or argv[1] != "setup":
        print("usage: probe.py setup <workload> | probe.py kernel", file=sys.stderr)
        return 2
    import mminfenv.cli  # noqa: F401
    import modelgen

    workload = argv[2]
    if workload.startswith("large-k"):
        modelgen.build_model(modelgen.exponential_params(int(workload[len("large-k"):])))
    else:
        from mminfenv.modelfile import load_model

        names = ["k3_mixed"] if workload == "simulate" else modelgen.SHIPPED
        for path in modelgen.shipped_paths(names):
            load_model(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
