"""Child process of the benchmark: runs the rbmd CLI from the checkout's src/.

    python3 perfbench/launch.py cli <rbmd args...>
    python3 perfbench/launch.py trace <spans.json> <rbmd args...>
    python3 perfbench/launch.py setup <config.json>...

``cli`` is what the ``rbmd`` console script does.  ``trace`` does the same
with the outside-in tracer installed and writes its spans to a JSON file.
``setup`` stops after import, config parse and model build, without solving.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_cli():
    sys.path.insert(0, str(SRC))
    import rbmd
    from rbmd import bench_cli

    if Path(rbmd.__file__).resolve().parent != SRC / "rbmd":
        raise SystemExit(f"error: rbmd imported from {rbmd.__file__}, not {SRC}")
    return rbmd, bench_cli


def _setup(bench_cli, paths) -> int:
    for path in paths:
        config = bench_cli.load_config(path)
        if config.model_spec is not None:
            model = config.build_model(config.seed)
            config.build_budget(model.d)
            continue
        # compare: one generated model per dimension and replication
        for d in config.dimensions:
            config.build_budget(d)
            for index in range(config.replications):
                bench_cli.generate_model(d, (config.seed ^ index) & (2 ** 64 - 1))
    return 0


def main(argv) -> int:
    mode, rest = argv[0], argv[1:]
    rbmd, bench_cli = _import_cli()
    if mode == "cli":
        return bench_cli.main(rest)
    if mode == "setup":
        return _setup(bench_cli, rest)
    if mode == "trace":
        from tracer import Tracer  # perfbench/ is sys.path[0]

        tracer = Tracer()
        tracer.install(rbmd)
        try:
            return bench_cli.main(rest[1:])
        finally:
            tracer.dump(rest[0])
    raise SystemExit(f"error: unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
