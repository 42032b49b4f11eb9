"""Time the program set-up of a fresh process: ``import bear`` plus the one
call a workload's command makes before its real work, and print it as JSON.

    python3 perfbench/setup_probe.py init_params RUN_CONFIG
    python3 perfbench/setup_probe.py load_checkpoint CHECKPOINT
    python3 perfbench/setup_probe.py read_embeddings EMBEDDINGS_CSV
"""

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(kind: str, path: str) -> None:
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import bear.latent
    import bear.model
    import bear.serialize

    imported = time.perf_counter()
    if kind == "init_params":
        cfg, _ = bear.serialize.load_run_config(path)
        bear.model.init_params(cfg)
    elif kind == "load_checkpoint":
        bear.serialize.load_checkpoint(path)
    elif kind == "read_embeddings":
        bear.latent.read_embeddings(path)
    else:
        raise SystemExit(f"unknown set-up {kind!r}")
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "setup_s": done - start}))


if __name__ == "__main__":
    main(*sys.argv[1:])
