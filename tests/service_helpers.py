"""A tiny shard-protocol experiment for the service test layer.

Implements the full runner contract (``run``/``report`` +
``shard_keys``/``run_shard``/``merge_shards``) with pure-arithmetic
payloads, plus two fault-injection knobs the real experiments lack:

``crash_key`` + ``crash_dir``
    ``run_shard(crash_key)`` hard-kills its process with ``os._exit``
    the *first* time it runs (a flag file under ``crash_dir`` records
    the death), simulating a worker crashing mid-shard.  The payload a
    retry computes is identical - the knobs never reach the result -
    so a re-issued unit must merge byte-identically to a serial run.

``sleep_per_shard``
    Slows shards down so tests can deterministically observe in-flight
    work (kill windows, drain deadlines).

``probe``
    Makes each shard report what the process running it sees instead
    of its checksum: whether it is a worker process, the name of the
    replay factory ``run_mix`` would call, the artifact-cache variable
    and the load path.  Tests use it to check what forked workers
    inherit from the process that started them.

The module lives in the ``tests`` package: worker processes inherit
``sys.path`` from pytest, so they can import ``tests.service_helpers``
exactly like a real experiment module.
"""

from __future__ import annotations

import os
import time
import zlib
from typing import Dict, List, Optional, Sequence

MODULE = "tests.service_helpers"

DEFAULT_KEYS = ("alpha", "bravo", "charlie", "delta")


def shard_keys(labels: Sequence[str] = DEFAULT_KEYS, **_kwargs) -> List[str]:
    return list(labels)


def run_shard(
    key: str,
    labels: Sequence[str] = DEFAULT_KEYS,
    crash_key: Optional[str] = None,
    crash_dir: Optional[str] = None,
    sleep_per_shard: float = 0.0,
    probe: bool = False,
    **_kwargs,
) -> str:
    if probe:
        return _probe()
    if sleep_per_shard:
        time.sleep(sleep_per_shard)
    if crash_key == key:
        if crash_dir is None:
            os._exit(23)  # unconditionally poisonous unit
        flag = os.path.join(crash_dir, f"crashed-{key}")
        if not os.path.exists(flag):
            with open(flag, "w", encoding="utf-8") as handle:
                handle.write(str(os.getpid()))
            os._exit(23)  # first execution: die mid-shard
    return f"{key}:{zlib.crc32(key.encode('utf-8')):08x}"


def _probe() -> str:
    import multiprocessing

    from repro import store
    from repro.engine import vector

    return (
        f"worker={multiprocessing.parent_process() is not None} "
        f"replay={vector.create_vector_replay.__name__} "
        f"cache={os.environ.get(store.CACHE_ENV)} "
        f"mmap={store.mmap_enabled()}"
    )


def merge_shards(
    keys: Sequence[str], parts: Sequence[str], **_kwargs
) -> Dict[str, str]:
    return dict(zip(keys, parts))


def run(**kwargs) -> Dict[str, str]:
    keys = shard_keys(**kwargs)
    return merge_shards(keys, [run_shard(k, **kwargs) for k in keys], **kwargs)


def report(result: Dict[str, str]) -> str:
    return "\n".join(f"{key} -> {value}" for key, value in sorted(result.items()))
