"""Golden equivalence: the one data plane vs the deleted reference loops.

The per-node reference loops (``ForkPathController.batched = False``,
``ObliviousEngine.batched = False``) were deleted once the path-segment
data plane had matched them on every seed. Their oracle value lives on
here as SHA-256 digests captured **at the last commit that still had
them** (74ad3a0), by running the scenarios below through the reference
paths: per-node ``read_blocks``/``write_blocks``/``write_sealed`` on the
engine, per-node memory/DRAM calls, the rescan stash and the generic
cipher boundary on the controller. The surviving path must reproduce
every digest — the adversary-visible bus trace, the per-access records,
the final store image (which pins the cipher-counter sequence: every
sealed bucket starts with its counter), the WAL, and the results.

Two reference toggles survive and are still exercised in all four
combinations against the controller goldens:

* ``Stash.indexed`` — snapshot/heap eviction vs the rescan oracle;
* ``UntrustedMemory._packed`` — in-slab pack/unpack vs the generic
  ``seal_blocks``/``open_blocks`` cipher boundary.

Scenarios the per-node loops could not run bit-identically (a recursive
position map never had a per-node path; under injected faults the
per-node loop retried one bucket where the batch retries the segment)
were captured from the parent's batched path instead — they pin "the
refactor moved nothing", not "matches the reference".
"""

from __future__ import annotations

import asyncio
import hashlib
import random

from repro import fork_path_scheduler, traditional_scheduler
from repro.config import (
    CacheConfig,
    PosmapConfig,
    ReplicaConfig,
    SchedulerConfig,
    ServiceConfig,
    SystemConfig,
    small_test_config,
)
from repro.core.controller import ForkPathController
from repro.experiments.common import SMALL, base_config
from repro.oram.encryption import CounterModeCipher
from repro.oram.memory import TraceRecorder
from repro.replica.replicator import Replicator
from repro.serve.backends import FaultPlan, FaultyBackend, InMemoryBackend
from repro.serve.engine import ObliviousEngine, ServeRequest
from repro.workloads.synthetic import uniform_trace
from repro.workloads.trace import TraceSource


def _digest(value: object) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _bus(trace: TraceRecorder) -> list:
    return [(event.op.value, event.node_id, event.time_ns) for event in trace.events]


# ------------------------------------------------------------ controller


def _run_controller(scheduler, *, indexed: bool, packed: bool,
                    requests: int = 300):
    """One short saturating run; digests of everything observable."""
    config = base_config(SMALL, scheduler=scheduler)
    trace = uniform_trace(
        requests, 2048, 50.0, random.Random(11), write_fraction=0.3
    )
    controller = ForkPathController(
        config, TraceSource(trace), rng=random.Random(12)
    )
    controller.stash.indexed = indexed
    if not packed:
        controller.memory._packed = False
    metrics = controller.run()
    return {
        "values": _digest([request.value for request in trace]),
        "trace": _digest(_bus(controller.memory.trace)),
        "summary": _digest(sorted(metrics.summary().items())),
        "occupancy": _digest(list(controller.stash.occupancy_samples)),
    }


#: Captured at 74ad3a0 with batched=False, indexed=False, packed=False.
CONTROLLER_FORK_GOLDEN = {
    "values": (
        "4ec4010ac402d025bc154c0cce9d0942"
        "55c49316b427cf0718f0c6e8930ad2f3"
    ),
    "trace": (
        "d9b2d39477e0baeadb40275904e58931"
        "e0fa442834126f90b1ecb814e761c42f"
    ),
    "summary": (
        "e9a0375b8a1b162be1af09f80e81a4f9"
        "03cd861ce4d6b139b5cccd84e76d3fa0"
    ),
    "occupancy": (
        "cf27208e8619b024956b60e191c9bac3"
        "7ec465075f69f4b3c1ce2949745481d0"
    ),
}
CONTROLLER_TRADITIONAL_GOLDEN = {
    "values": (
        "4ec4010ac402d025bc154c0cce9d0942"
        "55c49316b427cf0718f0c6e8930ad2f3"
    ),
    "trace": (
        "63d1f71aed33e0aad63e9135c06ed945"
        "807b56205ff8a14ab22c1704d645f7de"
    ),
    "summary": (
        "bae48fbd36e7124ddd53326b6d8d20d6"
        "27afbfa05abbbf77b404489772bb93af"
    ),
    "occupancy": (
        "bec1c6e04b7a65cf0aabf8f316c15971"
        "135ebf2f422007bf7d4923c9ab6420cb"
    ),
}


class TestControllerEquivalence:
    def test_all_fast_paths_match_reference_fork(self):
        for indexed in (False, True):
            for packed in (False, True):
                assert _run_controller(
                    fork_path_scheduler(16), indexed=indexed, packed=packed
                ) == CONTROLLER_FORK_GOLDEN, f"indexed={indexed} packed={packed}"

    def test_fast_paths_match_reference_traditional(self):
        """Merging off (retain = 0): the segment write covers the whole
        path — the deepest-possible batch — and must still match."""
        assert _run_controller(
            traditional_scheduler(), indexed=True, packed=True
        ) == CONTROLLER_TRADITIONAL_GOLDEN


# ---------------------------------------------------------------- engine


def _serve_config(levels: int = 6, **sections: object) -> SystemConfig:
    sections.setdefault("service", ServiceConfig())
    return SystemConfig(
        oram=small_test_config(levels, block_bytes=64),
        scheduler=SchedulerConfig(label_queue_size=8),
        cache=CacheConfig(policy="none"),
        **sections,  # type: ignore[arg-type]
    )


def _replica_config(tmp_path) -> ReplicaConfig:
    return ReplicaConfig(
        enabled=True,
        dir=str(tmp_path / "replica"),
        checkpoint_every_accesses=16,
    )


def _opened(engine: ObliviousEngine, sealed: bytes) -> tuple:
    """A sealed bucket below the ciphertext: the clear counter prefix
    and the blocks it opens to."""
    store = engine.store
    return (
        bytes(sealed[:16]),
        [
            (block.addr, block.leaf, block.payload)
            for block in store.cipher.open_blocks(sealed, store.bucket_slots)
        ],
    )


def _drive_engine(engine: ObliviousEngine, *, binary: bool = False,
                  exact_bytes: int = 0):
    """Sixty seeded puts/gets, each drained before the next; digests of
    the bus trace, access records, store image, WAL and results. With
    the real cipher, ``image_plain``/``wal_plain`` digest the same image
    and WAL opened — what must survive a ciphertext-format change.

    ``binary`` makes the values short ``bytes``; ``exact_bytes`` makes
    them exactly that long."""
    results = []

    async def scenario():
        rng = random.Random(21)
        for index in range(60):
            addr = rng.randrange(24)
            if rng.random() < 0.5:
                value = f"v{index}"
                if binary or exact_bytes:
                    value = value.encode().ljust(exact_bytes, b".")
                request = ServeRequest(op="put", addr=addr, value=value)
            else:
                request = ServeRequest(op="get", addr=addr)
            assert engine.submit(request)
            for _ in range(200):
                if not engine.has_pending_real():
                    break
                await engine.run_access()
            results.append((request.op, request.addr, request.found,
                            request.result, request.status))

    asyncio.run(scenario())
    backend = engine.store.backend
    image = getattr(backend, "base", backend).data
    observed = {
        "trace": _digest(_bus(backend.trace)),
        "records": _digest(
            (list(engine.records),
             list(getattr(engine.posmap, "chain_records", ())))
        ),
        "image": _digest(sorted(image.items())),
        "results": _digest(results),
        "counters": _digest(
            (engine.accesses, engine.real_accesses, engine.failed_accesses,
             engine.store.retries, engine.store.cipher.state())
        ),
    }
    real_cipher = isinstance(engine.store.cipher, CounterModeCipher)
    if real_cipher:
        observed["image_plain"] = _digest(
            [(node, _opened(engine, sealed))
             for node, sealed in sorted(image.items())]
        )
    if engine.replicator is not None:
        wal = list(engine.replicator.wal.read_from(1))
        observed["wal"] = _digest([(r.seq, r.leaf, r.writes) for r in wal])
        if real_cipher:
            observed["wal_plain"] = _digest(
                [(r.seq, r.leaf,
                  [(node, *_opened(engine, sealed)) for node, sealed in r.writes])
                 for r in wal]
            )
    engine.close()
    return observed


#: Captured at 74ad3a0 through the per-node reference loops
#: (``engine.batched = False``).
ENGINE_FLAT_GOLDEN = {
    "trace": (
        "9ff9ff13092dd97cac2a1a606a5ba97a"
        "2f2120f6585b33c8102403b1cdee792c"
    ),
    "records": (
        "867774c83acba6fd172446cb08aab3c7"
        "34b3f49cbe1a2f6863117feabfe64a72"
    ),
    "image": (
        "4ba19fffce15e115c7863ca90b411783"
        "f6063bef3ac87ec27b0786c68ee121a0"
    ),
    "results": (
        "a050d99fc4cbb2afcaa5b8db4ca898a4"
        "c9cdaa4d4c85044935d3ae3f9b26292c"
    ),
    "counters": (
        "8eba85dd87db5322dbb162b96c9256c2"
        "fecb48162dfbfe4fb7031d292a1879a6"
    ),
}
ENGINE_REPLICATED_GOLDEN = {
    "trace": (
        "9ff9ff13092dd97cac2a1a606a5ba97a"
        "2f2120f6585b33c8102403b1cdee792c"
    ),
    "records": (
        "867774c83acba6fd172446cb08aab3c7"
        "34b3f49cbe1a2f6863117feabfe64a72"
    ),
    # Ciphertext: re-captured once when the bucket keystream became one
    # SHAKE-256 squeeze (was dc304714…61f3e4f9 at 74ad3a0..cb02a95) and
    # once when the plaintext under it became the packed-record image
    # (was 847632d5…d0a8a404 at 293f41c..99c9e8a).
    "image": (
        "0431c2d1bb5fd56b6d94d828a4f3eea8"
        "b7f47376fbbc5093309be1a59f504b0c"
    ),
    "results": (
        "074f299cd025f3d333b4688fc4d711e6"
        "4e720cb88b610e4eb2745be4716a4580"
    ),
    "counters": (
        "8eba85dd87db5322dbb162b96c9256c2"
        "fecb48162dfbfe4fb7031d292a1879a6"
    ),
    # Ciphertext, re-captured with "image" (was cf0fdd9e…0ab6266d, then
    # bf47b797…7f64b177).
    "wal": (
        "ff241c871444d073437abb6868aa2ff1"
        "67330d3bc728aa8268f2e6be5c20417a"
    ),
    # Plaintext level: the image and the WAL opened (counter prefix +
    # blocks per bucket). Captured at dd45e42, while buckets were fixed
    # slots, with the NUL padding stripped test-side (as "results" was);
    # the packed image pads nothing, so nothing is stripped any more.
    # Their NUL-padded predecessors (2decfb2b…236e691d,
    # 06be0176…b2a904a0, captured at cb02a95) pinned the padding itself.
    "image_plain": (
        "2f325b2b78f7eaaa9cb026ebbea9b7db"
        "520c14a1cf05612db13967d6d996acc4"
    ),
    "wal_plain": (
        "fde7c3f3a421ca7997eb613b40571d89"
        "ef7250b48a4be2857615198feeea9f65"
    ),
}
#: Values of exactly ``block_bytes``: nothing to strip before or after
#: the format change (captured at dd45e42).
ENGINE_REPLICATED_EXACT_GOLDEN = {
    "trace": ENGINE_REPLICATED_GOLDEN["trace"],
    "records": ENGINE_REPLICATED_GOLDEN["records"],
    "counters": ENGINE_REPLICATED_GOLDEN["counters"],
    "results": (
        "affd3bcd334b7b2be5c60cac9c70a484"
        "87cf208d2951e3482a46fca763c84aa2"
    ),
    "image_plain": (
        "a4c534786d7b6cd0abff69882e9f1792"
        "19dbce8dca488ad6f124e5418ee98d38"
    ),
    "wal_plain": (
        "5f4841a80c9644be5eb700bba543e289"
        "67f4ce93da9f67493ba581181dcddd1e"
    ),
}
#: Captured at 74ad3a0 from the batched path (see module docstring).
ENGINE_RECURSIVE_REPLICATED_GOLDEN = {
    "trace": (
        "4502c4bf824eb08d22cca5003891bef4"
        "bf66796f2e35f0531963f9fa55af030f"
    ),
    "records": (
        "e69ebb74a7ec53b51615e904f141ca32"
        "b53229c051ff9b02c49cdd007a4c2a24"
    ),
    "image": (
        "e4004e1672ab11719926ffd0d899e612"
        "deb62f38331d1b4763b68197663769b0"
    ),
    "results": (
        "9d79cc79fca5339ad4e96ae4dc58c698"
        "721082d0cf3fb2a26951eace8748bd21"
    ),
    "counters": (
        "48b31633948b9b9d3e8ff7117b6b46d0"
        "2137d4d351aef2b5f600f9ce35005ebd"
    ),
    "wal": (
        "78b3a9ad6c833606bf7b994567142853"
        "ee47bb5d73754c971f4abff6a7cf020e"
    ),
}
ENGINE_FAULTY_GOLDEN = {
    "trace": (
        "6dea78b984de7a0b2d9f3c025664ad92"
        "910d3a44d78691bb8e76e483813f3b7f"
    ),
    "records": (
        "a1c1afebe7d7bb7096b376783d77fe6e"
        "a3be0682427d284cf0de56ff9a49e9e0"
    ),
    "image": (
        "240273d188579ffe98c0170e4e021837"
        "843c928439a81b79b9516216d9f0ddb7"
    ),
    "results": (
        "1682678f47b2a616ac3313e834ed4a4e"
        "2339e743204cd6b6b82baed978fe0c32"
    ),
    "counters": (
        "72c497551dfc3a327690bc7645194ac9"
        "d036de27e9ad49ae53796bb829917a29"
    ),
}


class TestServeEngineEquivalence:
    def test_batched_engine_matches_per_node_reference(self):
        engine = ObliviousEngine(
            _serve_config(), InMemoryBackend(TraceRecorder())
        )
        assert _drive_engine(engine) == ENGINE_FLAT_GOLDEN

    def test_replicated_engine_matches_per_node_reference(self, tmp_path):
        """Real cipher + WAL: the seal order (cipher-counter sequence)
        and the logged and stored buckets, opened, all match the
        per-node ``write_sealed`` loop; the ciphertext digests pin the
        current bucket keystream."""
        config = _serve_config(replica=_replica_config(tmp_path))
        engine = ObliviousEngine(
            config,
            InMemoryBackend(TraceRecorder()),
            cipher=CounterModeCipher(b"golden-key", 64),
            replicator=Replicator(config.replica),
        )
        assert _drive_engine(engine, binary=True) == ENGINE_REPLICATED_GOLDEN

    def test_replicated_engine_exact_block_values(self, tmp_path):
        """Same run with values of exactly ``block_bytes``: the opened
        image, WAL and results of the fixed-slot format, which never
        needed stripping. (The ciphertext digests are pinned above.)"""
        config = _serve_config(replica=_replica_config(tmp_path))
        engine = ObliviousEngine(
            config,
            InMemoryBackend(TraceRecorder()),
            cipher=CounterModeCipher(b"golden-key", 64),
            replicator=Replicator(config.replica),
        )
        observed = _drive_engine(engine, exact_bytes=64)
        del observed["image"], observed["wal"]
        assert observed == ENGINE_REPLICATED_EXACT_GOLDEN

    def test_recursive_replicated_engine_is_unmoved(self, tmp_path):
        config = _serve_config(
            posmap=PosmapConfig(mode="recursive", client_budget_bytes=64),
            replica=_replica_config(tmp_path),
        )
        engine = ObliviousEngine(
            config,
            InMemoryBackend(TraceRecorder()),
            replicator=Replicator(config.replica),
        )
        assert engine.posmap.requires_chain
        assert _drive_engine(engine) == ENGINE_RECURSIVE_REPLICATED_GOLDEN

    def test_faulty_backend_engine_is_unmoved(self):
        """Per-node fault draws inside each batch, retries and failed
        accesses included: same fault stream, same trace."""
        config = _serve_config(
            service=ServiceConfig(retry_attempts=3, retry_base_ns=1000.0)
        )
        backend = FaultyBackend(
            InMemoryBackend(), FaultPlan(error_rate=0.05, seed=9)
        )
        engine = ObliviousEngine(config, backend)
        observed = _drive_engine(engine)
        assert backend.errors_injected > 0
        assert observed == ENGINE_FAULTY_GOLDEN
