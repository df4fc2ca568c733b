"""The public API surface: exports, error hierarchy, request objects.

A downstream user programs against ``repro``'s top level; this module
pins that contract.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import repro
from repro.core.requests import AccessRecord, LlcRequest
from repro.errors import (
    ConfigError,
    DecryptionError,
    InvariantViolationError,
    ProtocolError,
    ReproError,
    StashOverflowError,
)


class TestNoDeserialisationOfUntrustedBytes:
    #: The one module allowed an evaluating deserialiser: the checkpoint
    #: body, opened only behind the sealed envelope's digest check.
    ALLOWED = {"replica/checkpoint.py"}
    BANNED = {"pickle", "marshal", "shelve"}

    def test_only_the_checkpoint_module_imports_pickle(self):
        root = pathlib.Path(repro.__file__).parent
        offenders = []
        for path in sorted(root.rglob("*.py")):
            relative = path.relative_to(root).as_posix()
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                for name in names:
                    if name.split(".")[0] in self.BANNED:
                        offenders.append((relative, name))
        assert {module for module, _ in offenders} <= self.ALLOWED, offenders
        assert offenders  # the walk sees imports: the allowed one is found


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_version_is_pep440ish(self):
        parts = repro.__version__.split(".")
        assert len(parts) >= 2
        assert all(part.isdigit() for part in parts[:2])

    def test_scheduler_factories(self):
        traditional = repro.traditional_scheduler()
        assert not traditional.enable_merging
        assert traditional.label_queue_size == 1
        fork = repro.fork_path_scheduler(32)
        assert fork.enable_merging
        assert fork.label_queue_size == 32

    def test_subpackage_exports_resolve(self):
        import repro.core as core
        import repro.oram as oram
        import repro.workloads as workloads
        import repro.security as security
        import repro.extensions as extensions

        for module in (core, oram, workloads, security, extensions):
            for name in module.__all__:
                assert getattr(module, name, None) is not None, (
                    module.__name__,
                    name,
                )


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error_type",
        [
            ConfigError,
            InvariantViolationError,
            ProtocolError,
            DecryptionError,
            StashOverflowError,
        ],
    )
    def test_all_derive_from_repro_error(self, error_type):
        assert issubclass(error_type, ReproError)

    def test_config_error_is_also_value_error(self):
        """Callers using plain ``except ValueError`` still catch config
        mistakes."""
        assert issubclass(ConfigError, ValueError)

    def test_stash_overflow_carries_numbers(self):
        error = StashOverflowError(210, 200)
        assert error.occupancy == 210
        assert error.capacity == 200
        assert "210" in str(error)

    def test_integrity_error_in_hierarchy(self):
        from repro.extensions.integrity import IntegrityError

        assert issubclass(IntegrityError, ReproError)


class TestRequestObjects:
    def test_request_ids_are_unique(self):
        first = LlcRequest(addr=1, is_write=False)
        second = LlcRequest(addr=1, is_write=False)
        assert first.request_id != second.request_id

    def test_is_complete_lifecycle(self):
        request = LlcRequest(addr=1, is_write=False, arrival_ns=10.0)
        assert not request.is_complete()
        request.complete_ns = 25.0
        assert request.is_complete()
        assert request.latency_ns == pytest.approx(15.0)

    def test_posmap_requests_reference_parent(self):
        parent = LlcRequest(addr=1, is_write=True)
        chain = LlcRequest(
            addr=100, is_write=False, kind="posmap", parent=parent,
            chain_rest=[50],
        )
        assert chain.parent is parent
        assert chain.chain_rest == [50]

    def test_access_record_dram_time(self):
        record = AccessRecord(
            leaf=1,
            was_dummy=False,
            read_start_ns=0.0,
            read_end_ns=10.0,
            write_start_ns=12.0,
            write_end_ns=30.0,
        )
        assert record.dram_time_ns == pytest.approx(28.0)


class TestLabelEntrySemantics:
    def test_dummy_vs_real(self):
        from repro.core.requests import LabelEntry

        dummy = LabelEntry(leaf=3)
        assert dummy.is_dummy and not dummy.is_real
        real = LabelEntry(
            leaf=3,
            target_addr=1,
            new_leaf=4,
            request=LlcRequest(addr=1, is_write=False),
        )
        assert real.is_real and not real.is_dummy
