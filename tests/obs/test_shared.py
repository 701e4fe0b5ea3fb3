"""Cross-process metric primitive: MetricsBlock."""

import multiprocessing

import pytest

from repro.obs.metrics import MetricsBlock
from repro.utils.errors import ValidationError


def _hammer_block(manifest, slot, rounds):
    block = MetricsBlock.attach(manifest)
    try:
        for _ in range(rounds):
            block.add(slot, 1)
    finally:
        block.close()


class TestMetricsBlock:
    def test_create_attach_and_single_writer_slots(self):
        block = MetricsBlock.create(("batches", "items"))
        try:
            manifest = block.manifest
            assert manifest["segment"].startswith("repro_obs_")
            assert manifest["slots"] == ["batches", "items"]
            ctx = multiprocessing.get_context("spawn")
            # One writer per slot (the MetricsBlock contract): aligned
            # int64 stores from a single process never tear.
            writer = ctx.Process(target=_hammer_block, args=(manifest, "items", 400))
            writer.start()
            writer.join()
            assert writer.exitcode == 0
            assert block.value("items") == 400
            assert block.values() == {"batches": 0, "items": 400}
            block.set("batches", 7)
            assert block.value("batches") == 7
            block.reset()
            assert block.values() == {"batches": 0, "items": 0}
        finally:
            block.close()

    def test_owner_close_unlinks_segment(self):
        block = MetricsBlock.create(("n",))
        name = block.manifest["segment"]
        block.close()
        block.close()  # idempotent
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_bad_slot_lists_rejected(self):
        with pytest.raises(ValidationError):
            MetricsBlock.create(())
        with pytest.raises(ValidationError):
            MetricsBlock.create(("a", "a"))
