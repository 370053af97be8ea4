"""Unit tests: parameters, errors, addressing, statistics."""

import pytest

from repro.common import addr
from repro.common.errors import (
    CapacityAbort,
    ConfigError,
    MemoryError_,
    TxRollback,
    TxSignal,
)
from repro.common.params import (
    EAGER,
    LAZY,
    UNDO_LOG,
    WORD_SIZE,
    SystemConfig,
    functional_config,
    paper_config,
)
from repro.common.stats import Stats


class TestSystemConfig:
    def test_paper_defaults(self):
        config = paper_config()
        assert config.n_cpus == 8
        assert config.l1_size == 32 * 1024
        assert config.l1_latency == 1
        assert config.l2_size == 512 * 1024
        assert config.l2_latency == 12
        assert config.bus_width == 16
        assert config.timing is True

    def test_functional_config_disables_timing(self):
        assert functional_config().timing is False

    def test_derived_geometry(self):
        config = paper_config()
        assert config.words_per_line == config.line_size // WORD_SIZE
        assert config.l1_sets * config.l1_assoc * config.line_size \
            == config.l1_size
        assert config.line_transfer_cycles == config.line_size \
            // config.bus_width

    def test_undo_log_requires_eager(self):
        with pytest.raises(ConfigError):
            SystemConfig(versioning=UNDO_LOG, detection=LAZY)
        SystemConfig(versioning=UNDO_LOG, detection=EAGER)  # ok

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            SystemConfig(n_cpus=0)
        with pytest.raises(ConfigError):
            SystemConfig(detection="psychic")
        with pytest.raises(ConfigError):
            SystemConfig(nesting_scheme="stack-of-pancakes")
        with pytest.raises(ConfigError):
            SystemConfig(line_size=30)
        with pytest.raises(ConfigError):
            SystemConfig(max_nesting=0)

    @pytest.mark.parametrize("overrides", [
        {"line_size": 0},
        {"line_size": -32},
        {"l1_size": 0},
        {"l2_size": -1024},
        {"l1_assoc": 0},
        {"l2_assoc": 0},
        {"l1_assoc": -4},
        {"bus_width": 0},
        {"l1_assoc": 3},                     # 32 KB is not 3-way * 32 B
        {"l2_size": 48, "l2_assoc": 1},      # not a whole number of lines
        {"mem_latency": -5},
        {"l2_latency": -1},
        {"bus_arbitration": -1},
        {"undo_cycles_per_entry": -1},
        {"merge_cycles_per_line": -1},
        {"syscall_cycles": -200},
    ], ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()))
    def test_rejects_bad_geometry_and_costs(self, overrides):
        with pytest.raises(ConfigError):
            SystemConfig(**overrides)

    def test_replace_builds_variant(self):
        config = paper_config()
        flat = config.replace(flatten=True)
        assert flat.flatten and not config.flatten
        assert flat.n_cpus == config.n_cpus


class TestAddr:
    def test_line_of(self):
        assert addr.line_of(0x1234, 32) == 0x1220
        assert addr.line_of(0x1220, 32) == 0x1220

    def test_word_index_in_line(self):
        assert addr.word_index_in_line(0x1220, 32) == 0
        assert addr.word_index_in_line(0x1224, 32) == 1
        assert addr.word_index_in_line(0x123C, 32) == 7

    def test_words_of_line(self):
        words = list(addr.words_of_line(0x100, 32))
        assert len(words) == 8
        assert words[0] == 0x100 and words[-1] == 0x11C

    def test_alignment_check(self):
        assert addr.check_word_aligned(0x100) == 0x100
        with pytest.raises(MemoryError_):
            addr.check_word_aligned(0x101)

    def test_private_segments_disjoint(self):
        base0 = addr.private_base(0)
        base1 = addr.private_base(1)
        assert base1 - base0 == addr.PRIVATE_SPAN
        assert addr.is_private(base0)
        assert not addr.is_private(addr.SHARED_BASE)
        assert addr.owner_of_private(base1 + 100) == 1

    def test_owner_of_shared_raises(self):
        with pytest.raises(MemoryError_):
            addr.owner_of_private(addr.SHARED_BASE)


class TestStats:
    def test_add_and_get(self):
        stats = Stats()
        stats.add("x")
        stats.add("x", 4)
        assert stats.get("x") == 5
        assert stats.get("missing") == 0

    def test_scopes_prefix(self):
        stats = Stats()
        cpu = stats.scope("cpu0")
        cpu.add("l1.hits", 3)
        assert stats.get("cpu0.l1.hits") == 3
        deeper = cpu.scope("htm")
        deeper.add("commits")
        assert stats.get("cpu0.htm.commits") == 1

    def test_total_sums_suffix(self):
        stats = Stats()
        stats.add("cpu0.htm.violations", 2)
        stats.add("cpu1.htm.violations", 3)
        stats.add("unrelated", 100)
        assert stats.total("htm.violations") == 5

    def test_matching(self):
        stats = Stats()
        stats.add("bus.wait", 7)
        stats.add("bus.busy", 9)
        assert stats.matching("bus") == {"bus.wait": 7, "bus.busy": 9}


class TestSignals:
    def test_rollback_is_base_exception(self):
        # `except Exception` in workload code must not swallow rollbacks.
        assert not issubclass(TxSignal, Exception)
        with pytest.raises(TxRollback):
            try:
                raise TxRollback(1, "violation")
            except Exception:  # noqa: BLE001
                pytest.fail("TxRollback must escape 'except Exception'")

    def test_capacity_abort_is_rollback(self):
        overflow = CapacityAbort(2, "set full")
        assert isinstance(overflow, TxRollback)
        assert overflow.reason == "capacity"
        assert overflow.level == 2
