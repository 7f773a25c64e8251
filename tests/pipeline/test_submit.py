"""``submit`` + ``BatchOptions``: the one execution entry point.

Covers option validation, the shorthand-vs-explicit retry policy and
the fault-plan environment bridge (exported for pool workers, restored
after).
"""

import os

import pytest

from repro.core import calibrated_supply
from repro.errors import SpecError
from repro.pipeline import (
    BatchOptions,
    JobSpec,
    RetryPolicy,
    faults,
    submit,
)


@pytest.fixture(scope="module")
def network():
    return calibrated_supply(150)


def _specs(network, names=("gzip", "mcf"), cycles=2048):
    return [
        JobSpec.make(name, network=network, cycles=cycles)
        for name in names
    ]


def test_options_defaults_are_inline_uncached():
    options = BatchOptions()
    assert options.jobs == 1
    assert options.cache_dir is None
    policy = options.retry_policy()
    assert policy.max_attempts == 1
    assert policy.timeout_s is None


def test_options_validation():
    with pytest.raises(SpecError, match="retries"):
        BatchOptions(retries=-1)


def test_shorthand_builds_policy_and_explicit_wins():
    options = BatchOptions(retries=2, timeout_s=9.0, backoff_s=0.5)
    policy = options.retry_policy()
    assert policy.max_attempts == 3
    assert policy.timeout_s == 9.0
    assert policy.backoff_s == 0.5
    explicit = RetryPolicy(max_attempts=7)
    assert (
        BatchOptions(retries=2, policy=explicit).retry_policy() is explicit
    )


def test_with_returns_modified_copy():
    base = BatchOptions(jobs=4)
    changed = base.with_(resume=True)
    assert changed.jobs == 4 and changed.resume
    assert not base.resume  # frozen original untouched


def test_submit_runs_and_defaults(network, tmp_path):
    batch = submit(
        _specs(network), BatchOptions(cache_dir=str(tmp_path))
    )
    assert batch.ok and len(batch.outcomes) == 2
    assert submit(_specs(network)).ok  # options=None -> defaults


def test_submit_exports_and_restores_fault_plan(network, monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    batch = submit(
        _specs(network, names=("gzip",)),
        BatchOptions(
            raise_on_error=False, fault_plan="characterize@gzip:raise"
        ),
    )
    assert not batch.ok
    assert faults.ENV_VAR not in os.environ  # restored
