"""Properties of the fault-tolerant job layer.

Two contracts crash-resumability stands on:

* **shard-key stability** — a shard's content address is a pure
  function of (trial fn, grid slice): recomputing it, or rebuilding
  the same grid from scratch, yields the same key, while changing any
  task's point, seed, or index yields a different one.  Resume
  correctness is exactly this property — a journal entry must match
  the same work and only the same work.
* **journal robustness** — whatever rows a sweep records, a reload
  returns them verbatim; and however the journal's tail is torn or
  scribbled on, the loader never trusts a damaged line (it counts and
  skips it) and never loses an intact one.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.runtime.jobs import ShardCheckpoint, build_tasks, shard_key

# ----------------------------------------------------------------------
# Strategies

points = st.lists(
    st.one_of(
        st.integers(min_value=-2 ** 31, max_value=2 ** 31),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.text(max_size=8),
        st.tuples(st.integers(min_value=0, max_value=255),
                  st.floats(allow_nan=False, allow_infinity=False,
                            width=32)),
    ),
    min_size=1, max_size=6,
)

#: JSON-ish picklable trial results, as the experiments produce.
values = st.one_of(
    st.integers(min_value=-10 ** 9, max_value=10 ** 9),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=16),
    st.tuples(st.integers(min_value=0, max_value=10 ** 6),
              st.floats(allow_nan=False, allow_infinity=False)),
)

row_lists = st.lists(values, min_size=1, max_size=8).map(
    lambda vs: [(index, value) for index, value in enumerate(vs)])


def _fn(point, rng):  # a stable identity for keying
    return point


# ----------------------------------------------------------------------
# Shard keys


@given(points,
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=50, deadline=None)
def test_shard_key_is_stable_across_rebuilds(grid, trials, seed_root):
    first = build_tasks(grid, trials, seed_root)
    rebuilt = build_tasks(list(grid), trials, seed_root)
    assert shard_key(_fn, first) == shard_key(_fn, first)
    assert shard_key(_fn, first) == shard_key(_fn, rebuilt)


@given(points,
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=50, deadline=None)
def test_shard_key_changes_with_seed_root_and_slice(grid, trials, seed_root):
    tasks = build_tasks(grid, trials, seed_root)
    reseeded = build_tasks(grid, trials, seed_root + 1)
    assert shard_key(_fn, tasks) != shard_key(_fn, reseeded)
    if len(tasks) > 1:
        assert shard_key(_fn, tasks[:-1]) != shard_key(_fn, tasks)


# ----------------------------------------------------------------------
# Checkpoint journal


@given(st.lists(row_lists, min_size=1, max_size=6))
@settings(max_examples=50, deadline=None)
def test_journal_round_trips_every_recorded_shard(tmp_path_factory, shards):
    path = tmp_path_factory.mktemp("journal") / "j.jsonl"
    with ShardCheckpoint(path) as journal:
        for shard_index, rows in enumerate(shards):
            journal.record(f"key-{shard_index}", shard_index, 1, rows)
    reloaded = ShardCheckpoint(path)
    try:
        assert len(reloaded) == len(shards)
        assert reloaded.corrupt_entries == 0
        for shard_index, rows in enumerate(shards):
            assert reloaded.get(f"key-{shard_index}") == rows
    finally:
        reloaded.close()


@given(row_lists, row_lists,
       st.integers(min_value=1, max_value=200),
       st.binary(max_size=64))
@settings(max_examples=50, deadline=None)
def test_torn_tail_never_poisons_intact_entries(tmp_path_factory,
                                                rows_a, rows_b,
                                                cut, scribble):
    path = tmp_path_factory.mktemp("journal") / "j.jsonl"
    with ShardCheckpoint(path) as journal:
        journal.record("key-a", 0, 1, rows_a)
        journal.record("key-b", 1, 1, rows_b)
    # Tear the final line at an arbitrary byte and append arbitrary
    # garbage — the kill-during-append failure mode.
    lines = path.read_text().splitlines()
    torn = lines[-1][:max(1, len(lines[-1]) - cut)]
    path.write_bytes(("\n".join(lines[:-1] + [torn]) + "\n").encode()
                     + scribble)
    reloaded = ShardCheckpoint(path)
    try:
        assert reloaded.get("key-a") == rows_a
        assert reloaded.get("key-b") is None
        assert reloaded.corrupt_entries >= 1
    finally:
        reloaded.close()
