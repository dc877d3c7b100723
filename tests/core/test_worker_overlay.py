"""WorkerPool.overlay: workers are copied on first touch, never written back."""

import copy

from repro.core.worker import Worker, WorkerPool
from repro.spatial import Point


def make_pool(size=4):
    return WorkerPool(
        Worker(worker_id=i, home=Point(i, 0.0), workplace=Point(0.0, i)) for i in range(size)
    )


def touch(pool, worker_id, landmark_id):
    pool.assign(worker_id)
    pool.get(worker_id).record_answer(landmark_id, correct=True)
    pool.get(worker_id).reward_points += 1.0
    pool.get(worker_id).familiar_places.append(Point(7.0, 7.0))


def test_overlay_copies_only_touched_workers():
    base = make_pool()
    base.get(1).record_answer(5, correct=False)
    overlay = base.overlay()
    assert all(a is b for a, b in zip(overlay.workers(), base.workers()))

    touched = overlay.get(1)
    assert touched is not base.get(1) and touched == base.get(1)
    assert touched.answer_history[5] is not base.get(1).answer_history[5]
    assert touched.home is base.get(1).home
    assert overlay.get(1) is touched  # copied once
    assert [w is b for w, b in zip(overlay.workers(), base.workers())] == [True, False, True, True]


def test_overlay_writes_reach_neither_the_base_nor_a_sibling():
    base = make_pool()
    frozen = copy.deepcopy(base.workers())
    first, second = base.overlay(), base.overlay()

    touch(first, 2, landmark_id=9)
    assert second.get(2) == frozen[2]
    touch(second, 2, landmark_id=10)
    touch(second, 3, landmark_id=10)

    assert base.workers() == frozen
    assert first.get(2).answer_history.keys() == {9}
    assert second.get(2).answer_history.keys() == {10}
    assert first.get(3) == frozen[3]
    assert first.get(2).outstanding_tasks == second.get(2).outstanding_tasks == 1

