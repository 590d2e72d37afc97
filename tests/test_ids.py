"""ID factory: sortability, determinism, counter restore."""

from nova.ids import ID_LENGTH, IdFactory


def test_ids_sort_in_creation_order():
    factory = IdFactory(seed=1)
    ids = [factory.new_id() for _ in range(50)]
    assert ids == sorted(ids)
    assert len(set(ids)) == 50
    assert all(len(i) == ID_LENGTH for i in ids)


def test_seeded_factory_reproducible():
    a = [IdFactory(seed=9).new_id() for _ in range(1)]
    b = [IdFactory(seed=9).new_id() for _ in range(1)]
    assert a == b
    assert IdFactory(seed=9).new_id() != IdFactory(seed=10).new_id()


def test_counter_restore_resumes_sequence():
    factory = IdFactory(seed=4)
    first = [factory.new_id() for _ in range(5)]
    resumed = IdFactory(seed=4, counter=3)
    assert resumed.new_id() == first[3]
    assert resumed.new_id() == first[4]

