"""Unit tests for LocalConfig (the shared configuration view)."""

import pytest

from repro.core import Container, ObjectId, ObjectKind
from repro.errors import NoSuchContainerError
from repro.server import LocalConfig


def make_config():
    config = LocalConfig(3)
    config.register(Container("a", 0, frozenset({0, 1, 2})))
    config.register(Container("b", 1, frozenset({0, 1, 2})))
    return config


def test_register_and_lookup():
    config = make_config()
    assert config.container("a").preferred_site == 0
    with pytest.raises(NoSuchContainerError):
        config.container("missing")
    assert {c.id for c in config.containers()} == {"a", "b"}


def test_preferred_site_and_replication_by_oid():
    config = make_config()
    oid = ObjectId("b", "x", ObjectKind.REGULAR)
    assert config.preferred_site(oid) == 1
    assert config.replicated_at(oid, 2)


def test_lease_lifecycle():
    config = make_config()
    assert config.holds_preferred_lease("a", 0)
    assert not config.holds_preferred_lease("a", 1)
    revoked = config.suspend_leases_of_site(0)
    assert revoked == ["a"]
    assert not config.holds_preferred_lease("a", 0)
    # "b" (site 1) untouched.
    assert config.holds_preferred_lease("b", 1)


def test_activate_deactivate_toggles_is_active():
    config = make_config()
    assert config.active_sites() == [0, 1, 2]
    config.deactivate_site(2)
    assert config.active_sites() == [0, 1]
    assert not config.is_active(2)
    config.activate_site(2)
    assert config.is_active(2)


def test_active_views_refresh_on_reconfiguration():
    config = make_config()
    assert config.active_mask() == 0b111
    config.deactivate_site(1)
    assert config.active_sites() == [0, 2]
    assert config.active_mask() == 0b101
    config.deactivate_site(1)  # already inactive: still consistent
    assert config.active_sites() == [0, 2]
    config.activate_site(1)
    assert config.active_sites() == [0, 1, 2]
    assert config.active_mask() == 0b111


def test_mutating_the_returned_active_list_cannot_corrupt_the_cache():
    config = make_config()
    sites = config.active_sites()
    sites.remove(0)
    sites.append(99)
    assert config.active_sites() == [0, 1, 2]
    assert config.active_mask() == 0b111
    assert config.active_sites() is not config.active_sites()


def test_reassign_and_restore_displaced():
    config = make_config()
    config.reassign_preferred_site("a", 2, remember_original=True)
    assert config.container("a").preferred_site == 2
    assert config.holds_preferred_lease("a", 2)
    assert config.displaced == {"a": 0}
    restored = config.restore_displaced(0)
    assert restored == ["a"]
    assert config.container("a").preferred_site == 0
    assert config.displaced == {}


def test_reassign_without_remember_does_not_displace():
    config = make_config()
    config.reassign_preferred_site("a", 1)
    assert config.displaced == {}
    assert config.restore_displaced(0) == []


def test_double_displacement_keeps_first_origin():
    config = make_config()
    config.reassign_preferred_site("a", 1, remember_original=True)
    config.reassign_preferred_site("a", 2, remember_original=True)
    assert config.displaced == {"a": 0}
    config.restore_displaced(0)
    assert config.container("a").preferred_site == 0
