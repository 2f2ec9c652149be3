"""Unix permissions and inode extent bookkeeping."""

import pytest

from repro.fs import (
    MODE_PRIVATE,
    MODE_WORLD,
    AccessDenied,
    Inode,
    User,
    UserDatabase,
    can_read,
    can_write,
    check_access,
)


def user(uid=1000, gid=100, groups=frozenset()):
    return User(uid=uid, gid=gid, groups=frozenset(groups))


class TestPermissionMatrix:
    def test_owner_rw_on_600(self):
        u = user(uid=1)
        assert can_read(MODE_PRIVATE, u, 1, 100)
        assert can_write(MODE_PRIVATE, u, 1, 100)

    def test_other_denied_on_600(self):
        u = user(uid=2)
        assert not can_read(MODE_PRIVATE, u, 1, 100)
        assert not can_write(MODE_PRIVATE, u, 1, 100)

    def test_group_read_on_640(self):
        member = user(uid=2, gid=100)
        assert can_read(0o640, member, 1, 100)
        assert not can_write(0o640, member, 1, 100)

    def test_supplementary_groups_count(self):
        u = user(uid=2, gid=7, groups={100})
        assert can_read(0o640, u, 1, 100)

    def test_world_mode_opens_everything(self):
        stranger = user(uid=99, gid=99)
        assert can_read(MODE_WORLD, stranger, 1, 100)
        assert can_write(MODE_WORLD, stranger, 1, 100)

    def test_root_bypasses_modes(self):
        root = user(uid=0)
        assert can_read(0o000, root, 1, 100)
        assert can_write(0o000, root, 1, 100)

    def test_owner_class_takes_priority_over_group(self):
        """mode 070 with owner in the group: owner class (0) applies."""
        owner = user(uid=1, gid=100)
        assert not can_read(0o070, owner, 1, 100)

    def test_check_access_raises(self):
        with pytest.raises(AccessDenied):
            check_access(MODE_PRIVATE, user(uid=2), 1, 100, write=False)

    def test_check_access_passes(self):
        check_access(MODE_PRIVATE, user(uid=1), 1, 100, write=True)


class TestUserDatabase:
    def test_add_and_get(self):
        db = UserDatabase()
        db.add_user(1000, 100, {7})
        u = db.user(1000)
        assert u.all_groups == {100, 7}

    def test_unknown_user(self):
        with pytest.raises(KeyError):
            UserDatabase().user(1)


class TestInode:
    def make(self, encrypted=False):
        inode = Inode(i_ino=42, i_uid=1000, i_gid=100, mode=0o644)
        return inode

    def test_not_encrypted_by_default(self):
        assert not self.make().encrypted

    def test_ensure_size_grows_only(self):
        inode = self.make()
        inode.ensure_size(100)
        inode.ensure_size(50)
        assert inode.size == 100

    def test_pages_counts_extents(self):
        inode = self.make()
        inode.extents[0] = 1
        inode.extents[5] = 2  # sparse
        assert inode.pages == 2
