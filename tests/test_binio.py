"""``binio.open_output``: the one rule by which dfaf replaces a file it writes."""

import os
import stat

from dfaf import binio
from dfaf.binio import open_output


def write(path, raw):
    with open_output(str(path)) as fh:
        fh.write(raw)


class TestOpenOutput:
    def test_replaced_file_takes_the_default_mode(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        path.chmod(0o600)
        umask = os.umask(0o022)
        try:
            write(path, b"new")
        finally:
            os.umask(umask)
        assert stat.S_IMODE(path.stat().st_mode) == 0o644

    def test_symlink_is_written_through(self, tmp_path):
        target = tmp_path / "target.bin"
        target.write_bytes(b"old bytes")
        link = tmp_path / "link.bin"
        link.symlink_to(target)
        write(link, b"new")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == b"new"

    def test_failed_unlink_falls_back_to_the_truncating_open(self, tmp_path, monkeypatch):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old bytes")
        inode = path.stat().st_ino

        def refuse(p, *args, **kwargs):
            raise PermissionError(13, "Permission denied", p)

        monkeypatch.setattr(binio.os, "unlink", refuse)
        write(path, b"new")
        assert path.read_bytes() == b"new"
        assert path.stat().st_ino == inode
