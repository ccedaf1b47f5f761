"""An output file that a failed run leaves as it was: `stage` writes a new
file beside it, and `cli.main` moves that onto it once the report is
written, or removes it. Only `refute --out` writes a file, so only it
loads this module."""

import os
import stat


def stage(staged: list, path: str, *texts: str) -> None:
    """Write `texts` for `path`, or raise an OSError naming `path`. A new
    file, or a regular file of this user's with one link that this user
    may write, in a directory this user may write, is replaced: `texts` go
    to a new file beside it, with its mode, and (new file, `path`) is added
    to `staged`. Anything else, such as a symbolic link, a device, a pipe,
    a file that may not be replaced or an empty path, is written in place,
    as `open(path, "w")` would."""
    head, tail = os.path.split(path)
    try:
        st = os.lstat(path)
    except OSError:
        st = None  # a new file, or one that cannot be opened either
    replace = bool(tail) and os.access(head or ".", os.W_OK) and (
        st is None or (stat.S_ISREG(st.st_mode) and st.st_nlink == 1
                       and st.st_uid == os.geteuid()
                       and os.access(path, os.W_OK)))
    # a random name, so that a file a killed run left is not in the way
    new = (os.path.join(head, f".{tail}.{os.urandom(8).hex()}.tmp")
           if replace else path)
    try:
        with open(new, "x" if replace else "w") as fh:
            if replace:
                staged.append((new, path))
                if st is not None:
                    os.chmod(new, stat.S_IMODE(st.st_mode))
            fh.writelines(texts)
    except OSError as e:
        raise OSError(e.errno, e.strerror, path) from e
