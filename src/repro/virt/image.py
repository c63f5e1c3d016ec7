"""Container images and the image library.

An image is a rootfs blob plus runtime characteristics: how much RSS the
container occupies when idle (the paper measures ~30 MB), and a label for
the application class it runs (the Fig. 3 stack shows web server,
database and Hadoop containers).  The pimaster's image-management tools
(§II-A) publish new versions of these and spawn containers from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ImageError
from repro.units import mib


@dataclass(frozen=True)
class ContainerImage:
    """An immutable image version."""

    name: str
    version: int
    rootfs_bytes: int
    idle_memory_bytes: int = mib(30)
    app_class: str = "generic"
    description: str = ""

    def __post_init__(self) -> None:
        if self.rootfs_bytes <= 0:
            raise ImageError(f"image {self.name!r}: rootfs_bytes must be positive")
        if self.idle_memory_bytes <= 0:
            raise ImageError(f"image {self.name!r}: idle_memory_bytes must be positive")
        if self.version < 1:
            raise ImageError(f"image {self.name!r}: version must be >= 1")

    @property
    def qualified_name(self) -> str:
        return f"{self.name}:v{self.version}"


# The application classes named in the paper (Fig. 3 and §IV).
STANDARD_IMAGES: Dict[str, ContainerImage] = {
    image.name: image
    for image in (
        ContainerImage(
            name="base",
            version=1,
            rootfs_bytes=mib(200),
            idle_memory_bytes=mib(30),
            app_class="generic",
            description="Minimal Raspbian-derived rootfs",
        ),
        ContainerImage(
            name="webserver",
            version=1,
            rootfs_bytes=mib(220),
            idle_memory_bytes=mib(30),
            app_class="http",
            description="Lightweight httpd (the paper's 'lightweight httpd servers')",
        ),
        ContainerImage(
            name="database",
            version=1,
            rootfs_bytes=mib(260),
            idle_memory_bytes=mib(35),
            app_class="kvstore",
            description="Key-value database container (Fig. 3 'Database')",
        ),
        ContainerImage(
            name="hadoop-worker",
            version=1,
            rootfs_bytes=mib(300),
            idle_memory_bytes=mib(40),
            app_class="mapreduce",
            description="Hadoop-style worker (Fig. 3 'Hadoop')",
        ),
    )
}


class ImageLibrary:
    """A versioned image registry (every pimaster owns one).

    ``get(name)`` returns the latest version; older versions stay
    addressable by qualified name for rollback studies.
    """

    def __init__(self, images: Optional[Dict[str, ContainerImage]] = None) -> None:
        self._latest: Dict[str, ContainerImage] = {}
        self._all: Dict[str, ContainerImage] = {}
        for image in (images or STANDARD_IMAGES).values():
            self.publish(image)

    def publish(self, image: ContainerImage) -> None:
        """Add an image version; must be strictly newer than the latest."""
        current = self._latest.get(image.name)
        if current is not None and image.version <= current.version:
            raise ImageError(
                f"cannot publish {image.qualified_name}; "
                f"{current.qualified_name} is already current"
            )
        self._latest[image.name] = image
        self._all[image.qualified_name] = image

    def get(self, name: str) -> ContainerImage:
        """Latest version of ``name`` (or an exact ``name:vN``)."""
        if ":" in name:
            try:
                return self._all[name]
            except KeyError:
                raise ImageError(f"no image {name!r}") from None
        try:
            return self._latest[name]
        except KeyError:
            known = ", ".join(sorted(self._latest))
            raise ImageError(f"no image {name!r}; library has: {known}") from None

    def names(self) -> list[str]:
        return sorted(self._latest)
