"""Image management: the pimaster's upgrade/patch/spawn tooling (§II-A).

The pimaster "hosts image management tools providing image upgrading,
patching, and spawning".  :class:`ImageService` keeps the versioned
library and pushes images to nodes: a push is a REST POST whose wire size
is the rootfs size, so distributing a 220 MiB webserver image to a rack
genuinely loads the fabric and the receiving SD cards.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro import trace
from repro.errors import ImageError
from repro.mgmt.rest import RestClient
from repro.sim.kernel import Simulator
from repro.sim.process import Signal
from repro.virt.image import ContainerImage, ImageLibrary

IMAGE_CACHE_DIR = "/var/cache/picloud/images"


def cache_path(image: ContainerImage) -> str:
    """Where a node keeps ``image``'s rootfs on its SD card."""
    return f"{IMAGE_CACHE_DIR}/{image.name}-v{image.version}.rootfs"


def image_descriptor(image: ContainerImage) -> dict:
    """The ``POST /images`` body a node daemon rebuilds ``image`` from."""
    return {
        "name": image.name,
        "version": image.version,
        "size": image.rootfs_bytes,
        "idle_memory": image.idle_memory_bytes,
        "app_class": image.app_class,
    }


class ImageService:
    """The pimaster-side image store and distributor."""

    def __init__(self, sim: Simulator, library: Optional[ImageLibrary] = None) -> None:
        self.sim = sim
        self.library = library or ImageLibrary()
        # node_id -> set of qualified image names known to be cached there.
        self._node_caches: Dict[str, Set[str]] = {}
        self.pushes = 0
        self.push_bytes = 0.0

    # -- library passthroughs --------------------------------------------------

    def get(self, name: str) -> ContainerImage:
        return self.library.get(name)

    def publish(self, image: ContainerImage) -> None:
        self.library.publish(image)

    # -- distribution -------------------------------------------------------------

    def node_has(self, node_id: str, image: ContainerImage) -> bool:
        return image.qualified_name in self._node_caches.get(node_id, set())

    def mark_cached(self, node_id: str, image: ContainerImage) -> None:
        self._node_caches.setdefault(node_id, set()).add(image.qualified_name)

    def invalidate_node(self, node_id: str) -> None:
        """Forget a node's cache (e.g. after SD-card reimage or failure)."""
        self._node_caches.pop(node_id, None)

    def ensure_cached(
        self,
        client: RestClient,
        node_id: str,
        node_ip: str,
        node_port: int,
        image: ContainerImage,
        parent=None,
    ) -> Signal:
        """Push ``image`` to a node unless it already has it.

        The Signal succeeds with True if a push happened, False if the
        cache was already warm; a push fails as :meth:`push` does.
        """
        if self.node_has(node_id, image):
            return Signal(self.sim).succeed(False)
        return self.push(client, node_id, node_ip, node_port, image,
                         parent=parent)

    def push(
        self,
        client: RestClient,
        node_id: str,
        node_ip: str,
        node_port: int,
        image: ContainerImage,
        parent=None,
    ) -> Signal:
        """Send ``image`` to a node's daemon over ``client``, warm or not.

        The Signal succeeds with True once the node has cached it; fails
        with :class:`ImageError` wrapping any transport/daemon error.
        ``parent`` threads the caller's span so the push (a large flow on
        the fabric) is causally attributed.  Every push counts in
        ``pushes``/``push_bytes``, whoever sends the bytes.
        """
        span = trace.start_span(
            self.sim, "mgmt.image_push", parent=parent, kind="mgmt",
            attributes={"image": image.qualified_name, "node": node_id,
                        "bytes": image.rootfs_bytes},
        )

        def run():
            try:
                response = yield client.post(
                    node_ip, node_port, "/images",
                    body=image_descriptor(image),
                    # The POST body *is* the rootfs: size it accordingly.
                    wire_size=image.rootfs_bytes,
                    parent=span,
                )
                response.raise_for_status()
            except Exception as exc:  # noqa: BLE001 - wrap for the caller
                span.end("error", str(exc))
                raise ImageError(
                    f"push of {image.qualified_name} to {node_id} failed: {exc}"
                ) from exc
            self.mark_cached(node_id, image)
            self.pushes += 1
            self.push_bytes += image.rootfs_bytes
            span.end("ok")
            return True

        return self.sim.process(run(), name=f"image-push:{node_id}")
