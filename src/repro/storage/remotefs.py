"""Remote file-system access served by the DPU (paper §2.4).

"remote file system access acceleration with DPUs using virtio-fs" (DPFS):
the file system lives on the DPU's flash and the DPU itself resolves paths
and serves reads — the client machine keeps no FS state and runs no FS
code. Handlers use the annotation walker, so the read path is the same
CPU-free machinery as experiment E9.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.errors import ProtocolError
from repro.fs.ext4 import HyperExtFs
from repro.fs.spiffy import LayoutWalker, ext4_annotation
from repro.hw.nvme.commands import NvmeCommand, NvmeOpcode
from repro.hw.nvme.controller import NvmeController
from repro.sim import Simulator
from repro.transport.rpc import RpcClient, RpcServer


class RemoteFsServer:
    """Exports one HyperExt file system over RPC, DPU-side."""

    def __init__(
        self,
        sim: Simulator,
        server: RpcServer,
        fs: HyperExtFs,
        controller: Optional[NvmeController] = None,
    ):
        self.sim = sim
        self.fs = fs
        self.controller = controller
        self.qp = None
        if controller is not None:
            self.qp = controller.create_queue_pair()
            controller.start()
        server.register("fs.lookup", self._lookup)
        server.register("fs.read", self._read)
        server.register("fs.readdir", self._readdir)
        server.register("fs.stat", self._stat)
        server.register("fs.write", self._write)
        server.register("fs.mkdir", self._mkdir)
        self.reads_served = 0

    def _charged_walker(self):
        blocks = [0]

        def read_blocks(lba: int, count: int) -> bytes:
            blocks[0] += count
            return self.fs.namespace.read_blocks(lba, count)

        return LayoutWalker(ext4_annotation(), read_blocks), blocks

    def _charge(self, block_reads: int):
        if self.qp is None:
            return
        for _ in range(block_reads):
            completion = yield self.qp.submit(NvmeCommand(NvmeOpcode.READ, lba=0))
            assert completion.ok

    # -- handlers (all run at the DPU) --------------------------------------
    def _lookup(self, path: str):
        walker, blocks = self._charged_walker()
        try:
            size, pieces = walker.resolve_file(path)
        except FileNotFoundError:
            raise ProtocolError(f"no such file: {path}")
        yield from self._charge(blocks[0])
        return {"size": size, "extents": pieces}

    def _read(self, path: str, offset: int = 0, length: Optional[int] = None):
        walker, blocks = self._charged_walker()
        try:
            data = walker.read_file(path)
        except FileNotFoundError:
            raise ProtocolError(f"no such file: {path}")
        yield from self._charge(blocks[0])
        self.reads_served += 1
        end = len(data) if length is None else offset + length
        return data[offset:end]

    def _readdir(self, path: str) -> List[str]:
        return self.fs.listdir(path)

    def _stat(self, path: str) -> Dict[str, int]:
        inode = self.fs.lookup(path)
        mode, size, __ = self.fs.read_inode(inode)
        return {"inode": inode, "mode": mode, "size": size}

    def _write(self, path: str, data: bytes):
        inode = self.fs.create_file(path, bytes(data))
        if self.controller is not None:
            # Charge the flash program time for the blocks just written
            # (the functional write already landed via the fs layer).
            blocks = max(1, -(-len(data) // 4096))
            for index in range(blocks):
                yield from self.controller.flash.program_page(index)
        return inode

    def _mkdir(self, path: str) -> int:
        return self.fs.mkdir(path)


class RemoteFsClient:
    """Client stub: a stateless, FS-code-free view of the remote tree."""

    def __init__(self, client: RpcClient, server_address: str):
        self.client = client
        self.server = server_address

    def read(self, path: str, offset: int = 0, length: Optional[int] = None):
        data = yield from self.client.call(
            self.server, "fs.read", path, offset, length,
            request_size=64 + len(path), response_size=4096,
        )
        return data

    def write(self, path: str, data: bytes):
        inode = yield from self.client.call(
            self.server, "fs.write", path, bytes(data),
            request_size=64 + len(path) + len(data), response_size=16,
        )
        return inode

    def readdir(self, path: str):
        entries = yield from self.client.call(
            self.server, "fs.readdir", path,
            request_size=64, response_size=512,
        )
        return entries

    def stat(self, path: str):
        meta = yield from self.client.call(
            self.server, "fs.stat", path,
            request_size=64, response_size=64,
        )
        return meta

    def mkdir(self, path: str):
        inode = yield from self.client.call(
            self.server, "fs.mkdir", path,
            request_size=64, response_size=16,
        )
        return inode
