"""The control plane's messaging: the 3-byte wire protocol
(:mod:`~repro.comm.protocol`), the one frame stack every stream reads
through (:mod:`~repro.comm.wire`), the shard link and the localhost TCP
helpers.  Import the submodules.
"""
