"""Server process of the served workloads.

``python3 perfbench/serve_proc.py`` builds the benchmark network's
signature index (default engine, spanning trees kept so ``/v1/edges`` can apply
§5.4 updates), serves it with :class:`repro.serve.QueryServer` under the
default :class:`repro.serve.ServeConfig` (``workers=1``) on an ephemeral
port, prints one JSON line ``{"port", "index_mib"}`` once it accepts
connections, and serves until SIGTERM.
"""

from __future__ import annotations

import asyncio
import json

from common import index_mib, make_inputs, require_program


async def main() -> None:
    require_program()
    from repro import SignatureIndex
    from repro.serve import QueryServer, ServeConfig

    inputs = make_inputs()
    index = SignatureIndex.build(inputs.network, inputs.dataset, keep_trees=True)
    server = QueryServer(index, ServeConfig(port=0))
    await server.start()
    print(json.dumps({"port": server.port, "index_mib": index_mib(index)}), flush=True)
    await server.serve_forever()


if __name__ == "__main__":
    asyncio.run(main())
