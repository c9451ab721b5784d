"""``Kernel.run()`` pauses the cyclic collector, so whatever a run leaves
behind must die by reference counting: a finished process, its generator
and its name must not form a cycle."""

import gc

from repro.net import Host, Network, Topology, service_time
from repro.sim import Kernel, Resource


class Server(Host):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cpu = Resource(self.kernel, capacity=1, name="cpu")

    @service_time(lambda server, text: 20e-6)
    def rpc_echo(self, text):
        return text

    def rpc_nap(self, seconds):
        yield self.kernel.timeout(seconds)
        return "rested"


def test_a_run_leaves_no_cyclic_garbage():
    kernel = Kernel()
    net = Network(kernel, Topology.ec2(2), jitter_frac=0.0)
    server = Server(kernel, net, 0, "server")
    doomed = Server(kernel, net, 1, "doomed")
    client = Host(kernel, net, 0, "client")
    for host in (server, doomed, client):
        host.start()

    def workload():
        for i in range(1000):
            assert (yield from client.call("server", "echo", text=i, timeout=5.0)) == i
        # Handlers mid-sleep when their host dies: the crash interrupts
        # them, so they finish through the exception path.
        for _ in range(5):
            kernel.spawn(client.call("doomed", "nap", seconds=10.0))
        yield kernel.timeout(0.5)
        doomed.crash()

    gc.collect()
    gc.disable()  # so the final collect() sees everything the run left
    try:
        kernel.run_process(workload())
        kernel.run(until=kernel.now + 20.0)
        assert gc.collect() == 0
    finally:
        gc.enable()
