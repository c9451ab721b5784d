"""Tests for ReTwis on both backends (paper §7, §8.7)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.apps.retwis import RedisReTwis, WalterReTwis, TIMELINE_SIZE
from repro.baselines import RedisServer
from repro.deployment import Deployment
from repro.net import Host, Network, Topology
from repro.sim import Kernel
from repro.storage import FLUSH_MEMORY


class TestWalterReTwis:
    @pytest.fixture
    def app(self):
        world = Deployment(n_sites=2, flush_latency=FLUSH_MEMORY, jitter_frac=0.0)
        retwis = WalterReTwis(world)
        retwis.populate(6, follows_per_user=2, seed=1)
        return world, retwis

    def test_populate_builds_symmetric_graph(self, app):
        world, retwis = app
        client = world.new_client(0)

        def check():
            tx = client.start_tx()
            following = yield from client.set_read(tx, retwis.users["u0"].following)
            yield from client.commit(tx)
            return list(following.members())

        following = world.run_process(check())
        assert following  # u0 follows someone
        for other in following:
            def check_back(other=other):
                tx = client.start_tx()
                followers = yield from client.set_read(tx, retwis.users[other].followers)
                yield from client.commit(tx)
                return list(followers.members())

            assert "u0" in world.run_process(check_back())

    def test_post_reaches_follower_timelines(self, app):
        world, retwis = app
        client = world.new_client(0)
        result = world.run_process(retwis.post(client, "u0", "first post"))
        assert result["status"] == "COMMITTED"
        world.settle(3.0)

        def follower_timeline(name):
            c = world.new_client(retwis.users[name].home_site)
            return world.run_process(retwis.status(c, name))

        # u0's own timeline has the post.
        own = follower_timeline("u0")
        assert any(p.text == "first post" for p in own)

    def test_follow_then_post_then_status(self, app):
        world, retwis = app
        client0 = world.new_client(0)
        client1 = world.new_client(1)
        world.run_process(retwis.follow(client1, "u1", "u0"))
        world.settle(3.0)
        world.run_process(retwis.post(client0, "u0", "hello u1"))
        world.settle(3.0)
        timeline = world.run_process(retwis.status(client1, "u1"))
        assert any(p.author == "u0" and p.text == "hello u1" for p in timeline)

    def test_timeline_is_newest_first_and_capped(self, app):
        world, retwis = app
        client = world.new_client(0)
        for i in range(TIMELINE_SIZE + 3):
            world.run_process(retwis.post(client, "u0", "post %d" % i))
        world.settle(3.0)
        timeline = world.run_process(retwis.status(client, "u0"))
        assert len(timeline) == TIMELINE_SIZE
        texts = [p.text for p in timeline]
        assert texts[0] == "post %d" % (TIMELINE_SIZE + 2)  # newest first
        assert texts == sorted(texts, key=lambda t: int(t.split()[1]), reverse=True)

    def test_unfollow_stops_future_posts(self, app):
        world, retwis = app
        client = world.new_client(0)
        # Fresh users outside the preloaded follower graph.
        retwis.register("fan", 0)
        retwis.register("star", 0)
        world.run_process(retwis.follow(client, "fan", "star"))
        world.run_process(retwis.unfollow(client, "fan", "star"))
        world.run_process(retwis.post(client, "star", "after unfollow"))
        world.settle(3.0)
        timeline = world.run_process(retwis.status(client, "fan"))
        assert not any(p.text == "after unfollow" for p in timeline)

    def test_concurrent_posts_to_same_timeline_never_conflict(self, app):
        # Timelines are csets: posts from both sites commit without
        # cross-site coordination (the reason for the port, §7).
        world, retwis = app
        client0 = world.new_client(0)
        client1 = world.new_client(1)
        world.run_process(retwis.follow(client0, "u4", "u0"))
        world.run_process(retwis.follow(client1, "u4", "u1"))
        world.settle(3.0)
        p0 = world.kernel.spawn(retwis.post(client0, "u0", "from site 0"))
        p1 = world.kernel.spawn(retwis.post(client1, "u1", "from site 1"))
        world.run(until=10.0)
        assert p0.value["status"] == "COMMITTED"
        assert p1.value["status"] == "COMMITTED"
        world.settle(3.0)
        client4 = world.new_client(0)
        texts = [p.text for p in world.run_process(retwis.status(client4, "u4"))]
        assert "from site 0" in texts and "from site 1" in texts


class TestRedisReTwis:
    @pytest.fixture
    def app(self):
        kernel = Kernel()
        net = Network(kernel, Topology.ec2(1), jitter_frac=0.0)
        server = RedisServer(kernel, net, 0, "redis-master")
        server.start()
        client = Host(kernel, net, 0, "web")
        client.start()
        retwis = RedisReTwis("redis-master")
        retwis.populate_direct(server, 6, follows_per_user=2, seed=1)
        return kernel, client, server, retwis

    def run(self, kernel, gen):
        return kernel.run_process(gen, until=kernel.now + 30.0)

    def test_post_increments_ids_and_stores(self, app):
        kernel, client, server, retwis = app
        r1 = self.run(kernel, retwis.post(client, "u0", "one"))
        r2 = self.run(kernel, retwis.post(client, "u0", "two"))
        assert r2["post"] == r1["post"] + 1
        assert server.data["post:%d" % r1["post"]] == ("u0", "one")

    def test_status_reads_followed_posts(self, app):
        kernel, client, server, retwis = app
        self.run(kernel, retwis.follow(client, "u5", "u0"))
        self.run(kernel, retwis.post(client, "u0", "hi"))
        timeline = self.run(kernel, retwis.status(client, "u5"))
        assert any(p.text == "hi" and p.author == "u0" for p in timeline)

    def test_timeline_capped_at_ten(self, app):
        kernel, client, server, retwis = app
        for i in range(13):
            self.run(kernel, retwis.post(client, "u0", "p%d" % i))
        timeline = self.run(kernel, retwis.status(client, "u0"))
        assert len(timeline) == TIMELINE_SIZE
        assert timeline[0].text == "p12"

    def test_empty_timeline(self, app):
        kernel, client, server, retwis = app
        retwis.register("loner", 0)
        assert self.run(kernel, retwis.status(client, "loner")) == []


def test_fig23_redis_cell_is_independent_of_hash_seed():
    """String hashing is salted per process; the Fig 23 Redis ``mixed``
    cell must not depend on it (a post fans out over a follower set)."""
    root = Path(__file__).resolve().parents[2]
    code = (
        "from bench_fig23_retwis import run_redis; print(run_redis('mixed'))"
    )
    cells = []
    for hash_seed in ("0", "1"):
        env = dict(
            os.environ,
            PYTHONHASHSEED=hash_seed,
            PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "benchmarks")]),
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True,
            capture_output=True, text=True,
        )
        cells.append(float(out.stdout))
    assert cells[0] == cells[1]
