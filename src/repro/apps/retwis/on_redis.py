"""The original ReTwis data layout on the Redis-like store (paper §7).

"In the original implementation, a user's timeline is stored in a Redis
list.  When a user posts a message, ReTwis performs an atomic increment
on a sequence number to generate a postID, stores the message under the
postID, and appends the postID to each of her followers' timelines."

Redis allows updates only at the master, so all mutating commands go to
the master site regardless of where the client runs (which is why the
paper runs the Redis experiments at one site only).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ...net import Host
from .common import Post, ReTwisBackend, TIMELINE_SIZE


class RedisReTwis(ReTwisBackend):
    def __init__(self, master_address: str):
        self.master = master_address
        self.users: Dict[str, int] = {}  # username -> home site (bookkeeping)

    def register(self, username: str, site: int) -> None:
        self.users[username] = site

    def populate_direct(self, server, n_users: int, follows_per_user: int, seed: int = 0) -> None:
        """Seed the follower graph directly into the master's data dict
        (benchmark setup, not simulated traffic)."""
        import random

        rng = random.Random(seed)
        for i in range(n_users):
            self.register("u%d" % i, 0)
        names = list(self.users)
        for name in names:
            for other in rng.sample(names, min(follows_per_user + 1, len(names))):
                if other != name:
                    server.data.setdefault("following:%s" % name, set()).add(other)
                    server.data.setdefault("followers:%s" % other, set()).add(name)

    # ------------------------------------------------------------------
    # Operations (generators driven by a Host with RPC access)
    # ------------------------------------------------------------------
    def post(self, client: Host, username: str, text: str):
        post_id = yield from client.call(self.master, "incr", key="next_post_id")
        yield from client.call(
            self.master, "set", key="post:%d" % post_id, value=(username, text)
        )
        followers = yield from client.call(
            self.master, "smembers", key="followers:%s" % username
        )
        yield from client.call(
            self.master, "lpush", key="timeline:%s" % username, value=post_id
        )
        for follower in sorted(followers):
            yield from client.call(
                self.master, "lpush", key="timeline:%s" % follower, value=post_id
            )
        return {"status": "OK", "post": post_id}

    def follow(self, client: Host, username: str, other: str):
        yield from client.call(self.master, "sadd", key="following:%s" % username, member=other)
        yield from client.call(self.master, "sadd", key="followers:%s" % other, member=username)
        return {"status": "OK"}

    def status(self, client: Host, username: str) -> List[Post]:
        ids = yield from client.call(
            self.master, "lrange", key="timeline:%s" % username, start=0,
            stop=TIMELINE_SIZE - 1,
        )
        if not ids:
            return []
        values = yield from client.call(
            self.master, "mget", keys=["post:%d" % i for i in ids]
        )
        posts = []
        for post_id, value in zip(ids, values):
            if value is None:
                continue
            author, text = value
            posts.append(Post(post_id=str(post_id), author=author, text=text))
        return posts
