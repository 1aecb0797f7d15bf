"""The served system, its workloads, and the client sessions that drive it.

Every workload runs the same served path: a durable ``Cluster`` behind
its asyncio TCP front door (``ClusterServer``), driven by closed-loop
sessions, one ``ClusterClient`` each, sharing the server's event loop
(2 shards and 2 sessions, except where a workload says otherwise).

A run has two phases that never overlap.  In the deck phase the
sessions deal Figure 6 cards (without Admin) and send them over TCP.
In the rollup phase one caller alternates a fused ``FOR TENANTS``
rollup with a Select Heavy report for a random tenant, and nothing else
runs.  A rollup goes through each shard's worker queue
(``ShardWorker.submit`` into ``MultiTenantDatabase.execute_cross``):
the cluster has no cross-tenant wire operation.  Keeping the phases
apart means no share of rollups is mixed into the Figure 6 traffic;
a workload's ``rollup_share`` only splits the measuring time.

Storage: each shard is a disk-backed engine with ``DurabilityOptions()``
defaults, that is ``group_commit=1`` (one fsync per commit) and the
default 256 KiB auto-checkpoint.  ``storage_latency_ms=0``: no simulated
commit sleep is mixed into the measured time.  Layout: ``chunk_folding``.
Tenants are placed by the catalog's hash ring, without pins.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.cluster import Cluster, ClusterClient, ShardOptions
from repro.cluster.errors import ClusterError
from repro.cluster.protocol import encode_value
from repro.engine.durability import DurabilityOptions
from repro.testbed.actions import (
    ACTION_DISTRIBUTION,
    HEAVY_BATCH,
    ActionClass,
    _reporting_queries,
)
from repro.testbed.crm import (
    CRM_PARENTS,
    CRM_TABLE_NAMES,
    crm_tables,
    instance_table_name,
)
from repro.testbed.deck import CardDeck
from repro.testbed.generator import DataGenerator, TenantDataProfile
from repro.testbed.variability import VariabilityConfig, distribute_tenants

#: Figure 6 without the 0.01 % Admin card: schema DDL is not a wire
#: operation of the cluster.
FIG6_SERVED = {
    action: share
    for action, share in ACTION_DISTRIBUTION.items()
    if action is not ActionClass.ADMIN
}
ROLLUP = "Rollup"
#: The Select Heavy reports of the rollup phase, kept apart from the
#: deck's Select Heavy cards.
REPORT = "Rollup-phase report"
DECK_SIZE = 20_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Table 1 schema variability: 0.0 = one CRM instance for everyone.
    variability: float
    tenants: int
    rows: TenantDataProfile
    #: Share of the timed window given to the rollup phase.
    rollup_share: float
    shards: int = 2
    #: Closed-loop client sessions, one TCP connection each.
    sessions: int = 2
    #: Buffer-pool frames per shard in the rollup phase; ``None`` keeps
    #: the engine default (16 MiB of memory, ~2,000 frames).
    pool_pages: int | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="oltp",
            why=(
                "Figure 6 mix over TCP on one shared CRM schema that fits in "
                "cache: fixed per-request costs (wire, router, shard queue, "
                "statement-cache hit) and the B-tree/WAL write path dominate"
            ),
            variability=0.0,
            tenants=16,
            rows=TenantDataProfile(default_rows=10),
            rollup_share=0.25,
        ),
        Workload(
            name="oltp-varied",
            why=(
                "the same mix at Table 1 variability 1.0: 12 schema instances, "
                "120 tables, so about one statement in seven misses the MT "
                "statement cache and re-runs transform and planning"
            ),
            variability=1.0,
            tenants=12,
            rows=TenantDataProfile(default_rows=10),
            rollup_share=0.25,
        ),
        Workload(
            name="rollup",
            why=(
                "fused FOR ALL TENANTS rollups and reports over a pool smaller "
                "than the pages they scan: scan, aggregate and page reads "
                "from the page files dominate"
            ),
            variability=0.0,
            tenants=16,
            rows=TenantDataProfile(
                default_rows=4,
                rows_per_table={"account": 10, "opportunity": 40},
            ),
            rollup_share=0.4,
            shards=1,
            sessions=1,
            # Below the 16 pages one scan of ``opportunity`` reads, so
            # under LRU every rollup reads its pages back from the page
            # files; a pool near the scan's size leaves them resident
            # for some runs and not others.
            pool_pages=10,
        ),
    )
}

#: The three fixed rollup shapes: per-tenant totals, by stage, and
#: tenant x status.  ``{opp}``/``{acct}`` are the instance's tables.
ROLLUP_SHAPES = (
    "SELECT TENANT_ID() AS t, COUNT(*) AS n, SUM(amount) AS total "
    "FROM {opp} GROUP BY TENANT_ID() {tenants}",
    "SELECT stage, COUNT(*) AS n FROM {opp} GROUP BY stage {tenants}",
    "SELECT TENANT_ID() AS t, status, COUNT(*) AS n FROM {acct} "
    "GROUP BY TENANT_ID(), status {tenants}",
)


def user_bytes(values: dict) -> int:
    """Encoded size of one logical row: its values as the wire encodes
    them, without the column names."""
    return len(json.dumps(encode_value(list(values.values())), separators=(",", ":")))


def base_name(table: str) -> str:
    return table.split("_i")[0]


# -- expected results ---------------------------------------------------------


@dataclass
class _TenantAggregates:
    """What the rollup shapes read of one tenant's rows."""

    opp_rows: int = 0
    amount_sum: float = 0.0
    amounts: int = 0
    stages: Counter = field(default_factory=Counter)
    statuses: Counter = field(default_factory=Counter)

    def add(self, base: str, values: dict) -> None:
        if base == "opportunity":
            self.opp_rows += 1
            if values.get("amount") is not None:
                self.amount_sum += values["amount"]
                self.amounts += 1
            self.stages[values.get("stage")] += 1
        elif base == "account":
            self.statuses[values.get("status")] += 1


class Oracle:
    """Expected state: the rows loaded, plus every acknowledged insert.

    The rollup aggregates start from the per-tenant loop, run once at
    set-up on the loaded data; acknowledged inserts are added as they
    are acknowledged.  No workload updates the columns the rollups read
    (updates touch ``priority`` and ``score``) and none deletes.
    """

    def __init__(self) -> None:
        self.rows: Counter = Counter()  # (tenant, table) -> rows
        self.aggregates: dict[int, _TenantAggregates] = {}
        self.user_bytes = 0

    def loaded(self, tenant: int, table: str, values: dict) -> None:
        self.rows[(tenant, table)] += 1
        self.user_bytes += user_bytes(values)

    def ack(self, tenant: int, table: str, values: dict) -> None:
        self.rows[(tenant, table)] += 1
        self.user_bytes += user_bytes(values)
        self.aggregates[tenant].add(base_name(table), values)


def _shape_rows(shape: int, aggregates: dict[int, _TenantAggregates]):
    """The result one rollup shape should give over these tenants, in
    a comparable form."""
    if shape == 0:
        return {
            t: (a.opp_rows, a.amount_sum if a.amounts else None)
            for t, a in aggregates.items()
            if a.opp_rows
        }
    if shape == 1:
        total: Counter = Counter()
        for a in aggregates.values():
            total.update(a.stages)
        return dict(total)
    return {
        (t, status): n
        for t, a in aggregates.items()
        for status, n in a.statuses.items()
    }


def _result_rows(shape: int, rows: list[tuple]):
    if shape == 0:
        return {t: (n, total) for t, n, total in rows}
    if shape == 1:
        return {stage: n for stage, n in rows}
    return {(t, status): n for t, status, n in rows}


def _same(expected: dict, got: dict) -> bool:
    if expected.keys() != got.keys():
        return False
    for key, want in expected.items():
        have = got[key]
        if isinstance(want, tuple):
            (n_w, s_w), (n_h, s_h) = want, have
            if n_w != n_h or (s_w is None) != (s_h is None):
                return False
            if s_w is not None and abs(s_w - s_h) > 1e-6 * max(1.0, abs(s_w)):
                return False
        elif want != have:
            return False
    return True


# -- the served system --------------------------------------------------------


class Served:
    """One set-up instance: cluster, server, clients and expectations."""

    def __init__(self, workload: Workload, seed: int, path: Path) -> None:
        self.workload = workload
        self.path = path
        self.cluster: Cluster | None = None
        self.server = None
        self.clients: list[ClusterClient] = []
        self.oracle = Oracle()
        variability = VariabilityConfig(workload.variability, workload.tenants)
        self.tenant_instance = distribute_tenants(variability)
        self.instance_tables = {
            i: {t.name: t for t in crm_tables(i)}
            for i in range(variability.instances)
        }
        self.generator = DataGenerator(seed)

    async def build(self) -> None:
        """Create, load and serve; the part that ``setup_s`` times."""
        workload = self.workload
        self.cluster = cluster = Cluster(
            self.path,
            shards=workload.shards,
            options=ShardOptions(
                storage_latency_ms=0.0, durability=DurabilityOptions()
            ),
        )
        for tables in self.instance_tables.values():
            for table in tables.values():
                cluster.define_table(table)
        for tenant, instance in self.tenant_instance.items():
            name = cluster.create_tenant(tenant)
            self._load(cluster.shards[name].mtd, tenant, instance)
        self._default_pool = {
            name: shard.mtd.db.pool.capacity_pages
            for name, shard in cluster.shards.items()
        }
        self.server = cluster.serve()
        await self.server.start()
        for _ in range(workload.sessions):
            client = ClusterClient("127.0.0.1", self.server.port)
            await client.connect()
            self.clients.append(client)

    def _load(self, mtd, tenant: int, instance: int) -> None:
        """Load one tenant's initial rows in one transaction (one commit,
        one WAL fsync).  Parents before children, foreign keys within
        the parent's rows (the testbed generator's rules)."""
        counts: dict[str, int] = {}
        with mtd.db.atomic():
            for name, table in self.instance_tables[instance].items():
                parent = CRM_PARENTS.get(base_name(name))
                parent_rows = None
                if parent is not None:
                    parent_rows = counts[instance_table_name(parent, instance)]
                rows = self.workload.rows.rows_for(name)
                for row in range(rows):
                    values = self.generator.row(tenant, table, row, parent_rows)
                    mtd.insert(tenant, name, values)
                    self.oracle.loaded(tenant, name, values)
                counts[name] = rows

    def record_rollup_baseline(self) -> None:
        """The per-tenant loop the fused rollups must agree with."""
        assert self.cluster is not None
        for tenant, instance in self.tenant_instance.items():
            mtd = self.cluster.shards[self.cluster.shard_of(tenant)].mtd
            opp = instance_table_name("opportunity", instance)
            acct = instance_table_name("account", instance)
            agg = _TenantAggregates()
            (n, total, amounts), = mtd.execute(
                tenant,
                f"SELECT COUNT(*), SUM(amount), COUNT(amount) FROM {opp}",
            ).rows
            agg.opp_rows, agg.amount_sum, agg.amounts = n, total or 0.0, amounts
            agg.stages.update(
                dict(
                    mtd.execute(
                        tenant, f"SELECT stage, COUNT(*) FROM {opp} GROUP BY stage"
                    ).rows
                )
            )
            agg.statuses.update(
                dict(
                    mtd.execute(
                        tenant,
                        f"SELECT status, COUNT(*) FROM {acct} GROUP BY status",
                    ).rows
                )
            )
            self.oracle.aggregates[tenant] = agg

    async def close(self) -> None:
        for client in self.clients:
            await client.close()
        self.clients = []
        if self.server is not None:
            await self.server.stop()
            self.server = None
        if self.cluster is not None:
            self.cluster.close()

    def use_pool(self, phase: str) -> None:
        """Size each shard's pool for a phase: the workload's own pool in
        the rollup phase, the engine's default in the deck phase.  No
        phase runs DDL, which would re-size the pool from the engine's
        memory budget."""
        if self.workload.pool_pages is None:
            return
        for name, shard in self.cluster.shards.items():
            shard.mtd.db.pool.resize(
                self.workload.pool_pages
                if phase == "rollup"
                else self._default_pool[name]
            )

    def disk_bytes(self) -> int:
        """Size of the data directory; call after :meth:`close`."""
        return sum(p.stat().st_size for p in self.path.rglob("*") if p.is_file())

    def checkpoint(self) -> None:
        """Checkpoint every shard: the page files compact to one version
        per page and the WAL restarts, so the directory size measures
        data at rest, not how far the last checkpoint cycle had got."""
        for shard in self.cluster.shards.values():
            shard.mtd.db.checkpoint()


# -- the card driver ----------------------------------------------------------


@dataclass
class Tally:
    """What one phase of the run produced."""

    #: (action class, latency in ms) per completed action.
    samples: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    write_requests: int = 0
    rows_written: int = 0
    problems: list = field(default_factory=list)

    def record(self, kind: str, ms: float) -> None:
        self.samples.append((kind, ms))


class Driver:
    """Runs the two phases' actions against the served system."""

    def __init__(self, served: Served, seed: int) -> None:
        self.served = served
        self.cluster = served.cluster
        self.workload = served.workload
        self.oracle = served.oracle
        self.tenants = sorted(served.tenant_instance)
        self._deck_seed = seed
        self._deck = CardDeck(
            DECK_SIZE, self.tenants, seed=seed, distribution=FIG6_SERVED
        )
        self._rollups = 0
        self._fresh: dict[tuple[int, str], int] = {}
        self.rngs = [
            random.Random(f"{seed}/session/{i}")
            for i in range(self.workload.sessions)
        ]
        self.rollup_rng = random.Random(f"{seed}/rollup")
        #: (shard name, instance) -> the instance's tenants on that shard.
        self.shard_tenants: dict[tuple[str, int], list[int]] = {}
        for tenant, instance in served.tenant_instance.items():
            key = (self.cluster.shard_of(tenant), instance)
            self.shard_tenants.setdefault(key, []).append(tenant)
        self.sessions = range(self.workload.sessions)
        self.tally = Tally()
        #: Called around every action (the traced run's hooks).
        self.begin_action = None
        self.end_action = None

    def deal(self) -> tuple[str, int]:
        card = self._deck.deal()
        if card is None:
            self._deck_seed += 1
            self._deck = CardDeck(
                DECK_SIZE, self.tenants, seed=self._deck_seed,
                distribution=FIG6_SERVED,
            )
            card = self._deck.deal()
        return card.action.value, card.tenant_id

    async def _timed(self, kind: str, action) -> None:
        """Run one action (a coroutine function returning whether its
        result was right), timing it and counting its outcome."""
        hook = self.begin_action(kind) if self.begin_action else None
        started = time.perf_counter()
        tally = self.tally
        tally.attempted += 1
        try:
            ok = await action()
        except ClusterError as exc:
            tally.problems.append(f"{kind}: {exc}")
            ok = False
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        if self.end_action:
            self.end_action(hook)
        if ok:
            tally.record(kind, elapsed_ms)
        else:
            tally.failed += 1

    async def session(self, index: int, deadline: float) -> None:
        """One closed-loop deck session: the next card only after the
        last."""
        client = self.served.clients[index]
        rng = self.rngs[index]
        while time.perf_counter() < deadline:
            kind, tenant = self.deal()
            await self._timed(
                kind, lambda: self.run(kind, tenant, client, rng)
            )

    async def rollup_caller(self, deadline: float) -> None:
        """The rollup phase: a fused rollup, then a Select Heavy report
        for a random tenant, in turn, until the deadline."""
        client = self.served.clients[0]
        rng = self.rollup_rng
        while time.perf_counter() < deadline:
            tenant = rng.choice(self.tenants)
            await self._timed(ROLLUP, lambda: self.rollup(tenant))
            tenant = rng.choice(self.tenants)
            await self._timed(
                REPORT, lambda: self.report(tenant, client, rng)
            )

    # -- actions ---------------------------------------------------------------

    def _table(self, tenant: int, base: str) -> str:
        return instance_table_name(base, self.served.tenant_instance[tenant])

    def _entity(self, rng: random.Random, table: str) -> int:
        return rng.randrange(self.workload.rows.rows_for(table)) + 1

    async def report(self, tenant: int, client, rng) -> bool:
        """One of the five Select Heavy reports on a random child table."""
        child = rng.choice(sorted(CRM_PARENTS))
        sql = rng.choice(
            _reporting_queries(
                self._table(tenant, child),
                self._table(tenant, CRM_PARENTS[child]),
            )
        )
        await client.execute(tenant, sql)
        return True

    async def run(self, kind: str, tenant: int, client, rng) -> bool:
        if kind == ActionClass.SELECT_LIGHT.value:
            table = self._table(tenant, rng.choice(CRM_TABLE_NAMES))
            wanted = self._entity(rng, table)
            result = await client.execute(
                tenant, f"SELECT * FROM {table} WHERE id = ?", (wanted,)
            )
            position = result.columns.index("id")
            if [row[position] for row in result.rows] != [wanted]:
                self.tally.problems.append(
                    f"select light {table} id {wanted} of tenant {tenant} "
                    f"returned {len(result.rows)} rows"
                )
                return False
            return True
        if kind == ActionClass.SELECT_HEAVY.value:
            return await self.report(tenant, client, rng)
        if kind in (ActionClass.INSERT_LIGHT.value, ActionClass.INSERT_HEAVY.value):
            table = self._table(tenant, rng.choice(CRM_TABLE_NAMES))
            batch = 1 if kind == ActionClass.INSERT_LIGHT.value else HEAVY_BATCH
            for _ in range(batch):
                await self._insert(client, tenant, table)
            return True
        table = self._table(tenant, rng.choice(CRM_TABLE_NAMES))
        if kind == ActionClass.UPDATE_LIGHT.value:
            result = await client.execute(
                tenant,
                f"UPDATE {table} SET priority = ? WHERE status = ?",
                (rng.randrange(10), rng.choice(("new", "open", "working"))),
            )
        else:
            ids = [self._entity(rng, table) for _ in range(HEAVY_BATCH)]
            marks = ", ".join("?" for _ in ids)
            result = await client.execute(
                tenant,
                f"UPDATE {table} SET score = score + 1 WHERE id IN ({marks})",
                tuple(ids),
            )
        self.tally.write_requests += 1
        self.tally.rows_written += result.rowcount
        return True

    async def _insert(self, client, tenant: int, table: str) -> None:
        key = (tenant, table)
        row_id = self._fresh.get(key, 100_000)
        self._fresh[key] = row_id + 1
        logical = self.served.instance_tables[
            self.served.tenant_instance[tenant]
        ][table]
        values = self.served.generator.row(
            tenant, logical, row_id, self.workload.rows.rows_for(table)
        )
        values["id"] = row_id
        await client.insert(tenant, table, values)
        self.oracle.ack(tenant, table, values)
        self.tally.write_requests += 1
        self.tally.rows_written += 1

    async def rollup(self, tenant: int) -> bool:
        """One fused rollup over the tenant's schema instance, run on
        every shard's worker queue, each shard's part checked against
        the per-tenant loop plus the acknowledged inserts."""
        instance = self.served.tenant_instance[tenant]
        shape = self._rollups % len(ROLLUP_SHAPES)
        self._rollups += 1
        parts = []
        for name, shard in self.cluster.shards.items():
            ids = self.shard_tenants.get((name, instance))
            if not ids:
                continue
            if self.workload.variability == 0.0:
                clause = "FOR ALL TENANTS"
            else:
                clause = f"FOR TENANTS IN ({', '.join(map(str, ids))})"
            sql = ROLLUP_SHAPES[shape].format(
                opp=instance_table_name("opportunity", instance),
                acct=instance_table_name("account", instance),
                tenants=clause,
            )
            parts.append((shard, ids, sql))
        results = await asyncio.gather(
            *(shard.submit(shard.mtd.execute_cross, sql) for shard, _, sql in parts)
        )
        ok = True
        for (shard, ids, sql), result in zip(parts, results):
            expected = _shape_rows(
                shape, {t: self.oracle.aggregates[t] for t in ids}
            )
            if not _same(expected, _result_rows(shape, result.rows)):
                self.tally.problems.append(
                    f"rollup on {shard.name} differs from the per-tenant "
                    f"loop: {sql}"
                )
                ok = False
        return ok

    async def check_row_counts(self) -> int:
        """Every tenant's rows are its loaded rows plus its acknowledged
        inserts; returns the number of tenants that differ."""
        counts = await self.cluster.gather_tenant_row_counts()
        wrong = 0
        for tenant in self.tenants:
            expected = {
                table: self.oracle.rows.get((tenant, table), 0)
                for table in counts.get(tenant, {})
            }
            if counts.get(tenant) != expected or not expected:
                self.tally.problems.append(
                    f"tenant {tenant} row counts {counts.get(tenant)} != "
                    f"{expected}"
                )
                wrong += 1
        return wrong
