// Package shard is the sharded serving layer: a Coordinator owns N
// independent serve.Server replicas — each with its own contextrank.System,
// session manager, rank cache and lock — and routes every per-user
// operation (session applies, ranks) to one shard by consistent hash of
// the user ID. A context apply on shard 3 therefore never blocks a rank on
// shard 7: the single writer lock of the unsharded layer becomes N
// independent locks, and aggregate throughput under a mixed apply+rank
// workload scales with the shard count (see carbench -exp serve -shards).
//
// Shared vocabulary — schema declares, data assertions, preference rules,
// SQL DML — is *broadcast*: applied to every shard in parallel, so each
// shard holds a full replica of the non-session state and can rank any
// user routed to it. Consistency caveats of that design are documented on
// Coordinator; DESIGN.md §3.5 has the architecture discussion.
package shard

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	contextrank "repro"
	"repro/internal/faultinject"
	"repro/internal/serve"
	"repro/internal/serve/journal"
)

// Coordinator routes serving traffic across N shard replicas. It
// implements serve.Backend, so serve.NewHandlerFor exposes the identical
// HTTP API over it.
//
// # Consistency
//
//   - Per-user state (sessions, cached rankings) lives only on the user's
//     shard; routing is a pure function of (user, N), so a user always
//     observes their own updates.
//   - Broadcast writes are applied to all shards in parallel without a
//     commit protocol. On error the failing shards report it and the
//     others keep the write: shards can diverge until the next successful
//     broadcast of the same fact (all broadcast operations are
//     assert-style and idempotent at the vocabulary level) or a restore
//     from snapshot. The first error is returned to the caller.
//   - Read-only SQL queries are served by one shard chosen round-robin.
//     Replicated data is identical everywhere, but session-context
//     assertions are shard-local: a query over context concepts sees only
//     the chosen shard's sessions. Use per-user endpoints for
//     session-coupled reads.
type Coordinator struct {
	shards []*serve.Server
	start  time.Time
	rr     atomic.Int64 // round-robin cursor for shard-agnostic reads

	// journals are the per-shard WALs opened by Recover (index = shard
	// id; nil when the coordinator runs without durability). Owned here
	// for CloseJournals; the per-shard appends go through each server.
	journals []*journal.Journal
	// journalGen is the generation id of the open journals ("" without
	// durability). Snapshot manifests record it so recovery can pair
	// checkpoint coverage with the right WAL files.
	journalGen string
	// journalDir is the WAL directory Recover ran against; quarantine
	// repair replays a healthy shard's WAL from it.
	journalDir string
	// fs is the filesystem seam the journals were opened with (OSFS
	// outside fault-injection runs); manifest switches route through it
	// so injected rename/write faults reach them too.
	fs journal.FS

	// quar is the quarantine domain (see quarantine.go); quarAfter is
	// the armed consecutive-failure threshold (0 = quarantining off).
	quar      quarState
	quarAfter atomic.Int64
	// chaos is the optional fault injector for the rank and broadcast
	// paths (nil = disabled; one atomic load per operation).
	chaos atomic.Pointer[faultinject.Injector]

	// bcastGate orders broadcasts against checkpoints: every broadcast
	// holds the read side for its whole apply+journal span, and
	// Checkpoint holds the write side across all shards' snapshot cuts.
	// The cuts therefore share one broadcast frontier — a broadcast is
	// either in every shard's snapshot or in none — which is what lets
	// recovery skip checkpoint-covered records by BID without risking a
	// half-covered write.
	bcastGate sync.RWMutex
	// bid numbers broadcast writes; every shard journals the same
	// broadcast with the same BID, so recovery applies each one exactly
	// once even though N WALs carry a copy. Recover seeds it past the
	// highest replayed BID.
	bid atomic.Uint64

	// Broadcast-write latency: total wall time (slowest shard) per write.
	bcastWrites atomic.Int64
	bcastSumNs  atomic.Int64
	bcastMaxNs  atomic.Int64

	// Background-checkpoint counters (see Checkpoint/StartCheckpointer).
	ckptCount     atomic.Int64
	ckptFailures  atomic.Int64
	ckptLastUnix  atomic.Int64
	ckptLastDurUs atomic.Int64
	ckptLastSeq   atomic.Uint64

	// recovery is the boot-time replay outcome, attached to Stats once.
	recovery atomic.Pointer[serve.RecoveryStats]
}

var _ serve.Backend = (*Coordinator)(nil)

// New builds a coordinator over n fresh shards. build constructs shard
// i's System (e.g. preloading a dataset, or restoring a snapshot); it is
// called once per shard, in order.
func New(n int, build func(shard int) (*contextrank.System, error), opts serve.Options) (*Coordinator, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", n)
	}
	c := &Coordinator{shards: make([]*serve.Server, n), start: time.Now()}
	c.quar.init(n)
	for i := 0; i < n; i++ {
		sys, err := build(i)
		if err != nil {
			return nil, fmt.Errorf("shard: building shard %d: %w", i, err)
		}
		c.shards[i] = serve.NewServer(sys, opts)
	}
	return c, nil
}

// N returns the shard count.
func (c *Coordinator) N() int { return len(c.shards) }

// Shard returns shard i's server, for direct (test/diagnostic) access.
func (c *Coordinator) Shard(i int) *serve.Server { return c.shards[i] }

// ShardFor returns the shard index serving the given user.
func (c *Coordinator) ShardFor(user string) int {
	return ShardIndex(user, len(c.shards))
}

// ShardIndex is the routing function: FNV-64a of the user ID fed through
// Lamping–Veach jump consistent hashing. It is a pure function of (user,
// shards) — the same user always lands on the same shard for a fixed
// count — and growing the count from n to n+1 moves only ~1/(n+1) of the
// users, so resharding invalidates the minimum of per-shard state.
func ShardIndex(user string, shards int) int {
	h := fnv.New64a()
	h.Write([]byte(user))
	return jumpHash(h.Sum64(), shards)
}

// jumpHash is Lamping & Veach's jump consistent hash ("A Fast, Minimal
// Memory, Consistent Hash Algorithm", 2014): O(ln buckets), no memory,
// minimal key movement between bucket counts.
func jumpHash(key uint64, buckets int) int {
	var b, j int64 = -1, 0
	for j < int64(buckets) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// --- routed per-user operations --------------------------------------------

// Rank routes the rank to the user's shard — or, while that shard is
// quarantined, to its healthy stand-in — and the returned meta carries
// the shard index that served it.
func (c *Coordinator) Rank(user, target string, opts contextrank.RankOptions) ([]contextrank.Result, serve.RankMeta, error) {
	i := c.routeFor(user)
	if in := c.chaos.Load(); in != nil {
		if err := in.Fire(faultinject.RankServe, i); err != nil {
			return nil, serve.RankMeta{Shard: i}, err
		}
	}
	res, meta, err := c.shards[i].Rank(user, target, opts)
	meta.Shard = i
	return res, meta, err
}

// RankBatch routes the whole batch to the user's shard — one hop, one
// consistent snapshot and one compiled rank plan for every item.
func (c *Coordinator) RankBatch(user string, alg contextrank.Algorithm, items []serve.RankItem) ([]serve.RankItemResult, serve.RankMeta, error) {
	i := c.routeFor(user)
	if in := c.chaos.Load(); in != nil {
		if err := in.Fire(faultinject.RankServe, i); err != nil {
			return nil, serve.RankMeta{Shard: i}, err
		}
	}
	res, meta, err := c.shards[i].RankBatch(user, alg, items)
	meta.Shard = i
	return res, meta, err
}

// routeWrite runs a per-user write on the shard serving user. While the
// user's home shard is quarantined the write lands on its healthy
// stand-in and, if it succeeds, the user is recorded for migration back
// at repair time; the recording is serialized with the repair's
// migration sweep, so a user's state can never fall between the two.
func (c *Coordinator) routeWrite(user string, write func(shard int) error) error {
	home := ShardIndex(user, len(c.shards))
	if c.quar.mask.Load()&maskBit(home) == 0 {
		return write(home)
	}
	c.quar.mu.Lock()
	defer c.quar.mu.Unlock()
	mask := c.quar.mask.Load()
	if mask&maskBit(home) == 0 {
		// Repaired between the fast-path check and the lock.
		return write(home)
	}
	err := write(rerouteIndex(user, mask, len(c.shards)))
	if err == nil {
		// A drop keeps the record too: the home shard may hold a stale
		// pre-quarantine session that repair must clear.
		c.quar.rerouted[user] = home
	}
	return err
}

// SetSession applies the user's session context on the user's shard only:
// the merged apply and its write lock are shard-local. While the home
// shard is quarantined it is rerouted (see routeWrite).
func (c *Coordinator) SetSession(user string, ms []serve.Measurement) (fp string, err error) {
	err = c.routeWrite(user, func(i int) error {
		fp, err = c.shards[i].SetSession(user, ms)
		return err
	})
	return fp, err
}

// SessionInfo reads the user's session from whatever shard currently
// serves the user (the stand-in while the home shard is quarantined).
func (c *Coordinator) SessionInfo(user string) ([]serve.Measurement, string, bool) {
	return c.shards[c.routeFor(user)].SessionInfo(user)
}

// DropSession ends the user's session on the user's current shard.
func (c *Coordinator) DropSession(user string) error {
	return c.routeWrite(user, func(i int) error { return c.shards[i].DropSession(user) })
}

// --- standing subscriptions ------------------------------------------------

// Subscribe registers a standing rank subscription on the owner's shard —
// the subscription's repeated re-rank then shares the user's session,
// rank cache and compiled plans. While the home shard is quarantined the
// subscription lands on the healthy stand-in (see routeWrite;
// RepairShard moves it home).
func (c *Coordinator) Subscribe(id string, spec serve.SubscriptionSpec) (info serve.SubscriptionInfo, err error) {
	err = c.routeWrite(spec.User, func(i int) error {
		info, err = c.shards[i].Subscribe(id, spec)
		info.Shard = i
		return err
	})
	return info, err
}

// Unsubscribe removes a subscription wherever it lives. There is no
// id→shard map — ids are client-chosen or minted per subscribe — so the
// lookup scans each shard's registry; an unknown id is (false, nil)
// without journaling anything (the per-shard resurrection guard only
// matters when the shard itself applied a removal, and then the shard's
// own Unsubscribe journals it).
func (c *Coordinator) Unsubscribe(id string) (bool, error) {
	for _, s := range c.shards {
		for _, info := range s.Subscriptions() {
			if info.ID == id {
				return s.Unsubscribe(id)
			}
		}
	}
	return false, nil
}

// Subscriptions lists every shard's subscriptions, tagging each with the
// shard currently holding it.
func (c *Coordinator) Subscriptions() []serve.SubscriptionInfo {
	var out []serve.SubscriptionInfo
	for i, s := range c.shards {
		for _, info := range s.Subscriptions() {
			info.Shard = i
			out = append(out, info)
		}
	}
	return out
}

// SubscriptionStream attaches the event consumer to a subscription on
// whichever shard holds it.
func (c *Coordinator) SubscriptionStream(id string) (*serve.SubStream, error) {
	for _, s := range c.shards {
		for _, info := range s.Subscriptions() {
			if info.ID == id {
				return s.SubscriptionStream(id)
			}
		}
	}
	return nil, fmt.Errorf("serve: no subscription %q", id)
}

// --- broadcast writes ------------------------------------------------------

// broadcast assigns the write a fresh broadcast id and applies fn to
// every shard in parallel, holding the broadcast gate's read side for the
// whole span so a concurrent Checkpoint (which takes the write side)
// observes the write on either every shard or none. It records the
// write's wall time (the slowest shard) and returns the highest resulting
// epoch together with the first error in shard order. Callers that need
// one representative result capture it when i == 0 — wg.Wait orders that
// write before the caller's read, so no extra locking is needed.
func (c *Coordinator) broadcast(fn func(i int, s *serve.Server, bid uint64) (int64, error)) (int64, error) {
	c.bcastGate.RLock()
	defer c.bcastGate.RUnlock()
	// Degraded pre-check, before a BID is assigned or any shard applies:
	// a degraded shard would apply the write in memory but fail to
	// journal it, and the divergence rules below would then quarantine a
	// shard whose only problem is its disk. Rejecting the whole write up
	// front keeps the replicas bit-identical — the caller sees 503 +
	// Retry-After and the disk probe re-arms the journal in background.
	mask := c.quar.mask.Load()
	for i, s := range c.shards {
		if mask&maskBit(i) != 0 {
			continue
		}
		if s.Degraded() {
			return 0, fmt.Errorf("shard %d: %w", i, serve.ErrDegraded)
		}
	}
	return c.broadcastBID(c.bid.Add(1), fn)
}

// broadcastBID is broadcast's body for an already-assigned broadcast id.
// Recovery calls it directly to re-apply a journaled broadcast under its
// original BID (no gate needed: replay runs before traffic).
//
// Quarantined shards are skipped — repair replays what they miss from a
// healthy WAL. Each shard's apply runs behind a recover barrier: a panic
// inside one shard's engine becomes that shard's error (counted in
// carserve_panics_total) instead of killing the daemon, and with a
// quarantine threshold armed, a shard that keeps failing while the rest
// succeed is fenced off and its error absorbed. A write every shard
// rejects identically is returned without touching any shard's streak.
func (c *Coordinator) broadcastBID(bid uint64, fn func(i int, s *serve.Server, bid uint64) (int64, error)) (int64, error) {
	started := time.Now()
	mask := c.quar.mask.Load()
	epochs := make([]int64, len(c.shards))
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i := range c.shards {
		if mask&maskBit(i) != 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					serve.NotePanic()
					errs[i] = fmt.Errorf("panic: %v", r)
				}
			}()
			if in := c.chaos.Load(); in != nil {
				if err := in.Fire(faultinject.BroadcastApply, i); err != nil {
					errs[i] = err
					return
				}
			}
			epochs[i], errs[i] = fn(i, c.shards[i], bid)
		}(i)
	}
	wg.Wait()
	c.observeBroadcast(time.Since(started))

	var epoch int64
	for _, e := range epochs {
		if e > epoch {
			epoch = e
		}
	}
	// A write that every participating shard rejected with the same error
	// is bad input, not divergence: the replicas still agree, so it moves
	// no shard's failure streak.
	var reject error
	unanimous := true
	for i, err := range errs {
		if mask&maskBit(i) != 0 {
			continue
		}
		if reject == nil {
			reject = err
		}
		if err == nil || err.Error() != reject.Error() {
			unanimous = false
		}
	}
	var firstErr error
	for i, err := range errs {
		if mask&maskBit(i) != 0 {
			continue
		}
		if !unanimous && c.noteBroadcastResult(i, bid, err) {
			continue // shard quarantined; the write is durable on the rest
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return epoch, firstErr
}

func (c *Coordinator) observeBroadcast(d time.Duration) {
	ns := int64(d)
	c.bcastWrites.Add(1)
	c.bcastSumNs.Add(ns)
	for {
		cur := c.bcastMaxNs.Load()
		if ns <= cur || c.bcastMaxNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// applyVocab applies one vocabulary write record on every shard through
// serve.Server.Apply, so each shard journals it under the shared
// broadcast id and every shard's WAL is an independently replayable full
// log. A live write (BID 0) goes through broadcast and gets a fresh id; a
// replayed record that carries an id keeps it (so the new generation's
// copies dedup exactly like the old one's), and an untagged replayed
// record (unsharded-server history) is re-broadcast under a fresh id.
// Added rule names and the Exec result are shard 0's (parsing and
// replicated data are deterministic); the epoch is the highest.
func (c *Coordinator) applyVocab(rec journal.Record) (serve.Applied, error) {
	var first serve.Applied
	fn := func(i int, s *serve.Server, bid uint64) (int64, error) {
		r := rec
		r.BID = bid
		a, err := s.Apply(r)
		if i == 0 {
			first = a
		}
		return a.Epoch, err
	}
	var epoch int64
	var err error
	if rec.BID > 0 {
		epoch, err = c.broadcastBID(rec.BID, fn)
	} else {
		epoch, err = c.broadcast(fn)
	}
	first.Epoch = epoch
	return first, err
}

// Declare broadcasts concept/role/subconcept declarations to every shard.
func (c *Coordinator) Declare(concepts, roles []string, subs []serve.SubConceptDecl) (int64, error) {
	a, err := c.applyVocab(journal.Record{Op: journal.OpDeclare, Concepts: concepts, Roles: roles, Subs: subs})
	return a.Epoch, err
}

// Assert broadcasts data assertions to every shard. Uncertain assertions
// declare an independent fresh basic event per shard; the marginal
// probability every shard computes is identical, so rankings agree across
// shards even though the event names differ.
func (c *Coordinator) Assert(concepts []serve.ConceptAssertion, roles []serve.RoleAssertion) (int64, error) {
	a, err := c.applyVocab(journal.Record{Op: journal.OpAssert, ConceptAsserts: concepts, RoleAsserts: roles})
	return a.Epoch, err
}

// Rules snapshots the registered rules from one replica (rules are
// broadcast, so all shards agree after any successful AddRules).
func (c *Coordinator) Rules() []contextrank.Rule { return c.shards[0].Rules() }

// AddRules broadcasts rule registration to every shard.
func (c *Coordinator) AddRules(texts []string) ([]string, int64, error) {
	a, err := c.applyVocab(journal.Record{Op: journal.OpAddRules, Rules: texts})
	return a.Added, a.Epoch, err
}

// RemoveRule broadcasts the removal to every shard.
func (c *Coordinator) RemoveRule(name string) (int64, error) {
	a, err := c.applyVocab(journal.Record{Op: journal.OpRemoveRule, Rule: name})
	return a.Epoch, err
}

// Exec broadcasts a mutating SQL statement.
func (c *Coordinator) Exec(stmt string) (*contextrank.QueryResult, int64, error) {
	a, err := c.applyVocab(journal.Record{Op: journal.OpExec, Stmt: stmt})
	return a.Result, a.Epoch, err
}

// --- shard-agnostic reads --------------------------------------------------

// Query serves a read-only SELECT from one shard, chosen round-robin.
// Replicated data is identical on every shard; session-context assertions
// are shard-local (see the Coordinator consistency notes).
func (c *Coordinator) Query(stmt string) (*contextrank.QueryResult, error) {
	i := int(uint64(c.rr.Add(1)-1) % uint64(len(c.shards)))
	return c.shards[i].Query(stmt)
}

// Stats aggregates every shard's counters (the Shards field carries the
// per-shard breakdown, index = shard id) and attaches broadcast-write
// latency. Like Server.Stats it is collection-lock-free.
func (c *Coordinator) Stats() serve.Stats {
	agg := serve.Stats{UptimeSeconds: time.Since(c.start).Seconds()}
	agg.Shards = make([]serve.Stats, len(c.shards))
	mask := c.quar.mask.Load()
	health := &serve.HealthInfo{
		State:       serve.StateHealthy,
		Quarantines: c.quar.quarantines.Load(),
		Repairs:     c.quar.repairs.Load(),
		Panics:      serve.PanicsTotal(),
	}
	for i, s := range c.shards {
		st := s.Stats()
		if mask&maskBit(i) != 0 {
			// Coordinator-level state overrides the shard's own view.
			q := *st.Health
			q.State = serve.StateQuarantined
			c.quar.mu.Lock()
			if info := c.quar.info[i]; info != nil {
				q.Reason = info.reason
				q.SinceUnix = info.since.Unix()
			}
			c.quar.mu.Unlock()
			st.Health = &q
			health.QuarantinedShards = append(health.QuarantinedShards, i)
		} else if st.Health != nil && st.Health.State == serve.StateDegraded {
			health.DegradedShards = append(health.DegradedShards, i)
		}
		if st.Health != nil {
			health.Recoveries += st.Health.Recoveries
			health.UnjournaledTail += st.Health.UnjournaledTail
			health.TailDropped += st.Health.TailDropped
		}
		agg.Shards[i] = st
		agg.Requests += st.Requests
		agg.Sessions += st.Sessions
		agg.Events += st.Events
		if st.Epoch > agg.Epoch {
			agg.Epoch = st.Epoch
		}
		if st.Rules > agg.Rules {
			agg.Rules = st.Rules
		}
		agg.Cache = agg.Cache.Merge(st.Cache)
		agg.Plans = agg.Plans.Merge(st.Plans)
		agg.Latency = agg.Latency.Merge(st.Latency)
		if st.Subs != nil {
			merged := st.Subs.Merge(subsOrZero(agg.Subs))
			agg.Subs = &merged
		}
		if st.Journal != nil {
			merged := st.Journal.Merge(journalOrZero(agg.Journal))
			agg.Journal = &merged
		}
		// The hot-path counters are process-global (one scratch pool, one
		// set of atomics across all shards); summing per-shard copies would
		// multiply them by N. Report them once on the aggregate.
		agg.Shards[i].HotPath = nil
	}
	hp := contextrank.ReadHotPathStats()
	agg.HotPath = &hp
	b := &serve.BroadcastStats{Writes: c.bcastWrites.Load()}
	if b.Writes > 0 {
		b.MeanMicros = float64(c.bcastSumNs.Load()) / 1e3 / float64(b.Writes)
		b.MaxMicros = float64(c.bcastMaxNs.Load()) / 1e3
	}
	agg.Broadcast = b
	if c.journals != nil {
		agg.Checkpoints = &serve.CheckpointStats{
			Count:              c.ckptCount.Load(),
			Failures:           c.ckptFailures.Load(),
			LastUnix:           c.ckptLastUnix.Load(),
			LastDurationMicros: float64(c.ckptLastDurUs.Load()),
			LastSeq:            c.ckptLastSeq.Load(),
		}
	}
	switch {
	case len(health.QuarantinedShards) > 0:
		health.State = serve.StateQuarantined
	case len(health.DegradedShards) > 0:
		health.State = serve.StateDegraded
	}
	agg.Health = health
	agg.Recovery = c.recovery.Load()
	return agg
}
