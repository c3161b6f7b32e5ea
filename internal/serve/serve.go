// Package serve is the concurrent serving layer over a contextrank.System:
// the piece that turns the single-process reproduction into the always-on,
// many-user service the paper envisions for ambient systems (§1 — context
// changes continuously, queries arrive continuously).
//
// It is built from three parts:
//
//   - Facade wraps a System in a reader/writer locking discipline. Every
//     individual System component is internally synchronized (see the
//     locking-contract note on contextrank.System), but a multi-step
//     mutation such as a context apply (clear concepts, declare events,
//     assert memberships) is not atomic with respect to a concurrent Rank.
//     The facade makes it atomic: rankers and queries take the read lock,
//     mutations take the write lock and bump a monotonic epoch. Its
//     exported surface is read-only (Epoch, WithRead, Query, Rules).
//
//   - Sessions keeps one context per user and merges all user contexts
//     into a single situation snapshot on every update, so many situated
//     users can share one System. Each session carries a fingerprint of
//     its measurements which keys that user's cache entries. Every merged
//     apply retires the previous snapshot's basic events from the event
//     space, so session churn (updates and drops) cannot grow the space
//     past the live vocabulary.
//
//   - Server is the only way to mutate or rank: its Backend methods and
//     Apply. Every mutation it serves is journaled (when a WAL is
//     attached), refused while degraded and followed by a subscription
//     poke. It adds an LRU rank-result cache keyed by (user, target,
//     options, context fingerprint, epoch) with singleflight coalescing of
//     identical concurrent misses, plus hit/latency statistics. A data
//     mutation bumps the epoch and thereby invalidates every cached
//     ranking; a session context update changes only that user's
//     fingerprint, so other users' entries stay live — unless the updated
//     vocabulary appears inside a rule's role-restriction filler, where
//     membership propagates across role edges and the update degrades to
//     a full epoch bump (see Sessions).
//
// Handler exposes the whole thing over HTTP/JSON through the Backend
// interface (cmd/carserved is the daemon around it). The shard subpackage
// scales the layer horizontally: a shard.Coordinator owns N Servers,
// routes per-user traffic by consistent hash and broadcasts vocabulary
// writes, behind the same Backend interface. The journal subpackage makes
// the served state crash-durable: with a WAL attached (AttachJournal),
// every acknowledged mutation is fsynced before the acknowledgement and
// boot replays it through the ordinary apply path. See DESIGN.md §3/§3.5/§3.6
// for the architecture discussion.
package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	contextrank "repro"
	"repro/internal/sql"
)

// Facade serializes access to a contextrank.System: read operations
// (ranking, queries) run concurrently under a shared lock, and every
// mutation runs exclusively and advances the epoch. Its exported surface is
// read-only — Epoch, WithRead, Query and Rules. Mutations go through the
// Server (its Backend writes, Apply, SetSession and DropSession), which
// journals them, honours degraded mode and pokes the subscription
// evaluator; the facade only supplies the lock and the epoch they run
// under.
//
// The epoch is bumped even when a mutation returns an error, because
// several mutations apply partially before failing (e.g. AddRule
// auto-declares context concepts before validating the preference
// vocabulary). Epoch over-invalidation is harmless — it can never serve a
// stale ranking.
type Facade struct {
	mu    sync.RWMutex
	sys   *contextrank.System
	epoch atomic.Int64
}

// newFacade wraps the system. The caller must stop touching sys directly;
// all access flows through the facade.
func newFacade(sys *contextrank.System) *Facade {
	return &Facade{sys: sys}
}

// Epoch returns the current mutation epoch. It increases monotonically;
// two Rank calls observing the same epoch saw the same data and rules.
func (f *Facade) Epoch() int64 { return f.epoch.Load() }

// WithRead runs fn under the shared lock. fn must not mutate the system.
func (f *Facade) WithRead(fn func(sys *contextrank.System) error) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return fn(f.sys)
}

// withWriteEpoch runs fn under the exclusive lock, bumps the epoch and
// returns the epoch the mutation produced, captured inside the critical
// section — reading Epoch() after the lock is released could observe a
// later concurrent mutation's epoch.
func (f *Facade) withWriteEpoch(fn func(sys *contextrank.System) error) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	err := fn(f.sys)
	return f.epoch.Add(1), err
}

// withReadEpoch runs fn under the shared lock, passing the epoch observed
// while the lock is held — the exact epoch fn's reads correspond to, since
// the epoch only changes under the write lock.
func (f *Facade) withReadEpoch(fn func(sys *contextrank.System, epoch int64) error) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return fn(f.sys, f.epoch.Load())
}

// Query runs a SQL query under the read lock. It accepts only SELECT
// statements: the engine executes statements before checking whether they
// produced rows, so DML smuggled through the shared-lock path would mutate
// state under concurrent rankers and dodge the epoch bump. Anything that
// writes must go through Server.Exec.
func (f *Facade) Query(stmt string) (*contextrank.QueryResult, error) {
	if err := ensureSelect(stmt); err != nil {
		return nil, err
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.sys.Query(stmt)
}

// ensureSelect rejects statements that are not SELECTs, classifying with
// the engine's own parser so acceptance tracks its grammar exactly.
func ensureSelect(stmt string) error {
	parsed, err := sql.Parse(stmt)
	if err != nil {
		return err
	}
	if _, ok := parsed.(*sql.SelectStmt); !ok {
		return fmt.Errorf("serve: only SELECT is allowed on the read path (got %T); use Exec for writes", parsed)
	}
	return nil
}

// Rules returns a snapshot of the registered preference rules.
func (f *Facade) Rules() []contextrank.Rule {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.sys.Rules().Rules()
}
