package serve

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	contextrank "repro"
	"repro/internal/faultinject"
	"repro/internal/serve/journal"
)

// Options tunes a Server.
type Options struct {
	// CacheSize is the rank-result LRU capacity (entries). 0 means
	// DefaultCacheSize; negative disables caching entirely.
	CacheSize int
	// DegradeOnDiskError arms read-only degraded mode: when an attached
	// journal sticky-fails, mutations are rejected with ErrDegraded
	// (ranks keep serving from memory) instead of each returning its own
	// "applied but not journaled" error, and ProbeDisk can re-arm the
	// WAL when the disk recovers. Off, a journal error stays a per-call
	// error and only a restart clears the sticky state.
	DegradeOnDiskError bool
}

// Backend is the serving surface the HTTP handler (and the load
// generators) speak to. *Server is the implementation; shard.Coordinator
// embeds a *Server and adds only durability (WAL generations,
// checkpoints), so the handler serves the identical HTTP API over both.
//
// Each vocabulary write (Declare, Assert, AddRules, RemoveRule, Exec)
// becomes one journal.Record handed to Server.Apply, which is also what
// WAL replay calls with journaled records. Apply is the only code that
// maps a vocabulary record to System calls.
type Backend interface {
	// Rank ranks target for user through the backend's cache(s).
	Rank(user, target string, opts contextrank.RankOptions) ([]contextrank.Result, RankMeta, error)
	// Declare registers concepts, roles and subconcept axioms.
	Declare(concepts, roles []string, subs []SubConceptDecl) (int64, error)
	// Assert adds (possibly uncertain) concept/role assertions.
	Assert(concepts []ConceptAssertion, roles []RoleAssertion) (int64, error)
	// Rules snapshots the registered preference rules.
	Rules() []contextrank.Rule
	// AddRules parses and registers scored preference rules, returning
	// the added rule names.
	AddRules(texts []string) ([]string, int64, error)
	// RemoveRule deletes a rule by name.
	RemoveRule(name string) (int64, error)
	// RankBatch ranks several targets/candidate lists for one user in a
	// single call: one consistent snapshot and one compiled rank plan
	// (for the factorized algorithm) shared by every item.
	RankBatch(user string, algorithm contextrank.Algorithm, items []RankItem) ([]RankItemResult, RankMeta, error)
	// SetSession replaces the user's session context.
	SetSession(user string, ms []Measurement) (string, error)
	// SessionInfo returns the user's measurements and fingerprint.
	SessionInfo(user string) ([]Measurement, string, bool)
	// DropSession ends the user's session.
	DropSession(user string) error
	// Query runs a read-only SELECT.
	Query(stmt string) (*contextrank.QueryResult, error)
	// Exec runs a mutating SQL statement.
	Exec(stmt string) (*contextrank.QueryResult, int64, error)
	// Subscribe registers (or, on an existing id, replaces) a standing
	// rank subscription: the backend re-evaluates the request after every
	// relevant mutation and pushes score deltas to the subscription's
	// event stream. An empty id mints one. Journaled like a session write.
	Subscribe(id string, spec SubscriptionSpec) (SubscriptionInfo, error)
	// Unsubscribe removes a subscription and ends its stream, reporting
	// whether it existed.
	Unsubscribe(id string) (bool, error)
	// Subscriptions lists the registered subscriptions.
	Subscriptions() []SubscriptionInfo
	// SubscriptionStream attaches the (single) event consumer to a
	// subscription, returning its opening snapshot and live channel.
	SubscriptionStream(id string) (*SubStream, error)
	// Stats snapshots the backend's observable state.
	Stats() Stats
}

// SubConceptDecl is one TBox axiom sub ⊑ super in a Declare call. The
// Backend write item types are the journal record's item types, so a
// write goes into a journal.Record, and back out of one, unconverted.
type SubConceptDecl = journal.SubDecl

// ConceptAssertion is one concept-membership assertion in an Assert call.
type ConceptAssertion = journal.ConceptAssert

// RoleAssertion is one role-tuple assertion in an Assert call.
type RoleAssertion = journal.RoleAssert

// Server is the complete serving layer: facade + sessions + rank cache +
// statistics. It is safe for concurrent use by any number of goroutines.
type Server struct {
	facade   *Facade
	sessions *Sessions
	cache    *rankCache // nil when caching is disabled
	plans    *planCache
	latency  *latencyRecorder
	health   *diskHealth
	subs     *subRegistry
	start    time.Time
	requests atomic.Int64
	// chaos is the optional fault injector for the rank paths (nil =
	// disabled; one atomic load per rank).
	chaos atomic.Pointer[faultinject.Injector]
}

var _ Backend = (*Server)(nil)

// NewServer wraps the system for serving. The caller must route all
// subsequent access through the returned server: mutations through its
// Backend methods and Apply, direct reads through its Facade.
func NewServer(sys *contextrank.System, opts Options) *Server {
	srv := &Server{
		facade:  newFacade(sys),
		plans:   newPlanCache(planCacheCapacity),
		latency: &latencyRecorder{},
		health:  &diskHealth{enabled: opts.DegradeOnDiskError},
		subs:    newSubRegistry(),
		start:   time.Now(),
	}
	srv.sessions = newSessions(srv.facade)
	srv.sessions.health = srv.health
	if opts.CacheSize >= 0 {
		srv.cache = newRankCache(opts.CacheSize)
	}
	return srv
}

// Facade returns the locking facade for direct (uncached) reads.
func (s *Server) Facade() *Facade { return s.facade }

// AttachJournal arms the write-ahead log (see Sessions.AttachJournal):
// every acknowledged mutation — session updates AND vocabulary/data
// writes (Declare/Assert/AddRules/RemoveRule/Exec) — is then fsynced to
// the journal inside the critical section that applied it, before the
// acknowledgement. The server does not own the journal's lifecycle; the
// caller (shard.Coordinator.Recover, or a test) closes it.
func (s *Server) AttachJournal(j *journal.Journal) { s.sessions.AttachJournal(j) }

// Journal returns the attached WAL, or nil.
func (s *Server) Journal() *journal.Journal { return s.sessions.Journal() }

// SetFaultInjector attaches a fault injector to the rank paths (point
// rank.serve, fired before Rank and RankBatch do any work). Nil detaches.
func (s *Server) SetFaultInjector(in *faultinject.Injector) { s.chaos.Store(in) }

// rankFault fires the rank.serve fault point, if an injector is attached.
func (s *Server) rankFault() error {
	if in := s.chaos.Load(); in != nil {
		return in.Fire(faultinject.RankServe)
	}
	return nil
}

// RankMeta describes how a Rank call was served.
type RankMeta struct {
	Cached  bool          // served from cache or coalesced onto another call
	Epoch   int64         // facade epoch the result corresponds to
	Elapsed time.Duration // wall time of this call
}

// Rank ranks target for user through the cache: a hit under an unchanged
// (epoch, session fingerprint) is O(1), identical concurrent misses are
// coalesced onto one computation, and the rest take the facade read path.
func (s *Server) Rank(user, target string, opts contextrank.RankOptions) ([]contextrank.Result, RankMeta, error) {
	if err := s.rankFault(); err != nil {
		return nil, RankMeta{}, err
	}
	started := time.Now()
	s.requests.Add(1)

	// AppliedFingerprint is lock-free, so it is safe both here and inside
	// the facade read lock below (Sessions.Set holds its own mutex across
	// the facade write lock, so anything taking that mutex would deadlock
	// there). If a session update lands between this read and the
	// ranking, the compute closure re-reads fingerprint and epoch under
	// the read lock and files the result under the pair it was actually
	// computed at.
	fp := s.sessions.AppliedFingerprint(user)
	epoch := s.facade.Epoch()

	var (
		res    []contextrank.Result
		cached bool
		err    error
	)
	if s.cache == nil {
		err = s.facade.withReadEpoch(func(sys *contextrank.System, e int64) error {
			epoch = e
			r, rerr := s.rankTarget(sys, user, target, opts, e)
			res = r
			return rerr
		})
	} else {
		key := rankKey(user, target, fp, epoch, opts)
		res, epoch, cached, err = s.cache.do(key, func() ([]contextrank.Result, string, int64, error) {
			var out []contextrank.Result
			storeKey, observed := key, epoch
			cerr := s.facade.withReadEpoch(func(sys *contextrank.System, e int64) error {
				observed = e
				storeKey = rankKey(user, target, s.sessions.AppliedFingerprint(user), e, opts)
				r, rerr := s.rankTarget(sys, user, target, opts, e)
				out = r
				return rerr
			})
			return out, storeKey, observed, cerr
		})
	}

	elapsed := time.Since(started)
	if err == nil {
		s.latency.observe(elapsed)
	}
	return res, RankMeta{Cached: cached, Epoch: epoch, Elapsed: elapsed}, err
}

// planAlgorithm reports whether the algorithm is served by compiled rank
// plans (the factorized default); the others rank through the generic path.
func planAlgorithm(alg contextrank.Algorithm) bool {
	return alg == "" || alg == contextrank.AlgorithmFactorized
}

// rankTarget computes one uncached target ranking. Must run under the
// facade read lock with e the epoch observed under that lock: the plan
// fetched (or compiled) here is keyed by (user, rules fingerprint, e,
// context epoch), all of which are stable while the lock is held, so a
// cached plan can never be stale for the snapshot being read.
func (s *Server) rankTarget(sys *contextrank.System, user, target string, opts contextrank.RankOptions, e int64) ([]contextrank.Result, error) {
	if !planAlgorithm(opts.Algorithm) {
		return sys.RankWith(user, target, opts)
	}
	plan, err := s.planFor(sys, user, e)
	if err != nil {
		if errors.Is(err, contextrank.ErrPlanClusterBound) {
			// The footprint partition is too coarse for this rule set; go
			// straight to the per-candidate path (a cached negative verdict
			// means recompiling would just rediscover the bound).
			return sys.RankNoPlan(user, target, opts)
		}
		return nil, err
	}
	return sys.RankWithPlan(plan, target, opts)
}

// planFor returns the user's compiled rank plan for the current (epoch,
// context epoch, rule set), compiling and caching it on a miss. Must run
// under the facade read lock (see rankTarget). A rule set whose footprint
// partition exceeds the cluster bound is cached as a nil entry — a
// negative verdict — so repeated requests at the same state fail fast into
// the per-candidate fallback instead of recompiling.
//
// A miss caused purely by a context-epoch advance — the user's plan at the
// same (rules, data epoch) exists for an older context — is served by
// incrementally refreshing that predecessor instead of recompiling: the
// refresh re-resolves only the context side and carries over the
// preference membership maps, footprints and unaffected document-side
// distributions (see contextrank.RefreshRankPlan). Refresh failures fall
// back to a full compile; correctness never depends on the fast path.
func (s *Server) planFor(sys *contextrank.System, user string, e int64) (*contextrank.RankPlan, error) {
	baseKey := planBaseKey(user, sys.RulesFingerprint(), e)
	key := planKey(user, sys.RulesFingerprint(), e, s.sessions.ContextEpoch())
	if plan, ok := s.plans.get(key); ok {
		if plan == nil {
			return nil, contextrank.ErrPlanClusterBound
		}
		return plan, nil
	}
	if prev, ok := s.plans.getLatest(baseKey); ok {
		if plan, err := sys.RefreshRankPlan(prev); err == nil {
			s.plans.refreshed.Add(1)
			s.plans.add(key, baseKey, plan)
			return plan, nil
		}
	}
	plan, err := sys.CompileRankPlan(user)
	if err != nil {
		if errors.Is(err, contextrank.ErrPlanClusterBound) {
			s.plans.add(key, baseKey, nil)
		}
		return nil, err
	}
	s.plans.add(key, baseKey, plan)
	return plan, nil
}

// RankItem is one ranking task inside a RankBatch call: either a target
// concept expression or an explicit candidate list, plus the per-item
// result shaping.
type RankItem struct {
	Target     string   // DL concept expression; empty when Candidates is set
	Candidates []string // explicit candidate ids (the §5 query-integration shape)
	Threshold  float64
	Limit      int
	TopK       int // keep only the best k (0 = all); see RankOptions.TopK
	Explain    bool
}

// options shapes the item as RankOptions under the batch's algorithm.
func (it RankItem) options(alg contextrank.Algorithm) contextrank.RankOptions {
	return contextrank.RankOptions{
		Algorithm: alg,
		Threshold: it.Threshold,
		Limit:     it.Limit,
		TopK:      it.TopK,
		Explain:   it.Explain,
	}
}

// RankItemResult is one batch item's outcome. Err is per-item: a bad
// target expression fails that item, not the batch.
type RankItemResult struct {
	Results []contextrank.Result
	Cached  bool
	Err     error
}

// RankBatch ranks every item for one user in a single call. Target items
// are served from the rank-result cache when possible; all misses share
// one facade read-lock hold (one consistent snapshot) and — for the
// factorized algorithm — one compiled rank plan, so a batch of B targets
// or candidate lists pays the per-(user, rules, context) compilation once
// instead of B times. Candidate-list items bypass the result cache (their
// keys would have unbounded cardinality) and always rank through the
// plan. Identical concurrent batch misses are not singleflight-coalesced;
// the shared plan already removes the expensive duplicated work.
func (s *Server) RankBatch(user string, alg contextrank.Algorithm, items []RankItem) ([]RankItemResult, RankMeta, error) {
	if err := s.rankFault(); err != nil {
		return nil, RankMeta{}, err
	}
	started := time.Now()
	s.requests.Add(int64(len(items)))
	if user == "" {
		return nil, RankMeta{}, fmt.Errorf("serve: batch rank needs a user")
	}
	if len(items) == 0 {
		return nil, RankMeta{}, fmt.Errorf("serve: batch rank needs at least one item")
	}
	if !contextrank.KnownAlgorithm(alg) {
		return nil, RankMeta{}, fmt.Errorf("serve: unknown algorithm %q", alg)
	}

	fp := s.sessions.AppliedFingerprint(user)
	epoch := s.facade.Epoch()
	out := make([]RankItemResult, len(items))

	// Pass 1: serve target items straight from the rank-result cache.
	pending := make([]int, 0, len(items))
	for i, it := range items {
		if it.Candidates == nil && it.Target != "" && s.cache != nil {
			key := rankKey(user, it.Target, fp, epoch, it.options(alg))
			if res, ok := s.cache.get(key); ok {
				s.cache.hits.Add(1)
				out[i] = RankItemResult{Results: res, Cached: true}
				continue
			}
			s.cache.misses.Add(1)
		}
		pending = append(pending, i)
	}

	meta := RankMeta{Cached: len(pending) == 0, Epoch: epoch}
	if len(pending) > 0 {
		err := s.facade.withReadEpoch(func(sys *contextrank.System, e int64) error {
			meta.Epoch = e
			afp := s.sessions.AppliedFingerprint(user)
			var plan *contextrank.RankPlan
			boundExceeded := false
			if planAlgorithm(alg) {
				p, perr := s.planFor(sys, user, e)
				switch {
				case perr == nil:
					plan = p
				case errors.Is(perr, contextrank.ErrPlanClusterBound):
					// Rule set too coarse for a compiled plan; every item
					// below ranks through the per-candidate path directly
					// (recompiling per item would rediscover the bound).
					boundExceeded = true
				default:
					return perr
				}
			}
			for _, i := range pending {
				it := items[i]
				opts := it.options(alg)
				var res []contextrank.Result
				var rerr error
				switch {
				case it.Candidates != nil:
					switch {
					case plan != nil:
						res, rerr = sys.RankCandidatesWithPlan(plan, it.Candidates, opts)
					case boundExceeded:
						res, rerr = sys.RankCandidatesNoPlan(user, it.Candidates, opts)
					default:
						res, rerr = sys.RankCandidates(user, it.Candidates, opts)
					}
				case it.Target != "":
					switch {
					case plan != nil:
						res, rerr = sys.RankWithPlan(plan, it.Target, opts)
					case boundExceeded:
						res, rerr = sys.RankNoPlan(user, it.Target, opts)
					default:
						res, rerr = sys.RankWith(user, it.Target, opts)
					}
					if rerr == nil && s.cache != nil {
						// File under what was actually observed under the
						// lock, mirroring the single-rank compute path.
						s.cache.put(rankKey(user, it.Target, afp, e, opts), res, e)
					}
				default:
					rerr = fmt.Errorf("serve: batch item needs a target or a candidate list")
				}
				out[i] = RankItemResult{Results: res, Err: rerr}
			}
			return nil
		})
		if err != nil {
			// Batch-level failure: the shared plan could not be compiled
			// (e.g. a rule references vocabulary mid-migration) — no item
			// could have ranked.
			return nil, meta, err
		}
	}

	elapsed := time.Since(started)
	s.latency.observe(elapsed)
	meta.Elapsed = elapsed
	return out, meta, nil
}

// --- Backend write/read operations -----------------------------------------

// finishJournal completes a mutator's journal handoff after the facade
// lock is released: the wait function (from a Submit made inside the
// write critical section) blocks until the record's group commit is
// fsynced, so concurrent mutators share one sync. An apply error wins —
// the client saw no acknowledgement, so durability of the partial prefix
// is best-effort. A journal error on a successful apply is surfaced as
// "applied but not journaled" — the state changed in memory but the
// caller must not treat it as durable — and, with degraded mode armed,
// engages it: rec is kept on the unjournaled tail so ProbeDisk can
// re-journal it when the disk recovers.
func (s *Server) finishJournal(opErr error, wait func() error, rec journal.Record, what string) error {
	if wait == nil {
		return opErr
	}
	jerr := wait()
	if opErr != nil {
		return opErr
	}
	if jerr != nil {
		s.health.noteJournalError(rec, jerr)
		return fmt.Errorf("serve: %s applied but not journaled: %w", what, notJournaled{jerr})
	}
	return nil
}

// Applied is the outcome of Apply.
type Applied struct {
	Epoch  int64                    // facade epoch after the write
	Added  []string                 // OpAddRules: names of the registered rules
	Result *contextrank.QueryResult // OpExec: the statement's result
}

// vocabOps names every vocabulary op Apply serves, as its "applied but
// not journaled" errors spell it.
var vocabOps = map[journal.Op]string{
	journal.OpDeclare:    "declare",
	journal.OpAssert:     "assert",
	journal.OpAddRules:   "add rules",
	journal.OpRemoveRule: "rule removal",
	journal.OpExec:       "exec",
}

// Apply applies one vocabulary write record — OpDeclare, OpAssert,
// OpAddRules, OpRemoveRule or OpExec — in one epoch and journals what it
// applied. It is the only path from a vocabulary record to the System:
// the Backend mutators build a record and apply it, and WAL replay
// applies the journaled record. The record's BID is not journaled: it
// only deduplicates the copies an old N-shard WAL generation holds,
// which replay resolves before calling Apply.
//
// Items apply in order and the journal record holds exactly the applied
// prefix: on a mid-list error the items already applied stay applied
// (the established partial-mutation policy) and stay durable, while the
// failed item is neither applied nor journaled — replay never re-fails.
// A failed RemoveRule or Exec journals nothing; a failed statement's
// partial effects, if any, are not re-created by replay, which is
// acceptable because the client was told the statement failed.
//
// Apply does not check degraded mode: the Backend mutators check before
// they commit to a write, and replay runs before any traffic.
func (s *Server) Apply(rec journal.Record) (Applied, error) {
	what, ok := vocabOps[rec.Op]
	if !ok {
		return Applied{}, fmt.Errorf("serve: not a vocabulary record (op %d)", rec.Op)
	}
	var out Applied
	var wait func() error
	done := journal.Record{Op: rec.Op}
	epoch, err := s.facade.withWriteEpoch(func(sys *contextrank.System) error {
		applied, opErr := s.applyLocked(sys, rec, &done, &out)
		if applied {
			if j := s.sessions.Journal(); j != nil {
				done.Epoch = s.facade.Epoch()
				wait = j.Submit(done)
			}
		}
		return opErr
	})
	s.pokeSubs() // a partial apply still moved the epoch
	out.Epoch = epoch
	return out, s.finishJournal(err, wait, done, what)
}

// applyLocked is Apply's body under the facade write lock: it applies
// rec's items in order, copies each applied item into done, and reports
// whether anything was applied (and so must be journaled).
func (s *Server) applyLocked(sys *contextrank.System, rec journal.Record, done *journal.Record, out *Applied) (bool, error) {
	switch rec.Op {
	case journal.OpDeclare:
		err := applyPrefix(rec.Concepts, &done.Concepts, func(c string) error { return sys.DeclareConcept(c) })
		if err == nil {
			err = applyPrefix(rec.Roles, &done.Roles, func(r string) error { return sys.DeclareRole(r) })
		}
		if err == nil {
			err = applyPrefix(rec.Subs, &done.Subs, func(sc SubConceptDecl) error { return sys.SubConcept(sc.Sub, sc.Super) })
		}
		return len(done.Concepts)+len(done.Roles)+len(done.Subs) > 0, err
	case journal.OpAssert:
		// A concept that is currently session-context vocabulary is
		// refused: the next context apply would clear the assertion. The
		// check runs inside the write critical section, where session
		// applies also hold the lock, so there is no TOCTOU window.
		err := applyPrefix(rec.ConceptAsserts, &done.ConceptAsserts, func(a ConceptAssertion) error {
			if s.sessions.IsSessionConcept(a.Concept) {
				return fmt.Errorf(
					"serve: concept %q is session-context vocabulary; the next context apply would clear the assertion — manage it via /v1/sessions instead", a.Concept)
			}
			return sys.AssertConcept(a.Concept, a.ID, a.Prob)
		})
		if err == nil {
			err = applyPrefix(rec.RoleAsserts, &done.RoleAsserts, func(a RoleAssertion) error {
				return sys.AssertRole(a.Role, a.Src, a.Dst, a.Prob)
			})
		}
		return len(done.ConceptAsserts)+len(done.RoleAsserts) > 0, err
	case journal.OpAddRules:
		err := applyPrefix(rec.Rules, &done.Rules, func(text string) error {
			rule, err := sys.AddRule(text)
			if err == nil {
				out.Added = append(out.Added, rule.Name)
			}
			return err
		})
		return len(done.Rules) > 0, err
	case journal.OpRemoveRule:
		if err := sys.Rules().Remove(rec.Rule); err != nil {
			return false, err
		}
		done.Rule = rec.Rule
		return true, nil
	default: // journal.OpExec
		res, err := sys.Exec(rec.Stmt)
		out.Result = res
		if err != nil {
			return false, err
		}
		done.Stmt = rec.Stmt
		return true, nil
	}
}

// applyPrefix applies items in order, appending each applied one to
// *done, and stops at the first error.
func applyPrefix[T any](items []T, done *[]T, apply func(T) error) error {
	for _, it := range items {
		if err := apply(it); err != nil {
			return err
		}
		*done = append(*done, it)
	}
	return nil
}

// write is every Backend mutator: reject it while degraded, else Apply.
func (s *Server) write(rec journal.Record) (Applied, error) {
	if err := s.health.checkWritable(); err != nil {
		return Applied{}, err
	}
	return s.Apply(rec)
}

// Declare registers concepts, roles and subconcept axioms in one epoch.
func (s *Server) Declare(concepts, roles []string, subs []SubConceptDecl) (int64, error) {
	a, err := s.write(journal.Record{Op: journal.OpDeclare, Concepts: concepts, Roles: roles, Subs: subs})
	return a.Epoch, err
}

// Assert adds concept and role assertions in one epoch. Concepts that are
// currently session-context vocabulary are refused (see Apply).
func (s *Server) Assert(concepts []ConceptAssertion, roles []RoleAssertion) (int64, error) {
	a, err := s.write(journal.Record{Op: journal.OpAssert, ConceptAsserts: concepts, RoleAsserts: roles})
	return a.Epoch, err
}

// Rules snapshots the registered preference rules.
func (s *Server) Rules() []contextrank.Rule { return s.facade.Rules() }

// AddRules parses and registers rules, returning the added names. On error
// the names added before the failure stay registered and durable (see
// Apply); the epoch bump invalidates cached rankings.
func (s *Server) AddRules(texts []string) ([]string, int64, error) {
	a, err := s.write(journal.Record{Op: journal.OpAddRules, Rules: texts})
	return a.Added, a.Epoch, err
}

// RemoveRule deletes a rule by name.
func (s *Server) RemoveRule(name string) (int64, error) {
	a, err := s.write(journal.Record{Op: journal.OpRemoveRule, Rule: name})
	return a.Epoch, err
}

// SetSession replaces the user's session context. The context apply is
// what moves subscription scores most often, so it pokes the standing-
// subscription evaluator on its way out (even on error: a journal
// failure leaves the context applied in memory — see Sessions.Set).
func (s *Server) SetSession(user string, ms []Measurement) (string, error) {
	fp, err := s.sessions.Set(user, ms)
	s.pokeSubs()
	return fp, err
}

// SessionInfo returns the user's measurements and fingerprint.
func (s *Server) SessionInfo(user string) ([]Measurement, string, bool) {
	return s.sessions.Snapshot(user)
}

// DropSession ends the user's session.
func (s *Server) DropSession(user string) error {
	err := s.sessions.Drop(user)
	s.pokeSubs()
	return err
}

// Query runs a read-only SELECT through the facade.
func (s *Server) Query(stmt string) (*contextrank.QueryResult, error) {
	return s.facade.Query(stmt)
}

// Exec runs a mutating SQL statement, returning the new epoch. The
// statement is journaled on success only (see Apply).
func (s *Server) Exec(stmt string) (*contextrank.QueryResult, int64, error) {
	a, err := s.write(journal.Record{Op: journal.OpExec, Stmt: stmt})
	return a.Result, a.Epoch, err
}

// CheckpointDump dumps the wrapped system as JSON to w with the merged
// session context suspended (see Sessions.SuspendAndDump): the snapshot
// carries data, vocabulary, views and rules but never session context, so
// a server restored from it accepts session applies immediately. The dump
// runs under the write lock — a consistent cut — and bumps the epoch.
//
// It returns the journal sequence number the snapshot covers: every
// record with Seq <= the returned value is reflected in the dump, every
// later record is not. The capture is exact because SuspendAndDump holds
// both the session mutex and the facade write lock across fn, and every
// journal Submit happens under the facade write lock — no record can land
// between the cut and the dump. A server without a journal returns seq 0.
func (s *Server) CheckpointDump(w io.Writer) (uint64, error) {
	var seq uint64
	err := s.sessions.SuspendAndDump(func(sys *contextrank.System) error {
		if j := s.sessions.Journal(); j != nil {
			seq = j.Seq()
		}
		return sys.SaveSnapshot(w)
	})
	return seq, err
}

// --- statistics ------------------------------------------------------------

// Stats is the server's observable state, shaped for the /v1/stats
// endpoint and the load generator.
type Stats struct {
	Epoch         int64   `json:"epoch"`
	Sessions      int     `json:"sessions"`
	Rules         int     `json:"rules"`
	Requests      int64   `json:"rank_requests"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Events is the number of basic events currently declared in the
	// system's event space. Under session churn it stays bounded by the
	// live context vocabulary (each context apply retires the previous
	// snapshot's events) — a growing value here means an event leak.
	Events int        `json:"events"`
	Cache  CacheStats `json:"cache"`
	// Plans is the compiled-rank-plan cache: one entry per (user, rule
	// set, epoch, context epoch), shared by every target and batch item
	// that user ranks at that state.
	Plans   CacheStats   `json:"plan_cache"`
	Latency LatencyStats `json:"latency"`
	// Health is the failure-domain state: healthy or degraded (journal
	// down, mutations rejected), plus the counters behind it.
	Health *HealthInfo `json:"health,omitempty"`
	// Journal is the write-ahead log (appends, group-commit batches,
	// fsyncs, compactions, live/vocab/total records, bytes since the last
	// checkpoint); nil when the server runs without durability.
	Journal *journal.Stats `json:"journal,omitempty"`
	// Checkpoints describes background checkpoint activity; only a
	// backend with durability attached (shard.Coordinator) fills it.
	Checkpoints *CheckpointStats `json:"checkpoints,omitempty"`
	// Recovery describes what boot-time WAL replay restored; filled once
	// at boot by shard.Coordinator.Recover.
	Recovery *RecoveryStats `json:"recovery,omitempty"`
	// Subs is the standing-subscription subsystem: registered
	// subscriptions, pushed events, evaluator work and skip counts.
	Subs *SubscriptionStats `json:"subscriptions,omitempty"`
	// HotPath is the rank hot path's scratch-pool and document-
	// distribution-cache effectiveness. The counters are process-global
	// (see contextrank.HotPathStats).
	HotPath *contextrank.HotPathStats `json:"hot_path,omitempty"`
}

// CheckpointStats describes background checkpoint activity: full-state
// snapshots that truncate the WAL (see shard.Coordinator.Checkpoint).
type CheckpointStats struct {
	// Count / Failures count completed and failed checkpoint attempts.
	Count    int64 `json:"count"`
	Failures int64 `json:"failures"`
	// LastUnix is when the last successful checkpoint finished (unix
	// seconds; 0 before the first).
	LastUnix int64 `json:"last_unix,omitempty"`
	// LastDurationMicros is the wall time of the last successful
	// checkpoint (suspend + dump + rename + WAL truncation).
	LastDurationMicros float64 `json:"last_duration_us,omitempty"`
	// LastSeq is the journal sequence the last checkpoint covered.
	LastSeq uint64 `json:"last_seq,omitempty"`
}

// RecoveryStats describes what a boot-time WAL replay restored. The
// per-op counts are applied records; Skipped* are records correctly not
// applied (already covered by the restored checkpoint, or a duplicate
// copy of a vocabulary write in an old N-shard generation).
type RecoveryStats struct {
	// Files is how many journal files were replayed.
	Files int `json:"files"`
	// Records is the total records read across those files.
	Records int `json:"records"`
	// Users is the number of live sessions restored; Drops counts
	// journaled session drops replayed.
	Users int `json:"users"`
	Drops int `json:"drops"`
	// Declares/Asserts/RuleAdds/RuleRemoves/Execs count vocabulary
	// records applied through Server.Apply.
	Declares    int `json:"declares"`
	Asserts     int `json:"asserts"`
	RuleAdds    int `json:"rule_adds"`
	RuleRemoves int `json:"rule_removes"`
	Execs       int `json:"execs"`
	// SkippedCheckpoint counts vocabulary records whose effect the
	// restored snapshot already contained (Seq <= the manifest's
	// checkpoint sequence for that file, same journal generation).
	SkippedCheckpoint int `json:"skipped_checkpoint"`
	// SkippedDuplicate counts vocabulary records deduplicated by
	// broadcast id: an old N-shard generation holds one copy per WAL
	// file, and exactly one is applied.
	SkippedDuplicate int `json:"skipped_duplicate"`
	// Subscribes/Unsubscribes count standing-subscription records
	// replayed: journaled subscriptions re-register at boot, so a client's
	// push stream resumes after a crash without re-subscribing.
	Subscribes   int `json:"subscribes"`
	Unsubscribes int `json:"unsubscribes"`
	// Failed counts records whose re-apply errored; they are preserved in
	// the new journal generation (marked checkpoint-exempt) instead of
	// being dropped.
	Failed int `json:"failed"`
	// BadFiles counts journal files skipped wholesale (bad magic /
	// unreadable); TornFiles counts files that ended in a torn tail.
	BadFiles  int `json:"bad_files"`
	TornFiles int `json:"torn_files"`
	// FingerprintMismatches counts replayed sessions whose recomputed
	// fingerprint differed from the journaled one (should be zero).
	FingerprintMismatches int `json:"fingerprint_mismatches"`
}

// VocabApplied is the number of vocabulary records applied during replay.
func (rs RecoveryStats) VocabApplied() int {
	return rs.Declares + rs.Asserts + rs.RuleAdds + rs.RuleRemoves + rs.Execs
}

// Stats snapshots the server counters. The collection path is lock-free:
// it reads atomics (epoch, request/session counters, cache counters, the
// latency ring) and internally synchronized component state (rule
// repository, event space) without ever taking the facade lock, the
// session mutex or the cache mutex — scraping /v1/stats during a long
// write (e.g. a merged context apply) returns immediately instead of
// queueing behind rank traffic. The snapshot is correspondingly not an
// atomic cut across counters, which monitoring does not need.
func (s *Server) Stats() Stats {
	st := Stats{
		Epoch:    s.facade.Epoch(),
		Sessions: s.sessions.Count(),
		// The repository serializes itself and its lock is never held
		// across rank work, so this cannot queue behind the facade.
		Rules:         s.facade.sys.Rules().Len(),
		Requests:      s.requests.Load(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		// The space serializes its own reads, so no facade lock is needed.
		Events:  s.facade.sys.DB().Space().Len(),
		Latency: s.latency.snapshot(),
	}
	if s.cache != nil {
		st.Cache = s.cache.stats()
	}
	st.Plans = s.plans.stats()
	st.Health = s.health.healthInfo()
	if j := s.sessions.Journal(); j != nil {
		// Journal counters are atomics; reading them keeps the scrape
		// lock-free.
		js := j.Stats()
		st.Journal = &js
	}
	hp := contextrank.ReadHotPathStats()
	st.HotPath = &hp
	ss := s.subs.stats()
	st.Subs = &ss
	return st
}
