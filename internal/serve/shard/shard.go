// Package shard makes one serve.Server crash-durable: a Coordinator
// embeds the server — every Backend method is the server's own — and
// adds the persistence story around it: the write-ahead journal's
// generations (Recover, CloseJournals), checkpoints that snapshot the
// engine and truncate the WAL (Checkpoint, StartCheckpointer), and the
// background disk probe that leaves degraded mode (StartHealthProbe).
//
// The package name and the New(n, …) signature are those of the former
// in-process sharding layer, which kept N full replicas of the engine.
// It was removed (DESIGN.md §3.5); New now accepts exactly one shard, and
// Recover and RestoreBuilder still read state directories an N-shard
// daemon wrote.
package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	contextrank "repro"
	"repro/internal/serve"
	"repro/internal/serve/journal"
)

// Coordinator is one serve.Server plus its durability. It satisfies
// serve.Backend through the embedded server; only Stats is overridden,
// to attach the checkpoint and recovery counters.
type Coordinator struct {
	*serve.Server

	// journal is the WAL opened by Recover (nil when the coordinator runs
	// without durability); CloseJournals owns its lifecycle.
	journal *journal.Journal
	// journalGen is the generation id of the open journal ("" without
	// durability). Snapshot manifests record it so recovery can pair
	// checkpoint coverage with the right WAL file.
	journalGen string
	// fs is the filesystem seam the journal was opened with (OSFS
	// outside fault-injection runs); manifest switches route through it
	// so injected rename/write faults reach them too.
	fs journal.FS

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

// New builds the coordinator around one engine: build constructs its
// System (e.g. preloading a dataset, or restoring a snapshot) and is
// called once with index 0. n must be 1 — in-process sharding was
// removed, and any other count is an error that says so.
func New(n int, build func(shard int) (*contextrank.System, error), opts serve.Options) (*Coordinator, error) {
	if n != 1 {
		return nil, fmt.Errorf("shard: got %d shards, but in-process sharding was removed; run one engine per process (-shards 1)", n)
	}
	sys, err := build(0)
	if err != nil {
		return nil, fmt.Errorf("shard: building the engine: %w", err)
	}
	return &Coordinator{Server: serve.NewServer(sys, opts)}, nil
}

// Shard returns the engine. i must be 0, the only shard.
func (c *Coordinator) Shard(i int) *serve.Server {
	if i != 0 {
		panic(fmt.Sprintf("shard: no shard %d; the coordinator runs one engine", i))
	}
	return c.Server
}

// Stats is the server's snapshot plus the coordinator's checkpoint and
// boot-recovery counters. Like Server.Stats it is collection-lock-free.
func (c *Coordinator) Stats() serve.Stats {
	st := c.Server.Stats()
	if c.journal != nil {
		st.Checkpoints = &serve.CheckpointStats{
			Count:              c.ckptCount.Load(),
			Failures:           c.ckptFailures.Load(),
			LastUnix:           c.ckptLastUnix.Load(),
			LastDurationMicros: float64(c.ckptLastDurUs.Load()),
			LastSeq:            c.ckptLastSeq.Load(),
		}
	}
	st.Recovery = c.recovery.Load()
	return st
}

// StartHealthProbe runs a disk probe every interval while the server is
// in degraded mode (see serve.Server.ProbeDisk), until the returned stop
// function is called. onEvent (optional) receives one line per recovery
// or failed attempt — wire it to the daemon log.
func (c *Coordinator) StartHealthProbe(interval time.Duration, onEvent func(string)) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
			}
			if !c.Degraded() {
				continue
			}
			err := c.ProbeDisk()
			if onEvent == nil {
				continue
			}
			if err != nil {
				onEvent(fmt.Sprintf("health probe: degraded: %v", err))
			} else {
				onEvent("health probe: recovered from degraded mode")
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}
