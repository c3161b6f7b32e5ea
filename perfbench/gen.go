package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
)

// The daemon preloads the paper's §5 dataset (workload.DefaultSpec): 1000
// persons person0000..person0999 and 300 programs tv000..tv299. The
// workload seed picks users, contexts, targets and candidate lists from
// those names; the daemon only ever sees the generated requests.
const (
	datasetPersons  = 1000
	datasetPrograms = 300
)

// measurement is one session context measurement as the HTTP API takes it.
type measurement struct {
	Concept string  `json:"concept"`
	Prob    float64 `json:"prob"`
}

// rankOp is one pre-generated rank request.
type rankOp struct {
	user   string
	target string   // single-rank target; empty for a candidate-list batch
	cands  []string // candidate list of a batch item
	topK   int      // 0 = full ranking
	body   []byte   // encoded request body
	check  bool     // re-ranked in the reference system after the run
}

// churnEvent is one sensor update: a new context for one user, followed by
// a re-rank of that user on the same connection.
type churnEvent struct {
	user     string
	ctx      []measurement
	streamed bool
	ctxIdx   int // index into streamedCtxs when streamed
	putBody  []byte
	rankBody []byte
}

func personName(i int) string  { return fmt.Sprintf("person%04d", i) }
func programName(i int) string { return fmt.Sprintf("tv%03d", i) }
func ctxConcept(i int) string  { return fmt.Sprintf("BenchCtx%d", i) }

// pickUsers draws n distinct persons.
func pickUsers(rng *rand.Rand, n int) []string {
	out := make([]string, n)
	for i, p := range rng.Perm(datasetPersons)[:n] {
		out[i] = personName(p)
	}
	return out
}

// uncertainProb draws a context probability in [0.50, 0.95] in 0.05 steps.
func uncertainProb(rng *rand.Rand) float64 {
	return 0.5 + 0.05*float64(rng.Intn(10))
}

// randContext draws a non-empty context over the rules' context concepts:
// each concept is present with probability 1/2, and half of the present
// ones are uncertain. With allUncertain every concept is present with a
// probability below 1, the rankers' worst case (no pruning, no folding).
func randContext(rng *rand.Rand, rules int, allUncertain bool) []measurement {
	var ms []measurement
	for len(ms) == 0 {
		for i := 0; i < rules; i++ {
			switch {
			case allUncertain:
				ms = append(ms, measurement{ctxConcept(i), uncertainProb(rng)})
			case rng.Intn(2) == 0:
			case rng.Intn(2) == 0:
				ms = append(ms, measurement{ctxConcept(i), 1})
			default:
				ms = append(ms, measurement{ctxConcept(i), uncertainProb(rng)})
			}
		}
	}
	return ms
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of strings and numbers are encoded
	}
	return b
}

func sessionBody(ms []measurement) []byte {
	return mustJSON(struct {
		Measurements []measurement `json:"measurements"`
	}{ms})
}

type rankBody struct {
	User   string `json:"user"`
	Target string `json:"target"`
	TopK   int    `json:"top_k,omitempty"`
}

type batchItem struct {
	Candidates []string `json:"candidates"`
	TopK       int      `json:"top_k,omitempty"`
}

type batchBody struct {
	User  string      `json:"user"`
	Items []batchItem `json:"items"`
}

// sampleEvery is the mean gap between ops whose responses are kept for the
// reference re-rank; maxChecks caps the kept responses per run.
const (
	sampleEvery = 200
	maxChecks   = 48
)

// zipfInputs generates rank_zipf: users with fixed contexts and a Zipf
// (s=1.1) sequence of single ranks over three targets.
func zipfInputs(seed int64, nUsers, nOps int) (users []string, ctxs map[string][]measurement, ops []rankOp) {
	rng := rand.New(rand.NewSource(seed))
	users = pickUsers(rng, nUsers)
	ctxs = make(map[string][]measurement, nUsers)
	for _, u := range users {
		ctxs[u] = randContext(rng, zipfRules, false)
	}
	targets := []string{
		"TvProgram",
		"TvProgram AND EXISTS hasSubject.Subject",
		fmt.Sprintf("TvProgram AND EXISTS hasGenre.{genre%02d}", rng.Intn(12)),
	}
	z := rand.NewZipf(rng, 1.1, 1, uint64(nUsers-1))
	ops = make([]rankOp, nOps)
	for i := range ops {
		u := users[z.Uint64()]
		t := targets[rng.Intn(len(targets))]
		ops[i] = rankOp{user: u, target: t, topK: 10,
			body:  mustJSON(rankBody{User: u, Target: t, TopK: 10}),
			check: rng.Intn(sampleEvery) == 0}
	}
	return users, ctxs, ops
}

// queryInputs generates rank_query: users with all-uncertain contexts and
// batch requests carrying one explicit candidate list of 50-300 programs,
// half of them asking for the top 10.
func queryInputs(seed int64, nUsers, nOps int) (users []string, ctxs map[string][]measurement, ops []rankOp) {
	rng := rand.New(rand.NewSource(seed))
	users = pickUsers(rng, nUsers)
	ctxs = make(map[string][]measurement, nUsers)
	for _, u := range users {
		ctxs[u] = randContext(rng, queryRules, true)
	}
	ops = make([]rankOp, nOps)
	for i := range ops {
		u := users[rng.Intn(nUsers)]
		n := 50 + rng.Intn(datasetPrograms-50+1)
		cands := make([]string, n)
		for j, p := range rng.Perm(datasetPrograms)[:n] {
			cands[j] = programName(p)
		}
		topK := 0
		if rng.Intn(2) == 0 {
			topK = 10
		}
		ops[i] = rankOp{user: u, cands: cands, topK: topK,
			body:  mustJSON(batchBody{User: u, Items: []batchItem{{Candidates: cands, TopK: topK}}}),
			check: rng.Intn(sampleEvery/4) == 0}
	}
	return users, ctxs, ops
}

// churnInputs is context_churn's seeded state: live sessions, the
// subscribed users (subUsers[0] is streamed) and the streamed user's
// context cycle.
type churnInputs struct {
	rng          *rand.Rand
	users        []string
	ctxs         map[string][]measurement // setup contexts
	subUsers     []string
	streamedCtxs [][]measurement
	last         map[string][]measurement // latest context generated per user
	lastStreamed int
}

// streamedCycle is how many distinct contexts the streamed user cycles
// through. Each has its own BenchCtx0 probability, so every streamed apply
// moves the user's scores and must produce a delta.
const streamedCycle = 6

func newChurnInputs(seed int64, nUsers, nSubs int) *churnInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &churnInputs{rng: rng, users: pickUsers(rng, nUsers),
		ctxs: make(map[string][]measurement, nUsers), last: make(map[string][]measurement, nUsers)}
	for _, u := range in.users {
		in.ctxs[u] = randContext(rng, churnRules, false)
	}
	in.subUsers = in.users[:nSubs]
	for i := 0; i < streamedCycle; i++ {
		in.streamedCtxs = append(in.streamedCtxs, []measurement{
			{ctxConcept(0), 0.35 + 0.1*float64(i)},
			{ctxConcept(1), 1},
		})
	}
	in.ctxs[in.subUsers[0]] = in.streamedCtxs[0]
	for u, c := range in.ctxs {
		in.last[u] = c
	}
	return in
}

// next draws the next sensor event: one in four goes to the streamed user,
// and every event changes its user's context, so every apply is real work.
func (in *churnInputs) next() churnEvent {
	var ev churnEvent
	if in.rng.Intn(4) == 0 {
		in.lastStreamed = (in.lastStreamed + 1 + in.rng.Intn(streamedCycle-1)) % streamedCycle
		ev = churnEvent{user: in.subUsers[0], ctx: in.streamedCtxs[in.lastStreamed], streamed: true, ctxIdx: in.lastStreamed}
	} else {
		u := in.users[1+in.rng.Intn(len(in.users)-1)]
		c := randContext(in.rng, churnRules, false)
		for slices.Equal(c, in.last[u]) {
			c = randContext(in.rng, churnRules, false)
		}
		ev = churnEvent{user: u, ctx: c}
	}
	in.last[ev.user] = ev.ctx
	ev.putBody = sessionBody(ev.ctx)
	ev.rankBody = mustJSON(rankBody{User: ev.user, Target: "TvProgram", TopK: 10})
	return ev
}
