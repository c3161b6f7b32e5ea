package serve

import (
	"fmt"
	"testing"

	"repro/internal/workload"
)

// BenchmarkSessionSetScaling times one user's context apply while 1, 16,
// 128 or 512 sessions are live. Sessions.Set re-applies every live
// session's context (the merged apply), so today the cost grows with the
// session count; a per-user context delta would keep it flat. Each
// iteration alternates the user between two contexts, so every apply
// changes state.
func BenchmarkSessionSetScaling(b *testing.B) {
	const k = 4
	for _, live := range []int{1, 16, 128, 512} {
		b.Run(fmt.Sprintf("sessions=%d", live), func(b *testing.B) {
			srv, user := batchServer(b, k)
			for u := 1; u < live; u++ {
				ms := []Measurement{{Concept: workload.BenchContextConcept(u % k), Prob: 0.9}}
				if _, err := srv.SetSession(fmt.Sprintf("other%04d", u), ms); err != nil {
					b.Fatal(err)
				}
			}
			if got := srv.Stats().Sessions; got != live {
				b.Fatalf("%d live sessions, want %d", got, live)
			}
			contexts := [2][]Measurement{
				{{Concept: workload.BenchContextConcept(0), Prob: 0.9}},
				{{Concept: workload.BenchContextConcept(1), Prob: 0.6}},
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := srv.SetSession(user, contexts[i%2]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
