package main

import "testing"

func sp(start, end int64) span { return span{start: start, end: end, parent: -1} }

func TestSelfTime(t *testing.T) {
	parent := sp(100, 200)
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{sp(120, 150)}, 70},
		{"disjoint children", []span{sp(110, 120), sp(150, 170)}, 70},
		{"overlapping children", []span{sp(110, 140), sp(130, 160)}, 50},
		{"nested children", []span{sp(110, 190), sp(120, 130), sp(150, 160)}, 20},
		{"unsorted overlapping", []span{sp(150, 170), sp(110, 120), sp(115, 155)}, 40},
		{"touching children", []span{sp(110, 130), sp(130, 150)}, 60},
		{"child starts before parent", []span{sp(50, 130)}, 70},
		{"child ends after parent", []span{sp(180, 260)}, 80},
		{"child covers parent", []span{sp(0, 300)}, 0},
		{"child outside parent", []span{sp(0, 50), sp(250, 300)}, 100},
		{"empty child", []span{sp(140, 140)}, 100},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestOverlapping(t *testing.T) {
	fsyncs := []span{sp(0, 10), sp(20, 30), sp(40, 50), sp(60, 70)}
	got := overlapping(sp(25, 45), fsyncs)
	if len(got) != 2 || got[0].start != 20 || got[1].start != 40 {
		t.Fatalf("overlapping = %v, want the spans starting at 20 and 40", got)
	}
	if got := overlapping(sp(10, 20), fsyncs); len(got) != 0 {
		t.Fatalf("spans that only touch the interval overlap it: %v", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %g, want 3", q)
	}
	if q := quantile(xs, 0.99); q != 5 {
		t.Errorf("p99 = %g, want 5", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("quantile of no samples = %g, want 0", q)
	}
}

func TestLink(t *testing.T) {
	spans := []span{
		// Connection a serves a slow rank for u1 while connection b serves
		// two quick ranks, the second for the same user.
		{name: "handler.rank", start: 0, end: 100, user: "u1", conn: "a"},
		{name: "handler.rank", start: 10, end: 20, user: "u2", conn: "b"},
		{name: "handler.rank", start: 30, end: 60, user: "u1", conn: "b"},
		{name: "backend.rank.miss", start: 5, end: 90, user: "u1"},
		{name: "backend.rank.hit", start: 12, end: 15, user: "u2"},
		{name: "backend.rank.hit", start: 35, end: 40, user: "u1"},
		{name: "journal.fsync", start: 36, end: 38},
	}
	link(spans)
	want := map[int]int{3: 0, 4: 1, 5: 2, 6: -1}
	for i, p := range want {
		if spans[i].parent != p {
			t.Errorf("span %d (%s) parent = %d, want %d", i, spans[i].name, spans[i].parent, p)
		}
	}
}
