package harness

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"stir/internal/core"
)

func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{9, 0},     // not even the median has ten samples beyond it
		{20, 50},   // ten beyond the median
		{99, 50},   // p90 would leave 9.9
		{100, 90},  // exactly ten beyond p90
		{999, 90},  // p99 would leave 9.99
		{1000, 99}, // ten beyond p99
		{10000, 99.9},
	}
	for _, c := range cases {
		if got := HighestSupported(c.n, Percentiles); got != c.want {
			t.Errorf("HighestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if got := Percentile(xs, 50); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := Percentile(xs, 90); got != 90 {
		t.Errorf("p90 = %v, want 90", got)
	}
	if xs[0] != 100 {
		t.Error("Percentile sorted its input in place")
	}
}

func TestSelfTimeFromSpanTree(t *testing.T) {
	// root [0,100] has children a [10,40] and b [30,60] (overlapping, so
	// they cover 50 together) and c [90,120] (clipped to 10 inside root);
	// a has one child [15,25].
	spans := []Span{
		{Trace: 1, ID: 1, Name: "root", Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{Trace: 1, ID: 3, Parent: 1, Name: "child", Start: 30, End: 60},
		{Trace: 1, ID: 4, Parent: 1, Name: "late", Start: 90, End: 120},
		{Trace: 1, ID: 5, Parent: 2, Name: "leaf", Start: 15, End: 25},
	}
	got := SelfTimes(spans)
	want := map[string]LayerTime{
		"root":  {Count: 1, Total: 100, Self: 100 - 50 - 10},
		"child": {Count: 2, Total: 60, Self: 60 - 10},
		"late":  {Count: 1, Total: 30, Self: 30},
		"leaf":  {Count: 1, Total: 10, Self: 10},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
}

func TestRecorderLinksSpans(t *testing.T) {
	r := NewRecorder()
	root := r.Start(Ref{}, "root")
	child := r.Start(RefFrom(WithRef(context.Background(), root.Ref())), "child")
	child.End()
	root.End()
	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2", len(spans))
	}
	c, p := spans[0], spans[1]
	if c.Parent != p.ID || c.Trace != p.Trace || p.Parent != 0 || p.Trace != p.ID {
		t.Fatalf("bad links: child %+v root %+v", c, p)
	}
	var nilRec *Recorder
	if sp := nilRec.Start(Ref{}, "x"); sp != nil || sp.End() != 0 || sp.Ref() != (Ref{}) {
		t.Fatal("a nil recorder must record nothing")
	}
}

func TestComparatorFlagsOneChangedGrouping(t *testing.T) {
	ref := []core.UserGrouping{
		{UserID: 1, Profile: core.Place{State: "Seoul", County: "Jongno-gu"}, MatchedRank: 1, Group: core.Top1, TotalTweets: 3, DistinctDistricts: 1, MatchedTweets: 3},
		{UserID: 2, Profile: core.Place{State: "Busan", County: "Jung-gu"}, MatchedRank: 2, Group: core.Top2, TotalTweets: 5, DistinctDistricts: 2, MatchedTweets: 2},
	}
	same := append([]core.UserGrouping(nil), ref...)
	if err := CompareGroupings(same, ref); err != nil {
		t.Fatalf("identical groupings flagged: %v", err)
	}
	changed := append([]core.UserGrouping(nil), ref...)
	changed[1].MatchedTweets = 3
	if err := CompareGroupings(changed, ref); err == nil {
		t.Fatal("a changed grouping was not flagged")
	}
	if err := CompareGroupings(ref[:1], ref); err == nil {
		t.Fatal("a missing grouping was not flagged")
	}
}

func TestOpenLoopChargesStallToLaterQueries(t *testing.T) {
	const every = 20 * time.Millisecond
	const stall = 200 * time.Millisecond
	calls := 0
	ol := NewOpenLoop(every, func(context.Context) error {
		calls++
		if calls == 1 {
			time.Sleep(stall)
		}
		return nil
	})
	start := time.Now()
	done := make(chan []Query)
	go func() { done <- ol.Run(context.Background(), start) }()
	time.Sleep(stall + 5*every)
	ol.Stop(start.Add(stall + 3*every))
	qs := <-done
	// Every query due before the stop time is sent, stall or not.
	if len(qs) < 10 {
		t.Fatalf("%d queries sent, want every query due before the stop", len(qs))
	}
	// The queries due during the stall went out late, and their latency,
	// timed from when they were due, carries the wait.
	for i := 1; i < 5; i++ {
		q := qs[i]
		wantMin := stall - time.Duration(i)*every
		if q.Latency() < wantMin || q.Late() < wantMin {
			t.Errorf("query %d: latency %v, late %v; want both >= %v", i, q.Latency(), q.Late(), wantMin)
		}
	}
	// Once it has caught up, the generator runs on time again.
	if last := qs[len(qs)-1]; last.Latency() > stall/2 {
		t.Errorf("last query latency %v: the generator never caught up", last.Latency())
	}
}

func TestOpenLoopReportsErrors(t *testing.T) {
	ol := NewOpenLoop(time.Millisecond, func(context.Context) error { return errors.New("boom") })
	start := time.Now()
	done := make(chan []Query)
	go func() { done <- ol.Run(context.Background(), start) }()
	ol.Stop(start.Add(5 * time.Millisecond))
	for _, q := range <-done {
		if q.Err == nil {
			t.Fatal("query error lost")
		}
	}
}

//go:noinline
func blockingSend(ch chan int) { ch <- 1 }

func TestBlockedInAttributesChannelWaits(t *testing.T) {
	runtime.SetBlockProfileRate(1)
	defer runtime.SetBlockProfileRate(0)
	ch := make(chan int)
	go func() {
		time.Sleep(30 * time.Millisecond)
		<-ch
	}()
	blockingSend(ch)
	if got := BlockedIn("stir/perfbench/harness.blockingSend"); got < 10*time.Millisecond {
		t.Fatalf("BlockedIn = %v, want the ~30ms the send blocked", got)
	}
	if got := BlockedIn("stir/perfbench/harness.noSuchFunction"); got != 0 {
		t.Fatalf("BlockedIn(unknown) = %v, want 0", got)
	}
}
