package master

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"borgmoea/internal/core"
)

// stagedStub is stubAlg with a real staging queue, recording
// the exact algorithm-call sequence so tests can pin where deferred
// applies land relative to suggests.
type stagedStub struct {
	stubAlg
	calls  []string
	queued []*core.Solution
}

func (a *stagedStub) Suggest() *core.Solution {
	s := a.stubAlg.Suggest()
	a.calls = append(a.calls, fmt.Sprintf("suggest:%g", s.Vars[0]))
	return s
}

func (a *stagedStub) Accept(it *Item) { a.accept(it.S) }

func (a *stagedStub) accept(s *core.Solution) {
	a.stubAlg.accept(s)
	a.calls = append(a.calls, fmt.Sprintf("accept:%g", s.Vars[0]))
}

func (a *stagedStub) AcceptSuggest(it *Item) *core.Solution {
	a.Accept(it)
	return a.Suggest()
}

func (a *stagedStub) StageAccept(it *Item) {
	a.calls = append(a.calls, fmt.Sprintf("stage:%g", it.S.Vars[0]))
	a.queued = append(a.queued, it.S)
}

func (a *stagedStub) ApplyStaged() {
	for _, s := range a.queued {
		a.accept(s)
	}
	a.queued = a.queued[:0]
}

// TestDeferApplyEagerSequence pins the deferred eager path: the grant
// is issued from a stage+suggest (no apply in between), and the apply
// lands at the explicit Flush — or, without one, at the next Handle —
// always before the next event's algorithm work.
func TestDeferApplyEagerSequence(t *testing.T) {
	alg := &stagedStub{}
	c := NewCore(Config{Budget: 4, Policy: EagerOffspring, DeferApply: true, Alg: alg})

	c.Handle(Event{Kind: EvJoin, Worker: 1})
	c.Handle(Event{Kind: EvJoin, Worker: 2})

	acts := c.Handle(Event{Kind: EvResult, Worker: 1, Item: 1})
	wantGrant(t, acts, 0, 1, 3)
	want := []string{"suggest:1", "suggest:2", "stage:1", "suggest:3"}
	if !reflect.DeepEqual(alg.calls, want) {
		t.Fatalf("calls = %v, want %v (grant must precede apply)", alg.calls, want)
	}

	// The driver flushes after transmitting: the apply runs now.
	c.Flush()
	if got := alg.calls[len(alg.calls)-1]; got != "accept:1" {
		t.Fatalf("after Flush last call = %q, want accept:1", got)
	}
	n := len(alg.calls)
	c.Flush() // idempotent
	if len(alg.calls) != n {
		t.Fatal("second Flush re-applied staged work")
	}

	// Already flushed: the next result only stages and suggests.
	acts = c.Handle(Event{Kind: EvResult, Worker: 2, Item: 2})
	wantGrant(t, acts, 0, 2, 4)
	if tail := alg.calls[n:]; !reflect.DeepEqual(tail, []string{"stage:2", "suggest:4"}) {
		t.Fatalf("calls after second result = %v, want [stage:2 suggest:4]", tail)
	}

	// Without a driver Flush, the apply lands at the next Handle,
	// before that event's own algorithm calls.
	n = len(alg.calls)
	acts = c.Handle(Event{Kind: EvResult, Worker: 1, Item: 3})
	wantGrant(t, acts, 0, 1, 5)
	if tail := alg.calls[n:]; !reflect.DeepEqual(tail, []string{"accept:2", "stage:3", "suggest:5"}) {
		t.Fatalf("calls after third result = %v, want [accept:2 stage:3 suggest:5]", tail)
	}

	// Budget-reaching accept: applied before completion, no grant after.
	acts = c.Handle(Event{Kind: EvResult, Worker: 2, Item: 4})
	if acts[0].Kind != ActComplete {
		t.Fatalf("final result actions = %v, want completion first", acts)
	}
	if !c.Done() {
		t.Fatal("core not done at budget")
	}
	// Every accepted result must have been applied by completion time.
	if len(alg.accepted) != 4 {
		t.Fatalf("applied %d accepts by completion, want 4 (last staged must flush)", len(alg.accepted))
	}
}

// TestDeferApplyCallSequenceInvariant: with and without driver Flush
// calls, the algorithm-call sequence is identical — the property that
// makes deferred runs replayable from the BMEL log alone.
func TestDeferApplyCallSequenceInvariant(t *testing.T) {
	run := func(flushEvery bool) []string {
		alg := &stagedStub{}
		c := NewCore(Config{Budget: 6, Policy: EagerOffspring, DeferApply: true, Alg: alg})
		events := []Event{
			{Kind: EvJoin, Worker: 1},
			{Kind: EvJoin, Worker: 2},
			{Kind: EvResult, Worker: 1, Item: 1},
			{Kind: EvResult, Worker: 2, Item: 2},
			{Kind: EvTick},
			{Kind: EvResult, Worker: 1, Item: 3},
			{Kind: EvResult, Worker: 2, Item: 4},
			{Kind: EvResult, Worker: 1, Item: 5},
			{Kind: EvResult, Worker: 2, Item: 6},
		}
		for _, ev := range events {
			c.Handle(ev)
			if flushEvery {
				c.Flush()
			}
		}
		return alg.calls
	}
	withFlush, withoutFlush := run(true), run(false)
	if !reflect.DeepEqual(withFlush, withoutFlush) {
		t.Fatalf("call sequences diverge:\n with Flush: %v\n without:    %v", withFlush, withoutFlush)
	}
}

// TestDeferApplySameProtocolDecisions: deferral changes when the
// algorithm runs, never what the protocol decides — the same event
// stream yields byte-identical canonical logs.
func TestDeferApplySameProtocolDecisions(t *testing.T) {
	run := func(defer_ bool) *Log {
		log := NewLog()
		c := NewCore(Config{Budget: 5, Policy: EagerOffspring, DeferApply: defer_, Alg: &stagedStub{}, Log: log})
		evs := []Event{
			{Kind: EvJoin, Worker: 1},
			{Kind: EvJoin, Worker: 2},
			{Kind: EvResult, Worker: 1, Item: 1},
			{Kind: EvResult, Worker: 2, Item: 2},
			{Kind: EvResult, Worker: 1, Item: 3},
			{Kind: EvResult, Worker: 2, Item: 4},
			{Kind: EvResult, Worker: 1, Item: 5},
		}
		for _, ev := range evs {
			c.Handle(ev)
		}
		return log
	}
	if !bytes.Equal(run(true).CanonicalBytes(), run(false).CanonicalBytes()) {
		t.Fatal("deferred and plain runs made different protocol decisions")
	}
}

// TestLogMetaDeferApplyRoundTrip: the flag survives serialization in
// the version-1 policy byte, without disturbing the policy value.
func TestLogMetaDeferApplyRoundTrip(t *testing.T) {
	for _, pol := range []Policy{EagerOffspring, LazyOffspring, ScheduledOffspring} {
		for _, def := range []bool{false, true} {
			l := &Log{Meta: LogMeta{Policy: pol, Budget: 9, LeaseTimeout: 1.5, DeferApply: def}}
			l.Events = []Event{{Kind: EvJoin, Worker: 1}}
			var buf bytes.Buffer
			if _, err := l.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := ReadLog(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if got.Meta.Policy != pol || got.Meta.DeferApply != def {
				t.Fatalf("round trip: got policy=%v defer=%v, want %v/%v",
					got.Meta.Policy, got.Meta.DeferApply, pol, def)
			}
		}
	}
}

// TestReplayHonorsDeferApply: replaying a deferred run's log drives the
// algorithm through the identical call sequence the live run made.
func TestReplayHonorsDeferApply(t *testing.T) {
	log := NewLog()
	live := &stagedStub{}
	c := NewCore(Config{Budget: 4, Policy: EagerOffspring, DeferApply: true, Alg: live, Log: log})
	evs := []Event{
		{Kind: EvJoin, Worker: 1},
		{Kind: EvJoin, Worker: 2},
		{Kind: EvResult, Worker: 1, Item: 1},
		{Kind: EvResult, Worker: 2, Item: 2},
		{Kind: EvResult, Worker: 1, Item: 3},
		{Kind: EvResult, Worker: 2, Item: 4},
	}
	for _, ev := range evs {
		c.Handle(ev)
		c.Flush()
	}
	if !c.Done() {
		t.Fatal("live run incomplete")
	}

	var buf bytes.Buffer
	if _, err := log.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !decoded.Meta.DeferApply {
		t.Fatal("decoded log lost the DeferApply flag")
	}
	replayed := &stagedStub{}
	rc, err := Replay(decoded, ReplayConfig{Alg: replayed})
	if err != nil {
		t.Fatal(err)
	}
	if !rc.Done() {
		t.Fatal("replayed run incomplete")
	}
	if !reflect.DeepEqual(live.calls, replayed.calls) {
		t.Fatalf("replay call sequence diverged:\n live:   %v\n replay: %v", live.calls, replayed.calls)
	}
}

// TestItemWrappersRecycled: the wrapper of an accepted result is reused
// for the very next grant — ids keep advancing, allocation stops.
func TestItemWrappersRecycled(t *testing.T) {
	alg := &stubAlg{}
	c := NewCore(Config{Budget: 100, Policy: EagerOffspring, Alg: alg})
	acts := c.Handle(Event{Kind: EvJoin, Worker: 1})
	first := acts[0].Item
	acts = c.Handle(Event{Kind: EvResult, Worker: 1, Item: 1})
	second := acts[0].Item
	if second != first {
		t.Fatal("accepted wrapper was not recycled into the next grant")
	}
	if second.ID != 2 || second.ResubmitOf != 0 {
		t.Fatalf("recycled wrapper not reset: %+v", second)
	}
}

// TestLoseDoesNotRecycleAbandonedWrapper: a resubmitted (cloned) item's
// original wrapper may still be referenced by an in-flight in-process
// worker — it must never come back as a future grant.
func TestLoseDoesNotRecycleAbandonedWrapper(t *testing.T) {
	alg := &stubAlg{}
	c := NewCore(Config{Budget: 100, Policy: EagerOffspring, Alg: alg})
	acts := c.Handle(Event{Kind: EvJoin, Worker: 1})
	orig := acts[0].Item
	origSol := orig.S
	// Worker 1 dies; its lease is cloned (id 2) and re-enqueued.
	c.Handle(Event{Kind: EvGone, Worker: 1})
	acts = c.Handle(Event{Kind: EvJoin, Worker: 2})
	wantGrant(t, acts, 0, 2, 3) // an eager join seeds a fresh suggest
	acts = c.Handle(Event{Kind: EvResult, Worker: 2, Item: 3})
	clone := acts[0].Item // FIFO: the queued clone goes out first
	if clone == orig {
		t.Fatal("abandoned wrapper recycled while a worker may hold it")
	}
	if clone.ResubmitOf != 1 {
		t.Fatalf("clone.ResubmitOf = %d, want 1", clone.ResubmitOf)
	}
	if clone.S == origSol {
		t.Fatal("clone shares the original Solution without ReuseOnResubmit")
	}
}

// TestReuseOnResubmit: wire-transport cores reissue the same wrapper
// and Solution under a fresh id, with trace context cleared.
func TestReuseOnResubmit(t *testing.T) {
	alg := &stubAlg{}
	c := NewCore(Config{Budget: 100, Policy: LazyOffspring, ReuseOnResubmit: true, Alg: alg})
	acts := c.Handle(Event{Kind: EvJoin, Worker: 1})
	orig := acts[0].Item
	origSol := orig.S
	c.Handle(Event{Kind: EvGone, Worker: 1})
	acts = c.Handle(Event{Kind: EvJoin, Worker: 2})
	// Dispatch drains pending (the reissued item) before fresh work.
	reissued := acts[0].Item
	if reissued != orig || reissued.S != origSol {
		t.Fatal("ReuseOnResubmit did not reuse the wrapper and Solution")
	}
	if reissued.ID != 2 || reissued.ResubmitOf != 1 {
		t.Fatalf("reissued id=%d resubmitOf=%d, want 2/1", reissued.ID, reissued.ResubmitOf)
	}
	if reissued.Trace.Sampled() {
		t.Fatal("reissued item kept the old trace context")
	}
	if got := c.Stats().Resubmissions; got != 1 {
		t.Fatalf("resubmissions = %d, want 1", got)
	}
}

// TestGrantPathSteadyStateAllocs: the eager result→grant hot path must
// not allocate protocol structures once pools are warm (the algorithm's
// own Solution allocations are excluded by the inert stub).
func TestGrantPathSteadyStateAllocs(t *testing.T) {
	alg := &preallocAlg{}
	c := NewCore(Config{Budget: 1 << 30, Policy: EagerOffspring, Alg: alg})
	c.Handle(Event{Kind: EvJoin, Worker: 1})
	item := uint64(1)
	for i := 0; i < 64; i++ { // warm up pools and action slices
		c.Handle(Event{Kind: EvResult, Worker: 1, Item: item})
		item++
	}
	avg := testing.AllocsPerRun(200, func() {
		c.Handle(Event{Kind: EvResult, Worker: 1, Item: item})
		item++
	})
	if avg > 0 {
		t.Fatalf("result→grant path allocates %.2f objects/op, want 0", avg)
	}
}

// preallocAlg recycles one Solution so the allocation test isolates the
// protocol layer.
type preallocAlg struct {
	s core.Solution
}

func (a *preallocAlg) Suggest() *core.Solution            { return &a.s }
func (a *preallocAlg) Accept(*Item)                       {}
func (a *preallocAlg) AcceptSuggest(*Item) *core.Solution { return &a.s }
func (a *preallocAlg) StageAccept(*Item)                  {}
func (a *preallocAlg) ApplyStaged()                       {}
