package parallel

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"borgmoea/internal/advisor"
	"borgmoea/internal/core"
	"borgmoea/internal/fault"
	"borgmoea/internal/problems"
	"borgmoea/internal/stats"
	"borgmoea/internal/wire"
)

// distConfig is the acceptance scenario: 5-objective DTLZ2 to N
// evaluations.
func distConfig(n uint64) Config {
	return Config{
		Problem:     problems.NewDTLZ2(5),
		Algorithm:   core.Config{Epsilons: core.UniformEpsilons(5, 0.15)},
		Evaluations: n,
		Seed:        42,
	}
}

// fastConn keeps handshakes and failure detection snappy in tests.
var fastConn = wire.Options{Heartbeat: 50 * time.Millisecond, IdleTimeout: 10 * time.Second}

// startWorker launches one in-process borgd-equivalent worker and
// returns its error channel.
func startWorker(ctx context.Context, addr string, seed uint64, delay stats.Distribution) chan error {
	errc := make(chan error, 1)
	go func() {
		errc <- wire.RunWorker(ctx, wire.WorkerConfig{
			Addr:  addr,
			Seed:  seed,
			Delay: delay,
			Conn:  fastConn,
		})
	}()
	return errc
}

// TestDistributedLoopback: a master and three real-TCP workers run
// DTLZ2 (M=5) to N=2,000 evaluations and complete with a non-empty
// archive and no loss accounting.
func TestDistributedLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("network integration test skipped in -short mode")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 3; i++ {
		startWorker(ctx, l.Addr().String(), uint64(i+1), nil)
	}

	res, err := RunAsyncDistributed(distConfig(2000), DistributedConfig{
		Listener:     l,
		LeaseTimeout: 10 * time.Second,
		Conn:         fastConn,
		WallLimit:    2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Evaluations != 2000 {
		t.Fatalf("Completed=%v Evaluations=%d, want full budget", res.Completed, res.Evaluations)
	}
	if res.Final.Archive().Size() == 0 {
		t.Fatal("distributed run produced an empty archive")
	}
	if res.Processors < 4 {
		t.Fatalf("Processors=%d, want 1 master + >=3 workers observed", res.Processors)
	}
	if res.Resubmissions != 0 || res.DuplicateResults != 0 {
		t.Fatalf("healthy run recorded resubmissions=%d duplicates=%d", res.Resubmissions, res.DuplicateResults)
	}
	if res.ElapsedTime <= 0 || res.MasterBusy <= 0 {
		t.Fatalf("timing accounting missing: elapsed=%v busy=%v", res.ElapsedTime, res.MasterBusy)
	}
}

// TestDistributedWorkerKillResubmits hard-kills one worker mid-
// evaluation: its in-flight lease must be resubmitted to the surviving
// workers and the run must still complete the full budget.
func TestDistributedWorkerKillResubmits(t *testing.T) {
	if testing.Short() {
		t.Skip("network integration test skipped in -short mode")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Two healthy fast workers…
	startWorker(ctx, l.Addr().String(), 1, nil)
	startWorker(ctx, l.Addr().String(), 2, nil)
	// …and a victim whose evaluations take far longer than the run, so
	// it is guaranteed to hold an unfinished lease when killed.
	victimCtx, killVictim := context.WithCancel(ctx)
	victimErr := startWorker(victimCtx, l.Addr().String(), 3, stats.NewConstant(30))
	kill := time.AfterFunc(500*time.Millisecond, killVictim)
	defer kill.Stop()

	res, err := RunAsyncDistributed(distConfig(2000), DistributedConfig{
		Listener:     l,
		LeaseTimeout: 10 * time.Second,
		Conn:         fastConn,
		WallLimit:    2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Evaluations != 2000 {
		t.Fatalf("Completed=%v Evaluations=%d, want full budget despite the kill", res.Completed, res.Evaluations)
	}
	if res.Resubmissions == 0 || res.LostEvaluations == 0 {
		t.Fatalf("killed worker's lease was never resubmitted: resubmissions=%d lost=%d",
			res.Resubmissions, res.LostEvaluations)
	}
	if res.Final.Archive().Size() == 0 {
		t.Fatal("run with a killed worker produced an empty archive")
	}
	if err := <-victimErr; err != context.Canceled {
		t.Fatalf("victim exited with %v, want context.Canceled", err)
	}
}

// TestDistributedLeaseExpiryRecovers: with a short lease timeout and a
// worker that never answers (but keeps its connection alive via
// heartbeats), the deadline queue alone must recover the work.
func TestDistributedLeaseExpiryRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("network integration test skipped in -short mode")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorker(ctx, l.Addr().String(), 1, nil)
	startWorker(ctx, l.Addr().String(), 2, nil)
	// The hung worker heartbeats (live TCP) but sleeps through the
	// whole run, so only lease expiry can reclaim its work.
	startWorker(ctx, l.Addr().String(), 3, stats.NewConstant(30))

	res, err := RunAsyncDistributed(distConfig(500), DistributedConfig{
		Listener:     l,
		LeaseTimeout: 300 * time.Millisecond,
		Conn:         fastConn,
		WallLimit:    2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("run did not complete: %d/%d", res.Evaluations, 500)
	}
	if res.Resubmissions == 0 {
		t.Fatal("expired lease was never resubmitted")
	}
}

// TestDistributedValidation mirrors the virtual drivers' error style.
func TestDistributedValidation(t *testing.T) {
	cfg := distConfig(100)
	cfg.Fault = &fault.Plan{Rules: []fault.Rule{{Ranks: []int{1}, Model: fault.CrashStop{At: stats.NewConstant(1)}}}}
	_, err := RunAsyncDistributed(cfg, DistributedConfig{Listen: "127.0.0.1:0"})
	if err == nil || !strings.Contains(err.Error(), "virtual-time driver") {
		t.Fatalf("fault plan accepted by distributed driver: %v", err)
	}

	cfg = distConfig(100)
	cfg.Problem = nil
	if _, err := RunAsyncDistributed(cfg, DistributedConfig{Listen: "127.0.0.1:0"}); err == nil {
		t.Error("nil problem accepted")
	}

	cfg = distConfig(0)
	if _, err := RunAsyncDistributed(cfg, DistributedConfig{Listen: "127.0.0.1:0"}); err == nil {
		t.Error("zero evaluations accepted")
	}

	if _, err := RunAsyncDistributed(distConfig(100), DistributedConfig{}); err == nil {
		t.Error("missing listen address accepted")
	}
}

// recvEvaluate reads the next frame on c, failing unless it is a grant.
func recvEvaluate(t *testing.T, c *wire.Conn) *wire.Evaluate {
	t.Helper()
	m, err := c.Recv()
	ev, ok := m.(*wire.Evaluate)
	if err != nil || !ok {
		t.Fatalf("received %v, %v; want an Evaluate", m, err)
	}
	return ev
}

// serveRaw answers grants on c, starting with first, until the master
// sends Stop (nil) or the connection fails (the error).
func serveRaw(c *wire.Conn, p problems.Problem, first *wire.Evaluate) error {
	for ev := first; ; {
		objs := make([]float64, p.NumObjs())
		p.Evaluate(ev.Vars, objs)
		if err := c.Send(&wire.Result{Lease: ev.Lease, SolID: ev.SolID, Operator: ev.Operator, Objs: objs, Trace: ev.Trace}); err != nil {
			return err
		}
		m, err := c.Recv()
		if err != nil {
			return err
		}
		switch m := m.(type) {
		case wire.Stop:
			return nil
		case *wire.Evaluate:
			ev = m
		}
	}
}

// TestDistributedFreshWorkerIDAboveRedialed: a worker redialing with
// the id 1 it held before a master restart, then a fresh worker. The
// fresh one must get an id above 1 — not 1 again, which would evict
// the live redialed session as a "reconnect" — and both must serve
// until the master's Stop.
func TestDistributedFreshWorkerIDAboveRedialed(t *testing.T) {
	if testing.Short() {
		t.Skip("network integration test skipped in -short mode")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := distConfig(200)
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := RunAsyncDistributed(cfg, DistributedConfig{Listener: l, Conn: fastConn, WallLimit: 30 * time.Second})
		done <- outcome{res, err}
	}()

	addr := l.Addr().String()
	redialed, w1, err := wire.Dial(addr, wire.Hello{WorkerID: 1}, fastConn)
	if err != nil {
		t.Fatal(err)
	}
	defer redialed.Close()
	// A grant proves the master's loop has admitted the session.
	ev1 := recvEvaluate(t, redialed)
	fresh, w2, err := wire.Dial(addr, wire.Hello{}, fastConn)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if w1.WorkerID != 1 || w2.WorkerID <= 1 {
		t.Fatalf("ids: redialed %d (want 1), fresh %d (want > 1)", w1.WorkerID, w2.WorkerID)
	}
	ev2 := recvEvaluate(t, fresh)

	errs := make(chan error, 2)
	go func() { errs <- serveRaw(redialed, cfg.Problem, ev1) }()
	go func() { errs <- serveRaw(fresh, cfg.Problem, ev2) }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("a worker lost its session instead of being stopped: %v", err)
		}
	}
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !out.res.Completed {
		t.Fatalf("run incomplete: %d/%d", out.res.Evaluations, cfg.Evaluations)
	}
}

// TestDistributedAdvisorMeasuresTC: with an advisor but no trace
// collector, and a heartbeat longer than the run (so no RTT stands in),
// the advisor's T_C comes from the measured grant send times.
func TestDistributedAdvisorMeasuresTC(t *testing.T) {
	if testing.Short() {
		t.Skip("network integration test skipped in -short mode")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	slow := wire.Options{Heartbeat: time.Minute}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for w := 0; w < 2; w++ {
		go wire.RunWorker(ctx, wire.WorkerConfig{Addr: l.Addr().String(), Seed: uint64(w + 1), Conn: slow}) //nolint:errcheck
	}
	adv := advisor.New(advisor.Config{})
	cfg := distConfig(300)
	cfg.Advisor = adv
	res, err := RunAsyncDistributed(cfg, DistributedConfig{Listener: l, Conn: slow, WallLimit: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("run incomplete: %d/%d", res.Evaluations, cfg.Evaluations)
	}
	r := adv.Report()
	if r.RTTMean != 0 {
		t.Fatalf("heartbeat RTT observed (%v); the run outlasted the heartbeat", r.RTTMean)
	}
	if r.Times.TC <= 0 {
		t.Fatalf("advisor T_C = %v, want the measured send time (> 0)", r.Times.TC)
	}
}

// BenchmarkDistributedLoopback measures whole RunAsyncDistributed runs
// over loopback TCP with two in-process workers and T_F = 0, so ns/op
// is the budget times the master's per-evaluation cost 2·T_C+T_A. CI
// tracks it head-vs-base next to BenchmarkFederationLoopback
// (bench-federation in ci.yml).
func BenchmarkDistributedLoopback(b *testing.B) {
	const evals = 5000
	for i := 0; i < b.N; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		workers := []chan error{
			startWorker(ctx, l.Addr().String(), 1, nil),
			startWorker(ctx, l.Addr().String(), 2, nil),
		}
		res, err := RunAsyncDistributed(distConfig(evals), DistributedConfig{Listener: l, Conn: fastConn, WallLimit: time.Minute})
		cancel()
		for _, w := range workers {
			<-w
		}
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed {
			b.Fatalf("run incomplete: %d/%d", res.Evaluations, evals)
		}
	}
	b.ReportMetric(evals*float64(b.N)/b.Elapsed().Seconds(), "evals/s")
}
