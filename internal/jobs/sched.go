package jobs

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"borgmoea/internal/advisor"
	"borgmoea/internal/core"
	"borgmoea/internal/master"
	"borgmoea/internal/metrics"
	"borgmoea/internal/obs"
	"borgmoea/internal/problems"
	"borgmoea/internal/wire"
)

// Scheduler metric names, registered on Config.Metrics.
const (
	MetricSubmitted    = "jobs.submitted_total"
	MetricRejected     = "jobs.rejected_total"
	MetricCompleted    = "jobs.completed_total"
	MetricCancelled    = "jobs.cancelled_total"
	MetricFailed       = "jobs.failed_total"
	MetricEvals        = "jobs.evals_total"
	MetricEvalFailures = "jobs.eval_failures_total"
	MetricActive       = "jobs.active"
	MetricQueued       = "jobs.queued"
	MetricWorkers      = "jobs.workers"
	MetricEvalSeconds  = "jobs.eval_seconds"
	MetricFirstResult  = "jobs.first_result_seconds"
)

// API errors, mapped to HTTP statuses by the handlers in server.go.
var (
	// ErrOverloaded: the queued-job backlog is at Config.MaxQueue
	// (HTTP 429) — the service's backpressure signal.
	ErrOverloaded = errors.New("jobs: queue full")
	// ErrDraining: the scheduler is shutting down (HTTP 503).
	ErrDraining = errors.New("jobs: draining")
	// ErrNotFound: no such job id (HTTP 404).
	ErrNotFound = errors.New("jobs: no such job")
	// ErrClosed: the scheduler has stopped.
	ErrClosed = errors.New("jobs: scheduler closed")
)

// Config parameterizes a Scheduler.
type Config struct {
	// FleetListen is the address borgd workers dial ("":0" picks a
	// port); FleetListener overrides it with a bound listener.
	FleetListen   string
	FleetListener net.Listener
	// Conn tunes the fleet connections (heartbeats, timeouts, wire
	// metrics).
	Conn wire.Options
	// LeaseTimeout bounds one evaluation lease (default 30s).
	LeaseTimeout time.Duration
	// MaxQueue bounds jobs accepted but not yet running; Submit past
	// it returns ErrOverloaded (default 1024).
	MaxQueue int
	// MaxActive bounds simultaneously running jobs (0 = unlimited).
	// Beyond it, submissions queue.
	MaxActive int
	// StateDir, when set, persists every job — spec at submission, a
	// streamed BMEL event log while running, archive snapshots every
	// CheckpointEvery accepts — and resumes whatever it finds there on
	// startup. Empty disables persistence.
	StateDir string
	// CheckpointEvery is the archive-snapshot cadence in accepted
	// evaluations (default 64).
	CheckpointEvery uint64
	// Metrics receives the scheduler's counters and gauges.
	Metrics *obs.Registry
	// TraceRate, when positive, gives every job its own distributed-
	// trace collector sampling evaluations at this rate (1 = every
	// evaluation; see internal/obs). Advisor-flagged stragglers are
	// always traced. Collectors are reachable via Traces.
	TraceRate float64
	// Logf, when set, receives lifecycle messages.
	Logf func(format string, args ...any)
}

func (c *Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// strideOne is the stride-scheduling numerator: a job's stride is
// strideOne / priority, so a priority-p job accumulates pass p times
// slower and receives p times the grants of a priority-1 job.
const strideOne = 1 << 20

// job is the scheduler's per-run state. All fields are owned by the
// event loop.
type job struct {
	id      string
	spec    *Spec
	problem problems.Problem
	algCfg  core.Config

	state  State
	errMsg string

	borg    *core.Borg
	mcore   *master.Core
	log     *master.Log
	adv     *advisor.Advisor
	trace   *obs.Collector      // nil unless Config.TraceRate > 0
	tm      *master.Timings     // T_F, T_A and T_C into hEval, adv and trace
	quality *obs.QualitySampler // nil unless Spec.QualityEvery > 0
	ck      *ckpt               // nil without StateDir

	// stride scheduling: next pass value and per-grant increment.
	pass, stride uint64

	// workers currently assigned to this job's core; failed holds
	// fleet workers that could not evaluate this problem (missing
	// locally, dimension drift) and must not be offered it again.
	workers map[uint64]struct{}
	failed  map[uint64]struct{}

	submittedWall time.Time
	submitted     float64 // scheduler-clock seconds
	firstResult   float64
	finished      float64

	replaying bool          // suppress checkpoint writes while replaying
	restored  *restoredMeta // terminal outcome restored from StateDir
}

// wantWork reports whether the job's core would grant an evaluation to
// a newly offered worker: it has resubmitted work pending, or head
// room under the budget for a fresh offspring chain.
func (j *job) wantWork() bool {
	if j.state != StateRunning || j.mcore == nil || j.mcore.Done() {
		return false
	}
	c := j.mcore
	return c.PendingLen() > 0 ||
		c.Completed()+uint64(c.Outstanding())+uint64(c.PendingLen()) < j.spec.Evaluations
}

// grantRef routes one outstanding wire lease back to the job and core
// lease it was granted for.
type grantRef struct {
	job  *job
	item uint64
}

// fleetWorker is the scheduler's bookkeeping for one live borgd
// session, keyed by worker id (the session itself lives in the pool).
// A worker evaluates serially, but probe grants to a suspect worker
// can pipeline, so outstanding wire leases are a small map, not a
// single slot.
type fleetWorker struct {
	job    *job // current assignment (nil = unassigned)
	leases map[uint64]grantRef
}

// Scheduler owns the shared borgd fleet and multiplexes every
// submitted job over it: one ScheduledOffspring master.Core per active
// job, stride-scheduled fair sharing at per-evaluation granularity,
// and per-job checkpoint streams. All scheduling state lives in one
// event-loop goroutine — the public methods send it closures.
type Scheduler struct {
	cfg      Config
	ln       net.Listener
	pool     *wire.Pool
	leaseSec float64

	cmds   chan func()
	quit   chan struct{}
	done   chan struct{}
	stopIt sync.Once

	draining atomic.Bool

	// metrics
	mSubmitted, mRejected, mCompleted, mCancelled, mFailed *obs.Counter
	mEvals, mEvalFailures                                  *obs.Counter
	gActive, gQueued, gWorkers                             *obs.Gauge
	hEval, hFirstResult                                    *obs.Histogram

	// --- event-loop state below ---
	jobs          map[string]*job
	order         []string // submission order
	queue         []*job
	active        int
	fleet         map[uint64]*fleetWorker // live workers by id
	nextWireLease uint64
	nextJob       uint64
	start         time.Time
	clockOff      float64
}

// New binds the fleet listener, resumes any jobs persisted in
// Config.StateDir, and starts the scheduler.
func New(cfg Config) (*Scheduler, error) {
	ln := cfg.FleetListener
	if ln == nil {
		if cfg.FleetListen == "" {
			return nil, errors.New("jobs: scheduler needs a fleet listen address or listener")
		}
		var err error
		ln, err = net.Listen("tcp", cfg.FleetListen)
		if err != nil {
			return nil, fmt.Errorf("jobs: fleet listen: %w", err)
		}
	}
	if cfg.LeaseTimeout == 0 {
		cfg.LeaseTimeout = 30 * time.Second
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 1024
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 64
	}
	reg := cfg.Metrics
	s := &Scheduler{
		cfg:      cfg,
		ln:       ln,
		leaseSec: cfg.LeaseTimeout.Seconds(),
		// One multi-problem session per borgd: each grant names its own
		// problem, so one fleet serves every job.
		pool: wire.NewPool(wire.Welcome{Problem: wire.MultiProblem}, cfg.Conn),
		cmds: make(chan func()),
		quit: make(chan struct{}),
		done: make(chan struct{}),

		mSubmitted:    reg.Counter(MetricSubmitted),
		mRejected:     reg.Counter(MetricRejected),
		mCompleted:    reg.Counter(MetricCompleted),
		mCancelled:    reg.Counter(MetricCancelled),
		mFailed:       reg.Counter(MetricFailed),
		mEvals:        reg.Counter(MetricEvals),
		mEvalFailures: reg.Counter(MetricEvalFailures),
		gActive:       reg.Gauge(MetricActive),
		gQueued:       reg.Gauge(MetricQueued),
		gWorkers:      reg.Gauge(MetricWorkers),
		hEval:         reg.Histogram(MetricEvalSeconds, nil),
		hFirstResult:  reg.Histogram(MetricFirstResult, nil),

		jobs:  make(map[string]*job),
		fleet: make(map[uint64]*fleetWorker),
		start: time.Now(),
	}
	// Resume before accepting, so fresh worker ids already clear every
	// id in the restored logs.
	if cfg.StateDir != "" {
		if err := s.resume(); err != nil {
			ln.Close()
			return nil, err
		}
	}
	s.pool.Start(ln)
	go s.loop()
	return s, nil
}

// FleetAddr returns the bound fleet listener address (useful with
// ":0").
func (s *Scheduler) FleetAddr() string { return s.ln.Addr().String() }

// Ready is the /readyz check: an error while draining or stopped.
func (s *Scheduler) Ready() error {
	if s.draining.Load() {
		return ErrDraining
	}
	return nil
}

// now returns seconds on the scheduler clock. The clock survives
// restarts: resume() advances the origin past the last persisted event
// so appended log timestamps stay monotone.
func (s *Scheduler) now() float64 {
	return time.Since(s.start).Seconds() + s.clockOff
}

// Close stops the scheduler: the fleet listener closes, every running
// job takes a final checkpoint, and all worker connections drop
// without a Stop — the fleet outlives any one server, so workers back
// off and redial until a new scheduler binds the port. Queued and
// running jobs resume from StateDir on the next New.
func (s *Scheduler) Close() error {
	s.draining.Store(true)
	s.do(func() { s.shutdown() }) //nolint:errcheck // best effort once closed
	s.stopIt.Do(func() { close(s.quit) })
	<-s.done
	s.pool.Close()
	return nil
}

// do runs fn on the event loop and waits for it.
func (s *Scheduler) do(fn func()) error {
	ran := make(chan struct{})
	select {
	case s.cmds <- func() { fn(); close(ran) }:
	case <-s.done:
		return ErrClosed
	}
	select {
	case <-ran:
		return nil
	case <-s.done:
		return ErrClosed
	}
}

// --- event loop -----------------------------------------------------

func (s *Scheduler) loop() {
	defer close(s.done)
	tickC, stopTick := wire.LeaseTicker(s.cfg.LeaseTimeout)
	defer stopTick()
	for {
		select {
		case e := <-s.pool.Events():
			s.onFleet(e)
		case fn := <-s.cmds:
			fn()
		case <-tickC:
			s.onTick()
		case <-s.quit:
			return
		}
		s.updateGauges()
	}
}

func (s *Scheduler) updateGauges() {
	s.gActive.Set(float64(s.active))
	s.gQueued.Set(float64(len(s.queue)))
	s.gWorkers.Set(float64(s.pool.Live()))
}

func (s *Scheduler) onFleet(e wire.PoolEvent) {
	id := e.Session.ID
	switch e.Kind {
	case wire.PoolJoin:
		if s.pool.Admit(e.Session) != nil {
			// The fleet replaced this identity (borgd redial after a
			// half-dead link); retire the old session first.
			s.retire(id)
		}
		s.fleet[id] = &fleetWorker{leases: make(map[uint64]grantRef)}
		s.cfg.logf("jobs: worker %d joined (%d live)", id, s.pool.Live())
		s.assign(id)
	case wire.PoolDead:
		if s.pool.Drop(e.Session) {
			s.cfg.logf("jobs: worker %d lost: %v", id, e.Err)
			s.retire(id)
		}
	case wire.PoolMsg:
		if msg, ok := e.Msg.(*wire.Result); ok && !e.Session.Gone() {
			s.onResult(id, msg)
		}
	}
}

// retire forgets a dead worker: every job holding one of its leases
// sees EvGone (resubmitting the work), as does its current assignment.
func (s *Scheduler) retire(id uint64) {
	w := s.fleet[id]
	if w == nil {
		return
	}
	delete(s.fleet, id)
	goneIn := make(map[*job]struct{})
	if w.job != nil {
		goneIn[w.job] = struct{}{}
	}
	for _, ref := range w.leases {
		goneIn[ref.job] = struct{}{}
	}
	for j := range goneIn {
		s.detach(id, j, master.EvGone)
	}
}

// detach withdraws worker id from j with the given event: EvGone
// declares it dead (j's core resubmits any live lease it held there),
// EvLeave withdraws a parked worker the scheduler lends to another
// job.
func (s *Scheduler) detach(id uint64, j *job, kind master.EventKind) {
	if _, ok := j.workers[id]; ok {
		delete(j.workers, id)
		j.adv.SetLive(len(j.workers))
	}
	if j.state == StateRunning && !j.mcore.Done() {
		s.exec(j, j.mcore.Handle(master.Event{Kind: kind, Worker: int(id), At: s.now()}))
	}
}

func (s *Scheduler) onResult(id uint64, msg *wire.Result) {
	w := s.fleet[id]
	ref, ok := w.leases[msg.Lease]
	if !ok {
		return // lease of a job that was cancelled mid-flight, or noise
	}
	delete(w.leases, msg.Lease)
	j := ref.job
	if j.state != StateRunning || j.mcore.Done() {
		// The job ended while this evaluation was in flight; the
		// result has nowhere to go.
		s.assign(id)
		return
	}
	if len(msg.Objs) != j.problem.NumObjs() {
		// The worker could not evaluate this problem (not in its
		// registry, dimension drift): an empty Result fails the lease,
		// not the session. Resubmit the work and never offer this
		// worker the job again.
		j.failed[id] = struct{}{}
		s.mEvalFailures.Inc()
		s.cfg.logf("jobs: worker %d cannot evaluate %s for %s", id, j.problem.Name(), j.id)
		s.detach(id, j, master.EvGone)
		if w.job == j {
			w.job = nil
		}
		s.assign(id)
		return
	}
	if worker, item, live := j.mcore.Lease(ref.item); live && worker == int(id) {
		item.S.Objs = msg.Objs
		item.S.Constrs = msg.Constrs
		j.tm.TF(item, int(id), float64(msg.EvalNanos)/1e9)
	}
	s.exec(j, j.mcore.Handle(master.Event{Kind: master.EvResult, Worker: int(id), Item: ref.item, At: s.now()}))
	// Quality cadence: the trigger detours through the job's core so
	// the sample point lands in its BMEL log (a restored job replays
	// its quality timeline too).
	if q := j.quality; q != nil && j.state == StateRunning && !j.mcore.Done() && q.Due(j.mcore.Completed(), s.now()) {
		s.exec(j, j.mcore.Handle(master.Event{Kind: master.EvQuality, Item: q.NextSeq(), At: s.now()}))
	}
	s.assign(id)
}

func (s *Scheduler) onTick() {
	now := s.now()
	for _, id := range s.order {
		j := s.jobs[id]
		if j.state == StateRunning && !j.mcore.Done() {
			s.exec(j, j.mcore.Handle(master.Event{Kind: master.EvTick, At: now}))
		}
	}
	// Re-offer every idle worker: lease expiries and newly started
	// jobs create demand between result boundaries.
	s.sweepAssign()
}

func (s *Scheduler) sweepAssign() {
	ids := make([]uint64, 0, len(s.fleet))
	for id := range s.fleet {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		s.assign(id)
	}
}

// assign offers an idle live worker to the runnable job with the lowest
// stride pass — the fair-share decision point. Ties break by job id,
// so equal-priority jobs round-robin deterministically. The chosen
// job's core hears EvReady (worker already its) or EvJoin (worker
// migrates, with a graceful EvLeave to its previous job); both are
// ordinary events in the job's BMEL log, so replay reproduces every
// fair-share decision.
func (s *Scheduler) assign(id uint64) {
	w := s.fleet[id]
	if w == nil || len(w.leases) > 0 {
		return
	}
	var best *job
	for _, jid := range s.order {
		j := s.jobs[jid]
		if !j.wantWork() {
			continue
		}
		if _, bad := j.failed[id]; bad {
			continue
		}
		if best == nil || j.pass < best.pass {
			best = j
		}
	}
	if best == nil {
		return // nothing runnable wants work; stay parked where we are
	}
	best.pass += best.stride
	if w.job == best {
		s.exec(best, best.mcore.Handle(master.Event{Kind: master.EvReady, Worker: int(id), At: s.now()}))
		return
	}
	if w.job != nil {
		s.detach(id, w.job, master.EvLeave)
	}
	w.job = best
	best.workers[id] = struct{}{}
	best.adv.SetLive(len(best.workers))
	s.exec(best, best.mcore.Handle(master.Event{Kind: master.EvJoin, Worker: int(id), At: s.now()}))
}

// exec carries out a core's actions on the fleet. Grants become wire
// Evaluates under a fresh globally unique wire lease (core lease ids
// are per-job and collide across cores); ActStop releases the worker
// back to the pool — the fleet is shared, so a completed job never
// stops a worker process.
func (s *Scheduler) exec(j *job, acts []master.Action) {
	// Copy: releasing a worker (ActStop → assign) can re-enter this
	// core's Handle, which recycles its action buffer.
	acts = append([]master.Action(nil), acts...)
	for _, a := range acts {
		switch a.Kind {
		case master.ActGrant:
			id := uint64(a.Worker)
			w := s.fleet[id]
			if w == nil || w.job != j {
				continue // stale grant to a worker the fleet lost
			}
			s.nextWireLease++
			ev := wire.EvaluateItem(a.Item)
			ev.Lease = s.nextWireLease
			ev.Problem = j.problem.Name()
			w.leases[ev.Lease] = grantRef{job: j, item: a.Item.ID}
			// A failed send surfaces later as the session's PoolDead,
			// which retires the worker and resubmits this lease.
			if tc, err := s.pool.Grant(id, ev); err == nil {
				j.tm.TCSend(a.Item, tc)
			}
		case master.ActComplete:
			s.finishJob(j)
		case master.ActStop:
			// Release, don't stop: the worker belongs to the fleet.
			if w := s.fleet[uint64(a.Worker)]; w != nil && w.job == j {
				s.assign(uint64(a.Worker))
			}
		}
	}
}

// --- job lifecycle --------------------------------------------------

func (s *Scheduler) submit(spec *Spec) (Status, error) {
	if s.draining.Load() {
		s.mRejected.Inc()
		return Status{}, ErrDraining
	}
	problem, algCfg, err := spec.Normalize()
	if err != nil {
		s.mRejected.Inc()
		return Status{}, err
	}
	if len(s.queue) >= s.cfg.MaxQueue {
		s.mRejected.Inc()
		return Status{}, ErrOverloaded
	}
	s.nextJob++
	j := &job{
		id:            fmt.Sprintf("j%06d", s.nextJob),
		spec:          spec,
		problem:       problem,
		algCfg:        algCfg,
		state:         StateQueued,
		stride:        strideOne / uint64(spec.Priority),
		workers:       make(map[uint64]struct{}),
		failed:        make(map[uint64]struct{}),
		submittedWall: time.Now(),
		submitted:     s.now(),
	}
	if s.cfg.StateDir != "" {
		ck, err := newCkpt(s.cfg.StateDir, j.id)
		if err != nil {
			s.mRejected.Inc()
			return Status{}, err
		}
		j.ck = ck
		if err := ck.writeSpec(spec, j.submittedWall, j.submitted); err != nil {
			s.mRejected.Inc()
			return Status{}, err
		}
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.queue = append(s.queue, j)
	s.mSubmitted.Inc()
	s.cfg.logf("jobs: %s submitted: %s budget %d priority %d", j.id, problem.Name(), spec.Evaluations, spec.Priority)
	s.maybeStart()
	return s.status(j), nil
}

// maybeStart promotes queued jobs into running ones while active-job
// slots are free.
func (s *Scheduler) maybeStart() {
	for len(s.queue) > 0 && (s.cfg.MaxActive <= 0 || s.active < s.cfg.MaxActive) {
		j := s.queue[0]
		s.queue = s.queue[1:]
		if j.state != StateQueued {
			continue // cancelled while queued
		}
		s.startJob(j)
	}
}

// startJob builds the job's Borg instance, core and checkpoint stream,
// then pulls in any idle fleet workers.
func (s *Scheduler) startJob(j *job) {
	b, err := core.New(j.problem, j.algCfg)
	if err != nil {
		s.failJob(j, fmt.Sprintf("constructing algorithm: %v", err))
		return
	}
	j.borg = b
	advCfg := advisor.Config{}
	if s.cfg.TraceRate > 0 {
		j.trace = obs.NewCollector(obs.CollectorConfig{
			RunID: traceRunID(j.id),
			Rate:  s.cfg.TraceRate,
		})
		advCfg.OnStraggler = j.trace.ForceWorker
	}
	j.adv = advisor.New(advCfg)
	j.adv.Configure(0, j.spec.Evaluations)
	j.log = master.NewLog()
	mcfg := master.Config{
		Budget:       j.spec.Evaluations,
		LeaseTimeout: s.leaseSec,
		Policy:       master.ScheduledOffspring,
		// Fleet workers hold deep copies of granted work (wire frames
		// encode the solution), so an expired lease's wrapper and
		// Solution can be reissued in place instead of cloned.
		ReuseOnResubmit: true,
		Log:             j.log,
		OnAccept:        s.onAcceptHook(j),
		OnAcceptFrom:    s.onAcceptFromHook(j),
	}
	// The measured serial critical section (the paper's T_A) feeds the
	// job's advisor and trace.
	j.tm = s.jobTimings(j)
	master.NewMetered(b, master.MeterConfig{Timings: j.tm, Quality: newJobQuality(j)}).Install(&mcfg)
	j.mcore = master.NewCore(mcfg)
	if j.ck != nil {
		if err := j.ck.openLog(j.log); err != nil {
			s.failJob(j, fmt.Sprintf("opening checkpoint log: %v", err))
			return
		}
	}
	j.state = StateRunning
	s.active++
	// Floor the new job's pass at the runnable minimum so it neither
	// monopolizes the fleet (pass 0 would win every assignment until
	// it caught up) nor waits behind long-running jobs' accumulated
	// passes.
	var minPass uint64
	found := false
	for _, id := range s.order {
		o := s.jobs[id]
		if o != j && o.wantWork() && (!found || o.pass < minPass) {
			minPass, found = o.pass, true
		}
	}
	if found && j.pass < minPass {
		j.pass = minPass
	}
	s.cfg.logf("jobs: %s running", j.id)
	s.sweepAssign()
}

// jobTimings is the job's sink for every model term: T_F lands in the
// scheduler-wide eval histogram, every term in the job's advisor and
// trace.
func (s *Scheduler) jobTimings(j *job) *master.Timings {
	return &master.Timings{Meters: master.Meters{TF: s.hEval}, Advisor: j.adv, Trace: j.trace}
}

// newJobQuality builds the job's quality sampler when the spec opted
// in (Spec.QualityEvery > 0), wiring its samples into the job's stall
// detector. Returns nil — everywhere nil-safe — otherwise.
func newJobQuality(j *job) *obs.QualitySampler {
	if j.spec.QualityEvery == 0 {
		return nil
	}
	j.quality = obs.NewQualitySampler(obs.QualityConfig{
		Every:    j.spec.QualityEvery,
		Ref:      metrics.RefPointFor(j.problem.Name(), j.problem.NumObjs()),
		OnSample: j.adv.ObserveQuality,
	})
	return j.quality
}

// onAcceptHook checkpoints the archive every CheckpointEvery accepts.
func (s *Scheduler) onAcceptHook(j *job) func(uint64) {
	return func(completed uint64) {
		if j.replaying {
			return
		}
		s.mEvals.Inc()
		if j.ck != nil && completed%s.cfg.CheckpointEvery == 0 {
			if err := j.ck.saveArchive(j.borg.Archive()); err != nil {
				s.cfg.logf("jobs: %s archive checkpoint: %v", j.id, err)
			}
		}
	}
}

// onAcceptFromHook records first-result latency on the scheduler
// clock. It fires during replay too — `at` is the recorded timestamp —
// so a resumed job keeps its original latency figures.
func (s *Scheduler) onAcceptFromHook(j *job) func(int, uint64, float64) {
	return func(worker int, completed uint64, at float64) {
		if completed == 1 {
			j.firstResult = at
			if !j.replaying {
				s.hFirstResult.Observe(at - j.submitted)
			}
		}
		j.adv.ObserveAccept(worker, completed, at)
	}
}

func (s *Scheduler) finishJob(j *job) {
	j.state = StateDone
	j.finished = s.now()
	s.active--
	s.mCompleted.Inc()
	s.cfg.logf("jobs: %s done: %d evaluations, archive %d", j.id, j.mcore.Completed(), j.borg.Archive().Size())
	if j.ck != nil {
		if err := j.ck.saveArchive(j.borg.Archive()); err != nil {
			s.cfg.logf("jobs: %s final archive: %v", j.id, err)
		}
		if err := j.ck.finalize(j, s.now()); err != nil {
			s.cfg.logf("jobs: %s finalize: %v", j.id, err)
		}
	}
	s.maybeStart()
}

func (s *Scheduler) failJob(j *job, msg string) {
	if j.state == StateRunning {
		s.active--
	}
	j.state = StateFailed
	j.errMsg = msg
	j.finished = s.now()
	s.mFailed.Inc()
	s.cfg.logf("jobs: %s failed: %s", j.id, msg)
	if j.ck != nil {
		if err := j.ck.finalize(j, s.now()); err != nil {
			s.cfg.logf("jobs: %s finalize: %v", j.id, err)
		}
	}
	s.maybeStart()
}

func (s *Scheduler) cancel(id string) error {
	j, ok := s.jobs[id]
	if !ok {
		return ErrNotFound
	}
	if j.state.Terminal() {
		return nil // idempotent
	}
	if j.state == StateQueued {
		// Free the backlog slot so MaxQueue backpressure reflects jobs
		// that can still run.
		for i, q := range s.queue {
			if q == j {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
	}
	wasRunning := j.state == StateRunning
	j.state = StateCancelled
	j.finished = s.now()
	s.mCancelled.Inc()
	if wasRunning {
		s.active--
		// Workers park or return in-flight results that now route to a
		// cancelled job; either way they get reassigned. Clear the
		// assignment now so idle ones move immediately.
		for wid := range j.workers {
			if w := s.fleet[wid]; w != nil && w.job == j {
				w.job = nil
			}
		}
		j.workers = make(map[uint64]struct{})
	}
	if j.ck != nil {
		if j.borg != nil {
			if err := j.ck.saveArchive(j.borg.Archive()); err != nil {
				s.cfg.logf("jobs: %s cancel archive: %v", j.id, err)
			}
		}
		if err := j.ck.finalize(j, s.now()); err != nil {
			s.cfg.logf("jobs: %s finalize: %v", j.id, err)
		}
	}
	s.cfg.logf("jobs: %s cancelled", j.id)
	s.maybeStart()
	s.sweepAssign()
	return nil
}

// shutdown runs on the event loop during Close: final checkpoints.
// Close then drops every fleet connection (no Stop — workers redial
// the next scheduler).
func (s *Scheduler) shutdown() {
	for _, id := range s.order {
		j := s.jobs[id]
		if j.state == StateRunning && j.ck != nil {
			if err := j.ck.saveArchive(j.borg.Archive()); err != nil {
				s.cfg.logf("jobs: %s shutdown archive: %v", j.id, err)
			}
			j.ck.close()
		}
	}
}

// status builds a job's externally visible snapshot; loop-owned.
func (s *Scheduler) status(j *job) Status {
	st := Status{
		ID:                 j.id,
		State:              j.state,
		Problem:            j.problem.Name(),
		Priority:           j.spec.Priority,
		Budget:             j.spec.Evaluations,
		SubmittedAt:        j.submittedWall.Format(time.RFC3339Nano),
		SubmittedSeconds:   j.submitted,
		FirstResultSeconds: j.firstResult,
		FinishedSeconds:    j.finished,
		Error:              j.errMsg,
		Workers:            len(j.workers),
	}
	if j.mcore != nil {
		stats := j.mcore.Stats()
		st.Evaluations = stats.Completed
		st.Outstanding = j.mcore.Outstanding()
		st.Pending = j.mcore.PendingLen()
		st.Resubmissions = stats.Resubmissions
		st.Duplicates = stats.Duplicates
		st.Leaves = stats.Leaves
		st.Deaths = stats.Deaths
	}
	if j.borg != nil {
		st.ArchiveSize = j.borg.Archive().Size()
	} else if j.restored != nil {
		st.Evaluations = j.restored.Evaluations
		st.ArchiveSize = j.restored.ArchiveSize
	}
	if j.quality != nil {
		if latest, ok := j.quality.Latest(); ok {
			st.Quality = &latest
		}
	}
	return st
}

// --- public API (each call crosses into the event loop) -------------

// Submit validates and enqueues a job, returning its initial status.
func (s *Scheduler) Submit(spec *Spec) (Status, error) {
	var st Status
	var err error
	if derr := s.do(func() { st, err = s.submit(spec) }); derr != nil {
		return Status{}, derr
	}
	return st, err
}

// Get returns one job's status, including its advisor report.
func (s *Scheduler) Get(id string) (Status, error) {
	var st Status
	var adv *advisor.Advisor
	err := ErrNotFound
	if derr := s.do(func() {
		if j, ok := s.jobs[id]; ok {
			st, adv, err = s.status(j), j.adv, nil
		}
	}); derr != nil {
		return Status{}, derr
	}
	if err != nil {
		return Status{}, err
	}
	if adv != nil {
		// Report takes the advisor's own lock; do it off the loop.
		r := adv.Report()
		st.Advisor = &r
	}
	return st, nil
}

// List returns every job's status in submission order.
func (s *Scheduler) List() ([]Status, error) {
	var out []Status
	if derr := s.do(func() {
		out = make([]Status, 0, len(s.order))
		for _, id := range s.order {
			out = append(out, s.status(s.jobs[id]))
		}
	}); derr != nil {
		return nil, derr
	}
	return out, nil
}

// Cancel stops a job. Cancelling a terminal job is a no-op; partial
// results stay fetchable.
func (s *Scheduler) Cancel(id string) error {
	var err error
	if derr := s.do(func() { err = s.cancel(id) }); derr != nil {
		return derr
	}
	return err
}

// Result returns a job's current ε-archive as the canonical archive
// JSON (core.SaveArchive format) — partial while the job runs, final
// once it is terminal. Jobs restored from a terminal marker serve
// their persisted snapshot.
func (s *Scheduler) Result(id string) ([]byte, error) {
	var out []byte
	var path string
	err := ErrNotFound
	if derr := s.do(func() {
		j, ok := s.jobs[id]
		if !ok {
			return
		}
		err = nil
		switch {
		case j.borg != nil:
			var buf bytes.Buffer
			err = core.SaveArchive(&buf, j.borg.Archive())
			out = buf.Bytes()
		case j.ck != nil:
			path = j.ck.path("archive.json")
		default:
			err = fmt.Errorf("jobs: %s has no results yet", id)
		}
	}); derr != nil {
		return nil, derr
	}
	if err != nil {
		return nil, err
	}
	if path != "" {
		data, rerr := os.ReadFile(path)
		if os.IsNotExist(rerr) {
			return nil, fmt.Errorf("jobs: %s has no results yet", id)
		}
		return data, rerr
	}
	return out, nil
}

// traceRunID derives a stable per-job trace run id from the job id
// (FNV-1a), so a job's trace ids are reproducible across restarts.
func traceRunID(id string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return h
}

// Traces returns the live trace collector of every job that has one
// (Config.TraceRate > 0), keyed by job id.
func (s *Scheduler) Traces() (map[string]*obs.Collector, error) {
	out := make(map[string]*obs.Collector)
	if derr := s.do(func() {
		for id, j := range s.jobs {
			if j.trace != nil {
				out[id] = j.trace
			}
		}
	}); derr != nil {
		return nil, derr
	}
	return out, nil
}

// Advisors returns the live advisor of every job, for the per-job
// /debug/scaling report.
func (s *Scheduler) Advisors() (map[string]*advisor.Advisor, error) {
	out := make(map[string]*advisor.Advisor)
	if derr := s.do(func() {
		for id, j := range s.jobs {
			if j.adv != nil {
				out[id] = j.adv
			}
		}
	}); derr != nil {
		return nil, derr
	}
	return out, nil
}
