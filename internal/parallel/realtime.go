package parallel

import (
	"fmt"
	"time"

	"borgmoea/internal/core"
	"borgmoea/internal/master"
	"borgmoea/internal/obs"
	"borgmoea/internal/rng"
)

// rtResult carries an evaluated item back to the master goroutine.
type rtResult struct {
	worker int
	item   *master.Item
}

// RunAsyncRealtime executes the asynchronous master-slave Borg MOEA
// with real goroutines, channels and wall-clock delays — the Go
// equivalent of the paper's MPI implementation, used to cross-validate
// the virtual-time driver against actual concurrent execution.
// Evaluation delays are slept for real; keep N·TF/(P−1) small.
//
// The master is a single goroutine running the same shared state
// machine (internal/master) as the virtual-time and TCP drivers,
// preserving the paper's property that the algorithm's critical
// section is serial; workers communicate over channels (the MPI
// substitution — see DESIGN.md §2). Each worker has its own task
// channel so a grant addresses exactly the worker the state machine
// chose.
func RunAsyncRealtime(cfg Config) (*Result, error) {
	// Cheap validation first: reject configurations this driver can
	// never run before normalize touches distributions and long before
	// core.New allocates a full algorithm state.
	if !cfg.Fault.Empty() {
		return nil, fmt.Errorf("parallel: fault injection requires a virtual-time driver (RunAsync/RunSync); RunAsyncRealtime has no simulated cluster to fail")
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	algCfg := cfg.Algorithm
	algCfg.Seed = cfg.Seed
	b, err := core.New(cfg.Problem, algCfg)
	if err != nil {
		return nil, err
	}

	workers := cfg.Processors - 1
	tasks := make([]chan *master.Item, workers)
	for i := range tasks {
		// Capacity 1: the eager protocol keeps at most one outstanding
		// item per worker, so a grant never blocks the master.
		tasks[i] = make(chan *master.Item, 1)
	}
	results := make(chan rtResult, workers)
	done := make(chan struct{})

	meters := master.NewMeters(cfg.Metrics)
	events := cfg.Events
	adv := cfg.Advisor
	adv.Configure(cfg.Processors, cfg.Evaluations)
	start := time.Now()
	since := func() float64 { return time.Since(start).Seconds() }

	streams := workerStreams(cfg.Seed, workers)
	for w := 0; w < workers; w++ {
		w := w
		wRng := streams[w]
		straggler := cfg.StragglerFraction > 0 &&
			float64(w) < cfg.StragglerFraction*float64(workers)
		actor := fmt.Sprintf("worker%d", w+1)
		in := tasks[w]
		go func() {
			for item := range in {
				t0 := since()
				core.EvaluateSolution(cfg.Problem, item.S)
				tf := cfg.TF.Sample(wRng)
				if straggler {
					tf *= cfg.StragglerFactor
				}
				time.Sleep(time.Duration(tf * float64(time.Second)))
				meters.TF.ObserveExemplar(tf, item.Trace.Exemplar())
				adv.ObserveTF(w+1, tf)
				cfg.Trace.ObserveTF(item.ID, tf)
				if events != nil {
					events.Record(obs.Event{TS: t0, Dur: since() - t0, Kind: "eval", Actor: actor})
				}
				select {
				case results <- rtResult{worker: w + 1, item: item}:
				case <-done:
					return
				}
			}
		}()
	}

	res := &Result{Processors: cfg.Processors, Final: b}
	// T_A is the measured wall time of each critical section, seeding
	// Suggests included (the DES rule); the journal gets one "algo"
	// span per section.
	mc := cfg.meterConfig(meters, nil, func(ta float64) {
		events.Record(obs.Event{TS: since() - ta, Dur: ta, Kind: "algo", Actor: "master"})
	})
	mc.TA = nil
	alg := master.NewMetered(b, mc)
	mcfg := master.Config{
		Budget:     cfg.Evaluations,
		Policy:     master.EagerOffspring,
		DeferApply: cfg.DeferArchive,
		Meters:     meters,
		Log:        cfg.Protocol,
		OnAccept:   cfg.checkpointHook(meters, since, b),
	}
	alg.Install(&mcfg)
	m := master.NewCore(mcfg)
	exec := func(acts []master.Action) {
		for _, a := range acts {
			switch a.Kind {
			case master.ActGrant:
				tasks[a.Worker-1] <- a.Item
			case master.ActStop:
				close(tasks[a.Worker-1])
			case master.ActComplete:
				res.ElapsedTime = since()
				cfg.Protocol.SetElapsed(res.ElapsedTime)
			}
		}
	}
	// Seed every worker, then translate results until the budget is met.
	for w := 1; w <= workers; w++ {
		exec(m.Handle(master.Event{Kind: master.EvJoin, Worker: w, At: since()}))
	}
	for !m.Done() {
		r := <-results
		exec(m.Handle(master.Event{Kind: master.EvResult, Worker: r.worker, Item: r.item.ID, At: since()}))
		// Deferred mode: the grant is already on its channel; fold the
		// staged result in now (no-op when DeferArchive is off).
		m.Flush()
		// Quality cadence: route the trigger through the master so the
		// sample point lands in the BMEL log (replayable).
		if q := cfg.Quality; q != nil && !m.Done() && q.Due(m.Completed(), since()) {
			exec(m.Handle(master.Event{Kind: master.EvQuality, Item: q.NextSeq(), At: since()}))
		}
	}
	close(done) // frees workers blocked on a result send

	res.Evaluations = m.Completed()
	res.Completed = true
	res.MeanTA = alg.Mean()
	res.TASamples = alg.Samples()
	res.MeanTF = cfg.TF.Mean()
	res.MeanTC = 0 // channel transfers; not separately measurable here
	return res, nil
}

// workerStreams derives one timing-RNG stream per wall-clock worker by
// splitting a dedicated root, so worker streams are decorrelated by
// construction (each split reseeds through splitmix64) instead of by
// xor-scrambling the run seed. The root is offset from cfg.Seed so the
// streams are also independent of the master's algorithm randomness.
func workerStreams(seed uint64, n int) []*rng.Source {
	root := rng.New(seed ^ 0x7265616c74696d65) // "realtime"
	streams := make([]*rng.Source, n)
	for i := range streams {
		streams[i] = root.Split()
	}
	return streams
}
