package master

import (
	"time"

	"borgmoea/internal/advisor"
	"borgmoea/internal/core"
	"borgmoea/internal/obs"
	"borgmoea/internal/rng"
	"borgmoea/internal/stats"
)

// MeterConfig tells a Metered adapter where its T_A comes from, how it
// is charged, and who observes it. Every field is optional.
type MeterConfig struct {
	// TA samples each section's T_A, drawn on Rng right after the
	// section runs, so the draws interleave with whatever else shares
	// Rng (the DES drivers' T_C) in call order. Nil measures the
	// section's wall-clock duration instead.
	TA stats.Distribution
	// Rng is the stream TA draws from; in wall-clock mode it feeds
	// Stretch instead.
	Rng *rng.Source
	// Stretch, in wall-clock mode only, sleeps a sampled duration
	// inside every section, so the reported T_A includes it — the
	// federation's SimulateTA knob.
	Stretch stats.Distribution
	// Charge bills a section's T_A to the transport (a DES "algo"
	// hold, a realtime journal span) after the observers saw it.
	Charge func(ta float64)
	// Capture keeps every T_A value for Samples.
	Capture bool
	// Observers, each nil-safe. Hist (the master.ta histogram) and
	// Advisor receive every T_A; Trace receives the T_A of each section
	// that folds a result in, keyed by that result's lease id. Install
	// wires Advisor, Trace and Quality into the core's hooks.
	Hist    *obs.Histogram
	Advisor *advisor.Advisor
	Trace   *obs.Collector
	Quality *obs.QualitySampler
}

// Metered is the Algorithm adapter every driver runs. It wraps one
// Borg instance and treats each master critical section alike: Suggest,
// Accept, AcceptSuggest, ApplyStaged and Inject each count as one T_A
// section, timed or sampled per MeterConfig, reported once to the
// observers, then charged. StageAccept is an append and stays
// uncharged.
type Metered struct {
	b       *core.Borg
	cfg     MeterConfig
	sum     float64
	n       uint64
	samples []float64
	// staged is the lease id of the latest StageAccept, which the
	// following ApplyStaged folds in.
	staged uint64
}

// NewMetered wraps b.
func NewMetered(b *core.Borg, cfg MeterConfig) *Metered {
	return &Metered{b: b, cfg: cfg}
}

// Install makes m the core's algorithm and wires its observers into
// the core's hooks: the trace collector becomes the protocol tracer,
// the quality sampler is attached and receives EvQuality, and the
// advisor receives OnAcceptFrom unless the caller set that hook
// already. Replay installs a Metered passed as ReplayConfig.Alg the
// same way.
func (m *Metered) Install(cfg *Config) {
	cfg.Alg = m
	if m.cfg.Trace != nil {
		cfg.Tracer = m.cfg.Trace
	}
	if adv := m.cfg.Advisor; adv != nil && cfg.OnAcceptFrom == nil {
		cfg.OnAcceptFrom = adv.ObserveAccept
	}
	if q := m.cfg.Quality; q != nil {
		q.Attach(m.b)
		cfg.OnQuality = func(seq uint64, at float64) { q.Sample(seq, at) }
	}
}

func (m *Metered) Suggest() *core.Solution {
	t0 := m.start()
	s := m.b.Suggest()
	m.stop(t0)
	return s
}

func (m *Metered) Accept(it *Item) {
	t0 := m.start()
	m.b.Accept(it.S)
	m.cfg.Trace.ObserveTA(it.ID, m.stop(t0))
}

func (m *Metered) AcceptSuggest(it *Item) *core.Solution {
	t0 := m.start()
	m.b.Accept(it.S)
	next := m.b.Suggest()
	m.cfg.Trace.ObserveTA(it.ID, m.stop(t0))
	return next
}

func (m *Metered) StageAccept(it *Item) {
	m.b.StageAccept(it.S)
	m.staged = it.ID
}

func (m *Metered) ApplyStaged() {
	t0 := m.start()
	m.b.ApplyStaged()
	m.cfg.Trace.ObserveTA(m.staged, m.stop(t0))
}

// Inject folds an evaluated migrant in as its own T_A section: master
// time, but no function evaluation.
func (m *Metered) Inject(s *core.Solution) {
	t0 := m.start()
	m.b.InjectEvaluated(s)
	m.stop(t0)
}

// Sum returns the total T_A metered so far.
func (m *Metered) Sum() float64 { return m.sum }

// Count returns the number of T_A sections so far.
func (m *Metered) Count() uint64 { return m.n }

// Mean returns the mean T_A per section (0 before the first).
func (m *Metered) Mean() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// Samples returns every T_A so far when Capture is set.
func (m *Metered) Samples() []float64 { return m.samples }

func (m *Metered) start() time.Time {
	if m.cfg.TA != nil {
		return time.Time{}
	}
	return time.Now()
}

// stop closes the section opened at t0: it settles its T_A, reports it
// and charges it.
func (m *Metered) stop(t0 time.Time) float64 {
	var ta float64
	if m.cfg.TA != nil {
		ta = m.cfg.TA.Sample(m.cfg.Rng)
	} else {
		if m.cfg.Stretch != nil {
			time.Sleep(time.Duration(m.cfg.Stretch.Sample(m.cfg.Rng) * float64(time.Second)))
		}
		ta = time.Since(t0).Seconds()
	}
	m.sum += ta
	m.n++
	if m.cfg.Capture {
		m.samples = append(m.samples, ta)
	}
	m.cfg.Hist.Observe(ta)
	m.cfg.Advisor.ObserveTA(ta)
	if m.cfg.Charge != nil {
		m.cfg.Charge(ta)
	}
	return ta
}
